"""serialize.report_text against the stdlib's json.dumps(indent=2,
sort_keys=True): the same text for every JSON tree, the same error for
every tree that stdlib refuses."""

import json
import math
from datetime import date
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rauzy import serialize
from rauzy.serialize import report_text


class Str(str):
    pass


class Int(int):
    pass


class Float(float):
    def __repr__(self):
        return "Float()"


class Dict(dict):
    pass


def outcome(write, obj):
    """The text write(obj) returns, or the type and message it raises."""
    try:
        return write(obj)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def stdlib(obj):
    return json.dumps(obj, indent=2, sort_keys=True)


TEXT = st.text() | st.sampled_from(
    ["", "é", "☃ snow", "\x00\x1f\x7f", "tab\tnew\nline", "q\"b\\", "\ud800",
     "\U0001f600"])
FLOATS = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0])
SCALARS = (st.none() | st.booleans() | st.integers() | FLOATS | TEXT
           | st.sampled_from([True, 1, 1.0, False, 0])
           | st.builds(Str, TEXT) | st.builds(Int, st.integers())
           | st.builds(Float, st.floats(allow_nan=False)))
# one key kind per dict sorts; the last mixes int and str, so a dict of
# two or more keys of it makes the sort raise
KEY_KINDS = [TEXT, st.integers() | st.booleans() | FLOATS, st.none(),
             st.integers(-3, 3) | st.text(max_size=1)]


def dicts(values, **kw):
    return st.one_of([st.dictionaries(k, values, **kw) for k in KEY_KINDS])


TREES = st.recursive(
    SCALARS,
    lambda children: (st.lists(children, max_size=5)
                      | st.lists(children, max_size=5).map(tuple)
                      | dicts(children, max_size=5)
                      | dicts(children, max_size=5).map(Dict)
                      # the SFT's "forbidden" shape: non-empty leaf dicts
                      | st.lists(dicts(SCALARS, min_size=1, max_size=3),
                                 min_size=1, max_size=5)),
    max_leaves=40)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(TREES)
def test_report_text_is_the_stdlib_indent_2_text(tree):
    assert outcome(report_text, tree) == outcome(stdlib, tree)


EDGE_TREES = [
    {}, [], (), [[]], [{}], {"a": {}, "b": [], "c": ()}, [[], {}, ()],
    {1: [True, 1], 2.5: {None: 1}, False: (1.0,), -3: [{}]},
    {"k": [{"e": 1, "a": "b"}, {"e": "\x01é"}]},
    [{"e": 1}, {}], [{"e": 1}, [1]], [Dict(e=1)], [{Str("e"): Int(2)}],
    {"x": math.nan, "y": math.inf, "z": -math.inf},
    {math.nan: [1], math.inf: 2}, [Float(1.5)], {Float(2.5): [1]},
]


@pytest.mark.parametrize("tree", EDGE_TREES, ids=repr)
def test_report_text_on_edge_trees(tree):
    assert report_text(tree) == stdlib(tree)


def test_report_text_without_the_c_encoder(monkeypatch):
    monkeypatch.setattr(serialize, "c_make_encoder", None)
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    serialize._one_call.cache_clear()
    try:
        for tree in EDGE_TREES:
            assert report_text(tree) == stdlib(tree)
    finally:
        serialize._one_call.cache_clear()


@pytest.mark.parametrize("tree", [
    {"a": {1, 2}}, [set()], set(),
    # an object's repr holds its address, which changes from run to run
    pytest.param({"a": [object()]}, id="{'a': [object()]}"),
    {1: "a", "b": 2}, {1: [1], "b": 2}, [{1: 1, "a": 2}], [{None: 1, 0: 2}],
    {(1,): 1}, {(1,): [1]}, [{(1, 2): 3}], {"a": {"b": {1: 1, "c": 2}}},
    # the C encoder names these key types decimal.Decimal and datetime.date
    {Decimal(1): 1}, [{date(2020, 1, 1): 1}], {"a": [{"e": 1, Decimal(2): 2}]},
], ids=repr)
def test_report_text_raises_the_stdlib_type_error(tree):
    expected = outcome(stdlib, tree)
    assert expected[0] is TypeError
    assert outcome(report_text, tree) == expected


def test_report_text_refuses_a_circular_container():
    loop = [1]
    loop.append(loop)
    nested = {"a": [{"b": loop}]}
    for tree in (loop, nested):
        with pytest.raises(ValueError, match="^Circular reference detected$"):
            report_text(tree)
        assert outcome(report_text, tree) == outcome(stdlib, tree)
    shared = [1, 2]
    assert report_text([shared, {"s": shared}]) == \
        stdlib([shared, {"s": shared}])
