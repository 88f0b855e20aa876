"""One malformed input per refusal of the document readers and the CLI.

Each case breaks one field of a valid document (drops it, retypes it or
puts it out of range) or passes one bad option, and expects the exact
message.  A case the CLI can read runs through `rauzy.cli.main`, which must
print the "input error" report with that message and exit 2; the SFT
reader and the writers, which no command reaches, are called directly.
`test_every_refusal_is_reached` runs the whole table under a line trace
and fails if a `raise DocumentError` in serialize.py or cli.py never runs.
"""

import ast
import contextlib
import copy
import io
import json
import os
import sys
import tempfile

import pytest

from rauzy import cli, graphs, measured, selectors, serialize
from rauzy.actions import FiniteAction
from rauzy.patterns import Alphabet, Sft, WindowConfig
from rauzy.serialize import (DocumentError, action_to_doc, graph_to_doc,
                             measured_to_doc, selector_to_doc, sft_from_doc,
                             sft_to_doc, window_to_doc)
from rauzy.words import FreeGroup

G = FreeGroup(2)
CYC2 = graphs.two_cycle(G)
GRAPH = graph_to_doc(CYC2)
MEASURED = measured_to_doc(measured.integer_solution(CYC2))
_CYCLE = selectors.find_cycle(CYC2, 0)
SELECTOR = selector_to_doc(selectors.synthesize_recurrent(CYC2, _CYCLE),
                           _CYCLE)
_SWAP = action_to_doc(FiniteAction(G, ["p", "q"], [[1, 0], [0, 1]]))
SPEC = {"left": _SWAP, "right": _SWAP,
        "f1": {"p": "*", "q": "*"}, "f2": {"p": "*", "q": "*"}}
WINDOW = {"rank": 2, "values": {"e": 1, "a": 0, "A": 0}}
PATTERN = {"values": {"e": 1}}
SFT = {"rank": 2, "alphabet": [0, 1], "window": ["e", "a"],
       "forbidden": [{"e": 0, "a": 1}, {"e": 1}]}

# kind -> (valid document, the command that reads it; None: no command
# reads it, so the case calls the reader itself)
KINDS = {
    "graph": (GRAPH, ["validate", "{doc}"]),
    "measured": (MEASURED, ["validate", "{doc}"]),
    "selector": (SELECTOR, ["sofic-witness", "{doc}"]),
    "spec": (SPEC, ["fiber-product", "{doc}"]),
    "window": (WINDOW, ["return-set", "{doc}", "--pattern", "{pattern}",
                        "--depth", "0"]),
    "pattern": (PATTERN, ["return-set", "{window}", "--pattern", "{doc}",
                          "--depth", "0"]),
    "sft": (SFT, None),
}

DROP = object()     # the change deletes the key
ABSENT = object()   # no file is written at the document's path


class Raw(str):
    """A document file written as this text, not as JSON."""


def _changed(doc, path, value):
    """A copy of doc with the value at path (keys and list indices)
    replaced or, for DROP, deleted; the empty path replaces the whole."""
    if not path:
        return value
    doc = copy.deepcopy(doc)
    *parents, last = path
    parent = doc
    for key in parents:
        parent = parent[key]
    if value is DROP:
        del parent[last]
    else:
        parent[last] = value
    return doc


def _float_window_writer():
    return window_to_doc(G, WindowConfig({(): 1.5}))


def _float_alphabet_writer():
    return sft_to_doc(Sft(G, Alphabet([1.5]), [()]))


# id -> (kind, path, value, message[, argv]): the document of `kind` with
# `value` at `path`, read by argv (default: the kind's command).  A
# message with "{doc}" names the document's path.  Kind None runs argv on
# no document; a callable kind is a writer call that must refuse.
CASES = {
    # files
    "file-absent": ("graph", (), ABSENT,
                    "{doc}: [Errno 2] No such file or directory: '{doc}'"),
    "file-not-json": ("graph", (), Raw("{"), "{doc}: invalid JSON "
                      "(Expecting property name enclosed in double quotes: "
                      "line 1 column 2 (char 1))"),
    "file-too-deep": ("graph", (), Raw("[" * 100_000 + "]" * 100_000),
                      "{doc}: invalid JSON (nested too deeply)"),
    # graph
    "graph-not-object": ("graph", (), [], "graph: expected an object"),
    "rank-dropped": ("graph", ("rank",), DROP, "graph.rank: missing"),
    "rank-string": ("graph", ("rank",), "2",
                    "graph.rank: must be a positive integer"),
    "rank-boolean": ("graph", ("rank",), True,
                     "graph.rank: must be a positive integer"),
    "rank-zero": ("graph", ("rank",), 0,
                  "graph.rank: must be a positive integer"),
    "rank-26": ("graph", ("rank",), 26,
                "graph.rank: rank must be from 1 to 25, got 26"),
    "vertices-dropped": ("graph", ("vertices",), DROP,
                         "graph.vertices: missing"),
    "vertices-string": ("graph", ("vertices",), "uv",
                        "graph.vertices: must be a list of names"),
    "vertex-integer": ("graph", ("vertices", 1), 1,
                       "graph.vertices: must be a list of names"),
    "vertices-duplicate": ("graph", ("vertices", 1), "u",
                           "graph.vertices: duplicate names"),
    "edges-dropped": ("graph", ("edges",), DROP, "graph.edges: missing"),
    "edges-object": ("graph", ("edges",), {},
                     "graph.edges: must be a list"),
    "edge-not-object": ("graph", ("edges", 1), "x",
                        "graph.edges[1]: expected an object"),
    "source-dropped": ("graph", ("edges", 1, "source"), DROP,
                       "graph.edges[1].source: missing"),
    "range-dropped": ("graph", ("edges", 1, "range"), DROP,
                      "graph.edges[1].range: missing"),
    "label-dropped": ("graph", ("edges", 1, "label"), DROP,
                      "graph.edges[1].label: missing"),
    "bar-dropped": ("graph", ("edges", 1, "bar"), DROP,
                    "graph.edges[1].bar: missing"),
    "source-unknown": ("graph", ("edges", 1, "source"), "w",
                       "graph.edges[1].source: unknown vertex 'w'"),
    "range-integer": ("graph", ("edges", 1, "range"), 0,
                      "graph.edges[1].range: unknown vertex 0"),
    "source-list": ("graph", ("edges", 1, "source"), ["u"],
                    "graph.edges[1].source: unknown vertex ['u']"),
    "label-two-letters": ("graph", ("edges", 1, "label"), "ab",
                          "graph.edges[1].label: must be a single letter"),
    "label-integer": ("graph", ("edges", 1, "label"), 0,
                      "graph.edges[1].label: must be a single letter"),
    "label-identity": ("graph", ("edges", 1, "label"), "e",
                       "graph.edges[1].label: invalid letter 'e'"),
    "label-past-rank": ("graph", ("edges", 1, "label"), "c",
                        "graph.edges[1].label: letter 'c' out of range for "
                        "rank 2"),
    "bar-past-end": ("graph", ("edges", 1, "bar"), 8,
                     "graph.edges[1].bar: must index an edge"),
    "bar-negative": ("graph", ("edges", 1, "bar"), -1,
                     "graph.edges[1].bar: must index an edge"),
    "bar-string": ("graph", ("edges", 1, "bar"), "4",
                   "graph.edges[1].bar: must index an edge"),
    "bar-boolean": ("graph", ("edges", 1, "bar"), True,
                    "graph.edges[1].bar: must index an edge"),
    # measured graph
    "mu-dropped": ("measured", ("mu",), DROP, "graph.mu: missing"),
    "m-dropped": ("measured", ("m",), DROP, "graph.m: missing"),
    "mu-list": ("measured", ("mu",), ["1", "1"],
                "graph.mu: must map vertex names to rationals"),
    "m-object": ("measured", ("m",), {"0": "1"},
                 "graph.m: must list one rational per edge"),
    "m-short": ("measured", ("m", 7), DROP,
                "graph.m: must list one rational per edge"),
    "mu-vertex-dropped": ("measured", ("mu", "v"), DROP,
                          "graph.mu.v: missing"),
    "mu-float": ("measured", ("mu", "v"), 1.5,
                 "graph.mu.v: rationals must be 'p/q' strings"),
    "m-exponent": ("measured", ("m", 1), "1e3",
                   "graph.m[1]: rationals must be 'p/q' strings"),
    "m-boolean": ("measured", ("m", 1), True,
                  "graph.m[1]: rationals must be 'p/q' strings"),
    "m-zero-denominator": ("measured", ("m", 1), "1/0",
                           "graph.m[1]: Fraction(1, 0)"),
    "m-negative": ("measured", ("m", 1), "-1",
                   "graph: weights must be non-negative"),
    "weights-needed": ("graph", (), GRAPH,
                       "graph: this command needs mu/m weights",
                       ["finite-action", "{doc}"]),
    "hint-needs-weights": ("graph", (), GRAPH,
                           "graph: --hint needs mu/m in the document",
                           ["measure", "solve", "{doc}", "--hint"]),
    # selector
    "selector-not-object": ("selector", (), [],
                            "selector: expected an object"),
    "graph-dropped": ("selector", ("graph",), DROP,
                      "selector.graph: missing"),
    "selector-graph-rank": ("selector", ("graph", "rank"), DROP,
                            "selector.graph.rank: missing"),
    "v0-dropped": ("selector", ("v0",), DROP, "selector.v0: missing"),
    "v0-unknown": ("selector", ("v0",), "w",
                   "selector.v0: unknown vertex 'w'"),
    "v0-list": ("selector", ("v0",), ["u"],
                "selector.v0: unknown vertex ['u']"),
    "t0-dropped": ("selector", ("t0",), DROP, "selector.t0: missing"),
    "t1-dropped": ("selector", ("t1",), DROP, "selector.t1: missing"),
    "t1-object": ("selector", ("t1",), {},
                  "selector.t1: must list one row per edge"),
    "t1-short": ("selector", ("t1", 7), DROP,
                 "selector.t1: must list one row per edge"),
    "t0-list": ("selector", ("t0",), [0, 1, 2, 3], "selector.t0.a: missing"),
    "t0-letter-dropped": ("selector", ("t0", "B"), DROP,
                          "selector.t0.B: missing"),
    "t0-past-end": ("selector", ("t0", "b"), 8,
                    "selector.t0.b: must index an edge"),
    "t0-boolean": ("selector", ("t0", "a"), False,
                   "selector.t0.a: must index an edge"),
    "t1-row-integer": ("selector", ("t1", 2), 4,
                       "selector.t1[2].a: missing"),
    "t1-letter-dropped": ("selector", ("t1", 2, "A"), DROP,
                          "selector.t1[2].A: missing"),
    "t1-negative": ("selector", ("t1", 2, "A"), -1,
                    "selector.t1[2].A: must index an edge"),
    "t0-wrong-edge": ("selector", ("t0", "a"), 2,
                      "selector: invalid edge selector: t0[a] has the wrong "
                      "label"),
    "cycle-string": ("selector", ("cycle",), "0,4",
                     "selector.cycle: must list edge indices"),
    "cycle-past-end": ("selector", ("cycle", 1), 8,
                       "selector.cycle: must list edge indices"),
    "cycle-boolean": ("selector", ("cycle", 0), False,
                      "selector.cycle: must list edge indices"),
    "cycle-needed": ("selector", ("cycle",), DROP,
                     "selector document carries no cycle; pass --cycle",
                     ["certify-minimal", "{doc}", "--window", "1",
                      "--depth", "1"]),
    # fiber-product spec and its actions
    "spec-not-object": ("spec", (), [], "spec.left: missing"),
    "left-dropped": ("spec", ("left",), DROP, "spec.left: missing"),
    "right-dropped": ("spec", ("right",), DROP, "spec.right: missing"),
    "action-not-object": ("spec", ("left",), [],
                          "action: expected an object"),
    "action-rank-dropped": ("spec", ("right", "rank"), DROP,
                            "action.rank: missing"),
    "action-rank-zero": ("spec", ("left", "rank"), 0,
                         "action.rank: must be a positive integer"),
    "points-dropped": ("spec", ("left", "points"), DROP,
                       "action.points: missing"),
    "points-string": ("spec", ("left", "points"), "pq",
                      "action.points: must be a list of names"),
    "point-integer": ("spec", ("left", "points", 1), 1,
                      "action.points: must be a list of names"),
    "points-duplicate": ("spec", ("left", "points", 1), "p",
                         "action: duplicate point labels"),
    "perms-dropped": ("spec", ("left", "perms"), DROP,
                      "action.perms: missing"),
    "perms-list": ("spec", ("left", "perms"), [[1, 0], [0, 1]],
                   "action.perms.a: missing"),
    "perm-dropped": ("spec", ("left", "perms", "b"), DROP,
                     "action.perms.b: missing"),
    "perm-string": ("spec", ("left", "perms", "a"), "10",
                    "action.perms.a: must be a permutation as an index list"),
    "perm-short": ("spec", ("left", "perms", "a", 1), DROP,
                   "action.perms.a: must be a permutation as an index list"),
    "perm-past-end": ("spec", ("left", "perms", "b", 1), 2,
                      "action.perms.b: must be a permutation as an index "
                      "list"),
    "perm-boolean": ("spec", ("left", "perms", "a", 1), False,
                     "action.perms.a: must be a permutation as an index "
                     "list"),
    "perm-repeats": ("spec", ("left", "perms", "a"), [0, 0],
                     "action: walk for generator 0 is not a permutation"),
    "f1-dropped": ("spec", ("f1",), DROP, "spec.f1: missing"),
    "f2-list": ("spec", ("f2",), ["*", "*"], "spec.f2: must map point names"),
    "f1-point-dropped": ("spec", ("f1", "q"), DROP, "spec.f1.q: missing"),
    "f2-point-dropped": ("spec", ("f2", "p"), DROP, "spec.f2.p: missing"),
    # window and pattern
    "window-not-object": ("window", (), "x", "window: expected an object"),
    "window-rank-dropped": ("window", ("rank",), DROP,
                            "window.rank: missing"),
    "values-dropped": ("window", ("values",), DROP, "window.values: missing"),
    "values-list": ("window", ("values",), [1, 0, 0],
                    "window.values: must map words to symbols"),
    "word-invalid": ("window", ("values", "a!"), 0,
                     "window.values.a!: invalid letter '!'"),
    "word-past-rank": ("window", ("values", "c"), 0,
                       "window.values.c: letter 'c' out of range for rank 2"),
    "word-twice": ("window", ("values", "aAa"), 0,
                   "window.values.aAa: duplicate word"),
    "symbol-float": ("window", ("values", "a"), 0.5, "window.values.a: "
                     "symbol 0.5 is not a string or an integer"),
    "pattern-not-object": ("pattern", (), [], "pattern: expected an object"),
    "pattern-values-dropped": ("pattern", ("values",), DROP,
                               "pattern.values: missing"),
    "pattern-values-string": ("pattern", ("values",), "e",
                              "pattern.values: must map words to symbols"),
    "pattern-word-invalid": ("pattern", ("values", "E"), 1,
                             "pattern.values.E: invalid letter 'E'"),
    "pattern-symbol-null": ("pattern", ("values", "e"), None,
                            "pattern.values.e: symbol None is not a string "
                            "or an integer"),
    # SFT
    "sft-not-object": ("sft", (), [], "sft: expected an object"),
    "sft-rank-dropped": ("sft", ("rank",), DROP, "sft.rank: missing"),
    "sft-rank-float": ("sft", ("rank",), 2.0,
                       "sft.rank: must be a positive integer"),
    "alphabet-dropped": ("sft", ("alphabet",), DROP, "sft.alphabet: missing"),
    "alphabet-empty": ("sft", ("alphabet",), [],
                       "sft.alphabet: must be a nonempty list"),
    "alphabet-string": ("sft", ("alphabet",), "01",
                        "sft.alphabet: must be a nonempty list"),
    "alphabet-symbol-list": ("sft", ("alphabet", 1), [1], "sft.alphabet[1]: "
                             "symbol [1] is not a string or an integer"),
    "alphabet-duplicate": ("sft", ("alphabet",), [0, 1, 0],
                           "sft: duplicate symbol 0"),
    "window-dropped": ("sft", ("window",), DROP, "sft.window: missing"),
    "window-string": ("sft", ("window",), "e",
                      "sft.window: must be a list of words"),
    "window-word-integer": ("sft", ("window", 1), 0,
                            "sft.window[1]: words must be strings"),
    "window-word-invalid": ("sft", ("window", 1), "a?",
                            "sft.window[1]: invalid letter '?'"),
    "window-no-identity": ("sft", ("window", 0), "A",
                           "sft: defining window must contain the identity"),
    "forbidden-dropped": ("sft", ("forbidden",), DROP,
                          "sft.forbidden: missing"),
    "forbidden-object": ("sft", ("forbidden",), {"e": 0},
                         "sft.forbidden: must be a list of patterns"),
    "rule-list": ("sft", ("forbidden", 1), ["e", 1],
                  "sft.forbidden[1]: must map words to symbols"),
    "rule-word-invalid": ("sft", ("forbidden", 0, "a!"), 1,
                          "sft.forbidden[0].a!: invalid letter '!'"),
    "rule-word-twice": ("sft", ("forbidden", 1, "aA"), 1,
                        "sft.forbidden[1].aA: duplicate word"),
    "rule-symbol-float": ("sft", ("forbidden", 1, "e"), 1.5,
                          "sft.forbidden[1].e: symbol 1.5 is not a string "
                          "or an integer"),
    "rule-support-wide": ("sft", ("forbidden", 0, "b"), 1,
                          "sft.forbidden[0]: forbidden support "
                          "[(), (0,), (2,)] is not one step inside the "
                          "defining window"),
    "rule-symbol-outside": ("sft", ("forbidden", 0, "a"), 7,
                            "sft.forbidden[0]: symbol 7 is not in the "
                            "alphabet"),
    # writers
    "window-writer-float": (_float_window_writer, (), None,
                            "window: symbol 1.5 is not a string or an "
                            "integer"),
    "sft-writer-float": (_float_alphabet_writer, (), None,
                         "sft.alphabet: symbol 1.5 is not a string or an "
                         "integer"),
    # options
    "vertex-unknown": ("graph", (), GRAPH, "--vertex: unknown vertex 'w'",
                       ["cycle", "{doc}", "--vertex", "w"]),
    "cycle-arg-letters": ("graph", (), GRAPH,
                          "--cycle: must be comma-separated edge indices",
                          ["selector", "synth", "{doc}", "--cycle", "0,a"]),
    "cycle-arg-past-end": ("graph", (), GRAPH,
                           "--cycle: edge index out of range",
                           ["selector", "synth", "{doc}", "--cycle", "0,8"]),
    "generator-past-rank": ("measured", (), MEASURED,
                            "--generator: no generator 2 at rank 2",
                            ["finite-action", "{doc}", "--transitive",
                             "--generator", "2"]),
    "dot-unwritable": ("graph", (), GRAPH,
                       "--dot: [Errno 20] Not a directory: '{doc}/g.dot'",
                       ["validate", "{doc}", "--dot", "{doc}/g.dot"]),
    "radius-negative": ("graph", (), GRAPH,
                        "--radius: must not be negative, got -1",
                        ["xg-window", "{doc}", "--radius", "-1"]),
    "rank-option-zero": (None, (), None,
                         "--rank: rank must be from 1 to 25, got 0",
                         ["special-symbol", "--rank", "0", "--gen", "a",
                          "--radius", "1"]),
    "gen-inverse": (None, (), None, "--gen: must be a positive generator",
                    ["special-symbol", "--rank", "2", "--gen", "A",
                     "--radius", "1"]),
}


def _write(directory, name, doc):
    path = os.path.join(directory, name)
    if doc is not ABSENT:
        with open(path, "w") as fh:
            fh.write(doc if isinstance(doc, Raw) else json.dumps(doc))
    return path


def _refusal(case, directory):
    """Run one case: the CLI's (exit code, report, document path), or for a
    case no command reaches (None, the DocumentError's message, None)."""
    kind, path, value, _, *argv = case
    if callable(kind) or kind == "sft":
        call = kind if callable(kind) else (
            lambda: sft_from_doc(_changed(SFT, path, value)))
        with pytest.raises(DocumentError) as info:
            call()
        return None, str(info.value), None
    paths = {"window": _write(directory, "window.json", WINDOW),
             "pattern": _write(directory, "pattern.json", PATTERN)}
    if kind is not None:
        doc = _changed(KINDS[kind][0], path, value)
        paths["doc"] = _write(directory, "doc.json", doc)
    argv = [arg.format(**paths) for arg in (argv[0] if argv
                                             else KINDS[kind][1])]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, json.loads(out.getvalue()), paths.get("doc")


@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_refusal(tmp_path, case):
    message = case[3]
    code, report, doc = _refusal(case, str(tmp_path))
    if code is None:
        assert report == message
        return
    assert report["witnesses"] == {"error": message.format(doc=doc)}
    assert (code, report["verdict"], report["inputs"]) == (2, "input error",
                                                           {})


@pytest.mark.parametrize("kind", [k for k, (_, argv) in KINDS.items()
                                  if argv is not None])
def test_unchanged_documents_are_read(tmp_path, kind):
    """Every case breaks a document that its command reads."""
    code, report, _ = _refusal((kind, (), KINDS[kind][0], ""),
                               str(tmp_path))
    assert code == 0 and report["verdict"] == "ok"


def test_unchanged_sft_is_read():
    assert sft_to_doc(sft_from_doc(SFT)) == SFT


def _refusal_lines(module) -> set:
    """The lines of module's source that raise a DocumentError."""
    with open(module.__file__) as fh:
        tree = ast.parse(fh.read())
    return {node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Raise)
            and isinstance(node.exc, ast.Call)
            and getattr(node.exc.func, "id", None) == "DocumentError"}


def test_every_refusal_is_reached():
    """Each `raise DocumentError` line of serialize.py and cli.py runs for
    some case of the table."""
    files = {serialize.__file__: _refusal_lines(serialize),
             cli.__file__: _refusal_lines(cli)}
    ran = set()

    def line(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    def call(frame, event, arg):
        return line if frame.f_code.co_filename in files else None

    with tempfile.TemporaryDirectory() as directory:
        sys.settrace(call)
        try:
            for case in CASES.values():
                _refusal(case, directory)
        finally:
            sys.settrace(None)
    missed = {f"{os.path.basename(name)}:{n}" for name, lines in files.items()
              for n in lines if (name, n) not in ran}
    assert not missed, f"no case reaches the refusals at {sorted(missed)}"
