import hashlib
import json
import random
import time
from fractions import Fraction

import pytest
from oracles import sft_pairs

from rauzy import cli, graphs, measured, selectors
from rauzy.actions import FiniteAction
from rauzy.cli import main
from rauzy.serialize import (
    DocumentError,
    action_from_doc,
    action_to_doc,
    graph_from_doc,
    graph_to_doc,
    measured_to_doc,
    selector_from_doc,
    selector_to_doc,
    sft_from_doc,
    sft_to_doc,
    window_from_doc,
    window_to_doc,
)
from rauzy.words import FreeGroup

def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


@pytest.fixture()
def cyc2_doc(cyc2):
    return graph_to_doc(cyc2)


def test_validate_ok_and_exit_codes(tmp_path, capsys, group2, rose2, cyc2_doc):
    path = write(tmp_path, "cyc2.json", cyc2_doc)
    code, report = run(capsys, "validate", path)
    assert code == 0 and report["verdict"] == "ok"
    assert report["command"] == "validate"
    assert len(report["inputs"]["graph"]) == 64

    broken = graphs.RauzyGraph.from_triples(group2, ["v"], [("v", 0, "v")])
    bpath = write(tmp_path, "broken.json", graph_to_doc(broken))
    code, report = run(capsys, "validate", bpath)
    assert code == 1
    assert any("no outgoing" in v for v in report["witnesses"]["violations"])


def test_minimal(tmp_path, capsys, rose2):
    path = write(tmp_path, "rose.json", graph_to_doc(rose2))
    code, report = run(capsys, "minimal", path)
    assert code == 0 and report["verdict"] is True


INVALID_GRAPH_REPORT = """{
  "command": "%s",
  "inputs": {},
  "verdict": "invalid graph",
  "witnesses": {
    "violations": [
      "no outgoing edge at vertex 'v' labeled b",
      "no outgoing edge at vertex 'v' labeled B"
    ]
  }
}
"""


@pytest.mark.parametrize("command", ["minimal", "conditions"])
def test_invalid_graph_is_refused_before_the_check(tmp_path, capsys, group2,
                                                   command):
    broken = graphs.RauzyGraph.from_triples(group2, ["v"], [("v", 0, "v")])
    path = write(tmp_path, "broken.json", graph_to_doc(broken))
    assert main([command, path]) == 1
    assert capsys.readouterr().out == INVALID_GRAPH_REPORT % command


def test_minimal_two_disjoint_roses(tmp_path, capsys, group2):
    # edges 0-3 are the loops at u, 4-7 those at v: the least edge, then
    # the least edge that no reduced path from it reaches, up to reversal
    g = graphs.RauzyGraph.from_triples(
        group2, ["u", "v"],
        [("u", 0, "u"), ("u", 2, "u"), ("v", 0, "v"), ("v", 2, "v")])
    path = write(tmp_path, "roses.json", graph_to_doc(g))
    code, report = run(capsys, "minimal", path)
    assert code == 1 and report["verdict"] is False
    assert report["witnesses"] == {"unreachable_pair": [0, 4]}


def test_conditions(tmp_path, capsys, group2, cyc2_doc):
    path = write(tmp_path, "cyc2.json", cyc2_doc)
    code, report = run(capsys, "conditions", path)
    assert code == 0
    assert report["verdict"] == {"c1": True, "c2": True, "c3": True}
    flow = graphs.letter_flow_graph(group2)
    fpath = write(tmp_path, "flow.json", graph_to_doc(flow))
    code, report = run(capsys, "conditions", fpath)
    assert code == 1
    assert report["verdict"] == {"c1": True, "c2": True, "c3": False}


def test_xg_window(tmp_path, capsys, cyc2_doc):
    path = write(tmp_path, "cyc2.json", cyc2_doc)
    code, report = run(capsys, "xg-window", path, "--radius", "2")
    assert code == 0
    assert report["witnesses"]["count"] == 2


# SHA-256 of the `xg-window` reports on letter_flow at radius 4 and on
# two_cycle at radius 5, recorded before window configs became value tuples
# over a shared Domain; they must not move.
XG_WINDOW_SHA256 = {
    ("letter_flow", 4):
        "d64b0e252b9e293552b35d3ac18bfc41916b2312d549b36b40d7deed89d87329",
    ("two_cycle", 5):
        "c2dec3b69ac24cbad271aecd49e07d53941d36cb6e7c0cce0f1c88600b2633fc",
}


@pytest.mark.parametrize("family, radius", sorted(XG_WINDOW_SHA256))
def test_xg_window_reports_are_pinned(tmp_path, capsys, group2, family,
                                      radius):
    g = {"letter_flow": graphs.letter_flow_graph,
         "two_cycle": graphs.two_cycle}[family](group2)
    path = write(tmp_path, "g.json", graph_to_doc(g))
    assert main(["xg-window", path, "--radius", str(radius)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == \
        XG_WINDOW_SHA256[family, radius]


def test_cycle_and_selector_pipeline(tmp_path, capsys, cyc2_doc):
    path = write(tmp_path, "cyc2.json", cyc2_doc)
    code, report = run(capsys, "cycle", path, "--vertex", "u")
    assert code == 0
    cycle = report["witnesses"]["cycle"]
    assert report["witnesses"]["labels"] == "aa"

    code, report = run(capsys, "selector", "synth", path,
                       "--cycle", ",".join(map(str, cycle)))
    assert code == 0
    sel_doc = report["witnesses"]["selector"]
    sel_path = write(tmp_path, "sel.json", sel_doc)

    code, report = run(capsys, "selector", "expand", sel_path,
                       "--radius", "2")
    assert code == 0
    assert report["witnesses"]["x_t"]["e"] == "u"
    assert report["witnesses"]["x_t"]["a"] == "v"

    code, report = run(capsys, "sofic-witness", sel_path)
    assert code == 0
    assert "*" in report["witnesses"]["sft"]["alphabet"]

    code, report = run(capsys, "certify-minimal", sel_path,
                       "--window", "2", "--depth", "4")
    assert code == 0 and report["verdict"] == "certified"
    assert report["witnesses"]["syndeticity_gap"] <= 3


def test_selector_synth_on_cycle_without_recurrent_selector(tmp_path,
                                                            capsys):
    # minimal, and the cycle is simple and reduced, but it shares edges
    # with its reverse, and following both pins t1[7][A] to two edges
    g = graphs.RauzyGraph.from_relations(
        FreeGroup(2), 2, [[(0, 0), (0, 1), (1, 0)], [(0, 1), (1, 0), (1, 1)]])
    path = write(tmp_path, "g.json", graph_to_doc(g))
    code, report = run(capsys, "selector", "synth", path,
                       "--cycle", "6,5,7,3,8,0,1,11")
    assert code == 1 and report["verdict"] == "error"
    assert report["witnesses"] == {
        "error": "conflicting recurrent constraints at t1[7][A]: 2 vs 3"}


def test_certify_minimal_counterexample(tmp_path, capsys, star3):
    # the star3 selector whose free base letter a is retargeted: all five
    # recurrence conditions hold, yet the return from g0 = a misses
    u = star3.vertex_id("u")
    cycle = (star3.edge_id(u, u, 2),)
    sel = selectors.synthesize_recurrent(star3, cycle)
    t0 = list(sel.t0)
    t0[0] = next(e for e in star3.out_edges(u, 0) if e != sel.t0[0])
    tampered = selectors.EdgeSelector(star3, sel.v0, tuple(t0), sel.t1)
    path = write(tmp_path, "sel.json", selector_to_doc(tampered, cycle))
    code, report = run(capsys, "certify-minimal", path,
                       "--window", "2", "--depth", "4")
    assert code == 1
    assert report["verdict"] == "counterexample"
    assert report["witnesses"] == {
        "g0": "a", "h": "aabb", "u": "a", "expected": "w", "got": "v"}


def test_certify_minimal_cycle_option_overrides_the_document(tmp_path,
                                                             capsys, cyc2):
    # the document carries the two-edge a-cycle at u; --cycle 2 names the
    # b-loop at u instead, for which the selector is recurrent too
    cycle = selectors.find_cycle(cyc2, 0)
    sel = selectors.synthesize_recurrent(cyc2, cycle)
    path = write(tmp_path, "sel.json", selector_to_doc(sel, cycle))
    argv = ["certify-minimal", path, "--window", "2", "--depth", "3"]
    code, report = run(capsys, *argv)
    assert code == 0 and report["witnesses"]["cycle_length"] == 2
    assert main(argv + ["--cycle", "2"]) == 0
    assert capsys.readouterr().out == """{
  "command": "certify-minimal",
  "inputs": {
    "selector": "f5cf270fe70dc2f2f35d3850745ccdd72ee7b23118e42356a7d907464966f259"
  },
  "verdict": "certified",
  "witnesses": {
    "cycle_length": 1,
    "cycle_power": 2,
    "max_return_length": 2,
    "probe_length": 3,
    "probes": 53,
    "syndeticity_gap": 3,
    "window_radius": 2
  }
}
"""


def test_cycle_on_non_minimal_graph(tmp_path, capsys, group2):
    two_roses = graphs.RauzyGraph.from_triples(
        group2, ["u", "v"],
        [("u", 0, "u"), ("u", 2, "u"), ("v", 0, "v"), ("v", 2, "v")])
    path = write(tmp_path, "tr.json", graph_to_doc(two_roses))
    code, report = run(capsys, "cycle", path, "--vertex", "u")
    assert code == 1 and "not minimal" in report["witnesses"]["error"]


def test_measure_solve_and_finite_action(tmp_path, capsys, cyc2, cyc2_doc):
    path = write(tmp_path, "cyc2.json", cyc2_doc)
    code, report = run(capsys, "measure", "solve", path)
    assert code == 0
    mdoc = report["witnesses"]["measured"]
    assert mdoc["mu"] == {"u": "1", "v": "1"}
    mpath = write(tmp_path, "meas.json", mdoc)

    code, report = run(capsys, "finite-action", mpath, "--transitive")
    assert code == 0
    assert report["witnesses"]["orbits"] == 1
    assert report["witnesses"]["action"]["perms"]["a"] == [1, 0]


def test_measure_solve_hint(tmp_path, capsys, cyc2):
    mg = measured.MeasuredRauzyGraph(
        cyc2, tuple(Fraction(1, 2) for _ in "uv"),
        tuple(Fraction(1, 2) for _ in cyc2.edges))
    path = write(tmp_path, "hint.json", measured_to_doc(mg))
    code, report = run(capsys, "measure", "solve", path, "--hint")
    assert code == 0
    assert report["witnesses"]["measured"]["mu"] == {"u": "1", "v": "1"}


def test_measure_solve_no_solution(tmp_path, capsys, group2):
    g = graphs.RauzyGraph.from_relations(
        group2, 2, [{(0, 0), (0, 1), (1, 1)}, {(0, 0), (1, 1)}])
    path = write(tmp_path, "dead.json", graph_to_doc(g))
    code, report = run(capsys, "measure", "solve", path)
    assert code == 1 and report["verdict"] == "no full-support solution"


@pytest.mark.parametrize("generator", ["2", "-1"])
def test_finite_action_generator_out_of_range(tmp_path, capsys, cyc2,
                                              generator):
    path = write(tmp_path, "meas.json",
                 measured_to_doc(measured.integer_solution(cyc2)))
    code, report = run(capsys, "finite-action", path, "--transitive",
                       "--generator", generator)
    assert code == 2 and report["verdict"] == "input error"
    assert f"no generator {generator}" in report["witnesses"]["error"]


def _key_of_one(container):
    keys = container if isinstance(container, dict) else range(len(container))
    return next(k for k in keys if container[k] == 1)


def _integer_fields(group2, cyc2, star3):
    """Per integer field: the command reading it, a document it accepts, and
    the container in that document holding the field."""
    rose = graph_to_doc(graphs.rose(FreeGroup(1)))
    graph = graph_to_doc(star3)
    bar = graph["edges"][_key_of_one([e["bar"] for e in graph["edges"]])]
    weights = measured_to_doc(measured.integer_solution(star3))
    weights["mu"] = {v: int(x) for v, x in weights["mu"].items()}
    weights["m"] = [int(x) for x in weights["m"]]
    docs = []
    for g, v in ((cyc2, "u"), (star3, "w")):
        cycle = selectors.find_cycle(g, g.vertex_id(v))
        docs.append(selector_to_doc(selectors.synthesize_recurrent(g, cycle),
                                    cycle))
    sel, with_cycle = docs
    spec = {side: action_to_doc(FiniteAction(group2, ["p", "q"],
                                             [[1, 0], [0, 1]]))
            for side in ("left", "right")}
    spec["f1"] = spec["f2"] = {"p": "*", "q": "*"}
    certify = ["certify-minimal", "--window", "1", "--depth", "2"]
    return {
        "rank": (["measure", "solve"], rose, rose),
        "bar": (["validate"], graph, bar),
        "mu": (["finite-action"], weights, weights["mu"]),
        "m": (["finite-action"], weights, weights["m"]),
        "t0": (["sofic-witness"], sel, sel["t0"]),
        "t1": (["sofic-witness"], sel, sel["t1"][2]),
        "cycle": (certify, with_cycle, with_cycle["cycle"]),
        "perms": (["fiber-product"], spec, spec["left"]["perms"]["a"]),
    }


@pytest.mark.parametrize("field", ["rank", "bar", "mu", "m", "t0", "t1",
                                   "cycle", "perms"])
def test_booleans_are_not_integers(tmp_path, capsys, group2, cyc2, star3,
                                   field):
    argv, doc, container = _integer_fields(group2, cyc2, star3)[field]
    key = field if field in ("rank", "bar") else _key_of_one(container)
    assert container[key] == 1
    code, _ = run(capsys, *argv, write(tmp_path, "int.json", doc))
    assert code == 0
    container[key] = True
    code, report = run(capsys, *argv, write(tmp_path, "bool.json", doc))
    assert code == 2 and report["verdict"] == "input error"


@pytest.mark.parametrize("where", ["window", "pattern"])
@pytest.mark.parametrize("symbol", [[1], {"x": 1}, None, True, 1.0],
                         ids=["list", "object", "null", "boolean", "float"])
def test_symbols_are_strings_or_integers(tmp_path, capsys, where, symbol):
    docs = {"window": {"rank": 2, "values": {"e": 1, "a": 0, "A": 0}},
            "pattern": {"values": {"e": 1}}}

    def return_set():
        window = write(tmp_path, "w.json", docs["window"])
        pattern = write(tmp_path, "p.json", docs["pattern"])
        return run(capsys, "return-set", window, "--pattern", pattern,
                   "--depth", "0")

    code, report = return_set()
    assert code == 0 and report["witnesses"]["returns"] == ["e"]
    docs[where]["values"]["e"] = symbol
    code, report = return_set()
    assert code == 2 and report["verdict"] == "input error"
    assert "is not a string or an integer" in report["witnesses"]["error"]


def test_fiber_product(tmp_path, capsys, group2):
    swap = FiniteAction(group2, ["x0", "x1"], [[1, 0], [0, 1]])
    three = FiniteAction(group2, ["y0", "y1", "y2"], [[1, 2, 0], [0, 1, 2]])
    spec = {
        "left": action_to_doc(swap),
        "right": action_to_doc(three),
        "f1": {p: "*" for p in swap.points},
        "f2": {p: "*" for p in three.points},
    }
    path = write(tmp_path, "fp.json", spec)
    code, report = run(capsys, "fiber-product", path)
    assert code == 0
    assert len(report["witnesses"]["action"]["points"]) == 6
    assert report["witnesses"]["orbits"] == 1


def test_special_symbol_and_return_set(tmp_path, capsys):
    code, report = run(capsys, "special-symbol", "--rank", "2",
                       "--gen", "a", "--radius", "2")
    assert code == 0
    chi_doc = {"rank": 2, "values": report["witnesses"]["chi"]}
    wpath = write(tmp_path, "chi.json", chi_doc)
    ppath = write(tmp_path, "pat.json", {"values": {"e": 1}})
    code, report = run(capsys, "return-set", wpath,
                       "--pattern", ppath, "--depth", "2")
    assert code == 0
    assert sorted(report["witnesses"]["returns"]) == \
        sorted(["e", "a", "aa", "A", "AA"])


@pytest.mark.parametrize("gen", ["c", "ab"])
def test_special_symbol_bad_generator(capsys, gen):
    code, report = run(capsys, "special-symbol", "--rank", "2",
                       "--gen", gen, "--radius", "1")
    assert code == 1 and report["verdict"] == "error"
    assert repr(gen) in report["witnesses"]["error"]


def test_special_symbol_rank_five(tmp_path, capsys):
    # generator 4 prints as "f": "e" stays the identity's name
    code, report = run(capsys, "special-symbol", "--rank", "5",
                       "--gen", "a", "--radius", "1")
    assert code == 0
    wit = report["witnesses"]
    assert len(wit["x0"]) == len(wit["chi"]) == FreeGroup(5).ball_size(1)
    assert wit["x0"]["e"] == "*" and wit["x0"]["f"] == "f"
    assert len(set(wit["sft"]["alphabet"])) == 11
    # the x0 window round-trips as a rank-5 document
    wdoc = {"rank": 5, "values": wit["x0"]}
    group, window = window_from_doc(wdoc)
    assert window_to_doc(group, window) == wdoc
    wpath = write(tmp_path, "x0.json", wdoc)
    ppath = write(tmp_path, "mark.json", {"values": {"e": "*"}})
    code, report = run(capsys, "return-set", wpath,
                       "--pattern", ppath, "--depth", "1")
    assert code == 0 and report["witnesses"]["returns"] == ["e", "a", "A"]


@pytest.mark.parametrize("rank", [26, 27])
def test_unsupported_rank_is_an_input_error(tmp_path, capsys, rank):
    doc = {"rank": rank, "vertices": ["v"], "edges": []}
    code, report = run(capsys, "validate", write(tmp_path, "g.json", doc))
    assert code == 2 and report["verdict"] == "input error"
    assert report["witnesses"]["error"].startswith("graph.rank: ")


def test_oversized_json_integer_is_an_input_error(tmp_path, capsys, cyc2_doc):
    # past Python's int-string limit json.loads raises a plain ValueError
    doc = dict(cyc2_doc, mu={"u": "BIG", "v": 1})
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc).replace('"BIG"', "9" * 5000))
    code, report = run(capsys, "validate", str(path))
    assert code == 2 and report["verdict"] == "input error"
    assert "invalid JSON" in report["witnesses"]["error"]


def test_deeply_nested_json_is_an_input_error(tmp_path, capsys):
    # json.loads raises RecursionError, not ValueError, past its depth limit
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    code, report = run(capsys, "validate", str(path))
    assert code == 2 and report["verdict"] == "input error"
    assert report["witnesses"]["error"] == \
        f"{path}: invalid JSON (nested too deeply)"


@pytest.mark.parametrize("rank", [0, 26])
@pytest.mark.parametrize("command", [
    ["special-symbol", "--gen", "a", "--radius", "1"],
    ["search-condition-witness", "--max-vertices", "1"]],
    ids=["special-symbol", "search-condition-witness"])
def test_rank_option_outside_range_is_an_input_error(capsys, command, rank):
    code, report = run(capsys, *command, "--rank", str(rank))
    assert code == 2 and report["verdict"] == "input error"
    assert report["witnesses"]["error"] == \
        f"--rank: rank must be from 1 to 25, got {rank}"


@pytest.mark.parametrize("command, option", [
    (["xg-window", "{graph}", "--radius", "1"], "--radius"),
    (["xg-window", "{graph}", "--radius", "1", "--cap", "5"], "--cap"),
    (["selector", "expand", "{selector}", "--radius", "1"], "--radius"),
    (["certify-minimal", "{selector}", "--window", "1", "--depth", "1"],
     "--window"),
    (["certify-minimal", "{selector}", "--window", "1", "--depth", "1"],
     "--depth"),
    (["special-symbol", "--rank", "2", "--gen", "a", "--radius", "1"],
     "--radius"),
    (["return-set", "{window}", "--pattern", "{pattern}", "--depth", "1"],
     "--depth"),
    (["search-condition-witness", "--max-vertices", "1"], "--max-vertices"),
], ids=lambda x: x if isinstance(x, str) else x[0])
def test_negative_count_option_is_an_input_error(tmp_path, capsys, cyc2,
                                                 command, option):
    cycle = selectors.find_cycle(cyc2, 0)
    sel = selectors.synthesize_recurrent(cyc2, cycle)
    paths = {
        "graph": write(tmp_path, "g.json", graph_to_doc(cyc2)),
        "selector": write(tmp_path, "sel.json", selector_to_doc(sel, cycle)),
        "window": write(tmp_path, "w.json",
                        window_to_doc(cyc2.group,
                                      selectors.x_t_window(sel, 2))),
        "pattern": write(tmp_path, "p.json", {"values": {"e": "u"}}),
    }
    argv = [arg.format(**paths) for arg in command]
    code, report = run(capsys, *argv)
    assert code in (0, 1) and report["verdict"] != "input error"
    argv[argv.index(option) + 1] = "-5"
    code, report = run(capsys, *argv)
    assert code == 2 and report["verdict"] == "input error"
    assert report["witnesses"]["error"] == \
        f"{option}: must not be negative, got -5"


def test_search_condition_witness_small(capsys):
    code, report = run(capsys, "search-condition-witness",
                       "--max-vertices", "2")
    assert code == 1
    assert report["witnesses"]["c1_not_c2"] is None
    assert report["witnesses"]["c2_not_c3"] is None


def test_search_condition_witness_rank1(capsys):
    # at rank 1 both separations already occur on <= 2 vertices
    code, report = run(capsys, "search-condition-witness",
                       "--rank", "1", "--max-vertices", "2")
    assert code == 0 and report["verdict"] == "found both"
    expected = {"c1_not_c2": (True, False, False),
                "c2_not_c3": (True, True, False)}
    for key, verdict in expected.items():
        g = graph_from_doc(report["witnesses"][key])
        assert graphs.validate(g) == []
        assert graphs.check_conditions(g) == verdict


def test_malformed_document(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"rank": 2}')
    code, report = run(capsys, "validate", str(path))
    assert code == 2
    assert report["verdict"] == "input error"
    assert "vertices" in report["witnesses"]["error"]

    path2 = tmp_path / "badjson.json"
    path2.write_text("{")
    code, report = run(capsys, "validate", str(path2))
    assert code == 2


def test_weight_with_an_exponent_is_refused_at_once(tmp_path, capsys, cyc2):
    doc = measured_to_doc(measured.integer_solution(cyc2))
    doc["m"][0] = "1e10000000"
    path = write(tmp_path, "exp.json", doc)
    started = time.monotonic()
    code, report = run(capsys, "validate", path)
    assert time.monotonic() - started < 5
    assert code == 2 and report["verdict"] == "input error"
    assert report["witnesses"]["error"] == \
        "graph.m[0]: rationals must be 'p/q' strings"


@pytest.mark.parametrize("text", ["1e3", "1.5", "1_000", " 1", "1/ 2", "+-1",
                                  "1/-2", "0x10", "inf", "nan", "\u0661", ""])
def test_rationals_are_decimal_integers_or_quotients(cyc2, text):
    doc = measured_to_doc(measured.integer_solution(cyc2))
    doc["m"][0] = text
    with pytest.raises(DocumentError, match=r"^graph\.m\[0\]: rationals"):
        graph_from_doc(doc)


def test_rational_forms_that_parse(star3):
    mg = measured.integer_solution(star3)
    doc = measured_to_doc(mg)
    forms = (lambda x: f"+{x}", lambda x: f"{x}/1",
             lambda x: f"{2 * int(x)}/2", int)
    for form in forms:
        doc2 = dict(doc, m=[form(x) for x in doc["m"]])
        assert graph_from_doc(doc2) == mg
    doc["m"][0] = "1/0"
    with pytest.raises(DocumentError, match=r"^graph\.m\[0\]: "):
        graph_from_doc(doc)


# SHA-256 of the `sofic-witness` report on a recurrent selector of a seeded
# 32-vertex Schreier graph (|E| = 128), recorded before SFT rules were held
# as banned symbols and (a, s, b) triples; it must not move.
SOFIC_128_SHA256 = (
    "3bc5030914ca949e999bc92a46b8fd3e7248eeee0df4c3b02e250bae2fec217e")


def test_sofic_witness_report_on_128_edges(tmp_path, capsys, group2):
    rng = random.Random(32)
    while True:
        walks = []
        for _ in range(group2.rank):
            perm = list(range(32))
            rng.shuffle(perm)
            walks.append(perm)
        g = FiniteAction(group2, [f"p{i}" for i in range(32)],
                         walks).to_graph()
        if graphs.is_minimal(g)[0]:
            break
    assert len(g.edges) == 128
    cycle = selectors.find_cycle(g, 0)
    sel = selectors.synthesize_recurrent(g, cycle)
    path = write(tmp_path, "sel.json", selector_to_doc(sel, cycle))
    assert main(["sofic-witness", path]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SOFIC_128_SHA256


def test_reports_are_byte_identical(tmp_path, capsys, cyc2_doc):
    path = write(tmp_path, "cyc2.json", cyc2_doc)
    main(["minimal", path])
    first = capsys.readouterr().out
    main(["minimal", path])
    second = capsys.readouterr().out
    assert first == second


def test_document_roundtrips(tmp_path, cyc2, star3, group2):
    # graph
    doc = graph_to_doc(cyc2)
    again = graph_to_doc(graph_from_doc(doc))
    assert doc == again
    assert graph_from_doc(doc) == cyc2
    # measured graph
    mg = measured.integer_solution(star3)
    mdoc = measured_to_doc(mg)
    parsed = graph_from_doc(mdoc)
    assert measured_to_doc(parsed) == mdoc
    # selector
    cycle = selectors.find_cycle(cyc2, 0)
    sel = selectors.synthesize_recurrent(cyc2, cycle)
    sdoc = selector_to_doc(sel, cycle)
    sel2, cycle2 = selector_from_doc(sdoc)
    assert selector_to_doc(sel2, cycle2) == sdoc
    assert sel2 == sel and cycle2 == cycle
    # action
    act = FiniteAction(group2, ["p", "q"], [[1, 0], [0, 1]])
    adoc = action_to_doc(act)
    assert action_to_doc(action_from_doc(adoc)) == adoc
    assert action_from_doc(adoc) == act
    # window
    from rauzy.selectors import x_t_window
    win = x_t_window(sel, 2)
    wdoc = window_to_doc(group2, win)
    g2, win2 = window_from_doc(wdoc)
    assert window_to_doc(g2, win2) == wdoc and win2 == win
    # sft
    sft = graphs.xg_sft(cyc2)
    fdoc = sft_to_doc(sft)
    sft2 = sft_from_doc(fdoc)
    assert sft_to_doc(sft2) == fdoc
    assert (sft2.banned, sft_pairs(sft2), sft2.window) == \
        (sft.banned, sft_pairs(sft), sft.window)


def test_dot_export(tmp_path, capsys, cyc2_doc):
    path = write(tmp_path, "cyc2.json", cyc2_doc)
    dot = tmp_path / "g.dot"
    code, _ = run(capsys, "validate", path, "--dot", str(dot))
    assert code == 0
    text = dot.read_text()
    assert text.startswith("digraph")
    assert '"u" -> "v" [label="a"]' in text
    # negative labels are implied by the involution, not drawn
    assert 'label="A"' not in text


def test_finite_action_dot_export(tmp_path, capsys, cyc2):
    path = write(tmp_path, "meas.json",
                 measured_to_doc(measured.integer_solution(cyc2)))
    dot = tmp_path / "a.dot"
    code, report = run(capsys, "finite-action", path, "--dot", str(dot))
    assert code == 0
    points = report["witnesses"]["action"]["points"]
    arrows = [line for line in dot.read_text().splitlines() if "->" in line]
    assert len(arrows) == len(points) * cyc2.group.rank
    for c in "ab":
        assert sum(f'[label="{c}"]' in line for line in arrows) == len(points)


def test_dot_is_rendered_only_on_request(tmp_path, capsys, monkeypatch, cyc2,
                                         cyc2_doc):
    def refuse(_):
        raise AssertionError("DOT rendered without --dot")

    monkeypatch.setattr(cli, "graph_to_dot", refuse)
    monkeypatch.setattr(cli, "action_to_dot", refuse)
    code, _ = run(capsys, "validate", write(tmp_path, "g.json", cyc2_doc))
    assert code == 0
    path = write(tmp_path, "meas.json",
                 measured_to_doc(measured.integer_solution(cyc2)))
    code, _ = run(capsys, "finite-action", path, "--transitive")
    assert code == 0
