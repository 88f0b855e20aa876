"""One pinned report per CLI leaf command and outcome.

For every leaf of `build_parser()`, one run that exits 0 and one that does
not, on two_cycle, three_star, letter_flow and a seeded 8-vertex Schreier
graph.  Each report's stdout is pinned by its SHA-256, so a refactor that
moves a single byte of any report fails here.  The ok reports that the
benchmark's library-free checks (`perfbench/verify.py`) cover are also
passed through those checks, so a digest cannot pin a wrong report.
"""

import argparse
import hashlib
import importlib.util
import json
import random
from pathlib import Path

import pytest

from rauzy import graphs, measured, selectors, special
from rauzy.actions import FiniteAction
from rauzy.cli import build_parser, main
from rauzy.serialize import (action_to_doc, graph_to_doc, measured_to_doc,
                             selector_to_doc, window_to_doc)
from rauzy.words import FreeGroup


def schreier(group, n):
    """The Schreier graph of two permutations of n points drawn from
    Random(n), redrawn until minimal."""
    rng = random.Random(n)
    while True:
        walks = []
        for _ in range(group.rank):
            perm = list(range(n))
            rng.shuffle(perm)
            walks.append(perm)
        g = FiniteAction(group, [f"p{i}" for i in range(n)], walks).to_graph()
        if graphs.is_minimal(g)[0]:
            return g


def _documents(group):
    cyc2 = graphs.two_cycle(group)
    star3 = graphs.three_star(group)
    flow = graphs.letter_flow_graph(group)
    s8 = schreier(group, 8)
    s8_cycle = selectors.find_cycle(s8, 0)
    s8_sel = selectors.synthesize_recurrent(s8, s8_cycle)
    u = star3.vertex_id("u")
    star_cycle = (star3.edge_id(u, u, 2),)
    star_sel = selectors.synthesize_recurrent(star3, star_cycle)
    # the free base letter a retargeted: a certificate counterexample
    t0 = list(star_sel.t0)
    t0[0] = next(e for e in star3.out_edges(u, 0) if e != star_sel.t0[0])
    tampered = selectors.EdgeSelector(star3, star_sel.v0, tuple(t0),
                                      star_sel.t1)
    short_t1 = selector_to_doc(star_sel, star_cycle)
    short_t1["t1"] = short_t1["t1"][:-1]
    swap = FiniteAction(group, ["x0", "x1"], [[1, 0], [0, 1]])
    three = FiniteAction(group, ["y0", "y1", "y2"], [[1, 2, 0], [0, 1, 2]])
    spec = {"left": action_to_doc(swap), "right": action_to_doc(three),
            "f1": {p: "*" for p in swap.points},
            "f2": {p: "*" for p in three.points}}
    return {
        "cyc2": graph_to_doc(cyc2),
        "star3": graph_to_doc(star3),
        "flow": graph_to_doc(flow),
        "s8": graph_to_doc(s8),
        "broken": graph_to_doc(graphs.RauzyGraph.from_triples(
            group, ["v"], [("v", 0, "v")])),
        "two_roses": graph_to_doc(graphs.RauzyGraph.from_triples(
            group, ["u", "v"],
            [("u", 0, "u"), ("u", 2, "u"), ("v", 0, "v"), ("v", 2, "v")])),
        "dead": graph_to_doc(graphs.RauzyGraph.from_relations(
            group, 2, [{(0, 0), (0, 1), (1, 1)}, {(0, 0), (1, 1)}])),
        "s8_sel": selector_to_doc(s8_sel, s8_cycle),
        "star_sel": selector_to_doc(star_sel, star_cycle),
        "tampered": selector_to_doc(tampered, star_cycle),
        "short_t1": short_t1,
        "m_star3": measured_to_doc(measured.integer_solution(star3)),
        "m_cyc2": measured_to_doc(measured.integer_solution(cyc2)),
        "spec": spec,
        "half_spec": {"left": spec["left"], "f1": spec["f1"]},
        "chi": window_to_doc(group, special.chi_window(group, 0, 2)),
        "marker": {"values": {"e": 1}},
    }, ",".join(map(str, s8_cycle))


# (leaf command, outcome) -> (argv, with {name} standing for the path of a
# document above and {s8_cycle} for the Schreier graph's cycle, exit code)
CASES = {
    ("validate", "ok"): ("validate {s8}", 0),
    ("validate", "not ok"): ("validate {broken}", 1),
    ("minimal", "ok"): ("minimal {flow}", 0),
    ("minimal", "not ok"): ("minimal {two_roses}", 1),
    ("conditions", "ok"): ("conditions {s8}", 0),
    ("conditions", "not ok"): ("conditions {two_roses}", 1),
    ("xg-window", "ok"): ("xg-window {flow} --radius 2", 0),
    ("xg-window", "not ok"): ("xg-window {cyc2} --radius 3 --cap 1", 1),
    ("cycle", "ok"): ("cycle {s8} --vertex p0", 0),
    ("cycle", "not ok"): ("cycle {two_roses} --vertex u", 1),
    ("selector synth", "ok"): ("selector synth {s8} --cycle {s8_cycle}", 0),
    ("selector synth", "not ok"): ("selector synth {cyc2} --cycle 0,0", 1),
    ("selector expand", "ok"): ("selector expand {s8_sel} --radius 2", 0),
    ("selector expand", "not ok"):
        ("selector expand {s8_sel} --radius -1", 2),
    ("sofic-witness", "ok"): ("sofic-witness {star_sel}", 0),
    ("sofic-witness", "not ok"): ("sofic-witness {short_t1}", 2),
    ("certify-minimal", "ok"):
        ("certify-minimal {s8_sel} --window 3 --depth 4", 0),
    ("certify-minimal", "not ok"):
        ("certify-minimal {tampered} --window 2 --depth 4", 1),
    ("measure solve", "ok"): ("measure solve {s8}", 0),
    ("measure solve", "not ok"): ("measure solve {dead}", 1),
    ("finite-action", "ok"): ("finite-action {m_star3} --transitive", 0),
    ("finite-action", "not ok"):
        ("finite-action {m_cyc2} --transitive --generator 2", 2),
    ("fiber-product", "ok"): ("fiber-product {spec}", 0),
    ("fiber-product", "not ok"): ("fiber-product {half_spec}", 2),
    ("special-symbol", "ok"):
        ("special-symbol --rank 2 --gen a --radius 1", 0),
    ("special-symbol", "not ok"):
        ("special-symbol --rank 2 --gen c --radius 1", 1),
    ("return-set", "ok"): ("return-set {chi} --pattern {marker} --depth 2", 0),
    ("return-set", "not ok"):
        ("return-set {chi} --pattern {marker} --depth -1", 2),
    ("search-condition-witness", "ok"):
        ("search-condition-witness --rank 1 --max-vertices 2", 0),
    ("search-condition-witness", "not ok"):
        ("search-condition-witness --max-vertices 2", 1),
}

# SHA-256 of each case's stdout, recorded before the selectors' reverse
# distance search replaced the per-edge searches; they must not move.
REPORT_SHA256 = {
    ("certify-minimal", "not ok"):
        "581763b30163728c0d668dc254248e032352a1322e9fa58819cadfa49a2cfb77",
    ("certify-minimal", "ok"):
        "9cd813efc545e0279407fcb4979697e69ad0bb83c9e04c7b64a3d7f68ed9109d",
    ("conditions", "not ok"):
        "5c4afd71367dbc177e4d75f0580d70369fc6681681be33e76e4daa51dd9f0d02",
    ("conditions", "ok"):
        "2c77ebf425a1925c87dc773cb5f7872f83243cea78cc259bd71bba84940b084a",
    ("cycle", "not ok"):
        "30345e997d3a70beaf5c6ad5384aa70568d5aca8a8a30294e3bc12c2ca5e00a2",
    ("cycle", "ok"):
        "5daec49dd7767a51522de91d73f881c6ead0812e23d8670ca6c422707b21637b",
    ("fiber-product", "not ok"):
        "b0718ce95bb90262e7ee8032be4268b6ee85882405d41f23c27ec58c889990be",
    ("fiber-product", "ok"):
        "233a82f7c430c272baa988d8c8b62435b65b8db53b9f6de4ed0049bde6e154d1",
    ("finite-action", "not ok"):
        "9d7013757f5d9a64f764db1286388c3db6b280d909ffa8b3a0b623783675d4f1",
    ("finite-action", "ok"):
        "5449880f186ffd18bd510b9e974eb28e36880e2b9d6b3a02d9e127e27c8835e0",
    ("measure solve", "not ok"):
        "fa8210c1e066180e9ec934d77dac6d5434d57ee8822d68475bd714c1ee6576b1",
    ("measure solve", "ok"):
        "ddeed9793e3f258c4e0dbd40928ed895bd94ef9134e3f1854f3f7c6a9302ab9f",
    ("minimal", "not ok"):
        "842c6b21ce88de3222642acb42ebe43bf5986560a0e45cdf99da3fd1a9159386",
    ("minimal", "ok"):
        "dca409bcc7cfb5896ebf33c6191dd1ecfb23113a3f570f1a1f1dcae6e4125ed7",
    ("return-set", "not ok"):
        "5478a9e9fb2efeacf41a29dba72b810eae60dadc212475547bc890c13d4e8804",
    ("return-set", "ok"):
        "b9c0087735dadc9db352519f79fd190f9ffb961586880044aacb5aa7c715599c",
    ("search-condition-witness", "not ok"):
        "36e5014362cde58e48a274db7913d78185769329502184bddfd1d4ce11b75ee5",
    ("search-condition-witness", "ok"):
        "a2c16ce1d401083670992c542e6dac6df0dad09a056e77cb8d66d18dd4a7cdc6",
    ("selector expand", "not ok"):
        "a838a137ccf17a995468e6e043b7f12e6cb3fa0628b04a70b49ab46afdddb350",
    ("selector expand", "ok"):
        "3ebf190c1fc40ce014d523a50886cc186f925819af98f2eaff2781e82edb9937",
    ("selector synth", "not ok"):
        "57754db87677b89b626d94521b7686e4433c1d40b7ac396449ddd81d35314f2b",
    ("selector synth", "ok"):
        "584665180ca8e34ab45baf6f4d7256c1ad0c00391ddec6df81f167d706ddd24f",
    ("sofic-witness", "not ok"):
        "01d42c19df3c846cbfb35985f0ce791498ef6d8b0193ba9338f26a6113f89acb",
    ("sofic-witness", "ok"):
        "1f14c789037726f41b579eb1f5410a4012ef858d2b7e0f989e2e7b6d224b09e3",
    ("special-symbol", "not ok"):
        "1aee3f3591073570cf84ea3291a03146bec7bac5474eff01fe865824c7a8d10d",
    ("special-symbol", "ok"):
        "41dd80aa7f888347637066705fbfa363e6ccfad6c74cc0e0220838d9e3b51548",
    ("validate", "not ok"):
        "8223b7286c66a67214b17e33704756e2a60059fc42bb9b7d7fae47b52dee61e2",
    ("validate", "ok"):
        "0177b6ceea05768c82375db587661cedcb33d910aab9be19a4097981c62e8dc7",
    ("xg-window", "not ok"):
        "310f145bc89eaa3291b2a745a991c73de098c4148f45c51bbb70c6f4551e63ce",
    ("xg-window", "ok"):
        "75139503b41560db18834ac5889d773eeb976c5b87fd0910fac5532a03c71b9b",
}


@pytest.fixture(scope="module")
def argv_fields(tmp_path_factory):
    docs, s8_cycle = _documents(FreeGroup(2))
    root = tmp_path_factory.mktemp("docs")
    fields = {"s8_cycle": s8_cycle}
    for name, doc in docs.items():
        path = root / f"{name}.json"
        path.write_text(json.dumps(doc))
        fields[name] = str(path)
    return fields


def _leaves(parser, prefix=()):
    """The command names of the parser's leaf subcommands, in order."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _leaves(sub, prefix + (name,))
            return
    yield " ".join(prefix)


def test_every_leaf_command_has_pinned_reports():
    leaves = list(_leaves(build_parser()))
    assert len(leaves) == 15
    assert sorted(CASES) == sorted((leaf, outcome) for leaf in leaves
                                   for outcome in ("ok", "not ok"))
    assert sorted(REPORT_SHA256) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES),
                         ids=lambda case: "-".join(case).replace(" ", "-"))
def test_report_is_pinned(argv_fields, capsys, case):
    template, expected_code = CASES[case]
    argv = template.format(**argv_fields).split()
    assert main(argv) == expected_code
    out = capsys.readouterr().out
    assert json.loads(out)["command"] == case[0]
    assert hashlib.sha256(out.encode()).hexdigest() == REPORT_SHA256[case]


def _load_verify():
    """perfbench/verify.py as it stands; it never imports rauzy."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "verify.py"
    spec = importlib.util.spec_from_file_location("perfbench_verify", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _sofic_check(v, report, doc, run):
    # the witness is checked against z0, which an expand run of the same
    # selector gives and which is itself checked first
    sel = doc("star_sel")
    g = v.Graph(sel["graph"])
    z0 = v.expansion(g, sel, run("selector expand {star_sel} --radius 2"), 2)
    v.sofic(g, sel, report, z0)


def _selector_check(v, report, doc, run):
    # the cycle the selector must carry is the one a cycle run gives
    cycle = run("cycle {s8} --vertex p0")["witnesses"]["cycle"]
    v.selector(v.Graph(doc("s8")), cycle, report["witnesses"]["selector"])


def _solve_check(v, report, doc, run):
    g, m = v.Graph(doc("s8")), report["witnesses"]["measured"]
    v.need(g.same_as(m), "solve: the graph changed")
    v.balanced(g, m["mu"], m["m"])


# leaf command -> check(verify, report of its ok case, doc(name), run(argv)),
# with the sizes of the ok case in CASES
VERIFY_CHECKS = {
    "cycle": lambda v, r, doc, run: v.reduced_cycle(
        v.Graph(doc("s8")), r["witnesses"]["cycle"], "p0"),
    "selector synth": _selector_check,
    "measure solve": _solve_check,
    "xg-window": lambda v, r, doc, run: v.configs(v.Graph(doc("flow")), r, 2),
    "selector expand": lambda v, r, doc, run: v.expansion(
        v.Graph(doc("s8")), doc("s8_sel"), r, 2),
    "certify-minimal": lambda v, r, doc, run: v.certificate(
        r, v.Graph(doc("s8")), doc("s8_sel"), 3, 4),
    "sofic-witness": _sofic_check,
    "finite-action": lambda v, r, doc, run: v.action(
        v.Graph(doc("star3")), doc("m_star3"), r),
    "special-symbol": lambda v, r, doc, run: v.marker(r, 1),
    "return-set": lambda v, r, doc, run: v.returns(r, 2),
}


@pytest.mark.parametrize("leaf", sorted(VERIFY_CHECKS))
def test_ok_report_passes_the_benchmark_check(argv_fields, capsys, leaf):
    def doc(name):
        return json.loads(Path(argv_fields[name]).read_text())

    def run(template):
        assert main(template.format(**argv_fields).split()) == 0
        return json.loads(capsys.readouterr().out)

    template, expected_code = CASES[leaf, "ok"]
    assert expected_code == 0
    VERIFY_CHECKS[leaf](_load_verify(), run(template), doc, run)


def test_leaf_commands_without_a_benchmark_check():
    assert sorted(set(_leaves(build_parser())) - set(VERIFY_CHECKS)) == [
        "conditions", "fiber-product", "minimal", "search-condition-witness",
        "validate"]
