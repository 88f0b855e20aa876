"""Acceptance suite: one test per criterion, each printing a PASS line.

Everything here is exact (set equality, integer equality, 100% agreement);
there are no tolerances to tune.  Criterion 3 runs the exhaustive witness
search up to 4 vertices, the true minimum at rank 2: no graph on <= 3
vertices separates the connectivity conditions
(tests/test_graphs.py::test_no_separation_below_four_vertices), and the
letter-flow graphs show that 4 vertices suffice
(tests/test_graphs.py::test_letter_flow_separations).
"""

import json
import random
import sys
import time
from fractions import Fraction

from oracles import conditions_oracle, minimality_oracle, symmetry_orbit
from rauzy import actions, graphs, measured, selectors, special
from rauzy.cli import main as cli_main
from rauzy.generate import (
    random_measured_graph,
    random_minimal_graph,
    random_valid_graph,
)
from rauzy.measured import MeasuredRauzyGraph
from rauzy.patterns import (
    Alphabet,
    Pattern,
    enumerate_window,
    iota,
    restrict_language,
    window_j,
)
from rauzy.serialize import graph_from_doc
from rauzy.words import EPSILON, FreeGroup


def ok(n, message):
    # bypass capture so the per-criterion line always reaches the console
    print(f"ACCEPTANCE criterion {n} PASS: {message}", file=sys.__stdout__)


def test_criterion_1_window_bijection():
    started = time.monotonic()
    group = FreeGroup(2)
    F = group.ball(1)
    pg = graphs.pattern_graph(group, Alphabet([0, 1]), F)
    sft = graphs.xg_sft(pg)
    configs = enumerate_window(sft, group.ball(1), cap=2 ** 18)
    assert len(configs) == 2 ** 17 == 131072
    ball1 = group.ball(1)
    images = set()
    for c in configs:
        flat = iota(group, F, c)
        images.add(flat.items)
        assert window_j(group, F, flat, ball1) == c
    assert len(images) == 2 ** 17   # iota is a bijection onto A^{B_2}
    elapsed = time.monotonic() - started
    assert elapsed < 60
    ok(1, f"2^17 admissible configs, iota/j mutually inverse on all "
          f"({elapsed:.1f}s)")


def test_criterion_2_minimality_oracle():
    group = FreeGroup(2)
    rng = random.Random(0)
    for _ in range(1000):
        g = random_valid_graph(group, rng, 3)
        assert graphs.validate(g) == []
        c1, c2, c3 = graphs.check_conditions(g)
        assert graphs.is_minimal(g)[0] == minimality_oracle(g) == c2
        assert (not c3 or c2) and (not c2 or c1)
    ok(2, "BFS minimality agrees with the matrix-closure oracle and the "
          "condition lattice is monotone on 1000 seeded random graphs")


def test_criterion_3_condition_witness_search(capsys):
    started = time.monotonic()
    code = cli_main(["search-condition-witness", "--max-vertices", "4"])
    report = json.loads(capsys.readouterr().out)
    elapsed = time.monotonic() - started
    assert elapsed < 300
    if code != 0:
        print("ACCEPTANCE criterion 3 FAIL: the exhaustive search found no "
              "condition separation on <= 4 vertices, although the "
              "letter-flow graphs separate the conditions on 4",
              file=sys.__stdout__)
    assert code == 0, (
        "search-condition-witness --max-vertices 4 did not find both "
        f"witnesses: {report['witnesses']}")
    # each kind has a single least class up to symmetry: a letter-flow graph
    group = FreeGroup(2)
    expected = {"c1_not_c2": ((True, False, False), True),
                "c2_not_c3": ((True, True, False), False)}
    for key, (verdict, backtrack_pair) in expected.items():
        g = graph_from_doc(report["witnesses"][key])
        assert graphs.validate(g) == []
        assert len(g.vertices) == 4
        assert minimality_oracle(g) == verdict[1]
        assert conditions_oracle(g) == verdict
        flow = graphs.letter_flow_graph(group, backtrack_pair)
        assert frozenset((e.source, e.target, e.label) for e in g.edges) \
            in symmetry_orbit(flow)
    ok(3, "both condition separations found on 4 vertices, confirmed by the "
          "oracles and equal to the letter-flow graphs up to symmetry "
          f"({elapsed:.1f}s)")


def test_criterion_4_recurrent_pipeline():
    started = time.monotonic()
    group = FreeGroup(2)
    rng = random.Random(0)
    for _ in range(20):
        g = random_minimal_graph(group, rng, 4)
        cycle = selectors.find_cycle(g, rng.randrange(len(g.vertices)))
        sel = selectors.synthesize_recurrent(g, cycle)
        assert selectors.validate_recurrent(sel, cycle) == []
        cert = selectors.certify_minimality(sel, cycle, 2, 6)
        assert isinstance(cert, selectors.MinimalityCertificate)
        n = cert.cycle_length
        bound = (cert.max_return_length - 1) + n * ((2 + n - 1) // n)
        assert cert.syndeticity_gap <= bound
    elapsed = time.monotonic() - started
    assert elapsed < 300
    ok(4, f"20 random minimal graphs synthesized, validated and certified "
          f"within the syndeticity bound ({elapsed:.1f}s)")


def test_criterion_5_sofic_witness_cyc2():
    group = FreeGroup(2)
    cyc2 = graphs.two_cycle(group)
    cycle = selectors.find_cycle(cyc2, cyc2.vertex_id("u"))
    sel = selectors.synthesize_recurrent(cyc2, cycle)
    wit = selectors.sofic_witness(sel)
    configs = enumerate_window(wit.sft, group.ball(2))
    starred = [c for c in configs if c[EPSILON] == selectors.STAR]
    assert starred == [selectors.z0_window(sel, 2)]
    projected = {Pattern(wit.project(c).items) for c in configs}
    big = selectors.x_t_window(sel, 2 + 8)
    orbit = set(restrict_language([big], group.ball(2)).patterns)
    assert projected == orbit
    ok(5, "unique starred radius-2 config is z0's window; projected "
          "language equals the orbit language (slack 8)")


def test_criterion_6_integer_solver():
    group = FreeGroup(2)
    cyc2 = graphs.two_cycle(group)
    sol = measured.integer_solution(cyc2)
    assert sol.mu == (1, 1) and set(sol.m) == {1}
    star = graphs.three_star(group)
    sol3 = measured.integer_solution(star)
    mu = dict(zip(star.vertices, sol3.mu))
    assert mu["u"] == mu["v"] + mu["w"]
    assert sol3.has_full_support() and sol3.is_integral()
    assert measured.validate_balance(sol3) == []
    half = Fraction(1, 2)
    hint = MeasuredRauzyGraph(cyc2, (half, half),
                              tuple([half] * len(cyc2.edges)))
    hinted = measured.integer_solution(cyc2, hint)
    assert hinted.mu == (1, 1) and set(hinted.m) == {1}
    assert all(x == 2 * y for x, y in zip(hinted.mu, hint.mu))
    ok(6, "CYC2 solves to all ones, STAR3 satisfies the forced relation, "
          "the hint route scales exactly by the denominator lcm")


def test_criterion_7_finite_action_star3():
    group = FreeGroup(2)
    star = graphs.three_star(group)
    mg = measured.integer_solution(star)
    act, pi = actions.build_finite_action(mg)
    assert len(act) == 4
    assert actions.is_projection_morphism(act, pi, star)
    assert set(pi.values()) == set(star.vertices)   # surjective on vertices
    mult = actions.edge_multiplicities(act, pi, star)
    assert all(mult[i] == mg.m[i] for i in range(len(star.edges)))
    assert all(mult[i] >= 1 for i in range(len(star.edges)))  # edge-surjective
    for w in act.walks:
        assert sorted(w) == list(range(len(act)))   # per-generator bijections
    tr = actions.make_transitive(act, pi, mg)
    assert len(actions.orbits(tr)) == 1
    ok(7, "STAR3 realizes as a 4-point action with exact multiplicities; "
          "transitivity fix-up reaches one orbit")


def test_criterion_8_realization_occurrence():
    group = FreeGroup(2)
    rng = random.Random(0)
    for _ in range(10):
        mg = random_measured_graph(group, rng, 3)
        act, window, report = actions.realize_minimal_neighborhood(mg)
        assert report.complete, (report.missing_vertices, report.missing_edges)
    ok(8, "10 random connected measured graphs realize with every vertex "
          "and labeled edge occurring in the periodic window")


def test_criterion_9_special_symbol():
    group = FreeGroup(2)
    sft, proj = special.special_symbol_sft(group, 0)
    ball2 = group.ball(2)
    projected = {Pattern(special.project_config(c, proj).items)
                 for c in enumerate_window(sft, ball2)}
    chi = special.chi_window(group, 0, 2 + 6)
    scan = set(restrict_language([chi], ball2).patterns)
    scan.add(Pattern({w: 0 for w in ball2}))
    assert projected == scan
    one = Pattern({EPSILON: 1})
    for depth in range(6):
        window = special.chi_window(group, 0, depth)
        assert len(special.return_set(group, window, one, depth)) == \
            2 * depth + 1
    ok(9, "projected marker-SFT language equals the indicator's orbit "
          "language (slack 6 + zero); return sets have exactly 2L+1 points")


def test_criterion_10_fiber_product():
    group = FreeGroup(2)
    swap = actions.FiniteAction(group, ["x0", "x1"], [[1, 0], [0, 1]])
    three = actions.FiniteAction(group, ["y0", "y1", "y2"],
                                 [[1, 2, 0], [0, 1, 2]])
    f1 = {p: "*" for p in swap.points}
    f2 = {p: "*" for p in three.points}
    prod, pr1, pr2 = actions.fiber_product(swap, three, f1, f2)
    assert len(prod) == 6
    assert len(actions.orbits(prod)) == 1
    for pt in prod.points:
        assert f1[pr1[pt]] == f2[pr2[pt]]
    assert actions.is_equivariant(prod, swap, pr1)
    assert actions.is_equivariant(prod, three, pr2)
    ok(10, "2-point swap x 3-point cycle over the trivial base gives six "
           "points, one orbit, and a pointwise-commuting square")
