import random
from fractions import Fraction

import pytest

from oracles import components_oracle
from rauzy import actions, graphs
from rauzy.actions import FiniteAction
from rauzy.generate import random_measured_graph
from rauzy.measured import MeasuredRauzyGraph, integer_solution
from rauzy.patterns import is_locally_admissible, restrict_language
from rauzy.words import EPSILON, FreeGroup


def test_build_cyc2(group2, cyc2):
    mg = integer_solution(cyc2)
    act, pi = actions.build_finite_action(mg)
    assert len(act) == 2
    assert act.walks[0] == (1, 0)      # a swaps the two points
    assert act.walks[1] == (0, 1)      # b fixes them
    assert actions.is_projection_morphism(act, pi, cyc2)
    mult = actions.edge_multiplicities(act, pi, cyc2)
    assert all(mult[i] == mg.m[i] for i in range(len(cyc2.edges)))


def test_build_rose(rose2):
    mg = integer_solution(rose2)
    act, pi = actions.build_finite_action(mg)
    assert len(act) == 1


def test_build_star3(star3):
    mg = integer_solution(star3)
    act, pi = actions.build_finite_action(mg)
    assert len(act) == 4
    assert sum(1 for p in act.points if pi[p] == "u") == 2
    assert actions.is_projection_morphism(act, pi, star3)
    mult = actions.edge_multiplicities(act, pi, star3)
    assert all(mult[i] == mg.m[i] for i in range(len(star3.edges)))


def test_build_requires_integers(cyc2):
    half = Fraction(1, 2)
    mg = MeasuredRauzyGraph(cyc2, (half, half),
                            tuple([half] * len(cyc2.edges)))
    with pytest.raises(ValueError, match="integer"):
        actions.build_finite_action(mg)


def test_make_transitive_noop_when_transitive(cyc2):
    mg = integer_solution(cyc2)
    act, pi = actions.build_finite_action(mg)
    assert actions.make_transitive(act, pi, mg) == act


def test_make_transitive_star3(star3):
    mg = integer_solution(star3)
    act, pi = actions.build_finite_action(mg)
    tr = actions.make_transitive(act, pi, mg)
    assert len(actions.orbits(tr)) == 1
    assert actions.is_projection_morphism(tr, pi, star3)
    mult = actions.edge_multiplicities(tr, pi, star3)
    assert all(mult[i] == mg.m[i] for i in range(len(star3.edges)))
    for w in tr.walks:
        assert sorted(w) == list(range(len(tr)))


def test_make_transitive_rejects_disconnected(group2):
    two_roses = graphs.RauzyGraph.from_triples(
        group2, ["u", "v"],
        [("u", 0, "u"), ("u", 2, "u"), ("v", 0, "v"), ("v", 2, "v")])
    mg = MeasuredRauzyGraph(
        two_roses, (Fraction(1), Fraction(1)),
        tuple(Fraction(1) for _ in two_roses.edges))
    act, pi = actions.build_finite_action(mg)
    with pytest.raises(ValueError, match="not connected"):
        actions.make_transitive(act, pi, mg)


def test_orbits(group2):
    ident = FiniteAction(group2, ["x", "y", "z"],
                         [[0, 1, 2], [0, 1, 2]])
    assert len(actions.orbits(ident)) == 3
    swap = FiniteAction(group2, ["x", "y"], [[1, 0], [0, 1]])
    assert len(actions.orbits(swap)) == 1
    mixed = FiniteAction(group2, ["x", "y", "z"],
                         [[1, 0, 2], [0, 1, 2]])
    assert len(actions.orbits(mixed)) == 2


def _random_action(group, rng):
    """A seeded action on points 0..n-1 whose walks each shuffle the points
    within the same random blocks, so that some draws are intransitive."""
    n = rng.randint(1, 8)
    block = [rng.randrange(rng.randint(1, 3)) for _ in range(n)]
    walks = []
    for _ in range(group.rank):
        w = list(range(n))
        for b in set(block):
            members = [p for p in range(n) if block[p] == b]
            images = members[:]
            rng.shuffle(images)
            for p, q in zip(members, images):
                w[p] = q
        walks.append(w)
    return FiniteAction(group, range(n), walks)


def test_orbits_and_connectivity_match_union_find(group2):
    rng = random.Random(11)
    verdicts = set()
    for _ in range(200):
        act = _random_action(group2, rng)
        classes = components_oracle(
            len(act), [(p, w[p]) for w in act.walks for p in range(len(act))])
        assert actions.orbits(act) == sorted(tuple(sorted(c)) for c in classes)
        assert graphs.is_connected(act.to_graph()) == (len(classes) == 1)
        verdicts.add(len(classes) == 1)
    assert verdicts == {True, False}


def test_fiber_product_over_trivial_base(group2):
    swap = FiniteAction(group2, ["x0", "x1"], [[1, 0], [0, 1]])
    three = FiniteAction(group2, ["y0", "y1", "y2"],
                         [[1, 2, 0], [0, 1, 2]])
    f1 = {p: "*" for p in swap.points}
    f2 = {p: "*" for p in three.points}
    prod, pr1, pr2 = actions.fiber_product(swap, three, f1, f2)
    assert len(prod) == 6
    assert len(actions.orbits(prod)) == 1
    # the commuting square, pointwise
    for pt in prod.points:
        assert f1[pr1[pt]] == f2[pr2[pt]]
    # projections are morphisms
    assert actions.is_equivariant(prod, swap, pr1)
    assert actions.is_equivariant(prod, three, pr2)
    # a acts as a single 6-cycle
    seen, p, steps = set(), 0, 0
    while p not in seen:
        seen.add(p)
        p = prod.walks[0][p]
        steps += 1
    assert steps == 6


def test_fiber_product_diagonal(group2):
    swap = FiniteAction(group2, ["x0", "x1"], [[1, 0], [0, 1]])
    ident_map = {p: p for p in swap.points}
    prod, pr1, pr2 = actions.fiber_product(swap, swap, ident_map, ident_map)
    assert len(prod) == 2
    assert actions.is_equivariant(prod, swap, pr1)
    assert pr1 == pr2


def test_fiber_product_empty_is_reported(group2):
    a1 = FiniteAction(group2, ["x"], [[0], [0]])
    a2 = FiniteAction(group2, ["y"], [[0], [0]])
    with pytest.raises(ValueError, match="empty fiber product"):
        actions.fiber_product(a1, a2, {"x": 0}, {"y": 1})


def test_periodic_window_constant_for_one_point(group2):
    one = FiniteAction(group2, ["w"], [[0], [0]])
    win = actions.periodic_window(one, 0, 2)
    assert {v for _, v in win.items} == {"w"}


def test_periodic_window_alternates(group2):
    swap = FiniteAction(group2, ["x0", "x1"], [[1, 0], [0, 1]])
    win = actions.periodic_window(swap, 0, 2)
    assert win[EPSILON] == "x0"
    assert win[(0,)] == "x1"
    assert win[(0, 0)] == "x0"
    assert win[(2,)] == "x0"


def test_periodic_window_follows_walks_and_inverses(group2):
    rng = random.Random(12)
    ball = group2.ball(5)
    for _ in range(30):
        act = _random_action(group2, rng)
        inverses = [{q: p for p, q in enumerate(w)} for w in act.walks]
        base = rng.randrange(len(act))
        win = actions.periodic_window(act, base, 5)
        assert set(win.domain) == set(ball)
        for w in ball:
            p = base
            for s in w:
                p = inverses[s >> 1][p] if s & 1 else act.walks[s >> 1][p]
            assert win[w] == act.points[p]


def test_periodic_window_admissible_in_schreier_sft(group2, star3):
    mg = integer_solution(star3)
    act, pi = actions.build_finite_action(mg)
    tr = actions.make_transitive(act, pi, mg)
    win = actions.periodic_window(tr, 0, 3)
    assert is_locally_admissible(graphs.xg_sft(tr.to_graph()), win)


def test_periodic_window_graph_reconstruction(group2):
    swap = FiniteAction(group2, ["x0", "x1"], [[1, 0], [0, 1]])
    win = actions.periodic_window(swap, 0, 3)
    lang = restrict_language([win], [EPSILON])
    rebuilt = graphs.graph_of_window(group2, lang, [EPSILON])
    assert graphs.isomorphic(rebuilt, swap.to_graph())


def test_realize_fixtures(rose2, cyc2, star3):
    for g in (rose2, cyc2, star3):
        mg = integer_solution(g)
        act, window, report = actions.realize_minimal_neighborhood(mg)
        assert report.complete
        assert len(actions.orbits(act)) == 1


def test_realize_random_batch():
    group = FreeGroup(2)
    rng = random.Random(0)
    for _ in range(10):
        mg = random_measured_graph(group, rng, 3)
        act, window, report = actions.realize_minimal_neighborhood(mg)
        assert report.complete
        assert len(actions.orbits(act)) == 1
        assert len(act) == sum(mg.mu)
