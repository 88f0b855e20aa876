import random
from fractions import Fraction
from hashlib import sha256

import pytest
import sympy

from oracles import (
    balance_matrix,
    balance_violations,
    lp_feasible,
    phase1_oracle,
)
from rauzy import graphs
from rauzy.generate import random_valid_graph
from rauzy.measured import (
    Infeasible,
    MeasuredRauzyGraph,
    _balance_system,
    integer_solution,
    solve_at_least_one,
    validate_balance,
)
from rauzy.words import FreeGroup


def unit_weights(g):
    return MeasuredRauzyGraph(
        g, tuple(Fraction(1) for _ in g.vertices),
        tuple(Fraction(1) for _ in g.edges))


def test_validate_balance_cyc2(cyc2):
    assert validate_balance(unit_weights(cyc2)) == []


def test_validate_balance_reports_tampering(cyc2):
    m = [Fraction(1)] * len(cyc2.edges)
    m[0] = Fraction(2)
    bad = MeasuredRauzyGraph(cyc2, (Fraction(1), Fraction(1)), tuple(m))
    violations = validate_balance(bad)
    kinds = {(v.kind, v.vertex, v.letter) for v in violations}
    e0 = cyc2.edges[0]
    assert ("bar", 0, None) in kinds
    assert ("out", cyc2.vertices[e0.source], e0.label) in kinds
    assert ("in", cyc2.vertices[e0.target], e0.label) in kinds


def test_validate_balance_star3(star3):
    names = {v: i for i, v in enumerate(star3.vertices)}
    mu = [None] * 3
    mu[names["u"]], mu[names["v"]], mu[names["w"]] = 2, 1, 1
    m = []
    for e in star3.edges:
        if e.label in (2, 3):  # b loops carry the vertex weight
            m.append(Fraction(mu[e.source]))
        else:
            m.append(Fraction(1))
    mg = MeasuredRauzyGraph(star3, tuple(Fraction(x) for x in mu), tuple(m))
    assert validate_balance(mg) == []


def test_integer_solution_cyc2_is_all_ones(cyc2):
    sol = integer_solution(cyc2)
    assert sol.mu == (1, 1)
    assert set(sol.m) == {1}


def test_integer_solution_cyc2_kernel_oracle(cyc2):
    # independent check with sympy: the balance system has a 1-dimensional
    # kernel containing the solver's vector
    M = sympy.Matrix(balance_matrix(cyc2))
    kernel = M.nullspace()
    assert len(kernel) == 1
    sol = integer_solution(cyc2)
    vec = sympy.Matrix(list(sol.mu) + list(sol.m))
    assert M * vec == sympy.zeros(M.rows, 1)
    ratios = {sympy.nsimplify(vec[i] / kernel[0][i])
              for i in range(M.cols) if kernel[0][i] != 0}
    assert len(ratios) == 1


def test_integer_solution_hint_scales_by_lcm(cyc2):
    half = Fraction(1, 2)
    hint = MeasuredRauzyGraph(cyc2, (half, half),
                              tuple([half] * len(cyc2.edges)))
    sol = integer_solution(cyc2, hint)
    assert sol.mu == (1, 1) and set(sol.m) == {1}
    third = Fraction(2, 3)
    hint3 = MeasuredRauzyGraph(cyc2, (third, third),
                               tuple([third] * len(cyc2.edges)))
    sol3 = integer_solution(cyc2, hint3)
    assert sol3.mu == (2, 2) and set(sol3.m) == {2}


def test_integer_solution_rejects_bad_hint(cyc2):
    m = [Fraction(1)] * len(cyc2.edges)
    m[0] = Fraction(2)
    bad = MeasuredRauzyGraph(cyc2, (Fraction(1), Fraction(1)), tuple(m))
    with pytest.raises(ValueError, match="not balanced"):
        integer_solution(cyc2, bad)


def test_integer_solution_star3(star3):
    sol = integer_solution(star3)
    mu = dict(zip(star3.vertices, sol.mu))
    assert mu["u"] == mu["v"] + mu["w"]
    assert sol.has_full_support() and sol.is_integral()
    assert validate_balance(sol) == []


def test_no_full_support_verdict(group2):
    # the in-balance at vertex 0 forces the 0 -> 1 a-edge weight to zero
    g = graphs.RauzyGraph.from_relations(
        group2, 2, [{(0, 0), (0, 1), (1, 1)}, {(0, 0), (1, 1)}])
    assert graphs.validate(g) == []
    assert integer_solution(g) is None
    assert integer_solution(graphs.RauzyGraph(group2, [], [])) is None


def test_scaling_invariance(cyc2):
    sol = integer_solution(cyc2)
    doubled = MeasuredRauzyGraph(
        cyc2, tuple(2 * x for x in sol.mu), tuple(2 * x for x in sol.m))
    assert validate_balance(doubled) == []


def test_solver_proportional_to_hint_route(cyc2):
    sol = integer_solution(cyc2)
    hinted = integer_solution(cyc2, unit_weights(cyc2))
    ratios = {Fraction(a, b) for a, b in zip(
        (*sol.mu, *sol.m), (*hinted.mu, *hinted.m))}
    assert len(ratios) == 1


def test_deterministic_graph_solutions():
    group = FreeGroup(2)
    rng = random.Random(41)
    for _ in range(20):
        n = rng.randint(1, 4)
        rels = []
        for _ in range(group.rank):
            perm = list(range(n))
            rng.shuffle(perm)
            rels.append({(v, perm[v]) for v in range(n)})
        g = graphs.RauzyGraph.from_relations(group, n, rels)
        sol = integer_solution(g)
        assert sol is not None
        for i, e in enumerate(g.edges):
            assert sol.m[i] == sol.mu[e.source]


def test_random_graph_solver_outputs_are_solutions():
    group = FreeGroup(2)
    rng = random.Random(3)
    solved = 0
    for _ in range(150):
        g = random_valid_graph(group, rng, 3)
        sol = integer_solution(g)
        if sol is None:
            continue
        solved += 1
        assert sol.is_integral() and sol.has_full_support()
        assert validate_balance(sol) == []
    assert solved >= 20


def test_random_solutions_against_sympy_kernel():
    group = FreeGroup(2)
    rng = random.Random(8)
    checked = 0
    while checked < 10:
        g = random_valid_graph(group, rng, 3)
        sol = integer_solution(g)
        if sol is None:
            continue
        M = sympy.Matrix(balance_matrix(g))
        vec = sympy.Matrix(list(sol.mu) + list(sol.m))
        assert M * vec == sympy.zeros(M.rows, 1)
        checked += 1


def test_simplex_feasibility_basics():
    assert solve_at_least_one([], 2) == [1, 1]
    x = solve_at_least_one([[1, -1, 0], [0, 1, -1]], 3)
    assert x[0] == x[1] == x[2] >= 1
    x = solve_at_least_one([[2, -1, -1]], 3)
    assert 2 * x[0] == x[1] + x[2] and min(x) >= 1
    assert all(isinstance(a, Fraction) for a in x)
    with pytest.raises(Infeasible):
        solve_at_least_one([[1, 1]], 2)
    with pytest.raises(Infeasible):  # forces x[2] = 0
        solve_at_least_one([[1, -1, -1], [1, -1, 0]], 3)


def _oracle_systems(rng):
    """Balance systems of random valid graphs, small integer systems with
    degenerate (zero right-hand side), repeated and empty rows, and systems
    with Fraction entries over mixed denominators."""
    for rank in (1, 2, 3):
        group = FreeGroup(rank)
        for _ in range(40):
            rows, n_cols, _ = _balance_system(random_valid_graph(group, rng, 5))
            yield rows, n_cols
    for _ in range(400):
        # sparse and wide, so that degenerate ratio ties meet rows whose
        # basic variables are out of row order
        n_cols = rng.randint(1, 16)
        rows = []
        for _ in range(rng.randint(0, 8)):
            row = [rng.choice((-2, -1, 1, 2)) if rng.random() < 0.4 else 0
                   for _ in range(n_cols)]
            kind = rng.random()
            if kind < 0.7:
                row[-1] -= sum(row)        # degenerate: b = 0
            elif kind < 0.8:
                row = [0] * n_cols         # empty
            rows.append(row)
            if rng.random() < 0.1:
                rows.append([-a for a in rng.choice(rows)])
        yield rows, n_cols
    for _ in range(300):
        n_cols = rng.randint(1, 6)
        rows = []
        for _ in range(rng.randint(1, 4)):
            row = [Fraction(rng.randint(-3, 3), rng.randint(1, 6))
                   for _ in range(n_cols)]
            if rng.random() < 0.5:
                row[-1] -= sum(row)
            rows.append(row)
        yield rows, n_cols


def _outcome(solve, rows, n_cols):
    try:
        return solve(rows, n_cols)
    except Infeasible:
        return None


def test_simplex_matches_fraction_oracle():
    outcomes = []
    for rows, n_cols in _oracle_systems(random.Random(16)):
        got = _outcome(solve_at_least_one, rows, n_cols)
        assert got == _outcome(phase1_oracle, rows, n_cols), (rows, n_cols)
        assert got is None or all(type(a) is Fraction for a in got)
        outcomes.append(got is not None)
    assert 200 < sum(outcomes) < len(outcomes) - 200


def test_validate_balance_matches_brute_force():
    rng = random.Random(12)
    cases = 0
    for rank in (1, 2, 3):
        group = FreeGroup(rank)
        for _ in range(40):
            g = random_valid_graph(group, rng, 4)
            k = len(g.edges)
            sol = integer_solution(g)
            pair = [rng.randint(1, 3) for _ in range(k)]
            weightings = [
                [pair[min(i, e.bar)] for i, e in enumerate(g.edges)],
                # bar-asymmetric
                [Fraction(rng.randint(0, 4), rng.randint(1, 2)) for _ in range(k)],
            ]
            if sol is not None:
                tampered = list(sol.m)
                tampered[rng.randrange(k)] += 1
                weightings += [list(sol.m), tampered]
            for m in weightings:
                mu = [sum(m[i] for i in g.out_edges(v, rng.choice(g.group.letters)))
                      for v in range(len(g.vertices))]
                mg = MeasuredRauzyGraph(g, tuple(mu), tuple(m))
                got = [(x.kind, x.vertex, x.letter, x.lhs, x.rhs)
                       for x in validate_balance(mg)]
                assert got == balance_violations(mg)
                cases += bool(got)
    assert cases > 100


# verdicts of integer_solution on every rank-2 class on 1..3 vertices, in
# all_valid_graphs order; recorded with the kernel-basis solver
VERDICT_DIGEST = "2da672ff6192c284"
# the solutions (mu, m) themselves, on the same classes and then on seeded
# random valid graphs of rank 1..3; recorded with the Fraction tableau
SOLUTION_DIGEST = "e74001cd11d9a7e8"


def _solution_digest_graphs():
    rng = random.Random(16)
    for rank in (1, 2, 3):
        group = FreeGroup(rank)
        for _ in range(40):
            yield random_valid_graph(group, rng, 8)


def test_verdicts_golden_digest():
    group = FreeGroup(2)
    solutions = [integer_solution(g)
                 for n in range(1, 4) for g in graphs.all_valid_graphs(group, n)]
    verdicts = [sol is not None for sol in solutions]
    assert (len(verdicts), sum(verdicts)) == (2316, 801)
    assert sha256(repr(verdicts).encode()).hexdigest()[:16] == VERDICT_DIGEST
    solutions += map(integer_solution, _solution_digest_graphs())
    weights = [sol and (sol.mu, sol.m) for sol in solutions]
    assert sha256(repr(weights).encode()).hexdigest()[:16] == SOLUTION_DIGEST


def test_verdicts_agree_with_highs():
    rng = random.Random(21)
    seen = set()
    for rank, max_vertices, count in ((1, 6, 40), (2, 6, 200), (3, 5, 40)):
        group = FreeGroup(rank)
        for _ in range(count):
            g = random_valid_graph(group, rng, max_vertices)
            sol = integer_solution(g)
            assert (sol is not None) == lp_feasible(g)
            if sol is not None:
                x = [*sol.mu, *sol.m]
                assert min(x) >= 1
                assert all(sum(a * b for a, b in zip(row, x)) == 0
                           for row in balance_matrix(g))
            seen.add((rank, sol is not None))
    assert seen == {(r, v) for r in (1, 2, 3) for v in (True, False)}
