"""Measured Rauzy graphs: vertex and edge weights with per-letter balance.

The balance equations say that at every vertex and for every letter, the
outgoing and the incoming edge weights each sum to the vertex weight, and
bar-paired edges carry equal weight.  Giving each bar pair one weight makes
every in-balance equation an out-balance one, so the system solved has one
unknown per vertex and per bar pair and one row per (vertex, letter).  A
solution with every coordinate >= 1 (strict positivity, by homogeneity) is
found or refuted by an exact phase-1 simplex with Bland's rule on an
integer-preserving (fraction-free) tableau: integer rows T over one common
denominator d stand for T / d, every pivot divides exactly by Sylvester's
identity, and rational input is first scaled by the lcm of all its
denominators.  Positive rational solutions scale to integer ones by
clearing denominators.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .graphs import RauzyGraph, require_valid
from .words import Letter


@dataclass(frozen=True)
class MeasuredRauzyGraph:
    """Weights are indexed like the graph: mu[v] per vertex, m[e] per edge."""

    graph: RauzyGraph
    mu: tuple
    m: tuple

    def __post_init__(self):
        if len(self.mu) != len(self.graph.vertices):
            raise ValueError("mu must have one weight per vertex")
        if len(self.m) != len(self.graph.edges):
            raise ValueError("m must have one weight per edge")
        for x in (*self.mu, *self.m):
            if x < 0:
                raise ValueError("weights must be non-negative")

    def has_full_support(self) -> bool:
        return all(x > 0 for x in self.m)

    def is_integral(self) -> bool:
        return all(Fraction(x).denominator == 1 for x in (*self.mu, *self.m))


@dataclass(frozen=True)
class BalanceViolation:
    kind: str            # "out", "in", or "bar"
    vertex: object       # vertex label ("bar": the edge id)
    letter: Letter | None
    lhs: Fraction
    rhs: Fraction

    def __str__(self):
        if self.kind == "bar":
            return (f"m(edge {self.vertex}) = {self.lhs} differs from its "
                    f"bar's weight {self.rhs}")
        return (f"{self.kind}-balance at ({self.vertex!r}, letter {self.letter}): "
                f"{self.lhs} != {self.rhs}")


def validate_balance(mg: MeasuredRauzyGraph) -> list[BalanceViolation]:
    """Exact check of every balance equation and the bar symmetry."""
    g = mg.graph
    require_valid(g)
    out = []
    for i, e in enumerate(g.edges):
        if mg.m[i] != mg.m[e.bar]:
            out.append(BalanceViolation("bar", i, None,
                                        Fraction(mg.m[i]), Fraction(mg.m[e.bar])))
    for v in range(len(g.vertices)):
        for s in g.group.letters:
            o = sum((mg.m[i] for i in g.out_edges(v, s)), Fraction(0))
            if o != mg.mu[v]:
                out.append(BalanceViolation(
                    "out", g.vertices[v], s, o, Fraction(mg.mu[v])))
            # the edges into v labeled s are the bars of those leaving v
            # labeled s^-1
            i_sum = sum((mg.m[g.edges[i].bar] for i in g.out_edges(v, s ^ 1)),
                        Fraction(0))
            if i_sum != mg.mu[v]:
                out.append(BalanceViolation(
                    "in", g.vertices[v], s, i_sum, Fraction(mg.mu[v])))
    return out


class Infeasible(Exception):
    """The exact feasibility program has no solution."""


def solve_at_least_one(rows: Sequence[Sequence[Fraction]],
                       n_cols: int) -> list[Fraction]:
    """An exact x with rows @ x = 0 and every coordinate >= 1, or raise
    Infeasible.

    Phase-1 simplex with Bland's rule on y = x - 1 >= 0, i.e. rows @ y = b
    with b = -(rows @ 1), rows negated where b < 0.  Each row starts with an
    artificial basic variable; an artificial that leaves the basis never
    returns, so the tableau holds no artificial columns.

    The tableau is integer-preserving (Bareiss 1968, Edmonds 1967): integer
    rows T over one common denominator d > 0 stand for T / d.  Pivoting on
    p = T[leave][enter] > 0 keeps the pivot row, maps every other row r,
    the cost row included, to (p*r - r[enter]*T[leave]) // d, and sets
    d = p; the division is exact by Sylvester's identity.  Rational input
    is first multiplied by the lcm of all its denominators, one positive
    factor for the whole system, so signs, ratios and x are unchanged.
    """
    scale = lcm(*{a.denominator for row in rows for a in row})
    tableau = []
    for row in rows:
        r = [int(a * scale) for a in row]
        r.append(-sum(r))
        tableau.append([-a for a in r] if r[-1] < 0 else r)
    # artificial i is labelled n_cols + i, after every structural column
    basis = [n_cols + i for i in range(len(tableau))]
    # reduced costs of minimizing the sum of artificials; cost[-1] is
    # minus the objective
    cost = [0] * (n_cols + 1)
    for r in tableau:
        cost = [c - a for c, a in zip(cost, r)]
    d = 1

    while True:
        enter = next((j for j in range(n_cols) if cost[j] < 0), None)
        if enter is None:
            break
        # Bland: least ratio, then least basis index
        _, _, leave = min((Fraction(r[-1], r[enter]), basis[i], i)
                          for i, r in enumerate(tableau) if r[enter] > 0)
        prow = tableau[leave]
        p = prow[enter]

        def eliminate(r):
            f = r[enter]
            if f:
                return [(p * a - f * b) // d for a, b in zip(r, prow)]
            return r if p == d else [p * a // d for a in r]

        tableau = [r if r is prow else eliminate(r) for r in tableau]
        cost = eliminate(cost)
        basis[leave] = enter
        d = p

    if cost[-1] != 0:
        raise Infeasible("no solution with every coordinate >= 1")
    x = [Fraction(1)] * n_cols
    for r, var in zip(tableau, basis):
        if var < n_cols:
            x[var] += Fraction(r[-1], d)
    return x


def _balance_system(g: RauzyGraph) -> tuple:
    """The homogeneous balance system over one weight per vertex and one per
    bar pair: a row -mu(v) + sum of the pair weights leaving v labeled s per
    (vertex, letter).  Returns (rows, n_cols, pair) with pair[i] the column
    of edge i's bar pair; the vertex weights take columns 0..n-1."""
    n = len(g.vertices)
    pair = [0] * len(g.edges)
    n_cols = n
    for i, e in enumerate(g.edges):
        if i < e.bar:
            pair[i] = pair[e.bar] = n_cols
            n_cols += 1
    rows = []
    for v in range(n):
        for s in g.group.letters:
            row = [0] * n_cols
            row[v] = -1
            for i in g.out_edges(v, s):
                row[pair[i]] += 1
            rows.append(row)
    return rows, n_cols, pair


def _to_integers(values: Iterable[Fraction], normalize: bool) -> list[int]:
    values = [Fraction(v) for v in values]
    mult = lcm(*(v.denominator for v in values)) if values else 1
    ints = [int(v * mult) for v in values]
    if normalize:
        g = 0
        for x in ints:
            g = gcd(g, x)
        if g > 1:
            ints = [x // g for x in ints]
    return ints


def integer_solution(g: RauzyGraph,
                     hint: MeasuredRauzyGraph | None = None
                     ) -> MeasuredRauzyGraph | None:
    """An integer full-support measured structure on g, or None if no
    full-support solution exists.

    With a balanced full-support rational hint, simply clears denominators
    by their lcm.  Without one, solves the balance system for a vector with
    every coordinate >= 1, expands the bar-pair weights to edges, scales to
    integers and divides by the gcd.
    """
    require_valid(g)
    n = len(g.vertices)
    if hint is not None:
        if hint.graph is not g and hint.graph != g:
            raise ValueError("hint is for a different graph")
        violations = validate_balance(hint)
        if violations:
            raise ValueError(
                "hint is not balanced: " + "; ".join(map(str, violations)))
        if not hint.has_full_support():
            raise ValueError("hint does not have full support")
        ints = _to_integers((*hint.mu, *hint.m), normalize=False)
        return MeasuredRauzyGraph(g, tuple(ints[:n]), tuple(ints[n:]))

    if not n:
        return None  # no vertex to carry a positive weight
    rows, n_cols, pair = _balance_system(g)
    try:
        x = solve_at_least_one(rows, n_cols)
    except Infeasible:
        return None
    ints = _to_integers([*x[:n], *(x[c] for c in pair)], normalize=True)
    solution = MeasuredRauzyGraph(g, tuple(ints[:n]), tuple(ints[n:]))
    assert not validate_balance(solution) and solution.has_full_support()
    return solution
