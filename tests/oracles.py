"""Independent oracles used by the test suite.

These deliberately avoid the library's own reachability code paths.
"""

from fractions import Fraction
from itertools import permutations, product

import numpy as np

from rauzy.measured import Infeasible
from rauzy.words import concat


def edge_closure(g):
    """reach[e, f]: some reduced path starts with edge e and ends with edge
    f, by repeated squaring of the edge-transition matrix read straight off
    g.edges (e -> f iff f leaves e's range and does not cancel e's label)."""
    src, tgt, lab = (np.array([getattr(e, key) for e in g.edges], dtype=int)
                     for key in ("source", "target", "label"))
    adj = (tgt[:, None] == src[None, :]) & (lab[None, :] != lab[:, None] ^ 1)
    reach = np.eye(len(g.edges), dtype=bool) | adj
    while True:
        square = reach.astype(np.float32)
        nxt = reach | (square @ square > 0)
        if (nxt == reach).all():
            return reach
        reach = nxt


def unreachable_pair_oracle(g):
    """The least e, then the least f, with no reduced path from e to f or
    to bar(f); None if the graph is minimal."""
    reach = edge_closure(g)
    bars = [e.bar for e in g.edges]
    missed = np.argwhere(~(reach | reach[:, bars]))
    return tuple(int(x) for x in missed[0]) if len(missed) else None


def minimality_oracle(g):
    """Whether every ordered edge pair is joined by a reduced path up to
    reversing the final edge, from the matrix closure."""
    return unreachable_pair_oracle(g) is None


def conditions_oracle(g):
    """The three connectivity conditions (c1, c2, c3) of
    graphs.check_conditions, from the matrix closure."""
    m, n = len(g.edges), len(g.vertices)
    reach = edge_closure(g)
    bars = [e.bar for e in g.edges]
    c3 = bool(reach.all())
    c2 = bool((reach | reach[:, bars]).all())
    # vertex pairs: some edge out of v reaches some edge into w
    out = np.zeros((n, m), dtype=np.float32)
    into = np.zeros((m, n), dtype=np.float32)
    for i, e in enumerate(g.edges):
        out[e.source][i] = 1
        into[i][e.target] = 1
    c1 = bool((out @ reach.astype(np.float32) @ into > 0).all())
    return c1, c2, c3


def symmetry_orbit(g):
    """Every graph obtained from g by relabelling vertices, inverting
    generators and permuting generators, each as a frozenset of
    (source index, range index, label) triples."""
    n, d = len(g.vertices), g.group.rank
    triples = [(e.source, e.target, e.label) for e in g.edges]
    return {frozenset((p[v], p[w], 2 * q[s >> 1] + (s & 1 ^ flips[s >> 1]))
                      for v, w, s in triples)
            for p in permutations(range(n))
            for q in permutations(range(d))
            for flips in product((0, 1), repeat=d)}


def components_oracle(n, pairs):
    """The classes of 0..n-1 under the equivalence generated by pairs, by
    union-find, as a set of frozensets."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        parent[find(a)] = find(b)
    classes = {}
    for x in range(n):
        classes.setdefault(find(x), set()).add(x)
    return {frozenset(c) for c in classes.values()}


def random_digraph(rng):
    """Successor lists on 1-7 nodes, 0-3 successors each, with repeats and
    loops allowed: inputs for the search oracles below."""
    n = rng.randint(1, 7)
    return [[rng.randrange(n) for _ in range(rng.randint(0, 3))]
            for _ in range(n)]


def depths_oracle(succ, seeds):
    """{node: fewest steps along succ[node] from a seed} over the nodes
    reachable from the seeds, by adding every successor of the reached set
    at once, round after round, until a round adds nothing."""
    depth = dict.fromkeys(seeds, 0)
    rounds = 0
    while True:
        rounds += 1
        step = {y for x in depth for y in succ[x]} - depth.keys()
        if not step:
            return depth
        depth.update(dict.fromkeys(step, rounds))


def least_shortest_path_oracle(succ, start, targets):
    """Among the shortest paths along succ[node] from start into targets,
    the one whose sequence of successor positions is lexicographically
    least, as a node list; None if no target is reachable.  Tries every
    position sequence, shortest first and in lexicographic order within a
    length, up to the number of nodes."""
    width = max(map(len, succ), default=0)
    for length in range(len(succ)):
        for steps in product(range(width), repeat=length):
            path = [start]
            for i in steps:
                if i >= len(succ[path[-1]]):
                    break
                path.append(succ[path[-1]][i])
            else:
                if path[-1] in targets:
                    return path
    return None


def balance_matrix(g):
    """The homogeneous balance system over mu(v_0..v_{n-1}) then
    m(e_0..e_{k-1}), with integer entries: a bar row m(e) - m(bar e) per
    edge, then per (vertex, letter) an out-row and an in-row summing the
    edges that leave or enter the vertex with that label, minus mu."""
    n, k = len(g.vertices), len(g.edges)
    rows = []
    for i, e in enumerate(g.edges):
        row = [0] * (n + k)
        row[n + i] += 1
        row[n + e.bar] -= 1
        rows.append(row)
    for v in range(n):
        for s in g.group.letters:
            for end in ("source", "target"):
                row = [0] * (n + k)
                row[v] = -1
                for i, e in enumerate(g.edges):
                    if getattr(e, end) == v and e.label == s:
                        row[n + i] += 1
                rows.append(row)
    return rows


def balance_violations(mg):
    """Every failed balance equation of a measured graph, by scanning all
    edges for each equation: (kind, vertex label or edge id, letter, lhs,
    rhs), bar checks first in edge order, then per vertex and letter the
    out-sum and the in-sum."""
    g = mg.graph
    out = [("bar", i, None, mg.m[i], mg.m[e.bar])
           for i, e in enumerate(g.edges) if mg.m[i] != mg.m[e.bar]]
    for v in range(len(g.vertices)):
        for s in g.group.letters:
            for kind, end in (("out", "source"), ("in", "target")):
                total = sum(mg.m[i] for i, e in enumerate(g.edges)
                            if getattr(e, end) == v and e.label == s)
                if total != mg.mu[v]:
                    out.append((kind, g.vertices[v], s, total, mg.mu[v]))
    return out


def lp_feasible(g):
    """Float LP oracle (HiGHS): whether the balance system has a solution
    with every weight >= 1."""
    from scipy.optimize import linprog

    rows = np.array(balance_matrix(g), dtype=float)
    res = linprog(np.zeros(rows.shape[1]), A_eq=rows,
                  b_eq=np.zeros(len(rows)), bounds=(1, None), method="highs")
    assert res.status in (0, 2), res.message
    return res.status == 0


def phase1_oracle(rows, n_cols):
    """An exact x with rows @ x = 0 and every coordinate >= 1, or raise
    Infeasible, by the library's phase-1 simplex run on a Fraction tableau:
    the reference for its integer-preserving one.

    Phase-1 simplex with Bland's rule on y = x - 1 >= 0, i.e. rows @ y = b
    with b = -(rows @ 1), rows negated where b < 0.  Each row starts with an
    artificial basic variable; an artificial that leaves the basis never
    returns, so the tableau holds no artificial columns.
    """
    tableau = []
    for row in rows:
        r = [Fraction(a) for a in row]
        r.append(-sum(r))
        tableau.append([-a for a in r] if r[-1] < 0 else r)
    # artificial i is labelled n_cols + i, after every structural column
    basis = [n_cols + i for i in range(len(tableau))]
    # reduced costs of minimizing the sum of artificials; cost[-1] is
    # minus the objective
    cost = [Fraction(0)] * (n_cols + 1)
    for r in tableau:
        cost = [c - a for c, a in zip(cost, r)]

    while True:
        enter = next((j for j in range(n_cols) if cost[j] < 0), None)
        if enter is None:
            break
        # Bland: least ratio, then least basis index
        _, _, leave = min((r[-1] / r[enter], basis[i], i)
                          for i, r in enumerate(tableau) if r[enter] > 0)
        piv = tableau[leave][enter]
        prow = tableau[leave] = [x / piv for x in tableau[leave]]
        support = [(j, x) for j, x in enumerate(prow) if x]
        for r in (*tableau, cost):
            f = r[enter]
            if f and r is not prow:
                for j, x in support:
                    r[j] -= f * x
        basis[leave] = enter

    if cost[-1] != 0:
        raise Infeasible("no solution with every coordinate >= 1")
    x = [Fraction(1)] * n_cols
    for r, var in zip(tableau, basis):
        if var < n_cols:
            x[var] += r[-1]
    return x


def sft_pairs(sft) -> frozenset:
    """The rule triples (a, s, b) of an SFT: each symbol b outside
    allowed[a, s]."""
    return frozenset((a, s, b) for (a, s), ok in sft.allowed.items()
                     for b in sft.alphabet.symbols if b not in ok)


def follow_table_oracle(sft):
    """(first, follow) by the forbidden-triple definition: the unbanned
    symbols in alphabet order, and follow[a, s] the b of first such that
    neither (a, s, b) nor (b, s^-1, a) is a triple of sft_pairs(sft)."""
    pairs = sft_pairs(sft)
    pairs |= {(b, s ^ 1, a) for a, s, b in pairs}
    first = tuple(a for a in sft.alphabet.symbols if a not in sft.banned)
    follow = {(a, s): tuple(b for b in first if (a, s, b) not in pairs)
              for a in first for s in sft.group.letters}
    return first, follow


def placements_oracle(group, domain, F):
    """Every g with g*F inside the domain, as (g, g*F), by trying each g in
    a ball that covers every w*f^-1 with w in the domain and f in F."""
    domain = set(domain)
    radius = max(map(len, domain)) + max(map(len, F))
    out = []
    for g in group.ball(radius):
        placed = tuple(concat(g, f) for f in F)
        if all(x in domain for x in placed):
            out.append((g, placed))
    return out


def return_set_oracle(group, config, u, depth):
    """(returns, missing): the g of B_depth with config(g*f) = u(f) for
    every f in the support of u, and the words g*f outside the config in
    length-then-lexicographic order, scanning each g with config.get."""
    absent = object()
    returns, missing = [], set()
    for g in group.ball(depth):
        values = [config.get(concat(g, f), absent) for f in u.support]
        missing.update(concat(g, f) for f, v in zip(u.support, values)
                       if v is absent)
        if all(v == u[f] for f, v in zip(u.support, values)):
            returns.append(g)
    return tuple(returns), sorted(missing, key=lambda w: (len(w), w))


def certificate_oracle(sel, cycle, window_radius, probe_length):
    """The syndetic-return check of selectors.certify_minimality, probe by
    probe: for every g0 of B_probe_length, every u of B_window_radius is
    walked letter by letter along the reduced word h * u from sel.t0 and
    sel.t1.  Returns ("certificate", window_radius, probe_length, probes,
    gap, cycle length, cycle power, max |w1|) or ("counterexample", g0, h,
    u, expected, got) for the first failing probe and its first bad u.
    Only the return words w1 come from the library (selectors._return_words,
    whose tie-breaks test_bfs_tie_breaks_golden_digest pins)."""
    from rauzy.selectors import _return_words

    g = sel.graph
    group = g.group

    def edge(w):   # T1(T0(w[0]), w[1:]) for a nonempty reduced word
        e = sel.t0[w[0]]
        for s in w[1:]:
            e = sel.t1[e][s]
        return e

    def vertex(w):
        return g.edges[edge(w)].target if w else sel.v0

    n = len(cycle)
    k = -(-window_radius // n)
    words = {"cycle": tuple(g.edges[e].label for e in cycle),
             "reverse": tuple(g.edges[g.edges[e].bar].label
                              for e in reversed(cycle))}
    returns = _return_words(sel, cycle)
    window = group.ball(window_radius)
    base = {u: vertex(u) for u in window}
    gap = probes = 0
    for g0 in group.ball(probe_length):
        h = ()
        if g0:
            w1, which = returns[edge(g0)]
            h = g0 + w1[:-1] + words[which] * k
        probes += 1
        gap = max(gap, len(h) - len(g0))
        for u in window:
            got = vertex(concat(h, u))
            if got != base[u]:
                return ("counterexample", g0, h, u, g.vertices[base[u]],
                        g.vertices[got])
    return ("certificate", window_radius, probe_length, probes, gap, n, k,
            max(len(w) for w, _ in returns.values()))
