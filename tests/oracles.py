"""Independent oracles used by the test suite.

These deliberately avoid the library's own reachability code paths.
"""

from itertools import permutations, product

import numpy as np

from rauzy import graphs


def minimality_oracle(g):
    """Transitive closure of the edge-transition relation by repeated
    boolean matrix multiplication, then the bar-covering check."""
    m = len(g.edges)
    adj = np.zeros((m, m), dtype=bool)
    transitions = graphs.edge_transitions(g)
    for e in range(m):
        for f in transitions[e]:
            adj[e][f] = True
    reach = np.eye(m, dtype=bool) | adj
    while True:
        nxt = reach | (reach @ reach)
        if (nxt == reach).all():
            break
        reach = nxt
    return all(reach[e][f] or reach[e][g.edges[f].bar]
               for e in range(m) for f in range(m))


def conditions_oracle(g):
    """The three connectivity conditions (c1, c2, c3) of
    graphs.check_conditions, from a boolean matrix closure of the edge
    transitions read straight off g.edges."""
    m, n = len(g.edges), len(g.vertices)
    adj = np.zeros((m, m), dtype=bool)
    for i, e in enumerate(g.edges):
        for j, f in enumerate(g.edges):
            adj[i][j] = f.source == e.target and f.label != e.label ^ 1
    reach = np.eye(m, dtype=bool) | adj
    while True:
        nxt = reach | (reach @ reach)
        if (nxt == reach).all():
            break
        reach = nxt
    bars = [e.bar for e in g.edges]
    c3 = bool(reach.all())
    c2 = bool((reach | reach[:, bars]).all())
    # vertex pairs: some edge out of v reaches some edge into w
    out = np.zeros((n, m), dtype=int)
    into = np.zeros((m, n), dtype=int)
    for i, e in enumerate(g.edges):
        out[e.source][i] = 1
        into[i][e.target] = 1
    c1 = bool((out @ reach.astype(int) @ into > 0).all())
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
