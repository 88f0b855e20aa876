"""Independent checks of the outputs of every benchmark step.

Nothing here calls into ``rauzy``: documents and reports are read as plain
JSON, words are handled as letter strings ("aAbB", "e" for the identity),
and every property is recomputed from scratch.  A check that fails raises
``Mismatch``; the benchmark counts that step as failed and as wrong.
"""

from __future__ import annotations

from fractions import Fraction

LETTERS = "aAbB"                       # rank 2, in the library's letter order
INVERSE = {"a": "A", "A": "a", "b": "B", "B": "b"}


class Mismatch(AssertionError):
    """An output that does not have the property the step promises."""


def need(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


# -- words as strings

def ball(radius: int) -> list[str]:
    """B_radius as letter strings ("" for the identity), shortest first."""
    out = [""]
    frontier = [""]
    for _ in range(radius):
        frontier = [w + x for w in frontier for x in LETTERS
                    if not w or w[-1] != INVERSE[x]]
        out += frontier
    return out


def ball_size(radius: int) -> int:
    return 1 + 4 * (3 ** radius - 1) // 2


def name(w: str) -> str:
    return w or "e"


def tree_edges(radius: int):
    """(w, x, w x) for every Cayley edge inside B_radius, each once, with
    w x one letter longer than w."""
    for w in ball(radius - 1):
        for x in LETTERS:
            if not w or w[-1] != INVERSE[x]:
                yield w, x, w + x


# -- graphs

class Graph:
    """A rank-2 graph document, read without the library."""

    def __init__(self, doc: dict):
        need(doc.get("rank") == 2, "graph: rank must be 2")
        self.vertices = list(doc["vertices"])
        self.edges = [(e["source"], e["range"], e["label"], e["bar"])
                      for e in doc["edges"]]
        self.triples = {(s, r, x): i for i, (s, r, x, _) in enumerate(self.edges)}
        for i, (s, r, x, b) in enumerate(self.edges):
            need(self.edges[b] == (r, s, INVERSE[x], i),
                 f"graph: edge {i} and its bar do not pair up")

    def has_edge(self, source, target, letter) -> bool:
        return (source, target, letter) in self.triples

    def same_as(self, doc: dict) -> bool:
        return Graph(doc).edges == self.edges and doc["vertices"] == self.vertices

    def morphism_count(self, radius: int) -> int:
        """Number of graph morphisms from the Cayley ball B_radius, counted
        on the ball as a tree: branch[(w, x)] is the number of colorings of
        the subtree below a node colored w that was entered by letter x."""
        succ = {}
        for s, r, x, _ in self.edges:
            succ.setdefault((s, x), []).append(r)
        if radius == 0:
            return len(self.vertices)
        branch = {(v, x): 1 for v in self.vertices for x in LETTERS}
        for _ in range(radius - 1):
            branch = {
                (v, x): _prod(sum(branch[(w, y)] for w in succ.get((v, y), ()))
                              for y in LETTERS if y != INVERSE[x])
                for v in self.vertices for x in LETTERS}
        return sum(
            _prod(sum(branch[(w, x)] for w in succ.get((v, x), ()))
                  for x in LETTERS)
            for v in self.vertices)


def _prod(values) -> int:
    out = 1
    for v in values:
        out *= v
    return out


def reduced_cycle(g: Graph, cycle: list, start) -> None:
    n = len(cycle)
    need(n > 0 and len(set(cycle)) == n, "cycle: edges must be distinct")
    need(all(0 <= e < len(g.edges) for e in cycle), "cycle: bad edge id")
    need(g.edges[cycle[0]][0] == start, "cycle: does not start at the vertex")
    for i in range(n):
        e, f = g.edges[cycle[i]], g.edges[cycle[(i + 1) % n]]
        need(e[1] == f[0], "cycle: edges do not chain")
        need(f[2] != INVERSE[e[2]], "cycle: labels cancel")


def balanced(g: Graph, mu: dict, m: list) -> None:
    """Exact integer full-support balance: bar symmetry, and for every
    vertex and letter the outgoing and the incoming weights sum to mu."""
    need(set(mu) == set(g.vertices), "measure: mu misses vertices")
    mu = {v: Fraction(x) for v, x in mu.items()}
    m = [Fraction(x) for x in m]
    need(len(m) == len(g.edges), "measure: one weight per edge")
    need(all(x.denominator == 1 and x >= 1 for x in (*mu.values(), *m)),
         "measure: weights must be positive integers")
    out = {(v, x): 0 for v in g.vertices for x in LETTERS}
    inc = dict(out)
    for i, (s, r, x, b) in enumerate(g.edges):
        need(m[i] == m[b], f"measure: edge {i} differs from its bar")
        out[(s, x)] += m[i]
        inc[(r, x)] += m[i]
    for (v, x), total in out.items():
        need(total == mu[v] and inc[(v, x)] == mu[v],
             f"measure: unbalanced at ({v}, {x})")


def weight_bits(mu: dict, m: list) -> int:
    return sum(Fraction(x).numerator.bit_length()
               for x in (*mu.values(), *m))


# -- selectors and their windows

def selector(g: Graph, cycle: list, doc: dict) -> None:
    need(Graph(doc["graph"]).edges == g.edges, "selector: graph changed")
    need(doc.get("cycle") == cycle, "selector: cycle not carried")
    v0 = doc["v0"]
    for x in LETTERS:
        e = g.edges[doc["t0"][x]]
        need(e[0] == v0 and e[2] == x, f"selector: t0[{x}] is not a {x}-edge at v0")
    need(len(doc["t1"]) == len(g.edges), "selector: one t1 row per edge")
    for i, row in enumerate(doc["t1"]):
        for x in LETTERS:
            f = g.edges[row[x]]
            need(f[0] == g.edges[i][1] and f[2] == x,
                 f"selector: t1[{i}][{x}] does not continue edge {i}")


def certificate(report: dict, g: Graph, sel: dict, window: int,
                depth: int) -> None:
    """`certified`, every probe run, the cycle echoed as the selector's,
    and the gap within the criterion-4 bound (max return length - 1 +
    n * ceil(window / n)), with the return lengths recomputed here."""
    need(report["verdict"] == "certified", "certify: not certified")
    w = report["witnesses"]
    need(w["window_radius"] == window and w["probe_length"] == depth,
         "certify: wrong sizes echoed")
    need(w["probes"] == ball_size(depth), "certify: not every probe ran")
    n = len(sel["cycle"])
    need(w["cycle_length"] == n, "certify: not the selector's cycle length")
    need(w["cycle_power"] == -(-window // n), "certify: wrong cycle power")
    lo, hi = return_lengths(g, sel)
    need(lo <= w["max_return_length"] <= hi,
         f"certify: max return length {w['max_return_length']} is not "
         f"that of shortest return words ({lo}..{hi})")
    bound = (hi - 1) + n * w["cycle_power"]
    need(0 <= w["syndeticity_gap"] <= bound,
         f"certify: gap {w['syndeticity_gap']} above the bound {bound}")


def return_lengths(g: Graph, sel: dict) -> tuple[int, int]:
    """Bounds on the longest return word of the selector: for each edge, a
    shortest reduced T1 walk to the cycle or its reverse, prolonged along
    that cycle to its base edge (at least one step).  Shortest walks can
    end on different edges, and so differ in length once prolonged;
    returns the max over edges of the shortest and of the longest
    choice."""
    cycle = sel["cycle"]
    n = len(cycle)
    steps_to_base = {}
    # where an edge lies on both, its place on the cycle counts
    for track in ([g.edges[e][3] for e in reversed(cycle)], cycle):
        for p, e in enumerate(track):
            steps_to_base[e] = n - p if p else 0
    lo = hi = 0
    for e in range(len(g.edges)):
        if e in steps_to_base:
            lengths = [steps_to_base[e] or n]
        else:
            seen, frontier, lengths, d = {e}, [e], [], 0
            while frontier and not lengths:
                d += 1
                nxt = []
                for x in frontier:
                    for s in LETTERS:
                        f = sel["t1"][x][s]
                        if s == INVERSE[g.edges[x][2]] or f in seen:
                            continue
                        seen.add(f)
                        if f in steps_to_base:
                            lengths.append(d + steps_to_base[f])
                        else:
                            nxt.append(f)
                frontier = nxt
            need(lengths, f"certify: edge {e} cannot reach the cycle")
        lo, hi = max(lo, min(lengths)), max(hi, max(lengths))
    return lo, hi


def expansion(g: Graph, sel: dict, report: dict, radius: int) -> dict:
    """x_T and z0 windows are graph morphisms, checked edge by edge; z0
    projects onto x_T.  Returns z0 keyed by letter strings."""
    w = report["witnesses"]
    need(w["radius"] == radius, "expand: wrong radius echoed")
    words = ball(radius)
    xt = {k if k != "e" else "": v for k, v in w["x_t"].items()}
    z0 = {k if k != "e" else "": v for k, v in w["z0"].items()}
    need(set(xt) == set(words) == set(z0), "expand: window is not the ball")
    need(xt[""] == sel["v0"] and z0[""] == "*", "expand: wrong center")
    for u, x, ux in tree_edges(radius):
        need(g.has_edge(xt[u], xt[ux], x),
             f"expand: x_T is not a morphism at {name(u)}.{x}")
        e = _edge_of(z0[ux])
        source = sel["v0"] if not u else g.edges[_edge_of(z0[u])][1]
        need(g.edges[e][0] == source and g.edges[e][2] == x,
             f"expand: z0 edge at {name(ux)} does not continue the walk")
        need(g.edges[e][1] == xt[ux], f"expand: z0 and x_T disagree at {name(ux)}")
    return z0


def _edge_of(symbol: str) -> int:
    need(isinstance(symbol, str) and symbol.startswith("e"),
         f"bad edge symbol {symbol!r}")
    return int(symbol[1:])


def sofic(g: Graph, sel: dict, report: dict, z0: dict) -> int:
    """The witness SFT admits z0's window and phi collapses it correctly.
    Returns the number of forbidden patterns."""
    w = report["witnesses"]
    sft = w["sft"]
    symbols = ["*"] + [f"e{i}" for i in range(len(g.edges))]
    need(sft["alphabet"] == symbols, "sofic: wrong alphabet")
    need(sorted(sft["window"]) == sorted(["e", *LETTERS]), "sofic: window is not B_1")
    need(w["phi"] == {"*": sel["v0"], **{f"e{i}": e[1] for i, e in enumerate(g.edges)}},
         "sofic: phi is not the range map")
    single, pair = set(), set()
    for pat in sft["forbidden"]:
        if len(pat) == 1:
            single.add(pat["e"])
        else:
            (x,) = [k for k in pat if k != "e"]
            pair.add((pat["e"], x, pat[x]))
    for u, v in z0.items():
        need(v not in single, f"sofic: z0 uses a forbidden symbol at {name(u)}")
    for u, x, ux in tree_edges(max(len(k) for k in z0)):
        need((z0[u], x, z0[ux]) not in pair and
             (z0[ux], INVERSE[x], z0[u]) not in pair,
             f"sofic: z0 hits a forbidden pattern at {name(u)}.{x}")
    used = {_edge_of(v) for k, v in z0.items() if k}
    need(used <= set(w["range_edges"]), "sofic: z0 leaves the range edges")
    return len(sft["forbidden"])


# -- finite actions

def action(g: Graph, weights: dict, report: dict) -> int:
    """The action's walks are permutations, the projection is a morphism
    with exactly the prescribed edge multiplicities, and there is one
    orbit.  Returns the number of points."""
    w = report["witnesses"]
    act, pi = w["action"], w["pi"]
    points = act["points"]
    n = len(points)
    walks = [act["perms"]["a"], act["perms"]["b"]]
    for walk in walks:
        need(sorted(walk) == list(range(n)), "action: a walk is not a permutation")
    need(set(pi) == set(points), "action: pi must name every point")
    mu = {v: sum(1 for p in points if pi[p] == v) for v in g.vertices}
    need(mu == {v: int(Fraction(x)) for v, x in weights["mu"].items()},
         "action: fibers do not have mu points")
    counts = [0] * len(g.edges)
    for i, walk in enumerate(walks):
        x = "ab"[i]
        for p in range(n):
            e = g.triples.get((pi[points[p]], pi[points[walk[p]]], x))
            need(e is not None, "action: projection is not a morphism")
            counts[e] += 1
            counts[g.edges[e][3]] += 1
    need(counts == [int(Fraction(x)) for x in weights["m"]],
         "action: edge multiplicities differ from m")
    need(orbit_count(walks, n) == 1 and w["orbits"] == 1, "action: not transitive")
    return n


def orbit_count(walks, n: int) -> int:
    parent = list(range(n))

    def find(p):
        while parent[p] != p:
            parent[p] = parent[parent[p]]
            p = parent[p]
        return p

    for walk in walks:
        for p, q in enumerate(walk):
            parent[find(p)] = find(q)
    return len({find(p) for p in range(n)})


def realization(g: Graph, weights: dict, walks, pi: list, sample: dict,
                size: int, radius: int, complete: bool) -> None:
    """The realized action as in ``action``; its periodic window is the
    coding of point 0 (checked on the sampled words) on the whole ball; and
    the report's ``complete`` holds exactly when every point, hence every
    vertex and edge, occurs within radius - 1."""
    n = len(pi)
    for walk in walks:
        need(sorted(walk) == list(range(n)), "realize: a walk is not a permutation")
    need(orbit_count(walks, n) == 1, "realize: not transitive")
    inverse = [[0] * n for _ in walks]
    for i, walk in enumerate(walks):
        for p, q in enumerate(walk):
            inverse[i][q] = p
    step = {"a": walks[0], "A": inverse[0], "b": walks[1], "B": inverse[1]}
    counts = [0] * len(g.edges)
    for x in "ab":
        for p in range(n):
            e = g.triples.get((pi[p], pi[step[x][p]], x))
            need(e is not None, "realize: projection is not a morphism")
            counts[e] += 1
            counts[g.edges[e][3]] += 1
    need(counts == [int(Fraction(x)) for x in weights["m"]],
         "realize: edge multiplicities differ from m")
    dist = {0: 0}
    frontier = [0]
    while frontier:
        nxt = []
        for p in frontier:
            for x in LETTERS:
                q = step[x][p]
                if q not in dist:
                    dist[q] = dist[p] + 1
                    nxt.append(q)
        frontier = nxt
    need(complete == (max(dist.values()) <= radius - 1),
         "realize: completeness report disagrees with the eccentricity")
    need(size == ball_size(radius), "realize: window is not the ball")
    for word, point in sample.items():
        p = 0
        for x in word:
            p = step[x][p]
        need(point == p, f"realize: window disagrees at {name(word)}")


# -- windows

def configs(g: Graph, report: dict, radius: int) -> int:
    """Every config is a morphism from B_radius, they are distinct, and
    their number is the tree count of morphisms."""
    w = report["witnesses"]
    need(w["radius"] == radius, "xg-window: wrong radius echoed")
    items = w["configs"]
    need(w["count"] == len(items) == g.morphism_count(radius),
         "xg-window: wrong number of configs")
    words = ball(radius)
    keys = [name(u) for u in words]
    edges = [(name(u), x, name(ux)) for u, x, ux in tree_edges(radius)]
    seen = set()
    for c in items:
        need(len(c) == len(words), "xg-window: config is not on the ball")
        for u, x, ux in edges:
            need(g.has_edge(c[u], c[ux], x), "xg-window: config is not a morphism")
        seen.add(tuple(c[k] for k in keys))
    need(len(seen) == len(items), "xg-window: repeated config")
    return len(items)


def marker(report: dict, radius: int) -> dict:
    """special-symbol: chi is the indicator of <a>, x0 marks the axis and
    the last letter elsewhere, x0 is admissible in the emitted SFT, and the
    projection carries x0 onto chi.  Returns chi keyed by letter strings."""
    w = report["witnesses"]
    chi = {k if k != "e" else "": v for k, v in w["chi"].items()}
    x0 = {k if k != "e" else "": v for k, v in w["x0"].items()}
    words = ball(radius)
    need(set(chi) == set(x0) == set(words), "special: windows are not the ball")
    for u in words:
        axis = set(u) <= {"a", "A"}
        need(chi[u] == (1 if axis else 0), f"special: chi wrong at {name(u)}")
        need(x0[u] == ("*" if axis else u[-1]), f"special: x0 wrong at {name(u)}")
        need(w["proj"][x0[u]] == chi[u], f"special: projection wrong at {name(u)}")
    pair = set()
    for pat in w["sft"]["forbidden"]:
        (x,) = [k for k in pat if k != "e"]
        pair.add((pat["e"], x, pat[x]))
    for u, x, ux in tree_edges(radius):
        need((x0[u], x, x0[ux]) not in pair and (x0[ux], INVERSE[x], x0[u]) not in pair,
             f"special: x0 hits a forbidden pattern at {name(u)}.{x}")
    return chi


def returns(report: dict, depth: int) -> int:
    """The return set of the <a> indicator into an axis pattern is exactly
    the powers a^j with |j| <= depth."""
    got = report["witnesses"]["returns"]
    want = {"e"} | {c * j for c in "aA" for j in range(1, depth + 1)}
    need(len(got) == len(set(got)) == 2 * depth + 1 and set(got) == want,
         "return-set: not the 2L+1 axis points")
    return len(got)
