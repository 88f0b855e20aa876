"""Rauzy graphs: labeled multigraphs with an edge-reversing involution.

A Rauzy graph must satisfy four axioms: the involution reverses source and
range, it inverts labels, (source, range, label) is injective, and every
(vertex, letter) has an outgoing edge.  A deterministic Rauzy graph is a
Schreier graph: one outgoing edge per (vertex, letter).

Minimality (every ordered edge pair is joined by a reduced path, up to
reversing the final edge) is decided by reachability in the edge-transition
automaton: states are edges, and e -> e' is allowed iff range(e) = source(e')
and label(e') is not the inverse of label(e).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from itertools import combinations, permutations, product
from typing import Hashable, Iterable, Sequence

from .patterns import (
    Alphabet,
    Pattern,
    Sft,
    WindowLanguage,
    compatible,
    translate_pattern,
)
from .words import EPSILON, FreeGroup, Letter, Word, concat, inverse_letter


@dataclass(frozen=True)
class Edge:
    source: int
    target: int
    label: Letter
    bar: int


class RauzyGraph:
    """A candidate Rauzy graph.  Construction only checks structural sanity
    (indices in range); the Rauzy axioms are checked by `validate`."""

    def __init__(self, group: FreeGroup, vertices: Sequence[Hashable],
                 edges: Sequence[Edge]):
        self.group = group
        self.vertices = tuple(vertices)
        self.edges = tuple(edges)
        n, m = len(self.vertices), len(self.edges)
        if len(set(self.vertices)) != n:
            raise ValueError("duplicate vertex labels")
        for i, e in enumerate(self.edges):
            if not (0 <= e.source < n and 0 <= e.target < n):
                raise ValueError(f"edge {i}: vertex index out of range")
            if e.label not in group.letters:
                raise ValueError(f"edge {i}: letter {e.label} out of range")
            if not 0 <= e.bar < m:
                raise ValueError(f"edge {i}: bar index out of range")
        self._out = None
        self._triples = None

    @classmethod
    def from_triples(cls, group: FreeGroup, vertices: Sequence[Hashable],
                     triples: Iterable[tuple]) -> "RauzyGraph":
        """Build a graph from (source_label, letter, target_label) triples.

        The reversed triple of each edge is added automatically and the edge
        list is sorted canonically, so the bar involution always exists.
        """
        vertices = tuple(vertices)
        vid = {v: i for i, v in enumerate(vertices)}
        tset = set()
        for (a, s, b) in triples:
            tset.add((vid[a], s, vid[b]))
            tset.add((vid[b], inverse_letter(s), vid[a]))
        ordered = sorted(tset)
        index = {t: i for i, t in enumerate(ordered)}
        edges = [
            Edge(v, w, s, index[(w, inverse_letter(s), v)])
            for (v, s, w) in ordered
        ]
        return cls(group, vertices, edges)

    @classmethod
    def from_relations(cls, group: FreeGroup, n_vertices: int,
                       relations: Sequence[Iterable[tuple]]) -> "RauzyGraph":
        """Build a graph on vertices 0..n-1 from one directed pair relation
        per positive generator: (v, w) in relations[i] gives an edge labeled
        generator i from v to w (and its reverse)."""
        if len(relations) != group.rank:
            raise ValueError("need one relation per positive generator")
        triples = []
        for i, rel in enumerate(relations):
            for (v, w) in rel:
                triples.append((v, 2 * i, w))
        return cls.from_triples(group, range(n_vertices), triples)

    # -- indexes

    def out_edges(self, v: int, s: Letter | None = None) -> tuple:
        if self._out is None:
            out = {}
            for i, e in enumerate(self.edges):
                out.setdefault((e.source, e.label), []).append(i)
                out.setdefault(e.source, []).append(i)
            self._out = {k: tuple(v) for k, v in out.items()}
        key = v if s is None else (v, s)
        return self._out.get(key, ())

    def edge_id(self, source: int, target: int, label: Letter) -> int | None:
        if self._triples is None:
            self._triples = {
                (e.source, e.target, e.label): i for i, e in enumerate(self.edges)
            }
        return self._triples.get((source, target, label))

    def vertex_id(self, label: Hashable) -> int:
        return self.vertices.index(label)

    def __repr__(self):
        return (f"RauzyGraph(d={self.group.rank}, |V|={len(self.vertices)}, "
                f"|E|={len(self.edges)})")

    def __eq__(self, other):
        return (isinstance(other, RauzyGraph)
                and self.group == other.group
                and self.vertices == other.vertices
                and self.edges == other.edges)

    def __hash__(self):
        return hash((self.group, self.vertices, self.edges))


def validate(g: RauzyGraph) -> list[str]:
    """Check the four Rauzy axioms; returns a list of violations (empty = ok)."""
    violations = []
    for i, e in enumerate(g.edges):
        eb = g.edges[e.bar]
        if eb.bar != i:
            violations.append(f"bar is not an involution at edge {i}")
        if eb.source != e.target or eb.target != e.source:
            violations.append(f"bar of edge {i} does not reverse it")
        if eb.label != inverse_letter(e.label):
            violations.append(f"bar of edge {i} does not invert its label")
    triples = [(e.source, e.target, e.label) for e in g.edges]
    if len(set(triples)) != len(triples):
        seen = set()
        for i, t in enumerate(triples):
            if t in seen:
                violations.append(
                    f"(source, range, label) not injective: edge {i} duplicates {t}")
            seen.add(t)
    for v in range(len(g.vertices)):
        for s in g.group.letters:
            if not g.out_edges(v, s):
                violations.append(
                    f"no outgoing edge at vertex {g.vertices[v]!r} "
                    f"labeled {g.group.format_letter(s)}")
    return violations


def require_valid(g: RauzyGraph) -> None:
    violations = validate(g)
    if violations:
        raise ValueError("invalid Rauzy graph: " + "; ".join(violations))


def is_deterministic(g: RauzyGraph) -> bool:
    """Whether (source, label) is injective on edges."""
    seen = set()
    for e in g.edges:
        key = (e.source, e.label)
        if key in seen:
            return False
        seen.add(key)
    return True


def edge_transitions(g: RauzyGraph) -> list[list[int]]:
    """Adjacency of the edge automaton: e -> e' iff the two-edge path (e, e')
    is reduced."""
    adj = []
    for e in g.edges:
        bad = inverse_letter(e.label)
        adj.append([i for i in g.out_edges(e.target) if g.edges[i].label != bad])
    return adj


def edge_reach(g: RauzyGraph) -> list[set]:
    """reach[e] = edges reachable from e in the edge automaton, e included
    (an f in reach[e] means some reduced path starts with e and ends with f)."""
    adj = edge_transitions(g)
    return [_closure((e,), adj) for e in range(len(g.edges))]


def _closure(seeds: Iterable, succ) -> set:
    """Every node reachable from the seeds along succ[node] (seeds included)."""
    seen = set(seeds)
    stack = list(seen)
    while stack:
        for y in succ[stack.pop()]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


def _shortest_path(start, targets, succ) -> list | None:
    """A shortest path along succ[node] from start to a node in targets, as
    a node list beginning with start; None if no target is reachable.

    Breadth first, trying successors in list order and stopping at the first
    target discovered, so ties always break the same way."""
    if start in targets:
        return [start]
    parent = {start: None}
    queue = deque([start])
    while queue:
        x = queue.popleft()
        for y in succ[x]:
            if y in parent:
                continue
            parent[y] = x
            if y in targets:
                path = [y]
                while parent[path[-1]] is not None:
                    path.append(parent[path[-1]])
                return path[::-1]
            queue.append(y)
    return None


def is_connected(g: RauzyGraph) -> bool:
    """Whether the graph is connected: every vertex is reachable from the
    first, edges coming in reversed pairs (False without vertices)."""
    succ = [[g.edges[i].target for i in g.out_edges(v)]
            for v in range(len(g.vertices))]
    return bool(succ) and len(_closure((0,), succ)) == len(succ)


def is_minimal(g: RauzyGraph) -> tuple[bool, tuple[int, int] | None]:
    """Whether every ordered edge pair (e, f) is joined by a reduced path
    from e to f or to bar(f).  On failure returns the first unreachable pair."""
    reach = edge_reach(g)
    for e in range(len(g.edges)):
        r = reach[e]
        for f in range(len(g.edges)):
            if f not in r and g.edges[f].bar not in r:
                return False, (e, f)
    return True, None


def check_conditions(g: RauzyGraph) -> tuple[bool, bool, bool]:
    """The three reduced-path connectivity conditions, strongest last:

    (1) every ordered vertex pair is joined by a reduced path;
    (2) the graph is minimal (edge to edge up to reversing the final edge);
    (3) every ordered edge pair is joined by a reduced path, exactly.

    (3) implies (2) implies (1) for rank >= 2.
    """
    return _conditions(len(g.vertices), [e.source for e in g.edges],
                       [e.target for e in g.edges],
                       [e.label for e in g.edges], [e.bar for e in g.edges])


def _conditions(n: int, src: list, tgt: list, lab: list,
                bar: list) -> tuple[bool, bool, bool]:
    """check_conditions on plain edge lists, over bitsets of edges:
    col[f] holds every edge e from which a reduced path reaches f (f
    included), the column of f in the edge automaton's closure."""
    m = len(src)
    letters = max(lab, default=0) // 2 * 2 + 2
    into, out = [0] * n, [0] * n
    into_label, out_label = [0] * (n * letters), [0] * (n * letters)
    for e in range(m):
        bit = 1 << e
        into[tgt[e]] |= bit
        out[src[e]] |= bit
        into_label[tgt[e] * letters + lab[e]] |= bit
        out_label[src[e] * letters + lab[e]] |= bit
    # e -> f is allowed iff range(e) = source(f) and label(e) != label(f)^-1
    col = [into[src[f]] & ~into_label[src[f] * letters + (lab[f] ^ 1)]
           | 1 << f for f in range(m)]
    succ = [out[tgt[e]] & ~out_label[tgt[e] * letters + (lab[e] ^ 1)]
            for e in range(m)]
    full = (1 << m) - 1
    if m and _from_first(succ) == full == _from_first(col):
        col = [full] * m   # strongly connected: every column is full
    else:
        for k in range(m):   # Warshall
            ck, bit = col[k], 1 << k
            for i in range(m):
                if col[i] & bit:
                    col[i] |= ck
    c3 = all(c == full for c in col)
    c2 = c3 or all(col[f] | col[bar[f]] == full for f in range(m))
    reaching = [0] * n   # edges from which a reduced path ends at w
    for f in range(m):
        reaching[tgt[f]] |= col[f]
    c1 = all(out[v] & r for r in reaching for v in range(n))
    return c1, c2, c3


def _from_first(adj: list) -> int:
    """Bitset of the nodes reachable from node 0 along adj (bitsets)."""
    seen = frontier = 1
    while frontier:
        step = 0
        while frontier:
            low = frontier & -frontier
            step |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = step & ~seen
        seen |= frontier
    return seen


def xg_sft(g: RauzyGraph) -> Sft:
    """The SFT X(G) over the vertex alphabet: configurations are morphisms
    from the Cayley graph, cut out by forbidding every two-word pattern
    {eps -> v1, s -> v2} with no edge v1 -s-> v2."""
    require_valid(g)
    group = g.group
    alphabet = Alphabet(g.vertices)
    present = {(e.source, e.target, e.label) for e in g.edges}
    forbidden = []
    n = len(g.vertices)
    for s in group.letters:
        sw = (s,)
        for v1 in range(n):
            for v2 in range(n):
                if (v1, v2, s) not in present:
                    forbidden.append(Pattern({
                        EPSILON: g.vertices[v1], sw: g.vertices[v2]}))
    window = {EPSILON} | {(s,) for s in group.letters}
    return Sft(group, alphabet, forbidden, window)


def pattern_graph(group: FreeGroup, alphabet: Alphabet,
                  F: Sequence[Word]) -> RauzyGraph:
    """The Rauzy graph on all F-patterns: p1 -s-> p2 iff p1 and s.p2 are
    compatible."""
    from .words import word_key

    F = tuple(sorted(set(F), key=word_key))
    if EPSILON not in F:
        raise ValueError("F must contain the identity")
    pats = [Pattern(zip(F, vals))
            for vals in product(alphabet.symbols, repeat=len(F))]
    triples = []
    for s in group.letters:
        sw = (s,)
        shifted = [(q, translate_pattern(sw, q)) for q in pats]
        for p1 in pats:
            for q, sq in shifted:
                if compatible(p1, sq):
                    triples.append((p1, s, q))
    return RauzyGraph.from_triples(group, pats, triples)


def graph_of_window(group: FreeGroup, lang: WindowLanguage,
                    F: Sequence[Word]) -> RauzyGraph:
    """The Rauzy graph read off a window language with support F: vertices
    are the occurring F-patterns, with an edge p1 -s-> p2 whenever the union
    p1 cup s.p2 occurs in the language's source configs.

    Raises ValueError if the window data is too small to give every
    (vertex, letter) an outgoing edge.
    """
    from .words import inverse, word_key

    F = tuple(sorted(set(F), key=word_key))
    if EPSILON not in F:
        raise ValueError("F must contain the identity")
    if tuple(lang.support) != F:
        raise ValueError("language support differs from F")
    if not lang.patterns:
        raise ValueError("empty window language")
    if not lang.sources:
        raise ValueError("language carries no source configs")
    vertices = lang.sorted_patterns()

    triples = set()
    for config in lang.sources:
        domain = set(config.domain)
        positions = {concat(w, inverse(f)) for w in config.domain for f in F}
        for g0 in positions:
            base = [concat(g0, f) for f in F]
            if not all(x in domain for x in base):
                continue
            p1 = Pattern(zip(F, (config[x] for x in base)))
            for s in group.letters:
                gs = concat(g0, (s,))
                shifted = [concat(gs, f) for f in F]
                if not all(x in domain for x in shifted):
                    continue
                p2 = Pattern(zip(F, (config[x] for x in shifted)))
                triples.add((p1, s, p2))
    graph = RauzyGraph.from_triples(group, vertices, triples)
    for v in range(len(vertices)):
        for s in group.letters:
            if not graph.out_edges(v, s):
                raise ValueError(
                    "window data insufficient: no outgoing "
                    f"{group.format_letter(s)}-edge at pattern {vertices[v]!r}")
    return graph


def is_graph_morphism(g1: RauzyGraph, g2: RauzyGraph, vertex_map: dict) -> bool:
    """Whether the vertex map (label -> label) preserves labeled edges."""
    for e in g1.edges:
        a = vertex_map[g1.vertices[e.source]]
        b = vertex_map[g1.vertices[e.target]]
        if g2.edge_id(g2.vertex_id(a), g2.vertex_id(b), e.label) is None:
            return False
    return True


def morphism_edge_map(g1: RauzyGraph, g2: RauzyGraph,
                      vertex_map: dict) -> tuple:
    """The edge map induced by a graph morphism: each edge goes to the
    unique target edge with the mapped endpoints and the same label
    (unique because (source, range, label) is injective)."""
    out = []
    for i, e in enumerate(g1.edges):
        a = vertex_map[g1.vertices[e.source]]
        b = vertex_map[g1.vertices[e.target]]
        f = g2.edge_id(g2.vertex_id(a), g2.vertex_id(b), e.label)
        if f is None:
            raise ValueError(f"not a morphism: edge {i} has no image")
        out.append(f)
    return tuple(out)


def canonical_form(g: RauzyGraph) -> tuple:
    """Lexicographically minimal edge encoding over vertex renamings.

    Intended for small graphs (<= 8 vertices); used to compare graphs up to
    renaming.
    """
    n = len(g.vertices)
    if n > 8:
        raise ValueError("canonical form only supported for <= 8 vertices")
    triples = [(e.source, e.target, e.label) for e in g.edges]
    best = None
    for perm in permutations(range(n)):
        enc = tuple(sorted((perm[a], perm[b], s) for (a, b, s) in triples))
        if best is None or enc < best:
            best = enc
    return (n, best)


def isomorphic(g1: RauzyGraph, g2: RauzyGraph) -> bool:
    return (g1.group == g2.group
            and canonical_form(g1) == canonical_form(g2))


# -- fixtures used across the package and its tests

def rose(group: FreeGroup) -> RauzyGraph:
    """One vertex with a loop for every letter."""
    return RauzyGraph.from_triples(
        group, ["v"], [("v", 2 * i, "v") for i in range(group.rank)])


def two_cycle(group: FreeGroup) -> RauzyGraph:
    """Two vertices u, v with a-edges u -> v -> u and b-loops at both."""
    if group.rank < 2:
        raise ValueError("two_cycle needs rank >= 2")
    triples = [("u", 0, "v"), ("v", 0, "u")]
    for i in range(1, group.rank):
        triples += [("u", 2 * i, "u"), ("v", 2 * i, "v")]
    return RauzyGraph.from_triples(group, ["u", "v"], triples)


def three_star(group: FreeGroup) -> RauzyGraph:
    """Vertices u, v, w with a-edges u -> v, u -> w, v -> u, w -> u and
    b-loops everywhere."""
    if group.rank < 2:
        raise ValueError("three_star needs rank >= 2")
    triples = [("u", 0, "v"), ("u", 0, "w"), ("v", 0, "u"), ("w", 0, "u")]
    for i in range(1, group.rank):
        triples += [(x, 2 * i, x) for x in ("u", "v", "w")]
    return RauzyGraph.from_triples(group, ["u", "v", "w"], triples)


def letter_flow_graph(group: FreeGroup, with_backtrack_pair: bool = False) -> RauzyGraph:
    """A graph separating the reduced-path connectivity conditions.

    One vertex per letter, a loop pair at each, and a forward edge
    v_mu -t-> v_t for every t outside {mu, mu^-1}: every edge whose label
    matches its target's letter points "with the flow", and the flow-aligned
    edges form a transition-closed half of the edge set.  The plain graph is
    minimal but some exact edge pair is not joined by a reduced path
    (condition (2) without (3)).  With the extra backtrack pair
    v_a -a^-1-> v_{a^-1} both sides avoid that pair entirely, so minimality
    fails while vertex-to-vertex connectivity survives ((1) without (2)).

    For rank 2 no graph on <= 3 vertices separates the conditions, and
    `find_condition_witnesses` on 4 vertices finds exactly these two graphs,
    up to relabelling vertices and inverting and permuting generators: they
    are the separating graphs with the fewest vertices and then the fewest
    edges (24 and 26), each the only one of its kind.
    """
    if group.rank < 2:
        raise ValueError("letter_flow_graph needs rank >= 2")
    letters = list(group.letters)
    names = [group.format_letter(t) for t in letters]
    triples = [(names[t], t, names[t]) for t in letters]
    for mu in letters:
        for t in letters:
            if t != mu and t != (mu ^ 1):
                triples.append((names[mu], t, names[t]))
    if with_backtrack_pair:
        triples.append((names[0], 1, names[1]))
    return RauzyGraph.from_triples(group, names, triples)


# -- exhaustive search for the condition separations
#
# A valid graph on vertices 0..n-1 is one total relation per generator: a
# set of pairs (v, w) in which every vertex has an outgoing and an incoming
# pair.  A relation is held here as an n*n-bit mask, bit v*n + w for (v, w).
# Relabelling the vertices, inverting a generator (transposing its relation)
# and permuting the generators map reduced paths to reduced paths, so they
# preserve all three conditions; the search visits one graph per orbit of
# that group, the one whose relation tuple is lexicographically least.


class _RelationClasses:
    """The total relations on n vertices and their classes under relabelling
    the vertices and transposing, filled in one relation size at a time."""

    def __init__(self, n: int):
        self.n = n
        perms = list(permutations(range(n)))   # perms[0] is the identity
        cells = [(v, w) for v in range(n) for w in range(n)]
        # moves[k][t]: new bit position of each bit under perms[k], after
        # transposing if t
        self.moves = [(tuple(p[v] * n + p[w] for v, w in cells),
                       tuple(p[w] * n + p[v] for v, w in cells))
                      for p in perms]
        index = {p: k for k, p in enumerate(perms)}
        self.inverse = [index[tuple(sorted(range(n), key=p.__getitem__))]
                        for p in perms]
        self.rep = {}           # mask -> least mask of its class
        self.transporters = {}  # mask -> k with perms[k] moving mask or its
                                # transpose onto rep[mask]
        self._by_size = {}

    def image(self, k: int, t: int, mask: int) -> int:
        move = self.moves[k][t]
        out = 0
        while mask:
            low = mask & -mask
            out |= 1 << move[low.bit_length() - 1]
            mask ^= low
        return out

    def of_size(self, size: int) -> tuple[list, list]:
        """The class representatives with `size` pairs, ascending, and the
        relations with `size` pairs no greater than their transposes, as
        (rep, mask) ascending."""
        if size not in self._by_size:
            n = self.n
            row = (1 << n) - 1
            masks = []
            for cells in combinations(range(n * n), size):
                mask = sum(1 << c for c in cells)
                rows = [mask >> (v * n) & row for v in range(n)]
                cols = 0
                for r in rows:
                    cols |= r
                if all(rows) and cols == row:
                    masks.append(mask)
            masks.sort()
            reps = []
            for mask in masks:
                if mask in self.rep:
                    continue
                reps.append(mask)
                for k in range(len(self.moves)):
                    for t in (0, 1):
                        img = self.image(k, t, mask)
                        self.rep[img] = mask
                        self.transporters.setdefault(img, set()).add(
                            self.inverse[k])
            half = sorted((self.rep[m], m) for m in masks
                          if m <= self.image(0, 1, m))
            self._by_size[size] = (reps, half)
        return self._by_size[size]


def _is_least(classes: _RelationClasses, rels: tuple) -> bool:
    """Whether no vertex relabelling maps rels to a lexicographically
    smaller tuple, once each relation is replaced by the lesser of itself
    and its transpose and the tuple is sorted.  rels must be that tuple
    already, with rels[0] the least representative of the classes in it;
    then only relabellings moving some relation onto rels[0] can win."""
    first = rels[0]
    for r in rels:
        if classes.rep[r] != first:
            continue
        for k in classes.transporters[r]:
            if k == 0:
                continue
            key = tuple(sorted(min(classes.image(k, 0, x),
                                   classes.image(k, 1, x)) for x in rels))
            if key < rels:
                return False
    return True


def _relation_tuples(rank: int, n: int):
    """The least relation tuple of every orbit of valid graphs on n
    vertices, each once, by ascending total number of pairs."""
    classes = _RelationClasses(n)

    def tails(sizes, first, previous):
        if not sizes:
            yield ()
            return
        _, half = classes.of_size(sizes[0])
        for i in range(bisect_left(half, (first, 0)), len(half)):
            mask = half[i][1]
            if mask >= previous:
                for rest in tails(sizes[1:], first, mask):
                    yield (mask,) + rest

    for total in range(rank * n, rank * n * n + 1):
        for sizes in product(range(n, n * n + 1), repeat=rank):
            if sum(sizes) != total:
                continue
            reps, _ = classes.of_size(sizes[0])
            for first in reps:
                for rest in tails(sizes[1:], first, first):
                    rels = (first,) + rest
                    if _is_least(classes, rels):
                        yield rels


def _relation_edges(n: int, rels: tuple) -> tuple[list, list, list, list]:
    """Sources, targets, labels and bars of the graph of a relation tuple,
    with each edge's reverse right after it."""
    src, tgt, lab = [], [], []
    for i, mask in enumerate(rels):
        while mask:
            low = mask & -mask
            v, w = divmod(low.bit_length() - 1, n)
            mask ^= low
            src += (v, w)
            tgt += (w, v)
            lab += (2 * i, 2 * i + 1)
    return src, tgt, lab, [e ^ 1 for e in range(len(src))]


def _relations_graph(group: FreeGroup, n: int, rels: tuple) -> RauzyGraph:
    return RauzyGraph.from_relations(group, n, [
        [divmod(p, n) for p in range(n * n) if mask >> p & 1]
        for mask in rels])


def all_valid_graphs(group: FreeGroup, n_vertices: int):
    """One valid Rauzy graph on vertices 0..n_vertices-1 per class under
    relabelling vertices, inverting generators and permuting generators,
    enumerated deterministically by ascending number of relation pairs."""
    for rels in _relation_tuples(group.rank, n_vertices):
        yield _relations_graph(group, n_vertices, rels)


def find_condition_witnesses(group: FreeGroup, max_vertices: int) -> dict:
    """Search all valid graphs on <= max_vertices vertices for separations of
    the three connectivity conditions.  Returns a dict with keys
    "c1_not_c2" and "c2_not_c3" (value None if no witness exists).

    Graphs are visited up to relabelling vertices, inverting generators and
    permuting generators (all three preserve the conditions), by ascending
    vertex count and then ascending number of relation pairs, and every
    class is checked until both witnesses are found.  Each witness returned
    therefore has the fewest vertices, and then the fewest edges, of any
    separating graph of its kind; it stands for its class, on vertices
    0..n-1, and is unique only up to those symmetries.
    """
    witnesses = {"c1_not_c2": None, "c2_not_c3": None}
    for n in range(1, max_vertices + 1):
        for rels in _relation_tuples(group.rank, n):
            c1, c2, c3 = _conditions(n, *_relation_edges(n, rels))
            if c1 and not c2:
                kind = "c1_not_c2"
            elif c2 and not c3:
                kind = "c2_not_c3"
            else:
                continue
            if witnesses[kind] is None:
                witnesses[kind] = _relations_graph(group, n, rels)
                if all(v is not None for v in witnesses.values()):
                    return witnesses
    return witnesses
