"""Finite actions of the free group, as deterministic Rauzy graphs.

A finite action is a finite point set with one permutation per positive
generator.  The permutation stored for generator i is the *edge walk*: the
point reached by following the edge labeled i, which is the action of the
inverse generator.  With that convention the Schreier coding of a point
(value at g = the endpoint of the walk spelling g from the base point)
is a morphism from the Cayley graph, i.e. an admissible configuration of
the Schreier graph's SFT.

`build_finite_action` realizes an integer measured graph as an action whose
projection is a surjective graph morphism with prescribed edge
multiplicities, by greedily extending a partial matching; `make_transitive`
then merges orbits fiber by fiber using one distinguished generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence

from .graphs import RauzyGraph, _closure, is_connected, require_valid
from .measured import MeasuredRauzyGraph, validate_balance
from .patterns import WindowConfig
from .words import FreeGroup, Letter, _walk_ball


class FiniteAction:
    """points: ordered labels; walks[i][p] = endpoint of the edge labeled
    generator i at point index p.  Each walk must be a permutation.
    moves[p][s] = endpoint of the edge labeled s at p, for every letter."""

    def __init__(self, group: FreeGroup, points: Sequence[Hashable],
                 walks: Sequence[Sequence[int]]):
        self.group = group
        self.points = tuple(points)
        self.walks = tuple(tuple(w) for w in walks)
        n = len(self.points)
        if len(set(self.points)) != n:
            raise ValueError("duplicate point labels")
        if len(self.walks) != group.rank:
            raise ValueError("need one walk per positive generator")
        for i, w in enumerate(self.walks):
            if sorted(w) != list(range(n)):
                raise ValueError(f"walk for generator {i} is not a permutation")
        moves = [[0] * (2 * group.rank) for _ in range(n)]
        for i, w in enumerate(self.walks):
            for p, q in enumerate(w):
                moves[p][2 * i] = q
                moves[q][2 * i + 1] = p
        self.moves = tuple(map(tuple, moves))

    def __len__(self):
        return len(self.points)

    def step(self, p: int, s: Letter) -> int:
        """Follow the edge labeled s at point index p."""
        return self.moves[p][s]

    def to_graph(self) -> RauzyGraph:
        """The Schreier graph of the action (a deterministic Rauzy graph)."""
        triples = []
        for i, w in enumerate(self.walks):
            for p in range(len(self.points)):
                triples.append((self.points[p], 2 * i, self.points[w[p]]))
        return RauzyGraph.from_triples(self.group, self.points, triples)

    def __eq__(self, other):
        return (isinstance(other, FiniteAction)
                and self.group == other.group
                and self.points == other.points
                and self.walks == other.walks)

    def __hash__(self):
        return hash((self.group, self.points, self.walks))

    def __repr__(self):
        return f"FiniteAction({len(self.points)} points, d={self.group.rank})"


def is_equivariant(a1: FiniteAction, a2: FiniteAction, mapping: dict) -> bool:
    """Whether the point map (label -> label) commutes with every edge walk."""
    idx = {p: i for i, p in enumerate(a2.points)}
    for p in range(len(a1.points)):
        q = idx[mapping[a1.points[p]]]
        for s in a1.group.letters:
            if idx[mapping[a1.points[a1.step(p, s)]]] != a2.step(q, s):
                return False
    return True


def orbits(act: FiniteAction) -> list[tuple]:
    """Connected components of the point set under all generators."""
    seen: set = set()
    out = []
    for p in range(len(act.points)):
        if p not in seen:
            comp = _closure((p,), act.moves)
            seen |= comp
            out.append(tuple(act.points[i] for i in sorted(comp)))
    return out


def is_projection_morphism(act: FiniteAction, pi: dict,
                           g: RauzyGraph) -> bool:
    """Whether pi (point label -> vertex label) is a graph morphism from the
    Schreier graph of the action onto g."""
    vid = {v: i for i, v in enumerate(g.vertices)}
    for p in range(len(act.points)):
        v = vid[pi[act.points[p]]]
        for s in act.group.letters:
            w = vid[pi[act.points[act.step(p, s)]]]
            if g.edge_id(v, w, s) is None:
                return False
    return True


def edge_multiplicities(act: FiniteAction, pi: dict, g: RauzyGraph) -> dict:
    """Count of action edges over each graph edge id."""
    vid = {v: i for i, v in enumerate(g.vertices)}
    counts: dict = {i: 0 for i in range(len(g.edges))}
    for p in range(len(act.points)):
        v = vid[pi[act.points[p]]]
        for s in act.group.letters:
            w = vid[pi[act.points[act.step(p, s)]]]
            e = g.edge_id(v, w, s)
            if e is None:
                raise ValueError("pi is not a morphism")
            counts[e] += 1
    return counts


def build_finite_action(mg: MeasuredRauzyGraph) -> tuple[FiniteAction, dict]:
    """Realize an integer full-support measured graph as a finite action
    with a projection onto its vertices.

    The point set stacks mu(v) copies of each vertex; a partial edge
    relation is extended greedily: graph edges are processed in canonical
    order and each unit of weight matches the lowest-index point of the
    source fiber without an outgoing edge of that label to the lowest-index
    point of the target fiber without the incoming one.  The balance
    equations guarantee the greedy step never stalls; a stall raises.
    Returns (action, pi) where pi maps point labels to vertex labels.
    """
    g = mg.graph
    require_valid(g)
    if not mg.is_integral():
        raise ValueError("measured graph must have integer weights")
    if not mg.has_full_support():
        raise ValueError("measured graph must have full support")
    violations = validate_balance(mg)
    if violations:
        raise ValueError("unbalanced: " + "; ".join(map(str, violations)))

    points = []
    fiber = {}
    for v, label in enumerate(g.vertices):
        fiber[v] = []
        for i in range(int(mg.mu[v])):
            fiber[v].append(len(points))
            points.append((label, i))
    n = len(points)
    # partial relation: out_slot[p][s] = target point or None
    out_slot = [[None] * (2 * g.group.rank) for _ in range(n)]

    for ei, e in enumerate(g.edges):
        if e.bar < ei:
            continue  # place each bar pair once
        s, sb = e.label, g.edges[e.bar].label
        for _ in range(int(mg.m[ei])):
            p = next((p for p in fiber[e.source] if out_slot[p][s] is None),
                     None)
            q = next((q for q in fiber[e.target] if out_slot[q][sb] is None),
                     None)
            if p is None or q is None:
                raise RuntimeError(
                    "greedy extension stalled; balance should prevent this")
            out_slot[p][s] = q
            out_slot[q][sb] = p

    walks = []
    for i in range(g.group.rank):
        w = [out_slot[p][2 * i] for p in range(n)]
        if any(x is None for x in w):
            raise RuntimeError("partial relation did not become total")
        walks.append(w)
    act = FiniteAction(g.group, points, walks)
    pi = {pt: pt[0] for pt in points}
    return act, pi


def make_transitive(act: FiniteAction, pi: dict, mg: MeasuredRauzyGraph,
                    generator: int = 0) -> FiniteAction:
    """Merge the orbits of an action built from a connected measured graph
    into one, preserving the projection and edge multiplicities.

    Repeatedly picks two points of one fiber lying in distinct cycles of the
    distinguished generator's walk and swaps their images, which merges the
    two cycles; once every fiber lies in a single cycle, connectivity of the
    underlying graph makes the whole action transitive.
    """
    g = mg.graph
    if not is_connected(g):
        raise ValueError("underlying measured graph is not connected; "
                         "a transitive realization does not exist")
    n = len(act.points)
    fibers: dict = {}
    for p, pt in enumerate(act.points):
        fibers.setdefault(pi[pt], []).append(p)
    tau = list(act.walks[generator])

    def cycle_ids():
        cid = [-1] * n
        c = 0
        for p in range(n):
            if cid[p] != -1:
                continue
            q = p
            while cid[q] == -1:
                cid[q] = c
                q = tau[q]
            c += 1
        return cid

    changed = True
    while changed:
        changed = False
        cid = cycle_ids()
        for pts in fibers.values():
            groups = {}
            for p in pts:
                groups.setdefault(cid[p], p)
            if len(groups) > 1:
                reps = sorted(groups.values())
                p1, p2 = reps[0], reps[1]
                tau[p1], tau[p2] = tau[p2], tau[p1]
                changed = True
                break

    walks = [list(w) for w in act.walks]
    walks[generator] = tau
    return FiniteAction(act.group, act.points, walks)


def fiber_product(a1: FiniteAction, a2: FiniteAction,
                  f1: dict, f2: dict) -> tuple[FiniteAction, dict, dict]:
    """The amalgam over a common factor: points are the pairs with equal
    images, acting coordinatewise.  Returns (product, proj1, proj2).

    Raises ValueError if either map fails equivariance (checked against the
    common target implicitly via label equality) or if the product is empty.
    """
    if a1.group != a2.group:
        raise ValueError("actions must share a group")
    pairs = [(p, q) for p in range(len(a1.points)) for q in range(len(a2.points))
             if f1[a1.points[p]] == f2[a2.points[q]]]
    if not pairs:
        raise ValueError("empty fiber product: the maps hit disjoint parts "
                         "of the target")
    index = {pq: i for i, pq in enumerate(pairs)}
    walks = []
    for i in range(a1.group.rank):
        w = []
        for (p, q) in pairs:
            target = (a1.walks[i][p], a2.walks[i][q])
            if target not in index:
                raise ValueError("maps are not equivariant onto a common "
                                 "action: the product is not invariant")
            w.append(index[target])
        walks.append(w)
    points = [(a1.points[p], a2.points[q]) for (p, q) in pairs]
    prod = FiniteAction(a1.group, points, walks)
    proj1 = {pt: pt[0] for pt in points}
    proj2 = {pt: pt[1] for pt in points}
    return prod, proj1, proj2


def periodic_window(act: FiniteAction, base: int, radius: int) -> WindowConfig:
    """The Schreier coding of a point on B_radius: the value at g is the
    point reached by walking the letters of g from the base (the shift
    convention: the g-value is the inverse translate's class)."""
    state = _walk_ball(act.group.ball(radius), base, act.moves)
    return WindowConfig((w, act.points[p]) for w, p in state.items())


@dataclass(frozen=True)
class OccurrenceReport:
    radius: int
    vertices_seen: frozenset
    edges_seen: frozenset        # edge ids of the measured graph
    missing_vertices: tuple
    missing_edges: tuple

    @property
    def complete(self) -> bool:
        return not self.missing_vertices and not self.missing_edges


def realize_minimal_neighborhood(mg: MeasuredRauzyGraph
                                 ) -> tuple[FiniteAction, WindowConfig,
                                            OccurrenceReport]:
    """Chain the full realization pipeline for a connected integer
    full-support measured graph: build the finite action, make it
    transitive, and emit the periodic window of the first point at a radius
    that lets every point and every labeled edge of the graph occur.

    The report certifies, by direct scan, that every vertex and every edge
    actually shows up in the window.
    """
    g = mg.graph
    act0, pi = build_finite_action(mg)
    act = make_transitive(act0, pi, mg)
    base = 0
    # eccentricity of the base point in the Schreier graph
    dist = {base: 0}
    frontier = [base]
    ecc = 0
    while frontier:
        nxt = []
        for p in frontier:
            for s in act.group.letters:
                q = act.step(p, s)
                if q not in dist:
                    dist[q] = dist[p] + 1
                    ecc = max(ecc, dist[q])
                    nxt.append(q)
        frontier = nxt
    radius = ecc + 1
    window = periodic_window(act, base, radius)

    vid = {v: i for i, v in enumerate(g.vertices)}
    vertices_seen = set()
    edges_seen = set()
    ball_inner = act.group.ball(radius - 1)
    idx = {p: i for i, p in enumerate(act.points)}
    for w in ball_inner:
        p = idx[window[w]]
        v = vid[pi[act.points[p]]]
        vertices_seen.add(v)
        for s in act.group.letters:
            q = act.step(p, s)
            t = vid[pi[act.points[q]]]
            e = g.edge_id(v, t, s)
            if e is None:
                raise ValueError("projection is not a morphism")
            edges_seen.add(e)
    missing_v = tuple(g.vertices[v] for v in range(len(g.vertices))
                      if v not in vertices_seen)
    missing_e = tuple(e for e in range(len(g.edges)) if e not in edges_seen)
    report = OccurrenceReport(radius, frozenset(vertices_seen),
                              frozenset(edges_seen), missing_v, missing_e)
    return act, window, report
