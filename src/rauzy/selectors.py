"""Edge selectors: deterministic steering data for walks in a Rauzy graph.

A selector T = (v0, T0, T1) distinguishes one outgoing edge per letter at the
base vertex (T0) and one continuation per (edge, letter) (T1).  Iterating T1
along reduced words defines a distinguished morphism x_T from the Cayley
graph into the Rauzy graph; its orbit closure is the subshift the selector
generates.  A selector *recurrent* for a simple reduced cycle satisfies five
compatibility conditions that force x_T's subshift to be minimal, and every
minimal graph with a cycle admits one.  Both facts are certified here at
finite window scale: `sofic_witness` builds the one-extra-symbol SFT whose
projection is the orbit closure, and `certify_minimality` verifies syndetic
return of every bounded translate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .graphs import (
    RauzyGraph,
    _UnionFind,
    _shortest_path,
    edge_transitions,
    is_minimal,
    require_valid,
)
from .patterns import Alphabet, Sft, WindowConfig, _ball_window, project
from .words import Letter, Word, _ball, _bfs, inverse, inverse_letter


@dataclass(frozen=True)
class EdgeSelector:
    """v0 is a vertex index; t0 maps letters to edge ids; t1 maps
    (edge id, letter) to edge ids, stored as a per-edge tuple.

    Entries t1[e][inverse(label(e))] are never consulted by any walk along a
    reduced word; they are stored anyway so t1 is total.
    """

    graph: RauzyGraph
    v0: int
    t0: tuple
    t1: tuple

    def __post_init__(self):
        violations = validate_selector(self)
        if violations:
            raise ValueError("invalid edge selector: " + "; ".join(violations))


def validate_selector(sel: EdgeSelector) -> list[str]:
    g = sel.graph
    out = []
    letters = list(g.group.letters)
    if len(sel.t0) != len(letters):
        out.append("t0 must have one entry per letter")
        return out
    if len(sel.t1) != len(g.edges):
        out.append("t1 must have one row per edge")
        return out
    for s in letters:
        e = g.edges[sel.t0[s]]
        if e.source != sel.v0:
            out.append(f"t0[{g.group.format_letter(s)}] does not start at v0")
        if e.label != s:
            out.append(f"t0[{g.group.format_letter(s)}] has the wrong label")
    for i, row in enumerate(sel.t1):
        if len(row) != len(letters):
            out.append(f"t1[{i}] must have one entry per letter")
            continue
        for s in letters:
            f = g.edges[row[s]]
            if f.source != g.edges[i].target:
                out.append(f"t1[{i}][{g.group.format_letter(s)}] does not "
                           "start at the edge's range")
            if f.label != s:
                out.append(f"t1[{i}][{g.group.format_letter(s)}] has the "
                           "wrong label")
    return out


def least_selector(g: RauzyGraph, v0: int) -> EdgeSelector:
    """The selector picking the least outgoing edge for every slot."""
    require_valid(g)
    t0 = tuple(g.out_edges(v0, s)[0] for s in g.group.letters)
    t1 = tuple(
        tuple(g.out_edges(e.target, s)[0] for s in g.group.letters)
        for e in g.edges)
    return EdgeSelector(g, v0, t0, t1)


def extend_t1(sel: EdgeSelector, e: int, w: Word) -> int:
    """T1 extended along a reduced word: T1(e, eps) = e and
    T1(e, w s) = T1(T1(e, w), s)."""
    for s in w:
        e = sel.t1[e][s]
    return e


def x_t(sel: EdgeSelector, w: Word) -> int:
    """Vertex index x_T(w): v0 at the identity, else the range of
    T1(T0(first letter), rest)."""
    if not w:
        return sel.v0
    e = sel.t0[w[0]]
    e = extend_t1(sel, e, w[1:])
    return sel.graph.edges[e].target


def x_t_window(sel: EdgeSelector, radius: int) -> WindowConfig:
    """The window of x_T on B_radius, over the vertex alphabet."""
    g = sel.graph
    values = [g.vertices[e.target] for e in g.edges] + [g.vertices[sel.v0]]
    return _ball_window(g.group, radius, len(sel.t1), sel.t1 + (sel.t0,),
                        values)


STAR = "*"


def edge_symbol(i: int) -> str:
    return f"e{i}"


def z0_window(sel: EdgeSelector, radius: int) -> WindowConfig:
    """The window of the distinguished point z0 of the sofic witness:
    star at the identity, T0(s) at s, then T1 along reduced words."""
    values = [edge_symbol(i) for i in range(len(sel.t1))] + [STAR]
    return _ball_window(sel.graph.group, radius, len(sel.t1),
                        sel.t1 + (sel.t0,), values)


def _moves(sel: EdgeSelector) -> list[list[int]]:
    """Per edge e, the T1 steps along letters s with label(e) * s reduced,
    in letter order; the step along s has label s."""
    g = sel.graph
    return [[row[s] for s in g.group.letters
             if s != inverse_letter(g.edges[e].label)]
            for e, row in enumerate(sel.t1)]


def reachable_range(sel: EdgeSelector) -> frozenset:
    """The set of edges occurring as values of z0 (equivalently of any walk
    from T0): closure of the T0 image under T1 steps along reduced words.

    The closure stabilizes after at most |E| rounds, so it equals the true
    range of z0 on the nonidentity elements.
    """
    return frozenset(_bfs(_moves(sel), sel.t0))


def _distances_to(sel: EdgeSelector, core: Sequence[int]) -> list:
    """Per edge, the fewest T1 steps along reduced words from it into core
    (0 on core, None if core is out of reach): one breadth-first search
    along the reversed steps."""
    back = [[] for _ in sel.t1]
    for e, row in enumerate(_moves(sel)):
        for f in row:
            back[f].append(e)
    dist = [None] * len(sel.t1)
    for e, f in _bfs(back, core).items():
        dist[e] = 0 if f is None else dist[f] + 1
    return dist


@dataclass(frozen=True)
class SoficWitness:
    sft: Sft
    phi: dict           # symbol -> vertex label
    selector: EdgeSelector
    range_edges: frozenset

    def project(self, config: WindowConfig) -> WindowConfig:
        return project(config, self.phi)


def sofic_witness(sel: EdgeSelector) -> SoficWitness:
    """The SFT Z over (edges + star) whose configurations reproduce the
    orbit of z0, together with the symbol map phi collapsing it onto the
    vertex alphabet.

    Rules, over the window B_1:
      * any symbol outside the range of z0 (star included in the range);
      * consecutive edges whose labels cancel;
      * a star forces T0 in every direction;
      * an edge forces T1 in every non-cancelling direction, and its
        cancelling direction carries the star or a T1-preimage.
    """
    g = sel.graph
    group = g.group
    reach = reachable_range(sel)
    alphabet = Alphabet([STAR] + [edge_symbol(i) for i in range(len(g.edges))])
    phi = {STAR: g.vertices[sel.v0]}
    for i, e in enumerate(g.edges):
        phi[edge_symbol(i)] = g.vertices[e.target]

    # enters[e, x]: the star and every range edge f with T1(f, x) = e, x not
    # cancelling label(f); these may sit in the cancelling direction of an
    # edge e labelled x
    range_symbols = {edge_symbol(e): e for e in sorted(reach)}
    enters: dict = {}
    for f in range_symbols.values():
        lf = g.edges[f].label
        for x in group.letters:
            if x != inverse_letter(lf):
                enters.setdefault((sel.t1[f][x], x), {STAR}).add(
                    edge_symbol(f))

    def follow(a, s):
        if a == STAR:
            return {edge_symbol(sel.t0[s])}
        e = range_symbols[a]
        le = g.edges[e].label
        if s != inverse_letter(le):
            return {edge_symbol(sel.t1[e][s])}
        return enters.get((e, le), {STAR})

    # no rule names a banned symbol, so each allowed set holds them all
    banned = [edge_symbol(i) for i in range(len(g.edges)) if i not in reach]
    allowed = {(a, s): follow(a, s).union(banned)
               for a in [STAR, *range_symbols] for s in group.letters}
    sft = Sft(group, alphabet, group.ball(1), banned, allowed)
    return SoficWitness(sft, phi, sel, reach)


# -- cycles and recurrent selectors

def check_cycle(g: RauzyGraph, cycle: Sequence[int]) -> list[str]:
    """Violations of the simple reduced cycle conditions (empty = ok)."""
    out = []
    n = len(cycle)
    if n == 0:
        return ["cycle must be nonempty"]
    if len(set(cycle)) != n:
        out.append("cycle edges must be distinct")
    for i in range(n):
        e = g.edges[cycle[i]]
        f = g.edges[cycle[(i + 1) % n]]
        if e.target != f.source:
            out.append(f"edges {cycle[i]} and {cycle[(i + 1) % n]} do not chain")
        if f.label == inverse_letter(e.label):
            out.append(
                f"labels cancel between {cycle[i]} and {cycle[(i + 1) % n]}")
    return out


def bar_cycle(g: RauzyGraph, cycle: Sequence[int]) -> tuple:
    """The reversed cycle (bar of the last edge first)."""
    return tuple(g.edges[e].bar for e in reversed(cycle))


def cycle_word(g: RauzyGraph, cycle: Sequence[int]) -> Word:
    return tuple(g.edges[e].label for e in cycle)


def _simplify_cycle(g: RauzyGraph, cycle: list[int]) -> tuple:
    """Remove repeated edges by replacing each subcycle (e, ..., e) with e.
    Preserves the basepoint (the source of the first edge)."""
    out: list = []
    at: dict = {}       # edge -> its position in out
    for e in cycle:
        if e in at:
            for f in out[at[e] + 1:]:
                del at[f]
            del out[at[e] + 1:]
        else:
            at[e] = len(out)
            out.append(e)
    return tuple(out)


def find_cycle(g: RauzyGraph, v: int) -> tuple:
    """A simple reduced cycle through the vertex v (needs a minimal graph
    and rank >= 2)."""
    require_valid(g)
    if g.group.rank < 2:
        raise ValueError("cycles through every vertex need rank >= 2")
    ok, witness = is_minimal(g)
    if not ok:
        raise ValueError(
            f"graph is not minimal (unreachable edge pair {witness}); "
            "cycles through every vertex are not guaranteed")
    adj = edge_transitions(g)

    def attempt(s: Letter):
        """A reduced cycle at v starting with label s, or the failure path
        (v to v, first label s, last label s^-1)."""
        e = g.out_edges(v, s)[0]
        f = g.edges[g.out_edges(v, inverse_letter(s))[0]].bar
        # f has range v and label s
        path = _shortest_path(e, {f, g.edges[f].bar}, adj)
        assert path is not None, "minimality guarantees a path"
        if path[-1] == f:
            return path, None
        head = path[:-1]  # ends at v since bar(f) starts where f ends
        if g.edges[head[-1]].label != inverse_letter(s):
            return head, None
        return None, head

    s = 0
    cycle, fail_s = attempt(s)
    if cycle is None:
        t = 2  # first letter outside {s, s^-1}
        cycle, fail_t = attempt(t)
        if cycle is None:
            cycle = fail_s + fail_t
    simplified = _simplify_cycle(g, list(cycle))
    violations = check_cycle(g, simplified)
    assert not violations, f"cycle construction failed: {violations}"
    return simplified


def synthesize_recurrent(g: RauzyGraph, cycle: Sequence[int]) -> EdgeSelector:
    """An edge selector recurrent for the given simple reduced cycle.

    Follows the constructive proof: v0 and T0 from the cycle endpoints, T1
    pinned along the cycle and its reverse with the out-of-cycle agreement
    as an equality class, then the remaining edges attached by shortest
    reduced paths into the known set, and all still-free slots filled with
    the least admissible edge.

    Raises ValueError if the graph is not minimal or the cycle is not
    simple and reduced, and also when the cycle has no recurrent selector:
    conditions (i) and (iv) ask one slot of T1 for two edges.
    """
    require_valid(g)
    violations = check_cycle(g, cycle)
    if violations:
        raise ValueError("not a simple reduced cycle: " + "; ".join(violations))
    ok, witness = is_minimal(g)
    if not ok:
        raise ValueError(f"graph is not minimal (unreachable pair {witness})")

    letters = list(g.group.letters)
    n = len(cycle)
    cyc = list(cycle)
    cb = list(bar_cycle(g, cycle))
    e0, e_last = cyc[0], cyc[-1]
    v0 = g.edges[e0].source

    uf = _UnionFind()
    assigned: dict = {}

    def assign(e: int, s: Letter, f: int):
        key = uf.find((e, s))
        old = assigned.get(key)
        if old is not None and old != f:
            raise ValueError(
                "conflicting recurrent constraints at "
                f"t1[{e}][{g.group.format_letter(s)}]: {old} vs {f}")
        assigned[key] = f

    # out-of-cycle agreement: T1(C[i], s) = T1(bar(C[i+1]), s)
    for i in range(n):
        e, enext = cyc[i], cyc[(i + 1) % n]
        excluded = {inverse_letter(g.edges[e].label), g.edges[enext].label}
        for s in letters:
            if s not in excluded:
                uf.union((e, s), (g.edges[enext].bar, s))
    # follow the cycle and its reverse
    for i in range(n):
        e, enext = cyc[i], cyc[(i + 1) % n]
        assign(e, g.edges[enext].label, enext)
        fb, fbnext = cb[i], cb[(i + 1) % n]
        assign(fb, g.edges[fbnext].label, fbnext)

    # grow the reachable set edge by edge
    known = set(cyc) | set(cb)
    adj = edge_transitions(g)
    for e in range(len(g.edges)):
        if e in known:
            continue
        path = _shortest_path(e, known, adj)
        assert path is not None, "minimality guarantees a path"
        for i in range(len(path) - 1):
            assign(path[i], g.edges[path[i + 1]].label, path[i + 1])
            known.add(path[i])

    # fill the rest of T1 with the least admissible edge, per class
    t1 = []
    for e in range(len(g.edges)):
        row = []
        for s in letters:
            key = uf.find((e, s))
            f = assigned.get(key)
            if f is None:
                f = g.out_edges(g.edges[e].target, s)[0]
                assigned[key] = f
            row.append(f)
        t1.append(tuple(row))

    # T0: pinned at the cycle ends; the free letters copy the steering
    # after a full cycle return (the out-of-cycle agreement makes the two
    # cycle-end edges steer alike there).  Without this coherence the
    # walk from a deep return position can branch differently from the
    # walk at the base point, and the finite minimality certificate has
    # genuine counterexamples.
    t0 = [None] * len(letters)
    t0[g.edges[e0].label] = e0
    t0[inverse_letter(g.edges[e_last].label)] = g.edges[e_last].bar
    for s in letters:
        if t0[s] is None:
            t0[s] = t1[e_last][s]
    return EdgeSelector(g, v0, tuple(t0), tuple(t1))


def validate_recurrent(sel: EdgeSelector, cycle: Sequence[int]) -> list[str]:
    """Check the five recurrence conditions literally; returns violations."""
    return _recurrence(sel, cycle)[0]


def _recurrence(sel: EdgeSelector, cycle: Sequence[int]) -> tuple:
    """(validate_recurrent's violations, the distances into the cycle and
    its reverse that check (v) reads, or None if the cycle is refused)."""
    g = sel.graph
    out = []
    cycle_violations = check_cycle(g, cycle)
    if cycle_violations:
        return ["(cycle) " + v for v in cycle_violations], None
    n = len(cycle)
    cyc = list(cycle)
    cb = list(bar_cycle(g, cycle))

    for i in range(n):
        e, enext = cyc[i], cyc[(i + 1) % n]
        if sel.t1[e][g.edges[enext].label] != enext:
            out.append(f"(i) selector does not follow the cycle at edge {e}")
        fb, fbnext = cb[i], cb[(i + 1) % n]
        if sel.t1[fb][g.edges[fbnext].label] != fbnext:
            out.append(f"(i) selector does not follow the reversed cycle at edge {fb}")
    if sel.v0 != g.edges[cyc[0]].source or sel.v0 != g.edges[cyc[-1]].target:
        out.append("(ii) v0 is not the cycle basepoint")
    if sel.t0[g.edges[cyc[0]].label] != cyc[0]:
        out.append("(iii) t0 does not pick the first cycle edge")
    if sel.t0[inverse_letter(g.edges[cyc[-1]].label)] != g.edges[cyc[-1]].bar:
        out.append("(iii) t0 does not pick the reversed last cycle edge")
    for i in range(n):
        e, enext = cyc[i], cyc[(i + 1) % n]
        excluded = {inverse_letter(g.edges[e].label), g.edges[enext].label}
        for s in g.group.letters:
            if s in excluded:
                continue
            if sel.t1[e][s] != sel.t1[g.edges[enext].bar][s]:
                out.append(
                    f"(iv) t1[{e}] and t1[{g.edges[enext].bar}] disagree at "
                    f"{g.group.format_letter(s)}")
    dist = _distances_to(sel, cyc + cb)
    for e, d in enumerate(dist):
        if d is None:
            out.append(f"(v) edge {e} cannot reach the cycle or its reverse")
    return out, dist


# -- finite minimality certificates

@dataclass(frozen=True)
class MinimalityCertificate:
    window_radius: int
    probe_length: int
    probes: int
    syndeticity_gap: int       # max |h| - |g0| over all probes
    cycle_length: int
    cycle_power: int           # k = ceil(window/cycle_length)
    max_return_length: int     # max |w1(e)| over all edges


@dataclass(frozen=True)
class MinimalityCounterexample:
    g0: Word
    h: Word
    u: Word
    expected: object
    got: object


def _return_words(sel: EdgeSelector, cycle: Sequence[int],
                  dist: list | None = None) -> dict:
    """For each edge e, a reduced word w with label(e) * w reduced such that
    T1(e, w) is the first edge of the cycle or of its reverse (following the
    respective cycle to its base edge, at least one step).  `dist` is
    _recurrence's distance list, searched here if not given.

    Returns {edge: (w, which)} with which in {"cycle", "reverse"}.
    """
    g = sel.graph
    n = len(cycle)
    cyc = list(cycle)
    cb = list(bar_cycle(g, cycle))
    pos_c = {e: i for i, e in enumerate(cyc)}
    pos_b = {e: i for i, e in enumerate(cb)}
    moves = _moves(sel)
    if dist is None:
        dist = _distances_to(sel, cyc + cb)
    out = {}
    for e in range(len(g.edges)):
        if dist[e] is None:
            raise ValueError(
                f"edge {e} cannot reach the cycle; selector is not recurrent")
        # the first step in letter order that gets one closer: the path a
        # breadth-first search from e would pick
        w = []
        cur = e
        while dist[cur]:
            cur = next(f for f in moves[cur] if dist[f] == dist[cur] - 1)
            w.append(g.edges[cur].label)
        # prolong along whichever cycle was hit until its base edge, making
        # the word nonempty
        if cur in pos_c:
            track, pos, which = cyc, pos_c[cur], "cycle"
        else:
            track, pos, which = cb, pos_b[cur], "reverse"
        while pos != 0 or not w:
            nxt = track[(pos + 1) % n]
            w.append(g.edges[nxt].label)
            pos = (pos + 1) % n
            if track[pos] != sel.t1[cur][g.edges[nxt].label]:
                raise ValueError("selector does not follow its cycle")
            cur = nxt
        out[e] = (tuple(w), which)
    return out


def certify_minimality(sel: EdgeSelector, cycle: Sequence[int],
                       window_radius: int, probe_length: int,
                       require_recurrent: bool = True
                       ) -> MinimalityCertificate | MinimalityCounterexample:
    """Verify syndetic returns for every translate up to the probe length.

    For each reduced g0 with |g0| <= probe_length, builds the return element
    h = g0 * r with r = w1' * c^k, where w1' is w1(e) without its last
    letter for the edge e = T1(T0(g0[0]), g0[1:]) at g0, c is the word of
    whichever of the cycle or its reverse the walk from e lands in and
    k = ceil(window/|cycle|), and checks that x_T agrees with its
    h-translate on the whole window ball.  The identity probe uses
    h = identity (trivially a return).

    The check at g0 depends on the edge e alone.  h is reduced as written
    (label(e) * w1 is reduced), and |u| <= window <= |r| keeps h * u from
    cancelling into g0, so x_T(h * u) is the range of T1(e, r * u).  Each
    distinct edge is therefore checked once: r is walked from e keeping
    the edge after every prefix, and the window ball is walked in canonical
    order from the end of r, where a u that undoes a suffix of r takes the
    edge kept at the matching prefix.  The probes are only counted: a
    search by length maps each edge reached by the probes of one length to
    the least such g0, in canonical order, and stops at the first length
    that brings no new edge, within |E| levels.  That costs
    O(probe_length |E| 2d + |E| (|h| + |B_window|)) steps and builds no
    ball but the window's, instead of the O(|B_probe| |B_window| |h|) of
    walking every h * u from the identity.

    The first failing probe is returned as a counterexample, with its g0,
    h and first bad u.  For selectors built by synthesize_recurrent this
    cannot happen, so a counterexample is a bug trap.  Note that the five
    recurrence conditions alone do not make the certificate succeed: the
    base steering on letters outside the two cycle-pinned slots must also
    match the steering after a full cycle return, which the synthesizer
    arranges and free-handed selectors can violate.  Pass
    require_recurrent=False to run the trap on a selector that is known to
    break the recurrence conditions themselves.
    """
    g = sel.graph
    dist = None
    if require_recurrent:
        violations, dist = _recurrence(sel, cycle)
        if violations:
            raise ValueError(
                "selector is not recurrent: " + "; ".join(violations))
    n = len(cycle)
    k = -(-window_radius // n)  # ceil
    bodies = {"cycle": cycle_word(g, cycle),
              "reverse": cycle_word(g, bar_cycle(g, cycle))}
    returns = _return_words(sel, cycle, dist)
    max_return = max(len(w) for w, _ in returns.values())
    r = {e: w1[:-1] + bodies[which] * k for e, (w1, which) in returns.items()}

    # x_T on the window ball by position; the identity's step is always undone
    window, parent, last = _ball(g.group.rank, window_radius)
    targets = [g.vertices[e.target] for e in g.edges] + [g.vertices[sel.v0]]
    base = x_t_window(sel, window_radius).values

    def first_miss(e: int, r: Word) -> tuple | None:
        """(position of the first bad u, vertex label got there) for the walks
        from e along r * u; None if x_T agrees on the whole window."""
        path = [e]
        for x in r:
            path.append(sel.t1[path[-1]][x])
        # u = inverse of the last j letters of r, so r * u = r[:m - j]
        m = len(r)
        undo = {window.index[inverse(r[m - j:])]: path[m - j]
                for j in range(window_radius + 1)}
        state = []
        for i, (p, x) in enumerate(zip(parent, last)):
            f = undo.get(i)
            if f is None:
                f = sel.t1[state[p]][x]
            if targets[f] != base[i]:
                return i, targets[f]
            state.append(f)
        return None

    probes = g.group.ball_size(probe_length)
    steps = _moves(sel) + [sel.t0]   # the identity at the extra row
    # edge -> the least g0 of the current length whose walk ends there.  The
    # identity lies in every return set; the cycle-power return element only
    # agrees at the center for general recurrent selectors, so the identity
    # probe is skipped
    level, checked = {len(sel.t1): ()}, set()
    for _ in range(probe_length):
        reached = {}
        for e, g0 in level.items():
            for f in steps[e]:
                reached.setdefault(f, g0 + (g.edges[f].label,))
        level = reached
        if level.keys() <= checked:
            break
        for e, g0 in level.items():
            miss = None if e in checked else first_miss(e, r[e])
            if miss is not None:
                i, got = miss
                return MinimalityCounterexample(g0, g0 + r[e], window.words[i],
                                                base[i], got)
        checked.update(level)
    gap = max((len(r[e]) for e in checked), default=0)
    return MinimalityCertificate(
        window_radius, probe_length, probes, gap, n, k, max_return)
