import dataclasses
import hashlib
import random
import tracemalloc

import pytest

from rauzy import graphs, selectors
from rauzy.generate import random_minimal_graph
from rauzy.patterns import Pattern, enumerate_window, is_locally_admissible, restrict_language
from rauzy.selectors import (
    STAR,
    EdgeSelector,
    MinimalityCertificate,
    MinimalityCounterexample,
)
from rauzy.words import EPSILON, FreeGroup, inverse_letter

from oracles import certificate_oracle
from test_cli_reports import schreier


@pytest.fixture(scope="module")
def cyc2_selector(cyc2):
    cycle = selectors.find_cycle(cyc2, cyc2.vertex_id("u"))
    return selectors.synthesize_recurrent(cyc2, cycle), cycle


@pytest.fixture(scope="module")
def rose_selector(rose2):
    cycle = selectors.find_cycle(rose2, 0)
    return selectors.synthesize_recurrent(rose2, cycle), cycle


def test_extend_t1_basics(cyc2, cyc2_selector):
    sel, _ = cyc2_selector
    e = sel.t0[0]  # the a-edge out of u
    assert selectors.extend_t1(sel, e, EPSILON) == e
    nxt = selectors.extend_t1(sel, e, (0,))
    assert cyc2.edges[nxt].source == cyc2.vertex_id("v")
    assert cyc2.edges[nxt].label == 0


def test_extend_t1_unrolls(cyc2_selector):
    sel, _ = cyc2_selector
    rng = random.Random(3)
    group = sel.graph.group
    for _ in range(200):
        w = random.Random(rng.random()).choices(list(group.letters), k=3)
        from rauzy.words import reduce_word
        w = reduce_word(w)
        cut = rng.randint(0, len(w))
        u, v = w[:cut], w[cut:]
        e = rng.randrange(len(sel.graph.edges))
        assert selectors.extend_t1(sel, selectors.extend_t1(sel, e, u), v) \
            == selectors.extend_t1(sel, e, w)


def test_x_t_window_cyc2(cyc2, cyc2_selector):
    sel, _ = cyc2_selector
    w = selectors.x_t_window(sel, 2)
    assert w[EPSILON] == "u"
    assert w[(0,)] == "v"
    assert w[(0, 0)] == "u"
    assert w[(2,)] == "u"
    assert w[EPSILON] == selectors.x_t_window(sel, 0)[EPSILON]


def test_x_t_window_rose_constant(rose_selector):
    sel, _ = rose_selector
    w = selectors.x_t_window(sel, 3)
    assert {v for _, v in w.items} == {"v"}


def test_x_t_always_admissible():
    group = FreeGroup(2)
    rng = random.Random(17)
    for _ in range(20):
        g = random_minimal_graph(group, rng, 3)
        sel = selectors.least_selector(g, rng.randrange(len(g.vertices)))
        w = selectors.x_t_window(sel, 3)
        assert is_locally_admissible(graphs.xg_sft(g), w)


def test_ball_windows_agree_with_x_t_word_by_word():
    group = FreeGroup(2)
    rng = random.Random(23)
    ball = group.ball(5)
    for _ in range(8):
        g = random_minimal_graph(group, rng, 4)
        v = rng.randrange(len(g.vertices))
        edge_of = {selectors.edge_symbol(i): i for i in range(len(g.edges))}
        for sel in (selectors.least_selector(g, v),
                    selectors.synthesize_recurrent(
                        g, selectors.find_cycle(g, v))):
            xw = selectors.x_t_window(sel, 5)
            z0 = selectors.z0_window(sel, 5)
            assert set(xw.domain) == set(z0.domain) == set(ball)
            assert z0[EPSILON] == STAR
            for w in ball:
                x = selectors.x_t(sel, w)
                assert xw[w] == g.vertices[x]
                if w:
                    assert g.edges[edge_of[z0[w]]].target == x


@pytest.mark.parametrize("rank", [2, 3])
def test_tree_walk_windows_agree_with_x_t_at_rank(rank):
    group = FreeGroup(rank)
    rng = random.Random(29 + rank)
    ball = group.ball(4)
    for _ in range(3):
        g = random_minimal_graph(group, rng, 3)
        v = rng.randrange(len(g.vertices))
        sel = selectors.synthesize_recurrent(g, selectors.find_cycle(g, v))
        xw = selectors.x_t_window(sel, 4)
        z0 = selectors.z0_window(sel, 4)
        assert xw.domain.words == z0.domain.words == ball
        for w in ball:
            x = selectors.x_t(sel, w)
            assert xw[w] == g.vertices[x]
            assert z0[w] == (selectors.edge_symbol(selectors.extend_t1(
                sel, sel.t0[w[0]], w[1:])) if w else STAR)


def test_find_cycle_rose(rose2):
    cycle = selectors.find_cycle(rose2, 0)
    assert len(cycle) == 1
    assert rose2.edges[cycle[0]].label == 0


def test_find_cycle_cyc2(cyc2):
    cycle = selectors.find_cycle(cyc2, cyc2.vertex_id("u"))
    assert len(cycle) == 2
    assert [cyc2.edges[e].label for e in cycle] == [0, 0]
    assert selectors.check_cycle(cyc2, cycle) == []


def test_find_cycle_requires_minimal(group2):
    two_roses = graphs.RauzyGraph.from_triples(
        group2, ["u", "v"],
        [("u", 0, "u"), ("u", 2, "u"), ("v", 0, "v"), ("v", 2, "v")])
    with pytest.raises(ValueError, match="not minimal"):
        selectors.find_cycle(two_roses, 0)


def test_find_cycle_random_graphs():
    group = FreeGroup(2)
    rng = random.Random(31)
    for _ in range(50):
        g = random_minimal_graph(group, rng, 4)
        for v in range(len(g.vertices)):
            cycle = selectors.find_cycle(g, v)
            assert selectors.check_cycle(g, cycle) == []
            assert g.edges[cycle[0]].source == v
            assert g.edges[cycle[-1]].target == v


def test_find_cycle_joins_both_failed_attempts():
    # at vertex 4 the shortest return after a comes back by A, and the one
    # after b by B, so find_cycle joins the two closed walks: a b A, b a B
    g = random_minimal_graph(FreeGroup(2), random.Random(33), 6)
    cycle = selectors.find_cycle(g, 4)
    assert cycle == (25, 23, 22, 28, 9, 14)
    assert selectors.cycle_word(g, cycle) == (0, 2, 1, 2, 0, 3)
    sel = selectors.synthesize_recurrent(g, cycle)
    assert isinstance(selectors.certify_minimality(sel, cycle, 4, 7),
                      MinimalityCertificate)


def test_simplify_cycle_replaces_each_subcycle_by_its_edge(rose2):
    a, b = rose2.out_edges(0, 0)[0], rose2.out_edges(0, 2)[0]
    B = rose2.edges[b].bar
    # the subcycle (a, b, a) of the closed walk a b a B becomes a
    assert selectors._simplify_cycle(rose2, [a, b, a, B]) == (a, B)
    assert selectors.check_cycle(rose2, (a, B)) == []
    # a cut subcycle forgets its edges: the second b is new again
    assert selectors._simplify_cycle(rose2, [a, b, a, b, B]) == (a, b, B)


def test_synthesize_recurrent_fixtures(cyc2, cyc2_selector, rose_selector):
    sel, cycle = cyc2_selector
    assert selectors.validate_recurrent(sel, cycle) == []
    sel_r, cyc_r = rose_selector
    assert selectors.validate_recurrent(sel_r, cyc_r) == []


def test_validate_recurrent_flags_v0(cyc2, cyc2_selector):
    sel, cycle = cyc2_selector
    moved = EdgeSelector(
        cyc2, cyc2.vertex_id("v"),
        tuple(cyc2.out_edges(cyc2.vertex_id("v"), s)[0]
              for s in cyc2.group.letters),
        sel.t1)
    violations = selectors.validate_recurrent(moved, cycle)
    assert any(v.startswith("(ii)") for v in violations)


def test_validate_recurrent_flags_unreachable(group2, star3):
    # redirect every a/A continuation at u toward w: the u-v cycle becomes
    # unreachable from the b-loop at w
    cycle = (star3.edge_id(star3.vertex_id("u"), star3.vertex_id("v"), 0),
             star3.edge_id(star3.vertex_id("v"), star3.vertex_id("u"), 0))
    sel = selectors.synthesize_recurrent(star3, cycle)
    u, w = star3.vertex_id("u"), star3.vertex_id("w")
    t1 = [list(row) for row in sel.t1]
    for e in range(len(star3.edges)):
        if star3.edges[e].target == u:
            for s in (0, 1):
                candidates = [i for i in star3.out_edges(u, s)
                              if star3.edges[i].target == w]
                if candidates:
                    t1[e][s] = candidates[0]
    tampered = EdgeSelector(star3, sel.v0, sel.t0,
                            tuple(tuple(r) for r in t1))
    violations = selectors.validate_recurrent(tampered, cycle)
    assert any(v.startswith("(v)") for v in violations)


def _unreachable_brute_force(sel, cycle):
    """Check (v) of validate_recurrent, one closure per edge."""
    g = sel.graph
    core = set(cycle) | set(selectors.bar_cycle(g, cycle))
    out = []
    for e in range(len(g.edges)):
        seen, stack = {e}, [e]
        while stack:
            x = stack.pop()
            for s in g.group.letters:
                y = sel.t1[x][s]
                if s != inverse_letter(g.edges[x].label) and y not in seen:
                    seen.add(y)
                    stack.append(y)
        if not seen & core:
            out.append(f"(v) edge {e} cannot reach the cycle or its reverse")
    return out


def test_unreachable_edges_match_brute_force():
    # steer every continuation out of a random vertex set back into it, so
    # that the edges inside often form a trap that avoids the cycle
    rng = random.Random(17)
    counts = set()
    for _ in range(60):
        g = random_minimal_graph(FreeGroup(2), rng, 6)
        cycle = selectors.find_cycle(g, 0)
        sel = selectors.synthesize_recurrent(g, cycle)
        for _ in range(10):
            trap = set(rng.sample(range(len(g.vertices)),
                                  rng.randint(1, len(g.vertices))))
            t1 = [list(row) for row in sel.t1]
            for e, edge in enumerate(g.edges):
                for s in g.group.letters:
                    options = [f for f in g.out_edges(edge.target, s)
                               if g.edges[f].target in trap]
                    if edge.target in trap and options:
                        t1[e][s] = rng.choice(options)
            tampered = EdgeSelector(g, sel.v0, sel.t0,
                                    tuple(tuple(r) for r in t1))
            found = [v for v in selectors.validate_recurrent(tampered, cycle)
                     if v.startswith("(v)")]
            assert found == _unreachable_brute_force(tampered, cycle)
            counts.add(len(found))
    assert 0 in counts and max(counts) >= 4


def _return_words_by_search(sel, cycle):
    """_return_words with one forward breadth-first search per edge: the
    shortest path into the cycle or its reverse, prolonged along the cycle
    it hits to that cycle's first edge, at least one step."""
    g = sel.graph
    cyc, cb = list(cycle), list(selectors.bar_cycle(g, cycle))
    out = {}
    for e in range(len(g.edges)):
        path = graphs._shortest_path(e, set(cyc) | set(cb),
                                     selectors._moves(sel))
        track, which = (cyc, "cycle") if path[-1] in cyc else (cb, "reverse")
        w = [g.edges[f].label for f in path[1:]]
        pos = track.index(path[-1])
        while pos != 0 or not w:
            pos = (pos + 1) % len(track)
            w.append(g.edges[track[pos]].label)
        out[e] = (tuple(w), which)
    return out


def _synth(g, v):
    cycle = selectors.find_cycle(g, v)
    return selectors.synthesize_recurrent(g, cycle), cycle


def _return_word_inputs():
    """Recurrent selectors of 12 random minimal graphs of rank 2 and 12 of
    rank 3 on 2-6 vertices, and of Schreier graphs on 8-64 points, for the
    cycles found through vertices 0, 8, 16, ..."""
    rng = random.Random(21)
    graphs_ = [schreier(FreeGroup(2), n) for n in (8, 16, 32, 64)]
    for rank in (2, 3):
        drawn = 0
        while drawn < 12:
            g = random_minimal_graph(FreeGroup(rank), rng, 6)
            if len(g.vertices) >= 2:
                graphs_.append(g)
                drawn += 1
    for g in graphs_:
        for v in range(0, len(g.vertices), 8):
            yield _synth(g, v)


def test_return_words_take_the_breadth_first_path():
    edges = 0
    for sel, cycle in _return_word_inputs():
        assert selectors._return_words(sel, cycle) == \
            _return_words_by_search(sel, cycle)
        edges += len(sel.t1)
    assert edges > 1000


def test_return_words_search_once_not_per_edge(monkeypatch, star3):
    calls = []
    search = graphs._shortest_path

    def counted(*args):
        calls.append(args[0])
        return search(*args)

    monkeypatch.setattr(selectors, "_shortest_path", counted)
    monkeypatch.setattr(graphs, "_shortest_path", counted)
    for sel, cycle in [_synth(star3, 0), _synth(schreier(FreeGroup(2), 16), 0)]:
        calls.clear()
        selectors._return_words(sel, cycle)
        assert calls == []


def test_certify_minimality_fixtures(cyc2_selector, rose_selector):
    sel, cycle = cyc2_selector
    cert = selectors.certify_minimality(sel, cycle, 2, 6)
    assert isinstance(cert, MinimalityCertificate)
    n = cert.cycle_length
    assert cert.syndeticity_gap <= (cert.max_return_length - 1) + n * ((2 + n - 1) // n)
    sel_r, cyc_r = rose_selector
    cert_r = selectors.certify_minimality(sel_r, cyc_r, 2, 4)
    assert isinstance(cert_r, MinimalityCertificate)
    assert cert_r.cycle_length == 1
    assert cert_r.syndeticity_gap <= cert_r.max_return_length - 1 + 2


def test_certify_finds_counterexample_for_broken_agreement(star3):
    # breaking the out-of-cycle agreement on a cycle through the doubled
    # a-edges must be caught by the return-certificate scan; the cycle has
    # to pass the b-loop so that some agreement slot carries letter a/A,
    # where the graph offers two targets
    u, v, w = (star3.vertex_id(x) for x in "uvw")
    cycle = (star3.edge_id(u, v, 0), star3.edge_id(v, u, 0),
             star3.edge_id(u, u, 2))
    base = selectors.synthesize_recurrent(star3, cycle)
    hits = 0
    for i in range(len(cycle)):
        e = cycle[i]
        enext_bar = star3.edges[cycle[(i + 1) % len(cycle)]].bar
        excluded = {inverse_letter(star3.edges[e].label),
                    star3.edges[cycle[(i + 1) % len(cycle)]].label}
        for s in star3.group.letters:
            if s in excluded:
                continue
            target_vertex = star3.edges[e].target
            options = list(star3.out_edges(target_vertex, s))
            if len(options) < 2:
                continue
            t1 = [list(row) for row in base.t1]
            current = t1[e][s]
            t1[e][s] = next(o for o in options if o != current)
            tampered = EdgeSelector(star3, base.v0, base.t0,
                                    tuple(tuple(r) for r in t1))
            violations = selectors.validate_recurrent(tampered, cycle)
            assert any(x.startswith("(iv)") for x in violations)
            result = selectors.certify_minimality(
                tampered, cycle, 2, 6, require_recurrent=False)
            if isinstance(result, MinimalityCounterexample):
                hits += 1
    assert hits >= 1


def _cycles_through(g, v, max_len):
    out = []

    def dfs(path):
        if len(path) > max_len:
            return
        last = g.edges[path[-1]]
        if (last.target == v
                and g.edges[path[0]].label != inverse_letter(last.label)):
            out.append(tuple(path))
        for f in g.out_edges(last.target):
            if f in path or g.edges[f].label == inverse_letter(last.label):
                continue
            path.append(f)
            dfs(path)
            path.pop()

    for e in g.out_edges(v):
        dfs([e])
    return out


def test_synthesis_over_arbitrary_cycles():
    # includes cycles sharing edges with their own reverse, where the
    # agreement constraints of the two directions interleave
    group = FreeGroup(2)
    rng = random.Random(5)
    overlapping = 0
    for _ in range(12):
        g = random_minimal_graph(group, rng, 3)
        for v in range(len(g.vertices)):
            cycles = _cycles_through(g, v, 4)
            rng.shuffle(cycles)
            for cycle in cycles[:6]:
                assert selectors.check_cycle(g, cycle) == []
                if set(cycle) & set(selectors.bar_cycle(g, cycle)):
                    overlapping += 1
                sel = selectors.synthesize_recurrent(g, cycle)
                assert selectors.validate_recurrent(sel, cycle) == []
                cert = selectors.certify_minimality(sel, cycle, 2, 4)
                assert isinstance(cert, MinimalityCertificate)
    assert overlapping >= 1


def test_commutator_cycle_on_cyc2(group2, cyc2):
    # a four-edge cycle that contains two edges of its own reverse
    u, v = cyc2.vertex_id("u"), cyc2.vertex_id("v")
    cycle = (cyc2.edge_id(u, v, 0), cyc2.edge_id(v, v, 2),
             cyc2.edge_id(v, u, 1), cyc2.edge_id(u, u, 3))
    assert selectors.check_cycle(cyc2, cycle) == []
    assert set(cycle) & set(selectors.bar_cycle(cyc2, cycle))
    sel = selectors.synthesize_recurrent(cyc2, cycle)
    assert selectors.validate_recurrent(sel, cycle) == []
    cert = selectors.certify_minimality(sel, cycle, 2, 6)
    assert isinstance(cert, MinimalityCertificate)


def test_free_base_steering_must_match_cycle_return(star3):
    # The five recurrence conditions leave the base steering free outside
    # the two pinned letters, but the return certificate genuinely needs it
    # to match the steering after a full cycle: retargeting a free base
    # letter keeps all five conditions intact yet breaks the certificate.
    u = star3.vertex_id("u")
    cycle = (star3.edge_id(u, u, 2),)  # the b-loop at u
    sel = selectors.synthesize_recurrent(star3, cycle)
    assert selectors.validate_recurrent(sel, cycle) == []
    a_edges = list(star3.out_edges(u, 0))
    assert len(a_edges) == 2
    t0 = list(sel.t0)
    t0[0] = next(e for e in a_edges if e != sel.t0[0])
    tampered = EdgeSelector(star3, sel.v0, tuple(t0), sel.t1)
    assert selectors.validate_recurrent(tampered, cycle) == []
    result = selectors.certify_minimality(tampered, cycle, 2, 4)
    assert isinstance(result, MinimalityCounterexample)


def _retargeted(sel, rng, slots):
    """sel with `slots` random t0/t1 entries moved to another edge of the
    same source and label, where the graph offers one."""
    g = sel.graph
    t0, t1 = list(sel.t0), [list(row) for row in sel.t1]
    for _ in range(slots):
        s = rng.choice(g.group.letters)
        if rng.random() < 0.3:
            row, v = t0, sel.v0
        else:
            e = rng.randrange(len(t1))
            row, v = t1[e], g.edges[e].target
        options = [f for f in g.out_edges(v, s) if f != row[s]]
        if options:
            row[s] = rng.choice(options)
    return EdgeSelector(g, sel.v0, tuple(t0), tuple(map(tuple, t1)))


def _certificate_outcome(run):
    try:
        result = run()
    except ValueError as err:
        return ("error", str(err))
    if isinstance(result, tuple):
        return result
    kind = ("certificate" if isinstance(result, MinimalityCertificate)
            else "counterexample")
    return (kind, *dataclasses.astuple(result))


def test_certificate_matches_oracle():
    rng = random.Random(7)
    kinds = []
    for rank, pairs in ((2, [(1, 3), (2, 4), (3, 5)]),
                        (3, [(1, 2), (2, 3), (3, 2)])):
        group = FreeGroup(rank)
        for _ in range(12):
            g = random_minimal_graph(group, rng, 4)
            cycle = selectors.find_cycle(g, rng.randrange(len(g.vertices)))
            sel = selectors.synthesize_recurrent(g, cycle)
            cases = [(sel, True)] + [(_retargeted(sel, rng, rng.randint(1, 3)),
                                      False) for _ in range(4)]
            for chosen, recurrent in cases:
                window, depth = rng.choice(pairs)
                got = _certificate_outcome(
                    lambda: selectors.certify_minimality(
                        chosen, cycle, window, depth,
                        require_recurrent=recurrent))
                want = _certificate_outcome(
                    lambda: certificate_oracle(chosen, cycle, window, depth))
                assert got == want
                kinds.append(got[0])
    assert kinds.count("counterexample") >= 10
    assert kinds.count("certificate") >= 10


def test_certify_random_pipeline():
    group = FreeGroup(2)
    rng = random.Random(0)
    for _ in range(20):
        g = random_minimal_graph(group, rng, 4)
        cycle = selectors.find_cycle(g, rng.randrange(len(g.vertices)))
        sel = selectors.synthesize_recurrent(g, cycle)
        assert selectors.validate_recurrent(sel, cycle) == []
        cert = selectors.certify_minimality(sel, cycle, 2, 6)
        assert isinstance(cert, MinimalityCertificate)
        n = cert.cycle_length
        bound = (cert.max_return_length - 1) + n * ((2 + n - 1) // n)
        assert cert.syndeticity_gap <= bound


def test_z0_window_admissible(cyc2_selector):
    sel, _ = cyc2_selector
    wit = selectors.sofic_witness(sel)
    for radius in (1, 2):
        z0 = selectors.z0_window(sel, radius)
        assert is_locally_admissible(wit.sft, z0)


def test_sofic_witness_star_isolation(group2, cyc2_selector):
    sel, _ = cyc2_selector
    wit = selectors.sofic_witness(sel)
    configs = enumerate_window(wit.sft, group2.ball(2))
    starred = [c for c in configs if c[EPSILON] == STAR]
    assert starred == [selectors.z0_window(sel, 2)]


def test_sofic_witness_star_at_most_once_off_center(group2, cyc2_selector):
    sel, _ = cyc2_selector
    wit = selectors.sofic_witness(sel)
    for c in enumerate_window(wit.sft, group2.ball(2)):
        if c[EPSILON] != STAR:
            stars = [w for w in c.domain if c[w] == STAR]
            assert len(stars) <= 1


def test_sofic_witness_projection_language(group2, cyc2_selector):
    sel, cycle = cyc2_selector
    wit = selectors.sofic_witness(sel)
    for radius, slack in ((1, 6), (2, 8)):
        configs = enumerate_window(wit.sft, group2.ball(radius))
        projected = {Pattern(wit.project(c).items) for c in configs}
        big = selectors.x_t_window(sel, radius + slack)
        orbit = set(restrict_language([big], group2.ball(radius)).patterns)
        assert projected == orbit


def test_sofic_witness_projection_inside_vertex_sft(group2, cyc2_selector):
    sel, _ = cyc2_selector
    wit = selectors.sofic_witness(sel)
    vertex_sft = graphs.xg_sft(sel.graph)
    for c in enumerate_window(wit.sft, group2.ball(2)):
        assert is_locally_admissible(vertex_sft, wit.project(c))


def test_sofic_witness_stores_rules_linear_in_edges(group2):
    """At |E| = 1,024 the cover holds at most 2(|E|+1)*2d allowed entries
    within 20 MB, where the forbidden complement has 4,195,328 triples."""
    g = schreier(group2, 256)
    sel = selectors.synthesize_recurrent(g, selectors.find_cycle(g, 0))
    tracemalloc.start()
    try:
        wit = selectors.sofic_witness(sel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(g.edges) == 1024
    assert sum(map(len, wit.sft.allowed.values())) <= 2 * (1024 + 1) * 4
    assert peak < 20 * 2 ** 20


def test_sofic_witness_nondeterministic_graph(group2, star3):
    # the range restriction bites here: only the selector-reachable edges
    # survive rule (1), and the witness invariants still hold
    cycle = selectors.find_cycle(star3, star3.vertex_id("u"))
    sel = selectors.synthesize_recurrent(star3, cycle)
    wit = selectors.sofic_witness(sel)
    assert len(wit.range_edges) < len(star3.edges)
    configs = enumerate_window(wit.sft, group2.ball(2))
    starred = [c for c in configs if c[EPSILON] == STAR]
    assert starred == [selectors.z0_window(sel, 2)]
    vertex_sft = graphs.xg_sft(star3)
    for c in configs:
        assert is_locally_admissible(vertex_sft, wit.project(c))
    projected = {Pattern(wit.project(c).items) for c in configs}
    big = selectors.x_t_window(sel, 10)
    orbit = set(restrict_language([big], group2.ball(2)).patterns)
    assert orbit <= projected
    assert projected == orbit


def test_selector_validation_catches_bad_t0(cyc2, cyc2_selector):
    sel, _ = cyc2_selector
    bad_t0 = list(sel.t0)
    bad_t0[0] = sel.t0[1]  # wrong label at slot a
    with pytest.raises(ValueError):
        EdgeSelector(cyc2, sel.v0, tuple(bad_t0), sel.t1)


# SHA-256 of _tie_break_records().  Cycles, selectors and return lengths
# depend on how the breadth-first searches break ties, and all of them appear
# in CLI reports, so the digest must not move.
TIE_BREAK_DIGEST = (
    "62ff417872f9654f1009528f6c16d6352d1948185ba9a01fe6cf68fc0d348f91")


def _tie_break_records():
    group = FreeGroup(2)
    rng = random.Random(2024)
    records = []
    for _ in range(20):
        g = random_minimal_graph(group, rng, 5)
        for v in range(len(g.vertices)):
            cycle = selectors.find_cycle(g, v)
            sel = selectors.synthesize_recurrent(g, cycle)
            cert = selectors.certify_minimality(sel, cycle, 2, 4)
            records.append((g.edges, cycle, sel.t0, sel.t1,
                            sorted(selectors.reachable_range(sel)),
                            dataclasses.astuple(cert)))
    return records


def test_bfs_tie_breaks_golden_digest():
    records = _tie_break_records()
    digest = hashlib.sha256(repr(records).encode()).hexdigest()
    assert digest == TIE_BREAK_DIGEST
