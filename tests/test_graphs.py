import random
from hashlib import sha256

import pytest

from oracles import (
    components_oracle,
    conditions_oracle,
    depths_oracle,
    least_shortest_path_oracle,
    minimality_oracle,
    random_digraph,
    symmetry_orbit,
    unreachable_pair_oracle,
)
from rauzy import graphs
from rauzy.generate import random_valid_graph
from rauzy.patterns import enumerate_window, restrict_language
from rauzy.words import EPSILON, FreeGroup, inverse_letter


def test_validate_fixtures(rose2, cyc2, star3):
    assert graphs.validate(rose2) == []
    assert graphs.validate(cyc2) == []
    assert graphs.validate(star3) == []


def test_validate_reports_missing_edges(group2):
    bad = graphs.RauzyGraph.from_triples(group2, ["v"], [("v", 0, "v")])
    violations = graphs.validate(bad)
    assert any("no outgoing" in v and "b" in v for v in violations)


def test_validate_reports_broken_involution(group2, cyc2):
    e0 = cyc2.edges[0]
    edges = list(cyc2.edges)
    edges[0] = graphs.Edge(e0.source, e0.target, e0.label, 0)  # self-bar
    bad = graphs.RauzyGraph(group2, cyc2.vertices, edges)
    assert any("label" in v or "involution" in v
               for v in graphs.validate(bad))


def test_is_deterministic(group2, rose2, cyc2, star3):
    assert graphs.is_deterministic(rose2)
    assert graphs.is_deterministic(cyc2)
    assert not graphs.is_deterministic(star3)
    doubled = graphs.RauzyGraph.from_triples(
        group2, ["u", "v"],
        [("u", 0, "v"), ("v", 0, "u"), ("u", 0, "u"),
         ("u", 2, "u"), ("v", 2, "v")])
    assert graphs.validate(doubled) == []
    assert not graphs.is_deterministic(doubled)


def test_is_minimal_fixtures(rose2, cyc2):
    assert graphs.is_minimal(rose2) == (True, None)
    assert graphs.is_minimal(cyc2)[0]


def test_two_disconnected_roses_not_minimal(group2):
    g = graphs.RauzyGraph.from_triples(
        group2, ["u", "v"],
        [("u", 0, "u"), ("u", 2, "u"), ("v", 0, "v"), ("v", 2, "v")])
    ok, witness = graphs.is_minimal(g)
    assert not ok
    e, f = witness
    assert g.edges[e].source != g.edges[f].source  # different components


# recorded before is_minimal and check_conditions shared one closure sweep
MINIMAL_DIGEST = "4cd3dfb2b7296faa"


def test_is_minimal_golden_digest():
    # verdict and unreachable pair on every rank-2 class on <= 3 vertices
    # and on sparse seeded graphs of rank 1-3, 321 of them not minimal
    samples = [g for n in range(1, 4)
               for g in graphs.all_valid_graphs(FreeGroup(2), n)]
    rng = random.Random(31)
    for rank, max_vertices, count in ((1, 8, 500), (2, 6, 300), (3, 4, 100)):
        for _ in range(count):
            samples.append(random_valid_graph(
                FreeGroup(rank), rng, max_vertices,
                density=rng.choice((0.0, 0.05, 0.1))))
    records = [graphs.is_minimal(g) for g in samples]
    assert (len(records), sum(not ok for ok, _ in records)) == (3216, 321)
    assert sha256(repr(records).encode()).hexdigest()[:16] == MINIMAL_DIGEST


def test_minimality_against_oracle_1000_random():
    group = FreeGroup(2)
    rng = random.Random(0)
    for _ in range(1000):
        g = random_valid_graph(group, rng, 3)
        assert graphs.validate(g) == []
        pair = unreachable_pair_oracle(g)
        assert graphs.is_minimal(g) == (pair is None, pair)


def test_condition_monotonicity_1000_random():
    group = FreeGroup(2)
    rng = random.Random(0)
    for _ in range(1000):
        g = random_valid_graph(group, rng, 3)
        c1, c2, c3 = graphs.check_conditions(g)
        assert (not c3 or c2) and (not c2 or c1)
        assert c2 == graphs.is_minimal(g)[0]


def test_conditions_fixtures(rose2, cyc2):
    assert graphs.check_conditions(rose2) == (True, True, True)
    assert graphs.check_conditions(cyc2) == (True, True, True)


def test_letter_flow_separations(group2):
    flow = graphs.letter_flow_graph(group2)
    assert graphs.validate(flow) == []
    assert graphs.check_conditions(flow) == (True, True, False)
    flow2 = graphs.letter_flow_graph(group2, with_backtrack_pair=True)
    assert graphs.validate(flow2) == []
    assert graphs.check_conditions(flow2) == (True, False, False)


def test_no_separation_below_four_vertices(group2):
    # regression for the witness search: the separations genuinely need
    # four vertices, so the exhaustive search up to three finds nothing
    found = graphs.find_condition_witnesses(group2, 3)
    assert found["c1_not_c2"] is None
    assert found["c2_not_c3"] is None


# valid graphs on exactly 1, 2, 3 vertices: (number of 0/1 matrices with no
# zero row or column, 1, 7, 265) to the power of the rank
@pytest.mark.parametrize("rank, counts", [
    (1, [1, 7]), (2, [1, 49, 70225]), (3, [1, 343])])
def test_all_valid_graphs_one_per_orbit(rank, counts):
    group = FreeGroup(rank)
    for n, count in enumerate(counts, start=1):
        seen, total, sizes = set(), 0, []
        for g in graphs.all_valid_graphs(group, n):
            assert graphs.validate(g) == []
            orbit = symmetry_orbit(g)
            assert seen.isdisjoint(orbit)
            seen |= orbit
            total += len(orbit)
            sizes.append(len(g.edges))
        assert total == len(seen) == count
        assert sizes == sorted(sizes)


def _random_symmetry(g, rng):
    """g with its vertices relabelled and its generators inverted and
    permuted at random."""
    n, d = len(g.vertices), g.group.rank
    p = rng.sample(range(n), n)
    q = rng.sample(range(d), d)
    flips = [rng.randrange(2) for _ in range(d)]
    names = [f"x{v}" for v in range(n)]

    def letter(s):
        return 2 * q[s >> 1] + (s & 1 ^ flips[s >> 1])
    return graphs.RauzyGraph.from_triples(g.group, names, [
        (names[p[e.source]], letter(e.label), names[p[e.target]])
        for e in g.edges])


def test_conditions_invariant_under_symmetries():
    rng = random.Random(3)
    samples = [graphs.letter_flow_graph(FreeGroup(d), pair)
               for d in (2, 3) for pair in (False, True)]
    for _ in range(300):
        group = FreeGroup(rng.choice([1, 2, 3]))
        samples.append(random_valid_graph(group, rng, 4, density=0.2))
    verdicts = set()
    for g in samples:
        verdict = graphs.check_conditions(g)
        verdicts.add(verdict)
        assert minimality_oracle(g) == verdict[1]
        for _ in range(3):
            assert graphs.check_conditions(_random_symmetry(g, rng)) == verdict
    assert verdicts == {(True, True, True), (True, True, False),
                        (True, False, False), (False, False, False)}


@pytest.mark.parametrize("rank, max_vertices", [(1, 3), (2, 3), (3, 2)])
def test_conditions_against_oracle_on_every_class(rank, max_vertices):
    # with the orbit test above, this covers every valid graph of that size
    group = FreeGroup(rank)
    for n in range(1, max_vertices + 1):
        for g in graphs.all_valid_graphs(group, n):
            assert graphs.check_conditions(g) == conditions_oracle(g)


def _schreier_union(group, rng, sizes):
    """The disjoint union of Schreier graphs on blocks of the given sizes,
    one random permutation per generator on each block."""
    relations = [set() for _ in range(group.rank)]
    offset = 0
    for n in sizes:
        for rel in relations:
            perm = rng.sample(range(n), n)
            rel |= {(offset + v, offset + perm[v]) for v in range(n)}
        offset += n
    return graphs.RauzyGraph.from_relations(group, offset, relations)


def _split(rng, total, parts):
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def test_closure_against_oracles_on_many_components():
    rng = random.Random(8)
    samples = [graphs.letter_flow_graph(FreeGroup(d), pair)
               for d in (2, 3) for pair in (False, True)]
    for rank, sizes in ((2, [200, 200]), (2, [4] * 100), (2, [1] * 60),
                        (2, _split(rng, 400, 3)), (2, _split(rng, 400, 30)),
                        (3, _split(rng, 260, 7)), (1, _split(rng, 300, 12))):
        samples.append(_schreier_union(FreeGroup(rank), rng, sizes))
    for g in samples:
        assert graphs.check_conditions(g) == conditions_oracle(g)
        pair = unreachable_pair_oracle(g)
        assert graphs.is_minimal(g) == (pair is None, pair)


def test_xg_sft_rose(group2, rose2):
    sft = graphs.xg_sft(rose2)
    for k in range(4):
        assert len(enumerate_window(sft, group2.ball(k))) == 1


def test_xg_sft_cyc2(group2, cyc2):
    sft = graphs.xg_sft(cyc2)
    for k in range(5):
        configs = enumerate_window(sft, group2.ball(k))
        assert len(configs) == 2
        assert {c[EPSILON] for c in configs} == {"u", "v"}


def test_xg_sft_deterministic_count_is_vertex_count():
    group = FreeGroup(2)
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(1, 4)
        rels = []
        for _ in range(group.rank):
            perm = list(range(n))
            rng.shuffle(perm)
            rels.append({(v, perm[v]) for v in range(n)})
        g = graphs.RauzyGraph.from_relations(group, n, rels)
        assert graphs.is_deterministic(g)
        sft = graphs.xg_sft(g)
        for k in (1, 2):
            assert len(enumerate_window(sft, group.ball(k))) == n


def test_xg_sft_nonempty_by_greedy_extension():
    # Every valid graph admits a config on B_k: pick the identity value
    # arbitrarily and extend along the ball greedily; cross-check that the
    # enumeration finds at least one config.
    group = FreeGroup(2)
    rng = random.Random(23)
    for _ in range(50):
        g = random_valid_graph(group, rng, 3)
        sft = graphs.xg_sft(g)
        ball = group.ball(4)
        greedy = {EPSILON: 0}
        for w in ball[1:]:
            prev = greedy[w[:-1]]
            greedy[w] = g.edges[g.out_edges(prev, w[-1])[0]].target
        present = {(e.source, e.target, e.label) for e in g.edges}
        for w in ball[1:]:
            assert (greedy[w[:-1]], greedy[w], w[-1]) in present
        from rauzy.patterns import WindowConfig, is_locally_admissible
        config = WindowConfig({w: g.vertices[v] for w, v in greedy.items()})
        assert is_locally_admissible(sft, config)
        assert len(enumerate_window(sft, group.ball(1))) >= 1


def test_graph_of_window_reconstructs_cyc2(group2, cyc2):
    sft = graphs.xg_sft(cyc2)
    configs = enumerate_window(sft, group2.ball(3))
    lang = restrict_language(configs, [EPSILON])
    rebuilt = graphs.graph_of_window(group2, lang, [EPSILON])
    assert graphs.validate(rebuilt) == []
    # each vertex is the one-site pattern of its cyc2 vertex
    to_cyc2 = {p: p[EPSILON] for p in rebuilt.vertices}
    back = {v: p for p, v in to_cyc2.items()}
    assert sorted(back) == sorted(cyc2.vertices)
    assert graphs.is_graph_morphism(rebuilt, cyc2, to_cyc2)
    assert graphs.is_graph_morphism(cyc2, rebuilt, back)


def test_graph_of_window_one_symbol_full_shift(group2):
    from rauzy.patterns import Alphabet, full_shift
    sft = full_shift(group2, Alphabet(["x"]))
    configs = enumerate_window(sft, group2.ball(2))
    lang = restrict_language(configs, [EPSILON])
    g = graphs.graph_of_window(group2, lang, [EPSILON])
    assert len(g.vertices) == 1 and len(g.edges) == 4
    assert graphs.validate(g) == []


def test_graph_of_window_from_selector_point(group2, cyc2):
    from rauzy import selectors
    cycle = selectors.find_cycle(cyc2, 0)
    sel = selectors.synthesize_recurrent(cyc2, cycle)
    window = selectors.x_t_window(sel, 4)
    F = group2.ball(1)
    lang = restrict_language([window], F)
    g = graphs.graph_of_window(group2, lang, F)
    assert graphs.validate(g) == []
    assert graphs.is_minimal(g)[0]


def test_morphism_edge_map(group2, cyc2, rose2):
    collapse = {"u": "v", "v": "v"}
    assert graphs.is_graph_morphism(cyc2, rose2, collapse)
    edge_map = graphs.morphism_edge_map(cyc2, rose2, collapse)
    assert len(edge_map) == len(cyc2.edges)
    for i, e in enumerate(cyc2.edges):
        assert rose2.edges[edge_map[i]].label == e.label
    with pytest.raises(ValueError, match="no image"):
        graphs.morphism_edge_map(rose2, cyc2, {"v": "u"})


def test_graph_of_window_insufficient_data(group2, cyc2):
    sft = graphs.xg_sft(cyc2)
    # radius 0 window: no positions support any edge
    configs = enumerate_window(sft, group2.ball(0))
    lang = restrict_language(configs, [EPSILON])
    with pytest.raises(ValueError, match="insufficient"):
        graphs.graph_of_window(group2, lang, [EPSILON])


def test_pattern_graph_is_valid(group2):
    from rauzy.patterns import Alphabet
    pg = graphs.pattern_graph(group2, Alphabet([0, 1]), [EPSILON, (0,)])
    assert graphs.validate(pg) == []
    assert len(pg.vertices) == 4


def test_random_graphs_are_valid():
    group = FreeGroup(2)
    rng = random.Random(99)
    for _ in range(300):
        assert graphs.validate(random_valid_graph(group, rng, 3)) == []


def test_edge_lookup(cyc2):
    e = cyc2.edges[0]
    assert cyc2.edge_id(e.source, e.target, e.label) == 0
    bar = cyc2.edges[e.bar]
    assert bar.source == e.target and bar.target == e.source
    assert bar.label == inverse_letter(e.label)


def test_shortest_path_is_the_least_shortest_path():
    rng = random.Random(23)
    long_paths = unreachable = 0
    for _ in range(1000):
        succ = random_digraph(rng)
        n = len(succ)
        start = rng.randrange(n)
        unreached = set(range(n)) - depths_oracle(succ, [start]).keys()
        # random targets, one target, targets holding the start, and
        # unreachable targets
        for targets in ({x for x in range(n) if rng.random() < 0.3},
                        {rng.randrange(n)}, {start, rng.randrange(n)},
                        unreached):
            path = graphs._shortest_path(start, targets, succ)
            assert path == least_shortest_path_oracle(succ, start, targets)
            long_paths += path is not None and len(path) >= 3
        unreachable += bool(unreached)
    assert long_paths >= 30 and unreachable >= 30


def test_is_connected_matches_union_find(group2):
    rng = random.Random(13)
    verdicts = set()
    for _ in range(200):
        g = random_valid_graph(group2, rng, 6, density=0.05)
        classes = components_oracle(
            len(g.vertices), [(e.source, e.target) for e in g.edges])
        assert graphs.is_connected(g) == (len(classes) == 1)
        verdicts.add(len(classes) == 1)
    assert verdicts == {True, False}
    assert not graphs.is_connected(graphs.RauzyGraph(group2, [], []))
