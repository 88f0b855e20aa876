import functools
import hashlib
import itertools
import json
import random
import re

import pytest
from oracles import follow_table_oracle, placements_oracle, sft_pairs

from rauzy import actions, graphs, selectors, special
from rauzy.actions import FiniteAction
from rauzy.generate import random_minimal_graph
from rauzy.patterns import (
    Alphabet,
    CapExceededError,
    Domain,
    Pattern,
    Sft,
    WindowConfig,
    compatible,
    disjoint_union,
    enumerate_window,
    full_shift,
    iota,
    is_locally_admissible,
    project,
    restrict_language,
    translate_pattern,
    window_j,
    _gather,
    _placements,
)
from rauzy.serialize import DocumentError, sft_from_doc, sft_to_doc
from rauzy.special import special_symbol_sft, x0_window
from rauzy.words import (EPSILON, FreeGroup, concat, inverse, reduce_word,
                         word_key)


def test_alphabet_invariants():
    with pytest.raises(ValueError):
        Alphabet([])
    with pytest.raises(ValueError):
        Alphabet(["x", "x"])
    alph = Alphabet(["x", "y"])
    assert alph.index("y") == 1 and "x" in alph


def test_translate_pattern():
    a = (0,)
    p = Pattern({EPSILON: "x"})
    assert translate_pattern(EPSILON, p) == p
    q = translate_pattern(a, p)
    assert q.support == (a,) and q[a] == "x"
    assert translate_pattern(inverse(a), q) == p


def test_translate_is_group_action():
    rng = random.Random(5)
    for _ in range(200):
        u = reduce_word([rng.randrange(4) for _ in range(rng.randrange(4))])
        v = reduce_word([rng.randrange(4) for _ in range(rng.randrange(4))])
        supp = [reduce_word([rng.randrange(4) for _ in range(rng.randrange(3))])
                for _ in range(3)]
        p = Pattern({w: rng.randrange(2) for w in supp})
        assert translate_pattern(u, translate_pattern(v, p)) == \
            translate_pattern(concat(u, v), p)


def test_compatible():
    a, b = (0,), (2,)
    p = Pattern({EPSILON: 0, a: 1})
    assert compatible(p, Pattern({b: 1}))        # disjoint supports
    assert compatible(p, p)
    assert not compatible(p, Pattern({a: 0}))    # shared word, different value


def test_enumerate_window_full_shift(group2):
    sft = full_shift(group2, Alphabet([0, 1]))
    assert len(enumerate_window(sft, [EPSILON])) == 2
    for k in (1, 2):
        assert len(enumerate_window(sft, group2.ball(k))) == \
            2 ** len(group2.ball(k))


def test_enumerate_window_empty_shift(group2):
    sft = Sft(group2, Alphabet([0, 1]), [EPSILON], banned=(0, 1))
    assert enumerate_window(sft, group2.ball(1)) == ()


def test_enumerate_window_cyc2_brute_force(group2, cyc2):
    # oracle: check all |V|^|B_2| colorings against the edge constraints
    sft = graphs.xg_sft(cyc2)
    ball = group2.ball(2)
    present = {(cyc2.vertices[e.source], e.label, cyc2.vertices[e.target])
               for e in cyc2.edges}
    pairs = [(w, concat(w, (s,)), s) for w in ball for s in group2.letters
             if concat(w, (s,)) in set(ball)]
    expected = set()
    for colors in itertools.product(cyc2.vertices, repeat=len(ball)):
        cfg = dict(zip(ball, colors))
        if all((cfg[w], s, cfg[ws]) in present for (w, ws, s) in pairs):
            expected.add(tuple(sorted(cfg.items())))
    got = enumerate_window(sft, ball)
    assert len(got) == 2
    assert {tuple(sorted(c.items)) for c in got} == expected


def test_enumerate_window_is_antitone(group2, cyc2):
    sft = graphs.xg_sft(cyc2)
    # adding rules never adds configs
    extra = Sft(group2, sft.alphabet, sft.window, {"u"}, sft.allowed)
    small = enumerate_window(extra, group2.ball(2))
    assert set(small) <= set(enumerate_window(sft, group2.ball(2)))
    # growing the domain never adds restrictions
    ball1 = group2.ball(1)
    restrict = {WindowConfig({w: c[w] for w in ball1})
                for c in enumerate_window(sft, group2.ball(2))}
    assert restrict <= set(enumerate_window(sft, ball1))


def test_enumerate_window_order_is_deterministic(group2, cyc2):
    sft = graphs.xg_sft(cyc2)
    first = enumerate_window(sft, group2.ball(2))
    second = enumerate_window(sft, group2.ball(2))
    assert first == second
    # first config follows alphabet order at the first free slot
    assert first[0][EPSILON] == sft.alphabet.symbols[0]


def test_enumerate_window_cap(group2):
    sft = full_shift(group2, Alphabet([0, 1]))
    with pytest.raises(CapExceededError):
        enumerate_window(sft, group2.ball(2), cap=100)


def test_enumerate_window_domain_validation(group2):
    sft = full_shift(group2, Alphabet([0, 1]))
    with pytest.raises(ValueError,
                       match="^domain must contain the identity$"):
        enumerate_window(sft, [(0,)])
    for domain in ([EPSILON, (0, 0)], [EPSILON, (4,)]):  # (4,) is not rank 2
        with pytest.raises(ValueError, match="^domain must be connected in "
                           "the Cayley graph$"):
            enumerate_window(sft, domain)


def test_iota_identity_window(group2):
    # F = {eps}: iota is symbol-wise unpacking of one-point patterns
    c = WindowConfig({w: Pattern({EPSILON: 0}) for w in group2.ball(1)})
    flat = iota(group2, [EPSILON], c)
    assert all(v == 0 for _, v in flat.items)


def _pattern_graph_configs(group, alphabet, F, radius):
    pg = graphs.pattern_graph(group, alphabet, F)
    sft = graphs.xg_sft(pg)
    return enumerate_window(sft, group.ball(radius))


def test_iota_j_roundtrip_small(group2):
    # F = {eps, a}: every admissible config on B_1 round-trips
    F = [EPSILON, (0,)]
    alph = Alphabet([0, 1])
    configs = _pattern_graph_configs(group2, alph, F, 1)
    ball1 = group2.ball(1)
    images = set()
    for c in configs:
        flat = iota(group2, F, c)
        assert window_j(group2, F, flat, ball1) == c
        images.add(flat.items)
    assert len(images) == len(configs)


def test_iota_j_roundtrip_radius_two(group2):
    # random flat configs on B_3 repackage to admissible pattern configs on
    # B_2 and back; too many to enumerate, so sample via the inverse map
    F = group2.ball(1)
    pg = graphs.pattern_graph(group2, Alphabet([0, 1]), F)
    sft = graphs.xg_sft(pg)
    rng = random.Random(2024)
    ball2, ball3 = group2.ball(2), group2.ball(3)
    for _ in range(25):
        flat = WindowConfig({w: rng.randrange(2) for w in ball3})
        c = window_j(group2, F, flat, ball2)
        assert is_locally_admissible(sft, c)
        assert iota(group2, F, c) == flat
        assert window_j(group2, F, iota(group2, F, c), ball2) == c


def test_iota_constant_config(group2):
    F = group2.ball(1)
    p = Pattern({w: 1 for w in F})
    c = WindowConfig({w: p for w in group2.ball(1)})
    flat = iota(group2, F, c)
    assert flat[EPSILON] == 1 and all(v == 1 for _, v in flat.items)


def test_iota_rejects_disconnected_support(group2):
    c = WindowConfig({EPSILON: Pattern({EPSILON: 0, (0, 0): 0})})
    with pytest.raises(ValueError):
        iota(group2, [EPSILON, (0, 0)], c)


def test_j_reports_missing_words(group2):
    F = [EPSILON, (0,)]
    flat = WindowConfig({w: 0 for w in group2.ball(1)})
    with pytest.raises(ValueError, match="missing"):
        window_j(group2, F, flat, group2.ball(1))


def test_disjoint_union_two_singletons(group2):
    x = full_shift(group2, Alphabet(["x"]))
    y = full_shift(group2, Alphabet(["y"]))
    u = disjoint_union(x, y)
    for k in (0, 1, 2):
        assert len(enumerate_window(u, group2.ball(k))) == 2


def test_disjoint_union_language_is_tagged_union(group2, cyc2):
    x = graphs.xg_sft(cyc2)
    y = full_shift(group2, Alphabet(["z"]))
    u = disjoint_union(x, y)
    ball = group2.ball(1)
    got = {c.items for c in enumerate_window(u, ball)}
    want = set()
    for c in enumerate_window(x, ball):
        want.add(WindowConfig({w: f"L:{v}" for w, v in c.items}).items)
    for c in enumerate_window(y, ball):
        want.add(WindowConfig({w: f"R:{v}" for w, v in c.items}).items)
    assert got == want


def test_disjoint_union_with_empty_sft(group2, cyc2):
    x = graphs.xg_sft(cyc2)
    dead = Alphabet(["d"])
    empty = Sft(group2, dead, [EPSILON], banned=["d"])
    u = disjoint_union(x, empty)
    ball = group2.ball(2)
    got = {c.items for c in enumerate_window(u, ball)}
    want = {WindowConfig({w: f"L:{v}" for w, v in c.items}).items
            for c in enumerate_window(x, ball)}
    assert got == want


def test_restrict_language(group2, cyc2):
    sft = graphs.xg_sft(cyc2)
    configs = enumerate_window(sft, group2.ball(3))
    # F = {eps}: both vertices occur
    lang0 = restrict_language(configs, [EPSILON])
    assert {p[EPSILON] for p in lang0} == {"u", "v"}
    # F = {eps, a}: exactly the two patterns the a-edges allow
    lang = restrict_language(configs, [EPSILON, (0,)])
    got = {(p[EPSILON], p[(0,)]) for p in lang}
    assert got == {("u", "v"), ("v", "u")}


def test_restrict_language_constant():
    group = FreeGroup(2)
    c = WindowConfig({w: 7 for w in group.ball(2)})
    lang = restrict_language([c], group.ball(1))
    assert len(lang) == 1


def test_placements_match_oracle():
    rng = random.Random(77)
    for rank in (1, 2, 3):
        group = FreeGroup(rank)
        letters = list(group.letters)
        near, room = group.ball(2), set(group.ball(3))
        for _ in range(40):
            domain = {rng.choice(near)}
            for _ in range(rng.randrange(30)):
                w = concat(rng.choice(sorted(domain)), (rng.choice(letters),))
                if w in room:
                    domain.add(w)
            domain = list(domain)
            rng.shuffle(domain)
            F = tuple(rng.sample(near, rng.randint(1, 4)))
            dom = Domain.of(domain)
            got = [(g, tuple(dom.words[k] for k in idx))
                   for g, idx in _placements(dom, F)[1]]
            assert len({g for g, _ in got}) == len(got)
            assert sorted(got) == sorted(placements_oracle(group, domain, F))
            index = {w: i for i, w in enumerate(dom.words)}
            assert _gather(dom, near, F) == tuple(
                tuple(index.get(concat(g, f)) for f in F) for g in near)


def test_local_admissibility_matches_enumeration(group2, cyc2):
    sft = graphs.xg_sft(cyc2)
    ball = group2.ball(1)
    admissible = set(enumerate_window(sft, ball))
    for colors in itertools.product(cyc2.vertices, repeat=len(ball)):
        c = WindowConfig(dict(zip(ball, colors)))
        assert is_locally_admissible(sft, c) == (c in admissible)


def test_follow_table_is_built_once_per_sft(monkeypatch, group2, cyc2):
    built = []
    build = Sft.follow_table.func

    def counted(sft):
        built.append(sft)
        return build(sft)

    table = functools.cached_property(counted)
    table.__set_name__(Sft, "follow_table")
    monkeypatch.setattr(Sft, "follow_table", table)
    sft = graphs.xg_sft(cyc2)
    configs = enumerate_window(sft, group2.ball(1))
    assert all(is_locally_admissible(sft, c) for c in configs[:2])
    assert enumerate_window(sft, group2.ball(2))
    assert built == [sft]
    assert sft.follow_table is sft.follow_table


def _random_one_step_sft(rng, group):
    """A random SFT over B_1 with 1-4 symbols: some symbols banned, one of
    them possibly in no pair rule, and pair rules (a, s, b) drawn
    independently per letter, so the rule along s^-1 rarely mirrors the
    rule along s."""
    symbols = list(range(rng.randint(1, 4)))
    banned = [a for a in symbols if rng.random() < 0.3]
    quiet = set(banned[:1]) if rng.random() < 0.5 else set()
    ruled = [a for a in symbols if a not in quiet]
    allowed = {(a, s): set(symbols) - {b for b in ruled if rng.random() < 0.35}
               for s in group.letters for a in ruled}
    return Sft(group, Alphabet(symbols), group.ball(1), banned, allowed)


def _admissibility_oracle(group, sft, domain):
    """A test of colorings of `domain`: no forbidden pattern, {eps: a} for
    a banned symbol or {eps: a, s: b} for a pair rule, matches at a
    placement of its support, the placements coming from the brute-force
    placement oracle."""
    forbidden = [Pattern({EPSILON: a}) for a in sft.banned]
    forbidden += [Pattern({EPSILON: a, (s,): b}) for a, s, b in sft_pairs(sft)]
    placements = {}
    spots = []
    for p in forbidden:
        if p.support not in placements:
            placements[p.support] = placements_oracle(group, domain, p.support)
        values = tuple(v for _, v in p.items)
        spots += [(placed, values) for _, placed in placements[p.support]]
    return lambda c: not any(tuple(c[x] for x in placed) == values
                             for placed, values in spots)


def test_one_step_sfts_match_placement_oracle():
    rng = random.Random(808)
    for rank in (1, 2, 3):
        group = FreeGroup(rank)
        letters = list(group.letters)
        ball2, ball3 = group.ball(2), set(group.ball(3))
        for _ in range(25):
            sft = _random_one_step_sft(rng, group)
            symbols = sft.alphabet.symbols
            first, follow = sft.follow_table
            assert (first, follow) == follow_table_oracle(sft)
            assert all((b in follow[a, s]) == (a in follow[b, s ^ 1])
                       for a in first for b in first for s in letters)
            # a domain containing eps and connected in the Cayley tree
            size = next(n for n in range(9, 0, -1)
                        if len(symbols) ** n <= 512)
            domain = {EPSILON}
            for _ in range(4 * size):
                w = concat(rng.choice(sorted(domain)), (rng.choice(letters),))
                if w in ball3 and len(domain) < size:
                    domain.add(w)
            order = sorted(domain, key=lambda w: (len(w), w))
            admissible = _admissibility_oracle(group, sft, order)
            want = [c.items for c in (
                WindowConfig(zip(order, colors)) for colors in
                itertools.product(symbols, repeat=len(order)))
                if admissible(c)]
            assert [c.items for c in enumerate_window(sft, domain)] == want
            # configs on a random, possibly disconnected part of B_2
            for _ in range(6):
                part = rng.sample(ball2, rng.randint(1, len(ball2)))
                admissible = _admissibility_oracle(group, sft, part)
                for _ in range(5):
                    c = WindowConfig({w: rng.choice(symbols) for w in part})
                    assert is_locally_admissible(sft, c) == admissible(c)


def test_sft_window_invariants(group2):
    with pytest.raises(ValueError):
        Sft(group2, Alphabet([0]), [(0,)])   # window without identity


# rules that sft_to_doc, which walks the alphabet, would silently drop
OUTSIDE_RULES = {
    "banned": (["z"], {}, "banned symbol 'z' is not in the alphabet"),
    "key-symbol": ([], {("z", 0): {0}},
                   "rule symbol 'z' is not in the alphabet"),
    "key-letter": ([], {(0, 2): {0}}, "rule letter b is not one step "
                   "inside the defining window"),
}


@pytest.mark.parametrize("banned, allowed, message", OUTSIDE_RULES.values(),
                         ids=OUTSIDE_RULES.keys())
def test_sft_refuses_rules_outside_alphabet_or_window(group2, banned,
                                                      allowed, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Sft(group2, Alphabet([0, 1]), [EPSILON, (0,), (1,)], banned, allowed)


SFT_DOC_REFUSALS = {
    "alphabet-empty": ({"alphabet": []},
                       "sft.alphabet: must be a nonempty list"),
    "alphabet-not-list": ({"alphabet": "01"},
                          "sft.alphabet: must be a nonempty list"),
    "window-not-list": ({"window": "e"},
                        "sft.window: must be a list of words"),
    "forbidden-not-list": ({"forbidden": {"e": 0}},
                           "sft.forbidden: must be a list of patterns"),
    "rule-not-object": ({"forbidden": [["e", 0]]},
                        "sft.forbidden[0]: must map words to symbols"),
    "symbol-float": ({"alphabet": [0, 1.5]}, "sft.alphabet[1]: symbol 1.5 "
                     "is not a string or an integer"),
    "symbol-null": ({"alphabet": [None]}, "sft.alphabet[0]: symbol None "
                    "is not a string or an integer"),
}


@pytest.mark.parametrize("change, message", SFT_DOC_REFUSALS.values(),
                         ids=SFT_DOC_REFUSALS.keys())
def test_sft_document_refusals(change, message):
    doc = {"rank": 2, "alphabet": [0, 1], "window": ["e", "a"],
           "forbidden": [{"e": 0, "a": 1}]}
    with pytest.raises(DocumentError, match=f"^{re.escape(message)}$"):
        sft_from_doc(doc | change)


WIDE_SUPPORTS = {"e,a,b": ["e", "a", "b"], "e,ab": ["e", "ab"], "a": ["a"]}


@pytest.mark.parametrize("support", WIDE_SUPPORTS.values(),
                         ids=WIDE_SUPPORTS.keys())
def test_sft_forbids_only_one_step_supports(group2, support):
    window = list(group2.ball(2))
    doc = {"rank": 2, "alphabet": [0, 1],
           "window": [group2.format_word(w) for w in window],
           "forbidden": [{w: 0 for w in support}]}
    with pytest.raises(DocumentError,
                       match=r"^sft\.forbidden\[0\]: forbidden support"):
        sft_from_doc(doc)
    doc["forbidden"] = [{"e": 0, "b": 1}]
    assert sft_to_doc(sft_from_doc(doc)) == doc


def test_sft_document_pair_letter_outside_window():
    doc = {"rank": 2, "alphabet": [0, 1], "window": ["e", "a", "A", "ab"],
           "forbidden": [{"e": 0, "a": 1}, {"e": 0, "b": 1}]}
    with pytest.raises(DocumentError, match=re.escape(
            "sft.forbidden[1]: forbidden support [(), (2,)] is not one step "
            "inside the defining window")):
        sft_from_doc(doc)


@pytest.mark.parametrize("rule", [{"e": "zz"}, {"e": "zz", "a": 0},
                                  {"e": 0, "a": "zz"}, {"e": "0"}])
def test_sft_document_rule_symbols_must_be_in_the_alphabet(rule):
    doc = {"rank": 2, "alphabet": [0], "window": ["e", "a"],
           "forbidden": [{"e": 0}, rule]}
    bad = next(v for v in rule.values() if v != 0)
    with pytest.raises(DocumentError, match=re.escape(
            f"sft.forbidden[1]: symbol {bad!r} is not in the alphabet")):
        sft_from_doc(doc)


def _documented_listing(group, banned, pairs):
    """The forbidden list in its documented order: by repr(a), the ban
    {e: a} before a's pairs, and those by letter, then by repr(b)."""
    keyed = [((repr(a),), {"e": a}) for a in banned]
    keyed += [((repr(a), s, repr(b)), {"e": a, group.format_letter(s): b})
              for a, s, b in pairs]
    return [values for _, values in sorted(keyed, key=lambda kv: kv[0])]


def test_sft_documents_round_trip_exactly():
    """Seeded one-step SFTs over mixed string and integer symbols: pair
    rules that name banned symbols, a symbol in no rule, and windows that
    miss letters or reach past B_1."""
    rng = random.Random(909)
    pool = [0, 1, 9, 10, "10", "x", "y", "e"]
    for rank in (1, 2, 3):
        group = FreeGroup(rank)
        for _ in range(20):
            symbols = rng.sample(pool, rng.randint(2, 6))
            ruled = symbols[:-1]          # symbols[-1] is in no rule
            banned = {a for a in ruled if rng.random() < 0.4}
            wide = group.ball(rng.randint(1, 3))
            window = [w for w in wide if not w or rng.random() < 0.7]
            letters = [w[0] for w in window if len(w) == 1]
            pairs = {(a, s, b) for s in letters for a in ruled
                     for b in ruled if rng.random() < 0.3}
            if banned and letters:
                pairs.add((min(banned, key=repr), letters[0], ruled[0]))
            sft = Sft(group, Alphabet(symbols), window, banned,
                      {(a, s): set(symbols) - {b for x, t, b in pairs
                                               if (x, t) == (a, s)}
                       for a, s, _ in pairs})
            doc = sft_to_doc(sft)
            listing = _documented_listing(group, banned, pairs)
            assert json.dumps(doc["forbidden"]) == json.dumps(listing)
            assert doc["window"] == [group.format_word(w) for w in
                                     sorted(set(window), key=word_key)]
            text = json.dumps(doc)
            again = sft_from_doc(json.loads(text))
            assert (again.banned, sft_pairs(again), again.window) == \
                (sft.banned, sft_pairs(sft), sft.window)
            assert json.dumps(sft_to_doc(again)) == text


# SHA-256 of _nearest_neighbour_records(): the SFT documents of the four
# nearest-neighbour constructors, the languages and graphs read off windows,
# and admissibility verdicts on perturbed configs.  Recorded before the
# constructors shared one rule builder and one placement routine; it must
# not move.
NN_DIGEST = (
    "04e2b2b7a98af3ab8b8549b6b82f29a9ba71d74429cc583091cb2e8075de3fb1")


def _nearest_neighbour_records():
    group2, group3 = FreeGroup(2), FreeGroup(3)
    rng = random.Random(515)
    minimal = [graphs.rose(group2), graphs.two_cycle(group2),
               graphs.three_star(group2), graphs.letter_flow_graph(group2),
               graphs.two_cycle(group3)]
    minimal += [random_minimal_graph(group2, rng, 4) for _ in range(5)]
    minimal += [random_minimal_graph(group3, rng, 2) for _ in range(2)]
    valid = minimal + [graphs.letter_flow_graph(group2, True)]
    records = []
    checked = []   # (sft, config) pairs for the admissibility verdicts

    for g in valid:
        records.append(sft_to_doc(graphs.xg_sft(g)))
    for g in minimal:
        for v in range(len(g.vertices)):
            cycle = selectors.find_cycle(g, v)
            for sel in (selectors.least_selector(g, v),
                        selectors.synthesize_recurrent(g, cycle)):
                wit = selectors.sofic_witness(sel)
                records.append((sft_to_doc(wit.sft), sorted(wit.phi.items()),
                                sorted(wit.range_edges)))
                checked.append((wit.sft, selectors.z0_window(sel, 2)))
    for group in (group2, group3):
        for s0 in range(0, 2 * group.rank, 2):
            sft, proj = special_symbol_sft(group, s0)
            records.append((sft_to_doc(sft), sorted(proj.items())))
            checked.append((sft, x0_window(group, s0, 2)))

    x, y = graphs.xg_sft(minimal[1]), graphs.xg_sft(minimal[2])
    dead = Sft(group2, Alphabet(["d"]), [EPSILON], banned=["d"])
    marker, _ = special_symbol_sft(group2, 0)
    for left, right in ((x, y), (y, x), (x, dead),
                        (full_shift(group2, Alphabet(["z"])), x), (marker, x)):
        u = disjoint_union(left, right)
        records.append(sft_to_doc(u))
        checked += [(u, c) for c in enumerate_window(u, group2.ball(1))[:6]]

    shapes = [[EPSILON], [EPSILON, (0,)], [EPSILON, (2,), (2, 0)],
              list(group2.ball(1)), [(0,), (2,)], [(1,), (1, 2), (1, 2, 2)]]
    for g in minimal[:7]:
        sft = graphs.xg_sft(g)
        configs = enumerate_window(sft, group2.ball(2))
        sel = selectors.least_selector(g, 0)
        sources = [configs, [selectors.x_t_window(sel, 4)]]
        checked += [(sft, c) for c in configs[:8]] + [(sft, sources[1][0])]
        for F in shapes:
            for src in sources:
                lang = restrict_language(src, F)
                records.append((lang.support,
                                [p.items for p in lang.sorted_patterns()]))
                if EPSILON not in F:
                    continue
                try:
                    h = graphs.graph_of_window(group2, lang, F)
                    records.append((repr(h.vertices), h.edges))
                except ValueError as exc:
                    records.append(str(exc))

    for sft, config in checked:
        words = list(config.domain)
        symbols = list(sft.alphabet)
        verdicts = [is_locally_admissible(sft, config)]
        for _ in range(4):
            values = dict(config.items)
            for w in rng.sample(words, rng.randint(1, 2)):
                values[w] = rng.choice(symbols)
            verdicts.append(is_locally_admissible(sft, WindowConfig(values)))
        records.append(verdicts)
    return records


def test_nearest_neighbour_golden_digest():
    records = _nearest_neighbour_records()
    digest = hashlib.sha256(repr(records).encode()).hexdigest()
    assert digest == NN_DIGEST


def _iota_oracle(F, config):
    """iota as a dict walk over (g, f) in canonical order: the first value
    to land on a word stays, and the first later one that differs raises."""
    values = {}
    for g, pat in config.items:
        for f in sorted(set(F), key=word_key):
            h = concat(g, f)
            old = values.setdefault(h, pat[f])
            if old != pat[f]:
                raise ValueError(
                    f"incompatible overlaps at {h}: {old!r} vs {pat[f]!r}")
    return WindowConfig(values)


def _same_config(trusted, rng):
    """The config rebuilt by the mapping constructor from its items in a
    shuffled order is the same config, down to hash, repr and items."""
    items = list(trusted.items)
    rng.shuffle(items)
    mapped = WindowConfig(dict(items))
    assert trusted == mapped and mapped == trusted
    assert hash(trusted) == hash(mapped)
    assert repr(trusted) == repr(mapped)
    assert trusted.items == mapped.items
    assert list(trusted.domain) == sorted(trusted.domain, key=word_key)


def test_trusted_configs_match_mapping_configs():
    """Seeded random domains and symbols, then every trusted construction
    path: each gives the config the mapping constructor gives."""
    rng = random.Random(1010)
    pats = [Pattern({EPSILON: 0}), Pattern({EPSILON: 1, (0,): 0})]
    for rank in (1, 2, 3):
        group = FreeGroup(rank)
        ball = group.ball(3)
        for _ in range(30):
            size = rng.randint(1, min(30, len(ball)))
            dom = Domain.of(rng.sample(ball, size))
            symbols = rng.choice([[0, 1], ["u", "v", 10, "10"], pats])
            values = tuple(rng.choice(symbols) for _ in dom)
            config = WindowConfig._of(dom, values)
            _same_config(config, rng)
            for w in ball:
                assert config.get(w, "-") == dict(config.items).get(w, "-")
                assert (w in config) == (w in dict(config.items))
    group2 = FreeGroup(2)
    trusted = list(enumerate_window(
        graphs.xg_sft(graphs.letter_flow_graph(group2)), group2.ball(2)))
    g = graphs.three_star(group2)
    sel = selectors.synthesize_recurrent(g, selectors.find_cycle(g, 0))
    wit = selectors.sofic_witness(sel)
    z0 = selectors.z0_window(sel, 3)
    trusted += [selectors.x_t_window(sel, 3), z0, wit.project(z0)]
    sft, proj = special_symbol_sft(group2, 2)
    x0 = x0_window(group2, 2, 3)
    trusted += [x0, special.chi_window(group2, 2, 3),
                project(x0, proj)]
    act = FiniteAction(group2, ["p", "q", "r"], [[1, 2, 0], [0, 2, 1]])
    trusted.append(actions.periodic_window(act, 1, 3))
    F = group2.ball(1)
    for c in _pattern_graph_configs(group2, Alphabet([0, 1]), F, 1)[::97]:
        flat = iota(group2, F, c)
        assert flat == _iota_oracle(F, c)
        trusted += [c, flat, window_j(group2, F, flat, F)]
    for c in trusted:
        _same_config(c, rng)


def test_iota_conflicts_and_missing_words_keep_their_messages(group2):
    rng = random.Random(77)
    F = group2.ball(1)
    for _ in range(40):
        domain = rng.sample(group2.ball(1), rng.randint(2, 5))
        config = WindowConfig({g: Pattern({f: rng.randrange(2) for f in F})
                               for g in domain})
        try:
            want = _iota_oracle(F, config)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                iota(group2, F, config)
            continue
        assert iota(group2, F, config) == want
    conflict = WindowConfig({EPSILON: Pattern({f: 0 for f in F}),
                             (0,): Pattern({f: 1 for f in F})})
    with pytest.raises(ValueError, match=re.escape(
            "incompatible overlaps at (0,): 0 vs 1")):
        iota(group2, F, conflict)
    flat = WindowConfig({w: 0 for w in group2.ball(2) if w != (0, 2)})
    with pytest.raises(ValueError, match=re.escape(
            "config domain missing words: [(0, 2)]")):
        window_j(group2, F, flat, F)
    with pytest.raises(ValueError, match=re.escape(
            "config domain missing words: [(0, 2), (0, 0, 0), (0, 0, 2), "
            "(0, 0, 3)]")):
        window_j(group2, F, flat, [EPSILON, (0,), (0, 0)])
