import random

import pytest
from oracles import return_set_oracle

from rauzy import selectors, special
from rauzy.patterns import (
    Pattern,
    WindowConfig,
    enumerate_window,
    is_locally_admissible,
    project,
    restrict_language,
    translate_pattern,
)
from rauzy.words import EPSILON, FreeGroup, concat, inverse


@pytest.fixture(scope="module")
def sft_proj(group2):
    return special.special_symbol_sft(group2, 0)


def axis_words(ball, gen=0):
    return [w for w in ball if all(x >> 1 == gen for x in w)]


def test_chi_window_values(group2):
    c = special.chi_window(group2, 0, 1)
    assert c[EPSILON] == 1 and c[(0,)] == 1 and c[(1,)] == 1
    assert c[(2,)] == 0 and c[(3,)] == 0
    assert special.chi_window(group2, 0, 0)[EPSILON] == 1


def test_chi_window_counts(group2):
    for k in range(5):
        c = special.chi_window(group2, 0, k)
        assert sum(v for _, v in c.items) == 2 * k + 1


@pytest.mark.parametrize("rank", [2, 3])
def test_marker_windows_match_the_definition_word_by_word(rank):
    # x0 is the marker exactly on the powers of s0 and the last letter
    # elsewhere; chi is 1 exactly on the powers of s0
    group = FreeGroup(rank)
    rng = random.Random(rank)
    for s0 in range(0, 2 * rank, 2):
        radius = rng.choice((4, 5)) if rank == 2 else 4
        x0 = special.x0_window(group, s0, radius)
        chi = special.chi_window(group, s0, radius)
        ball = group.ball(radius)
        assert x0.domain.words == chi.domain.words == ball
        for w, a, b in zip(ball, x0.values, chi.values):
            power = w in ((s0,) * len(w), (s0 ^ 1,) * len(w))
            assert a == (special.MARK if power
                         else group.format_letter(w[-1]))
            assert b == int(power)


def test_chi_rejects_inverse_generator(group2):
    with pytest.raises(ValueError):
        special.chi_window(group2, 1, 1)


def test_x0_admissible(group2, sft_proj):
    sft, _ = sft_proj
    for radius in (1, 2, 3):
        assert is_locally_admissible(sft, special.x0_window(group2, 0, radius))


def test_star_propagates_along_axis(group2, sft_proj):
    sft, _ = sft_proj
    ball = group2.ball(2)
    axis = axis_words(ball)
    for c in enumerate_window(sft, ball):
        if c[EPSILON] == special.MARK:
            assert all(c[w] == special.MARK for w in axis)


def test_marks_lie_in_one_coset(group2, sft_proj):
    sft, _ = sft_proj
    for radius in (2, 3):
        for c in enumerate_window(sft, group2.ball(radius)):
            marks = [w for w in c.domain if c[w] == special.MARK]
            for i in range(len(marks)):
                for j in range(i + 1, len(marks)):
                    diff = concat(inverse(marks[i]), marks[j])
                    assert all(x >> 1 == 0 for x in diff)


def test_projected_language_is_chi_orbit_language(group2, sft_proj):
    sft, proj = sft_proj
    for radius, slack in ((1, 4), (2, 6)):
        ball = group2.ball(radius)
        projected = {Pattern(project(c, proj).items)
                     for c in enumerate_window(sft, ball)}
        chi = special.chi_window(group2, 0, radius + slack)
        scan = set(restrict_language([chi], ball).patterns)
        scan.add(Pattern({w: 0 for w in ball}))
        assert projected == scan


def test_return_set_chi(group2):
    one_at_center = Pattern({EPSILON: 1})
    for depth in range(6):
        chi = special.chi_window(group2, 0, depth)
        rs = special.return_set(group2, chi, one_at_center, depth)
        assert len(rs) == 2 * depth + 1
        assert set(rs) == {w for w in group2.ball(depth)
                           if all(x >> 1 == 0 for x in w)}


def test_return_set_empty_when_pattern_absent(group2):
    chi = special.chi_window(group2, 0, 3)
    absent = Pattern({EPSILON: 1, (2,): 1})  # 1 at both e and b: impossible
    assert special.return_set(group2, chi, absent, 1) == ()


def test_return_set_insufficient_window(group2):
    chi = special.chi_window(group2, 0, 1)
    with pytest.raises(ValueError, match="missing"):
        special.return_set(group2, chi, Pattern({EPSILON: 1}), 2)


def test_return_set_matches_oracle():
    rng = random.Random(23)
    seen = dict.fromkeys(("identity", "no identity", "empty", "match",
                          "miss", "too small"), 0)
    for rank in (1, 2, 3):
        group = FreeGroup(rank)
        letters = list(group.letters)
        near = group.ball(2)
        for _ in range(60):
            # a prefix-closed window: a ball grown by random children
            words = set(group.ball(rng.randint(0, 2)))
            for _ in range(rng.randrange(20)):
                w = rng.choice(sorted(words))
                if len(w) < 4:
                    words.add(w + (rng.choice(
                        [x for x in letters if not w or x != w[-1] ^ 1]),))
            config = WindowConfig({w: rng.randint(0, 1) for w in words})
            kind = rng.choice(("identity", "no identity", "empty"))
            support = {"identity": {EPSILON, *rng.sample(near, 2)},
                       "no identity": rng.sample(near[1:], rng.randint(1, 3)),
                       "empty": ()}[kind]
            u = Pattern({f: rng.randint(0, 1) for f in support})
            depth = rng.randint(0, 2)
            want, missing = return_set_oracle(group, config, u, depth)
            seen[kind] += 1
            if missing:
                seen["too small"] += 1
                with pytest.raises(ValueError) as exc:
                    special.return_set(group, config, u, depth)
                assert str(exc.value) == (f"config window too small for "
                                          f"depth {depth}: missing {missing}")
            else:
                seen["match" if want else "miss"] += 1
                assert special.return_set(group, config, u, depth) == want
    assert min(seen.values()) >= 10, seen


def test_return_set_on_selector_point(group2, cyc2):
    cycle = selectors.find_cycle(cyc2, cyc2.vertex_id("u"))
    sel = selectors.synthesize_recurrent(cyc2, cycle)
    window = selectors.x_t_window(sel, 4)
    rs = special.return_set(group2, window, Pattern({EPSILON: "u"}), 4)
    expected = {w for w in group2.ball(4) if window[w] == "u"}
    assert set(rs) == expected
    # the period-2 structure: a-powers alternate
    for j in (2, 4):
        assert (0,) * j in rs
    for j in (1, 3):
        assert (0,) * j not in rs


def test_return_set_equivariance(group2):
    chi = special.chi_window(group2, 0, 6)
    u = Pattern({EPSILON: 1})
    base = set(special.return_set(group2, chi, u, 2))
    for h in [(0,), (2,), (0, 2)]:
        shifted = translate_pattern(inverse(h), chi)
        got = set(special.return_set(group2, shifted, u, 1))
        want = {concat(inverse(h), g) for g in base}
        assert got == {w for w in want if len(w) <= 1}


def test_special_sft_needs_rank_two():
    with pytest.raises(ValueError):
        special.special_symbol_sft(FreeGroup(1), 0)
