import pytest

from rauzy import selectors, special
from rauzy.patterns import (
    Pattern,
    enumerate_window,
    is_locally_admissible,
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
        projected = {Pattern(special.project_config(c, proj).items)
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
