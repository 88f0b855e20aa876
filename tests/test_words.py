import itertools
import random
import tracemalloc

import pytest

from oracles import depths_oracle, random_digraph
from rauzy.words import (
    EPSILON,
    FreeGroup,
    _ball,
    _bfs,
    concat,
    inverse,
    inverse_letter,
    letter,
    letter_index,
    letter_sign,
    mul_letter,
    reduce_word,
)


def test_letter_encoding():
    a, a_inv = letter(0, 1), letter(0, -1)
    assert inverse_letter(a) == a_inv
    assert inverse_letter(a_inv) == a
    assert letter_index(a_inv) == 0 and letter_sign(a_inv) == -1
    # total order: generator index first, then sign
    assert letter(0, 1) < letter(0, -1) < letter(1, 1) < letter(1, -1)


def test_reduce_examples():
    a, A, b, B = 0, 1, 2, 3
    assert reduce_word([a, A]) == EPSILON
    assert reduce_word([a, b, B, a]) == (a, a)
    assert reduce_word([a, b, A]) == (a, b, A)


def test_concat_examples():
    a, A, b, B = 0, 1, 2, 3
    assert concat((a, b), (B,)) == (a,)
    assert concat(EPSILON, (a, b)) == (a, b)
    w = (a, b, A)
    assert concat(w, inverse(w)) == EPSILON


def _random_letters(rng, max_len=8, rank=2):
    return [rng.randrange(2 * rank) for _ in range(rng.randrange(max_len))]


def test_reduce_idempotent_and_concat_associative():
    rng = random.Random(12345)
    for _ in range(10_000):
        u = reduce_word(_random_letters(rng))
        v = reduce_word(_random_letters(rng))
        w = reduce_word(_random_letters(rng))
        assert reduce_word(u) == u
        assert concat(concat(u, v), w) == concat(u, concat(v, w))
        assert len(concat(u, v)) <= len(u) + len(v)


def test_ball_sizes_brute_force():
    # oracle: reduce every raw letter sequence of length <= k
    group = FreeGroup(2)
    for k in range(3):
        words = set()
        for n in range(k + 1):
            for seq in itertools.product(range(4), repeat=n):
                w = reduce_word(seq)
                if len(w) <= k:
                    words.add(w)
        assert len(group.ball(k)) == len(words)
    assert len(group.ball(0)) == 1
    assert len(group.ball(1)) == 5
    assert len(group.ball(2)) == 17


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_ball_matches_closed_formula(rank):
    group = FreeGroup(rank)
    for k in range(7):
        assert len(group.ball(k)) == group.ball_size(k)


def test_ball_closure_properties():
    group = FreeGroup(2)
    for k in range(4):
        ball = group.ball(k)
        members = set(ball)
        for w in ball:
            assert w[:-1] in members or not w       # prefix closed
            assert inverse(w) in members            # inverse closed
        bigger = set(group.ball(k + 1))
        for w in ball:
            for s in group.letters:
                assert concat(w, (s,)) in bigger


def test_ball_order_is_deterministic_and_prefix_closed():
    group = FreeGroup(2)
    ball = group.ball(3)
    assert ball[0] == EPSILON
    seen = set()
    for w in ball:
        assert not w or w[:-1] in seen
        seen.add(w)
    assert list(ball) == sorted(ball, key=lambda w: (len(w), w))


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_ball_tree_index(rank):
    # parent[i] is the position of w[:-1] and last[i] is w[-1], both 0 at
    # the identity, in the same cached entry as the ball itself
    for k in range(5):
        domain, parent, last = _ball(rank, k)
        ball = domain.words
        assert ball is FreeGroup(rank).ball(k)
        assert parent[0] == last[0] == 0
        pos = {w: i for i, w in enumerate(ball)}
        assert all(parent[i] == pos[w[:-1]] and last[i] == w[-1]
                   for i, w in enumerate(ball) if w)
        assert FreeGroup(rank).sphere(k) == tuple(w for w in ball
                                                  if len(w) == k)


def test_one_bounded_ball_cache():
    # B_11 at rank 2 (354,293 words) is cached once, as its Domain and
    # tree, without the radii below it (51.2 MiB): the cache that kept every
    # radius up to 11 held 57.7 MiB.  More small balls than the cache holds
    # push it out.
    _ball.cache_clear()
    tracemalloc.start()
    try:
        assert len(FreeGroup(2).ball(11)) == 354_293
        held = tracemalloc.get_traced_memory()[0]
        assert _ball.cache_info().currsize == 1
        for k in range(_ball.cache_info().maxsize + 1):
            FreeGroup(1).ball(k)
        dropped = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        _ball.cache_clear()
    assert held < 56 * 2 ** 20
    assert dropped < 5 * 2 ** 20


def test_is_connected():
    group = FreeGroup(2)
    a = (0,)
    assert group.is_connected([EPSILON, a])
    assert not group.is_connected([EPSILON, (0, 0)])
    assert group.is_connected(group.ball(2))
    with pytest.raises(ValueError):
        group.is_connected([])


def test_bfs_against_round_by_round_reach():
    rng = random.Random(22)
    for _ in range(1000):
        succ = random_digraph(rng)
        # duplicate seeds, at most four of them
        seeds = [rng.randrange(len(succ)) for _ in range(rng.randint(1, 4))]
        pred = _bfs(succ, seeds)
        depth = depths_oracle(succ, seeds)
        assert pred.keys() == depth.keys()
        keys = list(pred)
        # seeds first, once each and in the given order
        assert keys[:len(set(seeds))] == list(dict.fromkeys(seeds))
        for y, x in pred.items():
            if x is None:
                assert y in seeds
            else:
                # a real step from a node discovered earlier, one level up
                assert y in succ[x] and keys.index(x) < keys.index(y)
                assert depth[y] == depth[x] + 1
        assert [depth[y] for y in keys] == sorted(depth.values())


def test_mul_letter_agrees_with_concat():
    rng = random.Random(7)
    for _ in range(500):
        w = reduce_word(_random_letters(rng))
        s = rng.randrange(4)
        assert mul_letter(w, s) == concat(w, (s,))


def test_parse_and_format_roundtrip():
    group = FreeGroup(2)
    assert group.parse_word("abA") == (0, 2, 1)
    assert group.parse_word("e") == EPSILON
    assert group.format_word(EPSILON) == "e"
    assert group.format_word((0, 2, 1)) == "abA"
    for w in group.ball(3):
        assert group.parse_word(group.format_word(w)) == w
    # parsing reduces
    assert group.parse_word("aA") == EPSILON
    with pytest.raises(ValueError):
        group.parse_word("ax")   # x out of range for rank 2
    for text in ("ab", "", "1"):
        with pytest.raises(ValueError, match="invalid letter"):
            group.parse_letter(text)


def test_letter_names_skip_the_identity():
    assert "".join(map(FreeGroup(4).format_letter, range(8))) == "aAbBcCdD"
    group = FreeGroup(25)
    names = [group.format_letter(x) for x in group.letters]
    assert names[8:10] == ["f", "F"] and names[-2:] == ["z", "Z"]
    assert len(set(names)) == 50 and not {"e", "E"} & set(names)
    for x, c in enumerate(names):
        assert group.parse_letter(c) == x
    for w in FreeGroup(5).ball(2):
        assert FreeGroup(5).parse_word(FreeGroup(5).format_word(w)) == w
    for c in "eE":
        with pytest.raises(ValueError, match="invalid letter"):
            group.parse_letter(c)
    with pytest.raises(ValueError, match="out of range"):
        FreeGroup(4).parse_letter("f")
    with pytest.raises(ValueError, match="from 1 to 25"):
        FreeGroup(26)


def test_rank_bounds():
    with pytest.raises(ValueError):
        FreeGroup(0)
    assert FreeGroup(1).ball_size(3) == 7
