"""The special-symbol SFT for a cyclic subgroup of the free group.

The orbit closure of the 0/1 indicator of the cyclic subgroup generated by
one free generator is sofic: it is the projection of an SFT over the
alphabet of letters plus one marker symbol.  A marker at a position forces
markers along the whole axis of the chosen generator and the last letter of
the relative position everywhere else; configurations with no marker are
the "subgroup escaped to infinity" limits and project to zero.

Also here: finite return sets of a window configuration into a pattern.
"""

from __future__ import annotations

from .patterns import (Alphabet, Pattern, Sft, WindowConfig, _ball_window,
                       _gather, _missing)
from .words import FreeGroup, Letter, inverse_letter, letter_sign

MARK = "*"


def _marker_window(group: FreeGroup, s0: Letter, radius: int,
                   values: list) -> WindowConfig:
    """The window on B_radius with values[2d] on the s0-axis and values[b]
    off it at words with last letter b: the walk of an automaton that keeps
    its marker state 2d along s0^{+-1} and else moves to the letter read."""
    if letter_sign(s0) != 1:
        raise ValueError("the subgroup generator must be a positive letter")
    marker = 2 * group.rank
    letters = group.letters
    axis = [marker if x >> 1 == s0 >> 1 else x for x in letters]
    return _ball_window(group, radius, marker, [letters] * marker + [axis],
                        values)


def chi_window(group: FreeGroup, s0: Letter, radius: int) -> WindowConfig:
    """The indicator of <s0> restricted to B_radius (1 exactly on the powers
    of s0): x0_window with the marker as 1 and every letter as 0."""
    return _marker_window(group, s0, radius, [0] * (2 * group.rank) + [1])


def x0_window(group: FreeGroup, s0: Letter, radius: int) -> WindowConfig:
    """The distinguished SFT point over B_radius: marker on the s0-axis,
    last letter everywhere else."""
    return _marker_window(group, s0, radius,
                          [*map(group.format_letter, group.letters), MARK])


def special_symbol_sft(group: FreeGroup, s0: Letter) -> tuple[Sft, dict]:
    """The special-symbol SFT and its projection to {0, 1}.

    Rules over the window B_1: a marker at the center forces markers in the
    s0 and s0^-1 directions and the direction letter elsewhere; a letter c
    at the center forces the direction letter in every direction other than
    c^-1.  The projection sends the marker to 1 and every letter to 0.
    """
    if group.rank < 2:
        raise ValueError("the special symbol construction needs rank >= 2")
    if letter_sign(s0) != 1:
        raise ValueError("the subgroup generator must be a positive letter")
    letter_of = {group.format_letter(c): c for c in group.letters}
    symbols = [MARK, *letter_of]
    axis = {s0, inverse_letter(s0)}

    def follow(a, t):
        if a == MARK and t in axis:
            return {MARK}
        if a != MARK and t == inverse_letter(letter_of[a]):
            return symbols
        return {group.format_letter(t)}

    allowed = {(a, t): follow(a, t) for a in symbols for t in group.letters}
    sft = Sft(group, Alphabet(symbols), group.ball(1), allowed=allowed)
    return sft, {a: int(a == MARK) for a in symbols}


def return_set(group: FreeGroup, config: WindowConfig, u: Pattern,
               depth: int) -> tuple:
    """All g in B_depth whose inverse translate of the config matches the
    pattern: config(g * f) = u(f) on the pattern's support.

    The config must cover B_depth * support(u); a too-small window raises
    with the missing words named.
    """
    ball = group.ball(depth)
    gathers = _gather(config.domain, ball, u.support)
    missing = _missing(ball, u.support, gathers)
    if missing:
        raise ValueError(
            f"config window too small for depth {depth}: missing {missing}")
    at = config.values.__getitem__
    return tuple(g for g, idx in zip(ball, gathers)
                 if tuple(map(at, idx)) == u.values)
