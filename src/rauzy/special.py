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

from .patterns import Alphabet, Pattern, Sft, WindowConfig
from .words import (
    EPSILON,
    FreeGroup,
    Letter,
    concat,
    inverse_letter,
    letter_sign,
    word_key,
)

MARK = "*"


def chi_window(group: FreeGroup, s0: Letter, radius: int) -> WindowConfig:
    """The indicator of <s0> restricted to B_radius (1 exactly on the powers
    of s0)."""
    if letter_sign(s0) != 1:
        raise ValueError("the subgroup generator must be a positive letter")
    values = {}
    for w in group.ball(radius):
        on_axis = all(x >> 1 == s0 >> 1 for x in w)
        values[w] = 1 if on_axis else 0
    return WindowConfig(values)


def x0_window(group: FreeGroup, s0: Letter, radius: int) -> WindowConfig:
    """The distinguished SFT point over B_radius: marker on the s0-axis,
    last letter everywhere else."""
    if letter_sign(s0) != 1:
        raise ValueError("the subgroup generator must be a positive letter")
    values = {}
    for w in group.ball(radius):
        if all(x >> 1 == s0 >> 1 for x in w):
            values[w] = MARK
        else:
            values[w] = group.format_letter(w[-1])
    return WindowConfig(values)


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
    letters = list(group.letters)
    symbols = [MARK] + [group.format_letter(s) for s in letters]
    alphabet = Alphabet(symbols)
    axis = {s0, inverse_letter(s0)}
    forbidden = set()
    for t in letters:
        tw = (t,)
        want = MARK if t in axis else group.format_letter(t)
        for sym in symbols:
            if sym != want:
                forbidden.add(Pattern({EPSILON: MARK, tw: sym}))
        for c in letters:
            if t == inverse_letter(c):
                continue
            target = group.format_letter(t)
            for sym in symbols:
                if sym != target:
                    forbidden.add(
                        Pattern({EPSILON: group.format_letter(c), tw: sym}))
    window = {EPSILON} | {(t,) for t in letters}
    sft = Sft(group, alphabet, forbidden, window)
    proj = {MARK: 1}
    for s in letters:
        proj[group.format_letter(s)] = 0
    return sft, proj


def project_config(config: WindowConfig, proj: dict) -> WindowConfig:
    return WindowConfig({w: proj[v] for w, v in config.items})


def return_set(group: FreeGroup, config: WindowConfig, u: Pattern,
               depth: int) -> tuple:
    """All g in B_depth whose inverse translate of the config matches the
    pattern: config(g * f) = u(f) on the pattern's support.

    The config must cover B_depth * support(u); a too-small window raises
    with the missing words named.
    """
    domain = set(config.domain)
    support = u.support
    missing = sorted(
        {concat(g, f) for g in group.ball(depth) for f in support} - domain,
        key=word_key)
    if missing:
        raise ValueError(
            f"config window too small for depth {depth}: missing {missing}")
    out = []
    for g in group.ball(depth):
        if all(config[concat(g, f)] == u[f] for f in support):
            out.append(g)
    return tuple(out)
