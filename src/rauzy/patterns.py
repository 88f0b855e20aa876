"""Patterns, SFTs and locally admissible window enumeration.

A pattern is a finite partial coloring of the group: a map from a finite set
of reduced words to alphabet symbols.  Every SFT is one-step: it bans
symbols a, and holds per symbol a and letter s the set of symbols allowed
at w*s next to a at w; wider supports F recode to the vertex SFT of
``graphs.pattern_graph`` over F through ``iota``/``window_j``.  Everything
here is local: ``enumerate_window`` produces the *locally admissible*
colorings of a finite domain (no ban occurs inside it), which is all that
is decidable at finite scale.  Global admissibility is never claimed.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import Iterable, Mapping, Sequence

from .words import (EPSILON, Domain, FreeGroup, Word, _ball, _walk_ball,
                    concat, inverse, word_key)


class CapExceededError(RuntimeError):
    """Raised when window enumeration would produce more configs than allowed."""


class Alphabet:
    """A finite ordered set of opaque symbols."""

    __slots__ = ("symbols", "_index")

    def __init__(self, symbols: Sequence):
        symbols = tuple(symbols)
        if not symbols:
            raise ValueError("alphabet must be nonempty")
        index = {}
        for i, s in enumerate(symbols):
            if s in index:
                raise ValueError(f"duplicate symbol {s!r}")
            index[s] = i
        self.symbols = symbols
        self._index = index

    def index(self, symbol) -> int:
        return self._index[symbol]

    def __contains__(self, symbol) -> bool:
        return symbol in self._index

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)


class Pattern:
    """A finite partial coloring: words -> symbols, total on its support.

    Stored as a Domain and the tuple of values at its words, so patterns
    with equal supports share one Domain and compare by value.
    """

    __slots__ = ("domain", "values", "_hash")

    def __init__(self, values: Mapping | Iterable[tuple]):
        mapping = dict(values)
        self.domain = Domain.of(mapping)
        self.values = tuple(mapping[w] for w in self.domain.words)
        self._hash = None

    @classmethod
    def _of(cls, domain: Domain, values: tuple):
        """Trusted constructor: `values` lists the symbols at the domain's
        words, in its order."""
        self = object.__new__(cls)
        self.domain = domain
        self.values = values
        self._hash = None
        return self

    @property
    def items(self) -> tuple:
        return tuple(zip(self.domain.words, self.values))

    @property
    def support(self) -> tuple:
        return self.domain.words

    def __getitem__(self, w: Word):
        return self.values[self.domain.index[w]]

    def get(self, w: Word, default=None):
        i = self.domain.index.get(w)
        return default if i is None else self.values[i]

    def __contains__(self, w: Word) -> bool:
        return w in self.domain.index

    def __len__(self) -> int:
        return len(self.values)

    def __eq__(self, other):
        return (isinstance(other, Pattern) and self.values == other.values
                and self.domain == other.domain)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.items)
        return self._hash

    def __repr__(self):
        body = ", ".join(f"{w}: {v!r}" for w, v in self.items)
        return f"{type(self).__name__}({{{body}}})"


class WindowConfig(Pattern):
    """A coloring of a finite window of the group (same data as a Pattern,
    read as an observed configuration rather than a constraint)."""


def _ball_window(group: FreeGroup, radius: int, root, table,
                 values) -> WindowConfig:
    """The window on B_radius with values[state] at each word, for the
    state an automaton reaches reading the word from `root` through
    table[state][letter]."""
    return WindowConfig._of(_ball(group.rank, radius)[0], tuple(
        map(values.__getitem__, _walk_ball(group.rank, radius, root, table))))


def project(config: WindowConfig, symbols: Mapping) -> WindowConfig:
    """The config with each value a replaced by symbols[a]."""
    return WindowConfig._of(config.domain,
                            tuple(map(symbols.__getitem__, config.values)))


class WindowLanguage:
    """The set of patterns with a common support occurring in some configs.

    Keeps the source configs so that downstream constructions (graphs read
    off a window) can ask whether a larger pattern occurs in the same data.
    """

    __slots__ = ("support", "patterns", "sources")

    def __init__(self, support: Sequence[Word], patterns: Iterable[Pattern],
                 sources: Iterable[WindowConfig] = ()):
        self.support = tuple(sorted(support, key=word_key))
        self.patterns = frozenset(patterns)
        self.sources = tuple(sources)

    def sorted_patterns(self) -> tuple:
        return tuple(sorted(self.patterns,
                            key=lambda p: tuple(map(repr, p.values))))

    def __len__(self):
        return len(self.patterns)

    def __iter__(self):
        return iter(self.patterns)


class Sft:
    """A one-step SFT over a defining window: no symbol of `banned` occurs,
    and b sits at w*s next to a at w only if b is in allowed[a, s]; a key
    that is absent allows every symbol.  Each key letter s has (s,) in the
    window, which may be larger."""

    def __init__(self, group: FreeGroup, alphabet: Alphabet,
                 window: Iterable[Word], banned: Iterable = (),
                 allowed: Mapping = {}):
        self.group = group
        self.alphabet = alphabet
        self.window = frozenset(window)
        self.banned = frozenset(banned)
        self.allowed = {key: frozenset(bs) for key, bs in allowed.items()}
        if EPSILON not in self.window:
            raise ValueError("defining window must contain the identity")
        for a in self.banned:
            if a not in alphabet:
                raise ValueError(f"banned symbol {a!r} is not in the alphabet")
        for a, s in self.allowed:
            if a not in alphabet:
                raise ValueError(f"rule symbol {a!r} is not in the alphabet")
            if (s,) not in self.window:
                raise ValueError(f"rule letter {group.format_letter(s)} is "
                                 "not one step inside the defining window")

    @cached_property
    def follow_table(self) -> tuple:
        """(first, follow), built once: the symbols not banned at a site,
        and follow[a, s] for a in first: in alphabet order, the symbols b
        of first with b in allowed[a, s] and a in allowed[b, s^-1]."""
        first = tuple(a for a in self.alphabet.symbols if a not in self.banned)
        rank = {a: i for i, a in enumerate(first)}
        get = self.allowed.get      # an absent key allows all of first
        follow = {(a, s): tuple(sorted(
            (b for b in get((a, s), rank)
             if b in rank and a in get((b, s ^ 1), rank)), key=rank.get))
                  for a in first for s in self.group.letters}
        return first, follow


def full_shift(group: FreeGroup, alphabet: Alphabet) -> Sft:
    return Sft(group, alphabet, (EPSILON,))


def translate_pattern(s: Word, p: Pattern) -> Pattern:
    """The translate s.p with support s*F and (s.p)(f) = p(s^-1 f)."""
    cls = type(p)
    return cls({concat(s, w): v for w, v in p.items})


def compatible(p1: Pattern, p2: Pattern) -> bool:
    """Whether two patterns agree on the intersection of their supports."""
    if len(p2) < len(p1):
        p1, p2 = p2, p1
    for w, v in zip(p1.domain, p1.values):
        u = p2.get(w, v)
        if u != v:
            return False
    return True


@lru_cache(maxsize=32)
def _shape(F: tuple) -> Domain:
    """The shape F as a Domain of distinct words containing the identity,
    one Domain per F, shared by the patterns read with that shape."""
    shape = Domain.of(F)
    if EPSILON not in shape.words:
        raise ValueError("F must contain the identity")
    return shape


@lru_cache(maxsize=32)
def _pattern_shape(group: FreeGroup, F: tuple) -> Domain:
    """The shape F of iota and window_j, checked once per F: it contains
    the identity and F^-1 is connected in the Cayley graph."""
    shape = _shape(F)
    if not group.is_connected([inverse(f) for f in shape]):
        raise ValueError("F^-1 must be connected in the Cayley graph")
    return shape


@lru_cache(maxsize=32)
def _gather(domain: Domain, gs: tuple, F: tuple) -> tuple:
    """For each g of gs, the positions in `domain` of the words g*f, in F's
    order, with None for a word outside the domain."""
    get = domain.index.get
    return tuple(tuple(get(concat(g, f)) for f in F) for g in gs)


def _missing(gs: Sequence[Word], F: Sequence[Word], gathers: tuple) -> list:
    """The words g*f that `gathers`, read off ``_gather(domain, gs, F)``,
    found outside the domain, sorted by word_key."""
    return sorted({concat(g, f) for g, idx in zip(gs, gathers)
                   for f, k in zip(F, idx) if k is None}, key=word_key)


@lru_cache(maxsize=32)
def _placements(domain: Domain, F: tuple) -> tuple:
    """(shape, placements) for a sorted F: F as a Domain, and each g with
    g*F inside the domain, once, with the positions of g*F in it.

    Every such g is w * F[0]^-1 for exactly one w in the domain."""
    anchor_inv = inverse(F[0])
    gs = tuple(concat(w, anchor_inv) for w in domain)
    gathers = _gather(domain, gs, F)
    return Domain(F), tuple((g, idx) for g, idx in zip(gs, gathers)
                            if None not in idx)


def _patterns_at(config: WindowConfig, F: Sequence[Word]) -> dict:
    """{g: the F-pattern f -> config(g*f)} over every placement of the
    sorted F inside the config's domain."""
    shape, placed = _placements(config.domain, tuple(F))
    at = config.values.__getitem__
    return {g: Pattern._of(shape, tuple(map(at, idx))) for g, idx in placed}


def enumerate_window(sft: Sft, domain: Iterable[Word],
                     cap: int = 10_000_000) -> tuple:
    """All locally admissible colorings of `domain`, in deterministic order.

    Depth-first backtracking in the canonical ball order.  Words with the
    identity are connected in the Cayley tree iff each one's parent w[:-1]
    is among them, so a word meets the words colored before it only at its
    parent, and its candidates are follow[parent's symbol, w[-1]]: one
    step per search-tree node.  Every config shares one Domain.  Raises
    CapExceededError if more than `cap` configs would be produced.
    """
    dom = Domain.of(domain)
    order = dom.words
    if not order or order[0] != EPSILON:
        raise ValueError("domain must contain the identity")
    parent = [dom.index.get(w[:-1]) for w in order]
    if None in parent or any(w[-1] not in sft.group.letters for w in order[1:]):
        raise ValueError("domain must be connected in the Cayley graph")
    n = len(order)
    first, follow = sft.follow_table
    make = WindowConfig._of
    out = []
    assignment = [None] * n

    def extend(k: int):
        if k == n:
            if len(out) >= cap:
                raise CapExceededError(
                    f"window enumeration cap exceeded ({cap} configs)")
            out.append(make(dom, tuple(assignment)))
            return
        for sym in follow[assignment[parent[k]], order[k][-1]] if k else first:
            assignment[k] = sym
            extend(k + 1)

    extend(0)
    return tuple(out)


def is_locally_admissible(sft: Sft, config: WindowConfig) -> bool:
    """Whether no banned symbol or pair occurs inside the config, whose
    domain may be disconnected: each symbol is in first, and for positive s
    (follow is symmetric) each symbol at w*s is in follow[config(w), s]."""
    first, follow = sft.follow_table
    values = config.values
    letters = sft.group.letters[::2]
    steps = _gather(config.domain, config.domain.words,
                    tuple((s,) for s in letters))
    return (all(v in first for v in values)
            and all(values[k] in follow[a, s]
                    for a, idx in zip(values, steps)
                    for s, k in zip(letters, idx) if k is not None))


@lru_cache(maxsize=32)
def _iota_gathers(group: FreeGroup, domain: Domain, F: tuple) -> tuple:
    """(shape, out, take, again, at) for flattening configs on `domain`.

    Reading the F-patterns in domain order, value n is the pattern at
    domain word n // |F| evaluated at shape word n % |F|.  The flat config
    lives on `out` = domain * F; its value k is value take[k], the first
    one to land on out word k, and every later value again[j] lands on out
    word at[j] and must agree with it.
    """
    shape = _pattern_shape(group, F)
    out = Domain.of(concat(g, f) for g in domain for f in shape)
    gathers = _gather(out, domain.words, shape.words)
    take = [None] * len(out)
    again, at = [], []
    for n, k in enumerate(k for idx in gathers for k in idx):
        if take[k] is None:
            take[k] = n
        else:
            again.append(n)
            at.append(k)
    return shape, out, tuple(take), tuple(again), tuple(at)


def iota(group: FreeGroup, F: Sequence[Word], config: WindowConfig) -> WindowConfig:
    """Flatten a config whose symbols are F-patterns into a plain config.

    The value at g*f is config(g)(f); the center rule value(g) = config(g)(eps)
    is the special case f = eps.  Overlapping placements must agree, which
    holds exactly for admissible configs of the pattern graph's SFT; a
    conflict raises ValueError.
    """
    shape, out, take, again, at = _iota_gathers(group, config.domain,
                                                tuple(F))
    flat = []
    for pat in config.values:
        if not isinstance(pat, Pattern):
            raise TypeError("iota needs a config over pattern symbols")
        flat += (pat.values if pat.domain == shape
                 else [pat[f] for f in shape])
    values = tuple(map(flat.__getitem__, take))
    for n, k in zip(again, at):
        if flat[n] != values[k]:
            raise ValueError(f"incompatible overlaps at {out.words[k]}: "
                             f"{values[k]!r} vs {flat[n]!r}")
    return WindowConfig._of(out, values)


@lru_cache(maxsize=32)
def _window_j_gathers(group: FreeGroup, domain: Domain, F: tuple,
                      targets: tuple) -> tuple:
    """(shape, out, gathers): the sorted targets as a Domain and, for each,
    the positions of target * F in `domain`."""
    shape = _pattern_shape(group, F)
    out = Domain.of(targets)
    gathers = _gather(domain, out.words, shape.words)
    missing = _missing(out.words, shape.words, gathers)
    if missing:
        raise ValueError(f"config domain missing words: {missing}")
    return shape, out, gathers


def window_j(group: FreeGroup, F: Sequence[Word], config: WindowConfig,
             domain: Iterable[Word]) -> WindowConfig:
    """Repackage a plain config as a config over F-patterns on `domain`:
    the pattern at g has values f -> config(g*f).

    Inverse of `iota` where both are defined.  Raises ValueError naming the
    missing words if the config does not cover domain * F.
    """
    shape, out, gathers = _window_j_gathers(group, config.domain, tuple(F),
                                            tuple(domain))
    at = config.values.__getitem__
    return WindowConfig._of(out, tuple(Pattern._of(shape, tuple(map(at, idx)))
                                       for idx in gathers))


def tag_symbol(tag: str, symbol) -> str:
    """Tagged copy of a symbol for disjoint unions ("L:.."/"R:..")."""
    return f"{tag}:{symbol}"


def disjoint_union(x: Sft, y: Sft) -> Sft:
    """The SFT of the disjoint union of two subshifts over tagged alphabets.

    Each tagged symbol allows only tagged copies of the symbols its own side
    allows (that side's whole alphabet for an absent key), which pins each
    configuration inside one of the two alphabets.
    """
    if x.group != y.group:
        raise ValueError("disjoint union needs a common group")
    group = x.group
    tagged = (("L", x), ("R", y))
    symbols = [tag_symbol(tag, a) for tag, z in tagged for a in z.alphabet]
    banned = [tag_symbol(tag, a) for tag, z in tagged for a in z.banned]
    allowed = {(tag_symbol(tag, a), s): [tag_symbol(tag, b) for b in
                                         z.allowed.get((a, s), z.alphabet)]
               for tag, z in tagged for a in z.alphabet for s in group.letters}
    window = x.window | y.window | set(group.ball(1))
    return Sft(group, Alphabet(symbols), window, banned, allowed)


def restrict_language(configs: Iterable[WindowConfig],
                      F: Sequence[Word]) -> WindowLanguage:
    """All F-patterns occurring in the configs at any admissible position.

    A position is any g with g*F inside the config's domain; the recorded
    pattern is f -> config(g*f).
    """
    F = tuple(sorted(set(F), key=word_key))
    configs = tuple(configs)
    patterns = set()
    for config in configs:
        patterns.update(_patterns_at(config, F).values())
    return WindowLanguage(F, patterns, configs)
