"""Reduced words and Cayley-ball geometry of a finitely generated free group.

Letters of the symmetric generating set S = S0 u S0^-1 are encoded as small
ints: generator i is ``2*i``, its inverse is ``2*i + 1``.  That makes
``inverse_letter`` a single xor and gives letters the total order
(generator index, then sign) used everywhere for deterministic enumeration.
Words are plain tuples of letters, always stored reduced; the empty tuple is
the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

Letter = int
Word = tuple  # tuple[Letter, ...], reduced

EPSILON: Word = ()


def letter(index: int, sign: int = 1) -> Letter:
    """Letter for generator `index`, sign +1 (generator) or -1 (inverse)."""
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    return 2 * index + (0 if sign == 1 else 1)


def letter_index(x: Letter) -> int:
    return x >> 1


def letter_sign(x: Letter) -> int:
    return -1 if x & 1 else 1


def inverse_letter(x: Letter) -> Letter:
    return x ^ 1


def reduce_word(letters: Iterable[Letter]) -> Word:
    """Unique reduced form of a letter sequence (cancel adjacent x, x^-1)."""
    stack: list[Letter] = []
    for x in letters:
        if stack and stack[-1] == x ^ 1:
            stack.pop()
        else:
            stack.append(x)
    return tuple(stack)


def concat(u: Word, v: Word) -> Word:
    """Reduced product u * v of two reduced words."""
    i = len(u)
    j = 0
    nv = len(v)
    while i > 0 and j < nv and u[i - 1] == v[j] ^ 1:
        i -= 1
        j += 1
    return u[:i] + v[j:]


def mul_letter(w: Word, x: Letter) -> Word:
    """Reduced product w * x for a single letter x."""
    if w and w[-1] == x ^ 1:
        return w[:-1]
    return w + (x,)


def inverse(w: Word) -> Word:
    return tuple(x ^ 1 for x in reversed(w))


def word_key(w: Word) -> tuple:
    """Sort key giving the canonical ball order: by length, then lexicographic."""
    return (len(w), w)


@lru_cache(maxsize=None)
def _ball(rank: int, k: int) -> tuple:
    if k == 0:
        return (EPSILON,)
    prev = _ball(rank, k - 1)
    start = len(_ball(rank, k - 2)) if k >= 2 else 0
    letters = range(2 * rank)
    out = list(prev)
    for w in prev[start:]:
        last = w[-1] ^ 1 if w else -1
        for x in letters:
            if x != last:
                out.append(w + (x,))
    return tuple(out)


def _walk_ball(ball: Sequence[Word], root, table) -> dict:
    """The state of a deterministic automaton after reading each word of a
    prefix-closed ball in canonical order: `root` at the identity, and
    table[state][x] after appending the letter x."""
    state = {EPSILON: root}
    for w in ball[1:]:
        state[w] = table[state[w[:-1]]][w[-1]]
    return state


@dataclass(frozen=True)
class FreeGroup:
    """Context for a free group of rank d >= 1 with its symmetric letter set.

    Word arithmetic (reduce/concat/inverse) does not depend on the rank; the
    context is what knows which letters exist, so it owns ball enumeration,
    Cayley-graph connectivity and the string format.
    """

    rank: int

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")
        if self.rank > 26:
            raise ValueError("letter serialization supports rank <= 26")

    @property
    def letters(self) -> range:
        return range(2 * self.rank)

    def ball(self, k: int) -> tuple:
        """B_k: all reduced words of length <= k, in canonical order.

        The order is by length then lexicographic, so it is prefix-closed.
        """
        if k < 0:
            raise ValueError("radius must be non-negative")
        return _ball(self.rank, k)

    def sphere(self, k: int) -> tuple:
        if k == 0:
            return (EPSILON,)
        return self.ball(k)[len(self.ball(k - 1)):]

    def ball_size(self, k: int) -> int:
        """Closed formula |B_k| = 1 + 2d ((2d-1)^k - 1)/(2d-2) for d >= 2."""
        d = self.rank
        if d == 1:
            return 2 * k + 1
        return 1 + 2 * d * ((2 * d - 1) ** k - 1) // (2 * d - 2)

    def is_connected(self, words: Iterable[Word]) -> bool:
        """Whether the induced subgraph of the Cayley graph on `words` is
        connected (u, v adjacent iff u^-1 v is a single letter)."""
        remaining = set(words)
        if not remaining:
            raise ValueError("connectivity is undefined for the empty set")
        seed = min(remaining, key=word_key)
        stack = [seed]
        remaining.discard(seed)
        while stack:
            w = stack.pop()
            for x in self.letters:
                nb = mul_letter(w, x)
                if nb in remaining:
                    remaining.discard(nb)
                    stack.append(nb)
        return not remaining

    # -- string format: 'a'..'z' for generators, 'A'..'Z' for inverses,
    #    "e" for the empty word.

    def format_letter(self, x: Letter) -> str:
        i = letter_index(x)
        if not 0 <= i < self.rank:
            raise ValueError(f"letter {x} out of range for rank {self.rank}")
        return chr((65 if x & 1 else 97) + i)

    def format_word(self, w: Word) -> str:
        if not w:
            return "e"
        return "".join(self.format_letter(x) for x in w)

    def parse_letter(self, c: str) -> Letter:
        if "a" <= c <= "z":
            x = 2 * (ord(c) - 97)
        elif "A" <= c <= "Z":
            x = 2 * (ord(c) - 65) + 1
        else:
            raise ValueError(f"invalid letter {c!r}")
        if letter_index(x) >= self.rank:
            raise ValueError(f"letter {c!r} out of range for rank {self.rank}")
        return x

    def parse_word(self, s: str) -> Word:
        """Parse a letter string; reduces the result.

        The bare string "e" is the identity.  For rank >= 5 this shadows the
        one-letter word in generator 4; ranks used in practice are <= 4.
        """
        if s in ("", "e"):
            return EPSILON
        return reduce_word(self.parse_letter(c) for c in s)
