"""Reduced words and Cayley-ball geometry of a finitely generated free group.

Letters of the symmetric generating set S = S0 u S0^-1 are encoded as small
ints: generator i is ``2*i``, its inverse is ``2*i + 1``.  That makes
``inverse_letter`` a single xor and gives letters the total order
(generator index, then sign) used everywhere for deterministic enumeration.
Words are plain tuples of letters, always stored reduced; the empty tuple is
the identity.

The ball B_k is cached once, as a ``Domain`` and a Cayley tree: ``_ball``
gives, per position, the position of w[:-1] and the letter w[-1], and every
automaton walk over a ball (x_T, z0, the marker point, Schreier codings,
certificates) reads these, not words.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from typing import Iterable, Sequence

Letter = int
Word = tuple  # tuple[Letter, ...], reduced

EPSILON: Word = ()

# Generator i prints as the i-th of these and its inverse as the capital;
# "e" names the identity, so e and E are skipped and the rank is at most 25.
_GENERATORS = "abcdfghijklmnopqrstuvwxyz"
_LETTER_NAMES = tuple(c for g in _GENERATORS for c in (g, g.upper()))
_LETTER_OF = {c: x for x, c in enumerate(_LETTER_NAMES)}


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


class Domain:
    """Distinct words in canonical ball order, with their hash and a
    word -> position index, each computed on first use.

    The words are trusted to be in canonical order; ``Domain.of`` sorts.
    One Domain is shared by every config of an enumeration.
    """

    __slots__ = ("words", "_hash", "_index")

    def __init__(self, words: Sequence[Word]):
        self.words = tuple(words)
        self._hash = self._index = None

    @classmethod
    def of(cls, words: Iterable[Word]) -> "Domain":
        return cls(sorted(set(words), key=word_key))

    @property
    def index(self) -> dict:
        if self._index is None:
            self._index = {w: i for i, w in enumerate(self.words)}
        return self._index

    def __len__(self) -> int:
        return len(self.words)

    def __iter__(self):
        return iter(self.words)

    def __eq__(self, other):
        return self is other or (isinstance(other, Domain)
                                 and self.words == other.words)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.words)
        return self._hash


# bounded, so that a long-lived process drops the balls it no longer uses
@lru_cache(maxsize=8)
def _ball(rank: int, k: int) -> tuple:
    """(domain, parent, last) of B_k: the Domain of its words in canonical
    order, the position parent[i] of words[i][:-1] and the letter last[i] =
    words[i][-1] as bytes (both 0 at the identity), built sphere by sphere,
    each word extended by every letter that does not cancel its last."""
    letters = range(2 * rank)
    # per last letter b, the letters that do not cancel it; at the identity,
    # whose last letter reads 2 * rank while the ball grows, all of them
    rows = [[x for x in letters if x != b ^ 1] for b in letters] + [letters]
    words, parent, last = [EPSILON], [0], [2 * rank]
    sphere = range(1)
    for _ in range(k):
        words += [words[i] + (x,) for i in sphere for x in rows[last[i]]]
        parent += [i for i in sphere for _ in rows[last[i]]]
        last += [x for i in sphere for x in rows[last[i]]]
        sphere = range(sphere.stop, len(words))
    last[0] = 0
    return Domain(words), tuple(parent), bytes(last)


def _walk_ball(rank: int, radius: int, root, table) -> list:
    """The state of an automaton at each position i of B_radius: `root`
    at the identity, else table[state at parent[i]][last[i]]."""
    _, parent, last = _ball(rank, radius)
    state = [root]
    for p, x in islice(zip(parent, last), 1, None):
        state.append(table[state[p]][x])
    return state


def _bfs(succ, seeds: Iterable, stop=()) -> dict:
    """Breadth-first search along succ[node] from the seeds: {node:
    predecessor} in discovery order, each seed mapped to None, successors
    tried in list order.  It returns as soon as it reaches a node of stop,
    which is then the last key."""
    pred = {}
    for x in seeds:
        pred[x] = None
        if x in stop:
            return pred
    queue = list(pred)
    for x in queue:
        for y in succ[x]:
            if y not in pred:
                pred[y] = x
                if y in stop:
                    return pred
                queue.append(y)
    return pred


@dataclass(frozen=True)
class FreeGroup:
    """Context for a free group of rank d >= 1 with its symmetric letter set.

    Word arithmetic (reduce/concat/inverse) does not depend on the rank; the
    context is what knows which letters exist, so it owns ball enumeration,
    Cayley-graph connectivity and the string format.
    """

    rank: int

    def __post_init__(self):
        if not 1 <= self.rank <= len(_GENERATORS):
            raise ValueError(f"rank must be from 1 to {len(_GENERATORS)}, "
                             f"got {self.rank}")

    @property
    def letters(self) -> range:
        return range(2 * self.rank)

    def ball(self, k: int) -> tuple:
        """B_k: all reduced words of length <= k, in canonical order (by
        length then lexicographic, so it is prefix-closed)."""
        if k < 0:
            raise ValueError("radius must be non-negative")
        return _ball(self.rank, k)[0].words

    def sphere(self, k: int) -> tuple:
        return self.ball(k)[self.ball_size(k - 1) if k else 0:]

    def ball_size(self, k: int) -> int:
        """Closed formula |B_k| = 1 + 2d ((2d-1)^k - 1)/(2d-2) for d >= 2."""
        d = self.rank
        if d == 1:
            return 2 * k + 1
        return 1 + 2 * d * ((2 * d - 1) ** k - 1) // (2 * d - 2)

    def is_connected(self, words: Iterable[Word]) -> bool:
        """Whether the induced subgraph of the Cayley graph on `words` is
        connected (u, v adjacent iff u^-1 v is a single letter)."""
        words = set(words)
        if not words:
            raise ValueError("connectivity is undefined for the empty set")
        succ = {w: [u for x in self.letters
                    if (u := mul_letter(w, x)) in words] for w in words}
        return len(_bfs(succ, (next(iter(words)),))) == len(words)

    # -- string format: 'a'..'z' without 'e' for generators, 'A'..'Z'
    #    without 'E' for inverses, "e" for the empty word.

    def format_letter(self, x: Letter) -> str:
        if not 0 <= x < 2 * self.rank:
            raise ValueError(f"letter {x} out of range for rank {self.rank}")
        return _LETTER_NAMES[x]

    def format_word(self, w: Word) -> str:
        if not w:
            return "e"
        return "".join(self.format_letter(x) for x in w)

    def parse_letter(self, c: str) -> Letter:
        x = _LETTER_OF.get(c)
        if x is None:
            raise ValueError(f"invalid letter {c!r}")
        if x >= 2 * self.rank:
            raise ValueError(f"letter {c!r} out of range for rank {self.rank}")
        return x

    def parse_word(self, s: str) -> Word:
        """Parse a letter string; reduces the result.  The bare string "e"
        is the identity."""
        if s in ("", "e"):
            return EPSILON
        return reduce_word(self.parse_letter(c) for c in s)
