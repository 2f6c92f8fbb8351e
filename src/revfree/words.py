"""Core word values: finite words, factor sets, and descriptions of infinite words."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:
    from .morphisms import Morphism

# The symbol i of every alphabet is the digit LETTERS[i]: a word is its digit string.
LETTERS = "0123456789"
_FLIP = str.maketrans("01", "10")


def alphabet(s: int) -> str:
    """The letters of an alphabet of size s, which must be in 1..10."""
    if not 1 <= s <= 10:
        raise ValueError(f"alphabet size {s} is not in 1..10")
    return LETTERS[:s]


@dataclass(frozen=True, slots=True)
class Word:
    """An immutable finite word over the alphabet {0, ..., alphabet_size - 1},
    held as its digit string `text`.

    The alphabet size is carried explicitly: the digit string "01" denotes
    different objects over a binary and a ternary alphabet (complementation
    and search semantics differ).  It is at most 10, so that every symbol
    is one digit; digit strings order as their symbol tuples do.
    """

    text: str
    alphabet_size: int

    def __post_init__(self) -> None:
        stray = self.text.strip(alphabet(self.alphabet_size))
        if stray:
            raise ValueError(
                f"symbol {stray[0]!r} out of range for alphabet of size {self.alphabet_size}"
            )

    @classmethod
    def parse(cls, text: str, alphabet_size: int | None = None) -> Word:
        """Parse a string of the digits 0-9 like "0012".

        When no alphabet size is given it is inferred as (largest digit + 1);
        the empty string parses to the empty word over a unary alphabet.
        """
        text = text.strip()
        if text and not (text.isascii() and text.isdigit()):
            raise ValueError(f"not a digit string: {text!r}")
        if alphabet_size is None:
            alphabet_size = int(max(text, default="0")) + 1
        return cls(text, alphabet_size)

    @property
    def symbols(self) -> tuple[int, ...]:
        return tuple(map(int, self.text))

    def __len__(self) -> int:
        return len(self.text)

    def __iter__(self) -> Iterator[int]:
        return map(int, self.text)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Word(self.text[index], self.alphabet_size)
        return int(self.text[index])

    def __str__(self) -> str:
        return self.text

    def __lt__(self, other: Word) -> bool:
        return self.text < other.text

    def __add__(self, other: Word) -> Word:
        if other.alphabet_size != self.alphabet_size:
            raise ValueError("cannot concatenate words over different alphabets")
        return Word(self.text + other.text, self.alphabet_size)

    def startswith(self, prefix: Word) -> bool:
        return self.text.startswith(prefix.text)


@dataclass(frozen=True)
class FactorSet:
    """A set of distinct words sharing one common length."""

    length: int
    members: frozenset[Word]

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError("factor length must be at least 1")
        for m in self.members:
            if len(m) != self.length:
                raise ValueError(f"member {m} does not have length {self.length}")
        if len({m.alphabet_size for m in self.members}) > 1:
            raise ValueError("members must share one alphabet")

    def __contains__(self, w: Word) -> bool:
        return w in self.members

    def __iter__(self) -> Iterator[Word]:
        return iter(sorted(self.members))

    def __len__(self) -> int:
        return len(self.members)


class StreamSpec:
    """Finite description of an infinite word: each kind gives its
    `alphabet_size` and `_prefix(n)`, its first n symbols as one digit string."""


@dataclass(frozen=True)
class Periodic(StreamSpec):
    """The ultimately periodic word preamble . period . period . period ..."""

    preamble: Word
    period: Word

    def __post_init__(self) -> None:
        if len(self.period) == 0:
            raise ValueError("period must be nonempty")
        if self.preamble.alphabet_size != self.period.alphabet_size:
            raise ValueError("preamble and period must share an alphabet")

    @property
    def alphabet_size(self) -> int:
        return self.period.alphabet_size

    def _prefix(self, n: int) -> str:
        period = self.period.text
        return (self.preamble.text + period * (n // len(period) + 1))[:n]


@dataclass(frozen=True)
class MorphicImage(StreamSpec):
    """The letterwise image of another infinite word under a morphism."""

    morphism: "Morphism"
    inner: StreamSpec

    def __post_init__(self) -> None:
        if not isinstance(self.inner, StreamSpec):
            raise TypeError(f"not a stream spec: {self.inner!r}")
        if self.inner.alphabet_size != self.morphism.domain_size:
            raise ValueError("inner stream alphabet does not match morphism domain")

    @property
    def alphabet_size(self) -> int:
        return self.morphism.codomain_size

    def _prefix(self, n: int) -> str:
        # images are nonempty, so n inner symbols give at least n symbols
        return self.inner._prefix(n).translate(self.morphism.table)[:n]


def _thue_prefix(n: int) -> str:
    # Iterates of 0 -> 012, 1 -> 02, 2 -> 1 on "0": each extends the last,
    # because the image of 0 starts with 0.
    table = str.maketrans({"0": "012", "1": "02", "2": "1"})
    text = "0"
    while len(text) < n:
        text = text.translate(table)
    return text[:n]


def _runs_prefix(n: int) -> str:
    # The runs 1, 10, 100, ...: r of them hold r(r + 1)/2 > n symbols once r > sqrt(2n).
    return "".join("1" + "0" * r for r in range(math.isqrt(2 * n) + 1))[:n]


# name -> (alphabet size, builder of the first n symbols)
_BUILTINS = {
    "nonperiodic-binary": (2, _runs_prefix),
    "thue-squarefree-ternary": (3, _thue_prefix),
}
BUILTIN_NAMES = tuple(_BUILTINS)


@dataclass(frozen=True)
class Builtin(StreamSpec):
    """A named word: "nonperiodic-binary" (the concatenation 1 10 100
    1000 ..., nonperiodic since its runs of zeros strictly grow) or
    "thue-squarefree-ternary" (the squarefree fixed point of 0 -> 012,
    1 -> 02, 2 -> 1)."""

    name: str

    def __post_init__(self) -> None:
        if self.name not in _BUILTINS:
            raise ValueError(f"unknown builtin {self.name!r}; choose from {BUILTIN_NAMES}")

    @property
    def alphabet_size(self) -> int:
        return _BUILTINS[self.name][0]

    def _prefix(self, n: int) -> str:
        return _BUILTINS[self.name][1](n)


def stream_prefix(spec: StreamSpec, n: int) -> Word:
    """The first n symbols of the described infinite word."""
    if n < 0:
        raise ValueError("prefix length must be nonnegative")
    if not isinstance(spec, StreamSpec):
        raise TypeError(f"not a stream spec: {spec!r}")
    return Word(spec._prefix(n), spec.alphabet_size)


def reverse(w: Word) -> Word:
    return Word(w.text[::-1], w.alphabet_size)


def complement(w: Word) -> Word:
    """Flip every bit of a binary word."""
    if w.alphabet_size != 2:
        raise ValueError("complement is only defined for binary words")
    return Word(w.text.translate(_FLIP), 2)


def cyclic_shifts(w: Word) -> frozenset[Word]:
    """All rotations of a nonempty word."""
    if len(w) == 0:
        raise ValueError("the empty word has no cyclic shifts")
    t = w.text
    return frozenset(Word(t[i:] + t[:i], w.alphabet_size) for i in range(len(t)))


def factors(w: Word, n: int) -> FactorSet:
    """All distinct length-n contiguous subwords of w."""
    if n < 1:
        raise ValueError("factor length must be at least 1")
    t = w.text
    windows = {t[i : i + n] for i in range(len(t) - n + 1)}
    return FactorSet(n, frozenset(Word(x, w.alphabet_size) for x in windows))


def periodic_factors(spec: Periodic, n: int) -> FactorSet:
    """The exact length-n factor set of the infinite word preamble.period^omega.

    A window starting at or past the preamble depends only on its phase
    modulo the period length, so a prefix covering every phase once (plus
    the preamble) realizes every factor of the infinite word.
    """
    if not isinstance(spec, Periodic):
        raise TypeError("periodic_factors requires a Periodic stream spec")
    if n < 1:
        raise ValueError("factor length must be at least 1")
    cover = len(spec.preamble) + len(spec.period) + n - 1
    return factors(stream_prefix(spec, cover), n)


# Squares xx with |x| <= 31, found by the regex engine in O(31 n) steps.
_SHORT_SQUARE = re.compile(r"(.{1,31})\1")
# Matched at a position, the square starting there with the shortest half.
# Symbols are digits, so "." matches any of them.
SHORTEST_SQUARE = re.compile(r"(.+?)\1")


def _leftmost_square_start(text: str) -> int | None:
    """Start of the leftmost square in text, or None when it has none.

    Halves up to 31 go to the regex engine.  Longer halves p in [2m, 4m)
    are found one level at a time, m = 16, 32, 64, ...: a square xx at i
    with such a half holds text[a:q+m] inside its first x, where q is the
    first multiple of m at or after i and a is q, or best - 1 when that is
    smaller (i < best, the leftmost start found so far).  That block
    occurs again at a + p; str.find gives the candidates p, and each is
    confirmed by how far the match reaches back from a (a binary search
    over slice equality) and one comparison of the whole square.  No square
    starts at a < best, so the block has no period up to half its length
    and occurs at most a few times in the window searched.
    """
    n = len(text)
    short = _SHORT_SQUARE.search(text)
    best = n if short is None else short.start()
    m = 16
    while 4 * m <= n and best > 0:
        for q in range(0, n - 3 * m, m):
            if q - m + 1 >= best:  # the block gives starts in (q - m, q] only
                break
            a = min(q, best - 1)
            block = text[a : q + m]
            end = a + 4 * m - 1 + len(block)
            j = text.find(block, a + 2 * m, end)
            while j != -1:
                # lo: the longest b with text[a - b:a] == text[j - b:j] and
                # a - b > q - m, since earlier starts belong to earlier blocks
                lo, hi = 0, min(a, a - q + m - 1)
                while lo < hi:
                    mid = (lo + hi + 1) // 2
                    if text[a - mid : a] == text[j - mid : j]:
                        lo = mid
                    else:
                        hi = mid - 1
                start, half = a - lo, j - a
                if start < best and text[start : start + half] == text[j - lo : j - lo + half]:
                    best = start
                j = text.find(block, j + 1, end)
        m *= 2
    return None if best == n else best


def first_square(w: Word) -> tuple[int, int] | None:
    """(start, half) of the square xx in w that starts leftmost, taking the
    shortest x at that start; None when w is squarefree.

    Near-linear: the leftmost start comes from `_leftmost_square_start`,
    and the lazy match runs only there, because a lazy search over a
    squarefree word is quadratic.
    """
    text = w.text
    start = _leftmost_square_start(text)
    if start is None:
        return None
    return start, len(SHORTEST_SQUARE.match(text, start).group(1))


def is_squarefree(w: Word) -> bool:
    """True iff no nonempty x has xx as a contiguous subword of w."""
    return first_square(w) is None
