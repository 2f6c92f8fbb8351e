"""The central predicate: no subword of length >= k occurs together with its reversal.

A word is "valid" for a query (k, squarefree?) when no subword x with
|x| >= k has its reversal also present (and, optionally, the word is
squarefree).  Checking length exactly k suffices: any longer offending x
contains an offending length-k prefix whose reversal is a suffix of x^R.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .words import FactorSet, Word, alphabet, factors, first_square, reverse


@dataclass(frozen=True)
class AvoidanceQuery:
    k: int
    require_squarefree: bool = False

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be at least 1")


@dataclass(frozen=True)
class ConflictWitness:
    """A length-k subword occurring together with its reversal."""

    x: Word
    position_x: int
    position_xr: int


@dataclass(frozen=True)
class SquareWitness:
    """A square xx found at the recorded offset."""

    x: Word
    position: int


def has_reversal_conflict(a: FactorSet) -> bool:
    """True iff some member of the set has its reversal also in the set.

    Palindromic members conflict with themselves.
    """
    return any(reverse(x) in a.members for x in a.members)


def find_conflict(w: Word, q: AvoidanceQuery) -> ConflictWitness | SquareWitness | None:
    """The lexicographically first length-k reversal conflict in w, the
    leftmost and then shortest square (when the query demands
    squarefreeness), or None when w is valid."""
    text = w.text
    windows = {text[i : i + q.k] for i in range(len(text) - q.k + 1)}
    conflicts = [x for x in windows if x[::-1] in windows]
    if conflicts:
        x = min(conflicts)
        i = text.find(x)
        return ConflictWitness(w[i : i + q.k], i, text.find(x[::-1]))
    square = first_square(w) if q.require_squarefree else None
    if square is not None:
        start, half = square
        return SquareWitness(w[start : start + half], start)
    return None


def is_valid(w: Word, q: AvoidanceQuery) -> bool:
    """True iff w avoids reversed subwords of length >= q.k (vacuously when
    |w| < k) and, if required, squares."""
    return find_conflict(w, q) is None


def reduction_equivalence(w: Word, k: int) -> bool:
    """Check that the length-exactly-k test agrees with quantifying over all
    subword lengths >= k.  The contract says this always holds; it is exposed
    as a brute-force oracle."""
    if len(w) < k:
        raise ValueError("word shorter than k")
    at_k = has_reversal_conflict(factors(w, k))
    at_any = any(
        has_reversal_conflict(factors(w, n)) for n in range(k, len(w) + 1)
    )
    return at_k == at_any


def find_avoiding_word(s: int, length: int, patterns: set[Word] | frozenset[Word]) -> Word | None:
    """A word of the given length over {0..s-1} containing no member of
    `patterns` as a contiguous subword, or None when every word contains one."""
    if length < 1:
        raise ValueError("length must be at least 1")
    letters = alphabet(s)
    pats = [p.text for p in patterns]
    for p in pats:
        if p.strip(letters):
            raise ValueError(f"pattern {p} is not over an alphabet of size {s}")
    for candidate in itertools.product(letters, repeat=length):
        text = "".join(candidate)
        if not any(p in text for p in pats):
            return Word(text, s)
    return None


def verify_unavoidable(s: int, length: int, patterns: set[Word] | frozenset[Word]) -> bool:
    """True iff every word of exactly the given length over {0..s-1} contains
    a member of `patterns`.  Length exactly L suffices for "at least L":
    containment is monotone under extension."""
    return find_avoiding_word(s, length, patterns) is None
