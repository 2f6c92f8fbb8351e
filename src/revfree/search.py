"""Exhaustive backtracking over the prefix-closed tree of valid words.

Validity is closed under taking subwords, so a depth-first search that only
extends valid prefixes visits exactly the valid words.  The incremental check
at each extension looks only at the new length-k suffix window (and, when
squarefreeness is required, at squares ending at the new position).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .avoidance import AvoidanceQuery, is_valid
from .words import Word, complement, cyclic_shifts


@dataclass(frozen=True)
class Finite:
    """The valid tree dies: no valid word is longer than max_length."""

    max_length: int
    witnesses: tuple[Word, ...]
    nodes_explored: int


@dataclass(frozen=True)
class ExceedsCap:
    """A valid word of length cap exists; the search stopped there."""

    cap: int
    sample_survivor: Word
    nodes_explored: int


SearchOutcome = Finite | ExceedsCap

STANDARD_PREAMBLES = tuple(Word.parse(t, 2) for t in ("", "0", "1", "00", "11"))


def rotation_family(z: Word) -> frozenset[Word]:
    """All cyclic shifts of a binary word and of its complement."""
    return cyclic_shifts(z) | cyclic_shifts(complement(z))


class _PathState:
    """Mutable DFS path with O(k) validity checks per extension."""

    def __init__(self, alphabet_size: int, query: AvoidanceQuery):
        self.s = alphabet_size
        self.k = query.k
        self.squarefree = query.require_squarefree
        self.syms: list[int] = []
        self.window_counts: Counter[tuple[int, ...]] = Counter()

    def try_push(self, c: int) -> bool:
        """Extend by one symbol if the extension stays valid."""
        syms = self.syms
        syms.append(c)
        n = len(syms)
        ok = True
        window: tuple[int, ...] | None = None
        if n >= self.k:
            window = tuple(syms[n - self.k :])
            if window == window[::-1] or self.window_counts[window[::-1]] > 0:
                ok = False
        if ok and self.squarefree:
            for half in range(1, n // 2 + 1):
                if syms[n - 2 * half : n - half] == syms[n - half :]:
                    ok = False
                    break
        if not ok:
            syms.pop()
            return False
        if window is not None:
            self.window_counts[window] += 1
        return True

    def pop(self) -> None:
        n = len(self.syms)
        if n >= self.k:
            self.window_counts[tuple(self.syms[n - self.k :])] -= 1
        self.syms.pop()

    def word(self) -> Word:
        return Word(tuple(self.syms), self.s)


def enumerate_valid(s: int, q: AvoidanceQuery, length: int) -> list[Word]:
    """All valid words of exactly the given length, in lexicographic order."""
    if length < 0:
        raise ValueError("length must be nonnegative")
    out: list[Word] = []
    state = _PathState(s, q)

    def rec(depth: int) -> None:
        if depth == length:
            out.append(state.word())
            return
        for c in range(s):
            if state.try_push(c):
                rec(depth + 1)
                state.pop()

    rec(0)
    return out


def max_valid_length(
    s: int, q: AvoidanceQuery, cap: int, fix_first_symbol: bool = False
) -> SearchOutcome:
    """DFS to depth cap.  Finite(L, all valid words of length L) when the tree
    dies at L < cap; ExceedsCap with the lexicographically first survivor
    otherwise.

    fix_first_symbol restricts the root to symbol 0 (a symmetry reduction:
    validity is invariant under alphabet permutation); witness sets are then
    quotiented and no longer match naive counts, so it is off by default.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    state = _PathState(s, q)
    best_len = 0
    witnesses: list[Word] = [state.word()]
    nodes = 1  # the root

    class _CapHit(Exception):
        pass

    def rec(depth: int) -> None:
        nonlocal best_len, witnesses, nodes
        choices = range(1 if fix_first_symbol and depth == 0 else s)
        for c in choices:
            if state.try_push(c):
                nodes += 1
                d = depth + 1
                if d > best_len:
                    best_len = d
                    witnesses = [state.word()]
                elif d == best_len:
                    witnesses.append(state.word())
                if d == cap:
                    raise _CapHit
                rec(d)
                state.pop()

    try:
        rec(0)
    except _CapHit:
        return ExceedsCap(cap, state.word(), nodes)
    return Finite(best_len, tuple(witnesses), nodes)


def forced_extension_check(
    s: int, k: int, seed: Word, steps: int
) -> Word | None:
    """Extend the seed one symbol at a time while exactly one symbol keeps the
    word valid; None as soon as a branch point or dead end occurs."""
    q = AvoidanceQuery(k)
    if seed.alphabet_size != s:
        raise ValueError("seed alphabet does not match the search alphabet")
    if not is_valid(seed, q):
        raise ValueError("seed is not valid")
    current = seed
    for _ in range(steps):
        children = [
            c for c in range(s)
            if is_valid(current + Word((c,), s), q)
        ]
        if len(children) != 1:
            return None
        current = current + Word((children[0],), s)
    return current


@dataclass(frozen=True)
class CharacterizationReport:
    fact1_holds: bool
    fact2_holds: bool
    valid_count_len9: int
    exceptions: tuple[Word, ...]


def characterization_facts(
    b: frozenset[Word] | set[Word],
    preambles: tuple[Word, ...] = STANDARD_PREAMBLES,
) -> CharacterizationReport:
    """The two finite facts underlying the ultimate-periodicity result for
    binary words valid at k=5.

    Fact 1: every valid word of length 9 starts with y'y for some preamble y'
    in {eps, 0, 1, 00, 11} and y in b.  Fact 2: every valid word of length 15
    starting with some y in b repeats y immediately after it.
    """
    b = frozenset(b)
    if not b:
        raise ValueError("the rotation family must be nonempty")
    lengths = {len(y) for y in b}
    if lengths != {6} or any(y.alphabet_size != 2 for y in b):
        raise ValueError("the rotation family must consist of binary words of length 6")
    q = AvoidanceQuery(5)
    exceptions: list[Word] = []

    valid9 = enumerate_valid(2, q, 9)
    fact1 = True
    for w in valid9:
        if not any(
            w.startswith(p) and w[len(p) : len(p) + 6] in b for p in preambles
        ):
            fact1 = False
            exceptions.append(w)

    fact2 = True
    for w in enumerate_valid(2, q, 15):
        if w[0:6] in b and w[6:12] != w[0:6]:
            fact2 = False
            exceptions.append(w)

    return CharacterizationReport(fact1, fact2, len(valid9), tuple(exceptions))


def match_ultimately_periodic(
    prefix: Word,
    b: frozenset[Word] | set[Word],
    preambles: tuple[Word, ...] = STANDARD_PREAMBLES,
) -> tuple[Word, Word] | None:
    """Match the prefix against the family preamble.period^omega with the
    period drawn from b.

    Decompositions are not unique (shifting one symbol from the period into
    the preamble can describe the same stream), so the canonical answer is the
    match with the shortest preamble, ties broken by lexicographically least
    period.  None when no family member fits.
    """
    if len(prefix) < 15:
        raise ValueError("need at least 15 symbols to match")
    matches: list[tuple[Word, Word]] = []
    for p in sorted(preambles, key=lambda w: (len(w), w.symbols)):
        if not prefix.startswith(p):
            continue
        rest = prefix.symbols[len(p) :]
        for y in sorted(b):
            if all(rest[i] == y.symbols[i % len(y)] for i in range(len(rest))):
                matches.append((p, y))
    if not matches:
        return None
    return min(matches, key=lambda m: (len(m[0]), m[0].symbols, m[1].symbols))

