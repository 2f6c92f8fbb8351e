"""Exhaustive search over the prefix-closed tree of valid words.

Validity is closed under taking subwords, so a search that only extends valid
prefixes visits exactly the valid words.  A word in the search is its own
digit string reversed, so that the newest length-k window and the squares
ending at the newest symbol are prefixes; one regex match finds such a
square, and one more reversal makes a result `Word`.

Enumeration runs level by level and tests a new window by one substring
search of the extended word, which needs no per-word state.  That search
costs O(n) per extension, cheap at the lengths where listing every word is
affordable.  Binary k=5, where each level holds about 34 words, is the
exception: length 4,000 takes about 1 s, four times what a DFS takes (Intel
Xeon, Python 3.11).  Maximum search and forced extension walk one path to
caps of tens of thousands of symbols through one DFS kernel, `_Path`, which
keeps the set of length-k windows on the path, so that a push tests its
window by a palindrome check and one set lookup.  The walk keeps an explicit
stack, not recursion, so no interpreter limit bounds its depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .avoidance import AvoidanceQuery
from .words import LETTERS, SHORTEST_SQUARE, Periodic, Word, alphabet, complement, cyclic_shifts


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


class _Path:
    """Mutable DFS path: its digits reversed, with the set of length-k
    windows it holds."""

    def __init__(self, query: AvoidanceQuery):
        self.k = query.k
        self.squarefree = query.require_squarefree
        self.rev = ""
        self.windows: set[str] = set()
        self.added: list[str | None] = []  # per depth: the window its push added

    def try_push(self, c: str) -> bool:
        """Extend by one letter if the extension stays valid."""
        rev = c + self.rev
        window = None
        if len(rev) >= self.k:
            reversal = rev[: self.k]
            window = reversal[::-1]
            if window == reversal or reversal in self.windows:
                return False
            if window in self.windows:
                window = None
        if self.squarefree and SHORTEST_SQUARE.match(rev):
            return False
        if window is not None:
            self.windows.add(window)
        self.added.append(window)
        self.rev = rev
        return True

    def pop(self) -> None:
        window = self.added.pop()
        if window is not None:
            self.windows.remove(window)
        self.rev = self.rev[1:]


def _walk(path: _Path, s: int, depth: int, root_choices: int) -> Iterator[int]:
    """Push every valid word of at most `depth` symbols onto the empty path, in
    lexicographic order, yielding each one's length (the root's 0 first)."""
    yield 0
    nexts = [0] if depth > 0 else []  # per depth: the next symbol to try
    while nexts:
        d = len(nexts)
        c = nexts[-1]
        if c == (s if d > 1 else root_choices):
            nexts.pop()
            if nexts:
                path.pop()
        else:
            nexts[-1] = c + 1
            if path.try_push(LETTERS[c]):
                yield d
                if d < depth:
                    nexts.append(0)
                else:
                    path.pop()


def enumerate_valid(s: int, q: AvoidanceQuery, length: int) -> list[Word]:
    """All valid words of exactly the given length, in lexicographic order.

    Level by level: the words of one length, as reversed paths, each extended
    by every letter in turn, which keeps a sorted level sorted.  A valid word
    stays valid under one more symbol iff the reversal of its new length-k
    window does not occur in it (a palindrome matches itself) and, for
    squarefree queries, no square ends at the new symbol.
    """
    letters = alphabet(s)
    if length < 0:
        raise ValueError("length must be nonnegative")
    k, squarefree = q.k, q.require_squarefree

    def fits(ext: str) -> bool:
        if len(ext) >= k and ext[:k][::-1] in ext:
            return False
        return not (squarefree and SHORTEST_SQUARE.match(ext))

    level = [""]
    for _ in range(length):
        level = [ext for rev in level for ch in letters if fits(ext := ch + rev)]
    return [Word(rev[::-1], s) for rev in level]


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
    alphabet(s)
    if cap < 1:
        raise ValueError("cap must be at least 1")
    path = _Path(q)
    best_len = 0
    witnesses: list[str] = []  # reversed paths, made into words at the end
    nodes = 0
    for d in _walk(path, s, cap, 1 if fix_first_symbol else s):
        nodes += 1
        if d > best_len:
            best_len = d
            witnesses = [path.rev]
        elif d == best_len:
            witnesses.append(path.rev)
        if d == cap:
            return ExceedsCap(cap, Word(path.rev[::-1], s), nodes)
    return Finite(best_len, tuple(Word(rev[::-1], s) for rev in witnesses), nodes)


def forced_extension_check(
    s: int, k: int, seed: Word, steps: int
) -> Word | None:
    """Extend the seed one symbol at a time while exactly one symbol keeps the
    word valid; None as soon as a branch point or dead end occurs."""
    letters = alphabet(s)
    path = _Path(AvoidanceQuery(k))
    if seed.alphabet_size != s:
        raise ValueError("seed alphabet does not match the search alphabet")
    if not all(path.try_push(c) for c in seed.text):
        raise ValueError("seed is not valid")
    for _ in range(steps):
        children = []
        for c in letters:
            if path.try_push(c):
                path.pop()
                children.append(c)
        if len(children) != 1:
            return None
        path.try_push(children[0])
    return Word(path.rev[::-1], s)


@dataclass(frozen=True)
class CharacterizationReport:
    fact1_holds: bool
    fact2_holds: bool
    valid_count_len9: int
    exceptions: tuple[Word, ...]


def characterization_facts(b: frozenset[Word] | set[Word]) -> CharacterizationReport:
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
            w.startswith(p) and w[len(p) : len(p) + 6] in b for p in STANDARD_PREAMBLES
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
    prefix: Word, b: frozenset[Word] | set[Word]
) -> tuple[Word, Word] | None:
    """Match the prefix against the family preamble.period^omega with the
    preamble drawn from STANDARD_PREAMBLES and the period from b.

    Decompositions are not unique (shifting one symbol from the period into
    the preamble can describe the same stream), so the canonical answer is the
    match with the shortest preamble, ties broken by lexicographically least
    period.  None when no family member fits.
    """
    if len(prefix) < 15:
        raise ValueError("need at least 15 symbols to match")
    # STANDARD_PREAMBLES runs shortest first, then in digit order, so the
    # first preamble with a match gives the canonical answer
    for p in STANDARD_PREAMBLES:
        periods = [y for y in b if Periodic(p, y)._prefix(len(prefix)) == prefix.text]
        if periods:
            return p, min(periods)
    return None

