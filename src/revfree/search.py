"""Exhaustive search over the prefix-closed tree of valid words.

Validity is closed under taking subwords, so a search that only extends valid
prefixes visits exactly the valid words.  A valid word stays valid under one
more symbol iff the reversal of its new length-k window does not occur in it
and, for squarefree queries, no square ends at the new symbol.  A word in the
search is its own digit string reversed, so that the newest window and the
squares ending at the newest symbol are prefixes, and one more reversal gives
the result's digit string.  `words.starts_with_square` finds such a square.

Two strategies serve the searches.  `enumerate_valid` and
`forced_extension_check` step one length at a time through `_next_level`,
one list comprehension per level that tests each extension's window by one
substring search of the extended word: no per-word state and no function
call per extension, which is what listing every word of a wide level needs.
The substring search costs O(n) per extension, cheap at the lengths where
listing every word is affordable and on forced extension's short runs (a
level of width one).  Binary k=5, where each level holds 17 of the 34 valid
words, is the exception: length 4,000 takes about 0.5 s (Intel Xeon, Python
3.11).  `max_valid_length` walks one path to caps of tens of thousands of
symbols, so its DFS keeps the set of length-k windows on the path and tests
a push by a palindrome check and one set lookup.  The DFS keeps an explicit
stack, not recursion, so no interpreter limit bounds its depth.

Validity and squarefreeness do not change when the letters are renamed
one-to-one, so both strategies extend only one word of each renaming class,
the canonical one, whose letters first occur in the order 0, 1, 2, ....
`enumerate_valid` lists the others by renaming at the end: a level holds up
to s! times fewer words.  `max_valid_length` reports what a DFS over every
word would: its survivor is canonical, its witnesses are renamed at the end,
and each canonical word it visits counts as the number of words it stands
for in that DFS's tree (4-letter squarefree words at k=2: 2,945 nodes from
125 words walked, in 0.4 ms against 8 ms over every word, Intel Xeon,
Python 3.11).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .avoidance import AvoidanceQuery, is_valid
from .words import Word, alphabet, starts_with_square


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


def _next_level(level: list[str], letters: str, q: AvoidanceQuery) -> list[str]:
    """Every valid extension, by each of the letters in turn, of a nonempty
    level of valid words of one length, held as reversed paths.

    A valid word stays valid under one more symbol iff the reversal of its
    new length-k window does not occur in it (a palindrome matches itself)
    and, for squarefree queries, no square ends at the new symbol.  Extending
    a sorted level by letters in order keeps it sorted.
    """
    k = q.k
    if len(level[0]) + 1 < k:
        level = [c + rev for rev in level for c in letters]
    else:
        # `for ext in [...]` is a plain assignment (CPython 3.9+); a walrus
        # would make ext a closure cell, which is slower
        level = [ext for rev in level for c in letters for ext in [c + rev]
                 if ext[k - 1 :: -1] not in ext]
    if q.require_squarefree:
        level = [ext for ext in level if not starts_with_square(ext)]
    return level


# The most words enumerate_valid lists at any length: about 0.9 GiB of them,
# at the 143 MiB that 677,902 binary words of length 40 take.
MAX_LISTING = 2**22


def enumerate_valid(s: int, q: AvoidanceQuery, length: int) -> list[str]:
    """The digit strings of all valid words of exactly the given length, in
    lexicographic order.

    Renaming the letters one-to-one maps valid words to valid words and
    squarefree words to squarefree words, and each word has exactly one
    canonical form, whose letters first occur in the order 0, 1, 2 and so
    on.  So the levels hold only canonical words, grouped by the number j of
    letters they use, and the rest are listed at the end by applying each
    one-to-one map of those j letters into the alphabet.  Once the valid
    words of some length number more than MAX_LISTING, it raises ValueError.
    """
    letters = alphabet(s)
    if length < 0:
        raise ValueError("length must be nonnegative")
    groups = {0: [""]}  # j -> the canonical words using letters[:j], reversed
    for n in range(1, length + 1):
        nxt: dict[int, list[str]] = {}
        for j, level in groups.items():
            if j:
                nxt.setdefault(j, []).extend(_next_level(level, letters[:j], q))
            if j < s:
                nxt.setdefault(j + 1, []).extend(_next_level(level, letters[j], q))
        groups = {j: level for j, level in nxt.items() if level}
        listed = sum(len(level) * math.perm(s, j) for j, level in groups.items())
        if listed > MAX_LISTING:
            raise ValueError(f"the {listed} valid words of length {n} exceed "
                             f"the listing limit of {MAX_LISTING}")
        if not groups:
            break
    return _relabelings(groups, letters)


def _relabelings(groups: dict[int, list[str]], letters: str, fixed: int = 0) -> list[str]:
    """The sorted digit strings of every word that a one-to-one map into the
    alphabet, holding the first `fixed` letters in place, makes of a canonical
    word; groups maps j to canonical words using letters[:j], held as
    reversed paths."""
    words: list[str] = []
    for j, level in groups.items():
        a = min(fixed, j)
        # reversing the joined level turns each reversed path into its word
        # (and reverses their order, which the sort undoes)
        joined = "\n".join(level)[::-1]
        for image in itertools.permutations(letters[a:], j - a):
            words += joined.translate(str.maketrans(letters[a:j], "".join(image))).split("\n")
    words.sort()
    return words


def _plain_count(starts: list[int], total: int, weight: list[int]) -> int:
    """The nodes of the plain tree behind a canonical walk, from the path
    where the walk ends: starts[j] is the weight counted before the first
    word on it that uses j letters (the root for j = 0), and total the weight
    counted in all.  From starts[j] to starts[j + 1] the walk counted the
    words on the path that use j letters and the subtrees finished below
    them, and a word below one of them that uses j_x letters stands for
    perm(s, j_x) / perm(s, j) = perm(s - j, j_x - j) plain nodes."""
    ends = starts[1:] + [total]
    return sum((end - start) // weight[j] for j, (start, end) in enumerate(zip(starts, ends)))


def max_valid_length(
    s: int, q: AvoidanceQuery, cap: int, fix_first_symbol: bool = False
) -> SearchOutcome:
    """DFS to depth cap.  Finite(L, all valid words of length L) when the tree
    dies at L < cap; ExceedsCap with the lexicographically first survivor
    otherwise.  nodes_explored counts the root and each valid word that a
    preorder DFS over all words, trying the letters in order, visits.

    The DFS walks only canonical words (see enumerate_valid), extending a
    word that uses j letters by letters[:j] and, when j < s, by letters[j];
    the answer and the count stay those of the DFS over all words.  The
    lexicographically first survivor is canonical, so both end at the same
    word.  Every sibling left of the path to it uses only letters the path
    already uses, so every subtree finished before it hangs off that path.
    A canonical word whose deepest ancestor a on the path uses j_a letters,
    and which uses j_x, stands for perm(s - j_a, j_x - j_a) words below a:
    one per one-to-one map of its new letters into the ones a leaves unused.
    When the tree dies, a is the root, and the witnesses are the canonical
    ones renamed by every one-to-one map of their letters.

    fix_first_symbol reports only the words under the root's child 0: a is
    that child, and the witnesses are renamed only by maps that fix 0.  An
    ExceedsCap outcome is the same either way, since its survivor starts
    with 0.
    """
    letters = alphabet(s)
    if cap < 1:
        raise ValueError("cap must be at least 1")
    k, squarefree = q.k, q.require_squarefree
    weight = [math.perm(s, j) for j in range(s + 1)]  # words per canonical word using j letters
    rev = ""  # the path's digits, reversed
    windows: set[str] = set()  # the length-k windows on the path
    added: list[str | None] = [None]  # per depth: the window its symbol added
    nexts = [0]  # per depth: the next symbol to try
    # per number j of letters on the path: the depth of the first word on it
    # that uses j letters, and the weight counted before that word
    depths, starts = [0], [0]
    j = 0  # the letters on the path
    d = 1  # the depth of the words tried next
    total = 1  # the weight counted: weight[j] per canonical word using j letters
    best_len = 0
    witnesses = [""]  # reversed paths, made into words at the end
    while nexts:
        c = nexts[-1]
        if c > j or c == s:
            nexts.pop()
            d -= 1
            if depths[-1] == d:
                depths.pop()
                starts.pop()
                j -= 1
            window = added.pop()
            if window is not None:
                windows.remove(window)
            rev = rev[1:]
            continue
        nexts[-1] = c + 1
        ext = letters[c] + rev
        window = None
        if d >= k:
            reversal = ext[:k]
            window = reversal[::-1]
            if window == reversal or reversal in windows:
                continue
            if window in windows:
                window = None
        if squarefree and starts_with_square(ext):
            continue
        if c == j:
            j += 1
            depths.append(d)
            starts.append(total)
        total += weight[j]
        if d == cap:
            return ExceedsCap(cap, Word(ext[::-1], s), _plain_count(starts, total, weight))
        if d > best_len:
            best_len = d
            witnesses = [ext]
        elif d == best_len:
            witnesses.append(ext)
        if window is not None:
            windows.add(window)
        added.append(window)
        rev = ext
        nexts.append(0)
        d += 1
    groups: dict[int, list[str]] = {}
    for rev in witnesses:
        groups.setdefault(len(set(rev)), []).append(rev)
    # the words reported lie below the anchor: the root, or the word 0 under
    # fix_first_symbol, whose letter every renaming of them holds in place
    anchor = 1 if fix_first_symbol else 0
    words = _relabelings(groups, letters, anchor)
    nodes = _plain_count([0, 1][: anchor + 1], total, weight)
    return Finite(best_len, tuple(Word(t, s) for t in words), nodes)


def forced_extension_check(
    s: int, k: int, seed: Word, steps: int
) -> Word | None:
    """Extend the seed one symbol at a time while exactly one symbol keeps the
    word valid; None as soon as a branch point or dead end occurs."""
    letters = alphabet(s)
    q = AvoidanceQuery(k)
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    if seed.alphabet_size != s:
        raise ValueError("seed alphabet does not match the search alphabet")
    if not is_valid(seed, q):
        raise ValueError("seed is not valid")
    level = [seed.text[::-1]]
    for _ in range(steps):
        level = _next_level(level, letters, q)
        if len(level) != 1:
            return None
    return Word(level[0][::-1], s)
