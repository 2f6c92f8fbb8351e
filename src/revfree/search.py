"""Exhaustive search over the prefix-closed tree of valid words.

Validity is closed under taking subwords, so a search that only extends valid
prefixes visits exactly the valid words.  A valid word stays valid under one
more symbol iff the reversal of its new length-k window does not occur in it
and, for squarefree queries, no square ends at the new symbol.  A word in the
search is its own digit string reversed, so that the newest window and the
squares ending at the newest symbol are prefixes, and one more reversal gives
the result's digit string.  `words.drop_squares` drops the words of a level
that such a square starts; the DFS tests its pushes against its path.

The window is fixed by the word's newest k-1 symbols and the letter, so
`_moves` writes the extension rule once, per state: per letter, the window x
to look for and the next state, and no move for a letter whose window is a
palindrome.  Each search fills its own table of rows as states first appear
and reads it one of three ways.  `enumerate_valid` steps each level, grouped
by state, through `_next_level`: a word costs one substring search `x in rev`
per move of its state, in one list comprehension per state and move, with no
per-word state and no function call per extension, which is what listing
every word of a wide level needs.  Binary k=6 to length 28 builds 64 windows
for its 89,052 searches.  A search costs O(n), cheap where listing every word
is affordable; binary k=5 to length 4,000 (17 canonical words a level) takes
about 0.5 s (Intel Xeon, Python 3.11).  `max_valid_length` and
`forced_extension_check` walk one path each, to tens of thousands of
symbols, so each keeps the set of the reversed path's length-k windows: x
occurs in the path iff it is one of them, so a move costs one set lookup and
a push adds the path's new window, which the move carries.  The DFS keeps
its path as linked nodes, each with its letter, its parent and its row's
untried moves, not recursion, so no interpreter limit bounds its depth;
forced extension keeps its path as a list of letters.  So a push costs O(k)
without squares: binary k=5 to cap 80,000 takes about 63 ms, against 170 ms
with a copy of the path per push and pop.

A squarefree DFS also keeps the reversed path as one string.  A push takes
the halves below B = `words.PATH_BLOCK` with one `PATH_SHORT_SQUARE`
match, and longer halves from an index of the path's B-blocks, kept next to
the window set.  Suppose a square of half L >= B ends at depth D on a path
that was squarefree before.  The run of period L that ends there is then
exactly L symbols long, one fewer a pop back, so exactly B symbols long at
depth D - (L - B): there the newest B symbols recur L symbols back, and the
symbols before the two copies differ, or the earlier copy starts the path.
So the index maps each block to the symbol before it, and that symbol to
the depths at which the block was pushed.  A push at depth d schedules, for
every earlier depth e where its block followed a different symbol, one
comparison of half d - e at depth 2d - B - e; a block that recurs after the
same symbol continues a run that is already scheduled, and a comparison due
at d itself is a square of half B.  A push at each depth compares the halves
scheduled there exactly, so a run that broke in between just fails the
comparison.  Halves below B never reach the index: two copies of a block
that overlap make such a square, and the regex has rejected it.  A pop
removes its block and its schedules, in stack order.  Copies of a block lie
at least B symbols apart, so a push schedules at most d / B comparisons;
the `c + rev` copy still costs O(n) per push.  Ternary k=6 with the first
letter fixed takes about 0.12 / 0.42 s to caps 20,000 / 40,000 (Intel Xeon,
Python 3.11).

Validity and squarefreeness do not change when the letters are renamed
one-to-one, so `enumerate_valid` and `max_valid_length` extend only one word
of each renaming class, the canonical one, whose letters first occur in the
order 0, 1, 2, ....  `enumerate_valid` lists the others by renaming at the
end: a level holds up to s! times fewer words.  `max_valid_length` reports
what a DFS over every word would: its survivor is canonical, its witnesses
are renamed at the end, and each canonical word it visits counts as the
number of words it stands for in that DFS's tree (4-letter squarefree words
at k=2: 2,945 nodes from 125 words walked, in 0.3 ms against 8 ms over every
word, Intel Xeon, Python 3.11).
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator

from .avoidance import AvoidanceQuery, is_valid
from .words import PATH_BLOCK, PATH_SHORT_SQUARE, Record, Word, alphabet, drop_squares


class Finite(Record):
    """The valid tree dies: no valid word is longer than max_length."""

    __slots__ = ("max_length", "witnesses", "nodes_explored")
    max_length: int
    witnesses: tuple[Word, ...]
    nodes_explored: int


class ExceedsCap(Record):
    """A valid word of length cap exists; the search stopped there."""

    __slots__ = ("cap", "sample_survivor", "nodes_explored")
    cap: int
    sample_survivor: Word
    nodes_explored: int


SearchOutcome = Finite | ExceedsCap


State = tuple[int, str]  # (letters used, the newest min(n, k - 1) symbols reversed)
# (letter, window to look for, the window the reversed path gains, next state)
Move = tuple[str, str | None, str | None, State]


def _moves(state: State, letters: str, k: int) -> list[Move]:
    """The moves of one state: its row of the transition table.

    A state (j, tail) holds the words of one length that use letters[:j]
    (any letter when j = s) and whose reversed paths begin with tail, the
    newest min(n, k - 1) symbols.  Each letter c it may take next, letters[:j]
    and letters[j] when j < s, makes one move (c, x, c + tail, next state).
    Before the word is k - 1 symbols long x and c + tail are None: no window
    is added.  After, x = tail reversed + c is the new length-k window as the
    word reads it, so its reversal occurs in the word iff x occurs in the
    reversed path, and c + tail is that window as the reversed path reads it.
    A letter whose window is a palindrome matches itself, so it has no move.
    """
    j, tail = state
    row: list[Move] = []
    for i, c in enumerate(letters[: j + 1]):
        ext = c + tail
        if len(ext) < k:
            row.append((c, None, None, (j + (i == j), ext)))
        elif (x := ext[::-1]) != ext:
            row.append((c, x, ext, (j + (i == j), ext[:-1])))
    return row


def _next_level(
    groups: dict[State, list[str]], table: dict[State, list[Move]], letters: str,
    q: AvoidanceQuery,
) -> dict[State, list[str]]:
    """Every valid extension of a level of valid words of one length, held as
    reversed paths grouped by state, grouped by state again.  The table holds
    the rows of the states stepped so far in this search and gains the rows
    of new ones.  A window x that is not a palindrome occurs in c + rev iff it
    occurs in rev, so a word costs one substring search per move of its
    state, and a concatenation if it survives; a squarefree query adds one
    `drop_squares` call per state and move.
    """
    squarefree = q.require_squarefree
    nxt: dict[State, list[str]] = {}
    for state, level in groups.items():
        if state not in table:
            table[state] = _moves(state, letters, q.k)
        for c, x, _, after in table[state]:
            if x is None:
                exts = [c + rev for rev in level]
            else:
                exts = [c + rev for rev in level if x not in rev]
            if squarefree:
                exts = drop_squares(exts)
            if not exts:
                continue
            if after in nxt:
                nxt[after] += exts
            else:
                nxt[after] = exts
    return nxt


# The most words enumerate_valid lists at any length: about 0.9 GiB of them,
# at the 143 MiB that 677,902 binary words of length 40 take.
MAX_LISTING = 2**22
# The deepest cap max_valid_length takes: about 1.1 GiB of path, as Nodes
# at 138 bytes a symbol.
MAX_DEPTH = 2**23
# The deepest squarefree cap.  A squarefree path also holds its index and the
# comparisons it has scheduled, which grow faster than the path: on ternary
# k=6 about 810 / 1,240 bytes a symbol at 2^16 / 2^17 (tracemalloc peaks) and
# 2,250 at 2^18 (max RSS, 0.55 GiB after 45 s; Intel Xeon, Python 3.11).
MAX_SQUAREFREE_DEPTH = 2**18


def enumerate_valid(s: int, q: AvoidanceQuery, length: int) -> list[str]:
    """The digit strings of all valid words of exactly the given length, in
    lexicographic order.

    Renaming the letters one-to-one maps valid words to valid words and
    squarefree words to squarefree words, and each word has exactly one
    canonical form, whose letters first occur in the order 0, 1, 2 and so
    on.  So the levels hold only canonical words, grouped by state (see
    `_moves`), and the rest are listed at the end by applying each
    one-to-one map of the j letters a word uses into the alphabet.  Once the
    valid words of some length number more than MAX_LISTING, it raises
    ValueError.
    """
    letters = alphabet(s)
    if length < 0:
        raise ValueError("length must be nonnegative")
    weight = [math.perm(s, j) for j in range(s + 1)]  # words per canonical word using j letters
    table: dict[State, list[Move]] = {}
    groups: dict[State, list[str]] = {(0, ""): [""]}
    for n in range(1, length + 1):
        groups = _next_level(groups, table, letters, q)
        # weight[s] bounds every weight, so most levels need no exact count
        if sum(map(len, groups.values())) * weight[s] > MAX_LISTING:
            listed = sum(len(level) * weight[j] for (j, _), level in groups.items())
            if listed > MAX_LISTING:
                raise ValueError(f"the {listed} valid words of length {n} exceed "
                                 f"the listing limit of {MAX_LISTING}")
        if not groups:
            break
    by_letters: dict[int, list[str]] = {}
    for (j, _), level in groups.items():
        by_letters.setdefault(j, []).extend(level)
    return _relabelings(by_letters, letters)


def _relabelings(groups: dict[int, list[str]], letters: str, fixed: int = 0) -> list[str]:
    """The sorted digit strings of every word that a one-to-one map into the
    alphabet, holding the first `fixed` letters in place, makes of a canonical
    word; groups maps j to canonical words using letters[:j], held as
    reversed paths."""
    words: list[str] = []
    for j, level in groups.items():
        a = min(fixed, j)
        # reversing the joined level turns each reversed path into its word;
        # sorting them first leaves each renaming a few long sorted runs,
        # which the final sort merges
        joined = "\n".join(sorted("\n".join(level)[::-1].split("\n")))
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


# (letter, parent, window added, the moves of its row not yet tried, and for
# a squarefree query past depth B the index's depth list its block joined and
# the halves it scheduled, else None)
Node = tuple[
    str, "Node | None", str | None, Iterator[Move], "tuple[list[int], list[int]] | None"
]


def _unwind(node: Node | None) -> str:
    """The reversed path from node up to the root: its word's digits, newest
    first."""
    path = []
    while node is not None:
        path.append(node[0])
        node = node[1]
    return "".join(path)


def max_valid_length(
    s: int, q: AvoidanceQuery, cap: int, fix_first_symbol: bool = False
) -> SearchOutcome:
    """DFS to depth cap.  Finite(L, all valid words of length L) when the tree
    dies at L < cap; ExceedsCap with the lexicographically first survivor
    otherwise.  nodes_explored counts the root and each valid word that a
    preorder DFS over all words, trying the letters in order, visits.

    Each node of the path holds the untried moves of its state's row (see
    `_moves`): a push takes the newest node's next one and a pop moves to
    the node's parent, so the DFS walks only canonical words (see
    enumerate_valid), extending a word that uses j letters by letters[:j]
    and, when j < s, by letters[j]; the answer and the count stay those of the
    DFS over all words.  The lexicographically first survivor is canonical, so
    both end at the same word.  Every sibling left of the path to it uses only
    letters the path already uses, so every subtree finished before it hangs
    off that path.  A canonical word whose deepest ancestor a on the path uses
    j_a letters, and which uses j_x, stands for perm(s - j_a, j_x - j_a) words
    below a: one per one-to-one map of its new letters into the ones a leaves
    unused.  When the tree dies, a is the root, and the witnesses are the
    canonical ones renamed by every one-to-one map of their letters.

    fix_first_symbol reports only the words under the root's child 0: a is
    that child, and the witnesses are renamed only by maps that fix 0.  An
    ExceedsCap outcome is the same either way, since its survivor starts
    with 0.  A cap above MAX_DEPTH, or MAX_SQUAREFREE_DEPTH for a squarefree
    query, which bound the path's memory, is refused before the walk, even
    for a tree that would die early.
    """
    letters = alphabet(s)
    k, squarefree = q.k, q.require_squarefree
    if cap < 1:
        raise ValueError("cap must be at least 1")
    limit = MAX_SQUAREFREE_DEPTH if squarefree else MAX_DEPTH
    if cap > limit:
        raise ValueError(f"a cap of {cap} exceeds the depth limit of {limit}")
    short_square = PATH_SHORT_SQUARE.match
    B = PATH_BLOCK
    weight = [math.perm(s, j) for j in range(s + 1)]  # words per canonical word using j letters
    table: dict[State, list[Move]] = {}  # the root's state (0, "") never recurs
    # the path as linked Nodes, newest symbol first: a push and a pop copy nothing
    node: Node | None = ("", None, None, iter(_moves((0, ""), letters, k)), None)
    windows: set[str] = set()  # the length-k windows of the reversed path
    # squarefree queries only: the path's digits, reversed; the index of its
    # B-blocks, block -> the symbol before it ("" at the path's start) -> the
    # depths that pushed it; and per depth, the halves to compare there
    rev = ""
    blocks: dict[str, dict[str, list[int]]] = {}
    due: dict[int, list[int]] = {}
    # per number j of letters on the path: the depth of the first word on it
    # that uses j letters, and the weight counted before that word
    depths, starts = [0], [0]
    j = 0  # the letters on the path
    d = 1  # the depth of the words tried next
    total = 1  # the weight counted: weight[j] per canonical word using j letters
    best_len = 0
    witnesses = [node]  # path nodes, unwound into words at the end
    while node is not None:
        # a push breaks out to the new node's moves, and moves run out pop it
        for c, x, window, after in node[3]:
            if x in windows:
                continue
            scheduled = None
            if squarefree:
                ext = c + rev
                if short_square(ext):
                    continue
                here = due.get(d)
                if here and any(ext.startswith(ext[:h], h) for h in here):
                    continue
                if d >= B:
                    block, before = ext[:B], ext[B : B + 1]
                    followers = blocks.get(block)
                    if followers is None:
                        blocks[block] = followers = {}
                    pushes = followers.get(before)
                    halves = ()
                    if len(followers) > (pushes is not None):  # another symbol came before it
                        # each depth e where this block followed another
                        # symbol starts a run that is a square of half d - e
                        # at depth 2d - B - e, if it lasts; depths past the
                        # cap never come
                        first = 2 * d - B - cap
                        halves = [d - e for prior, earlier in followers.items()
                                  if prior != before for e in earlier if e >= first]
                        if B in halves:
                            continue  # a square of half B ends here
                        for h in halves:
                            due.setdefault(d + h - B, []).append(h)
                    if pushes is None:
                        followers[before] = pushes = []
                    pushes.append(d)
                    scheduled = pushes, halves
                rev = ext
            if after[0] > j:
                j += 1
                depths.append(d)
                starts.append(total)
            total += weight[j]
            if window in windows:
                window = None  # a repeat: it stays on the path when this symbol goes
            elif window is not None:
                windows.add(window)
            if after not in table:
                table[after] = _moves(after, letters, k)
            node = (c, node, window, iter(table[after]), scheduled)
            if d == cap:
                survivor = Word(_unwind(node)[::-1], s)
                return ExceedsCap(cap, survivor, _plain_count(starts, total, weight))
            if d > best_len:
                best_len = d
                witnesses = [node]
            elif d == best_len:
                witnesses.append(node)
            d += 1
            break
        else:
            d -= 1
            if depths[-1] == d:
                depths.pop()
                starts.pop()
                j -= 1
            _, node, window, _, scheduled = node  # popping the root leaves None: the walk ends
            if window is not None:
                windows.remove(window)
            if squarefree:
                rev = rev[1:]
                if scheduled is not None:
                    pushes, halves = scheduled
                    pushes.pop()
                    for h in halves:
                        due[d + h - B].pop()
    groups: dict[int, list[str]] = {}
    for path in map(_unwind, witnesses):
        groups.setdefault(len(set(path)), []).append(path)
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
    word valid; None as soon as a branch point or dead end occurs.

    A step keeps the moves of the path's state (j = s: any letter may come
    next) whose window is not in the set of the reversed path's windows,
    seeded once from the seed, so it costs O(k) however long the path."""
    letters = alphabet(s)
    q = AvoidanceQuery(k)
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    if seed.alphabet_size != s:
        raise ValueError("seed alphabet does not match the search alphabet")
    if not is_valid(seed, q):
        raise ValueError("seed is not valid")
    path = list(seed.text)
    rev = seed.text[::-1]
    windows = {rev[i : i + k] for i in range(len(rev) - k + 1)}  # the length-k windows of rev
    state = (s, rev[: k - 1])  # j = s: every letter may come next
    table: dict[State, list[Move]] = {}
    for _ in range(steps):
        if state not in table:
            table[state] = _moves(state, letters, k)
        moves = [move for move in table[state] if move[1] not in windows]
        if len(moves) != 1:
            return None
        ((c, _, window, after),) = moves
        if window is not None:
            windows.add(window)
        path.append(c)
        state = after
    return Word("".join(path), s)
