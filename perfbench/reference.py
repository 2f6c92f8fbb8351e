"""Independent reference implementations the benchmark checks answers with.

Nothing here imports revfree: words are plain digit strings, and every
function is written from the definitions, not from the program's code, so a
wrong answer from the program cannot be confirmed by the same mistake.
"""

from __future__ import annotations

import itertools
import re

# Images of the three morphic constructions of the paper, as digit strings.
T2_IMAGES = ("0012", "0112")  # binary -> ternary, valid for k = 3
T6_IMAGES = ("0001011", "0010111")  # binary -> binary, valid for k = 6
T8_IMAGES = ("012", "013", "014")  # ternary -> 5 letters, squarefree, k = 2

PREAMBLES = ("", "0", "1", "00", "11")

# Lazy quantifier: the leftmost start first, then the shortest half, which is
# the order in which revfree reports its first square.
_SQUARE = re.compile(r"(.+?)\1")


def thue_ternary(n: int) -> str:
    """Prefix of the fixed point of 0 -> 012, 1 -> 02, 2 -> 1."""
    images = ("012", "02", "1")
    word = "012"
    while len(word) < n:
        word = "".join(images[int(c)] for c in word)
    return word[:n]


def nonperiodic_binary(n: int) -> str:
    """Prefix of 1 10 100 1000 ..."""
    parts = []
    size = 0
    run = 0
    while size < n:
        parts.append("1" + "0" * run)
        size += run + 1
        run += 1
    return "".join(parts)[:n]


def image(images: tuple[str, ...], inner: str) -> str:
    return "".join(images[int(c)] for c in inner)


def t8_stream(n: int) -> str:
    return image(T8_IMAGES, thue_ternary(n // 3 + 1))[:n]


def t2_stream(n: int) -> str:
    return image(T2_IMAGES, nonperiodic_binary(n // 4 + 1))[:n]


def t6_stream(n: int) -> str:
    return image(T6_IMAGES, nonperiodic_binary(n // 7 + 1))[:n]


def windows(w: str, k: int) -> set[str]:
    return {w[i : i + k] for i in range(len(w) - k + 1)}


def first_reversal_conflict(w: str, k: int) -> tuple[str, int, int] | None:
    """The least length-k factor x whose reversal is also a factor, with the
    first occurrences of x and of its reversal; None when there is none."""
    present = windows(w, k)
    conflicts = sorted(x for x in present if x[::-1] in present)
    if not conflicts:
        return None
    x = conflicts[0]
    return x, w.find(x), w.find(x[::-1])


def first_square(w: str) -> tuple[str, int] | None:
    """The square xx with the leftmost start, shortest x first: (x, start)."""
    m = _SQUARE.search(w)
    return None if m is None else (m.group(1), m.start())


def is_valid(w: str, k: int, squarefree: bool = False) -> bool:
    if first_reversal_conflict(w, k) is not None:
        return False
    return not squarefree or first_square(w) is None


def insert_square(w: str, p: int, k: int) -> str:
    """Repeat a factor x = w[p:p+L] right after itself.

    L is the least length >= 2 for which w[p:p+k-1] == w[p+L:p+L+k-1], so
    both seams of xx read length-k factors that w already has: the result
    holds a square but no new length-k window.
    """
    for length in range(2, len(w) - p - k):
        if w[p : p + k - 1] == w[p + length : p + length + k - 1]:
            return w[: p + length] + w[p : p + length] + w[p + length :]
    raise ValueError(f"no repeat of {w[p:p + k - 1]!r} after position {p}")


def mutate_to_conflict(w: str, q: int, k: int, alphabet: int) -> str:
    """Change one symbol at or after q so that w gains a reversal conflict."""
    for i in range(q, len(w)):
        for c in map(str, range(alphabet)):
            if c != w[i]:
                mutated = w[:i] + c + w[i + 1 :]
                if first_reversal_conflict(mutated, k) is not None:
                    return mutated
    raise ValueError("no single-symbol mutation creates a conflict")


def rotation_family() -> list[str]:
    """The rotations of 001011 and of its complement, sorted."""
    z = "001011"
    family = {z[i:] + z[:i] for i in range(6)}
    family |= {y.translate(str.maketrans("01", "10")) for y in family}
    return sorted(family)


def periodic(preamble: str, period: str, n: int) -> str:
    return (preamble + period * (n // len(period) + 1))[:n]


def periodic_match(w: str) -> tuple[str, str] | None:
    """The shortest preamble, then least period, with w = preamble.period^omega
    prefix, over the k = 5 family; None when no member fits."""
    for preamble in sorted(PREAMBLES, key=lambda p: (len(p), p)):
        if not w.startswith(preamble):
            continue
        for period in rotation_family():
            if periodic(preamble, period, len(w)) == w:
                return preamble, period
    return None


def image_windows(images: tuple[str, ...], k: int, m: int, squarefree: bool) -> list[str]:
    """Sorted length-k windows of the images of all (squarefree) length-m words."""
    found: set[str] = set()
    for t in itertools.product("0123456789"[: len(images)], repeat=m):
        u = "".join(t)
        if squarefree and first_square(u) is not None:
            continue
        found |= windows(image(images, u), k)
    return sorted(found)


def enumerate_valid(s: int, k: int, squarefree: bool, length: int) -> list[str]:
    """All valid words of the given length in lexicographic order.

    Extends a prefix one symbol at a time and keeps it when its new
    length-k suffix is no palindrome, its reversal is not among the earlier
    windows and, if asked, no square ends at the new symbol.
    """
    out: list[str] = []
    symbols = "0123456789"[:s]

    def extend(prefix: str, seen: frozenset[str]) -> None:
        if len(prefix) == length:
            out.append(prefix)
            return
        for c in symbols:
            w = prefix + c
            new = w[-k:] if len(w) >= k else None
            if new is not None and (new == new[::-1] or new[::-1] in seen):
                continue
            if squarefree and any(
                w[-2 * h : -h] == w[-h:] for h in range(1, len(w) // 2 + 1)
            ):
                continue
            extend(w, seen | {new} if new is not None else seen)

    extend("", frozenset())
    return out
