"""Core word values: finite words, window sets (frozensets of digit strings,
built by `factors`), and descriptions of infinite words.

A window set of length-n windows over s letters is built from integer
codes when s**n <= 256: every window's base-s code lands in its own byte of
one big-integer sum over a batch of the text, and only the distinct codes
are decoded back to digit strings.  Longer windows, s**n > 256, are sliced
one by one, up to MAX_WINDOW_SYMBOLS symbols in all.

Squares are split by the length of their half, one split per question.
Whole-word scans (`first_square`) take halves up to 63 by an XOR scan and
longer ones by blocks of 64 symbols and more.  Prefix tests (does a square
start this text?) take halves below PATH_BLOCK = 24 by PATH_SHORT_SQUARE and
longer ones by a 24-symbol block: listings (`drop_squares`) find the text's
first block again, and the squarefree DFS indexes its path's blocks.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from collections.abc import Iterable, Iterator

# True only to type checkers: importing typing would cost every start-up
TYPE_CHECKING = False
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


class Record:
    """An immutable value whose fields are the names in its class's `__slots__`.

    A record is built from its fields in order, then checked by `__post_init__`.
    It equals only a record of its own class with equal fields, is hashed by
    them and reprs as Name(field=value, ...).  The methods are written once,
    here, so a record class generates no code at import.
    """

    __slots__ = ()

    def __init__(self, *values) -> None:
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes {len(self.__slots__)} fields")
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        # pickle and copy rebuild the record, so its checks run again
        return type(self), self._values()


class Word(Record):
    """An immutable finite word over the alphabet {0, ..., alphabet_size - 1},
    held as its digit string `text`.

    The alphabet size is carried explicitly: the digit string "01" denotes
    different objects over a binary and a ternary alphabet (complementation
    and search semantics differ).  It is at most 10, so that every symbol
    is one digit; digit strings order as their symbol tuples do.  It has
    its own `__init__`, `__eq__` and `__hash__`, since words are built and
    hashed on hot paths; every construction still ends in `__post_init__`.
    """

    __slots__ = ("text", "alphabet_size")
    text: str
    alphabet_size: int

    def __init__(self, text: str, alphabet_size: int) -> None:
        object.__setattr__(self, "text", text)
        object.__setattr__(self, "alphabet_size", alphabet_size)
        self.__post_init__()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.text == other.text and self.alphabet_size == other.alphabet_size

    def __hash__(self) -> int:
        return hash((self.text, self.alphabet_size))

    def __post_init__(self) -> None:
        stray = self.text.strip(alphabet(self.alphabet_size))
        if stray:
            raise ValueError(
                f"symbol {stray[0]!r} out of range for alphabet of size {self.alphabet_size}"
            )

    @classmethod
    def parse(cls, text: str, alphabet_size: int) -> Word:
        """Parse a string of the digits 0-9 like "0012"."""
        text = text.strip()
        if text and not (text.isascii() and text.isdigit()):
            raise ValueError(f"not a digit string: {text!r}")
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


class StreamSpec(Record):
    """Finite description of an infinite word: each kind gives its
    `alphabet_size` and `_prefix(n)`, its first n symbols as one digit string."""

    __slots__ = ()


class Periodic(StreamSpec):
    """The ultimately periodic word preamble . period . period . period ..."""

    __slots__ = ("preamble", "period")
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


class MorphicImage(StreamSpec):
    """The letterwise image of another infinite word under a morphism."""

    __slots__ = ("morphism", "inner")
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
        # every image has at least `shortest` symbols, so ceil(n / shortest)
        # inner symbols give at least n symbols.  They are translated in chunks
        # of ceil(rest / longest), so at most longest - 1 symbols spill past n;
        # a uniform morphism takes one chunk.
        lengths = [len(img) for img in self.morphism.images]
        inner, longest = self.inner._prefix(-(-n // min(lengths))), max(lengths)
        pieces, built, i = [], 0, 0
        while built < n:
            j = i + -(-(n - built) // longest)
            pieces.append(inner[i:j].translate(self.morphism.table))
            built, i = built + len(pieces[-1]), j
        return "".join(pieces)[:n]


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


class Builtin(StreamSpec):
    """A named word: "nonperiodic-binary" (the concatenation 1 10 100
    1000 ..., nonperiodic since its runs of zeros strictly grow) or
    "thue-squarefree-ternary" (the squarefree fixed point of 0 -> 012,
    1 -> 02, 2 -> 1)."""

    __slots__ = ("name",)
    name: str

    def __post_init__(self) -> None:
        if self.name not in _BUILTINS:
            raise ValueError(f"unknown builtin {self.name!r}; choose from {BUILTIN_NAMES}")

    @property
    def alphabet_size(self) -> int:
        return _BUILTINS[self.name][0]

    def _prefix(self, n: int) -> str:
        return _BUILTINS[self.name][1](n)


# The longest prefix stream_prefix or periodic_factors builds: 64 Mi symbols,
# a few hundred MiB while it is built.  A longer one is refused before any
# symbol is built.
MAX_PREFIX = 2**26
# The most symbols a window set of sliced windows (s**n > 256) may hold,
# (len - n + 1) * n summed over the texts: 128 Mi symbols, about as many bytes
# of window strings.  A larger one is refused before any window is sliced.
MAX_WINDOW_SYMBOLS = 2**27


def stream_prefix(spec: StreamSpec, n: int) -> Word:
    """The first n symbols of the described infinite word; n is at most
    MAX_PREFIX."""
    if n < 0:
        raise ValueError("prefix length must be nonnegative")
    if n > MAX_PREFIX:
        raise ValueError(f"a prefix of {n} symbols exceeds the limit of {MAX_PREFIX}")
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


def factors(w: Word, n: int) -> frozenset[str]:
    """The digit strings of all distinct length-n contiguous subwords of w."""
    return _windows([w.text], n, w.alphabet_size)


# Byte i of a symbol's ASCII digit becomes its value i.
_DIGIT_VALUES = bytes.maketrans(LETTERS.encode(), bytes(range(10)))
# Texts are coded in batches of about this many symbols, so that the few
# byte-per-symbol buffers of one batch are all the coding holds at once,
# whatever the number or length of the texts.
_BATCH = 1 << 16


def _window_codes(text: str, n: int, s: int) -> bytes:
    """Byte i is the base-s code of text[i:i + n], its first symbol most
    significant; requires s**n <= 256.

    With the symbols read as one big integer D of one byte each, the sum of
    s**t * (D >> 8t) over t < n holds each code in its own byte, with no
    carry since no code exceeds 255.  So n shifts, multiplies and adds, each
    one C loop over the word, replace a slice per window.
    """
    digits = int.from_bytes(text.encode().translate(_DIGIT_VALUES), "big")
    codes = digits
    for _ in range(n - 1):
        codes = digits + s * (codes >> 8)
    # the first n - 1 bytes hold partial windows before the word's start
    return codes.to_bytes(len(text), "big")[n - 1 :]


def _batch_codes(texts: list[str], n: int, s: int) -> bytes:
    """The codes of the windows inside one of the texts: the texts are
    coded joined, and the codes of windows across two of them are cut away."""
    codes = _window_codes("".join(texts), n, s)
    # the windows inside the text ending at e start in [e - len(x), e - n]
    return b"".join(
        codes[e - len(x) : e - n + 1]
        for x, e in zip(texts, itertools.accumulate(map(len, texts)))
        if len(x) >= n
    )


@functools.cache
def _code_words(s: int, n: int) -> tuple[str, ...]:
    # product() lists the words in the order of their codes
    return tuple(map("".join, itertools.product(alphabet(s), repeat=n)))


def _windows(texts: Iterable[str], n: int, s: int) -> frozenset[str]:
    """The distinct length-n windows over {0..s-1} that lie inside one of
    the texts; a window across two neighbouring texts is not one of them.

    When s**n <= 256 the texts are coded by `_batch_codes` in batches of
    about _BATCH symbols, a longer text alone in pieces, and only the
    distinct codes are decoded.  That covers every window set of the
    paper's claims: 3 or 5 letters at n = 2, 3 at n = 3 and 2 at n = 5
    and 6.  Longer windows are sliced one by one, once their symbols are
    known not to exceed MAX_WINDOW_SYMBOLS.
    """
    if n < 1:
        raise ValueError("factor length must be at least 1")
    if n > 8 or s**n > 256:
        texts = list(texts)
        size = sum(max(len(x) - n + 1, 0) for x in texts) * n
        if size > MAX_WINDOW_SYMBOLS:
            raise ValueError(f"the {size} symbols of the length-{n} windows exceed "
                             f"the limit of {MAX_WINDOW_SYMBOLS}")
        # no code fits a byte, so slice: a set comprehension, since
        # frozenset() of a generator is slower on long words
        return frozenset({x[i : i + n] for x in texts for i in range(len(x) - n + 1)})
    found: set[int] = set()
    batch: list[str] = []
    size = 0
    for x in texts:
        if len(x) > _BATCH:
            # a long text is coded alone, in pieces of _BATCH windows that
            # overlap by n - 1 symbols
            for i in range(0, len(x) - n + 1, _BATCH):
                found.update(_batch_codes([x[i : i + _BATCH + n - 1]], n, s))
            continue
        batch.append(x)
        size += len(x)
        if size >= _BATCH:
            found.update(_batch_codes(batch, n, s))
            batch, size = [], 0
    found.update(_batch_codes(batch, n, s))
    words = _code_words(s, n)
    return frozenset([words[c] for c in found])


def periodic_factors(spec: Periodic, n: int) -> frozenset[str]:
    """The exact length-n factor set of the infinite word preamble.period^omega.

    A window starting at or past the preamble depends only on its phase
    modulo the period length, so a prefix covering every phase once (plus
    the preamble) realizes every factor of the infinite word.
    """
    if not isinstance(spec, Periodic):
        raise TypeError("periodic_factors requires a Periodic stream spec")
    size = len(spec.preamble) + len(spec.period) + n - 1
    if size > MAX_PREFIX:
        raise ValueError(f"a prefix of {size} symbols exceeds the limit of {MAX_PREFIX}")
    return _windows([spec._prefix(size)], n, spec.alphabet_size)


# The longest half of a square that the XOR scan of whole words takes.
SHORT_HALF = 63
# The block length of prefix tests, in listings and in the squarefree DFS's
# index (see `search`): halves below PATH_BLOCK go to PATH_SHORT_SQUARE.match,
# which reads at most 46 symbols, and a longer half |x| puts the block
# text[:PATH_BLOCK] at |x|.  Lazy, so a match tries the shortest halves,
# where most squares of a search lie, first.
PATH_BLOCK = 24
PATH_SHORT_SQUARE = re.compile(rf"(.{{1,{PATH_BLOCK - 1}}}?)\1")
# Matched at a position, the square starting there with the shortest half.
# Symbols are digits, so "." matches any of them.
SHORTEST_SQUARE = re.compile(r"(.+?)\1")


def _short_square_start(text: str) -> int:
    """Start of the leftmost square with half at most SHORT_HALF in text, or
    len(text) when it has none: the start a lazy regex search for such
    squares reports.

    Each half L is one XOR of big integers: with text[:n - L] and text[L:]
    read as integers, byte i of their XOR is zero iff text[i] == text[i + L].
    So a square of half L starts where L zero bytes do, and bytes.find gives
    the first such start before the best one so far.  One pass reads the
    whole text, even when a square starts near its beginning.
    """
    n = len(text)
    whole = int.from_bytes(text.encode(), "big")
    best = n
    for half in range(1, min(SHORT_HALF, n // 2) + 1):
        rest = n - half
        # text[:rest] XOR text[half:], as one integer of rest bytes
        diff = (whole >> 8 * half) ^ (whole & ((1 << 8 * rest) - 1))
        i = diff.to_bytes(rest, "big").find(bytes(half), 0, best - 1 + half)
        if i != -1:
            best = i
    return best


def _leftmost_square_start(text: str) -> int | None:
    """Start of the leftmost square in text, or None when it has none.

    Halves up to SHORT_HALF go to `_short_square_start`.  Longer halves p
    in [2m, 4m) are found one level at a time, m = 32, 64, 128, ...: a
    square xx at i with such a half holds text[a:q+m] inside its first x,
    where q is the first multiple of m at or after i and a is q, or
    best - 1 when that is smaller (i < best, the leftmost start found so
    far).  That block occurs again at a + p; str.find gives the candidates
    p, and each is confirmed by how far the match reaches back from a (one
    XOR, as in the short scan) and one comparison of the whole square.  No
    square starts at a < best, so the block has no period up to half its
    length and occurs at most a few times in the window searched.
    """
    n = len(text)
    best = _short_square_start(text)
    data = text.encode()
    m = (SHORT_HALF + 1) // 2
    while 4 * m <= n and best > 0:
        for q in range(0, n - 3 * m, m):
            if q - m + 1 >= best:  # the block gives starts in (q - m, q] only
                break
            a = min(q, best - 1)
            block = text[a : q + m]
            end = a + 4 * m - 1 + len(block)
            j = text.find(block, a + 2 * m, end)
            while j != -1:
                # lo: the longest b <= hi with text[a - b:a] == text[j - b:j],
                # where hi keeps a - b > q - m, since earlier starts belong to
                # earlier blocks; the XOR's trailing zero bytes are the
                # symbols that agree
                hi = min(a, a - q + m - 1)
                d = int.from_bytes(data[a - hi : a], "big")
                d ^= int.from_bytes(data[j - hi : j], "big")
                lo = ((d & -d).bit_length() - 1) // 8 if d else hi
                start, half = a - lo, j - a
                if start < best and text[start : start + half] == text[j - lo : j - lo + half]:
                    best = start
                j = text.find(block, j + 1, end)
        m *= 2
    return None if best == n else best


def drop_squares(texts: list[str]) -> list[str]:
    """The texts, all of one length, that no square xx starts, in order: those
    SHORTEST_SQUARE.match rejects, without its regex step per candidate half.

    Halves below PATH_BLOCK go to PATH_SHORT_SQUARE, and longer ones, once
    the texts have room for two, to `starts_with_long_square`.  The DFS has
    the path these texts extend, so it tests its pushes another way (see
    `search`).
    """
    short_square = PATH_SHORT_SQUARE.match
    texts = [t for t in texts if not short_square(t)]
    if texts and len(texts[0]) >= 2 * PATH_BLOCK:
        texts = [t for t in texts if not starts_with_long_square(t)]
    return texts


def starts_with_long_square(text: str) -> bool:
    """True iff a square xx with |x| >= PATH_BLOCK starts text.

    Such a square puts the block text[:PATH_BLOCK] at |x|.  So str.find, over
    the starts that keep the block's copy within the first half of the text
    plus the block, gives the candidate halves, and one startswith confirms
    each: a fixed number of Python steps and one C scan of half the text,
    plus a copy of text[:|x|] per candidate.
    """
    least = PATH_BLOCK  # the shortest long half
    if len(text) < 2 * least:  # no such square fits
        return False
    block, end = text[:least], len(text) // 2 + least
    j = text.find(block, least, end)
    while j != -1:
        if text.startswith(text[:j], j):
            return True
        j = text.find(block, j + 1, end)
    return False


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
