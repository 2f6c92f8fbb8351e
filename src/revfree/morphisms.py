"""Morphisms on words: application, image factor sets, marker synchronization,
blockwise decoding, and the finite squarefreeness test for ternary morphisms."""

from __future__ import annotations

import itertools

from .words import LETTERS, Record, Word, _windows, alphabet, drop_squares, is_squarefree


class Morphism(Record):
    """A morphism given by the digit strings of the images of the letters
    0..domain_size-1: nonempty words over one codomain alphabet."""

    __slots__ = ("images", "codomain_size")
    images: tuple[str, ...]
    codomain_size: int

    def __post_init__(self) -> None:
        if not 1 <= len(self.images) <= 10:
            raise ValueError("a morphism needs one image per letter, for 1..10 letters")
        letters = alphabet(self.codomain_size)
        for img in self.images:
            if not isinstance(img, str):
                raise TypeError(f"a morphism image must be a digit string, not {img!r}")
            if not img or img.strip(letters):
                raise ValueError(f"morphism image {img!r} is not a nonempty word over {letters}")

    @classmethod
    def from_strings(cls, image_texts: list[str] | tuple[str, ...],
                     codomain_size: int | None = None) -> Morphism:
        """Build from digit strings, image_texts[i] being the image of i; the
        codomain size defaults to one more than the largest digit used."""
        if codomain_size is None:
            codomain_size = 1 + max([0, *map(LETTERS.find, "".join(image_texts))])
        return cls(tuple(image_texts), codomain_size)

    @property
    def domain_size(self) -> int:
        return len(self.images)

    @property
    def is_uniform(self) -> bool:
        return len({len(img) for img in self.images}) == 1

    @property
    def table(self) -> dict[int, str]:
        """The `str.translate` table taking each letter to its image."""
        return {ord(c): img for c, img in zip(LETTERS, self.images)}


def parse_morphism(text: str) -> Morphism:
    """Parse the textual format, one `symbol -> image` line per letter, e.g.

        0 -> 0012
        1 -> 0112

    Every domain symbol 0..s-1 must appear exactly once.
    """
    mapping: dict[int, str] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        left, sep, right = line.partition("->")
        if not sep:
            raise ValueError(f"bad morphism line: {raw!r}")
        sym_text, image_text = left.strip(), right.strip()
        if not (sym_text.isascii() and sym_text.isdigit()):
            raise ValueError(f"bad domain symbol in line: {raw!r}")
        sym = int(sym_text)
        if sym in mapping:
            raise ValueError(f"duplicate image for symbol {sym}")
        mapping[sym] = image_text
    if not mapping:
        raise ValueError("empty morphism definition")
    if sorted(mapping) != list(range(len(mapping))):
        raise ValueError("domain symbols must be exactly 0..s-1")
    return Morphism.from_strings([mapping[i] for i in range(len(mapping))])


def format_morphism(h: Morphism) -> str:
    return "\n".join(f"{i} -> {img}" for i, img in enumerate(h.images))


def apply(h: Morphism, w: Word) -> Word:
    """The letterwise image h(w)."""
    if w.text.strip(LETTERS[: h.domain_size]):
        raise ValueError(f"{w} has a symbol outside morphism domain of size {h.domain_size}")
    return Word(w.text.translate(h.table), h.codomain_size)


class FactorSet(Record):
    """A preimage universe for `image_factor_set`: distinct words sharing one
    common length, held as `Word`s because the benchmark's tracer reads their
    `symbols`.  Window sets are frozensets of digit strings."""

    __slots__ = ("length", "members")
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


# The most words, and the longest word, a universe may hold: a larger one is
# refused before any word is built.
MAX_UNIVERSE = 2**20


def _universe_letters(s: int, m: int) -> str:
    """The letters of a universe of words of length m over {0..s-1}; refused
    when m < 1 or s^m exceeds MAX_UNIVERSE."""
    if m < 1:
        raise ValueError(f"universe length must be at least 1, not {m}")
    letters = alphabet(s)
    # s ** m exceeds the bound once m reaches its bit length, unless s == 1
    if m > MAX_UNIVERSE or s ** min(m, MAX_UNIVERSE.bit_length()) > MAX_UNIVERSE:
        raise ValueError(f"a universe of {s}^{m} words exceeds the limit of {MAX_UNIVERSE}")
    return letters


def all_words_universe(s: int, m: int) -> FactorSet:
    """All s^m words of length m over {0..s-1}; at most MAX_UNIVERSE of them."""
    texts = ("".join(t) for t in itertools.product(_universe_letters(s, m), repeat=m))
    return FactorSet(m, frozenset(Word(t, s) for t in texts))


def squarefree_words_universe(s: int, m: int) -> FactorSet:
    """All squarefree words of length m over {0..s-1}, grown one letter at a
    time so that only squarefree words are built; refused, like
    `all_words_universe`, when s^m exceeds MAX_UNIVERSE."""
    letters = _universe_letters(s, m)
    # reversed words, so that a square ending at the new letter starts the word
    level = [""]
    for _ in range(m):
        level = drop_squares([c + rev for rev in level for c in letters])
        if not level:  # no binary word of length 4 is squarefree
            break
    return FactorSet(m, frozenset(Word(rev[::-1], s) for rev in level))


def image_factor_set(h: Morphism, k: int, preimage_universe: FactorSet) -> frozenset[str]:
    """The digit strings of all length-k windows of h(u) for u ranging over
    the universe.

    When the universe contains every length-m factor of a word w, this is a
    superset of the length-k factor set of h(w), and exactly the factor set
    of the image of any word realizing the whole universe.  The universe must
    be long enough that images of its members cover a window:
    (m-1) * min_image_length + 1 >= k.
    """
    if k < 1:
        raise ValueError("factor length must be at least 1")
    if not preimage_universe.members:
        raise ValueError("the preimage universe is empty, so its image certifies nothing")
    if any(u.alphabet_size != h.domain_size for u in preimage_universe.members):
        raise ValueError("the universe is not over the morphism's domain alphabet")
    m = preimage_universe.length
    min_len = min(len(img) for img in h.images)
    if (m - 1) * min_len + 1 < k:
        raise ValueError(
            f"universe of length {m} cannot cover windows of length {k} "
            f"(minimum image length {min_len})"
        )
    table = h.table
    images = (u.text.translate(table) for u in preimage_universe.members)
    return _windows(images, k, h.codomain_size)


class MarkerReport(Record):
    """Every occurrence of a marker inside images of letter pairs, as the pair
    "ab" and the offset in h(a)h(b), and whether the marker synchronizes."""

    __slots__ = ("marker", "occurrences", "synchronized")
    marker: Word
    occurrences: tuple[tuple[str, int], ...]
    synchronized: bool


def marker_sync_check(h: Morphism, marker: Word) -> MarkerReport:
    """Check that exactly one image starts with the marker and that it occurs
    in every h(a)h(b) only block-aligned.  An aligned occurrence starts the
    image of its block, so then every occurrence starts that one image.

    This is the decoding lemma behind the nonperiodicity arguments: a
    synchronized marker pins down image boundaries inside any image word.
    """
    if not h.is_uniform:
        raise ValueError("marker synchronization is only supported for uniform morphisms")
    if marker.alphabet_size != h.codomain_size:
        raise ValueError("the marker is not over the morphism's codomain alphabet")
    block = len(h.images[0])
    m = marker.text
    if not 1 <= len(m) <= block:
        raise ValueError(f"marker length {len(m)} is not in 1..{block}, the image length")
    occurrences = tuple(
        (a + b, i)
        for a, image_a in zip(LETTERS, h.images)
        for b, image_b in zip(LETTERS, h.images)
        for pair in [image_a + image_b]
        for i in range(len(pair) - len(m) + 1)
        if pair.startswith(m, i)
    )
    starting = {img for img in h.images if img.startswith(m)}
    synchronized = len(starting) == 1 and all(i in (0, block) for _, i in occurrences)
    return MarkerReport(marker, occurrences, synchronized)


class SquarefreeMorphismResult(Record):
    __slots__ = ("passed", "preimages", "failing")
    passed: bool
    preimages: tuple[Word, ...]
    failing: Word | None


def squarefree_morphism_test(h: Morphism) -> SquarefreeMorphismResult:
    """Apply h to every squarefree ternary word of length 3 (there are 12)
    when h is uniform, or of length 5 (there are 30) when it is not, and
    check each image for squarefreeness.  By Crochemore's criteria (1982),
    passing this finite test certifies that h maps every squarefree ternary
    word to a squarefree word; length 3 suffices only for uniform h."""
    if h.domain_size != 3:
        raise ValueError("the squarefree-morphism test is defined for ternary domains")
    length = 3 if h.is_uniform else 5
    preimages = tuple(sorted(squarefree_words_universe(3, length).members))
    for u in preimages:
        if not is_squarefree(apply(h, u)):
            return SquarefreeMorphismResult(False, preimages, u)
    return SquarefreeMorphismResult(True, preimages, None)


def periodicity_transport_check(h: Morphism, y: Word) -> Word | None:
    """Blockwise decode: the preimage u with apply(h, u) == y, or None when y
    is not a concatenation of images.  Requires a uniform morphism."""
    if not h.is_uniform:
        raise ValueError("blockwise decoding requires a uniform morphism")
    if y.alphabet_size != h.codomain_size:
        raise ValueError("the word is not over the morphism's codomain alphabet")
    block = len(h.images[0])
    if len(y) % block != 0:
        return None
    # reversed, so that the first letter wins when two images are equal
    letter_of = {img: c for c, img in reversed(list(zip(LETTERS, h.images)))}
    pieces = [letter_of.get(y.text[i : i + block]) for i in range(0, len(y), block)]
    if None in pieces:
        return None
    return Word("".join(pieces), h.domain_size)
