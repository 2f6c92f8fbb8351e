"""Morphisms on words: application, image factor sets, marker synchronization,
blockwise decoding, and the finite squarefreeness test for ternary morphisms."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .words import FactorSet, Word, is_squarefree


@dataclass(frozen=True)
class Morphism:
    """A morphism given by the images of the letters 0..domain_size-1.

    All images must be nonempty and share one codomain alphabet.
    """

    images: tuple[Word, ...]

    def __post_init__(self) -> None:
        if not self.images:
            raise ValueError("a morphism needs at least one image")
        cod = self.images[0].alphabet_size
        for img in self.images:
            if len(img) == 0:
                raise ValueError("morphism images must be nonempty")
            if img.alphabet_size != cod:
                raise ValueError("all images must share one codomain alphabet")

    @classmethod
    def from_strings(cls, image_texts: list[str] | tuple[str, ...],
                     codomain_size: int | None = None) -> Morphism:
        """Build from digit strings, image_texts[i] being the image of i."""
        if codomain_size is None:
            codomain_size = max(
                (int(ch) for text in image_texts for ch in text), default=0
            ) + 1
        return cls(tuple(Word.parse(t, codomain_size) for t in image_texts))

    @property
    def domain_size(self) -> int:
        return len(self.images)

    @property
    def codomain_size(self) -> int:
        return self.images[0].alphabet_size

    @property
    def is_uniform(self) -> bool:
        return len({len(img) for img in self.images}) == 1

    @property
    def image_length(self) -> int:
        if not self.is_uniform:
            raise ValueError("non-uniform morphism has no single image length")
        return len(self.images[0])


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
    syms: list[int] = []
    for c in w.symbols:
        if c >= h.domain_size:
            raise ValueError(f"symbol {c} outside morphism domain of size {h.domain_size}")
        syms.extend(h.images[c].symbols)
    return Word(tuple(syms), h.codomain_size)


def all_words_universe(s: int, m: int) -> FactorSet:
    """All s^m words of length m over {0..s-1}."""
    return FactorSet(m, frozenset(
        Word(t, s) for t in itertools.product(range(s), repeat=m)
    ))


def squarefree_words_universe(s: int, m: int) -> FactorSet:
    """All squarefree words of length m over {0..s-1}."""
    members = frozenset(
        Word(t, s)
        for t in itertools.product(range(s), repeat=m)
        if is_squarefree(Word(t, s))
    )
    return FactorSet(m, members)


def image_factor_set(h: Morphism, k: int, preimage_universe: FactorSet) -> FactorSet:
    """All length-k windows of h(u) for u ranging over the universe.

    When the universe contains every length-m factor of a word w, this is a
    superset of the length-k factor set of h(w), and exactly the factor set
    of the image of any word realizing the whole universe.  The universe must
    be long enough that images of its members cover a window:
    (m-1) * min_image_length + 1 >= k.
    """
    m = preimage_universe.length
    min_len = min(len(img) for img in h.images)
    if (m - 1) * min_len + 1 < k:
        raise ValueError(
            f"universe of length {m} cannot cover windows of length {k} "
            f"(minimum image length {min_len})"
        )
    windows: set[Word] = set()
    for u in preimage_universe.members:
        image = apply(h, u)
        for i in range(len(image) - k + 1):
            windows.add(image[i : i + k])
    return FactorSet(k, frozenset(windows))


@dataclass(frozen=True)
class MarkerReport:
    """Every occurrence of a marker inside images of letter pairs, and whether
    all of them are block-aligned starts of the marked image."""

    marker: Word
    occurrences: tuple[tuple[tuple[Word, Word], int], ...]
    synchronized: bool


def marker_sync_check(h: Morphism, marker: Word) -> MarkerReport:
    """Check that the marker occurs in h(a)h(b) only block-aligned, and only
    where the block is the image whose prefix is the marker.

    This is the decoding lemma behind the nonperiodicity arguments: a
    synchronized marker pins down image boundaries inside any image word.
    """
    if not h.is_uniform:
        raise ValueError("marker synchronization is only supported for uniform morphisms")
    block = h.image_length
    if len(marker) > block:
        raise ValueError("marker longer than the image length")
    # the marked block: the one image that starts with the marker, if unique
    starting = {img for img in h.images if img.startswith(marker)}
    marked = starting.pop() if len(starting) == 1 else None
    occurrences: list[tuple[tuple[Word, Word], int]] = []
    synchronized = marked is not None
    for a in range(h.domain_size):
        for b in range(h.domain_size):
            pair = apply(h, Word((a, b), h.domain_size))
            for i in range(len(pair) - len(marker) + 1):
                if pair.symbols[i : i + len(marker)] != marker.symbols:
                    continue
                a_word = Word((a,), h.domain_size)
                b_word = Word((b,), h.domain_size)
                occurrences.append(((a_word, b_word), i))
                if i == 0:
                    aligned_image = h.images[a]
                elif i == block:
                    aligned_image = h.images[b]
                else:
                    synchronized = False
                    continue
                if aligned_image != marked:
                    synchronized = False
    return MarkerReport(marker, tuple(occurrences), synchronized)


@dataclass(frozen=True)
class SquarefreeMorphismResult:
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
    block = h.image_length
    if len(y) % block != 0:
        return None
    decoded: list[int] = []
    for start in range(0, len(y), block):
        piece = y.symbols[start : start + block]
        for c, img in enumerate(h.images):
            if img.symbols == piece:
                decoded.append(c)
                break
        else:
            return None
    return Word(tuple(decoded), h.domain_size)
