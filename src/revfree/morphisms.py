"""Morphisms on words: application, image factor sets, marker synchronization,
blockwise decoding, and the finite squarefreeness test for ternary morphisms."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .words import LETTERS, FactorSet, Word, alphabet, is_squarefree


@dataclass(frozen=True)
class Morphism:
    """A morphism given by the images of the letters 0..domain_size-1.

    All images must be nonempty and share one codomain alphabet.
    """

    images: tuple[Word, ...]

    def __post_init__(self) -> None:
        if not 1 <= len(self.images) <= 10:
            raise ValueError("a morphism needs one image per letter, for 1..10 letters")
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
            codomain_size = int(max("".join(image_texts), default="0")) + 1
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

    @property
    def table(self) -> dict[int, str]:
        """The `str.translate` table taking each letter to its image."""
        return {ord(c): img.text for c, img in zip(LETTERS, self.images)}


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


def all_words_universe(s: int, m: int) -> FactorSet:
    """All s^m words of length m over {0..s-1}."""
    texts = ("".join(t) for t in itertools.product(alphabet(s), repeat=m))
    return FactorSet(m, frozenset(Word(t, s) for t in texts))


def squarefree_words_universe(s: int, m: int) -> FactorSet:
    """All squarefree words of length m over {0..s-1}."""
    return FactorSet(m, frozenset(filter(is_squarefree, all_words_universe(s, m).members)))


def image_factor_set(h: Morphism, k: int, preimage_universe: FactorSet) -> FactorSet:
    """All length-k windows of h(u) for u ranging over the universe.

    When the universe contains every length-m factor of a word w, this is a
    superset of the length-k factor set of h(w), and exactly the factor set
    of the image of any word realizing the whole universe.  The universe must
    be long enough that images of its members cover a window:
    (m-1) * min_image_length + 1 >= k.
    """
    if any(u.alphabet_size != h.domain_size for u in preimage_universe.members):
        raise ValueError("the universe is not over the morphism's domain alphabet")
    m = preimage_universe.length
    min_len = min(len(img) for img in h.images)
    if (m - 1) * min_len + 1 < k:
        raise ValueError(
            f"universe of length {m} cannot cover windows of length {k} "
            f"(minimum image length {min_len})"
        )
    windows: set[str] = set()
    for u in preimage_universe.members:
        image = apply(h, u).text
        windows.update(image[i : i + k] for i in range(len(image) - k + 1))
    return FactorSet(k, frozenset(Word(x, h.codomain_size) for x in windows))


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
    if marker.alphabet_size != h.codomain_size:
        raise ValueError("the marker is not over the morphism's codomain alphabet")
    block = h.image_length
    if not 1 <= len(marker) <= block:
        raise ValueError(f"marker length {len(marker)} is not in 1..{block}, the image length")
    # the marked block: the one image that starts with the marker, if unique
    starting = {img for img in h.images if img.startswith(marker)}
    marked = starting.pop() if len(starting) == 1 else None
    occurrences: list[tuple[tuple[Word, Word], int]] = []
    synchronized = marked is not None
    letters = [Word(c, h.domain_size) for c in LETTERS[: h.domain_size]]
    for a, image_a in zip(letters, h.images):
        for b, image_b in zip(letters, h.images):
            pair = image_a.text + image_b.text
            for i in range(len(pair) - len(marker) + 1):
                if pair[i : i + len(marker)] != marker.text:
                    continue
                occurrences.append(((a, b), i))
                if i == 0:
                    aligned_image = image_a
                elif i == block:
                    aligned_image = image_b
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
    if y.alphabet_size != h.codomain_size:
        raise ValueError("the word is not over the morphism's codomain alphabet")
    block = h.image_length
    if len(y) % block != 0:
        return None
    # reversed, so that the first letter wins when two images are equal
    letter_of = {img.text: c for c, img in reversed(list(zip(LETTERS, h.images)))}
    pieces = [letter_of.get(y.text[i : i + block]) for i in range(0, len(y), block)]
    if None in pieces:
        return None
    return Word("".join(pieces), h.domain_size)
