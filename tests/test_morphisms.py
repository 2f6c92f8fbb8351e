import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revfree import (
    AvoidanceQuery,
    Builtin,
    FactorSet,
    MarkerReport,
    MorphicImage,
    Morphism,
    Periodic,
    Word,
    all_words_universe,
    apply,
    factors,
    find_conflict,
    format_morphism,
    has_reversal_conflict,
    image_factor_set,
    is_squarefree,
    marker_sync_check,
    parse_morphism,
    periodic_factors,
    periodicity_transport_check,
    squarefree_morphism_test,
    squarefree_words_universe,
    stream_prefix,
)
from revfree.morphisms import MAX_UNIVERSE

H_TERNARY = Morphism.from_strings(["0012", "0112"], 3)
H_BINARY = Morphism.from_strings(["0001011", "0010111"], 2)
H_FIVE = Morphism.from_strings(["012", "013", "014"], 5)
# Thue's morphism 0 -> 012, 1 -> 02, 2 -> 1: images of three lengths
THUE = Morphism.from_strings(["012", "02", "1"], 3)


def w(text, s):
    return Word.parse(text, s)


def random_word(rng, s, max_len=12):
    return Word("".join(str(rng.randrange(s)) for _ in range(rng.randint(0, max_len))), s)


class TestMorphism:
    def test_properties(self):
        assert H_TERNARY.domain_size == 2
        assert H_TERNARY.codomain_size == 3
        assert H_TERNARY.is_uniform

    def test_non_uniform(self):
        assert not THUE.is_uniform

    def test_empty_image_rejected(self):
        with pytest.raises(ValueError):
            Morphism.from_strings(["01", ""], 2)

    def test_at_most_ten_letters(self):
        # domain letters are digits too, so an eleventh letter has no symbol
        with pytest.raises(ValueError):
            Morphism.from_strings(["0"] * 11, 1)

    def test_image_outside_codomain_rejected(self):
        with pytest.raises(ValueError, match="'0a'"):
            Morphism.from_strings(["0a", "1"])
        with pytest.raises(ValueError, match="'3'"):
            Morphism(("012", "3"), 3)
        with pytest.raises(ValueError):  # an Arabic-Indic one
            Morphism.from_strings(["0", "\u0661"], 2)

    def test_non_string_image_rejected(self):
        with pytest.raises(TypeError, match="digit string"):
            Morphism((w("01", 2), "10"), 2)
        for codomain in (2, None):
            with pytest.raises(TypeError):
                Morphism.from_strings([w("01", 2), "10"], codomain)

    def test_images_are_the_given_strings(self):
        h = Morphism.from_strings(["0012", "0112"])
        assert h == Morphism(("0012", "0112"), 3) == H_TERNARY
        assert h.table == {ord("0"): "0012", ord("1"): "0112"}
        assert Morphism.from_strings(["0", "00"]).codomain_size == 1

    def test_parse_round_trip(self):
        text = format_morphism(H_BINARY)
        assert parse_morphism(text) == H_BINARY

    def test_parse_rejects_gaps(self):
        with pytest.raises(ValueError):
            parse_morphism("0 -> 01\n2 -> 10")
        with pytest.raises(ValueError):
            parse_morphism("0 -> 01\n0 -> 10")
        with pytest.raises(ValueError):
            parse_morphism("nonsense")
        with pytest.raises(ValueError):  # an Arabic-Indic one
            parse_morphism("0 -> 01\n\u0661 -> 10")


class TestApply:
    def test_examples(self):
        assert apply(H_TERNARY, w("01", 2)) == w("00120112", 3)
        assert apply(H_TERNARY, w("", 2)) == w("", 3)
        assert apply(H_FIVE, w("012", 3)) == w("012013014", 5)

    def test_out_of_domain(self):
        with pytest.raises(ValueError):
            apply(H_TERNARY, w("012", 3))

    def test_morphism_law(self):
        rng = random.Random(43)
        morphisms = [H_TERNARY, H_BINARY, H_FIVE, THUE]
        for _ in range(1000):
            h = rng.choice(morphisms)
            u = random_word(rng, h.domain_size)
            v = random_word(rng, h.domain_size)
            assert apply(h, u + v) == apply(h, u) + apply(h, v)


class TestImageFactorSet:
    def test_seven_word_ternary_set(self):
        fs = image_factor_set(H_TERNARY, 3, all_words_universe(2, 2))
        assert fs == {"001", "011", "012", "112", "120", "200", "201"}
        assert not has_reversal_conflict(fs)

    def test_fifteen_word_binary_set(self):
        fs = image_factor_set(H_BINARY, 6, all_words_universe(2, 2))
        assert fs == {
            "000101", "001011", "010110", "010111", "011000", "011001", "011100",
            "100010", "100101", "101100", "101110", "110001", "110010", "111000",
            "111001",
        }
        assert not has_reversal_conflict(fs)

    def test_five_letter_pair_set(self):
        fs = image_factor_set(H_FIVE, 2, squarefree_words_universe(3, 2))
        assert fs == {"01", "12", "13", "14", "20", "30", "40"}
        assert not has_reversal_conflict(fs)

    def test_non_uniform_images_are_cut_apart(self):
        # joined, the images 012012 and 11 of 00 and 22 hold the window 21
        # across their boundary, which neither image holds
        universe = FactorSet(2, frozenset({Word("00", 3), Word("22", 3)}))
        assert image_factor_set(THUE, 2, universe) == {"01", "12", "20", "11"}

    def test_non_uniform_images_against_each_images_windows(self):
        # k up to 5 packs ternary codes in bytes, k = 6 (3^6 > 256) slices
        for universe in (all_words_universe, squarefree_words_universe):
            for m in range(1, 7):
                members = universe(3, m)
                images = [apply(THUE, u).text for u in members.members]
                for k in range(1, m + 1):
                    want = {x[i : i + k] for x in images for i in range(len(x) - k + 1)}
                    assert image_factor_set(THUE, k, members) == want, (m, k)

    def test_zero_length_rejected(self):
        for k in (0, -1):
            with pytest.raises(ValueError):
                image_factor_set(H_FIVE, k, squarefree_words_universe(3, 2))

    def test_universe_too_short(self):
        with pytest.raises(ValueError):
            image_factor_set(H_TERNARY, 9, all_words_universe(2, 2))

    def test_universe_over_another_alphabet_rejected(self):
        # a unary universe misses the binary pairs 01, 10 and 11: its image
        # windows are 4 of T2's 7, an unsound certificate
        with pytest.raises(ValueError):
            image_factor_set(H_TERNARY, 3, all_words_universe(1, 2))
        with pytest.raises(ValueError):
            image_factor_set(H_TERNARY, 3, all_words_universe(3, 2))

    def test_matches_stream_factors(self):
        # the nonperiodic builtin realizes every binary pair, so the
        # over-approximated image set equals the factor set of its image
        inner = Builtin("nonperiodic-binary")
        assert factors(stream_prefix(Builtin("nonperiodic-binary"), 30), 2) \
            == {u.text for u in all_words_universe(2, 2).members}
        for h, k in ((H_TERNARY, 3), (H_BINARY, 6)):
            prefix = stream_prefix(MorphicImage(h, inner), 400)
            assert factors(prefix, k) == image_factor_set(h, k, all_words_universe(2, 2))


class TestUniverses:
    def test_sizes(self):
        assert len(all_words_universe(2, 8).members) == 256
        assert len(squarefree_words_universe(3, 3).members) == 12

    # each of these raises before a word is built: never try a size that passes
    @pytest.mark.parametrize("s, m", [
        (2, 21), (2, 30), (2, 10**9), (3, 13), (10, 7), (1, MAX_UNIVERSE + 1),
    ])
    def test_oversized_universe_refused(self, s, m):
        assert s**min(m, 64) > MAX_UNIVERSE or m > MAX_UNIVERSE
        with pytest.raises(ValueError, match="limit"):
            all_words_universe(s, m)
        with pytest.raises(ValueError, match="limit"):
            squarefree_words_universe(s, m)

    @pytest.mark.parametrize("m", [0, -1])
    def test_universe_length_below_1_refused(self, m):
        for universe in (all_words_universe, squarefree_words_universe):
            with pytest.raises(ValueError, match=f"universe length must be at least 1, not {m}"):
                universe(2, m)


@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_squarefree_universe_is_the_filtered_product(s):
    for m in range(1, 8):
        texts = ["".join(t) for t in itertools.product("0123"[:s], repeat=m)]
        squarefree = [t for t in texts if not re.search(r"(.+)\1", t)]
        for universe, expected in ((all_words_universe, texts),
                                   (squarefree_words_universe, squarefree)):
            assert universe(s, m) == FactorSet(m, frozenset(Word(t, s) for t in expected))


def test_empty_universe_refused():
    # no binary squarefree word has length 4 or more
    empty = squarefree_words_universe(2, 5)
    assert empty.members == frozenset()
    with pytest.raises(ValueError, match="empty"):
        image_factor_set(H_TERNARY, 3, empty)


def test_window_sets_build_no_word(monkeypatch):
    # the universes, the prefix and the periodic spec are built first
    binary = all_words_universe(2, 2)
    squarefree = squarefree_words_universe(3, 2)
    prefix = stream_prefix(MorphicImage(H_FIVE, Builtin("thue-squarefree-ternary")), 3000)
    spec = Periodic(Word("", 5), prefix)
    built = 0
    post_init = Word.__post_init__

    def counting(self):
        nonlocal built
        built += 1
        post_init(self)

    monkeypatch.setattr(Word, "__post_init__", counting)
    windows = factors(prefix, 2)
    assert windows == {"01", "12", "13", "14", "20", "30", "40"}
    assert windows <= periodic_factors(spec, 2)
    for fs in (windows, image_factor_set(H_BINARY, 6, binary),
               image_factor_set(H_FIVE, 2, squarefree)):
        assert not has_reversal_conflict(fs)
    assert find_conflict(prefix, AvoidanceQuery(2, require_squarefree=True)) is None
    assert built == 0


def test_morphisms_build_no_word(monkeypatch):
    built = 0
    post_init = Word.__post_init__

    def counting(self):
        nonlocal built
        built += 1
        post_init(self)

    monkeypatch.setattr(Word, "__post_init__", counting)
    t8 = parse_morphism("0 -> 012\n1 -> 013\n2 -> 014\n")
    assert t8.images == ("012", "013", "014")
    for texts in (["0012", "0112"], ["0001011", "0010111"], ["012", "013", "014"]):
        assert Morphism.from_strings(texts).images == tuple(texts)
    assert built == 0


def per_offset_marker_check(h, marker):
    """The marker report by one test per occurrence: it must sit at offset 0
    or at the block length of h(a)h(b), where its block must be the one image
    that starts with the marker."""
    block = len(h.images[0])
    starting = {img for img in h.images if img.startswith(marker.text)}
    marked = starting.pop() if len(starting) == 1 else None
    occurrences = []
    synchronized = marked is not None
    for (a, image_a), (b, image_b) in itertools.product(enumerate(h.images), repeat=2):
        pair = image_a + image_b
        for i in range(len(pair) - len(marker) + 1):
            if pair[i : i + len(marker)] != marker.text:
                continue
            occurrences.append((f"{a}{b}", i))
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


class TestMarkerSync:
    def test_double_zero_synchronized(self):
        report = marker_sync_check(H_TERNARY, w("00", 3))
        assert report.synchronized
        # 00 occurs only block-aligned: h(00) at 0 and 4, h(01) at 0, h(10) at 4
        assert sorted(report.occurrences) == [("00", 0), ("00", 4), ("01", 0), ("10", 4)]

    def test_triple_zero_synchronized(self):
        assert marker_sync_check(H_BINARY, w("000", 2)).synchronized

    def test_letter_order_does_not_matter(self):
        # the marked block is the image the marker starts, not images[0]
        for h, marker in ((H_TERNARY, w("00", 3)), (H_BINARY, w("000", 2))):
            swapped = Morphism.from_strings(h.images[::-1], h.codomain_size)
            assert marker_sync_check(swapped, marker).synchronized
            assert marker_sync_check(h, marker).synchronized

    def test_marker_must_start_exactly_one_image(self):
        # 0 occurs only block-aligned but starts both images; 12 starts neither
        assert not marker_sync_check(Morphism.from_strings(["012", "021"], 3), w("0", 3)).synchronized
        assert not marker_sync_check(H_TERNARY, w("12", 3)).synchronized
        # two letters with one image: a single marked block
        doubled = Morphism.from_strings(["0012", "0012", "0112"], 3)
        assert marker_sync_check(doubled, w("00", 3)).synchronized

    def test_interior_marker_not_synchronized(self):
        report = marker_sync_check(H_TERNARY, w("01", 3))
        assert not report.synchronized
        assert any(off not in (0, 4) for _, off in report.occurrences)

    def test_non_uniform_rejected(self):
        with pytest.raises(ValueError):
            marker_sync_check(THUE, w("0", 3))

    def test_empty_marker_rejected(self):
        # it would "occur" at every offset of every pair
        with pytest.raises(ValueError):
            marker_sync_check(H_TERNARY, w("", 3))

    def test_marker_longer_than_image_rejected(self):
        with pytest.raises(ValueError):
            marker_sync_check(H_FIVE, w("0120", 5))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_agrees_with_per_offset_oracle(self, data):
        # uniform morphisms of 1..4 letters into 1..4 letters, images of
        # length 1..5; half the markers are image prefixes, so that
        # synchronized cases occur
        s = data.draw(st.integers(1, 4))
        cod = data.draw(st.integers(1, 4))
        block = data.draw(st.integers(1, 5))
        letters = "0123456789"[:cod]
        images = data.draw(st.lists(st.text(letters, min_size=block, max_size=block),
                                    min_size=s, max_size=s))
        h = Morphism.from_strings(images, cod)
        length = data.draw(st.integers(1, block))
        if data.draw(st.booleans()):
            marker = Word(data.draw(st.sampled_from(images))[:length], cod)
        else:
            marker = Word(data.draw(st.text(letters, min_size=length, max_size=length)), cod)
        assert marker_sync_check(h, marker) == per_offset_marker_check(h, marker)

    def test_marker_over_another_alphabet_rejected(self):
        # a binary 00 is not a word of the ternary images it is looked for in
        with pytest.raises(ValueError):
            marker_sync_check(H_TERNARY, w("00", 2))


class TestSquarefreeMorphismTest:
    def test_five_letter_morphism_passes(self):
        result = squarefree_morphism_test(H_FIVE)
        assert result.passed
        assert result.failing is None
        assert len(result.preimages) == 12

    def test_preimages_are_the_squarefree_length_3_words(self):
        result = squarefree_morphism_test(H_FIVE)
        words = (Word("".join(t), 3) for t in itertools.product("012", repeat=3))
        expected = sorted(filter(is_squarefree, words))
        assert list(result.preimages) == expected

    def test_identity_passes(self):
        identity = Morphism.from_strings(["0", "1", "2"], 3)
        assert squarefree_morphism_test(identity).passed

    def test_constant_morphism_fails(self):
        constant = Morphism.from_strings(["0", "0", "0"], 3)
        result = squarefree_morphism_test(constant)
        assert not result.passed
        assert result.failing == w("010", 3)

    def test_wrong_domain_rejected(self):
        with pytest.raises(ValueError):
            squarefree_morphism_test(H_TERNARY)

    def test_non_uniform_morphism_gets_the_length_5_preimages(self):
        # length 3 suffices for uniform morphisms only
        h = Morphism.from_strings(["01021", "012102", "0120212"], 3)
        result = squarefree_morphism_test(h)
        assert result.passed
        assert list(result.preimages) == sorted(squarefree_words_universe(3, 5).members)
        assert len(result.preimages) == 30
        squaring = Morphism.from_strings(["01", "01", "2"], 3)
        assert squarefree_morphism_test(squaring).failing == w("01020", 3)


class TestBlockDecode:
    def test_examples(self):
        assert periodicity_transport_check(H_TERNARY, w("00120112", 3)) == w("01", 2)
        assert periodicity_transport_check(H_TERNARY, w("0012", 3)) == w("0", 2)
        assert periodicity_transport_check(H_TERNARY, w("1200", 3)) is None

    def test_wrong_length_multiple(self):
        assert periodicity_transport_check(H_TERNARY, w("001", 3)) is None

    def test_decode_inverts_encode(self):
        rng = random.Random(47)
        for h in (H_TERNARY, H_BINARY):
            for _ in range(300):
                u = random_word(rng, h.domain_size, max_len=10)
                assert periodicity_transport_check(h, apply(h, u)) == u

    def test_non_uniform_rejected(self):
        with pytest.raises(ValueError):
            periodicity_transport_check(THUE, w("012", 3))

    def test_word_over_another_alphabet_rejected(self):
        # the digits of h(0) over 5 letters are not the binary image h(0)
        with pytest.raises(ValueError):
            periodicity_transport_check(H_BINARY, w("0001011", 5))
