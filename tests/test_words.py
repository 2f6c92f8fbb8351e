import itertools
import math
import random
import re
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from revfree import (
    Builtin,
    FactorSet,
    MorphicImage,
    Morphism,
    Periodic,
    Word,
    apply,
    complement,
    cyclic_shifts,
    factors,
    is_squarefree,
    periodic_factors,
    reverse,
    stream_prefix,
)
from revfree import words as words_module
from revfree.verification import BINARY_TO_TERNARY, TERNARY_TO_FIVE
from revfree.words import (
    BUILTIN_NAMES,
    LETTERS,
    MAX_PREFIX,
    PATH_BLOCK,
    SHORT_HALF,
    SHORTEST_SQUARE,
    _BATCH,
    StreamSpec,
    _short_square_start,
    _windows,
    drop_squares,
    first_square,
    starts_with_long_square,
)


def w(text, s):
    return Word.parse(text, s)


def of_symbols(symbols, s):
    """The word over s letters whose symbols are the given ints."""
    return Word("".join(map(str, symbols)), s)


def naive_first_square(word):
    # independent oracle: try every start, then every half-length
    syms = word.symbols
    n = len(syms)
    for i in range(n):
        for half in range(1, (n - i) // 2 + 1):
            if syms[i : i + half] == syms[i + half : i + 2 * half]:
                return i, half
    return None


def naive_squarefree(word):
    return naive_first_square(word) is None


_GREEDY_SQUARE = re.compile(r"(.+)\1", re.DOTALL)
_LAZY_SQUARE = re.compile(r"(.+?)\1", re.DOTALL)


def regex_first_square(word):
    # quadratic oracle for long words: the greedy search finds the leftmost
    # start, the lazy match there the shortest half
    text = "".join(chr(48 + c) for c in word.symbols)
    found = _GREEDY_SQUARE.search(text)
    if found is None:
        return None
    return found.start(), len(_LAZY_SQUARE.match(text, found.start()).group(1))


# T8's squarefree 5-letter word: the image of the ternary Thue word.
T8_PREFIX = stream_prefix(
    MorphicImage(TERNARY_TO_FIVE, Builtin("thue-squarefree-ternary")), 84_703
)


def t8_window(offset, length):
    return list(T8_PREFIX[offset : offset + length])


def with_square(symbols, position, half):
    """symbols with a copy of symbols[position:position + half] inserted after
    it, so that a square starts at position."""
    cut = position + half
    return symbols[:cut] + symbols[position:cut] + symbols[cut:]


class TestWord:
    def test_parse_and_str(self):
        assert str(w("0012", 3)) == "0012"
        assert str(w("", 2)) == ""
        assert len(w("00101", 2)) == 5

    @given(st.data())
    def test_str_is_one_digit_per_symbol(self, data):
        # a pair of words over one alphabet of 1..10 letters, the second
        # sharing a prefix of the first, so that order is decided at every
        # position, and by length when one is a prefix
        s = data.draw(st.integers(1, 10))
        syms = st.lists(st.integers(0, s - 1), max_size=40)
        a = tuple(data.draw(syms))
        b = a[: data.draw(st.integers(0, len(a)))] + tuple(data.draw(syms))
        u, v = of_symbols(a, s), of_symbols(b, s)
        for word, t in ((u, a), (v, b)):
            assert str(word) == "".join(str(c) for c in t)
            assert Word.parse(str(word), s) == word
            assert word.symbols == t and list(word) == list(t)
            assert [word[i] for i in range(-len(t), len(t))] == list(t + t)
        assert (u < v) == (a < b) and (v < u) == (b < a)
        assert [x.symbols for x in sorted([u, v])] == sorted([a, b])
        assert (u == v) == (a == b)
        if a == b:
            assert hash(u) == hash(v)
        i, j = data.draw(st.integers(-45, 45)), data.draw(st.integers(-45, 45))
        step = data.draw(st.sampled_from([None, 1, 2, -1]))
        assert u[i:j:step] == of_symbols(a[i:j:step], s)
        assert (u + v).symbols == a + b and (u + v).alphabet_size == s

    def test_symbols_must_fit_alphabet(self):
        with pytest.raises(ValueError):
            Word("02", 2)
        with pytest.raises(ValueError):
            Word("0", 0)
        with pytest.raises(ValueError):  # a stray symbol inside the word
            Word("0a1", 2)

    def test_alphabet_is_at_most_ten(self):
        # with 11 letters "10" could be the symbol 10 or the word 1.0
        assert str(Word("9", 10)) == "9"
        with pytest.raises(ValueError):
            Word("10", 11)
        with pytest.raises(ValueError):
            Word("", 11)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            Word.parse("01a", 2)

    def test_parse_rejects_non_ascii_digits(self):
        # Arabic-Indic one and two: str.isdigit and int accept them
        with pytest.raises(ValueError):
            Word.parse("\u0661\u0662", 3)

    def test_slicing_keeps_alphabet(self):
        word = w("0120", 3)
        assert word[1:3] == w("12", 3)
        assert word[0] == 0

    def test_concat_requires_same_alphabet(self):
        assert w("01", 2) + w("10", 2) == w("0110", 2)
        with pytest.raises(ValueError):
            w("01", 2) + w("01", 3)

    def test_each_construction_calls_post_init_once(self, monkeypatch):
        # the hook that counts words.Word.constructions in the benchmark's
        # tracer: __post_init__, looked up on the class, once per Word built
        calls = []
        post_init = Word.__post_init__

        def counting(self):
            calls.append(self)
            post_init(self)

        monkeypatch.setattr(Word, "__post_init__", counting)
        u, v, x = Word("0120", 3), Word("21", 3), Word("01", 2)
        spec = Periodic(Word("", 2), x)
        calls.clear()
        for build, expected in [
            (lambda: Word("012", 3), "012"),
            (lambda: Word.parse(" 0012 ", 3), "0012"),
            (lambda: u[1:3], "12"),
            (lambda: u + v, "012021"),
            (lambda: stream_prefix(spec, 5), "01010"),
            (lambda: apply(BINARY_TO_TERNARY, x), "00120112"),
        ]:
            built = build()
            assert len(calls) == 1 and calls.pop() is built and built.text == expected


class TestReverse:
    def test_examples(self):
        assert reverse(w("012", 3)) == w("210", 3)
        assert reverse(w("", 2)) == w("", 2)
        assert reverse(w("00101", 2)) == w("10100", 2)

    def test_involution(self):
        rng = random.Random(7)
        for _ in range(200):
            s = rng.randint(1, 5)
            word = of_symbols([rng.randrange(s) for _ in range(rng.randint(0, 20))], s)
            assert reverse(reverse(word)) == word


class TestComplement:
    def test_examples(self):
        assert complement(w("001011", 2)) == w("110100", 2)
        assert complement(w("", 2)) == w("", 2)
        assert complement(w("0", 2)) == w("1", 2)

    def test_involution(self):
        rng = random.Random(11)
        for _ in range(200):
            word = of_symbols([rng.randrange(2) for _ in range(rng.randint(0, 20))], 2)
            assert complement(complement(word)) == word

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            complement(w("012", 3))


class TestCyclicShifts:
    def test_six_rotations(self):
        expected = {
            w(t, 2)
            for t in ("001011", "010110", "101100", "011001", "110010", "100101")
        }
        assert cyclic_shifts(w("001011", 2)) == expected

    def test_rotation_invariant_word(self):
        assert cyclic_shifts(w("00", 2)) == {w("00", 2)}

    def test_two_rotations(self):
        assert cyclic_shifts(w("01", 2)) == {w("01", 2), w("10", 2)}

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            cyclic_shifts(w("", 2))

    def test_closed_under_rotation(self):
        rng = random.Random(3)
        for _ in range(50):
            s = rng.randint(2, 4)
            word = of_symbols([rng.randrange(s) for _ in range(rng.randint(1, 10))], s)
            shifts = cyclic_shifts(word)
            for member in shifts:
                rotated = of_symbols(member.symbols[1:] + member.symbols[:1], s)
                assert rotated in shifts
            assert len(word) % len(shifts) == 0


class TestFactors:
    def test_paper_pair_set(self):
        assert factors(w("012012", 3), 2) == {"01", "12", "20"}

    def test_windows_of_length_five(self):
        # oracle: slide a window and collect distinct values
        word = w("00101100", 2)
        expected = {
            of_symbols(word.symbols[i : i + 5], 2) for i in range(len(word) - 4)
        }
        assert expected == {w(t, 2) for t in ("00101", "01011", "10110", "01100")}
        assert factors(word, 5) == {x.text for x in expected}

    def test_window_longer_than_word(self):
        assert factors(w("01", 2), 5) == frozenset()

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            factors(w("01", 2), 0)

    def test_sliced_windows_bounded(self, monkeypatch):
        # sliced windows (s**n > 256) hold (len - n + 1) * n symbols: 12
        # windows of 9 symbols fit a bound of 108, and 13, in one text or
        # two, are refused before any is sliced
        monkeypatch.setattr(words_module, "MAX_WINDOW_SYMBOLS", 12 * 9)
        text = LETTERS * 2
        assert len(factors(w(text, 10), 9)) == 10
        assert _windows([text, "0" * 8], 9, 10) == factors(w(text, 10), 9)
        with pytest.raises(ValueError, match="117 symbols of the length-9 windows"):
            factors(w(text + "0", 10), 9)
        with pytest.raises(ValueError, match="exceed the limit of 108"):
            _windows(iter([text, "0" * 9]), 9, 10)
        # coded windows (s**n <= 256) take one byte each and are not bounded
        assert factors(w("01" * 20, 2), 8) == {"01010101", "10101010"}

    def test_count_bound(self):
        rng = random.Random(5)
        for _ in range(100):
            word = of_symbols([rng.randrange(3) for _ in range(rng.randint(0, 15))], 3)
            n = rng.randint(1, 8)
            assert len(factors(word, n)) <= max(0, len(word) - n + 1)

    # The packed codes serve s**n <= 256 and the slices the rest.  The texts
    # are coded in batches of _BATCH symbols, a longer text alone in pieces;
    # small batches put those cuts inside short words.
    @settings(max_examples=500, deadline=None)
    @example(s=2, n=8, used=2, length=_BATCH + 1, seed=0, batch=_BATCH)
    @example(s=5, n=2, used=3, length=2 * _BATCH + 3, seed=1, batch=_BATCH)
    @example(s=2, n=9, used=2, length=3000, seed=2, batch=_BATCH)
    @example(s=1, n=8, used=1, length=5, seed=0, batch=_BATCH)
    @given(
        s=st.integers(1, 10),
        n=st.integers(1, 12),
        used=st.integers(1, 10),
        length=st.one_of(st.integers(0, 16), st.integers(0, 1200)),
        seed=st.integers(0, 2**32),
        batch=st.sampled_from([1, 2, 3, 7, 64, _BATCH]),
    )
    def test_agrees_with_slices(self, s, n, used, length, seed, batch):
        # words over the first `used` letters miss most codes, as valid words do
        rng = random.Random(seed)
        text = "".join(rng.choices(LETTERS[: min(used, s)], k=length))
        want = frozenset(text[i : i + n] for i in range(len(text) - n + 1))
        with mock.patch.object(words_module, "_BATCH", batch):
            assert factors(Word(text, s), n) == want

    @settings(max_examples=300, deadline=None)
    @given(
        s=st.integers(1, 10),
        n=st.integers(1, 9),
        lengths=st.lists(st.integers(0, 12), max_size=8),
        seed=st.integers(0, 2**32),
        batch=st.sampled_from([1, 5, 16, _BATCH]),
    )
    def test_windows_never_straddle_two_texts(self, s, n, lengths, seed, batch):
        rng = random.Random(seed)
        texts = ["".join(rng.choices(LETTERS[:s], k=m)) for m in lengths]
        want = frozenset(x[i : i + n] for x in texts for i in range(len(x) - n + 1))
        with mock.patch.object(words_module, "_BATCH", batch):
            assert _windows(iter(texts), n, s) == want

    def test_each_window_across_a_piece_cut_counts(self):
        # a lone 1 in a zero word of more than _BATCH symbols: each window
        # holding it occurs once, also where the word is cut into pieces
        for n in (2, 5):
            for p in (_BATCH - n, _BATCH - 1, _BATCH, _BATCH + n - 1, 2 * _BATCH):
                text = "0" * p + "1" + "0" * (_BATCH + 3 - n)
                want = {text[i : i + n] for i in range(len(text) - n + 1)}
                assert factors(Word(text, 2), n) == want, (n, p)

    def test_codes_at_most_two_batches_at_once(self):
        # what one coding holds stays bounded, however many or long the texts
        sizes = []

        def recording(texts, n, s):
            sizes.append(sum(map(len, texts)))
            return batch_codes(texts, n, s)

        batch_codes = words_module._batch_codes
        texts = ["0120", "1", "0210" * 30, "012"] * 20
        with mock.patch.object(words_module, "_BATCH", 8), \
                mock.patch.object(words_module, "_batch_codes", recording):
            got = _windows(iter(texts), 3, 3)
        assert got == {x[i : i + 3] for x in texts for i in range(len(x) - 2)}
        assert len(sizes) > 20 and max(sizes) < 2 * 8 + 3

    def test_factor_set_rejects_mixed_lengths(self):
        with pytest.raises(ValueError):
            FactorSet(2, frozenset({w("01", 2), w("011", 2)}))

    def test_factor_set_rejects_mixed_alphabets(self):
        # "10" is the reversal of "01", but over another alphabet they are
        # different words, and a reversal test would miss the pair
        with pytest.raises(ValueError):
            FactorSet(2, frozenset({w("01", 2), w("10", 3)}))


THUE = Morphism.from_strings(["012", "02", "1"], 3)


def periodic_symbol(spec, i):
    p, y = spec.preamble.text, spec.period.text
    return p[i] if i < len(p) else y[(i - len(p)) % len(y)]


def runs_symbol(i):
    # the run 1 0^r starts at r(r + 1)/2, so the 1s sit at the triangular numbers
    return "1" if math.isqrt(8 * i + 1) ** 2 == 8 * i + 1 else "0"


def oracle_prefix(spec, n):
    """The first n symbols of spec, one symbol (or one image) at a time."""
    if isinstance(spec, Periodic):
        return "".join(periodic_symbol(spec, i) for i in range(n))
    if spec == Builtin("nonperiodic-binary"):
        return "".join(runs_symbol(i) for i in range(n))
    if isinstance(spec, Builtin):  # Thue's word: pinned by its fixed-point test
        return str(stream_prefix(spec, n))
    inner = oracle_prefix(spec.inner, n)
    out = ""
    for c in inner:
        if len(out) >= n:
            break
        out += str(spec.morphism.images[int(c)])
    return out[:n]


def symbol_texts(s, min_size, max_size):
    return st.text(LETTERS[:s], min_size=min_size, max_size=max_size)


@st.composite
def stream_specs(draw, depth=2):
    kind = draw(st.sampled_from(("periodic", "builtin", "image")[: 3 if depth else 2]))
    if kind == "periodic":
        s = draw(st.integers(1, 4))
        preamble, period = draw(symbol_texts(s, 0, 4)), draw(symbol_texts(s, 1, 6))
        return Periodic(Word(preamble, s), Word(period, s))
    if kind == "builtin":
        return Builtin(draw(st.sampled_from(BUILTIN_NAMES)))
    inner = draw(stream_specs(depth - 1))
    s = draw(st.integers(1, 5))
    images = draw(st.lists(symbol_texts(s, 1, 4), min_size=inner.alphabet_size,
                           max_size=inner.alphabet_size))
    return MorphicImage(Morphism.from_strings(images, s), inner)


class TestStreams:
    @settings(max_examples=300, deadline=None)
    @given(stream_specs(), st.integers(0, 150), st.integers(0, 150))
    def test_prefix_matches_symbol_oracle(self, spec, n, m):
        n, m = sorted((n, m))
        short, long = stream_prefix(spec, n), stream_prefix(spec, m)
        assert str(short) == oracle_prefix(spec, n)
        assert str(long) == oracle_prefix(spec, m)
        assert long[:n] == short
        assert short.alphabet_size == long.alphabet_size == spec.alphabet_size

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 3000))
    def test_thue_word_is_its_own_image(self, n):
        prefix = stream_prefix(Builtin("thue-squarefree-ternary"), n)
        assert len(prefix) == n
        assert str(prefix[:6]) == "012021"[:n]
        assert apply(THUE, prefix)[:n] == prefix

    def test_nonperiodic_binary_runs(self):
        text = str(stream_prefix(Builtin("nonperiodic-binary"), 5151))  # runs 0..100
        assert text.split("1")[1:] == ["0" * r for r in range(101)]

    def test_lengths_between_image_blocks(self):
        # T2's images have length 4, so these cut an image
        spec = MorphicImage(BINARY_TO_TERNARY, Periodic(w("", 2), w("01", 2)))
        assert [str(stream_prefix(spec, n)) for n in (0, 1, 5, 7, 9)] == \
            ["", "0", "00120", "0012011", "001201120"]

    def test_inner_builds_only_the_symbols_needed(self):
        asked = []

        class Recording(Periodic):
            def _prefix(self, n):
                asked.append(n)
                return super()._prefix(n)

        inner = Recording(w("", 2), w("01", 2))
        shortest_two = Morphism.from_strings(["01", "1101"], 2)
        for h, n, expected in (
            (BINARY_TO_TERNARY, 84_703, 21_176),  # images of length 4
            (BINARY_TO_TERNARY, 8, 2),
            (shortest_two, 7, 4),  # images of lengths 2 and 4
            (shortest_two, 0, 0),
        ):
            asked.clear()
            assert len(stream_prefix(MorphicImage(h, inner), n)) == n
            assert asked == [expected]

    def test_empty_prefix_keeps_the_alphabet(self):
        spec = MorphicImage(TERNARY_TO_FIVE, Builtin("thue-squarefree-ternary"))
        assert stream_prefix(spec, 0) == Word("", 5)

    def test_mismatched_inner_alphabet_rejected_when_built(self):
        # the thue word is ternary, T2's morphism binary: no symbol needs drawing
        with pytest.raises(ValueError):
            MorphicImage(BINARY_TO_TERNARY, Builtin("thue-squarefree-ternary"))
        with pytest.raises(ValueError):
            MorphicImage(TERNARY_TO_FIVE, Periodic(w("", 2), w("01", 2)))

    def test_non_spec_is_a_type_error(self):
        with pytest.raises(TypeError):
            stream_prefix("012", 3)
        with pytest.raises(TypeError):
            MorphicImage(TERNARY_TO_FIVE, "012")

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            stream_prefix(Builtin("nonperiodic-binary"), -1)

    def test_huge_length_refused_before_building(self):
        class Unbuildable(StreamSpec):
            alphabet_size = 2

            def _prefix(self, n):
                raise AssertionError(f"built a prefix of {n} symbols")

        for n in (MAX_PREFIX + 1, 10**11):
            with pytest.raises(ValueError, match="exceeds the limit"):
                stream_prefix(Unbuildable(), n)
        with pytest.raises(ValueError, match="exceeds the limit"):
            stream_prefix(Builtin("thue-squarefree-ternary"), 10**11)
        with pytest.raises(AssertionError):  # the limit itself is allowed
            stream_prefix(Unbuildable(), MAX_PREFIX)

    def test_periodic_factors_refused_past_the_limit(self):
        class Unbuildable(Periodic):
            def _prefix(self, n):
                raise AssertionError(f"built a prefix of {n} symbols")

        spec = Unbuildable(w("", 2), w("01", 2))
        with pytest.raises(ValueError, match="exceeds the limit"):
            periodic_factors(spec, MAX_PREFIX)  # a prefix of 2^26 + 1 symbols
        with pytest.raises(AssertionError, match=f"{MAX_PREFIX} symbols"):
            periodic_factors(spec, MAX_PREFIX - 1)  # the limit itself is allowed

    def test_long_image_builds_only_what_it_returns(self):
        # 0 -> 0, 1 -> 1^1000 over 1^omega: translating the ceil(n / 1) inner
        # symbols at once would build 1000 n symbols
        h = Morphism.from_strings(["0", "1" * 1000], 2)
        spec = MorphicImage(h, Periodic(w("", 2), w("1", 2)))
        n = 100_000
        tracemalloc.start()
        try:
            prefix = stream_prefix(spec, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert prefix.text == "1" * n
        assert peak < 10 * n

    def test_periodic_prefix(self):
        assert str(stream_prefix(Periodic(w("", 3), w("012", 3)), 7)) == "0120120"
        assert str(stream_prefix(Periodic(w("00", 2), w("01", 2)), 5)) == "00010"

    def test_nonperiodic_binary_prefix(self):
        assert str(stream_prefix(Builtin("nonperiodic-binary"), 11)) == "11010010001"

    def test_unknown_builtin(self):
        with pytest.raises(ValueError):
            Builtin("no-such-word")

    def test_empty_period_rejected(self):
        with pytest.raises(ValueError):
            Periodic(w("", 2), w("", 2))

    def test_periodic_factors_thm4_set(self):
        fs = periodic_factors(Periodic(w("", 2), w("001011", 2)), 5)
        assert fs == {"00101", "01011", "01100", "10010", "10110", "11001"}

    def test_periodic_factors_pair_set(self):
        fs = periodic_factors(Periodic(w("", 3), w("012", 3)), 2)
        assert fs == {"01", "12", "20"}

    def test_periodic_factors_trivial(self):
        fs = periodic_factors(Periodic(w("0", 2), w("01", 2)), 1)
        assert fs == {"0", "1"}

    def test_factor_stabilization(self):
        rng = random.Random(13)
        for _ in range(60):
            s = rng.randint(2, 3)
            period = of_symbols([rng.randrange(s) for _ in range(rng.randint(1, 7))], s)
            preamble = of_symbols([rng.randrange(s) for _ in range(rng.randint(0, 3))], s)
            spec = Periodic(preamble, period)
            for n in range(1, 9):
                big = len(preamble) + ((n - 1) // len(period) + 2) * len(period) + n
                assert factors(stream_prefix(spec, big), n) == periodic_factors(spec, n)


class TestSquarefree:
    def test_examples(self):
        assert is_squarefree(w("010", 2))
        assert not is_squarefree(w("0101", 2))
        assert is_squarefree(w("0102010", 3))
        assert is_squarefree(w("", 2))

    def test_agrees_with_oracle_exhaustive_binary(self):
        for n in range(14):
            for t in itertools.product("01", repeat=n):
                word = Word("".join(t), 2)
                assert is_squarefree(word) == naive_squarefree(word)

    def test_agrees_with_oracle_exhaustive_ternary(self):
        # ternary exhaustively up to length 9 (the naive oracle is cubic)
        for n in range(10):
            for t in itertools.product("012", repeat=n):
                word = Word("".join(t), 3)
                assert is_squarefree(word) == naive_squarefree(word)

    def test_agrees_with_oracle_random(self):
        rng = random.Random(17)
        for _ in range(300):
            s = rng.randint(2, 5)
            word = of_symbols([rng.randrange(s) for _ in range(rng.randint(0, 40))], s)
            assert is_squarefree(word) == naive_squarefree(word)

    @settings(max_examples=500, deadline=None)
    @given(st.integers(2, 5).flatmap(
        lambda s: st.lists(st.integers(0, s - 1), max_size=40).map(lambda t: of_symbols(t, s))
    ))
    def test_first_square_is_leftmost_then_shortest(self, word):
        assert first_square(word) == naive_first_square(word)

    def test_first_square_takes_shortest_half_at_leftmost_start(self):
        # the greedy search alone would report half 2 ("0000") at start 2
        assert first_square(w("1200001", 3)) == (2, 1)
        assert first_square(w("0120", 3)) is None

    def test_thue_fixed_point_is_squarefree(self):
        assert is_squarefree(stream_prefix(Builtin("thue-squarefree-ternary"), 3000))


@st.composite
def t8_windows_with_square(draw):
    """Up to 300 symbols of T8's word with an inserted square of half up to
    100, which crosses the split between short and long halves at 63/64,
    and sometimes one symbol changed."""
    length = draw(st.integers(0, 200))
    symbols = t8_window(draw(st.integers(0, 80_000)), length)
    symbols = with_square(symbols, draw(st.integers(0, length)), draw(st.integers(1, 100)))
    if symbols and draw(st.booleans()):
        symbols[draw(st.integers(0, len(symbols) - 1))] = draw(st.integers(0, 4))
    return of_symbols(symbols, 5)


class TestLongSquares:
    """first_square against the regex oracle on words long enough for every
    level of block sampling (halves 64 and up) to run."""

    def test_t8_windows_with_inserted_square(self):
        rng = random.Random(41)
        for _ in range(12):
            length = rng.randint(1_000, 12_000)
            symbols = t8_window(rng.randrange(len(T8_PREFIX) - length), length)
            half = rng.randint(1, min(3_000, length // 2))
            symbols = with_square(symbols, rng.randrange(length - half + 1), half)
            if rng.random() < 0.5:
                symbols[rng.randrange(len(symbols))] = rng.randrange(5)
            word = of_symbols(symbols, 5)
            assert first_square(word) == regex_first_square(word)

    def test_unary_and_periodic_words(self):
        for period in ((0,), (0, 1), (0, 1, 2), tuple(range(10)), tuple(t8_window(7, 100))):
            for length in (63, 64, 65, 500, 4_097):
                symbols = (period * length)[:length]
                word = of_symbols(symbols, max(symbols) + 1)
                assert first_square(word) == regex_first_square(word)
            prefix = t8_window(0, 3_000)
            word = of_symbols(tuple(prefix) + period * 40, 10)
            assert first_square(word) == regex_first_square(word)

    def test_squares_at_the_ends(self):
        symbols = t8_window(1_234, 3_000)
        for half in (1, 31, 32, 63, 64, 200, 1_500):
            at_start = of_symbols(with_square(symbols, 0, half), 5)
            assert first_square(at_start) == (0, half)
            at_end = of_symbols(symbols + symbols[-half:], 5)
            assert first_square(at_end) == regex_first_square(at_end)
            whole = of_symbols(with_square(symbols[:half], 0, half), 5)
            assert first_square(whole) == (0, half)

    def test_long_square_left_of_a_shorter_one(self):
        symbols = t8_window(500, 4_000)
        for half in (32, 64, 100, 1_000):
            long_first = with_square(with_square(symbols, 2_500, 2), 100, half)
            word = of_symbols(long_first, 5)
            assert first_square(word) == regex_first_square(word) == (100, half)
        # a square of half 1, four symbols in, inside both halves of a longer
        # one: the long square's first block boundary lies past the short one
        for half in (40, 100, 500):
            x = symbols[97 : 97 + half]
            x = x[:5] + [x[4]] + x[5:]
            word = of_symbols(symbols[:97] + x + x + symbols[97 + half :], 5)
            assert first_square(word) == regex_first_square(word) == (97, half + 1)

    @settings(max_examples=500, deadline=None)
    @given(st.one_of(
        st.integers(1, 5).flatmap(
            lambda s: st.lists(st.integers(0, s - 1), max_size=300).map(lambda t: of_symbols(t, s))
        ),
        t8_windows_with_square(),
    ))
    def test_matches_regex_oracle(self, word):
        assert first_square(word) == regex_first_square(word)

    def test_t8_image_prefix_is_squarefree(self):
        assert first_square(T8_PREFIX) is None


def shortest_square(word):
    # the regex search tries the starts in order, the shortest half first
    found = SHORTEST_SQUARE.search(word.text)
    return None if found is None else (found.start(), len(found.group(1)))


class TestShortLongSeam:
    """first_square where the short tests (halves up to 63) hand over to the
    64-symbol block levels (halves 64 and up), against the regex search."""

    @pytest.mark.parametrize("half", [62, 63, 64, 65, 126, 127, 128, 129])
    def test_seam_halves_at_fixed_positions(self, half):
        # squares either side of the split at fixed positions, whole and with
        # the second copy spoiled: the XOR scan stops each half's find at
        # best - 1 + half, and the block levels start from that best
        symbols = t8_window(3_210, 1_600)
        for border in (100, 300, 700):
            for position in range(border - 2, border + 2):
                squared = with_square(symbols, position, half)
                word = of_symbols(squared, 5)
                found = first_square(word)
                assert found == shortest_square(word)
                assert found[0] <= position
                # the second copy's last symbol changed: no square of this half
                squared[position + 2 * half - 1] = 9
                word = of_symbols(squared, 10)
                assert first_square(word) == shortest_square(word)

    @pytest.mark.parametrize("m, half", [(32, 64), (32, 100), (32, 127), (64, 128),
                                         (64, 200), (128, 300), (256, 1_000)])
    def test_square_before_its_aligned_block(self, m, half):
        # halves in [2m, 4m) are found from the block at the first multiple
        # q of m at or after the start; the XOR back-extension sets the start
        # up to m - 1 symbols before q
        symbols = t8_window(20_000, 4_000)
        q = 5 * m
        for back in (0, 1, m // 2, m - 1):
            word = of_symbols(with_square(symbols, q - back, half), 5)
            found = first_square(word)
            assert found == shortest_square(word)
            assert found[0] <= q - back


# The regex search the XOR scan replaces: the leftmost square with half at
# most SHORT_HALF, the shortest half first at each start.
SHORT_SQUARE = re.compile(rf"(.{{1,{SHORT_HALF}}}?)\1")


def regex_short_square_start(text):
    found = SHORT_SQUARE.search(text)
    return len(text) if found is None else found.start()


@st.composite
def t8_texts_with_short_square(draw):
    """Up to 200 or 3,000 symbols of T8's word, with a square of half 1..63
    inserted at a random position, and sometimes one symbol changed."""
    half = draw(st.integers(1, 63))
    length = draw(st.integers(half, draw(st.sampled_from([200, 3_000]))))
    symbols = t8_window(draw(st.integers(0, 80_000)), length)
    symbols = with_square(symbols, draw(st.integers(0, length - half)), half)
    if draw(st.booleans()):
        symbols[draw(st.integers(0, len(symbols) - 1))] = draw(st.integers(0, 4))
    return "".join(map(str, symbols))


class TestShortSquares:
    """The XOR scan for squares of half up to 63 against the regex search
    it replaces: the same start on every text."""

    def test_every_short_ternary_word(self):
        # the empty word, one symbol, and every square position and half
        # that fits in 8 symbols
        for n in range(9):
            for t in itertools.product("012", repeat=n):
                text = "".join(t)
                assert _short_square_start(text) == regex_short_square_start(text), text

    @settings(max_examples=500, deadline=None)
    @given(st.one_of(
        st.integers(1, 5).flatmap(lambda s: st.text(LETTERS[:s], max_size=400)),
        t8_texts_with_short_square(),
    ))
    def test_matches_regex_oracle(self, text):
        assert _short_square_start(text) == regex_short_square_start(text)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 80_000), st.integers(64, 3_000), st.data())
    def test_half_64_is_not_short(self, offset, length, data):
        # a square of half 64 in a squarefree word: the short scan must not
        # report it, and the whole test finds it or a square overlapping it
        symbols = t8_window(offset, length)
        position = data.draw(st.integers(0, length - 64))
        text = "".join(map(str, with_square(symbols, position, 64)))
        assert _short_square_start(text) == regex_short_square_start(text)
        if SHORT_SQUARE.search(text) is None:
            assert _short_square_start(text) == len(text)
            start, half = first_square(Word(text, 5))
            assert half >= 64 and start <= position

    def test_half_64_with_no_short_square(self):
        # the inserted copy often makes a short square at its seam, so few
        # draws above reach the long-half branch; this text must take it
        text = "".join(map(str, with_square(t8_window(997, 3_000), 100, 64)))
        assert SHORT_SQUARE.search(text) is None
        assert _short_square_start(text) == len(text)
        assert first_square(Word(text, 5)) == (100, 64)

    def test_short_halves_at_fixed_positions(self):
        # each half's find stops at best - 1 + half: a square found must
        # start before the best start so far, yet its whole zero run, which
        # ends half - 1 bytes past that start, lies inside the bound
        text = T8_PREFIX.text[:5_000]
        for position in (99, 100, 299):
            for half in (1, 30, 31, 32, 63):
                squared = text[: position + half] + text[position:]
                start = _short_square_start(squared)
                assert start == regex_short_square_start(squared) and start <= position


def regex_starts_with_square(text):
    return SHORTEST_SQUARE.match(text) is not None


def starts_with_square(text):
    # drop_squares on a level of one text
    return not drop_squares([text])


@st.composite
def t8_texts_with_leading_square(draw):
    """Up to 2,000 symbols of T8's word, sometimes after a copy of their
    first 1..600 symbols (a square at 0 whose half reaches every level of
    block finding), and sometimes with one symbol changed."""
    text = T8_PREFIX.text[: draw(st.integers(0, 2_000))]
    if draw(st.booleans()):
        text = text[: draw(st.integers(1, 600))] + text
    if text and draw(st.booleans()):
        i = draw(st.integers(0, len(text) - 1))
        text = text[:i] + draw(st.sampled_from("01234")) + text[i + 1 :]
    return text


class TestStartsWithSquare:
    """drop_squares against the one regex match it replaces in the level
    steps: the same answer on every text."""

    @settings(max_examples=1_000, deadline=None)
    @given(st.one_of(
        st.integers(2, 5).flatmap(lambda s: st.text(LETTERS[:s], max_size=2_000)),
        t8_texts_with_leading_square(),
    ))
    def test_matches_regex_oracle(self, text):
        assert starts_with_square(text) == regex_starts_with_square(text)

    def test_squares_at_the_start_of_t8(self):
        text = T8_PREFIX.text[:3_000]
        for half in range(1, 301):
            squared = text[:half] + text
            assert starts_with_square(squared) and regex_starts_with_square(squared)
            assert starts_with_square(text[:half] * 2)  # the square is the whole text
            # the same with the second half's last symbol changed: no square
            # of that half, though a longer or shorter one may still start it
            spoiled = text[:half] + text[: half - 1] + "9" + text[half:]
            assert starts_with_square(spoiled) == regex_starts_with_square(spoiled)

    @pytest.mark.parametrize("m, d, half", [(24, 16, 45), (24, 20, 47), (32, 20, 55),
                                             (32, 24, 60), (64, 40, 110)])
    def test_square_at_a_later_block_hit(self, m, d, half):
        # text[:m] has period d, so it occurs at half - d, which is no
        # square, before it occurs at half, which is
        p = T8_PREFIX.text[:d]
        block = (p * 2)[:m]
        x = block + "9" * (half - d - m) + p
        text = x + x + T8_PREFIX.text[:50]
        assert text.find(block, m) == half - d
        assert len(SHORTEST_SQUARE.match(text).group(1)) == half
        assert starts_with_square(text)
        spoiled = text[: 2 * half - 1] + "8" + text[2 * half :]
        assert starts_with_square(spoiled) == regex_starts_with_square(spoiled)

    @pytest.mark.parametrize("half", [23, 24, 25, 31, 32, 47, 48, 63, 64, 65, 127, 128])
    def test_squares_at_the_seams(self, half):
        # the one split of prefix tests: the regex takes halves to 23 and the
        # 24-symbol block the rest; with no symbol after the square, or one,
        # its half is n // 2, the last one the block find reaches
        x = T8_PREFIX.text[:half]
        for after in ("", "0", T8_PREFIX.text[half : half + 40]):
            text = x + x + after
            assert len(SHORTEST_SQUARE.match(text).group(1)) == half
            assert starts_with_square(text)
            assert starts_with_long_square(text) == (half >= PATH_BLOCK)
            # the second copy's last symbol changed: no square of this half
            spoiled = x + x[:-1] + "9" + after
            assert starts_with_square(spoiled) == regex_starts_with_square(spoiled)

    @pytest.mark.parametrize("n", [46, 47, 48, 49, 63, 64, 65, 127, 128, 129])
    def test_every_half_at_the_seam_lengths(self, n):
        # texts of n symbols around the length 48 where the long-half test
        # starts and the 24-symbol block first finds two halves, and the
        # lengths where halves of 64 first fit
        for half in range(1, n // 2 + 1):
            x = T8_PREFIX.text[:half]
            text = (x + x + T8_PREFIX.text[half:])[:n]
            assert len(text) == n
            assert starts_with_square(text) and regex_starts_with_square(text)
            spoiled = text[: 2 * half - 1] + "9" + text[2 * half :]
            assert starts_with_square(spoiled) == regex_starts_with_square(spoiled)
        assert starts_with_square(T8_PREFIX.text[:n]) is False

    def test_block_recurs_before_the_square(self):
        # text[:24] occurs at 25 and 50, where no square starts, at 75, the
        # square's half, and at 100 and 125 past it; with the square's last
        # symbol changed the same five hits confirm none
        block = T8_PREFIX.text[:PATH_BLOCK]
        x = block + "9" + block + "8" + block + "7"
        text = x + x + T8_PREFIX.text[:100]
        hits = [i for i in range(PATH_BLOCK, len(text) // 2 + 1) if text.startswith(block, i)]
        assert hits == [25, 50, 75, 100, 125]
        assert len(SHORTEST_SQUARE.match(text).group(1)) == 75
        assert starts_with_square(text) and starts_with_long_square(text)
        spoiled = text[:149] + "6" + text[150:]
        assert not regex_starts_with_square(spoiled)
        assert not starts_with_square(spoiled)

    @pytest.mark.parametrize(
        "length", [46, 47, 48, 61, 62, 63, 64, 65, 66, 127, 128, 129, 130, 200, 1_000, 5_000]
    )
    def test_letters_before_reversed_t8_prefixes(self, length):
        # a search path is its word reversed: a new letter in front of a
        # squarefree text starts a square or keeps it squarefree
        rev = T8_PREFIX.text[:length][::-1]
        for c in "01234":
            assert starts_with_square(c + rev) == regex_starts_with_square(c + rev)
        assert not starts_with_square(rev)

    @pytest.mark.parametrize("n", [46, 47, 48, 49, 63, 64, 65, 128])
    def test_mixed_level(self, n):
        # one level of n-symbol texts: squares of half 23, 24, 31, 32 and 64
        # where they fit, the same with the square's last symbol changed, and
        # squarefree texts between them; the filter keeps, in order, the
        # texts that the regex finds no square at the start of
        text = T8_PREFIX.text
        level = []
        for i, half in enumerate(h for h in (23, 24, 31, 32, 64) if 2 * h <= n):
            x = text[100 * i : 100 * i + half]
            squared = (x + x + text[100 * i + half :])[:n]
            spoiled = squared[: 2 * half - 1] + "9" + squared[2 * half :]
            level += [squared, text[1_000 * i : 1_000 * i + n], spoiled]
        assert {len(t) for t in level} == {n}
        kept = [t for t in level if not SHORTEST_SQUARE.match(t)]
        assert 0 < len(kept) < len(level)
        assert drop_squares(level) == kept
        assert drop_squares([]) == []
