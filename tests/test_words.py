import itertools
import math
import random
import re

import pytest
from hypothesis import given, settings
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
from revfree.verification import BINARY_TO_TERNARY, TERNARY_TO_FIVE
from revfree.words import BUILTIN_NAMES, LETTERS, first_square


def w(text, s=None):
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
        # sharing a prefix of the first, so that order and startswith are
        # decided at every position, and by length when one is a prefix
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
        assert u.startswith(v) == (a[: len(b)] == b)
        assert v.startswith(u) == (b[: len(a)] == a)

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
            Word.parse("01a")

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
        assert factors(w("012012", 3), 2).members == {
            w("01", 3), w("12", 3), w("20", 3)
        }

    def test_windows_of_length_five(self):
        # oracle: slide a window and collect distinct values
        word = w("00101100", 2)
        expected = {
            of_symbols(word.symbols[i : i + 5], 2) for i in range(len(word) - 4)
        }
        assert expected == {w(t, 2) for t in ("00101", "01011", "10110", "01100")}
        assert factors(word, 5).members == expected

    def test_window_longer_than_word(self):
        assert factors(w("01", 2), 5).members == frozenset()

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            factors(w("01", 2), 0)

    def test_count_bound(self):
        rng = random.Random(5)
        for _ in range(100):
            word = of_symbols([rng.randrange(3) for _ in range(rng.randint(0, 15))], 3)
            n = rng.randint(1, 8)
            assert len(factors(word, n)) <= max(0, len(word) - n + 1)

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
        assert fs.members == {
            w(t, 2) for t in ("00101", "01011", "01100", "10010", "10110", "11001")
        }

    def test_periodic_factors_pair_set(self):
        fs = periodic_factors(Periodic(w("", 3), w("012", 3)), 2)
        assert fs.members == {w("01", 3), w("12", 3), w("20", 3)}

    def test_periodic_factors_trivial(self):
        fs = periodic_factors(Periodic(w("0", 2), w("01", 2)), 1)
        assert fs.members == {w("0", 2), w("1", 2)}

    def test_factor_stabilization(self):
        rng = random.Random(13)
        for _ in range(60):
            s = rng.randint(2, 3)
            period = of_symbols([rng.randrange(s) for _ in range(rng.randint(1, 7))], s)
            preamble = of_symbols([rng.randrange(s) for _ in range(rng.randint(0, 3))], s)
            spec = Periodic(preamble, period)
            for n in range(1, 9):
                big = len(preamble) + ((n - 1) // len(period) + 2) * len(period) + n
                assert (
                    factors(stream_prefix(spec, big), n).members
                    == periodic_factors(spec, n).members
                )


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
    100, which crosses the level boundaries at halves 31/32 and 63/64, and
    sometimes one symbol changed."""
    length = draw(st.integers(0, 200))
    symbols = t8_window(draw(st.integers(0, 80_000)), length)
    symbols = with_square(symbols, draw(st.integers(0, length)), draw(st.integers(1, 100)))
    if symbols and draw(st.booleans()):
        symbols[draw(st.integers(0, len(symbols) - 1))] = draw(st.integers(0, 4))
    return of_symbols(symbols, 5)


class TestLongSquares:
    """first_square against the regex oracle on words long enough for every
    level of block sampling (halves 32 and up) to run."""

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
