import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revfree import (
    AvoidanceQuery,
    ConflictWitness,
    SquareWitness,
    Word,
    complement,
    factors,
    find_avoiding_word,
    find_conflict,
    has_reversal_conflict,
    is_valid,
    reverse,
    verify_unavoidable,
)


def w(text, s):
    return Word.parse(text, s)


def of_symbols(symbols, s):
    """The word over s letters whose symbols are the given ints."""
    return Word("".join(map(str, symbols)), s)


def reduction_equivalence(word, k):
    """Brute-force oracle: the length-exactly-k test agrees with quantifying
    over all subword lengths >= k."""
    if len(word) < k:
        raise ValueError("word shorter than k")
    at_k = has_reversal_conflict(factors(word, k))
    at_any = any(
        has_reversal_conflict(factors(word, n)) for n in range(k, len(word) + 1)
    )
    return at_k == at_any


def naive_valid(word, k, require_squarefree=False):
    """Full-quantifier oracle: checks every subword length >= k."""
    syms = word.symbols
    n = len(syms)
    for m in range(k, n + 1):
        subs = {syms[i : i + m] for i in range(n - m + 1)}
        if any(t[::-1] in subs for t in subs):
            return False
    if require_squarefree:
        for i in range(n):
            for half in range(1, (n - i) // 2 + 1):
                if syms[i : i + half] == syms[i + half : i + 2 * half]:
                    return False
    return True


class TestReversalConflict:
    def test_conflict_free_sets(self):
        assert not has_reversal_conflict({"01", "12", "20"})
        assert not has_reversal_conflict(
            frozenset({"00101", "01011", "01100", "10010", "10110", "11001"})
        )

    def test_palindrome_conflicts(self):
        assert has_reversal_conflict({"00"})

    def test_any_palindrome_forces_conflict(self):
        rng = random.Random(23)
        for _ in range(100):
            k = rng.randint(1, 6)
            half = tuple(rng.randrange(2) for _ in range(k // 2))
            mid = (rng.randrange(2),) if k % 2 else ()
            word = of_symbols(half + mid + half[::-1], 2)
            assert word == reverse(word)
            others = {
                of_symbols([rng.randrange(2) for _ in range(k)], 2) for _ in range(3)
            }
            assert has_reversal_conflict(frozenset({word.text}) | {x.text for x in others})


class TestIsValid:
    def test_ternary_periodic_word(self):
        assert is_valid(w("012012", 3), AvoidanceQuery(2))

    def test_conflict_witness(self):
        witness = find_conflict(w("0110", 2), AvoidanceQuery(2))
        assert isinstance(witness, ConflictWitness)
        assert witness.x == w("01", 2)
        assert witness.position_x == 0
        assert witness.position_xr == 2

    def test_binary_k5_prefix(self):
        assert is_valid(w("001011001", 2), AvoidanceQuery(5))

    def test_short_words_vacuously_valid(self):
        assert is_valid(w("0110", 2), AvoidanceQuery(5))
        assert is_valid(w("", 2), AvoidanceQuery(1))

    def test_square_witness(self):
        # too short for a length-5 reversal conflict, so the square is reported
        witness = find_conflict(w("0101", 3), AvoidanceQuery(5, require_squarefree=True))
        assert isinstance(witness, SquareWitness)
        assert witness.x == w("01", 3)
        assert witness.position == 0

    def test_reversal_conflict_reported_before_square(self):
        witness = find_conflict(w("0101", 3), AvoidanceQuery(3, require_squarefree=True))
        assert isinstance(witness, ConflictWitness)
        assert witness.x == w("010", 3)

    def test_witness_is_lexicographically_first(self):
        # both 01/10 and 00 (palindrome) conflict in 10-0-01; 00 sorts first
        witness = find_conflict(w("10001", 2), AvoidanceQuery(2))
        assert witness.x == w("00", 2)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 10).flatmap(
            lambda s: st.lists(st.integers(0, s - 1), max_size=30).map(lambda t: of_symbols(t, s))
        ),
        st.integers(1, 4),
    )
    def test_conflict_witness_matches_symbol_tuples(self, word, k):
        # oracle on symbol tuples: least conflicting window, first occurrences
        syms = word.symbols
        windows = [syms[i : i + k] for i in range(len(syms) - k + 1)]
        conflicts = sorted(x for x in set(windows) if x[::-1] in windows)
        witness = find_conflict(word, AvoidanceQuery(k))
        if not conflicts:
            assert witness is None
            return
        x = conflicts[0]
        assert witness == ConflictWitness(of_symbols(x, word.alphabet_size), windows.index(x), windows.index(x[::-1]))

    def test_agrees_with_full_quantifier_binary(self):
        for k in (2, 3, 5):
            for n in range(13):
                for t in itertools.product(range(2), repeat=n):
                    word = of_symbols(t, 2)
                    assert is_valid(word, AvoidanceQuery(k)) == naive_valid(word, k)

    def test_agrees_with_full_quantifier_ternary(self):
        for n in range(10):
            for t in itertools.product(range(3), repeat=n):
                word = of_symbols(t, 3)
                assert is_valid(word, AvoidanceQuery(2)) == naive_valid(word, 2)

    def test_closed_under_subwords(self):
        rng = random.Random(29)
        q = AvoidanceQuery(3)
        checked = 0
        while checked < 40:
            word = of_symbols([rng.randrange(3) for _ in range(10)], 3)
            if not is_valid(word, q):
                continue
            checked += 1
            for i in range(len(word)):
                for j in range(i, len(word) + 1):
                    assert is_valid(word[i:j], q)

    def test_closed_under_reversal_and_complement(self):
        rng = random.Random(31)
        for _ in range(300):
            k = rng.randint(2, 5)
            q = AvoidanceQuery(k)
            word = of_symbols([rng.randrange(2) for _ in range(rng.randint(0, 14))], 2)
            v = is_valid(word, q)
            assert is_valid(reverse(word), q) == v
            assert is_valid(complement(word), q) == v

    def test_closed_under_alphabet_permutation(self):
        rng = random.Random(37)
        for _ in range(200):
            s = rng.randint(2, 4)
            perm = list(range(s))
            rng.shuffle(perm)
            q = AvoidanceQuery(rng.randint(2, 4))
            word = of_symbols([rng.randrange(s) for _ in range(rng.randint(0, 12))], s)
            permuted = of_symbols([perm[c] for c in word.symbols], s)
            assert is_valid(word, q) == is_valid(permuted, q)


class TestReductionEquivalence:
    def test_examples(self):
        assert reduction_equivalence(w("00101100101", 2), 5)
        assert reduction_equivalence(w("0120120", 3), 2)

    def test_short_word_rejected(self):
        with pytest.raises(ValueError):
            reduction_equivalence(w("01", 2), 5)

    def test_random_words(self):
        rng = random.Random(41)
        for _ in range(1000):
            s = rng.randint(2, 4)
            k = rng.randint(2, 5)
            n = rng.randint(k, 14)
            word = of_symbols([rng.randrange(s) for _ in range(n)], s)
            assert reduction_equivalence(word, k)


class TestUnavoidable:
    K2_SET = frozenset(Word.parse(t, 2) for t in ("00", "11", "010", "101"))
    K3_SET = frozenset(
        Word.parse(t, 2) for t in ("000", "010", "101", "111", "0110", "1001")
    )
    K4_SET = frozenset(
        Word.parse(t, 2)
        for t in ("0000", "0110", "1001", "1111", "00100", "01010", "01110",
                  "10001", "10101", "11011")
    )

    def test_listed_sets(self):
        assert verify_unavoidable(2, 3, self.K2_SET)
        assert verify_unavoidable(2, 5, self.K3_SET)
        assert verify_unavoidable(2, 9, self.K4_SET)

    def test_counterexample_below_threshold(self):
        assert find_avoiding_word(2, 2, self.K2_SET) == w("01", 2)
        assert not verify_unavoidable(2, 2, self.K2_SET)

    def test_k4_set_avoidable_at_length_8(self):
        survivor = find_avoiding_word(2, 8, self.K4_SET)
        assert survivor is not None
        assert is_valid(survivor, AvoidanceQuery(4))

    def test_pattern_over_wrong_alphabet_rejected(self):
        with pytest.raises(ValueError):
            verify_unavoidable(2, 3, {w("012", 3)})
