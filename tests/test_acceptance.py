"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they are produced.
"""

import itertools
import random
import time

import pytest

from revfree import (
    AvoidanceQuery,
    Builtin,
    Finite,
    MorphicImage,
    Morphism,
    Periodic,
    STANDARD_PREAMBLES,
    Word,
    all_words_universe,
    apply,
    complement,
    cyclic_shifts,
    enumerate_valid,
    factors,
    forced_extension_check,
    has_reversal_conflict,
    image_factor_set,
    is_squarefree,
    is_valid,
    marker_sync_check,
    match_ultimately_periodic,
    max_valid_length,
    characterization_facts,
    periodic_factors,
    periodicity_transport_check,
    reduction_equivalence,
    reverse,
    rotation_family,
    squarefree_morphism_test,
    squarefree_words_universe,
    stream_prefix,
    verify_unavoidable,
)

H_TERNARY = Morphism.from_strings(["0012", "0112"], 3)
H_BINARY = Morphism.from_strings(["0001011", "0010111"], 2)
H_FIVE = Morphism.from_strings(["012", "013", "014"], 5)


def w(text, s=None):
    return Word.parse(text, s)


def of_symbols(symbols, s):
    """The word over s letters whose symbols are the given ints."""
    return Word("".join(map(str, symbols)), s)


class _Criterion:
    def __init__(self, name, budget_s):
        self.name = name
        self.budget_s = budget_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "pass" if exc_type is None and elapsed <= self.budget_s else "fail"
        print(f"ACCEPTANCE {self.name}: {status} ({elapsed:.2f}s)")
        if exc_type is None and elapsed > self.budget_s:
            pytest.fail(f"{self.name} exceeded time budget of {self.budget_s}s")
        return False


def test_criterion_1_ternary_periodic_word():
    with _Criterion("1 (periodic ternary word, k=2)", 1.0):
        fs = periodic_factors(Periodic(w("", 3), w("012", 3)), 2)
        assert fs.members == {w("01", 3), w("12", 3), w("20", 3)}
        assert not has_reversal_conflict(fs)

        seeds = enumerate_valid(3, AvoidanceQuery(2), 2)
        assert len(seeds) == 6
        rotations = cyclic_shifts(w("012", 3)) | cyclic_shifts(w("021", 3))
        for seed in seeds:
            ext = forced_extension_check(3, 2, seed, 30)
            assert ext is not None and len(ext) == 32
            assert all(ext[i] == ext[i + 3] for i in range(len(ext) - 3))
            assert ext[0:3] in rotations


def test_criterion_2_ternary_morphic_word():
    with _Criterion("2 (morphism 0->0012, 1->0112, k=3)", 1.0):
        fs = image_factor_set(H_TERNARY, 3, all_words_universe(2, 2))
        assert fs.members == {
            w(t, 3) for t in ("001", "011", "012", "112", "120", "200", "201")
        }
        assert not has_reversal_conflict(fs)
        assert marker_sync_check(H_TERNARY, w("00", 3)).synchronized


def test_criterion_3_binary_bound():
    with _Criterion("3 (binary bound for k<=4)", 1.0):
        assert verify_unavoidable(
            2, 3, {w(t, 2) for t in ("00", "11", "010", "101")}
        )
        assert verify_unavoidable(
            2, 5, {w(t, 2) for t in ("000", "010", "101", "111", "0110", "1001")}
        )
        assert verify_unavoidable(
            2, 9,
            {w(t, 2) for t in ("0000", "0110", "1001", "1111", "00100",
                               "01010", "01110", "10001", "10101", "11011")},
        )
        outcome = max_valid_length(2, AvoidanceQuery(4), cap=32)
        assert isinstance(outcome, Finite) and outcome.max_length == 8
        for k, expected in ((2, 2), (3, 4)):
            outcome = max_valid_length(2, AvoidanceQuery(k), cap=4 * expected)
            assert isinstance(outcome, Finite) and outcome.max_length == expected


def test_criterion_4_binary_periodic_word():
    with _Criterion("4 (periodic binary word, k=5)", 1.0):
        spec = Periodic(w("", 2), w("001011", 2))
        fs = periodic_factors(spec, 5)
        assert fs.members == {
            w(t, 2) for t in ("00101", "01011", "01100", "10010", "10110", "11001")
        }
        assert not has_reversal_conflict(fs)
        q = AvoidanceQuery(5)
        for n in range(121):
            assert is_valid(stream_prefix(spec, n), q)


def test_criterion_5_characterization():
    with _Criterion("5 (characterization of binary k=5 words)", 5.0):
        b = rotation_family(w("001011", 2))
        assert len(b) == 12
        assert len(cyclic_shifts(w("001011", 2))) == 6
        report = characterization_facts(b)
        assert report.fact1_holds and report.fact2_holds
        assert report.exceptions == ()
        for preamble in STANDARD_PREAMBLES:
            for period in sorted(b):
                prefix = stream_prefix(Periodic(preamble, period), 30)
                got = match_ultimately_periodic(prefix, b)
                assert got is not None
                assert stream_prefix(Periodic(got[0], got[1]), 30) == prefix


def test_criterion_6_binary_morphic_word():
    with _Criterion("6 (morphism 0->0001011, 1->0010111, k=6)", 1.0):
        fs = image_factor_set(H_BINARY, 6, all_words_universe(2, 2))
        assert fs.members == {
            w(t, 2)
            for t in ("000101", "001011", "010110", "010111", "011000",
                      "011001", "011100", "100010", "100101", "101100",
                      "101110", "110001", "110010", "111000", "111001")
        }
        assert len(fs) == 15
        assert not has_reversal_conflict(fs)
        assert marker_sync_check(H_BINARY, w("000", 2)).synchronized
        for length in range(9):
            for t in itertools.product("01", repeat=length):
                u = Word("".join(t), 2)
                assert periodicity_transport_check(H_BINARY, apply(H_BINARY, u)) == u


def test_criterion_7_squarefree_four_letters():
    with _Criterion("7 (squarefree 4-letter words, k=2)", 60.0):
        q = AvoidanceQuery(2, require_squarefree=True)
        outcome = max_valid_length(4, q, cap=64)
        assert isinstance(outcome, Finite)
        assert outcome.max_length == 20
        assert outcome.nodes_explored > 0
        witness = outcome.witnesses[0]
        assert len(witness) == 20
        assert is_valid(witness, q)
        assert is_squarefree(witness)


def test_criterion_8_squarefree_five_letters():
    with _Criterion("8 (squarefree 5-letter word, k=2)", 10.0):
        result = squarefree_morphism_test(H_FIVE)
        assert result.passed
        assert len(result.preimages) == 12
        fs = image_factor_set(H_FIVE, 2, squarefree_words_universe(3, 2))
        assert fs.members == {
            w(t, 5) for t in ("01", "12", "13", "14", "20", "30", "40")
        }
        assert not has_reversal_conflict(fs)
        prefix = stream_prefix(
            MorphicImage(H_FIVE, Builtin("thue-squarefree-ternary")), 3000
        )
        assert len(prefix) == 3000
        assert is_squarefree(prefix)
        assert is_valid(prefix, AvoidanceQuery(2))


def test_criterion_9_property_suite():
    with _Criterion("9 (property suite)", 60.0):
        # pruned DFS agrees with the naive filter
        for s, max_len, ks in ((2, 12, (2, 3, 5)), (3, 8, (2, 3))):
            for k in ks:
                q = AvoidanceQuery(k)
                for length in range(max_len + 1):
                    words = (
                        Word("".join(t), s)
                        for t in itertools.product("012"[:s], repeat=length)
                    )
                    naive = [x for x in words if is_valid(x, q)]
                    assert enumerate_valid(s, q, length) == naive

        # reverse and complement are involutions
        rng = random.Random(53)
        for _ in range(1000):
            s = rng.randint(2, 5)
            word = of_symbols([rng.randrange(s) for _ in range(rng.randint(0, 25))], s)
            assert reverse(reverse(word)) == word
            if s == 2:
                assert complement(complement(word)) == word

        # morphism law on random word pairs
        morphisms = [H_TERNARY, H_BINARY, H_FIVE]
        for _ in range(1000):
            h = rng.choice(morphisms)
            u = of_symbols([rng.randrange(h.domain_size) for _ in range(rng.randint(0, 12))], h.domain_size)
            v = of_symbols([rng.randrange(h.domain_size) for _ in range(rng.randint(0, 12))], h.domain_size)
            assert apply(h, u + v) == apply(h, u) + apply(h, v)

        # the length-k reduction agrees with the full quantifier
        for _ in range(1000):
            s = rng.randint(2, 4)
            k = rng.randint(2, 5)
            n = rng.randint(k, 14)
            word = of_symbols([rng.randrange(s) for _ in range(n)], s)
            assert reduction_equivalence(word, k)
