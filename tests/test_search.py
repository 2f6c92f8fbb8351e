import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revfree import (
    AvoidanceQuery,
    ExceedsCap,
    Finite,
    Periodic,
    STANDARD_PREAMBLES,
    Word,
    characterization_facts,
    complement,
    enumerate_valid,
    forced_extension_check,
    is_squarefree,
    is_valid,
    match_ultimately_periodic,
    max_valid_length,
    reverse,
    rotation_family,
    stream_prefix,
)
from revfree.search import _Path, _walk


def w(text, s=None):
    return Word.parse(text, s)


B = rotation_family(w("001011", 2))


def naive_enumerate(s, q, length):
    out = []
    for t in itertools.product("0123456789"[:s], repeat=length):
        word = Word("".join(t), s)
        if is_valid(word, q):
            out.append(word)
    return out


class TestEnumerateValid:
    def test_ternary_length_3(self):
        got = enumerate_valid(3, AvoidanceQuery(2), 3)
        assert [str(x) for x in got] == ["012", "021", "102", "120", "201", "210"]

    def test_binary_length_3_is_empty(self):
        assert enumerate_valid(2, AvoidanceQuery(2), 3) == []

    def test_empty_word(self):
        assert enumerate_valid(4, AvoidanceQuery(3), 0) == [w("", 4)]

    def test_soundness(self):
        q = AvoidanceQuery(5)
        for word in enumerate_valid(2, q, 9):
            assert is_valid(word, q)

    def test_oracle_equivalence_binary(self):
        for k in (2, 3, 5):
            q = AvoidanceQuery(k)
            for length in range(13):
                assert enumerate_valid(2, q, length) == naive_enumerate(2, q, length)

    def test_oracle_equivalence_ternary(self):
        for k in (2, 3):
            q = AvoidanceQuery(k)
            for length in range(9):
                assert enumerate_valid(3, q, length) == naive_enumerate(3, q, length)

    def test_oracle_equivalence_squarefree(self):
        q = AvoidanceQuery(2, require_squarefree=True)
        for length in range(8):
            assert enumerate_valid(4, q, length) == naive_enumerate(4, q, length)

    def test_valid_count_length_9_golden(self):
        # derived golden, confirmed against the naive filter above
        assert len(enumerate_valid(2, AvoidanceQuery(5), 9)) == 32

    @settings(max_examples=200, deadline=None)
    @given(
        # lengths up to 10, and s**length up to 20,000 so that each case is quick
        st.integers(1, 5).flatmap(
            lambda s: st.tuples(
                st.just(s), st.integers(0, max(n for n in range(11) if s**n <= 20_000))
            )
        ),
        st.integers(1, 4),
        st.booleans(),
    )
    def test_levels_agree_with_dfs_kernel(self, s_length, k, squarefree):
        # the level-by-level pass and the DFS kernel check each other, and
        # both the product filter while it stays small
        s, length = s_length
        q = AvoidanceQuery(k, squarefree)
        path = _Path(q)
        dfs = [
            Word(path.rev[::-1], s)
            for d in _walk(path, s, length, s)
            if d == length
        ]
        got = enumerate_valid(s, q, length)
        assert got == dfs
        if s**length <= 5000:
            assert got == naive_enumerate(s, q, length)


class TestMaxValidLength:
    def test_binary_k4_dies_at_8(self):
        outcome = max_valid_length(2, AvoidanceQuery(4), cap=32)
        assert isinstance(outcome, Finite)
        assert outcome.max_length == 8

    def test_binary_small_k_maxima(self):
        # derived goldens: the per-k tight maxima below the stated bound of 8
        for k, expected in ((2, 2), (3, 4)):
            outcome = max_valid_length(2, AvoidanceQuery(k), cap=4 * expected)
            assert isinstance(outcome, Finite)
            assert outcome.max_length == expected

    def test_squarefree_four_letters_dies_at_20(self):
        q = AvoidanceQuery(2, require_squarefree=True)
        outcome = max_valid_length(4, q, cap=64)
        assert isinstance(outcome, Finite)
        assert outcome.max_length == 20
        assert len(outcome.witnesses) == 24
        for witness in outcome.witnesses:
            assert is_valid(witness, q)
            assert is_squarefree(witness)

    def test_binary_k5_survives(self):
        outcome = max_valid_length(2, AvoidanceQuery(5), cap=100)
        assert isinstance(outcome, ExceedsCap)
        assert len(outcome.sample_survivor) == 100
        assert is_valid(outcome.sample_survivor, AvoidanceQuery(5))

    def test_witnesses_closed_under_symmetries(self):
        outcome = max_valid_length(2, AvoidanceQuery(4), cap=32)
        witnesses = set(outcome.witnesses)
        for witness in witnesses:
            assert reverse(witness) in witnesses
            assert complement(witness) in witnesses

    def test_monotone_in_k(self):
        lengths = []
        for k in (2, 3, 4):
            outcome = max_valid_length(2, AvoidanceQuery(k), cap=32)
            lengths.append(outcome.max_length)
        assert lengths == sorted(lengths)

    def test_fix_first_symbol_quotients_witnesses(self):
        free = max_valid_length(2, AvoidanceQuery(4), cap=32)
        fixed = max_valid_length(2, AvoidanceQuery(4), cap=32, fix_first_symbol=True)
        assert fixed.max_length == free.max_length
        assert all(x[0] == 0 for x in fixed.witnesses)
        assert len(fixed.witnesses) < len(free.witnesses)

    def test_node_counts_pin_the_search_tree(self):
        # exact and machine-independent: a change to the tree shows up here
        sq2, sq3 = AvoidanceQuery(2, True), AvoidanceQuery(3, True)
        assert max_valid_length(4, sq2, 64).nodes_explored == 2945
        assert max_valid_length(4, sq2, 64, fix_first_symbol=True).nodes_explored == 737
        assert max_valid_length(4, sq3, 900).nodes_explored == 1552

    def test_deep_search_is_not_depth_limited(self):
        q = AvoidanceQuery(5)
        outcome = max_valid_length(2, q, cap=2048)
        assert isinstance(outcome, ExceedsCap)
        assert len(outcome.sample_survivor) == 2048
        assert is_valid(outcome.sample_survivor, q)

    def test_bad_cap(self):
        with pytest.raises(ValueError):
            max_valid_length(2, AvoidanceQuery(2), cap=0)


@pytest.mark.parametrize("s", [0, 11])
def test_alphabet_size_checked_before_search(s):
    # every symbol is one digit, so an alphabet has 1..10 letters
    with pytest.raises(ValueError):
        enumerate_valid(s, AvoidanceQuery(1), 5)
    with pytest.raises(ValueError):
        max_valid_length(s, AvoidanceQuery(1), 5)
    with pytest.raises(ValueError):
        max_valid_length(s, AvoidanceQuery(2), 5)
    with pytest.raises(ValueError):
        forced_extension_check(s, 2, w("0", 2), 5)


class TestKernel:
    @settings(max_examples=500, deadline=None)
    @given(
        st.integers(1, 10).flatmap(
            lambda s: st.lists(st.integers(0, s - 1), max_size=30).map(
                lambda t: Word("".join(map(str, t)), s)
            )
        ),
        st.integers(1, 4),
        st.booleans(),
    )
    def test_pushes_agree_with_is_valid(self, word, k, squarefree):
        q = AvoidanceQuery(k, squarefree)
        path = _Path(q)
        pushed = 0
        for c in str(word):
            before = (path.rev, set(path.windows), list(path.added))
            for other in "0123456789"[: word.alphabet_size]:
                if path.try_push(other):
                    path.pop()
                assert (path.rev, path.windows, path.added) == before
            ok = path.try_push(c)
            assert ok == is_valid(word[: pushed + 1], q)
            if not ok:
                break
            pushed += 1
        assert (pushed == len(word)) == is_valid(word, q)
        assert path.rev == "".join(str(c) for c in reversed(word.symbols[:pushed]))


class TestForcedExtension:
    def test_ternary_determinism(self):
        got = forced_extension_check(3, 2, w("01", 3), 10)
        assert got == w("012012012012", 3)

    def test_binary_branch_point(self):
        # after 00101100 both 001011000 and 001011001 are valid, so the
        # extension is not forced for 6 steps
        assert forced_extension_check(2, 5, w("0010110", 2), 1) == w("00101100", 2)
        assert forced_extension_check(2, 5, w("0010110", 2), 6) is None

    def test_dead_end(self):
        assert forced_extension_check(2, 2, w("01", 2), 1) is None

    def test_invalid_seed_rejected(self):
        with pytest.raises(ValueError):
            forced_extension_check(2, 2, w("00", 2), 1)


class TestCharacterization:
    def test_paper_family(self):
        assert len(B) == 12
        report = characterization_facts(B)
        assert report.fact1_holds
        assert report.fact2_holds
        assert report.exceptions == ()
        assert report.valid_count_len9 == 32

    def test_reduced_family_fails(self):
        reduced = frozenset(sorted(B)[1:])
        report = characterization_facts(reduced)
        assert not report.fact1_holds
        assert report.exceptions != ()

    def test_malformed_family_rejected(self):
        with pytest.raises(ValueError):
            characterization_facts(frozenset())
        with pytest.raises(ValueError):
            characterization_facts(frozenset({w("01011", 2)}))


class TestMatchUltimatelyPeriodic:
    def test_plain_periodic_word(self):
        prefix = stream_prefix(Periodic(w("", 2), w("001011", 2)), 24)
        assert match_ultimately_periodic(prefix, B) == (w("", 2), w("001011", 2))

    def test_with_preamble(self):
        prefix = stream_prefix(Periodic(w("00", 2), w("010110", 2)), 24)
        got = match_ultimately_periodic(prefix, B)
        assert got is not None
        regenerated = stream_prefix(Periodic(got[0], got[1]), 24)
        assert regenerated == prefix

    def test_no_match(self):
        prefix = stream_prefix(Periodic(w("", 2), w("01", 2)), 20)
        assert match_ultimately_periodic(prefix, B) is None

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            match_ultimately_periodic(w("00101100101011", 2), B)

    def test_every_family_member_round_trips(self):
        for preamble in STANDARD_PREAMBLES:
            for period in sorted(B):
                prefix = stream_prefix(Periodic(preamble, period), 30)
                got = match_ultimately_periodic(prefix, B)
                assert got is not None
                assert stream_prefix(Periodic(got[0], got[1]), 30) == prefix


class TestPeriodicPrefixValidity:
    def test_long_prefixes_valid(self):
        spec = Periodic(w("", 2), w("001011", 2))
        q = AvoidanceQuery(5)
        for n in range(61):
            assert is_valid(stream_prefix(spec, n), q)

    def test_valid_length_30_words_are_periodic_inside(self):
        # finite valid words may carry a few off-pattern symbols at either
        # end, but their interior locks onto the rotation family: after
        # dropping 3 symbols from each side the word repeats with period 6
        for word in enumerate_valid(2, AvoidanceQuery(5), 30):
            assert word[3:9] in B
            for i in range(3, 21):
                assert word[i] == word[i + 6]

    def test_most_valid_length_30_words_match_family(self):
        words = enumerate_valid(2, AvoidanceQuery(5), 30)
        matches = [x for x in words if match_ultimately_periodic(x, B) is not None]
        # derived goldens: 30 valid words, 20 of them in the family outright
        assert len(words) == 30
        assert len(matches) == 20
