import itertools
import random
from bisect import bisect_right

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
from revfree import search
from revfree.words import SHORTEST_SQUARE, alphabet, starts_with_square


def w(text, s):
    return Word.parse(text, s)


B = rotation_family(w("001011", 2))


def naive_enumerate(s, q, length):
    out = []
    for t in itertools.product("0123456789"[:s], repeat=length):
        word = Word("".join(t), s)
        if is_valid(word, q):
            out.append(word.text)
    return out


def plain_max_valid_length(s, q, cap, fix_first_symbol=False):
    # the reference for max_valid_length: a preorder DFS over every word,
    # trying the letters in order, with root choices 0 only under
    # fix_first_symbol; it counts each valid word it visits, and the root
    letters = alphabet(s)
    k, squarefree = q.k, q.require_squarefree
    root_choices = 1 if fix_first_symbol else s
    rev = ""  # the path's digits, reversed
    windows = set()  # the length-k windows on the path
    added = []  # per depth: the window its symbol added
    nexts = [0]  # per depth: the next symbol to try
    best_len = 0
    witnesses = [""]
    nodes = 1
    while nexts:
        d = len(nexts)
        c = nexts[-1]
        if c == (s if d > 1 else root_choices):
            nexts.pop()
            if d > 1:
                window = added.pop()
                if window is not None:
                    windows.remove(window)
                rev = rev[1:]
            continue
        nexts[-1] = c + 1
        ext = letters[c] + rev
        window = None
        if d >= k:
            reversal = ext[:k]
            window = reversal[::-1]
            if window == reversal or reversal in windows:
                continue
            if window in windows:
                window = None
        if squarefree and SHORTEST_SQUARE.match(ext):
            continue
        nodes += 1
        if d == cap:
            return ExceedsCap(cap, Word(ext[::-1], s), nodes)
        if d > best_len:
            best_len = d
            witnesses = [ext]
        elif d == best_len:
            witnesses.append(ext)
        if window is not None:
            windows.add(window)
        added.append(window)
        rev = ext
        nexts.append(0)
    return Finite(best_len, tuple(Word(rev[::-1], s) for rev in witnesses), nodes)


class TestEnumerateValid:
    def test_ternary_length_3(self):
        got = enumerate_valid(3, AvoidanceQuery(2), 3)
        assert [str(x) for x in got] == ["012", "021", "102", "120", "201", "210"]

    def test_binary_length_3_is_empty(self):
        assert enumerate_valid(2, AvoidanceQuery(2), 3) == []

    @pytest.mark.parametrize("length", [7, 8])
    def test_oversized_listing_refused(self, length):
        # every one of the 10^7 words of length 7 is valid at k = 9, held as
        # its 877 canonical forms: refused there, before any longer word
        assert 10**6 < search.MAX_LISTING < 10**7
        with pytest.raises(ValueError, match="10000000 valid words of length 7"):
            enumerate_valid(10, AvoidanceQuery(9), length)

    def test_digit_strings_in_sorted_order(self):
        got = enumerate_valid(2, AvoidanceQuery(6), 20)
        assert len(got) == 4112
        assert all(type(t) is str for t in got)
        assert got == sorted(set(got))

    def test_empty_word(self):
        assert enumerate_valid(4, AvoidanceQuery(3), 0) == [""]

    @pytest.mark.parametrize("s", [1, 2, 10])
    def test_k1_allows_only_the_empty_word(self, s):
        # every letter is a palindromic window of length 1
        q = AvoidanceQuery(1)
        assert enumerate_valid(s, q, 0) == [""]
        for length in (1, 2, 50):
            assert enumerate_valid(s, q, length) == []

    def test_soundness(self):
        q = AvoidanceQuery(5)
        for text in enumerate_valid(2, q, 9):
            assert is_valid(Word(text, 2), q)

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
        st.booleans(),
    )
    def test_levels_agree_with_dfs_kernel(self, s_length, k, squarefree, fix_first):
        # the level-by-level pass and the DFS check each other, and both the
        # product filter while it stays small: the DFS visits the valid words
        # in preorder, so its answer and its node count follow from the levels
        s, length = s_length
        q = AvoidanceQuery(k, squarefree)
        levels = [enumerate_valid(s, q, n) for n in range(length + 1)]
        if s**length <= 5000:
            assert levels[length] == naive_enumerate(s, q, length)
        if length == 0:
            return
        if fix_first:
            levels = [[t for t in level if t[:1] in ("", "0")] for level in levels]
        outcome = max_valid_length(s, q, length, fix_first)
        if isinstance(outcome, Finite):
            deepest = max(n for n, level in enumerate(levels) if level)
            assert deepest < length
            assert outcome.max_length == deepest
            assert [x.text for x in outcome.witnesses] == levels[deepest]
            assert outcome.nodes_explored == sum(map(len, levels))
        else:
            x = outcome.sample_survivor.text
            assert x == levels[length][0]
            assert outcome.nodes_explored == sum(
                bisect_right(level, x[:n]) for n, level in enumerate(levels)
            )

    def test_levels_hold_only_canonical_words(self, monkeypatch):
        # the level pass extends one word per alphabet-permutation orbit:
        # the one whose letters first occur in the order 0, 1, 2, ...
        handed = []

        def recording(level, letters, q):
            handed.extend(level)
            return next_level(level, letters, q)

        next_level = search._next_level
        monkeypatch.setattr(search, "_next_level", recording)
        words = enumerate_valid(5, AvoidanceQuery(2, True), 8)
        assert len(words) == 8640
        assert handed
        for rev in handed:
            first_seen = "".join(dict.fromkeys(rev[::-1]))
            assert first_seen == "01234"[: len(first_seen)]

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 5).flatmap(
            lambda s: st.tuples(
                st.just(s), st.integers(0, max(n for n in range(9) if s**n <= 20_000))
            )
        ),
        st.integers(1, 4),
        st.booleans(),
    )
    def test_closed_under_alphabet_permutation(self, s_length, k, squarefree):
        s, length = s_length
        q = AvoidanceQuery(k, squarefree)
        words = enumerate_valid(s, q, length)
        assert words == sorted(set(words))
        letters = "01234"[:s]
        for image in itertools.permutations(letters):
            table = str.maketrans(letters, "".join(image))
            assert sorted(t.translate(table) for t in words) == words
        if s**length <= 5000:
            assert words == naive_enumerate(s, q, length)


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

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 5), st.booleans(), st.integers(1, 80))
    def test_fix_first_symbol_quotients_witnesses(self, s, k, squarefree, cap):
        # the words under the root's child 0: the other s - 1 children's
        # subtrees are its renamings, and the first survivor starts with 0
        q = AvoidanceQuery(k, squarefree)
        free = max_valid_length(s, q, cap)
        fixed = max_valid_length(s, q, cap, fix_first_symbol=True)
        if isinstance(free, ExceedsCap):
            assert fixed == free
            return
        assert isinstance(fixed, Finite)
        assert fixed.max_length == free.max_length
        assert fixed.witnesses == tuple(x for x in free.witnesses if x.text[:1] in ("", "0"))
        assert free.nodes_explored - 1 == s * (fixed.nodes_explored - 1)

    @pytest.mark.parametrize("s", [1, 2, 3, 4, 5])
    def test_agrees_with_plain_dfs(self, s):
        # past the levels' reach; caps 63, 64 and 65 straddle 64 symbols,
        # where `starts_with_square` first finds blocks for halves from 32
        for k, squarefree, cap, fix_first in itertools.product(
            range(1, 8), (False, True), (63, 64, 65, 129, 300), (False, True)
        ):
            q = AvoidanceQuery(k, squarefree)
            expected = plain_max_valid_length(s, q, cap, fix_first)
            assert max_valid_length(s, q, cap, fix_first) == expected, (k, squarefree, cap)

    def test_extends_only_canonical_paths(self, monkeypatch):
        # the DFS walks one word per alphabet-permutation orbit: each path
        # it hands the square test has letters first occurring in the order
        # 0, 1, 2, ..., below depth 64 and from there on
        tested = []

        def recording_starts_with_square(rev):
            tested.append(rev)
            return starts_with_square(rev)

        monkeypatch.setattr(search, "starts_with_square", recording_starts_with_square)
        assert max_valid_length(4, AvoidanceQuery(2, True), 64).nodes_explored == 2945
        assert isinstance(max_valid_length(5, AvoidanceQuery(2, True), 300), ExceedsCap)
        assert min(map(len, tested)) < 64 <= max(map(len, tested))
        for rev in tested:
            first_seen = "".join(dict.fromkeys(rev[::-1]))
            assert first_seen == "01234"[: len(first_seen)]

    def test_node_counts_pin_the_search_tree(self):
        # exact and machine-independent: a change to the tree shows up here
        sq2, sq3 = AvoidanceQuery(2, True), AvoidanceQuery(3, True)
        assert max_valid_length(4, sq2, 64).nodes_explored == 2945
        assert max_valid_length(4, sq2, 64, fix_first_symbol=True).nodes_explored == 737
        assert max_valid_length(4, sq3, 900).nodes_explored == 1552

    @pytest.mark.parametrize("s, k, fix_first, nodes", [
        (3, 6, True, 3642), (4, 3, True, 5270), (5, 2, False, 3153),
    ])
    def test_deep_squarefree_trees_pinned(self, s, k, fix_first, nodes):
        # past depth 64, where the square test finds blocks instead of
        # matching one regex step per half
        q = AvoidanceQuery(k, require_squarefree=True)
        outcome = max_valid_length(s, q, 3000, fix_first_symbol=fix_first)
        assert isinstance(outcome, ExceedsCap)
        assert outcome.nodes_explored == nodes
        assert is_valid(outcome.sample_survivor, q)

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
        # the palindrome 010 ends at symbol 3 of 4, before the seed's last
        with pytest.raises(ValueError, match="seed is not valid"):
            forced_extension_check(2, 3, w("0100", 2), 1)

    def test_long_periodic_seed_extends_as_the_level_walk(self):
        # seeds of 300..305 symbols of (001011)^omega extend as the level
        # step did when it walked each seed symbol and then every letter
        spec, q = Periodic(w("", 2), w("001011", 2)), AvoidanceQuery(5)
        # 303 symbols are forced back to a whole number of periods
        assert forced_extension_check(2, 5, stream_prefix(spec, 303), 3) == \
            stream_prefix(spec, 306)
        for n in range(300, 306):
            seed = stream_prefix(spec, n)
            level = [""]
            for c in seed.text:
                level = search._next_level(level, c, q)
            for steps in range(5):
                expected = Word(level[0][::-1], 2) if len(level) == 1 else None
                assert forced_extension_check(2, 5, seed, steps) == expected
                level = search._next_level(level, "01", q) if len(level) == 1 else []

    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError, match="steps"):
            forced_extension_check(3, 2, w("01", 3), -1)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 4).flatmap(
            lambda s: st.tuples(st.just(s), st.text("0123"[:s], max_size=8))
        ),
        st.integers(1, 4),
        st.integers(0, 12),
    )
    def test_agrees_with_is_valid_oracle(self, s_seed, k, steps):
        # seeds shorter than k - 1 included: their first steps keep every letter
        s, text = s_seed
        seed, q = Word(text, s), AvoidanceQuery(k)
        if not is_valid(seed, q):
            with pytest.raises(ValueError):
                forced_extension_check(s, k, seed, steps)
            return
        expected = seed
        for _ in range(steps):
            children = [x for c in "0123"[:s] if is_valid(x := Word(expected.text + c, s), q)]
            if len(children) != 1:
                expected = None
                break
            expected = children[0]
        assert forced_extension_check(s, k, seed, steps) == expected


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

    @pytest.mark.parametrize("member", [Word("012", 3), Word("0", 3), Word("", 2)],
                             ids=["ternary", "ternary-0", "empty"])
    def test_member_not_a_nonempty_binary_word_rejected(self, member):
        # refused before any preamble reaches the member, so the error does
        # not depend on which preamble would have
        prefix = stream_prefix(Periodic(w("", 2), w("001011", 2)), 24)
        with pytest.raises(ValueError, match="nonempty binary"):
            match_ultimately_periodic(prefix, {member})

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
        for text in enumerate_valid(2, AvoidanceQuery(5), 30):
            word = Word(text, 2)
            assert word[3:9] in B
            for i in range(3, 21):
                assert word[i] == word[i + 6]

    def test_most_valid_length_30_words_match_family(self):
        words = [Word(t, 2) for t in enumerate_valid(2, AvoidanceQuery(5), 30)]
        matches = [x for x in words if match_ultimately_periodic(x, B) is not None]
        # derived goldens: 30 valid words, 20 of them in the family outright
        assert len(words) == 30
        assert len(matches) == 20
