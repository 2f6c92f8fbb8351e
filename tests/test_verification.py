from revfree import (
    AvoidanceQuery,
    Morphism,
    Periodic,
    Word,
    all_words_universe,
    find_avoiding_word,
    has_reversal_conflict,
    image_factor_set,
    is_valid,
    periodicity_transport_check,
    stream_prefix,
)
from revfree import verification
from revfree.verification import (
    BINARY_K6_FACTORS,
    BINARY_SELF,
    UNAVOIDABLE_SETS,
    check_t3,
    check_t4,
    check_t5,
    check_t6,
    match_ultimately_periodic,
    run_verification,
)


def test_all_claims_pass():
    report = run_verification()
    assert report.all_passed
    assert [r.id for r in report.results] == [f"T{i}" for i in range(1, 9)]
    assert all(r.status == "pass" for r in report.results)


def test_report_serializes():
    payload = run_verification().to_dict()
    assert payload["all_passed"] is True
    assert len(payload["results"]) == 8
    for entry in payload["results"]:
        assert set(entry) == {"id", "claim", "status", "evidence"}


def test_corrupted_morphism_breaks_factor_set():
    # flipping one symbol of an image must be caught by the factor-set check
    corrupted = Morphism.from_strings([BINARY_SELF.images[0], "0010110"], 2)
    fs = image_factor_set(corrupted, 6, all_words_universe(2, 2))
    assert sorted(fs) != BINARY_K6_FACTORS
    assert has_reversal_conflict(fs)


def test_evidence_records_derived_goldens():
    report = run_verification()
    by_id = {r.id: r for r in report.results}
    assert by_id["T3"].evidence["maxima"] == {2: 2, 3: 4, 4: 8}
    assert by_id["T5"].evidence["valid_count_len9"] == 32
    assert by_id["T7"].evidence["max_length"] == 20
    assert by_id["T7"].evidence["witness_count"] == 24


# The checks below each break one object a claim check examines, through the
# names the check reads, and assert that the check fails.

def test_t6_fails_when_one_length_8_word_decodes_wrong(monkeypatch):
    wrong = []

    def decode_one_word_wrong(h, y):
        u = periodicity_transport_check(h, y)
        if u is not None and len(u) == 3586:  # the 510 words of lengths 1..8
            # the 101st length-8 word, after the 1,538 symbols of the shorter
            # words, gets its last letter flipped
            i = 1538 + 8 * 100 + 7
            u = Word(u.text[:i] + "10"[int(u.text[i])] + u.text[i + 1 :], 2)
            wrong.append(i)
        return u

    assert check_t6().evidence["decode_ok"] is True
    monkeypatch.setattr(verification, "periodicity_transport_check", decode_one_word_wrong)
    result = check_t6()
    assert wrong, "the decoder never saw the length-8 words"
    assert not result.passed
    assert result.evidence["decode_ok"] is False


def test_t5_fails_when_one_family_member_is_not_matched(monkeypatch):
    # the complement of 001011 after the preamble 11
    missed = stream_prefix(Periodic(Word("11", 2), Word("110100", 2)), 30)
    unmatched = []

    def match_all_but_one(prefix, b):
        if prefix == missed:
            unmatched.append(prefix)
            return None
        return match_ultimately_periodic(prefix, b)

    assert check_t5().passed
    monkeypatch.setattr(verification, "match_ultimately_periodic", match_all_but_one)
    result = check_t5()
    assert unmatched, "the matcher never saw the member"
    assert not result.passed


def test_t4_fails_on_a_reversal_conflict_near_symbol_110(monkeypatch):
    def prefix_with_flip(spec, n):
        text = stream_prefix(spec, n).text
        if n > 109:  # flip symbol 109: prefixes up to 109 symbols stay valid
            text = text[:109] + "10"[int(text[109])] + text[110:]
        return Word(text, 2)

    q = AvoidanceQuery(5)
    spoiled = prefix_with_flip(Periodic(Word("", 2), Word("001011", 2)), 120)
    assert is_valid(spoiled[:109], q) and not is_valid(spoiled[:110], q)
    monkeypatch.setattr(verification, "stream_prefix", prefix_with_flip)
    result = check_t4()
    assert not result.passed
    assert result.evidence["prefixes_checked"] == 121


def test_t3_fails_when_an_unavoidable_set_loses_a_pattern(monkeypatch):
    length, patterns = UNAVOIDABLE_SETS[4]
    fewer = patterns - {Word("0110", 2)}
    assert find_avoiding_word(2, length, fewer) == Word("000101100", 2)
    monkeypatch.setitem(UNAVOIDABLE_SETS, 4, (length, fewer))
    assert not check_t3().passed
