from revfree import Morphism, Word, all_words_universe, has_reversal_conflict, image_factor_set
from revfree.verification import (
    BINARY_K6_FACTORS,
    BINARY_SELF,
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
    corrupted = Morphism((BINARY_SELF.images[0], Word.parse("0010110", 2)))
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
