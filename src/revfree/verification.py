"""One-shot verification of the eight computational claims T1..T8 about words
avoiding reversed subwords.

Each check recomputes the published object (a factor set, a bound, a marker
property, ...) from scratch and compares it with the claimed value.  The CLI
command `verify-paper` is a thin wrapper around `run_verification`.  T5's
periodic family, the rotations of K5_PERIOD and of its complement after one
of STANDARD_PREAMBLES, is defined here too, with its two finite facts and the
prefix matcher behind `match-periodic`.
"""

from __future__ import annotations

import itertools

from .avoidance import AvoidanceQuery, has_reversal_conflict, is_valid, verify_unavoidable
from .morphisms import (
    Morphism,
    all_words_universe,
    image_factor_set,
    marker_sync_check,
    periodicity_transport_check,
    squarefree_morphism_test,
    squarefree_words_universe,
)
from .search import Finite, enumerate_valid, forced_extension_check, max_valid_length
from .words import (
    Builtin,
    MorphicImage,
    Periodic,
    Record,
    Word,
    complement,
    cyclic_shifts,
    is_squarefree,
    periodic_factors,
    stream_prefix,
)

# The three constructive morphisms under test.
BINARY_TO_TERNARY = Morphism.from_strings(["0012", "0112"], 3)
BINARY_SELF = Morphism.from_strings(["0001011", "0010111"], 2)
TERNARY_TO_FIVE = Morphism.from_strings(["012", "013", "014"], 5)

# Claimed factor sets, as the sorted digit strings the report lists.
PERIODIC_K2_FACTORS = ["01", "12", "20"]
TERNARY_K3_FACTORS = ["001", "011", "012", "112", "120", "200", "201"]
PERIODIC_K5_FACTORS = ["00101", "01011", "01100", "10010", "10110", "11001"]
BINARY_K6_FACTORS = [
    "000101", "001011", "010110", "010111", "011000", "011001", "011100",
    "100010", "100101", "101100", "101110", "110001", "110010", "111000",
    "111001",
]
FIVE_K2_FACTORS = ["01", "12", "13", "14", "20", "30", "40"]

# Claimed unavoidable sets for binary words, per avoidance length k.
UNAVOIDABLE_SETS = {
    2: (3, frozenset(Word.parse(t, 2) for t in ("00", "11", "010", "101"))),
    3: (5, frozenset(
        Word.parse(t, 2) for t in ("000", "010", "101", "111", "0110", "1001")
    )),
    4: (9, frozenset(
        Word.parse(t, 2)
        for t in ("0000", "0110", "1001", "1111", "00100", "01010", "01110",
                  "10001", "10101", "11011")
    )),
}

# Maximum valid lengths for binary words, established by exhaustive search.
BINARY_MAXIMA = {2: 2, 3: 4, 4: 8}

# The period of T4's word and of T5's family, up to rotation and complement.
K5_PERIOD = Word.parse("001011", 2)
STANDARD_PREAMBLES = tuple(Word.parse(t, 2) for t in ("", "0", "1", "00", "11"))


def rotation_family(z: Word) -> frozenset[Word]:
    """All cyclic shifts of a binary word and of its complement."""
    return cyclic_shifts(z) | cyclic_shifts(complement(z))


class CharacterizationReport(Record):
    __slots__ = ("fact1_holds", "fact2_holds", "valid_count_len9", "exceptions")
    fact1_holds: bool
    fact2_holds: bool
    valid_count_len9: int
    exceptions: tuple[str, ...]  # digit strings of the words breaking a fact


def characterization_facts(b: frozenset[Word] | set[Word]) -> CharacterizationReport:
    """The two finite facts underlying the ultimate-periodicity result for
    binary words valid at k=5.

    Fact 1: every valid word of length 9 starts with y'y for some preamble y'
    in {eps, 0, 1, 00, 11} and y in b.  Fact 2: every valid word of length 15
    starting with some y in b repeats y immediately after it.
    """
    b = frozenset(b)
    if not b:
        raise ValueError("the rotation family must be nonempty")
    lengths = {len(y) for y in b}
    if lengths != {6} or any(y.alphabet_size != 2 for y in b):
        raise ValueError("the rotation family must consist of binary words of length 6")
    q = AvoidanceQuery(5)
    periods = {y.text for y in b}
    preambles = [p.text for p in STANDARD_PREAMBLES]

    valid9 = enumerate_valid(2, q, 9)
    bad9 = [t for t in valid9
            if not any(t.startswith(p) and t[len(p) : len(p) + 6] in periods for p in preambles)]
    bad15 = [t for t in enumerate_valid(2, q, 15) if t[:6] in periods and t[6:12] != t[:6]]

    return CharacterizationReport(not bad9, not bad15, len(valid9), tuple(bad9 + bad15))


def match_ultimately_periodic(
    prefix: Word, b: frozenset[Word] | set[Word]
) -> tuple[Word, Word] | None:
    """Match the prefix against the family preamble.period^omega with the
    preamble drawn from STANDARD_PREAMBLES and the period from b.

    Decompositions are not unique (shifting one symbol from the period into
    the preamble can describe the same stream), so the canonical answer is the
    match with the shortest preamble, ties broken by lexicographically least
    period.  None when no family member fits; a prefix that is not binary,
    or a member that is empty or not binary, is refused before any matching.
    """
    if prefix.alphabet_size != 2:
        raise ValueError("the prefix must be a binary word")
    if any(len(y) == 0 or y.alphabet_size != 2 for y in b):
        raise ValueError("the family must consist of nonempty binary words")
    if len(prefix) < 15:
        raise ValueError("need at least 15 symbols to match")
    # STANDARD_PREAMBLES runs shortest first, then in digit order, so the
    # first preamble with a match gives the canonical answer
    text, n = prefix.text, len(prefix)
    for p in STANDARD_PREAMBLES:
        # p.y.y... starts with (p.y)[:n], a cheap test that leaves few streams to build
        periods = [y for y in b if text.startswith((p.text + y.text)[:n])
                   and stream_prefix(Periodic(p, y), n).text == text]
        if periods:
            return p, min(periods)
    return None


class TheoremResult(Record):
    __slots__ = ("id", "claim", "passed", "evidence")
    id: str
    claim: str
    passed: bool
    evidence: dict

    @property
    def status(self) -> str:
        return "pass" if self.passed else "fail"


class PaperReport(Record):
    __slots__ = ("results",)
    results: tuple[TheoremResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_dict(self) -> dict:
        return {
            "all_passed": self.all_passed,
            "results": [
                {
                    "id": r.id,
                    "claim": r.claim,
                    "status": r.status,
                    "evidence": r.evidence,
                }
                for r in self.results
            ],
        }


def check_t1() -> TheoremResult:
    """(012)^omega avoids reversed subwords of length >= 2 and is the unique
    such ternary word up to alphabet permutation (every valid two-letter seed
    extends deterministically into a rotation of an alphabet-permuted copy)."""
    spec = Periodic(Word.parse("", 3), Word.parse("012", 3))
    fs = periodic_factors(spec, 2)
    factors = sorted(fs)
    factor_ok = factors == PERIODIC_K2_FACTORS and not has_reversal_conflict(fs)
    seeds = [Word(t, 3) for t in enumerate_valid(3, AvoidanceQuery(2), 2)]
    extensions: dict[str, str] = {}
    forced_ok = len(seeds) == 6
    for seed in seeds:
        ext = forced_extension_check(3, 2, seed, 30)
        if ext is None:
            forced_ok = False
            continue
        extensions[str(seed)] = t = ext.text
        # period 3, and the first period holds all three letters
        if t[3:] != t[:-3] or set(t[:3]) != set("012"):
            forced_ok = False
    return TheoremResult(
        "T1",
        "(012)^omega has conflict-free pair set {01,12,20}; deterministic "
        "forced extension from every valid 2-letter ternary seed",
        factor_ok and forced_ok,
        {"factors": factors, "extensions": extensions},
    )


def check_t2() -> TheoremResult:
    """The image of any binary word under 0->0012, 1->0112 has a conflict-free
    length-3 factor set, and 00 synchronizes image blocks."""
    fs = image_factor_set(BINARY_TO_TERNARY, 3, all_words_universe(2, 2))
    marker = marker_sync_check(BINARY_TO_TERNARY, Word.parse("00", 3))
    factors = sorted(fs)
    passed = (
        factors == TERNARY_K3_FACTORS
        and not has_reversal_conflict(fs)
        and marker.synchronized
    )
    return TheoremResult(
        "T2",
        "morphism 0->0012, 1->0112 yields the 7-word conflict-free length-3 "
        "factor set and a synchronized marker 00",
        passed,
        {
            "factors": factors,
            "marker_occurrences": len(marker.occurrences),
            "synchronized": marker.synchronized,
        },
    )


def check_t3() -> TheoremResult:
    """Binary words valid for k <= 4 have length at most 8: the three listed
    unavoidable sets hold, and exhaustive search confirms the per-k maxima."""
    unavoidable_ok = all(
        verify_unavoidable(2, length, patterns)
        for length, patterns in UNAVOIDABLE_SETS.values()
    )
    maxima: dict[int, int] = {}
    maxima_ok = True
    witness_counts: dict[int, int] = {}
    for k, expected in BINARY_MAXIMA.items():
        outcome = max_valid_length(2, AvoidanceQuery(k), cap=4 * expected)
        if not isinstance(outcome, Finite):
            maxima_ok = False
            continue
        maxima[k] = outcome.max_length
        witness_counts[k] = len(outcome.witnesses)
        if outcome.max_length != expected:
            maxima_ok = False
    return TheoremResult(
        "T3",
        "unavoidable sets at lengths 3/5/9 hold; binary maxima are 2, 4, 8 "
        "for k = 2, 3, 4",
        unavoidable_ok and maxima_ok,
        {"maxima": maxima, "witness_counts": witness_counts},
    )


def check_t4() -> TheoremResult:
    """(001011)^omega avoids reversed subwords of length >= 5."""
    spec = Periodic(Word.parse("", 2), K5_PERIOD)
    fs = periodic_factors(spec, 5)
    factors = sorted(fs)
    # Validity passes to subwords, so the 120-symbol prefix is valid iff all
    # 121 prefixes up to it are, the empty one included.
    prefixes_ok = is_valid(stream_prefix(spec, 120), AvoidanceQuery(5))
    passed = factors == PERIODIC_K5_FACTORS and not has_reversal_conflict(fs) and prefixes_ok
    return TheoremResult(
        "T4",
        "(001011)^omega has the 6-word conflict-free length-5 factor set; "
        "all prefixes up to length 120 are valid",
        passed,
        {"factors": factors, "prefixes_checked": 121},
    )


def check_t5() -> TheoremResult:
    """Every infinite binary word valid at k=5 is ultimately periodic with a
    period that is a rotation of 001011 or its complement: the two finite
    facts hold, and every family member is recovered from a 30-symbol
    prefix."""
    b = rotation_family(K5_PERIOD)
    size_ok = len(b) == 12 and len(cyclic_shifts(K5_PERIOD)) == 6
    report = characterization_facts(b)
    match_ok = True
    for preamble in STANDARD_PREAMBLES:
        for y in sorted(b):
            # a match regenerates the prefix, so it recovers the member
            if match_ultimately_periodic(stream_prefix(Periodic(preamble, y), 30), b) is None:
                match_ok = False
    passed = size_ok and report.fact1_holds and report.fact2_holds and match_ok
    return TheoremResult(
        "T5",
        "characterization of binary k=5 words: the length-9 and length-15 "
        "facts hold over the 12 rotations, and 30-symbol prefixes match the "
        "periodic family",
        passed,
        {
            "family_size": len(b),
            "fact1": report.fact1_holds,
            "fact2": report.fact2_holds,
            "valid_count_len9": report.valid_count_len9,
            "exceptions": sorted(report.exceptions),
        },
    )


def check_t6() -> TheoremResult:
    """The image of any binary word under 0->0001011, 1->0010111 has a
    conflict-free length-6 factor set; 000 synchronizes blocks; decoding
    inverts encoding."""
    fs = image_factor_set(BINARY_SELF, 6, all_words_universe(2, 2))
    marker = marker_sync_check(BINARY_SELF, Word.parse("000", 2))
    factors = sorted(fs)
    # The images of the 510 words of lengths 1..8, concatenated, are blocks of
    # 7 symbols that each encode one letter of one word.  Decoding goes block
    # by block, so it gives the concatenated words back iff it inverts the
    # encoding of every word.
    words = "".join("".join(u) for n in range(1, 9) for u in itertools.product("01", repeat=n))
    decoded = periodicity_transport_check(BINARY_SELF, Word(words.translate(BINARY_SELF.table), 2))
    empty = periodicity_transport_check(BINARY_SELF, Word("", 2))
    decode_ok = empty == Word("", 2) and decoded is not None and decoded.text == words
    passed = (
        factors == BINARY_K6_FACTORS
        and not has_reversal_conflict(fs)
        and marker.synchronized
        and decode_ok
    )
    return TheoremResult(
        "T6",
        "morphism 0->0001011, 1->0010111 yields the 15-word conflict-free "
        "length-6 factor set, marker 000 synchronized, blockwise decode "
        "inverts encode for |u| <= 8",
        passed,
        {
            "factors": factors,
            "factor_count": len(fs),
            "synchronized": marker.synchronized,
            "decode_ok": decode_ok,
        },
    )


def check_t7() -> TheoremResult:
    """Squarefree words over a 4-letter alphabet avoiding reversed subwords of
    length >= 2 have length at most 20."""
    claim = "squarefree 4-letter words valid at k=2 max out at 20"
    q = AvoidanceQuery(2, require_squarefree=True)
    outcome = max_valid_length(4, q, cap=64)
    if not isinstance(outcome, Finite):
        return TheoremResult("T7", claim, False, {"outcome": "exceeds-cap"})
    recheck = all(is_valid(w, q) for w in outcome.witnesses[:4])
    passed = outcome.max_length == 20 and recheck
    return TheoremResult(
        "T7", claim, passed,
        {
            "max_length": outcome.max_length,
            "witness_count": len(outcome.witnesses),
            "first_witness": str(outcome.witnesses[0]),
            "nodes_explored": outcome.nodes_explored,
        },
    )


def check_t8() -> TheoremResult:
    """The image of an infinite squarefree ternary word under 0->012, 1->013,
    2->014 is squarefree over 5 letters and avoids reversed subwords of
    length >= 2."""
    sqf = squarefree_morphism_test(TERNARY_TO_FIVE)
    fs = image_factor_set(TERNARY_TO_FIVE, 2, squarefree_words_universe(3, 2))
    prefix = stream_prefix(
        MorphicImage(TERNARY_TO_FIVE, Builtin("thue-squarefree-ternary")), 3000
    )
    prefix_ok = is_squarefree(prefix) and is_valid(prefix, AvoidanceQuery(2))
    factors = sorted(fs)
    passed = (
        sqf.passed
        and len(sqf.preimages) == 12
        and factors == FIVE_K2_FACTORS
        and not has_reversal_conflict(fs)
        and prefix_ok
    )
    return TheoremResult(
        "T8",
        "morphism 0->012, 1->013, 2->014 passes the 12-word squarefreeness "
        "test; pair set {01,12,13,14,20,30,40} conflict-free; 3000-symbol "
        "image prefix squarefree and valid",
        passed,
        {
            "squarefree_preimages": len(sqf.preimages),
            "factors": factors,
            "prefix_ok": prefix_ok,
        },
    )


ALL_CHECKS = (
    check_t1, check_t2, check_t3, check_t4,
    check_t5, check_t6, check_t7, check_t8,
)


def run_verification() -> PaperReport:
    return PaperReport(tuple(check() for check in ALL_CHECKS))
