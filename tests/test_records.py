"""The record types: immutable values on one `Record` base, checked when built."""

import copy
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

import revfree
from revfree import (
    AvoidanceQuery,
    Builtin,
    CharacterizationReport,
    ConflictWitness,
    ExceedsCap,
    FactorSet,
    Finite,
    MarkerReport,
    MorphicImage,
    Morphism,
    Periodic,
    SquarefreeMorphismResult,
    SquareWitness,
    Word,
)
from revfree.verification import PaperReport, TheoremResult
from revfree.words import BUILTIN_NAMES, Record

B = Morphism(("01", "10"), 2)

# Each record class with the fields of two different records.
CASES = [
    (Word, ("0120", 3), ("0121", 3)),
    (Periodic, (Word("0", 2), Word("01", 2)), (Word("", 2), Word("01", 2))),
    (MorphicImage, (B, Builtin("nonperiodic-binary")), (B, Periodic(Word("", 2), Word("1", 2)))),
    (Builtin, ("thue-squarefree-ternary",), ("nonperiodic-binary",)),
    (AvoidanceQuery, (3, True), (3, False)),
    (ConflictWitness, (Word("001", 2), 0, 2), (Word("001", 2), 0, 3)),
    (SquareWitness, (Word("01", 2), 4), (Word("01", 3), 4)),
    (Morphism, (("0012", "0112"), 3), (("0012", "0112"), 4)),
    (FactorSet, (2, frozenset({Word("01", 2), Word("10", 2)})), (2, frozenset({Word("01", 2)}))),
    (MarkerReport, (Word("0", 2), (("00", 0), ("01", 0)), True), (Word("0", 2), (), True)),
    (SquarefreeMorphismResult, (True, (Word("012", 3),), None),
     (False, (Word("012", 3),), Word("012", 3))),
    (Finite, (4, (Word("0110", 2),), 13), (4, (Word("1001", 2),), 13)),
    (ExceedsCap, (5, Word("01001", 2), 9), (5, Word("01001", 2), 10)),
    (CharacterizationReport, (True, True, 32, ()), (True, False, 32, ("011",))),
    (TheoremResult, ("T1", "a claim", True, {"nodes": 1}), ("T1", "a claim", True, {"nodes": 2})),
    (PaperReport, ((TheoremResult("T2", "", False, {}),),), ((),)),
]
IDS = [cls.__name__ for cls, _, _ in CASES]


def test_every_record_class_is_covered():
    assert len({cls for cls, _, _ in CASES}) == 16
    assert all(issubclass(cls, Record) for cls, _, _ in CASES)


@pytest.mark.parametrize("cls, fields, other", CASES, ids=IDS)
def test_positional_construction(cls, fields, other):
    r = cls(*fields)
    assert type(r) is cls
    assert [getattr(r, name) for name in cls.__slots__] == list(fields)
    with pytest.raises(TypeError):
        cls(*fields, None)


def test_avoidance_query_default_and_keyword():
    assert AvoidanceQuery(2).require_squarefree is False
    q = AvoidanceQuery(2, require_squarefree=True)
    assert (q.k, q.require_squarefree) == (2, True)
    assert q == AvoidanceQuery(2, True) != AvoidanceQuery(2)


@pytest.mark.parametrize("cls, fields, other", CASES, ids=IDS)
def test_equality_and_hash_by_value(cls, fields, other):
    r = cls(*fields)
    assert r == cls(*fields) and not r != cls(*fields)
    assert r != cls(*other) and not r == cls(*other)
    try:
        key = hash(fields)
    except TypeError:  # a dict field: the record is unhashable too
        with pytest.raises(TypeError):
            hash(r)
    else:
        assert hash(r) == hash(cls(*fields)) == key
        assert len({r, cls(*fields), cls(*other)}) == 2


def test_records_of_two_classes_never_compare_equal():
    assert Finite(0, (), 1) != ExceedsCap(0, (), 1)
    assert Word("01", 2) != ("01", 2)
    assert AvoidanceQuery(2) != (2, False)
    assert SquareWitness(Word("0", 2), 1) != ConflictWitness(Word("0", 2), 1, 1)
    for cls, fields, _ in CASES:
        # not tuples: no tuple equality, no iteration over the fields
        assert not isinstance(cls(*fields), tuple)
    with pytest.raises(TypeError):
        len(Finite(0, (), 1))


@pytest.mark.parametrize("cls, fields, other", CASES, ids=IDS)
def test_assignment_and_deletion_raise(cls, fields, other):
    r = cls(*fields)
    for name, value in zip(cls.__slots__, fields):
        with pytest.raises(AttributeError):
            setattr(r, name, other[0])
        with pytest.raises(AttributeError):
            delattr(r, name)
        assert getattr(r, name) is value
    with pytest.raises(AttributeError):
        r.extra = 1


@pytest.mark.parametrize("cls, fields, other", CASES, ids=IDS)
def test_repr_names_each_field(cls, fields, other):
    shown = ", ".join(f"{name}={value!r}" for name, value in zip(cls.__slots__, fields))
    assert repr(cls(*fields)) == f"{cls.__name__}({shown})"


def test_repr_examples():
    assert repr(AvoidanceQuery(3)) == "AvoidanceQuery(k=3, require_squarefree=False)"
    assert repr(Word("01", 2)) == "Word(text='01', alphabet_size=2)"
    assert repr(Periodic(Word("", 2), Word("1", 2))) == (
        "Periodic(preamble=Word(text='', alphabet_size=2), "
        "period=Word(text='1', alphabet_size=2))"
    )


@pytest.mark.parametrize("cls, fields, other", CASES, ids=IDS)
def test_pickle_and_copy_round_trip(cls, fields, other):
    r = cls(*fields)
    for twin in (pickle.loads(pickle.dumps(r)), copy.copy(r), copy.deepcopy(r)):
        assert type(twin) is cls and twin == r


def test_validating_constructors_keep_their_messages():
    def refused(exc, message, build):
        with pytest.raises(exc, match=re.escape(message)):
            build()

    refused(ValueError, "symbol '2' out of range for alphabet of size 2", lambda: Word("02", 2))
    refused(ValueError, "k must be at least 1", lambda: AvoidanceQuery(0))
    refused(ValueError, "period must be nonempty", lambda: Periodic(Word("0", 2), Word("", 2)))
    refused(ValueError, "preamble and period must share an alphabet",
            lambda: Periodic(Word("0", 2), Word("1", 3)))
    refused(ValueError, "inner stream alphabet does not match morphism domain",
            lambda: MorphicImage(B, Builtin("thue-squarefree-ternary")))
    refused(TypeError, "not a stream spec: '01'", lambda: MorphicImage(B, "01"))
    refused(ValueError, f"unknown builtin 'thue'; choose from {BUILTIN_NAMES}",
            lambda: Builtin("thue"))
    refused(ValueError, "morphism image '2' is not a nonempty word over 01",
            lambda: Morphism(("0", "2"), 2))
    refused(ValueError, "morphism image '' is not a nonempty word over 01",
            lambda: Morphism(("0", ""), 2))
    refused(TypeError, "a morphism image must be a digit string, not 1",
            lambda: Morphism(("0", 1), 2))
    refused(ValueError, "a morphism needs one image per letter, for 1..10 letters",
            lambda: Morphism((), 2))
    refused(ValueError, "factor length must be at least 1", lambda: FactorSet(0, frozenset()))
    refused(ValueError, "member 011 does not have length 2",
            lambda: FactorSet(2, frozenset({Word("01", 2), Word("011", 2)})))
    refused(ValueError, "members must share one alphabet",
            lambda: FactorSet(2, frozenset({Word("01", 2), Word("01", 3)})))


def test_reduce_rebuilds_through_the_constructor():
    # a record is rebuilt through its constructor, never patched into place
    assert Word.__reduce__(Word("01", 2)) == (Word, ("01", 2))
    assert AvoidanceQuery(1).__reduce__() == (AvoidanceQuery, (1, False))


def test_import_generates_no_code_per_class():
    # A fresh interpreter: no site hooks, revfree from this tree's src/.
    src = Path(revfree.__file__).resolve().parent.parent
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); "
        "import revfree, revfree.cli, revfree.verification; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    out = subprocess.run([sys.executable, "-I", "-S", "-c", code],
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
