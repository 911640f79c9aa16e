"""The value records: immutability, field-wise equality and hash, keyword
construction, copying, and an import that loads no code generator."""

import copy
import os
import pickle
import subprocess
import sys

import pytest

import nsg
from nsg import (AperySet, Decomposition, DecompositionCheck, DFamily, IrreducibilityReport,
                 LengthSpectrum, M6CoverPair, NumericalSemigroup, TwoAdicForm, check_interval,
                 check_msbound, classify, D, from_generators, is_decomposition,
                 length_spectrum, m6_covers, two_adic)
from nsg.decompose import IntervalReport, MsBoundReport

S = from_generators([5, 7, 9])  # reducible, spectrum (2,)

#: one record of each type, built by the code that returns it, with its
#: fields in constructor order
RECORDS = [
    (NumericalSemigroup, lambda: from_generators([5, 7, 9]), ("m", "apery")),
    (AperySet, lambda: S.apery_set(7), ("n", "elems")),
    (IrreducibilityReport, lambda: classify(S), ("kind", "frobenius", "genus", "witness")),
    (Decomposition, lambda: length_spectrum(S).witnesses[2], ("components",)),
    (DecompositionCheck, lambda: is_decomposition(S, length_spectrum(S).witnesses[2].components),
     ("verdict", "reason", "intersection")),
    (LengthSpectrum, lambda: length_spectrum(S), ("lengths", "witnesses")),
    (IntervalReport, lambda: check_interval(4, 9),
     ("m", "f_max", "total", "census", "counterexamples")),
    (MsBoundReport, lambda: check_msbound(4, 9),
     ("m", "f_max", "checked", "max_mset", "violations")),
    (TwoAdicForm, lambda: two_adic(12), ("f", "j", "k")),
    (DFamily, lambda: D(6, 1), ("m", "ell", "components", "tags")),
    (M6CoverPair, lambda: m6_covers(from_generators([6, 7, 9, 17])),
     ("T", "T_prime", "sg_count", "choices")),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


def _rebuilt(r, fields):
    """A second record with r's field values, built by keyword."""
    return type(r)(**{f: getattr(r, f) for f in fields})


def _hashable(r, fields):
    try:
        hash(tuple(getattr(r, f) for f in fields))
    except TypeError:
        return False
    return True


@pytest.mark.parametrize("cls, make, fields", RECORDS, ids=IDS)
def test_records_are_frozen(cls, make, fields):
    r = make()
    assert type(r) is cls
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(r, f, None)
        with pytest.raises(AttributeError):
            delattr(r, f)
    with pytest.raises(AttributeError):
        r.extra = 1
    assert [getattr(r, f) for f in fields] == [getattr(make(), f) for f in fields]


@pytest.mark.parametrize("cls, make, fields", RECORDS, ids=IDS)
def test_records_compare_and_hash_field_by_field(cls, make, fields):
    r = make()
    twin = _rebuilt(r, fields)
    assert twin is not r and twin == r and not twin != r
    assert r != tuple(getattr(r, f) for f in fields)  # another type is never equal
    try:
        h = hash(r)
    except TypeError:  # a dict or list field it compares on, as with a dataclass
        assert not _hashable(r, fields)
        return
    assert hash(twin) == h
    assert len({r, twin}) == 1


def test_records_differ_when_one_field_differs():
    assert two_adic(12) != TwoAdicForm(f=12, j=2, k=2)
    assert classify(S) != IrreducibilityReport("reducible", S.frobenius, S.genus + 1,
                                               classify(S).witness)
    check = is_decomposition(S, [S])
    assert check != DecompositionCheck(check.verdict, "another reason", check.intersection)
    assert NumericalSemigroup(3, (4, 5)) != NumericalSemigroup(3, (7, 5))
    assert NumericalSemigroup(3, (4, 5)) != NumericalSemigroup(4, (5, 6, 7))


def test_length_spectrum_compares_and_hashes_on_lengths_alone():
    spec = length_spectrum(S)
    other = LengthSpectrum(spec.lengths, {2: Decomposition((S,))})
    assert other == spec and hash(other) == hash(spec) == hash((spec.lengths,))
    assert LengthSpectrum((1, 2), spec.witnesses) != spec


def test_keyword_construction_and_default_witness():
    report = IrreducibilityReport(kind="symmetric", frobenius=7, genus=4)
    assert report.witness is None
    assert report == IrreducibilityReport("symmetric", 7, 4, None)
    assert TwoAdicForm(f=12, j=2, k=1) == two_adic(12)
    assert NumericalSemigroup(m=3, apery=(4, 5)) == from_generators([3, 4, 5])
    assert AperySet(n=3, elems=(0, 4, 5)) == from_generators([3, 4, 5]).apery_set(3)
    assert repr(report) == ("IrreducibilityReport(kind='symmetric', frobenius=7, genus=4, "
                            "witness=None)")
    assert repr(two_adic(12)) == "TwoAdicForm(f=12, j=2, k=1)"


def test_list_apery_vector_builds_the_tuple_semigroup():
    """The Apery vector is stored as a tuple whatever iterable it came in, so
    every cached view works and the two spellings are one semigroup."""
    a, b = NumericalSemigroup(3, [4, 5]), NumericalSemigroup(3, (4, 5))
    assert a.apery == (4, 5) and type(a.apery) is tuple
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b) == "<3,4,5>"
    assert a.generators == b.generators and a.gap_mask == b.gap_mask
    assert classify(a) is classify(b)
    assert NumericalSemigroup(4, iter([5, 6, 7])) == from_generators([4, 5, 6, 7])


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                   lambda s: pickle.loads(pickle.dumps(s))],
                         ids=["copy", "deepcopy", "pickle"])
def test_semigroup_copies_keep_equality_and_hash(clone):
    s = from_generators([5, 7, 9])
    s.gap_mask, hash(s)  # fill the cached views first
    assert {"gap_mask", "_hash"} <= set(s.__dict__)
    t = clone(s)
    assert t is not s and t == s and hash(t) == hash(s) == hash((s.m, s.apery))
    assert t.gap_mask == s.gap_mask and t.generators == s.generators
    with pytest.raises(AttributeError):
        t.m = 4
    assert pickle.loads(pickle.dumps(classify(s))) == classify(s)


@pytest.mark.parametrize("module", ["nsg", "nsg.cli"])
def test_import_loads_no_code_generator(module):
    """Importing the package or its command line defines every record as a
    plain class: neither `dataclasses` nor `inspect` gets loaded.  Only the
    modules the import itself adds count, since what starts with the
    interpreter differs between machines."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(nsg.__file__)))
    script = (f"import sys; before = set(sys.modules); import {module}; "
              "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    out = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
