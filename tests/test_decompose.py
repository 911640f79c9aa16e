"""Oversemigroups, decomposition checking, length spectra, and sweeps."""

import pytest

from nsg import (Budget, BudgetExceeded, INVALID, N, VALID_IRREDUNDANT,
                 VALID_REDUNDANT, check_interval, check_msbound, from_gaps,
                 from_generators, irreducible_oversemigroups,
                 irreducibles_with_frobenius, is_decomposition, kunz_semigroups,
                 length_spectrum, m_set, minimum_cover, miss_set, oversemigroups,
                 semigroups_up_to_genus, special_gaps)


# counts of irreducible semigroups by Frobenius number, cross-checked against
# a brute-force subset enumeration (see test_oracles)
IRREDUCIBLE_COUNTS = [1, 1, 1, 1, 2, 1, 3, 2, 3, 3, 6, 2, 8]


def test_irreducibles_with_frobenius_counts():
    got = [len(irreducibles_with_frobenius(f)) for f in range(1, 14)]
    assert got == IRREDUCIBLE_COUNTS


def test_irreducibles_with_frobenius_contents():
    for f in range(1, 14):
        for t in irreducibles_with_frobenius(f):
            assert t.frobenius == f
            assert len(special_gaps(t)) == 1
            # genus is pinned by irreducibility
            assert t.genus == ((f + 1) // 2 if f % 2 else f // 2 + 1)


def test_oversemigroups_of_small_semigroup():
    s = from_generators([3, 5, 7])
    over = oversemigroups(s)
    assert len(over) == 4
    assert s in over and N in over
    assert all(s.is_subset(t) for t in over)


def test_oversemigroups_count_grows_with_genus():
    # the ordinary semigroup with gaps 1..5 has one oversemigroup per closed
    # subset of its gap set
    over = oversemigroups(from_gaps(range(1, 6)))
    assert len(over) == 12


def test_m_set_and_miss_set():
    s = from_generators([5, 11, 13, 19])
    t = from_generators([5, 6, 13])
    assert s.is_subset(t)
    ms = m_set(s, t)
    # coordinates where the Apery vectors literally agree
    assert ms == {i for i in range(1, 5) if t.apery[i - 1] == s.apery[i - 1]}
    missed = miss_set(s, t)
    assert missed <= special_gaps(s)
    assert all(x not in t for x in missed)


def test_is_decomposition_verdicts():
    s = from_generators([5, 11, 13, 19])
    spec = length_spectrum(s)
    good = spec.witnesses[2].components
    assert is_decomposition(s, good).verdict == VALID_IRREDUNDANT

    # repeating a component keeps validity but breaks irredundancy
    padded = good + (good[0],)
    check = is_decomposition(s, padded)
    assert check.verdict == VALID_REDUNDANT

    wrong = (from_generators([2, 3]),)
    assert is_decomposition(s, wrong).verdict == INVALID
    assert is_decomposition(s, ()).verdict == INVALID

    # components must be irreducible
    red = from_gaps(range(1, 6))
    assert is_decomposition(red, (red,)).verdict == INVALID


def test_is_decomposition_criteria_agree():
    s = from_generators([6, 8, 13, 15, 17])
    for k, d in length_spectrum(s).witnesses.items():
        check = is_decomposition(s, d.components)
        assert check.verdict == VALID_IRREDUNDANT
        assert check.criteria_agree is True


def test_length_spectrum_irreducible_is_one():
    spec = length_spectrum(from_generators([3, 4]))
    assert spec.lengths == (1,)


def test_length_spectrum_known_values():
    assert length_spectrum(from_generators([5, 11, 13, 19])).lengths == (2, 3)
    assert length_spectrum(from_generators([6, 13, 14, 15, 16, 17])).lengths == (3, 4, 5)
    assert length_spectrum(from_generators([7, 22, 23, 24, 25, 26, 27])).lengths == (6,)


def test_length_spectrum_witnesses_verify():
    s = from_generators([6, 16, 14, 19, 21, 23])
    spec = length_spectrum(s)
    assert spec.lengths == (2, 3, 4, 5)
    for k, d in spec.witnesses.items():
        assert d.length == k
        assert is_decomposition(s, d.components).verdict == VALID_IRREDUNDANT


def test_length_spectrum_bounded_by_special_gap_count():
    for gens in ([4, 6, 9, 11], [5, 12, 13, 14, 16], [6, 8, 13, 15, 17]):
        s = from_generators(gens)
        assert length_spectrum(s).lengths[-1] <= len(special_gaps(s))


def test_budget_exhaustion():
    with pytest.raises(BudgetExceeded):
        length_spectrum(from_generators([6, 13, 14, 15, 16, 17]), Budget(5))


def test_kunz_semigroups_counts_and_validity():
    assert sum(1 for _ in kunz_semigroups(4, 14)) == 37
    for s in kunz_semigroups(4, 14):
        assert s.m == 4 and s.frobenius <= 14
        s.validate()
    # no duplicates
    all_ = list(kunz_semigroups(5, 12))
    assert len(all_) == len(set(all_))


def test_kunz_semigroups_sharding_partitions():
    whole = sorted(kunz_semigroups(5, 16), key=lambda s: s.sort_key())
    shards = []
    for a1 in range(6, 22, 5):
        shards.extend(kunz_semigroups(5, 16, first=a1))
    assert sorted(shards, key=lambda s: s.sort_key()) == whole


def test_check_interval_small():
    rep = check_interval(4, 14)
    assert rep.total == 37
    assert rep.counterexamples == []
    assert sum(rep.census.values()) == 37
    assert (3,) not in rep.census  # no multiplicity-4 spectrum is exactly {3}


def _assert_threads_match_serial(check, m, f_max):
    b_serial, b_parallel = Budget(), Budget()
    serial = check(m, f_max, b_serial)
    parallel = check(m, f_max, b_parallel, threads=2)
    assert serial == parallel
    assert b_serial.used == b_parallel.used > 0


def test_check_interval_threads_match_serial():
    _assert_threads_match_serial(check_interval, 5, 14)


def test_check_msbound_threads_match_serial():
    _assert_threads_match_serial(check_msbound, 6, 20)


def test_sweep_workers_capped_by_cpus_and_shards(monkeypatch):
    """--threads asks for workers, but no more are started than there are
    CPUs or shards; the fake pool maps serially and starts no process."""
    import concurrent.futures
    import os

    started = []

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    serial = check_interval(5, 14)
    capped = check_interval(5, 14, threads=10**6)
    assert capped == serial
    shards = 3  # a_1 in 6, 11, 16
    cpus = os.cpu_count() or 1
    assert started == ([min(shards, cpus)] if cpus > 1 else [])


def test_check_msbound_small():
    # (semigroups checked, max #mset), as found when every agreement set was
    # still computed from Apery sets
    expected = {(4, 12): (10, 2), (5, 30): (181, 2), (6, 24): (113, 3),
                (7, 22): (30, 3), (8, 22): (44, 4)}
    for (m, f_max), (checked, max_mset) in expected.items():
        rep = check_msbound(m, f_max)
        assert rep.violations == []
        assert (rep.checked, rep.max_mset) == (checked, max_mset)
        assert 2 * rep.max_mset <= m


def test_semigroups_up_to_genus_counts():
    from collections import Counter
    census = Counter(s.genus for s in semigroups_up_to_genus(8))
    assert [census[g] for g in range(9)] == [1, 1, 2, 4, 7, 12, 23, 39, 67]


def test_minimum_cover():
    size, idxs = minimum_cover({1, 2, 3, 4}, [{1, 2}, {3}, {4}, {3, 4}, {1}])
    assert size == 2
    chosen = [{1, 2}, {3}, {4}, {3, 4}, {1}]
    union = set()
    for i in idxs:
        union |= chosen[i]
    assert union == {1, 2, 3, 4}
    with pytest.raises(ValueError):
        minimum_cover({1, 2}, [{1}])


def test_irreducible_oversemigroups_atoms():
    s = from_generators([5, 12, 13, 14, 16])
    atoms = irreducible_oversemigroups(s)
    sg = special_gaps(s)
    for a in atoms:
        assert s.is_subset(a.T)
        assert a.miss and a.miss <= sg
        assert a.miss == miss_set(s, a.T)
        assert a.mset == m_set(s, a.T)
    # the mask-derived agreement set against the Apery-set definition
    n = 0
    for m, f_max in ((6, 24), (7, 21), (5, 30)):
        for s in kunz_semigroups(m, f_max):
            for a in irreducible_oversemigroups(s):
                assert a.mset == m_set(s, a.T)
                n += 1
    assert n == 13907
