"""Oversemigroups, decomposition checking, length spectra, and sweeps."""

import gc

import pytest

from nsg import (Budget, BudgetExceeded, INVALID, N, REDUCIBLE, VALID_IRREDUNDANT,
                 VALID_REDUNDANT, IrreducibilityReport, check_interval, check_msbound,
                 classify, from_gaps, from_generators, irreducible_oversemigroups,
                 irreducibles_with_frobenius, is_decomposition, kunz_semigroups,
                 length_spectrum, m_set, minimum_cover, miss_set, pseudo_frobenius,
                 semigroups_up_to_genus, special_gaps)
from nsg.core import _bits, _mask_of
from nsg.decompose import _agree_mask, oversemigroups


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


def test_budget_must_be_a_budget_or_none():
    """A bare node limit is refused, not run under the default budget."""
    with pytest.raises(TypeError, match="Budget or None"):
        length_spectrum(from_generators([6, 13, 14, 15, 16, 17]), 1000)
    with pytest.raises(TypeError, match="Budget or None"):
        check_interval(8, 22, 1000)


def test_kunz_semigroups_counts_and_validity():
    assert sum(1 for _ in kunz_semigroups(4, 14)) == 37
    for s in kunz_semigroups(4, 14):
        assert s.m == 4 and s.frobenius <= 14
        s.validate()
    # no duplicates
    all_ = list(kunz_semigroups(5, 12))
    assert len(all_) == len(set(all_))


def test_check_interval_small():
    rep = check_interval(4, 14)
    assert rep.total == 37
    assert rep.counterexamples == []
    assert sum(rep.census.values()) == 37
    assert (3,) not in rep.census  # no multiplicity-4 spectrum is exactly {3}


def test_sweep_keeps_no_classification_per_semigroup():
    """A sweep reads SG(S) from the special-gap mask kernel and classifies
    only the S it finds irreducible: it keeps no reducibility witness, and
    puts nothing in the `special_gaps` or `pseudo_frobenius` caches."""
    for cache in (classify, special_gaps, pseudo_frobenius):
        cache.cache_clear()  # so the sweep's own semigroups are counted

    def reducible_reports():
        gc.collect()
        return sum(isinstance(o, IrreducibilityReport) and o.kind == REDUCIBLE
                   for o in gc.get_objects())

    before = reducible_reports()
    rep = check_interval(7, 20, Budget())
    assert rep.total == 436
    assert reducible_reports() == before
    assert special_gaps.cache_info().currsize == 0
    assert pseudo_frobenius.cache_info().currsize == 0


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


@pytest.fixture
def fake_pool(monkeypatch):
    """Replaces ProcessPoolExecutor with a pool that maps serially and
    starts no process; returns the max_workers of every pool made."""
    import concurrent.futures

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
    return started


def test_sweep_workers_capped_by_threads_and_cpus(fake_pool):
    """--threads asks for workers, but no more are started than there are
    CPUs, and none for one."""
    import os

    serial = check_interval(5, 14)
    capped = check_interval(5, 14, threads=10**6)
    assert capped == serial
    cpus = os.cpu_count() or 1
    assert fake_pool == ([cpus] if cpus > 1 else [])


@pytest.mark.parametrize("cpus", [3, 4])
def test_strided_sweep_matches_serial(fake_pool, monkeypatch, cpus):
    """Worker w of N takes every N-th semigroup from the w-th on; the 275
    semigroups of (6, 20) give slices of unequal length for N = 3 and 4, and
    the reports still equal the serial ones, with the same nodes."""
    import os

    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    for check, m, f_max in ((check_interval, 5, 14), (check_msbound, 6, 20)):
        b_serial, b_strided = Budget(), Budget()
        serial = check(m, f_max, b_serial)
        strided = check(m, f_max, b_strided, threads=cpus + 1)
        assert strided == serial
        assert b_strided.used == b_serial.used > 0
    assert fake_pool == [cpus, cpus]


def test_serial_sweep_stops_at_the_budget(monkeypatch):
    """A serial sweep is one shard under the request's limit, so it stops
    at the limit and does not finish the sweep first (872 semigroups)."""
    from nsg import decompose

    rows = []
    row = decompose._interval_row

    def counted(s, b):
        rows.append(s)
        return row(s, b)

    monkeypatch.setattr(decompose, "_interval_row", counted)
    with pytest.raises(BudgetExceeded, match="50001 > 50000"):
        check_interval(8, 22, Budget(50_000))
    assert 0 < len(rows) < 872


@pytest.mark.parametrize("check, row, m, f_max", [
    (check_interval, "_interval_row", 6, 18),
    (check_interval, "_interval_row", 8, 22),
    (check_msbound, "_msbound_row", 6, 20),
    (check_msbound, "_msbound_row", 7, 22),
])
def test_sweep_budget_is_a_sum_over_its_semigroups(check, row, m, f_max):
    """A sweep's nodes are, over its semigroups, the weight 1 + g*m // 64
    each ticks before its row plus what the row ticks on a fresh Budget."""
    from nsg import decompose

    expected = 0
    for s in kunz_semigroups(m, f_max):
        b = Budget()
        getattr(decompose, row)(s, b)
        expected += 1 + (s.genus * m >> 6) + b.used
    b = Budget()
    check(m, f_max, b)
    assert b.used == expected


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
    subsets = [_mask_of(xs) for xs in ({1, 2}, {3}, {4}, {3, 4}, {1})]
    size, idxs = minimum_cover(_mask_of({1, 2, 3, 4}), subsets)
    assert size == 2
    union = 0
    for i in idxs:
        union |= subsets[i]
    assert union == _mask_of({1, 2, 3, 4})
    with pytest.raises(ValueError):
        minimum_cover(_mask_of({1, 2}), [_mask_of({1})])


def test_irreducible_oversemigroups_atoms():
    assert irreducible_oversemigroups(N) == []  # N has no special gap to miss
    s = from_generators([5, 12, 13, 14, 16])
    atoms = irreducible_oversemigroups(s)
    assert atoms == sorted(atoms, key=lambda t: t.sort_key())
    sg = special_gaps(s)
    sg_mask = _mask_of(sg)
    for t in atoms:
        assert s.is_subset(t)
        miss = frozenset(_bits(t.gap_mask & sg_mask))
        assert miss and miss <= sg
        assert miss == miss_set(s, t)
    # the mask reads of the miss and agreement sets against their definitions
    n = 0
    for m, f_max in ((6, 24), (7, 21), (5, 30)):
        for s in kunz_semigroups(m, f_max):
            sg_mask = _mask_of(special_gaps(s))
            agree = _agree_mask(s)
            for t in irreducible_oversemigroups(s):
                gm = t.gap_mask
                assert frozenset(_bits(gm & sg_mask)) == miss_set(s, t)
                assert frozenset(x % m for x in _bits(gm & agree)) == m_set(s, t)
                n += 1
    assert n == 13907
