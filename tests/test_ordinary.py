"""The ordinary semigroup, its component families, and the graded decompositions."""

import pytest

from nsg import (Budget, D, H, I_irr, OutOfRange, PSEUDOSYMMETRIC, SYMMETRIC, T_irr,
                 UndefinedValue, VALID_IRREDUNDANT, classify, d_family_lengths,
                 from_generators, is_decomposition, length_spectrum,
                 min_ordinary_length, n_min, special_gaps_of_ordinary, two_adic)
from nsg.reference_data import ORDINARY_MIN_LENGTH


def test_H_basics():
    h = H(7)
    assert h.gaps == (1, 2, 3, 4, 5, 6)
    assert h.generators == (7, 8, 9, 10, 11, 12, 13)
    with pytest.raises(OutOfRange):
        H(1)


def test_special_gaps_of_ordinary():
    assert special_gaps_of_ordinary(7) == [6, 5, 4]
    assert special_gaps_of_ordinary(8) == [7, 6, 5, 4]
    from nsg import special_gaps
    for m in range(4, 12):
        assert set(special_gaps_of_ordinary(m)) == special_gaps(H(m))


def test_T_irr():
    for f in range(1, 30):
        t = T_irr(f)
        assert t.frobenius == f
        assert t.gap_set == set(range(1, f // 2 + 1)) | {f}
        assert classify(t).kind == (SYMMETRIC if f % 2 else PSEUDOSYMMETRIC)


def test_two_adic():
    assert (two_adic(20).j, two_adic(20).k) == (2, 2)
    assert (two_adic(7).j, two_adic(7).k) == (0, 3)
    assert (two_adic(16).j, two_adic(16).k) == (4, 0)
    for f in range(1, 100):
        d = two_adic(f)
        assert f == (1 << d.j) * (2 * d.k + 1)


def test_I_irr_odd_is_two_generated():
    for f in range(1, 40, 2):
        assert I_irr(f) == from_generators([2, f + 2])


def test_I_irr_invariants():
    for f in range(1, 40):
        s = I_irr(f)
        j = two_adic(f).j
        assert s.frobenius == f
        assert classify(s).kind == (SYMMETRIC if j == 0 else PSEUDOSYMMETRIC)
        # within (f/2, f] membership is decided by the residue mod 2^{j+1}
        step = 1 << (j + 1)
        for x in range(f // 2 + 1, f + 1):
            assert (x in s) == (x % step != 1 << j)


def test_I_irr_example_20():
    # f = 20 = 4 * 5: remove 4, 12, 20 from the tail semigroup plus 8Z
    s = I_irr(20)
    assert s.generators == (8, 11, 13, 14, 15, 17, 18)
    assert 4 not in s and 12 not in s and 20 not in s
    assert 8 in s and 16 in s


def test_n_min_values():
    assert n_min(4) == 2
    assert n_min(28) == 5
    assert n_min(56) == 6
    with pytest.raises(UndefinedValue):
        n_min(3)


def test_D_family_verified_members():
    for m in (7, 10, 28):
        for ell in range(m // 2 + 1):
            fam = D(m, ell)
            assert fam.length == len(fam.components)
            assert is_decomposition(H(m), fam.components).verdict == VALID_IRREDUNDANT
            # the last ell tags are tail components for the ell largest special gaps
            tails = [v for t, v in fam.tags if t == "T"]
            assert tails == special_gaps_of_ordinary(m)[:ell]
    with pytest.raises(OutOfRange):
        D(28, 15)


@pytest.mark.parametrize("m, ell", [(-5, 0), (2, 0), (10, 9), (10, -1)])
def test_D_refused_input_ticks_nothing(m, ell):
    """m and ell are checked before the genus of H(m) is ticked, so a refused
    request leaves the budget as it was (a negative m used to give nodes back)."""
    budget = Budget()
    with pytest.raises(OutOfRange):
        D(m, ell, budget)
    assert budget.used == 0
    D(10, 5, budget)
    assert budget.used == 9


def test_d_family_lengths_interval():
    assert d_family_lengths(7) == (3,)
    assert d_family_lengths(8) == (3, 4)
    assert d_family_lengths(28) == (5, 6, 7, 8, 9, 10, 11, 12, 13, 14)
    for m in range(4, 40):
        ls = d_family_lengths(m)
        assert ls == tuple(range(n_min(m), m // 2 + 1))


def test_min_ordinary_length_small():
    # for small m the graded family already achieves the true minimum
    for m in (4, 5, 6, 7, 8, 10):
        size, witness = min_ordinary_length(m)
        assert size == min(length_spectrum(H(m)).lengths)
        assert is_decomposition(H(m), witness.components).verdict == VALID_IRREDUNDANT


def test_min_ordinary_length_beats_family_at_28():
    budget = Budget()
    size, witness = min_ordinary_length(28, budget)
    assert size == 4 < n_min(28)
    assert witness.length == 4
    # the cover search's branching order decides the witness and the node
    # count; both pinned
    assert [list(c.generators) for c in witness.components] == [
        [2, 29], [4, 15, 17], [7, 11, 12, 17], [9, 10, 13, 16, 17, 21]]
    assert budget.used == 296


def test_min_ordinary_length_56_within_node_budget():
    # the cover search's holder ANDs keep H(56) at 15,407 nodes (atom tables
    # included); the unpruned search needs over 255,000.  The counts of
    # H(58) and H(60) are pinned with it: a change to the search shows here
    for m, used in ((56, 15_407), (58, 20_097), (60, 27_403)):
        budget = Budget(100_000)
        size, witness = min_ordinary_length(m, budget)
        assert size == witness.length == ORDINARY_MIN_LENGTH[m]
        assert budget.used == used, m


def test_min_ordinary_length_64_within_node_budget():
    # H(64) takes 68,584 nodes (atom tables included) because holder ANDs
    # decide the last two cover levels; recursing to the last level needs
    # over 1.3 million.  The witness is the unbounded search's.
    budget = Budget(140_000)
    size, witness = min_ordinary_length(64, budget)
    assert size == witness.length == 5
    assert budget.used == 68_584
    assert [list(c.generators) for c in witness.components] == [
        [2, 65], [5, 26, 34, 42], [8, 12, 29, 35, 39], [8, 19, 23, 34, 45, 49],
        [15, 16, 21, 22, 23, 29, 49]]


def test_min_ordinary_length_table():
    """The checked-in min(m) table: recomputed for m <= 48, and for every m
    within one of the family minimum except m = 56, and 6 only at m = 65."""
    for m in range(4, 49):
        assert min_ordinary_length(m)[0] == ORDINARY_MIN_LENGTH[m], m
    assert sorted(ORDINARY_MIN_LENGTH) == list(range(4, 81))
    assert [m for m, k in ORDINARY_MIN_LENGTH.items() if n_min(m) - k not in (0, 1)] == [56]
    assert n_min(56) - ORDINARY_MIN_LENGTH[56] == 2
    assert [m for m, k in ORDINARY_MIN_LENGTH.items() if k == 6] == [65]
