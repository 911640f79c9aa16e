"""Basic representation: Kunz coordinates, invariants, membership, intersection."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsg import (N, AperySet, LimitExceeded, NotClosed, NotCofinite, NotElement,
                 NumericalSemigroup, classify, from_gaps, from_generators, intersect_all,
                 semigroups_up_to_genus)


def test_from_generators_basic():
    s = from_generators([3, 5, 7])
    assert s.m == 3
    assert s.apery == (7, 5)
    assert s.frobenius == 4
    assert s.genus == 3
    assert s.gaps == (1, 2, 4)
    assert s.generators == (3, 5, 7)


def test_from_generators_redundant_generators_dropped():
    # 8 = 3 + 5 is not minimal
    s = from_generators([3, 5, 8, 100])
    assert s.generators == (3, 5)
    # 2**39 + 1 is a multiple of 3: no conductor bound depends on its size
    assert from_generators([3, 4, (1 << 39) + 1]) == from_generators([3, 4])


def test_from_generators_order_and_duplicates_ignored():
    assert from_generators([7, 5, 3, 3, 5]) == from_generators([3, 5, 7])


def test_from_generators_gcd_failure():
    with pytest.raises(NotCofinite):
        from_generators([4, 6])


def test_from_generators_full_semigroup():
    assert from_generators([1]) is N
    assert from_generators([2, 3]).gaps == (1,)


def test_from_gaps_round_trip():
    s = from_generators([5, 7, 9])
    assert from_gaps(s.gaps) == s


def test_from_gaps_not_closed_carries_witness():
    with pytest.raises(NotClosed) as ei:
        from_gaps({1, 2, 4, 8})  # 4 = 8 - 4 forces e.g. 3 + 5 = 8
    x, y = ei.value.witness
    assert x + y in {1, 2, 4, 8}
    # the least pair, as a scan of non-gap pairs in increasing order finds it
    assert ei.value.witness == (3, 5)
    with pytest.raises(NotClosed) as ei:
        from_gaps({1, 2, 4, 6})
    assert ei.value.witness == (3, 3)
    # fewer than F//2 + 1 gaps: the least x with x and F - x both elements,
    # found without building anything of size F
    f = (1 << 40) - 1
    with pytest.raises(NotClosed) as ei:
        from_gaps({1, f})
    assert ei.value.witness == (2, f - 2)
    with pytest.raises(NotClosed) as ei:
        from_gaps({1, 2, 3, 8})  # even F = 8 with F/2 = 4 an element
    assert ei.value.witness == (4, 4)


def test_from_gaps_empty_is_full_semigroup():
    assert from_gaps([]) is N


def test_full_semigroup_conventions():
    assert N.m == 1
    assert N.frobenius == -1
    assert N.genus == 0
    assert N.gaps == ()
    assert N.generators == (1,)
    assert 0 in N and 1 in N


def test_constructor_rejects_bad_apery():
    with pytest.raises(ValueError):
        NumericalSemigroup(3, (4,))  # wrong length
    with pytest.raises(ValueError):
        NumericalSemigroup(3, (6, 5))  # 6 not congruent to 1 mod 3
    with pytest.raises(ValueError):
        NumericalSemigroup(3, (1, 5))  # 1 below m, so m would not be minimal


def test_validate_catches_inequality_violation():
    # a_1 + a_1 = 8 < a_2 = 11 violates closure at residue 2
    bad = NumericalSemigroup(3, (4, 11))
    with pytest.raises(ValueError):
        bad.validate()
    from_generators([6, 7]).validate()


def test_value_cap():
    with pytest.raises(LimitExceeded):
        NumericalSemigroup(2, ((1 << 41) + 1,))
    with pytest.raises(LimitExceeded):
        from_generators([2, (1 << 40) + 1])
    assert from_generators([2, (1 << 40) - 1]).frobenius == (1 << 40) - 3


def test_membership():
    s = from_generators([5, 8])
    inside = {0, 5, 8, 10, 13, 16, 5 + 8 + 8}
    outside = {1, 2, 3, 4, 6, 7, 9, 11, 12, 14, -1, -5}
    assert all(x in s for x in inside)
    assert all(x not in s for x in outside)


def test_divides():
    s = from_generators([3, 7])
    assert s.divides(3, 10)
    assert not s.divides(3, 4)


def test_frobenius_and_conductor_relation():
    s = from_generators([7, 9, 11, 13])
    f = s.frobenius
    assert f not in s
    assert all(x in s for x in range(f + 1, f + 20))


def test_apery_set_wrt_multiplicity():
    s = from_generators([4, 7, 9])
    ap = s.apery_set(4)
    assert ap.elems == (0,) + s.apery


def test_apery_set_wrt_other_element():
    s = from_generators([3, 5, 7])
    ap = s.apery_set(5)
    assert len(ap.elems) == 5
    for i, w in enumerate(ap.elems):
        assert w % 5 == i and w in s and (w - 5) not in s


def test_apery_set_requires_element():
    s = from_generators([3, 5, 7])
    with pytest.raises(NotElement):
        s.apery_set(4)
    with pytest.raises(NotElement):
        s.apery_set(0)


def test_apery_set_shape_validation():
    with pytest.raises(ValueError):
        AperySet(3, (0, 2, 4))  # 2 not congruent to 1 mod 3


def test_is_subset_same_multiplicity():
    small = from_generators([5, 11, 13, 19])
    big = from_generators([5, 6, 13])
    assert small.is_subset(big)
    assert not big.is_subset(small)


def test_is_subset_different_multiplicity():
    s = from_generators([6, 7, 10])
    t = from_generators([2, 7])
    assert s.is_subset(t)
    assert s.is_subset(N)
    assert not N.is_subset(s)


def test_intersect_same_multiplicity_is_coordinatewise_max():
    a = from_generators([5, 6, 13])
    b = from_generators([5, 9, 11, 13])
    inter = a.intersect(b)
    assert inter.apery == tuple(max(x, y) for x, y in zip(a.apery, b.apery))
    assert inter.gap_set == a.gap_set | b.gap_set


def test_intersect_different_multiplicity():
    a = from_generators([2, 3])
    b = from_generators([3, 4])
    inter = a.intersect(b)
    # gaps(a) = {1}, gaps(b) = {1,2,5}: union is gaps(b), so b itself
    assert inter.gap_set == a.gap_set | b.gap_set
    assert inter == b


def test_intersect_all():
    comps = [from_generators(g) for g in ([2, 3], [3, 4], [4, 5, 6, 7])]
    inter = intersect_all(comps)
    assert all(inter.is_subset(c) for c in comps)
    with pytest.raises(ValueError):
        intersect_all([])


def test_elements_upto():
    s = from_generators([4, 5])
    assert s.elements_upto(12) == [0, 4, 5, 8, 9, 10, 12]


def test_gap_mask_matches_gaps():
    s = from_generators([5, 7, 11])
    assert s.gap_mask == sum(1 << x for x in s.gaps)


def test_repr_lists_minimal_generators():
    assert repr(from_generators([3, 5, 8])) == "<3,5>"


def test_hashable_and_equal_by_coordinates():
    """Equal semigroups built from gaps and from generators are equal and
    hash equal, to the hash of (m, apery), before and after the
    hash is cached, so they share one entry of the caches keyed on them."""
    a = from_generators([3, 5, 7])
    b = from_gaps([1, 2, 4])
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    for s in semigroups_up_to_genus(8):
        a = from_generators(s.generators)
        b = from_gaps(s.gaps)
        assert a == b, s
        assert hash(a) == hash(b) == hash((s.m, s.apery)) == hash(a) == hash(b), s
        if s.m > 1:
            assert classify(a) is classify(b), s


@settings(max_examples=60, deadline=None)
@given(st.sets(st.integers(min_value=2, max_value=40), min_size=1, max_size=5))
def test_generator_gap_round_trip(gens):
    from math import gcd
    from functools import reduce
    if reduce(gcd, gens) != 1:
        return
    s = from_generators(gens)
    assert from_gaps(s.gaps) == s
    # every stated generator is an element, and none is a sum of two elements
    for g in s.generators[1:] if s.m > 1 else ():
        assert g in s
        assert not any(x in s and (g - x) in s for x in range(1, g))
    # S is the monoid the inputs generate: every input is in S, and
    # membership up to F + m matches reachability by sums of inputs
    assert all(g in s for g in gens)
    top = s.frobenius + s.m
    reach = [True] + [False] * top
    for x in range(1, top + 1):
        reach[x] = any(g <= x and reach[x - g] for g in gens)
    assert [x in s for x in range(top + 1)] == reach


@settings(max_examples=40, deadline=None)
@given(st.sets(st.integers(min_value=2, max_value=30), min_size=2, max_size=4),
       st.sets(st.integers(min_value=2, max_value=30), min_size=2, max_size=4))
def test_intersection_membership_agrees_pointwise(g1, g2):
    from math import gcd
    from functools import reduce
    if reduce(gcd, g1) != 1 or reduce(gcd, g2) != 1:
        return
    a, b = from_generators(g1), from_generators(g2)
    inter = a.intersect(b)
    for x in range(70):
        assert (x in inter) == (x in a and x in b)
