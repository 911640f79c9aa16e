"""Controlled irreducible oversemigroups in multiplicities 4 and 6."""

import pytest

from nsg import (Decomposition, NotApplicable, SYMMETRIC, WrongMultiplicity,
                 classify, from_generators, is_decomposition, is_irreducible,
                 kunz_semigroups, length_spectrum, m4_cover, m6_covers,
                 m6_shorten, m_set, special_gaps, VALID_IRREDUNDANT)


def test_m4_cover_example():
    s = from_generators([4, 9, 11, 14])
    t = m4_cover(s)
    assert classify(t).kind == SYMMETRIC
    assert s.is_subset(t)
    assert {1, 3} <= m_set(s, t)


def test_m4_cover_wrong_multiplicity():
    with pytest.raises(WrongMultiplicity):
        m4_cover(from_generators([5, 6, 7]))


def test_m4_cover_sweep():
    # every multiplicity-4 semigroup in range gets a valid symmetric cover;
    # reducible ones therefore all decompose with length 2
    for s in kunz_semigroups(4, 30):
        t = m4_cover(s)
        if not is_irreducible(s):
            assert 2 in length_spectrum(s).lengths


def test_m6_covers_example():
    s = from_generators([6, 7, 9, 17])
    pair = m6_covers(s)
    assert {2, 5} <= m_set(s, pair.T)
    assert {1, 4} <= m_set(s, pair.T_prime)
    assert is_irreducible(pair.T) or pair.T == s
    assert is_irreducible(pair.T_prime) or pair.T_prime == s


def test_m6_covers_small_msets_with_many_special_gaps():
    hits = 0
    tags = set()
    for prefer_alt in (False, True):
        for s in kunz_semigroups(6, 26):
            pair = m6_covers(s, prefer_alt=prefer_alt)
            for ch in pair.choices.values():
                tags.add(ch["branch"])
                if ch.get("degenerate"):
                    tags.add("degenerate")
            sgn = len(special_gaps(s))
            if sgn < 4:
                continue
            for t in (pair.T, pair.T_prime):
                if t == s:
                    continue
                ms = m_set(s, t)
                assert len(ms) <= 3 and 3 not in ms and ms <= {1, 2, 4, 5}
            if sgn == 5:
                assert 2 in (len(m_set(s, pair.T)), len(m_set(s, pair.T_prime)))
                hits += 1
    assert hits > 0  # the sweep actually exercised the tight case
    # every branch of the construction ran, both tie choices and the
    # degenerate T = S among them (it occurs only below four special gaps)
    assert tags == {"halves", "max_feasible", "both_reducible", "first_reducible",
                    "fourth_reducible", "tie_default", "tie_alt", "degenerate"}


def test_m6_covers_wrong_multiplicity():
    with pytest.raises(WrongMultiplicity):
        m6_covers(from_generators([4, 5, 6]))


def test_m6_shorten_requires_valid_input():
    s = from_generators([6, 13, 14, 15, 16, 17])
    with pytest.raises(NotApplicable):
        m6_shorten(s, (from_generators([2, 3]),))
    spec = length_spectrum(s)
    with pytest.raises(NotApplicable):
        m6_shorten(s, spec.witnesses[3])  # length 3 is already short


def test_m6_shorten_five_to_four_and_four_to_three():
    shortened = {4: 0, 3: 0}
    for s in kunz_semigroups(6, 24):
        spec = length_spectrum(s)
        for k in (5, 4):
            if k not in spec.lengths:
                continue
            shorter = m6_shorten(s, spec.witnesses[k])
            assert shorter.length == k - 1
            assert is_decomposition(s, shorter.components).verdict == VALID_IRREDUNDANT
            shortened[k - 1] += 1
    assert shortened[4] > 0 and shortened[3] > 0


def test_m6_shorten_accepts_plain_tuples():
    s = from_generators([6, 7, 15, 16, 17])
    spec = length_spectrum(s)
    assert 4 in spec.lengths
    got = m6_shorten(s, tuple(spec.witnesses[4].components))
    assert isinstance(got, Decomposition) and got.length == 3
