"""Explicit irreducible oversemigroups in multiplicities 4 and 6.

Both constructions write down candidate Apery vectors for an oversemigroup T
and are proved correct on paper; here every claimed property (validity of the
Apery vector, containment, irreducibility class, the agreement coordinates)
is re-derived computationally after building T.  A failed postcondition is a
bug in the transcription, never a data error, hence InternalAssertion.
"""

from __future__ import annotations

from . import core
from .classify import PSEUDOSYMMETRIC, SYMMETRIC, classify, special_gaps
from .core import NumericalSemigroup, _Record
from .decompose import (VALID_IRREDUNDANT, Decomposition, irreducible_oversemigroups,
                        is_decomposition, m_set)
from .errors import InternalAssertion, NotApplicable, SearchFailed, WrongMultiplicity


def m4_cover(s: NumericalSemigroup) -> NumericalSemigroup:
    """A symmetric oversemigroup T of a multiplicity-4 semigroup with
    agreement coordinates containing {1, 3}.

    With Ap(S;4) = {0, a1, a2, a3}, replace a2 by |a3 - a1|; the result is
    the Apery set of a symmetric semigroup containing S.  Consequently every
    reducible multiplicity-4 semigroup has a length-2 decomposition.
    """
    if s.m != 4:
        raise WrongMultiplicity(f"need multiplicity 4, got {s.m}")
    a1, a2, a3 = s.apery
    b2 = abs(a3 - a1)
    t = core.from_generators({4, a1, b2, a3})

    if t.apery_set(4).elems != (0, a1, b2, a3):
        raise InternalAssertion(f"m4 construction: Apery set of {t} is not (0,{a1},{b2},{a3})")
    if not s.is_subset(t):
        raise InternalAssertion(f"m4 construction: {t} does not contain {s}")
    if classify(t).kind != SYMMETRIC:
        raise InternalAssertion(f"m4 construction: {t} is not symmetric")
    if not {1, 3} <= m_set(s, t):
        raise InternalAssertion(f"m4 construction: agreement set {sorted(m_set(s, t))} misses 1 or 3")
    return t


class M6CoverPair(_Record):
    """The two controlled irreducible oversemigroups of a multiplicity-6
    semigroup: 2, 5 agree on T and 1, 4 agree on T_prime."""

    T: NumericalSemigroup
    T_prime: NumericalSemigroup
    sg_count: int
    choices: dict  # which construction case and branch fired, per semigroup

    def __init__(self, T, T_prime, sg_count, choices):
        d = self.__dict__
        d["T"] = T
        d["T_prime"] = T_prime
        d["sg_count"] = sg_count
        d["choices"] = choices


def _m6_build(s: NumericalSemigroup, swap: bool, prefer_alt: bool):
    """One half of the multiplicity-6 construction.

    swap=False keeps the Apery values at residues 2 and 5 (so they land in
    the agreement set); swap=True runs the same construction through the
    residue automorphism i -> 6 - i, keeping residues 4 and 1 instead.
    """
    sig = (lambda i: i) if not swap else (lambda i: 6 - i)
    a = {i: s.apery[i - 1] for i in range(1, 6)}
    u = {i: a[sig(i)] for i in range(1, 6)}
    sg = special_gaps(s)
    sgn = len(sg)
    choices = {"swap": swap}

    if u[2] == u[5]:
        raise InternalAssertion("Apery values in distinct residue classes cannot be equal")

    if u[2] > u[5]:
        # replace residues 1, 3, 4: the two halves of u2 (and u2 + 6) fill
        # residues sig(1), sig(4); their difference fills sig(3)
        v3 = u[2] - u[5]
        half = u[2] // 2
        if half % 6 == sig(1) % 6:
            v1, v4 = half, half + 3
        else:
            v1, v4 = half + 3, half
        choices["case"] = "kept_pair_larger"
        choices["branch"] = "halves"
        expected_kind = PSEUDOSYMMETRIC
    else:
        v3 = u[5] - u[2]
        r1 = sig(1) % 6
        lo = max(u[2] // 2, u[5] - u[4])
        hi = min(u[1], u[5] - u[2] // 2)
        feasible = lambda v: lo <= v <= hi and v % 6 == r1

        cands: list[tuple[int, str]] = []
        if sgn >= 4:
            c1 = (u[1] - 6) in sg
            c4 = (u[4] - 6) in sg
            if c1 and c4 and u[1] + u[4] >= u[5] + 12:
                cands.append((u[1] - 6, "both_reducible"))
            if c1 and c4 and u[1] + u[4] == u[5] + 6:
                if prefer_alt:
                    cands.append((u[5] - u[4] + 6, "tie_alt"))
                else:
                    cands.append((u[1] - 6, "tie_default"))
            if c1 and not c4:
                cands.append((u[1] - 6, "first_reducible"))
            if c4 and not c1:
                cands.append((u[5] - u[4] + 6, "fourth_reducible"))
        if hi >= lo:
            top = hi - ((hi - r1) % 6)
            if top >= lo:
                cands.append((top, "max_feasible"))
        for v, tag in cands:
            if feasible(v):
                v1 = v
                choices["branch"] = tag
                break
        else:
            raise InternalAssertion(f"m6 construction: no feasible choice for {s}")
        v4 = u[5] - v1
        choices["case"] = "kept_pair_smaller"
        expected_kind = SYMMETRIC

    t = core.from_generators({6, v1, u[2], v3, v4, u[5]})

    expected = {0: 0, sig(1) % 6: v1, sig(2) % 6: u[2], 3: v3, sig(4) % 6: v4, sig(5) % 6: u[5]}
    got = t.apery_set(6).elems
    if tuple(expected[i] for i in range(6)) != got:
        raise InternalAssertion(f"m6 construction: Apery set {got} differs from plan {expected}")
    if not s.is_subset(t):
        raise InternalAssertion(f"m6 construction: {t} does not contain {s}")
    if t == s:
        # degenerate but legal: all postconditions hold trivially
        choices["degenerate"] = True
    elif classify(t).kind != expected_kind:
        raise InternalAssertion(f"m6 construction: {t} is {classify(t).kind}, expected {expected_kind}")
    return t, choices


def m6_covers(s: NumericalSemigroup, prefer_alt: bool = False) -> M6CoverPair:
    """The controlled pair (T, T') for multiplicity 6.

    Guarantees, all verified here: {2,5} within mset(T) and {1,4} within
    mset(T'); when #SG(S) >= 4 additionally #mset <= 3 on both, neither
    contains 3, and both msets stay inside {1,2,4,5}; when #SG(S) = 5 at
    least one of the two msets has exactly 2 elements.

    prefer_alt flips the branch taken in the one genuinely ambiguous subcase
    (both shifted Apery values are special gaps and they tie).
    """
    if s.m != 6:
        raise WrongMultiplicity(f"need multiplicity 6, got {s.m}")
    t, ch = _m6_build(s, swap=False, prefer_alt=prefer_alt)
    tp, chp = _m6_build(s, swap=True, prefer_alt=prefer_alt)
    sgn = len(special_gaps(s))
    mt = m_set(s, t)
    mtp = m_set(s, tp)

    if not {2, 5} <= mt:
        raise InternalAssertion(f"mset(T) = {sorted(mt)} misses 2 or 5 for {s}")
    if not {1, 4} <= mtp:
        raise InternalAssertion(f"mset(T') = {sorted(mtp)} misses 1 or 4 for {s}")
    if sgn >= 4 and (t != s and tp != s):
        if len(mt) > 3 or len(mtp) > 3 or 3 in mt or 3 in mtp or not (mt | mtp) <= {1, 2, 4, 5}:
            raise InternalAssertion(
                f"m6 part-b postcondition failed for {s}: {sorted(mt)}, {sorted(mtp)}")
        if sgn == 5 and len(mt) != 2 and len(mtp) != 2:
            raise InternalAssertion(
                f"m6 part-c postcondition failed for {s}: {sorted(mt)}, {sorted(mtp)}")
    return M6CoverPair(t, tp, sgn, {"T": ch, "T_prime": chp})


def m6_shorten(s: NumericalSemigroup, decomposition) -> Decomposition:
    """Shrink a length-5 (or length-4) irredundant decomposition of a
    multiplicity-6 semigroup by exactly one component.

    Length 5 -> 4: swap in T or T' for the two components it replaces.
    Length 4 -> 3: T n T' n U where U is any atom agreeing at coordinate 3
    with at most one other agreement coordinate.
    """
    if s.m != 6:
        raise WrongMultiplicity(f"need multiplicity 6, got {s.m}")
    comps = decomposition.components if isinstance(decomposition, Decomposition) \
        else tuple(decomposition)
    check = is_decomposition(s, comps)
    if check.verdict != VALID_IRREDUNDANT or len(comps) not in (4, 5):
        raise NotApplicable(
            f"need a valid irredundant decomposition of length 4 or 5; got "
            f"{check.verdict} of length {len(comps)}")

    from itertools import combinations

    if len(comps) == 5:
        pair = m6_covers(s)
        for t in (pair.T, pair.T_prime):
            for sub in combinations(comps, 3):
                if t in sub:
                    continue
                cand = (t,) + sub
                if is_decomposition(s, cand).verdict == VALID_IRREDUNDANT:
                    return Decomposition(cand)
        raise SearchFailed(f"no length-4 substitute found for {s}; this contradicts theory")

    atoms = [t for t in irreducible_oversemigroups(s)
             if 3 in (ms := m_set(s, t)) and len(ms) <= 2]
    if not atoms:
        raise SearchFailed(
            f"no irreducible oversemigroup of {s} agrees at 3 with #mset <= 2")
    for prefer_alt in (False, True):
        pair = m6_covers(s, prefer_alt=prefer_alt)
        for atom in atoms:
            cand = (pair.T, pair.T_prime, atom)
            if len(set(cand)) < 3:
                continue
            if is_decomposition(s, cand).verdict == VALID_IRREDUNDANT:
                return Decomposition(cand)
    raise SearchFailed(f"no length-3 assembly found for {s}; this contradicts theory")
