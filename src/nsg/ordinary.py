"""Ordinary semigroups (gaps exactly 1..m-1) and their structured decompositions.

The irreducible components used are two one-parameter families indexed by
their Frobenius number F: the "tail" semigroup whose gaps are [1, F/2] u {F},
and its 2-adically pruned variant, which deletes from the tail semigroup the
elements congruent to 2^j mod 2^{j+1} (where 2^j exactly divides F) and is
again irreducible with the same Frobenius number and genus.

A family of decompositions D_0, D_1, ... of the ordinary semigroup trades
pruned components for tail components one special gap at a time; its lengths
sweep out an entire integer interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import core
from .classify import PSEUDOSYMMETRIC, SYMMETRIC, classify
from .core import NumericalSemigroup
from .decompose import (VALID_IRREDUNDANT, Decomposition, _atom_masks, _budget,
                        is_decomposition, minimum_cover)
from .errors import InternalAssertion, OutOfRange, UndefinedValue


@lru_cache(maxsize=None)
def H(m: int) -> NumericalSemigroup:
    """The ordinary semigroup: every non-negative integer except 1..m-1."""
    if m < 2:
        raise OutOfRange("ordinary semigroups start at multiplicity 2")
    return core.from_gaps(range(1, m))


@lru_cache(maxsize=None)
def T_irr(f: int) -> NumericalSemigroup:
    """Irreducible semigroup with gaps {1..floor(f/2)} u {f}.

    Symmetric for odd f, pseudosymmetric for even f.
    """
    if f < 1:
        raise OutOfRange("Frobenius number must be positive")
    t = core.from_gaps(set(range(1, f // 2 + 1)) | {f})
    kind = classify(t).kind
    want = SYMMETRIC if f % 2 else PSEUDOSYMMETRIC
    if t.frobenius != f or kind != want:
        raise InternalAssertion(f"tail semigroup broken at {f}: {kind}, F={t.frobenius}")
    return t


@dataclass(frozen=True)
class TwoAdicForm:
    """f = 2**j * (2k + 1); the unique split into 2-part and odd part."""

    f: int
    j: int
    k: int


def two_adic(f: int) -> TwoAdicForm:
    if f < 1:
        raise OutOfRange("need a positive integer")
    j = (f & -f).bit_length() - 1
    k = ((f >> j) - 1) // 2
    return TwoAdicForm(f, j, k)


@lru_cache(maxsize=None)
def I_irr(f: int) -> NumericalSemigroup:
    """The 2-adically pruned irreducible component with Frobenius f.

    Start from multiples of 2^{j+1} added to the tail semigroup, then remove
    2^j, 3*2^j, ..., f.  For odd f this is just the semigroup generated by
    2 and f + 2.  Postconditions verified here: Frobenius exactly f,
    symmetric iff j = 0 (else pseudosymmetric), and within (f/2, f] the
    elements are exactly the values not congruent to 2^j mod 2^{j+1}.
    """
    if f < 1:
        raise OutOfRange("Frobenius number must be positive")
    j = two_adic(f).j
    step = 1 << (j + 1)
    tail = T_irr(f)
    elems = set()
    for t in tail.elements_upto(f + 1):
        for a in range(0, f + 2 - t, step):
            elems.add(t + a)
    removed = set(range(1 << j, f + 1, step))
    elems -= removed
    gaps = set(range(1, f + 1)) - elems
    s = core.from_gaps(gaps)

    if s.frobenius != f:
        raise InternalAssertion(f"pruned component at {f} has Frobenius {s.frobenius}")
    kind = classify(s).kind
    want = SYMMETRIC if j == 0 else PSEUDOSYMMETRIC
    if kind != want:
        raise InternalAssertion(f"pruned component at {f} is {kind}, expected {want}")
    for x in range(f // 2 + 1, f + 1):
        if s.contains(x) != (x % step != 1 << j):
            raise InternalAssertion(f"pruned component at {f}: residue criterion fails at {x}")
    return s


def n_min(m: int) -> int:
    """Smallest length in the structured decomposition family of H(m):
    floor(log2((m-1)/3)) + 2, in exact integer arithmetic."""
    if m < 4:
        raise UndefinedValue("ordinary semigroups of multiplicity 2 and 3 are irreducible")
    return ((m - 1) // 3).bit_length() + 1


@dataclass(frozen=True)
class DFamily:
    """One member of the graded decomposition family of H(m)."""

    m: int
    ell: int
    components: tuple[NumericalSemigroup, ...]
    tags: tuple[tuple[str, int], ...]  # ("I", F) or ("T", g), aligned with components
    J_prime: frozenset[int]
    F_primes: dict  # j -> largest remaining special gap with 2-adic valuation j

    @property
    def length(self) -> int:
        return len(self.components)


def special_gaps_of_ordinary(m: int) -> list[int]:
    """SG(H_m) = integers in [m/2, m-1], descending."""
    return list(range(m - 1, (m + 1) // 2 - 1, -1))


@lru_cache(maxsize=None)
def D(m: int, ell: int) -> DFamily:
    """The ell-th decomposition of H(m): tail components for the ell largest
    special gaps, pruned components (one per remaining 2-adic valuation
    class) for the rest.  Verified irredundant on construction."""
    if m < 4:
        raise OutOfRange("family defined for multiplicity >= 4")
    sg = special_gaps_of_ordinary(m)
    if not 0 <= ell <= len(sg):
        raise OutOfRange(f"ell must lie in [0, {len(sg)}]")
    tail_gaps = sg[ell:]
    f_primes: dict[int, int] = {}
    for g in tail_gaps:
        j = two_adic(g).j
        if j not in f_primes:  # sg is descending, first hit is the max
            f_primes[j] = g
    comps: list[NumericalSemigroup] = []
    tags: list[tuple[str, int]] = []
    for j in sorted(f_primes, reverse=True):
        comps.append(I_irr(f_primes[j]))
        tags.append(("I", f_primes[j]))
    for g in sg[:ell]:
        comps.append(T_irr(g))
        tags.append(("T", g))
    fam = DFamily(m, ell, tuple(comps), tuple(tags),
                  frozenset(f_primes), dict(sorted(f_primes.items())))
    check = is_decomposition(H(m), fam.components)
    if check.verdict != VALID_IRREDUNDANT:
        raise InternalAssertion(f"D({m},{ell}) failed verification: {check.verdict}")
    return fam


def d_family_lengths(m: int) -> tuple[int, ...]:
    """Sorted set of lengths over the whole family; always the full integer
    interval from n_min(m) to floor(m/2)."""
    lengths = sorted({D(m, ell).length for ell in range(m // 2 + 1)})
    expected = list(range(n_min(m), m // 2 + 1))
    if lengths != expected:
        raise InternalAssertion(f"family lengths {lengths} != interval {expected} at m={m}")
    return tuple(lengths)


def min_ordinary_length(m: int, budget=None) -> tuple[int, Decomposition]:
    """True minimum decomposition length of H(m), by exact minimum cover of
    its special gaps over every irreducible oversemigroup.

    The atoms come from `_atom_masks`, as in `length_spectrum`: every
    irreducible semigroup with Frobenius number below m contains H(m), so
    they are all of its tables for F in 1..m-1 that miss a special gap; the
    miss sets are their gap sets clipped to [m/2, m-1].
    """
    b = _budget(budget)
    hm = H(m)
    sg_mask = core._mask_of(special_gaps_of_ordinary(m))
    atoms = _atom_masks(hm, sg_mask, b)
    size, idxs = minimum_cover(core._bits(sg_mask),
                               [core._bits(gm & sg_mask) for gm in atoms], b)
    comps = tuple(sorted((core._from_gap_mask(atoms[i]) for i in idxs),
                         key=NumericalSemigroup.sort_key))
    check = is_decomposition(hm, comps)
    if check.verdict != VALID_IRREDUNDANT:
        raise InternalAssertion(f"minimum cover witness for H({m}) failed: {check.verdict}")
    return size, Decomposition(comps)
