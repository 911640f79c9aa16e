"""Pseudo-Frobenius numbers, special gaps, and the irreducibility trichotomy.

Irreducibility is decided twice on every call: once from the genus/Frobenius
count and once from the divisibility order on the Apery set.  The two
criteria are provably equivalent, so a disagreement means the representation
is corrupted; we treat it as an internal bug rather than a soft failure.
Special gaps are decided twice too, by one kernel on masks,
`special_gap_mask`: as pseudo-Frobenius numbers x with 2x in S, and by
closure of S u {x}, both built as bitmasks in one pass over the m - 1
candidates x = a_i - m and compared as ints.  `special_gaps` is its
frozenset view.  S is irreducible exactly when SG(S) = {F(S)}, so a search
reads irreducibility off that mask; `classify` is the cross-check, and it
raises when a reducible S has fewer than two special gaps.
"""

from __future__ import annotations

from functools import lru_cache

from . import core
from .core import N, NumericalSemigroup, _Record
from .errors import FullSemigroup, InternalAssertion, NotSpecialGap

SYMMETRIC = "symmetric"
PSEUDOSYMMETRIC = "pseudosymmetric"
REDUCIBLE = "reducible"


class IrreducibilityReport(_Record):
    kind: str
    frobenius: int
    genus: int
    # pseudosymmetric: the index j with 2 a_j = max(Ap) + m.
    # reducible: a pair of strictly larger oversemigroups intersecting to S.
    witness: object

    def __init__(self, kind, frobenius, genus, witness=None):
        d = self.__dict__
        d["kind"] = kind
        d["frobenius"] = frobenius
        d["genus"] = genus
        d["witness"] = witness


@lru_cache(maxsize=None)
def pseudo_frobenius(s: NumericalSemigroup) -> frozenset[int]:
    """Gaps maximal under the divisibility order of s.

    Computed as (maximal Apery elements) - m: a_i is maximal iff no
    a_i + a_k = a_{i+k} (see `NumericalSemigroup._apery_sums`).  The
    cardinality is the type t(s) and never exceeds m - 1.
    """
    if s.m == 1:
        raise FullSemigroup("the full semigroup has no pseudo-Frobenius numbers")
    _, used = s._apery_sums
    return frozenset(a - s.m for i, a in enumerate(s.apery, start=1) if not used >> i & 1)


@lru_cache(maxsize=None)
def special_gap_mask(s: NumericalSemigroup) -> int:
    """The special gaps of s as a bitmask (bit x set iff x is one): the gaps
    x whose adjunction S u {x} is again additively closed.

    Equivalently the pseudo-Frobenius numbers x with 2x in S.  Both criteria
    are built as masks in one pass over the m - 1 candidates x = a_i - m
    (S u {x} needs x + m) and compared on every call.  a_i - m is
    pseudo-Frobenius iff i is in no Apery sum, read off
    `NumericalSemigroup._apery_sums` rather than through the cached
    `pseudo_frobenius`, so the kernel puts nothing in that cache.
    """
    if s.m == 1:
        raise FullSemigroup("the full semigroup has no special gaps")
    _, used = s._apery_sums
    gm, full = s.gap_mask, (1 << (s.frobenius + 1)) - 1
    by_pf = by_closure = 0
    for i, a in enumerate(s.apery, start=1):
        x = a - s.m  # a gap with x + m in S
        if not used >> i & 1 and s.contains(2 * x):
            by_pf |= 1 << x
        rest = gm & ~(1 << x)  # gaps of S u {x}
        # S is closed, so only sums involving x can land on a gap: one shift
        if not ((~rest & full) << x) & rest:
            by_closure |= 1 << x
    if by_pf != by_closure:
        raise InternalAssertion(f"special-gap criteria disagree on {s}: "
                                f"{list(core._bits(by_pf))} vs {list(core._bits(by_closure))}")
    return by_pf


@lru_cache(maxsize=None)
def special_gaps(s: NumericalSemigroup) -> frozenset[int]:
    """The special gaps of s: the `frozenset` view of `special_gap_mask`."""
    return frozenset(core._bits(special_gap_mask(s)))


def add_special_gap(s: NumericalSemigroup, x: int) -> NumericalSemigroup:
    """The semigroup S u {x}, defined exactly when x is a special gap."""
    if s.m == 1 or x not in special_gaps(s):
        raise NotSpecialGap(f"{x} is not a special gap of {s}")
    return core._from_gap_mask(s.gap_mask & ~(1 << x))


@lru_cache(maxsize=None)
def classify(s: NumericalSemigroup) -> IrreducibilityReport:
    """Symmetric / pseudosymmetric / reducible, with a witness.

    The full semigroup is classified symmetric by convention (F = -1, genus 0)
    so that every pipeline downstream is total.
    """
    if s.m == 1:
        return IrreducibilityReport(SYMMETRIC, -1, 0)
    f, g = s.frobenius, s.genus

    if f % 2 == 1 and g == (f + 1) // 2:
        by_genus = SYMMETRIC
    elif f % 2 == 0 and g == f // 2 + 1:
        by_genus = PSEUDOSYMMETRIC
    else:
        by_genus = REDUCIBLE

    # Second, independent criterion: position of the Apery maximum in the
    # divisibility order.
    ap = s.apery
    a_max = max(ap)
    below = [s.contains(a_max - a) for a in ap]
    psym_witness = None
    if all(below):
        by_poset = SYMMETRIC
    else:
        odd_out = [i for i, ok in enumerate(below) if not ok]
        j = odd_out[0]
        if len(odd_out) == 1 and 2 * ap[j] == a_max + s.m:
            by_poset = PSEUDOSYMMETRIC
            psym_witness = j + 1
        else:
            by_poset = REDUCIBLE

    if by_genus != by_poset:
        raise InternalAssertion(
            f"irreducibility criteria disagree on {s}: {by_genus} vs {by_poset}")

    if by_genus == PSEUDOSYMMETRIC:
        return IrreducibilityReport(PSEUDOSYMMETRIC, f, g, psym_witness)
    if by_genus == SYMMETRIC:
        return IrreducibilityReport(SYMMETRIC, f, g)

    sg = sorted(special_gaps(s))
    if len(sg) < 2:
        raise InternalAssertion(f"reducible {s} has fewer than two special gaps")
    # Adjoining two distinct special gaps gives strictly larger semigroups
    # whose gap sets still union to gaps(S); first pair in increasing order.
    t1 = add_special_gap(s, sg[0])
    t2 = add_special_gap(s, sg[1])
    if t1.gap_mask | t2.gap_mask != s.gap_mask:
        raise InternalAssertion(f"reducibility witness broken for {s}")
    return IrreducibilityReport(REDUCIBLE, f, g, (t1, t2))


def is_irreducible(s: NumericalSemigroup) -> bool:
    return classify(s).kind != REDUCIBLE
