"""Oversemigroups, irreducible components, and decomposition-length spectra.

Ground truth for "is this a decomposition" is always the direct intersection
(gap-set union).  The cover criteria -- coordinates where a component agrees
with S, and special gaps a component misses -- are computed alongside and
compared, never trusted alone.

Irreducible oversemigroups ("atoms") have one source, `_atom_masks`: every
irreducible T containing S has F(T) among the gaps of S, so the atoms are the
per-Frobenius irreducible tables for f in gaps(S), filtered by containment.
They stay gap *bitmasks* (bit x set iff x is a gap): the cover search, the
agreement-set sweep and `ordinary.min_ordinary_length` read miss sets and
agreement sets off them and build semigroups only for witnesses and
violations.  Both sweeps run through `_sweep`.  All enumerations are metered
by a node budget so runaway searches fail loudly and reproducibly.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache

from . import core
from .classify import is_irreducible, special_gaps
from .core import N, NumericalSemigroup, _bits, _mask_of
from .errors import BudgetExceeded, InternalAssertion, NotOversemigroup

DEFAULT_BUDGET = 5_000_000


class Budget:
    """Node counter; enumeration loops tick it and it raises when exhausted."""

    def __init__(self, limit: int = DEFAULT_BUDGET):
        self.limit = limit
        self.used = 0

    def tick(self, n: int = 1):
        self.used += n
        if self.used > self.limit:
            raise BudgetExceeded(self.used, self.limit)


def _budget(b) -> Budget:
    if isinstance(b, Budget):
        return b
    return Budget(DEFAULT_BUDGET if b is None else int(b))


# ---------------------------------------------------------------------------
# irreducibles with a fixed Frobenius number


@lru_cache(maxsize=None)
def _irreducible_gapmasks_with_frobenius(f: int) -> tuple[int, ...]:
    """Gap masks of every irreducible semigroup with Frobenius exactly f.

    Seeded at the gap set {1..floor(f/2)} u {f} and closed under the swap
    move: remove a minimal generator g with f/2 < g < f and insert f - g.
    The move preserves Frobenius number and genus, so closure of the
    complement is the only thing to re-check; genus floor(f/2)+1 with
    Frobenius f is exactly irreducibility.  The parent's complement is
    closed and g is not a sum of two of its nonzero elements, so only sums
    involving the inserted element f - g can land on a gap: one shift.
    """
    if f < 1:
        raise ValueError("Frobenius number must be positive")
    full = (1 << (f + 1)) - 1
    low_half = (1 << (f // 2 + 1)) - 1  # x with 2x <= f
    swappable = ((1 << f) - 1) & ~low_half  # g with f/2 < g < f
    seed = low_half & ~1 | (1 << f)
    seen = {seed}
    stack = [seed]
    while stack:
        gm = stack.pop()
        elems = ~gm & full & ~1
        # sums of two nonzero elements (elems * 2**x is elems shifted by x);
        # bits above f are never gaps
        sums = 0
        e = elems & low_half
        while e:
            low = e & -e
            sums |= elems * low
            e ^= low
        gens = elems & ~sums & swappable
        while gens:
            g_bit = gens & -gens
            gens ^= g_bit
            h = f - (g_bit.bit_length() - 1)
            cand = gm & ~(1 << h) | g_bit
            if cand not in seen and not ((elems ^ g_bit | 1 << h) << h) & cand:
                seen.add(cand)
                stack.append(cand)
    return tuple(sorted(seen))


def irreducibles_with_frobenius(f: int, budget=None) -> list[NumericalSemigroup]:
    """All irreducible numerical semigroups whose largest gap is exactly f."""
    b = _budget(budget)
    out = []
    for gm in _irreducible_gapmasks_with_frobenius(f):
        b.tick()
        out.append(core._from_gap_mask(gm))
    out.sort(key=NumericalSemigroup.sort_key)
    return out


# ---------------------------------------------------------------------------
# oversemigroups and cover atoms


def oversemigroups(s: NumericalSemigroup, budget=None) -> list[NumericalSemigroup]:
    """Every semigroup containing s, including s itself and the full semigroup.

    Recursion: adjoin one special gap at a time; every oversemigroup is
    reachable this way because for S strictly inside T, max(T \\ S) is a
    special gap of S lying in T.  The atom enumeration does not use this; the
    tests keep it as an independent oracle for the atoms.
    """
    b = _budget(budget)
    seen = {s.gap_mask: s}
    stack = [s]
    while stack:
        cur = stack.pop()
        b.tick()
        if cur.m == 1:
            continue
        for x in special_gaps(cur):
            g = cur.gap_mask & ~(1 << x)
            if g not in seen:
                bigger = core._from_gap_mask(g)
                seen[g] = bigger
                stack.append(bigger)
    return sorted(seen.values(), key=NumericalSemigroup.sort_key)


@dataclass(frozen=True)
class CoverAtom:
    """An irreducible oversemigroup T of S with the two cover views of it.

    miss: special gaps of S absent from T (nonempty, else T is unusable in
    any irredundant decomposition).  mset: Apery coordinates of S where T
    agrees, with respect to m(S).
    """

    T: NumericalSemigroup
    miss: frozenset[int]
    mset: frozenset[int]


def m_set(s: NumericalSemigroup, t: NumericalSemigroup) -> frozenset[int]:
    """Coordinates i in 1..m-1 with identical Apery minima in s and t (mod m(s))."""
    if not s.is_subset(t):
        raise NotOversemigroup(f"{t} does not contain {s}")
    if not t.contains(s.m):
        raise NotOversemigroup(f"{s.m} is not an element of {t}")
    bs = t.apery_set(s.m).elems
    return frozenset(i for i in range(1, s.m) if bs[i] == s.apery[i - 1])


def _agree_mask(s: NumericalSemigroup) -> int:
    """Bits a_i - m of s.  For T containing s, coordinate i is in m_set(s, T)
    iff bit a_i - m is set in T's gap mask: T holds m, so T's Apery minimum
    at i drops below a_i iff T holds a_i - m."""
    return _mask_of(a - s.m for a in s.apery)


def miss_set(s: NumericalSemigroup, t: NumericalSemigroup) -> frozenset[int]:
    """Special gaps of s that are gaps of t."""
    if not s.is_subset(t):
        raise NotOversemigroup(f"{t} does not contain {s}")
    return frozenset(x for x in special_gaps(s) if not t.contains(x))


def _atom_masks(s: NumericalSemigroup, sg_mask: int, b: Budget) -> list[int]:
    """Gap masks of the irreducible T containing s that miss a special gap.

    T contains s iff gaps(T) lie within gaps(s), so F(T) is a gap of s and T
    sits in the table for that Frobenius number.  F <= 2g - 1 bounds the
    tables by the genus.  The budget is ticked once per table entry scanned.
    """
    outside = ~s.gap_mask
    out = []
    for f in s.gaps:
        table = _irreducible_gapmasks_with_frobenius(f)
        b.tick(len(table))
        out.extend(gm for gm in table if not gm & outside and gm & sg_mask)
    return out


def irreducible_oversemigroups(s: NumericalSemigroup, budget=None) -> list[CoverAtom]:
    """All usable cover atoms: irreducible T containing s with nonempty miss set.

    The atoms are the per-Frobenius irreducible tables for f in gaps(s),
    filtered by containment (see `_atom_masks`), with mset read off the mask
    (see `_agree_mask`); the sweeps and `length_spectrum` use the masks alone.
    """
    b = _budget(budget)
    if s.m == 1:
        return []
    sg_mask = _mask_of(special_gaps(s))
    agree = _agree_mask(s)
    atoms = [CoverAtom(core._from_gap_mask(gm), frozenset(_bits(gm & sg_mask)),
                       frozenset(x % s.m for x in _bits(gm & agree)))
             for gm in _atom_masks(s, sg_mask, b)]
    atoms.sort(key=lambda a: a.T.sort_key())
    return atoms


# ---------------------------------------------------------------------------
# decomposition checking (the oracle)


@dataclass(frozen=True)
class Decomposition:
    components: tuple[NumericalSemigroup, ...]

    @property
    def length(self) -> int:
        return len(self.components)


VALID_IRREDUNDANT = "valid_irredundant"
VALID_REDUNDANT = "valid_redundant"
INVALID = "invalid"


@dataclass(frozen=True)
class DecompositionCheck:
    verdict: str
    reason: str | None
    intersection: NumericalSemigroup
    #: None when the cover criteria do not apply (components not all
    #: oversemigroups, or S is the full semigroup); otherwise whether the
    #: miss-cover criteria agreed with the direct intersection.  A False here
    #: is a reportable discrepancy, not silently resolved.
    criteria_agree: bool | None


def _others(masks: list[int]) -> list[int]:
    """For each i, the union of every mask but masks[i] (prefix | suffix)."""
    k = len(masks)
    suffix = [0] * (k + 1)
    for i in range(k - 1, -1, -1):
        suffix[i] = suffix[i + 1] | masks[i]
    out = []
    prefix = 0
    for i, mk in enumerate(masks):
        out.append(prefix | suffix[i + 1])
        prefix |= mk
    return out


def _cover_criteria(masks: list[int], sg_mask: int) -> tuple[bool, bool]:
    """The special-gap view of a decomposition, from component gap masks.

    Returns (every special gap is missed by some component, every component
    misses a special gap no other component misses).
    """
    misses = [mk & sg_mask for mk in masks]
    covered = 0
    for mi in misses:
        covered |= mi
    privates = all(mi & ~rest for mi, rest in zip(misses, _others(misses)))
    return covered == sg_mask, privates


def is_decomposition(s: NumericalSemigroup, components) -> DecompositionCheck:
    """Verdict on S = T_1 n ... n T_k, by direct intersection.

    Irredundancy is checked by recomputing the intersection with each
    component dropped.  The special-gap cover and private-gap criteria are
    evaluated as a cross-check and any disagreement is surfaced in
    `criteria_agree`.  All of it is linear in the number of components.
    """
    comps = tuple(components)
    if not comps:
        return DecompositionCheck(INVALID, "no components", N, None)
    for c in comps:
        if not is_irreducible(c):
            return DecompositionCheck(INVALID, f"component {c} is not irreducible",
                                      core.intersect_all(comps), None)
    inter = core.intersect_all(comps)
    valid = inter == s
    masks = [c.gap_mask for c in comps]
    target = s.gap_mask

    criteria_agree: bool | None = None
    if s.m != 1 and all(not mk & ~target for mk in masks):  # all oversemigroups
        cover_ok, cover_irr = _cover_criteria(masks, _mask_of(special_gaps(s)))
        criteria_agree = (cover_ok == valid)

    if not valid:
        return DecompositionCheck(INVALID, f"intersection is {inter}, not {s}",
                                  inter, criteria_agree)

    # irredundancy by dropping each component
    redundant = [i for i, rest in enumerate(_others(masks)) if rest == target]

    if criteria_agree is not None:
        # cross-check irredundancy through miss-set privates
        criteria_agree = criteria_agree and (cover_irr == (not redundant))

    if redundant:
        return DecompositionCheck(
            VALID_REDUNDANT, f"components {redundant} are redundant", inter, criteria_agree)
    return DecompositionCheck(VALID_IRREDUNDANT, None, inter, criteria_agree)


# ---------------------------------------------------------------------------
# length spectra via irredundant covers of the special-gap set


@dataclass(frozen=True)
class LengthSpectrum:
    lengths: tuple[int, ...]
    witnesses: dict[int, Decomposition] = field(compare=False)

    def is_interval(self) -> bool:
        lo, hi = self.lengths[0], self.lengths[-1]
        return self.lengths == tuple(range(lo, hi + 1))


def length_spectrum(s: NumericalSemigroup, budget=None) -> LengthSpectrum:
    """Every achievable irredundant decomposition length, with one witness each.

    Search runs over *distinct* miss sets: two components with identical miss
    sets are never jointly irredundant (dropping either leaves the special
    gaps covered), so deduplication loses no lengths.  An irredundant cover
    is one where every member keeps a private special gap.
    """
    b = _budget(budget)
    if s.m == 1 or is_irreducible(s):
        return LengthSpectrum((1,), {1: Decomposition((s,))})

    sg = special_gaps(s)
    full = _mask_of(sg)

    # atoms grouped by miss set, kept as the special-gap part of the gap mask
    by_miss: dict[int, list[int]] = {}
    for gm in _atom_masks(s, full, b):
        by_miss.setdefault(gm & full, []).append(gm)
    # canonical order: by smallest missed gap, then lexicographic on the set
    def canon(key):
        xs = tuple(_bits(key))
        return (xs[0], xs)
    sets = sorted(by_miss, key=canon)

    nsets = len(sets)
    suffix_union = [0] * (nsets + 1)
    for i in range(nsets - 1, -1, -1):
        suffix_union[i] = suffix_union[i + 1] | sets[i]

    found: dict[int, tuple[int, ...]] = {}

    def rec(start, chosen, privates, covered):
        b.tick()
        if covered == full:
            k = len(chosen)
            if k not in found:
                found[k] = tuple(chosen)
            return
        if (covered | suffix_union[start]) != full:
            return
        for j in range(start, nsets):
            sj = sets[j]
            if sj & ~covered == 0:
                continue  # nothing new: sj could never gain a private
            new_priv = [p & ~sj for p in privates]
            if any(p == 0 for p in new_priv):
                continue  # an earlier choice just lost its last private gap
            new_priv.append(sj & ~covered)
            chosen.append(j)
            rec(j + 1, chosen, new_priv, covered | sj)
            chosen.pop()

    rec(0, [], [], 0)

    if not found:
        raise InternalAssertion(f"no irredundant cover found for reducible {s}")
    lengths = tuple(sorted(found))
    if lengths[-1] > len(sg):
        raise InternalAssertion("spectrum exceeds special-gap count")

    # each miss set used by a witness is represented by its least atom, so
    # witnesses do not depend on the order the atoms were enumerated in
    rep = {j: min(map(core._from_gap_mask, by_miss[sets[j]]), key=NumericalSemigroup.sort_key)
           for j in set().union(*found.values())}
    witnesses = {}
    for k in lengths:
        comps = tuple(rep[j] for j in found[k])
        check = is_decomposition(s, comps)
        if check.verdict != VALID_IRREDUNDANT:
            raise InternalAssertion(
                f"witness of length {k} for {s} failed verification: {check.verdict}")
        witnesses[k] = Decomposition(comps)
    return LengthSpectrum(lengths, witnesses)


# ---------------------------------------------------------------------------
# exhaustive sweeps in Kunz coordinates


def kunz_semigroups(m: int, f_max: int, first: int | None = None):
    """All semigroups with multiplicity m and Frobenius number at most f_max.

    Coordinates a_i run over {m+i, 2m+i, ...} bounded by f_max + m, with the
    Apery inequalities checked incrementally as each coordinate is placed.
    `first` pins a_1, which is how sweeps shard across workers.
    """
    if m < 2:
        raise ValueError("multiplicity must be at least 2")
    hi = f_max + m
    a = [0] * m

    def place(i):
        if i == m:
            yield NumericalSemigroup(m, tuple(a[1:]))
            return
        choices = range(m + i, hi + 1, m) if not (i == 1 and first is not None) else [first]
        for v in choices:
            a[i] = v
            ok = True
            for j in range(1, i + 1):
                k = (i + j) % m
                if 1 <= k <= i and a[i] + a[j] < a[k]:
                    ok = False
                    break
            if ok:
                for j in range(1, i):
                    l = (i - j) % m
                    if 1 <= l < i and a[j] + a[l] < a[i]:
                        ok = False
                        break
            if ok:
                yield from place(i + 1)
        a[i] = 0

    yield from place(1)


def _shard(args):
    """Rows (apery, fn(s, budget)) for every s of one a_1 value, and the nodes used."""
    fn, m, f_max, first, limit = args
    b = Budget(limit)
    return [(s.apery, fn(s, b)) for s in kunz_semigroups(m, f_max, first=first)], b.used


def _sweep(fn, m: int, f_max: int, budget, threads: int) -> list[tuple]:
    """Apply fn to every semigroup of multiplicity m with F <= f_max.

    Shards split on a_1.  Each gets a fresh Budget with the full limit; the
    nodes they used are only added to `budget` afterwards.  At most
    min(threads, shards, CPUs) worker processes are started, none for one.
    Rows come back in a_1 order, as a serial run gives them.
    """
    b = _budget(budget)
    jobs = [(fn, m, f_max, a1, b.limit) for a1 in range(m + 1, f_max + m + 1, m)]
    workers = min(threads, len(jobs), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as ex:
            results = list(ex.map(_shard, jobs))
    else:
        results = [_shard(j) for j in jobs]
    rows = []
    for shard_rows, used in results:
        rows.extend(shard_rows)
        b.used += used
    return rows


@dataclass
class IntervalReport:
    m: int
    f_max: int
    total: int
    census: dict[tuple[int, ...], int]
    counterexamples: list[tuple[NumericalSemigroup, tuple[int, ...]]]


def _interval_row(s: NumericalSemigroup, b: Budget):
    spec = length_spectrum(s, b)
    return spec.lengths, spec.is_interval()


def check_interval(m: int, f_max: int, budget=None, threads: int = 1) -> IntervalReport:
    """Sweep every semigroup of multiplicity m with F <= f_max; report any
    non-interval length spectrum and the census of spectra observed."""
    rows = _sweep(_interval_row, m, f_max, budget, threads)
    census = Counter(ls for _, (ls, _) in rows)
    bad = sorted(((NumericalSemigroup(m, ap), ls) for ap, (ls, ok) in rows if not ok),
                 key=lambda p: p[0].sort_key())
    return IntervalReport(m, f_max, len(rows), dict(sorted(census.items())), bad)


@dataclass
class MsBoundReport:
    m: int
    f_max: int
    checked: int
    max_mset: int
    #: (apery of S, apery-or-gaps of T, #mset) for any violation; expected empty
    violations: list[tuple]


def _msbound_row(s: NumericalSemigroup, b: Budget):
    """None unless s has m - 1 special gaps; else (max #mset over its atoms,
    [(apery-or-gaps of T, #mset) for each atom with #mset > m/2])."""
    sg = special_gaps(s)
    if len(sg) != s.m - 1:
        return None
    agree = _agree_mask(s)
    max_mset = 0
    viol = []
    for gm in _atom_masks(s, _mask_of(sg), b):
        sz = (gm & agree).bit_count()
        max_mset = max(max_mset, sz)
        if 2 * sz > s.m:
            t = core._from_gap_mask(gm)
            viol.append((t.apery if t.m == s.m else tuple(t.gaps), sz))
    return max_mset, viol


def check_msbound(m: int, f_max: int, budget=None, threads: int = 1) -> MsBoundReport:
    """For every S with multiplicity m, F <= f_max and a full house of special
    gaps (#SG = m-1), assert #mset(T) <= m/2 over all irreducible T >= S."""
    rows = [(ap, r) for ap, r in _sweep(_msbound_row, m, f_max, budget, threads)
            if r is not None]
    max_mset = max((r[0] for _, r in rows), default=0)
    violations = sorted((ap, *v) for ap, r in rows for v in r[1])
    return MsBoundReport(m, f_max, len(rows), max_mset, violations)


# ---------------------------------------------------------------------------
# misc enumeration utilities


def semigroups_up_to_genus(gmax: int):
    """Yield every numerical semigroup of genus <= gmax, via the tree whose
    children remove one minimal generator exceeding the Frobenius number."""
    stack = [N]
    while stack:
        s = stack.pop()
        yield s
        if s.genus == gmax:
            continue
        f = s.frobenius
        for g in s.generators:
            if g > f:
                stack.append(core._from_gap_mask(s.gap_mask | 1 << g))


def minimum_cover(universe, subsets, budget=None):
    """Exact minimum set cover; returns (size, indices into `subsets`).

    Dominated sets (subsets of another) are discarded up front; the search
    branches on an uncovered element contained in the fewest sets, with
    iterative deepening on the cover size.
    """
    b = _budget(budget)
    uni = frozenset(universe)
    full = _mask_of(range(len(uni)))
    pos = {x: i for i, x in enumerate(sorted(uni))}
    masks = []
    for idx, sub in enumerate(subsets):
        mk = 0
        for x in sub:
            if x in pos:
                mk |= 1 << pos[x]
        masks.append((mk, idx))
    # keep only maximal masks
    masks.sort(key=lambda p: bin(p[0]).count("1"), reverse=True)
    kept: list[tuple[int, int]] = []
    for mk, idx in masks:
        if mk and not any(mk & ~km == 0 for km, _ in kept):
            kept.append((mk, idx))
    if not kept:
        raise ValueError("empty subsets cannot cover anything")

    by_elem = [[i for i, (mk, _) in enumerate(kept) if mk >> e & 1]
               for e in range(len(uni))]
    if any(not cand for cand in by_elem):
        raise ValueError("universe element not covered by any subset")

    def dfs(uncovered, depth_left, chosen):
        b.tick()
        if uncovered == 0:
            return list(chosen)
        if depth_left == 0:
            return None
        e = min(_bits(uncovered), key=lambda x: len(by_elem[x]))
        for i in by_elem[e]:
            chosen.append(i)
            got = dfs(uncovered & ~kept[i][0], depth_left - 1, chosen)
            if got is not None:
                return got
            chosen.pop()
        return None

    for k in range(1, len(uni) + 1):
        got = dfs(full, k, [])
        if got is not None:
            return k, [kept[i][1] for i in got]
    raise InternalAssertion("cover search exhausted without a cover")
