"""Oversemigroups, irreducible components, and decomposition-length spectra.

Gap masks (bit x set iff x is a gap) are the one working form.  Ground
truth for "is this a decomposition" is always the direct intersection, whose
gap mask is the union of the components' masks.  A component's private
gaps are `mask & ~shared`, where `shared`, the gaps two or more components
have, is the OR of each mask ANDed with the union of the masks before it;
the union and `shared` come from C-level passes (`reduce`, `accumulate`
and `map` over `or_` and `and_`).  The cover criteria -- special gaps a component misses, and
privately misses -- are computed separately and compared, never trusted
alone.

Irreducible oversemigroups ("atoms") have one source, `_atom_masks`: every
irreducible T containing S has F(T) among the gaps of S, so the atoms come
from one swap-move walk per gap f of S.  The walk starts at T0(S, f), S's
own irreducible closure: S's elements in [1, f/2], the gap f - e for each
of them, and every other x in (f/2, f) an element.  It turns into gaps only
gaps of S, so every node contains S, and reverse moves lead from any
irreducible T containing S with F(T) = f back to T0, so it reaches exactly
those T; `_atom_masks` checks the containment and raises when it fails.
Each T other than T0 has one parent, the T' its least low element outside
S is swapped out of, so the walk is a reverse-search tree: a node makes
only the moves that insert an element below its own least one (`least`),
each node is produced once, and no set of seen nodes is kept.
An atom misses a special gap x <= F(T) = f, so gaps f below S's least
special gap are not walked.  The walk is cached on f and the gaps of S
below f, and ticks the budget by w(f) = 1 + f*f // 2**14 per node, since
a node's shifts cost about f*f bit operations.  With no elements below f
it is the full table (`irreducibles_with_frobenius`), shared with the
walks of H(m).  The cover search, the agreement-set sweep and
`ordinary.min_ordinary_length` read miss sets and agreement sets off the
atom masks; semigroups are built only for witnesses, violations and
`irreducible_oversemigroups`, whose callers receive them; the atoms a
witness picks from are built once per process (`_ATOMS`).  Both sweeps
walk the Kunz stream once, in `_sweep`, and deal its Apery vectors out to
the workers, whose totals count against one budget.  All enumerations are
metered by a node budget so runaway searches fail loudly and reproducibly.
"""

from __future__ import annotations

import os
from collections import Counter
from functools import reduce
from itertools import accumulate, filterfalse, repeat
from operator import add, and_, or_, sub

from . import core
from .classify import is_irreducible, special_gap_mask, special_gaps
from .core import N, NumericalSemigroup, _bits, _mask_of, _Record
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
            self.used = self.limit + 1  # where single ticks stop, also for a bulk tick
            raise BudgetExceeded(self.used, self.limit)

    def reserve(self, n: int):
        """Tick n, and so raise BudgetExceeded, when n is more than the
        budget has left; tick nothing otherwise.  A request calls it with a
        lower bound on what it will tick before it builds anything that
        large."""
        if n > self.limit - self.used:
            self.tick(n)


def _budget(b) -> Budget:
    """`b` itself, or a fresh default Budget for None; anything else, such as
    a bare node limit, is a TypeError rather than a silent default."""
    if b is None:
        return Budget()
    if not isinstance(b, Budget):
        raise TypeError(f"budget must be a Budget or None, not {type(b).__name__}")
    return b


# ---------------------------------------------------------------------------
# irreducibles with a fixed Frobenius number


#: walk results by (f, gaps of S below f); see _irreducible_gapmasks_with_frobenius
_WALKS: dict[tuple[int, int], tuple[int, ...]] = {}
#: semigroups built from walk entries, by gap mask; see _atom
_ATOMS: dict[int, NumericalSemigroup] = {}
#: gap masks of components that is_decomposition has found irreducible
_IRREDUCIBLE: set[int] = set()


def _irreducible_gapmasks_with_frobenius(f: int, gaps: int = -1, budget=None) -> tuple[int, ...]:
    """Sorted gap masks of the irreducible T with Frobenius exactly f that
    contain the semigroup S whose gaps are the mask `gaps`, where f is a gap
    of S; by default (no elements below f), all of them.

    Seeded at T0: the gap set {1..floor(f/2)} u {f}, then for each element e
    of S in [1, f/2], e made an element and f - e a gap.  T0 keeps S's
    elements in [1, f/2] and has every other x in (f/2, f) as an element,
    so it is irreducible, has Frobenius f and contains S (a sum of elements
    of S landing on f - e would put f in S).  The walk closes T0 under the
    swap move: remove a minimal generator g with f/2 < g < f that is a gap
    of S and insert f - g.  The move preserves Frobenius number and genus,
    so closure of the complement is the only thing to re-check; genus
    floor(f/2)+1 with Frobenius f is exactly irreducibility.  The parent's
    complement is closed and g is not a sum of two of its nonzero elements,
    so only sums involving the inserted element f - g can land on a gap:
    one shift.

    A move only adds low elements and high gaps of S, so every node contains
    S.  Every irreducible T containing S with F(T) = f is reached: let E be
    T's elements in [1, f/2] that are not in S.  If E is nonempty, h = min E
    is a minimal generator of T, and T' = T minus h plus f - h is
    irreducible, contains S and has one element of E fewer; the move on
    g = f - h, a gap of S, takes T' to T.  By induction on |E| every such T
    is reached from T0 (Blanco and Rosales, Forum Math. 2013, for the full
    table).

    That T' is T's one parent, so the walk is a reverse search (Avis and
    Fukuda, Discrete Appl. Math. 1996) over the tree it spans.  Each stack
    entry carries `least`, min E of its node (floor(f/2) + 1 at T0, where E
    is empty), and a node expands only the moves whose inserted element
    h = f - g is below `least`: exactly the moves whose result has the node
    as its parent, and whose `least` is h.  So every node is produced once,
    and no set of seen nodes is kept.  The sum test runs only on those g,
    and stops once none of them is left.

    The result depends on f and the gaps of S in [1, f) alone, which is the
    cache key: the walks for all f < m of H(m) are the full tables and
    shared with `irreducibles_with_frobenius`.  A node makes up to f/2
    shifts of an f-bit mask, a cost that grows like f*f, so each node ticks
    the budget by the weight w(f) = 1 + f*f // 2**14 (1 for every f < 128)
    while walking, and a cache hit ticks w(f) times the size of the
    result: the same count and the same point of failure either way.  A
    walk the budget stops is not cached.
    """
    if f < 1:
        raise ValueError("Frobenius number must be positive")
    b = _budget(budget)
    below = gaps & ((1 << f) - 2)  # the gaps of S in [1, f)
    key = (f, below)
    w = 1 + (f * f >> 14)
    got = _WALKS.get(key)
    if got is not None:
        b.tick(w * len(got))
        return got
    elems_mask = (1 << (f + 1)) - 2  # [1, f]
    low_half = (1 << (f // 2 + 1)) - 1  # x with 2x <= f
    allowed = below & ~low_half  # movable g with f/2 < g < f
    seed = low_half & ~1 | (1 << f)
    for e in _bits(low_half & ~1 & ~below):  # elements of S in [1, f/2]
        seed ^= 1 << e | 1 << (f - e)
    nodes = []
    stack = [(seed, f // 2 + 1)]
    while stack:
        gm, least = stack.pop()
        b.tick(w)
        nodes.append(gm)
        elems = elems_mask & ~gm
        # the movable g whose move makes a child: h = f - g below `least`
        gens = elems & allowed & -(1 << (f - least + 1))
        # drop the sums of two nonzero elements (elems * 2**x is elems
        # shifted by x), until no candidate is left
        e = elems & low_half
        while e and gens:
            low = e & -e
            gens &= ~(elems * low)
            e ^= low
        while gens:
            g_bit = gens & -gens
            gens ^= g_bit
            h = f - (g_bit.bit_length() - 1)
            swap = g_bit | 1 << h  # g turns into a gap, h into an element
            cand = gm ^ swap
            if not ((elems ^ swap) << h) & cand:
                stack.append((cand, h))
    got = _WALKS[key] = tuple(sorted(nodes))
    return got


def irreducibles_with_frobenius(f: int, budget=None) -> list[NumericalSemigroup]:
    """All irreducible numerical semigroups whose largest gap is exactly f."""
    out = [core._from_gap_mask(gm)
           for gm in _irreducible_gapmasks_with_frobenius(f, budget=budget)]
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


def m_set(s: NumericalSemigroup, t: NumericalSemigroup) -> frozenset[int]:
    """Coordinates i in 1..m-1 with identical Apery minima in s and t (mod m(s))."""
    if not s.is_subset(t):
        raise NotOversemigroup(f"{t} does not contain {s}")
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
    """Gap masks of the irreducible T containing s that miss a special gap
    (a bit of `sg_mask`).

    T contains s iff gaps(T) lie within gaps(s), so F(T) is a gap f of s,
    and T is in the walk for (s, f), which starts at s's own irreducible
    closure T0(s, f) and reaches exactly the irreducible T containing s with
    F(T) = f (see `_irreducible_gapmasks_with_frobenius`).  A walk node with
    a gap outside gaps(s) contradicts that and raises InternalAssertion.
    The gaps of T are at most f, so T misses a special gap x only if x <= f:
    gaps f below the least special gap are not walked.  F <= 2g - 1 bounds
    the walks by the genus.  Each walk is sorted, so the atoms come in the
    order of the full per-Frobenius tables.  The budget is ticked by the
    walks' weighted node counts.
    """
    gaps = s.gap_mask
    outside = ~gaps
    out = []
    for f in _bits(gaps & -(sg_mask & -sg_mask)):
        for gm in _irreducible_gapmasks_with_frobenius(f, gaps, b):
            if gm & outside:
                raise InternalAssertion(
                    f"atom walk for F = {f} left the oversemigroups of {s}")
            if gm & sg_mask:
                out.append(gm)
    return out


def _atom(gm: int) -> NumericalSemigroup:
    """The semigroup with gap mask `gm`, a walk entry, built once per process."""
    t = _ATOMS.get(gm)
    if t is None:
        t = _ATOMS[gm] = core._from_gap_mask(gm)
    return t


def irreducible_oversemigroups(s: NumericalSemigroup, budget=None) -> list[NumericalSemigroup]:
    """The irreducible T containing s that miss a special gap of s (the only
    ones usable in an irredundant decomposition), sorted by `sort_key`.

    They are the swap-move walks for f in gaps(s), each seeded at s's own
    irreducible closure (see `_atom_masks`).  A caller reads miss sets and
    agreement sets off their gap masks: `gap_mask & sg_mask` and
    `gap_mask & _agree_mask(s)`, which are `miss_set` and, reduced mod m,
    `m_set`.
    """
    b = _budget(budget)
    if s.m == 1:
        return []
    atoms = map(core._from_gap_mask, _atom_masks(s, special_gap_mask(s), b))
    return sorted(atoms, key=NumericalSemigroup.sort_key)


# ---------------------------------------------------------------------------
# decomposition checking (the oracle)


class Decomposition(_Record):
    components: tuple[NumericalSemigroup, ...]

    def __init__(self, components):
        self.__dict__["components"] = components

    @property
    def length(self) -> int:
        return len(self.components)


VALID_IRREDUNDANT = "valid_irredundant"
VALID_REDUNDANT = "valid_redundant"
INVALID = "invalid"


class DecompositionCheck(_Record):
    verdict: str
    reason: str | None
    intersection: NumericalSemigroup

    def __init__(self, verdict, reason, intersection):
        d = self.__dict__
        d["verdict"] = verdict
        d["reason"] = reason
        d["intersection"] = intersection


def _cover_criteria(masks: list[int], shared: int, sg_mask: int) -> tuple[bool, bool]:
    """The special-gap view of a decomposition, from component gap masks and
    `shared`, the gaps two or more of them have.

    Returns (every special gap is missed by some component, every component
    misses a special gap no other component misses).
    """
    covered = reduce(or_, masks, 0) & sg_mask
    return covered == sg_mask, all(map(and_, masks, repeat(sg_mask & ~shared)))


def is_decomposition(s: NumericalSemigroup, components) -> DecompositionCheck:
    """Verdict on S = T_1 n ... n T_k, by direct intersection.

    The intersection's gap set is the union of the components' gap masks,
    and `shared`, the gaps two or more components have, is the OR of each
    mask ANDed with the union of the masks before it: C-level passes of
    `reduce`, `accumulate` and `map` over `or_` and `and_`.  Dropping T_i
    leaves the union unchanged iff T_i has no gap outside `shared`, which
    decides irredundancy; the redundant indices are listed only when some
    T_i has none.  The components are classified only when a gap mask is
    not yet in `_IRREDUCIBLE`, the masks of components found irreducible
    before, and the INVALID reason names the first reducible one.  A
    semigroup is built for the intersection only when it is not S.  The
    special-gap cover and private-gap criteria are a separate cross-check;
    a disagreement raises InternalAssertion.  All of it is linear in the
    number of components.
    """
    comps = tuple(components)
    if not comps:
        return DecompositionCheck(INVALID, "no components", N)
    masks = [c.gap_mask for c in comps]
    union = reduce(or_, masks)
    shared = reduce(or_, map(and_, masks, accumulate(masks, or_, initial=0)))
    target = s.gap_mask
    valid = union == target
    inter = s if valid else core._from_gap_mask(union)
    if not all(map(_IRREDUCIBLE.__contains__, masks)):
        bad = next(filterfalse(is_irreducible, comps), None)
        if bad is not None:
            return DecompositionCheck(INVALID, f"component {bad} is not irreducible", inter)
        _IRREDUCIBLE.update(masks)
    redundant = []
    if valid and not all(map(and_, masks, repeat(~shared))):
        redundant = [i for i, mk in enumerate(masks) if not mk & ~shared]

    if s.m != 1 and not union & ~target:  # all oversemigroups
        cover_ok, cover_irr = _cover_criteria(masks, shared, special_gap_mask(s))
        # validity through the miss cover, irredundancy through miss-set privates
        if cover_ok != valid or valid and cover_irr == bool(redundant):
            raise InternalAssertion(
                f"cover criteria disagree with the intersection on {s}: components "
                f"{', '.join(map(str, comps))}")

    if not valid:
        return DecompositionCheck(INVALID, f"intersection is {inter}, not {s}", inter)
    if redundant:
        return DecompositionCheck(VALID_REDUNDANT, f"components {redundant} are redundant", inter)
    return DecompositionCheck(VALID_IRREDUNDANT, None, inter)


# ---------------------------------------------------------------------------
# length spectra via irredundant covers of the special-gap set


class LengthSpectrum(_Record):
    lengths: tuple[int, ...]
    witnesses: dict[int, Decomposition]

    def __init__(self, lengths, witnesses):
        d = self.__dict__
        d["lengths"] = lengths
        d["witnesses"] = witnesses

    def _key(self) -> tuple:
        return (self.lengths,)  # a witness is one cover among many: not compared

    def is_interval(self) -> bool:
        lo, hi = self.lengths[0], self.lengths[-1]
        return self.lengths == tuple(range(lo, hi + 1))


def length_spectrum(s: NumericalSemigroup, budget=None) -> LengthSpectrum:
    """Every achievable irredundant decomposition length, with one witness each.

    Search runs over *distinct* miss sets: two components with identical miss
    sets are never jointly irredundant (dropping either leaves the special
    gaps covered), so deduplication loses no lengths.  An irredundant cover
    is one where every member keeps a private special gap.

    The search records the first cover of each length it meets.  Every set
    added must cover a new special gap, so a node with k sets chosen, u
    special gaps uncovered and r sets left to try reaches only lengths
    k + 1 .. k + min(u, r); when all of them have witnesses (one AND with
    `have`, the bitmask of lengths found) it is cut, which leaves the
    witnesses unchanged.

    SG(S) is read from `special_gap_mask` alone.  S is irreducible exactly
    when SG(S) = {F(S)}, so a mask with one bit (or the full semigroup) is
    the length-1 exit, with S as its own witness.  That witness is the one
    `is_decomposition` never re-verifies, so `is_irreducible` confirms the
    exit and a disagreement raises InternalAssertion.
    """
    b = _budget(budget)
    full = 0 if s.m == 1 else special_gap_mask(s)
    if full.bit_count() < 2:  # the full semigroup, or SG(S) = {F(S)}
        if not is_irreducible(s):
            raise InternalAssertion(f"{s} has one special gap but is reducible")
        return LengthSpectrum((1,), {1: Decomposition((s,))})

    # atoms grouped by miss set, kept as the special-gap part of the gap mask
    by_miss: dict[int, list[int]] = {}
    for gm in _atom_masks(s, full, b):
        by_miss.setdefault(gm & full, []).append(gm)
    # canonical order: lexicographic on the sorted miss set
    sets = sorted(by_miss, key=lambda key: tuple(_bits(key)))

    nsets = len(sets)
    suffix_union = [0] * (nsets + 1)
    for i in range(nsets - 1, -1, -1):
        suffix_union[i] = suffix_union[i + 1] | sets[i]

    found: dict[int, tuple[int, ...]] = {}  # length -> miss masks of its first cover
    have = 0  # bit k set iff found has length k

    def rec(start, chosen, covered, shared):
        nonlocal have
        b.tick()
        k = len(chosen)
        if covered == full:
            if k not in found:
                found[k] = tuple(chosen)
                have |= 1 << k
            return
        if (covered | suffix_union[start]) != full:
            return
        reach = min((full & ~covered).bit_count(), nsets - start)
        want = ((1 << reach) - 1) << (k + 1)  # lengths k + 1 .. k + reach
        if have & want == want:
            return  # every length this subtree can reach already has a witness
        for j in range(start, nsets):
            sj = sets[j]
            if sj & ~covered == 0:
                continue  # nothing new: sj could never gain a private
            now_shared = shared | covered & sj
            for sc in chosen:
                if not sc & ~now_shared:
                    break  # an earlier choice just lost its last private gap
            else:
                chosen.append(sj)
                rec(j + 1, chosen, covered | sj, now_shared)
                chosen.pop()

    rec(0, [], 0, 0)

    if not found:
        raise InternalAssertion(f"no irredundant cover found for reducible {s}")
    lengths = tuple(sorted(found))
    if lengths[-1] > full.bit_count():
        raise InternalAssertion("spectrum exceeds special-gap count")

    # each miss set used by a witness is represented by its least atom, so
    # witnesses do not depend on the order the atoms were enumerated in
    rep = {mk: min(map(_atom, by_miss[mk]), key=NumericalSemigroup.sort_key)
           for mk in set().union(*found.values())}
    witnesses = {}
    for k in lengths:
        comps = tuple(rep[mk] for mk in found[k])
        check = is_decomposition(s, comps)
        if check.verdict != VALID_IRREDUNDANT:
            raise InternalAssertion(
                f"witness of length {k} for {s} failed verification: {check.verdict}")
        witnesses[k] = Decomposition(comps)
    return LengthSpectrum(lengths, witnesses)


# ---------------------------------------------------------------------------
# exhaustive sweeps in Kunz coordinates


def kunz_semigroups(m: int, f_max: int):
    """All semigroups with multiplicity m and Frobenius number at most f_max.

    Coordinates a_i run over {m+i, 2m+i, ...} in ascending order, placed
    for i = 1, ..., m - 1 in turn.  The Apery inequalities a_i + a_j >=
    a_{i+j mod m} bound each coordinate by those placed before it:
    a_i >= a_{i+j-m} - a_j for m - i < j < i, 2 a_i >= a_{2i-m} when
    2i > m, a_i <= a_j + a_{i-j} for 0 < j < i, and m + i <= a_i <=
    f_max + m.  So each coordinate walks one residue class over an interval
    computed once, from an explicit stack of ranges, and `a` grows with
    the depth: no recursion.  F >= m - 1, so for m > f_max + 1 the stream
    is empty and nothing is walked.  The order is lexicographic in
    (a_1, ..., a_{m-1}), so it depends on (m, f_max) alone, and so does
    each worker's share of a sweep.
    """
    if m < 2:
        raise ValueError("multiplicity must be at least 2")
    if m > f_max + 1:
        return
    hi = f_max + m
    a = [0]  # a_0 = 0, then one coordinate per range on the stack
    stack = [iter(range(m + 1, hi + 1, m))]
    while stack:
        v = next(stack[-1], None)
        del a[len(stack):]
        if v is None:
            stack.pop()
            continue
        a.append(v)
        i = len(a)  # the next coordinate
        if i == m:
            yield NumericalSemigroup(m, tuple(a[1:]))
            continue
        lo = max(m + i, max(map(sub, a[1:], a[m - i + 1:]), default=0),
                 (a[2 * i - m] + 1) // 2 if 2 * i > m else 0)
        up = min(hi, *map(add, a[1:i // 2 + 1], reversed(a)))
        stack.append(iter(range(lo + (i - lo) % m, up + 1, m)))


def _shard(args):
    """Rows (apery, fn(s, budget)) for the given Apery vectors of
    multiplicity m, and the nodes the rows used.  The shard's Budget starts
    at `used`, the request's count after the walk, so a shard that runs out
    raises the request's own error."""
    fn, m, aperys, used, limit = args
    b = Budget(limit)
    b.used = used
    rows = [(ap, fn(NumericalSemigroup(m, ap), b)) for ap in aperys]
    return rows, b.used - used


def _sweep(fn, m: int, f_max: int, budget, threads: int) -> list[tuple]:
    """Apply fn to every semigroup of multiplicity m with F <= f_max.

    Every such semigroup has genus at least m - 1, and F >= m - 1, so when
    f_max >= m - 1 >= 1 the weight of one semigroup, 1 + (m - 1)*m // 64, is
    reserved first: a sweep that cannot pay for one semigroup stops before
    it walks.  For a larger m the stream is empty and nothing is ticked.
    `kunz_semigroups(m, f_max)` is walked once, here, and each semigroup
    ticks 1 + g*m // 64 (g its genus) as the walk reaches it: reaching it
    costs up to about m*m/2 comparisons, and a row does O(g*m) work (Apery
    sums, shifts of F-bit masks) before it ticks anything.  Worker w of
    N = min(threads, CPUs) takes the Apery vectors at walk positions w,
    w + N, ..., and the rows come back worker by worker (callers sort what
    they report); N = 1 runs in process, with no pool.  The nodes each
    worker's rows used are ticked into `budget` in worker order, so a
    sweep uses the same nodes, and stops with the same error, for every N.
    """
    b = _budget(budget)
    if 2 <= m <= f_max + 1:  # a smaller m is refused by the stream itself
        b.reserve(1 + ((m - 1) * m >> 6))
    aperys = []
    for s in kunz_semigroups(m, f_max):
        b.tick(1 + (s.genus * m >> 6))
        aperys.append(s.apery)
    n = max(1, min(threads, os.cpu_count() or 1))
    jobs = [(fn, m, aperys[w::n], b.used, b.limit) for w in range(n)]
    if n > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=n) as ex:
            results = list(ex.map(_shard, jobs))
    else:
        results = [_shard(j) for j in jobs]
    rows = []
    for shard_rows, used in results:
        rows += shard_rows
        b.tick(used)
    return rows


class IntervalReport(_Record):
    m: int
    f_max: int
    total: int
    census: dict[tuple[int, ...], int]
    counterexamples: list[tuple[NumericalSemigroup, tuple[int, ...]]]

    def __init__(self, m, f_max, total, census, counterexamples):
        d = self.__dict__
        d["m"] = m
        d["f_max"] = f_max
        d["total"] = total
        d["census"] = census
        d["counterexamples"] = counterexamples


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


class MsBoundReport(_Record):
    m: int
    f_max: int
    checked: int
    max_mset: int
    #: (apery of S, apery-or-gaps of T, #mset) for any violation; expected empty
    violations: list[tuple]

    def __init__(self, m, f_max, checked, max_mset, violations):
        d = self.__dict__
        d["m"] = m
        d["f_max"] = f_max
        d["checked"] = checked
        d["max_mset"] = max_mset
        d["violations"] = violations


def _msbound_row(s: NumericalSemigroup, b: Budget):
    """None unless s has m - 1 special gaps; else (max #mset over its atoms,
    [(apery-or-gaps of T, #mset) for each atom with #mset > m/2])."""
    sg_mask = special_gap_mask(s)
    if sg_mask.bit_count() != s.m - 1:
        return None
    agree = _agree_mask(s)
    max_mset = 0
    viol = []
    for gm in _atom_masks(s, sg_mask, b):
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


def minimum_cover(full: int, masks, budget=None):
    """Exact minimum set cover of the bits of `full` by `masks`; returns
    (size, indices into `masks`).  Bits outside `full` are ignored.

    Equal masks are merged (the first index wins) and dominated masks
    (subsets of another) discarded up front: taken by (-popcount, index), a
    mask is dominated iff the AND over its bits of the per-bit holder bitsets
    of kept masks is nonzero.  Each mask is first tested against the kept
    mask that dominated the last dominated one, which often holds it too
    and decides it without the AND.  The search branches on the uncovered bit
    contained in the fewest kept masks, ties to the lowest bit, with
    iterative deepening on the cover size.

    The last two levels make no child calls.  One set covers alone only if
    it equals `full`, which decides the round k = 1.  The kept masks holding
    every bit of a set are the AND of its bits' holder bitsets, and the
    lowest bit of that AND is the first mask a scan in kept order would
    meet.  So a node with two sets left tries each mask holding the
    branching bit in order, ANDs the holders of the uncovered bits it
    misses, fewest holders first, and stops at the first nonzero AND.  That
    holder AND with two sets left is the one cut; it removes only subtrees
    without a cover, so (size, indices) are the unbounded search's.  The
    budget is ticked once per node and once for the round k = 1; the nodes
    with two sets left are the leaves.
    """
    b = _budget(budget)
    first: dict[int, int] = {}
    for idx, mk in enumerate(masks):
        first.setdefault(mk & full, idx)
    # keep only maximal masks; holders[e] has bit i set iff kept[i] holds e.
    # `last` is the kept mask that dominated the previous dominated mask,
    # tried first; the empty mask is dominated by it, and by the holders'
    # AND (-1, with no bit to AND), so it is never kept.
    kept: list[tuple[int, int]] = []
    holders = dict.fromkeys(_bits(full), 0)
    last = 0
    # `first` is in index order and the sort is stable, so ties keep it
    for mk in sorted(first, key=int.bit_count, reverse=True):
        idx = first[mk]
        if not mk & ~last:
            continue
        common = -1
        for e in _bits(mk):
            common &= holders[e]
        if common:
            last = kept[(common & -common).bit_length() - 1][0]
        else:
            for e in _bits(mk):
                holders[e] |= 1 << len(kept)
            kept.append((mk, idx))
    if not kept:
        raise ValueError("empty subsets cannot cover anything")

    by_bit = {e: [p for p in kept if p[0] >> e & 1] for e in _bits(full)}
    if not all(by_bit.values()):
        raise ValueError("universe element not covered by any subset")
    order = sorted(by_bit, key=lambda e: len(by_bit[e]))  # stable: ties to the lowest bit

    def dfs(uncovered, depth_left, chosen):
        b.tick()
        if depth_left == 2:
            rest = [x for x in order if uncovered >> x & 1]
            # no first mask covers everything (see below), so each AND
            # runs over at least one bit
            for mk, idx in by_bit[rest[0]]:
                both = -1
                for x in rest:
                    if not mk >> x & 1:
                        both &= holders[x]
                        if not both:
                            break
                else:
                    return chosen + [idx, kept[(both & -both).bit_length() - 1][1]]
            return None
        e = next(e for e in order if uncovered >> e & 1)
        # no child covers everything: that cover would be smaller than k, and
        # the previous round, which is complete, would have found it
        for mk, idx in by_bit[e]:
            chosen.append(idx)
            got = dfs(uncovered & ~mk, depth_left - 1, chosen)
            if got is not None:
                return got
            chosen.pop()
        return None

    b.tick()  # round k = 1: only a mask equal to full covers on its own
    if full in first:
        return 1, [first[full]]
    for k in range(2, full.bit_count() + 1):
        got = dfs(full, k, [])
        if got is not None:
            return k, got
    raise InternalAssertion("cover search exhausted without a cover")
