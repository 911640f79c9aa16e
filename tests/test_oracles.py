"""Cross-checks against independent brute-force implementations.

Everything here recomputes results from first principles -- subsets of gap
sets, literal intersection of element sets, the mirror characterization of
symmetry -- and compares them with the optimized library code.  Slow but
exhaustive over small ranges.
"""

import random
from collections import Counter
from itertools import chain, combinations
from math import gcd

import pytest

from nsg import (Budget, NotClosed, NotElement, NotSpecialGap, add_special_gap,
                 classify, from_gaps, from_generators,
                 intersect_all, irreducible_oversemigroups, irreducibles_with_frobenius,
                 is_decomposition, is_irreducible, kunz_semigroups,
                 length_spectrum, minimum_cover,
                 pseudo_frobenius, semigroups_up_to_genus, special_gaps, N,
                 PSEUDOSYMMETRIC, REDUCIBLE, SYMMETRIC, VALID_IRREDUNDANT,
                 VALID_REDUNDANT)
from nsg import decompose
from nsg.classify import special_gap_mask
from nsg.core import NumericalSemigroup, _bits, _closure_witness, _from_gap_mask, _mask_of
from nsg.decompose import (_atom_masks, _cover_criteria,
                           _irreducible_gapmasks_with_frobenius, oversemigroups)
from nsg.ordinary import H, I_irr, T_irr


# ----- brute-force primitives ------------------------------------------------


def ref_apery_of_gap_mask(gap_mask):
    """(m, Apery vector) of a valid nonempty gap mask, one residue at a time:
    a_i is the first non-gap among i, i + m, i + 2m, ..."""
    t = gap_mask | 1
    m = (~t & (t + 1)).bit_length() - 1
    apery = []
    for i in range(1, m):
        x = i
        while gap_mask >> x & 1:
            x += m
        apery.append(x)
    return m, tuple(apery)


def ref_apery_set(s, n):
    """Ap(S; n) by scanning 1, 2, ... with one `contains` call per integer
    until every residue mod n has its least element."""
    mins = [None] * n
    mins[0] = 0
    found = x = 0
    while found < n - 1:
        x += 1
        if mins[x % n] is None and s.contains(x):
            mins[x % n] = x
            found += 1
    return tuple(mins)


def ref_gaps(s):
    """Gaps by one `contains` call per integer up to F."""
    return tuple(x for x in range(1, s.frobenius + 1) if not s.contains(x))


def bf_closed(gaps):
    """Is the complement of this gap set closed under addition?"""
    if not gaps:
        return True
    top = max(gaps)
    comp = [x for x in range(1, top + 1) if x not in gaps]
    for i, x in enumerate(comp):
        for y in comp[i:]:
            if x + y > top:
                break
            if x + y in gaps:
                return False
    return True


def bf_closure_witness(gaps):
    """Least pair (x, y), x <= y, of nonzero non-gaps with x + y a gap, by
    scanning the complement in increasing order; None when closed."""
    if not gaps:
        return None
    top = max(gaps)
    comp = [x for x in range(1, top + 1) if x not in gaps]
    for i, x in enumerate(comp):
        for y in comp[i:]:
            if x + y > top:
                break
            if x + y in gaps:
                return x, y
    return None


def bf_kind(gaps):
    """Classification by the mirror property of the gap set."""
    if not gaps:
        return SYMMETRIC
    f = max(gaps)
    if f % 2 == 1:
        if all(((x in gaps) != (f - x in gaps)) for x in range(1, f)):
            return SYMMETRIC
        return REDUCIBLE
    half = f // 2
    if half in gaps and all(
            x == half or ((x in gaps) != (f - x in gaps)) for x in range(1, f)):
        return PSEUDOSYMMETRIC
    return REDUCIBLE


def bf_oversemigroups(s):
    """All closed subsets of the gap set."""
    gaps = sorted(s.gap_set)
    out = []
    for r in range(len(gaps) + 1):
        for sub in combinations(gaps, r):
            if bf_closed(set(sub)):
                out.append(frozenset(sub))
    return out


def bf_irreducibles_with_frobenius(f):
    """All irreducible gap sets with maximum exactly f, by subset scan."""
    out = []
    for r in range(f):
        for sub in combinations(range(1, f), r):
            g = set(sub) | {f}
            if bf_closed(g) and bf_kind(g) != REDUCIBLE:
                out.append(frozenset(g))
    return out


def bf_spectrum(s, atoms):
    """All irredundant decomposition lengths by scanning subsets of atoms.

    An atom subset works when the union of gap sets is exactly gaps(S) and no
    member can be dropped without losing a gap.
    """
    target = s.gap_set
    lengths = set()
    max_k = len(special_gaps(s))
    masks = [a.gap_set for a in atoms]
    for k in range(1, max_k + 1):
        if k in lengths:
            continue
        for sub in combinations(range(len(masks)), k):
            union = frozenset()
            for i in sub:
                union |= masks[i]
            if union != target:
                continue
            irredundant = True
            for skip in sub:
                u = frozenset()
                for i in sub:
                    if i != skip:
                        u |= masks[i]
                if u == target:
                    irredundant = False
                    break
            if irredundant:
                lengths.add(k)
                break
    return tuple(sorted(lengths))


def bf_swap_tree(f):
    """Irreducible gap masks with Frobenius f by the swap-move search, with
    the whole complement re-checked for closure after every move."""
    full = (1 << (f + 1)) - 1
    seed = _mask_of(range(1, f // 2 + 1)) | (1 << f)
    seen = {seed}
    stack = [seed]
    while stack:
        gm = stack.pop()
        elems = [x for x in range(1, f + 1) if not gm >> x & 1]
        sums = {x + y for x in elems for y in elems}
        for g in elems:
            if 2 * g <= f or g >= f or g in sums:
                continue
            cand = (gm & ~(1 << (f - g))) | (1 << g)
            if cand not in seen and _closure_witness(cand, f) is None:
                assert cand & ~full == 0
                seen.add(cand)
                stack.append(cand)
    return seen


def ref_swap_walk(f, gaps):
    """Sorted gap masks of the walk for (S, f), where `gaps` holds the gaps
    of S, as a graph search from T0(S, f) over every swap move, with a set
    of the nodes seen: the walk before it became a reverse search."""
    full = (1 << (f + 1)) - 1
    low_half = (1 << (f // 2 + 1)) - 1
    below = gaps & ((1 << f) - 2)
    allowed = below & ~low_half
    seed = low_half & ~1 | (1 << f)
    for e in _bits(low_half & ~1 & ~below):
        seed ^= 1 << e | 1 << (f - e)
    seen = {seed}
    stack = [seed]
    while stack:
        gm = stack.pop()
        elems = ~gm & full & ~1
        sums = 0
        for x in _bits(elems & low_half):
            sums |= elems << x
        for g in _bits(elems & ~sums & allowed):
            h = f - g
            cand = gm & ~(1 << h) | 1 << g
            if cand not in seen and not ((elems ^ 1 << g | 1 << h) << h) & cand:
                seen.add(cand)
                stack.append(cand)
    return tuple(sorted(seen))


def bf_atoms(s):
    """Irreducible oversemigroups missing a special gap, by full recursion."""
    sg = special_gaps(s)
    return {t.gap_set for t in oversemigroups(s)
            if t.m != 1 and is_irreducible(t) and t.gap_set & sg}


def bf_special_gaps(s):
    """Gaps x with gaps(S) minus {x} closed, by one from_gaps call per gap."""
    out = set()
    for x in s.gaps:
        try:
            from_gaps(s.gap_set - {x})
        except NotClosed:
            continue
        out.add(x)
    return out


def bf_generators(s):
    """Nonzero elements that are not a sum of two nonzero elements; none
    exceeds the largest Apery element."""
    elems = [x for x in range(1, max(s.apery) + 1) if s.contains(x)]
    return {x for x in elems if not any(s.contains(x - y) for y in elems if 2 * y <= x)}


def bf_pseudo_frobenius(s):
    """Gaps x with x + y in S for every nonzero element y <= F."""
    nonzero = [y for y in range(1, s.frobenius + 1) if s.contains(y)]
    return {x for x in s.gaps if all(s.contains(x + y) for y in nonzero)}


def ref_apery_sums(s):
    """`_apery_sums` by every pair j <= k of residues, with no bound at
    max(apery) and no ordering of the rows."""
    a = (0,) + s.apery
    m = s.m
    sums, used = set(), set()
    for j in range(1, m):
        for k in range(j, m):
            i = (j + k) % m
            if i and a[j] + a[k] == a[i]:
                sums.add(i)
                used.add(j)
                used.add(k)
    return _mask_of(sums), _mask_of(used)


def bf_minimum_cover_size(full, masks):
    """Smallest k such that some k of the masks cover every bit of full, by
    trying every k-subset in turn; None when even all of them do not."""
    for k in range(1, len(masks) + 1):
        for sub in combinations(masks, k):
            union = 0
            for mk in sub:
                union |= mk
            if union & full == full:
                return k
    return None


def ref_minimum_cover(full, masks):
    """The cover search without its bounds: the same merging, dominance
    filter and branching order, but every node branches down to depth 0.
    Returns the (size, indices) the bounded search must reproduce."""
    first = {}
    for idx, mk in enumerate(masks):
        first.setdefault(mk & full, idx)
    kept = []
    for mk, idx in sorted(first.items(), key=lambda p: (-p[0].bit_count(), p[1])):
        if mk and not any(mk & ~km == 0 for km, _ in kept):
            kept.append((mk, idx))
    by_bit = {e: [p for p in kept if p[0] >> e & 1]
              for e in range(full.bit_length()) if full >> e & 1}
    order = sorted(by_bit, key=lambda e: len(by_bit[e]))

    def dfs(uncovered, depth_left, chosen):
        if uncovered == 0:
            return list(chosen)
        if depth_left == 0:
            return None
        e = next(e for e in order if uncovered >> e & 1)
        for mk, idx in by_bit[e]:
            chosen.append(idx)
            got = dfs(uncovered & ~mk, depth_left - 1, chosen)
            if got is not None:
                return got
            chosen.pop()
        return None

    for k in range(1, full.bit_count() + 1):
        got = dfs(full, k, [])
        if got is not None:
            return k, got
    return None


def ref_spectrum_witnesses(s):
    """{length: witness generators} from the irredundant-cover search
    without its length-range cut: every node whose suffix can still cover
    is expanded, and each length keeps the first cover met."""
    sg_mask = _mask_of(special_gaps(s))
    by_miss = {}
    for t in irreducible_oversemigroups(s, Budget(50_000_000)):
        by_miss.setdefault(t.gap_mask & sg_mask, []).append(t)
    sets = sorted(by_miss, key=lambda key: (min(_bits(key)), tuple(_bits(key))))
    nsets = len(sets)
    suffix_union = [0] * (nsets + 1)
    for i in range(nsets - 1, -1, -1):
        suffix_union[i] = suffix_union[i + 1] | sets[i]
    found = {}

    def rec(start, chosen, privates, covered):
        if covered == sg_mask:
            found.setdefault(len(chosen), tuple(chosen))
            return
        if (covered | suffix_union[start]) != sg_mask:
            return
        for j in range(start, nsets):
            sj = sets[j]
            if sj & ~covered == 0:
                continue
            new_priv = [p & ~sj for p in privates]
            if any(p == 0 for p in new_priv):
                continue
            new_priv.append(sj & ~covered)
            chosen.append(j)
            rec(j + 1, chosen, new_priv, covered | sj)
            chosen.pop()

    rec(0, [], [], 0)
    return {k: [min(by_miss[sets[j]], key=lambda t: t.sort_key()).generators for j in found[k]]
            for k in sorted(found)}


def ref_kunz_semigroups(m, f_max):
    """The Kunz-coordinate enumeration as one recursive call per coordinate,
    each candidate a_i tried against every Apery inequality with the
    coordinates placed before it."""
    if m < 2:
        raise ValueError("multiplicity must be at least 2")
    hi = f_max + m
    a = [0] * m

    def place(i):
        if i == m:
            yield NumericalSemigroup(m, tuple(a[1:]))
            return
        for v in range(m + i, hi + 1, m):
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


def ref_I_irr_gaps(f):
    """Gap set of the pruned component I(f), built from element sets: every
    element of the tail semigroup T(f) plus multiples of 2^{j+1}, with
    2^j, 3*2^j, ..., f removed."""
    step = 1 << ((f & -f).bit_length())  # 2^{j+1}, 2^j exactly dividing f
    elems = set()
    for t in T_irr(f).elements_upto(f + 1):
        for a in range(0, f + 2 - t, step):
            elems.add(t + a)
    elems -= set(range(step // 2, f + 1, step))
    return set(range(1, f + 1)) - elems


def bf_cover_criteria(s, comps):
    """Cover and private-gap criteria by membership tests, quadratic in the
    number of components: every special gap is missed by some component, and
    every component misses a special gap that all the others contain."""
    sg = special_gaps(s)
    covers = all(any(not c.contains(x) for c in comps) for x in sg)
    privates = all(
        any(not c.contains(x) and all(o.contains(x) for j, o in enumerate(comps) if j != i)
            for x in sg)
        for i, c in enumerate(comps))
    return covers, privates


# ----- the cross-checks ------------------------------------------------------


def test_atoms_vs_oversemigroup_recursion():
    """The per-Frobenius atom tables find exactly the irreducible
    oversemigroups that full recursion finds."""
    pool = chain(semigroups_up_to_genus(8), kunz_semigroups(7, 17))
    for s in pool:
        if s.m == 1:
            continue
        got = {t.gap_set for t in irreducible_oversemigroups(s)}
        assert got == bf_atoms(s), s


def random_semigroups(rng, count, f_max):
    """`count` distinct semigroups of multiplicity 3..10 and Frobenius number
    at most f_max, each generated by m and two to four larger integers."""
    out = []
    while len(out) < count:
        m = rng.randint(3, 10)
        gens = [m] + rng.sample(range(m + 1, 3 * m + 8), rng.randint(2, 4))
        if gcd(*gens) != 1:
            continue
        s = from_generators(gens)
        if s.frobenius <= f_max and s not in out:
            out.append(s)
    return out


def test_atom_walks_vs_filtered_full_tables():
    """The walk for (S, f), seeded at S's own irreducible closure, is the
    full table for f cut to the T that contain S, in the table's order; so
    the atoms are the containment-filtered full tables for every gap f of
    S, in the same order, although `_atom_masks` walks only the f from the
    least special gap up.  Seeded random S with F <= 45, every S of
    multiplicity 6 with F <= 18 or 8 with F <= 22, and every S of genus
    <= 12."""
    rng = random.Random(12)
    pool = random_semigroups(rng, 300, 45) + list(kunz_semigroups(6, 18))
    pool += list(kunz_semigroups(8, 22)) + [t for t in semigroups_up_to_genus(12) if t.m > 1]
    assert max(s.frobenius for s in pool) >= 40
    for s in pool:
        gaps, outside = s.gap_mask, ~s.gap_mask
        sg_mask = _mask_of(special_gaps(s))
        want = []
        for f in s.gaps:
            table = _irreducible_gapmasks_with_frobenius(f)
            assert list(table) == sorted(table), f
            walk = _irreducible_gapmasks_with_frobenius(f, gaps, Budget())
            assert walk == tuple(gm for gm in table if not gm & outside), (s, f)
            want.extend(gm for gm in table if not gm & outside and gm & sg_mask)
        assert _atom_masks(s, sg_mask, Budget()) == want, s


def test_spectrum_witnesses_vs_fresh_atoms():
    """Each witness component is the least, by `sort_key`, of the atoms with
    its miss set, each atom built afresh from its gap mask rather than taken
    from the shared `_ATOMS`.  Every S of multiplicity 8 with F <= 22."""
    count = 0
    for s in kunz_semigroups(8, 22):
        if is_irreducible(s):
            continue
        spec = length_spectrum(s, Budget(50_000_000))
        sg_mask = _mask_of(special_gaps(s))
        atoms = _atom_masks(s, sg_mask, Budget())
        for d in spec.witnesses.values():
            for c in d.components:
                miss = c.gap_mask & sg_mask
                fresh = min((_from_gap_mask(gm) for gm in atoms if gm & sg_mask == miss),
                            key=lambda t: t.sort_key())
                assert c == fresh, (s, c)
                count += 1
    assert count > 1000


def test_tree_walk_vs_seen_set_walk():
    """Every walk, run cold, equals the seen-set graph search, produces no
    node twice and ticks exactly w(f) per node: for each gap f of every S
    of multiplicity 8 with F <= 22, of genus <= 12, and of 300 seeded random
    S with F <= 45; for the full tables with f <= 50; and for a few walks
    with f >= 128, where w(f) > 1."""
    rng = random.Random(12)
    pool = random_semigroups(rng, 300, 45) + list(kunz_semigroups(8, 22))
    pool += [t for t in semigroups_up_to_genus(12) if t.m > 1]
    pool += [from_generators(g) for g in ([2, 131], [3, 131], [4, 130, 131, 133])]
    keys = {(f, s.gap_mask & ((1 << f) - 2)) for s in pool for f in s.gaps}
    keys |= {(f, (1 << f) - 2) for f in range(1, 51)}
    assert max(f for f, _ in keys) >= 128
    for f, below in sorted(keys):
        decompose._WALKS.pop((f, below), None)
        b = Budget()
        got = _irreducible_gapmasks_with_frobenius(f, below, b)
        assert len(set(got)) == len(got), (f, below)
        assert b.used == (1 + (f * f >> 14)) * len(got), (f, below)
        assert got == ref_swap_walk(f, below), (f, below)


def test_walk_seed_is_the_irreducible_closure():
    """T0(S, f), built from element sets: S's elements in [1, f/2], f - e a
    gap for each such e, every other x in (f/2, f) an element.  It is a
    semigroup, irreducible, has Frobenius f, contains S, agrees with S on
    [1, f/2], and is a node of the walk for (S, f)."""
    rng = random.Random(14)
    for s in random_semigroups(rng, 200, 45) + list(kunz_semigroups(6, 18)):
        for f in s.gaps:
            low = range(1, f // 2 + 1)
            gaps = {x for x in low if not s.contains(x)} | {f}
            gaps |= {f - e for e in low if s.contains(e)}
            t0 = from_gaps(gaps)  # raises NotClosed unless a semigroup
            assert is_irreducible(t0) and t0.frobenius == f, (s, f)
            assert s.is_subset(t0), (s, f)
            assert all(t0.contains(x) == s.contains(x) for x in low), (s, f)
            assert t0.gap_mask in _irreducible_gapmasks_with_frobenius(f, s.gap_mask), (s, f)


def apery_pool():
    """Seeded random S of multiplicity 2..12 and Frobenius number <= 60, built
    by shortest paths mod m (so no gap mask is involved), with N and H(2..12)."""
    rng = random.Random(13)
    pool = []
    for m in range(2, 13):
        for _ in range(30):
            gens = [m] + rng.sample(range(m + 1, 3 * m + 8), rng.randint(1, min(m, 5)))
            if gcd(*gens) == 1:
                s = from_generators(gens)
                if s.frobenius <= 60 and s not in pool:
                    pool.append(s)
    assert max(s.frobenius for s in pool) >= 50 and {s.m for s in pool} == set(range(2, 13))
    return pool + [N] + [H(m) for m in range(2, 13)]


def test_apery_set_vs_contains_scan():
    """Ap(S; n) for every nonzero element n <= F + m: the Apery kernel equals
    the `contains` scan; a gap or 0 is rejected."""
    for s in apery_pool():
        top = max(s.frobenius + s.m, 12)
        for n in range(top + 1):
            if n and s.contains(n):
                assert s.apery_set(n).elems == ref_apery_set(s, n), (s, n)
            else:
                with pytest.raises(NotElement):
                    s.apery_set(n)


def test_gaps_vs_contains_scan():
    """The gaps and the gap mask written from the residue runs, against the
    listed `contains` scan, on the Apery pool and all 872 S of multiplicity 8
    with F <= 22 (both built from Apery vectors, with no mask)."""
    for s in chain(apery_pool(), kunz_semigroups(8, 22)):
        assert s.gaps == ref_gaps(s), s
        assert s.gap_mask == _mask_of(ref_gaps(s)), s


def test_from_gap_mask_vs_per_residue_loop():
    """Every S of multiplicity 6 with F <= 18 and all of its cover atoms."""
    count = 0
    for s in kunz_semigroups(6, 18):
        masks = [s.gap_mask] + _atom_masks(s, _mask_of(special_gaps(s)), Budget())
        for gm in masks:
            t = _from_gap_mask(gm)
            assert (t.m, t.apery) == ref_apery_of_gap_mask(gm), gm
            assert t.gaps == tuple(_bits(gm)), gm
            count += 1
    assert count > 1000


def test_add_special_gap_vs_from_gaps():
    """S u {x} as a mask move equals the validated from_gaps on gaps(S) - {x};
    any other gap is refused."""
    for s in chain(apery_pool(), kunz_semigroups(6, 18)):
        if s.m == 1:
            continue
        sg = special_gaps(s)
        for x in s.gaps:
            if x in sg:
                t = add_special_gap(s, x)
                want = from_gaps(s.gap_set - {x})
                assert t == want and t.gap_mask == want.gap_mask, (s, x)
            else:
                with pytest.raises(NotSpecialGap):
                    add_special_gap(s, x)


def test_closure_witness_vs_pair_scan():
    """On every subset of {1..12}: the mask kernel finds the pair scan's
    least pair, and from_gaps rejects exactly the subsets that have one."""
    for r in range(13):
        for sub in combinations(range(1, 13), r):
            gaps = set(sub)
            want = bf_closure_witness(gaps)
            assert _closure_witness(_mask_of(gaps), max(gaps, default=0)) == want, sub
            try:
                from_gaps(gaps)
            except NotClosed:
                assert want is not None, sub
            else:
                assert want is None, sub


def test_special_gaps_vs_from_gaps_per_gap():
    """Genus <= 9, and multiplicity 7 up to F = 22 (genus <= 19), where the
    closure criterion runs on the m - 1 candidates a_i - m."""
    for s in chain(semigroups_up_to_genus(9), kunz_semigroups(7, 22)):
        if s.m == 1:
            continue
        assert special_gaps(s) == bf_special_gaps(s), s
        for x in s.gaps:
            closed = _closure_witness(s.gap_mask & ~(1 << x), s.frobenius) is None
            assert closed == (x in special_gaps(s)), (s, x)


def test_generators_and_pseudo_frobenius_vs_brute_force():
    """Both come from one pass over the Apery sums; genus <= 9 and
    multiplicity 7 up to F = 22."""
    for s in chain(semigroups_up_to_genus(9), kunz_semigroups(7, 22)):
        if s.m == 1:
            continue
        assert set(s.generators) == bf_generators(s), s
        assert pseudo_frobenius(s) == bf_pseudo_frobenius(s), s


def test_apery_sums_vs_pair_loop():
    """The bounded pass finds the unbounded pair loop's sums on the random
    pool, multiplicity 7 up to F = 22, ordinary semigroups up to m = 150 (no
    pair to try) and H(m) with gaps m + 1, m + 3 and 2m + 1 (some pairs)."""
    pool = chain(apery_pool(), kunz_semigroups(7, 22), (H(m) for m in range(2, 151)),
                 (from_gaps(set(range(1, m)) | {m + 1, m + 3, 2 * m + 1}) for m in range(8, 60)))
    for s in pool:
        assert s._apery_sums == ref_apery_sums(s), s


def test_minimum_cover_vs_exhaustive_search():
    """Seeded random instances with repeated masks, dominated masks and bits
    outside full: the size is the smallest k that covers, the returned
    indices cover full, and both equal the unbounded search's."""
    rng = random.Random(8)
    solved = 0
    for _ in range(1500):
        full = rng.getrandbits(10) | 1 << rng.randrange(10)
        masks = [rng.getrandbits(12) for _ in range(rng.randint(1, 7))]  # bits 10, 11 lie outside
        masks += [rng.choice(masks) for _ in range(rng.randint(0, 2))]  # repeated
        masks += [mk & rng.getrandbits(12) for mk in rng.choices(masks, k=2)]  # dominated
        rng.shuffle(masks)
        want = bf_minimum_cover_size(full, masks)
        if want is None:
            with pytest.raises(ValueError):
                minimum_cover(full, masks)
            continue
        size, idxs = minimum_cover(full, masks)
        assert size == want == len(set(idxs)), (full, masks)
        assert (size, idxs) == ref_minimum_cover(full, masks), (full, masks)
        union = 0
        for i in idxs:
            union |= masks[i]
        assert union & full == full, (full, masks)
        solved += 1
    assert solved > 500
    with pytest.raises(ValueError, match="empty subsets"):
        minimum_cover(0b0110, [0b1001, 0b10000, 0])
    with pytest.raises(ValueError, match="not covered"):
        minimum_cover(0b0110, [0b0011, 0b1001])


def test_minimum_cover_vs_unpruned_search_on_block_unions():
    """Seeded instances on 20..40-bit universes with 30..120 masks, each a
    union of 1..3 blocks of a random partition, some with one bit flipped
    (possibly outside full).  Many masks tie on popcount and several hold
    the same leftover bits, so the last two levels' holder ANDs have more
    than one bit set; (size, indices) must be the unbounded search's."""
    rng = random.Random(11)
    sizes = Counter()
    for _ in range(300):
        n = rng.randint(20, 40)
        full = (1 << n) - 1
        cuts = sorted(rng.sample(range(1, n), rng.randint(5, 9)))
        blocks = [(1 << b) - (1 << a) for a, b in zip([0] + cuts, cuts + [n])]
        masks = []
        for _ in range(rng.randint(30, 120)):
            mk = 0
            for blk in rng.sample(blocks, rng.randint(1, 3)):
                mk |= blk
            if rng.random() < 0.3:
                mk ^= 1 << rng.randrange(n + 3)
            masks.append(mk)
        got = minimum_cover(full, masks)
        assert got == ref_minimum_cover(full, masks), (full, masks)
        sizes[got[0]] += 1
    assert {2, 3, 4} <= set(sizes), sizes


def test_minimum_cover_vs_unpruned_search_on_ordinary():
    """The atoms of H(m), m <= 44: the bounded search returns the unpruned
    search's size and indices, so the same witness."""
    for m in range(4, 45):
        hm = H(m)
        sg_mask = _mask_of(special_gaps(hm))
        atoms = _atom_masks(hm, sg_mask, Budget())
        assert minimum_cover(sg_mask, atoms) == ref_minimum_cover(sg_mask, atoms), m


def test_spectrum_witnesses_vs_unpruned_search():
    """Genus <= 8 and multiplicity 7 up to F = 20: the same lengths and the
    same witness generators for every length as the search without the
    length-range cut."""
    for s in chain(semigroups_up_to_genus(8), kunz_semigroups(7, 20)):
        if s.m == 1 or is_irreducible(s):
            continue
        spec = length_spectrum(s, Budget(50_000_000))
        got = {k: [c.generators for c in d.components] for k, d in spec.witnesses.items()}
        assert got == ref_spectrum_witnesses(s), s


def test_kunz_interval_walk_vs_recursive_enumerator():
    """The same semigroups in the same order, so strided sweeps are unchanged."""
    for m in range(2, 11):
        for f_max in range(31):
            assert list(kunz_semigroups(m, f_max)) == list(ref_kunz_semigroups(m, f_max)), \
                (m, f_max)


def test_kunz_semigroups_vs_genus_tree():
    """Every semigroup with F <= 14 has genus <= 14, so the genus tree holds
    all of them."""
    by_m = {}
    for t in semigroups_up_to_genus(14):
        by_m.setdefault(t.m, []).append(t)
    for m in range(2, 9):
        for f_max in range(15):
            want = {t for t in by_m[m] if t.frobenius <= f_max}
            assert set(kunz_semigroups(m, f_max)) == want, (m, f_max)


def test_I_irr_closed_form_vs_element_sets():
    for f in range(1, 301):
        assert I_irr(f).gap_set == ref_I_irr_gaps(f), f


def test_cover_kernels_vs_quadratic_formulas():
    """On every subset of at most 4 atoms of each genus <= 6 semigroup, the
    linear mask kernels, given the gaps shared by some pair, give the
    quadratic formulas' answers, special gaps of the subset's intersection
    match the per-gap closure test, and is_decomposition (which raises when
    its criteria disagree with its verdict) reaches every verdict."""
    verdicts = Counter()
    intersections = set()
    for s in semigroups_up_to_genus(6):
        if s.m == 1 or is_irreducible(s):
            continue
        sg_mask = _mask_of(special_gaps(s))
        atoms = irreducible_oversemigroups(s)
        for k in range(1, min(4, len(atoms)) + 1):
            for sub in combinations(atoms, k):
                masks = [t.gap_mask for t in sub]
                shared = 0
                for a, b in combinations(masks, 2):
                    shared |= a & b
                assert (_cover_criteria(masks, shared, sg_mask)
                        == bf_cover_criteria(s, sub)), (s, sub)
                check = is_decomposition(s, sub)
                verdicts[check.verdict] += 1
                intersections.add(intersect_all(sub))
    assert set(verdicts) == {"valid_irredundant", "valid_redundant", "invalid"}
    for t in intersections:
        if t.m != 1:
            assert special_gaps(t) == bf_special_gaps(t), t


def test_irreducibles_with_frobenius_vs_brute_force():
    for f in range(1, 14):
        fast = {t.gap_set for t in irreducibles_with_frobenius(f)}
        slow = set(bf_irreducibles_with_frobenius(f))
        assert fast == slow, f"disagreement at Frobenius {f}"


def test_irreducible_tables_vs_full_closure_swap_tree():
    for f in range(1, 51):
        assert set(_irreducible_gapmasks_with_frobenius(f)) == bf_swap_tree(f), f


def test_classification_vs_mirror_property():
    """Also the exit rule of `length_spectrum`: S is irreducible exactly
    when SG(S) = {F(S)}."""
    for s in semigroups_up_to_genus(9):
        if s is N:
            continue
        assert classify(s).kind == bf_kind(s.gap_set), s
        assert (special_gap_mask(s).bit_count() == 1) == (classify(s).kind != REDUCIBLE), s


def test_oversemigroups_vs_closed_subsets():
    for s in semigroups_up_to_genus(7):
        fast = {t.gap_set for t in oversemigroups(s)}
        assert fast == set(bf_oversemigroups(s)), s


def test_spectrum_vs_brute_force_small_genus():
    budget = Budget(50_000_000)
    for s in semigroups_up_to_genus(7):
        if s.m == 1 or is_irreducible(s):
            continue
        atoms = irreducible_oversemigroups(s)
        assert length_spectrum(s, budget).lengths == bf_spectrum(s, atoms), s


def test_cover_criterion_vs_intersection_small_subsets():
    """For every subset of at most 4 atoms: gap-union equals gaps(S) exactly
    when the subset misses every special gap somewhere."""
    for s in semigroups_up_to_genus(6):
        if s.m == 1 or is_irreducible(s):
            continue
        sg = special_gaps(s)
        atoms = irreducible_oversemigroups(s)
        for k in range(1, min(4, len(atoms)) + 1):
            for sub in combinations(atoms, k):
                union = frozenset()
                for t in sub:
                    union |= t.gap_set
                by_intersection = union == s.gap_set
                by_cover = all(any(not t.contains(x) for t in sub) for x in sg)
                assert by_intersection == by_cover, (s, sub)


def test_is_decomposition_agrees_with_brute_force_verdict():
    """Every 2 or 3 atoms, and each such list padded with one more atom:
    the verdict follows the literal union of gap sets, and VALID_REDUNDANT
    lists exactly the indices whose literal leave-one-out intersection is
    still S."""
    redundant_seen = 0
    for s in semigroups_up_to_genus(6):
        if s.m == 1 or is_irreducible(s):
            continue
        atoms = irreducible_oversemigroups(s)
        for k in (2, 3):
            for sub in combinations(atoms, k):
                for comps in [sub] + [sub + (t,) for t in atoms]:
                    check = is_decomposition(s, comps)
                    union = frozenset()
                    for t in comps:
                        union |= t.gap_set
                    assert (check.verdict != "invalid") == (union == s.gap_set)
                    assert check.intersection.gap_mask == _mask_of(union)
                    if union != s.gap_set:
                        continue
                    redundant = [i for i in range(len(comps))
                                 if intersect_all(comps[:i] + comps[i + 1:]) == s]
                    if redundant:
                        assert check.verdict == VALID_REDUNDANT, (s, comps)
                        assert check.reason == f"components {redundant} are redundant", (s, comps)
                        redundant_seen += 1
                    else:
                        assert check.verdict == VALID_IRREDUNDANT, (s, comps)
    assert redundant_seen > 100


def test_is_decomposition_names_the_first_reducible_component():
    """With reducible semigroups mixed into a list of atoms, the INVALID
    reason names the first of them in list order, found by a plain loop
    over `classify`."""
    rng = random.Random(19)
    checked = 0
    for s in semigroups_up_to_genus(7):
        if s.m == 1 or is_irreducible(s):
            continue
        atoms = irreducible_oversemigroups(s)
        reducible = [t for t in oversemigroups(s) if t.m != 1 and classify(t).kind == REDUCIBLE]
        comps = atoms + rng.sample(reducible, min(2, len(reducible)))
        rng.shuffle(comps)
        first = next(c for c in comps if classify(c).kind == REDUCIBLE)
        check = is_decomposition(s, comps)
        assert check.verdict == "invalid", (s, comps)
        assert check.reason == f"component {first} is not irreducible", (s, comps)
        checked += 1
    assert checked > 50


def test_spectrum_witnesses_again_verified_independently():
    for gens in ([6, 8, 13, 15, 17], [7, 15, 18, 24, 26, 34]):
        s = from_generators(gens)
        spec = length_spectrum(s)
        for k, d in spec.witnesses.items():
            # literal element-wise intersection over a safe range
            bound = s.frobenius + 2
            elems = set(range(bound + 1))
            for c in d.components:
                elems &= set(c.elements_upto(bound))
            assert elems == set(s.elements_upto(bound))
            assert is_decomposition(s, d.components).verdict == VALID_IRREDUNDANT
