"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run with -s (or read the -v report) to see the per-criterion lines.  Each
test also enforces its wall-clock budget, so a pathological slowdown fails
loudly instead of silently eating the suite.
"""

import time
from itertools import combinations

from nsg import (Budget, D, H, I_irr, T_irr, VALID_IRREDUNDANT, check_interval,
                 check_msbound, classify, d_family_lengths, from_generators,
                 irreducible_oversemigroups, irreducibles_with_frobenius,
                 is_decomposition, is_irreducible, length_spectrum,
                 min_ordinary_length, n_min, semigroups_up_to_genus,
                 special_gaps, two_adic, REDUCIBLE)
from nsg.cli import parse_semigroup
from nsg.reference_data import (H28_DECOMPOSITIONS, M5_SPECTRA, M6_SPECTRA,
                                M7_SPECTRA, SHORT_ORDINARY_DECOMPOSITIONS)


def report(criterion, ok, elapsed, limit, detail=""):
    status = "PASS" if ok else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"{status}: {criterion} [{elapsed:.1f}s / {limit:.0f}s]{extra}")
    assert ok, f"{criterion}{extra}"
    assert elapsed < limit, f"{criterion} exceeded {limit}s budget: {elapsed:.1f}s"


def spectra_table_ok(table):
    bad = []
    for gens, expected in table:
        got = length_spectrum(from_generators(gens)).lengths
        if got != expected:
            bad.append((gens, expected, got))
    return bad


def test_01_multiplicity5_length_spectra():
    t0 = time.monotonic()
    bad = spectra_table_ok(M5_SPECTRA)
    report("six multiplicity-5 semigroups have their expected length sets",
           not bad, time.monotonic() - t0, 30, str(bad))


def test_02_multiplicity6_length_spectra():
    t0 = time.monotonic()
    bad = spectra_table_ok(M6_SPECTRA)
    report("seven multiplicity-6 semigroups have their expected length sets",
           not bad, time.monotonic() - t0, 120, str(bad))


def test_03_multiplicity7_length_spectra():
    t0 = time.monotonic()
    bad = spectra_table_ok(M7_SPECTRA)
    report("fifteen multiplicity-7 semigroups have their expected length sets",
           not bad, time.monotonic() - t0, 900, str(bad))


def test_04_ordinary28_displayed_decompositions():
    t0 = time.monotonic()
    h28 = H(28)
    ok = True
    detail = ""
    displayed = []
    for comps_spec, exp_len in H28_DECOMPOSITIONS:
        comps = tuple(parse_semigroup(c) for c in comps_spec)
        displayed.append(frozenset(comps))
        check = is_decomposition(h28, comps)
        if check.verdict != VALID_IRREDUNDANT or len(comps) != exp_len:
            ok, detail = False, f"{comps_spec}: {check.verdict}"
    if [len(d) for d in displayed] != [5, 6, 7, 8, 8]:
        ok, detail = False, "lengths are not 5,6,7,8,8"
    for ell in range(4):
        if frozenset(D(28, ell).components) != displayed[ell]:
            ok, detail = False, f"graded member {ell} differs from displayed line {ell + 1}"
    report("the five decompositions of the gaps-1..27 semigroup check out "
           "and the graded family reproduces the first four",
           ok, time.monotonic() - t0, 10, detail)


def test_05_shorter_than_family_decompositions():
    t0 = time.monotonic()
    ok = True
    detail = ""
    for target_spec, comps_spec in SHORT_ORDINARY_DECOMPOSITIONS:
        target = parse_semigroup(target_spec)
        comps = tuple(parse_semigroup(c) for c in comps_spec)
        check = is_decomposition(target, comps)
        if check.verdict != VALID_IRREDUNDANT or len(comps) != 4:
            ok, detail = False, f"{target_spec}: {check.verdict}"
    size28, _ = min_ordinary_length(28)
    if not (size28 == 4 < n_min(28)):
        ok, detail = False, f"minimum for m=28 is {size28}, family bottom {n_min(28)}"
    size56, _ = min_ordinary_length(56, Budget(50_000_000))
    if size56 > 4:
        ok, detail = False, f"minimum for m=56 is {size56}"
    report("length-4 decompositions beat the graded family for m=28 and m=56",
           ok, time.monotonic() - t0, 600, detail)


def test_06_family_lengths_are_exact_intervals():
    t0 = time.monotonic()
    bad = []
    for m in range(4, 201):
        got = d_family_lengths(m)  # self-checks against the closed form
        if got != tuple(range(n_min(m), m // 2 + 1)):
            bad.append(m)
    report("graded family lengths sweep the exact interval for every "
           "multiplicity 4..200", not bad, time.monotonic() - t0, 300, str(bad))


def test_07_length_sets_are_intervals_exhaustively():
    t0 = time.monotonic()
    ok = True
    detail = ""
    reports = {}
    for m, fmax in ((4, 14), (5, 16), (6, 18)):
        rep = check_interval(m, fmax, Budget(50_000_000))
        reports[m] = rep
        if rep.counterexamples:
            ok, detail = False, f"m={m}: {len(rep.counterexamples)} non-interval spectra"
    if ok and (3,) in reports[4].census:
        ok, detail = False, "a multiplicity-4 semigroup has length set exactly {3}"
    if ok:
        for lengths in reports[6].census:
            if 5 in lengths and 4 not in lengths:
                ok, detail = False, f"m=6 spectrum {lengths} has 5 without 4"
            if 4 in lengths and 3 not in lengths and lengths != (1,):
                ok, detail = False, f"m=6 spectrum {lengths} has 4 without 3"
    report("exhaustive sweeps find only interval length sets, none equal to "
           "{3} at multiplicity 4, and no 6-sweep spectrum skips 4 or 3",
           ok, time.monotonic() - t0, 1800, detail)


def test_08_agreement_set_bound_exhaustively():
    t0 = time.monotonic()
    ok = True
    detail = ""
    for m, fmax in ((4, 12), (5, 16), (6, 18)):
        rep = check_msbound(m, fmax, Budget(50_000_000))
        if rep.violations:
            ok, detail = False, f"m={m}: {len(rep.violations)} violations"
        if 2 * rep.max_mset > m:
            ok, detail = False, f"m={m}: max agreement set {rep.max_mset}"
    report("agreement sets stay within half the multiplicity on every sweep",
           ok, time.monotonic() - t0, 1200, detail)


# --- independent brute-force helpers for criterion 9 (bitmask gap sets) -----


def _bf_closed(gm, top):
    full = (1 << (top + 1)) - 1
    elems = ~gm & full & ~1
    e = elems
    while e:
        low = e & -e
        x = low.bit_length() - 1
        if 2 * x > top:
            break
        if (elems << x) & gm:
            return False
        e ^= low
    return True


def _bf_irreducible_masks(f):
    out = []
    genus_target = (f + 1) // 2 if f % 2 else f // 2 + 1
    for sub in range(1 << (f - 1)):
        gm = (sub << 1) | (1 << f)
        if bin(gm).count("1") != genus_target:
            continue
        if _bf_closed(gm, f):
            out.append(gm)
    return out


def _bf_spectrum(s, atom_masks, sg_count):
    target = s.gap_mask
    lengths = set()
    n = len(atom_masks)
    for k in range(1, sg_count + 1):
        for sub in combinations(range(n), k):
            union = 0
            for i in sub:
                union |= atom_masks[i]
            if union != target:
                continue
            irredundant = True
            for skip in sub:
                u = 0
                for i in sub:
                    if i != skip:
                        u |= atom_masks[i]
                if u == target:
                    irredundant = False
                    break
            if irredundant:
                lengths.add(k)
                break
    return tuple(sorted(lengths))


def test_09_oracle_equivalences():
    t0 = time.monotonic()
    ok = True
    detail = ""

    # (a) optimized irreducible enumeration vs full subset scan, F <= 17
    for f in range(1, 18):
        fast = set(t.gap_mask for t in irreducibles_with_frobenius(f))
        slow = set(_bf_irreducible_masks(f))
        if fast != slow:
            ok, detail = False, f"irreducible enumeration differs at F={f}"
            break

    # (b) spectrum vs brute-force subset scan, genus <= 8
    if ok:
        budget = Budget(500_000_000)
        for s in semigroups_up_to_genus(8):
            if s.m == 1 or is_irreducible(s):
                continue
            atoms = irreducible_oversemigroups(s, budget)
            got = length_spectrum(s, budget).lengths
            want = _bf_spectrum(s, [t.gap_mask for t in atoms],
                                len(special_gaps(s)))
            if got != want:
                ok, detail = False, f"spectrum differs on {s}: {got} vs {want}"
                break

    # (c) cover criterion vs literal intersection for subsets of <= 4 atoms
    if ok:
        for s in semigroups_up_to_genus(8):
            if s.m == 1 or is_irreducible(s):
                continue
            sg = special_gaps(s)
            atoms = irreducible_oversemigroups(s)
            for k in range(1, min(4, len(atoms)) + 1):
                for sub in combinations(atoms, k):
                    union = 0
                    for t in sub:
                        union |= t.gap_mask
                    by_intersection = union == s.gap_mask
                    by_cover = all(any(not t.contains(x) for t in sub) for x in sg)
                    if by_intersection != by_cover:
                        ok, detail = False, f"criteria split on {s}"
                        break
                if not ok:
                    break
            if not ok:
                break

    # (d) both irreducibility criteria agree everywhere up to genus 12
    #     (classify raises internally if they ever disagree)
    if ok:
        reducibles = 0
        for s in semigroups_up_to_genus(12):
            if classify(s).kind == REDUCIBLE:
                reducibles += 1
        if not reducibles:
            ok, detail = False, "sweep saw no reducible semigroup; bogus"

    report("optimized enumerations, cover criteria, and both irreducibility "
           "tests agree with brute force on exhaustive small ranges",
           ok, time.monotonic() - t0, 1800, detail)


def test_10_component_family_properties():
    t0 = time.monotonic()
    ok = True
    detail = ""
    for f in range(1, 513):
        t = T_irr(f)  # verifies kind and Frobenius internally
        s = I_irr(f)  # verifies kind, Frobenius, residue structure internally
        if t.genus != s.genus or s.frobenius != f:
            ok, detail = False, f"genus/Frobenius drift at {f}"
            break
        if f % 2 == 1 and s != from_generators([2, f + 2]):
            ok, detail = False, f"odd case differs at {f}"
            break
        if two_adic(f).j == 0 and f % 2 == 0:
            ok, detail = False, f"2-adic split broken at {f}"
            break
    report("both component families verify their defining properties for "
           "every Frobenius number up to 512", ok, time.monotonic() - t0, 60, detail)
