"""Decomposing the ordinary semigroup {0, m, m+1, m+2, ...}.

The ordinary semigroup of multiplicity m has the largest possible number of
special gaps, which makes it the natural stress test for decompositions.
Two one-parameter families of irreducible components -- the "tail" semigroup
T(F) with gaps [1, F/2] u {F} and its 2-adically pruned variant I(F) -- give
a graded family of decompositions D_0, D_1, ... whose lengths sweep an exact
integer interval.  The true minimum length can still be smaller: a minimum
set cover over all irreducible oversemigroups finds it.

Run:  python3 demos/ordinary_family.py
"""

from nsg import D, H, I_irr, T_irr, min_ordinary_length, n_min

M = 28


def main():
    h = H(M)
    print(f"H = {h!r}  (gaps 1..{M - 1})")
    print()

    print("the graded decomposition family:")
    seen = set()
    for ell in range(M // 2 + 1):
        fam = D(M, ell)
        tags = " ".join(f"{t}({v})" for t, v in fam.tags)
        marker = "" if fam.length in seen else "   <- new length"
        seen.add(fam.length)
        print(f"  D_{ell:<2}  length {fam.length:2}:  {tags}{marker}")
    print()
    # the lengths of the members printed above: the interval n_min(M)..M // 2
    lengths = tuple(sorted(seen))
    if lengths != tuple(range(n_min(M), M // 2 + 1)):
        raise SystemExit(f"family lengths {lengths} are not [n_min({M}), {M // 2}]")
    print(f"family lengths: {lengths}")
    print(f"closed form for the bottom: n_min({M}) = {n_min(M)}")
    print()

    size, witness = min_ordinary_length(M)
    print(f"true minimum length (exact set cover): {size}")
    for c in witness.components:
        print(f"  component {c!r}")
    print()
    print("so the graded family is not optimal at m = 28: a clever choice of")
    print("components reaches length 4 while the family bottoms out at 5.")
    print()

    print("the two component families at F = 20:")
    print(f"  T(20) = {T_irr(20)!r}")
    print(f"  I(20) = {I_irr(20)!r}")


if __name__ == "__main__":
    main()
