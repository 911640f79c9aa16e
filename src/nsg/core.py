"""Numerical semigroups in Kunz coordinates.

The canonical value is the pair (m, apery): the multiplicity together with
the Apery vector a_1..a_{m-1} with respect to m, where a_i is the smallest
element congruent to i mod m.  Gap sets and generating sets are derived
views: the gaps are the residue runs i, i + m, ..., a_i - m.  Membership is
one comparison with an Apery coordinate; inclusion and intersection work on
gap bitmasks (bit x set iff x is a gap).  `from_generators` finds the Apery
vector by shortest paths mod m.  A semigroup's gap mask is written from
its residue runs; other masks go through one linear bitmask builder.  There
is one closure kernel and one Apery kernel, `_apery_of`, which reads
Ap(S; n) for any element n off a single shift of the element mask.

The package's value types derive from `_Record`, a plain class: importing
`nsg` generates no code (see `_Record`).
"""

from __future__ import annotations

from functools import cached_property
from heapq import heappop, heappush
from itertools import chain, count, repeat
from math import gcd, inf

from .errors import LimitExceeded, NotClosed, NotCofinite, NotElement

#: Hard cap on any integer a construction may need.  Desk-scale inputs stay
#: far below this; anything larger is almost certainly a bug in the caller.
VALUE_CAP = 1 << 40


class _Record:
    """Immutable value record: equality, hash and repr over the fields, in
    the order of the class annotations.

    A plain class rather than a frozen dataclass, which builds its methods
    with `exec` when the class is defined (about 0.5 ms per class, Python
    3.11) and needs `dataclasses` and `inspect` imported.  Each record
    writes its own `__init__` straight into `self.__dict__`: records are
    built in the hot loops, where a generic constructor loop costs more
    than the work it wraps.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)  # the class's own annotations

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{f}={self.__dict__[f]!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


class NumericalSemigroup(_Record):
    """A numerical semigroup, canonically (multiplicity, Apery vector).

    m = 1 with an empty Apery vector encodes the full set of non-negative
    integers; it is a legal value so that degenerate intersections and
    oversemigroup chains never crash.  Any iterable is accepted for the
    Apery vector; it is stored as a tuple.
    """

    m: int
    apery: tuple[int, ...]

    def __init__(self, m, apery):
        apery = tuple(apery)
        if m < 1:
            raise ValueError("multiplicity must be positive")
        if len(apery) != m - 1:
            raise ValueError("Apery vector must have length m - 1")
        for i, a in enumerate(apery, start=1):
            if a % m != i:
                raise ValueError(f"apery[{i}] = {a} is not congruent to {i} mod {m}")
            if a < m + i:
                raise ValueError(f"apery[{i}] = {a} makes {m} not the multiplicity")
            if a > VALUE_CAP:
                raise LimitExceeded(f"Apery value {a} above cap 2**40")
        d = self.__dict__
        d["m"] = m
        d["apery"] = apery

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.m == other.m and self.apery == other.apery
        return NotImplemented

    @cached_property
    def _hash(self) -> int:
        return hash((self.m, self.apery))

    def __hash__(self):
        """The hash of (m, apery), computed once: the caches keyed on
        semigroups look it up on every call."""
        return self._hash

    def validate(self):
        """Full Apery-vector validity check: a_i + a_j >= a_k whenever i + j = k mod m.

        The constructor only runs O(m) shape checks; call this to verify the
        O(m^2) inequalities that characterize genuine Apery sets.
        """
        a = (0,) + self.apery
        m = self.m
        for i in range(1, m):
            for j in range(i, m):
                k = (i + j) % m
                if k and a[i] + a[j] < a[k]:
                    raise ValueError(
                        f"invalid Apery vector: a_{i} + a_{j} < a_{k} "
                        f"({a[i]} + {a[j]} < {a[k]})")
        return self

    # ----- basic invariants -------------------------------------------------

    @cached_property
    def frobenius(self) -> int:
        """Largest gap; -1 for the full semigroup, by convention."""
        if self.m == 1:
            return -1
        return max(self.apery) - self.m

    @cached_property
    def genus(self) -> int:
        return sum((a - i) // self.m for i, a in enumerate(self.apery, start=1))

    @cached_property
    def gaps(self) -> tuple[int, ...]:
        """Sorted tuple of all gaps: the runs i, i + m, ..., a_i - m."""
        runs = map(range, count(1), self.apery, repeat(self.m))  # range(i, a_i, m)
        return tuple(sorted(chain.from_iterable(runs)))

    @cached_property
    def gap_set(self) -> frozenset[int]:
        return frozenset(self.gaps)

    @cached_property
    def gap_mask(self) -> int:
        """Gap set as a bitmask (bit x set iff x is a gap), parsed from one
        '0'/'1' row with each residue run i, i + m, ..., a_i - m written by
        one slice assignment; the gaps are never listed."""
        m = self.m
        row = bytearray(b"0") * (self.frobenius + 2)  # least significant bit first
        for i, a in enumerate(self.apery, start=1):
            row[i:a:m] = b"1" * ((a - i) // m)
        return int(row[::-1], 2)

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """The minimal generating set, sorted.

        These are m together with the nonzero Apery elements not expressible
        as a sum of two nonzero elements of S (such a sum can always be taken
        with both addends in the Apery set).
        """
        if self.m == 1:
            return (1,)
        sums, _ = self._apery_sums
        gens = [self.m] + [a for i, a in enumerate(self.apery, start=1) if not sums >> i & 1]
        return tuple(sorted(gens))

    @cached_property
    def _apery_sums(self) -> tuple[int, int]:
        """One pass over the pairs j <= k with a_j + a_k = a_{j+k mod m}.

        Returns bitmasks of (residues j + k that are such sums, residues j and
        k used in one).  The minimal generators are m and the a_i with i not a
        sum; a_i is maximal in the divisibility order (a_i - m
        pseudo-Frobenius) iff i is in no sum.  No sum above max(apery) is an
        Apery element, so rows run in Apery-value order and stop there.  It
        runs once per semigroup; `generators` and `pseudo_frobenius` read it.
        """
        a = (0,) + self.apery
        m = self.m
        top = max(self.apery, default=0)
        order = sorted(range(1, m), key=a.__getitem__)
        sums, used = set(), set()
        for x in range(m - 1):
            j = order[x]
            aj = a[j]
            for y in range(x, m - 1):
                k = order[y]
                ak = a[k]
                if aj + ak > top:
                    break
                i = (j + k) % m
                if aj + ak == a[i]:  # never at i = 0, where a[0] = 0
                    sums.add(i)
                    used.add(j)
                    used.add(k)
        return _mask_of(sums), _mask_of(used)

    # ----- membership and order --------------------------------------------

    def contains(self, x: int) -> bool:
        if x < 0:
            return False
        r = x % self.m
        if r == 0:
            return True
        return x >= self.apery[r - 1]

    def __contains__(self, x: int) -> bool:
        return self.contains(x)

    def divides(self, a: int, b: int) -> bool:
        """True iff a <= b in the divisibility order of S, i.e. b - a in S."""
        return self.contains(b - a)

    def is_subset(self, other: "NumericalSemigroup") -> bool:
        """True iff every element of self lies in other."""
        return not other.gap_mask & ~self.gap_mask

    def intersect(self, other: "NumericalSemigroup") -> "NumericalSemigroup":
        """Intersection; its gap set is the union of the two gap sets."""
        return _from_gap_mask(self.gap_mask | other.gap_mask)

    # ----- Apery sets with respect to arbitrary elements --------------------

    def apery_set(self, n: int) -> "AperySet":
        if n <= 0 or not self.contains(n):
            raise NotElement(f"{n} is not a nonzero element of the semigroup")
        return AperySet(n, tuple(_apery_of(self.gap_mask, n)))

    def elements_upto(self, bound: int) -> list[int]:
        """All elements in [0, bound]."""
        return [x for x in range(bound + 1) if self.contains(x)]

    def sort_key(self):
        return (self.m, self.apery)

    def __repr__(self):
        gens = ",".join(str(g) for g in self.generators)
        return f"<{gens}>"


class AperySet(_Record):
    """Ap(S; n): the n smallest elements of S, one per residue class mod n."""

    n: int
    elems: tuple[int, ...]  # elems[i] is the least element congruent to i mod n

    def __init__(self, n, elems):
        if len(elems) != n or elems[0] != 0:
            raise ValueError("Apery set must list one minimum per residue, starting at 0")
        for i, w in enumerate(elems):
            if w % n != i:
                raise ValueError(f"Apery element {w} not congruent to {i} mod {n}")
        d = self.__dict__
        d["n"] = n
        d["elems"] = elems


#: The full semigroup of non-negative integers.
N = NumericalSemigroup(1, ())


# ---------------------------------------------------------------------------
# gap-set bitmask kernels (bit x set iff x is a gap)


def _mask_of(xs) -> int:
    """Bitmask with bit x set for each x in xs, parsed from one '0'/'1' row."""
    xs = list(xs)
    row = bytearray(b"0" * (max(xs, default=0) + 1))  # most significant bit first
    for x in xs:
        row[-1 - x] = 49  # ord("1")
    return int(row, 2)


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _closure_witness(gap_mask: int, top: int) -> tuple[int, int] | None:
    """Least pair (x, y), x <= y, of nonzero non-gaps in [0, top] summing to a
    gap, or None.  Pairs with y < x were tried at y: the lowest hit gives y."""
    full = (1 << (top + 1)) - 1
    elems = ~gap_mask & full & ~1  # nonzero elements only
    e = elems
    while e:
        low = e & -e
        x = low.bit_length() - 1
        if x + x > top:
            break
        hits = (elems << x) & gap_mask
        if hits:
            return x, (hits & -hits).bit_length() - 1 - x
        e ^= low
    return None


def _apery_of(gap_mask: int, n: int) -> list[int]:
    """Ap(S; n) by residue mod n, where gap_mask holds the gaps of S and n is
    a nonzero element of S.

    x is in Ap(S; n) iff x is in S and x - n is not: the set bits of
    elems & ~(elems << n).  All of them lie in [0, F + n], and they are read
    off one '1'/'0' row with str.find, linear in F + n; peeling bits off
    the integer one by one would cost a full-width operation per bit.
    """
    elems = ~gap_mask & ((1 << (gap_mask.bit_length() + n)) - 1)
    row = bin(elems & ~(elems << n))[:1:-1]  # least significant bit first
    find = row.find
    ap = [0] * n
    x = 0
    for _ in range(1, n):
        x = find("1", x + 1)
        ap[x % n] = x
    return ap


def _from_gap_mask(gap_mask: int) -> NumericalSemigroup:
    """Build a semigroup from a gap mask already known to be valid (no closure check)."""
    if not gap_mask:
        return N
    t = gap_mask | 1
    m = (~t & (t + 1)).bit_length() - 1  # least nonzero non-gap
    if m == 1:
        raise ValueError("1 cannot be an element alongside nonempty gaps")
    s = NumericalSemigroup(m, tuple(_apery_of(gap_mask, m)[1:]))
    s.__dict__["gap_mask"] = gap_mask  # fill the cached view
    return s


def from_gaps(gaps) -> NumericalSemigroup:
    """Semigroup whose gap set is exactly `gaps`.

    Raises NotClosed (with a witness pair) if the complement is not closed
    under addition.  Closure keeps one of x, F - x a gap for each x, so fewer
    than F//2 + 1 gaps is rejected before anything of size F is built.
    """
    gap_set = frozenset(gaps)
    if not gap_set:
        return N
    if any(x < 1 for x in gap_set):
        raise ValueError("gaps must be positive integers")
    top = max(gap_set)
    if top > VALUE_CAP:
        raise LimitExceeded(f"gap {top} above cap 2**40")
    if len(gap_set) <= top // 2:
        # each gap rules out one x = min(g, top - g): at most len + 1 steps
        x = next(x for x in range(1, top) if x not in gap_set and top - x not in gap_set)
        raise NotClosed((x, top - x))
    mask = _mask_of(gap_set)
    witness = _closure_witness(mask, top)
    if witness:
        raise NotClosed(witness)
    return _from_gap_mask(mask)


def _generator_list(gens) -> list[int]:
    """The distinct nonzero generators, ascending, checked before anything is
    built from them: positive, gcd 1, and none above the cap unless 1 is one
    of them.  The first is the multiplicity."""
    gen_list = sorted({int(g) for g in gens if g != 0})
    if not gen_list or gen_list[0] < 0:
        raise ValueError("generators must be positive integers")
    g = gcd(*gen_list)
    if g != 1:
        raise NotCofinite(f"gcd of generators is {g}, complement is infinite")
    if gen_list[0] > 1 and gen_list[-1] > VALUE_CAP:
        raise LimitExceeded(f"generator {gen_list[-1]} above cap 2**40")
    return gen_list


def from_generators(gens) -> NumericalSemigroup:
    """Smallest additively closed set containing 0 and the given generators.

    Raises NotCofinite when gcd(gens) > 1.  a_i is the shortest path to
    residue i mod m, each other generator an edge (Nijenhuis 1979): Dijkstra
    over the m residues, in O(m) memory and with no bound on the conductor.
    """
    gen_list = _generator_list(gens)
    m = gen_list[0]
    if m == 1:
        return N

    apery = [0] + [inf] * (m - 1)
    heap = [(0, 0)]
    while heap:
        d, r = heappop(heap)
        if d == apery[r]:
            for x in gen_list[1:]:
                k = (r + x) % m
                if d + x < apery[k]:
                    apery[k] = d + x
                    heappush(heap, (d + x, k))
    return NumericalSemigroup(m, tuple(apery[1:]))


def intersect_all(semigroups) -> NumericalSemigroup:
    """Intersection of a nonempty collection of semigroups."""
    sgs = list(semigroups)
    if not sgs:
        raise ValueError("need at least one semigroup")
    union = 0
    for s in sgs:
        union |= s.gap_mask
    return _from_gap_mask(union)
