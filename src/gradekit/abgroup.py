"""Finitely generated abelian groups in explicit coordinates.

A group is Z^r x Z/d1 x ... x Z/ds.  Elements are integer tuples of
length r + s, free coordinates first; torsion coordinate i is kept
reduced into [0, di).  The factor list of a directly constructed group
may be any list of moduli >= 2 (direct products keep their natural
coordinates), but every group produced by a quotient or presentation
construction has its torsion in invariant-factor form d1 | d2 | ... | ds,
computed through Smith normal form.  Abstract comparisons always go
through invariant_factors().

This is the only module that reduces, adds or enumerates coordinates:
the others call `FinGenAbGroup.reduce` and the arithmetic built on it,
`GroupHom.apply`, and `span`, the one loop over the span of generators.

A subgroup is the Hermite normal form of its lattice of lifts.
Kernels, intersections and preimages are read from one Hermite form of
an augmented matrix (`lattice_tail`), and a subgroup built from such a
tail keeps its rows as its lattice (`Subgroup.of_lattice`).  A
homomorphism has one Hermite form (`GroupHom._preimage_form`), which
gives the lattice of its image, the preimage of an element by
back-substitution and its kernel (Cohen, GTM 138, 2.4.3).  The Smith
normal form diagonalises quotients and returns V^-1 beside V, which
give the Smith generators of a subgroup and the coordinates against
them; invariant factors of given moduli come from gcds and lcms.  Both
normal forms work on sparse {col: value} rows, so a universal group's
relations, whose pivots are almost all 1, cost little more than their
number of entries.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property
from math import gcd, lcm, prod
from typing import Iterable, Iterator, Optional, Sequence

Coords = tuple[int, ...]
Matrix = list[list[int]]


# ---------------------------------------------------------------------------
# integer matrix utilities


def _identity(n: int) -> Matrix:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _sparse(row: Iterable[int]) -> dict[int, int]:
    """The {col: value} form of a dense row."""
    return {j: a for j, a in enumerate(row) if a}


def _add_multiple(row: dict[int, int], q: int, other: dict[int, int]) -> None:
    """row += q * other, in place, on {col: value} rows; q is nonzero."""
    for j, b in other.items():
        v = row.get(j, 0) + q * b
        if v:
            row[j] = v
        else:
            del row[j]


def smith_normal_form(rows: Sequence[dict[int, int]], n: int
                      ) -> tuple[list[int], list[dict[int, int]], list[dict[int, int]]]:
    """Return (diag, V, W) for the matrix with n columns whose rows are
    the sparse {col: value} dicts `rows`: V is unimodular, W is its
    inverse, and rows*V spans the same row lattice as the rows diag[j]
    e_j, one for each column j.  V comes as its n columns, each a sparse
    {row: value} dict, and W as its n rows, each a sparse {col: value}
    dict; a column operation on V is the inverse row operation on W.

    The entries of diag are nonnegative and form a divisibility chain
    d1 | d2 | ... ; zero entries come last.  Plain Python integers
    throughout, so there is no overflow at any size.

    Step t takes as pivot the first entry of least magnitude, in
    row-major order over the rows from t and the column positions from
    t, moves it to (t, t), clears its column by row operations and its
    row by column operations, and starts over while a remainder is left.
    Once the pivot divides the rest of its row and column, a row with an
    entry it does not divide is added to row t, and again it starts
    over.  Columns are swapped by renaming positions, so a row keeps the
    columns it was given; the search for a pivot stops at the first row
    that holds a unit, and a unit pivot divides every entry, so relations
    whose pivots are almost all 1 cost little more than their size.
    """
    S = [{j: a for j, a in r.items() if a} for r in rows]
    m = len(S)
    col_at = list(range(n))         # the column at each position
    place = list(range(n))          # the position of each column
    V = [{j: 1} for j in range(n)]  # sparse columns, by column
    W = [{j: 1} for j in range(n)]  # the rows of V^-1, by column
    t = 0
    while t < min(m, n):
        best = pi = None
        for i in range(t, m):
            if S[i]:
                v = min(map(abs, S[i].values()))
                if best is None or v < best:
                    best, pi = v, i
                    if v == 1:
                        break
        if best is None:
            break
        S[t], S[pi] = S[pi], S[t]
        piv = S[t]
        c = min((j for j, a in piv.items() if abs(a) == best), key=place.__getitem__)
        pc, other = place[c], col_at[t]
        col_at[t], col_at[pc] = c, other
        place[c], place[other] = t, pc

        p = piv[c]
        carriers = [piv]            # the rows with an entry in column c
        for row in S[t + 1:]:
            a = row.get(c)
            if a is not None:
                _add_multiple(row, -(a // p), piv)
                if c in row:
                    carriers.append(row)
        dirty = len(carriers) > 1
        for j in [j for j in piv if j != c]:
            q = piv[j] // p
            for row in carriers:
                v = row.get(j, 0) - q * row[c]
                if v:
                    row[j] = v
                else:
                    del row[j]
            _add_multiple(V[j], -q, V[c])
            _add_multiple(W[c], q, W[j])
            if j in piv:
                dirty = True
        if dirty:
            continue

        # force the pivot to divide the rest of the block
        if best != 1:
            fix = next((row for row in S[t + 1:] if any(a % p for a in row.values())), None)
            if fix is not None:
                _add_multiple(piv, 1, fix)
                continue
        t += 1

    diag = [abs(S[j].get(col_at[j], 0)) if j < m else 0 for j in range(n)]
    return diag, [V[c] for c in col_at], [W[c] for c in col_at]


def _combine(s: int, a: dict[int, int], t: int, b: dict[int, int]) -> dict[int, int]:
    """The row s * a + t * b."""
    out = {j: s * v for j, v in a.items()} if s else {}
    if t:
        _add_multiple(out, t, b)
    return out


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(a, b) >= 0 and s*a + t*b = g."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return (a, s0, t0) if a >= 0 else (-a, -s0, -t0)


def hermite_normal_form(rows: Iterable[Coords | dict[int, int]]) -> tuple:
    """Canonical basis of the integer row span of `rows`.

    Pivots are positive, pivot columns strictly increase, and entries
    above each pivot are reduced into [0, pivot).  Zero rows are dropped,
    so equal lattices give identical results.  The rows are dense
    sequences, and then so are the result's, or sparse {col: value}
    dicts, and then the result's rows are such dicts too.

    Rows are kept sparse, as {col: value} dicts, with the pivot rows
    keyed by their leading column.  Each incoming row is reduced against
    the pivots; where it meets a pivot whose entry does not divide its
    own, one extended-Euclid step makes the gcd row the pivot and carries
    the other combination on.  A final pass, last pivot row first,
    reduces the entries of each row against the rows already in final
    form, visiting in ascending order only the pivot columns the row
    holds.
    """
    pivots: dict[int, dict[int, int]] = {}
    width = None                    # stays None on sparse rows
    for r in rows:
        if isinstance(r, dict):
            row = {j: a for j, a in r.items() if a}
        else:
            width = len(r)
            row = {j: r[j] for j in itertools.compress(range(width), r)}
        while row:
            col = min(row)
            piv = pivots.get(col)
            if piv is None:
                pivots[col] = row if row[col] > 0 else {j: -a for j, a in row.items()}
                break
            p, a = piv[col], row[col]
            if a % p == 0:
                _add_multiple(row, -(a // p), piv)
            else:
                g, s, t = _xgcd(p, a)
                pivots[col], row = _combine(s, piv, t, row), _combine(a // g, piv, -(p // g), row)
    # a pivot row only touches columns from its own on, so each row meets
    # the later pivot rows in final form and keeps the columns it has
    # already reduced
    cols = sorted(pivots)
    for c in reversed(cols):
        row = pivots[c]
        while (c := min((j for j in row if j > c and j in pivots), default=None)) is not None:
            q = row[c] // pivots[c][c]
            if q:
                _add_multiple(row, -q, pivots[c])
    if width is None:
        return tuple(pivots[c] for c in cols)
    out = []
    for c in cols:
        dense = [0] * width
        for j, a in pivots[c].items():
            dense[j] = a
        out.append(tuple(dense))
    return tuple(out)


def lattice_coords(hnf_rows: tuple[Coords, ...], vec: Coords) -> Optional[Coords]:
    """The unique integer x with x * hnf_rows = vec, or None.

    The rows are in Hermite normal form, so the pivot column of row i is
    zero in every later row: x_i is read off that column once the
    earlier rows' share of vec is taken away.
    """
    v = list(vec)
    x = []
    for row in hnf_rows:
        pcol = 0
        while not row[pcol]:
            pcol += 1
        q, r = divmod(v[pcol], row[pcol])
        if r:
            return None
        if q:
            v = [a - q * b for a, b in zip(v, row)]
        x.append(q)
    return None if any(v) else tuple(x)


def in_rational_span(pivots: Iterable[tuple[object, dict]], vec: dict) -> bool:
    """Whether the sparse row vec is a rational combination of the rows
    of a Hermite normal form, given as (pivot column, sparse row) pairs
    in ascending pivot order.  One fraction-free pass: each pivot row
    clears its column of vec, scaling vec by a divisor of the pivot;
    since every later row is zero in the columns cleared, vec lies in
    the span exactly when nothing is left."""
    v = dict(vec)
    for col, row in pivots:
        a = v.get(col)
        if a:
            p = row[col]
            g = gcd(a, p)
            if p != g:
                v = {j: b * (p // g) for j, b in v.items()}
            _add_multiple(v, -(a // g), row)
    return not v


def lattice_tail(rows: Iterable[Coords | dict[int, int]], n: int) -> tuple:
    """{v[n:] : v in the row lattice of rows, v[:n] = 0}, in Hermite
    normal form: dense rows if the rows are dense, and sparse
    {col - n: value} dicts if they are sparse {col: value} dicts.

    A lattice vector that vanishes in the first n columns has zero
    coordinates on every Hermite row with its pivot there, so the rows
    with their pivot past column n are a basis; cut to their last
    columns they are still in Hermite normal form.  Kernels, preimages
    and intersections are tails of augmented matrices (Cohen, GTM 138,
    2.4.3): the tail of the rows (a_i, e_i) is {x : x*A = 0}.
    """
    hnf = hermite_normal_form(rows)
    if hnf and isinstance(hnf[0], dict):
        return tuple({j - n: a for j, a in r.items()} for r in hnf if min(r) >= n)
    return tuple(r[n:] for r in hnf if not any(r[:n]))


def lattice_intersect(rows_a: Iterable[Coords], rows_b: Iterable[Coords]) -> tuple[Coords, ...]:
    """Basis of the intersection of two integer row lattices: the tail of
    the rows (a, a) and (b, 0)."""
    a = [tuple(r) for r in rows_a]
    b = [tuple(r) for r in rows_b]
    if not a or not b:
        return ()
    zero = (0,) * len(a[0])
    return lattice_tail([r + r for r in a] + [r + zero for r in b], len(zero))


def factorize(n: int) -> list[tuple[int, int]]:
    """The prime factorization [(p, e), ...] of n >= 1, primes ascending."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


# ---------------------------------------------------------------------------
# groups


@dataclass(frozen=True)
class FinGenAbGroup:
    """Z^free_rank x Z/torsion[0] x ... in fixed coordinates."""

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        object.__setattr__(self, "torsion", tuple(int(d) for d in self.torsion))
        if any(d < 2 for d in self.torsion):
            raise ValueError("torsion moduli must be >= 2")
        # the modulus of each coordinate, 0 for a free one; not a field,
        # so equality and hashing see only free_rank and torsion
        object.__setattr__(self, "_moduli", (0,) * self.free_rank + self.torsion)

    @property
    def rank(self) -> int:
        return self.free_rank + len(self.torsion)

    @property
    def is_finite(self) -> bool:
        return self.free_rank == 0

    def order(self) -> Optional[int]:
        if not self.is_finite:
            return None
        out = 1
        for d in self.torsion:
            out *= d
        return out

    def reduce(self, coords: Iterable[int]) -> Coords:
        """The element with integer coordinates coords: free coordinates
        as they are, torsion coordinate i taken into [0, d_i)."""
        c = tuple(coords)
        if len(c) != len(self._moduli):
            raise ValueError(f"expected {self.rank} coordinates, got {len(c)}")
        if self.free_rank:
            return tuple([a % d if d else a for a, d in zip(c, self._moduli)])
        return tuple(map(operator.mod, c, self._moduli))

    def zero(self) -> Coords:
        return (0,) * self.rank

    def add(self, x: Coords, y: Coords) -> Coords:
        return self.reduce(map(operator.add, x, y))

    def neg(self, x: Coords) -> Coords:
        return self.reduce(map(operator.neg, x))

    def sub(self, x: Coords, y: Coords) -> Coords:
        return self.reduce(map(operator.sub, x, y))

    def scale(self, k: int, x: Coords) -> Coords:
        return self.reduce([k * a for a in x])

    def element_order(self, x: Coords) -> Optional[int]:
        """Order of x; None means infinite."""
        x = self.reduce(x)
        if any(x[: self.free_rank]):
            return None
        out = 1
        for i, d in enumerate(self.torsion):
            a = x[self.free_rank + i]
            out = lcm(out, d // gcd(d, a)) if a else out
        return out

    def elements(self) -> Iterator[Coords]:
        if not self.is_finite:
            raise ValueError("cannot enumerate an infinite group")
        for combo in itertools.product(*(range(d) for d in self.torsion)):
            yield combo

    def relation_rows(self) -> Matrix:
        rows = []
        for i, d in enumerate(self.torsion):
            row = [0] * self.rank
            row[self.free_rank + i] = d
            rows.append(row)
        return rows

    def unit(self, i: int) -> Coords:
        # every modulus is 0 or at least 2, so e_i is reduced
        row = [0] * self.rank
        row[i] = 1
        return tuple(row)

    def generators(self) -> list[Coords]:
        return [self.unit(i) for i in range(self.rank)]

    def invariant_factors(self) -> tuple[int, ...]:
        """Torsion of this group in invariant-factor form d1 | d2 | ...

        Z/a x Z/b is Z/gcd(a, b) x Z/lcm(a, b), so replacing each later
        modulus by its lcm with the first, and the first by the gcd,
        leaves a first modulus that divides every later one; the rest
        follow the same way.  No factorization is needed.
        """
        ds = list(self.torsion)
        for i in range(len(ds)):
            for j in range(i + 1, len(ds)):
                g = gcd(ds[i], ds[j])
                ds[i], ds[j] = g, ds[i] // g * ds[j]
        return tuple(d for d in ds if d > 1)

    def to_json(self) -> dict:
        return {"free": self.free_rank, "torsion": list(self.torsion)}

    @classmethod
    def from_json(cls, obj: dict) -> "FinGenAbGroup":
        return cls(int(obj["free"]), tuple(int(d) for d in obj.get("torsion", ())))

    def __str__(self) -> str:
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in self.torsion]
        return " x ".join(parts) if parts else "0"


def span(group: FinGenAbGroup, gens: Sequence[Coords], orders: Sequence[int]
         ) -> Iterator[tuple[Coords, Coords]]:
    """(c, sum_i c_i gens[i]) for every c with 0 <= c_i < orders[i], in
    lexicographic order of c.

    Each element is its predecessor plus one step: where c goes up by one
    at position j and every later position k falls back from o_k - 1 to 0,
    the step is gens[j] - sum_{k > j} (o_k - 1) gens[k].  So the elements
    after the first cost one addition each.
    """
    n = len(orders)
    steps: list[Coords] = [()] * n
    tail = [0] * group.rank             # sum_{k > j} (o_k - 1) gens[k]
    for j in range(n - 1, -1, -1):
        steps[j] = group.reduce(map(operator.sub, gens[j], tail))
        tail = [b + (orders[j] - 1) * a for a, b in zip(gens[j], tail)]
    c = [0] * n
    x = group.zero()
    yield tuple(c), x
    for _ in range(prod(orders) - 1):
        j = n - 1
        while c[j] == orders[j] - 1:
            c[j] = 0
            j -= 1
        c[j] += 1
        x = group.add(x, steps[j])
        yield tuple(c), x


# ---------------------------------------------------------------------------
# homomorphisms


@dataclass(frozen=True)
class GroupHom:
    """Homomorphism given by images of the source's standard generators."""

    source: FinGenAbGroup
    target: FinGenAbGroup
    images: tuple[Coords, ...]

    def __post_init__(self):
        if len(self.images) != self.source.rank:
            raise ValueError("one image per source generator required")
        imgs = tuple(self.target.reduce(im) for im in self.images)
        object.__setattr__(self, "images", imgs)
        for i, d in enumerate(self.source.torsion):
            im = imgs[self.source.free_rank + i]
            if any(self.target.scale(d, im)):
                raise ValueError(f"generator of order {d} maps to an element not killed by {d}")

    def apply(self, x: Coords) -> Coords:
        """sum_i x_i images[i], formed in integers and reduced once."""
        acc = [0] * self.target.rank
        for c, im in zip(self.source.reduce(x), self.images):
            if c:
                acc = [a + c * b for a, b in zip(acc, im)]
        return self.target.reduce(acc)

    def __call__(self, x: Coords) -> Coords:
        return self.apply(x)

    @cached_property
    def _preimage_form(self) -> tuple[tuple[Coords, ...], tuple[Coords, ...],
                                      tuple[Coords, ...]]:
        """(head, tail, kernel) from the one Hermite form of [images | I;
        target relations | 0; 0 | source relations].  The lattice holds
        (x, c) exactly when hom(c) = x.  Its rows with a pivot among the
        target columns, split into target parts (head) and source parts
        (tail), give the lifts of the image, in Hermite normal form, and
        a lift of a preimage of each; the source parts of the other rows
        are the lattice of the kernel, in Hermite normal form too
        (`lattice_tail`)."""
        tgt, src = self.target, self.source
        n, k = tgt.rank, src.rank
        rows = [_sparse(im) for im in self.images]
        for i, row in enumerate(rows):
            row[n + i] = 1
        rows += [{tgt.free_rank + i: d} for i, d in enumerate(tgt.torsion)]
        rows += [{n + src.free_rank + i: d} for i, d in enumerate(src.torsion)]
        head, tail, kernel = [], [], []
        for row in hermite_normal_form(rows):
            dense = [0] * (n + k)
            for j, a in row.items():
                dense[j] = a
            if min(row) < n:
                head.append(tuple(dense[:n]))
                tail.append(tuple(dense[n:]))
            else:
                kernel.append(tuple(dense[n:]))
        return tuple(head), tuple(tail), tuple(kernel)

    def image(self) -> "Subgroup":
        """The image, its lattice read off `_preimage_form`."""
        return Subgroup.of_lattice(self.target, self._preimage_form[0])

    def kernel(self) -> "Subgroup":
        """The kernel, its lattice read off `_preimage_form`."""
        return Subgroup.of_lattice(self.source, self._preimage_form[2])

    def preimage(self, x: Coords) -> Optional[Coords]:
        """A c with hom(c) = x, the only one when hom is injective, or
        None when x is outside the image: back-substitution writes x as
        a combination of the target parts of `_preimage_form`, and the
        same combination of the source parts is c."""
        head, tail, _ = self._preimage_form
        coeffs = lattice_coords(head, self.target.reduce(x))
        if coeffs is None:
            return None
        return self.source.reduce([sum(a * r[j] for a, r in zip(coeffs, tail))
                                   for j in range(self.source.rank)])

    @classmethod
    def identity(cls, group: FinGenAbGroup) -> "GroupHom":
        return cls(group, group, tuple(group.generators()))


# ---------------------------------------------------------------------------
# subgroups


class Subgroup:
    """Subgroup of a FinGenAbGroup, represented by its coordinate lattice.

    The lattice of all integer lifts of subgroup elements is kept in
    Hermite normal form, so two Subgroup objects are equal exactly when
    they describe the same subset of the same parent.
    """

    def __init__(self, parent: FinGenAbGroup, gens: Iterable[Coords]):
        self.parent = parent
        self.gens = tuple(parent.reduce(g) for g in gens)

    @classmethod
    def of_lattice(cls, parent: FinGenAbGroup, rows: Sequence[Coords]) -> "Subgroup":
        """The subgroup whose lifts are the integer span of rows, which
        must be in Hermite normal form and hold the parent's relation
        rows: the rows are its lattice as they are, with no Hermite form
        of their own, and its generators the rows reduced.  The tail of
        an augmented matrix is such a set of rows once the relations are
        among its source rows."""
        sub = cls.__new__(cls)
        sub.parent = parent
        sub.lattice = tuple(rows)
        return sub

    @cached_property
    def gens(self) -> tuple[Coords, ...]:
        """The generators, reduced: those given, or else the lattice rows."""
        return tuple(self.parent.reduce(r) for r in self.lattice)

    @cached_property
    def lattice(self) -> tuple[Coords, ...]:
        rows = [list(g) for g in self.gens] + self.parent.relation_rows()
        return hermite_normal_form(rows)

    def contains(self, x: Coords) -> bool:
        return lattice_coords(self.lattice, self.parent.reduce(x)) is not None

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subgroup) and self.parent == other.parent
                and self.lattice == other.lattice)

    def __hash__(self) -> int:
        return hash((self.parent, self.lattice))

    def __repr__(self) -> str:
        return f"Subgroup({self.parent}, {len(self.smith_gens)} generators, order {self.order()})"

    @cached_property
    def _smith(self) -> tuple[tuple[tuple[Coords, int], ...], tuple[dict[int, int], ...]]:
        """(smith_gens, the column of V for each of them).

        The relation rows, in coordinates against the lattice rows L,
        have the Smith form (diag, V, W): the generators W L of orders
        diag span the subgroup independently, and since L = V (W L), an
        element c L has the coordinates c V against them.  Generators of
        order 1 are zero and dropped; free ones go first, then the
        finite orders in an ascending divisibility chain.
        """
        basis = self.lattice
        if not basis:
            return (), ()
        coeffs = []
        for row in self.parent.relation_rows():
            c = lattice_coords(basis, row)
            assert c is not None, "relation lattice escapes the subgroup lattice"
            coeffs.append(_sparse(c))
        k = len(basis)
        orders, v, w = smith_normal_form(coeffs, k)
        keep = ([i for i in range(k) if orders[i] == 0]
                + [i for i in range(k) if orders[i] > 1])
        n = self.parent.rank
        gens = tuple((self.parent.reduce([sum(a * basis[t][j] for t, a in w[i].items())
                                          for j in range(n)]), orders[i]) for i in keep)
        return gens, tuple(v[i] for i in keep)

    @property
    def smith_gens(self) -> tuple[tuple[Coords, int], ...]:
        """Independent generators with orders (0 means infinite): free
        generators first, then finite orders in an ascending
        divisibility chain."""
        return self._smith[0]

    @cached_property
    def is_finite(self) -> bool:
        # free coordinates come first, so a lattice row with a nonzero
        # free coordinate has its pivot there
        r = self.parent.free_rank
        return not r or not any(any(row[:r]) for row in self.lattice)

    def order(self) -> Optional[int]:
        """The index of the relation lattice in the lattice: the product
        of the parent's torsion over the product of the pivots."""
        if not self.is_finite:
            return None
        return prod(self.parent.torsion) // prod(next(a for a in row if a)
                                                 for row in self.lattice)

    def elements(self) -> Iterator[Coords]:
        """Every element, through `span` of the smith_gens."""
        if not self.is_finite:
            raise ValueError("cannot enumerate an infinite subgroup")
        gens = self.smith_gens
        return (x for _, x in span(self.parent, [g for g, _ in gens], [o for _, o in gens]))

    def as_group(self) -> FinGenAbGroup:
        free = sum(1 for _, o in self.smith_gens if o == 0)
        tors = tuple(o for _, o in self.smith_gens if o > 1)
        return FinGenAbGroup(free, tors)

    def coords_of(self, x: Coords) -> Optional[Coords]:
        """Coordinates c of x in the smith_gens basis, 0 <= c_i < o_i, or
        None if x is not in the subgroup: back-substitution on the
        lattice, then the columns of V (`_smith`).  Finite subgroups
        only; ValueError on an infinite one."""
        if not self.is_finite:
            raise ValueError("coordinates need a finite subgroup")
        c = lattice_coords(self.lattice, self.parent.reduce(x))
        if c is None:
            return None
        gens, cols = self._smith
        return tuple(sum(c[t] * a for t, a in col.items()) % o
                     for col, (_, o) in zip(cols, gens))

    def image_under(self, hom: GroupHom) -> "Subgroup":
        if hom.source != self.parent:
            raise ValueError("homomorphism source does not match subgroup parent")
        return Subgroup(hom.target, [hom.apply(g) for g in self.gens])

    def preimage_under(self, hom: GroupHom) -> "Subgroup":
        if hom.target != self.parent:
            raise ValueError("homomorphism target does not match subgroup parent")
        # the tail of the rows (image_i, e_i) and (lattice row, 0) is
        # {x : x * images lies in the lattice}
        # which holds the source's relation rows, as the lattice holds
        # the target's
        n = self.parent.rank
        eye = _identity(hom.source.rank)
        rows = [im + tuple(e) for im, e in zip(hom.images, eye)]
        rows += [r + (0,) * len(eye) for r in self.lattice]
        return Subgroup.of_lattice(hom.source, lattice_tail(rows, n))

    def intersect(self, other: "Subgroup") -> "Subgroup":
        if self.parent != other.parent:
            raise ValueError("subgroups of different parents")
        return Subgroup.of_lattice(self.parent,
                                   lattice_intersect(self.lattice, other.lattice))

    def is_subset_of(self, other: "Subgroup") -> bool:
        return all(other.contains(g) for g in self.gens)


# ---------------------------------------------------------------------------
# constructions


def finitely_presented_quotient(num_gens: int, relations: Iterable[dict[int, int]]
                                ) -> tuple[FinGenAbGroup, GroupHom]:
    """Z^num_gens modulo the given sparse {col: value} relation rows, in
    invariant-factor form.

    Returns the quotient plus the projection from the free group Z^num_gens.
    """
    n = num_gens
    rel = list(relations)
    free_src = FinGenAbGroup(n)
    if not rel:
        q = FinGenAbGroup(n)
        return q, GroupHom.identity(q)
    diag, v, _ = smith_normal_form(rel, n)
    free_idx = [i for i in range(n) if diag[i] == 0]
    tors_idx = [i for i in range(n) if diag[i] > 1]
    quotient = FinGenAbGroup(len(free_idx), tuple(diag[i] for i in tors_idx))
    # the image of generator j is row j of V on the kept columns, which
    # GroupHom reduces modulo the torsion
    kept = free_idx + tors_idx
    images = [[0] * len(kept) for _ in range(n)]
    for k, i in enumerate(kept):
        for j, a in v[i].items():
            images[j][k] = a
    return quotient, GroupHom(free_src, quotient, tuple(map(tuple, images)))


def subgroup_and_quotient(group: FinGenAbGroup, gens: Iterable[Coords]
                          ) -> tuple[Subgroup, FinGenAbGroup, GroupHom]:
    """The subgroup generated by `gens`, the quotient group, and the projection."""
    gens = [group.reduce(g) for g in gens]
    sub = Subgroup(group, gens)
    rel = [_sparse(r) for r in gens + group.relation_rows()]
    quotient, raw = finitely_presented_quotient(group.rank, rel)
    proj = GroupHom(group, quotient, raw.images)
    return sub, quotient, proj


def squares_and_two_torsion(group: FinGenAbGroup) -> tuple[Subgroup, Subgroup]:
    """(squares, two-torsion) of a group: the image and the kernel of
    doubling, coordinate by coordinate.  On a free coordinate they are
    2Z and 0; on Z/d, with g = gcd(2, d), they are gZ/dZ and (d/g)Z/dZ.
    Both lattices are diagonal, so in Hermite normal form as they are."""
    def diagonal(entries: Sequence[int]) -> list[Coords]:
        return [tuple(a * int(i == j) for j in range(group.rank))
                for i, a in enumerate(entries) if a]

    moduli = group._moduli
    return (Subgroup.of_lattice(group, diagonal([gcd(2, d) for d in moduli])),
            Subgroup.of_lattice(group, diagonal([d // gcd(2, d) for d in moduli])))


def coset_canonical_rep(group: FinGenAbGroup, sub: Subgroup, x: Coords) -> Coords:
    """Lexicographically least element of the finite coset x + sub.

    The lattice holds the relation rows, so every torsion column is a
    pivot column, and a finite subgroup's lattice is zero in the free
    columns.  Taking each pivot entry into [0, pivot), row by row, leaves
    the least torsion coordinates the coset allows, one column at a time.
    """
    if not sub.is_finite:
        raise ValueError("coset representative needs a finite subgroup")
    v = list(group.reduce(x))
    for row in sub.lattice:
        pcol = next(j for j, a in enumerate(row) if a)
        q = v[pcol] // row[pcol]
        if q:
            v = [a - q * b for a, b in zip(v, row)]
    return tuple(v)
