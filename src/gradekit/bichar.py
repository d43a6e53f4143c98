"""Alternating bicharacters on finite abelian groups.

A bicharacter on a finite group with coordinates Z/d1 x ... x Z/dk is
given by rational exponents q_ij: beta(x, y) = exp(2 pi i sum x_i q_ij
y_j).  Inside the library a root of unity is an int residue r modulo a
stated m, standing for zeta^r with zeta = exp(2 pi i / m).  A
bicharacter holds its exponents as (m, N): m is their least common
denominator and N = m q is an integer matrix reduced into [0, m), so
that beta(x, y) is the residue x N y mod m.  Rational exponents appear
only at the boundary: the constructor reads them and the q property
hands them out.  Residues of two pairings are compared after
`common_modulus` brings them to one modulus.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

from .abgroup import (
    Coords,
    FinGenAbGroup,
    GroupHom,
    Subgroup,
    factorize,
    lattice_tail,
)


def common_modulus(m1: int, m2: int) -> tuple[int, int, int]:
    """(mod, f1, f2) with mod = lcm(m1, m2): a residue r modulo m1 and a
    residue s modulo m2 name the same root of unity exactly when
    r f1 = s f2 modulo mod."""
    mod = lcm(m1, m2)
    return mod, mod // m1, mod // m2


@dataclass(frozen=True, init=False)
class Bicharacter:
    """Bicharacter on a finite group: beta(x, y) = zeta^(x N y) with
    zeta = exp(2 pi i / m), so its exponent matrix is q = N / m."""

    domain: FinGenAbGroup
    m: int
    N: tuple[tuple[int, ...], ...]

    def __init__(self, domain: FinGenAbGroup, q: Sequence[Sequence]):
        """The bicharacter with exponent matrix q, whose entries are
        anything Fraction accepts, reduced mod 1."""
        if not domain.is_finite:
            raise ValueError("bicharacter domain must be finite")
        rows = [[Fraction(v) % 1 for v in row] for row in q]
        m = lcm(1, *(v.denominator for row in rows for v in row))
        self._set(domain, m, [[v.numerator * (m // v.denominator) for v in row]
                              for row in rows])

    @classmethod
    def from_residues(cls, domain: FinGenAbGroup, m: int,
                      rows: Sequence[Sequence[int]]) -> "Bicharacter":
        """The bicharacter with exponent matrix q = rows / m."""
        if not domain.is_finite:
            raise ValueError("bicharacter domain must be finite")
        out = object.__new__(cls)
        out._set(domain, m, rows)
        return out

    def _set(self, domain: FinGenAbGroup, m: int,
             rows: Sequence[Sequence[int]]) -> None:
        """Store (m, N) with m the least common denominator of rows / m."""
        k = domain.rank
        if len(rows) != k or any(len(r) != k for r in rows):
            raise ValueError(f"exponent matrix must be {k} x {k}")
        rows = [[v % m for v in row] for row in rows]
        common = gcd(m, *(v for row in rows for v in row))
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "m", m // common)
        object.__setattr__(self, "N", tuple(tuple(v // common for v in row)
                                            for row in rows))

    @property
    def q(self) -> tuple[tuple[Fraction, ...], ...]:
        """The exponent matrix, entries Fractions in [0, 1)."""
        return tuple(tuple(Fraction(v, self.m) for v in row) for row in self.N)

    def validate(self) -> None:
        """Raise ValueError unless well defined on the domain and alternating."""
        d = self.domain.torsion
        k = self.domain.rank
        m, n = self.m, self.N
        for i in range(k):
            for j in range(k):
                if d[i] * n[i][j] % m:
                    raise ValueError(f"entry ({i},{j}) not killed by generator order {d[i]}")
                if n[i][j] * d[j] % m:
                    raise ValueError(f"entry ({i},{j}) not killed by generator order {d[j]}")
        for i in range(k):
            if n[i][i]:
                raise ValueError(f"diagonal entry ({i},{i}) is nonzero")
            for j in range(i):
                if (n[i][j] + n[j][i]) % m:
                    raise ValueError(f"entries ({i},{j}) and ({j},{i}) are not opposite")

    def value(self, x: Coords, y: Coords) -> int:
        """beta(x, y) as the residue x N y modulo m."""
        x = self.domain.reduce(x)
        y = self.domain.reduce(y)
        return sum(a * sum(c * b for c, b in zip(row, y))
                   for a, row in zip(x, self.N) if a) % self.m

    @cached_property
    def _rows_by_order(self) -> dict[int, tuple[tuple[Coords, Coords], ...]]:
        """Domain elements x grouped by order, lexicographic within an
        order, each with its integer row r = x N mod m, so that
        beta(x, y) = zeta^(r . y)."""
        m, n = self.m, self.N
        k = self.domain.rank
        out: dict[int, list[tuple[Coords, Coords]]] = {}
        for x in self.domain.elements():
            row = tuple(sum(x[i] * n[i][j] for i in range(k) if x[i]) % m
                        for j in range(k))
            out.setdefault(self.domain.element_order(x), []).append((x, row))
        return {o: tuple(elems) for o, elems in out.items()}

    @cached_property
    def _heights(self) -> dict[Coords, tuple[int, ...]]:
        """Each domain element's p-heights, one per prime p dividing the
        order: the largest h with x in p^h times the domain, or -1 when
        the p-part of x is zero.  Group isomorphisms keep them."""
        moduli = self.domain.torsion

        def valuation(p: int, c: int) -> int:
            v = 0
            while c % p == 0:
                c //= p
                v += 1
            return v

        # the p-part of c in Z/d is zero when the p-part of d divides c;
        # otherwise its p-height is the valuation of c
        parts = [(p, [p ** valuation(p, d) for d in moduli])
                 for p, _ in factorize(self.domain.order())]
        return {x: tuple(min((valuation(p, c) for c, top in zip(x, tops)
                              if c % top), default=-1)
                         for p, tops in parts)
                for x in self.domain.elements()}

    @cached_property
    def hom(self) -> GroupHom:
        """x -> x N mod m, onto (Z/m)^k: x goes to the residues of
        beta(x, e_j) at the unit generators.  Its kernel is the radical,
        and the x with beta(x, -) a given character are its preimages;
        one Hermite form (`GroupHom._preimage_form`) serves both.  Needs
        a bicharacter that `validate` accepts."""
        k = self.domain.rank
        if self.m == 1:             # the zero pairing, into the trivial group
            return GroupHom(self.domain, FinGenAbGroup(0), ((),) * k)
        return GroupHom(self.domain, FinGenAbGroup(0, (self.m,) * k), self.N)

    def radical(self) -> Subgroup:
        """Elements pairing trivially with the whole domain: the kernel of
        `hom`."""
        return self.hom.kernel()

    @cached_property
    def _nondegenerate(self) -> bool:
        return self.radical().order() == 1

    def is_nondegenerate(self) -> bool:
        return self._nondegenerate

    def orthogonal_complement(self, sub: Subgroup) -> Subgroup:
        """Elements pairing trivially with every element of `sub`: the x
        with x N g = 0 modulo m for each generator g, the tail of the
        rows (N g for every g, e_i), (m e_j, 0) and (0, d_i e_i)."""
        if sub.parent != self.domain:
            raise ValueError("subgroup lives in a different group")
        k, s, m = self.domain.rank, len(sub.gens), self.m
        rows = [tuple(sum(a * b for a, b in zip(row, g)) for g in sub.gens)
                + tuple(int(i == j) for j in range(k)) for i, row in enumerate(self.N)]
        rows += [tuple(m * int(i == j) for j in range(s)) + (0,) * k for i in range(s)]
        rows += [(0,) * s + tuple(r) for r in self.domain.relation_rows()]
        return Subgroup.of_lattice(self.domain, lattice_tail(rows, s))

    def inverse(self) -> "Bicharacter":
        return Bicharacter.from_residues(self.domain, self.m,
                                         [[-v for v in row] for row in self.N])

    def symplectic_decomposition(self) -> "DualPairDecomposition":
        """Split the domain into mutually orthogonal dual pairs.

        Requires a nondegenerate alternating bicharacter.  Pivots are
        chosen deterministically among the elements orthogonal to the
        pairs chosen before: the lex-least element of maximal order, then
        the lex-least partner pairing to a root of that exact order (a
        residue v modulo m has order m / gcd(v, m)).
        """
        group = self.domain
        if not self.is_nondegenerate():
            raise ValueError("bicharacter is degenerate")
        # the part of the domain orthogonal to the pairs so far, sorted
        current = sorted(group.elements())
        pairs: list[tuple[Coords, Coords, int]] = []
        while len(current) > 1:
            a = min((e for e in current if e != group.zero()),
                    key=lambda e: (-group.element_order(e), e))
            o = group.element_order(a)
            b = next((e for e in current
                      if self.m // gcd(self.value(a, e), self.m) == o), None)
            if b is None:
                raise ValueError("no dual partner found; bicharacter is degenerate")
            pairs.append((a, b, o))
            nxt = [e for e in current if self.value(a, e) == 0 and self.value(b, e) == 0]
            assert len(nxt) * o * o == len(current), "dual pair does not split off"
            current = nxt
        return DualPairDecomposition(self, tuple(pairs))


@dataclass(frozen=True)
class DualPairDecomposition:
    """Dual pairs (a_i, b_i) of exact order o_i spanning the domain.

    beta(a_i, b_i) has order o_i, all other generator pairs are
    orthogonal, and orders descend: o_1 >= o_2 >= ...
    """

    beta: Bicharacter
    pairs: tuple[tuple[Coords, Coords, int], ...]

    @property
    def orders(self) -> tuple[int, ...]:
        return tuple(o for _, _, o in self.pairs)

    @property
    def a_gens(self) -> tuple[Coords, ...]:
        return tuple(a for a, _, _ in self.pairs)

    @property
    def b_gens(self) -> tuple[Coords, ...]:
        return tuple(b for _, b, _ in self.pairs)


def standard_pair(h_moduli: Sequence[int]) -> tuple[FinGenAbGroup, Bicharacter]:
    """The group H x H^ with its canonical pairing, H = Z/h1 x ... x Z/hp.

    Coordinates are the h-list twice over.  The exponent matrix pairs
    coordinate i with coordinate p+i at 1/h_i, with the opposite sign
    below the diagonal.
    """
    h = tuple(int(x) for x in h_moduli)
    if any(x < 2 for x in h):
        raise ValueError("moduli must be >= 2")
    p = len(h)
    group = FinGenAbGroup(0, h + h)
    m = lcm(*h)
    n = [[0] * (2 * p) for _ in range(2 * p)]
    for i, hi in enumerate(h):
        n[i][p + i] = m // hi
        n[p + i][i] = -(m // hi)
    return group, Bicharacter.from_residues(group, m, n)


def beta_isomorphism(b1: Bicharacter, b2: Bicharacter,
                     pins: Iterable[tuple[Coords, Coords]] = ()
                     ) -> Optional[tuple[Coords, ...]]:
    """Images of b1's unit generators under some isomorphism onto b2, or None.

    Searches for a group isomorphism phi with b2(phi x, phi y) = b1(x, y)
    and phi(s) = t for every pinned pair (s, t).  Requires b1
    nondegenerate: any pairing-preserving homomorphism is then injective,
    so equal orders make it bijective.

    Pairings are compared as residues modulo the `common_modulus` of the
    two pairings.  Pins must agree in order, in p-heights and in their
    pairings with each other.  Generators in the support of a pin are
    assigned first, pin by pin, so each pin is checked as soon as its
    support is assigned; before that, a pin (s, t) already asks that
    b2(phi e, t) = b1(e, s) for each generator e.  A candidate image must
    have its generator's order and pair with the images chosen so far as
    the generators do, and the map it extends to the span of the
    generators assigned so far must stay injective and keep p-heights,
    as any isomorphism does.
    """
    g1, g2 = b1.domain, b2.domain
    if g1.order() != g2.order():
        return None
    if not b1.is_nondegenerate():
        raise ValueError("source bicharacter must be nondegenerate")
    pins = [(g1.reduce(s), g2.reduce(t)) for s, t in pins]
    n1, n2 = b1.N, b2.N
    mod, f1, f2 = common_modulus(b1.m, b2.m)

    def pairing(n: tuple[tuple[int, ...], ...], f: int, x: Coords, y: Coords) -> int:
        """beta(x, y) for beta = n / m, times mod = f * m, reduced."""
        return sum(a * c * b for a, row in zip(x, n) if a
                   for c, b in zip(row, y)) * f % mod

    heights1, heights2 = b1._heights, b2._heights
    if any(g1.element_order(s) != g2.element_order(t)
           or heights1[s] != heights2[t] for s, t in pins):
        return None
    if any(pairing(n1, f1, s, s2) != pairing(n2, f2, t, t2)
           for a, (s, t) in enumerate(pins) for s2, t2 in pins[:a]):
        return None
    k = g1.rank
    if k == 0:
        return ()

    order: list[int] = []
    for s, _ in pins:
        order += [i for i in range(k) if s[i] and i not in order]
    order += [i for i in range(k) if i not in order]
    depth_of = {gen: depth for depth, gen in enumerate(order)}
    # pin (s, t) is checked once every generator in its support is assigned
    pin_at: dict[int, list[tuple[Coords, Coords]]] = {}
    for s, t in pins:
        if any(s):
            last = max(depth_of[i] for i in range(k) if s[i])
            pin_at.setdefault(last, []).append((s, t))
    # want[d]: the pairings of generator order[d] with the generators
    # assigned before it; pinned[d]: (t, b1(order[d], s)) per pin (s, t)
    want = [[pairing(n1, f1, g1.unit(gen), g1.unit(order[j]))
             for j in range(d)] for d, gen in enumerate(order)]
    pinned = [[(t, pairing(n1, f1, g1.unit(gen), s)) for s, t in pins]
              for gen in order]
    cands = [b2._rows_by_order.get(g1.torsion[gen], ()) for gen in order]

    def grow(known: dict[Coords, Coords], gen: int, cand: Coords
             ) -> Optional[dict[Coords, Coords]]:
        """The map `known` extended to one more generator, sent to cand;
        None unless it stays injective and keeps every p-height."""
        steps = [(g1.zero(), g2.zero())]
        for _ in range(g1.torsion[gen] - 1):
            s, t = steps[-1]
            steps.append((g1.add(s, g1.unit(gen)), g2.add(t, cand)))
        grown: dict[Coords, Coords] = {}
        hit: set[Coords] = set()
        for src, img in known.items():
            for s, t in steps:
                s, t = g1.add(src, s), g2.add(img, t)
                if t in hit or heights1[s] != heights2[t]:
                    return None
                hit.add(t)
                grown[s] = t
        return grown

    images: list[Coords] = []
    # maps[d]: the partial isomorphism on the span of the first d generators
    maps: list[dict[Coords, Coords]] = [{g1.zero(): g2.zero()}]

    def extend(depth: int) -> bool:
        if depth == k:
            return True
        partners = list(zip(images, want[depth])) + pinned[depth]
        for cand, row in cands[depth]:
            if any((sum(r * y for r, y in zip(row, other)) * f2 - w) % mod
                   for other, w in partners):
                continue
            grown = grow(maps[depth], order[depth], cand)
            if grown is None or any(grown[s] != t
                                    for s, t in pin_at.get(depth, ())):
                continue
            images.append(cand)
            maps.append(grown)
            if extend(depth + 1):
                return True
            images.pop()
            maps.pop()
        return False

    if not extend(0):
        return None
    return tuple(images[depth_of[gen]] for gen in range(k))
