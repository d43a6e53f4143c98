"""Isomorphism deciders and fine-grading enumerators.

Two gradings of a family are isomorphic exactly when their division
data agree and some shift g carries one block-degree coset multiset
onto the other, g Xi(gamma) = Xi(gamma').  That reduces deciding to a
finite search: any valid g must carry the first coset of the left
multiset onto some coset of the right one, so the differences of coset
representatives exhaust the candidates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd
from typing import Optional, Union

from .abgroup import (
    Coords,
    FinGenAbGroup,
    Subgroup,
    factorize,
)
from .bichar import Bicharacter, common_modulus, standard_pair
from .matgrade import (
    CheckedSpec,
    CosetMultiset,
    EmbeddedPairing,
    EvenAssocSpec,
    OddAssocGSpec,
    OddAssocTSpec,
    ParityExtension,
    check_spec,
    coset_shifts,
)
from .superlie import PSpec, check_p_spec

TRIVIAL_BETA = Bicharacter(FinGenAbGroup(0, ()), ())

OddSpec = Union[OddAssocTSpec, OddAssocGSpec]


@dataclass(frozen=True)
class IsoWitness:
    """Shift (plus optional block swap and sign twist) realizing an
    isomorphism of gradings."""

    g: Coords
    swap: bool = False
    delta: int = 1


def _same_division_data(p1: EmbeddedPairing, p2: EmbeddedPairing,
                        delta: int = 1) -> bool:
    """T = T' as subgroups of the ambient group and beta^delta = beta' on it.

    delta = -1 compares the superadjoint of the first grading, which keeps
    T, inverts beta and negates every block degree (see `_xi`).
    """
    if p1.sub != p2.sub:
        return False
    # p1.gens[i] has coordinates e_i in the first domain
    coords = [p2.abstract_coords(g) for g in p1.gens]
    mod, f1, f2 = common_modulus(p1.beta.m, p2.beta.m)
    return all((delta * n1 * f1 - p2.beta.value(x, y) * f2) % mod == 0
               for row, x in zip(p1.beta.N, coords) for n1, y in zip(row, coords))


def _common_group(c1: CheckedSpec, c2: CheckedSpec) -> FinGenAbGroup:
    if c1.spec.group != c2.spec.group:
        raise ValueError("specs live over different ambient groups")
    return c1.spec.group


def _xi(group: FinGenAbGroup, sub: Subgroup, gamma, delta: int = 1) -> CosetMultiset:
    """Coset multiset of the block degrees, negated when delta = -1."""
    return CosetMultiset.from_tuple(group, sub, (group.scale(delta, x) for x in gamma))


def _iso_even(c1: CheckedSpec, c2: CheckedSpec, delta: int = 1) -> Optional[IsoWitness]:
    group = _common_group(c1, c2)
    if not _same_division_data(c1.pairing, c2.pairing, delta):
        return None
    s1, s2, tsub = c1.spec, c2.spec, c1.pairing.sub
    xi10, xi11 = _xi(group, tsub, s1.gamma0, delta), _xi(group, tsub, s1.gamma1, delta)
    xi20, xi21 = _xi(group, tsub, s2.gamma0), _xi(group, tsub, s2.gamma1)
    g = next(coset_shifts([(xi10, xi20), (xi11, xi21)]), None)
    if g is not None:
        return IsoWitness(g)
    if len(s1.gamma0) == len(s1.gamma1):
        g = next(coset_shifts([(xi10, xi21), (xi11, xi20)]), None)
        if g is not None:
            return IsoWitness(g, swap=True)
    return None


def iso_even_assoc(s1: EvenAssocSpec, s2: EvenAssocSpec) -> Optional[IsoWitness]:
    """Witness that two even gradings on M(m,n) are isomorphic, or None.

    Requires equal (T, beta) and a shift matching both block-degree
    multisets; when the two sides of the matrix have equal size the
    swapped matching is also allowed.
    """
    return _iso_even(check_spec(s1), check_spec(s2))


def _iso_odd(c1: CheckedSpec, c2: CheckedSpec, delta: int = 1) -> Optional[IsoWitness]:
    group = _common_group(c1, c2)
    if not _same_division_data(c1.pairing, c2.pairing, delta):
        return None
    s1, s2 = c1.spec, c2.spec
    if len(s1.gamma) != len(s2.gamma):
        return None
    # T cap G: the even-degree part of the support, inside the base group
    ext = ParityExtension(group)
    base = Subgroup(ext.group, [ext.embed(g) for g in group.generators()])
    teven = Subgroup(group, [t[:-1] for t in c1.pairing.sub.intersect(base).gens])
    pair = (_xi(group, teven, s1.gamma, delta), _xi(group, teven, s2.gamma))
    g = next(coset_shifts([pair]), None)
    return None if g is None else IsoWitness(g)


def iso_odd_assoc(s1: OddSpec, s2: OddSpec) -> Optional[IsoWitness]:
    """Witness that two odd gradings on M(n,n) are isomorphic, or None.

    Either variant is accepted; G-variant data is converted first, which
    folds the parity element, the quotient pairing and the square root u
    into the support subgroup of G x Z/2 and its bicharacter.
    """
    return _iso_odd(check_spec(s1), check_spec(s2))


def iso_lie_typeI(s1, s2) -> Optional[IsoWitness]:
    """Isomorphism of the induced gradings on the special linear Lie
    superalgebra: the associative test, run for both signs delta.

    delta = -1 composes with the superadjoint, which inverts the
    bicharacter and all degree data.
    """
    c1, c2 = check_spec(s1), check_spec(s2)
    decider = _iso_even if isinstance(s1, EvenAssocSpec) else _iso_odd
    witness = decider(c1, c2)
    if witness is not None:
        return witness
    witness = decider(c1, c2, -1)
    if witness is not None:
        return IsoWitness(witness.g, witness.swap, -1)
    return None


def iso_P(s1: PSpec, s2: PSpec) -> Optional[IsoWitness]:
    """Witness that two periplectic gradings are isomorphic, or None.

    Beyond the shift on the block-degree multiset, the witness must
    relate the corner shifts by 2g + g0 = g0'.  Squares are constant on
    cosets of an elementary 2-group, so one representative per matching
    coset decides.
    """
    c1, c2 = check_p_spec(s1), check_p_spec(s2)
    group = _common_group(c1, c2)
    if not _same_division_data(c1.pairing, c2.pairing):
        return None
    s1, s2, tsub = c1.spec, c2.spec, c1.pairing.sub
    if len(s1.gamma) != len(s2.gamma):
        return None
    for g in coset_shifts([(_xi(group, tsub, s1.gamma), _xi(group, tsub, s2.gamma))]):
        if group.add(group.scale(2, g), s1.g0) == s2.g0:
            return IsoWitness(g)
    return None


# ---------------------------------------------------------------------------
# fine gradings


@dataclass(frozen=True)
class FineGradingDescriptor:
    """One fine grading up to equivalence.

    h lists cyclic factor orders of the group H whose double H x H^
    carries the division pairing; blocks are the module block counts;
    t0 is the parity-defining involution (odd family only).  spec is a
    ready-to-build grading spec over an ambient presentation of the
    universal group.
    """

    family: str                      # 'even' | 'odd' | 'p'
    h: tuple[int, ...]
    blocks: tuple[int, ...]
    t0: Optional[Coords]
    universal: FinGenAbGroup
    spec: object


def _partitions(n: int) -> list[tuple[int, ...]]:
    if n == 0:
        return [()]
    out = []

    def rec(remaining, largest, acc):
        if remaining == 0:
            out.append(tuple(acc))
            return
        for part in range(min(remaining, largest), 0, -1):
            rec(remaining - part, part, acc + [part])

    rec(n, n, [])
    return out


def abelian_groups_of_order(order: int) -> list[tuple[int, ...]]:
    """All abelian groups of the given order, each as an ascending tuple
    of prime-power cyclic factors."""
    if order < 1:
        raise ValueError("order must be positive")
    per_prime = [[tuple(p ** part for part in parts) for parts in _partitions(e)]
                 for p, e in factorize(order)]
    out = []
    for combo in itertools.product(*per_prime):
        cyclic = tuple(sorted(x for block in combo for x in block))
        out.append(cyclic)
    return sorted(out)


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _torus_spec_parts(h: tuple[int, ...], free_rank: int):
    """Ambient Z^free x (H x H^) with unit-vector support generators."""
    if h:
        _, beta = standard_pair(h)
        group = FinGenAbGroup(free_rank, h + h)
        tgens = tuple(group.unit(free_rank + i) for i in range(2 * len(h)))
    else:
        beta = TRIVIAL_BETA
        group = FinGenAbGroup(free_rank, ())
        tgens = ()
    return group, tgens, beta


def enumerate_even_fine(m: int, n: int) -> list[FineGradingDescriptor]:
    """Fine even gradings on M(m,n), one per divisor ell of gcd(m,n) and
    abelian group H of order ell."""
    if m < 1 or n < 1:
        raise ValueError("block sizes must be positive")
    out = []
    for ell in _divisors(gcd(m, n)):
        k0, k1 = m // ell, n // ell
        for h in abelian_groups_of_order(ell):
            rank = k0 + k1 - 1
            group, tgens, beta = _torus_spec_parts(h, rank)
            gamma = (group.zero(),) + tuple(group.unit(i) for i in range(rank))
            spec = EvenAssocSpec(group, tgens, beta, gamma[:k0], gamma[k0:])
            universal = FinGenAbGroup(
                rank, FinGenAbGroup(0, h + h).invariant_factors())
            out.append(FineGradingDescriptor("even", h, (k0, k1), None,
                                             universal, spec))
    return out


def _involution_orbits(beta: Bicharacter) -> list[Coords]:
    """Representatives of the isometry orbits of the involutions of
    (T, beta), each the lexicographically least member of its orbit,
    smallest representative first: for each modulus 2^a > 1 among T's
    coordinates, 2^(a-1) in the last coordinate of that modulus.

    Each coordinate of T must have 2-power or odd order.  The orbits are
    the classes of the 2-height h(x), the largest k with x in 2^k T.
    Every involution lies in the 2-power part A, which beta pairs
    trivially with the rest, and every isometry of A extends by the
    identity, so it suffices to work in A, where beta is nondegenerate
    and alternating.  An isometry is an automorphism and keeps heights.
    Conversely let x and x' be involutions of height h; write x = 2^h y.
    Then y has order 2^(h+1), and 2^k y has height exactly k for k <= h
    (more would lift x), so <y> is pure, and a bounded pure subgroup is
    a direct summand.  The character chi with chi(y) = 1/2^(h+1) that
    kills a complement has order 2^(h+1); z -> beta(., z) is injective,
    hence onto the characters, so chi = beta(., z) for a z of the same
    order.  On P = <y, z> the Gram matrix is [[0, e], [-e, 0]] with
    e = 1/2^(h+1), so a y + b z pairs trivially with P only when 2^(h+1)
    divides a and b: P is a nondegenerate plane (Z/2^(h+1))^2, and
    A = P + P^perp orthogonally, since each beta(a, .) restricted to P
    is some beta(p, .) and a - p lies in P^perp; beta stays
    nondegenerate on P^perp.  Split x' the same way.  Sending y, z to
    y', z' is an isometry of the planes; the complements are
    isomorphic groups (Krull-Schmidt), and a nondegenerate
    alternating form on a finite abelian p-group is an orthogonal sum of
    hyperbolic planes determined up to isometry by its group (C. T. C.
    Wall, "Quadratic forms on finite groups, and related topics",
    Topology 2, 1963), so the complements are isometric too.  The sum of
    the two isometries sends x to x'.  An involution of height a - 1 is
    nonzero at some coordinate of modulus 2^a and at none of smaller
    modulus, so the least one is nonzero only at the last such
    coordinate.
    """
    moduli = beta.domain.torsion
    if any(d % 2 == 0 for d in moduli if d & (d - 1)):
        raise ValueError("each coordinate must have 2-power or odd order")
    last = {d: i for i, d in enumerate(moduli) if d > 1 and d & (d - 1) == 0}
    return sorted(tuple(d // 2 if j == i else 0 for j in range(len(moduli)))
                  for d, i in last.items())


def enumerate_odd_fine(n: int) -> list[FineGradingDescriptor]:
    """Fine odd gradings on M(n,n): ell | n, H of order 2*ell, and one
    parity involution t0 per 2-height in (H x H^, beta)."""
    if n < 1:
        raise ValueError("n must be positive")
    out = []
    for ell in _divisors(n):
        k = n // ell
        for h in abelian_groups_of_order(2 * ell):
            t_group, beta = standard_pair(h)
            for t0 in _involution_orbits(beta):
                group, _, _ = _torus_spec_parts(h, k - 1)
                ext = ParityExtension(group)
                free = k - 1
                tgens = []
                for i in range(2 * len(h)):
                    s = t_group.unit(i)
                    parity = 0 if beta.value(t0, s) == 0 else 1
                    tgens.append(ext.lift(group.unit(free + i), parity))
                gamma = (group.zero(),) + tuple(group.unit(i)
                                                for i in range(free))
                spec = OddAssocTSpec(group, tuple(tgens), beta, gamma)
                universal = FinGenAbGroup(
                    free, FinGenAbGroup(0, h + h).invariant_factors())
                out.append(FineGradingDescriptor("odd", h, (k,), t0,
                                                 universal, spec))
    return out


def enumerate_P_fine(n: int) -> list[FineGradingDescriptor]:
    """Fine gradings on P(n): one per ell with 2^ell dividing n + 1."""
    if n < 2:
        raise ValueError("P(n) needs n >= 2")
    out = []
    ell = 0
    while (n + 1) % (2 ** ell) == 0:
        k = (n + 1) // 2 ** ell
        h = (2,) * ell
        group, tgens, beta = _torus_spec_parts(h, k + 1)
        g0 = group.unit(0)
        gamma = tuple(group.unit(1 + i) for i in range(k))
        spec = PSpec(group, tgens, beta, gamma, g0)
        universal = FinGenAbGroup(k, h + h)
        out.append(FineGradingDescriptor("p", h, (k,), None, universal, spec))
        ell += 1
    return out
