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
    GroupHom,
    Subgroup,
    factorize,
)
from .bichar import Bicharacter, beta_isomorphism, common_modulus, standard_pair
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


def _two_height(x: Coords) -> int:
    """2-height of a nonzero x in a group of 2-power cyclic factors: the
    largest k with x in 2^k times the group."""
    return min((c & -c).bit_length() - 1 for c in x if c)


def _close_orbit(orbit: set[Coords], isometries: list[GroupHom]) -> None:
    """Add to `orbit` its images under every composite of `isometries`."""
    todo = list(orbit)
    while todo:
        y = todo.pop()
        for phi in isometries:
            z = phi.apply(y)
            if z not in orbit:
                orbit.add(z)
                todo.append(z)


def _involution_orbits(beta: Bicharacter) -> list[Coords]:
    """Representatives of the isometry orbits of the involutions of
    (T, beta), each the lexicographically least member of its orbit,
    smallest representative first.

    Each coordinate of T must have 2-power or odd order.  Every
    involution lies in the 2-power coordinates T_2, which beta pairs
    trivially with the rest, and every isometry of T_2 extends by the
    identity; so orbits are searched in T_2 and embedded back with zeros.
    Involutions are taken in lexicographic order.  One already reached
    from a representative by a composite of isometries found so far
    joins its orbit; otherwise each representative of the same 2-height
    (an isometry keeps heights) is searched for an isometry onto it, and
    the first one found joins it and closes the orbit under the
    isometries found.  An involution no search reaches starts an orbit.
    """
    moduli = beta.domain.torsion
    two = [i for i, d in enumerate(moduli) if d & (d - 1) == 0]
    if any(d % 2 == 0 for d in moduli if d & (d - 1)):
        raise ValueError("each coordinate must have 2-power or odd order")
    beta2 = Bicharacter.from_residues(FinGenAbGroup(0, tuple(moduli[i] for i in two)),
                                      beta.m, [[beta.N[i][j] for j in two] for i in two])
    dom2 = beta2.domain
    involutions = itertools.product(*((0, d // 2) for d in dom2.torsion))
    next(involutions)  # zero
    # (representative, the isometries found from it, the members of its
    # orbit they reach)
    reps: list[tuple[Coords, list[GroupHom], set[Coords]]] = []
    for x in involutions:
        if any(x in orbit for _, _, orbit in reps):
            continue
        for rep, found, orbit in reps:
            if _two_height(rep) != _two_height(x):
                continue
            images = beta_isomorphism(beta2, beta2, [(rep, x)])
            if images is not None:
                found.append(GroupHom(dom2, dom2, images))
                _close_orbit(orbit, found)
                break
        else:
            reps.append((x, [], {x}))
    out = []
    for rep, _, _ in reps:
        full = [0] * len(moduli)
        for i, c in zip(two, rep):
            full[i] = c
        out.append(tuple(full))
    return out


def enumerate_odd_fine(n: int) -> list[FineGradingDescriptor]:
    """Fine odd gradings on M(n,n): ell | n, H of order 2*ell, and one
    parity involution t0 per automorphism orbit of (H x H^, beta)."""
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
