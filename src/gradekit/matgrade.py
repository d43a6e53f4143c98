"""Gradings on the matrix superalgebra M(m,n) by abelian groups.

A grading is specified by a finite subgroup T of the grading group (or
of its parity extension G# = G x Z/2), a nondegenerate alternating
bicharacter on T, and a tuple of block degrees.  This module builds the
explicit matrix models, verifies them, coarsens them, converts between
the two descriptions of gradings with odd support, and computes
universal grading groups.

Validation happens once per spec, in `check_spec`.  It reduces
coordinates, converts a G-description to explicit support, builds the
spec's one `EmbeddedPairing` and checks it, and for odd specs finds the
parity element t0.  `build_matrix_model` and the deciders in `classify`
read the `CheckedSpec` it returns, whose `source` is the input with
coordinates reduced.

Coordinates: elements of G# carry the parity bit as the last
coordinate.  Subgroup generators handed to a spec must be independent
(the listed generators map isomorphically onto the subgroup they
generate); every constructor here emits that form.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from math import lcm
from typing import Iterable, Iterator, Optional, Sequence, Union

from .abgroup import (
    Coords,
    FinGenAbGroup,
    GroupHom,
    Subgroup,
    coset_canonical_rep,
    finitely_presented_quotient,
    hermite_normal_form,
    span,
    squares_and_two_torsion,
    subgroup_and_quotient,
)
from .bichar import Bicharacter, common_modulus
from .graddiv import (
    StandardRealization,
    element_failures,
    generator_products,
    product_table,
    realization_failures,
)


class ParityExtension:
    """G x Z/2 with the parity bit appended as the last coordinate."""

    def __init__(self, base: FinGenAbGroup):
        self.base = base
        self.group = FinGenAbGroup(base.free_rank, base.torsion + (2,))

    def embed(self, g: Coords) -> Coords:
        return self.lift(g, 0)

    def lift(self, g: Coords, bit: int) -> Coords:
        return self.group.reduce(tuple(g) + (bit,))

    def base_part(self, x: Coords) -> Coords:
        return self.base.reduce(x[:-1])

    def bit(self, x: Coords) -> int:
        """The parity bit of an element of G x Z/2."""
        return x[-1]

    def extend_hom(self, alpha: GroupHom) -> GroupHom:
        """alpha x id on the parity bit."""
        if alpha.source != self.base:
            raise ValueError("homomorphism does not start at the base group")
        target_ext = ParityExtension(alpha.target)
        images = [target_ext.embed(im) for im in alpha.images]
        images.append(target_ext.lift(alpha.target.zero(), 1))
        return GroupHom(self.group, target_ext.group, tuple(images))


class EmbeddedPairing:
    """A bicharacter on a finite subgroup T of an ambient group.

    The bicharacter is stored on an abstract group with one coordinate
    per listed generator; the generators must be independent so that
    values transfer to T unambiguously.  The domain maps onto T, so
    `check` finds them independent exactly when T and the domain have
    the same order.  `elements` pairs every domain element with its
    image in T; it is built on first use, never by `check`.
    `abstract_coords` solves for the domain element over T through
    `GroupHom.preimage`, with no table.
    """

    def __init__(self, ambient: FinGenAbGroup, gens: tuple[Coords, ...],
                 beta: Bicharacter):
        if beta.domain.rank != len(gens):
            raise ValueError("one generator per bicharacter coordinate required")
        self.ambient = ambient
        self.gens = tuple(ambient.reduce(g) for g in gens)
        self.beta = beta
        self.hom = GroupHom(beta.domain, ambient, self.gens)
        self.sub = Subgroup(ambient, self.gens)

    def check(self) -> None:
        """Validate the pairing: alternating, independent generators, nondegenerate."""
        self.beta.validate()
        if self.sub.order() != self.beta.domain.order():
            raise ValueError("subgroup generators are not independent")
        if not self.beta.is_nondegenerate():
            raise ValueError("bicharacter is degenerate")

    @cached_property
    def elements(self) -> tuple[tuple[Coords, Coords], ...]:
        """(t_abs, t) for every element t_abs of the domain, in sorted
        order, with t its image in T: the `span` of the generators."""
        return tuple(span(self.ambient, self.gens, self.beta.domain.torsion))

    def abstract_coords(self, x: Coords) -> Coords:
        got = self.hom.preimage(x)
        if got is None:
            raise ValueError(f"{self.ambient.reduce(x)} is not in the support subgroup")
        return got

    def push(self, dom: Coords) -> Coords:
        return self.hom.apply(dom)

    def value(self, x: Coords, y: Coords) -> int:
        """beta(x, y) for x, y in T, a residue modulo beta.m."""
        return self.beta.value(self.abstract_coords(x), self.abstract_coords(y))


# ---------------------------------------------------------------------------
# specs


@dataclass(frozen=True)
class EvenAssocSpec:
    """Even grading on M(m,n): T inside G, block degrees split by parity."""

    group: FinGenAbGroup
    tgens: tuple[Coords, ...]
    beta: Bicharacter
    gamma0: tuple[Coords, ...]
    gamma1: tuple[Coords, ...]


@dataclass(frozen=True)
class OddAssocTSpec:
    """Odd grading on M(n,n): T inside G# with odd elements, degrees in G#."""

    group: FinGenAbGroup
    tgens: tuple[Coords, ...]
    beta: Bicharacter
    gamma: tuple[Coords, ...]


@dataclass(frozen=True)
class OddAssocGSpec:
    """Odd grading described inside G itself.

    t0 has order 2; tbar_gens are lifts in G of generators of a subgroup
    of G/<t0> carrying beta_bar; u squares to the element derived from
    the canonical character.
    """

    group: FinGenAbGroup
    t0: Coords
    tbar_gens: tuple[Coords, ...]
    beta_bar: Bicharacter
    u: Coords
    gamma: tuple[Coords, ...]


GradingSpec = Union[EvenAssocSpec, OddAssocTSpec, OddAssocGSpec]


@dataclass(frozen=True)
class CheckedSpec:
    """A spec that passed `check_spec`: the input with coordinates
    reduced, its explicit-support form (the input itself unless it is a
    G-description), the one checked pairing of that form, and for odd
    specs the parity element t0 in G."""

    source: object
    spec: object
    pairing: EmbeddedPairing
    t0: Optional[Coords] = None


def check_spec(spec: GradingSpec) -> CheckedSpec:
    """Validate a spec once and derive (T, beta, t0) from it."""
    if not isinstance(spec, (EvenAssocSpec, OddAssocTSpec, OddAssocGSpec)):
        raise TypeError(f"not a grading spec: {type(spec).__name__}")
    g = spec.group
    ext = ParityExtension(g)

    def reduced(xs, group=g):
        return tuple(group.reduce(x) for x in xs)

    if isinstance(spec, EvenAssocSpec):
        source = replace(spec, tgens=reduced(spec.tgens), gamma0=reduced(spec.gamma0),
                         gamma1=reduced(spec.gamma1))
        if not source.gamma0 or not source.gamma1:
            raise ValueError("both block-degree tuples must be nonempty")
        pairing = EmbeddedPairing(g, source.tgens, source.beta)
        pairing.check()
        return CheckedSpec(source, source, pairing)
    if isinstance(spec, OddAssocTSpec):
        source = replace(spec, tgens=reduced(spec.tgens, ext.group),
                         gamma=reduced(spec.gamma))
    else:
        source = replace(spec, t0=g.reduce(spec.t0), tbar_gens=reduced(spec.tbar_gens),
                         u=g.reduce(spec.u), gamma=reduced(spec.gamma))
    if not source.gamma:
        raise ValueError("the block-degree tuple must be nonempty")
    out = source if isinstance(source, OddAssocTSpec) else build_odd_from_G(source)
    pairing = EmbeddedPairing(ext.group, out.tgens, out.beta)
    pairing.check()
    if all(ext.bit(t) == 0 for t in out.tgens):
        raise ValueError("support has no odd elements; use an even spec")
    t0 = _parity_element(pairing, ext)
    if out is not source and t0 != source.t0:
        raise RuntimeError("constructed support has the wrong parity element")
    return CheckedSpec(source, out, pairing, t0)


# ---------------------------------------------------------------------------
# coset multisets


@dataclass(frozen=True)
class CosetMultiset:
    """Multiset of cosets of a finite subgroup, keyed by canonical reps."""

    group: FinGenAbGroup
    sub: Subgroup
    counts: tuple[tuple[Coords, int], ...]

    @classmethod
    def from_tuple(cls, group: FinGenAbGroup, sub: Subgroup,
                   gamma: Iterable[Coords]) -> "CosetMultiset":
        acc: dict[Coords, int] = {}
        for g in gamma:
            rep = coset_canonical_rep(group, sub, g)
            acc[rep] = acc.get(rep, 0) + 1
        return cls(group, sub, tuple(sorted(acc.items())))

    def shift(self, g: Coords) -> "CosetMultiset":
        acc = {coset_canonical_rep(self.group, self.sub, self.group.add(g, rep)): c
               for rep, c in self.counts}
        return CosetMultiset(self.group, self.sub, tuple(sorted(acc.items())))

    def reps(self) -> tuple[Coords, ...]:
        return tuple(rep for rep, _ in self.counts)


def coset_shifts(pairs: Sequence[tuple[CosetMultiset, CosetMultiset]]
                 ) -> Iterator[Coords]:
    """Every g with xi.shift(g) == target for each (xi, target) given,
    found among the differences of the first pair's representatives."""
    first, target = pairs[0]
    group = first.group
    base = first.reps()[0]
    for rep in target.reps():
        g = group.sub(rep, base)
        if all(xi.shift(g) == want for xi, want in pairs):
            yield g


# ---------------------------------------------------------------------------
# matrix models


@dataclass(frozen=True)
class BasisElement:
    """One element E_ij (x) X_t of a model, keyed by (i, j, t_abs): X_t is
    `realization.matrix(t_abs)` and t is `pairing.push(t_abs)`."""

    i: int
    j: int
    t_abs: Coords      # coordinates in the bicharacter domain
    degree: Coords     # in the model's degree group
    parity: int
    z_degree: int      # block degree in the canonical Z-grading (even models)


class GradedMatrixModel:
    """Explicit homogeneous basis of M(m,n) with exact product structure;
    `index` maps each key (i, j, t_abs) to its position in `basis`."""

    def __init__(self, kind, base_group, degree_group, sizes, basis, pairing,
                 realization, parity_coords):
        self.kind = kind                      # 'even' | 'odd'
        self.base_group = base_group          # G
        self.degree_group = degree_group      # G or G x Z/2
        self.sizes = sizes                    # (m, n)
        self.basis: tuple[BasisElement, ...] = basis
        self.pairing: EmbeddedPairing = pairing
        self.realization: StandardRealization = realization
        self.parity_coords = parity_coords    # u0 in G# for odd models, else None
        self.index = {(b.i, b.j, b.t_abs): n for n, b in enumerate(self.basis)}

    def base_degree(self, elem: BasisElement) -> Coords:
        if self.kind == "even":
            return elem.degree
        return self.base_group.reduce(elem.degree[:-1])

    def support(self) -> tuple[Coords, ...]:
        return tuple(sorted({self.base_degree(b) for b in self.basis}))

    def dimension_table(self) -> dict[tuple[Coords, int], int]:
        """Dimension of each (base degree, parity) component."""
        out: dict[tuple[Coords, int], int] = {}
        for b in self.basis:
            key = (self.base_degree(b), b.parity)
            out[key] = out.get(key, 0) + 1
        return out


def build_matrix_model(spec: Union[GradingSpec, CheckedSpec]) -> GradedMatrixModel:
    """The model of a spec, or of a spec `check_spec` has already passed:
    E_ij (x) X_t of degree gamma_i - gamma_j + t for every t in T, in the
    pairing's domain order, its parity the block's plus t's parity bit."""
    checked = spec if isinstance(spec, CheckedSpec) else check_spec(spec)
    src = checked.spec
    g = src.group
    real = StandardRealization(src.beta)
    d = real.size
    if checked.t0 is None:
        kind, gamma, k0 = "even", src.gamma0 + src.gamma1, len(src.gamma0)
        sizes = (k0 * d, len(src.gamma1) * d)
        degree_group, bit_tail, u0 = g, (), None
    else:
        kind, gamma, k0 = "odd", src.gamma, len(src.gamma)
        if (k0 * d) % 2:
            raise ValueError("matrix size is odd; support cannot be odd")
        sizes = (k0 * d // 2,) * 2
        ext = ParityExtension(g)
        degree_group, bit_tail, u0 = ext.group, (0,), ext.embed(checked.t0)
    # t's parity bit is its coordinate past G's, present only for odd specs
    torus = [(t_abs, t, sum(t[g.rank:])) for t_abs, t in checked.pairing.elements]
    basis = []
    for i, gi in enumerate(gamma):
        for j, gj in enumerate(gamma):
            side_i, side_j = int(i >= k0), int(j >= k0)
            block = g.sub(gi, gj) + bit_tail
            for t_abs, t, bit in torus:
                basis.append(BasisElement(i, j, t_abs, degree_group.add(block, t),
                                          side_i ^ side_j ^ bit, side_i - side_j))
    return GradedMatrixModel(kind, g, degree_group, sizes, tuple(basis),
                             checked.pairing, real, u0)


def coarsen(model: GradedMatrixModel, alpha: GroupHom) -> GradedMatrixModel:
    """Relabel all degrees through a homomorphism out of the base group."""
    if alpha.source != model.base_group:
        raise ValueError("homomorphism does not start at the grading group")
    hom = (alpha if model.kind == "even"
           else ParityExtension(model.base_group).extend_hom(alpha))
    basis = tuple(replace(b, degree=hom.apply(b.degree)) for b in model.basis)
    u0 = model.parity_coords
    return GradedMatrixModel(model.kind, alpha.target, hom.target, model.sizes,
                             basis, model.pairing, model.realization,
                             None if u0 is None else hom.apply(u0))


@dataclass
class GradingReport:
    ok: bool
    failures: list[str]
    support: tuple[Coords, ...]
    supp_even: tuple[Coords, ...]
    supp_odd: tuple[Coords, ...]
    stats: dict[str, int] = field(default_factory=dict)


def grid_failures(model: GradedMatrixModel) -> list[str]:
    """The keys (i, j, t_abs) of the block grid range(k)^2 x the pairing's
    domain, k = sum(sizes) // realization.size, that the basis lacks, then
    in basis order each element outside that grid or with a key met
    before; every element named (i, j, t) by t = push(t_abs)."""
    k = sum(model.sizes) // model.realization.size
    elements = model.pairing.elements
    failures = [f"basis element {(i, j, t)} is missing"
                for i in range(k) for j in range(k) for t_abs, t in elements
                if (i, j, t_abs) not in model.index]
    # every grid key is present, so a basis no larger than the grid is the grid
    if not failures and len(model.basis) == k * k * len(elements):
        return failures
    domain, seen = {t_abs for t_abs, _ in elements}, set()
    for b in model.basis:
        key, name = (b.i, b.j, b.t_abs), (b.i, b.j, model.pairing.push(b.t_abs))
        if not (0 <= b.i < k and 0 <= b.j < k and b.t_abs in domain):
            failures.append(f"basis element {name} is outside the block grid")
        elif key in seen:
            failures.append(f"basis element {name} is duplicated")
        seen.add(key)
    return failures


def _factorized_product_rule(model: GradedMatrixModel, table) -> bool:
    """Whether the product rule holds on every compatible basis pair of a
    model whose basis is the block grid (`grid_failures` empty), by the
    block x torus factorization v(E_ij X_t) = B(i, j) + tau(t) of
    v = (degree, parity mod 2), in O(k^2 |T| + len(table)):
      (a) every v splits so, with B read at t_abs = 0 and tau on block (0, 0);
      (b) B(j, j) = 0 and B(i, j) = B(i, 0) + B(0, j) for all rows i, j;
      (c) tau(t) + tau(s) = tau(t + s) for every table entry (t, s).
    (b) gives B(i, j) + B(j, l) = B(i, 0) + B(0, l) = B(i, l), since
    B(0, j) + B(j, 0) = B(j, j) = 0.  With table = `product_table`, (c)
    holds for every pair; with table = `generator_products`, for every
    t and unit generator g, and then tau is a homomorphism: tau(0) = 0,
    and tau(t + s + g) = tau(t + s) + tau(g) = tau(t) + tau(s + g) by
    induction on the length of s as a word in the generators.  Either
    way v(x) + v(y) = v(target) for every pair `_pair_failures` visits,
    whose product lands on E_il X_{t+s}.
    """
    vg = ParityExtension(model.degree_group).group
    add = vg.add
    basis = model.basis
    vec = [b.degree + (b.parity,) for b in basis]
    if not vec or any(len(v) != vg.rank for v in vec):
        return False
    zero = model.pairing.beta.domain.zero()
    block = {(b.i, b.j): v for b, v in zip(basis, vec) if b.t_abs == zero}
    origin = vg.neg(block[0, 0])
    tau = {b.t_abs: add(v, origin) for b, v in zip(basis, vec) if b.i == b.j == 0}
    rows = range(sum(model.sizes) // model.realization.size)
    vzero = vg.zero()
    return (all(v == add(block[b.i, b.j], tau[b.t_abs]) for b, v in zip(basis, vec))
            and all(block[j, j] == vzero for j in rows)
            and all(add(block[i, 0], block[0, j]) == block[i, j]
                    for i in rows for j in rows)
            and all(entry is not None and add(tau[t], tau[s]) == tau[entry[1]]
                    for (t, s), entry in table.items()))


def _pair_failures(model: GradedMatrixModel, table) -> list[str]:
    """The degree and parity of every compatible basis pair, checked
    against the table's entry for its (t, s): one finding per failing
    pair, in basis order, naming each element (i, j, t) by t in T."""
    dg = model.degree_group
    push = model.pairing.push

    def pair(x: BasisElement, y: BasisElement) -> str:
        return f"{(x.i, x.j, push(x.t_abs))} * {(y.i, y.j, push(y.t_abs))}"

    by_row: dict[int, list[BasisElement]] = {}
    for b in model.basis:
        by_row.setdefault(b.i, []).append(b)
    failures = []
    for x in model.basis:
        for y in by_row.get(x.j, ()):
            entry = table[x.t_abs, y.t_abs]
            if entry is None:
                failures.append(f"product of X_{x.t_abs} and X_{y.t_abs} "
                                "is not a root multiple of the expected basis matrix")
                continue
            n = model.index.get((x.i, y.j, entry[1]))
            if n is None:
                failures.append(f"product of {pair(x, y)} lands on no basis element")
                continue
            target = model.basis[n]
            want = dg.add(x.degree, y.degree)
            if target.degree != want:
                failures.append(f"degree of {pair(x, y)} is {target.degree}, "
                                f"expected {want}")
            if target.parity != (x.parity + y.parity) % 2:
                failures.append(f"parity of {pair(x, y)} is not additive")
    return failures


def verify_grading(model: GradedMatrixModel) -> GradingReport:
    """Check the realization identities, that the basis is the block grid
    (`grid_failures`), then the product rule on every compatible basis pair.

    First a proof from the generators of the pairing's domain, with
    |T| r products for r generators: `generator_products` proves the
    product and commutation identities for every pair (t, s),
    `element_failures` checks traces and transposes per element, and
    `_factorized_product_rule` on the generator entries proves the rule
    for every compatible basis pair.  When any of these fails, each
    product X_t X_s is formed once, in a table over the domain, and the
    realization identities are checked pair by pair; the product rule is
    then proved through the factorization on the full table, and off the
    block grid, or when that proof does not go through, every pair is
    checked, so `failures` lists every failing pair.  Either way
    `distinct_products` (|T|^2) and `pairs_checked` count the products
    and the compatible pairs that the verdict covers."""
    real = model.realization
    beta = model.pairing.beta
    products = generator_products(real, beta)
    grid = grid_failures(model)
    if (products is None or grid or element_failures(real)
            or not _factorized_product_rule(model, products)):
        table = product_table(real)
        failures = realization_failures(real, table, beta) + grid
        if grid or not _factorized_product_rule(model, table):
            failures += _pair_failures(model, table)
    else:
        failures = []
    row_size: dict[int, int] = {}
    for b in model.basis:
        row_size[b.i] = row_size.get(b.i, 0) + 1
    pairs = sum(row_size.get(b.j, 0) for b in model.basis)
    support = model.support()
    supp_even = tuple(sorted({b.degree for b in model.basis if b.parity == 0}))
    supp_odd = tuple(sorted({b.degree for b in model.basis if b.parity == 1}))
    stats = {"pairs_checked": pairs, "distinct_products": real.group.order() ** 2}
    return GradingReport(not failures, failures, support, supp_even, supp_odd, stats)


# ---------------------------------------------------------------------------
# parity elements and the odd <-> G-description conversion


def _bit_subgroup(pairing: EmbeddedPairing, ext: ParityExtension) -> Subgroup:
    """The bit-0 part of the support, as a subgroup of the abstract domain."""
    dom = pairing.beta.domain
    z2 = FinGenAbGroup(0, (2,))
    bits = tuple((ext.bit(g),) for g in pairing.gens)
    to_bit = GroupHom(dom, z2, bits)
    return Subgroup(z2, []).preimage_under(to_bit)


def _parity_element(pairing: EmbeddedPairing, ext: ParityExtension) -> Coords:
    """The order-2 element t0 of G whose character separates the even
    from the odd support a pairing inside G# lives on."""
    plus = _bit_subgroup(pairing, ext)
    comp = pairing.beta.orthogonal_complement(plus)
    if comp.order() != 2:
        raise ValueError("orthogonal complement of the even support "
                         f"has order {comp.order()}, expected 2")
    gen = next(g for g in comp.gens if any(g))
    u0 = pairing.push(gen)
    if ext.bit(u0) != 0:
        raise ValueError("parity element has odd parity; spec is corrupted")
    return ext.base_part(u0)


def _character_on(sub: Subgroup, vector: tuple[int, ...], mod: int):
    """The character of a finite subgroup given by dual coordinates, with
    values residues modulo mod, a multiple of every order of sub."""
    gens = sub.smith_gens

    def chi(x: Coords) -> int:
        coords = sub.coords_of(x)
        if coords is None:
            raise ValueError(f"{x} is outside the subgroup")
        return sum(c * xc * (mod // o)
                   for c, xc, (_, o) in zip(vector, coords, gens)) % mod

    return chi


def _canonical_chi(t_plus: Subgroup, t0: Coords, mod: int):
    """Lexicographically least character of T+ taking -1 at t0, with
    values residues modulo mod, a multiple of every order of T+.

    A character is a dual vector c against the Smith generators, of
    orders o_i: chi_c(x) = sum_i c_i x_i / o_i mod 1 on the coordinates
    x_i of x.  t0 has order 2 (`_quotient_data` checks it), so each
    coordinate d_i of t0 is 0 or o_i / 2, and chi_c(t0) is half the sum
    of the c_i over the set S of i with d_i != 0, mod 1: chi_c takes -1
    at t0 iff that sum is odd.  Let j be the last index in S.  Then e_j
    sums to 1 over S, and every c less than e_j is 0 up to and including
    j, so it sums to 0 over S: the least character is chi_{e_j}.
    """
    t0_coords = t_plus.coords_of(t0)
    if t0_coords is None:
        raise ValueError("t0 does not lie in the support")
    if not any(t0_coords):
        raise ValueError("no character separates t0; is it the identity?")
    j = max(i for i, d in enumerate(t0_coords) if d)
    return _character_on(t_plus, tuple(int(i == j) for i in range(len(t0_coords))), mod)


def _quotient_data(group: FinGenAbGroup, t0: Coords,
                   tbar_gens: tuple[Coords, ...], beta_bar: Bicharacter):
    """t0 reduced, the projection theta onto G/<t0>, the checked pairing
    beta_bar on the images of the lifts, T+ (its preimage in G), and the
    verdict of odd_existence_check."""
    t0 = group.reduce(t0)
    if group.element_order(t0) != 2:
        raise ValueError("t0 must have order 2")
    _, gbar, theta = subgroup_and_quotient(group, [t0])
    bar_pairing = EmbeddedPairing(gbar, tuple(theta(t) for t in tbar_gens), beta_bar)
    bar_pairing.check()
    t_plus = bar_pairing.sub.preimage_under(theta)
    _, g_two = squares_and_two_torsion(group)
    # the image of the two-torsion of T+, read in beta_bar's domain: the
    # pairing's map is injective, so that is the image's preimage under
    # it, found without tabulating the support
    r_abstract = t_plus.intersect(g_two).image_under(theta).preimage_under(bar_pairing.hom)
    comp = beta_bar.orthogonal_complement(r_abstract)
    r_comp = Subgroup(gbar, [bar_pairing.push(x) for x, _ in comp.smith_gens])
    gbar_squares, _ = squares_and_two_torsion(gbar)
    return t0, theta, bar_pairing, t_plus, r_comp.is_subset_of(gbar_squares)


def odd_existence_check(group: FinGenAbGroup, t0: Coords,
                        tbar_gens: tuple[Coords, ...],
                        beta_bar: Bicharacter) -> bool:
    """Whether the given quotient data extends to an odd grading support.

    tbar_gens are lifts in G; the test compares the complement of the
    pushed-down two-torsion with the squares of the quotient group.
    """
    return _quotient_data(group, t0, tbar_gens, beta_bar)[-1]


def build_odd_from_G(spec: OddAssocGSpec) -> OddAssocTSpec:
    """Convert the G-description of an odd grading to explicit support in G#.

    No subgroup is listed.  abar, the element of Tbar pairing as chi
    squared, is one `GroupHom.preimage`; a is its lift through the
    tbar_gens, moved by t0 where chi is 1/2; beta is read from one (bit,
    coordinates of theta(s), chi(s)) triple per generator (s + bit u,
    bit) of T_u.  `check_spec` checks the pairing of the result and that
    its parity element is the given t0.
    """
    g = spec.group
    t0, theta, bar_pairing, t_plus, extends = _quotient_data(
        g, spec.t0, spec.tbar_gens, spec.beta_bar)
    if not extends:
        raise ValueError("no odd grading exists for this quotient data")
    beta_bar = bar_pairing.beta
    # chi and beta_bar in residues modulo one common modulus
    mod, f_bar, _ = common_modulus(beta_bar.m, lcm(*(o for _, o in t_plus.smith_gens)))
    chi = _canonical_chi(t_plus, t0, mod)
    # abar is the preimage of (2 chi(s))_s under x -> (beta_bar(x, theta(s)))_s
    # over the generators s of T+; beta_bar is nondegenerate and the
    # theta(s) span Tbar, so that map is injective
    plus = [(bar_pairing.abstract_coords(theta(s)), chi(s)) for s, _ in t_plus.smith_gens]
    pair_with = GroupHom(beta_bar.domain, FinGenAbGroup(0, (mod,) * len(plus)),
                         tuple(tuple(beta_bar.value(e, y) * f_bar for y, _ in plus)
                               for e in beta_bar.domain.generators()))
    a_bar = pair_with.preimage([2 * c for _, c in plus])
    assert a_bar is not None, "chi^2 must be represented by the nondegenerate pairing"
    # the two lifts of abar in T+ differ by t0, and chi(t0) = 1/2
    a = g.zero()
    for c, lift in zip(a_bar, spec.tbar_gens):
        a = g.add(a, g.scale(c, lift))
    if chi(a):
        a = g.add(a, t0)
    u = g.reduce(spec.u)
    if g.scale(2, u) != a:
        raise ValueError(f"u squared is {g.scale(2, u)}, expected {a}")
    ext = ParityExtension(g)
    tu = Subgroup(ext.group, [ext.embed(x) for x, _ in t_plus.smith_gens] + [ext.lift(u, 1)])
    # beta((s + i u, i), (t + j u, j)) = beta_bar(theta(s), theta(t)) - j chi(s) + i chi(t)
    parts = []
    for x, _ in tu.smith_gens:
        i = ext.bit(x)
        s = g.sub(ext.base_part(x), g.scale(i, u))
        parts.append((i, bar_pairing.abstract_coords(theta(s)), chi(s)))
    beta = Bicharacter.from_residues(
        FinGenAbGroup(0, tuple(o for _, o in tu.smith_gens)), mod,
        [[beta_bar.value(cs, ct) * f_bar - j * chi_s + i * chi_t for j, ct, chi_t in parts]
         for i, cs, chi_s in parts])
    return OddAssocTSpec(g, tuple(x for x, _ in tu.smith_gens), beta, spec.gamma)


def finest_even_coarsening(spec: OddAssocTSpec) -> EvenAssocSpec:
    """The even grading induced over G modulo the parity element.

    The base parts of the even support form T+, spanned by those of the
    bit-0 generators, and theta maps T+ onto Tbar with kernel <t0>.  So
    the lifts of a generator of Tbar are one coset of <t0>, and the base
    parts of the odd support are one coset of T+; the least element of
    each, `coset_canonical_rep`, is the lift taken and u.
    """
    g = spec.group
    ext = ParityExtension(g)
    pairing = EmbeddedPairing(ext.group, spec.tgens, spec.beta)
    t0 = _parity_element(pairing, ext)
    t0_sub, gbar, theta = subgroup_and_quotient(g, [t0])
    plus = [ext.base_part(pairing.push(x)) for x in _bit_subgroup(pairing, ext).gens]
    tbar = Subgroup(gbar, [theta(x) for x in plus])
    tbar_gens = tuple(gen for gen, _ in tbar.smith_gens)
    q_lifts = [coset_canonical_rep(g, t0_sub, theta.preimage(gen)) for gen in tbar_gens]
    beta_bar = Bicharacter.from_residues(
        tbar.as_group(), pairing.beta.m,
        [[pairing.value(ext.embed(x), ext.embed(y)) for y in q_lifts] for x in q_lifts])
    odd = next(t for t in pairing.gens if ext.bit(t) == 1)
    u = coset_canonical_rep(g, Subgroup(g, plus), ext.base_part(odd))
    u_bar = theta(u)
    gamma_bar = tuple(theta(x) for x in spec.gamma)
    gamma_shift = tuple(gbar.add(u_bar, x) for x in gamma_bar)
    return EvenAssocSpec(gbar, tbar_gens, beta_bar, gamma_bar, gamma_shift)


# ---------------------------------------------------------------------------
# universal grading groups


def presented_quotient(group: FinGenAbGroup, supp: Sequence[Coords],
                       pairs: Iterable[tuple[Coords, Coords]]
                       ) -> tuple[FinGenAbGroup, dict[Coords, Coords]]:
    """The abelian group generated by the support with the relation
    [g] + [h] = [g + h] for every given pair (g, h), and the image of each
    support element in it.  The pairs are those of nonzero products (or
    brackets), so g + h must lie in the support too.

    Each relation is the sparse row e_i + e_j - e_k on support indices,
    found once per unordered pair {i, j}."""
    index = {s: n for n, s in enumerate(supp)}
    sums: dict[tuple[int, int], int] = {}     # {(i, j): k} with i <= j
    for g, h in pairs:
        i, j = index[g], index[h]
        if i > j:
            i, j = j, i
        if (i, j) in sums:
            continue
        k = index.get(group.add(g, h))
        if k is None:
            raise ValueError(f"the product of {g} and {h} leaves the support")
        sums[i, j] = k
    rows = []
    for (i, j), k in sorted(sums.items()):
        row = {i: 1}
        row[j] = row.get(j, 0) + 1
        row[k] = row.get(k, 0) - 1
        rows.append(row)
    quotient, proj = finitely_presented_quotient(len(supp), hermite_normal_form(rows))
    return quotient, {s: proj.images[n] for s, n in index.items()}


def universal_group(model: GradedMatrixModel
                    ) -> tuple[FinGenAbGroup, dict[Coords, Coords]]:
    """The group presented by the support with [x] + [y] = [xy] for every
    nonzero product (i, j, t)(j, l, s) = (i, l, t + s) of basis elements.
    Three families of products, with 0 the first row and the domain's
    zero and g each unit generator of the domain, generate them all:
      B: (i, 0, 0)(0, l, 0); D: (i, j, 0)(j, j, t); T: (0, 0, t)(0, 0, g),
    k^2 + k^2 |T| + |T| r pairs.  D gives [j, j, 0] = 0 and [i, j, t] =
    [i, j, 0] + tau(t), as E_jj X_t and E_00 X_t share the degree tau(t);
    B then gives [i, l, 0] = b(i) - b(l); T gives tau(t + s) = tau(t) +
    tau(s) by induction on s as a word in the g.  The Hermite form of the
    rows is canonical, so it is that of all product pairs.  The model must
    be a grading; ValueError when `grid_failures` is not empty."""
    bad = grid_failures(model)
    if bad:
        raise ValueError(f"not a block grid model: {bad[0]}")
    k, dom = sum(model.sizes) // model.realization.size, model.pairing.beta.domain
    zero, ts = dom.zero(), [t_abs for t_abs, _ in model.pairing.elements]
    deg = {key: model.base_degree(model.basis[n]) for key, n in model.index.items()}
    pairs = [(deg[i, 0, zero], deg[0, l, zero]) for i in range(k) for l in range(k)]
    pairs += [(deg[i, j, zero], deg[j, j, t])
              for i in range(k) for j in range(k) for t in ts]
    pairs += [(deg[0, 0, t], deg[0, 0, dom.unit(r)]) for t in ts for r in range(dom.rank)]
    return presented_quotient(model.base_group, tuple(sorted(set(deg.values()))), pairs)
