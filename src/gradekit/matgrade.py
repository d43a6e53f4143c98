"""Gradings on the matrix superalgebra M(m,n) by abelian groups.

A grading is specified by a finite subgroup T of the grading group (or
of its parity extension G# = G x Z/2), a nondegenerate alternating
bicharacter on T, and a tuple of block degrees.  This module builds the
explicit matrix models, verifies them, coarsens them, converts between
the two descriptions of gradings with odd support, and computes
universal grading groups.

Validation happens once per spec, in `check_spec`.  It reduces
coordinates, converts a G-description to explicit support (inside G,
with no quotient G/<t0>: `_lift_data`), builds the spec's one
`EmbeddedPairing` and checks it, and for odd specs finds the parity
element t0.  `build_matrix_model` and the deciders in `classify`
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
from math import isqrt, lcm
from typing import Iterable, Iterator, Optional, Sequence, Union

from .abgroup import (
    Coords,
    FinGenAbGroup,
    GroupHom,
    Subgroup,
    coset_canonical_rep,
    finitely_presented_quotient,
    lattice_tail,
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
    T (`sub`) and `abstract_coords` come from one Hermite form, that of
    the map from the domain onto T (`GroupHom._preimage_form`): T is its
    image, and a domain element over x in T its preimage, with no table.
    A caller that has formed T's lattice already may pass T as sub;
    `check` still compares its order with the domain's.
    """

    def __init__(self, ambient: FinGenAbGroup, gens: tuple[Coords, ...],
                 beta: Bicharacter, sub: Optional[Subgroup] = None):
        if beta.domain.rank != len(gens):
            raise ValueError("one generator per bicharacter coordinate required")
        self.ambient = ambient
        self.gens = tuple(ambient.reduce(g) for g in gens)
        self.beta = beta
        self.hom = GroupHom(beta.domain, ambient, self.gens)
        if sub is not None:
            self.sub = sub

    @cached_property
    def sub(self) -> Subgroup:
        """T, the image of the domain."""
        return self.hom.image()

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
    found: dict[str, Subgroup] = {}
    out = source if isinstance(source, OddAssocTSpec) else build_odd_from_G(source, found)
    pairing = EmbeddedPairing(ext.group, out.tgens, out.beta, found.get("support"))
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
    `index` maps each key (i, j, t_abs) to its position in `basis`, and
    k is the number of block rows, so the block grid is range(k)^2 x the
    pairing's domain.  The realization of the pairing is built on first
    use, unless one is given."""

    def __init__(self, kind, base_group, degree_group, sizes, basis, pairing,
                 k, parity_coords, realization=None):
        self.kind = kind                      # 'even' | 'odd'
        self.base_group = base_group          # G
        self.degree_group = degree_group      # G or G x Z/2
        self.sizes = sizes                    # (m, n)
        self.basis: tuple[BasisElement, ...] = basis
        self.pairing: EmbeddedPairing = pairing
        self.k = k                            # block rows: sum(sizes) // realization.size
        self.parity_coords = parity_coords    # u0 in G# for odd models, else None
        self._realization: Optional[StandardRealization] = realization
        self.index = {(b.i, b.j, b.t_abs): n for n, b in enumerate(self.basis)}

    @property
    def realization(self) -> StandardRealization:
        if self._realization is None:
            self._realization = StandardRealization(self.pairing.beta)
        return self._realization

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
    # the realization's size: the pairing is nondegenerate, so |T| is a square
    d = isqrt(src.beta.domain.order())
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
                             checked.pairing, len(gamma), u0)


def coarsen(model: GradedMatrixModel, alpha: GroupHom) -> GradedMatrixModel:
    """Relabel all degrees through a homomorphism out of the base group."""
    if alpha.source != model.base_group:
        raise ValueError("homomorphism does not start at the grading group")
    hom = (alpha if model.kind == "even"
           else ParityExtension(model.base_group).extend_hom(alpha))
    basis = tuple(replace(b, degree=hom.apply(b.degree)) for b in model.basis)
    u0 = model.parity_coords
    return GradedMatrixModel(model.kind, alpha.target, hom.target, model.sizes,
                             basis, model.pairing, model.k,
                             None if u0 is None else hom.apply(u0), model._realization)


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
    domain, k = model.k, that the basis lacks, then in basis order each
    element outside that grid or with a key met before; every element
    named (i, j, t) by t = push(t_abs)."""
    k = model.k
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
    B(0, j) + B(j, 0) = B(j, j) = 0.  `verify_grading` passes table =
    `generator_products`, so (c) holds for every t and unit generator g,
    and then tau is a homomorphism: tau(0) = 0, and tau(t + s + g) =
    tau(t + s) + tau(g) = tau(t) + tau(s + g) by induction on the length
    of s as a word in the generators.  (With table = `product_table`, (c)
    holds for every pair directly.)  Either way v(x) + v(y) = v(target)
    for every pair `_pair_failures` visits, whose product lands on
    E_il X_{t+s}.
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
    rows = range(model.k)
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
    product X_t X_s is formed once, in a table over the domain, the
    realization identities are checked pair by pair, and every compatible
    pair is checked (`_pair_failures`), so `failures` lists every failing
    pair.  Either way
    `distinct_products` (|T|^2) and `pairs_checked` count the products
    and the compatible pairs that the verdict covers."""
    real = model.realization
    beta = model.pairing.beta
    products = generator_products(real, beta)
    grid = grid_failures(model)
    if (products is None or grid or element_failures(real)
            or not _factorized_product_rule(model, products)):
        table = product_table(real)
        failures = (realization_failures(real, table, beta) + grid
                    + _pair_failures(model, table))
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
    from the odd support a pairing inside G# lives on.

    In the domain it is the nonzero element of the orthogonal complement
    of the bit-0 part.  The characters trivial on that part are 0 and,
    when some generator is odd, the one taking -1 at the odd ones; so
    the complement is the radical, together with z + radical when that
    character is beta(z, -).  Both are read off the Hermite form of
    `Bicharacter.hom`: the radical is its kernel and z a preimage of
    m/2 times the bits."""
    beta = pairing.beta
    bits = [ext.bit(g) for g in pairing.gens]
    rad = beta.radical()
    z = (beta.hom.preimage([b * (beta.m // 2) for b in bits])
         if any(bits) and beta.m % 2 == 0 else None)
    order = rad.order() * (1 if z is None else 2)
    if order != 2:
        raise ValueError("orthogonal complement of the even support "
                         f"has order {order}, expected 2")
    gen = z if z is not None else next(g for g in rad.gens if any(g))
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
    x_i of x.  t0 has order 2 (`_lift_data` checks it), so each
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


def _lift_data(group: FinGenAbGroup, t0: Coords, tbar_gens: Sequence[Coords],
               beta_bar: Bicharacter) -> tuple[Coords, GroupHom, Subgroup, bool]:
    """Check the data of a G-description inside G and return t0
    reduced, phi: Z^(r+1) -> G sending e_i to the lift l_i and e_(r+1)
    to t0, T+ = <lifts, t0> (the image of phi), and the verdict of
    `odd_existence_check`.

    theta: G -> G/<t0> is never formed.  T+ is its preimage of Tbar, and
    a preimage c of s in T+ under phi gives theta(s) the coordinates
    c_1..c_r in beta_bar's domain D.  The checks, in this order: t0 has
    order 2; one lift per coordinate of D; d_i l_i is 0 or t0 for each
    order d_i (theta(l_i) is killed by d_i); beta_bar validates;
    |T+| = 2|D| (the theta(l_i) are independent); beta_bar is
    nondegenerate.  Existence: with R the kernel of x -> 2 sum x_i l_i
    on D, the x with sum x_i l_i in T+[2] + <t0> = T+[2], every
    generator x of the orthogonal complement of R must have sum x_i l_i
    in theta^-1(2 (G/<t0>)) = 2G + <t0>.
    """
    t0 = group.reduce(t0)
    if group.element_order(t0) != 2:
        raise ValueError("t0 must have order 2")
    lifts = tuple(group.reduce(x) for x in tbar_gens)
    dom = beta_bar.domain
    if dom.rank != len(lifts):
        raise ValueError("one generator per bicharacter coordinate required")
    for d, lift in zip(dom.torsion, lifts):
        if group.scale(d, lift) not in (group.zero(), t0):
            raise ValueError(f"generator of order {d} maps to an element not killed by {d}")
    beta_bar.validate()
    phi = GroupHom(FinGenAbGroup(len(lifts) + 1), group, lifts + (t0,))
    t_plus = phi.image()
    if t_plus.order() != 2 * dom.order():
        raise ValueError("subgroup generators are not independent")
    if not beta_bar.is_nondegenerate():
        raise ValueError("bicharacter is degenerate")
    doubled = GroupHom(dom, group, tuple(group.scale(2, x) for x in lifts))
    squares, _ = squares_and_two_torsion(group)

    def square_mod_t0(x: Coords) -> bool:
        y = group.reduce([sum(c * lift[j] for c, lift in zip(x, lifts))
                          for j in range(group.rank)])
        return squares.contains(y) or squares.contains(group.sub(y, t0))

    comp = beta_bar.orthogonal_complement(doubled.kernel())
    return t0, phi, t_plus, all(square_mod_t0(x) for x in comp.gens)


def odd_existence_check(group: FinGenAbGroup, t0: Coords,
                        tbar_gens: tuple[Coords, ...],
                        beta_bar: Bicharacter) -> bool:
    """Whether the given quotient data extends to an odd grading support.

    tbar_gens are lifts in G; the test compares the complement of the
    two-torsion of Tbar with the squares of G/<t0>, read inside G
    (`_lift_data`).
    """
    return _lift_data(group, t0, tbar_gens, beta_bar)[-1]


def build_odd_from_G(spec: OddAssocGSpec, found: Optional[dict] = None) -> OddAssocTSpec:
    """Convert the G-description of an odd grading to explicit support in G#.

    Everything is read inside G (`_lift_data`): the coordinates of
    theta(s) in beta_bar's domain are a preimage of s under phi.  No
    subgroup is listed.  abar, the element of Tbar pairing as chi
    squared, is one preimage under `Bicharacter.hom`; a is its lift
    through the tbar_gens, moved by t0 where chi is 1/2; beta is read
    from one (bit, coordinates of theta(s), chi(s)) triple per generator
    (s + bit u, bit) of T_u.  `check_spec` checks the pairing of the
    result and that its parity element is the given t0.
    """
    g = spec.group
    t0, phi, t_plus, extends = _lift_data(g, spec.t0, spec.tbar_gens, spec.beta_bar)
    if not extends:
        raise ValueError("no odd grading exists for this quotient data")
    beta_bar = spec.beta_bar
    dom = beta_bar.domain

    def bar(s: Coords) -> Coords:
        """The coordinates of theta(s) in dom, for s in T+."""
        return dom.reduce(phi.preimage(s)[:dom.rank])

    # chi and beta_bar in residues modulo one common modulus
    mod, f_bar, _ = common_modulus(beta_bar.m, lcm(*(o for _, o in t_plus.smith_gens)))
    chi = _canonical_chi(t_plus, t0, mod)
    # 2 chi is trivial at t0, so a character of Tbar, and beta_bar is
    # nondegenerate: abar is the one x with beta_bar(x, e_j) = 2 chi(l_j)
    # at each unit generator e_j of dom, whose lift l_j lies in T+
    twice = [2 * chi(lift) % mod for lift in spec.tbar_gens]
    assert all(v % f_bar == 0 for v in twice), "2 chi must be a character of Tbar"
    a_bar = beta_bar.hom.preimage([v // f_bar for v in twice])
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
    if found is not None:
        found["support"] = tu
    # beta((s + i u, i), (t + j u, j)) = beta_bar(theta(s), theta(t)) - j chi(s) + i chi(t)
    parts = []
    for x, _ in tu.smith_gens:
        i = ext.bit(x)
        s = g.sub(ext.base_part(x), g.scale(i, u))
        parts.append((i, bar(s), chi(s)))
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


def formal_quotient(domain: FinGenAbGroup, keys: Sequence[tuple[Coords, Coords]]
                    ) -> tuple[FinGenAbGroup, dict[Coords, Coords]]:
    """The universal group U of a grading, from the (degree, formal
    degree) pair of every basis key, and the image of each support
    degree in it.

    A formal degree f(x) lies in F/R, F = Z^w and R the relation rows of
    `domain` on the last domain.rank columns, the others free.  Each
    caller proves two facts: f is additive on nonzero products (or
    brackets), so x y != 0 has a key z of degree deg x + deg y in its
    expansion with f(z) = f(x) + f(y) in F/R; and a homomorphism N: F/R
    -> U has N(f(x)) = [deg x] for every key x.  Let x_s be the first key
    of degree s and R' hold R and f(x) - f(x_s) for every further key x
    of degree s, which N kills.  The relations of U are then the kernel
    L of Z^supp -> F/R', e_s -> f(x_s): [g] + [h] = [g + h] lies in L by
    the first fact, and v in L has sum v_s [s] = N(f(v)) = 0 by the
    second.  L is the tail of one Hermite form (`lattice_tail`, Cohen,
    GTM 138, 2.4.3) of R' and the rows (f(x_s), e_s), these last support
    index first: what a row keeps past the F columns then leads with its
    own e_s, a fresh pivot.  The Hermite form of L is canonical, so it is
    that of every generating family of relations.
    """
    width = len(keys[0][1])
    shift = width - domain.rank
    rows = [{shift + j: a for j, a in enumerate(r) if a} for r in domain.relation_rows()]
    first: dict[Coords, Coords] = {}
    for degree, formal in keys:
        x = first.setdefault(degree, formal)
        if formal != x:
            rows.append({j: a - b for j, (a, b) in enumerate(zip(formal, x)) if a != b})
    supp = sorted(first)
    for n in range(len(supp) - 1, -1, -1):
        row = {j: a for j, a in enumerate(first[supp[n]]) if a}
        row[width + n] = 1
        rows.append(row)
    quotient, proj = finitely_presented_quotient(len(supp), lattice_tail(rows, width))
    return quotient, {s: proj.images[n] for n, s in enumerate(supp)}


def universal_group(model: GradedMatrixModel
                    ) -> tuple[FinGenAbGroup, dict[Coords, Coords]]:
    """The group presented by the support with [x] + [y] = [xy] for every
    nonzero product (i, j, t)(j, l, s) = (i, l, t + s) of basis elements
    (`formal_quotient`), with the formal degree b_i - b_j + t of key
    (i, j, t) in Z^(k-1) + Z^r, b_0 = 0 and b_i the i-th unit vector, and
    T = Z^r / R; it is additive on every nonzero product.  With 0 the
    first row, b(i) = [i, 0, 0], tau(t) = [0, 0, t] and g each unit
    generator of the domain, these nonzero products give N: b_i -> b(i),
    t -> tau(t):
      (j, j, 0)(j, j, t): [j, j, 0] = 0, so tau(0) = 0;
      (i, j, 0)(j, j, t): [i, j, t] = [i, j, 0] + tau(t), as E_jj X_t
        and E_00 X_t share the degree tau(t);
      (i, 0, 0)(0, l, 0): [i, l, 0] = b(i) - b(l), as l = i gives
        [0, i, 0] = -b(i);
      (0, 0, t)(0, 0, g): tau(t + g) = tau(t) + tau(g), so tau(t) is
        sum t_c tau(g_c), and d_c tau(g_c) = tau(0) = 0 on a generator
        of order d_c: tau kills R.
    So N(f(i, j, t)) = [i, j, t].  The model must be a grading;
    ValueError when `grid_failures` is not empty."""
    bad = grid_failures(model)
    if bad:
        raise ValueError(f"not a block grid model: {bad[0]}")
    k = model.k
    b = [tuple(int(c == i - 1) for c in range(k - 1)) for i in range(k)]
    block = [[tuple(x - y for x, y in zip(b[i], b[j])) for j in range(k)] for i in range(k)]
    return formal_quotient(model.pairing.beta.domain,
                           [(model.base_degree(model.basis[n]), block[i][j] + t)
                            for (i, j, t), n in model.index.items()])
