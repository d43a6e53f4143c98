"""Lie superalgebra layer on top of the matrix models.

Gradings descend from M(m,n) to sl/psl by removing the lines cut out by
the supertrace and, for equal block sizes, the identity.  The periplectic
algebra P(n) is the standard copy

    {(a b; c -a^T) : tr a = 0, b = b^T, c = -c^T}

inside M(n+1,n+1): the fixed points of an involution sigma (`_p_image`)
with tr a = 0.  Its gradings restrict even gradings of M(n+1,n+1) whose
division algebra has an elementary 2-group support, so every realized
basis element is a signed permutation block and sigma permutes the
ambient basis up to sign.  Each component P(n) cap A_g is spanned by
the sums x + sigma(x) over the sigma-orbits inside A_g, made trace-free
on the diagonal, with no linear solve (`p_intersection`); a basis vector
is held as its coordinates in the ambient basis.  Its sparse integer
matrix is formed only for the fixed-copy test and the fallback bracket
loop: independence is read from the coordinates, and the fallback
tests membership against each component's Hermite rows, formed once
(`in_rational_span`).  Universal
groups need no P(n) basis: the relations are the kernel of the formal
degree of the ambient labels (`p_labels`, `matgrade.formal_quotient`).
The dense rational `BlockMatrix`, with its supertrace, supertranspose
and supercommutator, and `_rref` are the reference that tests check
the sparse routines against; the traced benchmark counts their calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Optional

from .abgroup import Coords, FinGenAbGroup, hermite_normal_form, in_rational_span
from .bichar import Bicharacter
from .matgrade import (
    CheckedSpec,
    CosetMultiset,
    EmbeddedPairing,
    EvenAssocSpec,
    GradedMatrixModel,
    GradingSpec,
    OddAssocGSpec,
    OddAssocTSpec,
    build_matrix_model,
    check_spec,
    coset_shifts,
    formal_quotient,
    verify_grading,
)

F0 = Fraction(0)


# ---------------------------------------------------------------------------
# block matrices over the rationals


@dataclass(frozen=True)
class BlockMatrix:
    """A matrix of M(m,n): (m+n) x (m+n) rationals split after row/column m."""

    m: int
    n: int
    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        size = self.m + self.n
        if len(self.entries) != size or any(len(r) != size for r in self.entries):
            raise ValueError("entry grid does not match the block sizes")

    @classmethod
    def zero(cls, m: int, n: int) -> "BlockMatrix":
        return cls(m, n, tuple((F0,) * (m + n) for _ in range(m + n)))

    @classmethod
    def from_rows(cls, m: int, n: int, rows) -> "BlockMatrix":
        return cls(m, n, tuple(tuple(Fraction(x) for x in row) for row in rows))

    @classmethod
    def from_blocks(cls, a, b, c, d) -> "BlockMatrix":
        m, n = len(a), len(d)
        rows = [tuple(Fraction(x) for x in ra) + tuple(Fraction(x) for x in rb)
                for ra, rb in zip(a, b)]
        rows += [tuple(Fraction(x) for x in rc) + tuple(Fraction(x) for x in rd)
                 for rc, rd in zip(c, d)]
        return cls(m, n, tuple(rows))

    def _shape_check(self, other: "BlockMatrix"):
        if (self.m, self.n) != (other.m, other.n):
            raise ValueError("block sizes differ")

    def __add__(self, other: "BlockMatrix") -> "BlockMatrix":
        self._shape_check(other)
        return BlockMatrix(self.m, self.n,
                           tuple(tuple(x + y for x, y in zip(r, s))
                                 for r, s in zip(self.entries, other.entries)))

    def __sub__(self, other: "BlockMatrix") -> "BlockMatrix":
        self._shape_check(other)
        return BlockMatrix(self.m, self.n,
                           tuple(tuple(x - y for x, y in zip(r, s))
                                 for r, s in zip(self.entries, other.entries)))

    def scale(self, factor) -> "BlockMatrix":
        factor = Fraction(factor)
        return BlockMatrix(self.m, self.n,
                           tuple(tuple(factor * x for x in r) for r in self.entries))

    def __neg__(self) -> "BlockMatrix":
        return self.scale(-1)

    def __mul__(self, other: "BlockMatrix") -> "BlockMatrix":
        self._shape_check(other)
        size = self.m + self.n
        # graded basis vectors are mostly zeros, so skip them outright
        out = [[F0] * size for _ in range(size)]
        for i, row in enumerate(self.entries):
            target = out[i]
            for j, a in enumerate(row):
                if a:
                    for k, b in enumerate(other.entries[j]):
                        if b:
                            target[k] += a * b
        return BlockMatrix(self.m, self.n, tuple(tuple(r) for r in out))

    def is_zero(self) -> bool:
        return all(x == 0 for r in self.entries for x in r)

    def blocks(self):
        """The four corners (a, b, c, d) as plain row tuples."""
        m = self.m
        a = tuple(r[:m] for r in self.entries[:m])
        b = tuple(r[m:] for r in self.entries[:m])
        c = tuple(r[:m] for r in self.entries[m:])
        d = tuple(r[m:] for r in self.entries[m:])
        return a, b, c, d

    def even_part(self) -> "BlockMatrix":
        a, _, _, d = self.blocks()
        zb = tuple((F0,) * self.n for _ in range(self.m))
        zc = tuple((F0,) * self.m for _ in range(self.n))
        return BlockMatrix.from_blocks(a, zb, zc, d)

    def odd_part(self) -> "BlockMatrix":
        _, b, c, _ = self.blocks()
        za = tuple((F0,) * self.m for _ in range(self.m))
        zd = tuple((F0,) * self.n for _ in range(self.n))
        return BlockMatrix.from_blocks(za, b, c, zd)

    def flatten(self) -> tuple[Fraction, ...]:
        return tuple(x for r in self.entries for x in r)


def _transpose(rows):
    return tuple(tuple(col) for col in zip(*rows))


def supertrace(mat: BlockMatrix) -> Fraction:
    """tr a - tr d."""
    a, _, _, d = mat.blocks()
    return sum(a[i][i] for i in range(mat.m)) - sum(d[i][i] for i in range(mat.n))


def supertranspose(mat: BlockMatrix) -> BlockMatrix:
    """(a b; c d) -> (a^T -c^T; b^T d^T)."""
    a, b, c, d = mat.blocks()
    neg_ct = tuple(tuple(-x for x in row) for row in _transpose(c))
    return BlockMatrix.from_blocks(_transpose(a), neg_ct, _transpose(b),
                                   _transpose(d))


def supercommutator(x: BlockMatrix, y: BlockMatrix) -> BlockMatrix:
    """[x,y] = xy - (-1)^{|x||y|} yx, extended bilinearly."""
    out = BlockMatrix.zero(x.m, x.n)
    for xi, px in ((x.even_part(), 0), (x.odd_part(), 1)):
        if xi.is_zero():
            continue
        for yj, py in ((y.even_part(), 0), (y.odd_part(), 1)):
            if yj.is_zero():
                continue
            prod = xi * yj
            back = yj * xi
            out = out + (prod + back if px and py else prod - back)
    return out


# ---------------------------------------------------------------------------
# exact rational row reduction of dense block matrices


def _rref(rows: list[list[Fraction]]):
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    mat = [list(r) for r in rows]
    pivots: list[int] = []
    rank = 0
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        pivot_row = next((r for r in range(rank, len(mat)) if mat[r][col] != 0),
                         None)
        if pivot_row is None:
            continue
        mat[rank], mat[pivot_row] = mat[pivot_row], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [x * inv for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                factor = mat[r][col]
                mat[r] = [x - factor * y for x, y in zip(mat[r], mat[rank])]
        pivots.append(col)
        rank += 1
    return mat[:rank], pivots


def _reduce_vector(echelon, pivots, vec):
    out = list(vec)
    for row, p in zip(echelon, pivots):
        if out[p] != 0:
            factor = out[p]
            out = [x - factor * y for x, y in zip(out, row)]
    return out


# ---------------------------------------------------------------------------
# sparse integer matrices
#
# Over an elementary 2-group every X_t is a signed permutation matrix, so
# realized basis elements are integer matrices with few nonzero entries,
# kept as {(row, col): value}; a factor of a product is kept grouped by
# rows, {row: {col: value}}.  A combination of a model's basis elements
# is kept as its coordinates, {index: coefficient}.

Entries = dict[tuple[int, int], int]
Rows = dict[int, dict[int, int]]
Coeffs = dict[int, int]


def _sign(e: int, m: int) -> int:
    """zeta_m^e as +1 or -1, the only values of a rational realization."""
    if 2 * e % m == 0:
        return -1 if e % m else 1
    raise ValueError(f"root zeta_{m}^{e} is not rational")


def _transpose_signs(model: GradedMatrixModel) -> dict[Coords, int]:
    """eps(t) = +-1 with X_t^T = eps(t) X_t, for every t of an elementary
    2-group torus (`transpose_partner` then keeps t)."""
    real = model.realization
    return {t: _sign(real.transpose_partner(t)[1], real.m)
            for t, _ in model.pairing.elements}


def _basis_entries(model: GradedMatrixModel, index: int) -> Entries:
    """Nonzero entries of the basis element E_ij (x) X_t (needs rational X_t)."""
    b = model.basis[index]
    mono = model.realization.matrix(b.t_abs)
    row0, col0 = b.i * mono.n, b.j * mono.n
    return {(row0 + mono.perm[j], col0 + j): _sign(e, mono.m)
            for j, e in enumerate(mono.exps)}


def _dense(m: int, n: int, entries: Entries) -> BlockMatrix:
    rows = [[F0] * (m + n) for _ in range(m + n)]
    for (r, c), v in entries.items():
        rows[r][c] = Fraction(v)
    return BlockMatrix(m, n, tuple(tuple(r) for r in rows))


def realized_basis_matrix(model: GradedMatrixModel, index: int) -> BlockMatrix:
    """The basis element as an explicit rational matrix (needs rational X_t)."""
    return _dense(*model.sizes, _basis_entries(model, index))


def _rows(entries: Entries) -> Rows:
    out: Rows = {}
    for (r, c), v in entries.items():
        out.setdefault(r, {})[c] = v
    return out


def _bracket(x: Rows, zx: int, y: Rows, zy: int) -> Entries:
    """Nonzero entries of [x,y] = xy - (-1)^{|x||y|} yx for z-homogeneous
    x and y; z-degree 0 is even, z-degrees -1 and 1 are odd."""
    out: Entries = {}
    for left, right, sign in ((x, y, 1), (y, x, 1 if zx and zy else -1)):
        for r, row in left.items():
            for k, a in row.items():
                cols = right.get(k)
                if cols:
                    for c, b in cols.items():
                        out[r, c] = out.get((r, c), 0) + sign * a * b
    return {key: v for key, v in out.items() if v}


# ---------------------------------------------------------------------------
# superadjoint and Type I restriction


def superadjoint_spec(spec: GradingSpec) -> GradingSpec:
    """Parameters of the image grading under L -> -L* (the superadjoint).

    The support is unchanged, the bicharacter is inverted, and all degree
    data is replaced by its inverse.
    """
    if isinstance(spec, EvenAssocSpec):
        g = spec.group
        return EvenAssocSpec(g, spec.tgens, spec.beta.inverse(),
                             tuple(g.neg(x) for x in spec.gamma0),
                             tuple(g.neg(x) for x in spec.gamma1))
    if isinstance(spec, OddAssocTSpec):
        g = spec.group
        return OddAssocTSpec(g, spec.tgens, spec.beta.inverse(),
                             tuple(g.neg(x) for x in spec.gamma))
    if isinstance(spec, OddAssocGSpec):
        g = spec.group
        return OddAssocGSpec(g, spec.t0, spec.tbar_gens,
                             spec.beta_bar.inverse(), g.neg(spec.u),
                             tuple(g.neg(x) for x in spec.gamma))
    raise TypeError(f"not a grading spec: {type(spec).__name__}")


def restrict_type_I(spec: GradingSpec) -> dict[Coords, int]:
    """Componentwise dimensions of the induced grading on sl, or psl when
    the block sizes agree.

    The supertrace functional is homogeneous, so it cuts one dimension from
    a single component: the identity component for even gradings, and the
    component of the parity element for odd ones.
    """
    model = build_matrix_model(spec)
    dims: dict[Coords, int] = {}
    for b in model.basis:
        key = model.base_degree(b)
        dims[key] = dims.get(key, 0) + 1
    zero = model.base_group.zero()
    if model.kind == "even":
        str_degree = zero
    else:
        str_degree = model.base_group.reduce(model.parity_coords[:-1])
    dims[str_degree] -= 1
    if model.sizes[0] == model.sizes[1]:
        dims[zero] -= 1
    return {k: v for k, v in dims.items() if v}


# ---------------------------------------------------------------------------
# periplectic gradings


@dataclass(frozen=True)
class PSpec:
    """Grading data for P(n): T inside G elementary 2, k block degrees, and
    the degree shift g0 between the two module halves."""

    group: FinGenAbGroup
    tgens: tuple[Coords, ...]
    beta: Bicharacter
    gamma: tuple[Coords, ...]
    g0: Coords


def check_p_spec(spec: PSpec) -> CheckedSpec:
    """Validate a P spec once: the spec with coordinates reduced and its
    one checked pairing."""
    g = spec.group
    out = PSpec(g, tuple(g.reduce(t) for t in spec.tgens), spec.beta,
                tuple(g.reduce(x) for x in spec.gamma), g.reduce(spec.g0))
    if not out.gamma:
        raise ValueError("the block-degree tuple must be nonempty")
    if any(t != 2 for t in spec.beta.domain.torsion):
        raise ValueError("support must be an elementary 2-group")
    pairing = EmbeddedPairing(g, out.tgens, out.beta)
    pairing.check()
    # a nondegenerate pairing on T is realized in size sqrt(|T|)
    size = len(out.gamma) * isqrt(out.beta.domain.order())
    if size < 3:
        raise ValueError(f"matrix half size is {size}; P(n) needs n >= 2")
    return CheckedSpec(out, out, pairing)


def ambient_even_spec(spec: PSpec) -> EvenAssocSpec:
    """The even grading on M(n+1,n+1) whose restriction is the P grading."""
    g = spec.group
    gamma1 = tuple(g.sub(spec.g0, x) for x in spec.gamma)
    return EvenAssocSpec(g, spec.tgens, spec.beta, spec.gamma, gamma1)


class PGradedModel:
    """Integer bases for the components P(n) cap A_g of an even model.

    Each component is a list of (coords, z): a basis vector as its
    coordinates {index: coefficient} in the ambient basis E_IJ (x) X_t,
    and its degree in the canonical Z-grading.  `matrix` forms the
    vector's entries where a check needs them; independence is read
    from the coordinates (`_ambient_proof`).
    """

    def __init__(self, ambient: GradedMatrixModel,
                 components: dict[Coords, list[tuple[Coeffs, int]]]):
        self.ambient = ambient
        self.n = ambient.sizes[0] - 1
        self.components = components

    def dims(self) -> dict[Coords, int]:
        return {g: len(items) for g, items in self.components.items() if items}

    def z_dims(self) -> dict[int, int]:
        out = {-1: 0, 0: 0, 1: 0}
        for items in self.components.values():
            for _, z in items:
                out[z] += 1
        return out

    def total_dim(self) -> int:
        return sum(len(items) for items in self.components.values())

    def matrix(self, coords: Coeffs) -> Entries:
        """The nonzero entries of sum_n coords[n] (basis element n)."""
        out: Entries = {}
        for n, v in coords.items():
            for key, e in _basis_entries(self.ambient, n).items():
                out[key] = out.get(key, 0) + v * e
        return {key: v for key, v in out.items() if v}


def p_intersection(model: GradedMatrixModel) -> dict[Coords, list[tuple[Coeffs, int]]]:
    """Intersect every component of an even model with the standard P(n),
    one sigma-orbit of the ambient basis at a time.

    Write k for the number of blocks on each side, so the keys (I, J, t)
    have I, J < 2k, and I' = I + k mod 2k.  By `_p_image`, sigma sends
    x = E_IJ X_t to s E_J'I' X_t^T, with s = +1 in the b corner and -1
    elsewhere, and X_t^T = eps(t) X_t as T is elementary 2
    (`_transpose_signs`).  So sigma(x) = +-x' for the partner x' =
    (J', I', t), in x's Z-corner: sigma permutes the basis up to sign.
    P(n) cap A_g is the set of v in A_g with sigma(v) = v and tr a = 0.
    The coefficient of x' in sigma(v) is +-that of x in v, so such a v
    has coefficients of equal size on both members of an orbit inside
    A_g, and none on an orbit that leaves A_g, as x' then has none in v.
    The fixed points of A_g are therefore spanned by the sums x +
    sigma(x) of its orbits, independent as the orbits are disjoint, and
    zero only when x = x' and sigma(x) = -x.  The d x d matrices X_t are
    orthogonal, so tr X_t = 0 for t != 0, and tr a vanishes on every
    orbit sum except O_i = x + sigma(x) for x = (k + i, k + i, 0), all of
    degree 0 and Z-degree 0, where it is -d for every i.  The trace-free
    part of their span has the basis O_0 - O_i, i >= 1.

    Each vector is returned as its ambient coordinates: {n: 1, n': +-1}
    for the orbit sum of x = basis[n], {n: 1} when x = x', and four
    terms for O_0 - O_i.  It stands at the larger index of its orbit,
    O_0 - O_i at that of O_i, and every component lists its vectors by
    Z-degree, then by that index.
    """
    if model.kind != "even":
        raise ValueError("P(n) sits inside an even grading")
    if model.sizes[0] != model.sizes[1]:
        raise ValueError("block sizes must agree")
    if any(t != 2 for t in model.pairing.beta.domain.torsion):
        raise ValueError("support must be an elementary 2-group")
    real, basis, index = model.realization, model.basis, model.index
    k = model.sizes[0] // real.size
    zero = model.pairing.beta.domain.zero()
    eps = _transpose_signs(model)

    def orbit_sum(n: int, partner: int) -> Coeffs:
        if partner == n:
            return {n: 1}
        b = basis[n]
        return {n: 1, partner: eps[b.t_abs] * (1 if b.i < k <= b.j else -1)}

    found = []
    for n, b in enumerate(basis):
        partner = index[(b.j + k) % (2 * k), (b.i + k) % (2 * k), b.t_abs]
        if partner > n or basis[partner].degree != b.degree:
            continue
        if b.i == b.j and b.t_abs == zero:
            if b.i == k:
                continue
            vec = orbit_sum(index[k, k, zero], index[0, 0, zero])
            vec.update((m, -v) for m, v in orbit_sum(n, partner).items())
        elif partner == n and (b.i < k) == (eps[b.t_abs] < 0):
            continue
        else:
            vec = orbit_sum(n, partner)
        found.append((b.degree, b.z_degree, n, vec))
    components: dict[Coords, list[tuple[Coeffs, int]]] = {}
    for degree, z, _, vec in sorted(found, key=lambda item: item[:3]):
        components.setdefault(degree, []).append((vec, z))
    return components


def _ambient_model(spec: PSpec) -> GradedMatrixModel:
    """The ambient even model of M(n+1, n+1) of a spec, checked once."""
    checked = check_p_spec(spec)
    spec = checked.spec
    # the ambient even spec has the same (T, beta), so its pairing is checked
    return build_matrix_model(CheckedSpec(spec, ambient_even_spec(spec),
                                          checked.pairing))


def build_P_model(spec: PSpec) -> PGradedModel:
    ambient = _ambient_model(spec)
    model = PGradedModel(ambient, p_intersection(ambient))
    expected = 2 * (model.n + 1) ** 2 - 1
    if model.total_dim() != expected:
        raise RuntimeError(f"P components span {model.total_dim()} dimensions, "
                           f"expected {expected}")
    return model


@dataclass
class PReport:
    ok: bool
    failures: list[str]
    dims: dict[Coords, int]
    z_dims: dict[int, int]
    stats: dict[str, int]


def _p_image(r: int, c: int, half: int) -> tuple[int, int, int]:
    """(r', c', s) with sigma(E_rc) = s E_r'c' for the involution
    sigma(a b; c d) = (-d^T b^T; -c^T -a^T) of M(half, half), whose fixed
    points with tr a = 0 are the standard copy of P(n)."""
    swap = (c + half if c < half else c - half, r + half if r < half else r - half)
    return swap + (1 if r < half <= c else -1,)


def _fixed_copy_closed(half: int, image=_p_image) -> bool:
    """Whether {x : sigma(x) = x, tr a = 0} is closed under the
    supercommutator, for sigma(E_rc) = e(r, c) E_r'c' given by image, in
    O((2 half)^3) steps on matrix units.

    Write |rc| for the parity of E_rc (r and c on different sides of
    half) and tau = -sigma.  The checks are:
      - sigma is an involution that keeps parities and sends E_rc to
        +-E_{pi c, pi r} for one permutation pi;
      - e(p, u) = -(-1)^(|pq| |qu|) e(p, q) e(q, u) for every triple of
        indices p, q, u;
      - sigma(E_ii) = -E_jj with i and j on different sides.
    Proof.  tau(E_rs) tau(E_pq) is a multiple of E_{pi s, pi r}
    E_{pi q, pi p}, which vanishes unless q = r, as E_pq E_rs does; for
    q = r the triple check is tau(E_pq E_qu) = (-1)^(|pq| |qu|) tau(E_qu)
    tau(E_pq).  By bilinearity tau(xy) = (-1)^(|x||y|) tau(y) tau(x) for
    homogeneous x and y, so tau is a super-anti-automorphism, and
    sigma[x, y] = -tau(xy) + (-1)^(|x||y|) tau(yx) = [tau x, tau y]
    = [sigma x, sigma y]: the fixed points of sigma are closed under the
    bracket.  The supertrace vanishes on brackets, and on a fixed point
    the diagonal check pairs each x_ii of a with x_jj = -x_ii of d, so
    str x = 2 tr a: the bracket has tr a = 0 too.
    """
    units = range(2 * half)
    side = [int(i >= half) for i in units]
    pi = [image(i, i, half)[1] for i in units]
    if sorted(pi) != list(units):
        return False
    sign = []
    for r in units:
        row = []
        for c in units:
            r2, c2, s = image(r, c, half)
            if ((r2, c2) != (pi[c], pi[r]) or image(r2, c2, half) != (r, c, s)
                    or side[r] ^ side[c] != side[r2] ^ side[c2]):
                return False
            row.append(s)
        sign.append(tuple(row))
    if any(sign[i][i] != -1 or side[i] == side[pi[i]] for i in units):
        return False
    # the triple rule, row p of sign at once: for each q, the row is
    # -s(p, q) s(q, .), its entries negated where both |pq| and |q.| are odd
    for q in units:
        plain = tuple(-x for x in sign[q])
        twisted = tuple(-x if side[q] ^ side[t] else x for t, x in zip(units, plain))
        want = {(0, 1): plain, (1, 1): twisted,
                (0, -1): tuple(-x for x in plain), (1, -1): tuple(-x for x in twisted)}
        if any(sign[p] != want[side[p] ^ side[q], sign[p][q]] for p in units):
            return False
    return True


def _in_fixed_copy(entries: Entries, z: int, half: int) -> bool:
    """Whether a matrix lies in the z-corner of P(n): every entry inside
    the corner, sigma(x) = x (`_p_image`) and, for z = 0, tr a = 0."""
    size = 2 * half
    trace = 0
    for (r, c), v in entries.items():
        if not (0 <= r < size and 0 <= c < size) or int(r >= half) - int(c >= half) != z:
            return False
        r2, c2, s = _p_image(r, c, half)
        if entries.get((r2, c2), 0) != s * v:
            return False
        if r == c < half:
            trace += v
    return not trace


def _ambient_proof(model: PGradedModel) -> bool:
    """Whether the ambient even grading proves the bracket rule of every
    pair of basis vectors, given the dimension checks of
    `verify_P_graded`:
      (0) `verify_grading` passes on the ambient model, an even model of
          M(half, half) with an elementary 2-group torus;
      (3) every basis vector (coords, z) of component g has coordinates
          only on ambient elements E_IJ X_t of degree g and z_degree z,
          so it lies in A_g, and its matrix lies in the z-corner of P(n)
          (`_in_fixed_copy`);
      (4) every vector of a component has a nonzero coordinate that no
          other vector of the component uses, so the vectors are
          independent: the E_IJ X_t are, as (0) proves X_t X_s a root
          multiple of X_{t+s} and tr X_t = 0 for t != 0, so
          tr(X_t X_s^-1) vanishes unless t = s;
      (5) the standard copy is closed (`_fixed_copy_closed(half)`).
    `p_intersection` passes (4): its orbits are disjoint, and O_0 - O_i
    has O_i's coordinates to itself.  Each vector's matrix is formed
    once, for (3).
    """
    ambient = model.ambient
    real = ambient.realization
    half = ambient.sizes[0]
    if (ambient.kind != "even" or ambient.sizes[1] != half
            or real.group != ambient.pairing.beta.domain
            or any(t != 2 for t in real.group.torsion)
            or not verify_grading(ambient).ok or not _fixed_copy_closed(half)):
        return False
    basis = ambient.basis
    for g, items in model.components.items():
        uses: dict[int, int] = {}
        for coords, z in items:
            if (any(basis[n].degree != g or basis[n].z_degree != z for n in coords)
                    or not _in_fixed_copy(model.matrix(coords), z, half)):
                return False
            for n, v in coords.items():
                if v:
                    uses[n] = uses.get(n, 0) + 1
        if not all(any(v and uses[n] == 1 for n, v in coords.items())
                   for coords, _ in items):
            return False
    return True


def _bracket_failures(model: PGradedModel) -> list[str]:
    """The bracket of every unordered pair of basis vectors, checked
    exactly: one failure per pair of Z-degrees summing to +-2 whose
    bracket does not vanish, and per other pair whose bracket leaves the
    component of the sum of the degrees.  Each component's Hermite rows
    are formed once (`hermite_normal_form`), and a bracket is tested
    against their pivots in one fraction-free pass (`in_rational_span`)."""
    failures = []
    group = model.ambient.base_group
    rows, spans = {}, {}
    for g, items in model.components.items():
        entries = [(model.matrix(x), z) for x, z in items]
        rows[g] = [(_rows(x), z) for x, z in entries]
        spans[g] = [(min(r), r) for r in hermite_normal_form(x for x, _ in entries)]
    degrees = list(rows)
    # [y,x] is proportional to [x,y], so unordered pairs suffice
    for gi, g in enumerate(degrees):
        for h in degrees[gi:]:
            target = group.add(g, h)
            span = spans.get(target, [])
            items_g, items_h = rows[g], rows[h]
            for a, (x, zx) in enumerate(items_g):
                start = a if g == h else 0
                for y, zy in items_h[start:]:
                    lie = _bracket(x, zx, y, zy)
                    if zx + zy in (2, -2):
                        if lie:
                            failures.append(f"bracket of z-degrees {zx},{zy} "
                                            "does not vanish")
                    elif lie and not in_rational_span(span, lie):
                        failures.append(f"bracket of components {g} and {h} "
                                        f"leaves the component at {target}")
    return failures


def verify_P_graded(model: PGradedModel) -> PReport:
    """Dimension bookkeeping and exact bracket closure for a P model.

    The bracket rule is proved through the ambient grading when
    `_ambient_proof` holds and the dimension checks pass: the components
    V_g lie in P and in A_g, are independent (each vector has an ambient
    coordinate of its own) and sum to dim P, and the A_g are
    independent, so P is their direct sum and V_g = P cap A_g.
    For x in V_g and y in V_h, [x, y] lies in P (`_fixed_copy_closed`)
    and in A_{g+h} (the ambient product rule), hence in V_{g+h}; and
    two vectors of the b corner, or two of the c corner, multiply to 0
    both ways, so brackets of Z-degrees summing to +-2 vanish.  When any
    check fails, every unordered pair of basis vectors is bracketed and
    each bracket tested against the Hermite rows of its target component
    (`_bracket_failures`).  Either way stats count the pairs the verdict
    covers: every unordered pair of basis vectors, and among them the
    pairs whose Z-degrees do not sum to +-2, whose bracket must lie in a
    component.
    """
    failures = []
    n1 = model.n + 1
    total = model.total_dim()
    if total != 2 * n1 * n1 - 1:
        failures.append(f"dimensions sum to {total}, expected {2 * n1 * n1 - 1}")
    z_dims = model.z_dims()
    expected_z = {0: n1 * n1 - 1, -1: n1 * (n1 + 1) // 2, 1: n1 * (n1 - 1) // 2}
    if z_dims != expected_z:
        failures.append(f"Z-component dimensions {z_dims} != {expected_z}")
    if failures or not _ambient_proof(model):
        failures += _bracket_failures(model)
    pairs = total * (total + 1) // 2
    vanishing = sum(k * (k + 1) // 2 for k in (z_dims[-1], z_dims[1]))
    stats = {"brackets_formed": pairs, "membership_checks": pairs - vanishing}
    return PReport(not failures, failures, model.dims(), z_dims, stats)


Key = tuple[int, int, Coords]


def p_labels(ambient: GradedMatrixModel) -> list[Key]:
    """The labels of P(n) in its ambient even model: the keys of ambient
    basis elements whose orbit sums form a basis of P(n).

    Labels.  Write k for the number of block degrees, so the ambient
    keys (I, J, t) have I, J < 2k, and eps(t) = +-1 for X_t^T = eps(t) X_t
    (`transpose_partner`; T is elementary 2).  A label is the ambient key
    of an element x = E_IJ X_t, standing for x + sigma(x) (`_p_image`):
      A(i, j, t) = (i, j, t), i, j < k: E_ij X_t with -(E_ij X_t)^T in
        the d corner; A(i, i, 0) for i >= 1 stands for the trace-free
        A(i, i, 0) - A(0, 0, 0), and (0, 0, 0) is no label;
      B(i, j, t) = (i, k + j, t): the symmetric b corner E_ij X_t +
        eps(t) E_ji X_t, zero iff i = j and eps(t) = -1;
      C(i, j, t) = (k + i, j, t): the antisymmetric c corner E_ij X_t -
        eps(t) E_ji X_t, zero iff i = j and eps(t) = +1.
    B(j, i, t) and C(j, i, t) are +-B(i, j, t) and +-C(i, j, t); the
    labels returned take i <= j for them, 2 (n+1)^2 - 1 in all, a basis
    of P(n).  sigma sends E_IJ X_t to +-E_J'I' X_t, I' = I +- k, of the
    same degree since gamma1 = g0 - gamma: a label has the degree of its
    key, P_g is spanned by the labels of degree g, the support is their
    degrees, and [P_g, P_h] != 0 iff two labels of degrees g and h have
    a nonzero bracket.

    Formal degrees (`universal_P_group`).  Give E_IJ X_t the formal
    degree E_I - E_J + t in Z^(k-1) + Zf + Z^r, with E_0 = 0, E_i the
    i-th unit vector for 1 <= i < k and E_(k+i) = f - E_i: e_i - e_j + t
    on A(i, j, t) (0 on the trace-free diagonal), e_i + e_j - f + t on
    B and f - e_i - e_j + t on C, with e_0 = 0.  It grades M(half, half)
    and sigma keeps it, so P is graded by it, the labels of one formal
    degree share their degree, and a nonzero bracket of labels of formal
    degrees a and b has a label of formal degree a + b in its expansion.

    Brackets.  A(x) = (x 0; 0 -x^T), B(S) = (0 S; 0 0), C(K) = (0 0;
    K 0) give [A(x), A(y)] = A([x, y]), [A(x), B(S)] = B(x S + S x^T),
    [A(x), C(K)] = C(-(x^T K + K x)) and [B(S), C(K)] = A(S K).  Each
    bracket below, of labels that exist landing on a label that exists,
    is a nonzero multiple of that label, or of a nonzero trace-free
    diagonal (landing on "0"), by these rules and X_t X_s = +-X_{t+s}.
    Write [l] for the class of a label's degree in the universal group, g
    for the unit generators of T, and t for any element; the brackets
    give u_i, w and a homomorphism tau with [l] = N(f(l)) for every label
    l, N: e_i -> u_i, f -> -w, t -> tau(t).  `tests/helpers.py` keeps
    them as a witness family of pairs.

    k >= 2, with u_i = [A(i, 0, 0)], u_0 = 0, w = [B(0, 0, 0)] and
    tau(t) = [A(j, j, t)] for t != 0 (one degree for all j), tau(0) = 0:
      [A(1, 1, 0), A(1, 0, 0)] lands on 2 A(1, 0, 0): [0] = 0;
      [A(i, 0, 0), A(0, j, 0)], i, j >= 1, lands on A(i, j, 0), on the
        diagonal if i = j: [A(0, i, 0)] = -u_i, [A(i, j, 0)] = u_i - u_j;
      [A(i, j, 0), A(j, j, t)], i != j, t != 0, lands on A(i, j, t):
        [A(i, j, t)] = u_i - u_j + tau(t);
      [A(0, 1, t), A(1, 0, g)] lands on E_00 X_{t+g} -+ E_11 X_{t+g}, the
        diagonal if t = g: tau(t) + tau(g) = tau(t + g), so tau is a
        homomorphism;
      [A(i, 0, 0), B(0, j, t)], i >= 1, lands on B(i, j, t) and
        [A(j, j, t), B(0, j, 0)], t != 0, on B(0, j, t): [B(0, i, 0)] =
        [B(i, 0, 0)] = u_i + w, then [B(0, j, t)] = u_j + w + tau(t) and
        [B(i, j, t)] = u_i + u_j + w + tau(t) (B(i, 0, t) with eps(t) =
        -1 is +-B(0, i, t));
      [B(0, 0, 0), C(0, j, t)] lands on A(0, j, t): [C(0, j, t)] = -u_j -
        w + tau(t); [A(0, i, 0), C(0, j, t)], i >= 1, lands on C(i, j,
        t): [C(i, j, t)] = -u_i - u_j - w + tau(t).
    k = 1, with A(t), B(t), C(t) for A(0, 0, t) and so on, L(t) the one
    of B(t), C(t) that exists, w = [B(0)] and phi(t) = [L(t)] - eps(t) w:
    for every t and every g in {0} and the unit generators, [A(t), L(g)]
    if t != 0 and eps(t+g) = eps(g), landing on L(t+g), and [L(t), L(g)]
    if eps(t) != eps(g), landing on A(t+g).  By the rules [A(t), L(g)]
    is +-2 X_t X_g (1 + eps(g) eps(t+g)) in L's corner, as (X_t X_g)^T =
    eps(t) eps(g) X_g X_t and X_t X_g = +-X_{t+g}, and [B(t), C(g)] =
    A(4 X_t X_g).  g = 0 gives [A(t)] = phi(t) for t != 0.  For a unit
    generator g, the bracket of (t, g) gives phi(t+g) = phi(t) + phi(g)
    unless eps(t) = eps(g) != eps(t+g).  (g, g) gives 2 phi(g) = 0 when
    eps(g) = +1, and so do (t, g) and (t+g, g) when eps(g) = -1, for a t
    with eps(t) = eps(t+g) = -1.  Such a t exists: eps(t+g) = eps(t)
    eps(g) beta(t, g), so else every t0 + s with beta(t0, g) = -1 and s
    in g's orthogonal complement S would have eps = +1; then eps(s) =
    beta(t0, s) on S and beta(s, s') = eps(s+s') eps(s) eps(s') = 1, but
    |S| = |T|/2 > sqrt|T| = d, as d >= 4 when k = 1, and beta is
    nondegenerate.  In the remaining case (t+g, g) gives phi(t) = phi(t+g)
    + phi(g).  So phi is a homomorphism; set tau = phi, and [B(t)] =
    w + tau(t), [C(t)] = -w + tau(t).
    """
    dom = ambient.pairing.beta.domain
    k = ambient.k // 2
    zero, ts = dom.zero(), [t for t, _ in ambient.pairing.elements]
    eps = _transpose_signs(ambient)
    labels = [(i, j, t) for i in range(k) for j in range(k) for t in ts
              if (i, j, t) != (0, 0, zero)]
    for i in range(k):
        for j in range(i, k):
            for t in ts:
                if i != j or eps[t] > 0:
                    labels.append((i, k + j, t))
                if i != j or eps[t] < 0:
                    labels.append((k + i, j, t))
    return labels


def universal_P_group(spec: PSpec) -> tuple[FinGenAbGroup, dict[Coords, Coords]]:
    """The group presented by the support of the P grading with [g] + [h] =
    [g + h] for every pair of degrees whose components have a nonzero
    bracket (`formal_quotient`), read from the labels of the ambient even
    model: their degrees are the support, and the docstring of `p_labels`
    defines their formal degrees and proves both facts that
    `formal_quotient` needs.  No P(n) basis is built and no bracket is
    formed."""
    ambient = _ambient_model(spec)
    basis, index, k = ambient.basis, ambient.index, ambient.k // 2
    e = [tuple(int(c == i - 1) for c in range(k - 1)) + (0,) for i in range(k)]
    e += [tuple(-a for a in x[:-1]) + (1,) for x in e]
    return formal_quotient(ambient.pairing.beta.domain,
                           [(basis[index[key]].degree,
                             tuple(a - b for a, b in zip(e[key[0]], e[key[1]])) + key[2])
                            for key in p_labels(ambient)])


def P_restriction_condition(spec: EvenAssocSpec) -> Optional[Coords]:
    """A degree shift g0 witnessing that the even grading restricts to P(n).

    Returns None when the support is not an elementary 2-group or no shift
    matches the two block-degree multisets.
    """
    checked = check_spec(spec)
    spec = checked.spec
    if len(spec.gamma0) != len(spec.gamma1) or \
            any(t != 2 for t in spec.beta.domain.torsion):
        return None
    group, tsub = spec.group, checked.pairing.sub
    xi0_inv = CosetMultiset.from_tuple(group, tsub, [group.neg(x) for x in spec.gamma0])
    xi1 = CosetMultiset.from_tuple(group, tsub, spec.gamma1)
    return next(coset_shifts([(xi0_inv, xi1)]), None)
