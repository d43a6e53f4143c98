"""Monomial matrix models of graded division algebras.

A nondegenerate alternating bicharacter beta on a finite group T is
realized by monomial matrices X_t of size sqrt|T|, one per t in T, with
X_s X_t a root-of-unity multiple of X_{s+t} and X_u X_v = beta(u, v)
X_v X_u.  Write beta = exp(2 pi i N / m) with (m, N) the pairing's
integer form, Bicharacter.m and Bicharacter.N: every entry of every X_t
is then an m-th root of unity zeta^e, held as its exponent e, an int
modulo m.
Products, proportionality factors and transposes are integer
arithmetic; a trace is decided exactly by counting its fixed points per
residue and reducing that integer polynomial modulo the m-th
cyclotomic polynomial.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .abgroup import Coords, factorize, span
from .bichar import Bicharacter, common_modulus


class MonomialMatrix:
    """Invertible matrix with one nonzero entry per row and column, each
    entry an m-th root of unity.

    Column j holds zeta^exps[j] in row perm[j], zeta = exp(2 pi i / m):
    M e_j = zeta^exps[j] e_{perm[j]}.  Exponents are kept in [0, m).
    """

    __slots__ = ("m", "perm", "exps")

    def __init__(self, m: int, perm: Sequence[int], exps: Sequence[int]):
        self.m = m
        self.perm = tuple(perm)
        self.exps = tuple(e % m for e in exps)
        if len(self.exps) != len(self.perm):
            raise ValueError("permutation and exponent lists must have equal length")
        if sorted(self.perm) != list(range(len(self.perm))):
            raise ValueError("perm is not a permutation")

    @classmethod
    def _of(cls, m: int, perm: tuple[int, ...], exps: tuple[int, ...]) -> "MonomialMatrix":
        """A matrix from a permutation and reduced exponents, unchecked."""
        out = object.__new__(cls)
        out.m, out.perm, out.exps = m, perm, exps
        return out

    @classmethod
    def identity(cls, n: int, m: int = 1) -> "MonomialMatrix":
        return cls._of(m, tuple(range(n)), (0,) * n)

    @property
    def n(self) -> int:
        return len(self.perm)

    def __eq__(self, other) -> bool:
        return (isinstance(other, MonomialMatrix) and self.m == other.m
                and self.perm == other.perm and self.exps == other.exps)

    def __hash__(self) -> int:
        return hash((self.m, self.perm, self.exps))

    def __repr__(self) -> str:
        return f"MonomialMatrix({self.m}, {self.perm}, {self.exps})"

    def __mul__(self, other: "MonomialMatrix") -> "MonomialMatrix":
        m, perm, exps = self.m, self.perm, self.exps
        if other.m != m or len(other.perm) != len(perm):
            raise ValueError("size or root order mismatch")
        return MonomialMatrix._of(m, tuple([perm[p] for p in other.perm]),
                                  tuple([(exps[p] + e) % m
                                         for p, e in zip(other.perm, other.exps)]))

    def scale(self, e: int) -> "MonomialMatrix":
        """zeta^e times the matrix."""
        m = self.m
        return MonomialMatrix._of(m, self.perm, tuple((x + e) % m for x in self.exps))

    def _inverse_perm(self, negate: bool) -> "MonomialMatrix":
        perm, exps = [0] * self.n, [0] * self.n
        for j, (p, e) in enumerate(zip(self.perm, self.exps)):
            perm[p] = j
            exps[p] = -e % self.m if negate else e
        return MonomialMatrix._of(self.m, tuple(perm), tuple(exps))

    def transpose(self) -> "MonomialMatrix":
        return self._inverse_perm(False)

    def inverse(self) -> "MonomialMatrix":
        return self._inverse_perm(True)

    def entry(self, i: int, j: int) -> Optional[int]:
        """The exponent of entry (i, j), or None where the entry is 0."""
        return self.exps[j] if self.perm[j] == i else None

    def trace_counts(self) -> list[int]:
        """Fixed points per exponent: the trace is sum_r counts[r] zeta^r."""
        counts = [0] * self.m
        for j, (p, e) in enumerate(zip(self.perm, self.exps)):
            if p == j:
                counts[e] += 1
        return counts

    def proportionality(self, other: "MonomialMatrix") -> Optional[int]:
        """The exponent c with self == zeta^c * other, if there is one."""
        m = self.m
        if other.m != m or self.perm != other.perm:
            return None
        if not self.perm:
            return 0
        diffs = {(a - b) % m for a, b in zip(self.exps, other.exps)}
        return diffs.pop() if len(diffs) == 1 else None


# ---------------------------------------------------------------------------
# exact sums of roots of unity


def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients of the m-th cyclotomic polynomial, low degree first.

    Phi_m is the product of (x^d - 1)^mu(m/d) over the divisors d of m:
    the factors with mu = 1 are multiplied out, those with mu = -1
    divided off exactly.
    """
    num = [1]
    den = []
    for d in range(1, m + 1):
        if m % d == 0:
            mu = _moebius(m // d)
            if mu == 1:
                num = _poly_mul(num, _x_power_minus_one(d))
            elif mu == -1:
                den.append(d)
    for d in den:
        num = _poly_exact_div(num, _x_power_minus_one(d))
    return tuple(num)


def _moebius(n: int) -> int:
    factors = factorize(n)
    return 0 if any(e > 1 for _, e in factors) else (-1) ** len(factors)


def _x_power_minus_one(d: int) -> list[int]:
    return [-1] + [0] * (d - 1) + [1]


def _poly_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_exact_div(num: Sequence[int], den: Sequence[int]) -> list[int]:
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        c = num[k + len(den) - 1]
        if c % den[-1]:
            raise ArithmeticError("inexact polynomial division")
        q = c // den[-1]
        out[k] = q
        if q:
            for i, dc in enumerate(den):
                num[k + i] -= q * dc
    if any(num):
        raise ArithmeticError("nonzero remainder in exact division")
    return out


def root_sum_vanishes(counts: Sequence[int]) -> bool:
    """Whether sum_r counts[r] zeta^r is 0, zeta = exp(2 pi i / m) and
    m = len(counts).  Exact: the minimal polynomial of zeta is Phi_m,
    monic with integer coefficients, so the sum vanishes exactly when
    Phi_m divides sum_r counts[r] x^r."""
    if not any(counts):
        return True
    phi = cyclotomic_polynomial(len(counts))
    rem = list(counts)
    dn = len(phi) - 1
    for k in range(len(rem) - 1, dn - 1, -1):
        q = rem[k]
        if q:
            for i, c in enumerate(phi):
                rem[k - dn + i] -= q * c
    return not any(rem[:dn])


# ---------------------------------------------------------------------------
# the standard realization


class StandardRealization:
    """Monomial matrices X_t realizing a nondegenerate bicharacter.

    T is split into dual pairs (a_i, b_i); basis vectors are labeled by
    the subgroup B generated by the b_i, sorted lexicographically.  For
    t = a + b (a in A, b in B), X_t sends e_{b'} to beta(a, b + b')
    e_{b + b'}.  Entries are exponents modulo the pairing's m; the X_t
    are built on the first call of matrix.
    """

    def __init__(self, beta: Bicharacter):
        self.beta = beta
        self.group = beta.domain
        self.dec = beta.symplectic_decomposition()
        self.m = beta.m
        self.labels: tuple[Coords, ...] = tuple(sorted(
            x for _, x in span(self.group, self.dec.b_gens, self.dec.orders)))
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("dual pair generators are not independent")
        self.size = len(self.labels)
        if self.size * self.size != self.group.order():
            raise ValueError("label count does not square to the group order")
        self._index = {lab: i for i, lab in enumerate(self.labels)}
        # t -> (a, b, X_t), filled by _build
        self._parts: dict[Coords, tuple[Coords, Coords, MonomialMatrix]] = {}

    def _build(self) -> dict[Coords, tuple[Coords, Coords, MonomialMatrix]]:
        """Every X_t, from the (alpha, delta) coordinates of t = a + b:
        entry j of X_t is a N (b + label j) modulo m."""
        m, n = self.m, self.beta.N
        add = self.group.add
        targets = {b: [add(b, lab) for lab in self.labels] for b in self.labels}
        perms = {b: tuple(self._index[u] for u in us) for b, us in targets.items()}
        parts = {}
        for _, a in span(self.group, self.dec.a_gens, self.dec.orders):
            row = _row(a, n)
            for b, us in targets.items():
                t = add(a, b)
                exps = tuple(sum(r * u for r, u in zip(row, target)) % m
                             for target in us)
                parts[t] = (a, b, MonomialMatrix._of(m, perms[b], exps))
        if len(parts) != self.size * self.size:
            raise ValueError("dual pairs do not span the domain")
        self._parts = parts
        return parts

    def matrix(self, t: Coords) -> MonomialMatrix:
        parts = self._parts or self._build()
        got = parts.get(t)
        if got is None:
            got = parts[self.group.reduce(t)]
        return got[2]

    def transpose_partner(self, t: Coords) -> tuple[Coords, int]:
        """(u, c) with X_t^T = zeta^c X_u; u flips the B part of t."""
        parts = self._parts or self._build()
        a, b, _ = parts.get(t) or parts[self.group.reduce(t)]
        c = sum(r * y for r, y in zip(_row(a, self.beta.N), b)) % self.m
        return self.group.sub(a, b), c


def _row(x: Coords, n: Sequence[Sequence[int]]) -> list[int]:
    """The integer row x N: beta(x, y) = zeta^(x N . y) for (m, N) the
    pairing's integer form and zeta = exp(2 pi i / m)."""
    return [sum(c * v for c, v in zip(x, col)) for col in zip(*n)]


# One entry per ordered pair (t, s) of the domain: (sigma, t + s) when
# X_t X_s = zeta^sigma X_{t+s}, zeta = exp(2 pi i / m), else None.
ProductTable = dict[tuple[Coords, Coords], Optional[tuple[int, Coords]]]


def product_table(real: StandardRealization) -> ProductTable:
    """Multiply X_t X_s once for every ordered pair (t, s) of the domain.

    The table keeps exponents and the domain's t + s, not matrices.
    """
    add = real.group.add
    elems = sorted(real.group.elements())
    mats = {t: real.matrix(t) for t in elems}
    table: ProductTable = {}
    for t in elems:
        xt = mats[t]
        for s in elems:
            ts = add(t, s)
            sigma = (xt * mats[s]).proportionality(mats[ts])
            table[t, s] = None if sigma is None else (sigma, ts)
    return table


def generator_products(real: StandardRealization,
                       beta: Bicharacter) -> Optional[ProductTable]:
    """The entries (t, g) of the product table for every t of the domain
    and every unit generator g, |T| r products for r generators, when
    they prove identities 1-3 of `realization_failures` for every pair
    (t, s); else None.

    They prove them when (i) X_0 is the identity, (ii) every X_t X_g is a
    root multiple of X_{t+g}, and (iii) sigma(g, h) - sigma(h, g) is
    beta(g, h) for every pair of generators:
      - by (ii) and invertibility, X_{s+g} is a root multiple of X_s X_g,
        so by induction on the length of s as a word in the generators,
        with X_0 = I to start, X_t X_s is a root multiple of
        X_t X_{g_1} ... X_{g_l}, hence of X_{t+s};
      - so X_t X_s = c(t, s) X_s X_t with c a root of unity, and c is
        multiplicative in each argument: X_t X_s X_u moves X_t past X_s
        and then past X_u, and X_s X_u is a root multiple of X_{s+u};
      - for coordinates t = sum t_i g_i and s = sum s_j g_j,
        c(t, s) = prod c(g_i, g_j)^(t_i s_j), and the residue that
        `realization_failures` compares with is sum t_i s_j N_ij, so (iii)
        gives c(t, s) = beta(t, s), which is identity 3.
    """
    if beta.domain != real.group:
        raise ValueError("the bicharacter lives on a different group")
    group = real.group
    if real.matrix(group.zero()) != MonomialMatrix.identity(real.size, real.m):
        return None
    add = group.add
    gens = group.generators()
    mats = {t: real.matrix(t) for t in sorted(group.elements())}
    table: ProductTable = {}
    for t, xt in mats.items():
        for g in gens:
            tg = add(t, g)
            sigma = (xt * mats[g]).proportionality(mats[tg])
            if sigma is None:
                return None
            table[t, g] = (sigma, tg)
    unit, fr, fb = common_modulus(real.m, beta.m)
    for g in gens:
        row = _row(g, beta.N)
        for h in gens:
            factor = (table[g, h][0] - table[h, g][0]) * fr
            if (factor - sum(r * y for r, y in zip(row, h)) * fb) % unit:
                return None
    return table


def element_failures(real: StandardRealization) -> list[str]:
    """Identities 4 and 5 of `realization_failures`, one element at a
    time: traces and transposes."""
    failures = []
    e = real.group.zero()
    elems = sorted(real.group.elements())
    for t in elems:
        counts = real.matrix(t).trace_counts()
        if t == e:
            counts[0] -= real.size
            if not root_sum_vanishes(counts):
                failures.append("trace at the identity is not the dimension")
        elif not root_sum_vanishes(counts):
            failures.append(f"trace of X_{t} does not vanish")
    for t in elems:
        u, c = real.transpose_partner(t)
        if real.matrix(t).transpose() != real.matrix(u).scale(c):
            failures.append(f"transpose identity fails at {t}")
    return failures


def realization_failures(real: StandardRealization, table: ProductTable,
                         beta: Bicharacter) -> list[str]:
    """Every defining identity of a realization that fails, in order.

    1. X_0 must be the identity; 2. each X_t X_s must be sigma(t,s)
    X_{t+s} with sigma a root of unity; 3. sigma(t,s)/sigma(s,t) =
    beta(t,s), that is X_t X_s = beta(t,s) X_s X_t; 4. traces must
    vanish away from 0 and equal the size at 0; 5. transposes must match
    their partners (`element_failures`).  beta must live on the
    realization's group; commutation factors are compared as residues
    modulo the common_modulus of the two root orders.  The products come
    from table, filled by product_table.
    """
    if beta.domain != real.group:
        raise ValueError("the bicharacter lives on a different group")
    group = real.group
    m = real.m
    unit, fr, fb = common_modulus(m, beta.m)
    elems = sorted(group.elements())
    failures = []
    if real.matrix(group.zero()) != MonomialMatrix.identity(real.size, m):
        failures.append("X at the identity is not the identity matrix")
    for t in elems:
        row = _row(t, beta.N)
        for s in elems:
            entry, back = table[t, s], table[s, t]
            if entry is None:
                failures.append(f"X_{t} X_{s} is not a root multiple of X_(t+s)")
            elif back is not None and ((entry[0] - back[0]) * fr
                                       - sum(r * y for r, y in zip(row, s)) * fb) % unit:
                failures.append(f"commutation factor at ({t}, {s}) is off")
    return failures + element_failures(real)
