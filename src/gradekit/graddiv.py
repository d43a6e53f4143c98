"""Monomial matrix models of graded division algebras.

A nondegenerate alternating bicharacter beta on a finite group T is
realized by monomial matrices X_t of size sqrt|T|, one per t in T, with
X_s X_t a root-of-unity multiple of X_{st} and X_u X_v = beta(u, v)
X_v X_u.  Everything is exact: matrix entries are positive rationals
times roots of unity, and trace identities are checked inside the
cyclotomic field rather than with floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Optional, Sequence

from .abgroup import Coords
from .bichar import Bicharacter, DualPairDecomposition, RootOfUnity


@dataclass(frozen=True)
class Scalar:
    """A nonzero scalar: positive rational magnitude times a root of unity."""

    magnitude: Fraction
    root: RootOfUnity

    def __post_init__(self):
        object.__setattr__(self, "magnitude", Fraction(self.magnitude))
        if self.magnitude <= 0:
            raise ValueError("magnitude must be positive; fold signs into the root")

    @classmethod
    def one(cls) -> "Scalar":
        return cls(Fraction(1), RootOfUnity.one())

    @classmethod
    def from_rational(cls, value: Fraction | int) -> "Scalar":
        value = Fraction(value)
        if value == 0:
            raise ValueError("scalars are nonzero")
        if value < 0:
            return cls(-value, RootOfUnity.minus_one())
        return cls(value, RootOfUnity.one())

    @classmethod
    def from_root(cls, root: RootOfUnity) -> "Scalar":
        return cls(Fraction(1), root)

    def __mul__(self, other: "Scalar") -> "Scalar":
        return Scalar(self.magnitude * other.magnitude, self.root * other.root)

    def inverse(self) -> "Scalar":
        return Scalar(1 / self.magnitude, self.root.inverse())

    def is_one(self) -> bool:
        return self.magnitude == 1 and self.root.is_one()

    def to_json(self) -> list[int]:
        return [self.magnitude.numerator, self.magnitude.denominator,
                self.root.exponent.numerator, self.root.exponent.denominator]

    @classmethod
    def from_json(cls, obj: Sequence[int]) -> "Scalar":
        return cls(Fraction(int(obj[0]), int(obj[1])),
                   RootOfUnity(Fraction(int(obj[2]), int(obj[3]))))


@dataclass(frozen=True)
class MonomialMatrix:
    """Invertible matrix with one nonzero entry per row and column.

    Column j holds scalars[j] in row perm[j]: M e_j = scalars[j] e_{perm[j]}.
    """

    n: int
    perm: tuple[int, ...]
    scalars: tuple[Scalar, ...]

    def __post_init__(self):
        if len(self.perm) != self.n or len(self.scalars) != self.n:
            raise ValueError("permutation and scalar lists must have length n")
        if sorted(self.perm) != list(range(self.n)):
            raise ValueError("perm is not a permutation")

    @classmethod
    def identity(cls, n: int) -> "MonomialMatrix":
        return cls(n, tuple(range(n)), (Scalar.one(),) * n)

    def __mul__(self, other: "MonomialMatrix") -> "MonomialMatrix":
        if self.n != other.n:
            raise ValueError("size mismatch")
        perm = tuple(self.perm[other.perm[j]] for j in range(self.n))
        scalars = tuple(self.scalars[other.perm[j]] * other.scalars[j]
                        for j in range(self.n))
        return MonomialMatrix(self.n, perm, scalars)

    def scale(self, s: Scalar) -> "MonomialMatrix":
        return MonomialMatrix(self.n, self.perm, tuple(s * x for x in self.scalars))

    def transpose(self) -> "MonomialMatrix":
        perm = [0] * self.n
        scalars = [Scalar.one()] * self.n
        for j in range(self.n):
            perm[self.perm[j]] = j
            scalars[self.perm[j]] = self.scalars[j]
        return MonomialMatrix(self.n, tuple(perm), tuple(scalars))

    def inverse(self) -> "MonomialMatrix":
        perm = [0] * self.n
        scalars = [Scalar.one()] * self.n
        for j in range(self.n):
            perm[self.perm[j]] = j
            scalars[self.perm[j]] = self.scalars[j].inverse()
        return MonomialMatrix(self.n, tuple(perm), tuple(scalars))

    def entry(self, i: int, j: int) -> Optional[Scalar]:
        return self.scalars[j] if self.perm[j] == i else None

    def trace(self) -> "CycloSum":
        acc = CycloSum.zero()
        for j in range(self.n):
            if self.perm[j] == j:
                s = self.scalars[j]
                acc = acc + CycloSum.term(s.magnitude, s.root)
        return acc

    def proportionality(self, other: "MonomialMatrix") -> Optional[Scalar]:
        """The scalar c with self == c * other, if one exists."""
        if self.n != other.n or self.perm != other.perm:
            return None
        if self.n == 0:
            return Scalar.one()
        c = self.scalars[0] * other.scalars[0].inverse()
        for a, b in zip(self.scalars[1:], other.scalars[1:]):
            if a * b.inverse() != c:
                return None
        return c

    def to_json(self) -> dict:
        return {"n": self.n, "perm": list(self.perm),
                "scalars": [s.to_json() for s in self.scalars]}

    @classmethod
    def from_json(cls, obj: dict) -> "MonomialMatrix":
        return cls(int(obj["n"]), tuple(int(p) for p in obj["perm"]),
                   tuple(Scalar.from_json(s) for s in obj["scalars"]))


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
    sign, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if n > 1 else sign


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


class CycloSum:
    """A finite sum of rational multiples of roots of unity, held exactly."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[dict[Fraction, Fraction]] = None):
        self.terms: dict[Fraction, Fraction] = {}
        if terms:
            for e, c in terms.items():
                if c:
                    self.terms[Fraction(e) % 1] = self.terms.get(Fraction(e) % 1, Fraction(0)) + c
            self.terms = {e: c for e, c in self.terms.items() if c}

    @classmethod
    def zero(cls) -> "CycloSum":
        return cls()

    @classmethod
    def term(cls, coeff: Fraction, root: RootOfUnity) -> "CycloSum":
        return cls({root.exponent: Fraction(coeff)})

    def __add__(self, other: "CycloSum") -> "CycloSum":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return CycloSum(out)

    def __sub__(self, other: "CycloSum") -> "CycloSum":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) - c
        return CycloSum(out)

    def scale(self, c: Fraction) -> "CycloSum":
        return CycloSum({e: v * c for e, v in self.terms.items()})

    def is_zero(self) -> bool:
        """Exact zero test, by reduction modulo a cyclotomic polynomial."""
        if not self.terms:
            return True
        m = 1
        for e in self.terms:
            m = lcm(m, e.denominator)
        poly = [Fraction(0)] * m
        for e, c in self.terms.items():
            poly[int(e * m) % m] += c
        phi = cyclotomic_polynomial(m)
        rem = _poly_mod(poly, phi)
        return not any(rem)

    def equals_rational(self, value: Fraction | int) -> bool:
        return (self - CycloSum.term(Fraction(value), RootOfUnity.one())).is_zero()

    def __eq__(self, other) -> bool:
        return isinstance(other, CycloSum) and (self - other).is_zero()

    def __repr__(self) -> str:
        if not self.terms:
            return "CycloSum(0)"
        bits = [f"{c}*zeta^({e})" for e, c in sorted(self.terms.items())]
        return "CycloSum(" + " + ".join(bits) + ")"


def _poly_mod(poly: list[Fraction], den: Sequence[int]) -> list[Fraction]:
    rem = list(poly)
    dn = len(den) - 1
    lead = den[-1]
    for k in range(len(rem) - 1, dn - 1, -1):
        if rem[k]:
            q = rem[k] / lead
            for i, dc in enumerate(den):
                rem[k - dn + i] -= q * dc
    return rem[:dn]


# ---------------------------------------------------------------------------
# the standard realization


class StandardRealization:
    """Monomial matrices X_t realizing a nondegenerate bicharacter.

    T is split into dual pairs (a_i, b_i); basis vectors are labeled by
    the subgroup B generated by the b_i, sorted lexicographically.  For
    t = a + b (a in A, b in B), X_t sends e_{b'} to beta(a, b + b')
    e_{b + b'}.
    """

    def __init__(self, beta: Bicharacter,
                 decomposition: Optional[DualPairDecomposition] = None):
        self.beta = beta
        self.group = beta.domain
        self.dec = decomposition or beta.symplectic_decomposition()
        labels = []
        for delta in _mixed_radix(self.dec.orders):
            acc = self.group.zero()
            for c, g in zip(delta, self.dec.b_gens):
                if c:
                    acc = self.group.add(acc, self.group.scale(c, g))
            labels.append(acc)
        self.labels: tuple[Coords, ...] = tuple(sorted(labels))
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("dual pair generators are not independent")
        self.size = len(self.labels)
        if self.size * self.size != self.group.order():
            raise ValueError("label count does not square to the group order")
        self._index = {lab: i for i, lab in enumerate(self.labels)}
        self._cache: dict[Coords, MonomialMatrix] = {}

    def split(self, t: Coords) -> tuple[Coords, Coords]:
        """t = a + b with a in the A part and b in the B part."""
        alpha, delta = self.dec.coords_of(t)
        a = self.group.zero()
        for c, g in zip(alpha, self.dec.a_gens):
            if c:
                a = self.group.add(a, self.group.scale(c, g))
        b = self.group.sub(self.group.reduce(t), a)
        return a, b

    def matrix(self, t: Coords) -> MonomialMatrix:
        t = self.group.reduce(t)
        got = self._cache.get(t)
        if got is not None:
            return got
        a, b = self.split(t)
        perm = []
        scalars = []
        for lab in self.labels:
            target = self.group.add(b, lab)
            perm.append(self._index[target])
            scalars.append(Scalar.from_root(self.beta.value(a, target)))
        out = MonomialMatrix(self.size, tuple(perm), tuple(scalars))
        self._cache[t] = out
        return out

    def transpose_partner(self, t: Coords) -> tuple[Coords, RootOfUnity]:
        """(u, c) with X_t^T = c * X_u; u flips the B part of t."""
        a, b = self.split(t)
        u = self.group.sub(a, b)
        return u, self.beta.value(a, b)


def _mixed_radix(radii: Sequence[int]):
    if not radii:
        yield ()
        return
    for rest in _mixed_radix(radii[1:]):
        for c in range(radii[0]):
            yield (c,) + rest


# One entry per ordered pair (t, s): (sigma(t, s), label of t + s) when
# X_t X_s = sigma(t, s) X_{t+s} with sigma a root of unity, else None.
ProductTable = dict[tuple[Coords, Coords], Optional[tuple[RootOfUnity, Coords]]]


def product_table(real: StandardRealization,
                  push: Optional[Callable[[Coords], Coords]] = None) -> ProductTable:
    """Multiply X_t X_s once for every ordered pair of the domain.

    The label of t + s is push(t + s), or t + s itself without push.
    The table keeps roots and labels, not matrices.
    """
    group = real.group
    elems = sorted(group.elements())
    labels = {u: push(u) if push else u for u in elems}
    table: ProductTable = {}
    for t in elems:
        xt = real.matrix(t)
        for s in elems:
            ts = group.add(t, s)
            sigma = (xt * real.matrix(s)).proportionality(real.matrix(ts))
            if sigma is None or sigma.magnitude != 1:
                table[t, s] = None
            else:
                table[t, s] = (sigma.root, labels[ts])
    return table


def realization_failures(real: StandardRealization, table: ProductTable,
                         beta: Optional[Bicharacter] = None) -> list[str]:
    """Every defining identity of a realization that fails, in order.

    X_0 must be the identity; each X_t X_s must be sigma(t,s) X_{t+s}
    with sigma a root of unity and sigma(t,s)/sigma(s,t) = beta(t,s),
    that is X_t X_s = beta(t,s) X_s X_t; traces must vanish away from 0
    and equal the size at 0; transposes must match their partners.
    beta defaults to the realization's own; the products come from
    table, filled by product_table.
    """
    beta = real.beta if beta is None else beta
    group = real.group
    elems = sorted(group.elements())
    e = group.zero()
    failures = []
    if real.matrix(e) != MonomialMatrix.identity(real.size):
        failures.append("X at the identity is not the identity matrix")
    for t in elems:
        for s in elems:
            entry, back = table[t, s], table[s, t]
            if entry is None:
                failures.append(f"X_{t} X_{s} is not a root multiple of X_(t+s)")
            elif back is not None and entry[0] * back[0].inverse() != beta.value(t, s):
                failures.append(f"commutation factor at ({t}, {s}) is off")
    for t in elems:
        tr = real.matrix(t).trace()
        if t == e:
            if not tr.equals_rational(real.size):
                failures.append("trace at the identity is not the dimension")
        elif not tr.is_zero():
            failures.append(f"trace of X_{t} does not vanish")
    for t in elems:
        u, c = real.transpose_partner(t)
        if real.matrix(t).transpose() != real.matrix(u).scale(Scalar.from_root(c)):
            failures.append(f"transpose identity fails at {t}")
    return failures


def verify_realization(real: StandardRealization) -> None:
    """Check every defining identity of a realization, exactly.

    Raises ValueError with the first failure of realization_failures.
    """
    failures = realization_failures(real, product_table(real))
    if failures:
        raise ValueError(failures[0])
