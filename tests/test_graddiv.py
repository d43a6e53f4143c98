import random
from fractions import Fraction

import pytest

from gradekit.bichar import RootOfUnity, standard_pair
from gradekit.graddiv import (
    CycloSum,
    MonomialMatrix,
    Scalar,
    StandardRealization,
    cyclotomic_polynomial,
    product_table,
    realization_failures,
    verify_realization,
)

F = Fraction


def root(num, den):
    return RootOfUnity(F(num, den))


def test_scalar():
    s = Scalar.from_rational(F(-3, 2))
    assert s.magnitude == F(3, 2) and s.root == RootOfUnity.minus_one()
    assert (s * s).root.is_one() and (s * s).magnitude == F(9, 4)
    assert s.inverse() * s == Scalar.one()
    assert Scalar.from_json(s.to_json()) == s
    with pytest.raises(ValueError):
        Scalar(F(-1), RootOfUnity.one())
    with pytest.raises(ValueError):
        Scalar.from_rational(0)


def random_monomial(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    scalars = tuple(Scalar(F(rng.randint(1, 5)), root(rng.randrange(12), 12))
                    for _ in range(n))
    return MonomialMatrix(n, tuple(perm), scalars)


def test_monomial_algebra():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 5)
        a = random_monomial(rng, n)
        b = random_monomial(rng, n)
        c = random_monomial(rng, n)
        assert (a * b) * c == a * (b * c)
        assert a * MonomialMatrix.identity(n) == a
        assert a * a.inverse() == MonomialMatrix.identity(n)
        assert a.transpose().transpose() == a
        assert (a * b).transpose() == b.transpose() * a.transpose()
        assert (a * b).inverse() == b.inverse() * a.inverse()
        assert MonomialMatrix.from_json(a.to_json()) == a


def test_monomial_entry_and_trace():
    m = MonomialMatrix(2, (1, 0), (Scalar.from_rational(2), Scalar.from_rational(-3)))
    assert m.entry(1, 0) == Scalar.from_rational(2)
    assert m.entry(0, 0) is None
    assert m.trace().is_zero()
    d = MonomialMatrix(2, (0, 1), (Scalar.from_rational(1), Scalar.from_rational(-1)))
    assert d.trace().is_zero()
    i2 = MonomialMatrix.identity(2)
    assert i2.trace().equals_rational(2)


def test_proportionality():
    rng = random.Random(9)
    a = random_monomial(rng, 4)
    c = Scalar(F(2), root(1, 3))
    assert a.scale(c).proportionality(a) == c
    b = random_monomial(rng, 4)
    if b.perm != a.perm:
        assert a.proportionality(b) is None


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyclosum_zero_sums():
    for m in (2, 3, 4, 5, 6, 8, 12):
        acc = CycloSum.zero()
        for k in range(m):
            acc = acc + CycloSum.term(F(1), root(k, m))
        assert acc.is_zero(), f"full character sum over Z/{m}"
    assert not (CycloSum.term(F(1), root(0, 1)) + CycloSum.term(F(1), root(1, 3))).is_zero()
    assert not CycloSum.term(F(1), root(1, 4)).is_zero()


def test_cyclosum_cross_denominator():
    # zeta_6 == -zeta_3^2
    lhs = CycloSum.term(F(1), root(1, 6))
    rhs = CycloSum.term(F(1), root(2, 3)).scale(F(-1))
    assert lhs == rhs
    assert (lhs - rhs).is_zero()
    assert lhs.equals_rational(0) is False


def test_realization_z2_matrices():
    _, beta = standard_pair([2])
    real = StandardRealization(beta)
    assert real.size == 2
    one = Scalar.one()
    neg = Scalar.from_root(RootOfUnity.minus_one())
    # the pair is a = (0,1), b = (1,0); labels are (0,0), (1,0)
    assert real.matrix((0, 1)) == MonomialMatrix(2, (0, 1), (one, neg))
    assert real.matrix((1, 0)) == MonomialMatrix(2, (1, 0), (one, one))
    assert real.matrix((1, 1)) == MonomialMatrix(2, (1, 0), (neg, one))
    assert real.matrix((0, 0)) == MonomialMatrix.identity(2)


def test_realization_transpose_partner():
    _, beta = standard_pair([2])
    real = StandardRealization(beta)
    u, c = real.transpose_partner((1, 1))
    assert u == (1, 1) and c == RootOfUnity.minus_one()
    u, c = real.transpose_partner((0, 1))
    assert u == (0, 1) and c.is_one()


@pytest.mark.parametrize("h", [[2], [3], [4], [2, 2]])
def test_verify_realization(h):
    _, beta = standard_pair(h)
    verify_realization(StandardRealization(beta))


def test_product_table():
    _, beta = standard_pair([2])
    real = StandardRealization(beta)
    table = product_table(real, push=lambda u: ("label",) + u)
    elems = sorted(beta.domain.elements())
    assert sorted(table) == [(t, s) for t in elems for s in elems]
    for (t, s), (sigma, label) in table.items():
        ts = beta.domain.add(t, s)
        assert label == ("label",) + ts
        assert real.matrix(t) * real.matrix(s) == \
            real.matrix(ts).scale(Scalar.from_root(sigma))
        assert sigma * table[s, t][0].inverse() == beta.value(t, s)


class ScaledAt(StandardRealization):
    """A standard realization with X_at replaced by factor * X_at."""

    def __init__(self, beta, at, factor):
        super().__init__(beta)
        self.at, self.factor = at, factor

    def matrix(self, t):
        out = super().matrix(t)
        return out.scale(self.factor) if self.group.reduce(t) == self.at else out


def test_realization_failures_name_each_broken_identity():
    _, beta = standard_pair([4])
    real = StandardRealization(beta)
    assert realization_failures(real, product_table(real)) == []
    wrong = realization_failures(real, product_table(real), beta.inverse())
    assert wrong and all(f.startswith("commutation factor") for f in wrong)

    minus = ScaledAt(beta, (0, 0), Scalar.from_root(RootOfUnity.minus_one()))
    assert realization_failures(minus, product_table(minus)) == [
        "X at the identity is not the identity matrix",
        "trace at the identity is not the dimension",
    ]

    doubled = ScaledAt(beta, (1, 0), Scalar(F(2), RootOfUnity.one()))
    failures = realization_failures(doubled, product_table(doubled))
    assert "X_(1, 0) X_(0, 1) is not a root multiple of X_(t+s)" in failures
    assert "transpose identity fails at (3, 0)" in failures
    with pytest.raises(ValueError, match="not a root multiple"):
        verify_realization(doubled)


def test_realization_size():
    _, beta = standard_pair([2, 4])
    real = StandardRealization(beta)
    assert real.size == 8
    assert len({real.matrix(t) for t in beta.domain.elements()}) == beta.domain.order()
