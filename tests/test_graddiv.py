import random
from fractions import Fraction

import pytest

from gradekit.bichar import standard_pair
from gradekit.graddiv import (
    MonomialMatrix,
    StandardRealization,
    cyclotomic_polynomial,
    product_table,
    realization_failures,
    root_sum_vanishes,
)

from helpers import (
    CycloSum,
    ReferenceRealization,
    cyclotomic,
    random_alternating,
    ref_value,
    verify_realization,
)

F = Fraction


def root(num, den):
    """The exponent of the root exp(2 pi i num / den), in [0, 1)."""
    return F(num, den) % 1


def test_exponents_are_residues():
    a = MonomialMatrix(12, (1, 0), (-3, 14))
    assert a.exps == (9, 2) and a.n == 2
    assert a.scale(3).scale(9) == a
    assert a.inverse() * a == MonomialMatrix.identity(2, 12)
    assert a.scale(6) * a.scale(6) == a * a
    with pytest.raises(ValueError):
        MonomialMatrix(4, (0, 0), (0, 0))
    with pytest.raises(ValueError):
        MonomialMatrix(4, (0, 1), (0,))
    with pytest.raises(ValueError):
        MonomialMatrix(4, (0,), (0,)) * MonomialMatrix(2, (0,), (0,))


def random_monomial(rng, n, m=12):
    perm = list(range(n))
    rng.shuffle(perm)
    return MonomialMatrix(m, perm, [rng.randrange(m) for _ in range(n)])


def test_monomial_algebra():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 5)
        a = random_monomial(rng, n)
        b = random_monomial(rng, n)
        c = random_monomial(rng, n)
        assert (a * b) * c == a * (b * c)
        assert a * MonomialMatrix.identity(n, 12) == a
        assert a * a.inverse() == MonomialMatrix.identity(n, 12)
        assert a.transpose().transpose() == a
        assert (a * b).transpose() == b.transpose() * a.transpose()
        assert (a * b).inverse() == b.inverse() * a.inverse()


def test_monomial_entry_and_trace():
    m = MonomialMatrix(2, (1, 0), (0, 1))
    assert m.entry(1, 0) == 0 and m.entry(0, 1) == 1
    assert m.entry(0, 0) is None
    assert m.trace_counts() == [0, 0]
    assert root_sum_vanishes(m.trace_counts())
    d = MonomialMatrix(2, (0, 1), (0, 1))
    assert d.trace_counts() == [1, 1]
    assert root_sum_vanishes(d.trace_counts())
    i2 = MonomialMatrix.identity(2, 2)
    counts = i2.trace_counts()
    assert counts == [2, 0] and not root_sum_vanishes(counts)
    counts[0] -= 2
    assert root_sum_vanishes(counts)


def test_proportionality():
    rng = random.Random(9)
    a = random_monomial(rng, 4)
    assert a.scale(4).proportionality(a) == 4
    assert a.proportionality(a) == 0
    b = random_monomial(rng, 4)
    if b.perm != a.perm:
        assert a.proportionality(b) is None
    skew = MonomialMatrix(12, a.perm, a.exps[:-1] + (a.exps[-1] + 1,))
    assert skew.proportionality(a) is None
    assert MonomialMatrix(6, a.perm, a.exps).proportionality(a) is None


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    for m in range(1, 31):
        assert list(cyclotomic_polynomial(m)) == cyclotomic(m)


def test_root_sum_zero_sums():
    for m in (2, 3, 4, 5, 6, 8, 12):
        assert root_sum_vanishes([1] * m), f"full character sum over Z/{m}"
    # 1 + zeta_3, zeta_4
    assert not root_sum_vanishes([1, 1, 0])
    assert not root_sum_vanishes([0, 1, 0, 0])


def test_root_sum_cross_denominator():
    # zeta_6 == -zeta_3^2 == -zeta_6^4, so zeta_6 + zeta_6^4 vanishes
    assert root_sum_vanishes([0, 1, 0, 0, 1, 0])
    assert not root_sum_vanishes([0, 1, 0, 0, 0, 0])
    # the same sums as the moved CycloSum writes them
    lhs = CycloSum.term(F(1), root(1, 6))
    rhs = CycloSum.term(F(1), root(2, 3)).scale(F(-1))
    assert lhs == rhs
    assert (lhs - rhs).is_zero()
    assert lhs.equals_rational(0) is False


def test_root_sum_agrees_with_cyclosum():
    rng = random.Random(17)
    for m in range(1, 13):
        for _ in range(40):
            counts = [rng.randint(-2, 2) for _ in range(m)]
            if rng.random() < 0.5:
                # add a multiple of a vanishing full sum over a divisor
                d = rng.choice([d for d in range(1, m + 1) if m % d == 0 and d > 1]
                               or [m])
                k = rng.randrange(m)
                for j in range(d):
                    counts[(k + j * (m // d)) % m] += 1
            ref = CycloSum.zero()
            for r, c in enumerate(counts):
                ref = ref + CycloSum.term(F(c), root(r, m))
            assert root_sum_vanishes(counts) == ref.is_zero(), (m, counts)


def test_realization_z2_matrices():
    _, beta = standard_pair([2])
    real = StandardRealization(beta)
    assert real.size == 2 and real.m == 2
    # the pair is a = (0,1), b = (1,0); labels are (0,0), (1,0)
    assert real.matrix((0, 1)) == MonomialMatrix(2, (0, 1), (0, 1))
    assert real.matrix((1, 0)) == MonomialMatrix(2, (1, 0), (0, 0))
    assert real.matrix((1, 1)) == MonomialMatrix(2, (1, 0), (1, 0))
    assert real.matrix((0, 0)) == MonomialMatrix.identity(2, 2)
    assert real.matrix((2, 3)) == real.matrix((0, 1))


def test_realization_transpose_partner():
    _, beta = standard_pair([2])
    real = StandardRealization(beta)
    u, c = real.transpose_partner((1, 1))
    assert u == (1, 1) and c == 1
    u, c = real.transpose_partner((0, 1))
    assert u == (0, 1) and c == 0


@pytest.mark.parametrize("h", [[2], [3], [4], [2, 2]])
def test_verify_realization(h):
    _, beta = standard_pair(h)
    verify_realization(StandardRealization(beta))


def test_product_table():
    _, beta = standard_pair([2])
    real = StandardRealization(beta)
    table = product_table(real)
    elems = sorted(beta.domain.elements())
    assert sorted(table) == [(t, s) for t in elems for s in elems]
    for (t, s), (sigma, ts) in table.items():
        assert ts == beta.domain.add(t, s)
        assert real.matrix(t) * real.matrix(s) == real.matrix(ts).scale(sigma)
        assert root(sigma - table[s, t][0], real.m) == ref_value(beta, t, s)


class Altered(StandardRealization):
    """A standard realization with X_at changed by alter."""

    def __init__(self, beta, at, alter):
        super().__init__(beta)
        self.at, self.alter = at, alter

    def matrix(self, t):
        out = super().matrix(t)
        return self.alter(out) if self.group.reduce(t) == self.at else out


def bump(j):
    """Multiply entry j (by column) by zeta."""
    return lambda x: MonomialMatrix(x.m, x.perm,
                                    x.exps[:j] + (x.exps[j] + 1,) + x.exps[j + 1:])


def test_realization_failures_name_each_broken_identity():
    _, beta = standard_pair([4])
    real = StandardRealization(beta)
    assert realization_failures(real, product_table(real), beta) == []
    wrong = realization_failures(real, product_table(real), beta.inverse())
    assert wrong and all(f.startswith("commutation factor") for f in wrong)

    minus = Altered(beta, (0, 0), lambda x: x.scale(x.m // 2))
    assert realization_failures(minus, product_table(minus), beta) == [
        "X at the identity is not the identity matrix",
        "trace at the identity is not the dimension",
    ]

    bumped = Altered(beta, (1, 0), bump(0))
    failures = realization_failures(bumped, product_table(bumped), beta)
    assert "X_(1, 0) X_(0, 1) is not a root multiple of X_(t+s)" in failures
    assert "transpose identity fails at (3, 0)" in failures
    with pytest.raises(ValueError, match="not a root multiple"):
        verify_realization(bumped)


def test_realization_size():
    _, beta = standard_pair([2, 4])
    real = StandardRealization(beta)
    assert real.size == 8
    assert len({real.matrix(t) for t in beta.domain.elements()}) == beta.domain.order()


SHAPES = [(2,), (3,), (4,), (2, 2), (6,), (2, 4), (2, 2, 3)]


@pytest.mark.parametrize("h", SHAPES)
def test_integer_core_matches_the_fraction_reference(h):
    rng = random.Random(SHAPES.index(h))
    beta = random_alternating(rng, h)
    real = StandardRealization(beta)
    ref = ReferenceRealization(beta)
    m = real.m
    assert m == beta.m
    elems = ref.elements()
    for t in elems:
        x = real.matrix(t)
        assert (x.perm, tuple(F(e, m) for e in x.exps)) == ref.mats[t]
    table = product_table(real)
    want = ref.table()
    for (t, s), entry in want.items():
        got = table[t, s]
        assert got is not None and entry is not None
        assert (F(got[0], m), got[1]) == entry
    for t in elems:
        u, c = real.transpose_partner(t)
        assert (u, F(c, m)) == ref.transpose_partner(t)
        counts = real.matrix(t).trace_counts()
        if t == beta.domain.zero():
            counts[0] -= real.size
            assert root_sum_vanishes(counts) == ref.trace(t).equals_rational(real.size)
        else:
            assert root_sum_vanishes(counts) == ref.trace(t).is_zero()
    assert realization_failures(real, table, beta) == ref.failures(want) == []


@pytest.mark.parametrize("h", SHAPES)
def test_altered_exponent_gives_the_reference_failures(h):
    rng = random.Random(100 + SHAPES.index(h))
    beta = random_alternating(rng, h)
    ref = ReferenceRealization(beta)
    at = rng.choice(ref.elements())
    j = rng.randrange(ref.size)
    real = Altered(beta, at, bump(j))
    perm, exps = ref.mats[at]
    ref.mats[at] = (perm, exps[:j] + ((exps[j] + F(1, real.m)) % 1,) + exps[j + 1:])
    want = ref.failures()
    assert want
    assert realization_failures(real, product_table(real), beta) == want
