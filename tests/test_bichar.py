import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from gradekit.abgroup import FinGenAbGroup, Subgroup
from gradekit.bichar import (
    Bicharacter,
    beta_isomorphism,
    common_modulus,
    standard_pair,
)

from helpers import (
    brute_closure,
    brute_dual_pairs,
    exponent,
    random_alternating,
    random_alternating_form,
    ref_row,
    ref_value,
    restrict,
    standard_isometries,
)

F = Fraction


def order(beta, residue):
    """The order of the root a residue modulo beta.m stands for."""
    return beta.m // gcd(residue, beta.m)


def test_values_are_residues():
    # on the Z/4 standard pair, beta(e1, e2) = i is the residue 1 mod 4
    group, beta = standard_pair([4])
    assert (beta.m, beta.N) == (4, ((0, 1), (3, 0)))
    a, b = (1, 0), (0, 1)
    i = beta.value(a, b)
    assert i == 1
    # a product of roots is the sum of residues: i * i = -1, (-1)^2 = 1
    minus_one = beta.value(group.scale(2, a), b)
    assert minus_one == (i + i) % 4 == 2
    assert beta.value(group.scale(4, a), b) == (minus_one + minus_one) % 4 == 0
    # the inverse is the negated residue, the swapped arguments
    assert beta.value(b, a) == -i % 4 == 3
    assert beta.inverse().value(a, b) == 3
    # a power is a multiple: i^4 = 1, i^-1 = i^3, i^5 = i
    assert beta.value(group.scale(-1, a), b) == 3 * i % 4
    assert beta.value((5, 0), b) == i
    # the order of a residue v is m / gcd(v, m)
    assert [order(beta, beta.value(group.scale(k, a), b)) for k in range(4)] == [1, 4, 2, 4]
    # the exponents handed out are the residues over m
    assert beta.q[0][1] == F(i, 4)


def test_common_modulus():
    assert common_modulus(4, 6) == (12, 3, 2)
    assert common_modulus(2, 2) == (2, 1, 1)
    # 1/2 modulo 2 and 3/6 modulo 6 are both -1
    mod, f1, f2 = common_modulus(2, 6)
    assert 1 * f1 % mod == 3 * f2 % mod


SHAPES = [(2,), (3,), (4,), (2, 2), (6,), (2, 4), (2, 2, 3)]


@pytest.mark.parametrize("h", SHAPES, ids=str)
def test_value_matches_the_fraction_reference(h):
    # residues over m are the Fraction sums of beta.q, also on the
    # inverse and on a restriction, whose values are those of beta
    rng = random.Random(SHAPES.index(h))
    beta = random_alternating(rng, h)
    group = beta.domain
    elems = sorted(group.elements())
    sub = Subgroup(group, [rng.choice(elems), rng.choice(elems)])
    inv, res = beta.inverse(), restrict(beta, sub)
    gens = [g for g, _ in sub.smith_gens]
    for b in (beta, inv, res):
        b.validate()
        # m is the least common denominator of the exponents
        assert b.m == lcm(1, *(v.denominator for row in b.q for v in row))
    for x in elems:
        row, inv_row = ref_row(beta, x), ref_row(inv, x)
        for y in elems:
            want = ref_value(beta, x, y, row)
            assert F(beta.value(x, y), beta.m) == want
            assert F(inv.value(x, y), inv.m) == ref_value(inv, x, y, inv_row) == -want % 1

    def embed(x):
        """The element sum_i x_i gens[i] of the group."""
        return group.reduce([sum(c * g[k] for c, g in zip(x, gens))
                             for k in range(group.rank)])

    for x in res.domain.elements():
        for y in res.domain.elements():
            assert F(res.value(x, y), res.m) == ref_value(res, x, y) \
                == ref_value(beta, embed(x), embed(y))


def test_standard_pair_z4():
    group, beta = standard_pair([4])
    assert group == FinGenAbGroup(0, (4, 4))
    assert beta.q == ((F(0), F(1, 4)), (F(3, 4), F(0)))
    beta.validate()
    assert beta.is_nondegenerate()


def test_standard_pair_z2():
    group, beta = standard_pair([2])
    assert exponent(beta, beta.value((1, 0), (0, 1))) == F(1, 2)
    assert beta.value((1, 0), (1, 0)) == 0
    assert beta.value((1, 1), (1, 1)) == 0


def test_validate_rejections():
    z4 = FinGenAbGroup(0, (4,))
    with pytest.raises(ValueError):
        Bicharacter(z4, ((F(1, 3),),)).validate()  # not killed by 4
    with pytest.raises(ValueError):
        Bicharacter(z4, ((F(1, 4),),)).validate()  # nonzero diagonal
    z22 = FinGenAbGroup(0, (2, 2))
    bad = Bicharacter(z22, ((F(0), F(1, 2)), (F(0), F(0))))
    with pytest.raises(ValueError):
        bad.validate()  # not antisymmetric
    with pytest.raises(ValueError):
        Bicharacter(FinGenAbGroup(1), ())


def test_value_bilinear():
    rng = random.Random(3)
    group, beta = standard_pair([2, 4])
    elems = [tuple(rng.randrange(d) for d in group.torsion) for _ in range(12)]
    for _ in range(40):
        x, y, z = rng.choice(elems), rng.choice(elems), rng.choice(elems)
        m = beta.m
        assert beta.value(group.add(x, y), z) == (beta.value(x, z) + beta.value(y, z)) % m
        assert beta.value(x, group.add(y, z)) == (beta.value(x, y) + beta.value(x, z)) % m
        assert beta.value(x, x) == 0
        assert (beta.value(x, y) + beta.value(y, x)) % m == 0


def test_radical():
    group, beta = standard_pair([2, 2])
    assert beta.radical().order() == 1
    z22 = FinGenAbGroup(0, (2, 2))
    zero = Bicharacter(z22, ((F(0), F(0)), (F(0), F(0))))
    assert zero.radical().order() == 4
    # one hyperbolic pair plus a dead coordinate
    z222 = FinGenAbGroup(0, (2, 2, 2))
    q = [[F(0)] * 3 for _ in range(3)]
    q[0][1] = q[1][0] = F(1, 2)
    b = Bicharacter(z222, tuple(tuple(r) for r in q))
    rad = b.radical()
    assert rad.order() == 2 and rad.contains((0, 0, 1))


def test_orthogonal_complement_sizes():
    group, beta = standard_pair([4])
    total = group.order()
    for gens in [[(1, 0)], [(0, 1)], [(1, 1)], [(2, 0)], [(1, 0), (0, 1)]]:
        sub = Subgroup(group, gens)
        comp = beta.orthogonal_complement(sub)
        assert sub.order() * comp.order() == total
        for a in sub.elements():
            for x in comp.elements():
                assert beta.value(x, a) == 0


def test_orthogonal_complement_degenerate():
    z22 = FinGenAbGroup(0, (2, 2))
    zero = Bicharacter(z22, ((F(0), F(0)), (F(0), F(0))))
    comp = zero.orthogonal_complement(Subgroup(z22, [(1, 0)]))
    assert comp.order() == 4


def test_restrict():
    group, beta = standard_pair([2, 4])
    sub = Subgroup(group, [(1, 0, 0, 0), (0, 0, 1, 0)])
    res = restrict(beta, sub)
    res.validate()
    gens = [g for g, _ in sub.smith_gens]
    for i, a in enumerate(gens):
        for j, b in enumerate(gens):
            assert res.q[i][j] == exponent(beta, beta.value(a, b))


def test_symplectic_decomposition_standard():
    group, beta = standard_pair([2, 4])
    dec = beta.symplectic_decomposition()
    assert dec.orders == (4, 2)
    for i, (a, b, o) in enumerate(dec.pairs):
        assert group.element_order(a) == o == group.element_order(b)
        assert order(beta, beta.value(a, b)) == o
        for j, (a2, b2, _) in enumerate(dec.pairs):
            if i != j:
                assert beta.value(a, a2) == 0
                assert beta.value(a, b2) == 0
                assert beta.value(b, b2) == 0
    # the pairs generate the domain
    assert Subgroup(group, list(dec.a_gens + dec.b_gens)).order() == group.order()


def test_symplectic_decomposition_scrambled():
    # same pairing written on mangled generators still splits
    group, beta0 = standard_pair([4])

    # precompose with the automorphism (x, y) -> (x + 2y, y)
    def img(v):
        return group.reduce((v[0] + 2 * v[1], v[1]))

    qm = tuple(tuple(exponent(beta0, beta0.value(img(group.unit(i)), img(group.unit(j))))
                     for j in range(2)) for i in range(2))
    beta = Bicharacter(group, qm)
    dec = beta.symplectic_decomposition()
    assert dec.orders == (4,)
    a, b, _ = dec.pairs[0]
    assert order(beta, beta.value(a, b)) == 4


@pytest.mark.parametrize("h", [(2, 2), (4,), (3,), (2, 4), (6,), (2, 2, 2)])
def test_symplectic_decomposition_follows_the_pivot_rule(h):
    # the realization's labels, and so the CLI output, rest on these pairs
    rng = random.Random(sum(h) * 31 + len(h))
    for _ in range(3):
        beta = random_alternating(rng, h)
        assert beta.symplectic_decomposition().pairs == brute_dual_pairs(beta)


def test_symplectic_decomposition_rejects_degenerate():
    z22 = FinGenAbGroup(0, (2, 2))
    zero = Bicharacter(z22, ((F(0), F(0)), (F(0), F(0))))
    with pytest.raises(ValueError):
        zero.symplectic_decomposition()


def test_trivial_domain():
    triv = FinGenAbGroup(0, ())
    beta = Bicharacter(triv, ())
    beta.validate()
    assert beta.is_nondegenerate()
    assert beta.symplectic_decomposition().pairs == ()
    assert beta.value((), ()) == 0


def test_beta_isomorphism_same_pairing():
    _, b1 = standard_pair([4])
    _, b2 = standard_pair([4])
    images = beta_isomorphism(b1, b2)
    assert images is not None
    g = b1.domain
    for i in range(2):
        for j in range(2):
            assert exponent(b2, b2.value(images[i], images[j])) == b1.q[i][j]


def test_beta_isomorphism_distinguishes_groups():
    _, b1 = standard_pair([4])
    _, b2 = standard_pair([2, 2])
    assert b1.domain.order() == b2.domain.order() == 16
    assert beta_isomorphism(b1, b2) is None


def test_beta_isomorphism_pins():
    group, beta = standard_pair([2])
    # swap the two generators
    images = beta_isomorphism(beta, beta, pins=[((1, 0), (0, 1))])
    assert images is not None and images[0] == (0, 1)
    # no automorphism sends a generator to the identity
    assert beta_isomorphism(beta, beta, pins=[((1, 0), (0, 0))]) is None
    # pin involving both generators
    images = beta_isomorphism(beta, beta, pins=[((1, 1), (1, 1))])
    assert images is not None


def test_beta_isomorphism_inverse_pairing_z3():
    # on H x H^ with H = Z/3 the inverse pairing is a relabeling
    _, b = standard_pair([3])
    binv = b.inverse()
    binv.validate()
    images = beta_isomorphism(b, binv)
    assert images is not None


def test_inverse():
    _, b = standard_pair([4])
    bi = b.inverse()
    for x in b.domain.elements():
        for y in b.domain.elements():
            assert bi.value(x, y) == -b.value(x, y) % b.m


def test_beta_isomorphism_pin_across_heights():
    # on (Z/2 x Z/4)^2, (0,0,0,2) is twice an element and (0,0,1,0) is not
    _, beta = standard_pair([2, 4])
    assert beta_isomorphism(beta, beta, [((0, 0, 0, 2), (0, 0, 1, 0))]) is None
    assert beta_isomorphism(beta, beta, [((0, 0, 1, 0), (0, 0, 0, 2))]) is None
    assert beta_isomorphism(beta, beta, [((0, 0, 0, 2), (0, 2, 0, 0))]) is not None


def _check_isometry(b1, b2, images, pins):
    """images: a bijection onto b2's domain keeping the pairing on every
    pair of b1's generators and meeting every pin."""
    g1, g2 = b1.domain, b2.domain

    def apply(x):
        acc = g2.zero()
        for c, im in zip(x, images):
            acc = g2.add(acc, g2.scale(c, im))
        return acc

    assert len({apply(x) for x in g1.elements()}) == g2.order()
    for i in range(g1.rank):
        for j in range(g1.rank):
            assert (exponent(b2, b2.value(images[i], images[j]))
                    == exponent(b1, b1.value(g1.unit(i), g1.unit(j))))
    for s, t in pins:
        assert apply(s) == t


def test_beta_isomorphism_across_coordinates():
    # Z/6 x Z/6 and (Z/2 x Z/3)^2 are one pairing up to isometry
    _, b6 = standard_pair([6])
    _, b23 = standard_pair([2, 3])
    for b1, b2 in [(b6, b23), (b23, b6)]:
        _check_isometry(b1, b2, beta_isomorphism(b1, b2), [])
    for pins in [[((3, 0), (1, 0, 0, 0))], [((2, 0), (0, 1, 0, 0))],
                 [((3, 0), (1, 0, 0, 0)), ((0, 2), (0, 0, 0, 1))]]:
        _check_isometry(b6, b23, beta_isomorphism(b6, b23, pins), pins)
    # the orders differ; then the sources pair to -1, the targets to 1
    assert beta_isomorphism(b6, b23, [((3, 0), (0, 1, 0, 0))]) is None
    assert beta_isomorphism(b6, b23, [((3, 0), (1, 0, 0, 0)),
                                      ((0, 3), (1, 0, 0, 0))]) is None


@pytest.mark.parametrize("h", [(4,), (2, 2), (8,), (2, 4), (2, 3)], ids=str)
def test_beta_isomorphism_random_pins_against_brute_force(h):
    group, beta = standard_pair(h)
    elems, walk = standard_isometries(h)
    isometries = []
    walk(lambda images: isometries.append(tuple(elems[i] for i in images)))

    def apply(images, x):
        return tuple(sum(c * im[j] for c, im in zip(x, images)) % d
                     for j, d in enumerate(group.torsion))

    rng = random.Random(sum(h))
    for trial in range(40):
        sources = [rng.choice(elems) for _ in range(rng.randint(1, 2))]
        if trial % 2:
            # pins some isometry meets: the search must find one
            psi = rng.choice(isometries)
            pins = [(s, apply(psi, s)) for s in sources]
        else:
            pins = [(s, rng.choice(elems)) for s in sources]
        images = beta_isomorphism(beta, beta, pins)
        met = any(all(apply(phi, s) == t for s, t in pins) for phi in isometries)
        assert (images is not None) == met, pins
        if images is not None:
            _check_isometry(beta, beta, images, pins)


def test_orthogonal_complement_and_radical_against_brute_force():
    rng = random.Random(47)
    for trial in range(100):
        if trial % 4:
            mods = tuple(rng.randint(2, 12) for _ in range(rng.randint(1, 3)))
            beta = random_alternating_form(rng, mods)
        else:
            beta = random_alternating(rng, (rng.randint(2, 6),))
        group = beta.domain
        gens = [tuple(rng.randrange(d) for d in group.torsion)
                for _ in range(rng.randint(0, 2))]
        # beta(x, g) = x N g modulo m; the radical pairs trivially with
        # the unit generators, so with all of the domain
        for comp, against in ((beta.orthogonal_complement(Subgroup(group, gens)),
                               brute_closure(group, gens)),
                              (beta.radical(), group.generators())):
            columns = [[sum(a * b for a, b in zip(row, g)) for row in beta.N]
                       for g in against]
            expected = {x for x in group.elements()
                        if all(sum(a * c for a, c in zip(x, col)) % beta.m == 0
                               for col in columns)}
            assert comp.order() == len(expected)
            assert all(comp.contains(x) == (x in expected) for x in group.elements())
