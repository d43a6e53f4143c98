import dataclasses
import itertools
import random
import time
from math import gcd

import pytest

from gradekit.abgroup import (
    FinGenAbGroup,
    GroupHom,
    Subgroup,
    coset_canonical_rep,
    factorize,
    finitely_presented_quotient,
    hermite_normal_form,
    lattice_coords,
    lattice_intersect,
    lattice_tail,
    smith_normal_form,
    span,
    squares_and_two_torsion,
    subgroup_and_quotient,
)

from gradekit import abgroup, matgrade
from gradekit.classify import enumerate_P_fine, enumerate_even_fine, enumerate_odd_fine
from gradekit.matgrade import build_matrix_model, universal_group
from gradekit.superlie import universal_P_group

import helpers
from helpers import (
    brute_closure,
    brute_coset_canonical_rep,
    count_calls,
    dense_columns,
    dense_hermite_normal_form,
    dense_rows,
    dense_smith_normal_form,
    fraction_inverse,
    fraction_triangular_solve,
    full_pair_universal_group,
    is_isomorphic,
    random_unimodular,
    solve_square,
    sparse_rows,
    unimodular_inverse,
)


def mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def check_snf(mat):
    n = len(mat[0])
    diag, cols, rows = smith_normal_form(sparse_rows(mat), n)
    v = dense_columns(cols)
    assert len(diag) == n
    # W is V^-1, row by row
    assert dense_rows(rows, n) == unimodular_inverse(v)
    # mat * V and the diagonal span one row lattice
    rows = [[d * int(i == j) for j in range(n)] for i, d in enumerate(diag)]
    assert hermite_normal_form(mat_mul(mat, v)) == hermite_normal_form(rows)
    for a, b in zip(diag, diag[1:]):
        assert a >= 0 and b >= 0
        if a and b:
            assert b % a == 0
        if a == 0:
            assert b == 0
    # unimodularity
    unimodular_inverse(v)
    return diag


def test_snf_small_cases():
    assert check_snf([[2, -2]]) == [2, 0]
    assert check_snf([[2], [3]]) == [1]
    assert check_snf([[2, 0], [0, 3]]) == [1, 6]
    assert check_snf([[4, 0], [0, 6]]) == [2, 12]
    assert check_snf([[0, 0], [0, 0]]) == [0, 0]
    assert check_snf([[1, 2], [3, 4]]) == [1, 2]


def test_snf_random():
    rng = random.Random(7)
    for _ in range(60):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        mat = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        check_snf(mat)


def random_snf_case(rng, kind):
    """A seeded matrix for the Smith oracle tests, by kind."""
    m, n = rng.randint(1, 6), rng.randint(1, 6)
    if kind == "tall":
        m, n = rng.randint(4, 8), rng.randint(1, 3)
    if kind == "nonunit":
        entries = (0, 0, 2, -2, 4, -6, 8, 9, 12)
        mat = [[rng.choice(entries) for _ in range(n)] for _ in range(m)]
    elif kind == "sparse":
        mat = [[rng.choice((0, 0, 0, 1, -1, 3, -5)) for _ in range(n)] for _ in range(m)]
    elif kind == "deficient":
        base = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(1, 2))]
        mat = [[sum(rng.randint(-2, 2) * r[j] for r in base) for j in range(n)]
               for _ in range(m)]
    elif kind == "divisibility":
        # a diagonal of coprime moduli, hidden by unimodular changes
        k = min(m, n)
        diag = [rng.choice((2, 3, 4, 5, 6, 9)) for _ in range(k)]
        mat = [[diag[i] * int(i == j) if i < k else 0 for j in range(n)] for i in range(m)]
        mat = mat_mul(random_unimodular(rng, m, steps=4), mat)
        mat = mat_mul(mat, random_unimodular(rng, n, steps=4))
    else:
        mat = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
    if kind != "divisibility" and rng.random() < 0.3:
        mat.insert(rng.randrange(m + 1), [0] * n)
    return mat


def test_snf_matches_dense_oracle():
    """The sparse Smith form returns the dense loop's (diag, V) exactly,
    on zero rows, negative entries and pivots, non-unit pivots, the
    divisibility fix, rank deficiency and tall shapes."""
    rng = random.Random(12)
    fixed = [[[2, 0], [0, 3]], [[0, 0], [0, 0]], [[-2, 4], [6, -3]], [[0], [0], [5]],
             [[4, 0, 0], [0, 6, 0], [0, 0, 10]], [[-3, -3], [-3, -3]]]
    kinds = ["dense", "nonunit", "sparse", "deficient", "divisibility", "tall"]
    cases = fixed + [random_snf_case(rng, kinds[i % 6]) for i in range(360)]
    seen = {"zero row": 0, "negative entry": 0, "non-unit": 0, "deficient": 0, "tall": 0}
    for mat in cases:
        n = len(mat[0])
        diag, v = dense_smith_normal_form(mat)
        got_diag, got_v, got_w = smith_normal_form(sparse_rows(mat), n)
        assert got_diag == diag and dense_columns(got_v) == v, mat
        assert dense_rows(got_w, n) == fraction_inverse(v), mat
        seen["zero row"] += not all(map(any, mat))
        seen["negative entry"] += any(min(r) < 0 for r in mat)
        seen["non-unit"] += any(d > 1 for d in diag)
        seen["deficient"] += diag[:min(len(mat), n)].count(0) > 0
        seen["tall"] += len(mat) > n
    assert all(count >= 30 for count in seen.values()), seen


def test_snf_matches_dense_oracle_on_relation_matrices(monkeypatch):
    """The Hermite rows of the relations that universal groups hand to
    smith_normal_form, on every fine grading of M(4,4), M(3,3) and P(3)
    and on fine odd 6 #5, give the dense loop's (diag, V)."""
    calls = count_calls(monkeypatch, abgroup, "smith_normal_form")
    matrix_descs = (enumerate_even_fine(4, 4) + enumerate_odd_fine(3)
                    + [enumerate_odd_fine(6)[5]])
    p_descs = enumerate_P_fine(3)
    for desc in matrix_descs:
        universal_group(build_matrix_model(desc.spec))
    for desc in p_descs:
        universal_P_group(desc.spec)
    assert len(calls) == len(matrix_descs) + len(p_descs)
    assert max(n for _, n in calls) > 100
    for rows, n in calls:
        diag, v, w = smith_normal_form(rows, n)
        want_diag, want_v = dense_smith_normal_form(dense_rows(rows, n))
        assert diag == want_diag and dense_columns(v) == want_v
        assert dense_rows(w, n) == fraction_inverse(want_v)


def test_unimodular_inverse():
    rng = random.Random(11)
    assert unimodular_inverse([]) == []
    for _ in range(200):
        n = rng.randint(1, 8)
        v = random_unimodular(rng, n)
        w = unimodular_inverse(v)
        eye = [[int(i == j) for j in range(n)] for i in range(n)]
        assert mat_mul(v, w) == eye == mat_mul(w, v)
        assert w == fraction_inverse(v)
    for bad in ([[2, 0], [0, 1]], [[1, 2], [2, 4]], [[0, 0], [0, 0]], [[3]]):
        with pytest.raises(ValueError, match="not unimodular"):
            unimodular_inverse(bad)


def test_factorize():
    for n in range(1, 501):
        factors = factorize(n)
        primes = [p for p, _ in factors]
        assert primes == sorted(primes) and all(e >= 1 for _, e in factors)
        assert all(all(p % d for d in range(2, p)) for p in primes)
        product = 1
        for p, e in factors:
            product *= p ** e
        assert product == n
        assert primes == [p for p in range(2, n + 1)
                          if n % p == 0 and all(p % d for d in range(2, p))]


def test_hnf_canonical():
    # same lattice, different generators
    a = hermite_normal_form([(2, 0), (0, 3)])
    b = hermite_normal_form([(2, 3), (2, 0), (4, 3)])
    assert a == b == ((2, 0), (0, 3))
    assert hermite_normal_form([(0, 0)]) == ()
    # entries above pivots reduced
    h = hermite_normal_form([(1, 5), (0, 3)])
    assert h == ((1, 2), (0, 3))


def random_hnf_input(rng):
    """A seeded random integer matrix, often with zero rows, repeated or
    dependent rows, more rows than columns, and negative entries."""
    m, n = rng.randint(0, 10), rng.randint(1, 7)
    bound = rng.choice([1, 3, 12, 60])
    rows = [[rng.choice([0, 0, rng.randint(-bound, bound)]) for _ in range(n)]
            for _ in range(m)]
    for _ in range(rng.randint(0, 3)):
        if rows:
            kind = rng.randrange(3)
            if kind == 0:
                rows.append([0] * n)
            elif kind == 1:
                rows.append(list(rng.choice(rows)))
            else:
                a, b = rng.choice(rows), rng.choice(rows)
                c = rng.randint(-4, 4)
                rows.append([x + c * y for x, y in zip(a, b)])
    rng.shuffle(rows)
    return rows


def test_hnf_matches_dense_oracle():
    rng = random.Random(10)
    seen = {"zero_rows": 0, "negative": 0, "deficient": 0, "tall": 0}
    for _ in range(300):
        rows = random_hnf_input(rng)
        got = hermite_normal_form(rows)
        assert got == dense_hermite_normal_form(rows)
        seen["zero_rows"] += any(not any(r) for r in rows)
        seen["negative"] += any(a < 0 for r in rows for a in r)
        seen["deficient"] += len(got) < min(len(rows), len(rows[0]) if rows else 0)
        seen["tall"] += len(rows) > (len(rows[0]) if rows else 0)
    assert min(seen.values()) >= 30, seen


def test_hnf_matches_dense_oracle_on_relation_matrices(monkeypatch):
    """The rows universal groups hand to the Hermite form, captured on
    fine gradings of M(4,4), M(3,3) and P(3): the formal-degree rows of
    matgrade.lattice_tail, and the rows of every product pair of the
    matrix gradings."""
    calls = count_calls(monkeypatch, matgrade, "lattice_tail")
    matrix_descs = enumerate_even_fine(4, 4) + enumerate_odd_fine(3)
    p_descs = enumerate_P_fine(3)
    models = [build_matrix_model(desc.spec) for desc in matrix_descs]
    for model in models:
        universal_group(model)
    for desc in p_descs:
        universal_P_group(desc.spec)
    # one relation matrix per grading
    assert len(calls) == len(matrix_descs) + len(p_descs)
    captured = [rows for rows, _ in calls]
    pair_calls = count_calls(monkeypatch, helpers, "hermite_normal_form")
    for model in models:
        full_pair_universal_group(model)
    assert len(pair_calls) == len(matrix_descs)
    captured += [rows for (rows,) in pair_calls]
    assert max(len(rows) for rows in captured) > 500
    for rows in captured:
        # the rows are sparse; both forms must give the dense oracle's rows
        width = 1 + max(j for row in rows for j in row)
        dense = dense_rows(rows, width)
        want = dense_hermite_normal_form(dense)
        assert hermite_normal_form(dense) == want
        assert tuple(map(tuple, dense_rows(hermite_normal_form(rows), width))) == want


def combine(x, rows):
    return tuple(sum(c * r[j] for c, r in zip(x, rows)) for j in range(len(rows[0])))


def test_lattice_contains():
    rows = hermite_normal_form([(2, 0), (0, 3)])
    assert lattice_coords(rows, (4, 3)) == (2, 1)
    assert lattice_coords(rows, (1, 0)) is None
    assert lattice_coords(rows, (2, 2)) is None


def test_solve_left():
    rows = hermite_normal_form([[2, 0], [0, 3]])
    assert lattice_coords(rows, (4, 6)) == (2, 2)
    assert lattice_coords(rows, (1, 0)) is None
    rows = hermite_normal_form([[6, 4], [2, 2]])
    x = lattice_coords(rows, (2, 0))
    assert x is not None and combine(x, rows) == (2, 0)


def test_lattice_coords():
    assert lattice_coords((), (0, 0)) == ()
    assert lattice_coords((), (0, 1)) is None


def test_lattice_coords_random():
    rng = random.Random(1)
    found = missed = 0
    for _ in range(300):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        mat = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
        rows = hermite_normal_form(mat)
        if not rows:
            continue
        inside = combine([rng.randint(-4, 4) for _ in mat], mat)
        g = gcd(*inside)
        vecs = [inside, tuple(rng.randint(-9, 9) for _ in range(n))]
        if g > 1:
            # in the rational span, often outside the lattice
            vecs.append(tuple(a // g for a in inside))
        for vec in vecs:
            x = lattice_coords(rows, vec)
            ref = fraction_triangular_solve(rows, vec)
            integral = ref is not None and all(c.denominator == 1 for c in ref)
            assert (x is not None) == integral
            if x is not None:
                assert combine(x, rows) == vec and list(x) == ref
                found += 1
            else:
                missed += 1
        assert lattice_coords(rows, inside) is not None
    assert found > 300 and missed > 100


def kernel(mat):
    """{x : x * mat = 0}, the tail of the rows (mat_i, e_i)."""
    m, n = len(mat), len(mat[0])
    return lattice_tail([tuple(r) + tuple(int(i == j) for j in range(m))
                         for i, r in enumerate(mat)], n)


def test_left_kernel():
    ker = kernel([[2], [1]])
    assert len(ker) == 1
    z = ker[0]
    assert 2 * z[0] + z[1] == 0 and z != (0, 0)
    assert kernel([[1, 0], [0, 1]]) == ()
    assert lattice_tail([], 2) == ()


def test_lattice_tail_kernels_against_brute_force():
    rng = random.Random(5)
    for _ in range(100):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        mat = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        ker = kernel(mat)
        assert ker == hermite_normal_form(ker)
        for z in ker:
            assert mat_mul([list(z)], mat) == [[0] * n]
        # every small solution lies in the lattice the rows span
        for x in itertools.product(range(-3, 4), repeat=m):
            if mat_mul([list(x)], mat) == [[0] * n]:
                assert lattice_coords(ker, x) is not None


def test_lattice_intersect():
    got = lattice_intersect([(2, 0), (0, 1)], [(1, 0), (0, 3)])
    assert got == ((2, 0), (0, 3))
    got = lattice_intersect([(1, 1)], [(2, 0), (0, 1)])
    assert got == ((2, 2),)
    assert lattice_intersect([(1, 1)], [(1, -1)]) == ()


def test_group_arithmetic():
    g = FinGenAbGroup(1, (2, 4))
    assert g.rank == 3
    assert g.reduce((3, 5, -1)) == (3, 1, 3)
    assert g.add((1, 1, 3), (1, 1, 2)) == (2, 0, 1)
    assert g.neg((1, 1, 3)) == (-1, 1, 1)
    assert g.element_order((0, 1, 2)) == 2
    assert g.element_order((0, 1, 1)) == 4
    assert g.element_order((1, 0, 0)) is None
    assert g.order() is None
    assert FinGenAbGroup(0, (2, 4)).order() == 8
    assert str(g) == "Z x Z/2 x Z/4"


def test_group_validation():
    with pytest.raises(ValueError):
        FinGenAbGroup(-1)
    with pytest.raises(ValueError):
        FinGenAbGroup(0, (1,))
    with pytest.raises(ValueError):
        FinGenAbGroup(0, (2,)).reduce((1, 2))


def _plain_reduce(group, coords):
    """Coordinates reduced one at a time: a free one as it is, a torsion
    one of modulus d to c - d * floor(c / d)."""
    out = list(coords)
    for i, d in enumerate(group.torsion):
        c = out[group.free_rank + i]
        out[group.free_rank + i] = c - d * (c // d)
    return tuple(out)


def _random_group(rng, max_free=2):
    moduli = (2, 3, 4, 6, 7, 12, 10 ** 12 + 39)
    return FinGenAbGroup(rng.randint(0, max_free),
                         tuple(rng.choice(moduli) for _ in range(rng.randint(0, 3))))


def _random_coords(rng, n):
    return tuple(rng.choice((rng.randint(-30, 30), rng.randint(-10 ** 20, 10 ** 20)))
                 for _ in range(n))


def _killed_by(rng, group, d):
    """A random element x of group with d x = 0 (any element when d = 0)."""
    if d == 0:
        return _random_coords(rng, group.rank)
    return (0,) * group.free_rank + tuple(rng.randint(-3, 3) * (e // gcd(d, e))
                                          for e in group.torsion)


def test_arithmetic_matches_per_coordinate_arithmetic():
    rng = random.Random(15)
    for _ in range(300):
        group = _random_group(rng)
        n = group.rank
        x, y = _random_coords(rng, n), _random_coords(rng, n)
        k = rng.choice((0, 1, -1, rng.randint(-10 ** 6, 10 ** 6)))
        assert group.reduce(x) == _plain_reduce(group, x)
        assert group.reduce(iter(x)) == _plain_reduce(group, x)
        assert group.add(x, y) == _plain_reduce(group, [a + b for a, b in zip(x, y)])
        assert group.sub(x, y) == _plain_reduce(group, [a - b for a, b in zip(x, y)])
        assert group.neg(x) == _plain_reduce(group, [-a for a in x])
        assert group.scale(k, x) == _plain_reduce(group, [k * a for a in x])
        for wrong in (x + (0,), x[1:]):
            if len(wrong) != n:
                with pytest.raises(ValueError) as err:
                    group.reduce(wrong)
                assert str(err.value) == f"expected {n} coordinates, got {len(wrong)}"
        # a homomorphism into group: each image is killed by its
        # generator's order, so the unreduced combination is its value
        source = _random_group(rng)
        orders = (0,) * source.free_rank + source.torsion
        hom = GroupHom(source, group, tuple(_killed_by(rng, group, d) for d in orders))
        s = _random_coords(rng, source.rank)
        want = [sum(c * im[j] for c, im in zip(s, hom.images)) for j in range(n)]
        assert hom.apply(s) == _plain_reduce(group, want)
    # the moduli are kept beside the fields, which alone decide equality
    assert [f.name for f in dataclasses.fields(FinGenAbGroup)] == ["free_rank", "torsion"]
    assert FinGenAbGroup(1, (2,)) == FinGenAbGroup(1, [2])
    assert hash(FinGenAbGroup(1, (2,))) == hash(FinGenAbGroup(1, (2,)))
    assert repr(FinGenAbGroup(1, (2,))) == "FinGenAbGroup(free_rank=1, torsion=(2,))"


def test_span_order_closure_and_additions(monkeypatch):
    z6 = FinGenAbGroup(0, (6,))
    assert list(span(z6, [(2,), (3,)], [3, 2])) == [
        ((0, 0), (0,)), ((0, 1), (3,)), ((1, 0), (2,)),
        ((1, 1), (5,)), ((2, 0), (4,)), ((2, 1), (1,))]
    assert list(span(z6, [], [])) == [((), (0,))]
    rng = random.Random(16)
    for _ in range(80):
        group = _random_group(rng, max_free=1)
        gens = [_random_coords(rng, group.rank) for _ in range(rng.randint(0, 3))]
        orders = [rng.randint(1, 4) for _ in gens]
        adds = count_calls(monkeypatch, FinGenAbGroup, "add")
        out = list(span(group, gens, orders))
        monkeypatch.undo()
        assert len(adds) == len(out) - 1
        assert [c for c, _ in out] == list(itertools.product(*(range(o) for o in orders)))
        for c, x in out:
            assert x == _plain_reduce(group, [sum(a * g[j] for a, g in zip(c, gens))
                                              for j in range(group.rank)])
        # with each generator's own order the span is the subgroup
        finite = FinGenAbGroup(0, group.torsion)
        tgens = [finite.reduce(g[group.free_rank:]) for g in gens]
        if all(finite.element_order(g) <= 12 for g in tgens):
            elems = [x for _, x in span(finite, tgens, [finite.element_order(g) for g in tgens])]
            assert set(elems) == brute_closure(finite, tgens)


def test_invariant_factors_match_dense_oracle():
    rng = random.Random(5)
    for _ in range(300):
        moduli = [rng.choice((2, 3, 4, 5, 6, 8, 9, 12, 25, 36)) for _ in range(rng.randint(1, 6))]
        k = len(moduli)
        diag, _ = dense_smith_normal_form([[d * int(i == j) for j in range(k)]
                                           for i, d in enumerate(moduli)])
        assert FinGenAbGroup(0, moduli).invariant_factors() == tuple(d for d in diag if d > 1)
    # no factorization: a large prime modulus answers at once
    big = 10 ** 18 + 9
    start = time.perf_counter()
    assert FinGenAbGroup(0, (big,)).invariant_factors() == (big,)
    assert FinGenAbGroup(0, (2 * big, 3 * big, 6)).invariant_factors() == (6 * big, 6 * big)
    assert time.perf_counter() - start < 0.1


def test_invariant_factors():
    assert FinGenAbGroup(0, (2, 3)).invariant_factors() == (6,)
    assert FinGenAbGroup(0, (4, 6)).invariant_factors() == (2, 12)
    assert FinGenAbGroup(0, (2, 2)).invariant_factors() == (2, 2)
    a = FinGenAbGroup(1, (2, 3))
    b = FinGenAbGroup(1, (6,))
    assert is_isomorphic(a, b)
    assert not is_isomorphic(a, FinGenAbGroup(0, (6,)))


def test_hom_validation():
    z4 = FinGenAbGroup(0, (4,))
    z2 = FinGenAbGroup(0, (2,))
    GroupHom(z4, z2, ((1,),))
    with pytest.raises(ValueError):
        GroupHom(z2, z4, ((1,),))  # order-2 generator cannot map to order 4
    GroupHom(z2, z4, ((2,),))


def test_hom_apply_compose():
    z = FinGenAbGroup(1)
    z6 = FinGenAbGroup(0, (6,))
    f = GroupHom(z, z6, ((4,),))
    assert f((2,)) == (2,)
    g = GroupHom(z6, z6, ((2,),))
    assert g(f((1,))) == (2,)
    assert GroupHom.identity(z6)((5,)) == (5,)


def test_quotient_z2_by_single_relation():
    # Z^2 / <(2, -2)>  is  Z x Z/2
    q, proj = finitely_presented_quotient(2, [{0: 2, 1: -2}])
    assert q.free_rank == 1 and q.invariant_factors() == (2,)
    assert proj((2, -2)) == q.zero()
    assert proj((1, -1)) != q.zero()
    assert q.add(proj((1, 0)), proj((0, 1))) == proj((1, 1))


def test_quotient_finite():
    q, proj = finitely_presented_quotient(2, [{0: 2}, {1: 3}])
    assert q.free_rank == 0 and q.invariant_factors() == (6,)
    assert proj((2, 0)) == q.zero() and proj((0, 3)) == q.zero()
    seen = {proj((a, b)) for a in range(2) for b in range(3)}
    assert len(seen) == 6


def test_quotient_no_relations():
    q, proj = finitely_presented_quotient(3, [])
    assert q == FinGenAbGroup(3)
    assert proj((1, 2, 3)) == (1, 2, 3)


def test_subgroup_basic():
    g = FinGenAbGroup(0, (2, 4))
    s = Subgroup(g, [(1, 2)])
    assert s.order() == 2
    assert s.contains((1, 2)) and s.contains((0, 0))
    assert not s.contains((1, 0))
    assert sorted(s.elements()) == [(0, 0), (1, 2)]
    assert s.as_group().invariant_factors() == (2,)


def test_subgroup_smith_gens_mixed():
    g = FinGenAbGroup(1, (4,))
    s = Subgroup(g, [(2, 0), (0, 2)])
    gens = s.smith_gens
    orders = sorted(o for _, o in gens)
    assert orders == [0, 2]
    assert not s.is_finite


def test_subgroup_equality_normalized():
    g = FinGenAbGroup(0, (4, 4))
    a = Subgroup(g, [(1, 1), (2, 0)])
    b = Subgroup(g, [(3, 3), (1, 3)])
    assert a == b
    assert hash(a) == hash(b)


def test_subgroup_coords_of():
    g = FinGenAbGroup(0, (8,))
    s = Subgroup(g, [(2,)])
    c = s.coords_of((6,))
    (gen, order), = s.smith_gens
    assert order == 4
    assert g.scale(c[0], gen) == (6,)
    assert s.coords_of((1,)) is None
    rng = random.Random(3)
    for _ in range(60):
        g = FinGenAbGroup(0, tuple(rng.randint(2, 12) for _ in range(rng.randint(1, 3))))
        gens = [tuple(rng.randrange(d) for d in g.torsion) for _ in range(rng.randint(0, 3))]
        s = Subgroup(g, gens)
        members = brute_closure(g, gens)
        assert s.order() == len(members)
        for x in g.elements():
            c = s.coords_of(x)
            if x not in members:
                assert c is None
                continue
            acc = g.zero()
            for ci, (gen, o) in zip(c, s.smith_gens, strict=True):
                assert 0 <= ci < o
                acc = g.add(acc, g.scale(ci, gen))
            assert acc == x
    mixed = FinGenAbGroup(1, (4,))
    finite = Subgroup(mixed, [(0, 2)])
    assert finite.order() == 2 and finite.coords_of((0, 6)) == (1,)
    assert finite.coords_of((1, 2)) is None
    infinite = Subgroup(mixed, [(1, 0)])
    assert infinite.order() is None
    with pytest.raises(ValueError):
        infinite.coords_of((1, 0))


def test_subgroup_image_preimage():
    z = FinGenAbGroup(1)
    z8 = FinGenAbGroup(0, (8,))
    f = GroupHom(z, z8, ((1,),))
    s = Subgroup(z8, [(4,)])
    pre = s.preimage_under(f)
    assert pre.contains((4,)) and pre.contains((12,)) and not pre.contains((2,))
    img = Subgroup(z, [(2,)]).image_under(f)
    assert img.contains((2,)) and not img.contains((1,))


def test_subgroup_intersect_sum():
    g = FinGenAbGroup(0, (12,))
    a = Subgroup(g, [(2,)])
    b = Subgroup(g, [(3,)])
    assert a.intersect(b) == Subgroup(g, [(6,)])
    assert Subgroup(g, [(6,)]).is_subset_of(a)
    assert not a.is_subset_of(b)


def test_is_subset_of_runs_no_smith_normal_form(monkeypatch):
    calls = count_calls(monkeypatch, abgroup, "smith_normal_form")
    g = FinGenAbGroup(1, (4, 6))
    a = Subgroup(g, [(2, 1, 0), (0, 0, 3)])
    assert Subgroup(g, [(4, 2, 0), (0, 0, 3), (2, 1, 3)]).is_subset_of(a)
    assert not Subgroup(g, [(1, 0, 0)]).is_subset_of(a)
    assert calls == []


def random_finite_group(rng):
    return FinGenAbGroup(0, tuple(rng.randint(2, 12) for _ in range(rng.randint(1, 3))))


def random_elements(rng, group, count):
    return [tuple(rng.randrange(d) for d in group.torsion) for _ in range(count)]


def test_preimage_against_brute_force():
    rng = random.Random(41)
    for _ in range(100):
        src, tgt = random_finite_group(rng), random_finite_group(rng)
        # a generator of order d goes to a multiple of e / gcd(d, e) in Z/e
        images = tuple(tuple(rng.randrange(e) * (e // gcd(d, e)) % e for e in tgt.torsion)
                       for d in src.torsion)
        hom = GroupHom(src, tgt, images)
        gens = random_elements(rng, tgt, rng.randint(0, 2))
        members = brute_closure(tgt, gens)
        pre = Subgroup(tgt, gens).preimage_under(hom)
        expected = {x for x in src.elements() if hom(x) in members}
        assert pre.order() == len(expected)
        assert all(pre.contains(x) == (x in expected) for x in src.elements())


def test_hom_preimage_against_brute_force():
    # free source generator i goes to k_i times target unit i plus
    # torsion, and k_i = 0 makes the hom non-injective; so a member of
    # the target box, free coordinates in [-2, 2], has a preimage in the
    # source box, free coordinate i in [-2, 2] or, when k_i = 0, below the
    # order of its image
    rng = random.Random(47)
    kinds = set()
    for _ in range(80):
        free = rng.randint(0, 1)
        src = FinGenAbGroup(free, tuple(rng.choice((2, 3, 4, 6))
                                        for _ in range(rng.randint(0, 2))))
        tgt = FinGenAbGroup(free + rng.randint(0, 1), tuple(rng.choice((2, 3, 4, 6))
                                                            for _ in range(rng.randint(1, 2))))
        ks = [rng.randint(0, 2) for _ in range(free)]
        images = [tuple(k * (j == i) for j in range(tgt.free_rank))
                  + tuple(rng.randrange(e) for e in tgt.torsion) for i, k in enumerate(ks)]
        images += [_killed_by(rng, tgt, d) for d in src.torsion]
        hom = GroupHom(src, tgt, tuple(images))
        boxes = [range(-2, 3) if k else range(tgt.element_order(im))
                 for k, im in zip(ks, hom.images)] + [range(d) for d in src.torsion]
        table: dict = {}
        for c in itertools.product(*boxes):
            table.setdefault(hom(c), set()).add(src.reduce(c))
        if not any(ks):
            assert set(table) == brute_closure(tgt, hom.images)
        injective = all(ks) and all(len(cs) == 1 for cs in table.values())
        kinds.add((free, injective))
        for x in itertools.product(*[range(-2, 3)] * tgt.free_rank,
                                   *(range(e) for e in tgt.torsion)):
            got = hom.preimage(x)
            if x not in table:
                assert got is None
                continue
            assert got is not None and hom(got) == x
            if injective:
                assert table[x] == {got}
    assert kinds == {(0, False), (0, True), (1, False), (1, True)}


def test_intersect_against_brute_force():
    rng = random.Random(43)
    for _ in range(100):
        g = random_finite_group(rng)
        gens_a = random_elements(rng, g, rng.randint(0, 3))
        gens_b = random_elements(rng, g, rng.randint(0, 3))
        meet = Subgroup(g, gens_a).intersect(Subgroup(g, gens_b))
        expected = brute_closure(g, gens_a) & brute_closure(g, gens_b)
        assert meet.order() == len(expected)
        assert set(meet.elements()) == expected


def test_subgroup_and_quotient():
    g = FinGenAbGroup(0, (2, 4))
    sub, q, proj = subgroup_and_quotient(g, [(1, 2)])
    assert sub.order() == 2
    assert q.invariant_factors() == (4,)
    assert proj((1, 2)) == q.zero()
    fibers = {}
    for x in g.elements():
        fibers.setdefault(proj(x), []).append(x)
    assert all(len(v) == 2 for v in fibers.values())
    assert len(fibers) == 4


def test_squares_and_two_torsion():
    g = FinGenAbGroup(0, (2, 4))
    sq, tt = squares_and_two_torsion(g)
    assert sq == Subgroup(g, [(0, 2)])
    assert sorted(tt.elements()) == [(0, 0), (0, 2), (1, 0), (1, 2)]
    # of a subgroup: the doubled generators, and its meet with tt
    s = Subgroup(g, [(1, 1)])
    assert Subgroup(g, [g.scale(2, x) for x in s.gens]) == Subgroup(g, [(0, 2)])
    assert sorted(s.intersect(tt).elements()) == [(0, 0), (0, 2)]


def test_solve_square_cases():
    g = FinGenAbGroup(1, (3,))
    assert solve_square(g, (2, 1)) == (1, 2)
    assert solve_square(g, (1, 0)) is None
    z4 = FinGenAbGroup(0, (4,))
    assert solve_square(z4, (2,)) == (1,)
    assert solve_square(z4, (1,)) is None


def test_solve_square_random():
    rng = random.Random(19)
    for _ in range(40):
        tors = tuple(rng.choice([2, 3, 4, 5, 6, 8]) for _ in range(rng.randint(1, 3)))
        g = FinGenAbGroup(0, tors)
        x = tuple(rng.randrange(d) for d in tors)
        a = g.scale(2, x)
        y = solve_square(g, a)
        assert y is not None and g.scale(2, y) == a
        # completeness: an element with no double reported as such
        doubles = {g.scale(2, e) for e in g.elements()}
        bad = next((e for e in g.elements() if e not in doubles), None)
        if bad is not None:
            assert solve_square(g, bad) is None


def test_coset_canonical_rep():
    g = FinGenAbGroup(0, (2, 4))
    s = Subgroup(g, [(1, 2)])
    assert coset_canonical_rep(g, s, (1, 3)) == (0, 1)
    assert coset_canonical_rep(g, s, (0, 1)) == (0, 1)
    # constant on cosets
    for x in g.elements():
        reps = {coset_canonical_rep(g, s, g.add(x, t)) for t in s.elements()}
        assert len(reps) == 1


def test_coset_canonical_rep_against_brute_force():
    rng = random.Random(31)
    free_parents = 0
    for _ in range(200):
        free = rng.choice([0, 0, 1, 2])
        tors = tuple(rng.choice([2, 3, 4, 6, 8, 9]) for _ in range(rng.randint(1, 3)))
        g = FinGenAbGroup(free, tors)
        gens = [(0,) * free + tuple(rng.randrange(d) for d in tors)
                for _ in range(rng.randint(0, 3))]
        s = Subgroup(g, gens)
        free_parents += free > 0
        for _ in range(5):
            x = tuple(rng.randint(-9, 9) for _ in range(g.rank))
            rep = coset_canonical_rep(g, s, x)
            assert rep == brute_coset_canonical_rep(g, s, x)
            assert s.contains(g.sub(rep, x))
    assert free_parents > 50
    with pytest.raises(ValueError):
        coset_canonical_rep(FinGenAbGroup(1, (2,)), Subgroup(FinGenAbGroup(1, (2,)), [(1, 0)]),
                            (0, 0))


def test_subgroup_random_membership():
    rng = random.Random(23)
    for _ in range(25):
        tors = tuple(rng.choice([2, 4, 3, 9, 8]) for _ in range(rng.randint(1, 3)))
        g = FinGenAbGroup(0, tors)
        gens = [tuple(rng.randrange(d) for d in tors) for _ in range(rng.randint(1, 3))]
        s = Subgroup(g, gens)
        brute = {g.zero()}
        frontier = [g.zero()]
        while frontier:
            cur = frontier.pop()
            for gen in gens:
                nxt = g.add(cur, gen)
                if nxt not in brute:
                    brute.add(nxt)
                    frontier.append(nxt)
        assert s.order() == len(brute)
        assert set(s.elements()) == brute
        for x in g.elements():
            assert s.contains(x) == (x in brute)
