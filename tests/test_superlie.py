"""Tests for the Lie superalgebra layer: supertrace, superadjoint, Type I
restriction and periplectic models."""

from __future__ import annotations

import json
import math
import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

from gradekit.abgroup import FinGenAbGroup, hermite_normal_form
from gradekit.bichar import standard_pair
from gradekit.matgrade import (
    EvenAssocSpec,
    GradedMatrixModel,
    OddAssocGSpec,
    OddAssocTSpec,
    build_matrix_model,
    build_odd_from_G,
    check_spec,
)
from gradekit import matgrade, superlie
from gradekit.classify import enumerate_P_fine
from gradekit.cli import run, spec_to_json
from gradekit.superlie import (
    BlockMatrix,
    PGradedModel,
    PSpec,
    P_restriction_condition,
    _ambient_model,
    _ambient_proof,
    _basis_entries,
    _bracket,
    _bracket_failures,
    _dense,
    _fixed_copy_closed,
    _in_fixed_copy,
    _p_image,
    _reduce_vector,
    _rref,
    _rows,
    ambient_even_spec,
    build_P_model,
    check_p_spec,
    p_intersection,
    p_labels,
    realized_basis_matrix,
    restrict_type_I,
    superadjoint_spec,
    supercommutator,
    supertrace,
    supertranspose,
    universal_P_group,
    verify_P_graded,
)

from helpers import (
    TRIVIAL_BETA,
    all_pairs_universal_P_group,
    count_calls,
    embedded_standard_torus,
    entries_of,
    kernel,
    kernel_p_intersection,
    p_constraints,
    p_label_pairs,
    p_label_vector,
    p_witness,
    random_element,
    random_even_spec,
    random_odd_g_spec,
    random_p_candidate_spec,
    random_p_spec,
    reduce_sparse,
    relation_rows,
    sparse_echelon,
    wide_p_spec,
)

Z = FinGenAbGroup(1, ())
TRIVIAL = FinGenAbGroup(0, ())


def rand_matrix(rng, m, n, parity=None):
    """Random small-integer block matrix, optionally of pure parity."""
    size = m + n
    rows = []
    for r in range(size):
        row = []
        for c in range(size):
            here = 0 if (r < m) == (c < m) else 1
            if parity is not None and here != parity:
                row.append(F(0))
            else:
                row.append(F(rng.randint(-3, 3)))
        rows.append(row)
    return BlockMatrix.from_rows(m, n, rows)


def span_of(mats):
    return _rref([list(m.flatten()) for m in mats])


def in_span(span, mat):
    echelon, pivots = span
    return all(x == 0 for x in _reduce_vector(echelon, pivots, mat.flatten()))


# ---------------------------------------------------------------------------
# supertrace and supertranspose


def test_supertrace_frozen_values():
    assert supertrace(BlockMatrix.from_rows(1, 1, [[1, 0], [0, 1]])) == 0
    assert supertrace(BlockMatrix.from_rows(1, 1, [[1, 0], [0, 0]])) == 1
    assert supertrace(BlockMatrix.from_rows(2, 1, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 1


def test_supertrace_vanishes_on_supercommutators():
    rng = random.Random(5)
    for _ in range(25):
        m = rng.randint(1, 3)
        n = rng.randint(1, 3)
        x = rand_matrix(rng, m, n)
        y = rand_matrix(rng, m, n)
        assert supertrace(supercommutator(x, y)) == 0


def test_supercommutator_of_odd_pair():
    x = BlockMatrix.from_rows(1, 1, [[0, 1], [0, 0]])
    y = BlockMatrix.from_rows(1, 1, [[0, 0], [1, 0]])
    assert supercommutator(x, y).entries == ((F(1), F(0)), (F(0), F(1)))


def test_supertranspose_is_blockwise_transpose_on_even():
    rng = random.Random(7)
    x = rand_matrix(rng, 2, 3, parity=0)
    st = supertranspose(x)
    for r in range(5):
        for c in range(5):
            assert st.entries[r][c] == x.entries[c][r]


def test_supertranspose_product_sign_rule():
    rng = random.Random(11)
    for px in (0, 1):
        for py in (0, 1):
            x = rand_matrix(rng, 2, 2, parity=px)
            y = rand_matrix(rng, 2, 2, parity=py)
            lhs = supertranspose(x * y)
            rhs = supertranspose(y) * supertranspose(x)
            if px and py:
                rhs = -rhs
            assert lhs.entries == rhs.entries


def test_supertranspose_twice_negates_odd_blocks():
    rng = random.Random(13)
    x = rand_matrix(rng, 2, 3)
    twice = supertranspose(supertranspose(x))
    assert twice.entries == (x.even_part() - x.odd_part()).entries


def test_block_roundtrip_and_shape_errors():
    x = BlockMatrix.from_rows(1, 2, [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    a, b, c, d = x.blocks()
    assert BlockMatrix.from_blocks(a, b, c, d) == x
    assert (a, b) == (((F(1),),), ((F(2), F(3)),))
    with pytest.raises(ValueError):
        BlockMatrix(2, 2, ((F(0),),))
    with pytest.raises(ValueError):
        x + BlockMatrix.zero(2, 1)


# ---------------------------------------------------------------------------
# superadjoint


def test_superadjoint_even_frozen():
    spec = EvenAssocSpec(Z, (), TRIVIAL_BETA, ((0,),), ((1,),))
    out = superadjoint_spec(spec)
    assert out.gamma0 == ((0,),)
    assert out.gamma1 == ((-1,),)

    # elementary 2 support: the bicharacter is its own inverse
    group, tgens, beta = embedded_standard_torus((2,))
    spec2 = EvenAssocSpec(group, tgens, beta, ((0, 0),), ((1, 1),))
    assert superadjoint_spec(spec2).beta.q == beta.q

    # order 4 values flip
    _, beta4 = standard_pair((4,))
    assert beta4.q[0][1] == F(1, 4)
    assert beta4.inverse().q[0][1] == F(3, 4)
    group4 = FinGenAbGroup(0, (4, 4))
    spec4 = EvenAssocSpec(group4, (group4.unit(0), group4.unit(1)), beta4,
                          ((0, 0),), ((0, 0),))
    assert superadjoint_spec(spec4).beta.q == beta4.inverse().q


def test_superadjoint_odd_specs_and_involution():
    group = FinGenAbGroup(0, (4,))
    spec = OddAssocGSpec(group, (2,), (), TRIVIAL_BETA, (2,), ((0,), (3,)))
    out = superadjoint_spec(spec)
    assert out.u == (2,)
    assert out.gamma == ((0,), (1,))
    assert out.t0 == (2,)
    assert superadjoint_spec(out) == spec
    build_matrix_model(out)  # image of a valid spec is again valid

    tspec = check_spec(build_odd_from_G(
        OddAssocGSpec(group, (2,), (), TRIVIAL_BETA, (2,), ((0,),)))).source
    tout = superadjoint_spec(tspec)
    assert tout.gamma == tuple(group.neg(x) for x in tspec.gamma)
    assert superadjoint_spec(tout) == tspec
    build_matrix_model(tout)  # image parameters are again a valid grading


def component_spans(model):
    by_deg = {}
    for idx, b in enumerate(model.basis):
        by_deg.setdefault(b.degree, []).append(realized_basis_matrix(model, idx))
    return by_deg


def check_superadjoint_mapping(spec):
    """-(L^{s-transpose}) must carry each component onto the image component
    of the same degree."""
    spec = check_spec(spec).source
    model = build_matrix_model(spec)
    image = build_matrix_model(superadjoint_spec(spec))
    source = component_spans(model)
    target = component_spans(image)
    assert {d: len(v) for d, v in source.items()} == \
           {d: len(v) for d, v in target.items()}
    spans = {deg: span_of(mats) for deg, mats in target.items()}
    for deg, mats in source.items():
        for mat in mats:
            assert in_span(spans[deg], -supertranspose(mat))


def test_superadjoint_component_mapping_trivial_support():
    check_superadjoint_mapping(
        EvenAssocSpec(Z, (), TRIVIAL_BETA, ((0,), (3,)), ((1,),)))


def test_superadjoint_component_mapping_z22_support():
    group, tgens, beta = embedded_standard_torus((2,))
    check_superadjoint_mapping(
        EvenAssocSpec(group, tgens, beta, ((0, 0),), ((1, 0),)))


# ---------------------------------------------------------------------------
# Type I restriction


def test_restrict_type_I_frozen_dims():
    spec = EvenAssocSpec(TRIVIAL, (), TRIVIAL_BETA, ((), ()), ((),))
    assert restrict_type_I(spec) == {(): 8}
    spec2 = EvenAssocSpec(TRIVIAL, (), TRIVIAL_BETA, ((), ()), ((), ()))
    assert restrict_type_I(spec2) == {(): 14}


def test_restrict_type_I_graded_dims():
    spec = EvenAssocSpec(Z, (), TRIVIAL_BETA, ((0,), (1,)), ((5,),))
    dims = restrict_type_I(spec)
    assert dims == {(0,): 2, (1,): 1, (-1,): 1,
                    (5,): 1, (4,): 1, (-5,): 1, (-4,): 1}
    assert sum(dims.values()) == 8


def test_restrict_type_I_odd_drops_at_parity_degree():
    # M(1,1) with division grading by Z/4: the supertrace line sits at the
    # degree of the parity element, the identity at zero
    spec = OddAssocGSpec(FinGenAbGroup(0, (4,)), (2,), (), TRIVIAL_BETA,
                         (0,), ((0,),))
    assert restrict_type_I(spec) == {(0,): 1, (2,): 1}


def test_restrict_type_I_dimension_sums():
    rng = random.Random(17)
    for _ in range(6):
        spec = random_even_spec(rng)
        model = build_matrix_model(check_spec(spec).source)
        m, n = model.sizes
        assert sum(restrict_type_I(spec).values()) == \
            (m + n) ** 2 - 1 - (1 if m == n else 0)
    for _ in range(3):
        spec = random_odd_g_spec(rng)
        model = build_matrix_model(spec)
        m, n = model.sizes
        assert sum(restrict_type_I(spec).values()) == (m + n) ** 2 - 2


# ---------------------------------------------------------------------------
# periplectic models


def test_p_spec_validation_errors():
    with pytest.raises(ValueError):
        check_p_spec(PSpec(Z, (), TRIVIAL_BETA, (), (0,)))
    with pytest.raises(ValueError):
        # half size 2 is below P(2)
        check_p_spec(PSpec(Z, (), TRIVIAL_BETA, ((0,), (1,)), (0,)))
    group4 = FinGenAbGroup(0, (4, 4))
    _, beta4 = standard_pair((4,))
    with pytest.raises(ValueError):
        check_p_spec(PSpec(group4, (group4.unit(0), group4.unit(1)), beta4,
                           ((0, 0),), (0, 0)))


def test_build_P_trivial_grading():
    model = build_P_model(PSpec(Z, (), TRIVIAL_BETA, ((0,), (0,), (0,)), (0,)))
    assert model.n == 2
    assert model.dims() == {(0,): 17}
    assert model.z_dims() == {0: 8, -1: 6, 1: 3}
    report = verify_P_graded(model)
    assert report.ok, report.failures


def test_build_P_spread_blocks():
    model = build_P_model(PSpec(Z, (), TRIVIAL_BETA, ((0,), (1,), (2,)), (0,)))
    assert model.total_dim() == 17
    # symmetric corner element of blocks 1 and 3 has degree g1 + g3 - g0
    assert (2,) in model.dims()
    report = verify_P_graded(model)
    assert report.ok, report.failures


def test_build_P_division_support():
    group, tgens, beta = embedded_standard_torus((2,))
    e = group.zero()
    model = build_P_model(PSpec(group, tgens, beta, (e, e), e))
    assert model.n == 3
    assert model.total_dim() == 31
    report = verify_P_graded(model)
    assert report.ok, report.failures


def test_p_intersection_deficient_without_matching_blocks():
    bad = EvenAssocSpec(Z, (), TRIVIAL_BETA, ((0,), (0,), (0,)),
                        ((0,), (0,), (1,)))
    comp = p_intersection(build_matrix_model(bad))
    assert sum(len(v) for v in comp.values()) < 17


def test_p_intersection_rejects_odd_and_unequal():
    group = FinGenAbGroup(0, (4,))
    odd = build_matrix_model(OddAssocGSpec(group, (2,), (), TRIVIAL_BETA,
                                           (0,), ((0,), (0,), (0,))))
    with pytest.raises(ValueError):
        p_intersection(odd)
    uneq = build_matrix_model(EvenAssocSpec(Z, (), TRIVIAL_BETA,
                                            ((0,), (0,), (0,)), ((0,),)))
    with pytest.raises(ValueError):
        p_intersection(uneq)


def test_verify_P_reports_dimension_faults():
    model = build_P_model(PSpec(Z, (), TRIVIAL_BETA, ((0,), (1,), (2,)), (0,)))
    victim = next(g for g, items in model.components.items() if items)
    model.components[victim] = model.components[victim][1:]
    report = verify_P_graded(model)
    assert not report.ok
    assert any("expected 17" in f for f in report.failures)


def test_restriction_condition_frozen():
    spec = EvenAssocSpec(Z, (), TRIVIAL_BETA, ((0,), (1,), (2,)),
                         ((5,), (4,), (3,)))
    assert P_restriction_condition(spec) == (5,)

    group4 = FinGenAbGroup(0, (4, 4))
    _, beta4 = standard_pair((4,))
    spec4 = EvenAssocSpec(group4, (group4.unit(0), group4.unit(1)), beta4,
                          ((0, 0),), ((0, 0),))
    assert P_restriction_condition(spec4) is None

    mism = EvenAssocSpec(Z, (), TRIVIAL_BETA, ((0,), (0,)), ((0,), (1,)))
    assert P_restriction_condition(mism) is None


def test_restriction_condition_matches_ambient_of_every_p_spec():
    rng = random.Random(19)
    for _ in range(6):
        spec = check_p_spec(random_p_spec(rng)).spec
        g0 = P_restriction_condition(ambient_even_spec(spec))
        assert g0 is not None
        rebuilt = build_P_model(PSpec(spec.group, spec.tgens, spec.beta,
                                      spec.gamma, g0))
        assert rebuilt.total_dim() == 2 * (rebuilt.n + 1) ** 2 - 1


def test_restriction_condition_iff_full_intersection():
    # a witness promises a full P intersection only after realigning the
    # second block-degree tuple to g0 - gamma0; without a witness even the
    # raw standard copy must come up short
    rng = random.Random(23)
    seen_none = seen_some = 0
    for _ in range(10):
        spec = check_spec(random_p_candidate_spec(rng)).source
        cond = P_restriction_condition(spec)
        if cond is None:
            seen_none += 1
            model = build_matrix_model(spec)
            comp = p_intersection(model)
            total = sum(len(v) for v in comp.values())
            assert total < 2 * model.sizes[0] ** 2 - 1
        else:
            seen_some += 1
            realigned = PSpec(spec.group, spec.tgens, spec.beta,
                              spec.gamma0, cond)
            build_P_model(realigned)  # raises unless the intersection is full
    assert seen_none and seen_some


def test_random_p_models_verify():
    rng = random.Random(29)
    for _ in range(3):
        model = build_P_model(random_p_spec(rng))
        report = verify_P_graded(model)
        assert report.ok, report.failures
        assert sum(report.dims.values()) == 2 * (model.n + 1) ** 2 - 1


# ---------------------------------------------------------------------------
# the sparse integer path of P(n)


def _fine_p3_models():
    return [build_P_model(d.spec) for d in enumerate_P_fine(3)]


def _dense_view(model, coords):
    return _dense(model.n + 1, model.n + 1, model.matrix(coords))


def test_basis_entries_match_the_realization_and_reject_irrational_roots():
    group, tgens, beta = embedded_standard_torus((2,))
    model = build_matrix_model(
        EvenAssocSpec(group, tgens, beta, ((0, 0), (1, 1)), ((1, 0),)))
    for idx, b in enumerate(model.basis):
        entries = _basis_entries(model, idx)
        assert set(entries.values()) <= {1, -1}
        assert len(entries) == model.realization.size
        dense = realized_basis_matrix(model, idx)
        assert dense == _dense(*model.sizes, entries)
        assert all(dense.entries[r][c] == v for (r, c), v in entries.items())
    group4, tgens4, beta4 = embedded_standard_torus((4,))
    model4 = build_matrix_model(
        EvenAssocSpec(group4, tgens4, beta4, ((0, 0),), ((0, 0),)))
    real4 = model4.realization
    irrational = [idx for idx in range(len(model4.basis))
                  if any(2 * e % real4.m for e in
                         real4.matrix(model4.basis[idx].t_abs).exps)]
    assert irrational
    with pytest.raises(ValueError, match="not rational"):
        _basis_entries(model4, irrational[0])


def test_kernel_is_the_rref_kernel_up_to_scale():
    rng = random.Random(41)
    for _ in range(60):
        ncols = rng.randint(1, 7)
        nrows = rng.randint(1, 5)
        dense = [[rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(ncols)]
                 for _ in range(nrows)]
        columns = [{r: dense[r][j] for r in range(nrows) if dense[r][j]}
                   for j in range(ncols)]
        got = kernel(columns)
        echelon, pivots = _rref([[F(x) for x in row] for row in dense])
        free = [c for c in range(ncols) if c not in pivots]
        assert len(got) == len(free)
        for vec, f in zip(got, free):
            assert all(type(v) is int for v in vec.values())
            expected = [F(0)] * ncols
            expected[f] = F(1)
            for row, p in zip(echelon, pivots):
                expected[p] = -row[f]
            scale = vec[f]
            assert [F(vec.get(j, 0), scale) for j in range(ncols)] == expected


def _p_intersection_models():
    """The ambient models of every fine grading of P(n), n <= 7, of 120
    seeded random_p_spec and wide_p_spec draws, and 80 seeded candidate
    models, many of which admit no restriction to P(n)."""
    models = [_ambient_model(d.spec) for n in range(2, 8) for d in enumerate_P_fine(n)]
    rng = random.Random(73)
    models += [_ambient_model(draw(rng)) for _ in range(60)
               for draw in (random_p_spec, wide_p_spec)]
    models += [build_matrix_model(random_p_candidate_spec(rng)) for _ in range(80)]
    return models


def test_p_intersection_equals_the_kernel_reference():
    """The matrices of the orbit sums are the vectors of the kernel
    solve, degree by degree and in the same order with the same
    Z-degrees: equal when the realization has size d = 1, and up to the
    sign of each vector when d > 1."""
    sizes, deficient = set(), 0
    for model in _p_intersection_models():
        got, want = p_intersection(model), kernel_p_intersection(model)
        assert list(got) == list(want)
        matrix = PGradedModel(model, got).matrix
        d = model.realization.size
        sizes.add(d)
        for g, items in want.items():
            assert [z for _, z in got[g]] == [z for _, z in items]
            for (x, _), (y, _) in zip(got[g], items):
                x = matrix(x)
                negated = {key: -v for key, v in y.items()}
                assert x == y or (d > 1 and x == negated), g
        deficient += sum(map(len, got.values())) < 2 * model.sizes[0] ** 2 - 1
    assert sizes == {1, 2, 4, 8} and deficient


def test_component_vectors_are_primitive_integer_matrices():
    models = _fine_p3_models()
    models += [build_P_model(random_p_spec(random.Random(seed)))
               for seed in (3, 4)]
    for model in models:
        for items in model.components.values():
            for coords, z in items:
                assert set(coords.values()) <= {1, -1}
                values = list(model.matrix(coords).values())
                assert values and all(type(v) is int and v for v in values)
                assert math.gcd(*values) == 1
                assert z in (-1, 0, 1)


def test_bracket_equals_dense_supercommutator_on_fine_p3():
    for model in _fine_p3_models():
        items = [item for items in model.components.values() for item in items]
        assert len(items) == 31
        vectors = [(_rows(model.matrix(x)), z) for x, z in items]
        dense = [_dense_view(model, x) for x, _ in items]
        for a, (x, zx) in enumerate(vectors):
            for b in range(a, len(vectors)):
                y, zy = vectors[b]
                got = _dense(model.n + 1, model.n + 1, _bracket(x, zx, y, zy))
                assert got == supercommutator(dense[a], dense[b])


def test_verify_P_stats_count_every_unordered_pair():
    for model in _fine_p3_models():
        report = verify_P_graded(model)
        assert report.ok, report.failures
        assert report.stats["brackets_formed"] == 31 * 32 // 2 == 496
        minus, plus = report.z_dims[-1], report.z_dims[1]
        vanishing = minus * (minus + 1) // 2 + plus * (plus + 1) // 2
        assert report.stats["membership_checks"] == 496 - vanishing == 420


def test_verify_P_forms_each_basis_matrix_once(monkeypatch):
    """The ambient proof forms each basis vector's matrix once, for the
    fixed-copy test; independence is read from the coordinates."""
    models = [build_P_model(d.spec) for n in (3, 7) for d in enumerate_P_fine(n)]
    calls = count_calls(monkeypatch, PGradedModel, "matrix")
    for model in models:
        del calls[:]
        assert verify_P_graded(model).ok
        assert len(calls) == model.total_dim()


def _dense_closure_failures(model):
    """verify_P_graded's bracket closure, redone on dense rational
    matrices with supercommutator and row reduction."""
    failures = []
    group = model.ambient.base_group
    dense = {g: [(_dense_view(model, x), z) for x, z in items]
             for g, items in model.components.items()}
    spans = {g: span_of([m for m, _ in items]) for g, items in dense.items()}
    degrees = list(dense)
    for gi, g in enumerate(degrees):
        for h in degrees[gi:]:
            target = group.add(g, h)
            for a, (x, zx) in enumerate(dense[g]):
                for y, zy in dense[h][a if g == h else 0:]:
                    lie = supercommutator(x, y)
                    if zx + zy in (2, -2):
                        if not lie.is_zero():
                            failures.append(f"bracket of z-degrees {zx},{zy} "
                                            "does not vanish")
                    elif not (in_span(spans[target], lie) if target in spans
                              else lie.is_zero()):
                        failures.append(f"bracket of components {g} and {h} "
                                        f"leaves the component at {target}")
    return failures


PINNED_OUTSIDE_P_FAILURES = (
    ["bracket of components (-3,) and (3,) leaves the component at (0,)"]
    + ["bracket of components (-2,) and (0,) leaves the component at (-2,)"] * 2
    + ["bracket of components (-1,) and (0,) leaves the component at (-1,)"] * 2
    + ["bracket of components (-1,) and (1,) leaves the component at (0,)"] * 3
    + ["bracket of components (0,) and (1,) leaves the component at (1,)"] * 2
    + ["bracket of components (0,) and (2,) leaves the component at (2,)"] * 2)


def test_verify_P_rejects_a_component_vector_outside_P():
    model = build_P_model(PSpec(Z, (), TRIVIAL_BETA, ((0,), (1,), (2,)), (0,)))
    items = model.components[(0,)]
    index = next(i for i, (_, z) in enumerate(items) if z == 0)
    # E_00 has degree 0 and Z-degree 0 in the ambient grading, but it is
    # not supertraceless, so it is not in P(2)
    items[index] = ({model.ambient.index[0, 0, ()]: 1}, 0)
    report = verify_P_graded(model)
    assert not report.ok
    assert report.failures == PINNED_OUTSIDE_P_FAILURES
    assert report.failures == _dense_closure_failures(model)
    assert report.dims == {(-3,): 1, (-2,): 2, (-1,): 3, (0,): 3, (1,): 3,
                           (2,): 3, (3,): 1, (4,): 1}


def _p2_model():
    return build_P_model(PSpec(Z, (), TRIVIAL_BETA, ((0,), (1,), (2,)), (0,)))


def _relabelled(model, coords, **change):
    """The model with the ambient elements under coords relabelled."""
    amb = model.ambient
    basis = tuple(replace(b, **change) if n in coords else b
                  for n, b in enumerate(amb.basis))
    return PGradedModel(
        GradedMatrixModel(amb.kind, amb.base_group, amb.degree_group, amb.sizes,
                          basis, amb.pairing, amb.k, amb.parity_coords, amb.realization),
        model.components)


def _ambient_proof_mutants():
    """P(2) over Z with block degrees 0, 1, 2 (every ambient element is
    one matrix unit E_ij), and four mutants that keep every dimension:
    a vector moved to another degree, the same with the two ambient
    elements it lies on relabelled to that degree, a vector with a
    coordinate on an ambient element of another Z-degree, and a vector
    replaced by a copy of another in its component."""
    model = _p2_model()
    moved = model.components[(-3,)].pop()
    assert model.matrix(moved[0]) == {(4, 2): -1, (5, 1): 1}
    model.components[(4,)].append(moved)
    yield "moved", model
    yield "moved with its ambient elements", _relabelled(model, moved[0], degree=(4,))
    model = _p2_model()
    coords, z = model.components[(-1,)][0]
    assert z == 0
    # E_31 has degree -1 and Z-degree 1
    other = model.ambient.index[3, 1, ()]
    assert model.ambient.basis[other].degree == (-1,)
    model.components[(-1,)][0] = ({**coords, other: 1}, z)
    yield "coordinate of another Z-degree", model
    model = _p2_model()
    items = model.components[(-1,)]
    assert items[0][1] == items[1][1] == 0
    items[1] = items[0]
    yield "dependent", model


def test_ambient_proof_mutants_give_the_pair_loop_failures():
    for name, model in _ambient_proof_mutants():
        assert not _ambient_proof(model), name
        report = verify_P_graded(model)
        assert not report.ok, name
        assert report.failures == _bracket_failures(model), name
        assert report.failures == _dense_closure_failures(model), name
        assert report.z_dims == {-1: 6, 0: 8, 1: 3}
        assert report.stats == {"brackets_formed": 17 * 18 // 2,
                                "membership_checks": 17 * 18 // 2 - 21 - 6}


def test_ambient_proof_wants_a_private_coordinate_per_vector():
    """Two vectors x, y of one component and Z-degree replaced by x + y
    and x - y: still independent and with the same span, but neither
    has a coordinate of its own, so the proof is refused and the pair
    loop finds the model closed."""
    model = _p2_model()
    items = model.components[(-1,)]
    (x, zx), (y, zy) = items[0], items[1]
    assert zx == zy == 0 and not x.keys() & y.keys()
    before = [model.matrix(v) for v, _ in items]
    items[0] = ({**x, **y}, zx)
    items[1] = ({**x, **{n: -v for n, v in y.items()}}, zx)
    after = [model.matrix(v) for v, _ in items]
    assert items[0][0].keys() == items[1][0].keys()
    echelon = sparse_echelon(before)
    assert len(sparse_echelon(after)) == len(after) == len(echelon)
    assert all(not reduce_sparse(v, echelon) for v in after)
    assert not _ambient_proof(model)
    report = verify_P_graded(model)
    assert report.ok
    assert report.failures == _bracket_failures(model) == _dense_closure_failures(model) == []


def test_ambient_proof_reads_the_z_degree_of_every_coordinate():
    """Relabelling the Z-degree of the ambient elements under one vector
    keeps the ambient grading and every matrix, so the proof is refused
    only by the Z-degree half of check (3); the pair loop then finds the
    model closed."""
    model = _p2_model()
    coords, z = model.components[(-1,)][0]
    assert z == 0
    mutant = _relabelled(model, coords, z_degree=1)
    assert _ambient_proof(model) and not _ambient_proof(mutant)
    report = verify_P_graded(mutant)
    assert report.ok and _bracket_failures(mutant) == []


def test_ambient_proof_agrees_with_the_pair_loop():
    """Every fine grading of P(n), n <= 7, and 50 seeded random P specs
    are proved through the ambient grading, and the pair loop finds no
    failure on any of them."""
    models = [build_P_model(d.spec) for n in range(2, 8) for d in enumerate_P_fine(n)]
    rng = random.Random(53)
    models += [build_P_model(random_p_spec(rng)) for _ in range(50)]
    for model in models:
        assert _ambient_proof(model)
        assert verify_P_graded(model).ok
        assert _bracket_failures(model) == []


def _b_antisymmetric(r, c, half):
    r2, c2, _ = _p_image(r, c, half)
    return r2, c2, -1


def _c_symmetric(r, c, half):
    r2, c2, s = _p_image(r, c, half)
    return r2, c2, 1 if r >= half > c else s


def test_fixed_copy_is_closed_and_wrong_copies_are_not():
    for half in range(3, 17):
        assert _fixed_copy_closed(half)
        assert not _fixed_copy_closed(half, _b_antisymmetric)
        assert not _fixed_copy_closed(half, _c_symmetric)


def test_fixed_copy_membership_matches_the_p_constraints():
    """`_in_fixed_copy` (sigma(x) = x, tr a = 0) and the constraint
    functionals of p_intersection cut out the same matrices of each
    Z-corner: on y + sigma(y), on y + sigma(y) with one entry changed,
    and on every component vector of the fine gradings of P(3)."""
    rng = random.Random(59)
    half = 4

    def corner(z):
        rows = range(half) if z < 1 else range(half, 2 * half)
        cols = range(half) if z > -1 else range(half, 2 * half)
        if z == 0 and rng.random() < 0.5:
            rows = cols = range(half, 2 * half)
        return rng.choice(rows), rng.choice(cols)

    for _ in range(300):
        z = rng.choice((-1, 0, 1))
        x: dict = {}
        for _ in range(rng.randint(1, 4)):
            r, c = corner(z)
            r2, c2, s = _p_image(r, c, half)
            v = rng.choice((1, -1, 2))
            x[r, c] = x.get((r, c), 0) + v
            x[r2, c2] = x.get((r2, c2), 0) + s * v
        if z == 0:
            trace = sum(v for (r, c), v in x.items() if r == c < half)
            x[0, 0] = x.get((0, 0), 0) - trace
            x[half, half] = x.get((half, half), 0) + trace
        if rng.random() < 0.5:
            key = corner(z)
            x[key] = x.get(key, 0) + rng.choice((1, -1))
        x = {k: v for k, v in x.items() if v}
        assert _in_fixed_copy(x, z, half) == (p_constraints(x, z, half) == {})
    for model in _fine_p3_models():
        for items in model.components.values():
            for coords, z in items:
                assert _in_fixed_copy(model.matrix(coords), z, half)


# ---------------------------------------------------------------------------
# universal groups of P(n) from the labels of the ambient model


def _oracle_p_specs():
    """Every fine grading of P(n), n <= 7, and 300 seeded random specs."""
    specs = [d.spec for n in range(2, 8) for d in enumerate_P_fine(n)]
    rng = random.Random(61)
    specs += [wide_p_spec(rng) for _ in range(200)]
    specs += [random_p_spec(rng) for _ in range(100)]
    return specs


def test_universal_P_group_equals_the_all_pairs_oracle():
    for spec in _oracle_p_specs():
        assert universal_P_group(spec) == all_pairs_universal_P_group(build_P_model(spec))


def test_p_formal_kernel_is_the_hermite_form_of_the_witness_relations(monkeypatch):
    """universal_P_group hands its Smith step the Hermite rows of the
    relations of the label pairs its docstring reads N from."""
    calls = count_calls(monkeypatch, matgrade, "finitely_presented_quotient")
    for spec in _oracle_p_specs():
        ambient = _ambient_model(spec)
        supp, pairs = p_witness(ambient)
        del calls[:]
        universal_P_group(spec)
        want = hermite_normal_form(relation_rows(ambient.base_group, supp, pairs))
        assert calls == [(len(supp), want)], spec


def test_p_labels_are_a_graded_basis_of_the_components():
    """The label vectors lie in the component of their key's degree and
    are a basis of it; so the label degrees are the support."""
    rng = random.Random(67)
    specs = [d.spec for n in (2, 3, 5) for d in enumerate_P_fine(n)]
    specs += [wide_p_spec(rng) for _ in range(30)]
    for spec in specs:
        model = build_P_model(spec)
        ambient = model.ambient
        spans = {g: sparse_echelon(model.matrix(x) for x, _ in items)
                 for g, items in model.components.items()}
        labels = p_labels(ambient)
        by_degree: dict = {}
        for key in labels:
            rows, z = p_label_vector(ambient, key)
            degree = ambient.basis[ambient.index[key]].degree
            assert rows and degree in spans, key
            assert not reduce_sparse(entries_of(rows), spans[degree]), key
            by_degree.setdefault(degree, []).append(entries_of(rows))
        assert model.dims() == {g: len(v) for g, v in by_degree.items()}
        assert all(len(sparse_echelon(v)) == len(v) for v in by_degree.values())


def test_p_label_family_brackets_are_nonzero():
    rng = random.Random(71)
    specs = [d.spec for n in (2, 3, 5, 7) for d in enumerate_P_fine(n)]
    specs += [wide_p_spec(rng) for _ in range(30)]
    for spec in specs:
        ambient = build_P_model(spec).ambient
        labels, pairs = p_labels(ambient), p_label_pairs(ambient)
        assert pairs
        for x, y in pairs:
            assert x in labels and y in labels
            assert _bracket(*p_label_vector(ambient, x), *p_label_vector(ambient, y)), (x, y)


def test_ugroup_on_p_forms_no_bracket_and_no_intersection(tmp_path, monkeypatch):
    brackets = count_calls(monkeypatch, superlie, "_bracket")
    intersections = count_calls(monkeypatch, superlie, "p_intersection")
    for n, i in ((3, 0), (3, 2), (5, 0), (7, 3)):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec_to_json(enumerate_P_fine(n)[i].spec)))
        payload, code = run(["ugroup", "-f", str(path)])
        assert code == 0 and payload["labels"]
    assert brackets == [] and intersections == []
