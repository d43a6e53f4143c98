"""Tests for grading specs and matrix superalgebra models."""

from __future__ import annotations

import random
import re
from math import lcm
from dataclasses import replace
from fractions import Fraction as F

import pytest

from gradekit import matgrade
from gradekit.abgroup import (
    FinGenAbGroup,
    GroupHom,
    Subgroup,
    hermite_normal_form,
    subgroup_and_quotient,
)
from gradekit.bichar import Bicharacter, standard_pair
from gradekit.classify import enumerate_even_fine, enumerate_odd_fine
from gradekit.cli import parse_spec
from gradekit.graddiv import (
    MonomialMatrix,
    StandardRealization,
    element_failures,
    generator_products,
    product_table,
    realization_failures,
)
from gradekit.matgrade import (
    CosetMultiset,
    EmbeddedPairing,
    EvenAssocSpec,
    GradedMatrixModel,
    OddAssocGSpec,
    OddAssocTSpec,
    ParityExtension,
    _factorized_product_rule,
    build_matrix_model,
    build_odd_from_G,
    check_spec,
    coarsen,
    finest_even_coarsening,
    odd_existence_check,
    universal_group,
    verify_grading,
)

from helpers import (
    TRIVIAL_BETA,
    count_calls,
    count_odd_conversions,
    embedded_standard_torus,
    exponent,
    full_pair_universal_group,
    is_even_grading,
    oracle_chi_and_a,
    per_pair_failures,
    random_element,
    random_even_spec,
    random_odd_g_document,
    random_odd_g_spec,
    ref_pairing_value,
    reference_build_odd_from_G,
    reference_parity_element,
    relation_rows,
    searched_chi_vector,
    witness_pairs,
)

Z = FinGenAbGroup(1, ())
Z4 = FinGenAbGroup(0, (4,))
Z22 = FinGenAbGroup(0, (2, 2))


def minimal_odd_spec(u=(0,)):
    return OddAssocGSpec(Z4, (2,), (), TRIVIAL_BETA, u, ((0,),))


# ---------------------------------------------------------------------------
# parity extension and embedded pairings


def test_parity_extension_roundtrips():
    ext = ParityExtension(FinGenAbGroup(1, (4,)))
    assert ext.group.free_rank == 1
    assert ext.group.torsion == (4, 2)
    assert ext.embed((3, 2)) == (3, 2, 0)
    assert ext.lift((3, 2), 1) == (3, 2, 1)
    assert ext.base_part((3, 2, 1)) == (3, 2)
    assert ext.bit((3, 2, 1)) == 1
    assert ext.bit((3, 2, 0)) == 0


def test_parity_extension_hom():
    base = FinGenAbGroup(1, (4,))
    z2 = FinGenAbGroup(0, (2,))
    alpha = GroupHom(base, z2, ((1,), (1,)))
    ext = ParityExtension(base)
    lifted = ext.extend_hom(alpha)
    assert lifted.source == ext.group
    assert lifted.target.torsion == (2, 2)
    assert lifted((1, 1, 1)) == (0, 1)
    assert lifted((1, 0, 0)) == (1, 0)


def test_embedded_pairing_rejects_dependent_gens():
    beta = standard_pair((2,))[1]
    with pytest.raises(ValueError):
        EmbeddedPairing(Z4, ((2,), (2,)), beta).check()


@pytest.mark.parametrize("spec", [
    EvenAssocSpec(Z4, ((2,), (2,)), standard_pair((2,))[1], ((0,),), ((1,),)),
    EvenAssocSpec(Z22, ((1, 0), (1, 0)), standard_pair((2,))[1], ((0, 0),), ((0, 1),)),
    OddAssocTSpec(FinGenAbGroup(0, (2,)), ((0, 1), (0, 1)), standard_pair((2,))[1],
                  ((0,),)),
])
def test_check_spec_rejects_dependent_tgens(spec):
    with pytest.raises(ValueError, match="subgroup generators are not independent"):
        check_spec(spec)


def test_embedded_pairing_value_outside_support():
    group, beta = standard_pair((2,))
    ambient = FinGenAbGroup(0, (2, 2, 2))
    pairing = EmbeddedPairing(ambient, ((1, 0, 0), (0, 1, 0)), beta)
    pairing.check()
    assert pairing.value((1, 0, 0), (0, 1, 0)) == 1
    assert pairing.abstract_coords((1, 1, 2)) == (1, 1)
    with pytest.raises(ValueError, match="is not in the support subgroup"):
        pairing.value((0, 0, 1), (1, 0, 0))
    with pytest.raises(ValueError, match="is not in the support subgroup"):
        pairing.abstract_coords((1, 1, 1))


def test_embedded_pairing_rejects_degenerate():
    zero = Bicharacter(Z22, ((F(0), F(0)), (F(0), F(0))))
    with pytest.raises(ValueError):
        EmbeddedPairing(Z22, ((1, 0), (0, 1)), zero).check()


# ---------------------------------------------------------------------------
# spec validation


def test_validate_rejects_empty_gamma():
    with pytest.raises(ValueError):
        check_spec(EvenAssocSpec(Z, (), TRIVIAL_BETA, (), ((1,),))).source
    with pytest.raises(ValueError):
        check_spec(OddAssocGSpec(Z4, (2,), (), TRIVIAL_BETA, (0,), ())).source


def test_validate_rejects_even_only_support():
    # all generators sit in G x {0}, so this support describes an even grading
    beta = standard_pair((2,))[1]
    spec = OddAssocTSpec(Z22, ((1, 0, 0), (0, 1, 0)), beta, ((0, 0),))
    with pytest.raises(ValueError):
        check_spec(spec).source


def test_validate_rejects_bad_t0_and_u():
    with pytest.raises(ValueError):
        check_spec(OddAssocGSpec(Z4, (1,), (), TRIVIAL_BETA, (0,), ((0,),))).source
    with pytest.raises(ValueError):
        build_odd_from_G(minimal_odd_spec(u=(1,)))
    with pytest.raises(ValueError):
        build_odd_from_G(minimal_odd_spec(u=(3,)))


@pytest.mark.parametrize("spec, message", [
    (minimal_odd_spec(u=(1,)), r"u squared is \(2,\), expected \(0,\)"),
    (OddAssocGSpec(Z4, (1,), (), TRIVIAL_BETA, (0,), ((0,),)), "t0 must have order 2"),
    (OddAssocGSpec(Z4, (2,), (), TRIVIAL_BETA, (0,), ()),
     "the block-degree tuple must be nonempty"),
])
def test_invalid_odd_g_messages(spec, message):
    for use in (check_spec, build_matrix_model):
        with pytest.raises(ValueError, match=f"^{message}$"):
            use(spec)


# the errors a G-description can meet while it is converted, in the
# order they are checked, each by a piece of its text
CONVERSION_ERRORS = ["t0 must have order 2",
                     "one generator per bicharacter coordinate required",
                     "maps to an element not killed by",
                     "not killed by generator order|is nonzero|are not opposite",
                     "subgroup generators are not independent",
                     "bicharacter is degenerate",
                     "no odd grading exists for this quotient data",
                     "u squared is"]


def _conversion_outcome(spec):
    """(tgens, m, N, t0) of the checked spec, or (type, text) of the error."""
    try:
        checked = check_spec(spec)
    except (ValueError, RuntimeError) as exc:
        return type(exc).__name__, str(exc)
    beta = checked.spec.beta
    return checked.spec.tgens, beta.m, beta.N, checked.t0


def test_conversion_inside_G_matches_the_quotient_reference(monkeypatch):
    """3 000 seeded odd_g documents, valid and spoilt: check_spec, which
    reads the G-description inside G, gives the support, pairing and t0
    of the quotient-based reference (helpers.reference_build_odd_from_G
    and the old parity element), or the same exception and text.  The
    documents reach every error the conversion checks for, and both
    verdicts of the existence test."""
    rng = random.Random(29)
    docs = [random_odd_g_document(rng) for _ in range(3000)]
    specs = [parse_spec(doc) for doc in docs]
    got = [_conversion_outcome(spec) for spec in specs]
    monkeypatch.setattr(matgrade, "build_odd_from_G", reference_build_odd_from_G)
    monkeypatch.setattr(matgrade, "_parity_element", reference_parity_element)
    want = [_conversion_outcome(spec) for spec in specs]
    for doc, a, b in zip(docs, got, want):
        assert a == b, doc
    texts = [out[1] for out in got if isinstance(out[0], str)]
    hit = [sum(bool(re.search(pattern, text)) for text in texts) for pattern in CONVERSION_ERRORS]
    assert all(count >= 10 for count in hit), dict(zip(CONVERSION_ERRORS, hit))
    converted = sum(not isinstance(out[0], str) for out in got)
    refused = hit[CONVERSION_ERRORS.index("no odd grading exists for this quotient data")]
    assert converted >= 300 and refused >= 10, (converted, refused)
    # existence says yes on every converted spec, many with nontrivial Tbar
    assert sum(len(spec.tbar_gens) > 0 for spec, out in zip(specs, got)
               if not isinstance(out[0], str)) >= 100


def test_odd_g_spec_converted_once_per_build(monkeypatch):
    calls = count_odd_conversions(monkeypatch)
    for spec in (minimal_odd_spec(), midsize_odd_spec()):
        calls.clear()
        model = build_matrix_model(spec)
        assert len(calls) == 1
        assert verify_grading(model).ok


def test_validate_rejects_wrong_type():
    with pytest.raises(TypeError):
        check_spec(object()).source


# ---------------------------------------------------------------------------
# coset multisets


def test_xi_multiset_trivial_subgroup():
    xi = CosetMultiset.from_tuple(Z, Subgroup(Z, []), [(0,), (0,), (1,)])
    assert xi.counts == (((0,), 2), ((1,), 1))
    assert xi.shift((5,)).counts == (((5,), 2), ((6,), 1))


def test_xi_multiset_mod_subgroup():
    sub = Subgroup(Z4, [(2,)])
    xi = CosetMultiset.from_tuple(Z4, sub, [(1,), (3,)])
    assert xi.counts == (((1,), 2),)
    # translating an entry by a subgroup element changes nothing
    assert xi == CosetMultiset.from_tuple(Z4, sub, [(3,), (3,)])
    assert xi.shift((1,)) == CosetMultiset.from_tuple(Z4, sub, [(0,), (2,)])


# ---------------------------------------------------------------------------
# even models


def test_even_model_z_grading():
    spec = EvenAssocSpec(Z, (), TRIVIAL_BETA, ((0,),), ((1,),))
    model = build_matrix_model(spec)
    assert model.sizes == (1, 1)
    assert tuple(b.degree for b in model.basis) == ((0,), (-1,), (1,), (0,))
    assert tuple(b.parity for b in model.basis) == (0, 1, 1, 0)
    assert tuple(b.z_degree for b in model.basis) == (0, -1, 1, 0)
    assert model.support() == ((-1,), (0,), (1,))
    assert model.dimension_table() == {
        ((0,), 0): 2,
        ((-1,), 1): 1,
        ((1,), 1): 1,
    }
    assert verify_grading(model).ok
    assert is_even_grading(model)


def test_even_model_division_blocks():
    group, tgens, beta = embedded_standard_torus((2,))
    zero = group.zero()
    spec = EvenAssocSpec(group, tgens, beta, (zero,), (zero,))
    model = build_matrix_model(spec)
    assert model.sizes == (2, 2)
    assert len(model.basis) == 16
    assert model.support() == tuple(sorted(group.elements()))
    table = model.dimension_table()
    for t in group.elements():
        assert table[(t, 0)] == 2
        assert table[(t, 1)] == 2
    assert verify_grading(model).ok
    assert is_even_grading(model)


def with_parts(model, **parts):
    """A copy of the model with some constructor arguments replaced."""
    args = dict(kind=model.kind, base_group=model.base_group,
                degree_group=model.degree_group, sizes=model.sizes,
                basis=model.basis, pairing=model.pairing, k=model.k,
                realization=model.realization, parity_coords=model.parity_coords)
    args.update(parts)
    return GradedMatrixModel(**args)


def test_verify_catches_tampered_degree():
    group, tgens, beta = embedded_standard_torus((2,))
    zero = group.zero()
    model = build_matrix_model(EvenAssocSpec(group, tgens, beta, (zero,), (zero,)))
    basis = list(model.basis)
    basis[3] = replace(basis[3], degree=group.add(basis[3].degree, (1, 0)))
    bad = with_parts(model, basis=tuple(basis))
    report = verify_grading(bad)
    assert not report.ok
    # one finding per bad pair, in loop order: the product table must not
    # merge pairs that share (t, s)
    assert report.failures == per_pair_failures(bad)


def test_verify_catches_realization_of_another_pairing():
    # the realization of beta with q transposed, i.e. of beta^-1: every
    # product is a root multiple with the right label, so only the
    # commutation check can tell
    group, tgens, beta = embedded_standard_torus((4,))
    zero = group.zero()
    model = build_matrix_model(EvenAssocSpec(group, tgens, beta, (zero,), (zero,)))
    transposed = Bicharacter(beta.domain, tuple(zip(*beta.q)))
    assert transposed != beta and transposed.is_nondegenerate()
    bad = with_parts(model, realization=StandardRealization(transposed))
    assert per_pair_failures(bad) == []
    report = verify_grading(bad)
    assert not report.ok
    assert all(f.startswith("commutation factor") for f in report.failures)
    assert verify_grading(model).ok


def test_verify_stats_on_fine_grading():
    group, tgens, beta = embedded_standard_torus((2, 2), free=1)
    spec = EvenAssocSpec(group, tgens, beta, (group.zero(),), (group.unit(0),))
    model = build_matrix_model(spec)
    report = verify_grading(model)
    assert report.ok
    order = beta.domain.order()
    assert report.stats == {"distinct_products": order ** 2,
                            "pairs_checked": 2 ** 3 * order ** 2}


def _oracle_models(rng):
    """Even, odd, coarsened and free-rank models of random specs."""
    def draw(spec_of, free_rank):
        while True:
            spec = spec_of(rng)
            if spec.group.free_rank == free_rank:
                return build_matrix_model(spec)

    def coarsened(model):
        _, _, theta = subgroup_and_quotient(
            model.base_group, [random_element(rng, model.base_group)])
        return coarsen(model, theta)

    for _ in range(12):
        yield "even", draw(random_even_spec, 0)
        yield "odd", draw(random_odd_g_spec, 0)
        yield "coarsened", coarsened(draw(rng.choice([random_even_spec,
                                                      random_odd_g_spec]), 0))
        yield "free-rank", draw(random_even_spec, 1)


def _mutants(rng, model):
    """The model unchanged and with one change of each kind."""
    dg = model.degree_group
    basis = list(model.basis)
    n = rng.randrange(len(basis))
    delta = dg.unit(rng.randrange(dg.rank)) if dg.rank else dg.zero()
    yield "unchanged", model
    bumped = basis[:]
    bumped[n] = replace(basis[n], degree=dg.add(basis[n].degree, delta))
    yield "degree bumped", with_parts(model, basis=tuple(bumped))
    flipped = basis[:]
    flipped[n] = replace(basis[n], parity=1 - basis[n].parity)
    yield "parity flipped", with_parts(model, basis=tuple(flipped))
    i, j = basis[n].i, basis[n].j
    shifted = tuple(replace(b, degree=dg.add(b.degree, delta))
                    if (b.i, b.j) == (i, j) else b for b in basis)
    yield "block shifted", with_parts(model, basis=shifted)
    t_abs = basis[n].t_abs
    torus = tuple(replace(b, degree=dg.add(b.degree, delta)) if b.t_abs == t_abs else b
                  for b in basis)
    yield "torus label shifted", with_parts(model, basis=torus)
    yield "element dropped", with_parts(model, basis=tuple(basis[:n] + basis[n + 1:]))
    yield "element duplicated", with_parts(model, basis=tuple(basis + [basis[n]]))
    # E_kk X_0 of degree 0 multiplies only with itself, consistently
    k = sum(model.sizes) // model.realization.size
    outside = replace(basis[0], i=k, j=k)
    yield "element outside the grid", with_parts(model, basis=tuple(basis + [outside]))


def test_verify_reports_a_product_that_lands_on_no_basis_element():
    model = build_matrix_model(EvenAssocSpec(Z, (), TRIVIAL_BETA, ((0,),), ((1,),)))
    report = verify_grading(with_parts(model, basis=model.basis[1:]))
    assert not report.ok
    assert report.failures == [
        "basis element (0, 0, (0,)) is missing",
        "product of (0, 1, (0,)) * (1, 0, (0,)) lands on no basis element"]


def test_verify_reports_a_missing_basis_element():
    # no product of two present elements lands on E_01, so only the
    # comparison of the basis with the block grid times T can see it
    model = build_matrix_model(EvenAssocSpec(Z, (), TRIVIAL_BETA, ((0,),), ((1,),)))
    dropped = with_parts(model, basis=model.basis[:1] + model.basis[2:])
    assert per_pair_failures(dropped) == verify_grading(dropped).failures == [
        "basis element (0, 1, (0,)) is missing"]


def test_verify_reports_duplicated_and_out_of_grid_elements():
    # the product rule holds on both models, so only the comparison of
    # the basis keys with the block grid can see the extra element
    model = build_matrix_model(EvenAssocSpec(Z, (), TRIVIAL_BETA, ((0,),), ((1,),)))
    duplicated = with_parts(model, basis=model.basis + model.basis[1:2])
    outside = with_parts(model, basis=model.basis + (replace(model.basis[0], i=2, j=2),))
    assert per_pair_failures(duplicated) == verify_grading(duplicated).failures == [
        "basis element (0, 1, (0,)) is duplicated"]
    assert per_pair_failures(outside) == verify_grading(outside).failures == [
        "basis element (2, 2, (0,)) is outside the block grid"]
    assert verify_grading(duplicated).stats["pairs_checked"] == 12
    assert verify_grading(outside).stats["pairs_checked"] == 9


def test_verify_agrees_with_per_pair_oracle():
    """On 384 seeded models, unchanged or with one change each, verify's
    failures and verdict are those of the per-pair oracle; the
    factorized proof accepts every unchanged model, a model that lacks a
    basis element gets a failure record for it, and one for each product
    that lands on it, and a duplicated or out-of-grid element fails."""
    rng = random.Random(14)
    seen: dict[str, int] = {}
    failing: dict[str, int] = {}
    landed: dict[str, int] = {}
    for family, model in _oracle_models(rng):
        seen[family] = seen.get(family, 0) + 1
        for change, mutant in _mutants(rng, model):
            want = per_pair_failures(mutant)
            got = verify_grading(mutant)
            assert (got.failures, got.ok) == (want, not want), (family, change)
            if any(f.endswith("lands on no basis element") for f in want):
                landed[change] = landed.get(change, 0) + 1
            if change == "unchanged":
                assert want == []
                table = product_table(mutant.realization)
                assert _factorized_product_rule(mutant, table), family
            elif want:
                failing[change] = failing.get(change, 0) + 1
            seen[change] = seen.get(change, 0) + 1
    assert seen == {"even": 12, "odd": 12, "coarsened": 12, "free-rank": 12,
                    "unchanged": 48, "degree bumped": 48, "parity flipped": 48,
                    "block shifted": 48, "torus label shifted": 48,
                    "element dropped": 48, "element duplicated": 48,
                    "element outside the grid": 48}
    assert all(failing.get(change, 0) > 24 for change in
               ("degree bumped", "parity flipped", "block shifted",
                "torus label shifted", "element dropped"))
    assert failing["element dropped"] == 48
    assert failing["element duplicated"] == failing["element outside the grid"] == 48
    assert landed == {"element dropped": 47}


def _generator_proof_mutants():
    """An even model of M(8, 4) over T = (Z/2)^4 with k = 3 blocks, and
    four mutants, each with a fault that one step of the generator proof
    alone can see: (iii) a realization of another pairing; (ii) one X_t,
    t a sum of three generators, with the two entries of one 2-cycle
    negated (same trace, same transpose rule); (c') the degrees of that
    torus label t shifted; (b') the degrees of block (1, 2) shifted."""
    group, tgens, beta = embedded_standard_torus((2, 2), free=1)
    gamma = tuple(group.scale(i, group.unit(0)) for i in range(3))
    model = build_matrix_model(EvenAssocSpec(group, tgens, beta, gamma[:2], gamma[2:]))
    yield "unchanged", model
    dg, dom = model.degree_group, beta.domain
    delta = dg.unit(0)
    n = [list(row) for row in beta.N]
    n[0][1] = n[1][0] = beta.m // 2
    other = Bicharacter.from_residues(dom, beta.m, n)
    assert other != beta and other.is_nondegenerate()
    yield "generator commutation", with_parts(model, realization=StandardRealization(other))
    real = StandardRealization(beta)
    # no product of two generators lands on t, so only (ii) multiplies X_t
    t = next(t for t in sorted(dom.elements())
             if sum(t) == 3 and real.matrix(t).perm[0] != 0)
    mono = real.matrix(t)
    exps = list(mono.exps)
    for j in (0, mono.perm[0]):
        exps[j] = (exps[j] + mono.m // 2) % mono.m
    a, b, _ = real._parts[t]
    real._parts[t] = (a, b, MonomialMatrix(mono.m, mono.perm, exps))
    yield "one product", with_parts(model, realization=real)
    yield "one torus label", with_parts(model, basis=tuple(
        replace(x, degree=dg.add(x.degree, delta)) if x.t_abs == t else x
        for x in model.basis))
    yield "one block", with_parts(model, basis=tuple(
        replace(x, degree=dg.add(x.degree, delta)) if (x.i, x.j) == (1, 2) else x
        for x in model.basis))


def test_generator_proof_mutants_give_the_reference_failures():
    """The unchanged model is proved from its |T| r generator products.
    Each mutant fails the step of the proof it was made for, and verify
    then reports the failures of the full path: the realization
    identities on the full product table, then the per-pair oracle."""
    for name, mutant in _generator_proof_mutants():
        real, beta = mutant.realization, mutant.pairing.beta
        products = generator_products(real, beta)
        assert element_failures(real) == [], name
        realization = realization_failures(real, product_table(real), beta)
        report = verify_grading(mutant)
        if name == "unchanged":
            assert len(products) == 16 * 4
            assert _factorized_product_rule(mutant, products)
            assert realization == [] and report.ok
            continue
        if name in ("generator commutation", "one product"):
            assert products is None and realization, name
        else:
            assert not _factorized_product_rule(mutant, products), name
            assert realization == [], name
        assert not report.ok, name
        assert report.failures == realization + per_pair_failures(mutant), name


def test_verify_forms_no_product_table_on_a_valid_model(monkeypatch):
    """A valid model is verified from |T| r products, r the number of
    generators of the pairing's domain, without the full table."""
    group, tgens, beta = embedded_standard_torus((2, 2), free=1)
    model = build_matrix_model(EvenAssocSpec(group, tgens, beta, (group.zero(),),
                                             (group.unit(0),)))
    tables = count_calls(monkeypatch, matgrade, "product_table")
    products = count_calls(monkeypatch, MonomialMatrix, "__mul__")
    report = verify_grading(model)
    assert report.ok and tables == []
    assert len(products) == 16 * 4
    assert report.stats["distinct_products"] == 16 ** 2


def test_coarsen_even_model():
    spec = EvenAssocSpec(Z, (), TRIVIAL_BETA, ((0,),), ((1,),))
    model = build_matrix_model(spec)
    mod2 = GroupHom(Z, FinGenAbGroup(0, (2,)), ((1,),))
    coarse = coarsen(model, mod2)
    assert tuple(b.degree for b in coarse.basis) == ((0,), (1,), (1,), (0,))
    assert verify_grading(coarse).ok
    assert is_even_grading(coarse)
    with pytest.raises(ValueError):
        coarsen(model, GroupHom.identity(Z4))


# ---------------------------------------------------------------------------
# odd models: the smallest case M(1,1) over Z/4


def test_minimal_odd_conversion():
    tspec = build_odd_from_G(minimal_odd_spec())
    assert tspec.tgens == ((2, 0), (0, 1))
    assert tspec.beta.domain == FinGenAbGroup(0, (2, 2))
    assert tspec.beta.q == ((F(0), F(1, 2)), (F(1, 2), F(0)))
    assert check_spec(tspec).t0 == (2,)


def test_minimal_odd_model():
    model = build_matrix_model(minimal_odd_spec())
    assert model.kind == "odd"
    assert model.sizes == (1, 1)
    assert verify_grading(model).ok
    assert not is_even_grading(model)
    assert model.dimension_table() == {
        ((0,), 0): 1,
        ((2,), 0): 1,
        ((0,), 1): 1,
        ((2,), 1): 1,
    }


def test_minimal_odd_u_translate_keeps_pairing():
    # replacing u by u + t0 must reproduce the same support and pairing
    first = build_odd_from_G(minimal_odd_spec(u=(0,)))
    second = build_odd_from_G(minimal_odd_spec(u=(2,)))
    assert first.tgens == second.tgens
    assert first.beta == second.beta


def test_minimal_odd_coarsenings():
    model = build_matrix_model(minimal_odd_spec())
    same = coarsen(model, GroupHom.identity(Z4))
    assert not is_even_grading(same)
    assert verify_grading(same).ok
    mod2 = GroupHom(Z4, FinGenAbGroup(0, (2,)), ((1,),))
    halved = coarsen(model, mod2)
    assert is_even_grading(halved)
    assert verify_grading(halved).ok


def test_minimal_odd_universal_group():
    # the even degree component is spanned by idempotents, so its generator
    # dies, and the odd component squares into it
    model = build_matrix_model(minimal_odd_spec())
    quo, labels = universal_group(model)
    assert quo.invariant_factors() == (2,)
    assert quo.free_rank == 0
    assert labels[(0,)] == quo.zero()


# ---------------------------------------------------------------------------
# the fine odd grading on M(1,1), presented over its universal group


def fine_odd_m11_spec():
    # support is the graph of the parity character inside (Z/2)^2 x Z/2
    beta = standard_pair((2,))[1]
    return OddAssocTSpec(Z22, ((1, 0, 0), (0, 1, 1)), beta, ((0, 0),))


def test_fine_odd_m11():
    spec = check_spec(fine_odd_m11_spec()).source
    assert check_spec(spec).t0 == (1, 0)
    model = build_matrix_model(spec)
    assert model.sizes == (1, 1)
    assert verify_grading(model).ok
    assert not is_even_grading(model)
    # every component is one-dimensional with a pure parity, yet the grading
    # is still odd: the division algebra has odd homogeneous elements
    assert model.dimension_table() == {
        ((0, 0), 0): 1,
        ((1, 0), 0): 1,
        ((0, 1), 1): 1,
        ((1, 1), 1): 1,
    }
    quo, _ = universal_group(model)
    assert quo.free_rank == 0
    assert quo.invariant_factors() == (2, 2)


# ---------------------------------------------------------------------------
# existence of odd gradings from quotient data


def test_odd_existence_frozen_cases():
    assert odd_existence_check(Z4, (2,), (), TRIVIAL_BETA)

    g = FinGenAbGroup(0, (4, 2))
    beta = standard_pair((2,))[1]
    assert not odd_existence_check(g, (2, 0), ((1, 0), (0, 1)), beta)

    big = FinGenAbGroup(0, (4, 2, 2))
    assert odd_existence_check(big, (2, 0, 0), ((0, 1, 0), (0, 0, 1)), beta)


def test_odd_existence_requires_order_two():
    with pytest.raises(ValueError):
        odd_existence_check(Z4, (1,), (), TRIVIAL_BETA)


# ---------------------------------------------------------------------------
# a mid-size odd grading, M(2,2) over Z/4 x Z/2 x Z/2


def midsize_odd_spec():
    g = FinGenAbGroup(0, (4, 2, 2))
    beta = standard_pair((2,))[1]
    return OddAssocGSpec(g, (2, 0, 0), ((0, 1, 0), (0, 0, 1)), beta,
                         (0, 0, 0), ((0, 0, 0),))


def test_midsize_odd_pipeline():
    spec = midsize_odd_spec()
    tspec = build_odd_from_G(spec)
    assert check_spec(tspec).t0 == (2, 0, 0)
    model = build_matrix_model(spec)
    assert model.sizes == (2, 2)
    assert verify_grading(model).ok
    assert not is_even_grading(model)

    _, gbar, theta = subgroup_and_quotient(spec.group, [spec.t0])
    coarse = coarsen(model, theta)
    assert is_even_grading(coarse)
    even_spec = finest_even_coarsening(tspec)
    assert even_spec.group == gbar
    even_model = build_matrix_model(even_spec)
    assert even_model.sizes == model.sizes
    assert even_model.dimension_table() == coarse.dimension_table()


# ---------------------------------------------------------------------------
# universal groups of even gradings


def test_universal_group_fine_even():
    group, tgens, beta = embedded_standard_torus((2,), free=1)
    spec = EvenAssocSpec(group, tgens, beta,
                         ((0, 0, 0),), ((1, 0, 0),))
    model = build_matrix_model(spec)
    quo, labels = universal_group(model)
    assert quo.free_rank == 1
    assert quo.invariant_factors() == (2, 2)
    assert labels[(0, 0, 0)] == quo.zero()


def test_universal_group_division_even():
    group, tgens, beta = embedded_standard_torus((2,))
    zero = group.zero()
    model = build_matrix_model(EvenAssocSpec(group, tgens, beta, (zero,), (zero,)))
    quo, labels = universal_group(model)
    assert quo.free_rank == 0
    assert quo.invariant_factors() == (2, 2)
    # the label map is additive on the support
    for s in group.elements():
        for t in group.elements():
            assert quo.add(labels[s], labels[t]) == labels[group.add(s, t)]


def test_universal_group_matches_the_full_pair_oracle():
    """The generating pairs give the (group, labels) of every product
    pair on each fine grading of M(2,2), M(2,4), M(3,3), M(4,4), M(6,6)
    and odd M(n,n), n <= 6, and on a seeded coarsening of each."""
    rng = random.Random(18)
    descs = [d for m, n in ((2, 2), (2, 4), (3, 3), (4, 4), (6, 6))
             for d in enumerate_even_fine(m, n)]
    descs += [d for n in range(1, 7) for d in enumerate_odd_fine(n)]
    coarser = 0
    for desc in descs:
        model = build_matrix_model(desc.spec)
        got = universal_group(model)
        assert got == full_pair_universal_group(model), desc
        group = model.base_group
        kernel = [random_element(rng, group) for _ in range(rng.randint(1, 2))]
        coarse = coarsen(model, subgroup_and_quotient(group, kernel)[2])
        want = full_pair_universal_group(coarse)
        assert universal_group(coarse) == want, desc
        coarser += want[0] != got[0]
    assert len(descs) == 35
    assert coarser > 10


def test_formal_kernel_is_the_hermite_form_of_the_witness_relations(monkeypatch):
    """universal_group hands its Smith step the Hermite rows of the
    relations of the products its docstring reads N from, on every fine
    grading of fine odd 1 to 16 and of M(m, n), 2 <= m <= n <= 8, on a
    seeded coarsening of those of fine odd 1 to 8 and of the M(m, n),
    where keys of distinct formal degrees share a degree, and on seeded
    random even and odd specs."""
    calls = count_calls(monkeypatch, matgrade, "finitely_presented_quotient")
    rng = random.Random(30)
    descs = [d for m in range(2, 9) for n in range(m, 9) for d in enumerate_even_fine(m, n)]
    descs += [d for n in range(1, 9) for d in enumerate_odd_fine(n)]
    models, coarser = [], 0
    for desc in descs:
        model = build_matrix_model(desc.spec)
        group = model.base_group
        kernel = [random_element(rng, group) for _ in range(rng.randint(1, 2))]
        coarse = coarsen(model, subgroup_and_quotient(group, kernel)[2])
        coarser += len(coarse.support()) < len(model.support())
        models += [model, coarse]
    models += [build_matrix_model(d.spec) for n in range(9, 17) for d in enumerate_odd_fine(n)]
    models += [build_matrix_model(random_even_spec(rng)) for _ in range(40)]
    models += [build_matrix_model(random_odd_g_spec(rng)) for _ in range(40)]
    for model in models:
        supp = model.support()
        del calls[:]
        universal_group(model)
        want = hermite_normal_form(relation_rows(model.base_group, supp, witness_pairs(model)))
        assert calls == [(len(supp), want)]
    assert coarser > 40


def test_universal_group_needs_the_block_grid():
    model = build_matrix_model(EvenAssocSpec(Z, (), TRIVIAL_BETA, ((0,),), ((1,),)))
    for basis in (model.basis[1:], model.basis + model.basis[1:2],
                  model.basis + (replace(model.basis[0], i=2, j=2),)):
        with pytest.raises(ValueError, match="not a block grid model: basis element"):
            universal_group(with_parts(model, basis=basis))


def test_universal_group_trivial_grading():
    trivial = FinGenAbGroup(0, ())
    spec = EvenAssocSpec(trivial, (), TRIVIAL_BETA, ((),), ((),))
    quo, _ = universal_group(build_matrix_model(spec))
    assert quo.free_rank == 0
    assert quo.invariant_factors() == ()


# ---------------------------------------------------------------------------
# randomized pipelines


def test_random_even_specs():
    rng = random.Random(29)
    for _ in range(8):
        spec = random_even_spec(rng)
        spec = check_spec(spec).source
        model = build_matrix_model(spec)
        assert sum(model.dimension_table().values()) == sum(model.sizes) ** 2
        assert verify_grading(model).ok
        assert is_even_grading(model)


def test_random_odd_specs():
    rng = random.Random(31)
    for _ in range(5):
        spec = random_odd_g_spec(rng)
        tspec = build_odd_from_G(spec)
        assert check_spec(tspec).t0 == spec.group.reduce(spec.t0)
        model = build_matrix_model(spec)
        assert verify_grading(model).ok
        assert not is_even_grading(model)
        _, _, theta = subgroup_and_quotient(spec.group, [spec.t0])
        assert is_even_grading(coarsen(model, theta))


def test_canonical_chi_is_the_least_character_the_search_finds():
    """The closed form of _canonical_chi, e_j for the last Smith
    coordinate j where t0 is nonzero, is the character the search over
    every dual vector finds, on seeded random finite T+ and elements t0
    of order 2; t0 = 0 has no such character."""
    rng = random.Random(43)
    compared = 0
    for _ in range(200):
        group = FinGenAbGroup(0, tuple(rng.choice((2, 4, 6, 8, 12))
                                       for _ in range(rng.randint(1, 3))))
        t_plus = Subgroup(group, [random_element(rng, group)
                                  for _ in range(rng.randint(1, 3))])
        x = group.zero()
        for s, o in t_plus.smith_gens:
            x = group.add(x, group.scale(rng.randrange(o), s))
        order = group.element_order(x)
        if order % 2:
            continue
        t0 = group.scale(order // 2, x)
        mod = lcm(*(o for _, o in t_plus.smith_gens)) * rng.choice((1, 2, 3))
        chi = matgrade._canonical_chi(t_plus, t0, mod)
        vec = searched_chi_vector(t_plus, t0)
        assert [chi(s) for s, _ in t_plus.smith_gens] == \
            [c * (mod // o) for c, (_, o) in zip(vec, t_plus.smith_gens)]
        assert 2 * chi(t0) == mod
        compared += 1
    assert compared > 50
    with pytest.raises(ValueError, match="identity"):
        matgrade._canonical_chi(t_plus, group.zero(), mod)


def test_odd_tau_pairing_values():
    # beta_u restricted to even support matches the quotient pairing, and
    # pairing an odd lift of u against s in T+ recovers the character
    rng = random.Random(37)
    for _ in range(4):
        spec = random_odd_g_spec(rng)
        g = spec.group
        tspec = build_odd_from_G(spec)
        ext = ParityExtension(g)
        pairing = EmbeddedPairing(ext.group, tspec.tgens, tspec.beta)
        chi, a = oracle_chi_and_a(g, spec.t0, spec.tbar_gens, spec.beta_bar)
        assert g.scale(2, spec.u) == a
        _, gbar, theta = subgroup_and_quotient(g, [spec.t0])
        bar = EmbeddedPairing(gbar, tuple(theta(t) for t in spec.tbar_gens),
                              spec.beta_bar)
        t_plus = bar.sub.preimage_under(theta)
        u_odd = ext.lift(spec.u, 1)
        for x in t_plus.elements():
            assert exponent(pairing.beta, pairing.value(ext.embed(x), u_odd)) \
                == -chi(x) % 1
            for y in t_plus.elements():
                assert exponent(pairing.beta, pairing.value(ext.embed(x), ext.embed(y))) \
                    == ref_pairing_value(bar, theta(x), theta(y))


def test_finest_even_coarsening_keeps_quotient_data():
    rng = random.Random(41)
    for _ in range(3):
        spec = random_odd_g_spec(rng)
        tspec = build_odd_from_G(spec)
        even_spec = finest_even_coarsening(tspec)
        _, gbar, theta = subgroup_and_quotient(spec.group, [spec.t0])
        assert even_spec.group == gbar
        expected = Subgroup(gbar, [theta(t) for t in spec.tbar_gens])
        assert Subgroup(gbar, list(even_spec.tgens)) == expected
        ours = EmbeddedPairing(gbar, even_spec.tgens, even_spec.beta)
        theirs = EmbeddedPairing(gbar, tuple(theta(t) for t in spec.tbar_gens),
                                 spec.beta_bar)
        for x in expected.elements():
            for y in expected.elements():
                assert exponent(ours.beta, ours.value(x, y)) == \
                    ref_pairing_value(theirs, x, y)
