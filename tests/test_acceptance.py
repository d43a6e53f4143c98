"""End-to-end suite: one test per headline guarantee, budgets asserted.

Everything here is exact arithmetic, so every comparison is equality;
there are no tolerances anywhere.  Randomized tests use fixed seeds.
"""

from __future__ import annotations

import collections
import hashlib
import itertools
import json
import math
import random
import time
from fractions import Fraction

from gradekit.abgroup import FinGenAbGroup, Subgroup, subgroup_and_quotient
from gradekit.bichar import Bicharacter, standard_pair
from gradekit.cli import parse_spec, run
from gradekit.classify import (
    _same_division_data,
    enumerate_P_fine,
    enumerate_even_fine,
    enumerate_odd_fine,
    iso_even_assoc,
    iso_lie_typeI,
    iso_odd_assoc,
)
from gradekit.graddiv import MonomialMatrix, StandardRealization
from gradekit.matgrade import (
    EmbeddedPairing,
    EvenAssocSpec,
    OddAssocGSpec,
    OddAssocTSpec,
    ParityExtension,
    build_matrix_model,
    build_odd_from_G,
    check_spec,
    coarsen,
    finest_even_coarsening,
    odd_existence_check,
    universal_group,
    verify_grading,
)
from gradekit.superlie import (
    P_restriction_condition,
    _reduce_vector,
    _rref,
    build_P_model,
    p_intersection,
    realized_basis_matrix,
    superadjoint_spec,
    supertranspose,
    universal_P_group,
    verify_P_graded,
)

from helpers import (
    TRIVIAL_BETA,
    count_calls,
    embedded_standard_torus,
    is_isomorphic,
    oracle_chi_and_a,
    random_even_spec,
    random_odd_g_spec,
    random_p_candidate_spec,
    random_p_spec,
    ref_pairing_value,
    ref_value,
)


def _budget(start, limit):
    elapsed = time.perf_counter() - start
    assert elapsed < limit, f"took {elapsed:.1f}s, budget {limit}s"


def _finite_draw(rng, draw):
    """Redraw until the ambient group is finite (order <= 64 by design)."""
    while True:
        spec = draw(rng)
        if spec.group.free_rank == 0:
            return spec


# ---------------------------------------------------------------------------
# 1. closure of 200 random gradings


def test_closure_of_200_random_gradings():
    start = time.perf_counter()
    rng = random.Random(101)
    for _ in range(100):
        spec = _finite_draw(rng, random_even_spec)
        assert math.prod(spec.group.torsion) <= 64
        model = build_matrix_model(spec)
        report = verify_grading(model)
        assert report.ok, report.failures
        assert sum(model.dimension_table().values()) == sum(model.sizes) ** 2
    for _ in range(60):
        spec = _finite_draw(rng, random_odd_g_spec)
        assert math.prod(spec.group.torsion) <= 64
        report = verify_grading(build_matrix_model(spec))
        assert report.ok, report.failures
    for _ in range(40):
        spec = _finite_draw(rng, random_p_spec)
        assert math.prod(spec.group.torsion) <= 64
        model = build_P_model(spec)
        report = verify_P_graded(model)
        assert report.ok, report.failures
        assert model.total_dim() == 2 * (model.n + 1) ** 2 - 1
    _budget(start, 30.0)


# ---------------------------------------------------------------------------
# 2. standard realization identities


def test_realization_commutation_and_transpose_identities():
    start = time.perf_counter()
    half = Fraction(1, 2)
    _, b2 = standard_pair((2,))
    _, b4 = standard_pair((4,))
    _, b22 = standard_pair((2, 2))
    explicit2 = Bicharacter(FinGenAbGroup(0, (2, 2)),
                            ((Fraction(0), half), (half, Fraction(0))))
    cases = {
        1: [TRIVIAL_BETA, Bicharacter(FinGenAbGroup(0, ()), ()),
            TRIVIAL_BETA.inverse()],
        4: [b2, b2.inverse(), explicit2],
        16: [b4, b4.inverse(), b22],
    }
    for order, betas in cases.items():
        assert len(betas) == 3
        for beta in betas:
            elems = sorted(beta.domain.elements())
            assert len(elems) == order
            real = StandardRealization(beta)
            for u in elems:
                for v in elems:
                    lhs = real.matrix(u) * real.matrix(v)
                    rhs = real.matrix(v) * real.matrix(u)
                    assert Fraction(lhs.proportionality(rhs), real.m) \
                        == ref_value(beta, u, v)
    # transpose fixes every degree over an elementary 2-group
    for beta in (TRIVIAL_BETA, b2, b22):
        real = StandardRealization(beta)
        for t in beta.domain.elements():
            partner, factor = real.transpose_partner(t)
            assert partner == t
            assert real.matrix(t).transpose().proportionality(
                real.matrix(partner)) == factor
    _budget(start, 5.0)


# ---------------------------------------------------------------------------
# 3. universal groups of the flagship fine gradings


def test_universal_groups_of_flagship_fine_gradings():
    start = time.perf_counter()
    division = next(d for d in enumerate_even_fine(2, 2) if d.h == (2,))
    quo, labels = universal_group(build_matrix_model(division.spec))
    assert is_isomorphic(quo, FinGenAbGroup(1, (2, 2)))
    assert is_isomorphic(division.universal, quo)
    assert quo.zero() in labels.values()

    p2 = enumerate_P_fine(2)[0]
    quo2, _ = universal_P_group(p2.spec)
    assert is_isomorphic(quo2, FinGenAbGroup(3, ()))
    assert is_isomorphic(p2.universal, quo2)

    p3 = next(d for d in enumerate_P_fine(3) if d.h == (2,))
    quo3, _ = universal_P_group(p3.spec)
    assert is_isomorphic(quo3, FinGenAbGroup(2, (2, 2)))
    assert is_isomorphic(p3.universal, quo3)
    _budget(start, 10.0)


# ---------------------------------------------------------------------------
# 4. finest even coarsening, plus 5. the square-subgroup identity
#    (both run over the same 50-spec sample)

_ODD_SAMPLE = None


def _odd_sample():
    global _ODD_SAMPLE
    if _ODD_SAMPLE is None:
        rng = random.Random(461)
        _ODD_SAMPLE = [random_odd_g_spec(rng) for _ in range(50)]
    return _ODD_SAMPLE


def test_finest_even_coarsening_is_the_predicted_grading():
    start = time.perf_counter()
    for spec in _odd_sample():
        tspec = build_odd_from_G(spec)
        side_b = finest_even_coarsening(tspec)
        _, gbar, theta = subgroup_and_quotient(spec.group, [spec.t0])
        gam = tuple(theta(g) for g in spec.gamma)
        ubar = theta(spec.u)
        side_a = EvenAssocSpec(gbar, tuple(theta(t) for t in spec.tbar_gens),
                               spec.beta_bar, gam,
                               tuple(gbar.add(ubar, g) for g in gam))
        witness = iso_even_assoc(side_a, side_b)
        assert witness is not None
        coarse = coarsen(build_matrix_model(spec), theta)
        assert build_matrix_model(side_b).dimension_table() == \
            coarse.dimension_table()
    _budget(start, 30.0)


def test_square_subgroup_equals_two_torsion_complement():
    for spec in _odd_sample():
        g = spec.group
        tspec = build_odd_from_G(spec)
        _, gbar, theta = subgroup_and_quotient(g, [spec.t0])
        ext = ParityExtension(g)
        pairing = EmbeddedPairing(ext.group, tspec.tgens, tspec.beta)
        # one side: images of the squares of the whole support
        squares = [theta(ext.base_part(ext.group.scale(2, t)))
                   for t in pairing.sub.elements()]
        sbar = Subgroup(gbar, squares)
        # other side: complement of the image of the even 2-torsion
        bar = EmbeddedPairing(gbar, tuple(theta(t) for t in spec.tbar_gens),
                              spec.beta_bar)
        tplus = bar.sub.preimage_under(theta)
        tors = [x for x in tplus.elements() if g.scale(2, x) == g.zero()]
        rbar = Subgroup(spec.beta_bar.domain,
                        [bar.abstract_coords(theta(x)) for x in tors])
        comp = spec.beta_bar.orthogonal_complement(rbar).image_under(bar.hom)
        assert sbar == comp


def _conversion_digest(specs):
    out = []
    for spec in specs:
        tspec = build_odd_from_G(spec)
        out.append([[list(t) for t in tspec.tgens], tspec.beta.m,
                    [list(row) for row in tspec.beta.N]])
    return hashlib.sha256(json.dumps(out).encode("utf-8")).hexdigest()


def _large_odd_g_spec(h, u):
    """t0 generating the Z/2 of Z/2 x H x H, Tbar = H x H with its standard
    pairing; chi is 0 on H x H, so a = 0 and u is any two-torsion element."""
    group = FinGenAbGroup(0, (2,) + h + h)
    lifts = tuple(group.unit(1 + i) for i in range(2 * len(h)))
    return OddAssocGSpec(group, group.unit(0), lifts, standard_pair(h)[1], u,
                         (group.zero(),))


def _twisted_odd_g_specs():
    """Z/4 x Z/4 with t0 = (2, 0) and Tbar = Z/2 x Z/2 under the hyperbolic
    pairing: chi has order 4 and abar is nonzero.  Moving a lift by t0
    moves the lift of abar the tbar_gens give, so both lifts of abar in
    T+ come up; u runs over the four square roots of a."""
    group = FinGenAbGroup(0, (4, 4))
    hyper = standard_pair((2,))[1]
    return [OddAssocGSpec(group, (2, 0), lifts, hyper, u, ((0, 0),))
            for lifts in (((1, 0), (0, 2)), ((1, 0), (2, 2)), ((3, 0), (0, 2)))
            for u in ((0, 1), (0, 3), (2, 1), (2, 3))]


# sha256 of (tgens, beta.m, beta.N) per conversion, recorded before the
# conversion solved for coordinates instead of listing subgroups
CONVERSION_DIGESTS = {
    "sample": "fe5420c1df7d9213200d79a6e3f6493131ef41c0c7c0806dad121cd1b5dd80c9",
    "twisted": "4a580cb02a209a64681946e2a6a2428d27fe896ab678fa1cc6512882569f8754",
    (8, 8): "6bd1620097a54245af0b51b3773b8d86aec928306f291dfa67282e6dc1cf20c3",
    (4, 4, 4): "c92e7a8d9c7ac7d4b90537ff0b97eef287147be186ab1ea32f7982b9f5e27214",
}
LARGE_ROOTS = {(8, 8): (1, 4, 0, 4, 0), (4, 4, 4): (1, 2, 0, 0, 2, 0, 0)}


def test_odd_conversion_is_pinned_and_lists_no_subgroup(monkeypatch):
    assert _conversion_digest(_odd_sample()) == CONVERSION_DIGESTS["sample"]
    assert _conversion_digest(_twisted_odd_g_specs()) == CONVERSION_DIGESTS["twisted"]
    for h, u in LARGE_ROOTS.items():
        assert _conversion_digest([_large_odd_g_spec(h, u)]) == CONVERSION_DIGESTS[h]
    listed = count_calls(monkeypatch, Subgroup, "elements")
    build_odd_from_G(_large_odd_g_spec((8, 8), LARGE_ROOTS[8, 8]))
    assert listed == []


def _coarsening_digest(tspecs):
    out = []
    for tspec in tspecs:
        even = finest_even_coarsening(tspec)
        out.append([even.group.to_json(), [list(t) for t in even.tgens], even.beta.m,
                    [list(row) for row in even.beta.N], [list(x) for x in even.gamma0],
                    [list(x) for x in even.gamma1]])
    return hashlib.sha256(json.dumps(out).encode("utf-8")).hexdigest()


def _rebased(tspec):
    """The same grading on another basis of T: each generator in turn
    gains every other one whose order divides its own, which keeps the
    orders.  The first odd generator's degree is then seldom the least
    of its coset."""
    ext = ParityExtension(tspec.group)
    pairing = EmbeddedPairing(ext.group, tspec.tgens, tspec.beta)
    gens = list(pairing.gens)
    orders = tspec.beta.domain.torsion
    for i in range(len(gens)):
        for j in range(len(gens)):
            if j != i and orders[i] % orders[j] == 0:
                gens[i] = ext.group.add(gens[i], gens[j])
    beta = Bicharacter.from_residues(tspec.beta.domain, tspec.beta.m,
                                     [[pairing.value(x, y) for y in gens] for x in gens])
    return OddAssocTSpec(tspec.group, tuple(gens), beta, tspec.gamma)


# sha256 of (group, tgens, beta.m, beta.N, gamma0, gamma1) per finest even
# coarsening, recorded while it still listed the support
COARSENING_DIGESTS = {
    "sample": "b8c1a631702aa1f13ac12cd095bcbaea6ffdf76eb3d1889161c6746048e20d22",
    (16, 16): "fc2eee2f0ad8f594d8967dddb32d28711fcf55a88ebf044c9b11686ed2806697",
}


def test_finest_even_coarsening_is_pinned_and_lists_no_subgroup(monkeypatch):
    specs = (_odd_sample() + _twisted_odd_g_specs()
             + [_large_odd_g_spec(h, u) for h, u in LARGE_ROOTS.items()])
    tspecs = [build_odd_from_G(spec) for spec in specs]
    assert _coarsening_digest(tspecs) == COARSENING_DIGESTS["sample"]
    # the coarsening depends on the grading, not on the basis of T
    assert _coarsening_digest(map(_rebased, tspecs)) == COARSENING_DIGESTS["sample"]
    tspec = build_odd_from_G(_large_odd_g_spec((16, 16), (1, 8, 0, 8, 0)))
    assert _coarsening_digest([tspec]) == COARSENING_DIGESTS[16, 16]
    listed = count_calls(monkeypatch, Subgroup, "elements")
    start = time.perf_counter()
    finest_even_coarsening(tspec)
    _budget(start, 0.2)
    assert listed == []


# ---------------------------------------------------------------------------
# 6. odd extension structure and the negative existence case


def _characters(sub):
    """All homomorphisms from a finite subgroup into the roots of unity,
    each with values the Fraction exponents of its roots."""
    gens = sub.smith_gens
    out = []
    for vec in itertools.product(*(range(o) for _, o in gens)):
        def lam(x, vec=vec):
            coords = sub.coords_of(x)
            assert coords is not None
            return sum(Fraction(c * xc, o)
                       for c, xc, (_, o) in zip(vec, coords, gens)) % 1
        out.append(lam)
    return out


def _extension_search(group, t0, lifts, beta_bar):
    """Exhaustive search for odd extensions of the even-support pairing.

    An extension is an odd generator (w, 1) together with a character lam
    of T+ giving the pairing against it; it must square into T+, be
    consistent with bimultiplicativity, take -1 at t0, and leave the full
    pairing nondegenerate.  Returns the surviving w, with repeats for
    distinct characters.
    """
    _, gbar, theta = subgroup_and_quotient(group, [t0])
    bar = EmbeddedPairing(gbar, tuple(theta(t) for t in lifts), beta_bar)
    tplus = bar.sub.preimage_under(theta)
    elems = sorted(tplus.elements())
    t0r = group.reduce(t0)

    def bplus(x, y):
        return ref_pairing_value(bar, theta(x), theta(y))

    hits = []
    for w in sorted(group.elements()):
        two_w = group.scale(2, w)
        if tplus.coords_of(two_w) is None:
            continue
        for lam in _characters(tplus):
            if any(2 * lam(x) % 1 != bplus(two_w, x) for x in elems):
                continue
            if lam(two_w) != 0:
                continue
            if lam(t0r) != Fraction(1, 2):
                continue

            def value(a, b):
                (x, p), (y, q) = a, b
                out = bplus(x, y)
                if p:
                    out += lam(y)
                if q:
                    out -= lam(x)
                return out % 1

            members = [(x, p) for p in (0, 1) for x in elems]
            radical = [m for m in members
                       if all(value(m, o) == 0 for o in members)]
            if len(radical) == 1:
                hits.append(w)
    return hits


def test_odd_extension_structure_and_negative_case():
    start = time.perf_counter()
    hyper = standard_pair((2,))[1]
    cases = [
        (FinGenAbGroup(0, (4,)), (2,), (), TRIVIAL_BETA),
        (FinGenAbGroup(0, (8,)), (4,), (), TRIVIAL_BETA),
        (FinGenAbGroup(0, (2, 4)), (0, 2), (), TRIVIAL_BETA),
        (FinGenAbGroup(0, (4, 4)), (2, 0), ((1, 0), (0, 2)), hyper),
    ]
    for group, t0, lifts, beta_bar in cases:
        assert odd_existence_check(group, t0, lifts, beta_bar)
        chi, a = oracle_chi_and_a(group, t0, lifts, beta_bar)
        roots = [u for u in sorted(group.elements())
                 if group.scale(2, u) == group.reduce(a)]
        assert roots
        ext = ParityExtension(group)
        _, gbar, theta = subgroup_and_quotient(group, [t0])
        bar = EmbeddedPairing(gbar, tuple(theta(t) for t in lifts), beta_bar)
        tplus = bar.sub.preimage_under(theta)
        zero = group.zero()
        pairings = {}
        for u in roots:
            spec = check_spec(build_odd_from_G(
                OddAssocGSpec(group, t0, lifts, beta_bar, u, (zero,)))).source
            pairing = EmbeddedPairing(ext.group, spec.tgens, spec.beta)
            pairings[u] = pairing
            telems = sorted(pairing.sub.elements())
            # alternating and nondegenerate, straight from the values
            assert all(ref_pairing_value(pairing, x, x) == 0 for x in telems)
            for x in telems:
                if x == ext.group.zero():
                    continue
                assert any(ref_pairing_value(pairing, x, y) != 0 for y in telems)
            # restricts to the pulled-back even pairing
            for x in tplus.elements():
                for y in tplus.elements():
                    assert ref_pairing_value(pairing, ext.embed(x), ext.embed(y)) == \
                        ref_pairing_value(bar, theta(x), theta(y))
            # pairing against the odd generator is the canonical character
            t1 = ext.lift(u, 1)
            assert pairing.sub.contains(t1)
            for x in tplus.elements():
                assert ref_pairing_value(pairing, t1, ext.embed(x)) == chi(x)
        # equal division data exactly for roots in the same t0-coset
        coset = {zero, group.reduce(t0)}
        for u, v in itertools.combinations(roots, 2):
            assert _same_division_data(pairings[u], pairings[v]) == \
                (group.sub(u, v) in coset)

    # the search reproduces the square roots on a positive case ...
    g24 = FinGenAbGroup(0, (2, 4))
    hits = _extension_search(g24, (0, 2), (), TRIVIAL_BETA)
    assert hits == [u for u in sorted(g24.elements())
                    if g24.scale(2, u) == g24.zero()]
    # ... and confirms the advertised obstruction: no extension at all
    g42 = FinGenAbGroup(0, (4, 2))
    lifts42 = (g42.unit(0), g42.unit(1))
    assert not odd_existence_check(g42, (2, 0), lifts42, hyper)
    assert _extension_search(g42, (2, 0), lifts42, hyper) == []
    _budget(start, 20.0)


# ---------------------------------------------------------------------------
# 7. P(n) gradedness and strict deficiency without a witness


def test_p_family_dimensions_and_strict_deficiency():
    start = time.perf_counter()
    rng = random.Random(701)
    for _ in range(50):
        model = build_P_model(random_p_spec(rng))
        report = verify_P_graded(model)
        assert report.ok, report.failures
        assert model.total_dim() == 2 * (model.n + 1) ** 2 - 1
    checked = 0
    while checked < 20:
        cand = check_spec(random_p_candidate_spec(rng)).source
        if P_restriction_condition(cand) is not None:
            continue
        model = build_matrix_model(cand)
        comp = p_intersection(model)
        assert sum(len(v) for v in comp.values()) < 2 * model.sizes[0] ** 2 - 1
        checked += 1
    _budget(start, 60.0)


def test_fine_gradings_of_p7_verify():
    start = time.perf_counter()
    descs = enumerate_P_fine(7)
    assert [d.h for d in descs] == [(), (2,), (2, 2), (2, 2, 2)]
    for desc in descs:
        model = build_P_model(desc.spec)
        report = verify_P_graded(model)
        assert report.ok, report.failures
        assert model.total_dim() == 127
        assert report.z_dims == {-1: 36, 0: 63, 1: 28}
        assert report.stats["brackets_formed"] == 127 * 128 // 2
    _budget(start, 10.0)


def test_fine_gradings_of_m66_verify():
    """Every fine grading of M(6,6) that `fine` emits, odd and even, verifies
    in under a second, with one product per ordered pair of T."""
    start = time.perf_counter()
    descs = list(enumerate_odd_fine(6)) + list(enumerate_even_fine(6, 6))
    orders = []
    for desc in descs:
        one = time.perf_counter()
        model = build_matrix_model(desc.spec)
        report = verify_grading(model)
        assert report.ok, report.failures
        order = model.pairing.beta.domain.order()
        assert report.stats["distinct_products"] == order ** 2
        orders.append(order)
        _budget(one, 1.0)
    assert orders == [4, 16, 16, 36, 144, 144, 1, 4, 9, 36]
    assert [len(desc.spec.gamma) for desc in descs[:6]] == [6, 3, 3, 2, 1, 1]
    _budget(start, 10.0)


def test_verify_m48_48_through_the_block_torus_factorization():
    """An even grading of M(48,48): 12 + 12 blocks, each a 4 x 4 graded
    division algebra over (Z/2)^2 x its dual, so k^3 |T|^2 = 24^3 * 16^2
    compatible basis pairs, verifies in under a second."""
    group, tgens, beta = embedded_standard_torus((2, 2), free=1)
    gamma = [group.scale(i, group.unit(0)) for i in range(24)]
    spec = EvenAssocSpec(group, tgens, beta, tuple(gamma[:12]), tuple(gamma[12:]))
    start = time.perf_counter()
    model = build_matrix_model(spec)
    report = verify_grading(model)
    _budget(start, 1.0)
    assert model.sizes == (48, 48)
    assert report.ok, report.failures
    assert report.stats == {"pairs_checked": 24 ** 3 * 16 ** 2,
                            "distinct_products": 16 ** 2}


def test_universal_groups_of_m66_and_p7_fine_gradings():
    """The universal group computed for every fine grading of M(6,6) and
    P(7) that `fine` emits is the one the descriptor predicts, each in
    under two seconds, model build included."""
    start = time.perf_counter()
    descs = (list(enumerate_odd_fine(6)) + list(enumerate_even_fine(6, 6))
             + list(enumerate_P_fine(7)))
    for desc in descs:
        one = time.perf_counter()
        if desc.family == "p":
            quo, _ = universal_P_group(desc.spec)
        else:
            quo, _ = universal_group(build_matrix_model(desc.spec))
        assert is_isomorphic(quo, desc.universal), (desc.family, desc.h)
        _budget(one, 2.0)
    assert [d.family for d in descs] == ["odd"] * 6 + ["even"] * 4 + ["p"] * 4
    _budget(start, 15.0)


# ---------------------------------------------------------------------------
# 8. the superadjoint carries components onto the inverse grading


def _component_spans(model):
    spans = {}
    for idx, b in enumerate(model.basis):
        spans.setdefault((b.degree, b.parity), []).append(
            realized_basis_matrix(model, idx))
    return spans


def _assert_superadjoint_maps_components(spec):
    spec = check_spec(spec).source
    source = _component_spans(build_matrix_model(spec))
    target = _component_spans(build_matrix_model(superadjoint_spec(spec)))
    assert {k: len(v) for k, v in source.items()} == \
        {k: len(v) for k, v in target.items()}
    reduced = {key: _rref([list(m.flatten()) for m in mats])
               for key, mats in target.items()}
    for key, mats in source.items():
        echelon, pivots = reduced[key]
        for mat in mats:
            image = -supertranspose(mat)
            assert all(x == 0 for x in
                       _reduce_vector(echelon, pivots, image.flatten()))


def _monomial_intertwiner(real1, real2, partner, gens):
    """A monomial Q with Q^-1 X_{p(t)} Q proportional to X'_t on gens."""
    size = real1.size
    for perm in itertools.permutations(range(size)):
        # the four 4th roots, exponents modulo 4
        for exps in itertools.product(range(4), repeat=size - 1):
            q = MonomialMatrix(4, perm, (0,) + exps)
            qi = q.inverse()
            if all((qi * real1.matrix(partner[t]) * q).proportionality(
                    real2.matrix(t)) is not None for t in gens):
                return q
    return None


def test_superadjoint_carries_components_onto_inverse_data():
    start = time.perf_counter()
    # rational realizations: direct span checks on whole models
    _assert_superadjoint_maps_components(
        EvenAssocSpec(FinGenAbGroup(1, ()), (), TRIVIAL_BETA,
                      ((0,), (3,)), ((1,),)))
    group2, tgens2, beta2 = embedded_standard_torus((2,))
    _assert_superadjoint_maps_components(
        EvenAssocSpec(group2, tgens2, beta2, ((0, 0), (1, 1)), ((1, 0),)))

    # order-4 torus: entries leave the rationals, but the transpose sends
    # X_t to a multiple of X_{p(t)} with p inverting the pairing, and one
    # change of division basis aligns {X_{p(t)}} with the realization of
    # the inverse pairing; block bookkeeping is checked on the models
    tg4, beta4 = standard_pair((4,))
    real = StandardRealization(beta4)
    dual = StandardRealization(beta4.inverse())
    elems = sorted(tg4.elements())
    partner = {}
    for t in elems:
        mate, factor = real.transpose_partner(t)
        partner[t] = mate
        assert real.matrix(t).transpose().proportionality(
            real.matrix(mate)) == factor
    assert sorted(partner.values()) == elems
    for t in elems:
        assert partner[partner[t]] == t
    for u in elems:
        for v in elems:
            assert ref_value(beta4, partner[u], partner[v]) == \
                -ref_value(beta4, u, v) % 1
    q = _monomial_intertwiner(real, dual, partner,
                              [tg4.unit(0), tg4.unit(1)])
    assert q is not None
    qi = q.inverse()
    for t in elems:
        assert (qi * real.matrix(partner[t]) * q).proportionality(
            dual.matrix(t)) is not None

    group4, tgens4, b4e = embedded_standard_torus((4,))
    spec4 = check_spec(EvenAssocSpec(group4, tgens4, b4e,
                                     ((0, 0),), ((1, 2),))).source
    m1 = build_matrix_model(spec4)
    m2 = build_matrix_model(superadjoint_spec(spec4))
    assert m1.dimension_table() == m2.dimension_table()
    for b in m1.basis:
        mate = m2.basis[m2.index[(b.j, b.i, b.t_abs)]]
        assert mate.degree == b.degree
        assert mate.parity == b.parity
    _budget(start, 10.0)


# ---------------------------------------------------------------------------
# 9. deciders against a conjugation search on M(1,1)

_G22 = FinGenAbGroup(0, (2, 2))


def _m11_universe():
    elems = sorted(_G22.elements())
    evens = [EvenAssocSpec(_G22, (), TRIVIAL_BETA, (a,), (b,))
             for a in elems for b in elems]
    nonzero = [x for x in elems if x != _G22.zero()]
    odds = [OddAssocGSpec(_G22, t0, (), TRIVIAL_BETA, u, (c,))
            for t0 in nonzero for u in elems for c in elems]
    return evens, odds


def _degree_family(model):
    fam = {}
    for idx, b in enumerate(model.basis):
        fam.setdefault((b.degree, b.parity), []).append(
            list(realized_basis_matrix(model, idx).flatten()))
    return fam


def _trim(poly):
    poly = list(poly)
    while poly and poly[-1] == 0:
        poly.pop()
    return poly


def _poly_mod(a, b):
    a = _trim(a)
    while a and len(a) >= len(b):
        factor = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, coef in enumerate(b):
            a[shift + i] -= factor * coef
        a = _trim(a)
    return a


def _nonzero_common_root(polys):
    """Whether all polynomials share a root r != 0 in the algebraic closure."""
    live = [p for p in (_trim(p) for p in polys) if p]
    if not live:
        return True
    g = live[0]
    for p in live[1:]:
        while p:
            g, p = p, _poly_mod(g, p)
        if len(g) == 1:
            return False
    while g[0] == 0:
        g = g[1:]
    return len(g) > 1


def _diag_parts(v):
    # conjugation by diag(r, 1) scales e12 by r and e21 by 1/r
    return ([0, 0, v[2], 0], [v[0], 0, 0, v[3]], [0, v[1], 0, 0])


def _anti_parts(v):
    # conjugation by the odd unit [[0, 1], [r, 0]] swaps the corners
    return ([0, v[2], 0, 0], [v[3], 0, 0, v[0]], [0, 0, v[1], 0])


def _conjugation_carries(fam1, fam2, decompose):
    """Some r != 0 maps every component of fam1 onto fam2's, or not.

    The image of a vector splits into scaling weights -1, 0, 1; reducing
    each part against the target span turns every coordinate of the
    residual into a polynomial in r, and a common nonzero root is exactly
    a conjugation doing the carrying.
    """
    if set(fam1) != set(fam2):
        return False
    if any(len(fam1[k]) != len(fam2[k]) for k in fam1):
        return False
    polys = []
    for key, vecs in fam1.items():
        echelon, pivots = _rref([list(v) for v in fam2[key]])
        for v in vecs:
            low, mid, high = decompose(v)
            rl = _reduce_vector(echelon, pivots, low)
            rm = _reduce_vector(echelon, pivots, mid)
            rh = _reduce_vector(echelon, pivots, high)
            polys.extend([rl[c], rm[c], rh[c]] for c in range(4))
    return _nonzero_common_root(polys)


def _brute_iso(fam1, fam2):
    return (_conjugation_carries(fam1, fam2, _diag_parts)
            or _conjugation_carries(fam1, fam2, _anti_parts))


def test_deciders_agree_with_conjugation_search_on_m11():
    start = time.perf_counter()
    evens, odd_gspecs = _m11_universe()
    odds = [check_spec(build_odd_from_G(s)).source for s in odd_gspecs]
    assert len(evens) + len(odds) == 64
    even_fams = [_degree_family(build_matrix_model(s)) for s in evens]
    odd_fams = [_degree_family(build_matrix_model(s)) for s in odds]
    even_adj = [_degree_family(build_matrix_model(superadjoint_spec(s)))
                for s in evens]
    odd_adj = [_degree_family(build_matrix_model(superadjoint_spec(s)))
               for s in odds]

    matched = unmatched = 0
    for i in range(len(evens)):
        for j in range(i, len(evens)):
            brute = _brute_iso(even_fams[i], even_fams[j])
            assert brute == (iso_even_assoc(evens[i], evens[j]) is not None)
            lie = iso_lie_typeI(evens[i], evens[j]) is not None
            assert lie == (brute or _brute_iso(even_adj[i], even_fams[j]))
            matched += brute
            unmatched += not brute
    for i in range(len(odds)):
        for j in range(i, len(odds)):
            brute = _brute_iso(odd_fams[i], odd_fams[j])
            assert brute == (iso_odd_assoc(odds[i], odds[j]) is not None)
            lie = iso_lie_typeI(odds[i], odds[j]) is not None
            assert lie == (brute or _brute_iso(odd_adj[i], odd_fams[j]))
            matched += brute
            unmatched += not brute
    # families never mix, and the dimension data already says so
    for fe in even_fams:
        for fo in odd_fams:
            assert not _brute_iso(fe, fo)
    assert matched > len(evens) + len(odds)
    assert unmatched > 0

    # the swapped matching really needs the antidiagonal conjugations
    z4 = FinGenAbGroup(0, (4,))
    s_a = EvenAssocSpec(z4, (), TRIVIAL_BETA, ((0,),), ((1,),))
    s_b = EvenAssocSpec(z4, (), TRIVIAL_BETA, ((1,),), ((0,),))
    witness = iso_even_assoc(s_a, s_b)
    assert witness is not None and witness.swap
    fam_a = _degree_family(build_matrix_model(s_a))
    fam_b = _degree_family(build_matrix_model(s_b))
    assert not _conjugation_carries(fam_a, fam_b, _diag_parts)
    assert _conjugation_carries(fam_a, fam_b, _anti_parts)

    # the sign twist fires where the associative test genuinely fails
    z8 = FinGenAbGroup(0, (8,))
    s1 = EvenAssocSpec(z8, (), TRIVIAL_BETA, ((0,), (1,)), ((3,),))
    s2 = superadjoint_spec(s1)
    assert iso_even_assoc(s1, s2) is None
    twisted = iso_lie_typeI(s1, s2)
    assert twisted is not None and twisted.delta == -1
    _budget(start, 60.0)


# ---------------------------------------------------------------------------
# 10. fine grading counts and pairwise distinctness


def test_fine_grading_counts_and_pairwise_distinctness():
    start = time.perf_counter()
    p2, p3, p7 = enumerate_P_fine(2), enumerate_P_fine(3), enumerate_P_fine(7)
    assert len(p2) == 1
    assert len(p3) == 3
    assert len(p7) == 4
    evens22 = enumerate_even_fine(2, 2)
    assert len(evens22) == 2
    for family in (p2, p3, p7, evens22, enumerate_odd_fine(1),
                   enumerate_odd_fine(2)):
        for d1, d2 in itertools.combinations(family, 2):
            assert not is_isomorphic(d1.universal, d2.universal)
    _budget(start, 30.0)


# ---------------------------------------------------------------------------
# 11. the odd fine gradings of M(n,n) for n = 4, 8, 12

# descriptors per torus shape h: one per isometry orbit of involutions of
# the 2-part of H x H^, that is one per 2-height; the shapes up to order
# 64 are checked against a brute force in test_classify.py
ODD_FINE_ORBITS = {
    4: {(2,): 1, (4,): 1, (2, 2): 1, (8,): 1, (2, 4): 2, (2, 2, 2): 1},
    8: {(2,): 1, (4,): 1, (2, 2): 1, (8,): 1, (2, 4): 2, (2, 2, 2): 1,
        (16,): 1, (2, 8): 2, (4, 4): 1, (2, 2, 4): 2, (2, 2, 2, 2): 1},
    12: {(2,): 1, (4,): 1, (2, 2): 1, (2, 3): 1, (8,): 1, (2, 4): 2,
         (2, 2, 2): 1, (3, 4): 1, (2, 2, 3): 1, (3, 8): 1, (2, 3, 4): 2,
         (2, 2, 2, 3): 1},
}


def test_fine_odd_4_8_12_finish():
    start = time.perf_counter()
    for n, per_shape in ODD_FINE_ORBITS.items():
        payload, code = run(["fine", "odd", str(n)])
        assert code == 0
        assert payload["count"] == sum(per_shape.values())
        shapes = collections.Counter(tuple(d["h"]) for d in payload["descriptors"])
        assert shapes == per_shape
        for desc in payload["descriptors"]:
            moduli = desc["h"] + desc["h"]
            t0 = desc["t0"]
            assert any(t0) and all(2 * c % d == 0 for c, d in zip(t0, moduli))
            assert all(c == 0 for c, d in zip(t0, moduli) if d % 2)
    assert [sum(v.values()) for v in ODD_FINE_ORBITS.values()] == [7, 14, 14]
    _budget(start, 15.0)


# sha256 of json.dumps(payload, sort_keys=True) of `gradekit fine odd n`,
# recorded while the parity involutions came from an isometry search
FINE_ODD_DIGESTS = {
    16: "5313eb4d163825968f5d97e75c70909566aca08f48ceba82059eabc5bb5bd3de",
    24: "e0ce7587ac0cf95fdd8adb65eb08cb037ae70211df506c643aa29da7ba93fe8a",
    32: "5536cb7b696bd51f46dfddc2b130f771a379184675edd324b4d845c745ea666f",
}


def test_fine_odd_16_24_32_are_pinned():
    for n, digest in FINE_ODD_DIGESTS.items():
        start = time.perf_counter()
        payload, code = run(["fine", "odd", str(n)])
        if n == 32:
            _budget(start, 0.1)
            assert payload["count"] == 45
        assert code == 0
        text = json.dumps(payload, sort_keys=True)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest, n


# sha256 of json.dumps(payload, sort_keys=True) of `gradekit ugroup` on
# each fine odd 8 descriptor and the first two fine odd 12 ones, recorded
# from the dense Smith form this sparse one replaced
UGROUP_DIGESTS = {
    8: ["f40d84101d57d4b00f38bc9a17beeb35b0bdf9cca9c5476c320f17cd3f415c24",
        "72bd806f7ccd65c61f365f16aaec2cf0ee716dc069c3fd9301095611dc387b05",
        "b9f6bd86bbcb89641f73f9e117032c6c5bc17392b205c200bcf73d7a898ee834",
        "a3fa567dfe19044692d2971394343a729cfa415599dd2b0f84b5ec9b1124debb",
        "ae1e342726d0c7414dc51359877afe83cbb6d6c1d30881cc790e8e533f16c7f5",
        "ae1e342726d0c7414dc51359877afe83cbb6d6c1d30881cc790e8e533f16c7f5",
        "f2943bfb98917f2dab3e0da93ff60fb38fd64bec945188adcfef12bce655847b",
        "973ab6a803d26d84a3cf59d60acd3d3596bcb10baeda04ef2fabaf33bc06eb55",
        "c5c9a9d7e87dd0125bce9d19aa139343836121709bd0c9586b8a56e1da482768",
        "c5c9a9d7e87dd0125bce9d19aa139343836121709bd0c9586b8a56e1da482768",
        "f0a9e09597317d91d7c16043fdd20759d9fd8c50e90c5db99d3be4d19132007a",
        "f0a9e09597317d91d7c16043fdd20759d9fd8c50e90c5db99d3be4d19132007a",
        "7bcb89a67dc1a0645be9a25668544a6a650a36a1f148dcb7e55b696f95023bd0",
        "41009c8ebb36f8a0d78b83c502db055687e4cda4ea7cbc802c32fdf38b146dad"],
    12: ["57b809e55150eb42f020835ee56517530263c79d3128937bc5ea52cf4af4d9bd",
         "876ab0880f3f5286d87eb2935e27a6e8adbf4f4010575f27b63234b9ebc88d7d",
         "6038231971fe4644c44c55c6c63d90ee9ed0611981c6f0d87c2d3b89731d36e7",
         "289d59a04cc1b36108b3c36c4280b59bd5008f6ca76a562046f986396ea2606e",
         "553f1ffdc3c4f330088104597620e9106eefa91865fed5f91f584c6cc2cc29e3",
         "3fc74bb4b7ab092a12687f6cb10cdf7ebf50b3830931dfb519a61d5948611efb",
         "3fc74bb4b7ab092a12687f6cb10cdf7ebf50b3830931dfb519a61d5948611efb",
         "294726d69d1f390a163c5d390170231605cfe0d4593c030f36cf71d7991f135c",
         "843ede4bd507b9791bfa81c55c93a1b47130dbeddb855fb84ef28062565d1808",
         "664944502068b46cd99b8e4fc21ab90c8ca51b5611c8912a83be34d84d9d7930",
         "e757a43a224806a43e239907c0368617f006ec64914ca1157a8900fb2127f5eb",
         "9fc9d0312c8acbe9339838a7b761a937b1cc8bfe2add7379a161b5fcc9223a08",
         "9fc9d0312c8acbe9339838a7b761a937b1cc8bfe2add7379a161b5fcc9223a08",
         "68bd868dd0ee5047794290ab1e19397cf61686b06057ed17d5e5db7d5b88aced"],
}


def test_universal_groups_of_fine_odd_8_and_12(tmp_path):
    """`gradekit ugroup` on every fine odd 8 and fine odd 12 descriptor
    (M(12,12), up to 496 support degrees) gives the recorded payload,
    each in under two seconds, model build included."""
    specs = []
    for n, digests in UGROUP_DIGESTS.items():
        payload, code = run(["fine", "odd", str(n)])
        assert code == 0
        for i, (desc, digest) in enumerate(zip(payload["descriptors"], digests)):
            path = tmp_path / f"odd-{n}-{i}.json"
            path.write_text(json.dumps(desc["spec"]))
            specs.append((str(path), digest))
    assert len(specs) == 28
    start = time.perf_counter()
    for path, digest in specs:
        one = time.perf_counter()
        payload, code = run(["ugroup", "-f", path])
        _budget(one, 2.0)
        assert code == 0
        text = json.dumps(payload, sort_keys=True)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest, path
    _budget(start, 20.0)


# sha256 of json.dumps(payload, sort_keys=True) of `gradekit verify` on
# every `fine odd 16` and `fine p 15` descriptor, recorded while verify
# formed every product X_t X_s and bracketed every pair of P(n) basis
# vectors
VERIFY_DIGESTS_16 = {
    "odd 16": [
        "fc03a4340adeb3a4133a7275e38ab1414c7187bc3c4e041100f84871ef34a881",
        "a878679ee1a403cda01b90b20aea547b550b81e41d96ebc90aac47286d68e42d",
        "c60046f87a0b663477c742257c7741b8faad333556d1a6a804cf318fa30b5cf1",
        "5bf8818e0cd0a5c152e539343d4e2a31849d4bc18c6b5a2008c55f782125218a",
        "451822bd801fec020af0e2be1e837d2b0c52030dc106ba6ac34d6bc4921ef614",
        "97f38ca78a3cb3fb0d912b26468552b69ef206cc4ea9284d76e2c3f528b2d08a",
        "ba1a3358b56476d8d6e504f15597bb20242cdffe4587cd3adca165e7df295558",
        "9b663cc01001a2303db6e619ccd9fa3953e71348c2bc8b085fa52fcd52a675da",
        "54ace5c01520532ab68160a7a6a8f23dc7972dc2f4c40bcdb33644ffd5276da5",
        "95fbf071ed46746f242a9ebac933751cde58e6464c124af5abe83c50b5151b72",
        "9876e38e60ed9fd1b258aa71fd58c0717e885d6e06cfab3c3e237b066f4fee57",
        "2a5fb7f4d414fc21f13bc01925a0dca3005ac888be8f155aec917f3bc9b43e69",
        "5576f9fa2d61500381f007e3b9c94d98c0227a1add92e9aff4775a5fb2d8090a",
        "e18f114b39133514d674224e8e66571cf6ec28400352e3770e1f74d1283b3442",
        "676f8a2355e009dc7e7cbd599a88d88c18329441487bf199f77c12032b673477",
        "d8c3e204481847b928a9ddd276b35f685cb20f03bfec3a942f6e8b91fae01eda",
        "801a7401115f1db895ac144d6ef9e0fda70794b7cce38e5b6d9ac13e68a7a2aa",
        "c074d237d4b39b808f53d9dee1c067b37bf1e48808e8d842845014c571af63b6",
        "52d9f799284b08f78221fd5418429b7fa6077fe3bb27f29b7f5c47d1a709f3ef",
        "b153a177c682460b35b31511864ffba12c4a4ccc7f415d85f1719270c5980ccd",
        "7f5f404ba62a83506b87ab5557ccd81a86b953e9f80d37fc5ae86b412e62ad2d",
        "c32d08e096cdabb7777d6fedb2523b0cf99169f2b1fcc7c62434e2ea8020ea32",
        "0d6b850a26e0c3687a025cbf191bc2a6826d6c444407d03fc6fd266826247cb6",
        "b6c965b1b12a8b71aa5d55175dcf6d7628cf8d97f6eecacff2da83b03e81917d",
        "0838781204b713d5e1411592adcde42eaf56e752e1e2dd7a926fd1abd7354d28",
        "e7d06ac66918d7563bef006302e6cd17a0f1f61acd46be3155941c8918bf418d"],
    "p 15": [
        "e8780ff069c46138a03595bd510551c3a52b3750049baef9cc91f9e871238d95",
        "1f7d63f8aa567676aa09f8947d1081516c1d6b3974c2b7a251cf05dcf65e8a09",
        "71c9c29d810dc72fc43d4f6e14826b10ea42e5a7ba731b85dfb07a701092ad4f",
        "db69ba1d47038ae5423239803f468b55ad5ffb32dd648d383ce77144cf7e3dc5",
        "33d2338e487791feda67ef667fa8286dc41c6352f0f532e3607a185e444b9f21"],
}


def test_verify_of_fine_odd_16_and_p_15_is_pinned(tmp_path, monkeypatch):
    """`gradekit verify` on every fine grading of M(16, 16) with odd
    support and of P(15) gives the recorded payload, each in under a
    second, model build included; on `fine odd 16` #14 (|T| = 1 024) it
    multiplies fewer than |T|^2 / 10 pairs of torus matrices."""
    for listing, digests in VERIFY_DIGESTS_16.items():
        payload, code = run(["fine"] + listing.split())
        assert code == 0 and len(payload["descriptors"]) == len(digests)
        for i, (desc, digest) in enumerate(zip(payload["descriptors"], digests)):
            path = tmp_path / "spec.json"
            path.write_text(json.dumps(desc["spec"]))
            with monkeypatch.context() as patch:
                products = count_calls(patch, MonomialMatrix, "__mul__")
                start = time.perf_counter()
                out, code = run(["verify", "-f", str(path)])
                _budget(start, 1.0)
            assert code == 0
            text = json.dumps(out, sort_keys=True)
            assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest, (listing, i)
            if (listing, i) == ("odd 16", 14):
                order = check_spec(parse_spec(desc["spec"])).pairing.beta.domain.order()
                assert order == 1024
                assert len(products) < order ** 2 / 10


# sha256 of json.dumps(payload, sort_keys=True) of `gradekit verify` on
# every `fine p 31` descriptor, recorded while the ambient proof read
# each basis vector's coordinates back from its matrix
VERIFY_DIGESTS_P31 = [
    "00908e8b5c56485f83ce78c21ca7123b0f64c11106b8e282b6efc4d8aa0c61de",
    "1feb025f911091ab58b6faa87470325cb19388b519dd0bb0a7373a0988a8801e",
    "cc2591d84b2ab5b300640fe73f4032ebb6a4e833a1b38dd8dc4f47de1dc76d42",
    "b8a9158d63b976b7bf99e0286bb06f25058451b708842605d9ef763392e98ab2",
    "5d9d4670123349267b5fed1b04ee69c3c4218ac75b3a44d9d411b5a5fd3451e5",
    "891f3a09c562df0560eb2f3caeadc0add831ce520635a3a6e86306cd96a29ccc"]


def test_verify_of_fine_p_31_is_pinned(tmp_path):
    """`gradekit verify` on every fine grading of P(31) (M(32, 32),
    2 047 basis vectors) gives the recorded payload, each in under a
    second, model build included."""
    payload, code = run(["fine", "p", "31"])
    assert code == 0 and len(payload["descriptors"]) == len(VERIFY_DIGESTS_P31)
    for i, (desc, digest) in enumerate(zip(payload["descriptors"], VERIFY_DIGESTS_P31)):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(desc["spec"]))
        start = time.perf_counter()
        out, code = run(["verify", "-f", str(path)])
        _budget(start, 1.0)
        assert code == 0
        text = json.dumps(out, sort_keys=True)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest, i


# sha256 of json.dumps(payload, sort_keys=True) of `gradekit ugroup` on
# every fine P(n) descriptor, n in {2, 3, 5, 7, 15}, recorded while
# ugroup bracketed component bases for every pair of support degrees
UGROUP_P_DIGESTS = {
    2: [
        "d02fb2d54d32c0754f8349e61c72ade8d9f89abb508250d2dfacf6825985123a"],
    3: [
        "0c09fb54b2c2bdf63fda9da1d8a26957501a6b1c11e0a6a236f92dd949554cc9",
        "c20b8bc58b3f5c93f2a9eaa91c0b65726a583e77e187d455b671faa32b33bf57",
        "81c736f4fee87cc21974e38f39e4511521963cb994eec10a2e1636f80fee4778"],
    5: [
        "e858b53e3fd09c308b117fb58a6929dfb03bb5d60b0e73a8dd8450352d9f32a4",
        "57d5fdeebaf70c420dbe84d79fb5eb38379fa037f97cd106a40327d36a17a177"],
    7: [
        "764e0f887071665a7da31aae26c8d3b7cb353478027b8db71476ae0f0cf0014c",
        "37b29795838c6aee2b96e2e81a8f85eba81e3ffce0a3b68765274b860098b226",
        "8fab4e9f312d757d84be27e2280e564e8dd560743ef19cf14d011e6dc135117d",
        "e140b09a743442a49627137ddbd0546feaf6ce55b9e71acb455ef14f742e1bf8"],
    15: [
        "e13665b7341243ad7719d4716a0933b52be19376df0471560dfe458cb01187e8",
        "edee4e12f4a5af5f83454e9b69a6140807dd2a528e09f87e7f3da1599872e979",
        "3344e35b4a531a2cb445793772da19e8f69e21e74cb4162a4f9b64d1ef307427",
        "5987019972db1d7a107e58e446bd32b89cda616fa3a272221484e955733dbb75",
        "6e9c6ac677df7a7501379860e907d45e99ebdea3495502349945ae4f4a914012"],
}


def test_universal_groups_of_fine_p_are_pinned(tmp_path):
    """`gradekit ugroup` on every fine grading of P(2), P(3), P(5), P(7)
    and P(15) gives the recorded payload; each P(15) one in under a
    second, model build included."""
    for n, digests in UGROUP_P_DIGESTS.items():
        payload, code = run(["fine", "p", str(n)])
        assert code == 0 and len(payload["descriptors"]) == len(digests)
        for i, (desc, digest) in enumerate(zip(payload["descriptors"], digests)):
            path = tmp_path / "spec.json"
            path.write_text(json.dumps(desc["spec"]))
            start = time.perf_counter()
            out, code = run(["ugroup", "-f", str(path)])
            if n == 15:
                _budget(start, 1.0)
            assert code == 0
            text = json.dumps(out, sort_keys=True)
            assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest, (n, i)
