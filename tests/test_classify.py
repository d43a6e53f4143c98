"""Tests for isomorphism deciders and fine-grading enumerators."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from gradekit.abgroup import FinGenAbGroup
from gradekit.bichar import standard_pair
from gradekit.classify import (
    FineGradingDescriptor,
    _involution_orbits,
    IsoWitness,
    abelian_groups_of_order,
    enumerate_even_fine,
    enumerate_odd_fine,
    enumerate_P_fine,
    iso_even_assoc,
    iso_lie_typeI,
    iso_odd_assoc,
    iso_P,
)
from gradekit.matgrade import (
    CosetMultiset,
    EmbeddedPairing,
    EvenAssocSpec,
    OddAssocGSpec,
    ParityExtension,
    build_matrix_model,
    build_odd_from_G,
    universal_group,
    verify_grading,
)
from gradekit.superlie import (
    PSpec,
    build_P_model,
    superadjoint_spec,
    universal_P_group,
    verify_P_graded,
)

from helpers import (
    TRIVIAL_BETA,
    brute_involution_orbits,
    count_odd_conversions,
    count_one_pass,
    embedded_standard_torus,
    is_isomorphic,
    random_element,
    random_even_spec,
    random_odd_g_spec,
    random_p_spec,
    search_involution_orbits,
)

Z = FinGenAbGroup(1, ())


def even_xis(spec):
    pairing = EmbeddedPairing(spec.group, spec.tgens, spec.beta)
    return (CosetMultiset.from_tuple(spec.group, pairing.sub, spec.gamma0),
            CosetMultiset.from_tuple(spec.group, pairing.sub, spec.gamma1))


def odd_xi(spec):
    """Block-degree multiset of a T-variant odd spec, over T cap G."""
    from gradekit.abgroup import Subgroup
    ext = ParityExtension(spec.group)
    pairing = EmbeddedPairing(ext.group, spec.tgens, spec.beta)
    members = [t[:-1] for t in pairing.sub.elements() if t[-1] % 2 == 0]
    return CosetMultiset.from_tuple(spec.group, Subgroup(spec.group, members), spec.gamma)


# --- even decider ---


def test_iso_even_identical_specs():
    group, tgens, beta = embedded_standard_torus((2,))
    spec = EvenAssocSpec(group, tgens, beta,
                         ((1, 0), (0, 1)), ((1, 1),))
    assert iso_even_assoc(spec, spec) == IsoWitness(group.zero())


def test_iso_even_uniform_shift():
    s1 = EvenAssocSpec(Z, (), TRIVIAL_BETA, ((0,),), ((1,),))
    s2 = EvenAssocSpec(Z, (), TRIVIAL_BETA, ((5,),), ((6,),))
    assert iso_even_assoc(s1, s2) == IsoWitness((5,))


def test_iso_even_swap_branch():
    s1 = EvenAssocSpec(Z, (), TRIVIAL_BETA, ((0,),), ((1,),))
    s2 = EvenAssocSpec(Z, (), TRIVIAL_BETA, ((1,),), ((0,),))
    assert iso_even_assoc(s1, s2) == IsoWitness((0,), swap=True)


def test_iso_even_no_swap_for_unequal_blocks():
    s1 = EvenAssocSpec(Z, (), TRIVIAL_BETA, ((0,), (1,)), ((2,),))
    s2 = EvenAssocSpec(Z, (), TRIVIAL_BETA, ((2,),), ((0,), (1,)))
    assert iso_even_assoc(s1, s2) is None


def test_iso_even_ambient_mismatch():
    s1 = EvenAssocSpec(Z, (), TRIVIAL_BETA, ((0,),), ((1,),))
    s2 = EvenAssocSpec(FinGenAbGroup(2, ()), (), TRIVIAL_BETA,
                       ((0, 0),), ((1, 0),))
    with pytest.raises(ValueError):
        iso_even_assoc(s1, s2)


def test_iso_even_distinguishes_beta():
    group, tgens, beta = embedded_standard_torus((4,))
    gamma = ((0, 0),)
    s1 = EvenAssocSpec(group, tgens, beta, gamma, gamma)
    s2 = EvenAssocSpec(group, tgens, beta.inverse(), gamma, gamma)
    assert iso_even_assoc(s1, s2) is None
    assert iso_even_assoc(s1, s1) is not None


def test_iso_even_distinguishes_support():
    group, tgens, beta = embedded_standard_torus((2,))
    gamma = ((0, 0),)
    s1 = EvenAssocSpec(group, tgens, beta, gamma, gamma)
    s2 = EvenAssocSpec(group, (), TRIVIAL_BETA, gamma, gamma)
    assert iso_even_assoc(s1, s2) is None


def test_iso_even_reordered_support_generators():
    group, tgens, beta = embedded_standard_torus((2,))
    gamma0, gamma1 = ((0, 0),), ((1, 1),)
    s1 = EvenAssocSpec(group, tgens, beta, gamma0, gamma1)
    s2 = EvenAssocSpec(group, (tgens[1], tgens[0]), beta.inverse(),
                       gamma0, gamma1)
    assert iso_even_assoc(s1, s2) is not None


def test_iso_even_xi_only_dependence():
    group, tgens, beta = embedded_standard_torus((2,), free=1)
    g = (3, 1, 0)
    s1 = EvenAssocSpec(group, tgens, beta,
                       ((0, 0, 0), (1, 0, 1)), ((2, 1, 0),))
    shifted0 = tuple(group.add(group.add(x, g), t)
                     for x, t in zip(reversed(s1.gamma0), (tgens[0], tgens[1])))
    shifted1 = tuple(group.add(x, g) for x in s1.gamma1)
    s2 = EvenAssocSpec(group, tgens, beta, shifted0, shifted1)
    witness = iso_even_assoc(s1, s2)
    assert witness is not None and not witness.swap
    xi0, xi1 = even_xis(s1)
    target0, target1 = even_xis(s2)
    assert xi0.shift(witness.g) == target0
    assert xi1.shift(witness.g) == target1


# --- odd decider ---


def test_iso_odd_identical_specs():
    rng = random.Random(5)
    spec = random_odd_g_spec(rng)
    assert iso_odd_assoc(spec, spec) == IsoWitness(spec.group.zero())


def test_iso_odd_u_congruent_mod_t0():
    group = FinGenAbGroup(0, (4,))
    s1 = OddAssocGSpec(group, (2,), (), TRIVIAL_BETA, (0,), ((0,), (1,)))
    s2 = OddAssocGSpec(group, (2,), (), TRIVIAL_BETA, (2,), ((0,), (1,)))
    assert iso_odd_assoc(s1, s2) == IsoWitness((0,))


def test_iso_odd_distinct_square_root_cosets():
    # 2u = 0 has roots {(0,0), (1,0), (0,2), (1,2)}; t0 = (0,2) splits
    # them into two cosets, giving genuinely different supports.
    group = FinGenAbGroup(0, (2, 4))
    t0 = (0, 2)
    gamma = ((0, 0), (1, 1))
    s1 = OddAssocGSpec(group, t0, (), TRIVIAL_BETA, (0, 0), gamma)
    s2 = OddAssocGSpec(group, t0, (), TRIVIAL_BETA, (1, 0), gamma)
    s3 = OddAssocGSpec(group, t0, (), TRIVIAL_BETA, (0, 2), gamma)
    assert iso_odd_assoc(s1, s2) is None
    assert iso_odd_assoc(s1, s3) == IsoWitness((0, 0))


def test_iso_odd_shift_and_mixed_variants():
    group = FinGenAbGroup(1, (4,))
    s1 = OddAssocGSpec(group, (0, 2), (), TRIVIAL_BETA, (0, 0),
                       ((0, 0), (1, 3)))
    shifted = tuple(group.add(x, (2, 1)) for x in s1.gamma)
    s2 = OddAssocGSpec(group, (0, 2), (), TRIVIAL_BETA, (0, 0), shifted)
    witness = iso_odd_assoc(s1, s2)
    assert witness is not None
    t1 = build_odd_from_G(s1)
    assert iso_odd_assoc(t1, s2) is not None
    assert odd_xi(t1).shift(witness.g) == odd_xi(build_odd_from_G(s2))


def test_iso_odd_converts_each_spec_once(monkeypatch):
    calls = count_odd_conversions(monkeypatch)
    spec = random_odd_g_spec(random.Random(5))
    assert iso_odd_assoc(spec, spec) == IsoWitness(spec.group.zero())
    assert len(calls) == 2


def test_iso_odd_distinguishes_gamma_count():
    group = FinGenAbGroup(0, (4,))
    s1 = OddAssocGSpec(group, (2,), (), TRIVIAL_BETA, (0,), ((0,),))
    s2 = OddAssocGSpec(group, (2,), (), TRIVIAL_BETA, (0,), ((0,), (2,)))
    assert iso_odd_assoc(s1, s2) is None


# --- Lie decider ---


def test_iso_lie_delta_minus_one(monkeypatch):
    group = FinGenAbGroup(0, (8, 8))
    _, beta = standard_pair((8,))
    tgens = (group.unit(0), group.unit(1))
    gamma = ((0, 0),)
    s1 = EvenAssocSpec(group, tgens, beta, gamma, gamma)
    s2 = EvenAssocSpec(group, tgens, beta.inverse(), gamma, gamma)
    assert iso_even_assoc(s1, s2) is None
    counts = count_one_pass(monkeypatch)
    assert iso_lie_typeI(s1, s2) == IsoWitness((0, 0), delta=-1)
    # the superadjoint try reuses both checked pairings
    assert {step: len(calls) for step, calls in counts.items()} == {
        "pairings": 2, "checks": 2, "parities": 0, "quotients": 0,
        "decompositions": 0}


def test_iso_lie_matches_superadjoint_reference():
    """The Lie decider against deciding the superadjoint spec itself."""
    rng = random.Random(21)
    hits = {1: 0, -1: 0}
    for _ in range(25):
        for s1 in (random_even_spec(rng), random_odd_g_spec(rng)):
            even = isinstance(s1, EvenAssocSpec)
            decide = iso_even_assoc if even else iso_odd_assoc
            fields = ("gamma0", "gamma1") if even else ("gamma",)
            group = s1.group
            g = random_element(rng, group)
            s2 = rng.choice((s1, superadjoint_spec(s1)))
            s2 = replace(s2, **{f: tuple(group.add(g, x) for x in getattr(s2, f))
                                for f in fields})
            if rng.random() < 0.3:
                s2 = replace(s2, **{f: tuple(random_element(rng, group)
                                             for _ in getattr(s2, f))
                                    for f in fields})
            want = decide(s1, s2)
            if want is None:
                want = decide(superadjoint_spec(s1), s2)
                if want is not None:
                    want = IsoWitness(want.g, want.swap, -1)
            assert iso_lie_typeI(s1, s2) == want
            if want is not None:
                hits[want.delta] += 1
    assert hits[1] and hits[-1]


def test_iso_lie_assoc_witness_is_delta_plus_one():
    s1 = EvenAssocSpec(Z, (), TRIVIAL_BETA, ((0,),), ((1,),))
    s2 = EvenAssocSpec(Z, (), TRIVIAL_BETA, ((4,),), ((5,),))
    assert iso_lie_typeI(s1, s2) == IsoWitness((4,), delta=1)


def test_iso_lie_elementary_two_support_keeps_delta_plus():
    group, tgens, beta = embedded_standard_torus((2,))
    spec = EvenAssocSpec(group, tgens, beta, ((0, 0),), ((1, 0),))
    image = superadjoint_spec(spec)
    witness = iso_lie_typeI(spec, image)
    assert witness is not None and witness.delta == 1


def test_iso_lie_odd_branch():
    group = FinGenAbGroup(0, (4,))
    s1 = OddAssocGSpec(group, (2,), (), TRIVIAL_BETA, (0,), ((0,), (1,)))
    s2 = superadjoint_spec(s1)
    witness = iso_lie_typeI(s1, s2)
    assert witness is not None


# --- P decider ---


def test_iso_P_frozen_shift():
    gamma = ((0,), (0,), (0,))
    s1 = PSpec(Z, (), TRIVIAL_BETA, gamma, (0,))
    s2 = PSpec(Z, (), TRIVIAL_BETA, ((1,), (1,), (1,)), (2,))
    s3 = PSpec(Z, (), TRIVIAL_BETA, ((1,), (1,), (1,)), (3,))
    assert iso_P(s1, s2) == IsoWitness((1,))
    assert iso_P(s1, s3) is None
    assert iso_P(s1, s1) == IsoWitness((0,))


def test_iso_P_square_condition_on_torsion_shift():
    # shifting by an order-2 element leaves 2g = 0, so g0 must agree
    group, tgens, beta = embedded_standard_torus((2,), free=1)
    gamma = ((0, 0, 0), (1, 0, 0))
    shifted = tuple(group.add(x, (0, 1, 0)) for x in gamma)
    s1 = PSpec(group, tgens, beta, gamma, (0, 0, 0))
    s2 = PSpec(group, tgens, beta, shifted, (0, 0, 0))
    s3 = PSpec(group, tgens, beta, shifted, (1, 0, 0))
    assert iso_P(s1, s2) is not None
    assert iso_P(s1, s3) is None


def test_iso_P_free_shift_doubles_into_g0():
    gamma = ((0,), (3,), (7,))
    s1 = PSpec(Z, (), TRIVIAL_BETA, gamma, (1,))
    s2 = PSpec(Z, (), TRIVIAL_BETA, ((2,), (5,), (9,)), (5,))
    assert iso_P(s1, s2) == IsoWitness((2,))


# --- decider properties on random specs ---


def transformed_even(rng, spec):
    group = spec.group
    pairing = EmbeddedPairing(group, spec.tgens, spec.beta)
    telems = sorted(pairing.sub.elements())
    g = random_element(rng, group)
    def jitter(gamma):
        entries = [group.add(group.add(x, g), rng.choice(telems))
                   for x in gamma]
        rng.shuffle(entries)
        return tuple(entries)
    return EvenAssocSpec(group, spec.tgens, spec.beta,
                         jitter(spec.gamma0), jitter(spec.gamma1)), g


def test_iso_even_random_jitter_invariance():
    rng = random.Random(11)
    for _ in range(25):
        spec = random_even_spec(rng)
        other, g = transformed_even(rng, spec)
        witness = iso_even_assoc(spec, other)
        assert witness is not None
        back = iso_even_assoc(other, spec)
        assert back is not None
        xi0, xi1 = even_xis(spec)
        t0, t1 = even_xis(other)
        if witness.swap:
            assert xi0.shift(witness.g) == t1 and xi1.shift(witness.g) == t0
        else:
            assert xi0.shift(witness.g) == t0 and xi1.shift(witness.g) == t1


def test_iso_even_random_verdict_symmetric():
    rng = random.Random(12)
    outcomes = set()
    for _ in range(30):
        s1 = random_even_spec(rng)
        group = s1.group
        gamma0 = tuple(random_element(rng, group) for _ in s1.gamma0)
        gamma1 = tuple(random_element(rng, group) for _ in s1.gamma1)
        s2 = EvenAssocSpec(group, s1.tgens, s1.beta, gamma0, gamma1)
        forward = iso_even_assoc(s1, s2)
        backward = iso_even_assoc(s2, s1)
        assert (forward is None) == (backward is None)
        outcomes.add(forward is None)
    assert outcomes == {True, False}


def test_iso_odd_random_jitter_invariance():
    rng = random.Random(13)
    for _ in range(15):
        spec = build_odd_from_G(random_odd_g_spec(rng))
        group = spec.group
        ext = ParityExtension(group)
        pairing = EmbeddedPairing(ext.group, spec.tgens, spec.beta)
        teven = sorted(t[:-1] for t in pairing.sub.elements() if t[-1] % 2 == 0)
        g = random_element(rng, group)
        entries = [group.add(group.add(x, g), rng.choice(teven))
                   for x in spec.gamma]
        rng.shuffle(entries)
        other = type(spec)(group, spec.tgens, spec.beta, tuple(entries))
        assert iso_odd_assoc(spec, other) is not None
        assert iso_odd_assoc(other, spec) is not None


def test_iso_P_random_jitter_invariance():
    rng = random.Random(14)
    for _ in range(15):
        spec = random_p_spec(rng)
        group = spec.group
        pairing = EmbeddedPairing(group, spec.tgens, spec.beta)
        telems = sorted(pairing.sub.elements())
        g = random_element(rng, group)
        entries = [group.add(group.add(x, g), rng.choice(telems))
                   for x in spec.gamma]
        rng.shuffle(entries)
        other = PSpec(group, spec.tgens, spec.beta, tuple(entries),
                      group.add(group.scale(2, g), spec.g0))
        witness = iso_P(spec, other)
        assert witness is not None
        assert group.add(group.scale(2, witness.g), spec.g0) == other.g0
        assert iso_P(other, spec) is not None


# --- enumerators ---


def test_abelian_groups_of_order():
    assert abelian_groups_of_order(1) == [()]
    assert abelian_groups_of_order(8) == [(2, 2, 2), (2, 4), (8,)]
    assert abelian_groups_of_order(12) == [(2, 2, 3), (3, 4)]
    assert len(abelian_groups_of_order(16)) == 5
    assert abelian_groups_of_order(30) == [(2, 3, 5)]
    with pytest.raises(ValueError):
        abelian_groups_of_order(0)


def test_enumerate_even_fine_counts():
    assert len(enumerate_even_fine(1, 1)) == 1
    assert len(enumerate_even_fine(2, 2)) == 2
    assert len(enumerate_even_fine(4, 2)) == 2
    assert len(enumerate_even_fine(4, 4)) == 4


def test_enumerate_even_fine_descriptors():
    descs = enumerate_even_fine(2, 2)
    plain, division = descs
    assert plain.family == "even" and plain.h == () and plain.blocks == (2, 2)
    assert str(plain.universal) == "Z x Z x Z"
    assert division.h == (2,) and division.blocks == (1, 1)
    assert is_isomorphic(division.universal, FinGenAbGroup(1, (2, 2)))
    for desc in descs:
        report = verify_grading(build_matrix_model(desc.spec))
        assert report.ok, report.failures


def test_enumerate_even_fine_universal_cross_check():
    for desc in enumerate_even_fine(2, 2) + enumerate_even_fine(1, 1):
        model = build_matrix_model(desc.spec)
        computed, labels = universal_group(model)
        assert is_isomorphic(computed, desc.universal)
        assert set(labels) == set(model.support())


def test_enumerate_odd_fine_counts_and_reps():
    descs = enumerate_odd_fine(1)
    assert len(descs) == 1
    assert descs[0].h == (2,) and descs[0].t0 == (0, 1)
    assert descs[0].blocks == (1,)
    by_h = {d.h: d for d in enumerate_odd_fine(2)}
    assert set(by_h) == {(2,), (2, 2), (4,)}
    assert by_h[(2, 2)].t0 == (0, 0, 0, 1)
    assert by_h[(4,)].t0 == (0, 2)


# every 2-group H with |H x H^| <= 64, with the order of its isometry
# group where it is classical: SL(2, Z/2^k) and Sp(2r, 2)
SMALL_TWO_GROUPS = {(2,): 6, (4,): 48, (8,): 384, (2, 2): 720,
                    (2, 4): None, (2, 2, 2): 1451520}


@pytest.mark.parametrize("h", sorted(SMALL_TWO_GROUPS), ids=str)
def test_involution_orbits_match_brute_force(h):
    orbits = brute_involution_orbits(h)
    counts = {count for _, _, count in orbits}
    assert len(counts) == 1
    if SMALL_TWO_GROUPS[h] is not None:
        assert counts == {SMALL_TWO_GROUPS[h]}
    _, beta = standard_pair(h)
    assert _involution_orbits(beta) == [least for least, _, _ in orbits]
    if h == (2, 4):
        assert [least for least, _, _ in orbits] == [(0, 0, 0, 2), (0, 0, 1, 0)]
        assert [len(orbit) for _, orbit, _ in orbits] == [3, 12]


def test_involution_orbits_search_the_two_part_only():
    def embedded(reps, h2, h):
        """reps of H2 x H2^ written in the coordinates of H x H^, H2 the
        leading factors of H."""
        pad = (0,) * (len(h) - len(h2))
        return [r[:len(h2)] + pad + r[len(h2):] + pad for r in reps]

    for h2, h in [((2, 2), (2, 2, 3)), ((2, 2), (2, 2, 5)),
                  ((2, 4), (2, 4, 3)), ((2,), (2, 9))]:
        reps = _involution_orbits(standard_pair(h2)[1])
        assert _involution_orbits(standard_pair(h)[1]) == embedded(reps, h2, h)
    assert _involution_orbits(standard_pair((3,))[1]) == []
    with pytest.raises(ValueError):
        _involution_orbits(standard_pair((6,))[1])


@pytest.mark.parametrize("odd", (1, 3))
@pytest.mark.parametrize("k", range(7))
def test_involution_orbits_equal_the_isometry_search(k, odd):
    """The height rule gives the search's representatives on every H
    whose 2-part has order at most 64, with and without a factor Z/3."""
    for h in abelian_groups_of_order(odd * 2 ** k):
        _, beta = standard_pair(h)
        assert _involution_orbits(beta) == search_involution_orbits(beta), h


def test_enumerate_odd_fine_specs_verify():
    for desc in enumerate_odd_fine(2):
        model = build_matrix_model(desc.spec)
        assert model.kind == "odd"
        report = verify_grading(model)
        assert report.ok, report.failures
        assert model.sizes == (2, 2)


def test_enumerate_odd_fine_universal_cross_check():
    desc = enumerate_odd_fine(1)[0]
    model = build_matrix_model(desc.spec)
    computed, _ = universal_group(model)
    assert is_isomorphic(computed, desc.universal)
    assert str(desc.universal) == "Z/2 x Z/2"


def test_enumerate_P_fine_counts():
    assert len(enumerate_P_fine(2)) == 1
    assert len(enumerate_P_fine(3)) == 3
    descs = enumerate_P_fine(7)
    assert len(descs) == 4
    assert [d.blocks[0] for d in descs] == [8, 4, 2, 1]
    with pytest.raises(ValueError):
        enumerate_P_fine(1)


def test_enumerate_P_fine_universal_cross_check():
    descs = enumerate_P_fine(3)
    for desc in descs[:2]:
        assert verify_P_graded(build_P_model(desc.spec)).ok
        computed, _ = universal_P_group(desc.spec)
        assert is_isomorphic(computed, desc.universal)
    assert str(descs[0].universal) == "Z x Z x Z x Z"
    assert is_isomorphic(descs[2].universal, FinGenAbGroup(1, (2,) * 4))


def test_enumerated_families_pairwise_distinct():
    families = [enumerate_even_fine(2, 2), enumerate_even_fine(4, 2),
                enumerate_odd_fine(2), enumerate_P_fine(3),
                enumerate_P_fine(7)]
    for descs in families:
        for i, a in enumerate(descs):
            for b in descs[i + 1:]:
                assert not is_isomorphic(a.universal, b.universal)
