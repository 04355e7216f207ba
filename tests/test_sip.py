import pytest

from grpd.errors import (
    MixedGroupoids,
    NotBihom,
    NotScalarTarget,
    NotSeparating,
    ScalarSetNotSingleton,
)
from grpd.families import complex_pair, group_groupoid, pair_groupoid
from grpd.groupoid import RawGroupoid, validate_groupoid
from grpd.homs import (
    SIG_Q,
    SIG_QI,
    SIG_Z,
    class_at,
    congruence_from_hom,
    congruence_profile,
    product_hom,
    validate_affine_congruence,
    validate_hom,
    zero_hom,
)
from grpd.scalars import conj, gaussian
from grpd.sip import (
    COMPLEX,
    REAL,
    Bihom,
    b_partition,
    b_relate,
    has_unit_values,
    scalar_set,
    sip_from_thetas,
    transitive_props_check,
    validate_bihom,
    validate_sip,
)

from oracles import profile_bruteforce, scalar_set_bruteforce, sip_conditions_bruteforce


def zero_bihom(groupoid):
    table = {
        (g, h): gaussian(0) for g in groupoid.arrows() for h in groupoid.arrows()
    }
    return validate_bihom(groupoid, table)


# --- construction from homomorphism families ----------------------------------------


def test_sip_values_p2(p2, p2_sip):
    groupoid, _ = p2
    a = groupoid.arrow_index("(0,1)")
    b = groupoid.arrow_index("(1,0)")
    e0 = groupoid.arrow_index("e0")
    assert p2_sip.entry(a, a) == gaussian(1)
    assert p2_sip.entry(a, b) == gaussian(-1)
    assert p2_sip.entry(a, e0) == gaussian(0)
    assert p2_sip.field_tag == REAL


def test_sip_values_c4(c4, c4_sip):
    groupoid, _ = c4
    g = groupoid.arrow_index("((1,0),(0,0))")  # value 1
    h = groupoid.arrow_index("((0,1),(0,0))")  # value i
    assert c4_sip.entry(g, h) == gaussian(0, -1)
    assert c4_sip.entry(h, g) == gaussian(0, 1)
    assert c4_sip.field_tag == COMPLEX


def test_naive_modular_lift_is_not_additive(a3):
    groupoid, _ = a3
    naive = {
        groupoid.arrow_label(g): [int(groupoid.arrow_label(g).split(",")[1][:-1])]
        for g in groupoid.arrows()
    }
    with pytest.raises(Exception) as err:
        validate_hom(groupoid, naive, SIG_Q)
    assert err.value.witness == ("(0,1)", "(1,2)")


def test_only_scalar_lift_of_torsion_is_zero_and_rejected(a3):
    groupoid, _ = a3
    with pytest.raises(NotSeparating) as err:
        sip_from_thetas(groupoid, [zero_hom(groupoid, SIG_QI)])
    assert err.value.arrow == "(0,1)"


def test_modular_target_is_not_scalar(a3):
    groupoid, homs = a3
    with pytest.raises(NotScalarTarget):
        sip_from_thetas(groupoid, [homs["theta"]])


def test_mixed_groupoids_rejected(p2, p3):
    with pytest.raises(MixedGroupoids):
        sip_from_thetas(p2[0], [p3[1]["theta"]])


# --- explicit tables ------------------------------------------------------------------


def test_validate_bihom_round_trip(p2, p2_sip):
    rebuilt = validate_bihom(p2[0], dict(p2_sip.table))
    assert rebuilt.table == p2_sip.table
    assert rebuilt.field_tag == REAL


def test_flipped_entry_breaks_first_slot_additivity(p2, p2_sip):
    groupoid, _ = p2
    table = dict(p2_sip.table)
    a = groupoid.arrow_index("(0,1)")
    b = groupoid.arrow_index("(1,0)")
    table[(a, b)] = gaussian(1)
    with pytest.raises(NotBihom) as err:
        validate_bihom(groupoid, table)
    assert err.value.slot == "first"
    assert err.value.witness == ("(0,1)", "(1,0)", "(1,0)")


def test_partial_table_rejected(p2, p2_sip):
    table = dict(p2_sip.table)
    del table[(0, 0)]
    with pytest.raises(NotBihom) as err:
        validate_bihom(p2[0], table)
    assert err.value.slot == "missing"


def test_zero_table_is_a_bihom_but_not_a_sip(p2):
    groupoid, _ = p2
    bihom = zero_bihom(groupoid)
    report = validate_sip(bihom)
    assert report.definiteness_witness is not None
    assert report.definiteness_witness == groupoid.arrow_index("(0,1)")
    assert report.symmetry_witness is None and report.cauchy_witness is None
    assert not report.is_sip


# --- semi-inner-product conditions -------------------------------------------------------


def test_sip_reports_on_fixtures(p2_sip, p5_sip, c4_sip):
    for bihom in (p2_sip, p5_sip, c4_sip):
        report = validate_sip(bihom)
        assert report.is_sip
        assert sip_conditions_bruteforce(bihom) == (True, True, True)


def test_broken_symmetry_is_detected(p2, p2_sip):
    groupoid, _ = p2
    table = dict(p2_sip.table)
    a = groupoid.arrow_index("(0,1)")
    # conjugate-asymmetric but still a bihomomorphism: scale one slot only
    for h in groupoid.arrows():
        table[(a, h)] = table[(a, h)] * gaussian(0, 1)
        table[(groupoid.arrow_index("(1,0)"), h)] = table[
            (groupoid.arrow_index("(1,0)"), h)
        ] * gaussian(0, 1)
    bihom = validate_bihom(groupoid, table)
    report = validate_sip(bihom)
    assert report.symmetry_witness is not None
    assert report.symmetry_witness == (a, a)
    assert not report.is_sip


# --- row relations -------------------------------------------------------------------


def test_b_relate_examples(p2, p2_sip):
    groupoid, _ = p2
    a = groupoid.arrow_index("(0,1)")
    b = groupoid.arrow_index("(1,0)")
    e0 = groupoid.arrow_index("e0")

    self_rel = b_relate(p2_sip, a, a)
    assert self_rel.congruent and not self_rel.orthogonal

    rel = b_relate(p2_sip, a, b)
    assert rel.opposite and not rel.congruent and not rel.orthogonal

    rel = b_relate(p2_sip, a, e0)
    assert rel.orthogonal and not rel.congruent


def test_opposite_twice_gives_congruent(p5, p5_sip):
    groupoid, _ = p5
    arrows = list(groupoid.arrows())
    opposite = {
        (g1, g2)
        for g1 in arrows
        for g2 in arrows
        if b_relate(p5_sip, g1, g2).opposite
    }
    assert opposite
    for g1, g2 in opposite:
        for g3 in arrows:
            if (g2, g3) in opposite:
                assert b_relate(p5_sip, g1, g3).congruent


# --- the row partition ------------------------------------------------------------------


def test_b_partition_p2(p2, p2_sip):
    groupoid, _ = p2
    rows = b_partition(p2_sip)
    assert rows == congruence_from_hom(p2[1]["theta"])
    axioms = validate_affine_congruence(groupoid, rows)
    assert axioms.ok
    profile = congruence_profile(axioms)
    assert profile.simple_witness is None
    assert profile.complete_witness is not None  # not complete, so not b-affine
    assert profile.complete_witness == (groupoid.arrow_index("(0,1)"), 1)
    assert profile_bruteforce(groupoid, rows) == (False, profile.complete_witness, True, None)
    assert has_unit_values([p2[1]["theta"]])


def test_b_partition_pair3_incompleteness_witness():
    groupoid, homs = pair_groupoid(3)
    bihom = sip_from_thetas(groupoid, [homs["theta"]])
    rows = b_partition(bihom)
    profile = congruence_profile(validate_affine_congruence(groupoid, rows))
    assert profile.complete_witness is not None
    assert profile.complete_witness == (groupoid.arrow_index("(0,1)"), 2)
    assert profile_bruteforce(groupoid, rows)[1] == profile.complete_witness
    # the extreme arrow has an empty class fiber at object 0 as well
    extreme = groupoid.arrow_index("(2,0)")
    assert class_at(groupoid, rows, extreme, 0) == ()


def test_b_partition_on_zero_bihom_over_group():
    groupoid, _ = group_groupoid([[0, 1], [1, 0]])
    rows = b_partition(zero_bihom(groupoid))
    assert len(rows.classes) == 1
    axioms = validate_affine_congruence(groupoid, rows)
    assert axioms.ok
    assert congruence_profile(axioms).simple_witness == (0, 0)


def test_kronecker_check_skipped_without_unit_values(p2):
    groupoid, homs = p2
    doubled = {
        groupoid.arrow_label(g): [2 * homs["theta"].value(g)[0]]
        for g in groupoid.arrows()
    }
    assert not has_unit_values([validate_hom(groupoid, doubled, SIG_Z)])


def test_row_partition_of_a_theta_pairing_is_the_theta_partition(family_corpus):
    # with w = v(g) - v(g'), equal rows of g and g' give <w, v(h)> = 0 for
    # every h, so <w, w> = 0 and g, g' have equal theta values; equal values
    # give equal rows
    fixed = (pair_groupoid(2), pair_groupoid(5), pair_groupoid(6), complex_pair(2), complex_pair(3))
    cases = [(cg.groupoid, homs) for cg, homs in family_corpus]
    cases += [(groupoid, [homs["theta"]]) for groupoid, homs in fixed]
    assert len(cases) == 105
    for groupoid, homs in cases:
        rows = b_partition(sip_from_thetas(groupoid, homs))
        assert rows == congruence_from_hom(product_hom(homs))


# --- scalar sets --------------------------------------------------------------------------


def test_scalar_set_matches_bruteforce(p2_sip, p5_sip, c4_sip):
    scalars = (gaussian(0), gaussian(1), gaussian(-1), gaussian(0, 1), gaussian(2))
    for bihom in (p2_sip, p5_sip, c4_sip):
        for c in scalars:
            for g in bihom.groupoid.arrows():
                assert scalar_set(bihom, c, g) == scalar_set_bruteforce(bihom, c, g)


def test_scalar_set_zero_gives_identities(p2_sip, p5_sip, c4_sip):
    for bihom in (p2_sip, p5_sip, c4_sip):
        groupoid = bihom.groupoid
        expected = tuple(sorted(groupoid.identity))
        for g in groupoid.arrows():
            assert scalar_set(bihom, gaussian(0), g) == expected


def test_scalar_set_imaginary_multiple_on_c4(c4, c4_sip):
    groupoid, _ = c4
    g = groupoid.arrow_index("((1,0),(0,0))")  # value 1
    members = scalar_set(c4_sip, gaussian(0, 1), g)
    assert members == (
        groupoid.arrow_index("((0,1),(0,0))"),
        groupoid.arrow_index("((1,1),(1,0))"),
    )
    assert members == scalar_set_bruteforce(c4_sip, gaussian(0, 1), g)


def test_scalar_set_imaginary_empty_for_real_pairing(p2, p2_sip):
    groupoid, _ = p2
    assert scalar_set(p2_sip, gaussian(0, 1), groupoid.arrow_index("(0,1)")) == ()


def test_scalar_set_at_object(c4, c4_sip):
    groupoid, _ = c4
    g = groupoid.arrow_index("((1,0),(0,0))")
    at = groupoid.object_index("(0,1)")
    members = scalar_set(c4_sip, gaussian(0, 1), g, at)
    assert members == (groupoid.arrow_index("((0,1),(0,0))"),)
    empty_at = groupoid.object_index("(0,0)")
    assert scalar_set(c4_sip, gaussian(0, 1), g, empty_at) == ()


def test_scalar_set_singleton_enforcement(p2):
    groupoid, _ = p2
    bihom = zero_bihom(groupoid)
    with pytest.raises(ScalarSetNotSingleton):
        scalar_set(bihom, gaussian(1), 0, 0)


def test_scalar_set_members_are_row_congruent(c4, c4_sip):
    groupoid, _ = c4
    for c in (gaussian(1), gaussian(0, 1), gaussian(1, 1), gaussian(-2)):
        for g in groupoid.arrows():
            members = scalar_set(c4_sip, c, g)
            for k1 in members:
                for k2 in members:
                    assert b_relate(c4_sip, k1, k2).congruent


def test_conjugate_scalar_law_on_c4(c4, c4_sip):
    groupoid, _ = c4
    for c in (gaussian(0), gaussian(1), gaussian(0, 1), gaussian(1, -1), gaussian(2)):
        for h in groupoid.arrows():
            for k in scalar_set(c4_sip, c, h):
                for g in groupoid.arrows():
                    assert c4_sip.entry(g, k) == conj(c) * c4_sip.entry(g, h)


# --- transitive propositions --------------------------------------------------------------


def test_transitive_props_hold_on_fixtures(p2_sip, c4_sip, p5_sip):
    for bihom in (p2_sip, c4_sip, p5_sip):
        report = transitive_props_check(bihom)
        assert report.applicable and report.ok


def test_transitive_props_not_applicable_when_disconnected():
    raw = RawGroupoid(
        objects=["p", "q"],
        arrows=[("ep", "p", "p"), ("eq", "q", "q")],
        compose=[("ep", "ep", "ep"), ("eq", "eq", "eq")],
    )
    groupoid = validate_groupoid(raw)
    report = transitive_props_check(zero_bihom(groupoid))
    assert not report.applicable
    assert not report.ok


def test_transitive_props_witnesses_on_a_table_that_breaks_them(p2):
    groupoid, _ = p2
    g = groupoid.arrow_index("(1,0)")
    e1 = groupoid.arrow_index("e1")
    table = dict(zero_bihom(groupoid).table)
    table[(g, e1)] = gaussian(1)  # outside the source fiber of object 0
    report = transitive_props_check(Bihom(groupoid, table, REAL))
    assert report.applicable and not report.ok
    assert report.vanishing_witness == (g, 0, e1)
    assert report.fiber_witness is not None
    assert report.fiber_witness == 0
