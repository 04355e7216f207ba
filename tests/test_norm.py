import random
from fractions import Fraction

import pytest

from grpd.errors import (
    NoWitness,
    NotConsistent,
    NotSip,
    ResultNotSip,
    WitnessDisagreement,
)
from grpd.families import pair_groupoid
from grpd.groupoid import RawGroupoid, validate_groupoid
from grpd.homs import (
    SIG_Q,
    congruence_from_hom,
    partition_from_classes,
    partition_from_labels,
    validate_hom,
)
from grpd.norm import (
    consistency_check,
    norm_from_sip,
    norm_table,
    parallelogram_check,
    parallelogram_survey,
    polarize,
    scale_check,
    validate_norm,
)
from grpd.scalars import gaussian
from grpd.sip import b_partition, sip_from_thetas, validate_bihom, validate_sip

from corpus import random_groupoid
from oracles import (
    consistency_bruteforce,
    norm_violations,
    parallelogram_bruteforce,
    polarize_value_bruteforce,
)


def zero_bihom(groupoid):
    return validate_bihom(
        groupoid,
        {(g, h): gaussian(0) for g in groupoid.arrows() for h in groupoid.arrows()},
    )


# --- norms from pairings ------------------------------------------------------------


def test_norm_values_p2(p2, p2_norm):
    groupoid, _ = p2
    assert [p2_norm.sq[g] for g in groupoid.arrows()] == [0, 0, 1, 1]


def test_norm_values_p5(p5, p5_norm):
    groupoid, _ = p5
    assert p5_norm.sq[groupoid.arrow_index("(0,3)")] == 9


def test_norm_values_c4(c4, c4_sip):
    groupoid, _ = c4
    norm = norm_from_sip(validate_sip(c4_sip))
    assert norm.sq[groupoid.arrow_index("((1,1),(0,0))")] == 2


def test_norm_from_sip_requires_a_sip(p2):
    with pytest.raises(NotSip):
        norm_from_sip(validate_sip(zero_bihom(p2[0])))


def test_norm_table_rejects_negative(p2):
    with pytest.raises(ValueError):
        norm_table(p2[0], [0, 0, 1, -1])


# --- norm axioms -----------------------------------------------------------------------


def test_norm_axioms_hold_on_fixtures(p2_norm, p5_norm, c4_sip):
    for norm in (p2_norm, p5_norm, norm_from_sip(validate_sip(c4_sip))):
        assert validate_norm(norm).ok
        assert norm_violations(norm) == []


def test_identity_norm_must_vanish(p2):
    groupoid, _ = p2
    report = validate_norm(norm_table(groupoid, [1, 0, 1, 1]))
    assert report.identity_witness is not None
    assert report.identity_witness == groupoid.arrow_index("e0")


def test_nonidentity_norm_must_not_vanish(p2):
    groupoid, _ = p2
    report = validate_norm(norm_table(groupoid, [0, 0, 0, 0]))
    assert report.identity_witness is not None
    assert report.identity_witness == groupoid.arrow_index("(0,1)")


def test_inverse_invariance_witness(p2):
    groupoid, _ = p2
    report = validate_norm(norm_table(groupoid, [0, 0, 1, 2]))
    assert report.identity_witness is None and report.triangle_witness is None
    assert report.inverse_witness is not None
    assert report.inverse_witness == groupoid.arrow_index("(0,1)")


def test_triangle_witness(p5, p5_norm):
    groupoid, _ = p5
    sq = list(p5_norm.sq)
    sq[groupoid.arrow_index("(0,2)")] = Fraction(9)
    sq[groupoid.arrow_index("(2,0)")] = Fraction(9)
    report = validate_norm(norm_table(groupoid, sq))
    assert report.triangle_witness is not None
    assert report.triangle_witness == (
        groupoid.arrow_index("(0,1)"),
        groupoid.arrow_index("(1,2)"),
    )


def test_reverse_triangle_boundary_is_exact(p5, p5_norm):
    # norms 1 and 3 with a connecting arrow of norm 2: equality, not slack
    groupoid, _ = p5
    g = groupoid.arrow_index("(0,1)")
    h = groupoid.arrow_index("(0,3)")
    mid = groupoid.compose_table[(groupoid.inverse_of(g), h)]
    assert mid == groupoid.arrow_index("(1,3)")
    assert p5_norm.sq[mid] == 4
    assert validate_norm(p5_norm).reverse_witness is None


# --- consistency with a congruence ----------------------------------------------------


def test_p5_norm_is_row_consistent(p5_sip, p5_norm):
    rows = b_partition(p5_sip)
    report = consistency_check(p5_norm, rows)
    assert report.ok
    assert report.doubling == "holds"
    assert report.effective_pairs == 8


def test_doubling_witness_values(p5, p5_sip, p5_norm):
    groupoid, _ = p5
    g1 = groupoid.arrow_index("(0,1)")
    g2 = groupoid.arrow_index("(1,2)")
    prod = groupoid.compose_table[(g1, g2)]
    assert p5_norm.sq[prod] == 4 * p5_norm.sq[g1]


def test_p2_doubling_is_vacuous(p2_sip, p2_norm):
    rows = b_partition(p2_sip)
    report = consistency_check(p2_norm, rows)
    assert report.class_witness is None
    assert report.doubling == "vacuous"
    assert report.effective_pairs == 0
    assert report.ok


def test_single_class_partition_is_inconsistent(p2, p2_norm):
    groupoid, _ = p2
    single = partition_from_classes(4, [[0, 1, 2, 3]])
    report = consistency_check(p2_norm, single)
    assert report.class_witness is not None
    assert report.class_witness == (
        groupoid.arrow_index("e0"),
        groupoid.arrow_index("(0,1)"),
    )
    assert report.doubling == "fails"
    assert not report.ok


# --- parallelogram identity ------------------------------------------------------------


def test_parallelogram_main_example(p5, p5_sip, p5_norm):
    groupoid, _ = p5
    rows = b_partition(p5_sip)
    g = groupoid.arrow_index("(0,1)")
    result = parallelogram_check(consistency_check(p5_norm, rows), g, g)
    assert result.status == "holds"
    assert result.witnesses_checked == 12
    # one explicit witness quadruple: products (0,2) and (1,1)
    h1 = groupoid.arrow_index("(1,2)")
    assert p5_norm.sq[groupoid.compose_table[(g, h1)]] == 4
    inv_g = groupoid.inverse_of(g)
    assert p5_norm.sq[groupoid.compose_table[(inv_g, g)]] == 0


def test_parallelogram_with_identity_class(p5, p5_sip, p5_norm):
    groupoid, _ = p5
    rows = b_partition(p5_sip)
    consistency = consistency_check(p5_norm, rows)
    result = parallelogram_check(
        consistency, groupoid.arrow_index("(0,1)"), groupoid.arrow_index("e0")
    )
    assert result.status == "holds"


def test_parallelogram_no_witness_on_p2(p2, p2_sip, p2_norm):
    groupoid, _ = p2
    rows = b_partition(p2_sip)
    a = groupoid.arrow_index("(0,1)")
    result = parallelogram_check(consistency_check(p2_norm, rows), a, a)
    assert result.status == "no_witness"
    assert result.witnesses_checked == 0


def test_p2_survey_no_witness_set_is_exact(p2, p2_sip, p2_norm):
    groupoid, _ = p2
    rows = b_partition(p2_sip)
    survey = parallelogram_survey(consistency_check(p2_norm, rows))
    a = groupoid.arrow_index("(0,1)")
    b = groupoid.arrow_index("(1,0)")
    missing = {pair for pair, res in survey.items() if res.status == "no_witness"}
    assert missing == {(a, a), (a, b), (b, a), (b, b)}
    assert all(res.status in ("holds", "no_witness") for res in survey.values())


def test_survey_matches_bruteforce_on_p5(p5, p5_sip, p5_norm):
    groupoid, _ = p5
    rows = b_partition(p5_sip)
    survey = parallelogram_survey(consistency_check(p5_norm, rows))
    for (g, h), result in survey.items():
        expected = parallelogram_bruteforce(p5_norm, rows, g, h)
        assert (result.status, result.witness, result.witnesses_checked) == expected


def test_parallelogram_requires_consistency(p2, p2_norm):
    single = partition_from_classes(4, [[0, 1, 2, 3]])
    with pytest.raises(NotConsistent):
        parallelogram_check(consistency_check(p2_norm, single), 0, 0)


# --- polarization ------------------------------------------------------------------------


def test_polarize_round_trip_p5(p5, p5_sip, p5_norm):
    groupoid, _ = p5
    rows = b_partition(p5_sip)
    result = polarize(consistency_check(p5_norm, rows))
    assert result.report.ok
    for pair, value in result.bihom.table.items():
        assert value == p5_sip.table[pair]
    assert result.at(groupoid.arrow_index("(0,1)"), groupoid.arrow_index("(0,1)")) == gaussian(1)

    defined = sum(
        1
        for g in groupoid.arrows()
        for h in groupoid.arrows()
        if polarize_value_bruteforce(p5_norm, rows, g, h)
    )
    assert result.defined_pairs == defined
    assert 0 < result.coverage < 1


def test_polarize_coverage_matches_closed_form_count(p5, p5_sip, p5_norm):
    # classes of pair(5) are indexed by the coordinate difference d with
    # 5-|d| arrows each; a pair of classes admits witnesses iff both
    # required index windows are nonempty, so coverage is countable
    # without touching the composition table at all
    def window_nonempty(*offsets):
        return max(0, *offsets) <= min(4, *(4 + o for o in offsets))

    expected = sum(
        (5 - abs(dg)) * (5 - abs(dh))
        for dg in range(-4, 5)
        for dh in range(-4, 5)
        if window_nonempty(dg, dg + dh) and window_nonempty(dg, dh)
    )
    result = polarize(consistency_check(p5_norm, b_partition(p5_sip)))
    assert result.defined_pairs == expected == 485


def test_polarize_vanishes_against_identities(p5, p5_sip, p5_norm):
    groupoid, _ = p5
    rows = b_partition(p5_sip)
    result = polarize(consistency_check(p5_norm, rows))
    for g in groupoid.arrows():
        for p in groupoid.objects():
            assert result.at(g, groupoid.identity_at(p)) == gaussian(0)


def test_polarize_undefined_pair_raises(p5, p5_sip, p5_norm, p2, p2_sip, p2_norm):
    groupoid, _ = p5
    rows = b_partition(p5_sip)
    result = polarize(consistency_check(p5_norm, rows))
    extreme = groupoid.arrow_index("(4,0)")
    with pytest.raises(NoWitness):
        result.at(extreme, extreme)

    gp2, _ = p2
    rows2 = b_partition(p2_sip)
    result2 = polarize(consistency_check(p2_norm, rows2))
    a = gp2.arrow_index("(0,1)")
    with pytest.raises(NoWitness):
        result2.at(a, a)


def test_polarize_round_trip_on_more_real_pairings():
    for n in (3, 4):
        groupoid, homs = pair_groupoid(n)
        bihom = sip_from_thetas(groupoid, [homs["theta"]])
        norm = norm_from_sip(validate_sip(bihom))
        result = polarize(consistency_check(norm, b_partition(bihom)))
        assert result.report.ok
        for pair, value in result.bihom.table.items():
            assert value == bihom.table[pair]


def test_polarize_full_coverage_on_identity_only_groupoid():
    raw = RawGroupoid(
        objects=["p", "q"],
        arrows=[("ep", "p", "p"), ("eq", "q", "q")],
        compose=[("ep", "ep", "ep"), ("eq", "eq", "eq")],
    )
    groupoid = validate_groupoid(raw)
    partition = partition_from_classes(2, [[0, 1]])
    result = polarize(consistency_check(norm_table(groupoid, [0, 0]), partition))
    assert result.coverage == 1
    assert all(v == gaussian(0) for v in result.bihom.table.values())


def test_polarize_witness_disagreement():
    groupoid, _ = pair_groupoid(3)
    partition = partition_from_labels(
        groupoid,
        [
            ["e0", "e1", "e2"],
            ["(0,1)", "(2,1)"],
            ["(1,2)", "(0,2)"],
            ["(1,0)"],
            ["(2,0)"],
        ],
    )
    sq = [0, 0, 0] + [1] * 6
    norm = norm_table(groupoid, sq)
    assert consistency_check(norm, partition).ok
    with pytest.raises(WitnessDisagreement) as err:
        polarize(consistency_check(norm, partition))
    assert err.value.witness == ("(0,1)", "(0,2)")
    assert err.value.values == (Fraction(-1, 4), Fraction(0))
    assert str(err.value).endswith("conflicting values (Fraction(-1, 4), Fraction(0, 1))")


def test_witness_disagreement_lists_at_most_four_values():
    many = WitnessDisagreement("g", "h", tuple(Fraction(k, 4) for k in range(6)))
    assert str(many).endswith(
        "values (Fraction(0, 1), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), ...)"
    )


def test_polarize_result_not_sip(p5, p5_sip):
    # consistent squared values that are not quadratic in the class index:
    # doubling only constrains classes 1, 2 and 4, leaving class 3 free
    groupoid, homs = p5
    theta = homs["theta"]
    rows = b_partition(p5_sip)
    by_value = {0: 0, 1: 1, 2: 4, 3: 100, 4: 16}
    sq = [by_value[abs(theta.value(g)[0])] for g in groupoid.arrows()]
    norm = norm_table(groupoid, sq)
    assert consistency_check(norm, rows).ok
    with pytest.raises(ResultNotSip) as err:
        polarize(consistency_check(norm, rows))
    assert not err.value.report.ok
    assert err.value.report.cauchy_witness is not None


# --- scaling law ----------------------------------------------------------------------------


def test_scale_check_imaginary_on_c4(c4, c4_sip):
    groupoid, _ = c4
    norm = norm_from_sip(validate_sip(c4_sip))
    g = groupoid.arrow_index("((1,0),(0,0))")
    report = scale_check(norm, c4_sip, gaussian(0, 1), g)
    assert report.witness is None
    assert len(report.members) == 2
    assert all(norm.sq[k] == 1 for k in report.members)


def test_scale_check_zero(p5, p5_sip, p5_norm):
    groupoid, _ = p5
    report = scale_check(p5_norm, p5_sip, gaussian(0), groupoid.arrow_index("(0,2)"))
    assert report.witness is None
    assert report.members == tuple(sorted(groupoid.identity))
    assert all(p5_norm.sq[k] == 0 for k in report.members)


def test_scale_check_negation_on_p2(p2, p2_sip, p2_norm):
    groupoid, _ = p2
    a = groupoid.arrow_index("(0,1)")
    b = groupoid.arrow_index("(1,0)")
    report = scale_check(p2_norm, p2_sip, gaussian(-1), a)
    assert report.witness is None
    assert report.members == (b,)
    assert p2_norm.sq[b] == 1


def test_scale_check_flags_mismatch(p2, p2_sip):
    groupoid, _ = p2
    broken = norm_table(groupoid, [0, 0, 1, 4])
    report = scale_check(broken, p2_sip, gaussian(-1), groupoid.arrow_index("(0,1)"))
    assert report.witness is not None
    assert report.witness == groupoid.arrow_index("(1,0)")


# --- class-pair evaluation against the brute-force oracles ------------------------------


def _class_norm_cases(seed: int, count: int):
    """Seeded (norm, partition) pairs on torsion-free corpus groupoids, in
    three kinds by turn:

    - the congruence of a rational potential v, with sq = a v^2 where v > 0
      and b v^2 where v < 0: consistent, since doubling v quadruples sq, and
      the parallelogram identity fails where a != b;
    - classes of non-identity arrows with a common target, identities in a
      class apart, one random value per class: consistent, since no two
      class mates compose, and the witnesses of a class pair may disagree;
    - random partitions with random values, mostly inconsistent.
    """
    rng = random.Random(seed)
    for i in range(count):
        groupoid = random_groupoid(rng, max_objects=5, torsion_free=True, max_arrows=25).groupoid
        arrows = groupoid.arrows()
        if i % 3 == 0:
            pot = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in groupoid.objects()]
            v = [pot[groupoid.source[g]] - pot[groupoid.target[g]] for g in arrows]
            hom = validate_hom(groupoid, [[x] for x in v], SIG_Q)
            a, b = rng.choice((1, 2)), rng.choice((1, 2, 3))
            partition = congruence_from_hom(hom)
            sq = [(a if x > 0 else b) * x * x for x in v]
        elif i % 3 == 1:
            groups: dict = {}
            for g in arrows:
                key = None if groupoid.is_identity(g) else (groupoid.target[g], rng.randrange(2))
                groups.setdefault(key, []).append(g)
            partition = partition_from_classes(groupoid.n_arrows, list(groups.values()))
            level = [rng.randint(1, 3) for _ in partition.classes]
            sq = [0 if groupoid.is_identity(g) else level[partition.class_of[g]] for g in arrows]
        else:
            labels = [rng.randrange(max(1, groupoid.n_arrows // 2)) for _ in arrows]
            groups = {}
            for g in arrows:
                groups.setdefault(labels[g], []).append(g)
            partition = partition_from_classes(groupoid.n_arrows, list(groups.values()))
            sq = [rng.randint(0, 2) for _ in arrows]
        yield norm_table(groupoid, sq), partition


def _consistent(norm, partition) -> bool:
    class_witness, doubling_witness, _ = consistency_bruteforce(norm, partition)
    return class_witness is None and doubling_witness is None


def test_consistency_matches_a_plain_scan():
    seen = {"class": 0, "doubling": 0, "holds": 0, "vacuous": 0}
    for norm, partition in _class_norm_cases(31, 90):
        report = consistency_check(norm, partition)
        class_witness, doubling_witness, pairs = consistency_bruteforce(norm, partition)
        assert (report.class_witness, report.doubling_witness) == (class_witness, doubling_witness)
        assert report.effective_pairs == pairs
        doubling = "fails" if doubling_witness else "holds" if pairs else "vacuous"
        assert report.doubling == doubling
        seen["class"] += class_witness is not None
        seen["doubling" if doubling == "fails" else doubling] += 1
    assert min(seen.values()) > 0, seen


def test_parallelogram_survey_matches_the_oracle_on_random_partitions():
    seen = {"holds": 0, "fails": 0, "no_witness": 0}
    for norm, partition in _class_norm_cases(32, 60):
        if not _consistent(norm, partition):
            with pytest.raises(NotConsistent):
                parallelogram_survey(consistency_check(norm, partition))
            continue
        survey = parallelogram_survey(consistency_check(norm, partition))
        arrows = norm.groupoid.arrows()
        assert list(survey) == [(g, h) for g in arrows for h in arrows]
        for (g, h), result in survey.items():
            expected = parallelogram_bruteforce(norm, partition, g, h)
            assert (result.status, result.witness, result.witnesses_checked) == expected
            seen[result.status] += 1
        g, h = min(survey, key=lambda pair: survey[pair].status != "fails")
        assert parallelogram_check(consistency_check(norm, partition), g, h) == survey[(g, h)]
    assert min(seen.values()) > 0, seen


def test_polarize_matches_the_oracle_on_random_partitions():
    seen = {"disagreement": 0, "sip": 0, "not_sip": 0}
    for norm, partition in _class_norm_cases(33, 60):
        if not _consistent(norm, partition):
            with pytest.raises(NotConsistent):
                polarize(consistency_check(norm, partition))
            continue
        groupoid = norm.groupoid
        values = {
            (g, h): polarize_value_bruteforce(norm, partition, g, h)
            for g in groupoid.arrows()
            for h in groupoid.arrows()
        }
        conflict = next((pair for pair, found in values.items() if len(found) > 1), None)
        if conflict is not None:
            with pytest.raises(WitnessDisagreement) as err:
                polarize(consistency_check(norm, partition))
            assert err.value.witness == tuple(groupoid.arrow_label(g) for g in conflict)
            assert err.value.values == tuple(sorted(values[conflict]))
            seen["disagreement"] += 1
            continue
        try:
            result = polarize(consistency_check(norm, partition))
        except ResultNotSip:
            seen["not_sip"] += 1
            continue
        expected = {pair: gaussian(*found) for pair, found in values.items() if found}
        assert result.bihom.table == expected
        assert list(result.bihom.table) == list(expected)
        seen["sip"] += 1
    assert min(seen.values()) > 0, seen
