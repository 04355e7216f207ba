import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from grpd import norm as norm_module
from grpd.errors import NotConsistent, NotSip, WitnessDisagreement
from grpd.documents import partition_from_doc
from grpd.families import pair_groupoid
from grpd.groupoid import RawGroupoid, validate_groupoid
from grpd.homs import (
    SIG_Q,
    congruence_from_hom,
    validate_hom,
)
from grpd.norm import (
    consistency_check,
    norm_from_sip,
    norm_table,
    polarize,
    validate_norm,
    validate_polarized,
)
from grpd.scalars import gaussian, sqrt_leq
from grpd.sip import b_partition, sip_from_thetas, validate_bihom, validate_sip

from corpus import random_groupoid
from oracles import (
    arrow_pair_survey,
    consistency_bruteforce,
    norm_violations,
    parallelogram_bruteforce,
    partition_from_classes,
    polarize_value_bruteforce,
    polarized_laws_bruteforce,
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
    with pytest.raises(NotSip) as err:
        norm_from_sip(validate_sip(zero_bihom(p2[0])))
    # the first failing law, rendered as sip check renders it
    assert (err.value.law, err.value.witness) == ("positive_definiteness", "(0,1)")
    assert str(err.value).endswith(": positive_definiteness fails at (0,1)")


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
    mid = groupoid.compose(groupoid.inverse_of(g), h)
    assert mid == groupoid.arrow_index("(1,3)")
    assert p5_norm.sq[mid] == 4
    assert validate_norm(p5_norm).reverse_witness is None


def _first_violation(violations: list[str], law: str) -> tuple[int, int] | None:
    """The arrow pair of the first oracle violation of ``law``, or None."""
    first = next((v for v in violations if v.startswith(law + " ")), None)
    return None if first is None else tuple(int(x) for x in first[len(law) + 2 : -1].split(","))


def test_reverse_witness_is_the_first_of_a_plain_scan(family_corpus):
    """The triangle law and inverse invariance imply the reverse bound, so
    validate_norm scans it only when one of them fails. Its witness is the
    first of a plain scan either way: on SIP norms, where every law holds,
    and on planted norms of three kinds by turn: inverse invariant, where
    the triangle law may fail; values in [1, 6], where both may fail; and
    values in [4, 5] on every arrow, where only inverse invariance and
    identity_zero fail and the reverse bound holds. (With sq 0 on the
    identities, the pairs (g, identity) fail the bound with inverse
    invariance.)"""
    seen = Counter()
    for cg, homs in family_corpus[:40]:
        norm = norm_from_sip(validate_sip(sip_from_thetas(cg.groupoid, homs)))
        assert validate_norm(norm).reverse_witness is None
        assert _first_violation(norm_violations(norm), "reverse") is None
        seen["sip"] += 1
    rng = random.Random(2718)
    for i in range(180):
        groupoid = random_groupoid(rng, max_objects=4, max_arrows=30).groupoid
        sq = [0 if groupoid.is_identity(g) else rng.randint(1, 6) for g in groupoid.arrows()]
        if i % 3 == 2:
            sq = [rng.randint(4, 5) for _ in groupoid.arrows()]
        elif i % 3 == 0:
            sq = [max(sq[g], sq[groupoid.inverse_of(g)]) for g in groupoid.arrows()]
        norm = norm_table(groupoid, sq)
        report = validate_norm(norm)
        assert report.reverse_witness == _first_violation(norm_violations(norm), "reverse")
        if (report.triangle_witness, report.inverse_witness) == (None, None):
            seen["laws hold"] += 1
        else:
            seen["reverse fails" if report.reverse_witness else "reverse holds"] += 1
    assert len(seen) == 4 and min(seen.values()) >= 5, seen


def test_triangle_bounds_decided_once_per_value_triple_match_the_oracle(monkeypatch):
    """validate_norm decides each bound once per triple of distinct squared
    values, so on tables drawn from a few repeated values most bounds are
    cache hits. Its triangle and reverse witnesses must still be the first of
    the oracle's plain scans. Values in [1, 4] off the identities pass the
    triangle law; a product raised to 100 fails it, planted on the first
    or the last composable pair of non-identity arrows in scan order, or on
    a random one, and half the tables are made inverse invariant, so the
    reverse scan runs on the triangle failure alone."""
    calls = Counter()

    def counted(a, b, c):
        calls["sqrt_leq"] += 1
        return sqrt_leq(a, b, c)

    monkeypatch.setattr(norm_module, "sqrt_leq", counted)
    rng = random.Random(31415)
    seen = Counter()
    for i in range(120):
        groupoid = random_groupoid(rng, max_objects=5, max_arrows=40).groupoid
        pool = rng.sample([1, 2, 4, Fraction(9, 4), Fraction(5, 2)], rng.randint(1, 3))
        sq = [0 if groupoid.is_identity(g) else rng.choice(pool) for g in groupoid.arrows()]
        planted = [
            gh
            for g, h, gh in groupoid.composable_pairs()
            if not any(map(groupoid.is_identity, (g, h, gh)))
        ]
        if planted and i % 4:
            sq[(planted[0], planted[-1], rng.choice(planted))[i % 4 - 1]] = 100
        if i % 2:
            sq = [max(sq[g], sq[groupoid.inverse_of(g)]) for g in groupoid.arrows()]
        norm = norm_table(groupoid, sq)
        violations = norm_violations(norm)
        calls.clear()
        report = validate_norm(norm)
        assert report.triangle_witness == _first_violation(violations, "triangle")
        assert report.reverse_witness == _first_violation(violations, "reverse")
        assert calls["sqrt_leq"] <= len(set(sq)) ** 3
        pairs = [(g, h) for g, h, _ in groupoid.composable_pairs()]
        if report.triangle_witness:
            late = pairs.index(report.triangle_witness) * 2 > len(pairs)
            seen["triangle fails late" if late else "triangle fails early"] += 1
        else:
            seen["triangle holds"] += 1
        seen["reverse fails" if report.reverse_witness else "reverse holds"] += 1
        seen["bounds"] += len(pairs)
        seen["decided"] += calls["sqrt_leq"]
    assert min(seen.values()) >= 20, seen
    assert seen["decided"] * 4 < seen["bounds"], seen


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
    prod = groupoid.compose(g1, g2)
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
    assert parallelogram_bruteforce(p5_norm, rows, g, g) == ("holds", None, 12)
    # one explicit witness quadruple: products (0,2) and (1,1)
    h1 = groupoid.arrow_index("(1,2)")
    assert p5_norm.sq[groupoid.compose(g, h1)] == 4
    inv_g = groupoid.inverse_of(g)
    assert p5_norm.sq[groupoid.compose(inv_g, g)] == 0


def test_parallelogram_with_identity_class(p5, p5_sip, p5_norm):
    groupoid, _ = p5
    rows = b_partition(p5_sip)
    g, e0 = groupoid.arrow_index("(0,1)"), groupoid.arrow_index("e0")
    assert parallelogram_bruteforce(p5_norm, rows, g, e0)[0] == "holds"


def test_parallelogram_no_witness_on_p2(p2, p2_sip, p2_norm):
    groupoid, _ = p2
    rows = b_partition(p2_sip)
    a = groupoid.arrow_index("(0,1)")
    assert parallelogram_bruteforce(p2_norm, rows, a, a) == ("no_witness", None, 0)


def test_p2_survey_no_witness_set_is_exact(p2, p2_sip, p2_norm):
    groupoid, _ = p2
    rows = b_partition(p2_sip)
    survey = arrow_pair_survey(p2_norm, rows)
    a = groupoid.arrow_index("(0,1)")
    b = groupoid.arrow_index("(1,0)")
    missing = {pair for pair, (status, _, _) in survey.items() if status == "no_witness"}
    assert missing == {(a, a), (a, b), (b, a), (b, b)}
    assert all(status in ("holds", "no_witness") for status, _, _ in survey.values())


# --- polarization ------------------------------------------------------------------------


def test_polarize_round_trip_p5(p5, p5_sip, p5_norm):
    groupoid, _ = p5
    rows = b_partition(p5_sip)
    result = polarize(consistency_check(p5_norm, rows))
    assert validate_polarized(result).ok
    for pair, value in result.bihom.table.items():
        assert value == p5_sip.table[pair]
    a = groupoid.arrow_index("(0,1)")
    assert result.bihom.entry(a, a) == gaussian(1)
    # the extreme arrow's class pair with itself admits no witness
    extreme = groupoid.arrow_index("(4,0)")
    assert (extreme, extreme) not in result.bihom.table

    defined = sum(
        1
        for g in groupoid.arrows()
        for h in groupoid.arrows()
        if polarize_value_bruteforce(p5_norm, rows, g, h)
    )
    assert result.defined_pairs == defined
    assert 0 < result.defined_pairs < result.total_pairs


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
            assert result.bihom.entry(g, groupoid.identity[p]) == gaussian(0)


def test_polarize_undefined_pair_raises(p5, p5_sip, p5_norm, p2, p2_sip, p2_norm):
    groupoid, _ = p5
    rows = b_partition(p5_sip)
    result = polarize(consistency_check(p5_norm, rows))
    extreme = groupoid.arrow_index("(4,0)")
    with pytest.raises(KeyError):
        result.bihom.entry(extreme, extreme)

    gp2, _ = p2
    rows2 = b_partition(p2_sip)
    result2 = polarize(consistency_check(p2_norm, rows2))
    a = gp2.arrow_index("(0,1)")
    with pytest.raises(KeyError):
        result2.bihom.entry(a, a)


def test_polarize_round_trip_on_more_real_pairings():
    for n in (3, 4):
        groupoid, homs = pair_groupoid(n)
        bihom = sip_from_thetas(groupoid, [homs["theta"]])
        norm = norm_from_sip(validate_sip(bihom))
        result = polarize(consistency_check(norm, b_partition(bihom)))
        assert validate_polarized(result).ok
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
    assert result.defined_pairs == result.total_pairs
    assert all(v == gaussian(0) for v in result.bihom.table.values())


def test_polarize_witness_disagreement():
    groupoid, _ = pair_groupoid(3)
    classes = [
        ["e0", "e1", "e2"],
        ["(0,1)", "(2,1)"],
        ["(1,2)", "(0,2)"],
        ["(1,0)"],
        ["(2,0)"],
    ]
    partition = partition_from_doc(groupoid, {"classes": classes})
    sq = [0, 0, 0] + [1] * 6
    norm = norm_table(groupoid, sq)
    assert consistency_check(norm, partition).ok
    with pytest.raises(WitnessDisagreement) as err:
        polarize(consistency_check(norm, partition))
    assert err.value.witness == ("(0,1)", "(0,2)")
    assert err.value.values == (Fraction(-1, 4), Fraction(0))
    assert str(err.value).endswith("conflicting values (-1/4, 0)")


def test_witness_disagreement_lists_at_most_four_values():
    many = WitnessDisagreement("g", "h", tuple(Fraction(k, 4) for k in range(6)))
    assert str(many).endswith("values (0, 1/4, 1/2, 3/4, ...)")


def test_polarize_result_not_sip(p5, p5_sip):
    # consistent squared values that are not quadratic in the class index:
    # doubling only constrains classes 1, 2 and 4, leaving class 3 free
    groupoid, homs = p5
    theta = homs["theta"]
    rows = b_partition(p5_sip)
    by_value = {0: 0, 1: 1, 2: 4, 3: 100, 4: 16}
    sq = [by_value[abs(theta.values[g][0])] for g in groupoid.arrows()]
    norm = norm_table(groupoid, sq)
    assert consistency_check(norm, rows).ok
    report = validate_polarized(polarize(consistency_check(norm, rows)))
    assert not report.ok
    assert report.cauchy_witness is not None


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
            values = {groupoid.arrow_label(g): [x] for g, x in zip(arrows, v)}
            hom = validate_hom(groupoid, values, SIG_Q)
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


def _odd_part_norm_cases(seed: int, count: int):
    """Seeded (norm, partition) pairs on pair groupoids of 3 to 5 objects:
    the level sets of a potential v, with sq = v^2 * w(odd part of |v|).
    Doubling v keeps its odd part, so the norm is consistent and the
    witnesses of each class pair agree; where w is not constant the
    polarized pairing is not additive, and its first failing k need not be
    arrow 0 or alone in its class."""
    rng = random.Random(seed)
    for _ in range(count):
        groupoid, _ = pair_groupoid(rng.randint(3, 5))
        pot = rng.sample(range(7), groupoid.n_objects)
        weight = {m: Fraction(rng.randint(1, 3), rng.randint(1, 2)) for m in range(1, 7, 2)}
        v = [pot[groupoid.source[g]] - pot[groupoid.target[g]] for g in groupoid.arrows()]
        odd = [abs(x) // (abs(x) & -abs(x)) if x else 0 for x in v]
        sq = [x * x * weight[m] if x else 0 for x, m in zip(v, odd)]
        levels: dict = {}
        for g in groupoid.arrows():
            levels.setdefault(v[g], []).append(g)
        yield norm_table(groupoid, sq), partition_from_classes(groupoid.n_arrows, list(levels.values()))


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


def _polarized_witnesses(report) -> tuple:
    return report.symmetry_witness, report.cauchy_witness, report.additivity_witness


def test_polarize_matches_the_oracle_on_random_partitions():
    seen = {"disagreement": 0, "sip": 0, "not_sip": 0, "late_additivity_witness": 0}
    failed = dict.fromkeys(("symmetry", "cauchy", "additivity"), 0)
    for norm, partition in itertools.chain(_class_norm_cases(33, 60), _odd_part_norm_cases(34, 20)):
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
        expected = {pair: gaussian(*found) for pair, found in values.items() if found}
        result = polarize(consistency_check(norm, partition))
        report = validate_polarized(result)
        # the laws are checked per class pair: no arrow-pair table is built
        assert "table" not in vars(result.bihom)
        assert list(result.bihom.table.items()) == list(expected.items())
        assert result.defined_pairs == len(expected)
        seen["sip" if report.ok else "not_sip"] += 1
        # the class-pair scans name the witnesses of a plain scan of every
        # defined arrow pair; the additivity scan visits one arrow per class
        # of k, the plain scan every arrow
        witnesses = _polarized_witnesses(report)
        symmetry, diagonal, cauchy, additivity = polarized_laws_bruteforce(
            groupoid, norm.sq, expected
        )
        assert witnesses == (symmetry, cauchy, additivity)
        for law, witness in zip(failed, witnesses):
            failed[law] += witness is not None
        # the diagonal law follows from consistency: doubling at an identity e
        # gives sq(e) = 4 sq(e) = 0, so the seconds (g, g, e) of a class pair
        # (a, a) make its value sq(g), and validate_polarized does not check it
        assert diagonal is None
        witness = report.additivity_witness
        if witness is not None and witness[2] != 0 and len(partition.members(witness[2])) > 1:
            seen["late_additivity_witness"] += 1
    assert min(seen.values()) > 0, seen
    assert min(failed.values()) > 0, failed


@pytest.mark.parametrize(
    "case, witness, values",
    [
        (4, ("0>2:0", "1>0:0"), (Fraction(-1, 2), Fraction(0))),
        (10, ("0>4:0", "0>0:0"), (Fraction(-1, 4), Fraction(1, 4))),
    ],
)
def test_polarize_witness_disagreement_on_random_partitions_is_pinned(case, witness, values):
    # the error names the first arrow pair, in lexicographic order, whose
    # class pair has disagreeing witnesses, with their sorted values
    norm, partition = next(itertools.islice(_class_norm_cases(33, 60), case, None))
    with pytest.raises(WitnessDisagreement) as err:
        polarize(consistency_check(norm, partition))
    assert (err.value.witness, err.value.values) == (witness, values)
