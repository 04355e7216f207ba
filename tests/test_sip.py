import random
import time
from collections import Counter
from contextlib import nullcontext
from fractions import Fraction
from itertools import compress, product
from math import isqrt

import pytest

from grpd import sip
from grpd.documents import NOT_APPLICABLE, bihom_from_doc
from grpd.errors import (
    MixedGroupoids,
    NotBihom,
    NotScalarTarget,
    NotSeparating,
    ScalarSetNotSingleton,
)
from grpd.families import complex_pair, cyclic_group_table, group_groupoid, pair_groupoid
from grpd.groupoid import RawGroupoid, validate_groupoid
from grpd.homs import (
    SIG_Q,
    SIG_QI,
    SIG_Z,
    congruence_from_hom,
    congruence_profile,
    partition_by,
    product_hom,
    validate_affine_congruence,
    validate_hom,
)
from grpd.scalars import GaussianRational, abs_sq, conj, format_gaussian, gaussian, inner
from grpd.sip import (
    COMPLEX,
    REAL,
    Bihom,
    _field_tag,
    _gram_field_tag,
    _scalar_values,
    b_partition,
    b_relate,
    has_unit_values,
    scalar_set,
    sip_from_thetas,
    theta_vectors,
    validate_bihom,
    validate_sip,
)

from corpus import potential_theta, random_groupoid, raw_groupoid, scaled_theta, zero_theta
from oracles import (
    b_relate_bruteforce,
    bihom_additivity_bruteforce,
    column_scalar_set_bruteforce,
    profile_bruteforce,
    scalar_set_bruteforce,
    sip_conditions_bruteforce,
    transitive_props_bruteforce,
)


def zero_bihom(groupoid):
    table = {
        (g, h): gaussian(0) for g in groupoid.arrows() for h in groupoid.arrows()
    }
    return validate_bihom(groupoid, table)


EXPLICIT_SCALARS = [
    gaussian(*z) for z in ((0, 0), (1, 0), (-1, 0), (0, 1), (2, 0), (1, 1), ("1/2", 0))
]


@pytest.fixture(scope="module")
def explicit_bihoms():
    """Tables sum_i theta_i(g) * conj(psi_i(h)) for two different families of
    potential thetas on corpus groupoids. They are bihomomorphisms, most of
    them not conjugate symmetric. Potentials from a small set make objects
    share them, so the tables hold zero, negated and scaled rows."""
    rng = random.Random(4242)
    potentials = [gaussian(*z) for z in ((0, 0), (1, 0), (0, 1), (2, 0))]
    out = []
    for i in range(16):
        cg = random_groupoid(rng, max_objects=4, torsion_free=True, max_arrows=10)
        while max(map(len, cg.members)) < 3:
            cg = random_groupoid(rng, max_objects=4, torsion_free=True, max_arrows=10)
        groupoid, arrows = cg.groupoid, cg.groupoid.arrows()
        # one theta per family gives rank-1 tables, rich in scalar multiples;
        # two give rows whose first nonzero entries sit apart
        thetas, psis = (
            [
                potential_theta(cg, [rng.choice(potentials) for _ in groupoid.objects()]).values
                for _ in range(1 + i % 2)
            ]
            for _ in range(2)
        )
        table = {
            (g, h): sum((t[g][0] * conj(p[h][0]) for t, p in zip(thetas, psis)), gaussian(0))
            for g in arrows
            for h in arrows
        }
        out.append(validate_bihom(groupoid, table))
    return out


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
        sip_from_thetas(groupoid, [zero_theta(groupoid, SIG_QI)])
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
    assert err.value.witness == ("e0", "e0")
    assert str(err.value) == "missing entry for the pair ('e0', 'e0')"


def test_zero_table_is_a_bihom_but_not_a_sip(p2):
    groupoid, _ = p2
    bihom = zero_bihom(groupoid)
    report = validate_sip(bihom)
    assert report.definiteness_witness is not None
    assert report.definiteness_witness == groupoid.arrow_index("(0,1)")
    assert report.symmetry_witness is None and report.cauchy_witness is None
    assert not report.is_sip


def _verdict(check, groupoid, table):
    """The slot, witness and message of the NotBihom that ``check`` raises,
    or the table of the pairing it returns."""
    try:
        return check(groupoid, table).table
    except NotBihom as err:
        return (err.slot, *err.witness, str(err))


def _bihom_verdicts(groupoid, table):
    """validate_bihom's slot and witness next to the ordered oracle's, both by
    label, or None for a table that passes; a passing table comes back
    entry for entry. Written as a document, the table meets the same
    verdict in the reader, which takes its bulk path when the table is total."""
    found = _verdict(validate_bihom, groupoid, table)
    label = groupoid.arrow_label
    doc = {
        "table": {
            label(g): {label(h): format_gaussian(table[g, h]) for h in groupoid.arrows() if (g, h) in table}
            for g in groupoid.arrows()
        }
    }
    assert _verdict(bihom_from_doc, groupoid, doc) == found
    if isinstance(found, dict):
        assert found == table
        found = None
    else:
        found = found[:-1]
    expected = bihom_additivity_bruteforce(groupoid, table)
    if expected is not None:
        expected = (expected[0], *map(groupoid.arrow_label, expected[1:]))
    return found, expected


def _failing_laws(table, g, h, gh) -> set:
    """The slots and k at which the composable (g, h, gh) fails additivity."""
    ks = {k for _, k in table}
    first = {("first", k) for k in ks if table[gh, k] != table[g, k] + table[h, k]}
    return first | {("second", k) for k in ks if table[k, gh] != table[k, g] + table[k, h]}


def _two_plant_tables(rng):
    """Theta tables with two entries changed, in different rows and columns,
    each with whether the first deciding pair that fails does so only at
    slots and k where the witness pair passes."""
    for groupoid, homs in (pair_groupoid(4), pair_groupoid(5), complex_pair(2)):
        base = sip_from_thetas(groupoid, [homs["theta"]]).table
        for _ in range(40):
            (g1, g2), (h1, h2) = rng.sample(groupoid.arrows(), 2), rng.sample(groupoid.arrows(), 2)
            table = dict(base)
            table[g1, h1] += rng.choice(PLANT_SCALARS)
            table[g2, h2] += rng.choice(PLANT_SCALARS)
            first = next(groupoid.failing_deciding_pairs(lambda *t: bool(_failing_laws(table, *t))))
            _, g, h, _ = bihom_additivity_bruteforce(groupoid, table)
            apart = not _failing_laws(table, *first) & _failing_laws(table, g, h, groupoid.compose(g, h))
            yield groupoid, table, apart


PLANT_SCALARS = [gaussian(*z) for z in ((1, 0), (0, 1), ("1/3", "2/5"), (-2, "1/7"))]


def _one_arm_tables():
    """Tables that one arm alone of ``FiniteGroupoid.first_failing_pair``
    catches, each with the witness the ordered oracle names. On the one-arrow
    group, with no generators, T(e, e) = 1 fails only at (e, e, e). On Z/n,
    whose only generator is 1, the zero table with row 1, or column 1, set to
    2 off the identity's column, or row, keeps T(0, .) = T(., 0) = 0, so the
    identity arm passes and only the generator arm fails."""
    trivial, _ = group_groupoid([[0]], ["e"])
    assert trivial.generators == ()
    yield trivial, {(0, 0): gaussian(1)}, ("first", "e", "e", "e")
    for n in (3, 5):
        groupoid, _ = group_groupoid(cyclic_group_table(n), [str(i) for i in range(n)])
        assert groupoid.identity == (0,) and groupoid.generators == (1,)
        zero = dict.fromkeys(product(groupoid.arrows(), repeat=2), gaussian(0))
        for plant in ((1, k) for k in range(1, n)), ((k, 1) for k in range(1, n)):
            yield groupoid, {**zero, **dict.fromkeys(plant, gaussian(2))}, ("first", "1", "1", "1")


def test_bihom_witnesses_match_the_ordered_oracle(family_corpus):
    """Theta tables of the family corpus, complex with small denominators,
    with f nonzero at up to three arrows planted as f(g) * conj(chi(h)),
    which can break only the first slot, as psi(g) * conj(f(h)), which can
    break only the second, as both, and as both with entries deleted; psi
    is a theta of the family and chi a potential theta over few values, so
    it vanishes more often. validate_bihom names the oracle's slot and
    witness on each. Under both plants, the two slots fail on the same first
    pair, at the first k where chi, or psi, is nonzero, so some tables fail
    the second slot at a smaller k than the first, which is still named. The
    tables that one arm alone of the generator check catches come next, and
    last theta tables with two entries changed, on some of which the first
    deciding pair fails only where the witness pair passes, so the witness
    scan must read the positions of every failing deciding pair."""
    rng = random.Random(2020)
    potentials = [gaussian(*z) for z in ((0, 0), (1, 0), (0, 1), (2, 0))]
    seen = Counter()
    for cg, homs in family_corpus[:60]:
        groupoid = cg.groupoid
        arrows = list(groupoid.arrows())
        base = sip_from_thetas(groupoid, homs).table
        psi = [v for (v,) in homs[0].values]
        chi = potential_theta(cg, [rng.choice(potentials) for _ in groupoid.objects()]).values
        chi = [v for (v,) in chi]
        for plant in ("first", "second", "both", "missing"):
            table = dict(base)
            f = dict.fromkeys(rng.sample(arrows, min(len(arrows), 3)), rng.choice(PLANT_SCALARS))
            for g, h in base:
                if plant != "second" and g in f:
                    table[g, h] += f[g] * conj(chi[h])
                if plant != "first" and h in f:
                    table[g, h] += psi[g] * conj(f[h])
            if plant == "missing":
                for pair in rng.sample(list(table), min(len(table), 3)):
                    del table[pair]
            found, expected = _bihom_verdicts(groupoid, table)
            assert found == expected
            slot = None if found is None else found[0]
            assert slot in (None, plant) or plant in ("both", "missing")
            seen[plant, slot] += 1
            if plant == "both" and slot == "first":
                k1, k2 = (next((k for k, v in enumerate(w) if not v.is_zero()), -1) for w in (chi, psi))
                seen["smaller second k"] += 0 <= k2 < k1
    for groupoid, table, witness in _one_arm_tables():
        assert _bihom_verdicts(groupoid, table) == (witness, witness)
        seen["one arm"] += 1
    for groupoid, table, apart in _two_plant_tables(rng):
        found, expected = _bihom_verdicts(groupoid, table)
        assert found == expected
        seen["two plants, apart"] += apart
    assert seen == {
        ("first", "first"): 45,
        ("first", None): 15,
        ("second", "second"): 50,
        ("second", None): 10,
        ("both", "first"): 45,
        ("both", "second"): 5,
        ("both", None): 10,
        ("missing", "missing"): 60,
        "smaller second k": 8,
        "one arm": 5,
        "two plants, apart": 12,
    }


def test_the_first_slot_is_named_before_a_smaller_second_slot_k(p3):
    """Both slots fail on the first composable pair (p, p), the second at a
    smaller k than the first: every k of the first slot comes first."""
    groupoid, family = p3
    table = dict(sip_from_thetas(groupoid, [family["theta"]]).table)
    p, k2, k1 = 0, 1, 2
    assert next(groupoid.composable_pairs()) == (p, p, p)
    table[p, k1] += gaussian(1)
    table[k2, p] += gaussian(0, 1)
    found, expected = _bihom_verdicts(groupoid, table)
    assert found == expected == ("first", "e0", "e0", "e2")


def test_passing_family_tables_come_back_whole():
    """Real and complex theta pairings of the families pass and are kept
    entry for entry."""
    families = [pair_groupoid(n) for n in (1, 2, 4)] + [complex_pair(n) for n in (1, 2)]
    for groupoid, family in families:
        pairing = sip_from_thetas(groupoid, [family["theta"]])
        assert validate_bihom(groupoid, dict(pairing.table)).table == pairing.table
        assert bihom_additivity_bruteforce(groupoid, pairing.table) is None


def _probable_primes(rng, count, digits):
    """The first ``count`` numbers from a random start of ``digits`` digits
    that pass a base-2 Fermat test; a sieve of the primes below 2**15 leaves
    few candidates to test."""
    limit = 2**15
    small = bytearray([1]) * limit
    for q in range(2, isqrt(limit) + 1):
        small[q * q :: q] = bytes(len(range(q * q, limit, q)))
    small = list(compress(range(2, limit), small[2:]))
    out = []
    start = rng.randrange(10 ** (digits - 1), 10**digits)
    while len(out) < count:
        span = 200 * count
        sieve = bytearray([1]) * span
        for q in small:
            sieve[-start % q :: q] = bytes(len(range(-start % q, span, q)))
        candidates = map(start.__add__, compress(range(span), sieve))
        out += [c for c in candidates if pow(2, c - 1, c) == 1]
        start += span
    return out[:count]


def test_prime_denominators_on_pair5_stay_within_budget():
    """Pair 5 has 625 entries. Entries over 625 distinct 60-digit primes fail
    at once; a bihom built from potentials, sum over objects a, b of
    B(a, b) * v_a(g) * v_b(h) with v(g) = e_source - e_target and each B(a, b)
    over its own 60-digit prime, passes with a full scan, and with its last
    entry moved fails at the last k. Each verdict is the oracle's, and each check
    runs well inside its budget though a common denominator of all entries
    would have thousands of digits."""
    rng = random.Random(5)
    groupoid, _ = pair_groupoid(5)
    arrows, src, dst = groupoid.arrows(), groupoid.source, groupoid.target
    primes = iter(_probable_primes(rng, 625 + 25, 60))

    def value():
        p = next(primes)
        return gaussian(Fraction(rng.randrange(1, p), p), Fraction(rng.randrange(p), p))

    hostile = {(g, h): value() for g in arrows for h in arrows}
    b = [[value() for _ in range(5)] for _ in range(5)]
    bihom = {
        (g, h): b[src[g]][src[h]] - b[src[g]][dst[h]] - b[dst[g]][src[h]] + b[dst[g]][dst[h]]
        for g in arrows
        for h in arrows
    }
    late = dict(bihom)
    late[arrows[-1], arrows[-1]] += gaussian(1)
    verdicts = []
    for table in (hostile, bihom, late):
        start = time.perf_counter()
        with pytest.raises(NotBihom) if table is not bihom else nullcontext():
            validate_bihom(groupoid, table)
        assert time.perf_counter() - start < 0.5
        found, expected = _bihom_verdicts(groupoid, table)
        assert found == expected
        verdicts.append(expected)
    assert verdicts == [
        ("first", "e0", "e0", "e0"),
        None,
        ("first", "(0,4)", "(4,3)", "(4,3)"),
    ]


# --- semi-inner-product conditions -------------------------------------------------------


def test_sip_reports_on_fixtures(p2_sip, p5_sip, c4_sip):
    for bihom in (p2_sip, p5_sip, c4_sip):
        report = validate_sip(bihom)
        assert report.is_sip
        assert sip_conditions_bruteforce(bihom) == (None, None, None)


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


def _planted_class_pairings(rng, count):
    """Pairings constant on the class pairs of a random class map, classes
    numbered by their least member. The blocks start as the inner products
    of one small vector per class, a semi-inner product, and then, each with
    probability 1/2, one block loses conjugate symmetry, one diagonal block
    becomes real and not positive, and one mirrored pair of blocks grows
    past the Cauchy-Schwarz bound while staying symmetric."""
    small = [gaussian(x, y) for x in (-1, 0, 1, 2) for y in (-1, 0, 1)]
    out = []
    for _ in range(count):
        cg = random_groupoid(rng, max_objects=4, max_arrows=16)
        groupoid = cg.groupoid
        size = rng.randint(1, min(groupoid.n_arrows, 5))
        number = {}
        class_of = [number.setdefault(rng.randrange(size), len(number)) for _ in groupoid.arrows()]
        vectors = [(rng.choice(small), rng.choice(small)) for _ in number]
        blocks = {
            (a, b): u[0] * conj(v[0]) + u[1] * conj(v[1])
            for a, u in enumerate(vectors)
            for b, v in enumerate(vectors)
        }
        classes = range(len(number))
        if rng.random() < 0.5:
            pair = (rng.choice(classes), rng.choice(classes))
            blocks[pair] = blocks[pair] + gaussian(0, 1)
        if rng.random() < 0.5:
            c = rng.choice(classes)
            blocks[c, c] = gaussian(-rng.randint(0, 2))
        if rng.random() < 0.5:
            a, b = rng.choice(classes), rng.choice(classes)
            blocks[a, b] = blocks[a, b] + gaussian(3)
            blocks[b, a] = conj(blocks[a, b])
        out.append((class_of, Bihom(groupoid, partition_by(class_of), blocks, COMPLEX)))
    return out


def test_sip_witnesses_match_the_oracle_on_class_pairings(
    explicit_bihoms, p2_sip, p5_sip, c4_sip, family_corpus
):
    """Each first witness of validate_sip is the one a scan over every arrow
    (pair) names: on pairings constant on the class pairs of random class
    maps, with laws broken at random blocks, on the explicit tables and on
    theta pairings. Most planted witnesses sit on a class with more than one
    member, so the least member of a class must be the one named."""
    planted = _planted_class_pairings(random.Random(1919), 150)
    thetas = [sip_from_thetas(cg.groupoid, homs) for cg, homs in family_corpus[:20]]
    shared = Counter()
    for bihom in [b for _, b in planted] + explicit_bihoms + [p2_sip, p5_sip, c4_sip] + thetas:
        report = validate_sip(bihom)
        witnesses = (report.symmetry_witness, report.definiteness_witness, report.cauchy_witness)
        assert witnesses == sip_conditions_bruteforce(bihom)
    for class_of, bihom in planted:
        report = validate_sip(bihom)
        sizes = Counter(class_of)
        definite = report.definiteness_witness
        laws = (
            ("symmetry", report.symmetry_witness),
            ("definiteness", None if definite is None else (definite,)),
            ("cauchy", report.cauchy_witness),
        )
        for law, witness in laws:
            if witness is not None and any(sizes[class_of[g]] > 1 for g in witness):
                shared[law] += 1
    assert shared == {"symmetry": 42, "definiteness": 43, "cauchy": 71}


def test_symmetry_witness_is_the_first_of_a_plain_scan(explicit_bihoms):
    """validate_sip scans only the pairs (g, h) with g <= h; symmetry fails at
    (g, h) exactly when it fails at (h, g), so the first failing pair of a
    scan over every pair in lexicographic order is the same. The explicit
    tables and tables with one planted entry on pair 3 show it."""
    rng = random.Random(77)
    groupoid, family = pair_groupoid(3)
    base = sip_from_thetas(groupoid, [family["theta"]]).table
    planted = []
    for _ in range(60):
        table = dict(base)
        table[rng.choice(list(table))] = gaussian(rng.randint(-2, 2), rng.randint(-2, 2))
        planted.append(Bihom(groupoid, partition_by(groupoid.arrows()), table, COMPLEX))
    failing = 0
    for bihom in explicit_bihoms + planted:
        arrows, table = bihom.groupoid.arrows(), bihom.table
        expected = next(
            ((g, h) for g in arrows for h in arrows if table[g, h] != conj(table[h, g])), None
        )
        assert validate_sip(bihom).symmetry_witness == expected
        failing += expected is not None
    assert failing == 11 + 56


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


def test_b_relate_matches_bruteforce(p2_sip, p5_sip, c4_sip, explicit_bihoms):
    """Every arrow pair of three SIPs, a zero table and the explicit tables,
    which hold zero rows and equal and negated nonzero rows."""
    seen = set()
    for bihom in (p2_sip, p5_sip, c4_sip, zero_bihom(p2_sip.groupoid), *explicit_bihoms):
        arrows = bihom.groupoid.arrows()
        for g1 in arrows:
            for g2 in arrows:
                rel = b_relate(bihom, g1, g2)
                expected = b_relate_bruteforce(bihom, g1, g2)
                assert (rel.congruent, rel.opposite, rel.orthogonal) == expected
                if rel.congruent and rel.opposite:
                    seen.add("zero rows")
                elif g1 != g2 and (rel.congruent or rel.opposite):
                    seen.add("equal rows" if rel.congruent else "negated rows")
    assert seen == {"zero rows", "equal rows", "negated rows"}


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
    assert has_unit_values(p2_sip.vectors)


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
    assert [h for h in rows.members(extreme) if groupoid.source[h] == 0] == []


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
        groupoid.arrow_label(g): [2 * homs["theta"].values[g][0]]
        for g in groupoid.arrows()
    }
    bihom = sip_from_thetas(groupoid, [validate_hom(groupoid, doubled, SIG_Z)])
    assert not has_unit_values(bihom.vectors)


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


def _pairing_families(family_corpus):
    """Theta families for the pairing tests: the corpus (one to three thetas
    each), complex_pair with its canonical theta and with its two coordinate
    thetas, and the linearly dependent bundles (theta, i theta) and
    (theta, 2 theta), whose value vectors span less than their length."""
    cases = [(cg.groupoid, homs) for cg, homs in family_corpus]
    for groupoid, homs in (complex_pair(2), complex_pair(3)):
        theta = homs["theta"]
        cases.append((groupoid, [theta]))
        cases.append((groupoid, [homs["theta1"], homs["theta2"]]))
        cases.append((groupoid, [theta, scaled_theta(theta, gaussian(0, 1))]))
    for n in (3, 5):
        groupoid, homs = pair_groupoid(n)
        cases.append((groupoid, [homs["theta"], scaled_theta(homs["theta"], gaussian(2))]))
    return cases


def test_pairing_entries_are_the_plain_sums(family_corpus):
    for groupoid, homs in _pairing_families(family_corpus):
        bihom = sip_from_thetas(groupoid, homs)
        arrows = groupoid.arrows()
        vectors = [[gaussian(0) + hom.values[g][0] for hom in homs] for g in arrows]
        expected = {}
        for g in arrows:
            for h in arrows:
                total = gaussian(0)
                for x, y in zip(vectors[g], vectors[h]):
                    total = total + x * conj(y)
                expected[(g, h)] = total
        assert list(bihom.table.items()) == list(expected.items())
        real = all(z.im == 0 for z in expected.values())
        assert bihom.field_tag == (REAL if real else COMPLEX)


def _scalar_theta(groupoid, potentials, sig):
    """The homomorphism g -> potentials[source g] - potentials[target g]."""
    values = {
        groupoid.arrow_label(g): [potentials[groupoid.source[g]] - potentials[groupoid.target[g]]]
        for g in groupoid.arrows()
    }
    return validate_hom(groupoid, values, sig)


def test_scalar_values_equal_the_parsed_gaussian_rationals():
    # Z and Q values are read straight into reduced triples; they must equal
    # the values gaussian() gives, as must the QI values passed through
    groupoid, _ = pair_groupoid(4)
    potentials = (
        (SIG_Z, [0, 7, -(3**40), 12]),
        (SIG_Q, [Fraction(0), Fraction(-5, 6), Fraction(10**30, 7), Fraction(3, 4)]),
        (SIG_QI, [gaussian(0), gaussian("1/2", -3), gaussian(4, "7/9"), gaussian(-2)]),
    )
    for sig, pots in potentials:
        hom = _scalar_theta(groupoid, pots, sig)
        old = [v if isinstance(v, GaussianRational) else gaussian(v) for (v,) in hom.values]
        new = _scalar_values(hom)
        assert all(type(z) is GaussianRational for z in new)
        assert [(z.num_re, z.num_im, z.den) for z in new] == [(z.num_re, z.num_im, z.den) for z in old]


def _field_tag_families(rng):
    """Theta families whose pairing is real or complex: real thetas, complex
    ones, real thetas scaled by i or 1 + i, whose values are complex while
    their pairing is real, and real mixed with complex, on random
    torsion-free groupoids, half of them with their arrows listed in a
    shuffled order, so the generators are other arrows; then the zero theta
    on a groupoid whose only arrows are identities."""
    i = gaussian(0, 1)
    for k in range(60):
        cg = random_groupoid(rng, max_objects=6, torsion_free=True)
        groupoid, n = cg.groupoid, cg.groupoid.n_objects

        def theta(imaginary):
            draws = [[Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in "ri"] for _ in range(n)]
            return potential_theta(cg, [gaussian(re, im if imaginary else 0) for re, im in draws])

        # potentials 0..n-1 separate every pair of objects
        distinct = _scalar_theta(groupoid, list(range(n)), (SIG_Z, SIG_Q)[k % 2])
        real, complex_ = theta(False), theta(True)
        families = [
            [distinct],
            [distinct, real],
            [distinct, complex_],
            [scaled_theta(distinct, i)],
            [scaled_theta(distinct, i), scaled_theta(real, gaussian(1, 1))],
            [distinct, scaled_theta(real, i)],
            [scaled_theta(distinct, i), complex_],
        ]
        if k % 2:
            raw = raw_groupoid(groupoid)
            rng.shuffle(raw.arrows)
            shuffled = validate_groupoid(raw)
            families = [
                [
                    validate_hom(shuffled, dict(zip(groupoid.arrow_labels, hom.values)), hom.target)
                    for hom in homs
                ]
                for homs in families
            ]
            groupoid = shuffled
        for homs in families:
            yield groupoid, homs
    raw = RawGroupoid(
        objects=["p", "q"],
        arrows=[("ep", "p", "p"), ("eq", "q", "q")],
        compose=[("ep", "ep", "ep"), ("eq", "eq", "eq")],
    )
    identities = validate_groupoid(raw)
    yield identities, [zero_theta(identities, SIG_QI)]
    yield identities, [zero_theta(identities), zero_theta(identities, SIG_Q)]


def test_the_generator_pair_field_tag_is_the_tag_of_every_block(family_corpus, monkeypatch):
    """The field tag read on generator pairs equals the tag of all blocks of
    the pairing, on the pairing families and the planted ones; some of them
    have complex values and a real pairing, and one has no generators. Real
    value vectors are decided with no inner product; complex ones, whatever
    the tag, by inner products of generator vectors."""
    cases = _pairing_families(family_corpus) + list(_field_tag_families(random.Random(2718)))
    calls = Counter()

    def counted(u, w):
        calls["inner"] += 1
        return inner(u, w)

    monkeypatch.setattr(sip, "inner", counted)
    seen = Counter()
    for groupoid, homs in cases:
        bihom = sip_from_thetas(groupoid, homs)
        tag = _field_tag(bihom.blocks.values())
        vectors = theta_vectors(groupoid, homs)
        calls.clear()
        assert _gram_field_tag(groupoid, vectors) == tag
        assert bihom.field_tag == tag
        values_complex = any(x.num_im for vector in bihom.vectors for x in vector)
        seen[tag, values_complex, bool(groupoid.generators), bool(calls)] += 1
    assert set(seen) == {
        (REAL, False, True, False),
        (REAL, True, True, True),
        (COMPLEX, True, True, True),
        (REAL, False, False, False),
    }, seen


def test_the_value_vector_index_matches_the_row_index(family_corpus):
    """Rows g and h of a theta pairing satisfy row g = c * row h exactly when
    the value vectors do (the lemma of ``Bihom.rows``); a copy of the table
    without its vectors compares its rows themselves and must agree, and so must
    the brute-force scans, run on the tables of at most 16 arrows."""
    sample = (gaussian(0), gaussian(1), gaussian(-1), gaussian(0, 1), gaussian(2))
    seen = set()
    for groupoid, homs in _pairing_families(family_corpus):
        bihom = sip_from_thetas(groupoid, homs)
        rows = Bihom(groupoid, partition_by(groupoid.arrows()), dict(bihom.table), bihom.field_tag)
        assert bihom.vectors is not None and rows.vectors is None
        assert b_partition(bihom) == b_partition(rows)
        arrows, small = groupoid.arrows(), groupoid.n_arrows <= 16
        for c in sample:
            for g in arrows:
                members = scalar_set(bihom, c, g)
                assert members == scalar_set(rows, c, g)
                assert not small or members == scalar_set_bruteforce(bihom, c, g)
                if members and g not in members:
                    seen.add(c)
        for g1 in arrows:
            for g2 in arrows:
                relation = b_relate(bihom, g1, g2)
                assert relation == b_relate(rows, g1, g2)
                if small:
                    expected = b_relate_bruteforce(bihom, g1, g2)
                    assert (relation.congruent, relation.opposite, relation.orthogonal) == expected
    assert seen == set(sample) - {gaussian(1)}


# --- scalar sets --------------------------------------------------------------------------


def test_scalar_set_matches_bruteforce(p2_sip, p5_sip, c4_sip):
    scalars = (gaussian(0), gaussian(1), gaussian(-1), gaussian(0, 1), gaussian(2))
    for bihom in (p2_sip, p5_sip, c4_sip):
        for c in scalars:
            for g in bihom.groupoid.arrows():
                assert scalar_set(bihom, c, g) == scalar_set_bruteforce(bihom, c, g)


def _first_nonzero(vector) -> int | None:
    return next((i for i, v in enumerate(vector) if not v.is_zero()), None)


def test_scalar_sets_of_explicit_tables_match_bruteforce(explicit_bihoms):
    """Scalar sets of the explicit tables; they hold every case the row
    comparison has to tell apart (rows that are multiples of others, zero
    rows, rows whose first nonzero entries sit apart, complex and asymmetric
    tables), and the last assertion shows that they do."""
    seen = set()
    for bihom in explicit_bihoms:
        groupoid, arrows = bihom.groupoid, bihom.groupoid.arrows()
        for c in EXPLICIT_SCALARS:
            for g in arrows:
                rows = scalar_set(bihom, c, g)
                assert rows == scalar_set_bruteforce(bihom, c, g)
                if c in EXPLICIT_SCALARS[3:] and rows and g not in rows:
                    seen.add("row multiple")
        leads = [_first_nonzero([bihom.entry(g, h) for h in arrows]) for g in arrows]
        if any(lead is None and not groupoid.is_identity(g) for g, lead in enumerate(leads)):
            seen.add("zero row")
        if len(set(leads) - {None}) > 1:
            seen.add("row leads apart")
        if bihom.field_tag == COMPLEX:
            seen.add("complex")
        if validate_sip(bihom).symmetry_witness is not None:
            seen.add("asymmetric")
    assert seen == {"row multiple", "zero row", "row leads apart", "complex", "asymmetric"}


def _scalar_set_laws(bihom, scalars) -> Counter:
    """How often each scalar-set law holds and breaks, keyed (law, held),
    over every (c, h) with c in ``scalars``; scalar sets are found by brute
    force, and sq is the diagonal.

    - conjugate_scalar: the row scalar set of (c, h) lies in the column
      scalar set of (conj c, h);
    - scaling: each member k of the row scalar set has
      T(k, k) = |c|^2 * T(h, h);
    - zero, for c = 0: the row scalar set is the identities;
    - imaginary, for c = i on a real table and h not an identity: the row
      scalar set is empty.
    """
    groupoid, table = bihom.groupoid, bihom.table
    identities = tuple(sorted(groupoid.identity))
    laws = Counter()
    for c in scalars:
        factor = gaussian(abs_sq(c))
        for h in groupoid.arrows():
            rows = scalar_set_bruteforce(bihom, c, h)
            columns = column_scalar_set_bruteforce(bihom, conj(c), h)
            laws["conjugate_scalar", set(rows) <= set(columns)] += 1
            laws["scaling", all(table[k, k] == factor * table[h, h] for k in rows)] += 1
            if c.is_zero():
                laws["zero", rows == identities] += 1
            if c == gaussian(0, 1) and bihom.field_tag == REAL and not groupoid.is_identity(h):
                laws["imaginary", rows == ()] += 1
    return laws


def test_conjugate_scalar_law_follows_from_symmetry(family_corpus, explicit_bihoms):
    """``report --all`` decides the scalar-set laws from the SIP witnesses:
    on a conjugate-symmetric table, row k = c * row h gives
    T(x, k) = conj T(k, x) = conj(c) * T(x, h) for every x, and so
    T(k, k) = |c|^2 * T(h, h); Cauchy-Schwarz and definiteness make the zero
    rows those of the identities, and on a real table no nonzero row has an
    imaginary multiple. The laws hold on every SIP, and the asymmetric
    tables show that the conjugate-scalar and scaling laws need symmetry."""
    sample = (gaussian(0), gaussian(1), gaussian(-1), gaussian(0, 1), gaussian(2))
    fixed = (pair_groupoid(5), complex_pair(3))
    thetas = [sip_from_thetas(cg.groupoid, homs) for cg, homs in family_corpus]
    thetas += [sip_from_thetas(groupoid, [homs["theta"]]) for groupoid, homs in fixed]
    seen = Counter()
    for bihom in thetas:
        laws = _scalar_set_laws(bihom, sample)
        assert all(held for _, held in laws), laws
        seen.update(law for law, _ in laws)
    assert set(seen) == {"conjugate_scalar", "scaling", "zero", "imaginary"}
    symmetric = [b for b in explicit_bihoms if validate_sip(b).symmetry_witness is None]
    asymmetric = [b for b in explicit_bihoms if b not in symmetric]
    assert (len(symmetric), len(asymmetric)) == (5, 11)
    held = Counter()
    for bihom in symmetric:
        held += _scalar_set_laws(bihom, EXPLICIT_SCALARS)
    assert held["conjugate_scalar", True] == 336 and held["conjugate_scalar", False] == 0
    assert held["scaling", False] == 0
    broke = Counter()
    for bihom in asymmetric:
        broke += _scalar_set_laws(bihom, EXPLICIT_SCALARS)
    assert broke["conjugate_scalar", False] == 155
    assert broke["scaling", False] == 38


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
# report --all reads these from the theorem; the fiber scan of the whole-suite
# oracle decides them, and must tell a broken table and a disconnected groupoid


def _fiber_props(bihom):
    return transitive_props_bruteforce(bihom.groupoid, bihom.table, b_partition(bihom))


def test_transitive_props_hold_on_fixtures(p2_sip, c4_sip, p5_sip):
    for bihom in (p2_sip, c4_sip, p5_sip):
        assert _fiber_props(bihom) is True


def test_transitive_props_not_applicable_when_disconnected():
    raw = RawGroupoid(
        objects=["p", "q"],
        arrows=[("ep", "p", "p"), ("eq", "q", "q")],
        compose=[("ep", "ep", "ep"), ("eq", "eq", "eq")],
    )
    groupoid = validate_groupoid(raw)
    assert _fiber_props(zero_bihom(groupoid)) == NOT_APPLICABLE


def test_transitive_props_witnesses_on_a_table_that_breaks_them(p2):
    groupoid, _ = p2
    g = groupoid.arrow_index("(1,0)")
    e1 = groupoid.arrow_index("e1")
    table = dict(zero_bihom(groupoid).table)
    table[(g, e1)] = gaussian(1)  # outside the source fiber of object 0
    bihom = Bihom(groupoid, partition_by(groupoid.arrows()), table, REAL)
    assert _fiber_props(bihom) is False
