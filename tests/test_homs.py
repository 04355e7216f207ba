import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grpd.errors import (
    EmptyList,
    MissingArrow,
    MixedGroupoids,
    NotACongruence,
    NotAdditive,
    UnknownArrow,
)
from grpd.documents import partition_from_doc
from grpd.families import pair_groupoid
from grpd.groupoid import RawGroupoid, validate_groupoid
from grpd.homs import (
    SIG_Q,
    SIG_QI,
    SIG_Z,
    AbelianGroupSig,
    Component,
    congruence_from_hom,
    congruence_profile,
    is_monomorphism,
    partition_by,
    product_hom,
    validate_affine_congruence,
    validate_hom,
)
from grpd.scalars import gaussian

from corpus import random_groupoid, random_hom, zero_theta
from oracles import (
    affine_congruence_bruteforce,
    _partition_by,
    hom_additivity_bruteforce,
    partition_from_classes,
    partition_meet,
    profile_bruteforce,
)


def class_labels(groupoid, partition):
    return [
        tuple(groupoid.arrow_label(g) for g in members) for members in partition.classes
    ]


# --- components and signatures ---------------------------------------------------


def test_component_validation():
    with pytest.raises(ValueError):
        Component("Zmod")
    with pytest.raises(ValueError):
        Component("Zmod", 1)
    with pytest.raises(ValueError):
        Component("Z", 4)
    with pytest.raises(ValueError):
        Component("R")


def test_modular_values_are_canonicalized():
    sig = AbelianGroupSig((Component("Zmod", 3),))
    assert sig.coerce([-1]) == (2,)
    assert sig.add((2,), (2,)) == (1,)


# --- homomorphism validation ------------------------------------------------------


def test_validate_hom_canonical(p2):
    groupoid, homs = p2
    theta = homs["theta"]
    assert theta.values[groupoid.arrow_index("(1,0)")] == (1,)


def test_validate_hom_rejects_non_additive(p2):
    groupoid, _ = p2
    values = {"e0": [0], "e1": [0], "(0,1)": [1], "(1,0)": [1]}
    with pytest.raises(NotAdditive) as err:
        validate_hom(groupoid, values, SIG_Z)
    assert err.value.witness == ("(0,1)", "(1,0)")


def test_additivity_witness_shows_formatted_values(p2):
    groupoid, _ = p2
    values = {"e0": [gaussian("1/3", "2/7")], "e1": [0], "(0,1)": [0], "(1,0)": [0]}
    with pytest.raises(NotAdditive) as err:
        validate_hom(groupoid, values, SIG_QI)
    assert err.value.witness == ("e0", "e0")
    message = str(err.value)
    assert "value of product is (1/3+2/7i), sum is (2/3+4/7i)" in message
    assert "GaussianRational(" not in message and "Fraction(" not in message


def test_additivity_witness_matches_the_oracle():
    # corpus homs with one value shifted by a nonzero element: in turn at an
    # identity, at an arrow that is not a generator, and at any arrow; the
    # verdict and the first witness follow the plain scan
    rng = random.Random(10)
    failing = outside_generators = 0
    for i in range(90):
        cg = random_groupoid(rng, max_objects=5, max_arrows=40)
        groupoid, hom = cg.groupoid, random_hom(rng, cg)
        others = [
            g for g in groupoid.arrows()
            if g not in groupoid.generators and not groupoid.is_identity(g)
        ]
        candidates = (list(groupoid.identity), others, list(groupoid.arrows()))[i % 3]
        if not candidates:
            continue
        planted = rng.choice(candidates)
        values = list(hom.values)
        shift = hom.target.coerce([1] * len(hom.target.components))
        values[planted] = hom.target.add(values[planted], shift)
        expected = hom_additivity_bruteforce(groupoid, hom.target, values)
        try:
            validate_hom(groupoid, dict(zip(groupoid.arrow_labels, values)), hom.target)
            witness = None
        except NotAdditive as exc:
            witness = tuple(map(groupoid.arrow_index, exc.witness))
        assert witness == expected
        failing += expected is not None
        outside_generators += expected is not None and expected[1] not in groupoid.generators
    assert failing >= 80 and outside_generators >= 50


def _potential_values(groupoid, target, potentials):
    """The value tuple of each arrow under v(g) = P[source g] - P[target g],
    one potential list P per component."""
    return [
        target.coerce([P[groupoid.source[g]] - P[groupoid.target[g]] for P in potentials])
        for g in groupoid.arrows()
    ]


def _over(rng, denominator):
    """A rational whose denominator in lowest terms is exactly ``denominator``."""
    while True:
        value = Fraction(rng.randrange(-10**45, 10**45), denominator)
        if value.denominator == denominator:
            return value


def test_a_shift_in_one_component_is_found_where_the_oracle_finds_it():
    # homs into two or three of Z, Zmod, Q and QI, the rational potentials
    # over distinct denominators of 41 or 42 digits; one or two components are shifted
    # at an arrow each, a QI component in its real or its imaginary part
    # alone, so components fail at different first pairs and the witness is
    # the least of them
    rng = random.Random(31)
    apart = later = from_qi = 0
    for _ in range(60):
        groupoid = random_groupoid(rng, max_objects=5, max_arrows=40).groupoid
        n = groupoid.n_objects
        components, potentials, shifts = [], [], []
        for kind in rng.sample(("Z", "Zmod", "Q", "QI"), rng.randint(2, 3)):
            dens = [10**40 * k + rng.randrange(10**39) for k in range(1, 2 * n + 1)]
            small = 1 / Fraction(rng.choice(dens))
            if kind == "Zmod":
                components.append(Component("Zmod", rng.randint(2, 9)))
                potentials.append([rng.randrange(9) for _ in range(n)])
                shifts.append(1)
            elif kind == "Z":
                components.append(Component("Z"))
                potentials.append([rng.randint(-5, 5) for _ in range(n)])
                shifts.append(1)
            elif kind == "Q":
                components.append(Component("Q"))
                potentials.append([_over(rng, d) for d in dens[:n]])
                shifts.append(small)
            else:
                components.append(Component("QI"))
                potentials.append(
                    [gaussian(_over(rng, d), _over(rng, e)) for d, e in zip(dens[:n], dens[n:])]
                )
                shifts.append(rng.choice((gaussian(small), gaussian(0, small))))
        target = AbelianGroupSig(tuple(components))
        values = _potential_values(groupoid, target, potentials)
        shifted = rng.sample(range(len(components)), rng.randint(1, 2))
        for i in shifted:
            g = rng.choice(groupoid.arrows())
            element = list(values[g])
            element[i] = components[i].coerce(element[i] + shifts[i])
            values[g] = tuple(element)

        expected = hom_additivity_bruteforce(groupoid, target, values)
        try:
            validate_hom(groupoid, dict(zip(groupoid.arrow_labels, values)), target)
            witness = None
        except NotAdditive as exc:
            witness = tuple(map(groupoid.arrow_index, exc.witness))
        assert witness == expected

        firsts = {
            i: hom_additivity_bruteforce(
                groupoid, AbelianGroupSig((components[i],)), [(v[i],) for v in values]
            )
            for i in shifted
        }
        apart += len(set(firsts.values()) - {None}) == 2
        later += expected is not None and firsts.get(0) != expected
        from_qi += any(components[i].kind == "QI" and firsts[i] == expected for i in firsts)
    assert apart >= 20 and later >= 20 and from_qi >= 12


def test_hom_additivity_does_no_fraction_arithmetic(monkeypatch):
    # the law is decided on integer numerators and denominators: with
    # Fraction addition and equality made to raise, Q and QI homs of pair 6
    # and of a corpus groupoid still pass
    cases = []
    for groupoid in (pair_groupoid(6)[0], random_groupoid(random.Random(6)).groupoid):
        P = [Fraction(3 * p - 7, 2 * p + 1) for p in groupoid.objects()]
        for target, potentials in ((SIG_Q, [P]), (SIG_QI, [[gaussian(x, x / 5) for x in P]])):
            values = _potential_values(groupoid, target, potentials)
            cases.append((groupoid, target, dict(zip(groupoid.arrow_labels, values))))

    def refuse(*args):
        raise AssertionError("Fraction arithmetic")

    for name in ("__add__", "__radd__", "__eq__"):
        monkeypatch.setattr(Fraction, name, refuse)
    with pytest.raises(AssertionError):
        Fraction(1, 2) + Fraction(1, 3)
    for groupoid, target, values in cases:
        hom = validate_hom(groupoid, values, target)
        assert hom.values == tuple(values.values())


def test_validate_hom_requires_all_arrows(p2):
    groupoid, _ = p2
    with pytest.raises(MissingArrow):
        validate_hom(groupoid, {"e0": [0]}, SIG_Z)
    with pytest.raises(UnknownArrow):
        validate_hom(
            groupoid,
            {"e0": [0], "e1": [0], "(0,1)": [-1], "(1,0)": [1], "bogus": [0]},
            SIG_Z,
        )


def test_zero_hom_is_valid(a3):
    groupoid, _ = a3
    hom = zero_theta(groupoid)
    assert all(value == hom.target.zero() for value in hom.values)


# --- product homomorphisms ----------------------------------------------------------


def test_product_hom_wraps_single(p2):
    _, homs = p2
    theta = homs["theta"]
    bundled = product_hom([theta])
    assert bundled.values == theta.values
    assert bundled.target == theta.target


def test_product_hom_on_coordinates(c4):
    groupoid, homs = c4
    bundled = product_hom([homs["theta1"], homs["theta2"]])
    assert bundled.values[groupoid.arrow_index("((1,0),(0,0))")] == (1, 0)
    assert bundled.values[groupoid.arrow_index("((0,1),(0,0))")] == (0, 1)


def test_product_hom_with_zero(p2):
    groupoid, homs = p2
    bundled = product_hom([homs["theta"], zero_theta(groupoid)])
    assert all(bundled.values[g][1] == 0 for g in groupoid.arrows())


def test_product_hom_errors(p2, p3):
    with pytest.raises(EmptyList):
        product_hom([])
    with pytest.raises(MixedGroupoids):
        product_hom([p2[1]["theta"], p3[1]["theta"]])


def test_product_hom_induces_partition_meet(c4):
    groupoid, homs = c4
    meet = partition_meet(
        congruence_from_hom(homs["theta1"]), congruence_from_hom(homs["theta2"])
    )
    assert congruence_from_hom(product_hom([homs["theta1"], homs["theta2"]])) == meet


# --- induced congruences ---------------------------------------------------------------


def test_congruence_classes_p2(p2):
    groupoid, homs = p2
    partition = congruence_from_hom(homs["theta"])
    assert class_labels(groupoid, partition) == [
        ("e0", "e1"),
        ("(0,1)",),
        ("(1,0)",),
    ]


def test_congruence_classes_a3(a3):
    _, homs = a3
    partition = congruence_from_hom(homs["theta"])
    assert sorted(len(members) for members in partition.classes) == [3, 3, 3]


def test_zero_hom_gives_single_class(p2):
    groupoid, _ = p2
    partition = congruence_from_hom(zero_theta(groupoid))
    assert len(partition.classes) == 1


def test_classes_are_exactly_value_fibers(p5):
    groupoid, homs = p5
    theta = homs["theta"]
    partition = congruence_from_hom(theta)
    for g in groupoid.arrows():
        for h in groupoid.arrows():
            related = partition.class_of[g] == partition.class_of[h]
            assert related == (theta.values[g] == theta.values[h])


def test_partition_by_matches_the_oracle_and_the_class_reader():
    """partition_by on random key lists, one key per arrow of a random
    groupoid: tuples of Gaussian rationals drawn with repeats from a small
    pool that holds a zero vector. It must equal the grouping found by
    comparing keys and partition_from_classes of its classes, handed over
    shuffled. Classes are numbered by least member, and ``least`` holds the
    first member of each."""
    rng = random.Random(2205)
    small = [gaussian(x, y) for x in (-1, 0, 2) for y in (0, 1)]
    seen = set()
    for _ in range(200):
        groupoid = random_groupoid(rng, max_objects=4, max_arrows=16).groupoid
        width = rng.randint(1, 3)
        pool = [tuple(rng.choice(small) for _ in range(width)) for _ in range(rng.randint(1, 4))]
        pool.append((gaussian(0),) * width)
        keys = [rng.choice(pool) for _ in groupoid.arrows()]
        partition = partition_by(keys)
        assert partition == _partition_by(groupoid, keys.__getitem__)
        shuffled = [rng.sample(members, len(members)) for members in partition.classes]
        rng.shuffle(shuffled)
        assert partition == partition_from_classes(groupoid.n_arrows, shuffled)
        assert partition.least == sorted(partition.least)
        assert all(partition.least[c] == partition.classes[c][0] for c in range(len(partition.classes)))
        if len(set(keys)) < len(keys):
            seen.add("repeated")
        if pool[-1] in keys:
            seen.add("zero")
    assert seen == {"repeated", "zero"}


# --- the congruence axioms ----------------------------------------------------------------


def test_induced_congruence_passes_axioms(p2, a3):
    for groupoid, homs in (p2, a3):
        partition = congruence_from_hom(homs["theta"])
        report = validate_affine_congruence(groupoid, partition)
        assert report.ok
        assert affine_congruence_bruteforce(groupoid, partition)[0]


def test_parallelism_failure_witness(p2):
    groupoid, _ = p2
    partition = partition_from_doc(groupoid, {"classes": [["(0,1)", "e0"], ["(1,0)", "e1"]]})
    report = validate_affine_congruence(groupoid, partition)
    assert not report.ok
    assert report.axiom == "parallelism"
    expected = tuple(groupoid.arrow_index(lab) for lab in ("(0,1)", "e0", "(1,0)", "e1"))
    assert report.witness == expected
    assert affine_congruence_bruteforce(groupoid, partition) == (
        False,
        "parallelism",
        expected,
    )


def test_congruence_axiom_failure_witness():
    # split the identities: composing related pairs then lands on two
    # different identity classes, breaking the first axiom
    from grpd.families import pair_groupoid

    groupoid, _ = pair_groupoid(3)
    classes = [
        ["e0"],
        ["e1", "e2"],
        ["(0,1)", "(1,2)"],
        ["(1,0)", "(2,1)"],
        ["(0,2)"],
        ["(2,0)"],
    ]
    partition = partition_from_doc(groupoid, {"classes": classes})
    report = validate_affine_congruence(groupoid, partition)
    assert not report.ok
    assert report.axiom == "congruence"
    expected = tuple(
        groupoid.arrow_index(lab) for lab in ("(0,1)", "(1,2)", "(1,0)", "(2,1)")
    )
    assert report.witness == expected
    assert affine_congruence_bruteforce(groupoid, partition) == (
        False,
        "congruence",
        expected,
    )


def test_discrete_partition_on_identity_only_groupoid_passes():
    raw = RawGroupoid(
        objects=["p", "q"],
        arrows=[("ep", "p", "p"), ("eq", "q", "q")],
        compose=[("ep", "ep", "ep"), ("eq", "eq", "eq")],
    )
    groupoid = validate_groupoid(raw)
    partition = partition_from_classes(2, [[0], [1]])
    assert validate_affine_congruence(groupoid, partition).ok


def test_discrete_partition_fails_once_opposite_arrows_exist(p2):
    # inverses force arrows both ways, and composing them lands on two
    # different identities, so singleton classes break parallelism
    groupoid, _ = p2
    partition = partition_from_classes(4, [[0], [1], [2], [3]])
    report = validate_affine_congruence(groupoid, partition)
    expected = tuple(
        groupoid.arrow_index(lab) for lab in ("(0,1)", "(0,1)", "(1,0)", "(1,0)")
    )
    assert (report.ok, report.axiom, report.witness) == (False, "parallelism", expected)
    assert affine_congruence_bruteforce(groupoid, partition) == (
        False,
        "parallelism",
        expected,
    )


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=9, max_size=9))
def test_axiom_scan_matches_bruteforce_on_random_partitions(assignment):
    from grpd.families import affine_cyclic

    groupoid, _ = affine_cyclic(3)
    groups: dict[int, list[int]] = {}
    for arrow, cls in enumerate(assignment):
        groups.setdefault(cls, []).append(arrow)
    partition = partition_from_classes(9, list(groups.values()))
    report = validate_affine_congruence(groupoid, partition)
    assert (report.ok, report.axiom, report.witness) == affine_congruence_bruteforce(
        groupoid, partition
    )


# --- profiles ---------------------------------------------------------------------


def test_profile_a3_is_efficient(a3):
    groupoid, homs = a3
    axioms = validate_affine_congruence(groupoid, congruence_from_hom(homs["theta"]))
    profile = congruence_profile(axioms)
    assert profile.complete_witness is None and profile.simple_witness is None and profile.efficient


def test_profile_p2_not_complete(p2):
    groupoid, homs = p2
    partition = congruence_from_hom(homs["theta"])
    profile = congruence_profile(validate_affine_congruence(groupoid, partition))
    assert profile.complete_witness is not None
    assert profile.complete_witness == (groupoid.arrow_index("(0,1)"), 1)
    assert profile.simple_witness is None and not profile.efficient
    brute = profile_bruteforce(groupoid, partition)
    assert (profile.complete_witness is None, profile.complete_witness) == brute[:2]
    assert (profile.simple_witness is None, profile.simple_witness) == brute[2:]


def test_profile_requires_a_congruence(p2):
    groupoid, _ = p2
    partition = partition_from_doc(groupoid, {"classes": [["(0,1)", "e0"], ["(1,0)", "e1"]]})
    with pytest.raises(NotACongruence):
        congruence_profile(validate_affine_congruence(groupoid, partition))


def test_profile_simple_witness():
    from grpd.families import pair_groupoid

    groupoid, _ = pair_groupoid(2)
    partition = partition_from_classes(4, [[0, 1, 2, 3]])
    profile = congruence_profile(validate_affine_congruence(groupoid, partition))
    assert profile.simple_witness is not None
    assert profile.simple_witness == (0, 0)
    brute = profile_bruteforce(groupoid, partition)
    assert (profile.simple_witness is None, profile.simple_witness) == brute[2:]


def test_profile_matches_the_bruteforce_count(hom_corpus):
    """Both witnesses of congruence_profile, read per class, against a direct
    count over every arrow and object: on the congruences of the corpus homs,
    a third of them monomorphisms, and of zero homs, whose congruence is one
    class. Every mix of complete and simple occurs, simple ones included,
    on which no scan over the arrows can stop early."""
    seen = Counter()
    cases = [(cg.groupoid, hom) for cg, hom in hom_corpus]
    cases += [(cg.groupoid, zero_theta(cg.groupoid)) for cg, _ in hom_corpus[:30]]
    for groupoid, hom in cases:
        partition = congruence_from_hom(hom)
        profile = congruence_profile(validate_affine_congruence(groupoid, partition))
        complete, complete_witness, simple, simple_witness = profile_bruteforce(groupoid, partition)
        assert (profile.complete_witness, profile.simple_witness) == (complete_witness, simple_witness)
        seen[complete, simple] += 1
    assert seen == {(False, False): 41, (True, False): 41, (False, True): 36, (True, True): 12}


# --- monomorphisms ------------------------------------------------------------------


def test_monomorphism_examples(p2, a3):
    assert is_monomorphism(p2[1]["theta"]) == (True, None)
    assert is_monomorphism(a3[1]["theta"]) == (True, None)
    groupoid, _ = p2
    ok, witness = is_monomorphism(zero_theta(groupoid))
    assert not ok
    assert witness == groupoid.arrow_index("(0,1)")


def test_monomorphism_implies_simple_on_fixtures(p2, p5, a3, c4):
    for groupoid, homs in (p2, p5, a3, c4):
        theta = homs["theta"]
        if is_monomorphism(theta)[0]:
            axioms = validate_affine_congruence(groupoid, congruence_from_hom(theta))
            profile = congruence_profile(axioms)
            assert profile.simple_witness is None


# --- rational-valued homs -----------------------------------------------------------


def test_rational_hom_values(p2):
    groupoid, _ = p2
    values = {
        "e0": [Fraction(0)],
        "e1": [0],
        "(0,1)": ["1/2"],
        "(1,0)": [Fraction(-1, 2)],
    }
    hom = validate_hom(groupoid, values, SIG_Q)
    assert hom.values[groupoid.arrow_index("(0,1)")] == (Fraction(1, 2),)
