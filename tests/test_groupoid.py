import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grpd.errors import (
    BadCompositionDomain,
    BadInverse,
    CapExceeded,
    DanglingReference,
    MissingIdentity,
    NotAssociative,
    NotComposable,
    UnknownArrow,
    UnknownObject,
)
from grpd.groupoid import RawGroupoid, _picker, arrow_cap, validate_groupoid
from grpd.families import generate, pair_groupoid

from corpus import random_groupoid, raw_groupoid
from oracles import associativity_witness_bruteforce, groupoid_violations, try_compose


def trivial_raw() -> RawGroupoid:
    return RawGroupoid(objects=["p"], arrows=[("e", "p", "p")], compose=[("e", "e", "e")])


def two_islands_raw() -> RawGroupoid:
    return RawGroupoid(
        objects=["p", "q"],
        arrows=[("ep", "p", "p"), ("eq", "q", "q")],
        compose=[("ep", "ep", "ep"), ("eq", "eq", "eq")],
    )


def test_trivial_groupoid_validates():
    g = validate_groupoid(trivial_raw())
    assert g.n_objects == 1 and g.n_arrows == 1
    assert groupoid_violations(g) == []


def test_picker_returns_a_tuple_on_one_place():
    """Light's test and the pairing witness scan compare what the picker
    returns with tuples, so one place gives a 1-tuple, not the entry."""
    line = (5, 6, 7)
    assert _picker([2])(line) == (7,)
    assert _picker([2, 0])(line) == (7, 5)
    assert _picker(range(3))(list(line)) == line


def test_pair_groupoid_validates_against_oracle(p2):
    groupoid, _ = p2
    assert groupoid_violations(groupoid) == []
    assert groupoid.arrow_labels == ("e0", "e1", "(0,1)", "(1,0)")


def test_declared_bad_inverse_is_rejected(p2):
    raw = raw_groupoid(p2[0])
    raw.inverse["(0,1)"] = "(0,1)"
    with pytest.raises(BadInverse) as err:
        validate_groupoid(raw)
    assert err.value.arrow == "(0,1)"


def test_missing_inverse_is_rejected():
    # drop the off-diagonal arrows' partners: (0,1) loses its inverse
    raw = RawGroupoid(
        objects=["0", "1"],
        arrows=[("e0", "0", "0"), ("e1", "1", "1"), ("a", "0", "1")],
        compose=[
            ("e0", "e0", "e0"),
            ("e1", "e1", "e1"),
            ("e0", "a", "a"),
            ("a", "e1", "a"),
        ],
    )
    with pytest.raises(BadInverse) as err:
        validate_groupoid(raw)
    assert err.value.arrow == "a"


def test_one_sided_inverse_is_rejected():
    # a category that is not a groupoid: g*k = e_p, but k*g is the idempotent
    # i, not e_q, so k is only a right inverse of g; g has no two-sided inverse
    products = {
        ("e_p", "e_p"): "e_p", ("e_p", "g"): "g",
        ("e_q", "e_q"): "e_q", ("e_q", "k"): "k", ("e_q", "i"): "i",
        ("g", "e_q"): "g", ("g", "k"): "e_p", ("g", "i"): "g",
        ("k", "e_p"): "k", ("k", "g"): "i",
        ("i", "e_q"): "i", ("i", "k"): "k", ("i", "i"): "i",
    }
    raw = RawGroupoid(
        objects=["p", "q"],
        arrows=[("e_p", "p", "p"), ("e_q", "q", "q"), ("g", "p", "q"), ("k", "q", "p"), ("i", "q", "q")],
        compose=[(f, h, fh) for (f, h), fh in products.items()],
    )
    assert associativity_witness_bruteforce(raw) is None
    with pytest.raises(BadInverse) as err:
        validate_groupoid(raw)
    assert err.value.arrow == "g"
    assert str(err.value) == "arrow 'g': no two-sided inverse"


def test_missing_identity_is_rejected():
    raw = RawGroupoid(objects=["p"], arrows=[], compose=[])
    with pytest.raises(MissingIdentity):
        validate_groupoid(raw)


def test_declared_identity_cross_checked():
    raw = two_islands_raw()
    raw.identity = {"p": "eq"}
    with pytest.raises(MissingIdentity):
        validate_groupoid(raw)


def test_non_associative_table_is_rejected():
    # Z3 with one corrupted entry: 2+2 -> 0 instead of 1
    labels = ["g0", "g1", "g2"]
    table = [[(a + b) % 3 for b in range(3)] for a in range(3)]
    table[2][2] = 0
    raw = RawGroupoid(
        objects=["*"],
        arrows=[(lab, "*", "*") for lab in labels],
        compose=[
            (labels[a], labels[b], labels[table[a][b]])
            for a in range(3)
            for b in range(3)
        ],
    )
    with pytest.raises(NotAssociative) as exc:
        validate_groupoid(raw)
    assert exc.value.witness == ("g1", "g1", "g2")
    assert associativity_witness_bruteforce(raw) == ("g1", "g1", "g2")


def _rewrite_products(rng: random.Random, raw: RawGroupoid, count: int) -> None:
    """Replace ``count`` products of non-identity pairs by other arrows with
    the same endpoints, so only associativity and inverses can break."""
    identities = set(raw.identity.values())
    ends = {label: (src, dst) for label, src, dst in raw.arrows}
    for _ in range(count):
        choices = []
        for i, (f, g, fg) in enumerate(raw.compose):
            alternatives = [a for a in ends if ends[a] == ends[fg] and a != fg]
            if f not in identities and g not in identities and alternatives:
                choices.append((i, alternatives))
        if not choices:
            return
        i, alternatives = rng.choice(choices)
        f, g, _ = raw.compose[i]
        raw.compose[i] = (f, g, rng.choice(alternatives))


def test_associativity_witness_matches_the_oracle():
    # pair(m) x Z_k components and disjoint unions of them, 1-2 products
    # rewritten: the verdict and the first witness follow the plain scan
    rng = random.Random(4)
    failing = one_entry_rows = 0
    for _ in range(80):
        groupoid = random_groupoid(rng, max_objects=5, max_arrows=40).groupoid
        # an object with one arrow out of it, such as a one-arrow component,
        # gives product rows of one entry
        one_entry_rows += any(len(after) == 1 for after in groupoid.by_source)
        raw = raw_groupoid(groupoid)
        _rewrite_products(rng, raw, rng.randint(1, 2))
        expected = associativity_witness_bruteforce(raw)
        try:
            validate_groupoid(raw)
            witness = None
        except NotAssociative as exc:
            witness = exc.witness
            assert str(exc) == "associativity fails at ({!r}, {!r}, {!r})".format(*witness)
        except BadInverse:
            witness = None
        assert witness == expected
        failing += expected is not None
    assert failing >= 20
    assert one_entry_rows >= 1

    # Z4 with 3+1 -> 1: g1 alone generates, yet the first failing triple has
    # the middle arrow g2, so only the lexicographic rescan can name it
    labels = ["g0", "g1", "g2", "g3"]
    table = [[(a + b) % 4 for b in range(4)] for a in range(4)]
    table[3][1] = 1
    raw = RawGroupoid(
        objects=["*"],
        arrows=[(lab, "*", "*") for lab in labels],
        compose=[(labels[a], labels[b], labels[table[a][b]]) for a in range(4) for b in range(4)],
    )
    assert generate("group", 4)[0].generators == (1,)
    with pytest.raises(NotAssociative) as exc:
        validate_groupoid(raw)
    assert exc.value.witness == associativity_witness_bruteforce(raw) == ("g1", "g2", "g1")


def _right_closure(groupoid, generators) -> set[int]:
    """Arrows reached from the identities by right multiplication with
    identities and ``generators``."""
    factors = list(groupoid.identity) + list(generators)
    reached = set(groupoid.identity)
    work = list(reached)
    while work:
        x = work.pop()
        for s in factors:
            y = try_compose(groupoid, x, s)
            if y is not None and y not in reached:
                reached.add(y)
                work.append(y)
    return reached


def _candidates(groupoid) -> list[int]:
    """The generator candidates in order: for each object p, its first arrow
    to the least target above p, or else to the least target; then every
    arrow in index order."""
    cycle = []
    for p in groupoid.objects():
        out = [a for a in groupoid.arrows() if groupoid.source[a] == p]
        targets = {groupoid.target[a] for a in out}
        q = min([t for t in targets if t > p] or targets)
        cycle.append(min(a for a in out if groupoid.target[a] == q))
    return cycle + list(groupoid.arrows())


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.integers(0, 2**32))
def test_generators_reach_every_arrow(seed):
    # each generator is the first candidate that the identities and the
    # earlier generators do not reach, and all of them reach every arrow
    groupoid = random_groupoid(random.Random(seed), max_objects=5, max_arrows=40).groupoid
    generators, candidates = groupoid.generators, _candidates(groupoid)
    for i, a in enumerate(generators):
        reached = _right_closure(groupoid, generators[:i])
        assert a not in reached
        assert set(candidates[: candidates.index(a)]) <= reached
    assert _right_closure(groupoid, generators) == set(groupoid.arrows())


def test_pair_groupoid_has_one_generator_per_object():
    # the candidates begin with the cycle (0,1), (1,2), ..., (m-1,0), which
    # reaches every arrow of the pair groupoid on m objects
    for m in range(1, 9):
        groupoid = generate("pair", m)[0]
        assert len(groupoid.generators) == (m if m >= 2 else 0)
        assert _right_closure(groupoid, groupoid.generators) == set(groupoid.arrows())


def test_affine_cyclic_64_has_one_generator_per_object():
    # pair 64 relabelled: the index-order greedy alone kept 2,079 generators
    groupoid = generate("affine_cyclic", 64)[0]
    assert len(groupoid.generators) == 64
    assert _right_closure(groupoid, groupoid.generators) == set(groupoid.arrows())


def test_composition_domain_errors():
    raw = trivial_raw()
    raw.compose = []
    with pytest.raises(BadCompositionDomain):  # composable pair with no product
        validate_groupoid(raw)

    raw = two_islands_raw()
    raw.compose.append(("ep", "eq", "ep"))
    with pytest.raises(BadCompositionDomain):  # declared but not composable
        validate_groupoid(raw)


def test_dangling_and_duplicate_references():
    raw = trivial_raw()
    raw.arrows = [("e", "p", "nowhere")]
    with pytest.raises(DanglingReference):
        validate_groupoid(raw)

    raw = trivial_raw()
    raw.compose = [("e", "e", "f")]
    with pytest.raises(DanglingReference):
        validate_groupoid(raw)

    raw = RawGroupoid(objects=["p", "p"], arrows=[], compose=[])
    with pytest.raises(DanglingReference):
        validate_groupoid(raw)


def test_object_cap():
    raw = RawGroupoid(objects=[str(i) for i in range(65)], arrows=[], compose=[])
    with pytest.raises(CapExceeded):
        validate_groupoid(raw)


def test_arrow_cap_env_override(monkeypatch):
    monkeypatch.setenv("GRPD_MAX_ARROWS", "10")
    assert arrow_cap() == 10
    with pytest.raises(CapExceeded):
        pair_groupoid(4)  # 16 arrows
    monkeypatch.setenv("GRPD_MAX_ARROWS", "not a number")
    with pytest.raises(CapExceeded):
        arrow_cap()


def test_compose_examples(p2):
    groupoid, _ = p2
    a = groupoid.arrow_index("(0,1)")
    b = groupoid.arrow_index("(1,0)")
    e0 = groupoid.arrow_index("e0")
    assert groupoid.compose(a, b) == e0
    assert groupoid.compose(e0, a) == a
    with pytest.raises(NotComposable):
        groupoid.compose(a, a)
    assert try_compose(groupoid, a, a) is None


def test_inverse_examples(p2, a3):
    groupoid, _ = p2
    assert groupoid.inverse_of(groupoid.arrow_index("(0,1)")) == groupoid.arrow_index(
        "(1,0)"
    )
    e0 = groupoid.arrow_index("e0")
    assert groupoid.inverse_of(e0) == e0

    ga3, _ = a3
    assert ga3.inverse_of(ga3.arrow_index("(1,2)")) == ga3.arrow_index("(0,1)")


def test_identity_examples(p2, a3):
    groupoid, _ = p2
    assert groupoid.identity[0] == groupoid.arrow_index("e0")
    assert groupoid.identity[1] == groupoid.arrow_index("e1")
    ga3, _ = a3
    assert ga3.identity[2] == ga3.arrow_index("(2,0)")


def test_transitivity(p2, a3):
    assert p2[0].is_transitive()
    assert a3[0].is_transitive()
    assert not validate_groupoid(two_islands_raw()).is_transitive()


def test_inverse_antihomomorphism(p5, a3, c4):
    for groupoid in (p5[0], a3[0], c4[0]):
        for g, h, gh in groupoid.composable_pairs():
            assert gh == groupoid.compose(g, h)
            assert groupoid.inverse_of(gh) == groupoid.compose(
                groupoid.inverse_of(h), groupoid.inverse_of(g)
            )


def test_label_lookup_round_trip(c4):
    groupoid, _ = c4
    for g in groupoid.arrows():
        assert groupoid.arrow_index(groupoid.arrow_label(g)) == g
    for p in groupoid.objects():
        assert groupoid.object_index(groupoid.object_label(p)) == p
    with pytest.raises(UnknownObject):
        groupoid.object_index("nowhere")
    for label in ("nowhere", 0, None, ["e0"], ("e0",)):
        with pytest.raises(UnknownArrow) as err:
            groupoid.arrow_index(label)
        assert err.value.label == label


def test_random_corpus_groupoids_pass_the_oracle(hom_corpus):
    checked = 0
    for cg, _ in hom_corpus:
        if cg.groupoid.n_arrows > 40:
            continue  # the oracle scan is cubic; small instances suffice
        assert groupoid_violations(cg.groupoid) == []
        checked += 1
    assert checked >= 20


def test_validator_catches_single_table_mutations(hom_corpus):
    # corrupting any one composition entry must violate some axiom
    import random

    from grpd.errors import GroupoidError

    rng = random.Random(5)
    mutated = 0
    for cg, _ in hom_corpus[:40]:
        groupoid = cg.groupoid
        if groupoid.n_arrows < 2:
            continue
        raw = raw_groupoid(groupoid)
        idx = rng.randrange(len(raw.compose))
        f, g, fg = raw.compose[idx]
        replacement = rng.choice(
            [lab for lab, _, _ in raw.arrows if lab != fg]
        )
        raw.compose[idx] = (f, g, replacement)
        with pytest.raises(GroupoidError):
            validate_groupoid(raw)
        mutated += 1
    assert mutated >= 20


def _groupoids_with_their_triples(monkeypatch):
    """The corpus groupoids and the pair, complex_pair and affine_cyclic
    families up to about 40 arrows, each with the raw triples it was
    validated from."""
    import corpus
    from grpd import families

    raws = []

    def keep_raw(raw):
        raws.append(raw)
        return validate_groupoid(raw)

    monkeypatch.setattr(families, "validate_groupoid", keep_raw)
    monkeypatch.setattr(corpus, "validate_groupoid", keep_raw)
    for family, sizes in (("pair", range(1, 7)), ("complex_pair", (1, 2)),
                          ("affine_cyclic", range(1, 7))):
        for size in sizes:
            yield generate(family, size)[0], raws[-1]
    rng = random.Random(17)
    for _ in range(30):
        yield random_groupoid(rng, max_arrows=40).groupoid, raws[-1]


def test_product_rows_answer_every_composition_query(monkeypatch):
    for groupoid, raw in _groupoids_with_their_triples(monkeypatch):
        index = groupoid.arrow_index
        expected = {(index(f), index(g)): index(fg) for f, g, fg in raw.compose}
        assert list(groupoid.composable_pairs()) == [
            (g, h, gh) for (g, h), gh in sorted(expected.items())
        ]
        # the label index and the arrows into each object, as validation built them
        assert groupoid.arrow_indices == {label: g for g, (label, _, _) in enumerate(raw.arrows)}
        assert groupoid.by_target == tuple(
            tuple(g for g in groupoid.arrows() if groupoid.target[g] == p)
            for p in groupoid.objects()
        )
        for g in groupoid.arrows():
            for h in groupoid.arrows():
                assert try_compose(groupoid, g, h) == expected.get((g, h))
                if (g, h) in expected:
                    assert groupoid.compose(g, h) == expected[g, h]
                    continue
                with pytest.raises(NotComposable) as err:
                    groupoid.compose(g, h)
                labels = groupoid.arrow_label(g), groupoid.arrow_label(h)
                assert str(err.value) == "arrows {!r} and {!r} are not composable".format(*labels)
