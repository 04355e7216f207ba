"""Independent brute-force reference implementations.

Expected values in the test suite are frozen from these plain quantifier
scans, written directly from the definitions, so that the optimized
production code is always checked against something that shares none of
its scan structure. Keep these naive; speed does not matter here.
"""

from __future__ import annotations

from fractions import Fraction

from grpd.documents import NOT_APPLICABLE, Report
from grpd.errors import NotConsistent, NotScalarTarget, NotSeparating, WitnessDisagreement
from grpd.groupoid import FiniteGroupoid, RawGroupoid, _arrow, _arrows
from grpd.homs import CongruenceReport, Partition, product_hom
from grpd.norm import FAILS, HOLDS, VACUOUS, ConsistencyReport, NormReport, norm_table
from grpd.scalars import GaussianRational, abs_sq, conj, format_rational, gaussian, sqrt_leq
from grpd.suite import _add_consistency_checks, _add_norm_checks, _profile_witness


def try_compose(g: FiniteGroupoid, a: int, b: int) -> int | None:
    """a*b, or None when a and b are not composable."""
    return g.compose(a, b) if g.target[a] == g.source[b] else None


def partition_to_doc(groupoid: FiniteGroupoid, partition: Partition) -> dict:
    """The partition document listing each class's arrow labels."""
    labels = groupoid.arrow_labels
    return {"classes": [[labels[g] for g in members] for members in partition.classes]}


def norm_to_doc(norm) -> dict:
    """The norm document giving each arrow's squared value."""
    return {"sq": dict(zip(norm.groupoid.arrow_labels, map(format_rational, norm.sq)))}


def groupoid_violations(g: FiniteGroupoid) -> list[str]:
    """Every axiom violation in a supposedly validated groupoid."""
    out = []
    table = {(a, b): ab for a, b, ab in g.composable_pairs()}
    n = g.n_arrows
    for a in range(n):
        for b in range(n):
            defined = (a, b) in table
            if defined != (g.target[a] == g.source[b]):
                out.append(f"domain ({a},{b})")
            if defined:
                p = table[(a, b)]
                if g.source[p] != g.source[a] or g.target[p] != g.target[b]:
                    out.append(f"endpoints ({a},{b})")
    for a in range(n):
        for b in range(n):
            if (a, b) not in table:
                continue
            for c in range(n):
                if (b, c) not in table:
                    continue
                if table[(table[(a, b)], c)] != table[(a, table[(b, c)])]:
                    out.append(f"associativity ({a},{b},{c})")
    for p in range(g.n_objects):
        e = g.identity[p]
        if g.source[e] != p or g.target[e] != p:
            out.append(f"identity endpoints {p}")
        for a in range(n):
            if g.source[a] == p and table[(e, a)] != a:
                out.append(f"left neutrality ({p},{a})")
            if g.target[a] == p and table[(a, e)] != a:
                out.append(f"right neutrality ({p},{a})")
    for a in range(n):
        inv = g.inverse[a]
        if g.source[inv] != g.target[a] or g.target[inv] != g.source[a]:
            out.append(f"inverse endpoints {a}")
        if table.get((a, inv)) != g.identity[g.source[a]]:
            out.append(f"right inverse {a}")
        if table.get((inv, a)) != g.identity[g.target[a]]:
            out.append(f"left inverse {a}")
    return out


def associativity_witness_bruteforce(raw: RawGroupoid) -> tuple[str, str, str] | None:
    """First (g, h, k) in arrow order with (g*h)*k != g*(h*k), by label.

    Reads the raw tables; every composable pair must have a declared product.
    """
    labels = [label for label, _, _ in raw.arrows]
    src = {label: s for label, s, _ in raw.arrows}
    dst = {label: t for label, _, t in raw.arrows}
    product = {(f, g): fg for f, g, fg in raw.compose}
    for g in labels:
        for h in labels:
            if dst[g] != src[h]:
                continue
            for k in labels:
                if dst[h] != src[k]:
                    continue
                if product[(product[(g, h)], k)] != product[(g, product[(h, k)])]:
                    return g, h, k
    return None


def hom_additivity_bruteforce(g: FiniteGroupoid, target, values) -> tuple[int, int] | None:
    """First (a, b) in lexicographic order with a, b composable and
    values[a*b] != values[a] + values[b], or None."""
    n = g.n_arrows
    for a in range(n):
        for b in range(n):
            p = try_compose(g, a, b)
            if p is not None and values[p] != target.add(values[a], values[b]):
                return a, b
    return None


def affine_congruence_bruteforce(
    g: FiniteGroupoid, partition: Partition
) -> tuple[bool, str | None, tuple[int, int, int, int] | None]:
    """Scan all 4-tuples in lexicographic order, first axiom first."""
    cls = partition.class_of
    n = g.n_arrows
    for g1 in range(n):
        for g2 in range(n):
            if cls[g1] != cls[g2]:
                continue
            for h1 in range(n):
                for h2 in range(n):
                    if cls[h1] != cls[h2]:
                        continue
                    p1 = try_compose(g, g1, h1)
                    p2 = try_compose(g, g2, h2)
                    if p1 is not None and p2 is not None and cls[p1] != cls[p2]:
                        return False, "congruence", (g1, g2, h1, h2)
    for g1 in range(n):
        for g2 in range(n):
            if cls[g1] != cls[g2]:
                continue
            for h1 in range(n):
                for h2 in range(n):
                    if cls[h1] != cls[h2]:
                        continue
                    x = try_compose(g, g1, h2)
                    y = try_compose(g, h1, g2)
                    if x is not None and y is not None and cls[x] != cls[y]:
                        return False, "parallelism", (g1, g2, h1, h2)
    return True, None, None


def profile_bruteforce(g: FiniteGroupoid, partition: Partition):
    """(complete, witness, simple, witness) by direct counting."""
    complete_witness = None
    simple_witness = None
    for a in range(g.n_arrows):
        for p in range(g.n_objects):
            size = sum(
                1 for m in partition.members(a) if g.source[m] == p
            )
            if size == 0 and complete_witness is None:
                complete_witness = (a, p)
            if size > 1 and simple_witness is None:
                simple_witness = (a, p)
    return (
        complete_witness is None,
        complete_witness,
        simple_witness is None,
        simple_witness,
    )


def bihom_additivity_bruteforce(g: FiniteGroupoid, table) -> tuple | None:
    """The first failure of totality or two-sided additivity of a table, or
    None: ("missing", a, b) for the first pair without an entry, else
    (slot, a, b, k) for the first composable (a, b) in lexicographic order
    that fails a slot, the first slot's every k before the second's."""
    n = g.n_arrows
    for a in range(n):
        for b in range(n):
            if (a, b) not in table:
                return "missing", a, b
    for a in range(n):
        for b in range(n):
            p = try_compose(g, a, b)
            if p is None:
                continue
            for k in range(n):
                if table[(p, k)] != table[(a, k)] + table[(b, k)]:
                    return "first", a, b, k
            for k in range(n):
                if table[(k, p)] != table[(k, a)] + table[(k, b)]:
                    return "second", a, b, k
    return None


def sip_conditions_bruteforce(bihom):
    """First witness of (conjugate symmetry, positive definiteness,
    Cauchy-Schwarz) by definition, each None when the law holds."""
    return _sip_witnesses(bihom.groupoid, bihom.table)


def _sip_witnesses(g: FiniteGroupoid, table):
    """The SIP laws of a total table, each by a scan in arrow order: the first
    pair with T(a, b) != conj T(b, a); the first non-identity arrow whose
    diagonal is real and not positive (a complex diagonal breaks symmetry at
    (a, a), where it is reported); the first pair with
    |T(a, b)|^2 > re T(a, a) * re T(b, b)."""
    symmetry = next(
        ((a, b) for a in g.arrows() for b in g.arrows() if table[(a, b)] != conj(table[(b, a)])),
        None,
    )
    definiteness = next(
        (
            a
            for a in g.arrows()
            if not g.is_identity(a) and table[(a, a)].im == 0 and table[(a, a)].re <= 0
        ),
        None,
    )
    cauchy = next(
        (
            (a, b)
            for a in g.arrows()
            for b in g.arrows()
            if abs_sq(table[(a, b)]) > table[(a, a)].re * table[(b, b)].re
        ),
        None,
    )
    return symmetry, definiteness, cauchy


def scalar_set_bruteforce(bihom, c, a: int) -> tuple[int, ...]:
    g = bihom.groupoid
    return tuple(
        k
        for k in g.arrows()
        if all(bihom.table[(k, h)] == c * bihom.table[(a, h)] for h in g.arrows())
    )


def b_relate_bruteforce(bihom, a: int, b: int) -> tuple[bool, bool, bool]:
    """(rows equal, rows negated, pairing of a and b is zero) by definition."""
    g = bihom.groupoid
    t = bihom.table
    return (
        all(t[(a, h)] == t[(b, h)] for h in g.arrows()),
        all(t[(a, h)] == -t[(b, h)] for h in g.arrows()),
        t[(a, b)].re == 0 and t[(a, b)].im == 0,
    )


def column_scalar_set_bruteforce(bihom, c, a: int) -> tuple[int, ...]:
    g = bihom.groupoid
    return tuple(
        k
        for k in g.arrows()
        if all(bihom.table[(h, k)] == c * bihom.table[(h, a)] for h in g.arrows())
    )


def norm_violations(norm) -> list[str]:
    """Norm axiom violations by direct scan, surds decided through sqrt_leq."""
    g = norm.groupoid
    sq = norm.sq
    out = []
    for a in g.arrows():
        if (sq[a] == 0) != g.is_identity(a):
            out.append(f"identity_zero {a}")
        if sq[g.inverse_of(a)] != sq[a]:
            out.append(f"inverse {a}")
    for a in g.arrows():
        for b in g.arrows():
            p = try_compose(g, a, b)
            if p is not None and not sqrt_leq(sq[p], sq[a], sq[b]):
                out.append(f"triangle ({a},{b})")
            if g.source[a] == g.source[b]:
                mid = try_compose(g, g.inverse_of(a), b)
                if not (
                    sqrt_leq(sq[b], sq[a], sq[mid]) and sqrt_leq(sq[a], sq[b], sq[mid])
                ):
                    out.append(f"reverse ({a},{b})")
    return out


def consistency_bruteforce(norm, partition: Partition):
    """(class witness, doubling witness, effective pairs) by scanning every
    class in order and every ordered pair of its members."""
    g = norm.groupoid
    sq = norm.sq
    class_witness = None
    doubling_witness = None
    effective = 0
    for members in partition.classes:
        for a in members:
            if sq[a] != sq[members[0]] and class_witness is None:
                class_witness = (members[0], a)
            for b in members:
                p = try_compose(g, a, b)
                if p is None:
                    continue
                if not (a == b and g.is_identity(a)):
                    effective += 1
                if sq[p] != 4 * sq[a] and doubling_witness is None:
                    doubling_witness = (a, b)
    return class_witness, doubling_witness, effective


def parallelogram_bruteforce(norm, partition: Partition, a: int, b: int):
    """(status, witness count) for one pair by scanning all quadruples."""
    g = norm.groupoid
    sq = norm.sq
    rhs = 2 * sq[a] + 2 * sq[b]
    checked = 0
    failing = None
    for g1 in partition.members(a):
        for h1 in partition.members(b):
            p1 = try_compose(g, g1, h1)
            if p1 is None:
                continue
            for g2 in partition.members(a):
                for h2 in partition.members(b):
                    p2 = try_compose(g, g.inverse_of(g2), h2)
                    if p2 is None:
                        continue
                    checked += 1
                    if sq[p1] + sq[p2] != rhs and failing is None:
                        failing = (g1, g2, h1, h2)
    if checked == 0:
        return "no_witness", None, 0
    if failing is not None:
        return "fails", failing, checked
    return "holds", None, checked


def polarize_value_bruteforce(norm, partition: Partition, a: int, b: int):
    """All quarter-difference values over the witness quadruples, as a set."""
    g = norm.groupoid
    sq = norm.sq
    values = set()
    for g1 in partition.members(a):
        for h1 in partition.members(b):
            p1 = try_compose(g, g1, h1)
            if p1 is None:
                continue
            for g2 in partition.members(a):
                for h2 in partition.members(b):
                    p2 = try_compose(g, g.inverse_of(g2), h2)
                    if p2 is None:
                        continue
                    values.add(Fraction(sq[p1] - sq[p2], 4))
    return values


def polarized_additivity_bruteforce(g: FiniteGroupoid, table) -> tuple[int, int, int] | None:
    """First (a, b, k) in lexicographic order with a, b composable where the
    entries (a*b, k), (a, k) and (b, k) of a partial pairing are all defined
    and the first slot is not additive, or None."""
    n = g.n_arrows
    for a in range(n):
        for b in range(n):
            p = try_compose(g, a, b)
            if p is None:
                continue
            for k in range(n):
                if (p, k) not in table or (a, k) not in table or (b, k) not in table:
                    continue
                if table[(p, k)] != table[(a, k)] + table[(b, k)]:
                    return a, b, k
    return None


def polarized_laws_bruteforce(g: FiniteGroupoid, sq, table):
    """(symmetry, diagonal, Cauchy-Schwarz, additivity) witnesses of a partial
    real pairing by a scan of its defined arrow pairs in lexicographic order,
    as ``validate_polarized`` reports them: the symmetry witness is the lesser
    of the first asymmetric pair and its mirror, and the squared one-sided
    Cauchy-Schwarz bound only constrains positive entries. The diagonal is
    not checked there, since it holds on every pairing ``polarize`` builds."""
    n = g.n_arrows
    pairs = [(a, b) for a in range(n) for b in range(n) if (a, b) in table]
    symmetry = next(
        (min((a, b), (b, a)) for a, b in pairs if (b, a) in table and table[(b, a)] != table[(a, b)]),
        None,
    )
    diagonal = next((a for a in range(n) if (a, a) in table and table[(a, a)].re != sq[a]), None)
    cauchy = next(
        (
            (a, b)
            for a, b in pairs
            if table[(a, b)].re > 0 and table[(a, b)].re ** 2 > sq[a] * sq[b]
        ),
        None,
    )
    return symmetry, diagonal, cauchy, polarized_additivity_bruteforce(g, table)


def arrow_pair_survey(norm, partition: Partition) -> dict:
    """The parallelogram result of ``parallelogram_bruteforce`` for every
    ordered arrow pair, in lexicographic order."""
    arrows = norm.groupoid.arrows()
    return {(g, h): parallelogram_bruteforce(norm, partition, g, h) for g in arrows for h in arrows}


def partition_from_classes(n_arrows: int, classes) -> Partition:
    """The partition of arrows 0..n_arrows-1 with the given nonempty classes
    of arrow indices, in any order: each class sorted, the classes sorted
    by least member, and each arrow numbered by its class there."""
    canonical = sorted(sorted(members) for members in classes)
    assert all(canonical), "empty class"
    assert sorted(g for members in canonical for g in members) == list(range(n_arrows))
    class_of = [next(c for c, members in enumerate(canonical) if g in members) for g in range(n_arrows)]
    return Partition(tuple(class_of), tuple(map(tuple, canonical)))


def partition_meet(p1: Partition, p2: Partition) -> Partition:
    """Common refinement, for cross-checking product homomorphisms."""
    groups: dict[tuple[int, int], list[int]] = {}
    for a in range(p1.n_arrows):
        groups.setdefault((p1.class_of[a], p2.class_of[a]), []).append(a)
    return partition_from_classes(p1.n_arrows, list(groups.values()))


def _partition_by(g: FiniteGroupoid, key) -> Partition:
    """Arrows grouped by equal ``key``, each class found by comparing keys."""
    arrows = list(g.arrows())
    firsts = [a for a in arrows if all(key(b) != key(a) for b in arrows[:a])]
    classes = [[b for b in arrows if key(b) == key(a)] for a in firsts]
    return partition_from_classes(g.n_arrows, classes)


def transitive_props_bruteforce(g: FiniteGroupoid, table, rows: Partition):
    """The two fiber propositions of a total table whose row partition is
    ``rows``: not applicable unless every pair of objects has an arrow
    between them, else whether no row that vanishes on some source fiber is
    nonzero elsewhere and every source fiber's row partition is ``rows``."""
    arrows, objects = list(g.arrows()), list(g.objects())
    pairs = [(p, q) for p in objects for q in objects]
    if not all(any(g.source[a] == p and g.target[a] == q for a in arrows) for p, q in pairs):
        return NOT_APPLICABLE
    fiber = {p: [h for h in arrows if g.source[h] == p] for p in objects}
    vanishing = any(
        all(table[(a, h)] == gaussian(0) for h in fiber[p])
        and any(table[(a, k)] != gaussian(0) for k in arrows)
        for a in arrows
        for p in objects
    )
    differs = any(
        _partition_by(g, lambda a: tuple(table[(a, h)] for h in fiber[p])) != rows
        for p in objects
    )
    return not (vanishing or differs)


def report_all_bruteforce(g: FiniteGroupoid, homs) -> Report:
    """``grpd report --all`` from the definitions: the pairing summed as plain
    Gaussian-rational sums, every law decided by a scan over arrows, arrow
    pairs or quadruples in lexicographic order, with no row index, class
    pair or generating set, and rendered with the suite's renderers. The
    scalar-set laws are scanned for the scalars 0, 1, -1, i and 2."""
    arrows = list(g.arrows())
    report = Report()
    report.add("groupoid_axioms", True)
    report.add("hom_valid", True)

    bundle = product_hom(homs)
    thetas = _partition_by(g, lambda a: bundle.values[a])
    _, axiom, witness = affine_congruence_bruteforce(g, thetas)
    report.law("theta_congruence_axioms", CongruenceReport(g, thetas, axiom, witness).describe())
    complete, _, simple, _ = profile_bruteforce(g, thetas)
    flags = (complete, simple, complete and simple)
    report.add("profile", "complete={} simple={} efficient={}".format(*map(str, flags)).lower())
    mono = all(g.is_identity(a) or bundle.values[a] != bundle.target.zero() for a in arrows)
    report.add("monomorphism_implies_simple", simple if mono else NOT_APPLICABLE)

    for hom in homs:
        components = hom.target.components
        if len(components) != 1:
            exc = NotScalarTarget(
                "pairing construction needs scalar-valued homomorphisms; "
                f"got {len(components)} components"
            )
        elif components[0].kind == "Zmod":
            exc = NotScalarTarget("a modular component has no additive embedding into the scalars")
        else:
            continue
        report.add("sip_construction", NOT_APPLICABLE, witness=str(exc))
        return report
    vectors = [tuple(gaussian(0) + hom.values[a][0] for hom in homs) for a in arrows]
    for a in arrows:
        if not g.is_identity(a) and all(x == gaussian(0) for x in vectors[a]):
            report.add("sip_construction", False, witness=str(NotSeparating(g.arrow_label(a))))
            return report
    report.add("sip_construction", True)
    table = {}
    for a in arrows:
        for b in arrows:
            total = gaussian(0)
            for x, y in zip(vectors[a], vectors[b]):
                total = total + x * conj(y)
            table[(a, b)] = total
    real = all(z.im == 0 for z in table.values())
    symmetry, definiteness, cauchy = _sip_witnesses(g, table)
    report.law("sip_conjugate_symmetry", _arrows(g, symmetry))
    report.law("sip_positive_definiteness", _arrow(g, definiteness))
    report.law("sip_cauchy_schwarz", _arrows(g, cauchy))

    row = {a: tuple(table[(a, x)] for x in arrows) for a in arrows}
    rows = _partition_by(g, row.__getitem__)
    ok, axiom, witness = affine_congruence_bruteforce(g, rows)
    described = CongruenceReport(g, rows, axiom, witness).describe()
    report.law("row_congruence_axioms", described)
    if ok:
        report.law("row_congruence_simple", _profile_witness(g, profile_bruteforce(g, rows)[3]))
    else:
        report.law("row_congruence_simple", described)
    units = [tuple(gaussian(int(i == j)) for i in range(len(homs))) for j in range(len(homs))]
    has_units = all(unit in vectors for unit in units)
    report.add("row_partition_matches_hom", rows == thetas if has_units else NOT_APPLICABLE)

    report.add("transitive_fiber_props", transitive_props_bruteforce(g, table, rows))

    norm = norm_table(g, [table[(a, a)].re for a in arrows])
    sq = norm.sq
    composable = [(a, b, try_compose(g, a, b)) for a in arrows for b in arrows]
    composable = [(a, b, p) for a, b, p in composable if p is not None]
    reverse = next(
        (
            (a, b)
            for a in arrows
            for b in arrows
            if g.source[a] == g.source[b]
            and not (
                sqrt_leq(sq[b], sq[a], sq[g.compose(g.inverse_of(a), b)])
                and sqrt_leq(sq[a], sq[b], sq[g.compose(g.inverse_of(a), b)])
            )
        ),
        None,
    )
    norm_report = NormReport(
        next((a for a in arrows if (sq[a] == 0) != g.is_identity(a)), None),
        next(((a, b) for a, b, p in composable if not sqrt_leq(sq[p], sq[a], sq[b])), None),
        next((a for a in arrows if sq[g.inverse_of(a)] != sq[a]), None),
        reverse,
    )
    _add_norm_checks(report, g, norm_report)
    class_witness, doubling_witness, effective = consistency_bruteforce(norm, rows)
    if doubling_witness is not None:
        doubling = FAILS
    else:
        doubling = VACUOUS if effective == 0 else HOLDS
    consistency = ConsistencyReport(
        norm, rows, class_witness, doubling, doubling_witness, effective, {}
    )
    _add_consistency_checks(report, g, consistency)

    if class_witness is not None or doubling_witness is not None:
        if class_witness is not None:
            pair, detail = class_witness, "norms differ inside a class"
        else:
            pair, detail = doubling_witness, "composing class mates does not double the norm"
        exc = NotConsistent(f"{detail} at {_arrows(g, pair)}")
        report.add("parallelogram", NOT_APPLICABLE, witness=str(exc))
        report.add("polarization_round_trip", NOT_APPLICABLE, witness=str(exc))
    else:
        # the squared norms of the products g1*h1 and inverse(g2)*h2 over the
        # class mates g1, g2 of a and h1, h2 of b; every witness quadruple
        # pairs one of each
        counts = {HOLDS: 0, FAILS: 0, "no_witness": 0}
        first_failing, values = None, {}
        for a in arrows:
            for b in arrows:
                firsts = {
                    sq[p]
                    for g1 in rows.members(a)
                    for h1 in rows.members(b)
                    if (p := try_compose(g, g1, h1)) is not None
                }
                seconds = {
                    sq[p]
                    for g2 in rows.members(a)
                    for h2 in rows.members(b)
                    if (p := try_compose(g, g.inverse_of(g2), h2)) is not None
                }
                if not (firsts and seconds):
                    counts["no_witness"] += 1
                    continue
                rhs = 2 * sq[a] + 2 * sq[b]
                status = HOLDS if all(x + y == rhs for x in firsts for y in seconds) else FAILS
                counts[status] += 1
                if status == FAILS and first_failing is None:
                    first_failing = (a, b)
                values[(a, b)] = {(x - y) / 4 for x in firsts for y in seconds}
        witness = "holds={} no_witness={} fails={}".format(
            counts[HOLDS], counts["no_witness"], counts[FAILS]
        )
        if first_failing is not None:
            witness += f" at {_arrows(g, first_failing)}"
        report.add("parallelogram", counts[FAILS] == 0, witness=witness)

        if real:
            conflict = next((pair for pair, found in values.items() if len(found) > 1), None)
            if conflict is not None:
                labels = (g.arrow_label(a) for a in conflict)
                exc = WitnessDisagreement(*labels, tuple(sorted(values[conflict])))
                report.add("polarization_round_trip", False, witness=str(exc))
                return report
            agree = all(
                GaussianRational(*found) == table[pair] for pair, found in values.items()
            )
            coverage = f"coverage={len(values)}/{len(arrows) ** 2}"
            report.add("polarization_round_trip", agree, witness=coverage)
        else:
            report.add("polarization_round_trip", NOT_APPLICABLE)

    zero, imaginary = gaussian(0), gaussian(0, 1)
    sets = {}
    for c in (zero, gaussian(1), gaussian(-1), imaginary, gaussian(2)):
        for h in arrows:
            scaled = tuple(c * z for z in row[h])
            sets[c, h] = tuple(k for k in arrows if row[k] == scaled)
    identities = tuple(sorted(g.identity))
    report.add("scalar_set_zero_is_identities", all(sets[zero, h] == identities for h in arrows))
    if real:
        empty = all(sets[imaginary, h] == () for h in arrows if not g.is_identity(h))
        report.add("scalar_set_imaginary_empty", empty)
    else:
        report.add("scalar_set_imaginary_empty", NOT_APPLICABLE)
    # row k = c * row h: column k is conj(c) times column h, and
    # T(k, k) = |c|^2 * T(h, h)
    report.add(
        "conjugate_scalar_law",
        all(
            table[(x, k)] == conj(c) * table[(x, h)]
            for (c, h), members in sets.items()
            for k in members
            for x in arrows
        ),
    )
    report.add(
        "norm_scaling_law",
        all(sq[k] == abs_sq(c) * sq[h] for (c, h), members in sets.items() for k in members),
    )
    return report
