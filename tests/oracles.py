"""Independent brute-force reference implementations.

Expected values in the test suite are frozen from these plain quantifier
scans, written directly from the definitions, so that the optimized
production code is always checked against something that shares none of
its scan structure. Keep these naive; speed does not matter here.
"""

from __future__ import annotations

from fractions import Fraction

from grpd.groupoid import FiniteGroupoid, RawGroupoid
from grpd.homs import Partition
from grpd.norm import NO_WITNESS, ParallelogramResult, parallelogram_survey
from grpd.scalars import conj, abs_sq, sqrt_leq


def groupoid_violations(g: FiniteGroupoid) -> list[str]:
    """Every axiom violation in a supposedly validated groupoid."""
    out = []
    table = g.compose_table
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
            p = g.try_compose(a, b)
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
                    p1 = g.try_compose(g1, h1)
                    p2 = g.try_compose(g2, h2)
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
                    x = g.try_compose(g1, h2)
                    y = g.try_compose(h1, g2)
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


def bihom_additivity_bruteforce(bihom) -> tuple[int, int, int] | None:
    """First (g, h, k) in lexicographic order with g, h composable where the
    pairing is not additive in the first or the second slot, or None."""
    g = bihom.groupoid
    table = bihom.table
    n = g.n_arrows
    for a in range(n):
        for b in range(n):
            p = g.try_compose(a, b)
            if p is None:
                continue
            for k in range(n):
                if table[(p, k)] != table[(a, k)] + table[(b, k)]:
                    return a, b, k
                if table[(k, p)] != table[(k, a)] + table[(k, b)]:
                    return a, b, k
    return None


def sip_conditions_bruteforce(bihom) -> tuple[bool, bool, bool]:
    """(conjugate symmetric, positive definite, Cauchy-Schwarz) by definition."""
    g = bihom.groupoid
    symmetric = all(
        bihom.table[(a, b)] == conj(bihom.table[(b, a)])
        for a in g.arrows()
        for b in g.arrows()
    )
    definite = all(
        bihom.table[(a, a)].im == 0 and bihom.table[(a, a)].re > 0
        for a in g.arrows()
        if not g.is_identity(a)
    )
    cauchy = all(
        abs_sq(bihom.table[(a, b)]) <= bihom.table[(a, a)].re * bihom.table[(b, b)].re
        for a in g.arrows()
        for b in g.arrows()
    )
    return symmetric, definite, cauchy


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
            p = g.try_compose(a, b)
            if p is not None and not sqrt_leq(sq[p], sq[a], sq[b]):
                out.append(f"triangle ({a},{b})")
            if g.source[a] == g.source[b]:
                mid = g.compose_table[(g.inverse_of(a), b)]
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
                p = g.try_compose(a, b)
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
            p1 = g.try_compose(g1, h1)
            if p1 is None:
                continue
            for g2 in partition.members(a):
                for h2 in partition.members(b):
                    p2 = g.try_compose(g.inverse_of(g2), h2)
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
            p1 = g.try_compose(g1, h1)
            if p1 is None:
                continue
            for g2 in partition.members(a):
                for h2 in partition.members(b):
                    p2 = g.try_compose(g.inverse_of(g2), h2)
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
            p = g.try_compose(a, b)
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
    Cauchy-Schwarz bound only constrains positive entries."""
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


def arrow_pair_survey(consistency) -> dict:
    """The class-pair parallelogram survey spread over every ordered arrow
    pair in lexicographic order: each pair gets the result of its class
    pair, or the no-witness result when that class pair has no entry."""
    survey = parallelogram_survey(consistency)
    cls = consistency.partition.class_of
    arrows = consistency.norm.groupoid.arrows()
    none = ParallelogramResult(NO_WITNESS, None, 0)
    return {(g, h): survey.get((cls[g], cls[h]), none) for g in arrows for h in arrows}


def partition_meet(p1: Partition, p2: Partition) -> Partition:
    """Common refinement, for cross-checking product homomorphisms."""
    from grpd.homs import partition_from_classes

    groups: dict[tuple[int, int], list[int]] = {}
    for a in range(p1.n_arrows):
        groups.setdefault((p1.class_of[a], p2.class_of[a]), []).append(a)
    return partition_from_classes(p1.n_arrows, list(groups.values()))
