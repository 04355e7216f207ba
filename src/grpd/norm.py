"""Groupoid norms in exact squared arithmetic.

Norm values are stored squared, as nonnegative rationals, because every
identity in this module is quadratic except the triangle inequalities,
and those are decided exactly by :func:`grpd.scalars.sqrt_leq`. The norm
induced by a semi-inner product, consistency with a congruence, the
parallelogram identity over class witnesses, and the polarization
reconstruction all live here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from typing import Sequence

from .errors import NotConsistent, NotSip, WitnessDisagreement
from .groupoid import FiniteGroupoid, _arrows
from .homs import Partition, class_pair_products
from .scalars import GaussianRational, ensure_sq, sqrt_leq
from .sip import REAL, Bihom, SipReport, first_pair


@dataclass(frozen=True, eq=False)
class NormTable:
    """Squared norm value for every arrow of one groupoid."""

    groupoid: FiniteGroupoid
    sq: tuple[Fraction, ...]


def norm_table(groupoid: FiniteGroupoid, sq: Sequence) -> NormTable:
    if len(sq) != groupoid.n_arrows:
        raise ValueError(f"expected {groupoid.n_arrows} squared values, got {len(sq)}")
    return NormTable(groupoid, tuple(ensure_sq(v) for v in sq))


def norm_from_sip(report: SipReport) -> NormTable:
    """Diagonal of the pairing that ``report`` checked, as a squared-norm
    table; raises NotSip unless the report certifies a semi-inner product."""
    if not report.is_sip:
        raise NotSip(*next((law, w) for law, w in report.laws() if w is not None))
    bihom = report.bihom
    diagonal = (bihom.entry(g, g) for g in bihom.groupoid.arrows())
    return norm_table(bihom.groupoid, [Fraction(z.num_re, z.den) for z in diagonal])


@dataclass(frozen=True)
class NormReport:
    """First witness of each norm axiom and of the derived reverse triangle
    bound; a law holds exactly when its witness is None."""

    identity_witness: int | None
    triangle_witness: tuple[int, int] | None
    inverse_witness: int | None
    reverse_witness: tuple[int, int] | None

    @property
    def ok(self) -> bool:
        witnesses = (
            self.identity_witness,
            self.triangle_witness,
            self.inverse_witness,
            self.reverse_witness,
        )
        return witnesses == (None, None, None, None)


def validate_norm(norm: NormTable) -> NormReport:
    """Check the three norm axioms and the reverse triangle inequality.

    The squared value must vanish exactly on identity arrows; products obey
    sqrt(sq(gh)) <= sqrt(sq(g)) + sqrt(sq(h)); inversion preserves values;
    and for arrows with a common source, |norm(h) - norm(g)| is bounded by
    the norm of inverse(g) * h. All inequalities go through sqrt_leq.

    The reverse bound follows from the triangle law and inverse invariance,
    since h = g * (inverse(g) * h) and g = h * inverse(inverse(g) * h); its
    scan runs only when one of those two laws fails, to name its witness.
    """
    groupoid = norm.groupoid
    sq = norm.sq

    identity_witness = next(
        (g for g in groupoid.arrows() if (sq[g] == 0) != groupoid.is_identity(g)), None
    )
    triangle_witness = next(
        ((g, h) for g, h, gh in groupoid.composable_pairs() if not sqrt_leq(sq[gh], sq[g], sq[h])),
        None,
    )
    inverse_witness = next(
        (g for g in groupoid.arrows() if sq[groupoid.inverse_of(g)] != sq[g]), None
    )

    reverse_witness = None
    if (triangle_witness, inverse_witness) != (None, None):
        # row inverse(g) holds inverse(g)*h for each h in by_source[source g],
        # in index order, since target(inverse g) = source(g)
        after, rows, inverse = groupoid.by_source, groupoid.rows, groupoid.inverse
        reverse_witness = next(
            (
                (g, h)
                for g in groupoid.arrows()
                for h, mid in zip(after[groupoid.source[g]], rows[inverse[g]])
                if not (sqrt_leq(sq[h], sq[g], sq[mid]) and sqrt_leq(sq[g], sq[h], sq[mid]))
            ),
            None,
        )

    return NormReport(identity_witness, triangle_witness, inverse_witness, reverse_witness)


HOLDS = "holds"
FAILS = "fails"
VACUOUS = "vacuous"
NO_WITNESS = "no_witness"


@dataclass(frozen=True)
class ConsistencyReport:
    """Consistency of ``norm`` with the congruence ``partition``.

    Condition 1: squared values are constant on classes. Condition 2:
    composing two related arrows doubles the norm, checked as
    sq(g1 g2) == 4 sq(g1) over every composable ordered pair of class
    mates. Pairs of the form (identity, itself) hold trivially; when they
    are the only composable mates, condition 2 is reported as vacuous.
    Condition 1 holds exactly when ``class_witness`` is None, and condition
    2 fails exactly when ``doubling_witness`` is not None. ``products`` is
    the class-pair grouping of composable products that the check read.
    """

    norm: NormTable
    partition: Partition
    class_witness: tuple[int, int] | None
    doubling: str  # holds | fails | vacuous
    doubling_witness: tuple[int, int] | None
    effective_pairs: int
    products: dict[tuple[int, int], list[tuple[int, int, int]]]

    @property
    def ok(self) -> bool:
        return (self.class_witness, self.doubling_witness) == (None, None)

    @cached_property
    def _witness_table(self) -> dict:
        """Firsts (g1, h1, g1*h1) and seconds (g2, h2, inverse(g2)*h2) of each
        class pair (a, b): the composable products with g1, g2 in class a and
        h1, h2 in class b, each list in lexicographic order of its first two
        entries. A class pair without products has no entry.

        Raises NotConsistent unless the norm is consistent with the partition.
        Every law that reads this table is evaluated once per class pair, which
        is exact because consistency makes sq constant on classes: 2 sq(g) +
        2 sq(h) and the witness lists are the same for every arrow pair (g, h)
        in a class pair.
        """
        groupoid = self.norm.groupoid
        if not self.ok:
            if self.class_witness is not None:
                pair, detail = self.class_witness, "norms differ inside a class"
            else:
                pair, detail = self.doubling_witness, "composing class mates does not double the norm"
            raise NotConsistent(f"{detail} at {_arrows(groupoid, pair)}")

        cls, after, rows = self.partition.class_of, groupoid.by_source, groupoid.rows
        table = {pair: (firsts, []) for pair, firsts in self.products.items()}
        # row inverse(g) holds inverse(g)*h for each h in by_source[source g],
        # in index order, so walking g in index order appends in lexicographic
        # order
        for g, k in enumerate(groupoid.inverse):
            a = cls[g]
            for h, p in zip(after[groupoid.source[g]], rows[k]):
                table.setdefault((a, cls[h]), ([], []))[1].append((g, h, p))
        return table


def consistency_check(norm: NormTable, partition: Partition) -> ConsistencyReport:
    groupoid = norm.groupoid
    sq = norm.sq

    class_witness = next(
        ((m[0], g) for m in partition.classes for g in m[1:] if sq[g] != sq[m[0]]), None
    )

    products = class_pair_products(groupoid, partition)
    doubling_witness = None
    effective = 0
    for c in range(len(partition.classes)):
        for g1, g2, prod in products.get((c, c), ()):
            if not (g1 == g2 and groupoid.is_identity(g1)):
                effective += 1
            if sq[prod] != 4 * sq[g1] and doubling_witness is None:
                doubling_witness = (g1, g2)
    if doubling_witness is not None:
        doubling = FAILS
    elif effective == 0:
        doubling = VACUOUS
    else:
        doubling = HOLDS

    return ConsistencyReport(
        norm, partition, class_witness, doubling, doubling_witness, effective, products
    )


@dataclass(frozen=True)
class ParallelogramResult:
    """Result of the parallelogram identity for one pair of arrows.

    ``witnesses_checked`` counts the quadruples (g1, g2, h1, h2) of class
    mates with g1*h1 and inverse(g2)*h2 both defined. The identity must
    hold for every one of them; a single witness suffices for the
    existential reading, but witness independence is what makes the
    polarization below well defined, so any disagreeing witness fails the
    check.
    """

    status: str  # holds | fails | no_witness
    witness: tuple[int, int, int, int] | None
    witnesses_checked: int


_NONE_CHECKED = ParallelogramResult(NO_WITNESS, None, 0)


def _parallelogram(pq, x, y, firsts, seconds) -> ParallelogramResult:
    """The identity for a class pair of squared norms x and y; pq holds each
    squared value as its reduced (numerator, denominator) pair."""
    total = len(firsts) * len(seconds)
    if total == 0:
        return _NONE_CHECKED
    # the identity holds iff both squared-value sets are one value each with
    # the right sum; a first fails at the lead second unless it meets the
    # lead's value n / d = 2x + 2y - sq(lead), compared with the denominators
    # cross-multiplied, and otherwise at the first second that differs from it
    lead = seconds[0]
    (px, qx), (py, qy), (pl, ql) = x, y, pq[lead[2]]
    n, d = 2 * (px * qy + py * qx) * ql - pl * qx * qy, qx * qy * ql
    other = next((s for s in seconds if pq[s[2]] != (pl, ql)), None)
    for g1, h1, p1 in firsts:
        p, q = pq[p1]
        failing = lead if p * d != n * q else other
        if failing is not None:
            return ParallelogramResult(FAILS, (g1, failing[0], h1, failing[1]), total)
    return ParallelogramResult(HOLDS, None, total)


def parallelogram_survey(
    consistency: ConsistencyReport,
) -> dict[tuple[int, int], ParallelogramResult]:
    """Parallelogram status per class pair (a, b) with witness products,
    evaluated on its least members; it is the status of every arrow pair in
    classes a and b, and every arrow pair of a class pair without an entry
    has no witness. Raises NotConsistent unless ``consistency`` is ok."""
    table, partition = consistency._witness_table, consistency.partition
    pq = [(x.numerator, x.denominator) for x in consistency.norm.sq]
    least = [pq[g] for g in partition.least]
    return {
        (a, b): _parallelogram(pq, least[a], least[b], firsts, seconds)
        for (a, b), (firsts, seconds) in table.items()
    }


@dataclass(frozen=True)
class PolarizeReport:
    """Validation of the polarized pairing over its defined pairs: the first
    witness of each law, which holds exactly when its witness is None."""

    symmetry_witness: tuple[int, int] | None
    cauchy_witness: tuple[int, int] | None
    additivity_witness: tuple[int, int, int] | None

    @property
    def ok(self) -> bool:
        witnesses = (self.symmetry_witness, self.cauchy_witness, self.additivity_witness)
        return witnesses == (None, None, None)


@dataclass(frozen=True, eq=False)
class PolarizedSip:
    """Real pairing recovered from a consistent norm by polarization.

    ``bihom`` is partial over the classes of the partition: it has a block
    exactly for the class pairs that admit witnesses. ``defined_pairs`` counts
    the ordered arrow pairs those blocks cover, and ``consistency`` is the
    report the pairing was built from.
    """

    bihom: Bihom
    consistency: ConsistencyReport
    defined_pairs: int
    total_pairs: int


def polarize(consistency: ConsistencyReport) -> PolarizedSip:
    """Recover a real pairing from quarter differences of witness products.

    Raises NotConsistent unless ``consistency`` is ok. For each pair (g, h)
    admitting witnesses, the value is
    (sq(g1 h1) - sq(inv(g2) h2)) / 4, computed from every witness; the
    witnesses must agree, which consistency of the norm guarantees when the
    partition really is an affine congruence. The result is not validated;
    :func:`validate_polarized` checks it.
    """
    groupoid, partition = consistency.norm.groupoid, consistency.partition
    pq = [(x.numerator, x.denominator) for x in consistency.norm.sq]

    # the quarter differences of the distinct squared products of a class
    # pair are all of its witness values: one entry when they agree
    values: dict[tuple[int, int], GaussianRational] = {}
    disagreements = {}
    for pair, (firsts, seconds) in consistency._witness_table.items():
        if not (firsts and seconds):
            continue
        found = {
            Fraction(px * qy - py * qx, 4 * qx * qy)
            for px, qx in {pq[p] for _, _, p in firsts}
            for py, qy in {pq[p] for _, _, p in seconds}
        }
        if len(found) == 1:
            values[pair] = GaussianRational(*found)
        else:
            disagreements[pair] = tuple(sorted(found))
    if disagreements:
        g, h = first_pair(partition, disagreements)
        found = disagreements[partition.class_of[g], partition.class_of[h]]
        raise WitnessDisagreement(groupoid.arrow_label(g), groupoid.arrow_label(h), found)

    sizes = [len(members) for members in partition.classes]
    return PolarizedSip(
        bihom=Bihom(groupoid, partition, values, REAL),
        consistency=consistency,
        defined_pairs=sum(sizes[a] * sizes[b] for a, b in values),
        total_pairs=groupoid.n_arrows * groupoid.n_arrows,
    )


def validate_polarized(pol: PolarizedSip) -> PolarizeReport:
    """Check the polarized pairing over its defined pairs: symmetry, the
    one-sided Cauchy-Schwarz bound in squared form (the two-sided bound
    follows because the scan also covers (inverse(g), h)), and additivity in
    the first slot. The diagonal is not checked: on a pairing that
    :func:`polarize` built, consistency fixes it to the squared norm.

    A value and the squared norms are constant on class pairs, so each law
    is decided per class pair, and its first failing arrow pair is named by
    :func:`first_pair`."""
    values, partition = pol.bihom.blocks, pol.bihom.partition
    cls, least = partition.class_of, partition.least
    groupoid, sq = pol.bihom.groupoid, pol.consistency.norm.sq
    # polarized values are real: re(v) = v.num_re / v.den, compared with the
    # squared norms with the positive denominators cleared
    num = [sq[g].numerator for g in least]
    den = [sq[g].denominator for g in least]

    asymmetric, beyond = [], []
    for (a, b), v in values.items():
        if values.get((b, a), v) != v:
            asymmetric.append((a, b))
        if v.num_re > 0 and v.num_re * v.num_re * den[a] * den[b] > num[a] * num[b] * v.den * v.den:
            beyond.append((a, b))
    symmetry = first_pair(partition, asymmetric)

    # whether an entry (x, k) is defined, and its value, depend on the classes
    # alone; so the first failing k of the arrow scan is a least member, the
    # same for every composable pair with the classes of g, h and g*h
    @cache
    def failing(x: int, y: int, z: int) -> int | None:
        for b, k in enumerate(least):
            if (z, b) in values and (x, b) in values and (y, b) in values:
                if values[z, b] != values[x, b] + values[y, b]:
                    return k
        return None

    triples = ((g, h, failing(cls[g], cls[h], cls[gh])) for g, h, gh in groupoid.composable_pairs())
    additivity_witness = next(((g, h, k) for g, h, k in triples if k is not None), None)

    return PolarizeReport(
        symmetry and min(symmetry, symmetry[::-1]),
        first_pair(partition, beyond),
        additivity_witness,
    )
