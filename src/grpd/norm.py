"""Groupoid norms in exact squared arithmetic.

Norm values are stored squared, as nonnegative rationals, because every
identity in this module is quadratic except the triangle inequalities,
and those are decided exactly by :func:`grpd.scalars.sqrt_leq`. The norm
induced by a semi-inner product, consistency with a congruence, and the
polarization reconstruction from class witnesses all live here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from typing import Sequence

from .errors import NotConsistent, NotSip, WitnessDisagreement
from .groupoid import FiniteGroupoid, _arrows
from .homs import Partition, class_pair_products, partition_by
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
    # each bound is decided once per triple of distinct squared values: n[g]
    # numbers the value of arrow g, and leq(a, b, c) is sqrt(value[a]) <=
    # sqrt(value[b]) + sqrt(value[c])
    numbering = partition_by(sq)
    n, value = numbering.class_of, [sq[g] for g in numbering.least]

    @cache
    def leq(a: int, b: int, c: int) -> bool:
        return sqrt_leq(value[a], value[b], value[c])

    triangle_witness = next(
        ((g, h) for g, h, gh in groupoid.composable_pairs() if not leq(n[gh], n[g], n[h])),
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
                if not (leq(n[h], n[g], n[mid]) and leq(n[g], n[h], n[mid]))
            ),
            None,
        )

    return NormReport(identity_witness, triangle_witness, inverse_witness, reverse_witness)


HOLDS = "holds"
FAILS = "fails"
VACUOUS = "vacuous"


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
