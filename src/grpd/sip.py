"""Scalar pairings on a groupoid: bihomomorphisms and semi-inner products.

A bihomomorphism assigns a Gaussian-rational value to every ordered pair
of arrows and is additive over composition in each slot separately. A
semi-inner product additionally satisfies conjugate symmetry, positive
definiteness away from identities, and the Cauchy-Schwarz bound (checked
in exact squared form). Row equality under the pairing induces a partition
of the arrows, the row congruence.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, count, product
from math import lcm
from operator import add, attrgetter, floordiv, mul, ne
from typing import Iterable, Mapping, Sequence

from .errors import (
    MixedGroupoids,
    NotBihom,
    NotScalarTarget,
    NotSeparating,
    ScalarSetNotSingleton,
)
from .groupoid import FiniteGroupoid, _arrow, _arrows, _picker
from .homs import GroupoidHom, Partition, partition_by
from .scalars import GaussianRational, _triple, conj, inner

REAL = "real"
COMPLEX = "complex"


@dataclass(frozen=True, eq=False)
class Bihom:
    """A pairing on the arrow pairs of one groupoid, stored per class pair.

    Entry (g, h) is ``blocks[c(g), c(h)]``, where c is the class map of
    ``partition``. A pairing built by :func:`sip_from_thetas` has one class
    per value vector and keeps each arrow's vector in ``vectors``; an
    explicit table has one class per arrow and None there. Pairings produced
    by polarization are partial: a class pair without witnesses has no
    block. ``field_tag`` is "real" when every entry has zero imaginary part.
    """

    groupoid: FiniteGroupoid
    partition: Partition
    blocks: dict[tuple[int, int], GaussianRational]
    field_tag: str
    vectors: tuple[tuple[GaussianRational, ...], ...] | None = None

    def entry(self, g: int, h: int) -> GaussianRational:
        cls = self.partition.class_of
        return self.blocks[cls[g], cls[h]]

    @cached_property
    def table(self) -> dict[tuple[int, int], GaussianRational]:
        """Every defined entry by arrow pair, in lexicographic order, built
        when first read."""
        arrows, cls, blocks = self.groupoid.arrows(), self.partition.class_of, self.blocks
        pairs = ((g, h) for g in arrows for h in arrows if (cls[g], cls[h]) in blocks)
        return {(g, h): blocks[cls[g], cls[h]] for g, h in pairs}

    @cached_property
    def rows(self) -> tuple[tuple[GaussianRational, ...], ...]:
        """Each arrow's vector, compared in place of its pairing row: the
        value vector of a theta pairing, the row itself of a table. Read by
        :func:`b_partition`, :func:`b_relate` and :func:`scalar_set`, and
        built on first use.

        A pairing T(g, h) = <v(g), v(h)> = sum_i v_i(g) * conj(v_i(h)) has
        row g = c * row h exactly when v(g) = c * v(h): if the rows agree,
        x = v(g) - c * v(h) lies in the span of the value vectors and is
        orthogonal to each of them, so <x, x> = 0 and x = 0; the converse
        is linearity in the first slot.
        """
        if self.vectors is not None:
            return self.vectors
        arrows = self.groupoid.arrows()
        return tuple(tuple(self.entry(g, h) for h in arrows) for g in arrows)


def first_pair(partition: Partition, failing: Iterable[tuple[int, int]]) -> tuple[int, int] | None:
    """The first arrow pair in lexicographic order on which a law fails, given
    the class pairs of ``partition`` where it fails: as classes are numbered
    by their least member, it is the least members of the least failing
    class pair."""
    pair = min(failing, default=None)
    return None if pair is None else (partition.least[pair[0]], partition.least[pair[1]])


_den, _re, _im = attrgetter("den"), attrgetter("num_re"), attrgetter("num_im")


def _field_tag(values: Iterable[GaussianRational]) -> str:
    return COMPLEX if any(map(_im, values)) else REAL


def _scalar_values(hom: GroupoidHom) -> list[GaussianRational]:
    if len(hom.target.components) != 1:
        raise NotScalarTarget(
            "pairing construction needs scalar-valued homomorphisms; "
            f"got {len(hom.target.components)} components"
        )
    kind = hom.target.components[0].kind
    if kind == "Zmod":
        raise NotScalarTarget(
            "a modular component has no additive embedding into the scalars"
        )
    if kind == "QI":
        return [v for (v,) in hom.values]
    # Z and Q values are ints and Fractions in lowest terms, so reduced triples
    return [_triple(v.numerator, 0, v.denominator) for (v,) in hom.values]


def theta_vectors(
    groupoid: FiniteGroupoid, homs: Sequence[GroupoidHom]
) -> tuple[tuple[GaussianRational, ...], ...]:
    """Each arrow's value vector (v_1(g), ..., v_n(g)) under a family of scalar
    homomorphisms on ``groupoid`` that jointly separate identities; a
    non-identity arrow on which all of them vanish is the witness."""
    for hom in homs:
        if hom.groupoid is not groupoid:
            raise MixedGroupoids()
    values = [_scalar_values(hom) for hom in homs]
    vectors = tuple(tuple(vals[g] for vals in values) for g in groupoid.arrows())

    for g in groupoid.arrows():
        v = vectors[g]
        if not (any(map(_re, v)) or any(map(_im, v)) or groupoid.is_identity(g)):
            raise NotSeparating(groupoid.arrow_label(g))
    return vectors


def _gram_field_tag(groupoid: FiniteGroupoid, vectors: Sequence[tuple]) -> str:
    """The field tag of the Gram pairing T(g, h) = <v(g), v(h)> of the value
    vectors of a theta family, read on pairs of generators alone.

    T is biadditive, as v(g*h) = v(g) + v(h), and T(e, x) = T(x, e) = 0 at
    every identity e, as v(e) = 0. Every arrow is a left-bracketed product of
    identities and ``groupoid.generators``, so each T(g, h) is a sum of
    values T(a, b) on generators, and Im T vanishes everywhere exactly when
    it vanishes on generator pairs. T(a, a) = |v(a)|^2 is real and Im T(b, a)
    = -Im T(a, b), so the pairs of distinct generator vectors decide it. When
    every value is real, so is every inner product, and none is taken.
    """
    if not any(map(_im, chain.from_iterable(vectors))):
        return REAL
    distinct = list(dict.fromkeys(vectors[a] for a in groupoid.generators))
    imaginary = (inner(u, w).num_im for i, u in enumerate(distinct) for w in distinct[i + 1 :])
    return COMPLEX if any(imaginary) else REAL


def sip_from_thetas(
    groupoid: FiniteGroupoid, homs: Sequence[GroupoidHom]
) -> Bihom:
    """Sum of products pairing: entry (g, h) is sum_i v_i(g) * conj(v_i(h)),
    one block per pair of distinct vectors of :func:`theta_vectors`.

    The result is a semi-inner product by construction: additive v_i make it
    additive in both slots, inner products of the vectors are conjugate
    symmetric and obey Cauchy-Schwarz, and separation makes it definite.
    Criterion 4 of tests/test_acceptance.py checks these laws; ``report
    --all`` reads its lines from this theorem and builds no pairing.
    """
    vectors = theta_vectors(groupoid, homs)

    # an entry depends only on the two value vectors: one class per distinct
    # vector and one block per class pair, summed once per unordered pair
    # with the mirrored block its conjugate
    partition = partition_by(vectors)
    distinct = [vectors[g] for g in partition.least]
    blocks: dict[tuple[int, int], GaussianRational] = {}
    for i, u in enumerate(distinct):
        for j in range(i, len(distinct)):
            blocks[i, j] = z = inner(u, distinct[j])
            blocks[j, i] = conj(z)
    return Bihom(groupoid, partition, blocks, _gram_field_tag(groupoid, vectors), vectors)


def validate_bihom(
    groupoid: FiniteGroupoid,
    table: Sequence[Sequence[GaussianRational]] | Mapping[tuple[int, int], GaussianRational],
) -> Bihom:
    """Check totality and two-sided additivity of an explicit table, given by
    rows in arrow order or by arrow pairs. The witness is the first composable
    (g, h) in lexicographic order that fails a slot, the first slot before the
    second, with the least failing k.

    The first slot's law at k compares entries of column k only, so each
    column is put over its own common denominator and g gets the integer
    line of its row; the second slot's law at k compares entries of row k
    only, so each row is put over its own and g gets its column. Line g is
    built at once, row g over the column lcms joined with column g over the
    row lcms, and the lines make one hom into integer lines
    (FiniteGroupoid.first_failing_pair); real and imaginary parts alternate,
    so the first differing position halved is n*slot + k.
    Each position is itself a hom into Z, so a failing table is scanned
    only at the positions where a deciding pair fails.
    """
    arrows = groupoid.arrows()
    if isinstance(table, Mapping):
        try:
            table = [[table[g, h] for h in arrows] for g in arrows]
        except KeyError:
            missing = next((g, h) for g in arrows for h in arrows if (g, h) not in table)
            raise NotBihom("missing", *map(groupoid.arrow_label, missing)) from None
    n, dens = len(arrows), [list(map(_den, row)) for row in table]
    row_lcms, col_lcms, lines = [lcm(*d) for d in dens], list(map(lcm, *dens)), []
    for row, den, col, col_den in zip(table, dens, zip(*table), zip(*dens)):
        a, b = list(map(floordiv, col_lcms, den)), list(map(floordiv, row_lcms, col_den))
        line = [0] * (4 * n)
        line[: 2 * n : 2] = map(mul, map(_re, row), a)
        line[1 : 2 * n : 2] = map(mul, map(_im, row), a)
        line[2 * n :: 2] = map(mul, map(_re, col), b)
        line[2 * n + 1 :: 2] = map(mul, map(_im, col), b)
        lines.append(line)
    sums = lambda g, h: map(add, lines[g], lines[h])  # noqa: E731
    bad = groupoid.failing_deciding_pairs(lambda g, h, gh: lines[gh] != list(sums(g, h)))
    failing = {j for g, h, gh in bad for j in compress(count(), map(ne, lines[gh], sums(g, h)))}
    if failing:
        picked = list(map(_picker(sorted(failing)), lines))
        g, h, gh = groupoid.first_failing_pair(
            lambda g, h, gh: picked[gh] != tuple(map(add, picked[g], picked[h]))
        )
        j = next(j for j, (x, y, z) in enumerate(zip(lines[gh], lines[g], lines[h])) if x != y + z)
        slot, k = divmod(j // 2, n)
        raise NotBihom(("first", "second")[slot], *map(groupoid.arrow_label, (g, h, k)))
    blocks = dict(zip(product(arrows, arrows), chain.from_iterable(table)))
    return Bihom(groupoid, partition_by(arrows), blocks, _field_tag(blocks.values()))


@dataclass(frozen=True)
class SipReport:
    """First witness of each semi-inner-product condition on ``bihom``; a
    condition holds exactly when its witness is None."""

    bihom: Bihom
    symmetry_witness: tuple[int, int] | None
    definiteness_witness: int | None
    cauchy_witness: tuple[int, int] | None

    @property
    def is_sip(self) -> bool:
        witnesses = (self.symmetry_witness, self.definiteness_witness, self.cauchy_witness)
        return witnesses == (None, None, None)

    def laws(self) -> tuple[tuple[str, str | None], ...]:
        """Each condition's name and its witness in labels, None when it
        holds, in report order."""
        groupoid = self.bihom.groupoid
        return (
            ("conjugate_symmetry", _arrows(groupoid, self.symmetry_witness)),
            ("positive_definiteness", _arrow(groupoid, self.definiteness_witness)),
            ("cauchy_schwarz", _arrows(groupoid, self.cauchy_witness)),
        )


def validate_sip(bihom: Bihom) -> SipReport:
    """Check the three semi-inner-product conditions on a validated pairing.

    Positive definiteness requires an exactly real diagonal before the sign
    test; a complex diagonal entry is a conjugate-symmetry failure at (g, g)
    and is reported there, as the root cause. Cauchy-Schwarz is decided in
    squared form: |entry|^2 <= diag(g) * diag(h). Entries are constant on
    class pairs, so symmetry and Cauchy-Schwarz are decided once per class
    pair and name their witness with :func:`first_pair`.
    """
    groupoid, blocks, partition = bihom.groupoid, bihom.blocks, bihom.partition
    diagonal = [blocks[c, c] for c in range(len(partition.classes))]

    # reduced triples are compared directly, and |z|^2 > re(diag a) *
    # re(diag b) with the positive denominators cleared
    asymmetric, beyond = [], []
    for (a, b), z in blocks.items():
        w, x, y = blocks[b, a], diagonal[a], diagonal[b]
        if z.num_re != w.num_re or z.num_im != -w.num_im or z.den != w.den:
            asymmetric.append((a, b))
        lhs = (z.num_re * z.num_re + z.num_im * z.num_im) * x.den * y.den
        if lhs > x.num_re * y.num_re * z.den * z.den:
            beyond.append((a, b))

    # a complex diagonal is surfaced by the symmetry check at (g, g)
    bad = {c for c, x in enumerate(diagonal) if not x.num_im and x.num_re <= 0}
    definiteness_witness = next(
        (g for g, c in enumerate(partition.class_of) if c in bad and not groupoid.is_identity(g)),
        None,
    )
    symmetry_witness = first_pair(partition, asymmetric)
    cauchy_witness = first_pair(partition, beyond)
    return SipReport(bihom, symmetry_witness, definiteness_witness, cauchy_witness)


@dataclass(frozen=True)
class RowRelation:
    congruent: bool
    opposite: bool
    orthogonal: bool


def b_relate(bihom: Bihom, g1: int, g2: int) -> RowRelation:
    """Row comparison: equal rows, negated rows, and vanishing pairing. The
    first two compare ``Bihom.rows``; a zero row is both equal and opposite
    to every zero row."""
    rows = bihom.rows
    return RowRelation(
        congruent=rows[g2] == rows[g1],
        opposite=rows[g2] == tuple(-x for x in rows[g1]),
        orthogonal=bihom.entry(g1, g2).is_zero(),
    )


def b_partition(bihom: Bihom) -> Partition:
    """Partition arrows by equal pairing rows. On a theta pairing this is the
    theta congruence (see ``Bihom.rows``); check others as any congruence."""
    return partition_by(bihom.rows)


def has_unit_values(vectors: Sequence[tuple[GaussianRational, ...]]) -> bool:
    """Whether every unit vector is the value vector (v_1(g), ..., v_n(g))
    of some arrow g of a theta family, given those vectors."""
    found, size = set(vectors), len(vectors[0])
    units = (tuple(_triple(int(i == j), 0, 1) for i in range(size)) for j in range(size))
    return all(unit in found for unit in units)


def scalar_set(
    bihom: Bihom, c: GaussianRational, g: int, at_object: int | None = None
) -> tuple[int, ...]:
    """Arrows whose pairing row is c times the row of ``g``.

    Membership is decided against every arrow of the groupoid, not a
    generating subset: each of ``Bihom.rows`` is compared with c times that
    of ``g``, computed once. With ``at_object`` given, the result is intersected
    with the source fiber there and must then have at most one member.
    """
    groupoid, rows = bihom.groupoid, bihom.rows
    target = tuple(c * x for x in rows[g])
    members = [k for k, row in enumerate(rows) if row == target]
    if at_object is not None:
        members = [k for k in members if groupoid.source[k] == at_object]
        if len(members) > 1:
            raise ScalarSetNotSingleton(
                groupoid.object_label(at_object),
                tuple(groupoid.arrow_label(k) for k in members),
            )
    return tuple(members)
