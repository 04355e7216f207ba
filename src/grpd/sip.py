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
from typing import Mapping, Sequence

from .errors import (
    MixedGroupoids,
    NotBihom,
    NotScalarTarget,
    NotSeparating,
    ScalarSetNotSingleton,
)
from .groupoid import FiniteGroupoid
from .homs import GroupoidHom, Partition, partition_from_classes
from .scalars import GaussianRational, abs_sq, conj, gaussian

REAL = "real"
COMPLEX = "complex"


@dataclass(frozen=True, eq=False)
class Bihom:
    """A tabulated pairing on all arrow pairs of one groupoid.

    ``field_tag`` is "real" when every entry has zero imaginary part.
    Tables produced by polarization may be partial; everything built by
    :func:`validate_bihom` or :func:`sip_from_thetas` is total.
    """

    groupoid: FiniteGroupoid
    table: dict[tuple[int, int], GaussianRational]
    field_tag: str

    def entry(self, g: int, h: int) -> GaussianRational:
        return self.table[(g, h)]

    def row(self, g: int) -> tuple[GaussianRational, ...]:
        return tuple(self.table[(g, h)] for h in self.groupoid.arrows())

    @cached_property
    def _row_index(self) -> dict[tuple[GaussianRational, ...], tuple[int, ...]]:
        """Each distinct row of a total table, mapped to the arrows that have
        it in ascending order; built on first use and shared by the row
        partition, the fiber propositions and scalar-set lookups."""
        index: dict[tuple[GaussianRational, ...], list[int]] = {}
        for g in self.groupoid.arrows():
            index.setdefault(self.row(g), []).append(g)
        return {row: tuple(members) for row, members in index.items()}


def _field_tag(table: Mapping[tuple[int, int], GaussianRational]) -> str:
    return REAL if all(v.im == 0 for v in table.values()) else COMPLEX


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
    out = []
    for (v,) in hom.values:
        out.append(v if isinstance(v, GaussianRational) else gaussian(v))
    return out


def sip_from_thetas(
    groupoid: FiniteGroupoid, homs: Sequence[GroupoidHom]
) -> Bihom:
    """Sum of products pairing: entry (g, h) is sum_i v_i(g) * conj(v_i(h)).

    The family must jointly separate identities: a non-identity arrow on
    which every homomorphism vanishes is rejected with a witness. The
    result is a semi-inner product by construction: additive v_i make it
    additive in both slots, inner products of the vectors (v_i(g))_i are
    conjugate symmetric and obey Cauchy-Schwarz, and separation makes it
    definite. Criterion 4 of tests/test_acceptance.py checks these laws.
    """
    for hom in homs:
        if hom.groupoid is not groupoid:
            raise MixedGroupoids()
    values = [_scalar_values(hom) for hom in homs]

    for g in groupoid.arrows():
        if groupoid.is_identity(g):
            continue
        if all(vals[g].is_zero() for vals in values):
            raise NotSeparating(groupoid.arrow_label(g))

    table: dict[tuple[int, int], GaussianRational] = {}
    for g in groupoid.arrows():
        for h in groupoid.arrows():
            acc = gaussian(0)
            for vals in values:
                acc = acc + vals[g] * conj(vals[h])
            table[(g, h)] = acc
    return Bihom(groupoid, table, _field_tag(table))


def validate_bihom(
    groupoid: FiniteGroupoid, table: Mapping[tuple[int, int], GaussianRational]
) -> Bihom:
    """Check totality and two-sided additivity of an explicit table."""
    for g in groupoid.arrows():
        for h in groupoid.arrows():
            if (g, h) not in table:
                raise NotBihom(
                    "missing",
                    groupoid.arrow_label(g),
                    groupoid.arrow_label(h),
                    "-",
                )
    for g, h, gh in groupoid.composable_pairs():
        for k in groupoid.arrows():
            if table[(gh, k)] != table[(g, k)] + table[(h, k)]:
                raise NotBihom(
                    "first",
                    groupoid.arrow_label(g),
                    groupoid.arrow_label(h),
                    groupoid.arrow_label(k),
                )
        for k in groupoid.arrows():
            if table[(k, gh)] != table[(k, g)] + table[(k, h)]:
                raise NotBihom(
                    "second",
                    groupoid.arrow_label(g),
                    groupoid.arrow_label(h),
                    groupoid.arrow_label(k),
                )
    return Bihom(groupoid, dict(table), _field_tag(table))


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

    def summary(self) -> str:
        return (
            f"conjugate_symmetric={self.symmetry_witness is None}, "
            f"positive_definite={self.definiteness_witness is None}, "
            f"cauchy_schwarz={self.cauchy_witness is None}"
        )


def validate_sip(bihom: Bihom) -> SipReport:
    """Check the three semi-inner-product conditions on a validated pairing.

    Positive definiteness requires an exactly real diagonal before the sign
    test; a complex diagonal entry is a conjugate-symmetry failure at (g, g)
    and is reported there, as the root cause. Cauchy-Schwarz is decided in
    squared form: |entry|^2 <= diag(g) * diag(h).
    """
    groupoid = bihom.groupoid
    table = bihom.table

    symmetry_witness = None
    for g in groupoid.arrows():
        for h in groupoid.arrows():
            if table[(g, h)] != conj(table[(h, g)]):
                symmetry_witness = (g, h)
                break
        if symmetry_witness is not None:
            break

    definiteness_witness = None
    for g in groupoid.arrows():
        if groupoid.is_identity(g):
            continue
        diag = table[(g, g)]
        if diag.im != 0:
            continue  # surfaced by the symmetry check at (g, g)
        if diag.re <= 0:
            definiteness_witness = g
            break

    cauchy_witness = None
    for g in groupoid.arrows():
        for h in groupoid.arrows():
            if abs_sq(table[(g, h)]) > table[(g, g)].re * table[(h, h)].re:
                cauchy_witness = (g, h)
                break
        if cauchy_witness is not None:
            break

    return SipReport(bihom, symmetry_witness, definiteness_witness, cauchy_witness)


@dataclass(frozen=True)
class RowRelation:
    congruent: bool
    opposite: bool
    orthogonal: bool


def b_relate(bihom: Bihom, g1: int, g2: int) -> RowRelation:
    """Row comparison: equal rows, negated rows, and vanishing pairing."""
    congruent = True
    opposite = True
    for h in bihom.groupoid.arrows():
        a, b = bihom.table[(g1, h)], bihom.table[(g2, h)]
        if a != b:
            congruent = False
        if a != -b:
            opposite = False
        if not congruent and not opposite:
            break
    return RowRelation(
        congruent=congruent,
        opposite=opposite,
        orthogonal=bihom.table[(g1, g2)].is_zero(),
    )


def b_partition(bihom: Bihom) -> Partition:
    """Partition arrows by equal pairing rows; it is checked like any other
    congruence, with ``validate_affine_congruence`` and ``congruence_profile``."""
    return partition_from_classes(bihom.groupoid.n_arrows, list(bihom._row_index.values()))


def has_unit_values(homs: Sequence[GroupoidHom]) -> bool:
    """Whether every unit vector is the value vector (v_1(g), ..., v_n(g))
    of some arrow g of the theta family."""
    vectors = set(zip(*(_scalar_values(hom) for hom in homs)))
    zero, one = gaussian(0), gaussian(1)
    return all(
        tuple(one if i == j else zero for i in range(len(homs))) in vectors
        for j in range(len(homs))
    )


def scalar_set(
    bihom: Bihom, c: GaussianRational, g: int, at_object: int | None = None
) -> tuple[int, ...]:
    """Arrows whose pairing row is c times the row of ``g``.

    Membership is decided against every arrow of the groupoid, not a
    generating subset. With ``at_object`` given, the result is intersected
    with the source fiber there and must then have at most one member.
    """
    groupoid = bihom.groupoid
    members = bihom._row_index.get(tuple(c * v for v in bihom.row(g)), ())
    if at_object is not None:
        members = [k for k in members if groupoid.source[k] == at_object]
        if len(members) > 1:
            raise ScalarSetNotSingleton(
                groupoid.object_label(at_object),
                tuple(groupoid.arrow_label(k) for k in members),
            )
    return tuple(members)


@dataclass(frozen=True)
class TransitivePropsReport:
    """Outcome of the two fiber propositions for transitive groupoids.

    ``applicable`` is False when the groupoid is not transitive, in which
    case nothing was checked. The vanishing property states that a row
    vanishing on one source fiber vanishes everywhere; the fiber-reduction
    property states that comparing rows on any single source fiber induces
    the same partition as comparing them globally. A checked property holds
    exactly when its witness is None.
    """

    applicable: bool
    vanishing_witness: tuple[int, int, int] | None = None  # (g, p, k)
    fiber_witness: int | None = None  # object s where the partitions differ

    @property
    def ok(self) -> bool:
        return self.applicable and (self.vanishing_witness, self.fiber_witness) == (None, None)


def transitive_props_check(bihom: Bihom) -> TransitivePropsReport:
    groupoid = bihom.groupoid
    if not groupoid.is_transitive():
        return TransitivePropsReport(applicable=False)

    fibers = [groupoid.source_fiber(p) for p in groupoid.objects()]

    vanishing_witness = None
    for g in groupoid.arrows():
        for p in groupoid.objects():
            if any(not bihom.table[(g, h)].is_zero() for h in fibers[p]):
                continue
            for k in groupoid.arrows():
                if not bihom.table[(g, k)].is_zero():
                    vanishing_witness = (g, p, k)
                    break
            if vanishing_witness is not None:
                break
        if vanishing_witness is not None:
            break

    # equal rows stay equal on every fiber, so the fiber partition is never
    # finer than the global one, and the two agree exactly when they have
    # the same number of classes; one representative per row class suffices
    fiber_witness = None
    for s in groupoid.objects():
        fiber_rows = {
            tuple(bihom.table[(members[0], h)] for h in fibers[s])
            for members in bihom._row_index.values()
        }
        if len(fiber_rows) != len(bihom._row_index):
            fiber_witness = s
            break

    return TransitivePropsReport(True, vanishing_witness, fiber_witness)
