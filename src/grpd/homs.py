"""Homomorphisms into commutative groups, induced congruences, and their axioms.

A homomorphism assigns each arrow an element of a product of component
groups (integers, integers mod m, rationals, Gaussian rationals) so that
values add along composition. Equal values induce a partition of the
arrows; this module checks whether an arbitrary partition satisfies the
two affine-congruence axioms (closure under composition and the
parallelism exchange law) and classifies congruences as complete, simple,
or efficient.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence

from .errors import (
    EmptyList,
    MissingArrow,
    MixedGroupoids,
    NotACongruence,
    NotAdditive,
    _clip,
    _echo,
    _number,
)
from .groupoid import FiniteGroupoid
from .scalars import GaussianRational, gaussian, rational


@dataclass(frozen=True)
class Component:
    """One factor of a commutative target group.

    kind is one of "Z" (integers), "Zmod" (integers mod ``modulus``),
    "Q" (rationals), "QI" (Gaussian rationals).
    """

    kind: str
    modulus: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("Z", "Zmod", "Q", "QI"):
            raise ValueError(f"unknown component kind {self.kind!r}")
        if self.kind == "Zmod":
            if self.modulus is None or self.modulus < 2:
                raise ValueError("modular component needs a modulus >= 2")
        elif self.modulus is not None:
            raise ValueError(f"{self.kind} component takes no modulus")

    def zero(self):
        if self.kind == "Z" or self.kind == "Zmod":
            return 0
        if self.kind == "Q":
            return Fraction(0)
        return gaussian(0)

    def coerce(self, value):
        if self.kind == "Z":
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"integer component got {_echo(value)}")
            return value
        if self.kind == "Zmod":
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"modular component got {_echo(value)}")
            return value % self.modulus
        if self.kind == "Q":
            if isinstance(value, GaussianRational):
                raise ValueError("rational component got a Gaussian rational")
            return value if isinstance(value, Fraction) else rational(value)
        if isinstance(value, GaussianRational):
            return value
        return gaussian(value)

    def add(self, a, b):
        if self.kind == "Zmod":
            return (a + b) % self.modulus
        return a + b


@dataclass(frozen=True)
class AbelianGroupSig:
    """Signature of a finite product of commutative component groups."""

    components: tuple[Component, ...]

    def zero(self) -> tuple:
        return tuple(c.zero() for c in self.components)

    def coerce(self, values: Sequence) -> tuple:
        if len(values) != len(self.components):
            raise ValueError(
                f"expected {len(self.components)} component values, got {len(values)}"
            )
        return tuple(c.coerce(v) for c, v in zip(self.components, values))

    def add(self, a: tuple, b: tuple) -> tuple:
        return tuple(c.add(x, y) for c, x, y in zip(self.components, a, b))


SIG_Z = AbelianGroupSig((Component("Z"),))
SIG_Q = AbelianGroupSig((Component("Q"),))
SIG_QI = AbelianGroupSig((Component("QI"),))


def sig_zmod(m: int) -> AbelianGroupSig:
    return AbelianGroupSig((Component("Zmod", m),))


@dataclass(frozen=True, eq=False)
class GroupoidHom:
    """A validated homomorphism from a groupoid into a commutative group."""

    groupoid: FiniteGroupoid
    target: AbelianGroupSig
    values: tuple[tuple, ...]  # arrow index -> element


def validate_hom(
    groupoid: FiniteGroupoid, values: Mapping[str, Sequence] | Sequence, target: AbelianGroupSig
) -> GroupoidHom:
    """Check totality and additivity of a raw map from arrow labels to elements,
    coerced to the target, or of elements of the target's types in arrow order.

    The witness for an additivity failure is the first composable pair, in
    lexicographic arrow-index order, where the value of the product differs
    from the sum of the values (:meth:`FiniteGroupoid.first_failing_pair`):
    the least of the first failures of the integer checks, one per component.
    """
    elems = values
    if isinstance(values, Mapping):
        try:
            elems = [target.coerce(values[label]) for label in groupoid.arrow_labels]
        except KeyError as exc:
            raise MissingArrow(exc.args[0]) from None
        for label in values:
            groupoid.arrow_index(label)

    checks = map(groupoid.first_failing_pair, _additivity_checks(target, elems))
    witness = min(filter(None, checks), default=None)
    if witness is not None:
        g, h, gh = witness
        raise NotAdditive(
            *map(groupoid.arrow_label, (g, h)),
            f"value of product is {_format_element(elems[gh])}, "
            f"sum is {_format_element(target.add(elems[g], elems[h]))}",
        )
    return GroupoidHom(groupoid, target, tuple(elems))


def _additivity_checks(target: AbelianGroupSig, elems: list[tuple]) -> Iterator[Callable]:
    """One integer test of v(g*h) != v(g) + v(h) per component, and per part of
    a QI component: the residues for Zmod, else n/d with d > 0, cross-multiplied.
    A common denominator is not taken: its digits can grow with the arrow count."""
    for c, column in zip(target.components, zip(*elems)):
        if c.kind == "Zmod":
            yield lambda g, h, gh, v=column, m=c.modulus: (v[g] + v[h]) % m != v[gh]
            continue
        if c.kind == "QI":
            d = [v.den for v in column]
            parts = [v.num_re for v in column], [v.num_im for v in column]
        else:
            d = [v.denominator for v in column]
            parts = ([v.numerator for v in column],)
        for n in parts:
            yield lambda g, h, gh, n=n, d=d: (n[g] * d[h] + n[h] * d[g]) * d[gh] != n[gh] * d[g] * d[h]


def _format_element(element: tuple) -> str:
    return "(" + ", ".join(_number(str, v) for v in element) + ")"


def product_hom(homs: Sequence[GroupoidHom]) -> GroupoidHom:
    """Bundle a family of homomorphisms into one with a product target."""
    if not homs:
        raise EmptyList()
    base = homs[0].groupoid
    if any(h.groupoid is not base for h in homs[1:]):
        raise MixedGroupoids()
    if len(homs) == 1:
        return homs[0]
    sig = AbelianGroupSig(tuple(c for h in homs for c in h.target.components))
    values = tuple(
        tuple(v for h in homs for v in h.values[g]) for g in base.arrows()
    )
    return GroupoidHom(base, sig, values)


def is_monomorphism(hom: GroupoidHom) -> tuple[bool, int | None]:
    """True when only identity arrows map to zero; else the first offender."""
    zero = hom.target.zero()
    for g in hom.groupoid.arrows():
        if hom.values[g] == zero and not hom.groupoid.is_identity(g):
            return False, g
    return True, None


# --- partitions ---------------------------------------------------------------


@dataclass(frozen=True)
class Partition:
    """A partition of the arrow set in canonical form.

    Classes are sorted by their least member and each class is sorted
    ascending, so structural equality compares partitions directly.
    """

    class_of: tuple[int, ...]
    classes: tuple[tuple[int, ...], ...]

    @property
    def n_arrows(self) -> int:
        return len(self.class_of)

    def members(self, g: int) -> tuple[int, ...]:
        return self.classes[self.class_of[g]]

    @cached_property
    def least(self) -> list[int]:
        """The least member of each class, in class order."""
        return [members[0] for members in self.classes]


def partition_by(keys: Iterable[Hashable]) -> Partition:
    """The arrows grouped by equal key, the g-th key being that of arrow g.
    Numbering the keys as they first appear numbers the classes by least
    member, which is the canonical form."""
    number: dict[Hashable, int] = {}
    class_of = tuple(number.setdefault(key, len(number)) for key in keys)
    classes: list[list[int]] = [[] for _ in number]
    for g, c in enumerate(class_of):
        classes[c].append(g)
    return Partition(class_of, tuple(map(tuple, classes)))


def congruence_from_hom(hom: GroupoidHom) -> Partition:
    """Partition arrows by equal homomorphism value."""
    return partition_by(hom.values)


# --- affine congruence axioms ---------------------------------------------------


@dataclass(frozen=True)
class CongruenceReport:
    """Outcome of the two congruence axioms on ``partition``, with the first failing witness.

    The witness is the lexicographically least violating tuple
    ``(g1, g2, h1, h2)`` of arrow indices for the first axiom that fails;
    both axioms hold exactly when it is None.
    """

    groupoid: FiniteGroupoid
    partition: Partition
    axiom: str | None = None
    witness: tuple[int, int, int, int] | None = None

    @property
    def ok(self) -> bool:
        return self.witness is None

    def describe(self) -> str | None:
        """The failing axiom and its witness by label; None when both hold."""
        if self.witness is None:
            return None
        labels = tuple(_clip(self.groupoid.arrow_label(g)) for g in self.witness)
        return f"{self.axiom} fails at (g1={labels[0]}, g2={labels[1]}, h1={labels[2]}, h2={labels[3]})"


def class_pair_products(
    groupoid: FiniteGroupoid, partition: Partition
) -> dict[tuple[int, int], list[tuple[int, int, int]]]:
    """Every composable (g, h, g*h) under the class pair of (g, h), in
    lexicographic (g, h) order: the one grouping that every law over
    products of class mates reads."""
    cls = partition.class_of
    products: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
    for item in groupoid.composable_pairs():
        products.setdefault((cls[item[0]], cls[item[1]]), []).append(item)
    return products


def validate_affine_congruence(
    groupoid: FiniteGroupoid, partition: Partition
) -> CongruenceReport:
    """Check closure under composition and the parallelism exchange law.

    The scan reads composed pairs by their (class, class) bucket instead of
    enumerating raw 4-tuples: the composition axiom holds exactly when every
    bucket lands in a single class, and the parallelism axiom holds exactly
    when mirrored buckets land in the same class. Witness extraction only
    pays the quadratic cost on failing buckets.
    """
    if partition.n_arrows != groupoid.n_arrows:
        raise ValueError("partition size does not match the groupoid")
    cls = partition.class_of
    buckets = class_pair_products(groupoid, partition)

    # congruence: g1~g2, h1~h2, both products defined => products related
    best: tuple[int, int, int, int] | None = None
    for plist in buckets.values():
        if len({cls[p] for _, _, p in plist}) <= 1:
            continue
        for g1, h1, p1 in plist:
            for g2, h2, p2 in plist:
                if cls[p1] != cls[p2]:
                    cand = (g1, g2, h1, h2)
                    if best is None or cand < best:
                        best = cand
    if best is not None:
        return CongruenceReport(groupoid, partition, "congruence", best)

    # parallelism: g1~g2, h1~h2, g1*h2 and h1*g2 defined => products related
    for (ci, cj), plist in buckets.items():
        mirror = buckets.get((cj, ci))
        if mirror is None:
            continue
        if cls[plist[0][2]] == cls[mirror[0][2]]:
            continue
        for g1, h2, p1 in plist:
            for h1, g2, p2 in mirror:
                if cls[p1] != cls[p2]:
                    cand = (g1, g2, h1, h2)
                    if best is None or cand < best:
                        best = cand
    if best is not None:
        return CongruenceReport(groupoid, partition, "parallelism", best)
    return CongruenceReport(groupoid, partition)


@dataclass(frozen=True)
class CongruenceProfile:
    """Completeness and simplicity of a congruence, with first witnesses.

    Witnesses are ``(arrow, object)`` pairs: for completeness the first
    empty class-fiber scanning arrows then objects, for simplicity the
    first class-fiber with more than one member. A property holds exactly
    when its witness is None.
    """

    complete_witness: tuple[int, int] | None
    simple_witness: tuple[int, int] | None

    @property
    def efficient(self) -> bool:
        return self.complete_witness is None and self.simple_witness is None


def congruence_profile(report: CongruenceReport) -> CongruenceProfile:
    """Classify the partition that ``report`` checked; raises NotACongruence unless it is ok."""
    groupoid, partition = report.groupoid, report.partition
    if not report.ok:
        witness = tuple(groupoid.arrow_label(g) for g in report.witness)
        raise NotACongruence(report.axiom, witness)

    # each witness is the least member of the first class that fails (classes are numbered by
    # least member) with its least object; only the first class meeting an object twice is counted
    n, source = groupoid.n_objects, groupoid.source.__getitem__
    sources = [(m, set(map(source, m))) for m in partition.classes]
    complete_witness = next(
        ((m[0], min(set(range(n)).difference(s))) for m, s in sources if len(s) < n), None
    )
    twice = ((m, Counter(map(source, m))) for m, s in sources if len(s) < len(m))
    simple_witness = next(((m[0], min(p for p, c in k.items() if c > 1)) for m, k in twice), None)
    return CongruenceProfile(complete_witness, simple_witness)
