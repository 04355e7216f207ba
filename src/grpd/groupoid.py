"""Finite groupoid data model with exact axiom validation.

A groupoid is stored as explicit tables over dense integer indices:
source and target maps, inverses, one identity arrow per object, and
composition as product rows: ``rows[g]`` holds ``g * h`` for each arrow
``h`` that can follow ``g``, in index order, at the place ``at[h]``.
Validation fills the rows as it reads the compose triples, a row at a time
when they come in the (f, g) order that documents are written in.
Composition is diagrammatic: ``g * h`` is defined exactly when
``target(g) == source(h)``, and then ``source(g*h) == source(g)`` and
``target(g*h) == target(h)``.

Instances are immutable once validated; every query is read-only.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import Callable, Iterator, Sequence

from .errors import (
    BadCompositionDomain,
    BadInverse,
    CapExceeded,
    DanglingReference,
    MissingIdentity,
    NotAssociative,
    NotComposable,
    UnknownArrow,
    UnknownObject,
    _clip,
    _echo,
)

OBJECT_CAP = 64
DEFAULT_ARROW_CAP = 4096
ARROW_CAP_ENV = "GRPD_MAX_ARROWS"


def arrow_cap() -> int:
    """Arrow cap, overridable through the GRPD_MAX_ARROWS environment variable."""
    raw = os.environ.get(ARROW_CAP_ENV)
    if raw is None:
        return DEFAULT_ARROW_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise CapExceeded(f"{ARROW_CAP_ENV} must be an integer, got {raw!r}") from None
    if cap < 1:
        raise CapExceeded(f"{ARROW_CAP_ENV} must be positive, got {cap}")
    return cap


def check_caps(n_objects: int, n_arrows: int) -> None:
    """Raise CapExceeded when a groupoid of this size is past a cap."""
    if n_objects > OBJECT_CAP:
        raise CapExceeded(f"{n_objects} objects exceeds the cap of {OBJECT_CAP}")
    cap = arrow_cap()
    if n_arrows > cap:
        raise CapExceeded(f"{n_arrows} arrows exceeds the cap of {cap}")


@dataclass
class RawGroupoid:
    """Unvalidated groupoid data, as read from a document or a generator.

    ``compose`` lists triples ``(f, g, fg)`` of arrow labels. ``inverse``
    and ``identity`` are optional; when present they are cross-checked
    against the derived maps.
    """

    objects: list[str]
    arrows: list[tuple[str, str, str]]  # (label, source, target)
    compose: Sequence[Sequence[str]]  # triples, such as lists parsed from JSON
    inverse: dict[str, str] | None = None
    identity: dict[str, str] | None = None


@dataclass(frozen=True, eq=False)
class FiniteGroupoid:
    """A validated finite groupoid. Construct through :func:`validate_groupoid`."""

    object_labels: tuple[str, ...]
    arrow_labels: tuple[str, ...]
    arrow_indices: dict[str, int]  # arrow label -> arrow index
    source: tuple[int, ...]
    target: tuple[int, ...]
    by_source: tuple[tuple[int, ...], ...]  # object -> arrows from it, in index order
    by_target: tuple[tuple[int, ...], ...]  # object -> arrows into it, in index order
    rows: tuple[tuple[int, ...], ...]  # rows[g][at[h]] is g*h, h in by_source[target[g]]
    at: tuple[int, ...]
    inverse: tuple[int, ...]
    identity: tuple[int, ...]  # object index -> identity arrow index
    # with the identities, every arrow is a left-bracketed product of these
    generators: tuple[int, ...]

    # --- basic queries ---

    @property
    def n_objects(self) -> int:
        return len(self.object_labels)

    @property
    def n_arrows(self) -> int:
        return len(self.arrow_labels)

    def objects(self) -> range:
        return range(self.n_objects)

    def arrows(self) -> range:
        return range(self.n_arrows)

    def object_label(self, p: int) -> str:
        return self.object_labels[p]

    def arrow_label(self, g: int) -> str:
        return self.arrow_labels[g]

    def object_index(self, label: str) -> int:
        try:
            return self.object_labels.index(label)
        except ValueError:
            raise UnknownObject(label) from None

    def arrow_index(self, label: str) -> int:
        try:
            return self.arrow_indices[label]
        except (KeyError, TypeError):
            raise UnknownArrow(label) from None

    def is_identity(self, g: int) -> bool:
        return self.identity[self.source[g]] == g

    # --- arrow algebra ---

    def compose(self, g: int, h: int) -> int:
        if self.target[g] != self.source[h]:
            raise NotComposable(self.arrow_labels[g], self.arrow_labels[h])
        return self.rows[g][self.at[h]]

    def inverse_of(self, g: int) -> int:
        return self.inverse[g]

    def composable_pairs(self) -> Iterator[tuple[int, int, int]]:
        """(g, h, g*h) for every composable pair, in lexicographic arrow-index order."""
        after, target = self.by_source, self.target
        return (
            (g, h, gh) for g, row in enumerate(self.rows) for h, gh in zip(after[target[g]], row)
        )

    def failing_deciding_pairs(self, fails: Callable[[int, int, int], bool]) -> Iterator[tuple]:
        """The deciding pairs at which ``fails`` holds, in order: (e, e, e) for each
        identity e, then (g, h, g*h) for each generator h and each g into source(h),
        which decide an additive law (see :meth:`first_failing_pair`)."""
        rows, at, into, source = self.rows, self.at, self.by_target, self.source
        for e in self.identity:
            if fails(e, e, e):
                yield e, e, e
        for h in self.generators:
            for g in into[source[h]]:
                if fails(g, h, gh := rows[g][at[h]]):
                    yield g, h, gh

    def first_failing_pair(self, fails: Callable[[int, int, int], bool]) -> tuple | None:
        """The first composable (g, h, g*h) in lexicographic order where ``fails``
        finds v(g*h) != v(g) + v(h), v into a commutative group, or None. Passing at
        each (e, e, e) gives v(e) = 0; the middle arrows h that pass for all g into
        source(h) then include the identities and are closed under composition, as
        v(g*(h*k)) = v(g*h) + v(k) = v(g) + v(h*k), and every arrow is a product of
        identities and generators, so passing at the deciding pairs decides the law.
        Only on failure does the full scan run, to name the witness."""
        if any(self.failing_deciding_pairs(fails)):
            return next(pair for pair in self.composable_pairs() if fails(*pair))
        return None

    def is_transitive(self) -> bool:
        """True when every ordered pair of objects is joined by an arrow."""
        seen = {(self.source[g], self.target[g]) for g in self.arrows()}
        return len(seen) == self.n_objects * self.n_objects

    def __repr__(self) -> str:
        return f"FiniteGroupoid({self.n_objects} objects, {self.n_arrows} arrows)"


def _picker(places: Sequence[int]) -> Callable[[Sequence], tuple]:
    """The entries of a sequence at ``places`` as a tuple, in one C call;
    itemgetter on one place returns the entry itself, so that is wrapped."""
    return itemgetter(*places) if len(places) > 1 else lambda line, j=places[0]: (line[j],)


def _rows_in_order(compose, labels, arr_index, source, target, by_source) -> list | None:
    """The product rows of a compose list holding one triple per composable pair
    in lexicographic (f, g) arrow-index order, each product a known arrow from
    source(f) to target(g); else None. f and g are compared with the labels due
    at each place, so only the product is looked up and each row fills in order."""
    n = len(by_source)
    if len(compose) != sum(len(by_source[t]) for t in target):
        return None
    ends = [s * n + t for s, t in zip(source, target)]
    after = [[(labels[g], target[g]) for g in row] for row in by_source]
    index, rows, triples = arr_index.__getitem__, [], iter(compose)
    try:
        for f_lab, s, t in zip(labels, source, target):
            row, base = [], s * n
            for (g_lab, d), (a, b, c) in zip(after[t], triples):
                if a != f_lab or b != g_lab or ends[fg := index(c)] != base + d:
                    return None
                row.append(fg)
            rows.append(row)
    except (KeyError, TypeError, ValueError):  # an unknown or unhashable product, a non-triple
        return None
    return rows


# witness renderers: each maps a missing witness (the law holds) to None


def _arrow(groupoid: FiniteGroupoid, witness: int | None) -> str | None:
    return None if witness is None else _clip(groupoid.arrow_label(witness))


def _arrows(groupoid: FiniteGroupoid, witness: tuple[int, ...] | None) -> str | None:
    if witness is None:
        return None
    return f"({', '.join(_arrow(groupoid, g) for g in witness)})"


def validate_groupoid(raw: RawGroupoid) -> FiniteGroupoid:
    """Check every groupoid axiom on raw tables and build a validated instance.

    Axioms are checked in a fixed order so the first violation reported is
    deterministic: references and caps, composition domain and endpoints,
    identities, associativity, inverses. Declared identity and inverse maps
    are cross-checked against the derived ones.

    A compose list in lexicographic (f, g) arrow-index order, one triple per
    composable pair as ``groupoid_to_doc`` writes it, is read by position
    (:func:`_rows_in_order`); any other, or one that read gives up on, is read
    triple by triple from the first, which alone names errors.

    The inverse of g is read off its row: the first k with g*k = e, the
    identity at source(g), whose product k*g is then checked. Once the
    identity and associative laws hold, such a k is the two-sided inverse k'
    whenever g has one, since k = (k'*g)*k = k'*(g*k) = k'*e = k'. So this
    derives the same inverses, and fails at the same arrow, as a search for a
    k with both products identities.
    """
    check_caps(len(raw.objects), len(raw.arrows))

    obj_index: dict[str, int] = {}
    for label in raw.objects:
        if label in obj_index:
            raise DanglingReference("object", label, "duplicate")
        obj_index[label] = len(obj_index)

    arr_index: dict[str, int] = {}
    source: list[int] = []
    target: list[int] = []
    for label, src, dst in raw.arrows:
        if label in arr_index:
            raise DanglingReference("arrow", label, "duplicate")
        if src not in obj_index:
            raise DanglingReference("object", src)
        if dst not in obj_index:
            raise DanglingReference("object", dst)
        arr_index[label] = len(arr_index)
        source.append(obj_index[src])
        target.append(obj_index[dst])

    labels = tuple(label for label, _, _ in raw.arrows)
    n_arrows = len(labels)

    def need_arrow(label: str) -> int:
        if label not in arr_index:
            raise DanglingReference("arrow", label)
        return arr_index[label]

    by_source: list[list[int]] = [[] for _ in raw.objects]
    by_target: list[list[int]] = [[] for _ in raw.objects]
    for g in range(n_arrows):
        by_source[source[g]].append(g)
        by_target[target[g]].append(g)

    # at[h] is the place of h in by_source[source[h]]
    at = [0] * n_arrows
    for after in by_source:
        for j, h in enumerate(after):
            at[h] = j

    rows = _rows_in_order(raw.compose, labels, arr_index, source, target, by_source)
    if rows is None:
        # rows[f] lists f*h for each h in by_source[target[f]], None until declared
        rows = [[None] * len(by_source[t]) for t in target]
        index = arr_index.get
        for f_lab, g_lab, fg_lab in raw.compose:
            f, g, fg = index(f_lab), index(g_lab), index(fg_lab)
            if f is None or g is None or fg is None:
                f, g, fg = need_arrow(f_lab), need_arrow(g_lab), need_arrow(fg_lab)
            if target[f] != source[g]:
                raise BadCompositionDomain(f_lab, g_lab, "product declared but not composable")
            row, j = rows[f], at[g]
            if row[j] is not None and row[j] != fg:
                raise BadCompositionDomain(f_lab, g_lab, "conflicting products declared")
            if source[fg] != source[f] or target[fg] != target[g]:
                raise BadCompositionDomain(
                    f_lab, g_lab, f"product {_echo(fg_lab)} has wrong endpoints"
                )
            row[j] = fg

        # the first None left in the rows is the first composable pair with no product
        for g, row in enumerate(rows):
            if None in row:
                h = by_source[target[g]][row.index(None)]
                raise BadCompositionDomain(
                    labels[g], labels[h], "composable pair has no declared product"
                )

    # identities: derive the neutral arrow at each object, then cross-check
    # any declared map
    identity: list[int] = []
    for p, p_lab in enumerate(raw.objects):
        neutral = None
        for e in by_source[p]:
            if target[e] != p:
                continue
            if rows[e] == by_source[p] and all(rows[h][at[e]] == h for h in by_target[p]):
                neutral = e
                break
        if neutral is None:
            raise MissingIdentity(p_lab)
        identity.append(neutral)
    if raw.identity is not None:
        for p_lab, e_lab in raw.identity.items():
            if p_lab not in obj_index:
                raise DanglingReference("object", p_lab)
            if identity[obj_index[p_lab]] != need_arrow(e_lab):
                raise MissingIdentity(p_lab, f"declared identity {_echo(e_lab)} is not neutral")

    # generators: each candidate not yet a left-bracketed product of identities
    # and earlier generators; `reached` is closed under right multiplication
    # by identities and generators. The candidates are first a cycle through
    # each component, each object's first arrow to the least target above it
    # or else to the least target, then every arrow in index order, so the
    # set generates whatever the order and an m-object component needs m
    # arrows beyond its vertex groups
    reached = [False] * n_arrows
    for e in identity:
        reached[e] = True
    cycle = []
    for p, after in enumerate(by_source):
        first = dict(zip(map(target.__getitem__, reversed(after)), reversed(after)))
        cycle.append(first[min((q for q in first if q > p), default=min(first))])
    generators: list[int] = []
    gens_from: list[list[int]] = [[] for _ in raw.objects]
    for a in chain(cycle, range(n_arrows)):
        if reached[a]:
            continue
        generators.append(a)
        gens_from[source[a]].append(a)
        work = [rows[x][at[a]] for x in by_target[source[a]] if reached[x]]
        while work:
            y = work.pop()
            if not reached[y]:
                reached[y] = True
                work.extend(rows[y][at[s]] for s in gens_from[target[y]])

    # (g*h)*k against g*(h*k) for all k at once: the row of g*h against row g
    # read at the places of the entries of row h, computed once per h, both in
    # by_source[target[h]] order. The middle arrows h that pass for every g and
    # k include the identities and are closed under composition, so checking
    # the generators decides the law (Light's test); on failure the full
    # lexicographic scan names the first witness.
    rows = tuple(map(tuple, rows))
    if any(
        rows[row[at[h]]] != pick(row)
        for h in generators
        for pick in (_picker([at[x] for x in rows[h]]),)
        for row in map(rows.__getitem__, by_target[source[h]])
    ):
        for g, row in enumerate(rows):
            for h, gh in zip(by_source[target[g]], row):
                left, right = rows[gh], tuple(map(row.__getitem__, map(at.__getitem__, rows[h])))
                if left != right:
                    j = next(j for j, (a, b) in enumerate(zip(left, right)) if a != b)
                    raise NotAssociative(labels[g], labels[h], labels[by_source[target[h]][j]])

    # inverses: derive from the rows (see the docstring), then cross-check
    # any declared map
    inverse: list[int] = []
    for g, row in enumerate(rows):
        try:
            k = by_source[target[g]][row.index(identity[source[g]])]
        except ValueError:
            k = None
        if k is None or rows[k][at[g]] != identity[target[g]]:
            raise BadInverse(labels[g], "no two-sided inverse")
        inverse.append(k)
    if raw.inverse is not None:
        for g_lab, k_lab in raw.inverse.items():
            if inverse[need_arrow(g_lab)] != need_arrow(k_lab):
                raise BadInverse(g_lab, f"declared inverse {_echo(k_lab)} fails the inverse law")

    return FiniteGroupoid(
        object_labels=tuple(raw.objects),
        arrow_labels=labels,
        arrow_indices=arr_index,
        source=tuple(source),
        target=tuple(target),
        by_source=tuple(map(tuple, by_source)),
        by_target=tuple(map(tuple, by_target)),
        rows=rows,
        at=tuple(at),
        inverse=tuple(inverse),
        identity=tuple(identity),
        generators=tuple(generators),
    )
