"""Generators for the built-in groupoid families and their canonical homomorphisms.

Each generator builds explicit tables and runs them through the full
validator, so generated and hand-written groupoids share one code path.
Identity arrows always come first in the arrow order; the remaining arrows
follow in lexicographic order of their defining parameters.
"""

from __future__ import annotations

from typing import Sequence

from .errors import BadParams, GroupoidError
from .groupoid import FiniteGroupoid, RawGroupoid, check_caps, validate_groupoid
from .homs import SIG_QI, SIG_Z, GroupoidHom, sig_zmod, validate_hom
from .scalars import gaussian


def _pair_raw(points: Sequence, obj, label) -> RawGroupoid:
    """Pair groupoid tables on ``points``: the identities label(p, p) first,
    then one arrow label(p, q) for each ordered pair of distinct points,
    with label(p, q) * label(q, r) = label(p, r) for every triple."""
    return RawGroupoid(
        objects=[obj(p) for p in points],
        arrows=[(label(p, p), obj(p), obj(p)) for p in points]
        + [(label(p, q), obj(p), obj(q)) for p in points for q in points if p != q],
        compose=[
            (label(p, q), label(q, r), label(p, r)) for p in points for q in points for r in points
        ],
        inverse={label(p, q): label(q, p) for p in points for q in points},
        identity={obj(p): label(p, p) for p in points},
    )


def pair_groupoid(n: int) -> tuple[FiniteGroupoid, dict[str, GroupoidHom]]:
    """Pair groupoid on n objects: one arrow (x, y) for every ordered pair.

    The canonical homomorphism sends (x, y) to x - y in the integers.
    """
    if n < 1:
        raise BadParams(f"pair groupoid needs at least one object, got {n}")

    def label(x: int, y: int) -> str:
        return f"e{x}" if x == y else f"({x},{y})"

    groupoid = validate_groupoid(_pair_raw(range(n), str, label))
    theta = {label(x, y): [x - y] for x in range(n) for y in range(n)}
    return groupoid, {"theta": validate_hom(groupoid, theta, SIG_Z)}


def affine_cyclic(n: int) -> tuple[FiniteGroupoid, dict[str, GroupoidHom]]:
    """Arrows (p, v) over the cyclic base of order n, shifting p by v.

    (p, v) composes with (p+v, w) to (p, v+w); the canonical homomorphism
    sends (p, v) to v in the integers mod n.
    """
    if n < 1:
        raise BadParams(f"affine_cyclic needs modulus >= 1, got {n}")
    objects = [str(p) for p in range(n)]

    def label(p: int, v: int) -> str:
        return f"({p},{v})"

    arrows = [(label(p, 0), str(p), str(p)) for p in range(n)]
    arrows += [
        (label(p, v), str(p), str((p + v) % n)) for p in range(n) for v in range(1, n)
    ]
    compose = [
        (label(p, v), label((p + v) % n, w), label(p, (v + w) % n))
        for p in range(n)
        for v in range(n)
        for w in range(n)
    ]
    raw = RawGroupoid(
        objects=objects,
        arrows=arrows,
        compose=compose,
        inverse={
            label(p, v): label((p + v) % n, (-v) % n) for p in range(n) for v in range(n)
        },
        identity={str(p): label(p, 0) for p in range(n)},
    )
    groupoid = validate_groupoid(raw)
    theta = {label(p, v): [v] for p in range(n) for v in range(n)}
    sig = sig_zmod(n) if n >= 2 else SIG_Z
    return groupoid, {"theta": validate_hom(groupoid, theta, sig)}


def complex_pair(n: int) -> tuple[FiniteGroupoid, dict[str, GroupoidHom]]:
    """Pair groupoid on the n-by-n grid of objects.

    The canonical homomorphism is Gaussian-rational valued: an arrow from
    (x1, x2) to (y1, y2) maps to (x1 - y1) + (x2 - y2)i. The two integer
    coordinate homomorphisms are returned alongside it.
    """
    if n < 1:
        raise BadParams(f"complex_pair needs grid size >= 1, got {n}")
    grid = [(x1, x2) for x1 in range(n) for x2 in range(n)]

    def obj(p: tuple[int, int]) -> str:
        return f"({p[0]},{p[1]})"

    def label(p: tuple[int, int], q: tuple[int, int]) -> str:
        return f"e{obj(p)}" if p == q else f"({obj(p)},{obj(q)})"

    groupoid = validate_groupoid(_pair_raw(grid, obj, label))
    theta = {
        label(p, q): [gaussian(p[0] - q[0], p[1] - q[1])] for p in grid for q in grid
    }
    theta1 = {label(p, q): [p[0] - q[0]] for p in grid for q in grid}
    theta2 = {label(p, q): [p[1] - q[1]] for p in grid for q in grid}
    return groupoid, {
        "theta": validate_hom(groupoid, theta, SIG_QI),
        "theta1": validate_hom(groupoid, theta1, SIG_Z),
        "theta2": validate_hom(groupoid, theta2, SIG_Z),
    }


def group_groupoid(
    table: Sequence[Sequence[int]], labels: Sequence[str] | None = None
) -> tuple[FiniteGroupoid, dict[str, GroupoidHom]]:
    """One-object groupoid built from a finite group multiplication table.

    ``table[a][b]`` is the index of the product of elements a and b. The
    table must describe a group; axiom failures are reported as BadParams
    with the violated law in the message.
    """
    n = len(table)
    if n < 1:
        raise BadParams("group table must be nonempty")
    for i, row in enumerate(table):
        if len(row) != n:
            raise BadParams(f"row {i} has length {len(row)}, expected {n}")
        for v in row:
            if not 0 <= v < n:
                raise BadParams(f"table entry {v} out of range 0..{n - 1}")
    if labels is None:
        labels = [f"g{i}" for i in range(n)]
    elif len(labels) != n:
        raise BadParams(f"{len(labels)} labels for {n} elements")

    raw = RawGroupoid(
        objects=["*"],
        arrows=[(labels[i], "*", "*") for i in range(n)],
        compose=[
            (labels[a], labels[b], labels[table[a][b]])
            for a in range(n)
            for b in range(n)
        ],
    )
    try:
        groupoid = validate_groupoid(raw)
    except GroupoidError as exc:
        raise BadParams(f"table is not a group: {exc}") from exc
    return groupoid, {}


def cyclic_group_table(n: int) -> list[list[int]]:
    return [[(a + b) % n for b in range(n)] for a in range(n)]


FAMILIES = ("pair", "group", "affine_cyclic", "complex_pair")


def generate(kind: str, size: int) -> tuple[FiniteGroupoid, dict[str, GroupoidHom]]:
    """Build a named family at the given size. ``group`` means the cyclic group."""
    if not isinstance(size, int) or size < 1:
        raise BadParams(f"size must be a positive integer, got {size!r}")
    if kind not in FAMILIES:
        raise BadParams(f"unknown family {kind!r}; expected one of {', '.join(FAMILIES)}")
    # checked before any table is built: a pair table on n objects holds n**3 triples
    objects = {"group": 1, "complex_pair": size * size}.get(kind, size)
    check_caps(objects, size if kind == "group" else objects * objects)
    if kind == "pair":
        return pair_groupoid(size)
    if kind == "group":
        return group_groupoid(cyclic_group_table(size), [str(i) for i in range(size)])
    if kind == "affine_cyclic":
        return affine_cyclic(size)
    return complex_pair(size)
