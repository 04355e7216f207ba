"""Seeded random corpus builders shared by invariant and acceptance tests.

Random groupoids are disjoint unions of transitive components, each a full
pair groupoid over its objects crossed with a cyclic isotropy group.
Homomorphisms on them combine an object potential with a character of the
isotropy group, which keeps construction additive by design; everything is
still run through the production validators.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from grpd.documents import groupoid_to_doc
from grpd.groupoid import FiniteGroupoid, RawGroupoid, validate_groupoid
from grpd.homs import (
    SIG_QI,
    SIG_Z,
    AbelianGroupSig,
    Component,
    GroupoidHom,
    validate_hom,
)
from grpd.scalars import gaussian


@dataclass
class CorpusGroupoid:
    groupoid: FiniteGroupoid
    component_of: list[int]  # object index -> component id
    members: list[list[int]]  # component id -> object indices
    isotropy: list[int]  # component id -> cyclic isotropy order


def _arrow_label(p: int, q: int, t: int) -> str:
    return f"{p}>{q}:{t}"


def random_groupoid(
    rng: random.Random,
    max_objects: int = 8,
    torsion_free: bool = False,
    max_arrows: int | None = None,
) -> CorpusGroupoid:
    while True:
        n = rng.randint(1, max_objects)
        comp_count = rng.randint(1, n)
        raw_ids = [rng.randrange(comp_count) for _ in range(n)]
        dense: dict[int, int] = {}
        component_of = [dense.setdefault(c, len(dense)) for c in raw_ids]
        members: list[list[int]] = [[] for _ in range(len(dense))]
        for p, c in enumerate(component_of):
            members[c].append(p)

        isotropy = []
        for comp in members:
            m = len(comp)
            if torsion_free:
                isotropy.append(1)
            else:
                isotropy.append(rng.choice([k for k in (1, 2, 3, 4) if m * m * k <= 96]))

        arrows = []
        compose = []
        for c, comp in enumerate(members):
            k = isotropy[c]
            for p in comp:
                for q in comp:
                    for t in range(k):
                        arrows.append((_arrow_label(p, q, t), str(p), str(q)))
            for p in comp:
                for q in comp:
                    for r in comp:
                        for s in range(k):
                            for t in range(k):
                                compose.append(
                                    (
                                        _arrow_label(p, q, s),
                                        _arrow_label(q, r, t),
                                        _arrow_label(p, r, (s + t) % k),
                                    )
                                )
        if max_arrows is not None and len(arrows) > max_arrows:
            continue
        raw = RawGroupoid(
            objects=[str(p) for p in range(n)], arrows=arrows, compose=compose
        )
        return CorpusGroupoid(validate_groupoid(raw), component_of, members, isotropy)


def _isotropy_character(rng: random.Random, k: int, modulus: int) -> int:
    """A value x with k*x = 0 mod modulus, so t -> t*x is additive on Z_k."""
    g = gcd(k, modulus)
    return (modulus // g) * rng.randrange(g)


def random_hom(rng: random.Random, cg: CorpusGroupoid, mono: bool = False) -> GroupoidHom:
    """A random homomorphism; with ``mono=True`` the kernel is forced trivial.

    Each component value of an arrow (p, q, t) is potential(p) - potential(q)
    plus a character of the isotropy part t. For the mono variant, one
    rational component gets an injective potential (separating distinct
    objects) and one modular component gets injective characters
    (separating isotropy).
    """
    g = cg.groupoid
    n = g.n_objects
    if mono:
        lcm = 1
        for k in cg.isotropy:
            lcm = lcm * k // gcd(lcm, k)
        components: list[Component] = [Component("Q")]
        if lcm > 1:
            components.append(Component("Zmod", lcm))
        potentials = [rng.sample(range(-60, 60), n), [rng.randrange(lcm or 1) for _ in range(n)]]
        characters = [[0] * len(cg.isotropy), [lcm // k for k in cg.isotropy]]
    else:
        components = []
        potentials = []
        characters = []
        for _ in range(rng.randint(1, 2)):
            kind = rng.choice(("Z", "Zmod", "Q"))
            if kind == "Zmod":
                m = rng.randint(2, 9)
                components.append(Component("Zmod", m))
                potentials.append([rng.randrange(m) for _ in range(n)])
                characters.append(
                    [_isotropy_character(rng, k, m) for k in cg.isotropy]
                )
            elif kind == "Z":
                components.append(Component("Z"))
                potentials.append([rng.randint(-5, 5) for _ in range(n)])
                characters.append([0] * len(cg.isotropy))
            else:
                components.append(Component("Q"))
                potentials.append(
                    [
                        Fraction(rng.randint(-8, 8), rng.randint(1, 4))
                        for _ in range(n)
                    ]
                )
                characters.append([0] * len(cg.isotropy))

    sig = AbelianGroupSig(tuple(components))
    values: dict[str, list] = {}
    for c, comp in enumerate(cg.members):
        k = cg.isotropy[c]
        for p in comp:
            for q in comp:
                for t in range(k):
                    entry = []
                    for i, component in enumerate(components):
                        base = potentials[i][p] - potentials[i][q] + t * characters[i][c]
                        if component.kind == "Zmod":
                            base %= component.modulus
                        entry.append(base)
                    values[_arrow_label(p, q, t)] = entry
    return validate_hom(g, values, sig)


def random_separating_family(
    rng: random.Random, cg: CorpusGroupoid
) -> list[GroupoidHom]:
    """1 to 3 Gaussian-rational homomorphisms that jointly separate identities.

    Only meaningful on torsion-free corpus groupoids: any additive scalar
    value of an isotropy element of finite order is zero.
    """
    assert all(k == 1 for k in cg.isotropy)
    n = cg.groupoid.n_objects
    while True:
        size = rng.randint(1, 3)
        potentials = [
            [
                gaussian(
                    Fraction(rng.randint(-9, 9), rng.randint(1, 3)),
                    Fraction(rng.randint(-9, 9), rng.randint(1, 3)),
                )
                for _ in range(n)
            ]
            for _ in range(size)
        ]
        separated = all(
            len({tuple((pots[p].re, pots[p].im) for pots in potentials) for p in comp})
            == len(comp)
            for comp in cg.members
        )
        if not separated:
            continue
        return [potential_theta(cg, pots) for pots in potentials]


def potential_theta(cg: CorpusGroupoid, potentials: list) -> GroupoidHom:
    """The Gaussian-rational homomorphism (p, q) -> potentials[p] -
    potentials[q] on a torsion-free corpus groupoid; objects of one
    component that share a potential give non-identity arrows valued 0."""
    values = {
        _arrow_label(p, q, 0): [potentials[p] - potentials[q]]
        for comp in cg.members
        for p in comp
        for q in comp
    }
    return validate_hom(cg.groupoid, values, SIG_QI)


def scaled_theta(hom: GroupoidHom, c) -> GroupoidHom:
    """The Gaussian-rational homomorphism g -> c * hom(g) of a scalar hom."""
    groupoid = hom.groupoid
    values = {groupoid.arrow_label(g): [c * hom.values[g][0]] for g in groupoid.arrows()}
    return validate_hom(groupoid, values, SIG_QI)


def zero_theta(groupoid: FiniteGroupoid, target: AbelianGroupSig = SIG_Z) -> GroupoidHom:
    """The homomorphism that sends every arrow to zero."""
    return validate_hom(groupoid, dict.fromkeys(groupoid.arrow_labels, target.zero()), target)


def raw_groupoid(groupoid: FiniteGroupoid) -> RawGroupoid:
    """The tables of a validated groupoid as its document lists them, for
    tests that rewrite them and validate again."""
    doc = groupoid_to_doc(groupoid)
    arrows = [(a["id"], a["src"], a["dst"]) for a in doc["arrows"]]
    return RawGroupoid(doc["objects"], arrows, doc["compose"], doc["inverse"], doc["identity"])
