"""Seeded inputs for the benchmark workloads, and the verdicts each one implies.

A workload is a fixed rotation of grpd commands over documents written to a
work directory. The pair groupoids come from the program's own ``gen pair``
command, so the ``families`` layer runs during set-up; every other document
is written here from plain tables. The expected verdicts are worked out
from the construction with plain lexicographic scans that share no code
with grpd, so a wrong verdict or a wrong first witness counts as an error.

Values are exact: rationals are ``Fraction`` and Gaussian rationals are
``(re, im)`` pairs of them.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import gcd
from pathlib import Path
from typing import Callable

WORKLOADS = ("report_real", "report_modular", "defect_hunt")

REAL_OBJECTS = 6
REAL_BUNDLES = 8
MODULAR_BUNDLES = 12
MODULAR_ARROWS = (300, 600)
# a command costs about one unit per associativity triple (sum of m^4 k^3
# over the components) plus 16 per composable pair (sum of m^3 k^2); the
# band keeps each command near a fifth of a second and every seed alike
MODULAR_COST = (660_000, 760_000)
DEFECT_BUNDLES = 8
DEFECT_KINDS = ("validate", "congruence", "sip", "norm", "report")
# component sizes of the torsion-free unions, with as many arrows as the
# pair groupoids on 5 and 6 objects that they alternate with
UNION_SHAPES = {5: [4, 3], 6: [4, 4, 2]}

ZERO = (Fraction(0), Fraction(0))


@dataclass
class Expect:
    """What a command must print: its exit code, every check's result in
    order, and optionally the arrow labels the witness of one check names."""

    exit_code: int
    results: list[tuple[str, str]]
    witness: tuple[str, tuple[str, ...]] | None = None


@dataclass
class Command:
    argv: list[str]
    expect: Callable[[], Expect]


# --- groupoid tables ------------------------------------------------------------


@dataclass
class Tables:
    """Explicit groupoid tables over dense arrow indices."""

    objects: list[str]
    labels: list[str]
    src: list[int]
    dst: list[int]
    product: dict[tuple[int, int], int]
    inverse: list[int]
    identity: list[int]  # object index -> identity arrow

    @property
    def n(self) -> int:
        return len(self.labels)

    def is_identity(self, g: int) -> bool:
        return self.identity[self.src[g]] == g

    def composable(self) -> list[tuple[int, int]]:
        """Composable pairs in lexicographic arrow-index order."""
        by_src: list[list[int]] = [[] for _ in self.objects]
        for h in range(self.n):
            by_src[self.src[h]].append(h)
        return [(g, h) for g in range(self.n) for h in by_src[self.dst[g]]]

    def doc(self) -> dict:
        lab = self.labels
        return {
            "objects": self.objects,
            "arrows": [
                {"id": lab[g], "src": self.objects[self.src[g]], "dst": self.objects[self.dst[g]]}
                for g in range(self.n)
            ],
            "compose": [[lab[g], lab[h], lab[self.product[g, h]]] for g, h in self.composable()],
            "inverse": {lab[g]: lab[self.inverse[g]] for g in range(self.n)},
            "identity": {self.objects[p]: lab[e] for p, e in enumerate(self.identity)},
        }

    @classmethod
    def from_doc(cls, doc: dict) -> Tables:
        objects = list(doc["objects"])
        obj = {label: p for p, label in enumerate(objects)}
        labels = [a["id"] for a in doc["arrows"]]
        idx = {label: g for g, label in enumerate(labels)}
        return cls(
            objects=objects,
            labels=labels,
            src=[obj[a["src"]] for a in doc["arrows"]],
            dst=[obj[a["dst"]] for a in doc["arrows"]],
            product={(idx[f], idx[g]): idx[fg] for f, g, fg in doc["compose"]},
            inverse=[idx[doc["inverse"][label]] for label in labels],
            identity=[idx[doc["identity"][label]] for label in objects],
        )


def product_tables(shape: list[tuple[int, int]]) -> tuple[Tables, list[tuple[int, int, int, int]]]:
    """Disjoint union of pair groupoids on m objects times cyclic groups Z_k.

    Arrow (p, q, t) runs from p to q, and (p, q, s)(q, r, t) = (p, r, s + t).
    Identity arrows come first, as in the built-in families. Also returns
    (component, p, q, t) for every arrow.
    """
    cyclic = any(k > 1 for _, k in shape)
    objects: list[str] = []
    parts: list[tuple[int, int, int, int]] = []
    base = 0
    for c, (m, k) in enumerate(shape):
        members = range(base, base + m)
        base += m
        objects += [str(p) for p in members]
        parts += [(c, p, q, t) for p in members for q in members for t in range(k)]
    parts.sort(key=lambda part: (part[1] != part[2] or part[3] != 0, part))
    index = {(p, q, t): g for g, (_, p, q, t) in enumerate(parts)}

    def label(p: int, q: int, t: int) -> str:
        return f"{p}>{q}:{t}" if cyclic else f"{p}>{q}"

    src = [p for _, p, _, _ in parts]
    dst = [q for _, _, q, _ in parts]
    by_src: list[list[int]] = [[] for _ in objects]
    for h, (_, q, _, _) in enumerate(parts):
        by_src[q].append(h)
    product = {}
    for g, (c, p, q, s) in enumerate(parts):
        k = shape[c][1]
        for h in by_src[q]:
            _, _, r, t = parts[h]
            product[g, h] = index[p, r, (s + t) % k]
    tables = Tables(
        objects=objects,
        labels=[label(p, q, t) for _, p, q, t in parts],
        src=src,
        dst=dst,
        product=product,
        inverse=[index[q, p, (-t) % shape[c][1]] for c, p, q, t in parts],
        identity=[index[p, p, 0] for p in range(base)],
    )
    return tables, parts


# --- exact values -----------------------------------------------------------------


def g_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def g_sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def g_mul_conj(a, b):
    """a times the conjugate of b."""
    return (a[0] * b[0] + a[1] * b[1], a[1] * b[0] - a[0] * b[1])


def g_doc(z, real: bool):
    return str(z[0]) if real else {"re": str(z[0]), "im": str(z[1])}


def random_rational(rng: random.Random, span: int = 12) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, 4))


def random_delta(rng: random.Random, real: bool):
    """A nonzero rational, or Gaussian rational, perturbation."""
    while True:
        z = (random_rational(rng, 9), Fraction(0) if real else random_rational(rng, 9))
        if z != ZERO:
            return z


def potential_thetas(tables: Tables, members: list[list[int]], rng, count: int, real: bool):
    """``count`` object potentials, jointly injective on each component,
    as arrow values theta(x, y) = phi(x) - phi(y)."""
    while True:
        pots = [
            [
                (random_rational(rng), Fraction(0) if real else random_rational(rng))
                for _ in tables.objects
            ]
            for _ in range(count)
        ]
        if all(
            len({tuple(pot[p] for pot in pots) for p in comp}) == len(comp) for comp in members
        ):
            break
    return [
        [g_sub(pot[tables.src[g]], pot[tables.dst[g]]) for g in range(tables.n)] for pot in pots
    ]


def hom_doc(tables: Tables, values, real: bool) -> dict:
    return {
        "target": ["Q" if real else "QI"],
        "map": {tables.labels[g]: [g_doc(values[g], real)] for g in range(tables.n)},
    }


def value_classes(n: int, key) -> list[list[int]]:
    """Arrows grouped by equal key, classes ordered by their least member."""
    groups: dict = {}
    for g in range(n):
        groups.setdefault(key(g), []).append(g)
    return list(groups.values())


def class_index(n: int, classes: list[list[int]]) -> list[int]:
    out = [0] * n
    for i, members in enumerate(classes):
        for g in members:
            out[g] = i
    return out


def sq_norms(tables: Tables, thetas) -> list[Fraction]:
    return [sum((v[g][0] ** 2 + v[g][1] ** 2 for v in thetas), Fraction(0)) for g in range(tables.n)]


def pairing(tables: Tables, thetas) -> dict[tuple[int, int], tuple]:
    table = {}
    for g in range(tables.n):
        for h in range(tables.n):
            acc = ZERO
            for v in thetas:
                acc = g_add(acc, g_mul_conj(v[g], v[h]))
            table[g, h] = acc
    return table


def write(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def gen_pair(run: Callable, work: Path, n: int) -> tuple[str, Tables]:
    path = work / f"pair{n}.json"
    run(["gen", "pair", "--size", str(n), "-o", str(path)])
    return str(path), Tables.from_doc(json.loads(path.read_text(encoding="utf-8")))


# --- plain scans for the expected verdicts ---------------------------------------------


def sqrt_leq(a: Fraction, b: Fraction, c: Fraction) -> bool:
    """sqrt(a) <= sqrt(b) + sqrt(c) for nonnegative rationals."""
    if a <= b + c:
        return True
    return (a - b - c) ** 2 <= 4 * b * c


def profile_result(tables: Tables, classes: list[list[int]]) -> str:
    complete = all(len({tables.src[g] for g in members}) == len(tables.objects) for members in classes)
    simple = all(len({tables.src[g] for g in members}) == len(members) for members in classes)
    flag = lambda b: str(b).lower()  # noqa: E731
    return f"complete={flag(complete)} simple={flag(simple)} efficient={flag(complete and simple)}"


def doubling_result(tables: Tables, classes: list[list[int]], sq: list[Fraction]) -> str:
    effective = 0
    for members in classes:
        for g1 in members:
            for g2 in members:
                prod = tables.product.get((g1, g2))
                if prod is None:
                    continue
                if sq[prod] != 4 * sq[g1]:
                    return "fail"
                if not (g1 == g2 and tables.is_identity(g1)):
                    effective += 1
    return "pass" if effective else "vacuous"


def hom_witness(tables: Tables, values) -> tuple[int, int] | None:
    for g, h in tables.composable():
        if values[tables.product[g, h]] != g_add(values[g], values[h]):
            return g, h
    return None


def congruence_witness(tables: Tables, cls: list[int]) -> tuple[int, int, int, int] | None:
    """First violating (g1, g2, h1, h2), closure axiom before parallelism."""
    n = tables.n
    mates = [(a, b) for a in range(n) for b in range(n) if cls[a] == cls[b]]
    get = tables.product.get
    for compose in (lambda g1, g2, h1, h2: (get((g1, h1)), get((g2, h2))),
                    lambda g1, g2, h1, h2: (get((g1, h2)), get((h1, g2)))):
        for g1, g2 in mates:
            for h1, h2 in mates:
                x, y = compose(g1, g2, h1, h2)
                if x is not None and y is not None and cls[x] != cls[y]:
                    return g1, g2, h1, h2
    return None


def bihom_witness(tables: Tables, table) -> tuple[int, int, int] | None:
    for g, h in tables.composable():
        gh = tables.product[g, h]
        for k in range(tables.n):
            if table[gh, k] != g_add(table[g, k], table[h, k]):
                return g, h, k
        for k in range(tables.n):
            if table[k, gh] != g_add(table[k, g], table[k, h]):
                return g, h, k
    return None


def norm_results(tables: Tables, sq: list[Fraction], classes: list[list[int]]):
    """Results of the six norm-check rows, and the first triangle witness."""
    n = tables.n
    identity_zero = all((sq[g] == 0) == tables.is_identity(g) for g in range(n))
    triangle = next(
        ((g, h) for g, h in tables.composable() if not sqrt_leq(sq[tables.product[g, h]], sq[g], sq[h])),
        None,
    )
    inverse = all(sq[tables.inverse[g]] == sq[g] for g in range(n))
    reverse = True
    for g in range(n):
        for h in range(n):
            if tables.src[g] == tables.src[h]:
                mid = tables.product[tables.inverse[g], h]
                if not (sqrt_leq(sq[h], sq[g], sq[mid]) and sqrt_leq(sq[g], sq[h], sq[mid])):
                    reverse = False
    class_norms = all(sq[g] == sq[members[0]] for members in classes for g in members)
    verdict = lambda b: "pass" if b else "fail"  # noqa: E731
    results = [
        ("identity_zero", verdict(identity_zero)),
        ("triangle", verdict(triangle is None)),
        ("inverse_invariance", verdict(inverse)),
        ("reverse_triangle", verdict(reverse)),
        ("consistency_class_norms", verdict(class_norms)),
        ("consistency_doubling", doubling_result(tables, classes, sq)),
    ]
    return results, triangle


# --- report_real -------------------------------------------------------------------


def expect_report_real(tables: Tables, thetas) -> Expect:
    n = tables.n
    classes = value_classes(n, lambda g: tuple(v[g] for v in thetas))
    units = all(
        any(v[h] == (Fraction(1), Fraction(0)) and all(w[h] == ZERO for w in thetas if w is not v) for h in range(n))
        for v in thetas
    )
    results = [(name, "pass") for name in (
        "groupoid_axioms", "hom_valid", "theta_congruence_axioms")]
    results.append(("profile", profile_result(tables, classes)))
    results += [(name, "pass") for name in (
        "monomorphism_implies_simple", "sip_construction", "sip_conjugate_symmetry",
        "sip_positive_definiteness", "sip_cauchy_schwarz", "row_congruence_axioms",
        "row_congruence_simple")]
    results.append(("row_partition_matches_hom", "pass" if units else "not_applicable"))
    results += [(name, "pass") for name in (
        "transitive_fiber_props", "identity_zero", "triangle", "inverse_invariance",
        "reverse_triangle", "consistency_class_norms")]
    results.append(("consistency_doubling", doubling_result(tables, classes, sq_norms(tables, thetas))))
    results += [(name, "pass") for name in (
        "parallelogram", "polarization_round_trip", "scalar_set_zero_is_identities",
        "scalar_set_imaginary_empty", "conjugate_scalar_law", "norm_scaling_law")]
    return Expect(0, results)


def build_report_real(rng: random.Random, work: Path, run: Callable) -> list[Command]:
    path, tables = gen_pair(run, work, REAL_OBJECTS)
    members = [list(range(len(tables.objects)))]
    commands = []
    for b in range(REAL_BUNDLES):
        thetas = potential_thetas(tables, members, rng, 1 + b % 2, real=True)
        paths = [write(work / f"real{b}.theta{j}.json", hom_doc(tables, v, True)) for j, v in enumerate(thetas)]
        commands.append(Command(
            ["report", "--all", path, "--thetas", *paths, "--format", "json"],
            partial(expect_report_real, tables, thetas),
        ))
    return commands


# --- report_modular ------------------------------------------------------------------


def modular_shape(rng: random.Random) -> list[tuple[int, int]]:
    while True:
        shape = [(rng.randint(2, 16), rng.randint(1, 12)) for _ in range(rng.randint(1, 3))]
        arrows = sum(m * m * k for m, k in shape)
        cost = sum(m**4 * k**3 + 16 * m**3 * k**2 for m, k in shape)
        if (MODULAR_ARROWS[0] <= arrows <= MODULAR_ARROWS[1]
                and MODULAR_COST[0] <= cost <= MODULAR_COST[1]):
            return shape


def expect_report_modular(tables: Tables, values: list[int]) -> Expect:
    classes = value_classes(tables.n, lambda g: values[g])
    mono = all(values[g] != 0 or tables.is_identity(g) for g in range(tables.n))
    return Expect(0, [
        ("groupoid_axioms", "pass"),
        ("hom_valid", "pass"),
        ("theta_congruence_axioms", "pass"),
        ("profile", profile_result(tables, classes)),
        ("monomorphism_implies_simple", "pass" if mono else "not_applicable"),
        ("sip_construction", "not_applicable"),
    ])


def build_report_modular(rng: random.Random, work: Path, run: Callable) -> list[Command]:
    commands = []
    for b in range(MODULAR_BUNDLES):
        shape = modular_shape(rng)
        tables, parts = product_tables(shape)
        modulus = rng.randint(2, 12)
        potential = [rng.randrange(modulus) for _ in tables.objects]
        # t -> t * chi is additive on Z_k exactly when k * chi = 0 mod the modulus
        chars = []
        for _, k in shape:
            d = gcd(k, modulus)
            chars.append(modulus // d * rng.randrange(d))
        values = [(potential[p] - potential[q] + t * chars[c]) % modulus for c, p, q, t in parts]
        path = write(work / f"modular{b}.json", tables.doc())
        theta = write(work / f"modular{b}.theta.json", {
            "target": [{"mod": modulus}],
            "map": {tables.labels[g]: [values[g]] for g in range(tables.n)},
        })
        commands.append(Command(
            ["report", "--all", path, "--thetas", theta, "--format", "json"],
            partial(expect_report_modular, tables, values),
        ))
    return commands


# --- defect_hunt -----------------------------------------------------------------------


def defect_bundle(b: int, at: dict[str, float], rng: random.Random, work: Path, run: Callable) -> list[Command]:
    """One groupoid with a theta family, and one planted defect per command.

    ``at`` gives each command's defect position as a fraction of its table.
    """
    # bundles 4i .. 4i+3: pair 5, union of 25 arrows, pair 6, union of 36
    real = b % 2 == 0
    side = 5 + b // 2 % 2
    if real:
        path, tables = gen_pair(run, work, side)
        members = [list(range(len(tables.objects)))]
    else:
        sizes = UNION_SHAPES[side]
        tables, _ = product_tables([(m, 1) for m in sizes])
        members = [list(range(sum(sizes[:c]), sum(sizes[: c + 1]))) for c in range(len(sizes))]
        path = write(work / f"union{b}.json", tables.doc())
    n = tables.n
    thetas = potential_thetas(tables, members, rng, 1 + b // 4 % 2, real)
    classes = value_classes(n, lambda g: tuple(v[g] for v in thetas))
    cls = class_index(n, classes)
    big = [m for m in members if len(m) >= 3]
    commands = []

    # validate: one composition entry gets a product with the wrong endpoints
    doc = tables.doc()
    i = int(at["validate"] * len(doc["compose"]))
    f, g, _ = doc["compose"][i]
    fi, gi = tables.labels.index(f), tables.labels.index(g)
    wrong = [k for k in range(n) if (tables.src[k], tables.dst[k]) != (tables.src[fi], tables.dst[gi])]
    doc["compose"][i] = [f, g, tables.labels[rng.choice(wrong)]]
    commands.append(Command(
        ["validate", write(work / f"bundle{b}.bad.json", doc), "--format", "json"],
        partial(expect_validate, doc),
    ))

    # congruence: one arrow moved to another class
    a = int(at["congruence"] * n)
    while True:
        moved = list(cls)
        moved[a] = rng.choice([c for c in range(len(classes)) if c != cls[a]])
        if congruence_witness(tables, moved) is not None:
            break
        a = (a + 1) % n
    part = {"classes": [[tables.labels[g] for g in range(n) if moved[g] == c] for c in range(len(classes))]}
    part["classes"] = [c for c in part["classes"] if c]
    commands.append(Command(
        ["congruence", path, "--partition", write(work / f"bundle{b}.moved.json", part),
         "--check-axioms", "--format", "json"],
        partial(expect_congruence, tables, moved, len(part["classes"])),
    ))

    # sip check: one pairing entry between non-identity arrows changed. The
    # additivity scan finds it when it reaches the arrows out of the entry's
    # source object, so the strata spread that object
    table = pairing(tables, thetas)
    sources = [q for m in members if len(m) > 1 for q in m]
    q = sources[int(at["sip"] * len(sources))]
    moving = [g for g in range(n) if not tables.is_identity(g)]
    entry = (
        rng.choice([g for g in moving if tables.src[g] == q]),
        rng.choice([g for g in moving if tables.src[g] >= q]),
    )
    table[entry] = g_add(table[entry], random_delta(rng, real))
    table_doc = {"table": {
        tables.labels[g]: {tables.labels[h]: g_doc(table[g, h], False) for h in range(n)}
        for g in range(n)
    }}
    commands.append(Command(
        ["sip", "check", path, "--table", write(work / f"bundle{b}.table.json", table_doc),
         "--format", "json"],
        partial(expect_sip_table, tables, table),
    ))

    # norm check: one squared norm, and its inverse's, made far too large
    sq = sq_norms(tables, thetas)
    eligible = [g for g in range(n) if not tables.is_identity(g) and any(tables.src[g] in m for m in big)]
    a = eligible[int(at["norm"] * len(eligible))]
    sq[a] = sq[tables.inverse[a]] = 9 * max(sq) + rng.randint(1, 9)
    sq_doc = {"sq": {tables.labels[g]: str(sq[g]) for g in range(n)}}
    lam_doc = {"classes": [[tables.labels[g] for g in members] for members in classes]}
    commands.append(Command(
        ["norm", "check", path, "--sq", write(work / f"bundle{b}.sq.json", sq_doc),
         "--lambda", write(work / f"bundle{b}.lambda.json", lam_doc), "--format", "json"],
        partial(expect_norm, tables, sq, classes),
    ))

    # report: one theta value changed
    j = rng.randrange(len(thetas))
    bad = list(thetas[j])
    a = int(at["report"] * n)
    bad[a] = g_add(bad[a], random_delta(rng, real))
    paths = [
        write(work / f"bundle{b}.report.theta{t}.json", hom_doc(tables, bad if t == j else v, real))
        for t, v in enumerate(thetas)
    ]
    commands.append(Command(
        ["report", "--all", path, "--thetas", *paths, "--format", "json"],
        partial(expect_report_defect, tables, bad),
    ))
    return commands


def expect_validate(doc: dict) -> Expect:
    ends = {a["id"]: (a["src"], a["dst"]) for a in doc["arrows"]}
    for f, g, fg in doc["compose"]:
        if ends[fg] != (ends[f][0], ends[g][1]):
            return Expect(1, [("groupoid_axioms", "fail")], ("groupoid_axioms", (f, g)))
    raise AssertionError("planted composition defect not found")


def expect_congruence(tables: Tables, cls: list[int], n_classes: int) -> Expect:
    witness = congruence_witness(tables, cls)
    return Expect(
        1,
        [("classes", str(n_classes)), ("congruence_axioms", "fail")],
        ("congruence_axioms", tuple(tables.labels[g] for g in witness)),
    )


def expect_sip_table(tables: Tables, table) -> Expect:
    witness = bihom_witness(tables, table)
    if witness is None:
        raise AssertionError("planted pairing defect not found")
    return Expect(1, [("bihom_valid", "fail")], ("bihom_valid", tuple(tables.labels[g] for g in witness)))


def expect_norm(tables: Tables, sq: list[Fraction], classes: list[list[int]]) -> Expect:
    results, triangle = norm_results(tables, sq, classes)
    if triangle is None:
        raise AssertionError("planted norm defect not found")
    return Expect(1, results, ("triangle", tuple(tables.labels[g] for g in triangle)))


def expect_report_defect(tables: Tables, values) -> Expect:
    witness = hom_witness(tables, values)
    if witness is None:
        raise AssertionError("planted theta defect not found")
    return Expect(
        1,
        [("groupoid_axioms", "pass"), ("hom_valid", "fail")],
        ("hom_valid", tuple(tables.labels[g] for g in witness)),
    )


def build_defect_hunt(rng: random.Random, work: Path, run: Callable) -> list[Command]:
    # how far a check scans before it fails depends on where the defect
    # sits, so each command's defects are spread over strata of its table:
    # every seed plants early, middle and late defects alike
    strata = {
        kind: [(b + rng.random()) / DEFECT_BUNDLES for b in range(DEFECT_BUNDLES)]
        for kind in DEFECT_KINDS
    }
    commands = []
    for b in range(DEFECT_BUNDLES):
        at = {kind: values[b] for kind, values in strata.items()}
        commands += defect_bundle(b, at, rng, work, run)
    return commands


BUILDERS = {
    "report_real": build_report_real,
    "report_modular": build_report_modular,
    "defect_hunt": build_defect_hunt,
}


def build(workload: str, seed: int, work: Path, run: Callable) -> list[Command]:
    """Write the workload's documents under ``work`` and return its rotation.

    ``run`` executes one grpd command line; it is used only for ``gen``.
    """
    return BUILDERS[workload](random.Random(f"{workload}:{seed}"), work, run)


# --- checking a command's output ---------------------------------------------------------


def _names_in_order(text: str, labels: tuple[str, ...]) -> bool:
    pos = 0
    for label in labels:
        found = re.compile(rf"(?<![0-9A-Za-z]){re.escape(label)}(?![0-9A-Za-z])").search(text, pos)
        if found is None:
            return False
        pos = found.end()
    return True


def verify(expect: Expect, exit_code: int | None, stdout: str, argv: list[str]) -> bool:
    """Compare verdicts, not bytes: exit code, each check's result, and the
    arrow labels of the expected first witness."""
    if exit_code != expect.exit_code:
        return False
    try:
        checks = json.loads(stdout)["checks"]
        got = [(c["name"], c["result"]) for c in checks]
        if got != expect.results:
            return False
        if expect.witness is None:
            return True
        name, labels = expect.witness
        text = next(c["witness"] for c in checks if c["name"] == name) or ""
    except (ValueError, KeyError, TypeError, StopIteration):
        return False
    # a witness may quote a document path; labels are looked for after it
    for arg in argv:
        if arg.endswith(".json") and arg in text:
            text = text[text.index(arg) + len(arg):]
    return _names_in_order(text, labels)
