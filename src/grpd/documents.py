"""JSON document formats for groupoids, homomorphisms, partitions, pairings,
and norm tables, plus the report structure emitted by the command line.

Documents are plain JSON and always refer to arrows and objects by label.
Serialization is deterministic: keys follow arrow and object index order,
so the same input produces byte-identical output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii as _quote
from operator import itemgetter

from .errors import GrpdError, MissingArrow, ParseError, SchemaError, _clip, _echo
from .groupoid import FiniteGroupoid, RawGroupoid, validate_groupoid
from .homs import AbelianGroupSig, Component, GroupoidHom, Partition, partition_by, validate_hom
from .norm import NormTable, norm_table
from .scalars import (
    GaussianRational,
    format_gaussian,
    format_rational,
    parse_gaussian,
    plain_rational,
    rational,
    _reduced,
)
from .sip import Bihom, sip_from_thetas, validate_bihom


def parse_document(text: str) -> tuple[str, dict]:
    """Parse JSON text and classify it by its top-level keys."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.lineno, exc.colno, exc.msg) from exc
    except RecursionError as exc:
        raise SchemaError("", "document is nested too deeply") from exc
    except ValueError as exc:  # raised by json only past the int digit limit
        raise SchemaError("", "an integer literal has too many digits") from exc
    if not isinstance(payload, dict):
        raise SchemaError("", "document must be a JSON object")
    if "objects" in payload or "arrows" in payload:
        return "groupoid", payload
    if "target" in payload or "map" in payload:
        return "hom", payload
    if "thetas" in payload or "table" in payload:
        return "bihom", payload
    if "sq" in payload:
        return "norm", payload
    if "classes" in payload:
        return "partition", payload
    raise SchemaError("", "unrecognized document: no known top-level key")


def _expect(payload: dict, key: str, kind, path: str):
    full = f"{path}{key}" if path else key
    if key not in payload:
        raise SchemaError(full, f"missing required key {key!r}")
    value = payload[key]
    if not isinstance(value, kind):
        raise SchemaError(full, f"expected {kind.__name__}")
    return value


# --- groupoid documents -------------------------------------------------------


def groupoid_from_doc(payload: dict) -> FiniteGroupoid:
    """Read and validate a groupoid document. The arrows and the declared maps
    are checked in whole-list passes, and the compose list for list type; the
    triples go to :func:`validate_groupoid` as parsed, where a triple of the
    wrong length fails its unpacking and a label that is not a known arrow id,
    string or not, fails its lookup. Each list is scanned entry by entry only
    once a pass has failed, to name the first bad entry."""
    objects = _expect(payload, "objects", list, "")
    if not objects:
        raise SchemaError("objects", "nonempty required")
    if not all(isinstance(o, str) for o in objects):
        raise SchemaError("objects", "labels must be strings")

    known_objects = set(objects)
    arrows_doc = _expect(payload, "arrows", list, "")
    try:
        arrows = list(map(itemgetter("id", "src", "dst"), arrows_doc))
        ids, srcs, dsts = list(zip(*arrows)) or ((), (), ())
        ok = set(map(type, chain(ids, srcs, dsts))) <= {str} and len(set(ids)) == len(ids)
        ok = ok and known_objects.issuperset(srcs) and known_objects.issuperset(dsts)
    except (KeyError, TypeError):  # TypeError: an entry that is not an object
        ok = False
    if not ok:
        arrows, seen = [], set()
        for i, entry in enumerate(arrows_doc):
            path = f"arrows[{i}]"
            if not isinstance(entry, dict):
                raise SchemaError(path, "expected an object with id, src, dst")
            for key in ("id", "src", "dst"):
                if key not in entry or not isinstance(entry[key], str):
                    raise SchemaError(f"{path}.{key}", "required string")
            if entry["src"] not in known_objects:
                raise SchemaError(f"{path}.src", f"unknown object {_echo(entry['src'])}")
            if entry["dst"] not in known_objects:
                raise SchemaError(f"{path}.dst", f"unknown object {_echo(entry['dst'])}")
            if entry["id"] in seen:
                raise SchemaError(f"{path}.id", f"duplicate arrow {_echo(entry['id'])}")
            seen.add(entry["id"])
            arrows.append((entry["id"], entry["src"], entry["dst"]))

    compose = _expect(payload, "compose", list, "")
    try:
        if not set(map(type, compose)) <= {list}:
            raise SchemaError("compose", "expected triples of strings")
        maps: dict[str, dict | None] = {}
        for key in ("inverse", "identity"):
            declared = payload.get(key)
            if declared is not None and not isinstance(declared, dict):
                raise SchemaError(key, "expected an object")
            if declared and not set(map(type, declared.values())) <= {str}:
                label = next(a for a, entry in declared.items() if not isinstance(entry, str))
                raise SchemaError(f"{key}.{_clip(label)}", "required string")
            maps[key] = dict(declared) if declared is not None else None
        return validate_groupoid(
            RawGroupoid(objects=list(objects), arrows=arrows, compose=compose, **maps)
        )
    # TypeError: an unhashable label, such as [..]; ValueError: a list that is not a triple
    except (GrpdError, TypeError, ValueError):
        # the first triple that is not a composable triple of known arrows is
        # named before any other error, as a lexicographic witness scan would
        src_of = {a: s for a, s, _ in arrows}
        dst_of = {a: d for a, _, d in arrows}
        for i, triple in enumerate(compose):
            path = f"compose[{i}]"
            if not (isinstance(triple, list) and len(triple) == 3):
                raise SchemaError(path, "expected a triple [f, g, fg]") from None
            for lab in triple:
                if not isinstance(lab, str) or lab not in src_of:
                    raise SchemaError(path, f"unknown arrow {_echo(lab)}") from None
            f, g, _ = triple
            if dst_of[f] != src_of[g]:
                raise SchemaError(path, f"arrows {_echo(f)} and {_echo(g)} are not composable") from None
        raise


def groupoid_to_doc(groupoid: FiniteGroupoid) -> dict:
    objects, arrows = groupoid.object_labels, groupoid.arrow_labels
    return {
        "objects": list(objects),
        "arrows": [
            {"id": a, "src": objects[s], "dst": objects[d]}
            for a, s, d in zip(arrows, groupoid.source, groupoid.target)
        ],
        "compose": [[arrows[g], arrows[h], arrows[gh]] for g, h, gh in groupoid.composable_pairs()],
        "inverse": {a: arrows[k] for a, k in zip(arrows, groupoid.inverse)},
        "identity": {p: arrows[e] for p, e in zip(objects, groupoid.identity)},
    }


# --- homomorphism documents -----------------------------------------------------


def _component_from_doc(entry, path: str) -> Component:
    if entry == "Z":
        return Component("Z")
    if entry == "Q":
        return Component("Q")
    if entry == "QI":
        return Component("QI")
    if isinstance(entry, dict) and set(entry) == {"mod"} and isinstance(entry["mod"], int):
        try:
            return Component("Zmod", entry["mod"])
        except ValueError as exc:
            raise SchemaError(path, str(exc)) from exc
    raise SchemaError(path, f"unknown component {_echo(entry)}")


def _component_to_doc(component: Component):
    if component.kind == "Zmod":
        return {"mod": component.modulus}
    return component.kind


class _Gaussians(dict):
    """A reader of Gaussian values that parses each distinct string once per
    document read. A string keys its int pair (p, q), read by
    ``plain_rational`` when it is 'p' or 'p/q' and by ``rational`` otherwise;
    the strings (s, t) of an {"re": s, "im": t} object key its value, made
    once from the pairs of s and t. Called on an entry, it reads such an
    object so; every other value, such as "1", 1 or true, goes through
    ``parse_gaussian`` each time."""

    def __missing__(self, key):
        if type(key) is str:
            value = plain_rational(key) or rational(key).as_integer_ratio()
        else:
            re, im = key
            # only a string equals a string, so no key hides behind an equal one, as True == 1
            if type(re) is not str or type(im) is not str:
                raise TypeError("re and im must be strings")
            (p, q), (r, s) = self[re], self[im]
            value = _reduced(p * s, r * q, q * s)
        self[key] = value
        return value

    def __call__(self, entry) -> GaussianRational:
        if type(entry) is dict and len(entry) == 2:
            try:
                return self[entry["re"], entry["im"]]
            except (KeyError, TypeError):
                pass
        return parse_gaussian(entry)


def _memoized(gaussian: bool):
    """A value reader that parses each distinct string once per document
    read: a string as a rational, and a Gaussian entry as ``_Gaussians``
    does. Every other rational value, such as 1, true or 1.0, goes through
    ``rational`` each time."""
    if gaussian:
        return _Gaussians()
    parts: dict[str, Fraction] = {}

    def read_rational(entry) -> Fraction:
        if type(entry) is not str:
            return rational(entry)
        value = parts.get(entry)
        if value is None:
            value = parts[entry] = rational(entry)
        return value

    return read_rational


def _integer(entry) -> int:
    if not isinstance(entry, int) or isinstance(entry, bool):
        raise ValueError(f"expected an integer, got {_echo(entry)}")
    return entry


def _value_reader(component: Component):
    if component.kind == "Zmod":
        return lambda entry, m=component.modulus: _integer(entry) % m
    if component.kind == "Z":
        return _integer
    return _memoized(component.kind == "QI")


def _value_to_doc(component: Component, value):
    if component.kind in ("Z", "Zmod"):
        return value
    if component.kind == "Q":
        return format_rational(value)
    return format_gaussian(value)


def hom_from_doc(groupoid: FiniteGroupoid, payload: dict) -> GroupoidHom:
    target_doc = _expect(payload, "target", list, "")
    if not target_doc:
        raise SchemaError("target", "at least one component required")
    components = tuple(
        _component_from_doc(entry, f"target[{i}]") for i, entry in enumerate(target_doc)
    )
    sig = AbelianGroupSig(components)
    map_doc = _expect(payload, "map", dict, "")
    readers, k = [_value_reader(c) for c in components], len(components)
    entries = list(map_doc.values())
    try:
        if not (set(map(type, entries)) <= {list} and set(map(len, entries)) <= {k}):
            raise ValueError
        # each component's values are read with one map, and zipped back per arrow
        values = dict(zip(map_doc, zip(*map(map, readers, zip(*entries)))))
    except (ValueError, TypeError, ZeroDivisionError):
        # the first bad entry, by shape or by value, is named by a scan of the
        # entries only once the passes have failed
        for label, entry in map_doc.items():
            if not (type(entry) is list and len(entry) == k):
                raise SchemaError(f"map.{_clip(label)}", f"expected {k} component values")
            for i, (read, v) in enumerate(zip(readers, entry)):
                try:
                    read(v)
                except (ValueError, TypeError, ZeroDivisionError) as exc:
                    raise SchemaError(f"map.{_clip(label)}[{i}]", str(exc)) from exc
        raise
    # the typed values go to the hom law in arrow order; a missing arrow precedes an unknown label
    elems = list(map(values.get, groupoid.arrow_labels))
    if None in elems:
        raise MissingArrow(groupoid.arrow_labels[elems.index(None)])
    if len(values) > len(elems):
        for label in values:
            groupoid.arrow_index(label)
    return validate_hom(groupoid, elems, sig)


def hom_to_doc(hom: GroupoidHom) -> dict:
    sig = hom.target
    return {
        "target": [_component_to_doc(c) for c in sig.components],
        "map": {
            hom.groupoid.arrow_label(g): [
                _value_to_doc(c, v) for c, v in zip(sig.components, hom.values[g])
            ]
            for g in hom.groupoid.arrows()
        },
    }


# --- partition documents ----------------------------------------------------------


def partition_from_doc(groupoid: FiniteGroupoid, payload: dict) -> Partition:
    classes = _expect(payload, "classes", list, "")
    for i, cls in enumerate(classes):
        if not (isinstance(cls, list) and cls and all(isinstance(x, str) for x in cls)):
            raise SchemaError(f"classes[{i}]", "expected a nonempty list of arrow labels")
    class_of: list[int | None] = [None] * groupoid.n_arrows
    for i, cls in enumerate(classes):
        for label in cls:
            g = groupoid.arrow_index(label)
            if class_of[g] is not None:
                raise SchemaError("classes", f"arrow {_clip(label)} appears in more than one class")
            class_of[g] = i
    if None in class_of:
        missing = groupoid.arrow_label(class_of.index(None))
        raise SchemaError("classes", f"arrow {_clip(missing)} is not covered by any class")
    return partition_by(class_of)


def partition_to_doc(groupoid: FiniteGroupoid, partition: Partition) -> dict:
    return {
        "classes": [
            [groupoid.arrow_label(g) for g in members] for members in partition.classes
        ]
    }


# --- pairing documents ---------------------------------------------------------------


def bihom_from_doc(groupoid: FiniteGroupoid, payload: dict) -> Bihom:
    if "thetas" in payload:
        thetas_doc = _expect(payload, "thetas", list, "")
        for i, entry in enumerate(thetas_doc):
            if not isinstance(entry, dict):
                raise SchemaError(f"thetas[{i}]", "expected a hom object")
        homs = []
        for i, entry in enumerate(thetas_doc):
            try:
                homs.append(hom_from_doc(groupoid, entry))
            except SchemaError as exc:
                path = f"thetas[{i}].{exc.path}" if exc.path else f"thetas[{i}]"
                raise SchemaError(path, exc.detail) from exc
        return sip_from_thetas(groupoid, homs)
    table_doc = _expect(payload, "table", dict, "")
    read = _memoized(gaussian=True)
    rows = _canonical_rows(groupoid, table_doc, read)
    if rows is not None:
        return validate_bihom(groupoid, rows)
    table: dict[tuple[int, int], GaussianRational] = {}
    index = groupoid.arrow_indices.__getitem__
    for g_label, row in table_doc.items():
        g = groupoid.arrow_index(g_label)
        if not isinstance(row, dict):
            raise SchemaError(f"table.{_clip(g_label)}", "expected an object of rows")
        try:
            table.update(zip(zip(repeat(g), map(index, row)), map(read, row.values())))
        except (KeyError, ValueError, TypeError, ZeroDivisionError):
            # the first entry that fails, by label or by value, is named by a
            # scan of the row only once the row has failed
            for h_label, entry in row.items():
                groupoid.arrow_index(h_label)
                try:
                    read(entry)
                except (ValueError, TypeError, ZeroDivisionError) as exc:
                    path = f"table.{_clip(g_label)}.{_clip(h_label)}"
                    raise SchemaError(path, str(exc)) from exc
            raise
    return validate_bihom(groupoid, table)


def _canonical_rows(groupoid: FiniteGroupoid, table_doc: dict, read: _Gaussians) -> list | None:
    """The rows of a table laid out as ``bihom_to_doc`` writes a total one, in arrow
    order with {"re": s, "im": t} entries of two strings, read in C-level passes that
    key each entry once by (s, t); None for any other table, or one with an entry
    that fails."""
    labels, rows = groupoid.arrow_labels, list(table_doc.values())
    if tuple(table_doc) != labels or not all(type(r) is dict and tuple(r) == labels for r in rows):
        return None
    pair, value = itemgetter("re", "im"), read.__getitem__
    try:
        if set(map(len, chain.from_iterable(map(dict.values, rows)))) != {2}:
            return None
        return [list(map(value, map(pair, row.values()))) for row in rows]
    except (KeyError, TypeError, ValueError, ZeroDivisionError):
        return None


def bihom_to_doc(bihom: Bihom) -> dict:
    groupoid, cls = bihom.groupoid, bihom.partition.class_of
    # entries are constant on class pairs, so each block is formatted once
    shown = {pair: format_gaussian(z) for pair, z in bihom.blocks.items()}
    table: dict[str, dict[str, dict]] = {}
    for g in groupoid.arrows():
        row = {
            groupoid.arrow_label(h): shown[cls[g], cls[h]]
            for h in groupoid.arrows()
            if (cls[g], cls[h]) in shown
        }
        if row:
            table[groupoid.arrow_label(g)] = row
    return {"table": table}


# --- norm documents ----------------------------------------------------------------


def norm_from_doc(groupoid: FiniteGroupoid, payload: dict) -> NormTable:
    sq_doc = _expect(payload, "sq", dict, "")
    values = []
    read = _memoized(gaussian=False)
    for g in groupoid.arrows():
        label = groupoid.arrow_label(g)
        if label not in sq_doc:
            raise SchemaError(f"sq.{_clip(label)}", "missing squared value")
        try:
            values.append(read(sq_doc[label]))
        except (ValueError, TypeError, ZeroDivisionError) as exc:
            raise SchemaError(f"sq.{_clip(label)}", str(exc)) from exc
    for label in sq_doc:
        groupoid.arrow_index(label)
    try:
        return norm_table(groupoid, values)
    except ValueError as exc:
        raise SchemaError("sq", str(exc)) from exc


def norm_to_doc(norm: NormTable) -> dict:
    return {
        "sq": {
            norm.groupoid.arrow_label(g): format_rational(norm.sq[g])
            for g in norm.groupoid.arrows()
        }
    }


def dump_document(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


# --- reports ---------------------------------------------------------------------


PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not_applicable"


@dataclass
class Check:
    """One named verification result with an optional witness string."""

    name: str
    result: str
    witness: str | None = None

    @property
    def ok(self) -> bool:
        return self.result != FAIL


@dataclass
class Report:
    """Ordered list of checks; overall status is pass only if all checks pass."""

    checks: list[Check] = field(default_factory=list)

    def add(self, name: str, result, witness: str | None = None) -> Check:
        if isinstance(result, bool):
            result = PASS if result else FAIL
        check = Check(name, result, witness)
        self.checks.append(check)
        return check

    def law(self, name: str, witness: str | None) -> Check:
        """Record a law that passes exactly when it has no witness."""
        return self.add(name, witness is None, witness)

    @property
    def status(self) -> str:
        if any(not c.ok for c in self.checks):
            return FAIL
        if self.checks and all(c.result == NOT_APPLICABLE for c in self.checks):
            return NOT_APPLICABLE
        return PASS

    @property
    def exit_code(self) -> int:
        return 0 if self.status == PASS else 1

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "checks": [
                {"name": c.name, "result": c.result, "witness": c.witness}
                for c in self.checks
            ],
        }

    def to_text(self) -> str:
        lines = []
        for c in self.checks:
            line = f"{c.name}: {c.result}"
            if c.witness is not None:
                line += f", witness: {c.witness}"
            lines.append(line)
        lines.append(f"status: {self.status}")
        return "\n".join(lines) + "\n"

    def render(self, fmt: str) -> str:
        if fmt != "json":
            return self.to_text()
        # the bytes of json.dumps(self.to_json(), indent=2) + "\n": names, results
        # and witnesses are strings, quoted by the encoder json.dumps uses
        checks = ",\n".join(
            f'    {{\n      "name": {_quote(c.name)},\n      "result": {_quote(c.result)},\n'
            f'      "witness": {"null" if c.witness is None else _quote(c.witness)}\n    }}'
            for c in self.checks
        )
        checks = f"[\n{checks}\n  ]" if checks else "[]"
        return f'{{\n  "status": {_quote(self.status)},\n  "checks": {checks}\n}}\n'
