import json
import random
from collections import Counter
from fractions import Fraction
from re import escape as re_escape

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grpd import affine_cyclic, complex_pair, documents, pair_groupoid, scalars
from grpd.cli import run_command
from grpd.documents import (
    Report,
    bihom_from_doc,
    bihom_to_doc,
    dump_document,
    groupoid_from_doc,
    groupoid_to_doc,
    hom_from_doc,
    hom_to_doc,
    norm_from_doc,
    norm_to_doc,
    parse_document,
    partition_from_doc,
    partition_to_doc,
)
from grpd.errors import (
    GrpdError,
    MissingArrow,
    NotAdditive,
    ParseError,
    SchemaError,
    UnknownArrow,
    _clip,
    _echo,
)
from grpd.homs import SIG_Q, AbelianGroupSig, congruence_from_hom, product_hom, validate_hom
from grpd.norm import norm_from_sip
from grpd.scalars import GaussianRational, parse_gaussian, plain_rational, rational
from grpd.sip import sip_from_thetas, validate_sip

from test_golden import all_commands, run_in


def rebuild(groupoid):
    return groupoid_from_doc(groupoid_to_doc(groupoid))


def test_groupoid_document_round_trip(p2, a3, c4):
    for groupoid, _ in (p2, a3, c4):
        rebuilt = rebuild(groupoid)
        assert rebuilt.object_labels == groupoid.object_labels
        assert rebuilt.arrow_labels == groupoid.arrow_labels
        assert list(rebuilt.composable_pairs()) == list(groupoid.composable_pairs())
        assert rebuilt.inverse == groupoid.inverse
        assert rebuilt.identity == groupoid.identity


def test_parse_serialize_parse_is_identity(p5):
    doc = groupoid_to_doc(p5[0])
    kind, payload = parse_document(dump_document(doc))
    assert kind == "groupoid" and payload == doc
    assert dump_document(payload) == dump_document(doc)


def test_parse_document_sniffing(p2):
    groupoid, homs = p2
    assert parse_document(dump_document(groupoid_to_doc(groupoid)))[0] == "groupoid"
    assert parse_document(dump_document(hom_to_doc(homs["theta"])))[0] == "hom"
    partition = congruence_from_hom(homs["theta"])
    assert (
        parse_document(dump_document(partition_to_doc(groupoid, partition)))[0]
        == "partition"
    )
    bihom = sip_from_thetas(groupoid, [homs["theta"]])
    assert parse_document(dump_document(bihom_to_doc(bihom)))[0] == "bihom"
    assert (
        parse_document(dump_document(norm_to_doc(norm_from_sip(validate_sip(bihom)))))[0] == "norm"
    )
    with pytest.raises(SchemaError):
        parse_document("{\"nonsense\": 1}")
    with pytest.raises(SchemaError):
        parse_document("[1, 2]")


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_document("{\n  \"objects\": [,]\n}")
    assert err.value.line == 2


@pytest.mark.parametrize(
    "text",
    [
        "[" * 100000 + "]" * 100000,  # deeper than the parser's recursion limit
        '{"objects": [' + "7" * 5000 + "]}",  # longer than the int digit limit
    ],
    ids=["deep-nesting", "long-integer"],
)
def test_unreadable_document_is_an_input_error(capsys, tmp_path, text):
    from grpd.cli import run_command

    path = tmp_path / "hostile.json"
    path.write_text(text, encoding="utf-8")
    assert run_command(["validate", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_empty_objects_rejected():
    with pytest.raises(SchemaError) as err:
        groupoid_from_doc({"objects": [], "arrows": [], "compose": []})
    assert err.value.path == "objects"
    assert "nonempty" in str(err.value)


def test_non_composable_triple_rejected(p2):
    doc = groupoid_to_doc(p2[0])
    doc["compose"] = [["(0,1)", "(0,1)", "e0"]] + doc["compose"]
    with pytest.raises(SchemaError) as err:
        groupoid_from_doc(doc)
    assert err.value.path == "compose[0]"


def test_unknown_labels_rejected(p2):
    doc = groupoid_to_doc(p2[0])
    doc["arrows"][0] = {"id": "e0", "src": "9", "dst": "0"}
    with pytest.raises(SchemaError):
        groupoid_from_doc(doc)

    doc = groupoid_to_doc(p2[0])
    doc["compose"][0] = ["ghost", "e0", "e0"]
    with pytest.raises(SchemaError):
        groupoid_from_doc(doc)


def test_hom_document_round_trip(p2, a3, c4):
    for groupoid, homs in (p2, a3, c4):
        for hom in homs.values():
            rebuilt = hom_from_doc(groupoid, hom_to_doc(hom))
            assert rebuilt.values == hom.values
            assert rebuilt.target == hom.target


def test_hom_document_schema_errors(p2):
    groupoid, _ = p2
    with pytest.raises(SchemaError):
        hom_from_doc(groupoid, {"target": [], "map": {}})
    with pytest.raises(SchemaError):
        hom_from_doc(groupoid, {"target": ["R"], "map": {}})
    with pytest.raises(SchemaError):
        hom_from_doc(groupoid, {"target": [{"mod": 1}], "map": {}})
    with pytest.raises(SchemaError):
        hom_from_doc(
            groupoid,
            {"target": ["Z"], "map": {label: [0, 0] for label in groupoid.arrow_labels}},
        )
    with pytest.raises(SchemaError):
        hom_from_doc(
            groupoid,
            {"target": ["Q"], "map": {label: ["x"] for label in groupoid.arrow_labels}},
        )


def test_partition_document_round_trip(p5):
    groupoid, homs = p5
    partition = congruence_from_hom(homs["theta"])
    rebuilt = partition_from_doc(groupoid, partition_to_doc(groupoid, partition))
    assert rebuilt == partition


def test_partition_document_must_cover(p2):
    groupoid, _ = p2
    with pytest.raises(SchemaError) as err:
        partition_from_doc(groupoid, {"classes": [["e0", "e1"]]})
    assert err.value.path == "classes"
    with pytest.raises(SchemaError):
        partition_from_doc(groupoid, {"classes": [["e0", "e0"], ["e1", "(0,1)", "(1,0)"]]})


def test_bihom_document_variants(p2, p2_sip):
    groupoid, homs = p2
    from_table = bihom_from_doc(groupoid, bihom_to_doc(p2_sip))
    assert from_table.table == p2_sip.table

    thetas_doc = {"thetas": [hom_to_doc(homs["theta"])]}
    from_thetas = bihom_from_doc(groupoid, thetas_doc)
    assert from_thetas.table == p2_sip.table


def test_bihom_document_round_trip_with_complex_entries(c4, c4_sip):
    rebuilt = bihom_from_doc(c4[0], bihom_to_doc(c4_sip))
    assert rebuilt.table == c4_sip.table
    assert rebuilt.field_tag == "complex"


def test_norm_document_round_trip(p5, p5_norm):
    groupoid, _ = p5
    rebuilt = norm_from_doc(groupoid, norm_to_doc(p5_norm))
    assert rebuilt.sq == p5_norm.sq
    with pytest.raises(SchemaError):
        norm_from_doc(groupoid, {"sq": {"(0,1)": "1"}})
    with pytest.raises(SchemaError):
        norm_from_doc(
            groupoid,
            {
                "sq": {
                    groupoid.arrow_label(g): "-1" for g in groupoid.arrows()
                }
            },
        )


# each reader parses a repeated string once per document; a number equal to
# an earlier string is still read, and rejected, on its own
REPEATS = [
    ("1", 1.0, "expected a rational string or re/im object, got 1.0"),
    (1, 1.0, "expected a rational string or re/im object, got 1.0"),
    ({"re": 1, "im": 0}, {"re": 1.0, "im": 0}, "floating point values are not exact"),
    ({"re": "1", "im": "0"}, {"re": 1.0, "im": "0"}, "floating point values are not exact"),
    ("1/2", ["1/2"], "expected a rational string or re/im object"),
]


@pytest.mark.parametrize("first, again, message", REPEATS)
def test_repeated_table_values_are_each_checked(capsys, tmp_path, p2, first, again, message):
    groupoid, _ = p2
    table = {"e0": {"e0": first, "e1": first}, "(0,1)": {"e0": first, "(1,0)": again}}
    with pytest.raises(SchemaError) as err:
        bihom_from_doc(groupoid, {"table": table})
    assert err.value.path == "table.(0,1).(1,0)"
    assert message in str(err.value)

    grpd_file, table_file = tmp_path / "p2.grpd", tmp_path / "pairing.json"
    grpd_file.write_text(dump_document(groupoid_to_doc(groupoid)), encoding="utf-8")
    table_file.write_text(json.dumps({"table": table}), encoding="utf-8")
    assert run_command(["sip", "check", str(grpd_file), "--table", str(table_file)]) == 2
    assert capsys.readouterr().err.startswith("error: table.(0,1).(1,0): ")


def test_repeated_hom_and_norm_values_are_each_checked(p2):
    groupoid, _ = p2
    labels = groupoid.arrow_labels
    for kind, value in (("Q", "1/2"), ("QI", {"re": "1/2", "im": "0"})):
        doc = {"target": [kind], "map": {label: [value] for label in labels}}
        doc["map"][labels[-1]] = [1.0]
        with pytest.raises(SchemaError) as err:
            hom_from_doc(groupoid, doc)
        assert err.value.path == f"map.{labels[-1]}[0]"
    sq = {label: 1 for label in labels}
    sq[labels[-1]] = 1.0
    with pytest.raises(SchemaError) as err:
        norm_from_doc(groupoid, {"sq": sq})
    assert err.value.path == f"sq.{labels[-1]}"


def reference_table(groupoid, payload):
    """The table reader as a plain loop: each entry parsed on its own, in row
    order, with its label checked first."""
    table = {}
    for g_label, row in payload["table"].items():
        g = groupoid.arrow_index(g_label)
        if not isinstance(row, dict):
            raise SchemaError(f"table.{_clip(g_label)}", "expected an object of rows")
        for h_label, entry in row.items():
            h = groupoid.arrow_index(h_label)
            try:
                table[(g, h)] = parse_gaussian(entry)
            except (ValueError, TypeError, ZeroDivisionError) as exc:
                raise SchemaError(f"table.{_clip(g_label)}.{_clip(h_label)}", str(exc)) from exc
    return table


def read_outcome(read, groupoid, payload):
    try:
        return list(read(groupoid, payload).items())
    except GrpdError as exc:
        return type(exc), getattr(exc, "path", None), str(exc)


GOOD_VALUES = [
    "1", "-1/2", "0", "007/010", "1e2", " 3 ", 0, 2, -3,
    {"re": "1", "im": "0"}, {"re": "-1/2", "im": "2"}, {"im": "1", "re": "0"},
    {"re": 1, "im": "0"}, {"re": "1"}, {"im": "1"},
]
BAD_VALUES = [
    1.0, True, None, [1], "x", "1/0", "1e99999", {"re": True, "im": "0"},
    {"re": "1/0", "im": "0"}, {"re": "0", "im": "1/x"}, {"re": 1.0, "im": "0"},
    {"re": "1", "im": "0", "x": "1"}, {"x": "1"}, {"re": ["1"], "im": "0"},
]


def planted_table(rng, doc):
    """The pair-3 table with up to four plants: a value from the pools, an
    unknown label put before or after a bad entry of the same row, a row that
    is not an object, a deleted entry or an unknown row."""
    table = {g: dict(row) for g, row in doc["table"].items()}
    labels = list(table)
    for _ in range(rng.randrange(5)):
        g = rng.choice(labels)
        row = table[g]
        if not isinstance(row, dict) or not row:
            continue
        h = rng.choice(list(row))
        kind = rng.randrange(6)
        if kind == 0:
            row[h] = rng.choice(GOOD_VALUES)
        elif kind == 1:
            row[h] = rng.choice(BAD_VALUES)
        elif kind == 2:
            row[h] = rng.choice(BAD_VALUES)
            items = list(row.items())
            at = items.index((h, row[h])) + rng.choice((0, 1))
            items.insert(at, ("zz", rng.choice(GOOD_VALUES + BAD_VALUES)))
            table[g] = dict(items)
        elif kind == 3:
            table[g] = rng.choice([[], "1", None, list(row.values())])
        elif kind == 4:
            del row[h]
        else:
            table = {**table, "yy": {}} if rng.random() < 0.5 else {"yy": {}, **table}
    return {"table": table}


def handed_table(groupoid, table):
    """What the reader hands to validate_bihom, as a dict of arrow pairs:
    the mapping of the row loop as it is, the rows of the bulk path in
    arrow order."""
    if isinstance(table, dict):
        return table
    assert len(table) == groupoid.n_arrows
    return {(g, h): z for g, row in enumerate(table) for h, z in enumerate(row)}


def test_table_reader_matches_the_entry_loop(monkeypatch, p3):
    groupoid, homs = p3
    doc = bihom_to_doc(sip_from_thetas(groupoid, [homs["theta"]]))
    monkeypatch.setattr(documents, "validate_bihom", handed_table)
    outcomes = set()
    for seed in range(1000):
        payload = planted_table(random.Random(seed), doc)
        expected = read_outcome(reference_table, groupoid, payload)
        assert read_outcome(bihom_from_doc, groupoid, payload) == expected, seed
        outcomes.add(expected[0] if isinstance(expected, tuple) else "table")
    assert outcomes == {"table", SchemaError, UnknownArrow}


def test_table_reader_parses_each_distinct_string_once(monkeypatch):
    """Each distinct string of a table is parsed once, by the plain parse and,
    when it is not plain, by rational; each distinct (re, im) pair is then
    made once from the parts, and no pair is parsed. With a space before
    every part, no part is plain."""
    groupoid, homs = complex_pair(3)
    doc = json.loads(dump_document(bihom_to_doc(sip_from_thetas(groupoid, [homs["theta"]]))))
    entries = [entry for row in doc["table"].values() for entry in row.values()]
    pairs = {(entry["re"], entry["im"]) for entry in entries}
    parts = {s for pair in pairs for s in pair}
    assert len(entries) == 6561 and len(pairs) < len(entries)
    spaced = {
        "table": {
            g: {h: {"re": f" {z['re']}", "im": f" {z['im']}"} for h, z in row.items()}
            for g, row in doc["table"].items()
        }
    }

    calls = Counter()

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)

        return call

    new = GaussianRational.__new__
    monkeypatch.setattr(scalars, "rational", counted("rational", rational))
    monkeypatch.setattr(documents, "rational", counted("rational", rational))
    monkeypatch.setattr(documents, "plain_rational", counted("plain", plain_rational))
    monkeypatch.setattr(documents, "_reduced", counted("pair", documents._reduced))
    monkeypatch.setattr(GaussianRational, "__new__", counted("GaussianRational", new))
    monkeypatch.setattr(documents, "validate_bihom", handed_table)
    for payload, expected in (
        (doc, {"plain": len(parts), "pair": len(pairs)}),
        (spaced, {"plain": len(parts), "rational": len(parts), "pair": len(pairs)}),
    ):
        calls.clear()
        table = bihom_from_doc(groupoid, payload)
        assert len(table) == len(entries)
        assert calls == expected
    assert table == handed_table(groupoid, bihom_from_doc(groupoid, doc))


# parts that are not plain: other spellings of plain values, forms Fraction
# reads and the plain parse does not, a zero denominator and digits past
# int()'s limit; then entries of every other JSON type and malformed objects
ODD_PARTS = ["2/4", "-0", "007", "+3", " 3", "1e2", "1_0", "\u0663", "1/0", "7" * 5000]
ODD_ENTRIES = [
    3, -2, True, False, 1.0, 2.5, ["1", "0"], [], None,
    {"re": "1", "im": "0", "x": "0"}, {"re": "1"}, {"re": "1", "x": "0"},
]


def test_table_reader_reads_planted_entries_as_the_entry_loop(monkeypatch, p3):
    """An arrow-ordered table, as the bulk path takes it, with one entry
    replaced in an early row or in a late one: the table, or the error's
    type, path and message, is the entry loop's. The bulk path keeps exactly
    the tables whose entries are re/im objects of two strings that read."""
    groupoid, homs = p3
    doc = bihom_to_doc(sip_from_thetas(groupoid, [homs["theta"]]))
    monkeypatch.setattr(documents, "validate_bihom", handed_table)
    labels = groupoid.arrow_labels
    values = ODD_ENTRIES + [{"re": s, "im": "0"} for s in ODD_PARTS]
    values += [{"im": s, "re": "1"} for s in ODD_PARTS] + [{"re": v, "im": "0"} for v in ODD_ENTRIES]
    outcomes = Counter()
    for value in values:
        for g, h in ((labels[0], labels[2]), (labels[-1], labels[-2])):
            table = {a: dict(row) for a, row in doc["table"].items()}
            table[g][h] = value
            payload = {"table": table}
            expected = read_outcome(reference_table, groupoid, payload)
            assert read_outcome(bihom_from_doc, groupoid, payload) == expected, value
            bulk = documents._canonical_rows(groupoid, table, documents._memoized(True)) is not None
            strings = isinstance(value, dict) and set(map(type, value.values())) == {str}
            assert bulk == (strings and len(value) == 2 and "im" in value and type(expected) is list)
            outcomes[bulk, type(expected) is list] += 1
    assert set(outcomes) == {(True, True), (False, True), (False, False)}
    # True == 1 and 1.0 == 1, so equal re/im keys of other types read apart
    for early, late in ((True, 1), (1.0, 1), (False, 0), (1, 1.0)):
        table = {a: dict(row) for a, row in doc["table"].items()}
        table[labels[0]][labels[2]] = {"re": early, "im": "0"}
        table[labels[-1]][labels[-2]] = {"re": late, "im": "0"}
        payload = {"table": table}
        expected = read_outcome(reference_table, groupoid, payload)
        assert type(expected) is tuple and read_outcome(bihom_from_doc, groupoid, payload) == expected


def reference_hom(groupoid, payload):
    """hom_from_doc over the library path: each value checked on its own in
    document order, then the label map of raw values to validate_hom, which
    coerces them; a QI value given as a re/im object is parsed first, as the
    library's coerce reads strings and numbers only."""
    sig = AbelianGroupSig(tuple(documents._component_from_doc(e, "") for e in payload["target"]))
    k, raw = len(sig.components), {}
    for label, entry in payload["map"].items():
        if not (isinstance(entry, list) and len(entry) == k):
            raise SchemaError(f"map.{_clip(label)}", f"expected {k} component values")
        for i, (c, v) in enumerate(zip(sig.components, entry)):
            try:
                if c.kind == "QI":
                    parse_gaussian(v)
                elif c.kind == "Q":
                    rational(v)
                elif not isinstance(v, int) or isinstance(v, bool):
                    raise ValueError(f"expected an integer, got {_echo(v)}")
            except (ValueError, TypeError, ZeroDivisionError) as exc:
                raise SchemaError(f"map.{_clip(label)}[{i}]", str(exc)) from exc
        raw[label] = [parse_gaussian(v) if isinstance(v, dict) else v for v in entry]
    return validate_hom(groupoid, raw, sig)


def hom_outcome(read, groupoid, payload):
    try:
        hom = read(groupoid, payload)
    except GrpdError as exc:
        return type(exc), str(exc)
    return hom.target, hom.values


def theta_documents():
    """Theta documents on three groupoids, into Z, Zmod, Q, QI and two-component targets."""
    p3, a3, c4 = pair_groupoid(3), affine_cyclic(3), complex_pair(2)
    thirds = zip(p3[0].arrow_labels, p3[1]["theta"].values)
    third = validate_hom(p3[0], {a: [Fraction(v, 3)] for a, (v,) in thirds}, SIG_Q)
    homs = [
        (p3[0], p3[1]["theta"]),
        (a3[0], a3[1]["theta"]),
        (p3[0], third),
        (c4[0], c4[1]["theta"]),
        (p3[0], product_hom([p3[1]["theta"], third])),
        (c4[0], product_hom([c4[1]["theta"], c4[1]["theta1"]])),
        (a3[0], product_hom([a3[1]["theta"], a3[1]["theta"]])),
    ]
    return [(groupoid, json.loads(dump_document(hom_to_doc(hom)))) for groupoid, hom in homs]


# values planted in any component: good in some, bad in others
HOM_VALUES = [
    1.5, 1.0, True, False, None, [1], "x", 0, -7, 12, "1/0", "-3/0", "1e5000", "2e-4301",
    "1e2", "007/010", "-0/3", "1_0", " 3 ", {"re": "1/0", "im": "0"}, {"re": "1e5000", "im": "0"},
    {"re": True, "im": "0"}, {"re": "1", "im": "1/3"}, {"re": "1", "im": "0", "x": "0"},
]


def planted_hom(rng, doc):
    """A theta document with up to four plants: a value from the pool, a Zmod
    residue moved below 0 or to the modulus and past it, a value moved off
    the hom law, a deleted arrow, an unknown label, or the map reordered."""
    kinds = doc["target"]
    items = [(label, list(entry)) for label, entry in doc["map"].items()]
    for _ in range(rng.randrange(5)):
        if not items:
            break
        label, entry = rng.choice(items)
        i = rng.randrange(len(entry))
        kind = rng.randrange(6)
        if kind == 0:
            entry[i] = rng.choice(HOM_VALUES)
        elif kind == 1 and isinstance(kinds[i], dict) and type(entry[i]) is int:
            entry[i] += kinds[i]["mod"] * rng.choice((-3, -1, 1, 2))
        elif kind in (1, 2):
            entry[i] = entry[i] + 1 if type(entry[i]) is int else "5/7"
        elif kind == 3:
            items.remove((label, entry))
        elif kind == 4:
            items.insert(rng.randrange(len(items) + 1), ("zz", [0] * len(entry)))
        else:
            rng.shuffle(items)
    return {"target": kinds, "map": dict(items)}


def test_hom_reader_matches_the_library_path():
    """Seeded plants in theta documents: hom_from_doc, which hands the hom
    law typed values in arrow order, gives the values, or the error's type
    and message, of validate_hom on the raw label map."""
    docs = theta_documents()
    outcomes = Counter()
    for seed in range(700):
        rng = random.Random(seed)
        groupoid, doc = docs[seed % len(docs)]
        payload = planted_hom(rng, doc)
        expected = hom_outcome(reference_hom, groupoid, payload)
        assert hom_outcome(hom_from_doc, groupoid, payload) == expected, seed
        outcomes[expected[0] if isinstance(expected[0], type) else "hom"] += 1
    assert set(outcomes) == {"hom", SchemaError, MissingArrow, UnknownArrow, NotAdditive}


_PART = st.text(alphabet="0123456789-/+e_. ", max_size=8)


@given(_PART, _PART)
@example("2/4", "-0")
@example("007", "1/0")
@example("7" * 5000, "1")
@example("1", "1/" + "7" * 5000)
def test_plain_rational_is_rational_or_none(re, im):
    """plain_rational reads what rational reads, or leaves the string to it:
    it is None wherever rational raises. The table reader's value of an
    {"re": re, "im": im} entry, made from the two parts, is the Gaussian
    rational of the two, or fails as rational fails."""
    for text in (re, im):
        plain = plain_rational(text)
        try:
            expected = rational(text)
        except (ValueError, ZeroDivisionError):
            assert plain is None
        else:
            assert plain is None or (plain[1] > 0 and Fraction(*plain) == expected)
    try:
        expected = GaussianRational(rational(re), rational(im))
    except (ValueError, ZeroDivisionError) as exc:
        with pytest.raises(type(exc), match="^" + re_escape(str(exc)) + "$"):
            documents._Gaussians()[re, im]
    else:
        assert documents._Gaussians()[re, im] == expected


def test_report_status_and_exit_codes():
    report = Report()
    report.add("first", True)
    report.add("note", "3 classes")
    assert report.status == "pass" and report.exit_code == 0

    report.add("second", False, witness="(a, object 1)")
    assert report.status == "fail" and report.exit_code == 1
    text = report.render("text")
    assert "second: fail, witness: (a, object 1)" in text
    assert text.endswith("status: fail\n")

    machine = json.loads(report.render("json"))
    assert machine["status"] == "fail"
    assert machine["checks"][2]["witness"] == "(a, object 1)"

    na = Report()
    na.add("skipped", "not_applicable")
    assert na.status == "not_applicable" and na.exit_code == 1


# quotes, a backslash, control characters, non-ASCII text in and beyond the
# Basic Multilingual Plane, and lone surrogates, each escaped by json.dumps
_AWKWARD = '"\\\x00\n\x1f\x7f\u00e9\u2028\ud800\udfff\U0001f600'
_TEXT = st.text(st.one_of(st.sampled_from(_AWKWARD), st.characters(exclude_categories=())))
_CHECKS = st.lists(
    st.tuples(
        _TEXT,
        st.one_of(st.sampled_from(["pass", "fail", "not_applicable"]), _TEXT),
        st.one_of(st.none(), _TEXT),
    ),
    max_size=30,
)


@settings(max_examples=100, deadline=None)
@given(_CHECKS)
@example([])
@example([(_AWKWARD, "not_applicable", None), ("x", "fail", _AWKWARD)])
def test_json_report_is_the_bytes_json_dumps_writes(checks):
    report = Report()
    for name, result, witness in checks:
        report.add(name, result, witness)
    assert report.render("json") == json.dumps(report.to_json(), indent=2) + "\n"


def test_every_command_reports_strings(monkeypatch, tmp_path):
    """The JSON writer quotes each name, result and witness as a string: every
    report the golden commands print holds strings there, None aside."""
    reports = []
    render = Report.render

    def spy(report, fmt):
        reports.append(report)
        return render(report, fmt)

    monkeypatch.setattr(Report, "render", spy)
    for _, argv in all_commands(tmp_path):
        rendered = len(reports)
        code = run_in(tmp_path, argv)["exit"]
        # exit code 2 is an input error, printed with no report
        assert len(reports) == rendered + (code != 2)
    for check in (c for report in reports for c in report.checks):
        assert type(check.name) is str and type(check.result) is str, check
        assert check.witness is None or type(check.witness) is str, check
