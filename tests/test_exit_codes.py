"""Exit-code contract: every command exits 0, 1 or 2 on any input.

Each example takes the documents of the pair groupoid on two objects (the
groupoid, its theta, the pairing as a table and as a theta family, the
squared norm and the row partition), plants one hostile edit in one of
them, and runs one command in-process. Whatever the edit, ``run_command``
must return 0 (all checks pass), 1 (a check failed) or 2 (bad input) and
let no exception escape.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grpd.cli import run_command
from grpd.documents import bihom_to_doc, groupoid_to_doc, hom_to_doc, norm_to_doc, partition_to_doc
from grpd.families import pair_groupoid
from grpd.norm import norm_table
from grpd.sip import b_partition, sip_from_thetas


def _base_documents() -> dict:
    groupoid, homs = pair_groupoid(2)
    bihom = sip_from_thetas(groupoid, [homs["theta"]])
    return {
        "groupoid": groupoid_to_doc(groupoid),
        "hom": hom_to_doc(homs["theta"]),
        "bihom": bihom_to_doc(bihom),
        "thetas": {"thetas": [hom_to_doc(homs["theta"])]},
        "norm": norm_to_doc(norm_table(groupoid, [bihom.entry(g, g).re for g in groupoid.arrows()])),
        "partition": partition_to_doc(groupoid, b_partition(bihom)),
    }


BASE = _base_documents()

SCALAR_TEXT = ["", "0", "-1", "1/0", "abc", "1e5000", "1e4300", "-1e4300", "2,3", "1,2,3", "1/3,-2"]
LABELS = ["e0", "e1", "(0,1)", "(1,0)", "(0,2)", "0", "1", "2", "x" * 300]
LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.integers(min_value=10**30, max_value=10**40),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(SCALAR_TEXT + LABELS),
    st.text(max_size=4),
)
HOSTILE = st.recursive(
    LEAVES,
    lambda kids: st.one_of(
        st.lists(kids, max_size=3),
        st.dictionaries(st.sampled_from(LABELS + ["re", "im", "mod"]), kids, max_size=3),
    ),
    max_leaves=4,
)


# each command and the documents it reads
COMMANDS = [
    (["validate", "{groupoid}"], ("groupoid",)),
    (["congruence", "{groupoid}", "--hom", "{hom}", "--profile", "--check-axioms"], ("groupoid", "hom")),
    (["congruence", "{groupoid}", "--partition", "{partition}", "--profile"], ("groupoid", "partition")),
    (["sip", "check", "{groupoid}", "--table", "{bihom}"], ("groupoid", "bihom")),
    (["sip", "scalar-set", "{groupoid}", "--table", "{bihom}", "--c", "{c}", "--g", "{label}"], ("groupoid", "bihom")),
    (["norm", "check", "{groupoid}", "--sq", "{norm}", "--lambda", "{partition}"], ("groupoid", "norm", "partition")),
    (["norm", "check", "{groupoid}", "--from-sip", "{bihom}"], ("groupoid", "bihom")),
    (["sip", "check", "{groupoid}", "--table", "{thetas}"], ("groupoid", "thetas")),
    (["sip", "relate", "{groupoid}", "--table", "{thetas}", "--g", "{label}", "--h", "e1"], ("groupoid", "thetas")),
    (["norm", "check", "{groupoid}", "--from-sip", "{thetas}"], ("groupoid", "thetas")),
    (["polarize", "{groupoid}", "--sq", "{norm}", "--lambda", "{partition}", "-o", "{out}"], ("groupoid", "norm", "partition")),
    (["report", "--all", "{groupoid}", "--thetas", "{hom}"], ("groupoid", "hom")),
]


@st.composite
def mutated_command(draw) -> tuple[list[str], dict]:
    """One command and the base documents with one to three hostile edits in
    the documents it reads: each edit walks down from the top of a document,
    one key or index at a time with odds of 3 to 1 against stopping, and
    replaces, deletes or renames the entry where it stops. Half the
    replacements are single leaves, such as a number where a reader expects
    an object: a draw from HOSTILE alone is a leaf about one time in 15."""
    argv, reads = draw(st.sampled_from(COMMANDS))
    docs = json.loads(json.dumps(BASE))
    for _ in range(draw(st.integers(1, 3))):
        parent, key = docs, draw(st.sampled_from(reads))
        while isinstance(parent[key], (dict, list)) and parent[key] and draw(st.integers(0, 3)):
            parent = parent[key]
            key = draw(st.sampled_from(list(parent) if isinstance(parent, dict) else range(len(parent))))
        ops = ["set", "drop", "rename"] if isinstance(parent, dict) and parent is not docs else ["set"]
        op = draw(st.sampled_from(ops))
        if op == "set":
            parent[key] = draw(st.one_of(LEAVES, HOSTILE))
        elif op == "drop":
            del parent[key]
        else:
            parent[draw(st.sampled_from(LABELS))] = parent.pop(key)
    return argv, docs


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("exit_codes")


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    command=mutated_command(),
    c=st.one_of(st.sampled_from(SCALAR_TEXT), st.text(max_size=6)),
    label=st.sampled_from(LABELS),
)
def test_every_command_exits_0_1_or_2_on_mutated_documents(workdir, command, c, label):
    template, docs = command
    fields = {"c": c, "label": label, "out": str(workdir / "polarized.json")}
    for kind, doc in docs.items():
        fields[kind] = str(workdir / f"{kind}.json")
        (workdir / f"{kind}.json").write_text(json.dumps(doc), encoding="utf-8")
    argv = [arg.format(**fields) if arg.startswith("{") else arg for arg in template]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = run_command(argv)
    assert code in (0, 1, 2), argv
    assert gc.isenabled(), argv


# a theta entry that is not an object is named as bad input by its index
THETA_COMMANDS = [
    ["sip", "check", "{groupoid}", "--table", "{thetas}"],
    ["sip", "relate", "{groupoid}", "--table", "{thetas}", "--g", "e0", "--h", "e1"],
    ["sip", "scalar-set", "{groupoid}", "--table", "{thetas}", "--c", "1", "--g", "e0"],
    ["norm", "check", "{groupoid}", "--from-sip", "{thetas}"],
]


@pytest.mark.parametrize("entry", [5, None, "target", "xmapx"])
@pytest.mark.parametrize("template", THETA_COMMANDS)
def test_a_non_object_theta_entry_exits_2_naming_it(tmp_path, capsys, template, entry):
    fields = {"groupoid": str(tmp_path / "g.json"), "thetas": str(tmp_path / "thetas.json")}
    (tmp_path / "g.json").write_text(json.dumps(BASE["groupoid"]), encoding="utf-8")
    (tmp_path / "thetas.json").write_text(json.dumps({"thetas": [entry]}), encoding="utf-8")
    assert run_command([arg.format(**fields) for arg in template]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: thetas[0]: expected a hom object\n")


# an error inside a theta entry is named by the entry's path
@pytest.mark.parametrize(
    "thetas, message",
    [
        ([{"map": {}}], "thetas[0].target: missing required key 'target'"),
        ([{"target": ["Z"], "map": {"e0": ["x"]}}], "thetas[0].map.e0[0]: expected an integer, got 'x'"),
        ([BASE["hom"], {"target": [], "map": {}}], "thetas[1].target: at least one component required"),
    ],
)
def test_an_error_inside_a_theta_entry_names_the_entry(tmp_path, capsys, thetas, message):
    (tmp_path / "g.json").write_text(json.dumps(BASE["groupoid"]), encoding="utf-8")
    (tmp_path / "thetas.json").write_text(json.dumps({"thetas": thetas}), encoding="utf-8")
    assert run_command(["sip", "check", str(tmp_path / "g.json"), "--table", str(tmp_path / "thetas.json")]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")
