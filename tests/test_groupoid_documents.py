"""Reading groupoid documents: pinned error text and independence of compose order.

Each defect below is planted in the pair groupoid on two objects. ``grpd
validate`` and ``grpd report --all`` must name it with the exact line pinned
here: a schema error exits 2 with one ``error:`` line, and a failed axiom
makes ``validate`` exit 1 with one witness line, while ``report --all``
refuses the groupoid with the same text as an ``error:`` line.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import random

import pytest

from grpd.cli import run_command
from grpd.documents import groupoid_from_doc, groupoid_to_doc, hom_to_doc
from grpd.families import pair_groupoid

from corpus import random_groupoid

_P2, _P2_HOMS = pair_groupoid(2)
BASE = groupoid_to_doc(_P2)
# compose: 0 [e0 e0 e0]  1 [e0 (0,1) (0,1)]  2 [e1 e1 e1]  3 [e1 (1,0) (1,0)]
# 4 [(0,1) e1 (0,1)]  5 [(0,1) (1,0) e0]  6 [(1,0) e0 (1,0)]  7 [(1,0) (0,1) e1]


def _set(*path_value):
    *path, value = path_value

    def mutate(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value

    return mutate


def _drop(*indices):
    def mutate(doc):
        for i in sorted(indices, reverse=True):
            del doc["compose"][i]

    return mutate


def _env(key, value):
    """An edit that leaves the document as it is and sets ``key`` in the
    environment of the run."""
    return lambda doc: {key: value}


def _both(*mutations):
    def mutate(doc):
        env = {}
        for m in mutations:
            env.update(m(doc) or {})
        return env

    return mutate


# (defect, edit, exit code of validate, the error or witness text); an edit
# may return environment variables to set for the run
DEFECTS = [
    ("non_list_triple", _set("compose", 3, "e1"), 2,
     "compose[3]: expected a triple [f, g, fg]"),
    ("short_triple", _set("compose", 3, ["e1", "(1,0)"]), 2,
     "compose[3]: expected a triple [f, g, fg]"),
    ("long_triple", _set("compose", 3, ["e1", "(1,0)", "(1,0)", "e1"]), 2,
     "compose[3]: expected a triple [f, g, fg]"),
    ("unknown_f", _set("compose", 4, 0, "zf"), 2, "compose[4]: unknown arrow 'zf'"),
    ("unknown_g", _set("compose", 4, 1, "zg"), 2, "compose[4]: unknown arrow 'zg'"),
    ("unknown_fg", _set("compose", 4, 2, "zfg"), 2, "compose[4]: unknown arrow 'zfg'"),
    ("nonstring_f", _set("compose", 4, 0, 7), 2, "compose[4]: unknown arrow 7"),
    ("nonstring_g", _set("compose", 4, 1, None), 2, "compose[4]: unknown arrow None"),
    ("nonstring_fg", _set("compose", 4, 2, ["e0"]), 2, "compose[4]: unknown arrow ['e0']"),
    ("first_bad_slot_named", _both(_set("compose", 4, 1, "zg"), _set("compose", 4, 2, 7)), 2,
     "compose[4]: unknown arrow 'zg'"),
    ("unknown_before_not_composable", _set("compose", 2, ["e1", "e0", "zz"]), 2,
     "compose[2]: unknown arrow 'zz'"),
    ("first_bad_triple_named", _both(_set("compose", 6, "x"), _set("compose", 2, 1, "zz")), 2,
     "compose[2]: unknown arrow 'zz'"),
    ("not_composable", _set("compose", 2, ["e1", "e0", "e1"]), 2,
     "compose[2]: arrows 'e1' and 'e0' are not composable"),
    ("conflicting", lambda d: d["compose"].append(["(0,1)", "(1,0)", "e1"]), 1,
     "pair ('(0,1)', '(1,0)'): conflicting products declared"),
    ("conflict_before_endpoints", lambda d: d["compose"].append(["(0,1)", "(1,0)", "(0,1)"]), 1,
     "pair ('(0,1)', '(1,0)'): conflicting products declared"),
    ("repeated_triple", lambda d: d["compose"].insert(0, ["(1,0)", "(0,1)", "e1"]), 0, None),
    ("wrong_endpoints", _set("compose", 5, 2, "e1"), 1,
     "pair ('(0,1)', '(1,0)'): product 'e1' has wrong endpoints"),
    ("no_product", _drop(5), 1,
     "pair ('(0,1)', '(1,0)'): composable pair has no declared product"),
    ("first_missing_product_named", _drop(7, 1, 0), 1,
     "pair ('e0', 'e0'): composable pair has no declared product"),
    ("duplicate_arrow", lambda d: d["arrows"][3].update(id="(0,1)"), 2,
     "arrows[3].id: duplicate arrow '(0,1)'"),
    ("unknown_src", lambda d: d["arrows"][2].update(src="2"), 2,
     "arrows[2].src: unknown object '2'"),
    # the arrows and the declared maps are read in whole-list passes, and
    # scanned entry by entry to name the first bad entry once a pass fails
    ("non_object_arrow", _set("arrows", 1, "e1"), 2,
     "arrows[1]: expected an object with id, src, dst"),
    ("missing_id", lambda d: d["arrows"][2].pop("id") and None, 2, "arrows[2].id: required string"),
    ("nonstring_src", lambda d: d["arrows"][1].update(src=0), 2,
     "arrows[1].src: required string"),
    ("unknown_dst", lambda d: d["arrows"][3].update(dst="9"), 2,
     "arrows[3].dst: unknown object '9'"),
    ("duplicate_after_unknown_src",
     _both(lambda d: d["arrows"][1].update(src="7"), lambda d: d["arrows"][3].update(id="e0")), 2,
     "arrows[1].src: unknown object '7'"),
    ("nonstring_inverse", lambda d: d["inverse"].update({"e0": 5}), 2,
     "inverse.e0: required string"),
    ("wrong_inverse", lambda d: d["inverse"].update({"(0,1)": "(0,1)"}), 1,
     "arrow '(0,1)': declared inverse '(0,1)' fails the inverse law"),
    ("inverse_of_unknown_arrow", lambda d: d["inverse"].update({"zz": "e0"}), 1,
     "unknown arrow label 'zz'"),
    ("wrong_identity", lambda d: d["identity"].update({"1": "(1,0)"}), 1,
     "object '1': declared identity '(1,0)' is not neutral"),
    ("identity_of_unknown_object", lambda d: d["identity"].update({"9": "e0"}), 1,
     "unknown object label '9'"),
    ("string_triple", _set("compose", 3, "e1e"), 2, "compose[3]: expected a triple [f, g, fg]"),
    ("dict_triple", _set("compose", 3, {"f": "e1", "g": "(1,0)", "fg": "(1,0)"}), 2,
     "compose[3]: expected a triple [f, g, fg]"),
    ("float_label", _set("compose", 4, 1, 1.5), 2, "compose[4]: unknown arrow 1.5"),
    # a schema error in the last triple is named before any axiom or map error
    ("unknown_after_conflict",
     _both(lambda d: d["compose"].insert(6, ["(0,1)", "(1,0)", "e1"]), _set("compose", 8, 2, "zz")),
     2, "compose[8]: unknown arrow 'zz'"),
    ("unknown_after_duplicate_object",
     _both(lambda d: d["objects"].append("0"), _set("compose", 7, 2, "zz")), 2,
     "compose[7]: unknown arrow 'zz'"),
    ("unknown_after_non_object_inverse",
     _both(_set("inverse", ["e0"]), _set("compose", 7, 2, "zz")), 2,
     "compose[7]: unknown arrow 'zz'"),
    ("unknown_after_non_string_identity",
     _both(_set("identity", "0", 0), _set("compose", 7, 2, "zz")), 2,
     "compose[7]: unknown arrow 'zz'"),
    ("object_label", _set("compose", 4, 1, {"x": 1}), 2, "compose[4]: unknown arrow {'x': 1}"),
    ("bool_label", _set("compose", 4, 2, True), 2, "compose[4]: unknown arrow True"),
    # a label that is not a string, in the last triple, is named before an
    # error found earlier in validation
    ("nonstring_after_conflicting_first_triple",
     _both(lambda d: d["compose"].insert(0, ["(0,1)", "(1,0)", "e1"]), _set("compose", 8, 2, {"x": 1})),
     2, "compose[8]: unknown arrow {'x': 1}"),
    ("nonstring_after_duplicate_object",
     _both(lambda d: d["objects"].append("0"), _set("compose", 7, 2, True)), 2,
     "compose[7]: unknown arrow True"),
    ("nonstring_after_arrow_cap",
     _both(_env("GRPD_MAX_ARROWS", "3"), _set("compose", 7, 2, 7)), 2,
     "compose[7]: unknown arrow 7"),
]


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name, mutate, code, text", DEFECTS, ids=[d[0] for d in DEFECTS])
def test_groupoid_document_errors_keep_their_text(tmp_path, monkeypatch, name, mutate, code, text):
    doc = copy.deepcopy(BASE)
    for key, value in (mutate(doc) or {}).items():
        monkeypatch.setenv(key, value)
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    theta = tmp_path / "theta.json"
    theta.write_text(json.dumps(hom_to_doc(_P2_HOMS["theta"])), encoding="utf-8")

    validate = _run(["validate", str(path)])
    report = _run(["report", "--all", str(path), "--thetas", str(theta)])
    if code == 0:
        assert validate[0] == 0 and report[0] == 0
        return
    if code == 2:
        assert validate == (2, "", f"error: {text}\n")
    else:
        assert validate == (1, f"groupoid_axioms: fail, witness: {text}\nstatus: fail\n", "")
    assert report == (2, "", f"error: {text}\n")


def test_unknown_label_is_named_before_the_arrow_cap(tmp_path, monkeypatch):
    doc = copy.deepcopy(BASE)
    path = tmp_path / "g.json"
    monkeypatch.setenv("GRPD_MAX_ARROWS", "3")
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert _run(["validate", str(path)]) == (2, "", "error: 4 arrows exceeds the cap of 3\n")
    doc["compose"][7][2] = "zz"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert _run(["validate", str(path)]) == (2, "", "error: compose[7]: unknown arrow 'zz'\n")


def _union_doc() -> dict:
    """A disjoint union of pair groupoids crossed with cyclic groups."""
    rng = random.Random(7)
    while True:
        cg = random_groupoid(rng)
        if len(cg.members) > 1 and max(cg.isotropy) > 1:
            return groupoid_to_doc(cg.groupoid)


@pytest.mark.parametrize("doc", [groupoid_to_doc(pair_groupoid(5)[0]), _union_doc()],
                         ids=["pair5", "union"])
def test_compose_order_does_not_matter(doc):
    plain = groupoid_from_doc(doc)
    shuffled_doc = copy.deepcopy(doc)
    random.Random(3).shuffle(shuffled_doc["compose"])
    assert shuffled_doc["compose"] != doc["compose"]
    shuffled = groupoid_from_doc(shuffled_doc)
    pairs = list(plain.composable_pairs())
    assert list(shuffled.composable_pairs()) == pairs == sorted(pairs)
    assert shuffled.generators == plain.generators
    assert shuffled.inverse == plain.inverse
    assert shuffled.identity == plain.identity
    assert groupoid_to_doc(shuffled) == groupoid_to_doc(plain)
