import gc
import json
import subprocess
import sys
from pathlib import Path

import pytest

import grpd.documents
from grpd.cli import build_parser, run_command
from grpd.documents import bihom_to_doc, dump_document, groupoid_to_doc, norm_to_doc, partition_to_doc
from grpd.families import pair_groupoid
from grpd.homs import SIG_QI, congruence_from_hom, validate_hom
from grpd.norm import norm_table
from grpd.scalars import gaussian
from grpd.sip import b_partition, sip_from_thetas

from oracles import polarize_value_bruteforce, polarized_additivity_bruteforce


def run(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


@pytest.fixture()
def p2_bundle(tmp_path, capsys):
    assert run_command(["gen", "pair", "--size", "2", "-o", str(tmp_path / "p2.grpd")]) == 0
    capsys.readouterr()
    return tmp_path / "p2.grpd", tmp_path / "p2.theta.hom"


def test_gen_then_validate(capsys, p2_bundle):
    grpd_file, theta_file = p2_bundle
    assert grpd_file.exists() and theta_file.exists()
    code, out = run(capsys, "validate", str(grpd_file))
    assert code == 0
    assert "groupoid_axioms: pass" in out


def test_gen_to_stdout(capsys):
    code, out = run(capsys, "gen", "affine_cyclic", "--size", "3")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["arrows"]) == 9


def test_validate_reports_axiom_failure(capsys, tmp_path, p2):
    doc = groupoid_to_doc(p2[0])
    doc["inverse"]["(0,1)"] = "(0,1)"
    bad = tmp_path / "bad.grpd"
    bad.write_text(dump_document(doc), encoding="utf-8")
    code, out = run(capsys, "validate", str(bad))
    assert code == 1
    assert "groupoid_axioms: fail" in out
    assert "(0,1)" in out


def test_congruence_profile_exit_and_witness(capsys, p2_bundle):
    grpd_file, theta_file = p2_bundle
    code, out = run(
        capsys, "congruence", str(grpd_file), "--hom", str(theta_file), "--profile"
    )
    assert code == 1
    assert "complete: fail, witness: ((0,1), object 1)" in out
    assert "simple: pass" in out


def test_congruence_axiom_check_passes(capsys, p2_bundle):
    grpd_file, theta_file = p2_bundle
    code, out = run(
        capsys, "congruence", str(grpd_file), "--hom", str(theta_file), "--check-axioms"
    )
    assert code == 0
    assert "congruence_axioms: pass" in out


def test_congruence_with_partition_document(capsys, tmp_path, p2):
    groupoid, homs = p2
    partition = congruence_from_hom(homs["theta"])
    part_file = tmp_path / "classes.json"
    part_file.write_text(
        dump_document(partition_to_doc(groupoid, partition)), encoding="utf-8"
    )
    grpd_file = tmp_path / "p2.grpd"
    grpd_file.write_text(dump_document(groupoid_to_doc(groupoid)), encoding="utf-8")
    code, out = run(
        capsys,
        "congruence",
        str(grpd_file),
        "--partition",
        str(part_file),
        "--check-axioms",
        "--profile",
    )
    assert code == 1  # completeness fails on this fixture
    assert "congruence_axioms: pass" in out


@pytest.mark.parametrize(
    "classes, message",
    [
        ([[], ["e0", "e1", "(0,1)", "(1,0)"]], "classes[0]: expected a nonempty list of arrow labels"),
        ([["e0", "e1", "(0,1)"]], "classes: arrow (1,0) is not covered by any class"),
        ([["e0", "e1"], ["(0,1)", "(1,0)", "e0"]], "classes: arrow e0 appears in more than one class"),
    ],
)
def test_partition_documents_name_an_empty_class_or_the_arrow_label(
    capsys, tmp_path, p2_bundle, classes, message
):
    grpd_file, _ = p2_bundle
    part_file = tmp_path / "classes.json"
    part_file.write_text(json.dumps({"classes": classes}), encoding="utf-8")
    assert run_command(["congruence", str(grpd_file), "--partition", str(part_file), "--profile"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_sip_check_with_thetas(capsys, p2_bundle):
    grpd_file, theta_file = p2_bundle
    code, out = run(capsys, "sip", "check", str(grpd_file), "--thetas", str(theta_file))
    assert code == 0
    for line in (
        "bihom_valid: pass",
        "conjugate_symmetry: pass",
        "positive_definiteness: pass",
        "cauchy_schwarz: pass",
    ):
        assert line in out


def test_sip_relate_and_scalar_set(capsys, p2_bundle, tmp_path, p2, p2_sip):
    grpd_file, theta_file = p2_bundle
    from grpd.documents import bihom_to_doc

    table_file = tmp_path / "pairing.json"
    table_file.write_text(dump_document(bihom_to_doc(p2_sip)), encoding="utf-8")

    code, out = run(
        capsys,
        "sip",
        "relate",
        str(grpd_file),
        "--table",
        str(table_file),
        "--g",
        "(0,1)",
        "--h",
        "(1,0)",
    )
    assert code == 0
    assert "congruent: false" in out
    assert "opposite: true" in out
    assert "orthogonal: false" in out

    code, out = run(
        capsys,
        "sip",
        "scalar-set",
        str(grpd_file),
        "--table",
        str(table_file),
        "--c",
        "-1",
        "--g",
        "(0,1)",
    )
    assert code == 0
    assert "members: 1, witness: (1,0)" in out

    code, out = run(
        capsys,
        "sip",
        "scalar-set",
        str(grpd_file),
        "--table",
        str(table_file),
        "--c",
        "0,1",
        "--g",
        "(0,1)",
    )
    assert code == 0
    assert "members: 0, witness: (empty)" in out

    code, out = run(
        capsys,
        "sip",
        "scalar-set",
        str(grpd_file),
        "--table",
        str(table_file),
        "--c",
        "0",
        "--g",
        "(0,1)",
        "--at",
        "1",
    )
    assert code == 0
    assert "members: 1, witness: e1" in out


def test_norm_check_from_sip(capsys, p2_bundle):
    grpd_file, theta_file = p2_bundle
    bihom_doc = {"thetas": [json.loads(theta_file.read_text())]}
    sip_file = grpd_file.parent / "sip.json"
    sip_file.write_text(dump_document(bihom_doc), encoding="utf-8")
    code, out = run(capsys, "norm", "check", str(grpd_file), "--from-sip", str(sip_file))
    assert code == 0
    assert "identity_zero: pass" in out
    assert "consistency_doubling: vacuous" in out


@pytest.mark.parametrize(
    "entry, value, witness",
    [
        ("(1,0)", {"re": "1", "im": "0"}, "second-slot additivity fails at ('e0', 'e0', '(1,0)')"),
        ("e1", None, "missing entry for the pair ('e1', '(0,1)')"),
    ],
)
def test_norm_check_from_sip_fails_on_a_table_that_is_not_a_bihom(
    capsys, tmp_path, p2_bundle, p2_sip, entry, value, witness
):
    """A pairing table that is not additive, or lacks an entry, fails the
    norm_from_sip line with the witness sip check names, and exits 1 like
    a table that is not a semi-inner product."""
    grpd_file, _ = p2_bundle
    doc = bihom_to_doc(p2_sip)
    if value is None:
        del doc["table"][entry]["(0,1)"]
    else:
        doc["table"][entry]["e0"] = value
    table_file = tmp_path / "pairing.json"
    table_file.write_text(dump_document(doc), encoding="utf-8")
    code, out = run(capsys, "sip", "check", str(grpd_file), "--table", str(table_file))
    assert (code, out) == (1, f"bihom_valid: fail, witness: {witness}\nstatus: fail\n")
    code, out = run(capsys, "norm", "check", str(grpd_file), "--from-sip", str(table_file))
    assert (code, out) == (1, f"norm_from_sip: fail, witness: {witness}\nstatus: fail\n")


@pytest.mark.parametrize(
    "target, values, witness",
    [
        ("Q", ["0"] * 4, "family does not separate identities: all values vanish on '(0,1)'"),
        ("Z", [0, 0, 1, 1], "additivity fails at ('(0,1)', '(1,0)'): value of product is (0), sum is (2)"),
    ],
)
def test_norm_check_from_sip_fails_on_a_theta_family_that_builds_no_pairing(
    capsys, p2_bundle, target, values, witness
):
    """A theta family that does not separate identities, or is not additive,
    fails the norm_from_sip line with the witness sip check names, and exits
    1 like a table that is not a bihomomorphism."""
    grpd_file, _ = p2_bundle
    labels = ["e0", "e1", "(0,1)", "(1,0)"]
    theta = {"target": [target], "map": {g: [v] for g, v in zip(labels, values)}}
    sip_file = grpd_file.parent / "family.sip.json"
    sip_file.write_text(dump_document({"thetas": [theta]}), encoding="utf-8")
    code, out = run(capsys, "sip", "check", str(grpd_file), "--table", str(sip_file))
    assert (code, out) == (1, f"bihom_valid: fail, witness: {witness}\nstatus: fail\n")
    code, out = run(capsys, "norm", "check", str(grpd_file), "--from-sip", str(sip_file))
    assert (code, out) == (1, f"norm_from_sip: fail, witness: {witness}\nstatus: fail\n")


@pytest.mark.parametrize(
    "command, path, message",
    [
        ("Q", "map.(0,1)[0]", "expected a rational, got False"),
        ("QI", "map.(0,1)[0]", "expected a rational, got True"),
        ("QI re", "map.(0,1)[0]", "expected a rational, got False"),
        ("table", "table.(0,1).(1,0)", "expected a rational, got True"),
        ("sq", "sq.e0", "expected a rational, got False"),
    ],
)
def test_json_booleans_are_not_rationals(
    capsys, tmp_path, p2_bundle, p2_sip, command, path, message
):
    """JSON true and false are rejected wherever a rational or Gaussian
    value is read, as a Z component already rejects them: exit 2 and one
    path: message line."""
    grpd_file, _ = p2_bundle
    labels = p2_sip.groupoid.arrow_labels
    doc_file = tmp_path / "doc.json"
    if command == "table":
        doc = bihom_to_doc(p2_sip)
        doc["table"]["(0,1)"]["(1,0)"] = True
        argv = ["sip", "check", str(grpd_file), "--table", str(doc_file)]
    elif command == "sq":
        doc = {"sq": dict.fromkeys(labels, False)}
        argv = ["norm", "check", str(grpd_file), "--sq", str(doc_file)]
    else:
        kind = command.split()[0]
        doc = {"target": [kind], "map": {label: ["0"] for label in labels}}
        doc["map"]["(0,1)"] = {
            "Q": [False], "QI": [True], "QI re": [{"re": False, "im": "0"}]
        }[command]
        argv = ["congruence", str(grpd_file), "--hom", str(doc_file)]
    doc_file.write_text(json.dumps(doc), encoding="utf-8")
    assert run_command(argv) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


@pytest.mark.parametrize("command, value", [("sq", "1/0"), ("Q", "-1/0")])
def test_a_zero_denominator_is_named_by_its_text(capsys, tmp_path, p2_bundle, p2_sip, command, value):
    grpd_file, _ = p2_bundle
    labels = p2_sip.groupoid.arrow_labels
    doc_file = tmp_path / "doc.json"
    if command == "sq":
        doc = {"sq": {label: value if label == "(0,1)" else "1" for label in labels}}
        argv, path = ["norm", "check", str(grpd_file), "--sq", str(doc_file)], "sq.(0,1)"
    else:
        doc = {"target": ["Q"], "map": {label: [value if label == "(0,1)" else "0"] for label in labels}}
        argv, path = ["congruence", str(grpd_file), "--hom", str(doc_file)], "map.(0,1)[0]"
    doc_file.write_text(json.dumps(doc), encoding="utf-8")
    assert run_command(argv) == 2
    assert capsys.readouterr().err == f"error: {path}: zero denominator in '{value}'\n"


def test_norm_check_with_explicit_tables(capsys, tmp_path, p5, p5_sip, p5_norm):
    groupoid, _ = p5
    grpd_file = tmp_path / "p5.grpd"
    grpd_file.write_text(dump_document(groupoid_to_doc(groupoid)), encoding="utf-8")
    sq_file = tmp_path / "norm.json"
    sq_file.write_text(dump_document(norm_to_doc(p5_norm)), encoding="utf-8")
    lam_file = tmp_path / "classes.json"
    lam_file.write_text(
        dump_document(partition_to_doc(groupoid, b_partition(p5_sip))),
        encoding="utf-8",
    )
    code, out = run(
        capsys,
        "norm",
        "check",
        str(grpd_file),
        "--sq",
        str(sq_file),
        "--lambda",
        str(lam_file),
    )
    assert code == 0
    assert "triangle: pass" in out
    assert "consistency_doubling: pass" in out


def test_polarize_round_trip_via_cli(capsys, tmp_path, p5, p5_sip, p5_norm):
    groupoid, _ = p5
    grpd_file = tmp_path / "p5.grpd"
    grpd_file.write_text(dump_document(groupoid_to_doc(groupoid)), encoding="utf-8")
    sq_file = tmp_path / "norm.json"
    sq_file.write_text(dump_document(norm_to_doc(p5_norm)), encoding="utf-8")
    lam_file = tmp_path / "classes.json"
    lam_file.write_text(
        dump_document(partition_to_doc(groupoid, b_partition(p5_sip))),
        encoding="utf-8",
    )
    out_file = tmp_path / "polarized.json"
    code, out = run(
        capsys,
        "polarize",
        str(grpd_file),
        "--sq",
        str(sq_file),
        "--lambda",
        str(lam_file),
        "-o",
        str(out_file),
    )
    assert code == 0
    assert "coverage: 485/625" in out
    payload = json.loads(out_file.read_text())
    assert payload["table"]["(0,1)"]["(0,1)"] == {"re": "1", "im": "0"}


def test_polarize_failure_reported(capsys, tmp_path, p2, p2_norm):
    groupoid, _ = p2
    grpd_file = tmp_path / "p2.grpd"
    grpd_file.write_text(dump_document(groupoid_to_doc(groupoid)), encoding="utf-8")
    sq_file = tmp_path / "norm.json"
    sq_file.write_text(dump_document(norm_to_doc(p2_norm)), encoding="utf-8")
    lam_file = tmp_path / "single.json"
    lam_file.write_text(
        dump_document({"classes": [["e0", "e1", "(0,1)", "(1,0)"]]}), encoding="utf-8"
    )
    code, out = run(
        capsys,
        "polarize",
        str(grpd_file),
        "--sq",
        str(sq_file),
        "--lambda",
        str(lam_file),
    )
    assert code == 1
    assert "polarize: fail" in out


def test_polarize_names_the_witness_of_each_failing_law(capsys, tmp_path, p5, p5_sip):
    # the consistent norm of the library test on polarized laws: squared
    # values not quadratic in |theta|, so the polarized pairing is defined but
    # breaks Cauchy-Schwarz and additivity
    groupoid, homs = p5
    theta = homs["theta"]
    rows = b_partition(p5_sip)
    by_value = {0: 0, 1: 1, 2: 4, 3: 100, 4: 16}
    norm = norm_table(groupoid, [by_value[abs(theta.values[g][0])] for g in groupoid.arrows()])
    grpd_file = tmp_path / "p5.grpd"
    grpd_file.write_text(dump_document(groupoid_to_doc(groupoid)), encoding="utf-8")
    sq_file = tmp_path / "norm.json"
    sq_file.write_text(dump_document(norm_to_doc(norm)), encoding="utf-8")
    lam_file = tmp_path / "rows.json"
    lam_file.write_text(dump_document(partition_to_doc(groupoid, rows)), encoding="utf-8")
    out_file = tmp_path / "polarized.json"
    argv = ["polarize", str(grpd_file), "--sq", str(sq_file), "--lambda", str(lam_file)]

    code, out = run(capsys, *argv, "-o", str(out_file))
    assert code == 1
    assert out.splitlines() == [
        "polarize: pass",
        "coverage: 485/625",
        "symmetric: pass",
        "matches_squared_norm: pass",
        "cauchy_schwarz: fail, witness: ((0,1), (0,2))",
        "additive: fail, witness: ((0,1), (1,2), (0,1))",
        "status: fail",
    ]
    assert not out_file.exists()

    code, out = run(capsys, *argv, "--format", "json", "-o", str(out_file))
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "fail"
    assert [(c["name"], c["result"], c["witness"]) for c in payload["checks"]] == [
        ("polarize", "pass", None),
        ("coverage", "485/625", None),
        ("symmetric", "pass", None),
        ("matches_squared_norm", "pass", None),
        ("cauchy_schwarz", "fail", "((0,1), (0,2))"),
        ("additive", "fail", "((0,1), (1,2), (0,1))"),
    ]
    assert not out_file.exists()

    table = {}
    for g in groupoid.arrows():
        for h in groupoid.arrows():
            found = polarize_value_bruteforce(norm, rows, g, h)
            if found:
                table[(g, h)] = gaussian(*found)
    witness = polarized_additivity_bruteforce(groupoid, table)
    labels = ", ".join(groupoid.arrow_label(g) for g in witness)
    assert f"({labels})" == payload["checks"][-1]["witness"]


def test_report_all_passes_and_is_deterministic(capsys, tmp_path):
    assert run_command(["gen", "pair", "--size", "3", "-o", str(tmp_path / "p3.grpd")]) == 0
    capsys.readouterr()
    outputs = []
    for _ in range(2):
        code, out = run(
            capsys,
            "report",
            "--all",
            str(tmp_path / "p3.grpd"),
            "--thetas",
            str(tmp_path / "p3.theta.hom"),
        )
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert "status: pass" in outputs[0]


def test_report_all_complex_bundle(capsys, tmp_path):
    assert (
        run_command(
            ["gen", "complex_pair", "--size", "2", "-o", str(tmp_path / "c4.grpd")]
        )
        == 0
    )
    capsys.readouterr()
    code, out = run(
        capsys,
        "report",
        "--all",
        str(tmp_path / "c4.grpd"),
        "--thetas",
        str(tmp_path / "c4.theta.hom"),
    )
    assert code == 0
    assert "polarization_round_trip: not_applicable" in out
    assert "scalar_set_imaginary_empty: not_applicable" in out


def test_report_all_modular_bundle_is_not_applicable_past_congruence(capsys, tmp_path):
    assert (
        run_command(
            ["gen", "affine_cyclic", "--size", "3", "-o", str(tmp_path / "a3.grpd")]
        )
        == 0
    )
    capsys.readouterr()
    code, out = run(
        capsys,
        "report",
        "--all",
        str(tmp_path / "a3.grpd"),
        "--thetas",
        str(tmp_path / "a3.theta.hom"),
    )
    assert code == 0
    assert "theta_congruence_axioms: pass" in out
    assert "profile: complete=true simple=true efficient=true" in out
    assert "monomorphism_implies_simple: pass" in out
    assert "sip_construction: not_applicable" in out
    assert "status: pass" in out


def test_report_all_non_separating_bundle_fails(capsys, tmp_path, p2):
    groupoid, _ = p2
    grpd_file = tmp_path / "p2.grpd"
    grpd_file.write_text(dump_document(groupoid_to_doc(groupoid)), encoding="utf-8")
    zero_file = tmp_path / "zero.hom"
    zero_file.write_text(
        dump_document(
            {
                "target": ["QI"],
                "map": {
                    label: [{"re": "0", "im": "0"}] for label in groupoid.arrow_labels
                },
            }
        ),
        encoding="utf-8",
    )
    code, out = run(
        capsys, "report", "--all", str(grpd_file), "--thetas", str(zero_file)
    )
    assert code == 1
    assert "sip_construction: fail" in out
    assert "(0,1)" in out


def test_report_all_with_coordinate_thetas(capsys, tmp_path):
    assert (
        run_command(
            ["gen", "complex_pair", "--size", "2", "-o", str(tmp_path / "c4.grpd")]
        )
        == 0
    )
    capsys.readouterr()
    code, out = run(
        capsys,
        "report",
        "--all",
        str(tmp_path / "c4.grpd"),
        "--thetas",
        str(tmp_path / "c4.theta1.hom"),
        str(tmp_path / "c4.theta2.hom"),
    )
    assert code == 0
    assert "row_partition_matches_hom: pass" in out
    assert "polarization_round_trip: pass" in out


def test_json_format(capsys, p2_bundle):
    grpd_file, theta_file = p2_bundle
    code, out = run(
        capsys,
        "congruence",
        str(grpd_file),
        "--hom",
        str(theta_file),
        "--profile",
        "--format",
        "json",
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "fail"
    by_name = {c["name"]: c for c in payload["checks"]}
    assert by_name["complete"]["result"] == "fail"
    assert by_name["complete"]["witness"] == "((0,1), object 1)"


def test_usage_and_input_errors(capsys, tmp_path, p2):
    assert run_command(["gen", "torus", "--size", "2"]) == 2
    assert run_command(["gen", "pair", "--size", "0"]) == 2
    assert run_command(["validate", str(tmp_path / "missing.grpd")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert run_command(["validate", str(bad)]) == 2
    wrong_kind = tmp_path / "wrong.json"
    wrong_kind.write_text('{"sq": {}}', encoding="utf-8")
    assert run_command(["validate", str(wrong_kind)]) == 2
    assert run_command([]) == 2

    # a groupoid that fails validation is an input error everywhere but
    # in the validate command itself
    doc = groupoid_to_doc(p2[0])
    doc["inverse"]["(0,1)"] = "(0,1)"
    broken = tmp_path / "broken.grpd"
    broken.write_text(dump_document(doc), encoding="utf-8")
    theta = tmp_path / "p2.theta.hom"
    assert run_command(["gen", "pair", "--size", "2", "-o", str(tmp_path / "p2.grpd")]) == 0
    assert (
        run_command(["congruence", str(broken), "--hom", str(theta), "--profile"]) == 2
    )
    capsys.readouterr()


def test_hom_and_label_reference_errors(capsys, tmp_path, p2_bundle, p2_sip):
    # a hom document without a value for an arrow fails hom_valid, while one
    # naming a label that is not an arrow, like an unknown --g or --at, is
    # bad input
    grpd_file, theta_file = p2_bundle
    theta = json.loads(theta_file.read_text(encoding="utf-8"))
    missing = tmp_path / "missing.hom"
    missing.write_text(
        json.dumps(dict(theta, map={k: v for k, v in theta["map"].items() if k != "e0"})),
        encoding="utf-8",
    )
    extra = tmp_path / "extra.hom"
    extra.write_text(json.dumps(dict(theta, map={**theta["map"], "zz": [0]})), encoding="utf-8")
    table = tmp_path / "table.json"
    table.write_text(dump_document(bihom_to_doc(p2_sip)), encoding="utf-8")
    g = str(grpd_file)

    assert run_command(["report", "--all", g, "--thetas", str(missing)]) == 1
    captured = capsys.readouterr()
    assert captured.out == (
        "groupoid_axioms: pass\n"
        f"hom_valid: fail, witness: {missing}: no value for arrow 'e0'\n"
        "status: fail\n"
    )
    assert captured.err == ""
    assert run_command(["congruence", g, "--hom", str(missing)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "hom_valid: fail, witness: no value for arrow 'e0'\nstatus: fail\n"
    assert captured.err == ""

    for argv, message in (
        (["report", "--all", g, "--thetas", str(extra)], f"{extra}: unknown arrow 'zz'"),
        (["congruence", g, "--hom", str(extra)], "unknown arrow 'zz'"),
        (["sip", "relate", g, "--table", str(table), "--g", "zz", "--h", "(0,1)"],
         "unknown arrow 'zz'"),
        (["sip", "scalar-set", g, "--table", str(table), "--c", "0", "--g", "(0,1)", "--at", "q"],
         "unknown object 'q'"),
    ):
        assert run_command(argv) == 2, argv
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n"), argv


def test_a_schema_error_in_one_of_several_theta_files_names_it(capsys, tmp_path):
    # both commands read several --thetas files; the one whose value is bad is
    # named as report --all names a theta file whose value is missing
    assert run_command(["gen", "pair", "--size", "3", "-o", str(tmp_path / "p3.grpd")]) == 0
    capsys.readouterr()
    g, theta = str(tmp_path / "p3.grpd"), tmp_path / "p3.theta.hom"
    doc = json.loads(theta.read_text(encoding="utf-8"))
    doc["map"]["(0,1)"] = [1.5]
    bad = tmp_path / "bad.hom"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    truncated = tmp_path / "trunc.hom"
    truncated.write_text('{"target": ["Z"], ', encoding="utf-8")
    truncated_error = "line 1, column 19: Expecting property name enclosed in double quotes"
    doc["map"]["(0,1)"] = [0]
    doc["map"]["zz"] = [0]
    extra = tmp_path / "extra.hom"
    extra.write_text(json.dumps(doc), encoding="utf-8")
    for path, message in (
        (bad, "map.(0,1)[0]: expected an integer, got 1.5"),
        (truncated, truncated_error),
        (extra, "unknown arrow 'zz'"),
    ):
        for argv in (["report", "--all", g], ["sip", "check", g]):
            assert run_command(argv + ["--thetas", str(theta), str(path)]) == 2, argv
            assert capsys.readouterr() == ("", f"error: {path}: {message}\n"), argv
        # a single-document command keeps the bare message
        assert run_command(["congruence", g, "--hom", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


def test_sip_check_names_the_theta_file_missing_a_value(capsys, tmp_path):
    # as report --all does, sip check names the one of its --thetas files
    # that is not total
    assert run_command(["gen", "pair", "--size", "3", "-o", str(tmp_path / "p3.grpd")]) == 0
    capsys.readouterr()
    g, theta = str(tmp_path / "p3.grpd"), tmp_path / "p3.theta.hom"
    doc = json.loads(theta.read_text(encoding="utf-8"))
    del doc["map"]["(0,1)"]
    missing = tmp_path / "missing.hom"
    missing.write_text(json.dumps(doc), encoding="utf-8")
    witness = f"{missing}: no value for arrow '(0,1)'"
    assert run_command(["sip", "check", g, "--thetas", str(theta), str(missing)]) == 1
    assert capsys.readouterr() == (f"bihom_valid: fail, witness: {witness}\nstatus: fail\n", "")
    assert run_command(["report", "--all", g, "--thetas", str(theta), str(missing)]) == 1
    assert capsys.readouterr() == (
        f"groupoid_axioms: pass\nhom_valid: fail, witness: {witness}\nstatus: fail\n", ""
    )


def test_gen_group_writes_one_valid_groupoid(capsys, tmp_path):
    out = tmp_path / "g4.grpd"
    assert run_command(["gen", "group", "--size", "4", "-o", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {out}\n"
    # the group family has no theta, so no hom file is written beside it
    assert [p.name for p in tmp_path.iterdir()] == ["g4.grpd"]
    code, text = run(capsys, "validate", str(out))
    assert code == 0
    assert text == "groupoid_axioms: pass\nobjects: 1\narrows: 4\nstatus: pass\n"

    assert run_command(["gen", "group", "--size", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: size must be a positive integer, got 0\n"


@pytest.mark.parametrize("scalar", ["abc", "1/0"])
def test_unparseable_scalar_is_an_input_error(capsys, p2_bundle, tmp_path, p2_sip, scalar):
    grpd_file, _ = p2_bundle
    from grpd.documents import bihom_to_doc

    table_file = tmp_path / "pairing.json"
    table_file.write_text(dump_document(bihom_to_doc(p2_sip)), encoding="utf-8")
    argv = ["sip", "scalar-set", str(grpd_file), "--table", str(table_file)]
    assert run_command(argv + ["--c", scalar, "--g", "(0,1)"]) == 2
    assert capsys.readouterr().err.startswith("error: --c: ")


@pytest.mark.parametrize(
    "scalar, g, members",
    [("-1,1", "(1,0)", "1, witness: (3,1)"), ("-1/2", "(0,2)", "2, witness: (1,0), (2,1)")],
)
def test_scalar_with_a_leading_minus_is_read_as_a_value(capsys, tmp_path, scalar, g, members):
    # rows scale with theta (x, y) = pot[x] - pot[y]: theta(3,1) = i - 1 is
    # (-1+i) * theta(1,0), and theta(1,0) = theta(2,1) = 1 is -1/2 * theta(0,2)
    groupoid, _ = pair_groupoid(4)
    pot = [gaussian(0), gaussian(1), gaussian(2), gaussian(0, 1)]
    values = {
        (f"e{x}" if x == y else f"({x},{y})"): [pot[x] - pot[y]] for x in range(4) for y in range(4)
    }
    pairing = sip_from_thetas(groupoid, [validate_hom(groupoid, values, SIG_QI)])
    grpd_file, table_file = tmp_path / "p4.grpd", tmp_path / "pairing.json"
    grpd_file.write_text(dump_document(groupoid_to_doc(groupoid)), encoding="utf-8")
    table_file.write_text(dump_document(bihom_to_doc(pairing)), encoding="utf-8")
    argv = ["sip", "scalar-set", str(grpd_file), "--table", str(table_file)]
    for c in (["--c", scalar], [f"--c={scalar}"]):
        code, out = run(capsys, *argv, *c, "--g", g)
        assert code == 0
        assert out == f"members: {members}\nstatus: pass\n"


def test_huge_decimal_exponent_is_an_input_error(capsys, p2_bundle, tmp_path, p2_sip, p2_norm):
    grpd_file, _ = p2_bundle
    from grpd.documents import bihom_to_doc

    doc = norm_to_doc(p2_norm)
    doc["sq"]["(0,1)"] = "1e999999999"
    norm_file = tmp_path / "norm.json"
    norm_file.write_text(dump_document(doc), encoding="utf-8")
    assert run_command(["norm", "check", str(grpd_file), "--sq", str(norm_file)]) == 2
    assert capsys.readouterr().err.startswith("error: sq.(0,1): ")

    table_file = tmp_path / "pairing.json"
    table_file.write_text(dump_document(bihom_to_doc(p2_sip)), encoding="utf-8")
    argv = ["sip", "scalar-set", str(grpd_file), "--table", str(table_file)]
    assert run_command(argv + ["--c", "1e999999999", "--g", "(0,1)"]) == 2
    assert capsys.readouterr().err.startswith("error: --c: ")


def test_error_lines_echo_outside_values_within_a_bound(capsys, p2_bundle, tmp_path, p2, p2_norm):
    grpd_file, _ = p2_bundle
    groupoid = p2[0]
    nested = "[" * 500 + "0" + "]" * 500
    entries = ", ".join(f'"{groupoid.arrow_label(g)}": [{nested}]' for g in groupoid.arrows())
    hom_file = tmp_path / "deep.hom"
    hom_file.write_text(f'{{"target": ["Z"], "map": {{{entries}}}}}', encoding="utf-8")
    doc = norm_to_doc(p2_norm)
    doc["sq"]["(0,1)"] = "x" * 3000
    norm_file = tmp_path / "norm.json"
    norm_file.write_text(dump_document(doc), encoding="utf-8")

    for argv, echo in (
        (["congruence", str(grpd_file), "--hom", str(hom_file)], "expected an integer, got [["),
        (["norm", "check", str(grpd_file), "--sq", str(norm_file)], "Invalid literal for Fraction: 'xx"),
    ):
        assert run_command(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and echo in err and err.count("\n") == 1
        assert len(err.rstrip("\n")) <= 200


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_profile_of_a_non_congruence_fails_without_check_axioms(capsys, tmp_path, p3, fmt):
    groupoid = p3[0]
    classes = [[label] for label in groupoid.arrow_labels if label not in ("(0,1)", "(2,0)")]
    classes.append(["(0,1)", "(2,0)"])
    part_file = tmp_path / "classes.json"
    part_file.write_text(dump_document({"classes": classes}), encoding="utf-8")
    grpd_file = tmp_path / "p3.grpd"
    grpd_file.write_text(dump_document(groupoid_to_doc(groupoid)), encoding="utf-8")
    code, out = run(
        capsys, "congruence", str(grpd_file), "--partition", str(part_file), "--profile",
        "--format", fmt,
    )
    witness = "parallelism fails at (g1=(0,1), g2=(0,1), h1=(1,0), h2=(1,0))"
    assert code == 1
    if fmt == "json":
        payload = json.loads(out)
        assert payload["status"] == "fail"
        assert {"name": "profile", "result": "fail", "witness": witness} in payload["checks"]
    else:
        assert f"profile: fail, witness: {witness}\n" in out
        assert out.endswith("status: fail\n")


def test_long_labels_are_bounded_in_witness_and_error_lines(capsys, tmp_path):
    # Z3 with 2+2 -> 0: associativity fails at (g1, g1, g2), and g1 is long
    long = "x" * 3001
    labels = ["g0", long, "g2"]
    table = [[(a + b) % 3 for b in range(3)] for a in range(3)]
    table[2][2] = 0
    doc = {
        "objects": ["*"],
        "arrows": [{"id": lab, "src": "*", "dst": "*"} for lab in labels],
        "compose": [
            [labels[a], labels[b], labels[table[a][b]]] for a in range(3) for b in range(3)
        ],
    }
    grpd_file = tmp_path / "z3.grpd"
    grpd_file.write_text(dump_document(doc), encoding="utf-8")
    code, out = run(capsys, "validate", str(grpd_file))
    assert code == 1
    line = out.splitlines()[0]
    assert line.startswith("groupoid_axioms: fail, witness: associativity fails at ('xxx")
    assert line.endswith(", 'g2')") and len(line) <= 200

    # document paths name a long label by a bounded prefix
    table[2][2] = 1
    doc["compose"] = [
        [labels[a], labels[b], labels[table[a][b]]] for a in range(3) for b in range(3)
    ]
    grpd_file.write_text(dump_document(doc), encoding="utf-8")
    hom_file = tmp_path / "long.hom"
    hom_file.write_text(
        dump_document({"target": ["Z"], "map": {long: [0, 0]}}), encoding="utf-8"
    )
    sq_file = tmp_path / "long.json"
    sq_file.write_text(dump_document({"sq": {"g0": "0", "g2": "0"}}), encoding="utf-8")
    bihom_file = tmp_path / "long.bihom"
    bihom_file.write_text(
        dump_document({"table": {long: {long: "x"}}}), encoding="utf-8"
    )
    for argv, path in (
        (["congruence", str(grpd_file), "--hom", str(hom_file)], "map.xxx"),
        (["norm", "check", str(grpd_file), "--sq", str(sq_file)], "sq.xxx"),
        (["sip", "check", str(grpd_file), "--table", str(bihom_file)], "table.xxx"),
    ):
        assert run_command(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}") and err.count("\n") == 1
        assert len(err.rstrip("\n")) <= 200


def _z3_groupoid(path, labels):
    """Z3 as a one-object groupoid whose arrows carry ``labels``, the first
    being the identity."""
    doc = {
        "objects": ["*"],
        "arrows": [{"id": lab, "src": "*", "dst": "*"} for lab in labels],
        "compose": [
            [labels[a], labels[b], labels[(a + b) % 3]] for a in range(3) for b in range(3)
        ],
    }
    path.write_text(dump_document(doc), encoding="utf-8")
    return str(path)


def test_long_labels_are_bounded_in_every_witness_renderer(capsys, tmp_path):
    long = "x" * 3001
    z3 = _z3_groupoid(tmp_path / "z3.grpd", ["g0", long, "g2"])

    def write(name, doc):
        (tmp_path / name).write_text(dump_document(doc), encoding="utf-8")
        return str(tmp_path / name)

    classes = write("classes.json", {"classes": [["g0", long], ["g2"]]})
    # sq(long) = 0 breaks identity_zero; long * long = g2 breaks the triangle
    # and the doubling of the class {g0, long}
    flat = write("flat.json", {"sq": {"g0": "0", long: "0", "g2": "1"}})
    # norms differ inside the class {g0, long}
    uneven = write("uneven.json", {"sq": {"g0": "0", long: "1", "g2": "1"}})
    labels = ("g0", long, "g2")
    zero = write("zero.bihom", {"table": {a: {b: "0" for b in labels} for a in labels}})
    cases = (
        (["congruence", z3, "--partition", classes, "--check-axioms"], "congruence_axioms"),
        (["norm", "check", z3, "--sq", flat, "--lambda", classes], "identity_zero"),
        (["norm", "check", z3, "--sq", flat, "--lambda", classes], "triangle"),
        (["norm", "check", z3, "--sq", flat, "--lambda", classes], "consistency_doubling"),
        (["polarize", z3, "--sq", uneven, "--lambda", classes], "polarize"),
        (["sip", "scalar-set", z3, "--table", zero, "--c", "1", "--g", "g0"], "members"),
    )
    for argv, name in cases:
        code, out = run(capsys, *argv)
        line = next(line for line in out.splitlines() if line.startswith(f"{name}: "))
        assert "witness: " in line and "xxx" in line, line[:200]
        assert len(line) <= 200, (name, len(line))

    # a profile witness names the first arrow of a class that is not simple
    z3_long_identity = _z3_groupoid(tmp_path / "z3b.grpd", [long, "g1", "g2"])
    single = write("single.json", {"classes": [[long, "g1", "g2"]]})
    code, out = run(capsys, "congruence", z3_long_identity, "--partition", single, "--profile")
    line = next(line for line in out.splitlines() if line.startswith("simple: "))
    assert code == 1 and line.startswith("simple: fail, witness: (xxx") and len(line) <= 200


def test_huge_values_in_witness_text_are_bounded(capsys, tmp_path, p2_bundle, p3):
    grpd_file, _ = p2_bundle
    # "1e4300" has 4301 digits, one past the interpreter's int-to-str limit
    big_hom = tmp_path / "big.hom"
    big_hom.write_text(
        dump_document(
            {
                "target": ["Q"],
                "map": {"e0": ["0"], "e1": ["0"], "(0,1)": ["1e4300"], "(1,0)": ["0"]},
            }
        ),
        encoding="utf-8",
    )
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "grpd.cli", "congruence", str(grpd_file), "--hom", str(big_hom)],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(root / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 1 and "Traceback" not in proc.stderr, proc.stderr[-500:]
    line = proc.stdout.splitlines()[0]
    assert line.startswith("hom_valid: fail, witness: additivity fails at ('(0,1)', '(1,0)')")
    assert line.endswith("sum is (<a number of more than 4300 digits>)") and len(line) <= 200

    norm_doc = {"sq": {"e0": "0", "e1": "0", "(0,1)": "-1e4300", "(1,0)": "1"}}
    norm_file = tmp_path / "negative.json"
    norm_file.write_text(dump_document(norm_doc), encoding="utf-8")
    assert run_command(["norm", "check", str(grpd_file), "--sq", str(norm_file)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: sq: squared value must be nonnegative, got <a number")
    assert len(err.rstrip("\n")) <= 200

    # the witness-disagreement partition of pair(3) with huge class norms
    groupoid = p3[0]
    g3 = tmp_path / "p3.grpd"
    g3.write_text(dump_document(groupoid_to_doc(groupoid)), encoding="utf-8")
    classes = [["e0", "e1", "e2"], ["(0,1)", "(2,1)"], ["(1,2)", "(0,2)"], ["(1,0)"], ["(2,0)"]]
    part_file = tmp_path / "classes.json"
    part_file.write_text(dump_document({"classes": classes}), encoding="utf-8")
    sq = {label: "0" if label.startswith("e") else "99e4300" for label in groupoid.arrow_labels}
    norm_file.write_text(dump_document({"sq": sq}), encoding="utf-8")
    code, out = run(capsys, "polarize", str(g3), "--sq", str(norm_file), "--lambda", str(part_file))
    line = out.splitlines()[0]
    assert code == 1 and len(line) <= 200
    assert line.startswith("polarize: fail, witness: witness quadruples for ('(0,1)', '(0,2)')")
    assert line.endswith("values (<a number of more than 4300 digits>, 0)")


@pytest.mark.parametrize("key, label", [("inverse", "(0,1)"), ("identity", "0")])
@pytest.mark.parametrize("value", [["x"], {"x": "e0"}, 1, None])
def test_declared_maps_need_string_values(capsys, tmp_path, p3, key, label, value):
    doc = groupoid_to_doc(p3[0])
    doc[key][label] = value
    bad = tmp_path / "bad.grpd"
    bad.write_text(dump_document(doc), encoding="utf-8")
    theta = tmp_path / "p3.theta.hom"
    assert run_command(["gen", "pair", "--size", "3", "-o", str(tmp_path / "p3.grpd")]) == 0
    capsys.readouterr()
    for argv in (["validate", str(bad)], ["report", "--all", str(bad), "--thetas", str(theta)]):
        assert run_command(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {key}.{label}: required string\n"


def test_invalid_groupoid_fails_validate_and_is_bad_input_elsewhere(capsys, tmp_path, p2, p2_sip, p2_norm):
    # validate reports the axioms as a check; every other command needs a
    # valid groupoid as its input
    doc = groupoid_to_doc(p2[0])
    doc["inverse"]["(0,1)"] = "(0,1)"
    broken = tmp_path / "broken.grpd"
    broken.write_text(dump_document(doc), encoding="utf-8")
    assert run_command(["gen", "pair", "--size", "2", "-o", str(tmp_path / "p2.grpd")]) == 0
    theta = str(tmp_path / "p2.theta.hom")
    table = tmp_path / "table.json"
    table.write_text(dump_document(bihom_to_doc(p2_sip)), encoding="utf-8")
    sq = tmp_path / "sq.json"
    sq.write_text(dump_document(norm_to_doc(p2_norm)), encoding="utf-8")
    rows = tmp_path / "rows.json"
    rows.write_text(dump_document(partition_to_doc(p2[0], b_partition(p2_sip))), encoding="utf-8")
    capsys.readouterr()

    assert run_command(["validate", str(broken)]) == 1
    assert capsys.readouterr().out.startswith("groupoid_axioms: fail, witness: arrow '(0,1)'")
    g = str(broken)
    for argv in (
        ["congruence", g, "--hom", theta, "--profile"],
        ["sip", "check", g, "--thetas", theta],
        ["sip", "scalar-set", g, "--table", str(table), "--c", "1", "--g", "e0"],
        ["norm", "check", g, "--sq", str(sq)],
        ["polarize", g, "--sq", str(sq), "--lambda", str(rows)],
        ["report", "--all", g, "--thetas", theta],
    ):
        assert run_command(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: arrow '(0,1)'"), argv


def test_polarize_output_past_the_digit_limit_is_an_input_error(capsys, tmp_path, p3):
    groupoid = p3[0]
    g3 = tmp_path / "p3.grpd"
    g3.write_text(dump_document(groupoid_to_doc(groupoid)), encoding="utf-8")
    bihom = sip_from_thetas(groupoid, [p3[1]["theta"]])
    rows = tmp_path / "rows.json"
    rows.write_text(dump_document(partition_to_doc(groupoid, b_partition(bihom))), encoding="utf-8")
    # every squared norm of the pairing times 10^4300: still consistent, and
    # the polarized values have more digits than str() may print
    sq = {groupoid.arrow_label(g): f"{bihom.entry(g, g).re}e4300" for g in groupoid.arrows()}
    norm_file = tmp_path / "sq.json"
    norm_file.write_text(dump_document({"sq": sq}), encoding="utf-8")
    out_file = tmp_path / "polarized.json"
    argv = ["polarize", str(g3), "--sq", str(norm_file), "--lambda", str(rows)]
    assert run_command(argv) == 0
    capsys.readouterr()
    assert run_command(argv + ["-o", str(out_file)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cannot write the value <a number of more than 4300 digits>\n"
    assert not out_file.exists()


def test_one_parser_serves_an_interleaved_sequence(capsys, tmp_path, p2_bundle, p2, p2_sip):
    # the parser is built once per process, so no command may leave state in
    # it that changes how a later one reads
    grpd_file, theta_file = p2_bundle
    groupoid, homs = p2
    table_file, part_file = tmp_path / "pairing.json", tmp_path / "classes.json"
    table_file.write_text(dump_document(bihom_to_doc(p2_sip)), encoding="utf-8")
    part_file.write_text(
        dump_document(partition_to_doc(groupoid, congruence_from_hom(homs["theta"]))),
        encoding="utf-8",
    )
    g = str(grpd_file)
    sequence = [
        ["validate", g],
        ["validate", g, "--format", "yaml"],
        ["sip", "scalar-set", g, "--table", str(table_file), "--c", "-1,1", "--g", "(0,1)"],
        ["congruence", g, "--hom", str(theta_file), "--check-axioms"],
        ["congruence", g, "--partition", str(part_file), "--check-axioms"],
    ]

    def outcomes():
        results = []
        for argv in sequence:
            code = run_command(argv)
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        return results

    first = outcomes()
    assert [code for code, _, _ in first] == [0, 2, 0, 0, 0]
    assert first[1][1] == "" and first[1][2].startswith("usage: grpd validate")
    assert "invalid choice: 'yaml'" in first[1][2]
    assert first[2][1].startswith("members: ")
    assert first[3][1].startswith("hom_valid: pass\n")
    assert first[4][1].startswith("classes: ")
    assert outcomes() == first
    assert outcomes() == first
    assert build_parser() is build_parser()


@pytest.fixture()
def collector_spy(monkeypatch):
    """Records whether the cyclic collector runs each time a groupoid
    document is read, and turns it back on after the test whatever happens."""
    seen = []
    read = grpd.documents.groupoid_from_doc

    def spy(payload):
        seen.append(gc.isenabled())
        return read(payload)

    monkeypatch.setattr(grpd.documents, "groupoid_from_doc", spy)
    yield seen
    gc.enable()


@pytest.mark.parametrize("change, code", [(None, 0), ("inverse", 1), ("objects", 2)])
def test_the_collector_is_paused_while_a_command_runs(capsys, tmp_path, p2, collector_spy, change, code):
    doc = groupoid_to_doc(p2[0])
    if change == "inverse":
        doc["inverse"]["(0,1)"] = "(0,1)"
    elif change == "objects":
        doc["objects"] = []
    path = tmp_path / "g.grpd"
    path.write_text(dump_document(doc), encoding="utf-8")
    assert gc.isenabled()
    assert run_command(["validate", str(path)]) == code
    capsys.readouterr()
    assert collector_spy == [False]
    assert gc.isenabled()


def test_the_collector_is_resumed_when_a_command_raises(p2_bundle, monkeypatch, collector_spy):
    def crash(payload):
        collector_spy.append(gc.isenabled())
        raise RuntimeError("planted")

    monkeypatch.setattr(grpd.documents, "groupoid_from_doc", crash)
    with pytest.raises(RuntimeError, match="planted"):
        run_command(["validate", str(p2_bundle[0])])
    assert collector_spy == [False]
    assert gc.isenabled()


def test_a_caller_who_paused_the_collector_finds_it_paused(capsys, p2_bundle, collector_spy):
    gc.disable()
    assert run_command(["validate", str(p2_bundle[0])]) == 0
    capsys.readouterr()
    assert collector_spy == [False]
    assert not gc.isenabled()
