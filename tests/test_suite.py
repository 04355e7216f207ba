"""The library suite behind ``grpd report --all`` runs each check once and
hands its report to the stage that depends on it."""

from __future__ import annotations

import contextlib
import functools
import io
import json
import sys
from collections import Counter

from grpd import homs, norm, sip
from grpd.cli import run_command
from grpd.documents import Report, dump_document
from grpd.families import pair_groupoid
from grpd.scalars import GaussianRational, gaussian
from grpd.suite import _add_sip_checks


def _pair5(tmp_path):
    groupoid = tmp_path / "pair5.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert run_command(["gen", "pair", "--size", "5", "-o", str(groupoid)]) == 0
    return groupoid, tmp_path / "pair5.theta.hom"


def _count_calls(monkeypatch, originals) -> Counter:
    """Wrap each named function in every grpd namespace that binds it, so
    calls the library makes to itself are counted too."""
    calls = Counter()

    def counted(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name, module in list(sys.modules.items()):
        if name == "grpd" or name.startswith("grpd."):
            for fname, fn in originals.items():
                if vars(module).get(fname) is fn:
                    monkeypatch.setattr(module, fname, counted(fname, fn))
    return calls


def _run(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run_command(argv) == 0
    return out.getvalue()


def test_report_all_runs_each_prerequisite_check_once(tmp_path, monkeypatch):
    groupoid, theta = _pair5(tmp_path)
    checks = {
        "validate_sip": sip.validate_sip,
        "validate_affine_congruence": homs.validate_affine_congruence,
        "consistency_check": norm.consistency_check,
        "class_pair_products": homs.class_pair_products,
        "validate_polarized": norm.validate_polarized,
        "scalar_set": sip.scalar_set,
    }
    calls = _count_calls(monkeypatch, checks)
    out = _run(["report", "--all", str(groupoid), "--thetas", str(theta)])
    assert out.endswith("status: pass\n")
    # the theta congruence and the row congruence are two partitions, so the
    # axioms run twice; each builds one class-pair grouping, and the
    # consistency check builds the third, which the parallelogram survey and
    # polarization then read; the polarized pairing is compared with the
    # certified one, never validated on its own; the scalar-set laws are read
    # from the witnesses of the laws they follow from, so no scalar set is
    # built
    assert {name: calls[name] for name in checks} == {
        "validate_sip": 1,
        "validate_affine_congruence": 2,
        "consistency_check": 1,
        "class_pair_products": 3,
        "validate_polarized": 0,
        "scalar_set": 0,
    }


def test_report_all_gaussian_multiplications_are_pinned(tmp_path, monkeypatch):
    groupoid, theta = _pair5(tmp_path)
    calls = Counter()
    multiply = GaussianRational.__mul__

    def counted(self, other):
        calls["mul"] += 1
        return multiply(self, other)

    monkeypatch.setattr(GaussianRational, "__mul__", counted)
    monkeypatch.setattr(GaussianRational, "__rmul__", counted)
    out = _run(["report", "--all", str(groupoid), "--thetas", str(theta)])
    assert out.endswith("status: pass\n")
    # the pairing sums its entries on integer triples, and the row index is
    # built from the value vectors, normalising each distinct nonzero one
    # once: 8 length-1 vectors (the theta values -4..4 but 0); no scalar set
    # is built, since the scalar-set laws are read from the witnesses of the
    # laws they follow from
    assert calls["mul"] == 8


def test_norm_check_from_sip_reads_the_row_partition_without_its_axioms(tmp_path, monkeypatch):
    groupoid, theta = _pair5(tmp_path)
    pairing = tmp_path / "pair5.sip.json"
    pairing.write_text(dump_document({"thetas": [json.loads(theta.read_text())]}), encoding="utf-8")
    calls = _count_calls(
        monkeypatch, {"validate_affine_congruence": homs.validate_affine_congruence}
    )
    out = _run(["norm", "check", str(groupoid), "--from-sip", str(pairing)])
    assert out.endswith("status: pass\n")
    assert "consistency_class_norms: pass" in out
    # the report has no congruence line, so the row partition is only read
    assert calls["validate_affine_congruence"] == 0


def test_sip_laws_name_their_witnesses_with_or_without_the_suite_prefix():
    # report --all only checks pairings built by sip_from_thetas, which are
    # semi-inner products, so its sip_* lines fail only on a planted table
    groupoid, family = pair_groupoid(3)
    table = dict(sip.sip_from_thetas(groupoid, [family["theta"]]).table)
    a, b = groupoid.arrow_index("(0,1)"), groupoid.arrow_index("(1,2)")
    table[(a, b)] = gaussian(0, 1)
    table[(b, b)] = gaussian(-1)
    sip_report = sip.validate_sip(sip.Bihom(groupoid, table, "complex"))
    lines = [
        "conjugate_symmetry: fail, witness: ((0,1), (1,2))",
        "positive_definiteness: fail, witness: (1,2)",
        "cauchy_schwarz: fail, witness: ((0,1), (1,2))",
    ]
    for prefix in ("", "sip_"):
        report = Report()
        _add_sip_checks(report, sip_report, prefix)
        assert report.render("text").splitlines() == [prefix + line for line in lines] + ["status: fail"]
