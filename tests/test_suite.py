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
from grpd.documents import dump_document


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
    calls = _count_calls(
        monkeypatch,
        {
            "validate_sip": sip.validate_sip,
            "validate_affine_congruence": homs.validate_affine_congruence,
            "consistency_check": norm.consistency_check,
            "class_pair_products": homs.class_pair_products,
        },
    )
    out = _run(["report", "--all", str(groupoid), "--thetas", str(theta)])
    assert out.endswith("status: pass\n")
    # the theta congruence and the row congruence are two partitions, so the
    # axioms run twice; each builds one class-pair grouping, and the
    # consistency check builds the third, which the parallelogram survey and
    # polarization then read
    assert dict(calls) == {
        "validate_sip": 1,
        "validate_affine_congruence": 2,
        "consistency_check": 1,
        "class_pair_products": 3,
    }


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
