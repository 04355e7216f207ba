"""The library suite behind ``grpd report --all`` runs each check once and
hands its report to the stage that depends on it."""

from __future__ import annotations

import contextlib
import functools
import io
import sys
from collections import Counter

from grpd import homs, norm, sip
from grpd.cli import run_command


def test_report_all_runs_each_prerequisite_check_once(tmp_path, monkeypatch):
    groupoid = tmp_path / "pair5.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert run_command(["gen", "pair", "--size", "5", "-o", str(groupoid)]) == 0

    calls = Counter()

    def counted(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    originals = {
        "validate_sip": sip.validate_sip,
        "validate_affine_congruence": homs.validate_affine_congruence,
        "consistency_check": norm.consistency_check,
        "class_pair_products": homs.class_pair_products,
    }
    for name, module in list(sys.modules.items()):
        if name == "grpd" or name.startswith("grpd."):
            for fname, fn in originals.items():
                if vars(module).get(fname) is fn:
                    monkeypatch.setattr(module, fname, counted(fname, fn))

    argv = ["report", "--all", str(groupoid), "--thetas", str(tmp_path / "pair5.theta.hom")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run_command(argv) == 0
    assert out.getvalue().endswith("status: pass\n")
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
