"""Checks on the benchmark itself: pinned work counters and its metric list.

Run from the root of the repository:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run as bench  # noqa: E402
import workloads  # noqa: E402
from tracing import WorkCounter  # noqa: E402

# work of one `report --all` on the pair groupoid with 5 objects and its
# canonical theta (x, y) -> x - y; a change that moves any of these changes
# how much work the checks do, and must update them here
PAIR5_COUNTS = {
    "groupoid.arrows": 25,
    "groupoid.composable_pairs": 125,
    "sip.pairing_entries": 625,
    "sip.scalar_set.calls": 170,
    "sip.validate_sip.calls": 3,
    "homs.validate_affine_congruence.calls": 3,
    "norm.parallelogram_witnesses": 4205,
    "norm.polarized_pairs": 485,
    "scalars.sqrt_leq.calls": 375,
    "scalars.gaussian_mul.calls": 7350,
    "scalars.gaussian_add.calls": 8824,
}


def pair5_counts(tmp_path: Path) -> dict[str, int]:
    from grpd.cli import run_command

    groupoid = tmp_path / "pair5.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert run_command(["gen", "pair", "--size", "5", "-o", str(groupoid)]) == 0
    argv = ["report", "--all", str(groupoid), "--thetas", str(tmp_path / "pair5.theta.hom")]
    counter = WorkCounter()
    counter.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert run_command(argv) == 0
    finally:
        counter.uninstall()
    return {name: counter.counts[name] for name in PAIR5_COUNTS}


def test_pair5_counters_are_pinned_and_repeat(tmp_path):
    assert pair5_counts(tmp_path) == PAIR5_COUNTS
    assert pair5_counts(tmp_path) == PAIR5_COUNTS


def test_counting_leaves_grpd_unwrapped(tmp_path):
    from grpd import sip
    from grpd.scalars import GaussianRational

    before = (sip.scalar_set, GaussianRational.__add__)
    pair5_counts(tmp_path)
    assert (sip.scalar_set, GaussianRational.__add__) == before


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == bench.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == bench.PER_LAYER
