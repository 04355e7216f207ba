"""Benchmark for grpd: command latency on three seeded workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload report_real --seed 1 --seconds 30 --trace 0

``--workload all`` runs the three workloads one after another, each in a
fresh process, and prints every metric of each.

The benchmark drives grpd only through ``grpd.cli.run_command(argv)`` with
stdout captured, as a closed loop with a single caller: the next command
starts when the previous one has returned. Each workload is a fixed rotation
of commands over documents generated from ``--seed`` (see ``workloads.py``),
and every output is checked against the verdicts its construction implies.

With ``--trace 0`` it prints the end-to-end metrics. With ``--trace 1`` it
prints per-layer metrics instead: self time per module and per public
function from an interleaved traced run, and exact work counts from a
separate counting pass over one rotation (see ``tracing.py``). The last line
of stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it gives sample counts and other detail.

Time metrics are scaled to a reference speed. On a shared machine the
speed of Python code swings by up to about 1.8x within seconds as other
load comes and goes, so raw wall times of the same run differ far more
than any regression worth catching. A short fixed loop of pure Python
(``reference_loop``) is therefore timed between commands, and each wall
time is scaled by ``REFERENCE_MS`` over the mean of the two reference
passes that bracket it. ``command_p50_ms``, ``command_tail_ms``,
``commands_per_s`` and ``setup_s`` are thus figures for a machine on which
that loop takes ``REFERENCE_MS``; the raw wall-time figures are in the
detail line.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracing import Tracer, WorkCounter  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
# wall times are scaled to a machine on which reference_loop takes this
# long, about its time on an idle 2-vCPU Xeon VM under Python 3.11; a
# reference pass runs before a command once this many seconds have passed
# since the last one
REFERENCE_MS = 0.9
REFERENCE_EVERY = 0.02

END_TO_END = [
    ("command_p50_ms", "ms"),
    ("command_tail_ms", "ms"),
    ("commands_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
    ("ok_rate", "ratio"),
]

LAYERS = ("cli", "documents", "groupoid", "homs", "sip", "norm", "scalars", "families")

# per-command self time of single public functions; documents.from_doc sums
# every *_from_doc reader
FUNCTION_SELF = (
    "sip.scalar_set", "sip.sip_from_thetas", "sip.validate_sip", "sip.validate_bihom",
    "sip.b_partition", "sip.transitive_props_check",
    "norm.polarize", "norm.parallelogram_survey", "norm.validate_norm",
    "norm.consistency_check", "norm.scale_check",
    "groupoid.validate_groupoid",
    "documents.parse_document", "documents.from_doc", "documents.render",
    "homs.validate_hom", "homs.validate_affine_congruence", "homs.congruence_profile",
)

# per-command work from the counting pass
COUNTS = (
    "groupoid.arrows", "groupoid.composable_pairs", "documents.bytes_in",
    "sip.pairing_entries", "sip.scalar_set.calls", "sip.validate_sip.calls",
    "homs.validate_affine_congruence.calls",
    "norm.parallelogram_witnesses", "norm.polarized_pairs",
    "scalars.sqrt_leq.calls", "scalars.gaussian_mul.calls", "scalars.gaussian_add.calls",
)

PER_LAYER = (
    [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [(f"{name}.self_s", "s") for name in FUNCTION_SELF]
    + [(name, "count") for name in COUNTS]
    + [("trace.wall_s", "s"), ("trace.overhead_ratio", "ratio")]
)


class Driver:
    """Runs command lines through one imported copy of grpd and checks them."""

    def __init__(self, workload: str, seed: int, work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.run_command = None
        self.commands: list[workloads.Command] = []
        self.expects: list[workloads.Expect] = []

    def setup(self) -> float:
        """Import grpd afresh, write the documents and run one warm-up
        command; returns the seconds taken."""
        shutil.rmtree(self.work, ignore_errors=True)
        gc.collect()
        start = time.perf_counter()
        self.work.mkdir(parents=True)
        for name in [m for m in sys.modules if m == "grpd" or m.startswith("grpd.")]:
            del sys.modules[name]
        cli = importlib.import_module("grpd.cli")
        if Path(cli.__file__).resolve().parent != SRC / "grpd":
            raise SystemExit(f"error: imported grpd from {cli.__file__}, not from {SRC}")
        self.run_command = cli.run_command
        self.commands = self.build()
        self.call(self.run_command, self.commands[0].argv)
        return time.perf_counter() - start

    def build(self) -> list[workloads.Command]:
        return workloads.build(self.workload, self.seed, self.work, lambda argv: self.call(self.run_command, argv))

    def call(self, fn, argv: list[str]) -> tuple[int | None, str]:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = fn(argv)
        except Exception:  # a crash is an error of the program under test
            if self.failed == 0:
                traceback.print_exc()
            return None, out.getvalue()
        return code, out.getvalue()

    def timed(self, fn, i: int) -> float:
        """Run command ``i`` of the rotation once; returns its wall time."""
        argv = self.commands[i].argv
        start = time.perf_counter()
        code, out = self.call(fn, argv)
        elapsed = time.perf_counter() - start
        self.attempted += 1
        if not workloads.verify(self.expects[i], code, out, argv):
            if self.failed == 0:
                print(f"wrong output from {argv}: exit {code}\n{out}", file=sys.stderr)
            self.failed += 1
        return elapsed


REFERENCE_KEYS = [(i % 36, i % 6) for i in range(200)]


def reference_loop() -> float:
    """Time one pass of fixed pure-Python work in grpd's own mix: exact
    fractions, tuple-keyed dictionaries and small tuples."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc = Fraction(0)
        table: dict = {}
        for i, key in enumerate(REFERENCE_KEYS, 1):
            acc += Fraction(i, 7) * Fraction(3, i + 1)
            table[key] = (acc, table.get(key))
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scaled(wall: float, before: float, after: float) -> float:
    """``wall`` at reference speed, from the reference passes around it."""
    return wall * REFERENCE_MS / 1e3 / ((before + after) / 2)


def end_to_end(driver: Driver, seconds: float) -> tuple[dict, dict]:
    setups = []
    for _ in range(SETUP_REPEATS):
        before = reference_loop()
        wall = driver.setup()
        setups.append(scaled(wall, before, reference_loop()))
    driver.expects = [c.expect() for c in driver.commands]

    # (wall time, index of the last reference pass before the command)
    runs: list[tuple[float, int]] = []
    references = [(time.perf_counter(), reference_loop())]
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(runs) <= TAIL_BEYOND:
        now = time.perf_counter()
        if now - references[-1][0] > REFERENCE_EVERY:
            references.append((now, reference_loop()))
        runs.append((driver.timed(driver.run_command, len(runs) % len(driver.commands)), len(references) - 1))
    references.append((time.perf_counter(), reference_loop()))

    times = [scaled(wall, references[k][1], references[k + 1][1]) for wall, k in runs]
    n = len(times)
    walls = [wall for wall, _ in runs]
    metrics = {
        "command_p50_ms": statistics.median(times) * 1e3,
        "command_tail_ms": sorted(times)[n - TAIL_BEYOND - 1] * 1e3,
        # the benchmark's own checks between commands are left out
        "commands_per_s": n / sum(times),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setups),
        "ok_rate": (driver.attempted - driver.failed) / driver.attempted,
    }
    detail = {
        "samples": n,
        "tail_percentile": 100 * (n - TAIL_BEYOND) / n,
        "rotation": len(driver.commands),
        "setup_runs_s": setups,
        "reference_ms": statistics.median(r for _, r in references) * 1e3,
        "wall_p50_ms": statistics.median(walls) * 1e3,
        "wall_tail_ms": sorted(walls)[n - TAIL_BEYOND - 1] * 1e3,
        "wall_commands_per_s": n / sum(walls),
    }
    return metrics, detail


def per_layer(driver: Driver, seconds: float) -> tuple[dict, dict]:
    driver.setup()
    driver.expects = [c.expect() for c in driver.commands]
    rotation = len(driver.commands)

    # families only runs in set-up: its self time is per set-up, from one
    # traced build, where every other figure is per command
    tracer = Tracer()
    tracer.install()
    try:
        driver.build()
    finally:
        tracer.uninstall()
    setup_self, _ = tracer.self_times()
    tracer.clear()

    # each command runs untraced and then traced, for at least one rotation
    untraced = traced = 0.0
    commands = 0
    start = time.perf_counter()
    while commands < rotation or time.perf_counter() - start < seconds:
        i = commands % rotation
        untraced += driver.timed(driver.run_command, i)
        tracer.install()
        try:
            traced += driver.timed(lambda argv: tracer.command(driver.run_command, argv), i)
        finally:
            tracer.uninstall()
        commands += 1
    by_function, wall = tracer.self_times()

    counter = WorkCounter()
    counter.install()
    try:
        for i in range(rotation):
            driver.timed(driver.run_command, i)
    finally:
        counter.uninstall()

    by_layer = dict.fromkeys(LAYERS, 0.0)
    for name, value in by_function.items():
        layer = name.partition(".")[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + value
    covered = math.fsum(by_layer.values())
    intact = abs(covered - wall) <= 1e-9 * wall + 1e-7

    metrics = {f"{layer}.self_s": by_layer[layer] / commands for layer in LAYERS}
    metrics["families.self_s"] = math.fsum(
        v for k, v in setup_self.items() if k.startswith("families.")
    )
    for name in FUNCTION_SELF:
        if name == "documents.from_doc":
            total = math.fsum(v for k, v in by_function.items()
                              if k.startswith("documents.") and k.endswith("_from_doc"))
        else:
            total = by_function.get(name, 0.0)
        metrics[f"{name}.self_s"] = total / commands
    for name in COUNTS:
        metrics[name] = counter.counts[name] / rotation
    metrics["trace.wall_s"] = wall / commands
    metrics["trace.overhead_ratio"] = traced / untraced
    detail = {
        "traced_commands": commands,
        "rotation": rotation,
        "layer_self_sum_s": covered,
        "traced_wall_s": wall,
        "self_times_add_up": intact,
        "layers_outside_list": sorted(set(by_layer) - set(LAYERS)),
    }
    return metrics, detail


def run_all(args) -> int:
    """Run every workload in a fresh process of its own, one after another,
    so that each one's peak memory is its own."""
    results = {}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.splitlines()[-1])
        for metric, m in results[name]["metrics"].items():
            print(f"{name:15} {metric:42} {m['value']:12.6g} {m['unit']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": m for name, r in results.items() for metric, m in r["metrics"].items()},
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "grpd" / "cli.py").is_file():
        print(f"error: no grpd sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}"
    driver = Driver(args.workload, args.seed, work)
    try:
        if args.trace:
            metrics, detail = per_layer(driver, args.seconds)
            units = dict(PER_LAYER)
            correct = detail["self_times_add_up"]
        else:
            metrics, detail = end_to_end(driver, args.seconds)
            units = dict(END_TO_END)
            correct = True
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": correct and driver.failed == 0,
        "attempted": driver.attempted,
        "failed": driver.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
