"""Golden reports: the exact stdout, stderr and exit code of fixed commands.

Each command runs in-process through ``run_command`` over documents written
afresh into a temporary directory, and must print byte for byte what
``tests/golden_reports.json`` records. The commands cover every report
command on five built-in fixtures, in text and JSON, with passing inputs
and with tables, norms and partitions planted to fail.

The file is regenerated only for a deliberate change of the output
contract, from the root of the repository:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import sys
from pathlib import Path

import pytest

from grpd.cli import run_command
from grpd.documents import (
    bihom_to_doc,
    dump_document,
    groupoid_to_doc,
    hom_to_doc,
    norm_to_doc,
    partition_to_doc,
)
from grpd.errors import SipError
from grpd.families import generate
from grpd.homs import congruence_from_hom, zero_hom
from grpd.norm import norm_from_sip, norm_table
from grpd.scalars import gaussian
from grpd.sip import COMPLEX, Bihom, b_partition, sip_from_thetas, validate_sip

GOLDEN = Path(__file__).resolve().parent / "golden_reports.json"
FIXTURES = (("pair", 2), ("pair", 3), ("complex_pair", 2), ("affine_cyclic", 3), ("group", 6))


def _table_doc(groupoid, entry) -> dict:
    table = {(g, h): entry(g, h) for g in groupoid.arrows() for h in groupoid.arrows()}
    return bihom_to_doc(Bihom(groupoid, table, COMPLEX))


def write_fixture(work: Path, family: str, size: int) -> dict[str, str]:
    """Write the documents of one fixture; returns file names by role."""
    groupoid, homs = generate(family, size)
    theta = homs.get("theta") or zero_hom(groupoid)
    potential = [groupoid.target[g] - groupoid.source[g] for g in groupoid.arrows()]
    docs = {
        "groupoid": groupoid_to_doc(groupoid),
        "theta": hom_to_doc(theta),
        "zero": _table_doc(groupoid, lambda g, h: gaussian(0)),
        # i * v(g) * v(h) is additive in both slots and never conjugate symmetric
        "asym": _table_doc(groupoid, lambda g, h: gaussian(0, potential[g] * potential[h])),
        "single": {"classes": [[groupoid.arrow_label(g) for g in groupoid.arrows()]]},
    }
    try:
        bihom = sip_from_thetas(groupoid, [theta])
    except SipError:
        docs["table"] = docs["zero"]
        sq = [0 if groupoid.is_identity(g) else 1 for g in groupoid.arrows()]
        docs["classes"] = partition_to_doc(groupoid, congruence_from_hom(theta))
    else:
        docs["table"] = bihom_to_doc(bihom)
        sq = list(norm_from_sip(validate_sip(bihom)).sq)
        docs["classes"] = partition_to_doc(groupoid, b_partition(bihom))
    docs["norm"] = norm_to_doc(norm_table(groupoid, sq))
    bumped = next(g for g in groupoid.arrows() if not groupoid.is_identity(g))
    sq[bumped] += 1
    docs["bumped"] = norm_to_doc(norm_table(groupoid, sq))
    names = {}
    for role, doc in docs.items():
        names[role] = f"{family}{size}.{role}.json"
        (work / names[role]).write_text(dump_document(doc), encoding="utf-8")
    return names


def commands(names: dict[str, str]) -> dict[str, list[str]]:
    """The command lines run on one fixture, by a short name."""
    g = names["groupoid"]
    return {
        "report": ["report", "--all", g, "--thetas", names["theta"]],
        "sip-thetas": ["sip", "check", g, "--thetas", names["theta"]],
        "congruence-hom": ["congruence", g, "--hom", names["theta"], "--check-axioms", "--profile"],
        "norm-from-sip": ["norm", "check", g, "--from-sip", names["table"]],
        "polarize": ["polarize", g, "--sq", names["norm"], "--lambda", names["classes"]],
        "sip-zero-table": ["sip", "check", g, "--table", names["zero"]],
        "sip-asymmetric-table": ["sip", "check", g, "--table", names["asym"]],
        "norm-bumped": ["norm", "check", g, "--sq", names["bumped"], "--lambda", names["classes"]],
        "congruence-single-class": [
            "congruence", g, "--partition", names["single"], "--check-axioms", "--profile",
        ],
    }


def all_commands(work: Path) -> list[tuple[str, list[str]]]:
    out = []
    for family, size in FIXTURES:
        for name, argv in commands(write_fixture(work, family, size)).items():
            for fmt in ("text", "json"):
                out.append((f"{family}{size}-{name}-{fmt}", [*argv, "--format", fmt]))
    return out


def run_in(work: Path, argv: list[str]) -> dict:
    """Run one command with its document names resolved inside ``work``."""
    resolved = [str(work / a) if a.endswith(".json") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command(resolved)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@functools.lru_cache(maxsize=None)
def _load_golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def work(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("golden")
    all_commands(path)
    return path


# a missing file fails test_golden_file_lists_every_command
@pytest.mark.parametrize("case", sorted(_load_golden()) if GOLDEN.exists() else [])
def test_golden_report(work, case):
    expected = _load_golden()[case]
    assert run_in(work, expected["argv"]) == {k: expected[k] for k in ("exit", "stdout", "stderr")}


def test_golden_file_lists_every_command(tmp_path):
    listed = {case: entry["argv"] for case, entry in _load_golden().items()}
    assert listed == dict(all_commands(tmp_path))


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        work_dir = Path(tmp)
        golden = {
            case: {"argv": argv, **run_in(work_dir, argv)} for case, argv in all_commands(work_dir)
        }
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(golden)} golden reports to {GOLDEN}", file=sys.stderr)
