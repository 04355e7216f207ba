"""End-to-end acceptance suite.

One test per acceptance criterion. Every equality is exact rational or
Gaussian-rational arithmetic and every inequality goes through the exact
square-root comparison; no tolerance knobs exist anywhere. Each test
enforces its stated wall-clock budget and prints one summary line
(visible with ``pytest -s``).
"""

from __future__ import annotations

import math
import subprocess
import sys
import time
from pathlib import Path

import pytest

from grpd.homs import (
    class_at,
    congruence_from_hom,
    congruence_profile,
    is_monomorphism,
    validate_affine_congruence,
)
from grpd.norm import (
    consistency_check,
    norm_from_sip,
    parallelogram_survey,
    polarize,
    validate_norm,
)
from grpd.scalars import abs_sq, conj, gaussian
from grpd.sip import (
    b_partition,
    scalar_set,
    sip_from_thetas,
    transitive_props_check,
    validate_sip,
)

from oracles import bihom_additivity_bruteforce, sip_conditions_bruteforce

BUDGETS = {1: 5, 2: 5, 3: 1, 4: 10, 5: 10, 6: 10, 7: 5, 8: 5, 9: 2, 10: 2}


class Stopwatch:
    def __init__(self, number: int, name: str):
        self.number = number
        self.name = name

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        budget = BUDGETS[self.number]
        if exc_type is None:
            assert elapsed < budget, (
                f"criterion {self.number} took {elapsed:.2f}s, budget {budget}s"
            )
            print(
                f"[acceptance] criterion {self.number} ({self.name}): "
                f"PASS in {elapsed:.2f}s (budget {budget}s)"
            )
        else:
            print(f"[acceptance] criterion {self.number} ({self.name}): FAIL")
        return False


@pytest.fixture(scope="module")
def fixture_homs(p2, p3, p5, a3, c4):
    return [p2, p3, p5, a3, c4]


@pytest.fixture(scope="module")
def fixture_sips(p2_sip, p5_sip, c4_sip):
    return [p2_sip, p5_sip, c4_sip]


@pytest.fixture(scope="module")
def family_sips(family_corpus):
    return [
        sip_from_thetas(cg.groupoid, homs) for cg, homs in family_corpus
    ]


def test_criterion_01_hom_congruences_pass_axioms(fixture_homs, hom_corpus):
    with Stopwatch(1, "hom-induced congruence axioms"):
        for groupoid, homs in fixture_homs:
            for hom in homs.values():
                partition = congruence_from_hom(hom)
                assert validate_affine_congruence(groupoid, partition).ok
        count = 0
        for cg, hom in hom_corpus:
            partition = congruence_from_hom(hom)
            assert validate_affine_congruence(cg.groupoid, partition).ok
            count += 1
        assert count == 100


def test_criterion_02_monomorphism_implies_simple(fixture_homs, hom_corpus):
    with Stopwatch(2, "monomorphism implies simple"):
        monos = 0
        for groupoid, homs in fixture_homs:
            for hom in homs.values():
                if is_monomorphism(hom)[0]:
                    monos += 1
                    axioms = validate_affine_congruence(groupoid, congruence_from_hom(hom))
                    profile = congruence_profile(axioms)
                    assert profile.simple_witness is None
        for cg, hom in hom_corpus:
            if is_monomorphism(hom)[0]:
                monos += 1
                axioms = validate_affine_congruence(cg.groupoid, congruence_from_hom(hom))
                profile = congruence_profile(axioms)
                assert profile.simple_witness is None
        assert monos >= 10  # the corpus must actually exercise the implication


def test_criterion_03_efficiency_profiles(p2, a3):
    with Stopwatch(3, "efficiency profiles of the affine families"):
        groupoid, homs = a3
        axioms = validate_affine_congruence(groupoid, congruence_from_hom(homs["theta"]))
        profile = congruence_profile(axioms)
        assert profile.complete_witness is None and profile.simple_witness is None
        assert profile.efficient

        groupoid, homs = p2
        partition = congruence_from_hom(homs["theta"])
        profile = congruence_profile(validate_affine_congruence(groupoid, partition))
        assert profile.simple_witness is None and profile.complete_witness is not None
        assert not profile.efficient
        a = groupoid.arrow_index("(0,1)")
        assert profile.complete_witness == (a, 1)
        assert class_at(groupoid, partition, a, 1) == ()


def test_criterion_04_sip_construction(fixture_sips, family_corpus):
    # construction is the claim, so it happens inside the timed section
    with Stopwatch(4, "semi-inner products from separating families"):
        # the constructor does not re-check its result; the laws it
        # guarantees are checked here against the brute-force oracles
        built = list(fixture_sips)
        for cg, homs in family_corpus:
            built.append(sip_from_thetas(cg.groupoid, homs))
        for bihom in built:
            assert validate_sip(bihom).is_sip
            assert bihom_additivity_bruteforce(bihom) is None
            assert sip_conditions_bruteforce(bihom) == (True, True, True)
        assert len(built) == len(fixture_sips) + 100


def test_criterion_05_row_congruence_propositions(fixture_sips, family_sips):
    with Stopwatch(5, "row congruence is a simple affine congruence"):
        for bihom in fixture_sips + family_sips:
            axioms = validate_affine_congruence(bihom.groupoid, b_partition(bihom))
            assert axioms.ok
            assert congruence_profile(axioms).simple_witness is None
            if bihom.groupoid.is_transitive():
                props = transitive_props_check(bihom)
                assert props.applicable and props.ok


def test_criterion_06_norm_axioms(fixture_sips, family_sips, monkeypatch):
    # tripwire: the pass/fail path must never consult floating point
    def no_floats(*_args, **_kwargs):
        raise AssertionError("floating point reached a verification path")

    monkeypatch.setattr(math, "sqrt", no_floats)
    monkeypatch.setattr(math, "hypot", no_floats)
    with Stopwatch(6, "norm axioms with exact surd comparisons"):
        for bihom in fixture_sips + family_sips:
            report = validate_norm(norm_from_sip(validate_sip(bihom)))
            assert report.identity_witness is None
            assert report.triangle_witness is None
            assert report.inverse_witness is None
            assert report.reverse_witness is None


def test_criterion_07_consistency_and_parallelogram(
    fixture_sips, family_sips, p2, p5, p2_sip, p5_sip, p2_norm, p5_norm
):
    with Stopwatch(7, "consistency and the parallelogram identity"):
        for bihom in fixture_sips + family_sips:
            norm = norm_from_sip(validate_sip(bihom))
            assert consistency_check(norm, b_partition(bihom)).ok

        survey = parallelogram_survey(consistency_check(p5_norm, b_partition(p5_sip)))
        statuses = {status.status for status in survey.values()}
        assert "fails" not in statuses
        assert all(
            result.status == "holds"
            for result in survey.values()
            if result.witnesses_checked > 0
        )

        groupoid, _ = p2
        survey2 = parallelogram_survey(consistency_check(p2_norm, b_partition(p2_sip)))
        a = groupoid.arrow_index("(0,1)")
        b = groupoid.arrow_index("(1,0)")
        missing = {pair for pair, res in survey2.items() if res.status == "no_witness"}
        assert missing == {(a, a), (a, b), (b, a), (b, b)}
        assert all(
            res.status == "holds" for pair, res in survey2.items() if pair not in missing
        )


def test_criterion_08_polarization_round_trip(p5_sip, p5_norm):
    with Stopwatch(8, "polarization round trip"):
        rows = b_partition(p5_sip)
        result = polarize(consistency_check(p5_norm, rows))
        assert result.defined_pairs > 0
        for pair, value in result.bihom.table.items():
            assert value == p5_sip.table[pair]
        assert result.report.symmetry_witness is None
        assert result.report.diagonal_witness is None
        assert result.report.cauchy_witness is None
        assert result.report.additivity_witness is None


def test_criterion_09_scalar_set_laws(fixture_sips, p3, c4, c4_sip):
    groupoid3, homs3 = p3
    p3_sip = sip_from_thetas(groupoid3, [homs3["theta"]])
    with Stopwatch(9, "scalar set laws"):
        for bihom in fixture_sips + [p3_sip]:
            groupoid = bihom.groupoid
            identities = tuple(sorted(groupoid.identity))
            for g in groupoid.arrows():
                assert scalar_set(bihom, gaussian(0), g) == identities
            if bihom.field_tag == "real":
                for g in groupoid.arrows():
                    if not groupoid.is_identity(g):
                        assert scalar_set(bihom, gaussian(0, 1), g) == ()

        groupoid, _ = c4
        norm = norm_from_sip(validate_sip(c4_sip))
        for c in (gaussian(0), gaussian(1), gaussian(-1), gaussian(0, 1), gaussian(1, 1)):
            factor_conj = conj(c)
            for h in groupoid.arrows():
                members = scalar_set(c4_sip, c, h)
                for k in members:
                    assert norm.sq[k] == abs_sq(c) * norm.sq[h]
                    for g in groupoid.arrows():
                        assert c4_sip.entry(g, k) == factor_conj * c4_sip.entry(g, h)


def test_criterion_10_cli_determinism(tmp_path):
    env_cmd = [sys.executable, "-m", "grpd.cli"]
    root = Path(__file__).resolve().parent.parent

    def cli(*argv):
        return subprocess.run(
            env_cmd + list(argv),
            capture_output=True,
            cwd=tmp_path,
            env={"PYTHONPATH": str(root / "src"), "PATH": "/usr/bin:/bin"},
        )

    assert cli("gen", "pair", "--size", "5", "-o", "p5.grpd").returncode == 0
    assert cli("gen", "pair", "--size", "2", "-o", "p2.grpd").returncode == 0

    with Stopwatch(10, "deterministic reports and exit codes"):
        outputs = []
        for _ in range(3):
            proc = cli("report", "--all", "p5.grpd", "--thetas", "p5.theta.hom")
            assert proc.returncode == 0, proc.stdout
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1] == outputs[2]
        assert b"status: pass" in outputs[0]

        proc = cli("congruence", "p2.grpd", "--hom", "p2.theta.hom", "--profile")
        assert proc.returncode == 1
        assert b"complete: fail, witness: ((0,1), object 1)" in proc.stdout
