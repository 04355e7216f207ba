"""The library suite behind ``grpd report --all`` reads the laws that a
construction proves instead of scanning them, and each line it prints is the
line of a report built from the definitions."""

from __future__ import annotations

import contextlib
import functools
import io
import json
import random
import sys
from collections import Counter

from grpd import homs, norm, sip, suite
from grpd.cli import run_command
from grpd.documents import (
    NOT_APPLICABLE,
    Report,
    dump_document,
    groupoid_from_doc,
    groupoid_to_doc,
    hom_from_doc,
    hom_to_doc,
)
from grpd.errors import SipError
from grpd.families import complex_pair, generate, pair_groupoid
from grpd.scalars import GaussianRational, gaussian
from grpd.suite import _add_sip_checks, _profile_witness, report_all

from corpus import potential_theta, random_groupoid, random_hom, scaled_theta, zero_theta
from oracles import arrow_pair_survey, report_all_bruteforce


def _generated(tmp_path, family="pair", size=5):
    groupoid = tmp_path / f"{family}{size}.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert run_command(["gen", family, "--size", str(size), "-o", str(groupoid)]) == 0
    return groupoid, tmp_path / f"{family}{size}.theta.hom"


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


_CHECKS = {
    "validate_sip": sip.validate_sip,
    "validate_norm": norm.validate_norm,
    "consistency_check": norm.consistency_check,
    "class_pair_products": homs.class_pair_products,
    "polarize": norm.polarize,
    "validate_polarized": norm.validate_polarized,
    "scalar_set": sip.scalar_set,
    "b_partition": sip.b_partition,
    "validate_affine_congruence": homs.validate_affine_congruence,
}


def _report_all_calls(tmp_path, monkeypatch, family="pair", size=5) -> dict[str, int]:
    groupoid, theta = _generated(tmp_path, family, size)
    calls = _count_calls(monkeypatch, _CHECKS)
    out = _run(["report", "--all", str(groupoid), "--thetas", str(theta)])
    assert out.endswith("status: pass\n")
    return {name: calls[name] for name in _CHECKS}


def test_report_all_runs_each_prerequisite_check_once(tmp_path, monkeypatch):
    # the theta congruence's axioms are read from the hom laws, and every line
    # after sip_construction from the theorem that a theta family builds a
    # semi-inner product, so no downstream validator runs
    assert _report_all_calls(tmp_path, monkeypatch) == dict.fromkeys(_CHECKS, 0)


def test_modular_report_all_scans_no_composable_pairs(tmp_path, monkeypatch):
    # a Z/5 theta has no scalar pairing, so the report stops at
    # sip_construction, and the theta congruence is one by the hom laws
    calls = _report_all_calls(tmp_path, monkeypatch, "affine_cyclic", 5)
    assert calls == dict.fromkeys(_CHECKS, 0)


def test_modular_report_all_builds_no_composition_dict():
    groupoid, thetas = generate("affine_cyclic", 5)
    groupoid = groupoid_from_doc(groupoid_to_doc(groupoid))
    theta = hom_from_doc(groupoid, hom_to_doc(thetas["theta"]))
    report = report_all(groupoid, [theta])
    assert report.checks[-1].name == "sip_construction" and report.status == "pass"


def test_report_all_gaussian_multiplications_are_pinned(tmp_path, monkeypatch):
    groupoid, theta = _generated(tmp_path)
    calls = Counter()
    multiply = GaussianRational.__mul__

    def counted(self, other):
        calls["mul"] += 1
        return multiply(self, other)

    monkeypatch.setattr(GaussianRational, "__mul__", counted)
    monkeypatch.setattr(GaussianRational, "__rmul__", counted)
    out = _run(["report", "--all", str(groupoid), "--thetas", str(theta)])
    assert out.endswith("status: pass\n")
    # the pairing sums its entries on integer triples, and no row is
    # normalised or scaled: the row partition is the theta congruence, and
    # the scalar-set laws are read from the witnesses of the laws they
    # follow from, so no scalar set is built
    assert calls["mul"] == 0


def test_report_all_builds_no_pairing(monkeypatch):
    # every line after sip_construction is read from the theorem that a theta
    # family builds a semi-inner product, so the suite takes the value vectors
    # and builds no Bihom, neither its blocks nor its arrow-pair table
    built = []
    init = sip.Bihom.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(sip.Bihom, "__init__", counted)
    for family, size in (("pair", 5), ("complex_pair", 2)):
        groupoid, thetas = generate(family, size)
        assert report_all(groupoid, [thetas["theta"]]).status == "pass"
    assert built == []
    # the count sees a pairing built the way the suite built it before
    sip.sip_from_thetas(groupoid, [thetas["theta"]])
    assert len(built) == 1


def test_norm_check_from_sip_reads_the_row_partition_without_its_axioms(tmp_path, monkeypatch):
    groupoid, theta = _generated(tmp_path)
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
    # semi-inner products, so its sip_* lines pass and carry the law names of
    # sip check with the suite prefix; sip check fails them on a planted table
    groupoid, family = pair_groupoid(3)
    pairing = sip.sip_from_thetas(groupoid, [family["theta"]])
    table = dict(pairing.table)
    a, b = groupoid.arrow_index("(0,1)"), groupoid.arrow_index("(1,2)")
    table[(a, b)] = gaussian(0, 1)
    table[(b, b)] = gaussian(-1)
    sip_report = sip.validate_sip(
        sip.Bihom(groupoid, homs.partition_by(groupoid.arrows()), table, "complex")
    )
    report = Report()
    _add_sip_checks(report, sip_report)
    assert report.render("text").splitlines() == [
        "conjugate_symmetry: fail, witness: ((0,1), (1,2))",
        "positive_definiteness: fail, witness: (1,2)",
        "cauchy_schwarz: fail, witness: ((0,1), (1,2))",
        "status: fail",
    ]
    suite_lines = [
        (c.name, c.result)
        for c in report_all(groupoid, [family["theta"]]).checks
        if c.name.startswith("sip_") and c.name != "sip_construction"
    ]
    assert suite_lines == [("sip_" + law, "pass") for law, _ in sip_report.laws()]


def _theta_families():
    """Theta families of at most 40 arrows: the canonical thetas of the
    built-in families, the coordinate thetas of complex_pair, and seeded
    corpus homs with Z, Zmod and Q parts, alone, bundled in pairs, and with a
    trivial kernel."""
    built_in = (("pair", range(1, 7)), ("affine_cyclic", range(1, 7)), ("complex_pair", (1, 2)))
    for family, sizes in built_in:
        for size in sizes:
            groupoid, thetas = generate(family, size)
            yield groupoid, [thetas["theta"]]
    groupoid, thetas = generate("complex_pair", 2)
    yield groupoid, [thetas["theta1"], thetas["theta2"]]
    rng = random.Random(16)
    for _ in range(60):
        cg = random_groupoid(rng, max_objects=6, max_arrows=40)
        yield cg.groupoid, [random_hom(rng, cg)]
        yield cg.groupoid, [random_hom(rng, cg), random_hom(rng, cg)]
        yield cg.groupoid, [random_hom(rng, cg, mono=True)]


def _scanned_congruence_checks(groupoid, thetas) -> list:
    """The congruence checks of report --all as the axiom scan and
    congruence_profile compute them, with no lemma read."""
    bundle = homs.product_hom(thetas)
    axioms = homs.validate_affine_congruence(groupoid, homs.congruence_from_hom(bundle))
    # the lemma report_all reads instead of this scan
    assert axioms.ok
    profile = homs.congruence_profile(axioms)
    simple = profile.simple_witness is None
    mono, _ = homs.is_monomorphism(bundle)
    # theta(g) = theta(h) with a common source gives theta(g^-1 h) = 0
    assert simple or not mono
    expected = Report()
    expected.law("theta_congruence_axioms", axioms.describe())
    flags = (profile.complete_witness is None, simple, profile.efficient)
    expected.add("profile", "complete={} simple={} efficient={}".format(*map(str, flags)).lower())
    expected.add("monomorphism_implies_simple", simple if mono else NOT_APPLICABLE)
    try:
        rows = sip.b_partition(sip.sip_from_thetas(groupoid, thetas))
    except SipError:
        return expected.checks
    row_axioms = homs.validate_affine_congruence(groupoid, rows)
    expected.law("row_congruence_axioms", row_axioms.describe())
    row_simple = homs.congruence_profile(row_axioms).simple_witness
    expected.law("row_congruence_simple", _profile_witness(groupoid, row_simple))
    return expected.checks


def test_report_all_congruence_lines_match_the_axiom_scan(family_corpus):
    cases = list(_theta_families())
    cases += [(cg.groupoid, thetas) for cg, thetas in family_corpus]
    names = {
        "theta_congruence_axioms",
        "profile",
        "monomorphism_implies_simple",
        "row_congruence_axioms",
        "row_congruence_simple",
    }
    for groupoid, thetas in cases:
        for hom in thetas:
            assert homs.validate_affine_congruence(groupoid, homs.congruence_from_hom(hom)).ok
        lines = [c for c in report_all(groupoid, thetas).checks if c.name in names]
        assert lines == _scanned_congruence_checks(groupoid, thetas)


def test_report_all_parallelogram_counts_match_the_arrow_pair_survey(family_corpus):
    # report --all counts the arrow pairs with witnesses from the classes into
    # and out of each object; a Counter over the witness quadruples of every
    # arrow pair must give the same line
    cases = list(_theta_families())
    cases += [(cg.groupoid, thetas) for cg, thetas in family_corpus]
    surveyed = 0
    for groupoid, thetas in cases:
        checks = {c.name: c for c in report_all(groupoid, thetas).checks}
        if "parallelogram" not in checks:
            continue
        pairing = sip.sip_from_thetas(groupoid, thetas)
        squared = norm.norm_from_sip(sip.validate_sip(pairing))
        survey = arrow_pair_survey(squared, sip.b_partition(pairing))
        counts = Counter(status for status, _, _ in survey.values())
        witness = f"holds={counts['holds']} no_witness={counts['no_witness']} fails={counts['fails']}"
        assert checks["parallelogram"].witness == witness
        assert checks["parallelogram"].result == "pass"
        surveyed += 1
    assert surveyed >= 100


def _oracle_bundles(family_corpus):
    """Theta families of at most 36 arrows for the whole-suite oracle: the
    built-in families; seeded separating families; the dependent bundles
    (theta, 2 theta) and (theta, i theta); families that do not separate
    identities; and modular or two-component corpus homs, which end the
    report at sip_construction."""
    built_in = (("pair", range(1, 7)), ("complex_pair", (1, 2)), ("affine_cyclic", (2, 3, 6)))
    for family, sizes in built_in:
        for size in sizes:
            groupoid, thetas = generate(family, size)
            yield groupoid, [thetas["theta"]]
    groupoid, thetas = complex_pair(2)
    yield groupoid, [thetas["theta1"], thetas["theta2"]]
    yield groupoid, [thetas["theta"], scaled_theta(thetas["theta"], gaussian(0, 1))]
    for size in (3, 5):
        groupoid, thetas = pair_groupoid(size)
        yield groupoid, [thetas["theta"], scaled_theta(thetas["theta"], gaussian(2))]
    groupoid, _ = pair_groupoid(3)
    yield groupoid, [zero_theta(groupoid, homs.SIG_QI)]
    for cg, thetas in family_corpus[:30]:
        yield cg.groupoid, thetas
        # objects of a component that share a potential leave arrows valued 0
        shared = [gaussian(p % 2) for p in cg.groupoid.objects()]
        yield cg.groupoid, [potential_theta(cg, shared)]
    rng = random.Random(31)
    for _ in range(12):
        cg = random_groupoid(rng, max_objects=4, max_arrows=30)
        yield cg.groupoid, [random_hom(rng, cg)]


def test_report_all_matches_the_whole_suite_oracle(family_corpus):
    # every line of report --all, witness included, is the line of a report
    # built from the definitions; the tally shows which stages and which
    # branches of the lines read from the SIP theorem were reached
    branches = (
        "polarization_round_trip",
        "consistency_doubling",
        "transitive_fiber_props",
        "row_partition_matches_hom",
        "scalar_set_imaginary_empty",
    )
    reached = Counter()
    for groupoid, thetas in _oracle_bundles(family_corpus):
        report = report_all(groupoid, thetas)
        expected = report_all_bruteforce(groupoid, thetas)
        assert report.render("text") == expected.render("text")
        assert report.render("json") == expected.render("json")
        checks = {c.name: c for c in report.checks}
        reached[checks["sip_construction"].result] += 1
        reached.update(f"{name} {checks[name].result}" for name in branches if name in checks)
    assert reached == {
        "pass": 55,
        "fail": 22,
        "not_applicable": 11,
        "polarization_round_trip pass": 37,
        "polarization_round_trip not_applicable": 18,
        "consistency_doubling pass": 6,
        "consistency_doubling vacuous": 49,
        "transitive_fiber_props pass": 26,
        "transitive_fiber_props not_applicable": 29,
        "row_partition_matches_hom pass": 17,
        "row_partition_matches_hom not_applicable": 38,
        "scalar_set_imaginary_empty pass": 37,
        "scalar_set_imaginary_empty not_applicable": 18,
    }
