"""The checks of ``grpd report --all`` as one library suite, and the report
sections that every command shares. Each stage hands its report to the
stages that depend on it, so no check runs twice, and a law that a
construction proves, such as a theta congruence's axioms, is not scanned.
"""

from __future__ import annotations

from . import documents as docs
from .errors import NormError, NotConsistent, NotScalarTarget, SipError, _clip
from .groupoid import FiniteGroupoid, _arrow, _arrows
from .homs import (
    CongruenceReport,
    GroupoidHom,
    congruence_from_hom,
    congruence_profile,
    is_monomorphism,
    product_hom,
)
from .norm import (
    FAILS,
    HOLDS,
    VACUOUS,
    consistency_check,
    norm_from_sip,
    parallelogram_survey,
    polarize,
    validate_norm,
)
from .sip import (
    REAL,
    first_pair,
    has_unit_values,
    sip_from_thetas,
    transitive_props_check,
    validate_sip,
)

def _profile_witness(groupoid: FiniteGroupoid, witness: tuple[int, int] | None) -> str | None:
    if witness is None:
        return None
    g, p = witness
    return f"({_arrow(groupoid, g)}, object {_clip(groupoid.object_label(p))})"


def _add_sip_checks(report: docs.Report, sip_report, prefix: str = "") -> None:
    for law, witness in sip_report.laws():
        report.law(prefix + law, witness)


def _add_norm_checks(report: docs.Report, groupoid: FiniteGroupoid, norm_report) -> None:
    report.law("identity_zero", _arrow(groupoid, norm_report.identity_witness))
    report.law("triangle", _arrows(groupoid, norm_report.triangle_witness))
    report.law("inverse_invariance", _arrow(groupoid, norm_report.inverse_witness))
    report.law("reverse_triangle", _arrows(groupoid, norm_report.reverse_witness))


def _add_consistency_checks(report: docs.Report, groupoid, consistency) -> None:
    report.law("consistency_class_norms", _arrows(groupoid, consistency.class_witness))
    if consistency.doubling == VACUOUS:
        report.add("consistency_doubling", VACUOUS, witness="no composable class mates")
    else:
        report.law("consistency_doubling", _arrows(groupoid, consistency.doubling_witness))


def report_all(groupoid: FiniteGroupoid, homs: list[GroupoidHom]) -> docs.Report:
    """Every check of the suite on a groupoid and a theta family, in report
    order; a stage whose inputs failed or do not apply ends the report."""
    report = docs.Report()
    report.add("groupoid_axioms", True)
    report.add("hom_valid", True)

    # the congruence axioms follow from the hom law: for theta(g1) = theta(g2) and
    # theta(h1) = theta(h2), closure is theta(g1*h1) = theta(g2) + theta(h2) = theta(g2*h2),
    # and, as + commutes, parallelism is theta(g1*h2) = theta(g2) + theta(h1) = theta(h1*g2)
    bundle = product_hom(homs)
    axioms = CongruenceReport(groupoid, congruence_from_hom(bundle))
    report.law("theta_congruence_axioms", axioms.describe())
    profile = congruence_profile(axioms)
    simple = profile.simple_witness is None
    report.add(
        "profile",
        f"complete={str(profile.complete_witness is None).lower()} "
        f"simple={str(simple).lower()} "
        f"efficient={str(profile.efficient).lower()}",
    )
    mono, _ = is_monomorphism(bundle)
    report.add("monomorphism_implies_simple", simple if mono else docs.NOT_APPLICABLE)

    try:
        bihom = sip_from_thetas(groupoid, homs)
    except NotScalarTarget as exc:
        # modular-valued bundles have no scalar pairing; nothing failed,
        # the pairing checks simply do not apply
        report.add("sip_construction", docs.NOT_APPLICABLE, witness=str(exc))
        return report
    except SipError as exc:
        report.add("sip_construction", False, witness=str(exc))
        return report
    report.add("sip_construction", True)
    sip_report = validate_sip(bihom)
    _add_sip_checks(report, sip_report, "sip_")

    # the row partition is the theta congruence: rows g and h agree exactly when
    # the value vectors do (the lemma in Bihom.rows), so its lines are read
    # from the theta congruence's reports
    rows = axioms.partition
    report.law("row_congruence_axioms", axioms.describe())
    report.law("row_congruence_simple", _profile_witness(groupoid, profile.simple_witness))
    units = has_unit_values(bihom.vectors)
    report.add("row_partition_matches_hom", True if units else docs.NOT_APPLICABLE)

    props = transitive_props_check(bihom)
    report.add("transitive_fiber_props", props.ok if props.applicable else docs.NOT_APPLICABLE)

    norm = norm_from_sip(sip_report)
    norm_report = validate_norm(norm)
    _add_norm_checks(report, groupoid, norm_report)
    consistency = consistency_check(norm, rows)
    _add_consistency_checks(report, groupoid, consistency)

    try:
        survey = parallelogram_survey(consistency)
    except NotConsistent as exc:
        # the survey and polarization read the class-pair witness table, which
        # only a norm consistent with the row partition has
        report.add("parallelogram", docs.NOT_APPLICABLE, witness=str(exc))
        report.add("polarization_round_trip", docs.NOT_APPLICABLE, witness=str(exc))
    else:
        # a class pair's status is that of each of its arrow pairs, and every
        # arrow pair outside the surveyed class pairs has no witness
        sizes = [len(members) for members in rows.classes]
        holds = sum(sizes[a] * sizes[b] for (a, b), r in survey.items() if r.status == HOLDS)
        failing = [(a, b) for (a, b), r in survey.items() if r.status == FAILS]
        fails = sum(sizes[a] * sizes[b] for a, b in failing)
        no_witness = groupoid.n_arrows * groupoid.n_arrows - holds - fails
        witness = f"holds={holds} no_witness={no_witness} fails={fails}"
        first = first_pair(rows, failing)
        if first is not None:
            witness += f" at {_arrows(groupoid, first)}"
        report.add("parallelogram", fails == 0, witness=witness)

        if bihom.field_tag == REAL:
            try:
                pol = polarize(consistency)
            except NormError as exc:
                report.add("polarization_round_trip", False, witness=str(exc))
                return report
            # the polarized pairing is not validated: agreeing with the pairing
            # validate_sip has certified carries that pairing's laws over. Both
            # are constant on row-class pairs (polarize by construction, and a
            # symmetric pairing as equal rows make equal columns), so the least
            # members of each class pair stand for it
            least, blocks = pol.bihom.partition.least, pol.bihom.blocks
            agree = all(v == bihom.entry(least[a], least[b]) for (a, b), v in blocks.items())
            report.add(
                "polarization_round_trip",
                agree,
                witness=f"coverage={pol.defined_pairs}/{pol.total_pairs}",
            )
        else:
            report.add("polarization_round_trip", docs.NOT_APPLICABLE)

    # the scalar-set laws are lemmas of the SIP laws, which norm_from_sip has
    # certified above; for row k = c * row h:
    # - zero: Cauchy-Schwarz zeroes just the rows with diagonal 0, so the
    #   zero scalar set is the identities exactly when identity_zero holds
    # - imaginary: on a real pairing with c = i, rows k and h are zero, which
    #   definiteness rules out off the identities
    # - conjugate scalar: T(x, k) = conj T(k, x) = conj(c) * T(x, h) for all x
    # - scaling: T(k, k) = c * T(h, k) = c * conj(c * T(h, h)) = |c|^2 * T(h, h)
    report.add("scalar_set_zero_is_identities", norm_report.identity_witness is None)
    if bihom.field_tag == REAL:
        report.add("scalar_set_imaginary_empty", sip_report.definiteness_witness is None)
    else:
        report.add("scalar_set_imaginary_empty", docs.NOT_APPLICABLE)
    report.add("conjugate_scalar_law", sip_report.symmetry_witness is None)
    report.add("norm_scaling_law", sip_report.symmetry_witness is None)

    return report
