"""The checks of ``grpd report --all`` as one library suite, and the witness
renderers that every command shares. Each stage hands its report to the
stage that depends on it, so no check runs twice.
"""

from __future__ import annotations

from collections import Counter

from . import documents as docs
from .errors import NormError, NotScalarTarget, SipError, _clip
from .groupoid import FiniteGroupoid
from .homs import (
    GroupoidHom,
    congruence_from_hom,
    congruence_profile,
    is_monomorphism,
    product_hom,
    validate_affine_congruence,
)
from .norm import (
    FAILS,
    HOLDS,
    NO_WITNESS,
    VACUOUS,
    consistency_check,
    norm_from_sip,
    parallelogram_survey,
    polarize,
    scale_check,
    validate_norm,
)
from .scalars import conj, gaussian
from .sip import (
    REAL,
    b_partition,
    has_unit_values,
    sip_from_thetas,
    transitive_props_check,
    validate_sip,
)

# witness renderers: each maps a missing witness (the law holds) to None


def _arrow(groupoid: FiniteGroupoid, witness: int | None) -> str | None:
    return None if witness is None else _clip(groupoid.arrow_label(witness))


def _arrow_pair(groupoid: FiniteGroupoid, witness: tuple[int, int] | None) -> str | None:
    if witness is None:
        return None
    return f"({_arrow(groupoid, witness[0])}, {_arrow(groupoid, witness[1])})"


def _profile_witness(groupoid: FiniteGroupoid, witness: tuple[int, int] | None) -> str | None:
    if witness is None:
        return None
    g, p = witness
    return f"({_arrow(groupoid, g)}, object {_clip(groupoid.object_label(p))})"


def _add_norm_checks(report: docs.Report, groupoid: FiniteGroupoid, norm_report) -> None:
    report.law("identity_zero", _arrow(groupoid, norm_report.identity_witness))
    report.law("triangle", _arrow_pair(groupoid, norm_report.triangle_witness))
    report.law("inverse_invariance", _arrow(groupoid, norm_report.inverse_witness))
    report.law("reverse_triangle", _arrow_pair(groupoid, norm_report.reverse_witness))


def _add_consistency_checks(report: docs.Report, groupoid, consistency) -> None:
    report.law("consistency_class_norms", _arrow_pair(groupoid, consistency.class_witness))
    if consistency.doubling == VACUOUS:
        report.add("consistency_doubling", VACUOUS, witness="no composable class mates")
    else:
        report.law("consistency_doubling", _arrow_pair(groupoid, consistency.doubling_witness))


def report_all(groupoid: FiniteGroupoid, homs: list[GroupoidHom]) -> docs.Report:
    """Every check of the suite on a groupoid and a theta family, in report
    order; a stage whose inputs failed or do not apply ends the report."""
    report = docs.Report()
    report.add("groupoid_axioms", True)
    report.add("hom_valid", True)

    bundle = product_hom(homs)
    axioms = validate_affine_congruence(groupoid, congruence_from_hom(bundle))
    report.law("theta_congruence_axioms", axioms.describe())
    if axioms.ok:
        profile = congruence_profile(axioms)
        simple = profile.simple_witness is None
        report.add(
            "profile",
            f"complete={str(profile.complete_witness is None).lower()} "
            f"simple={str(simple).lower()} "
            f"efficient={str(profile.efficient).lower()}",
        )
        mono, _ = is_monomorphism(bundle)
        if mono:
            report.add("monomorphism_implies_simple", simple)
        else:
            report.add("monomorphism_implies_simple", docs.NOT_APPLICABLE)

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
    report.add("sip_conjugate_symmetry", sip_report.symmetry_witness is None)
    report.add("sip_positive_definiteness", sip_report.definiteness_witness is None)
    report.add("sip_cauchy_schwarz", sip_report.cauchy_witness is None)

    rows = b_partition(bihom)
    row_axioms = validate_affine_congruence(groupoid, rows)
    report.law("row_congruence_axioms", row_axioms.describe())
    if row_axioms.ok:
        row_simple = congruence_profile(row_axioms).simple_witness
        report.law("row_congruence_simple", _profile_witness(groupoid, row_simple))
    else:
        report.law("row_congruence_simple", row_axioms.describe())
    if has_unit_values(homs):
        report.add("row_partition_matches_hom", rows == axioms.partition)
    else:
        report.add("row_partition_matches_hom", docs.NOT_APPLICABLE)

    props = transitive_props_check(bihom)
    if not props.applicable:
        report.add("transitive_fiber_props", docs.NOT_APPLICABLE)
    else:
        report.add("transitive_fiber_props", props.ok)

    norm = norm_from_sip(sip_report)
    _add_norm_checks(report, groupoid, validate_norm(norm))
    consistency = consistency_check(norm, rows)
    _add_consistency_checks(report, groupoid, consistency)

    survey = Counter(r.status for r in parallelogram_survey(consistency).values())
    report.add(
        "parallelogram",
        survey[FAILS] == 0,
        witness=f"holds={survey[HOLDS]} no_witness={survey[NO_WITNESS]} fails={survey[FAILS]}",
    )

    if bihom.field_tag == REAL:
        try:
            pol = polarize(consistency)
        except NormError as exc:
            report.add("polarization_round_trip", False, witness=str(exc))
            return report
        agree = all(pol.bihom.table[pair] == bihom.table[pair] for pair in pol.bihom.table)
        report.add(
            "polarization_round_trip",
            agree and pol.report.ok,
            witness=f"coverage={pol.defined_pairs}/{pol.total_pairs}",
        )
    else:
        report.add("polarization_round_trip", docs.NOT_APPLICABLE)

    # one scalar set per sample scalar and arrow serves every scalar-set law
    zero, imaginary = gaussian(0), gaussian(0, 1)
    sample = (zero, gaussian(1), gaussian(-1), imaginary, gaussian(2))
    sets = {}
    conj_ok = True
    scale_ok = True
    for c in sample:
        cc = conj(c)
        for h in groupoid.arrows():
            scaled = scale_check(norm, bihom, c, h)
            sets[c, h] = scaled.members
            scale_ok &= scaled.witness is None
            if scaled.members:
                expected = [cc * bihom.table[(g, h)] for g in groupoid.arrows()]
                for k in scaled.members:
                    if any(
                        bihom.table[(g, k)] != expected[g] for g in groupoid.arrows()
                    ):
                        conj_ok = False

    identities = tuple(sorted(groupoid.identity))
    zero_ok = all(sets[zero, g] == identities for g in groupoid.arrows())
    report.add("scalar_set_zero_is_identities", zero_ok)
    if bihom.field_tag == REAL:
        # at an identity arrow the row vanishes, so i times it is again the
        # zero row; emptiness is only meaningful for nonvanishing rows
        imag_ok = all(
            sets[imaginary, g] == () for g in groupoid.arrows() if not groupoid.is_identity(g)
        )
        report.add("scalar_set_imaginary_empty", imag_ok)
    else:
        report.add("scalar_set_imaginary_empty", docs.NOT_APPLICABLE)
    report.add("conjugate_scalar_law", conj_ok)
    report.add("norm_scaling_law", scale_ok)

    return report
