"""The checks of ``grpd report --all`` as one library suite, and the report
sections that every command shares. A law that a construction proves is
not scanned: the theta congruence's axioms follow from the hom law, and
every line after ``sip_construction`` from the theorem that a theta family
builds a semi-inner product.
"""

from __future__ import annotations

from itertools import product

from . import documents as docs
from .errors import NotScalarTarget, SipError, _clip
from .groupoid import FiniteGroupoid, _arrow, _arrows
from .homs import (
    CongruenceReport,
    GroupoidHom,
    congruence_from_hom,
    congruence_profile,
    product_hom,
)
from .norm import VACUOUS
from .sip import REAL, _gram_field_tag, has_unit_values, theta_vectors

def _profile_witness(groupoid: FiniteGroupoid, witness: tuple[int, int] | None) -> str | None:
    if witness is None:
        return None
    g, p = witness
    return f"({_arrow(groupoid, g)}, object {_clip(groupoid.object_label(p))})"


def _add_sip_checks(report: docs.Report, sip_report) -> None:
    for law, witness in sip_report.laws():
        report.law(law, witness)


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
    # the hom law at (e, e, e) gives theta(e) = 0 at every identity e, so the
    # class of an identity holds exactly the arrows with value zero, and the
    # bundle is mono exactly when that class holds identities alone
    mono = all(map(groupoid.is_identity, axioms.partition.members(groupoid.identity[0])))
    report.add("monomorphism_implies_simple", simple if mono else docs.NOT_APPLICABLE)

    try:
        vectors = theta_vectors(groupoid, homs)
    except NotScalarTarget as exc:
        # modular-valued bundles have no scalar pairing; nothing failed,
        # the pairing checks simply do not apply
        report.add("sip_construction", docs.NOT_APPLICABLE, witness=str(exc))
        return report
    except SipError as exc:
        report.add("sip_construction", False, witness=str(exc))
        return report
    report.add("sip_construction", True)

    # the family builds a semi-inner product (sip_from_thetas): T(g, h) is the
    # Gram pairing <v(g), v(h)> of value vectors with v(g*h) = v(g) + v(h) and
    # v(inverse g) = -v(g), and v vanishes on the identities alone. Every later
    # line is read from that theorem, so no pairing is built; only what it
    # leaves open is computed. SIP laws: a Gram pairing is conjugate symmetric
    # and obeys Cauchy-Schwarz, and definiteness is the separation checked above
    for law in ("conjugate_symmetry", "positive_definiteness", "cauchy_schwarz"):
        report.add("sip_" + law, True)

    # the row partition is the theta congruence: rows g and h agree exactly when
    # v(g) = v(h) (the lemma in Bihom.rows), so its lines are read from the
    # theta congruence's reports, and it matches the hom wherever that law
    # applies
    rows = axioms.partition
    report.law("row_congruence_axioms", axioms.describe())
    report.law("row_congruence_simple", _profile_witness(groupoid, profile.simple_witness))
    units = has_unit_values(vectors)
    report.add("row_partition_matches_hom", True if units else docs.NOT_APPLICABLE)

    # fiber propositions: on a transitive groupoid each arrow k is
    # inverse(h1)*h2 for some h1, h2 out of any object p, so T(g, k) =
    # T(g, h2) - T(g, h1) is read off row g on the fiber of p: rows equal
    # there are equal, and a row zero there is zero
    report.add("transitive_fiber_props", True if groupoid.is_transitive() else docs.NOT_APPLICABLE)

    # norm laws, the paper's theorem that a SIP defines a groupoid norm:
    # |v(g) + v(h)| <= |v(g)| + |v(h)| and |-v| = |v| are the triangle and
    # inverse laws, |v| = 0 on the identities alone is separation, and the
    # reverse bound follows from the first two (see validate_norm)
    for law in ("identity_zero", "triangle", "inverse_invariance", "reverse_triangle"):
        report.add(law, True)

    # consistency: class mates have equal v, so equal norms, and composable
    # mates have v(g1*g2) = 2 v(g1), so the norm doubles; the doubling law is
    # vacuous unless a class other than the identities' has an arrow into some
    # object and one out of it
    cls = rows.class_of
    into = [{cls[g] for g in arrows} for arrows in groupoid.by_target]
    out = [{cls[g] for g in arrows} for arrows in groupoid.by_source]
    zero = cls[groupoid.identity[0]]
    report.add("consistency_class_norms", True)
    if any(a != zero and a in out[p] for p, classes in enumerate(into) for a in classes):
        report.add("consistency_doubling", True)
    else:
        report.add("consistency_doubling", VACUOUS, witness="no composable class mates")

    # parallelogram: |v(g) + v(h)|^2 + |v(h) - v(g)|^2 = 2|v(g)|^2 + 2|v(h)|^2,
    # so the identity holds at every arrow pair (g, h) of a class pair (a, b)
    # with witnesses: a composable pair, a class-a arrow into some object and a
    # class-b arrow out of it, and a common-source pair, a class-a and a
    # class-b arrow out of one object
    composable = {pair for ins, outs in zip(into, out) for pair in product(ins, outs)}
    common_source = {pair for outs in out for pair in product(outs, outs)}
    sizes = [len(members) for members in rows.classes]
    holds = sum(sizes[a] * sizes[b] for a, b in composable & common_source)
    total = groupoid.n_arrows * groupoid.n_arrows
    report.add("parallelogram", True, witness=f"holds={holds} no_witness={total - holds} fails=0")

    # polarization reads the same witnesses: (|v(g) + v(h)|^2 - |v(h) - v(g)|^2)/4
    # is Re T(g, h), which is T(g, h) on a real pairing; T is real exactly
    # when it is real on every pair of generators (see _gram_field_tag)
    real = _gram_field_tag(groupoid, vectors) == REAL
    if real:
        report.add("polarization_round_trip", True, witness=f"coverage={holds}/{total}")
    else:
        report.add("polarization_round_trip", docs.NOT_APPLICABLE)

    # the scalar-set laws are lemmas of the SIP laws; for row k = c * row h:
    # - zero: Cauchy-Schwarz zeroes just the rows with diagonal 0, so the
    #   zero scalar set is the identities by definiteness
    # - imaginary: on a real pairing with c = i, rows k and h are zero, which
    #   definiteness rules out off the identities
    # - conjugate scalar: T(x, k) = conj T(k, x) = conj(c) * T(x, h) for all x
    # - scaling: T(k, k) = c * T(h, k) = c * conj(c * T(h, h)) = |c|^2 * T(h, h)
    report.add("scalar_set_zero_is_identities", True)
    report.add("scalar_set_imaginary_empty", True if real else docs.NOT_APPLICABLE)
    report.add("conjugate_scalar_law", True)
    report.add("norm_scaling_law", True)

    return report
