"""Command line driver: documents in, verification reports out.

Exit codes: 0 when every check passes, 1 when a check fails (the report
carries a witness), 2 for input or usage errors. Reports are deterministic:
the same input always produces byte-identical output.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import documents as docs
from .errors import GroupoidError, GrpdError, HomError, NormError, SipError, _echo
from .families import FAMILIES, generate
from .groupoid import FiniteGroupoid, validate_groupoid
from .homs import congruence_from_hom, congruence_profile, validate_affine_congruence
from .norm import consistency_check, norm_from_sip, polarize, validate_norm
from .scalars import GaussianRational, gaussian, rational
from .sip import b_partition, b_relate, scalar_set, sip_from_thetas, validate_sip
from .suite import (
    _add_consistency_checks,
    _add_norm_checks,
    _arrow,
    _arrow_pair,
    _profile_witness,
    report_all,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grpd", description="exact verification of finite groupoid structures"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("gen", help="generate a built-in groupoid family")
    p.add_argument("family", choices=FAMILIES)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("-o", "--output", type=Path)

    p = sub.add_parser("validate", help="check every groupoid axiom on a document")
    p.add_argument("file", type=Path)
    add_format(p)

    p = sub.add_parser("congruence", help="build or check a congruence on a groupoid")
    p.add_argument("file", type=Path)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--hom", type=Path)
    group.add_argument("--partition", type=Path)
    p.add_argument("--profile", action="store_true")
    p.add_argument("--check-axioms", action="store_true")
    add_format(p)

    p_sip = sub.add_parser("sip", help="pairing construction and queries")
    sip_sub = p_sip.add_subparsers(dest="sip_command", required=True)

    p = sip_sub.add_parser("check", help="verify the semi-inner-product conditions")
    p.add_argument("file", type=Path)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--thetas", type=Path, nargs="+")
    group.add_argument("--table", type=Path)
    add_format(p)

    p = sip_sub.add_parser("relate", help="compare the pairing rows of two arrows")
    p.add_argument("file", type=Path)
    p.add_argument("--table", type=Path, required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--h", required=True)
    add_format(p)

    p = sip_sub.add_parser("scalar-set", help="arrows whose row is a scalar multiple")
    p.add_argument("file", type=Path)
    p.add_argument("--table", type=Path, required=True)
    p.add_argument("--c", required=True, metavar="RE[,IM]")
    p.add_argument("--g", required=True)
    p.add_argument("--at", default=None, metavar="OBJECT")
    add_format(p)

    p_norm = sub.add_parser("norm", help="norm axioms and congruence consistency")
    norm_sub = p_norm.add_subparsers(dest="norm_command", required=True)
    p = norm_sub.add_parser("check")
    p.add_argument("file", type=Path)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--from-sip", type=Path, dest="from_sip")
    group.add_argument("--sq", type=Path)
    p.add_argument("--lambda", type=Path, dest="lam")
    add_format(p)

    p = sub.add_parser("polarize", help="recover a pairing from a consistent norm")
    p.add_argument("file", type=Path)
    p.add_argument("--sq", type=Path, required=True)
    p.add_argument("--lambda", type=Path, dest="lam", required=True)
    p.add_argument("-o", "--output", type=Path)
    add_format(p)

    p = sub.add_parser("report", help="run the full verification suite on a bundle")
    p.add_argument("--all", action="store_true", required=True)
    p.add_argument("file", type=Path)
    p.add_argument("--thetas", type=Path, nargs="+", required=True)
    add_format(p)

    return parser


# --- input helpers ------------------------------------------------------------


def _read(path: Path) -> str:
    return path.read_text(encoding="utf-8")


def _load_typed(path: Path, kind: str) -> dict:
    found, payload = docs.parse_document(_read(path))
    if found != kind:
        raise docs.SchemaError("", f"{path}: expected a {kind} document, found {found}")
    return payload


def _load_groupoid(path: Path) -> FiniteGroupoid:
    return validate_groupoid(docs.raw_groupoid_from_doc(_load_typed(path, "groupoid")))


def _parse_scalar(text: str) -> GaussianRational:
    parts = text.split(",")
    if len(parts) > 2:
        raise docs.SchemaError("--c", f"expected RE or RE,IM, got {_echo(text)}")
    try:
        return gaussian(*map(rational, parts))
    except (ValueError, ZeroDivisionError) as exc:
        raise docs.SchemaError("--c", f"expected rational parts p/q, got {_echo(text)}") from exc


def _emit(report: docs.Report, fmt: str) -> int:
    sys.stdout.write(report.render(fmt))
    return report.exit_code


# --- command handlers ------------------------------------------------------------


def cmd_gen(args) -> int:
    groupoid, homs = generate(args.family, args.size)
    doc = docs.groupoid_to_doc(groupoid)
    if args.output is None:
        sys.stdout.write(docs.dump_document(doc))
        return 0
    args.output.write_text(docs.dump_document(doc), encoding="utf-8")
    print(f"wrote {args.output}")
    base = args.output.with_suffix("")
    for name, hom in homs.items():
        hom_path = Path(f"{base}.{name}.hom")
        hom_path.write_text(docs.dump_document(docs.hom_to_doc(hom)), encoding="utf-8")
        print(f"wrote {hom_path}")
    return 0


def cmd_validate(args) -> int:
    report = docs.Report()
    raw = docs.raw_groupoid_from_doc(_load_typed(args.file, "groupoid"))
    try:
        groupoid = validate_groupoid(raw)
    except GroupoidError as exc:
        report.add("groupoid_axioms", False, witness=str(exc))
        return _emit(report, args.format)
    report.add("groupoid_axioms", True)
    report.add("objects", str(groupoid.n_objects))
    report.add("arrows", str(groupoid.n_arrows))
    return _emit(report, args.format)


def cmd_congruence(args) -> int:
    groupoid = _load_groupoid(args.file)
    report = docs.Report()
    if args.hom is not None:
        try:
            hom = docs.hom_from_doc(groupoid, _load_typed(args.hom, "hom"))
        except HomError as exc:
            report.add("hom_valid", False, witness=str(exc))
            return _emit(report, args.format)
        report.add("hom_valid", True)
        partition = congruence_from_hom(hom)
    else:
        partition = docs.partition_from_doc(groupoid, _load_typed(args.partition, "partition"))
    report.add("classes", str(len(partition.classes)))

    axioms = None
    if args.check_axioms or args.profile:
        axioms = validate_affine_congruence(groupoid, partition)
    if args.check_axioms:
        report.law("congruence_axioms", axioms.describe())
    if args.profile:
        if not axioms.ok:
            report.law("profile", axioms.describe())
        else:
            profile = congruence_profile(axioms)
            report.law("complete", _profile_witness(groupoid, profile.complete_witness))
            report.law("simple", _profile_witness(groupoid, profile.simple_witness))
            report.add("efficient", profile.efficient)
    return _emit(report, args.format)


def _load_bihom_from_args(groupoid: FiniteGroupoid, args, report: docs.Report):
    """Build the pairing for sip check, adding the construction check."""
    try:
        if args.thetas:
            homs = [docs.hom_from_doc(groupoid, _load_typed(f, "hom")) for f in args.thetas]
            bihom = sip_from_thetas(groupoid, homs)
        else:
            bihom = docs.bihom_from_doc(groupoid, _load_typed(args.table, "bihom"))
    except (SipError, HomError) as exc:
        report.add("bihom_valid", False, witness=str(exc))
        return None
    report.add("bihom_valid", True)
    return bihom


def cmd_sip_check(args) -> int:
    groupoid = _load_groupoid(args.file)
    report = docs.Report()
    bihom = _load_bihom_from_args(groupoid, args, report)
    if bihom is None:
        return _emit(report, args.format)
    sip_report = validate_sip(bihom)
    report.law("conjugate_symmetry", _arrow_pair(groupoid, sip_report.symmetry_witness))
    report.law("positive_definiteness", _arrow(groupoid, sip_report.definiteness_witness))
    report.law("cauchy_schwarz", _arrow_pair(groupoid, sip_report.cauchy_witness))
    return _emit(report, args.format)


def cmd_sip_relate(args) -> int:
    groupoid = _load_groupoid(args.file)
    report = docs.Report()
    bihom = docs.bihom_from_doc(groupoid, _load_typed(args.table, "bihom"))
    relation = b_relate(bihom, groupoid.arrow_index(args.g), groupoid.arrow_index(args.h))
    report.add("congruent", str(relation.congruent).lower())
    report.add("opposite", str(relation.opposite).lower())
    report.add("orthogonal", str(relation.orthogonal).lower())
    return _emit(report, args.format)


def cmd_sip_scalar_set(args) -> int:
    groupoid = _load_groupoid(args.file)
    report = docs.Report()
    bihom = docs.bihom_from_doc(groupoid, _load_typed(args.table, "bihom"))
    c = _parse_scalar(args.c)
    at = None if args.at is None else groupoid.object_index(args.at)
    members = scalar_set(bihom, c, groupoid.arrow_index(args.g), at)
    labels = ", ".join(_arrow(groupoid, k) for k in members)
    report.add("members", str(len(members)), witness=labels or "(empty)")
    return _emit(report, args.format)


def cmd_norm_check(args) -> int:
    groupoid = _load_groupoid(args.file)
    report = docs.Report()
    partition = None
    if args.from_sip is not None:
        bihom = docs.bihom_from_doc(groupoid, _load_typed(args.from_sip, "bihom"))
        try:
            norm = norm_from_sip(validate_sip(bihom))
        except NormError as exc:
            report.add("norm_from_sip", False, witness=str(exc))
            return _emit(report, args.format)
        report.add("norm_from_sip", True)
        partition = b_partition(bihom)
    else:
        norm = docs.norm_from_doc(groupoid, _load_typed(args.sq, "norm"))
    if args.lam is not None:
        partition = docs.partition_from_doc(groupoid, _load_typed(args.lam, "partition"))
    _add_norm_checks(report, groupoid, validate_norm(norm))
    if partition is not None:
        _add_consistency_checks(report, groupoid, consistency_check(norm, partition))
    return _emit(report, args.format)


def cmd_polarize(args) -> int:
    groupoid = _load_groupoid(args.file)
    report = docs.Report()
    norm = docs.norm_from_doc(groupoid, _load_typed(args.sq, "norm"))
    partition = docs.partition_from_doc(groupoid, _load_typed(args.lam, "partition"))
    try:
        result = polarize(consistency_check(norm, partition))
    except NormError as exc:
        report.add("polarize", False, witness=str(exc))
        return _emit(report, args.format)
    report.add("polarize", True)
    report.add("coverage", f"{result.defined_pairs}/{result.total_pairs}")
    report.add("symmetric", result.report.symmetry_witness is None)
    report.add("matches_squared_norm", result.report.diagonal_witness is None)
    report.add("cauchy_schwarz", result.report.cauchy_witness is None)
    report.add("additive", result.report.additivity_witness is None)
    if args.output is not None:
        args.output.write_text(
            docs.dump_document(docs.bihom_to_doc(result.bihom)), encoding="utf-8"
        )
        print(f"wrote {args.output}")
    return _emit(report, args.format)


def cmd_report_all(args) -> int:
    groupoid = _load_groupoid(args.file)
    homs = []
    for path in args.thetas:
        try:
            homs.append(docs.hom_from_doc(groupoid, _load_typed(path, "hom")))
        except HomError as exc:
            report = docs.Report()
            report.add("groupoid_axioms", True)
            report.add("hom_valid", False, witness=f"{path}: {exc}")
            return _emit(report, args.format)
    return _emit(report_all(groupoid, homs), args.format)


HANDLERS = {
    "gen": cmd_gen,
    "validate": cmd_validate,
    "congruence": cmd_congruence,
    "polarize": cmd_polarize,
    "report": cmd_report_all,
}


def run_command(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "sip":
            handler = {
                "check": cmd_sip_check,
                "relate": cmd_sip_relate,
                "scalar-set": cmd_sip_scalar_set,
            }[args.sip_command]
        elif args.command == "norm":
            handler = cmd_norm_check
        else:
            handler = HANDLERS[args.command]
        return handler(args)
    except (GrpdError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
