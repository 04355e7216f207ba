"""Command line driver: documents in, verification reports out.

Exit codes: 0 when every check passes, 1 when a check fails (the report
carries a witness), 2 for input or usage errors. Reports are deterministic:
the same input always produces byte-identical output.
"""

from __future__ import annotations

import argparse
import gc
import sys
from functools import cache
from pathlib import Path

from . import documents as docs
from .errors import GroupoidError, GrpdError, HomError, NormError, SipError, UnknownArrow, _echo
from .families import FAMILIES, generate
from .groupoid import FiniteGroupoid, _arrow, _arrows
from .homs import GroupoidHom, congruence_from_hom, congruence_profile, validate_affine_congruence
from .norm import consistency_check, norm_from_sip, polarize, validate_norm, validate_polarized
from .scalars import GaussianRational, gaussian, rational
from .sip import b_partition, b_relate, scalar_set, sip_from_thetas, validate_sip
from .suite import (
    _add_consistency_checks,
    _add_norm_checks,
    _add_sip_checks,
    _profile_witness,
    report_all,
)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process and shared by every call."""
    parser = argparse.ArgumentParser(
        prog="grpd", description="exact verification of finite groupoid structures"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("gen", help="generate a built-in groupoid family")
    p.set_defaults(handler=cmd_gen)
    p.add_argument("family", choices=FAMILIES)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("-o", "--output", type=Path)

    p = sub.add_parser("validate", help="check every groupoid axiom on a document")
    p.set_defaults(handler=cmd_validate)
    p.add_argument("file", type=Path)
    add_format(p)

    p = sub.add_parser("congruence", help="build or check a congruence on a groupoid")
    p.set_defaults(handler=cmd_congruence)
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
    p.set_defaults(handler=cmd_sip_check)
    p.add_argument("file", type=Path)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--thetas", type=Path, nargs="+")
    group.add_argument("--table", type=Path)
    add_format(p)

    p = sip_sub.add_parser("relate", help="compare the pairing rows of two arrows")
    p.set_defaults(handler=cmd_sip_relate)
    p.add_argument("file", type=Path)
    p.add_argument("--table", type=Path, required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--h", required=True)
    add_format(p)

    p = sip_sub.add_parser("scalar-set", help="arrows whose row is a scalar multiple")
    p.set_defaults(handler=cmd_sip_scalar_set)
    p.add_argument("file", type=Path)
    p.add_argument("--table", type=Path, required=True)
    p.add_argument("--c", required=True, metavar="RE[,IM]")
    p.add_argument("--g", required=True)
    p.add_argument("--at", default=None, metavar="OBJECT")
    add_format(p)

    p_norm = sub.add_parser("norm", help="norm axioms and congruence consistency")
    norm_sub = p_norm.add_subparsers(dest="norm_command", required=True)
    p = norm_sub.add_parser("check")
    p.set_defaults(handler=cmd_norm_check)
    p.add_argument("file", type=Path)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--from-sip", type=Path, dest="from_sip")
    group.add_argument("--sq", type=Path)
    p.add_argument("--lambda", type=Path, dest="lam")
    add_format(p)

    p = sub.add_parser("polarize", help="recover a pairing from a consistent norm")
    p.set_defaults(handler=cmd_polarize)
    p.add_argument("file", type=Path)
    p.add_argument("--sq", type=Path, required=True)
    p.add_argument("--lambda", type=Path, dest="lam", required=True)
    p.add_argument("-o", "--output", type=Path)
    add_format(p)

    p = sub.add_parser("report", help="run the full verification suite on a bundle")
    p.set_defaults(handler=cmd_report_all)
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
    return docs.groupoid_from_doc(_load_typed(path, "groupoid"))


def _load_theta(groupoid: FiniteGroupoid, path: Path) -> GroupoidHom:
    """Read one of the --thetas files; every error it raises names the file once."""
    try:
        found, payload = docs.parse_document(_read(path))
        if found != "hom":
            raise docs.SchemaError("", f"expected a hom document, found {found}")
        return docs.hom_from_doc(groupoid, payload)
    except HomError as exc:
        raise HomError(f"{path}: {exc}") from exc
    except (docs.ParseError, docs.SchemaError, UnknownArrow) as exc:
        raise docs.SchemaError(str(path), str(exc)) from exc


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
    try:
        groupoid = _load_groupoid(args.file)
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
            bihom = sip_from_thetas(groupoid, [_load_theta(groupoid, f) for f in args.thetas])
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
    _add_sip_checks(report, validate_sip(bihom))
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
        try:
            bihom = docs.bihom_from_doc(groupoid, _load_typed(args.from_sip, "bihom"))
            norm = norm_from_sip(validate_sip(bihom))
        except (SipError, HomError, NormError) as exc:
            report.add("norm_from_sip", False, witness=str(exc))
            return _emit(report, args.format)
        report.add("norm_from_sip", True)
        if args.lam is None:
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
    laws = validate_polarized(result)
    report.law("symmetric", _arrows(groupoid, laws.symmetry_witness))
    # the diagonal is the squared norm by construction: doubling at (e, e)
    # gives sq(e) = 4 sq(e) = 0 on each identity e, so the seconds (g, g, e)
    # of a class pair (a, a) have value 0, and witness agreement fixes its
    # value to (4 sq(a) - 0) / 4 = sq(a)
    report.add("matches_squared_norm", True)
    report.law("cauchy_schwarz", _arrows(groupoid, laws.cauchy_witness))
    report.law("additive", _arrows(groupoid, laws.additivity_witness))
    if args.output is not None and laws.ok:
        args.output.write_text(
            docs.dump_document(docs.bihom_to_doc(result.bihom)), encoding="utf-8"
        )
        print(f"wrote {args.output}")
    return _emit(report, args.format)


def cmd_report_all(args) -> int:
    groupoid = _load_groupoid(args.file)
    try:
        homs = [_load_theta(groupoid, path) for path in args.thetas]
    except HomError as exc:
        report = docs.Report()
        report.add("groupoid_axioms", True)
        report.add("hom_valid", False, witness=str(exc))
        return _emit(report, args.format)
    return _emit(report_all(groupoid, homs), args.format)


def _attach_scalar(argv: list[str]) -> list[str]:
    """Join ``--c VALUE`` into ``--c=VALUE``: argparse reads a value with a
    leading minus, such as -1,1 or -1/2, as an option unless it looks like a
    plain negative number, so --c takes the next argument whatever it is."""
    out: list[str] = []
    rest = iter(argv)
    for arg in rest:
        value = next(rest, None) if arg == "--c" else None
        out.append(arg if value is None else f"--c={value}")
    return out


def run_command(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_scalar(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    # a command's tables are acyclic: refcounting frees them, the collector only rescans them
    enabled = gc.isenabled()
    gc.disable()
    try:
        return args.handler(args)
    except (GrpdError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if enabled:
            gc.enable()


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
