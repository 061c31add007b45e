"""Command-line front end.

Subcommands:

* ``defect classify <file>``            symbolic defect of an isogeny spec
* ``defect torus <file> [--box N]``     per-class analysis + box search
* ``defect verify <file> --checks ...`` invariant suites on an explicit torus
* ``defect report threefolds``          the dimension-3 classification table

Exit codes are a stable contract: 0 success, 1 verification failure,
2 input error, 3 internal consistency failure.  Input is validated where it
is read, so every input problem arrives as a `SchemaError` (or an `OSError`
from reading the file); any other exception is an internal failure, exit 3,
never the traceback exit status 1 that would read as a failed verification.
A box-limited oracle verdict is not a failure.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

from .checks import CHECK_NAMES, run_checks
from .classifier import classify, threefold_catalog
from .cohomology import defect_of_class
from .effectivity import effectivity_report, torus_defect
from .errors import ConsistencyError, SchemaError
from .schema import (
    ClassRow,
    ReportDocument,
    SpecDocument,
    load_document,
    verification_entry,
)
from .torus import ns_basis, ns_rank

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _write_report(report: ReportDocument, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(report.to_json())
            handle.write("\n")


def _spec_summary(doc: SpecDocument) -> str:
    parts = []
    for f in doc.spec.factors:
        tag = f.label
        if f.kind == "elliptic":
            tag += " (elliptic, cm)" if f.has_cm else " (elliptic)"
        elif f.kind == "surface":
            tag += f" (surface {f.albert_type}, rho={f.picard})"
        else:
            tag += f" (simple, dim {f.dim})"
        if f.mult > 1:
            tag += f"^{f.mult}"
        parts.append(tag)
    return " x ".join(parts)


def cmd_classify(args) -> int:
    doc = load_document(args.file)
    if doc.kind != "isogeny":
        raise SchemaError("$.kind", "classify expects an isogeny document")
    start = time.monotonic()
    report = classify(doc.spec)
    elapsed = int((time.monotonic() - start) * 1000)
    print(f"input: {_spec_summary(doc)}")
    print(f"delta = {report.delta}")
    print(f"case: {report.case}" + (f" (witness {report.witness_factor})" if report.witness_factor else ""))
    out = ReportDocument(
        input_document=doc.raw,
        delta=report.delta,
        case=report.case,
        class_rows=[],
        verification={
            name: verification_entry("skipped", "classify is symbolic")
            for name in ("voisin_check", "kunneth_check", "classifier_vs_search")
        },
        classes_scanned=0,
        elapsed_ms=elapsed,
    )
    _write_report(out, args.out)
    return EXIT_OK


def _class_rows(doc: SpecDocument, selected) -> list:
    A = doc.torus
    forms = list(doc.classes)
    names = [f"class {i}" for i in range(len(forms))]
    if not forms:
        forms = ns_basis(A)
        names = [f"ns basis {i}" for i in range(len(forms))]
    if selected is not None:
        if not 0 <= selected < len(forms):
            raise SchemaError("--class", f"--class index {selected} out of range")
        forms = [forms[selected]]
        names = [names[selected]]
    rows = []
    for name, form in zip(names, forms):
        report = effectivity_report(A, form)
        rho_b = ns_rank(report.quotient) if report.is_effective else None
        rows.append(ClassRow(name, report.is_effective, report.iitaka_dim, rho_b,
                             defect_of_class(A, form)))
    return rows


def _render_rows(rows) -> str:
    header = f"{'class':<12} {'effective':<10} {'b':<4} {'rho_B':<6} {'defect':<6}"
    lines = [header, "-" * len(header)]
    for row in rows:
        b = "-" if row.iitaka_dim is None else str(row.iitaka_dim)
        rho = "-" if row.rho_quotient is None else str(row.rho_quotient)
        lines.append(
            f"{row.name:<12} {str(row.is_effective).lower():<10} {b:<4} {rho:<6} {row.defect:<6}"
        )
    return "\n".join(lines)


def _check_search_input(A, box):
    if A.n < 2:
        raise SchemaError("$.blocks", "global defect needs dimension at least 2")
    if box < 1:
        raise SchemaError("--box", "box must be at least 1")


def cmd_torus(args) -> int:
    doc = load_document(args.file)
    if doc.kind != "torus":
        raise SchemaError("$.kind", "torus expects a torus document")
    A = doc.torus
    _check_search_input(A, args.box)
    start = time.monotonic()
    rows = _class_rows(doc, args.class_index)
    search = torus_defect(A, box=args.box)
    checks = run_checks(A, ("voisin", "kunneth", "oracle"), box=args.box, search=search)
    elapsed = int((time.monotonic() - start) * 1000)

    print(_render_rows(rows))
    print()
    print(
        f"delta = {search.delta}  (box {args.box}, {search.classes_scanned} classes scanned, "
        f"{search.nodes_visited} nodes visited)"
    )
    if search.witness_coefficients is not None:
        print(f"witness coefficients over ns basis: {list(search.witness_coefficients)}")
    failed = False
    verification = {}
    report_keys = {"voisin": "voisin_check", "kunneth": "kunneth_check",
                   "oracle": "classifier_vs_search"}
    for result in checks:
        verification[report_keys[result.name]] = verification_entry(result.status, result.detail)
        print(f"{result.name}: {result.status} ({result.detail})")
        failed = failed or result.status == "fail"
    out = ReportDocument(
        input_document=doc.raw,
        delta=search.delta,
        case="search",
        class_rows=rows,
        verification=verification,
        classes_scanned=search.classes_scanned,
        elapsed_ms=elapsed,
        witness=(
            list(search.witness_coefficients)
            if search.witness_coefficients is not None
            else None
        ),
    )
    _write_report(out, args.out)
    return EXIT_VERIFICATION if failed else EXIT_OK


def cmd_verify(args) -> int:
    doc = load_document(args.file)
    if doc.kind != "torus":
        raise SchemaError("$.kind", "verify expects a torus document")
    names = [name.strip() for name in args.checks.split(",") if name.strip()]
    if not names:
        raise SchemaError("--checks", f"name at least one check from {CHECK_NAMES}")
    for name in names:
        if name not in CHECK_NAMES:
            raise SchemaError("--checks", f"unknown check {name!r}; choose from {CHECK_NAMES}")
    if "oracle" in names:
        _check_search_input(doc.torus, args.box)
    results = run_checks(doc.torus, names, box=args.box)
    failed = False
    for result in results:
        print(f"{result.name}: {result.status} ({result.detail})")
        failed = failed or result.status == "fail"
    return EXIT_VERIFICATION if failed else EXIT_OK


def cmd_report_threefolds(args) -> int:
    catalog = threefold_catalog()
    if args.format == "machine":
        import json

        for spec, report in catalog:
            record = {
                "delta": report.delta,
                "case": report.case,
                "factors": [
                    {
                        "type": f.kind,
                        "label": f.label,
                        "mult": f.mult,
                        **({"cm": f.has_cm} if f.kind == "elliptic" else {}),
                        **(
                            {"albert_type": f.albert_type, "picard": f.picard}
                            if f.kind == "surface"
                            else {}
                        ),
                        **({"dim": f.dim} if f.kind == "simple_other" else {}),
                    }
                    for f in spec.factors
                ],
            }
            print(json.dumps(record, sort_keys=False))
        return EXIT_OK
    header = f"{'delta':<6} {'case':<16} factors"
    print(header)
    print("-" * len(header))
    for spec, report in catalog:
        parts = []
        for f in spec.factors:
            tag = f.label
            if f.mult > 1:
                tag += f"^{f.mult}"
            parts.append(tag)
        print(f"{report.delta:<6} {report.case:<16} {' x '.join(parts)}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `defect` argument parser, built once per process (parsing does
    not change it)."""
    parser = argparse.ArgumentParser(
        prog="defect",
        description="Exact Lefschetz-defect computations for complex abelian varieties.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="symbolic defect of an isogeny factorization")
    p.add_argument("file")
    p.add_argument("--out", default=None, help="write a JSON report")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("torus", help="per-class analysis and box search on an explicit torus")
    p.add_argument("file")
    p.add_argument("--box", type=int, default=2, help="coefficient box for the search (default 2)")
    p.add_argument("--class", dest="class_index", type=int, default=None,
                   help="restrict the analysis to one declared class")
    p.add_argument("--out", default=None, help="write a JSON report")
    p.set_defaults(func=cmd_torus)

    p = sub.add_parser("verify", help="run invariant checks on an explicit torus")
    p.add_argument("file")
    p.add_argument("--checks", required=True,
                   help="comma-separated subset of: " + ",".join(CHECK_NAMES))
    p.add_argument("--box", type=int, default=2)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("report", help="built-in reports")
    report_sub = p.add_subparsers(dest="report_kind", required=True)
    p3 = report_sub.add_parser("threefolds", help="the dimension-3 classification table")
    p3.add_argument("--format", choices=("table", "machine"), default="table")
    p3.set_defaults(func=cmd_report_threefolds)

    return parser


def main(argv=None) -> int:
    parser = build_parser()  # looked up by name on each call
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SchemaError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ConsistencyError, ValueError) as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # any other fault is internal, not a failed verification
        import traceback  # only this error path needs it

        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
