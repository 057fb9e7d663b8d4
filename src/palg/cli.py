"""Command-line interface: validation, structural analysis, series, the
check suite, and exhaustive enumeration.

Exit codes: 0 success / all pass, 1 mathematical failure (invalid algebra or
a failed check), 2 usage or I/O trouble, 3 budget exceeded.  Reports embed
the sha256 of every input so recorded runs stay reproducible; the JSON form
is stable across runs except for the elapsed_ms field.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Iterable, Iterator

from . import __version__
from .algebra import AxiomViolation, PoissonAlgebra
from .corpus import (
    CorpusFormatError,
    enumerate_poisson_structures,
    parse_document,
    parse_manifest,
    serialize_document,
    serialize_manifest,
)
from .fields import FieldError, _is_decimal
from .lattice import (
    BudgetExceededError,
    LatticeBudget,
    StructureInconsistencyError,
    StructureReport,
    structure_report,
)
from .linalg import Subspace
from .series import SERIES_KINDS, SeriesConsistencyError, SeriesReport, series_by_kind
from .theorems import REGISTRY, TheoremResult, check_suite_request, run_suite, summarise

EXIT_OK = 0
EXIT_MATH = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.handler(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (AxiomViolation, SeriesConsistencyError, StructureInconsistencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MATH
    except (OSError, CorpusFormatError, FieldError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="palg",
                                     description="exact structure theory for Poisson algebras")
    sub = parser.add_subparsers(required=True)

    p = sub.add_parser("validate", help="check the defining identities of .palg files")
    p.add_argument("paths", nargs="+")
    _common_flags(p)
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("analyze", help="full structure report for one algebra")
    p.add_argument("path")
    p.add_argument("--allow-invalid", action="store_true",
                   help="skip axiom validation (negative controls only)")
    _common_flags(p)
    _budget_flags(p)
    p.set_defaults(handler=cmd_analyze)

    p = sub.add_parser("series", help="print a descending series")
    p.add_argument("path")
    p.add_argument("--kind", choices=SERIES_KINDS, default="derived")
    p.add_argument("--allow-invalid", action="store_true")
    _common_flags(p)
    p.set_defaults(handler=cmd_series)

    p = sub.add_parser("check", help="run the check suite over a corpus manifest")
    p.add_argument("manifest")
    p.add_argument("--theorem", default=None, help="run only this check id")
    p.add_argument("--list", action="store_true", help="list check ids and exit")
    p.add_argument("--jobs", type=_int_arg, default=1)
    p.add_argument("--allow-invalid", action="store_true")
    _common_flags(p)
    _budget_flags(p)
    p.set_defaults(handler=cmd_check)

    p = sub.add_parser("enumerate", help="exhaustively enumerate valid structures")
    p.add_argument("dim", type=_int_arg)
    p.add_argument("q", type=_int_arg)
    p.add_argument("outdir")
    _common_flags(p)
    p.set_defaults(handler=cmd_enumerate)
    return parser


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", default=None, help="write the report here instead of stdout")


def _budget_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--budget-dim", type=_int_arg, default=LatticeBudget().max_dim)
    p.add_argument("--budget-q", type=_int_arg, default=LatticeBudget().max_q)
    p.add_argument("--budget-subspaces", type=_int_arg, default=LatticeBudget().max_subspaces)


def _int_arg(text: str) -> int:
    """An integer argument: an optional sign and ASCII digits, the grammar
    of document coefficients.  ``int`` alone also reads underscores and the
    digits of other scripts: "1_1" as 11, "٣" as 3."""
    if not _is_decimal(text[1:] if text.startswith(("+", "-")) else text):
        raise argparse.ArgumentTypeError(f"not an ASCII integer: {text!r}")
    return int(text)


def _budget_from(args) -> LatticeBudget:
    return LatticeBudget(max_dim=args.budget_dim, max_q=args.budget_q,
                         max_subspaces=args.budget_subspaces)


def _read_text(path) -> str:
    """The text of an input file; bytes that are not UTF-8 are a format
    error, as malformed JSON is."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise CorpusFormatError(f"{path}: not UTF-8: {exc}") from None


def _sha256(path: str) -> str:
    # CPython's builtin sha256, which hashlib itself falls back to: importing
    # hashlib maps in OpenSSL, about 4 MB of RSS, for one digest per input
    try:
        from _sha256 import sha256
    except ImportError:
        try:
            from _sha2 import sha256  # its name from CPython 3.12 on
        except ImportError:
            from hashlib import sha256
    return sha256(Path(path).read_bytes()).hexdigest()


def _envelope(command: str, inputs: list, result, started: float) -> dict:
    return {
        "tool": "palg",
        "version": __version__,
        "command": command,
        "inputs": [{"path": p, "sha256": _sha256(p)} for p in inputs],
        "result": result,
        "elapsed_ms": int((time.monotonic() - started) * 1000),
    }


def _emit(args, envelope: dict, text_lines: Iterable[str]) -> None:
    """Write the report to --out or stdout as it is encoded, in the bytes of
    ``json.dumps(envelope, indent=2) + "\n"`` or of the joined text lines.
    Check rows (TheoremResult) are converted one at a time as they are
    written, and the text lines are only drawn for --format text.  A
    failure while writing removes the partial --out file."""
    if not args.out:
        _write_report(args.format, envelope, text_lines, sys.stdout)
        return
    out = Path(args.out)
    fh = out.open("w", encoding="utf-8")
    try:
        with fh:
            _write_report(args.format, envelope, text_lines, fh)
    except BaseException:
        if out.is_file() and not out.is_symlink():  # not a device or link: /dev/null, /dev/stdout
            out.unlink()
        raise


def _write_report(fmt: str, envelope: dict, text_lines: Iterable[str], fh) -> None:
    if fmt == "json":
        json.dump(envelope, fh, indent=2, default=TheoremResult.to_json)
        fh.write("\n")
    else:
        fh.writelines(line + "\n" for line in text_lines)


def _space_json(s: Subspace | None):
    if s is None:
        return None
    return {"dim": s.dim, "basis": [[s.field.format_scalar(x) for x in row]
                                    for row in s.rows()]}


def _space_text(s: Subspace | None, labels) -> str:
    if s is None:
        return "(needs finite field)"
    if s.is_zero():
        return "0"
    parts = []
    for row in s.rows():
        terms = [f"{'' if x == 1 else s.field.format_scalar(x) + '*'}{labels[i]}"
                 for i, x in enumerate(row) if x != 0]
        parts.append(" + ".join(terms))
    return "span(" + ", ".join(parts) + ")"


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_validate(args) -> int:
    started = time.monotonic()
    results = []
    worst = EXIT_OK
    for path in args.paths:
        try:
            parse_document(_read_text(path))
            results.append({"path": path, "status": "valid"})
        except OSError as exc:
            results.append({"path": path, "status": "io-error", "message": str(exc)})
            worst = EXIT_USAGE
        except CorpusFormatError as exc:
            results.append({"path": path, "status": "format-error", "message": str(exc)})
            worst = EXIT_USAGE
        except AxiomViolation as exc:
            results.append({"path": path, "status": "invalid", "axiom": exc.axiom,
                            "witness": list(exc.witness),
                            "residual": [str(x) for x in exc.residual]})
            if worst == EXIT_OK:
                worst = EXIT_MATH
    # only regular files are hashed; a directory stays an io-error row
    inputs = [p for p in args.paths if Path(p).is_file()]
    _emit(args, _envelope("validate", inputs, results, started), _validate_lines(results))
    return worst


def _validate_lines(results: list) -> Iterator[str]:
    for r in results:
        if r["status"] == "valid":
            yield f"{r['path']}: VALID"
        elif r["status"] == "invalid":
            yield (f"{r['path']}: INVALID {r['axiom']} at {tuple(r['witness'])} "
                   f"residual {r['residual']}")
        else:
            yield f"{r['path']}: ERROR {r['message']}"


def _load_algebra(path: str, allow_invalid: bool) -> PoissonAlgebra:
    return parse_document(_read_text(path), allow_invalid=allow_invalid)


def _usage_error(exc: Exception) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return EXIT_USAGE


def cmd_analyze(args) -> int:
    started = time.monotonic()
    try:
        budget = _budget_from(args)
    except ValueError as exc:  # a negative --budget-* value
        return _usage_error(exc)
    try:
        alg = _load_algebra(args.path, args.allow_invalid)
    except AxiomViolation as exc:
        print(f"error: {args.path}: {exc}", file=sys.stderr)
        return EXIT_MATH
    report = structure_report(alg, budget)
    result = _report_json(report)
    _emit(args, _envelope("analyze", [args.path], result, started),
          _analyze_lines(alg, report, args.path))
    return EXIT_OK


def _analyze_lines(alg: PoissonAlgebra, report: StructureReport, path: str) -> Iterator[str]:
    labels = alg.labels()
    yield f"algebra {alg.name or path} over {alg.field} (dim {alg.dim})"
    for key in ("radical", "nilradical", "socle", "zero_socle",
                "frattini_subalgebra", "frattini_ideal"):
        yield f"  {key:20s} {_space_text(getattr(report, key), labels)}"
    if report.frattini_assoc is not None:
        yield (f"  {'frattini_assoc':20s} F={_space_text(report.frattini_assoc[0], labels)}"
               f" phi={_space_text(report.frattini_assoc[1], labels)}")
        yield (f"  {'frattini_lie':20s} F={_space_text(report.frattini_lie[0], labels)}"
               f" phi={_space_text(report.frattini_lie[1], labels)}")
    yield f"  {'phi_free':20s} {report.phi_free}"
    if report.splitting is None and report.classification is not None:
        yield f"  {'splitting':20s} none (no complement to the zero socle closes)"
    else:
        yield f"  {'splitting':20s} {_space_text(report.splitting, labels)}"
    yield f"  {'classification':20s} {report.classification}"
    for marker in report.markers:
        yield f"  note: {marker}"


def _report_json(report: StructureReport) -> dict:
    return {
        "algebra": report.algebra_name,
        "radical": _space_json(report.radical),
        "nilradical": _space_json(report.nilradical),
        "socle": _space_json(report.socle),
        "zero_socle": _space_json(report.zero_socle),
        "frattini_subalgebra": _space_json(report.frattini_subalgebra),
        "frattini_ideal": _space_json(report.frattini_ideal),
        "frattini_assoc": None if report.frattini_assoc is None else
            [_space_json(s) for s in report.frattini_assoc],
        "frattini_lie": None if report.frattini_lie is None else
            [_space_json(s) for s in report.frattini_lie],
        "phi_free": report.phi_free,
        "splitting": _space_json(report.splitting),
        "classification": report.classification,
        "idempotent": None if report.idempotent is None else
            [str(x) for x in report.idempotent],
        "markers": list(report.markers),
    }


def cmd_series(args) -> int:
    started = time.monotonic()
    try:
        alg = _load_algebra(args.path, args.allow_invalid)
    except AxiomViolation as exc:
        print(f"error: {args.path}: {exc}", file=sys.stderr)
        return EXIT_MATH
    report = series_by_kind(alg, args.kind)
    result = _series_json(report)
    _emit(args, _envelope("series", [args.path], result, started),
          _series_lines(alg, report, args.path))
    return EXIT_OK


def _series_lines(alg: PoissonAlgebra, report: SeriesReport, path: str) -> Iterator[str]:
    labels = alg.labels()
    verdict = (f"terminates at zero, step {report.step}" if report.terminates
               else f"stabilises nonzero at step {report.step}")
    yield f"{report.kind} series of {alg.name or path}: {verdict}"
    for idx, term in enumerate(report.terms):
        yield f"  term {idx}: {_space_text(term, labels)}"


def _series_json(report: SeriesReport) -> dict:
    return {"kind": report.kind,
            "terms": [_space_json(t) for t in report.terms],
            "terminates": report.terminates,
            "step": report.step}


def cmd_check(args) -> int:
    started = time.monotonic()
    if args.list:
        for check in REGISTRY:
            print(f"{check.id:12s} {check.statement}")
        return EXIT_OK
    try:
        budget = _budget_from(args)
        check_suite_request(args.theorem, args.jobs)
    except ValueError as exc:  # a negative --budget-* value, --jobs out of range, an unknown --theorem
        return _usage_error(exc)
    manifest_path = Path(args.manifest)
    members = parse_manifest(_read_text(manifest_path))
    corpus = []
    inputs = [args.manifest]
    for member in members:
        member_path = manifest_path.parent / member
        inputs.append(str(member_path))
        corpus.append(parse_document(_read_text(member_path), allow_invalid=args.allow_invalid))
    results = run_suite(corpus, theorem_filter=args.theorem, budget=budget, jobs=args.jobs)
    counts = summarise(results)
    # the rows go into the report as they are; _emit encodes one at a time
    payload = {"results": results, "summary": counts}
    _emit(args, _envelope("check", inputs, payload, started), _check_lines(results, counts))
    return EXIT_OK if counts["fail"] == 0 else EXIT_MATH


def _check_lines(results: list, counts: dict) -> Iterator[str]:
    for r in results:
        flag = "" if r.exercised else " (vacuous)"
        yield f"{r.status.upper():15s} {r.theorem:12s} {r.algebra}{flag}"
        if r.status == "fail" and r.witness:
            yield f"    witness: {json.dumps(r.witness)}"
    yield (f"summary: {counts['pass']} pass ({counts['vacuous']} vacuous), "
           f"{counts['fail']} fail, {counts['not-applicable']} not applicable")


def cmd_enumerate(args) -> int:
    started = time.monotonic()
    try:
        algebras = enumerate_poisson_structures(args.dim, args.q)
    except ValueError as exc:  # a negative dim or, as FieldError, a non-prime q
        return _usage_error(exc)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    filenames = []
    for alg in algebras:
        filename = f"{alg.name}.palg"
        (outdir / filename).write_text(serialize_document(alg), encoding="utf-8")
        filenames.append(filename)
    (outdir / "manifest.json").write_text(serialize_manifest(filenames), encoding="utf-8")
    result = {"dim": args.dim, "q": args.q, "count": len(algebras),
              "manifest": str(outdir / "manifest.json")}
    lines = [f"wrote {len(algebras)} algebras to {outdir} (manifest.json included)"]
    _emit(args, _envelope("enumerate", [], result, started), lines)
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
