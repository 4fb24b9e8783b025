"""Command-line surface: build, transform, analyze, verify, search.

Exit codes: 0 success (and all-match for verifiers), 1 usage error,
2 verification mismatch or search counterexample, 3 invalid input
(unparseable document, or an input violating an operation's precondition),
4 an explicit budget ran out (LimitExceeded: a coset or chain-work
limit).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from ..build import (
    Presentation,
    _from_presentation,
    pin,
    regular_from_type,
    unpin,
    unwalsh,
    walsh,
)
from ..errors import HypermapsError, LimitExceeded, ParseError
from ..hypermap import _SIGMA_IMAGES, Hypermap, dual, from_text, to_text
from ..quotients import AnalysisReport, QuotientSummary, analyze
from .oracle import brute_oracle
from .registry import build_named
from .tables import VerificationRow, verify_table2, verify_table3, verify_theorem_mk

__all__ = ["main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


_LETTER = {"a": 0, "b": 1, "c": 2}


def _parse_relators(text: str) -> Presentation:
    words = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            raise _UsageError("empty relator")
        try:
            words.append(tuple(_LETTER[ch] for ch in chunk))
        except KeyError as exc:
            raise _UsageError(f"relator letters must be a, b, or c: {chunk!r}") from exc
    return Presentation(tuple(words))


def _parse_param(raw: str, letter: str) -> int:
    try:
        n = int(raw.removeprefix(f"{letter}="))
    except ValueError:
        raise _UsageError(f"expected <int> or {letter}=<int>, got {raw!r}") from None
    if n < 1:
        raise _UsageError(f"{letter} must be positive")
    return n


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_document(h: Hypermap, args) -> int:
    if args.json:
        doc = {"n_flags": h.n_flags, **{f"h{i}": row for i, row in enumerate(h.generator_matrix().tolist())}}
        _emit(json.dumps(doc, indent=2) + "\n", args.output)
    else:
        _emit(to_text(h), args.output)
    return 0


def _read_document(path: str) -> Hypermap:
    try:
        text = sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"document is not UTF-8 text: {exc}") from None
    return from_text(text)


def _cmd_build(args) -> int:
    family = args.family
    if family in ("Dn", "Pn", "Mk"):
        if args.params is None:
            raise _UsageError(f"{family} needs a parameter")
        n = _parse_param(args.params, "n" if family != "Mk" else "k")
        h = build_named(f"{family[0]}{n}")
    elif family in ("T", "C", "O", "D", "I"):
        if args.params is not None:
            raise _UsageError(f"{family} takes no parameter, got {args.params!r}")
        h = build_named(family)
    elif family == "from-type":
        if args.params is None:
            raise _UsageError("from-type needs l,m,n")
        parts = args.params.split(",")
        if len(parts) != 3:
            raise _UsageError("from-type needs exactly three components l,m,n")
        try:
            l, m, n = (int(p) for p in parts)
        except ValueError:
            raise _UsageError(f"bad type components {args.params!r}") from None
        if min(l, m, n) < 1:
            raise _UsageError("type components must be positive")
        h = regular_from_type(l, m, n)
    else:  # from-presentation
        if args.params is None:
            raise _UsageError("from-presentation needs a relator list")
        h = _from_presentation(_parse_relators(args.params))
    return _write_document(h, args)


def _cmd_transform(args) -> int:
    op = args.op
    if op != "dual" and args.sigma is not None:
        raise _UsageError(f"{op} takes no role permutation, got {args.sigma!r}")
    h = _read_document(args.input)
    if op == "wal":
        out = walsh(h)
    elif op == "pin":
        out = pin(h)
    elif op == "unwal":
        out = unwalsh(h)
    elif op == "unpin":
        out = unpin(h)
    else:  # dual
        if args.sigma is None:
            raise _UsageError("dual needs a role permutation (01, 02, 12, 012, 021, id)")
        sigma = args.sigma.strip("()")
        if sigma not in _SIGMA_IMAGES:
            raise _UsageError(f"unknown role permutation {args.sigma!r}")
        out = dual(h, _SIGMA_IMAGES[sigma])
    return _write_document(out, args)


def _analysis_dict(report: AnalysisReport) -> dict:
    irr = report.irregularity
    return {
        "flags": report.flags,
        "type": list(report.type.as_tuple()),
        "uniform": report.uniform,
        "euler_characteristic": report.euler_characteristic,
        "orientable": report.surface.orientable,
        "genus": report.surface.genus,
        "theta_colorable": report.theta_colorable,
        "theta_regular": report.theta_regular,
        "bipartite_type": list(report.bipartite_type.as_tuple()) if report.bipartite_type else None,
        "regular": report.regular,
        "bipartite_regular": report.bipartite_regular,
        "bipartite_chiral": report.bipartite_chiral,
        "monodromy_order": report.monodromy_order,
        "irregularity": None
        if irr is None
        else {
            "index": irr.index,
            "group": str(irr.group),
            "lower_group_order": irr.lower_group_order,
            "upper_group_order": irr.upper_group_order,
        },
        "closure_cover": _summary_dict(report.closure_cover),
        "covering_core": _summary_dict(report.covering_core),
    }


def _summary_dict(summary: QuotientSummary | None) -> dict | None:
    if summary is None:
        return None
    return {"flags": summary.flags, "type": list(summary.type.as_tuple()), "genus": summary.genus}


def _analysis_text(report: AnalysisReport) -> str:
    lines = [
        f"flags               {report.flags}",
        f"type                {report.type}",
        f"uniform             {report.uniform}",
        f"surface             {report.surface}",
        f"regular             {report.regular}",
        "colorable           "
        + ",".join(bits for bits, on in report.theta_colorable.items() if on),
        "theta-regular       "
        + ",".join(bits for bits, on in report.theta_regular.items() if on),
        f"bipartite type      {report.bipartite_type}",
        f"bipartite regular   {report.bipartite_regular}",
        f"bipartite chiral    {report.bipartite_chiral}",
        f"monodromy order     {report.monodromy_order}",
    ]
    if report.irregularity is not None:
        irr = report.irregularity
        lines.append(
            f"irregularity        iota={irr.index} upsilon={irr.group}"
            f" (orders {irr.lower_group_order}/{irr.upper_group_order})"
        )
    lines.append(f"closure cover       {_summary_text(report.closure_cover)}")
    lines.append(f"covering core       {_summary_text(report.covering_core)}")
    return "\n".join(lines) + "\n"


def _summary_text(summary: QuotientSummary | None) -> str:
    if summary is None:
        return "degenerate"
    return f"{summary.flags} flags, type {summary.type}, genus {summary.genus}"


def _cmd_analyze(args) -> int:
    h = _read_document(args.input)
    report = analyze(h)
    if args.json:
        _emit(json.dumps(_analysis_dict(report), indent=2) + "\n", args.output)
    else:
        _emit(_analysis_text(report), args.output)
    return 0


def _rows_text(rows: tuple[VerificationRow, ...]) -> str:
    lines = []
    bad = 0
    for row in rows:
        status = "match" if row.matches else "MISMATCH"
        lines.append(f"{row.table} {row.row_id:>12} {row.label:<28} {status}")
        if not row.matches:
            bad += 1
            for detail in row.mismatches():
                lines.append(f"    {detail}")
    lines.append(f"{len(rows)} rows, {bad} mismatches")
    return "\n".join(lines) + "\n"


def _rows_json(rows: tuple[VerificationRow, ...]) -> str:
    payload = [
        {
            "table": r.table,
            "row_id": r.row_id,
            "label": r.label,
            "status": "match" if r.matches else "mismatch",
            "expected": r.expected,
            "computed": r.computed,
            "mismatches": list(r.mismatches()),
        }
        for r in rows
    ]
    return json.dumps(payload, indent=2) + "\n"


def _cmd_verify(args, runner, dest: str) -> int:
    bound = getattr(args, dest)
    if bound < 1:
        raise _UsageError("bound must be at least 1")
    rows = runner(bound)
    _emit(_rows_json(rows) if args.json else _rows_text(rows), args.output)
    return 0 if all(r.matches for r in rows) else 2


def _cmd_oracle(args) -> int:
    report = brute_oracle(args.max_flags)
    if args.json:
        _emit(json.dumps(report.to_json_dict(), indent=2) + "\n", args.output)
    else:
        lines = [
            f"sizes               {','.join(str(s) for s in report.sizes)}",
            f"triples scanned     {sum(report.triples_scanned.values())}",
            f"spherical triples   {sum(report.spherical_triples.values())}",
            "classes             "
            + " ".join(f"n={n}:{c}" for n, c in report.class_counts.items()),
            "recount             "
            + " ".join(f"n={n}:{c}" for n, c in report.recount_class_counts.items()),
            f"uniform classes     {report.uniform_classes}",
            f"bipartite classes   {report.bipartite_classes}",
            f"bipartite-uniform   {report.bipartite_uniform_classes}",
            f"violations          {len(report.violations)}",
        ]
        lines.extend(f"  {v}" for v in report.violations)
        lines.append("ok" if report.ok else "FAILED")
        _emit("\n".join(lines) + "\n", args.output)
    return 0 if report.ok else 2


@functools.cache  # built once per process; parsing leaves it unchanged
def _build_parser() -> _Parser:
    parser = _Parser(prog="hypermaps", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p):
        p.add_argument("--output", default=None, help="write to this path instead of stdout")
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")

    p = sub.add_parser("build", help="construct a named hypermap and write its document")
    p.add_argument(
        "family",
        choices=["Dn", "Pn", "Mk", "T", "C", "O", "D", "I", "from-type", "from-presentation"],
    )
    p.add_argument("params", nargs="?", default=None,
                   help="n=<int> / k=<int>, or l,m,n, or comma-separated relators over a,b,c")
    common(p)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("transform", help="apply wal/pin/unwal/unpin/dual to a document")
    p.add_argument("op", choices=["wal", "pin", "unwal", "unpin", "dual"])
    p.add_argument("sigma", nargs="?", default=None,
                   help="for dual: 01, 02, 12, 012, 021, or id")
    p.add_argument("--input", default="-", help="document path, - for stdin")
    common(p)
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("analyze", help="classification report for a document")
    p.add_argument("--input", default="-", help="document path, - for stdin")
    common(p)
    p.set_defaults(func=_cmd_analyze)

    for verb, help_text, option, default, runner in (
        ("verify-table2", "check the bipartite-uniform families", "--n-max", 6, verify_table2),
        ("verify-table3", "check quotients and irregularity data", "--n-max", 5, verify_table3),
        ("verify-mk", "check the M_k irregularity theorem", "--k-max", 8, verify_theorem_mk),
    ):
        p = sub.add_parser(verb, help=help_text)
        bound = p.add_argument(option, type=int, default=default)
        common(p)
        p.set_defaults(func=functools.partial(_cmd_verify, runner=runner, dest=bound.dest))

    p = sub.add_parser("oracle", help="exhaustive small-size search")
    p.add_argument("--max-flags", type=int, choices=[4, 8], default=8)
    common(p)
    p.set_defaults(func=_cmd_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except LimitExceeded as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    except HypermapsError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
