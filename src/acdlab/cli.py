"""Command-line front end: table queries, average-degree stats, theorem audits.

Exit codes: 0 = success / all audits consistent, 1 = usage or input error,
2 = a COUNTEREXAMPLE row was produced, 3 = an engine invariant check failed
(a bug in acdlab, not in the input).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .audit import audit_many, has_counterexample, rows_to_jsonl
from .chartab import character_table, table_json_pieces
from .constructions import build, default_catalog, to_text
from .errors import AcdlabError, EngineInvariantError, InputError
from .fieldvals import format_field, parse_field
from .group import (
    FiniteGroup,
    SubgroupHandle,
    center,
    derived_subgroup,
    is_p_nilpotent,
    is_solvable,
    minimal_normal_subgroups,
)
from .specparse import parse_group_spec
from .stats import AcdQuery, ave, selected_rows


def _resolve_subgroup(G: FiniteGroup, text: str) -> SubgroupHandle:
    """Named normal subgroups usable as CLI quotient targets."""
    if text == "derived":
        return derived_subgroup(G)
    if text == "center":
        return center(G)
    if text.startswith("minimal:"):
        try:
            idx = int(text.split(":", 1)[1])
        except ValueError:
            raise InputError(f"subgroup spec {text!r}: expected minimal:<i> with an integer i")
        mns = minimal_normal_subgroups(G)
        if not 0 <= idx < len(mns):
            raise InputError(f"group has {len(mns)} minimal normal subgroups, index {idx} is out of range")
        return mns[idx]
    raise InputError(f"unknown subgroup spec {text!r}: expected derived, center, or minimal:<i>")


def _cmd_table(args: argparse.Namespace) -> int:
    spec = parse_group_spec(args.spec)
    T = character_table(build(spec))
    if args.format == "degrees":
        print(json.dumps(list(T.degrees)))
    else:
        for piece in table_json_pieces(T):
            sys.stdout.write(piece)
        sys.stdout.write("\n")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    spec = parse_group_spec(args.spec)
    G = build(spec)
    T = character_table(G)
    k = parse_field(args.field)
    quotient = _resolve_subgroup(G, args.quotient) if args.quotient else None
    rows = selected_rows(G, T, AcdQuery(field=k, p_filter=args.p, quotient_by=quotient))
    value = ave(T.degrees[r] for r in rows)
    print(f"spec: {to_text(spec)}")
    print(f"order: {G.order}")
    print(f"classes: {T.num_chars}")
    print(f"degrees: {json.dumps(list(T.degrees))}")
    print(f"field: {format_field(k)}")
    if args.p is not None:
        print(f"p: {args.p}")
    if quotient is not None:
        print(f"quotient_order: {quotient.order}")
    print(f"characters: {len(rows)}")
    print(f"acd: {value.numerator}/{value.denominator}")
    if args.p is not None:
        print(f"p_nilpotent: {'true' if is_p_nilpotent(G, args.p)[0] else 'false'}")
    print(f"solvable: {'true' if is_solvable(G) else 'false'}")
    return 0


def _read_catalog(path: str) -> List[str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise InputError(f"cannot read catalog {path!r}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot read catalog {path!r}: not UTF-8 text ({exc.reason} at byte {exc.start})")
    texts = []
    for line in lines:
        stripped = line.split("#", 1)[0].strip()
        if stripped:
            texts.append(stripped)
    return texts


def _cmd_audit(args: argparse.Namespace) -> int:
    if args.catalog:
        texts = _read_catalog(args.catalog)
    else:
        texts = [to_text(s) for s in default_catalog()]
    # The --out file is opened before the audit, so a bad path fails at once.
    try:
        out = open(args.out, "w", encoding="utf-8") if args.out else None
    except OSError as exc:
        raise InputError(f"cannot write report {args.out!r}: {exc.strerror}")
    try:
        rows = audit_many([args.theorem], texts, jobs=args.jobs)
    except BaseException:
        if out is not None:
            out.close()
        raise
    report = rows_to_jsonl(rows)
    if out is None:
        sys.stdout.write(report)
    else:
        try:
            with out:
                out.write(report)
        except OSError as exc:
            raise InputError(f"cannot write report {args.out!r}: {exc.strerror}")
    return 2 if has_counterexample(rows) else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="acdlab",
        description="Exact character tables and average-character-degree audits.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="print the character table of a group spec")
    p_table.add_argument("spec", help="group spec, e.g. 'S(4)' or 'C(2)*D(10)'")
    p_table.add_argument("--format", choices=("json", "degrees"), default="json")
    p_table.set_defaults(func=_cmd_table)

    p_stats = sub.add_parser("stats", help="print average-degree statistics")
    p_stats.add_argument("spec")
    p_stats.add_argument("--field", default="C", help="Q, R, C, Qp(p), or Q(zeta_m)")
    p_stats.add_argument("--p", type=int, default=None, help="restrict to degrees coprime to p")
    p_stats.add_argument("--quotient", default=None,
                         help="average over the quotient by: derived, center, or minimal:<i>")
    p_stats.set_defaults(func=_cmd_stats)

    p_audit = sub.add_parser("audit", help="audit a statement over the catalog")
    p_audit.add_argument("theorem",
                         help="first, second, third, fourth, main-1..main-5, main, "
                              "acd-cent-k, abelian-3, nonabelian-3, or all")
    p_audit.add_argument("--catalog", default=None,
                         help="file with one group spec per line ('#' comments)")
    p_audit.add_argument("--jobs", type=int, default=1)
    p_audit.add_argument("--out", default=None, help="write the JSON-lines report here")
    p_audit.set_defaults(func=_cmd_audit)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if (exc.code or 0) == 0 else 1
    try:
        return args.func(args)
    except EngineInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except AcdlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
