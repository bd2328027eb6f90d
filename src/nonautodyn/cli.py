"""Command-line interface for the scenario runner.

Subcommands:
  list                      show the builtin scenario catalog
  run <spec.json>           run a scenario config and emit reports
  reproduce <example-id>    run a builtin scenario with pinned parameters
  bound <spec.json> --n --k deviation and window-bound checks
  check <prop> <spec.json>  run one property in both modes

Exit codes: 0 completed, 2 inconsistency detected, 3 config error,
4 a checker failed.
"""

from __future__ import annotations

import argparse
import json
import sys as _sys
from dataclasses import replace
from pathlib import Path

from .bounds import BoundLedger, deviation_check, shifted_deviation_check
from .checkers import CheckConfig, Mode, grid_points, verdict_record
from .report import (
    ALIASES,
    ALL_PROPERTIES,
    CATALOG,
    ComparisonReport,
    PROPERTY_BY_NAME,
    ScenarioSpec,
    emit,
    resolve_scenario_id,
    run_comparison,
)
from .space import SpaceError

EXIT_OK = 0
EXIT_INCONSISTENT = 2
EXIT_CONFIG = 3
EXIT_CHECKER_FAILED = 4


def _apply_overrides(spec: ScenarioSpec, args: argparse.Namespace) -> ScenarioSpec:
    check = spec.check.to_json()
    if getattr(args, "horizon", None) is not None:
        check["horizon"] = args.horizon
        check["tail_window"] = min(check["tail_window"], args.horizon)
    if getattr(args, "grid", None) is not None:
        check["grid_resolution"] = args.grid
    if getattr(args, "eps", None) is not None:
        check["eps"] = args.eps
    if getattr(args, "delta", None) is not None:
        check["delta"] = args.delta
    return replace(
        spec,
        check=CheckConfig.from_json(check),
        output_dir=getattr(args, "out", None) or spec.output_dir,
        formats=(args.format,) if getattr(args, "format", None) else spec.formats,
    )


def _load_spec(path: str) -> ScenarioSpec:
    doc = json.loads(Path(path).read_text())
    return ScenarioSpec.from_json(doc)


def _emit_report(report: ComparisonReport, spec: ScenarioSpec) -> None:
    out_dir = spec.output_dir or "."
    for fmt in spec.formats:
        for p in emit(report, fmt, out_dir):
            print(f"wrote {p}")


def _exit_code(report: ComparisonReport) -> int:
    if report.any_checker_failed:
        return EXIT_CHECKER_FAILED
    return EXIT_INCONSISTENT if report.any_inconsistent else EXIT_OK


def _print_rows(report: ComparisonReport) -> None:
    print(f"scenario: {report.label}")
    prof = report.profile
    print(
        f"hypotheses: commutes={prof.commutes.outcome.value} "
        f"summability={prof.summability.flag!r} "
        f"feeble_open={prof.feeble_open.outcome.value} "
        f"surjective={prof.surjective.outcome.value} "
        f"isometry={prof.isometry} shrinking={prof.shrinking}"
    )
    for r in report.rows:
        mark = "ok " if r.consistent else "XXX"
        applicable = "rule-applies" if r.theorem_applicable else "rule-idle"
        print(
            f"  [{mark}] {r.property:<24} F={r.verdict_nonautonomous.outcome.value:<12} "
            f"f={r.verdict_limit.outcome.value:<12} {applicable} ({r.rule_id})"
        )


def cmd_list(args: argparse.Namespace) -> int:
    print("builtin scenarios:")
    for name, spec in CATALOG.items():
        aliases = [a for a, t in ALIASES.items() if t == name]
        alias_txt = f" (aliases: {', '.join(aliases)})" if aliases else ""
        print(f"  {name}{alias_txt}")
        print(f"      horizon={spec.check.horizon} grid={spec.check.grid_resolution} "
              f"eps={spec.check.eps} delta={spec.check.delta}")
    print("properties:")
    for p in ALL_PROPERTIES:
        print(f"  {p}")
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    spec = _apply_overrides(_load_spec(args.spec), args)
    report = run_comparison(spec)
    _print_rows(report)
    if spec.output_dir or args.out:
        _emit_report(report, spec)
    return _exit_code(report)


def cmd_reproduce(args: argparse.Namespace) -> int:
    key = resolve_scenario_id(args.example_id)
    spec = _apply_overrides(CATALOG[key], args)
    report = run_comparison(spec)
    _print_rows(report)
    if args.out:
        _emit_report(report, spec)
    return _exit_code(report)


def cmd_bound(args: argparse.Namespace) -> int:
    spec = _apply_overrides(_load_spec(args.spec), args)
    fam = spec.build_family()
    ledger = BoundLedger.for_family(fam, args.n + args.k)
    x0 = grid_points(fam.space, spec.check)[0]
    if args.n == 0:
        rec = deviation_check(fam, x0, args.k, spec.check.tol, ledger)
    else:
        rec = shifted_deviation_check(fam, x0, args.n, args.k, spec.check.tol, ledger)
    print(json.dumps(rec.to_json(), indent=2, sort_keys=True))
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    if args.property not in PROPERTY_BY_NAME:
        print(f"unknown property {args.property!r}; known: {', '.join(ALL_PROPERTIES)}")
        return EXIT_CONFIG
    spec = replace(_apply_overrides(_load_spec(args.spec), args), properties=(args.property,))
    report = run_comparison(spec)
    _print_rows(report)
    row = report.rows[0]
    for mode, verdict in (
        (Mode.NON_AUTONOMOUS, row.verdict_nonautonomous),
        (Mode.AUTONOMOUS_LIMIT, row.verdict_limit),
    ):
        print(json.dumps(verdict_record(row.property, mode, spec.check, verdict),
                         sort_keys=True))
    return _exit_code(report)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nonautodyn",
        description="simulate time-varying map sequences and compare their "
        "dynamics against the uniform-limit system",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--horizon", type=int, default=None)
        p.add_argument("--grid", type=int, default=None)
        p.add_argument("--eps", type=float, default=None)
        p.add_argument("--delta", type=float, default=None)
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--format", choices=("csv", "json", "plotdata"), default=None)

    p = sub.add_parser("list", help="show the scenario catalog")
    p.set_defaults(func=cmd_list)

    p = sub.add_parser("run", help="run a scenario config document")
    p.add_argument("spec")
    add_common(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("reproduce", help="run a builtin scenario")
    p.add_argument("example_id")
    add_common(p)
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("bound", help="orbit-deviation bound checks")
    p.add_argument("spec")
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--k", type=int, default=1)
    add_common(p)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("check", help="run one property in both modes")
    p.add_argument("property")
    p.add_argument("spec")
    add_common(p)
    p.set_defaults(func=cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SpaceError, FileNotFoundError, json.JSONDecodeError, KeyError) as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    _sys.exit(main())
