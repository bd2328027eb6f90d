"""Command-line interface for the scenario runner.

Subcommands:
  list                      show the builtin scenario catalog
  run <spec.json>           run a scenario config and emit reports
  reproduce <example-id>    run a builtin scenario with pinned parameters
  bound <spec.json> --n --k the deviation record of one window
  check <prop> <spec.json>  run one property in both modes

Only run and reproduce take --out and --format. Exit codes: 0 completed, 2
inconsistency detected, 3 config or usage error (before any work), 4 a
checker or a later stage of the run failed.
"""

from __future__ import annotations

import argparse
import json
import sys as _sys
import traceback
from dataclasses import replace
from pathlib import Path

from .bounds import deviation_series
from .checkers import CheckConfig, checker_grid, verdict_record
from .family import MapFamily
from .report import (
    ALIASES,
    ALL_PROPERTIES,
    CATALOG,
    FORMATS,
    ComparisonReport,
    PROPERTY_BY_NAME,
    ScenarioSpec,
    emit,
    json_text,
    resolve_scenario_id,
    run_comparison,
)
from .space import SpaceError, coord_point

EXIT_OK = 0
EXIT_INCONSISTENT = 2
EXIT_CONFIG = 3
EXIT_CHECKER_FAILED = 4


class _ConfigError(Exception):
    """A spec that cannot be loaded, overridden, built or validated."""


def _prepared(args: argparse.Namespace) -> tuple[ScenarioSpec, MapFamily]:
    """The command's spec, a builtin or a spec file, with its overrides, and
    its family, validated against its config: any failure is a config error."""
    try:
        if args.command == "reproduce":
            spec = CATALOG[resolve_scenario_id(args.example_id)]
        else:
            spec = ScenarioSpec.from_json(json.loads(Path(args.spec).read_text()))
        spec = _apply_overrides(spec, args)
        fam = spec.build_family()
        spec.check.validate(fam.space)
    except (SpaceError, FileNotFoundError, json.JSONDecodeError, KeyError) as exc:
        raise _ConfigError(exc) from exc
    return spec, fam


def _apply_overrides(spec: ScenarioSpec, args: argparse.Namespace) -> ScenarioSpec:
    check = spec.check.to_json()
    if args.horizon is not None:
        check["horizon"] = args.horizon
        check["tail_window"] = min(check["tail_window"], args.horizon)
    if args.grid is not None:
        check["grid_resolution"] = args.grid
    if args.eps is not None:
        check["eps"] = args.eps
    if args.delta is not None:
        check["delta"] = args.delta
    return replace(
        spec,
        check=CheckConfig.from_json(check),
        output_dir=getattr(args, "out", None) or spec.output_dir,
        formats=(args.format,) if getattr(args, "format", None) else spec.formats,
    )


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
    """run and reproduce: the report's rows, and its files when the spec or
    --out names an output directory."""
    spec, _ = _prepared(args)
    report = run_comparison(spec)
    _print_rows(report)
    if spec.output_dir:
        _emit_report(report, spec)
    return _exit_code(report)


def cmd_bound(args: argparse.Namespace) -> int:
    """The deviation record of the window of --k steps after step --n."""
    if args.k < 1 or args.n < 0:
        raise _ConfigError(f"bound needs --k >= 1 and --n >= 0, got --n {args.n} --k {args.k}")
    spec, fam = _prepared(args)
    x0 = coord_point(checker_grid(fam.space, spec.check)[0], fam.space.kind)
    print(json_text(deviation_series(fam, x0, args.k, spec.check.tol, args.n)[-1].to_json()))
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    if args.property not in PROPERTY_BY_NAME:
        known = ", ".join(ALL_PROPERTIES)
        raise _ConfigError(f"unknown property {args.property!r}; known: {known}")
    spec = replace(_prepared(args)[0], properties=(args.property,))
    report = run_comparison(spec)
    _print_rows(report)
    row = report.rows[0]
    modes = {"non_autonomous": row.verdict_nonautonomous, "autonomous_limit": row.verdict_limit}
    for mode, verdict in modes.items():
        print(json.dumps(verdict_record(row.property, mode, spec.check, verdict), sort_keys=True))
    return _exit_code(report)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nonautodyn",
        description="simulate time-varying map sequences and compare their "
        "dynamics against the uniform-limit system",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_overrides(p: argparse.ArgumentParser) -> None:
        p.add_argument("--horizon", type=int, default=None)
        p.add_argument("--grid", type=int, default=None)
        p.add_argument("--eps", type=float, default=None)
        p.add_argument("--delta", type=float, default=None)

    def add_output(p: argparse.ArgumentParser) -> None:
        add_overrides(p)
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--format", choices=FORMATS, default=None)

    p = sub.add_parser("list", help="show the scenario catalog")
    p.set_defaults(func=cmd_list)

    p = sub.add_parser("run", help="run a scenario config document")
    p.add_argument("spec")
    add_output(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("reproduce", help="run a builtin scenario")
    p.add_argument("example_id")
    add_output(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("bound", help="orbit-deviation bound checks")
    p.add_argument("spec")
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--k", type=int, default=1)
    add_overrides(p)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("check", help="run one property in both modes")
    p.add_argument("property")
    p.add_argument("spec")
    add_overrides(p)
    p.set_defaults(func=cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # --help exits 0; argparse prints a usage error
        return EXIT_CONFIG if exc.code else EXIT_OK
    try:
        return args.func(args)
    except _ConfigError as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        return EXIT_CONFIG
    except Exception:  # a program error past the config, never a config error
        traceback.print_exc()
        return EXIT_CHECKER_FAILED


if __name__ == "__main__":
    _sys.exit(main())
