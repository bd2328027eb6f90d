"""Scenario runner: hypothesis profile, bound checks, checker suite, and
theorem-consistency flags for both the time-varying system and its limit.

A scenario config document is JSON with fields {space, family, check,
properties, output, seed}. The comparison report carries one row per
property: verdicts for both systems, whether the corresponding equivalence
rule applies under the profiled hypotheses, and whether the verdict pair is
consistent with that rule. Inconclusive verdicts are compatible with
everything; the transfer rules for periodic points are one-directional, so
only a verified periodic system with a refuted limit counts as inconsistent
there.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .bounds import (
    collective_convergence_profile,
    deviation_series,
)
from .checkers import (
    CheckConfig,
    check_cofinite_sensitivity,
    check_dense_periodicity,
    check_equicontinuity,
    check_li_yorke_cell_density,
    check_minimality,
    check_periodic_points,
    check_proximal_cell_density,
    check_proximal_pairs_density,
    check_sensitivity,
    check_topological_mixing,
    check_transitivity,
    check_weak_mixing,
    checker_grid,
    eps_ball_diameters,
)
from .family import (
    HypothesisProfile,
    MapFamily,
    family_from_config,
    profile_hypotheses,
    step_table_family,
)
from .space import SpaceError, coord_point, json_number, json_object, point_to_json
from .verdict import Outcome, Verdict


# ---------------------------------------------------------------------------
# property registry

@dataclass(frozen=True)
class PropertyRule:
    """A comparison rule: which hypotheses it needs and how verdicts relate."""

    name: str
    rule_id: str
    runner: Callable[[MapFamily, CheckConfig], Verdict]
    needs_commuting: bool = False
    needs_summable: bool = False
    needs_feeble_open: bool = False
    one_directional: bool = False  # verified for (X,F) transfers to (X,f) only


PROPERTY_RULES: tuple[PropertyRule, ...] = (
    PropertyRule(
        "equicontinuity", "equicontinuity-equivalence", check_equicontinuity,
        needs_commuting=True, needs_summable=True,
    ),
    PropertyRule(
        "minimality", "minimality-equivalence", check_minimality,
        needs_commuting=True, needs_summable=True,
    ),
    PropertyRule(
        "transitivity", "transitivity-equivalence", check_transitivity,
        needs_commuting=True, needs_summable=True, needs_feeble_open=True,
    ),
    PropertyRule(
        "weak_mixing", "weak-mixing-equivalence", check_weak_mixing,
        needs_commuting=True, needs_summable=True, needs_feeble_open=True,
    ),
    PropertyRule(
        "topological_mixing", "topological-mixing-equivalence", check_topological_mixing,
        needs_feeble_open=True,
    ),
    PropertyRule(
        "sensitivity", "sensitivity-equivalence", check_sensitivity,
        needs_commuting=True, needs_summable=True, needs_feeble_open=True,
    ),
    PropertyRule(
        "cofinite_sensitivity", "cofinite-sensitivity-equivalence", check_cofinite_sensitivity,
        needs_commuting=True, needs_summable=True, needs_feeble_open=True,
    ),
    PropertyRule(
        "periodic_points", "periodic-point-transfer", check_periodic_points,
        one_directional=True,
    ),
    PropertyRule(
        "dense_periodicity", "dense-periodicity-transfer", check_dense_periodicity,
        one_directional=True,
    ),
    PropertyRule(
        "proximal_cell_density", "proximal-cell-density-equivalence",
        check_proximal_cell_density,
        needs_commuting=True, needs_summable=True,
    ),
    PropertyRule(
        "proximal_pairs_density", "proximal-pairs-density-equivalence",
        check_proximal_pairs_density,
        needs_commuting=True, needs_summable=True,
    ),
    PropertyRule(
        "li_yorke_cell_density", "li-yorke-sensitivity-equivalence",
        check_li_yorke_cell_density,
        needs_commuting=True, needs_summable=True, needs_feeble_open=True,
    ),
)

PROPERTY_BY_NAME = {rule.name: rule for rule in PROPERTY_RULES}
ALL_PROPERTIES = tuple(rule.name for rule in PROPERTY_RULES)


# ---------------------------------------------------------------------------
# scenario specs and reports

#: the formats emit writes; a spec without output formats asks for the first
FORMATS = ("json", "csv", "plotdata")


@dataclass(frozen=True)
class ScenarioSpec:
    """Parsed scenario: family, checker config, property list, output paths."""

    family_config: dict
    check: CheckConfig
    properties: tuple[str, ...]
    label: str
    seed: int = 0
    output_dir: str | None = None
    formats: tuple[str, ...] = FORMATS[:1]

    @classmethod
    def from_json(cls, doc: dict) -> "ScenarioSpec":
        fam_doc = json_object(json_object(doc, "a scenario spec")["family"], "family")
        if "custom" in fam_doc and "space" not in fam_doc:
            fam_doc = {**fam_doc, "space": doc["space"]}
        props = doc.get("properties", "all")
        if props == "all":
            props = ALL_PROPERTIES
        elif not isinstance(props, (list, tuple)) or not all(isinstance(p, str) for p in props):
            raise SpaceError(f'properties must be "all" or a list of property names, got {props!r}')
        else:
            unknown = [p for p in props if p not in PROPERTY_BY_NAME]
            if unknown:
                raise SpaceError(f"unknown properties: {unknown}")
            props = tuple(props)
        check = CheckConfig.from_json(json_object(doc.get("check", {}), "check"))
        seed = json_number(doc.get("seed", 0), "seed")
        out = json_object(doc.get("output", {}), "output")
        formats = out.get("formats", FORMATS[:1])
        if not isinstance(formats, (list, tuple)) or any(f not in FORMATS for f in formats):
            raise SpaceError(f"output formats must be a list of {list(FORMATS)}, got {formats!r}")
        out_dir = out.get("dir")
        if out_dir is not None and not isinstance(out_dir, str):
            raise SpaceError(f"output dir must be a string, got {out_dir!r}")
        label = doc.get("label", fam_doc.get("builtin", "custom"))
        if not isinstance(label, str) or label in ("", ".", "..") or Path(label).name != label:
            raise SpaceError(f"label must be a file name without a path separator, got {label!r}")
        return cls(
            family_config=fam_doc,
            check=check,
            properties=props,
            label=label,
            seed=seed,
            output_dir=out_dir,
            formats=tuple(formats),
        )

    def to_json(self) -> dict:
        doc = {
            "family": self.family_config,
            "check": self.check.to_json(),
            "properties": list(self.properties),
            "label": self.label,
            "seed": self.seed,
        }
        if self.output_dir is not None:
            doc["output"] = {"dir": self.output_dir, "formats": list(self.formats)}
        return doc

    def build_family(self) -> MapFamily:
        return family_from_config(self.family_config)

    def config_hash(self) -> str:
        canon = {
            "family": self.family_config,
            "check": self.check.to_json(),
            "properties": list(self.properties),
            "seed": self.seed,
        }
        blob = json.dumps(canon, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


# the text of a value of exactly one of these types, a float only when finite
_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: float.__repr__,
    bool: ("false", "true").__getitem__,
    type(None): lambda _: "null",
}
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def json_text(obj, indent: str = "\n") -> str:
    """obj as json.dumps(obj, sort_keys=True, indent=2) writes it once its keys
    are str(k), numpy scalars Python values and Outcomes their values, nested at
    the depth `indent` ends at, in one walk: CPython's json has no C path for
    indent. A list of one scalar type is one join."""
    write = _SCALAR_TEXT.get(type(obj))
    if write is not None and (write is not float.__repr__ or math.isfinite(obj)):
        return write(obj)
    inner = indent + "  "
    if isinstance(obj, dict):
        items = {str(k): v for k, v in obj.items()}
        ends = "{}"
        body = [f"{encode_basestring_ascii(k)}: {json_text(items[k], inner)}" for k in sorted(items)]
    elif isinstance(obj, (list, tuple)):
        types = set(map(type, obj))
        write = _SCALAR_TEXT.get(types.pop()) if len(types) == 1 else None
        if write is float.__repr__ and not all(map(math.isfinite, obj)):
            write = None  # NaN and the infinities are written one by one
        ends = "[]"
        body = map(write, obj) if write else [json_text(v, inner) for v in obj]
    else:
        return _scalar_text(obj)
    text = ("," + inner).join(body)
    return f"{ends[0]}{inner}{text}{indent}{ends[1]}" if text else ends


def _scalar_text(obj) -> str:
    """A scalar whose type is none of _SCALAR_TEXT's: a numpy scalar is its
    Python value, a subclass (an Outcome is a str) its base's."""
    if isinstance(obj, (float, np.floating)):
        text = float.__repr__(float(obj))
        return _NONFINITE.get(text, text)
    if isinstance(obj, (np.bool_, np.integer)):
        return json_text(obj.item())
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, int):
        return int.__repr__(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


@dataclass(frozen=True)
class ComparisonRow:
    property: str
    rule_id: str
    verdict_nonautonomous: Verdict
    verdict_limit: Verdict
    theorem_applicable: bool
    consistent: bool
    note: str

    def to_json(self) -> dict:
        return {
            "property": self.property,
            "rule": self.rule_id,
            "verdict_nonautonomous": self.verdict_nonautonomous.to_json(),
            "verdict_limit": self.verdict_limit.to_json(),
            "theorem_applicable": self.theorem_applicable,
            "consistent": self.consistent,
            "note": self.note,
        }


@dataclass(frozen=True)
class ComparisonReport:
    label: str
    spec: ScenarioSpec
    profile: HypothesisProfile
    rows: tuple[ComparisonRow, ...]
    bound_summary: dict
    plot_series: dict

    @property
    def any_inconsistent(self) -> bool:
        return any(not r.consistent for r in self.rows)

    @property
    def any_checker_failed(self) -> bool:
        verdicts = [v for r in self.rows for v in (r.verdict_nonautonomous, r.verdict_limit)]
        return any(v.outcome is Outcome.ERROR for v in verdicts)

    def to_json(self) -> dict:
        return json.loads(self.to_json_text())

    def to_json_text(self) -> str:
        return json_text(
            {
                "scenario": self.label,
                "version": __version__,
                "config_hash": self.spec.config_hash(),
                "seed": self.spec.seed,
                "family": self.spec.family_config,
                "check_config": self.spec.check.to_json(),
                "hypothesis_profile": self.profile.to_json(),
                "rows": [r.to_json() for r in self.rows],
                "bound_summary": self.bound_summary,
                "plot_series": self.plot_series,
            }
        ) + "\n"


def _applicable(rule: PropertyRule, profile: HypothesisProfile) -> tuple[bool, str]:
    reasons = []
    ok = True
    if rule.needs_commuting:
        if not profile.commutes.holds:
            ok = False
            reasons.append("commutation fails")
    if rule.needs_summable:
        if not profile.summable_likely:
            ok = False
            reasons.append("term series not summable")
    if rule.needs_feeble_open:
        if not profile.feeble_open.holds:
            ok = False
            reasons.append("family not verifiably feeble open")
    if ok:
        return True, "hypotheses satisfied"
    return False, "; ".join(reasons)


def _consistent(rule: PropertyRule, vF: Verdict, vf: Verdict, applicable: bool) -> tuple[bool, str]:
    errors = [v.witness["error"] for v in (vF, vf) if v.outcome is Outcome.ERROR]
    if errors:
        return False, f"a checker failed: {errors[0]}"
    if not applicable:
        return True, "rule not applicable; no constraint"
    if vF.inconclusive or vf.inconclusive:
        return True, "inconclusive verdicts constrain nothing"
    if rule.one_directional:
        if vF.holds and vf.refuted:
            return False, "verified for the time-varying system but refuted for the limit"
        return True, "one-directional transfer satisfied"
    if (vF.holds and vf.refuted) or (vF.refuted and vf.holds):
        return False, "equivalence rule violated by definite opposite verdicts"
    return True, "verdicts agree under the equivalence rule"


def run_comparison(spec: ScenarioSpec) -> ComparisonReport:
    """Profile the hypotheses, run bound checks and all requested checkers in
    both modes, and assemble the consistency-flagged report."""
    fam = spec.build_family()
    cfg = spec.check
    cfg.validate(fam.space)
    # binary resolutions are word lengths (2^r grid points), so stay small
    if fam.space.kind.value == "binary_seq":
        profile_res = min(cfg.grid_resolution + 2, 10)
    else:
        profile_res = min(cfg.grid_resolution * 4, 128)
    profile = profile_hypotheses(
        fam,
        horizon=64,
        grid_resolution=profile_res,
        tol=cfg.tol,
        max_index=16,
        eps=cfg.eps,
    )
    limit = step_table_family(fam.space, (), fam.limit, fam.label)

    rows = []
    for name in spec.properties:
        rule = PROPERTY_BY_NAME[name]
        applicable, why = _applicable(rule, profile)
        verdicts = {}
        for key, system in (("F", fam), ("f", limit)):
            try:
                verdicts[key] = rule.runner(system, cfg)
            except Exception as exc:  # recorded per row, never aborts the report
                verdicts[key] = Verdict(
                    Outcome.ERROR, {"error": f"{type(exc).__name__}: {exc}"}, "checker failed"
                )
        ok, detail = _consistent(rule, verdicts["F"], verdicts["f"], applicable)
        rows.append(
            ComparisonRow(
                property=name,
                rule_id=rule.rule_id,
                verdict_nonautonomous=verdicts["F"],
                verdict_limit=verdicts["f"],
                theorem_applicable=applicable,
                consistent=ok,
                note=f"{why}; {detail}",
            )
        )

    bound_summary, plot_series = _bound_summary(fam, spec)
    return ComparisonReport(
        label=spec.label,
        spec=spec,
        profile=profile,
        rows=tuple(rows),
        bound_summary=bound_summary,
        plot_series=plot_series,
    )


def _bound_summary(fam: MapFamily, spec: ScenarioSpec) -> tuple[dict, dict]:
    cfg = spec.check
    grid = checker_grid(fam.space, cfg)
    x0 = coord_point(grid[0], fam.space.kind)
    k_max = min(cfg.horizon, 50)
    records = deviation_series(fam, x0, k_max, cfg.tol)
    profile_n = min(40, max(4, cfg.horizon // 8))
    profile_k = min(20, max(4, cfg.horizon // 16))
    conv = collective_convergence_profile(
        fam, profile_n, profile_k, grid_resolution=min(cfg.grid_resolution, 32), eps=cfg.eps
    )
    diam_horizon = min(cfg.horizon, 400)
    series = eps_ball_diameters(fam, cfg)[: diam_horizon + 1]
    summary = {
        "deviation_x": point_to_json(x0),
        "deviation_records": [r.to_json() for r in records],
        "all_hold": all(r.holds for r in records),
        "collective_profile": conv.to_json(),
    }
    plots = {
        "deviation_bound": {
            "k": [r.k for r in records],
            "measured": [r.measured for r in records],
            "bound": [r.bound for r in records],
        },
        "tracked_ball_diameter": {
            "center": point_to_json(x0),
            "radius": cfg.eps,
            "n": list(range(diam_horizon + 1)),
            "diameter": [float(v) for v in series],
        },
        "collective_tail": {
            "n": list(conv.n_values),
            "tail_sup": list(conv.tail_sup),
        },
    }
    return summary, plots


# ---------------------------------------------------------------------------
# builtin scenario catalog

def _catalog_specs() -> dict[str, ScenarioSpec]:
    golden_alpha = 2.0 * math.pi * (math.sqrt(5.0) - 1.0) / 2.0
    return {
        "alternating-rotation": ScenarioSpec(
            family_config={"builtin": "alternating-rotation", "params": {"alpha": golden_alpha}},
            check=CheckConfig(
                horizon=5000, grid_resolution=20, ball_count=9, eps=0.05, delta=0.25,
                tol=1e-9, tail_window=2000, max_period=8, repetitions=3,
            ),
            properties=ALL_PROPERTIES,
            label="alternating-rotation",
        ),
        "inverse-square-rotation": ScenarioSpec(
            family_config={"builtin": "inverse-square-rotation"},
            check=CheckConfig(
                horizon=2000, grid_resolution=20, ball_count=9, eps=0.1, delta=0.3,
                tol=1e-9, tail_window=500, max_period=100, repetitions=5,
            ),
            properties=ALL_PROPERTIES,
            label="inverse-square-rotation",
        ),
        "perturbed-doubling": ScenarioSpec(
            family_config={"builtin": "perturbed-doubling"},
            check=CheckConfig(
                horizon=500, grid_resolution=20, ball_count=9, eps=0.2, delta=0.25,
                tol=1e-9, tail_window=200, max_period=10, repetitions=3,
            ),
            properties=ALL_PROPERTIES,
            label="perturbed-doubling",
        ),
        "plateau-tent": ScenarioSpec(
            family_config={"builtin": "plateau-tent"},
            check=CheckConfig(
                horizon=500, grid_resolution=20, ball_count=9, eps=0.1, delta=0.25,
                tol=1e-9, tail_window=200, max_period=8, repetitions=3,
            ),
            properties=ALL_PROPERTIES,
            label="plateau-tent",
        ),
        "odometer-deletion": ScenarioSpec(
            family_config={"builtin": "odometer-deletion", "params": {"word_length": 24}},
            check=CheckConfig(
                horizon=200, grid_resolution=6, ball_count=5, eps=0.2, delta=0.5,
                tol=1e-9, tail_window=100, max_period=8, repetitions=2,
            ),
            properties=ALL_PROPERTIES,
            label="odometer-deletion",
        ),
    }


CATALOG = _catalog_specs()

ALIASES = {
    "eqex": "alternating-rotation",
    "inverse-square": "inverse-square-rotation",
    "doubling": "perturbed-doubling",
    "sens": "plateau-tent",
    "shift": "odometer-deletion",
}


def resolve_scenario_id(example_id: str) -> str:
    key = ALIASES.get(example_id, example_id)
    if key not in CATALOG:
        raise SpaceError(
            f"unknown example id {example_id!r}; known: {sorted(CATALOG)} "
            f"plus aliases {sorted(ALIASES)}"
        )
    return key


def reproduce(example_id: str) -> ComparisonReport:
    """Run one of the builtin scenarios with its pinned desk-scale config."""
    return run_comparison(CATALOG[resolve_scenario_id(example_id)])


def golden_path(example_id: str) -> Path:
    key = resolve_scenario_id(example_id)
    return Path(__file__).parent / "goldens" / f"{key}.json"


# ---------------------------------------------------------------------------
# emission

def emit(report: ComparisonReport, fmt: str, out_dir: str | Path) -> list[Path]:
    """Write a report in one of FORMATS; returns written paths."""
    if fmt not in FORMATS:
        raise SpaceError(f"unknown emission format: {fmt!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    stem = report.label
    if fmt == "json":
        p = out / f"{stem}.json"
        p.write_text(report.to_json_text())
        written.append(p)
    elif fmt == "csv":
        p = out / f"{stem}.csv"
        lines = ["property,rule,verdict_nonautonomous,verdict_limit,theorem_applicable,consistent"]
        for r in report.rows:
            lines.append(
                f"{r.property},{r.rule_id},{r.verdict_nonautonomous.outcome.value},"
                f"{r.verdict_limit.outcome.value},{r.theorem_applicable},{r.consistent}"
            )
        p.write_text("\n".join(lines) + "\n")
        written.append(p)
    else:
        dev = report.plot_series["deviation_bound"]
        p1 = out / f"{stem}_deviation.csv"
        rows = ["k,measured,bound"]
        rows += [
            f"{k},{m!r},{b!r}"
            for k, m, b in zip(dev["k"], dev["measured"], dev["bound"])
        ]
        p1.write_text("\n".join(rows) + "\n")
        written.append(p1)
        ball = report.plot_series["tracked_ball_diameter"]
        p2 = out / f"{stem}_ball_diameter.csv"
        rows = ["n,diameter"]
        rows += [f"{n},{d!r}" for n, d in zip(ball["n"], ball["diameter"])]
        p2.write_text("\n".join(rows) + "\n")
        written.append(p2)
        tail = report.plot_series["collective_tail"]
        p3 = out / f"{stem}_collective_tail.csv"
        rows = ["n,tail_sup"]
        rows += [f"{n},{t!r}" for n, t in zip(tail["n"], tail["tail_sup"])]
        p3.write_text("\n".join(rows) + "\n")
        written.append(p3)
    return written
