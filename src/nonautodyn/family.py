"""Map families 𝔽 = (f_n) with a uniform limit, builtins, and hypothesis profiling.

A family pairs an index->descriptor generator with a limit descriptor on one
phase space. The five builtin families are the concrete examples this package
ships as named scenarios:

  alternating-rotation   f_n = theta + alpha + 2/(n+1) (odd n),
                         theta + alpha - 2/n (even n); limit theta + alpha
  inverse-square-rotation f_n = theta + 1/n^2; limit identity
  perturbed-doubling     f_n = 2*theta + 1/n; limit 2*theta
  plateau-tent           f_1 = plateau head (1 on [0,1/2], 2-2x after),
                         f_n = tent for n >= 2; limit tent
  odometer-deletion      f_n = odometer after deleting coordinate n;
                         limit odometer

Hypothesis profiling covers the side conditions the comparison engine needs:
commutation with the limit, summability of sup-metric terms, feeble openness,
surjectivity, and isometry/shrinking of the limit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from . import verdict as V
from .descriptors import (
    AffineCircle,
    Compose,
    Delete,
    MapDescriptor,
    OdometerAdd,
    PiecewiseLinear,
    Rotation,
    SupEstimate,
    apply_batch,
    as_piecewise_linear,
    circle_canonical,
    compose,
    descriptor_from_json,
    descriptor_to_json,
    pl_image,
    sup_metric,
    zero_slope_pieces,
)
from .space import (
    PhaseSpace,
    SpaceError,
    SpaceKind,
    coord_distances,
    coord_to_json,
    grid_coords,
    grid_size,
    json_number,
    json_object,
)
from .verdict import Verdict

TENT = PiecewiseLinear(((0.0, 0.0), (0.5, 1.0), (1.0, 0.0)))
PLATEAU_HEAD = PiecewiseLinear(((0.0, 1.0), (0.5, 1.0), (1.0, 0.0)))


@dataclass(frozen=True, eq=False)
class MapFamily:
    """An indexed sequence n -> f_n (1-based) plus its uniform limit; the
    limit system (X, f) is ``step_table_family(space, (), limit, label)``."""

    space: PhaseSpace
    generator: Callable[[int], MapDescriptor]
    limit: MapDescriptor
    label: str
    #: exact closed form for D(f_n, limit), when known
    term_formula: Callable[[int], float] | None = None
    #: exact value of sum_n D(f_n, limit) when finite and known
    series_limit: float | None = None
    #: True/False when divergence of the term series is known exactly
    series_divergent: bool | None = None
    #: bound on sum_{i>N} D(f_i, limit), when known
    series_tail_bound: Callable[[int], float] | None = None
    #: f_n is the limit for all n >= this index, when known (member returns it)
    eventually_constant_from: int | None = None
    #: every step map and the limit are isometries (known symbolically)
    steps_isometric: bool = False
    #: memo of the step table and checker tables, pure functions of (family, config)
    _cache: dict = field(default_factory=dict, init=False, repr=False)

    def member(self, n: int) -> MapDescriptor:
        if n < 1:
            raise SpaceError("family indices are 1-based")
        if self.eventually_constant_from is not None and n >= self.eventually_constant_from:
            return self.limit
        return self.generator(n)

    def steps(self, horizon: int) -> list[MapDescriptor]:
        """Step table: entry n is f_n for 1 <= n <= horizon (entry 0 unused),
        built once per family and grown to the largest horizon asked for."""
        table = self._cache.setdefault("steps", [None])
        for n in range(len(table), horizon + 1):
            table.append(self.member(n))
        return table


def _looks_rational_angle(alpha: float, max_den: int = 64) -> bool:
    """True when alpha/(2pi) is (numerically) a small-denominator rational."""
    ratio = alpha / (2.0 * math.pi)
    frac = Fraction(ratio).limit_denominator(max_den)
    return abs(ratio - float(frac)) < 1e-12


#: the params each builtin family takes; any other is refused
BUILTIN_PARAMS = {
    "alternating-rotation": {"alpha"},
    "inverse-square-rotation": set(),
    "perturbed-doubling": set(),
    "plateau-tent": set(),
    "odometer-deletion": {"word_length"},
}


def make_builtin_family(name: str, **params) -> MapFamily:
    """Construct one of the builtin example families by scenario id."""
    if not isinstance(name, str) or name not in BUILTIN_PARAMS:
        raise SpaceError(f"unknown builtin family: {name!r}")
    unknown = sorted(set(params) - BUILTIN_PARAMS[name])
    if unknown:
        raise SpaceError(f"unknown params for builtin family {name!r}: {unknown}")
    if name == "alternating-rotation":
        alpha = params.get("alpha", 2.0 * math.pi * (math.sqrt(5.0) - 1.0) / 2.0)
        alpha = float(json_number(alpha, "alpha", real=True))
        if alpha != 0.0 and _looks_rational_angle(alpha):
            warnings.warn(
                f"alternating-rotation built with alpha={alpha!r}, a rational "
                "angle; the minimality claims need an irrational rotation",
                stacklevel=2,
            )

        def gen(n: int) -> MapDescriptor:
            if n % 2 == 1:
                return Rotation(alpha + 2.0 / (n + 1))
            return Rotation(alpha - 2.0 / n)

        return MapFamily(
            space=PhaseSpace.circle(),
            generator=gen,
            limit=Rotation(alpha),
            label="alternating-rotation",
            term_formula=lambda n: 2.0 / (n + 1) if n % 2 == 1 else 2.0 / n,
            series_divergent=True,
            steps_isometric=True,
        )

    if name == "inverse-square-rotation":

        return MapFamily(
            space=PhaseSpace.circle(),
            generator=lambda n: Rotation(1.0 / (n * n)),
            limit=Rotation(0.0),
            label="inverse-square-rotation",
            term_formula=lambda n: 1.0 / (n * n),
            series_limit=math.pi * math.pi / 6.0,
            series_divergent=False,
            series_tail_bound=lambda n: 1.0 / n,
            steps_isometric=True,
        )

    if name == "perturbed-doubling":

        return MapFamily(
            space=PhaseSpace.circle(),
            generator=lambda n: AffineCircle(2, 1.0 / n),
            limit=AffineCircle(2, 0.0),
            label="perturbed-doubling",
            term_formula=lambda n: 1.0 / n,
            series_divergent=True,
        )

    if name == "plateau-tent":

        return MapFamily(
            space=PhaseSpace.unit_interval(),
            generator=lambda n: PLATEAU_HEAD if n == 1 else TENT,
            limit=TENT,
            label="plateau-tent",
            term_formula=lambda n: 1.0 if n == 1 else 0.0,
            series_limit=1.0,
            series_divergent=False,
            eventually_constant_from=2,
        )

    # odometer-deletion, the one name left
    return MapFamily(
        space=PhaseSpace.binary_seq(params.get("word_length", 24)),
        generator=lambda n: Compose(OdometerAdd(), Delete(n)),
        limit=OdometerAdd(),
        label="odometer-deletion",
        term_formula=lambda n: 1.0 / n,
        series_divergent=True,
    )


def step_table_family(
    space: PhaseSpace, steps: tuple[MapDescriptor, ...], limit: MapDescriptor, label: str
) -> MapFamily:
    """f_n = steps[n-1] for n <= len(steps), then the limit; with no steps
    this is the autonomous system (X, limit)."""
    return MapFamily(
        space=space,
        generator=lambda n: steps[n - 1],
        limit=limit,
        label=label,
        eventually_constant_from=len(steps) + 1,
        steps_isometric=all(isinstance(m, (Rotation, OdometerAdd)) for m in (*steps, limit)),
    )


def family_from_config(doc: dict) -> MapFamily:
    """Build a family from a structured config document.

    Two shapes are accepted:
      {"builtin": name, "params": {...}}
      {"space": {...}, "custom": {"steps": [descriptor...], "limit": descriptor,
       "label": str}}
    A custom family is ``step_table_family`` of its steps and limit.
    """
    if "builtin" in doc:
        params = json_object(doc.get("params", {}), "family params")
        return make_builtin_family(doc["builtin"], **params)
    if "custom" not in doc:
        raise SpaceError("family config needs 'builtin' or 'custom'")
    spec = json_object(doc["custom"], "custom family")
    space = PhaseSpace.from_json(doc["space"])
    steps = spec.get("steps", [])
    if not isinstance(steps, list):
        raise SpaceError(f"custom steps must be a list of map descriptors, got {steps!r}")
    steps = tuple(descriptor_from_json(d, "each custom step") for d in steps)
    limit = descriptor_from_json(spec["limit"], "custom limit")
    if limit.space_kind != space.kind or any(s.space_kind != space.kind for s in steps):
        raise SpaceError("custom family maps do not all act on the configured space")
    label = spec.get("label", "custom")
    if not isinstance(label, str):
        raise SpaceError(f"custom family label must be a string, got {label!r}")
    return step_table_family(space, steps, limit, label)


# ---------------------------------------------------------------------------
# hypothesis checks

def term(fam: MapFamily, n: int, grid_resolution: int = 256) -> SupEstimate:
    """D(f_n, limit), exact when a closed form is attached to the family."""
    if fam.term_formula is not None:
        return SupEstimate(fam.term_formula(n), True)
    return sup_metric(fam.space, fam.member(n), fam.limit, grid_resolution)


def commutes_with_limit(
    fam: MapFamily, grid_resolution: int = 128, tol: float = 1e-9, max_index: int = 16
) -> Verdict:
    """Check D(f_n . f, f . f_n) <= tol for all n <= max_index."""
    worst_gap = 0.0
    worst: tuple[int, np.ndarray, float] | None = None
    kind = fam.space.kind
    coords = grid_coords(fam.space, min(grid_resolution, 64))
    for n in range(1, max_index + 1):
        f_n = fam.member(n)
        fwd = compose(f_n, fam.limit)
        bwd = compose(fam.limit, f_n)
        est = sup_metric(fam.space, fwd, bwd, grid_resolution)
        if est.value > worst_gap:
            gaps = coord_distances(
                kind, apply_batch(fwd, coords, kind), apply_batch(bwd, coords, kind)
            )
            worst_gap = est.value
            worst = (n, coords[int(gaps.argmax())], est.value)
        if est.value > tol:
            n_w, x_w, gap = worst
            return V.refuted(
                {"index": n_w, "point": coord_to_json(x_w, kind), "gap": gap},
                f"f_{n_w} and the limit disagree under composition by {gap:.6g}",
            )
    return V.holds(
        {"max_index": max_index, "max_gap": worst_gap},
        f"compositions agree within {tol:g} for all n <= {max_index}",
    )


def feeble_open_check(m: MapDescriptor) -> Verdict:
    """Symbolic feeble-openness decision for the descriptor algebra.

    Piecewise-linear maps are refuted exactly when some maximal piece is
    flat (that piece maps an open interval to a single point). Circle
    rotations and affine maps always hold. Lookup, odometer, and deletion
    have no symbolic rule here and return Inconclusive.
    """
    if isinstance(m, (Rotation, AffineCircle)):
        return V.holds({"map": descriptor_to_json(m)}, "circle homeomorphism or covering map")
    if m.space_kind is SpaceKind.CIRCLE and circle_canonical(m) is not None:
        return V.holds({"map": descriptor_to_json(m)}, "canonical circle map")
    if m.space_kind is SpaceKind.UNIT_INTERVAL:
        pl = as_piecewise_linear(m)
        if pl is not None:
            flat = zero_slope_pieces(pl)
            if flat:
                lo, hi = flat[0]
                return V.refuted(
                    {"flat_piece": [lo, hi], "value": pl_image(pl, lo, hi)[0]},
                    f"the open interval ({lo}, {hi}) maps to a single point",
                )
            return V.holds(
                {"pieces": len(pl.breakpoints) - 1}, "no flat piece; open sets keep interior"
            )
    return V.inconclusive(
        {"map": descriptor_to_json(m)}, "no symbolic feeble-openness rule for this descriptor"
    )


def family_feeble_open(fam: MapFamily, max_index: int = 16) -> Verdict:
    """Feeble openness of every family member up to max_index (and the limit)."""
    cutoff = fam.eventually_constant_from
    upto = min(max_index, cutoff) if cutoff is not None else max_index
    saw_inconclusive = False
    for n in range(1, upto + 1):
        v = feeble_open_check(fam.member(n))
        if v.refuted:
            witness = dict(v.witness)
            witness["index"] = n
            return V.refuted(witness, f"f_{n}: {v.narrative}")
        if v.inconclusive:
            saw_inconclusive = True
    lim = feeble_open_check(fam.limit)
    if lim.refuted:
        witness = dict(lim.witness)
        witness["index"] = "limit"
        return V.refuted(witness, f"limit: {lim.narrative}")
    if saw_inconclusive or lim.inconclusive:
        return V.inconclusive({"checked_upto": upto}, "no symbolic rule for some member")
    return V.holds({"checked_upto": upto}, "all checked members feeble open")


@dataclass(frozen=True)
class SummabilityReport:
    """Partial sums of D(f_n, limit) plus a convergence heuristic.

    Summability is undecidable from finitely many terms, so the flag is a
    fitted-exponent heuristic unless the family carries closed forms.
    """

    partial_sums: tuple[float, ...]
    terms: tuple[float, ...]
    flag: str  # "summable-likely" | "divergent-likely" | with " (exact)" suffix
    rationale: str
    exact: bool
    fitted_exponent: float | None
    series_limit: float | None

    def to_json(self) -> dict:
        return {
            "flag": self.flag,
            "rationale": self.rationale,
            "exact": self.exact,
            "fitted_exponent": self.fitted_exponent,
            "series_limit": self.series_limit,
            "partial_sums_head": list(self.partial_sums[:8]),
            "partial_sum_final": self.partial_sums[-1],
            "n_terms": len(self.terms),
        }


def summability_estimate(fam: MapFamily, horizon: int = 64, grid_resolution: int = 128) -> SummabilityReport:
    """Partial sums S_1..S_N of D(f_n, limit) with a summability heuristic."""
    if horizon < 2:
        raise SpaceError("summability horizon must be >= 2")
    terms = [term(fam, n, grid_resolution).value for n in range(1, horizon + 1)]
    sums = list(np.cumsum(terms))

    fitted: float | None = None
    if fam.series_limit is not None and fam.series_divergent is False:
        flag, exact = "summable (exact)", True
        rationale = f"closed-form series limit {fam.series_limit!r}"
    elif fam.series_divergent:
        flag, exact = "divergent (exact)", True
        rationale = "closed-form terms with a divergent series"
    else:
        tail_n = [n for n in range(horizon // 2, horizon + 1) if terms[n - 1] > 0]
        if len(tail_n) < 3:
            flag, exact = "summable-likely", False
            rationale = "tail terms vanish at this horizon"
        else:
            logs_n = np.log([float(n) for n in tail_n])
            logs_t = np.log([terms[n - 1] for n in tail_n])
            slope, _ = np.polyfit(logs_n, logs_t, 1)
            fitted = float(-slope)
            if fitted > 1.0:
                flag, exact = "summable-likely", False
                rationale = f"tail fits C/n^p with p = {fitted:.3f} > 1"
            else:
                flag, exact = "divergent-likely", False
                rationale = f"tail fits C/n^p with p = {fitted:.3f} <= 1"

    return SummabilityReport(
        partial_sums=tuple(float(s) for s in sums),
        terms=tuple(float(t) for t in terms),
        flag=flag,
        rationale=rationale,
        exact=exact,
        fitted_exponent=fitted,
        series_limit=fam.series_limit,
    )


def isometry_shrinking_check(
    space: PhaseSpace, m: MapDescriptor, grid_resolution: int = 24, tol: float = 1e-9
) -> tuple[bool, bool]:
    """(isometry, shrinking) by symbolic shortcut or sampled point pairs."""
    if isinstance(m, Rotation):
        return (True, True)
    if isinstance(m, AffineCircle) and m.slope >= 2:
        return (False, False)
    # about 48 points, every k-th of the grid, built without the rest
    step = max(1, grid_size(space, grid_resolution) // 48)
    coords = grid_coords(space, grid_resolution, step)
    image = apply_batch(m, coords, space.kind)
    i, j = np.triu_indices(len(coords), k=1)
    before = coord_distances(space.kind, coords[i], coords[j])
    after = coord_distances(space.kind, image[i], image[j])
    return (not (abs(after - before) > tol).any(), not (after > before + tol).any())


def surjectivity_check(
    space: PhaseSpace, *maps: MapDescriptor, grid_resolution: int = 64, eps: float = 0.05
) -> Verdict:
    """Holds when the image of the grid under each map is eps-dense in the
    grid itself: the first refuted verdict, else the last map's."""
    coords = grid_coords(space, grid_resolution)
    for m in maps:
        image = apply_batch(m, coords, space.kind)
        best = coord_distances(space.kind, coords[:, None], image[None, :]).min(axis=1)
        worst_i = int(best.argmax())
        worst_d = float(best[worst_i])
        if not worst_d <= eps:
            center = coord_to_json(coords[worst_i], space.kind)
            return V.refuted(
                {"uncovered_center": center, "gap": worst_d, "radius": eps},
                f"no image point within {worst_d:.3g} of the witness center",
            )
    return V.holds(
        {"covering_defect": worst_d, "grid_resolution": grid_resolution},
        f"grid image is {eps:g}-dense (defect {worst_d:.3g})",
    )


@dataclass(frozen=True)
class HypothesisProfile:
    """The side conditions the comparison theorems quantify over."""

    commutes: Verdict
    summability: SummabilityReport
    feeble_open: Verdict
    surjective: Verdict
    isometry: bool
    shrinking: bool

    @property
    def summable_likely(self) -> bool:
        return self.summability.flag.startswith("summable")

    def to_json(self) -> dict:
        return {
            "commutes": self.commutes.to_json(),
            "summability": self.summability.to_json(),
            "feeble_open": self.feeble_open.to_json(),
            "surjective": self.surjective.to_json(),
            "isometry": self.isometry,
            "shrinking": self.shrinking,
        }


def profile_hypotheses(
    fam: MapFamily,
    horizon: int = 64,
    grid_resolution: int = 128,
    tol: float = 1e-9,
    max_index: int = 16,
    eps: float = 0.05,
) -> HypothesisProfile:
    """Run every hypothesis check and assemble the profile."""
    iso, shrink = isometry_shrinking_check(fam.space, fam.limit, tol=tol)
    # the first map whose image leaves a gap, else the limit's verdict
    upto = min(max_index, fam.eventually_constant_from or max_index)
    maps = (*map(fam.member, range(1, upto + 1)), fam.limit)
    surj = surjectivity_check(fam.space, *maps, grid_resolution=min(grid_resolution, 64), eps=eps)
    return HypothesisProfile(
        commutes=commutes_with_limit(fam, grid_resolution, tol, max_index),
        summability=summability_estimate(fam, horizon, grid_resolution),
        feeble_open=family_feeble_open(fam, max_index),
        surjective=surj,
        isometry=iso,
        shrinking=shrink or iso,
    )

