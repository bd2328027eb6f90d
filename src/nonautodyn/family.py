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
from dataclasses import dataclass
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
    Point,
    SpaceError,
    SpaceKind,
    coord_distances,
    point_coords,
    point_to_json,
    sample_grid,
)
from .verdict import Verdict

TENT = PiecewiseLinear(((0.0, 0.0), (0.5, 1.0), (1.0, 0.0)))
PLATEAU_HEAD = PiecewiseLinear(((0.0, 1.0), (0.5, 1.0), (1.0, 0.0)))


@dataclass(frozen=True, eq=False)
class MapFamily:
    """An indexed sequence n -> f_n (1-based) plus its uniform limit."""

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
    #: generator(n) == limit for all n >= this index, when known
    eventually_constant_from: int | None = None
    #: every step map and the limit are isometries (known symbolically)
    steps_isometric: bool = False

    def member(self, n: int) -> MapDescriptor:
        if n < 1:
            raise SpaceError("family indices are 1-based")
        if self.eventually_constant_from is not None and n >= self.eventually_constant_from:
            return self.limit
        return self.generator(n)


def autonomous_family(space: PhaseSpace, m: MapDescriptor, label: str | None = None) -> MapFamily:
    """Wrap a single map as the constant family f_n = m with limit m."""
    if m.space_kind != space.kind:
        raise SpaceError("map does not act on the given space")
    iso = isinstance(m, (Rotation, OdometerAdd))
    return MapFamily(
        space=space,
        generator=lambda n: m,
        limit=m,
        label=label or f"autonomous-{type(m).__name__.lower()}",
        term_formula=lambda n: 0.0,
        series_limit=0.0,
        series_divergent=False,
        series_tail_bound=lambda n: 0.0,
        eventually_constant_from=1,
        steps_isometric=iso,
    )


def _looks_rational_angle(alpha: float, max_den: int = 64) -> bool:
    """True when alpha/(2pi) is (numerically) a small-denominator rational."""
    ratio = alpha / (2.0 * math.pi)
    frac = Fraction(ratio).limit_denominator(max_den)
    return abs(ratio - float(frac)) < 1e-12


def make_builtin_family(name: str, **params) -> MapFamily:
    """Construct one of the builtin example families by scenario id."""
    if name == "alternating-rotation":
        alpha = float(params.get("alpha", 2.0 * math.pi * (math.sqrt(5.0) - 1.0) / 2.0))
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
            series_tail_bound=lambda n: 1.0 if n < 1 else 0.0,
            eventually_constant_from=2,
        )

    if name == "odometer-deletion":
        word_length = int(params.get("word_length", 24))

        return MapFamily(
            space=PhaseSpace.binary_seq(word_length),
            generator=lambda n: Compose(OdometerAdd(), Delete(n)),
            limit=OdometerAdd(),
            label="odometer-deletion",
            term_formula=lambda n: 1.0 / n,
            series_divergent=True,
        )

    raise SpaceError(f"unknown builtin family: {name!r}")


def family_from_config(doc: dict) -> MapFamily:
    """Build a family from a structured config document.

    Two shapes are accepted:
      {"builtin": name, "params": {...}}
      {"space": {...}, "custom": {"steps": [descriptor...], "tail": "limit",
       "limit": descriptor, "label": str}}
    Custom generators use the explicit step table for n <= len(steps) and the
    limit map beyond it.
    """
    if "builtin" in doc:
        return make_builtin_family(doc["builtin"], **doc.get("params", {}))
    if "custom" not in doc:
        raise SpaceError("family config needs 'builtin' or 'custom'")
    spec = doc["custom"]
    space = PhaseSpace.from_json(doc["space"])
    steps = tuple(descriptor_from_json(d) for d in spec.get("steps", ()))
    limit = descriptor_from_json(spec["limit"])
    if limit.space_kind != space.kind or any(s.space_kind != space.kind for s in steps):
        raise SpaceError("custom family maps do not all act on the configured space")
    label = spec.get("label", "custom")

    def gen(n: int) -> MapDescriptor:
        return steps[n - 1] if n <= len(steps) else limit

    iso = isinstance(limit, (Rotation, OdometerAdd)) and all(
        isinstance(s, (Rotation, OdometerAdd)) for s in steps
    )
    return MapFamily(
        space=space,
        generator=gen,
        limit=limit,
        label=label,
        eventually_constant_from=len(steps) + 1,
        steps_isometric=iso,
    )


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
    worst: tuple[int, Point, float] | None = None
    kind = fam.space.kind
    grid = list(sample_grid(fam.space, min(grid_resolution, 64)))
    coords = point_coords(grid, kind)
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
            worst = (n, grid[int(gaps.argmax())], est.value)
        if est.value > tol:
            n_w, x_w, gap = worst
            return V.refuted(
                {"index": n_w, "point": point_to_json(x_w), "gap": gap},
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
    grid = list(sample_grid(space, grid_resolution))
    if len(grid) > 48:
        grid = grid[:: max(1, len(grid) // 48)]
    coords = point_coords(grid, space.kind)
    image = apply_batch(m, coords, space.kind)
    i, j = np.triu_indices(len(grid), k=1)
    before = coord_distances(space.kind, coords[i], coords[j])
    after = coord_distances(space.kind, image[i], image[j])
    return (not (abs(after - before) > tol).any(), not (after > before + tol).any())


def surjectivity_check(
    space: PhaseSpace, m: MapDescriptor, grid_resolution: int = 64, eps: float = 0.05
) -> Verdict:
    """Holds when the image of the grid is eps-dense in the grid itself."""
    grid = list(sample_grid(space, grid_resolution))
    coords = point_coords(grid, space.kind)
    dmat = coord_distances(space.kind, coords[:, None], apply_batch(m, coords, space.kind)[None, :])
    best = dmat.min(axis=1)
    worst_i = int(best.argmax())
    worst_p, worst_d = grid[worst_i], float(best[worst_i])
    if worst_d <= eps:
        return V.holds(
            {"covering_defect": worst_d, "grid_resolution": grid_resolution},
            f"grid image is {eps:g}-dense (defect {worst_d:.3g})",
        )
    return V.refuted(
        {"uncovered_center": point_to_json(worst_p), "gap": worst_d, "radius": eps},
        f"no image point within {worst_d:.3g} of the witness center",
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
    for m in (*map(fam.member, range(1, upto + 1)), fam.limit):
        surj = surjectivity_check(fam.space, m, min(grid_resolution, 64), eps)
        if surj.refuted:
            break
    return HypothesisProfile(
        commutes=commutes_with_limit(fam, grid_resolution, tol, max_index),
        summability=summability_estimate(fam, horizon, grid_resolution),
        feeble_open=family_feeble_open(fam, max_index),
        surjective=surj,
        isometry=iso,
        shrinking=shrink or iso,
    )

