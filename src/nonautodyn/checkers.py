"""Finite-horizon empirical checkers for dynamical properties.

Every checker runs against a SystemView, which is either the non-autonomous
system (orbit operator omega_n) or its autonomous limit (orbit operator f^n);
nothing else differs between the modes. Verdicts are three-valued and carry
reproducible witnesses.

Semi-decidability policy: Holds verdicts are evidence at the configured
horizon. Refuted verdicts require either a concrete finite counterexample or
a symbolic step rule that extends to all times (isometric steps keep pair
distances and region widths constant; a flat piece collapses an interval to
a point; a rotation family with a summable displacement tail confines every
orbit to a computable arc). Pure absence of evidence yields Inconclusive.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from enum import Enum
from typing import NamedTuple

import numpy as np

from . import verdict as V
from .descriptors import (
    MapDescriptor,
    PiecewiseLinear,
    apply,
    apply_batch,
    circle_canonical,
    circle_map_fixed_points,
    compose,
    pl_fixed_points,
)
from .orbit import Mode, SystemView, orbit_matrix
from .regions import RegionChains, ball_region, family_supports_regions, region_chains
from .space import (
    TWO_PI,
    BinaryWord,
    CircleAngle,
    IntervalPoint,
    MAX_ENUM_BITS,
    MAX_WORD_BITS,
    PhaseSpace,
    Point,
    SpaceError,
    SpaceKind,
    ball_sample,
    coord_distances,
    coord_point,
    distance,
    point_coords,
    point_to_json,
    sample_grid,
)
from .verdict import Verdict


def verdict_record(property_name: str, mode: "Mode", cfg: "CheckConfig", verdict: Verdict) -> dict:
    """Standalone serialization of one checker run."""
    return {
        "property": property_name,
        "mode": mode.value,
        "outcome": verdict.outcome.value,
        "witness": verdict.witness,
        "config": cfg.to_json(),
        "narrative": verdict.narrative,
    }


@dataclass(frozen=True)
class CheckConfig:
    """Shared knobs for all checkers.

    eps is the closeness target, delta the separation target, and the tail
    window [horizon - tail_window, horizon] is the finite surrogate for
    liminf/limsup quantifiers.
    """

    horizon: int = 5000
    grid_resolution: int = 20
    ball_count: int = 9
    eps: float = 0.05
    delta: float = 0.25
    tol: float = 1e-9
    tail_window: int = 2000
    max_period: int = 16
    repetitions: int = 3

    def validate(self, space: PhaseSpace) -> None:
        if not (0.0 < self.eps < self.delta <= space.diameter):
            raise SpaceError(
                f"need 0 < eps < delta <= diameter, got eps={self.eps}, "
                f"delta={self.delta}, diameter={space.diameter}"
            )
        if not (0 < self.tail_window <= self.horizon):
            raise SpaceError("tail window must lie within the horizon")
        if space.kind is SpaceKind.BINARY_SEQ and space.word_length > MAX_WORD_BITS:
            raise SpaceError(
                f"word_length={space.word_length} exceeds the {MAX_WORD_BITS} coordinates "
                "a packed word holds"
            )
        if space.kind is SpaceKind.BINARY_SEQ and 1.0 / self.eps >= space.word_length:
            raise SpaceError(
                f"eps={self.eps} needs words longer than {1.0 / self.eps:.0f}, "
                f"space carries {space.word_length}"
            )
        if self.horizon < 1 or self.grid_resolution < 2 or self.ball_count < 1:
            raise SpaceError("horizon, grid resolution, and ball count must be positive")
        if self.max_period < 1 or self.repetitions < 1:
            raise SpaceError(
                f"max_period and repetitions must be at least 1, got {self.max_period} "
                f"and {self.repetitions}"
            )
        if not self.tol >= 0.0:
            raise SpaceError(f"tol must be nonnegative, got {self.tol}")
        need = _estimated_bytes(self, space)
        if need > MEMORY_BUDGET:
            raise SpaceError(
                f"this config needs about {need / 2**30:.1f} GiB for its hit table and "
                f"ball sweep, over the {MEMORY_BUDGET / 2**30:g} GiB budget"
            )

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, doc: dict) -> "CheckConfig":
        defaults = {f.name: f.default for f in fields(cls)}
        unknown = sorted(set(doc) - set(defaults))
        if unknown:
            raise SpaceError(f"unknown check config keys: {unknown}")
        for key, value in doc.items():
            # eps, delta and tol take any real number; the rest are integers
            real = isinstance(defaults[key], float)
            if isinstance(value, bool) or not isinstance(value, (int, float) if real else int):
                what = "a real number" if real else "an integer"
                raise SpaceError(f"check config {key!r} must be {what}, got {value!r}")
        return cls(**doc)


#: the most bytes CheckConfig.validate lets a config's largest arrays take
MEMORY_BUDGET = 1 << 30


def _estimated_bytes(cfg: CheckConfig, space: PhaseSpace) -> int:
    """Bytes of the G x G x (N+1) boolean hit table plus the ball-table sweep,
    (N+1) rows of ball_count points per ball, from the config's shapes alone."""
    if space.kind is SpaceKind.BINARY_SEQ:
        G = 2 ** min(cfg.grid_resolution, MAX_ENUM_BITS)
    else:
        G = cfg.grid_resolution
    points = G * len(_sens_rungs(space, cfg)) * cfg.ball_count
    return (cfg.horizon + 1) * (G * G + points * point_coords([], space.kind).itemsize)


# ---------------------------------------------------------------------------
# shared machinery

def grid_points(space: PhaseSpace, cfg: CheckConfig) -> list[Point]:
    """Checker grid; binary words are padded to full length with zeros so
    orbits keep enough resolution for the horizon."""
    pts = list(sample_grid(space, cfg.grid_resolution))
    if space.kind is SpaceKind.BINARY_SEQ:
        L = space.word_length
        pts = [
            BinaryWord(p.bits + (0,) * (L - len(p.bits)), L) if len(p.bits) < L else p
            for p in pts
        ]
    return pts


def _sweep_groups(
    sys: SystemView, groups: list[list[Point]], horizon: int
) -> tuple[np.ndarray, list[np.ndarray]]:
    """One orbit sweep over the distinct start points of several groups.

    Returns the orbit matrix and, for each group, the column of each of its
    points. Starts are deduplicated by their exact bytes, so 0.0 and -0.0
    keep separate columns. Element-wise maps make every column bit-identical
    to a sweep of that start alone.
    """
    coords = point_coords([p for g in groups for p in g], sys.space.kind)
    _, first, inverse = np.unique(
        coords.view(f"V{coords.dtype.itemsize}"), return_index=True, return_inverse=True
    )
    orbits = orbit_matrix(sys, coords[first], horizon)
    inverse = inverse.reshape(-1)
    cols, lo = [], 0
    for g in groups:
        cols.append(inverse[lo : lo + len(g)])
        lo += len(g)
    return orbits, cols


def _supports_regions(sys: SystemView, horizon: int) -> bool:
    cutoff = sys.constant_tail_from()
    depth = min(horizon, 64) if cutoff is None else min(horizon, cutoff)
    probe = sys.steps(depth)[1 : depth + 1] + [sys.fam.limit]
    return family_supports_regions(sys.space, probe)


def _ball_chains(
    sys: SystemView, balls: list[tuple[Point, float]], horizon: int
) -> RegionChains | None:
    """Region chains of the (center, radius) balls through steps 1..horizon;
    None when some step has no exact region image."""
    if not _supports_regions(sys, horizon):
        return None
    starts = [ball_region(sys.space, c, r) for c, r in balls]
    return region_chains(starts, sys.steps(horizon)[1 : horizon + 1])


def _cloud_diam_series(kind: SpaceKind, orbits: np.ndarray) -> np.ndarray:
    """Max pairwise distance per time row of an orbit matrix; 0 for fewer
    than two columns."""
    i, j = np.triu_indices(orbits.shape[1], 1)
    return coord_distances(kind, orbits[:, i], orbits[:, j]).max(axis=1, initial=0.0)


def _sens_rungs(space: PhaseSpace, cfg: CheckConfig) -> list[float]:
    rungs = [cfg.eps, cfg.eps / 4.0, cfg.eps / 16.0]
    if space.kind is SpaceKind.BINARY_SEQ:
        # validate keeps eps, the largest rung, resolvable
        rungs = [r for r in rungs if r > 1.0 / space.word_length]
    return rungs


def _rotation_displacements(sys: SystemView, horizon: int) -> tuple[np.ndarray, float] | None:
    """Cumulative rotation displacements d_1..d_N plus a forever-tail bound.

    Returns None unless every step is a rotation and the displacement after
    the horizon is provably confined: either the steps are eventually the
    identity-limit with a summable perturbation tail, or the limit itself is
    the identity and the family carries a closed-form tail bound.
    """
    amounts = sys.rotation_amounts(horizon)
    if amounts is None:
        return None
    disp = np.cumsum(amounts)
    if sys.mode is Mode.AUTONOMOUS_LIMIT:
        if sys.fam.limit.amount == 0.0:
            return disp, 0.0
        return None
    if sys.fam.limit.amount != 0.0:
        return None
    tail = sys.fam.series_tail_bound
    if tail is None:
        return None
    return disp, float(tail(horizon))


def _confinement_gaps(
    sys: SystemView, horizon: int, source: Point, target: Point
) -> tuple[float, float, float] | None:
    """Displacement confinement of a rotation system: how close the orbit
    of source comes to target. Returns the least gap up to the horizon, a
    lower bound on every later gap, and the displacement tail bound; None
    unless _rotation_displacements confines the displacement."""
    conf = _rotation_displacements(sys, horizon)
    if conf is None:
        return None
    disp, tail = conf
    base = target.theta - source.theta
    gaps = coord_distances(SpaceKind.CIRCLE, np.mod(base - disp, TWO_PI), np.zeros(1))
    return float(gaps.min()), max(0.0, float(gaps[-1]) - tail), tail


def _ball_points(space: PhaseSpace, center: Point, radius: float, count: int) -> list[Point]:
    return list(ball_sample(space, center, radius, count))


def _cached(sys: SystemView, key: tuple, build):
    """build(), run once per view and key; what it builds is a pure function
    of the view and the key's config, so caching is transparent."""
    if key not in sys._cache:
        sys._cache[key] = build()
    return sys._cache[key]


@dataclass
class _BallEvidence:
    """How the grid balls move, for one view and config. Ball k = u * R + i
    is grid center u with rung i of _sens_rungs, so ball u * R is the
    eps-ball around u. It has the diameter series diams[k] for n = 0..N and
    a collapse step and point (region chains only). The eps-balls alone have
    hits[u, v, n], image n of ball u within eps of center v, and defects[u, n],
    how far image n of ball u is from covering the grid."""

    centers: list[Point]
    balls: list[tuple[Point, float]]
    diams: np.ndarray  # float, shape (G * R, N+1)
    collapses: list[tuple[int, Point] | None]
    hits: np.ndarray  # bool, shape (G, G, N+1)
    defects: np.ndarray  # float, shape (G, N+1)

    def collapse(self, u: int) -> tuple[int, Point] | None:
        """Collapse of the eps-ball around center u."""
        return self.collapses[u * (len(self.balls) // len(self.centers))]


def _ball_evidence(sys: SystemView, cfg: CheckConfig) -> _BallEvidence:
    return _cached(sys, ("ball_evidence", cfg), lambda: _compute_ball_evidence(sys, cfg))


def _compute_ball_evidence(sys: SystemView, cfg: CheckConfig) -> _BallEvidence:
    """One region chain or one orbit sweep over every ball; only the arrays
    derived from it are kept."""
    kind, N = sys.space.kind, cfg.horizon
    centers = grid_points(sys.space, cfg)
    balls = [(c, r) for c in centers for r in _sens_rungs(sys.space, cfg)]
    eps_balls = slice(None, None, len(balls) // len(centers))  # the first rung is eps
    coords = point_coords(centers, kind)
    hits = np.zeros((len(centers), len(centers), N + 1), dtype=bool)

    chains = _ball_chains(sys, balls, N)
    if chains is not None:
        for u, j in enumerate(range(len(balls))[eps_balls]):
            hits[u] = (chains.distances(j, coords) < cfg.eps).T
        return _BallEvidence(
            centers, balls, np.ascontiguousarray(chains.diameters().T),
            [chains.collapse(j) for j in range(len(balls))], hits,
            np.ascontiguousarray(chains.covering_defects()[:, eps_balls].T),
        )

    clouds = [_ball_points(sys.space, c, r, cfg.ball_count) for c, r in balls]
    orbits, cols = _sweep_groups(sys, clouds, N)
    full = point_coords(sample_grid(sys.space, cfg.grid_resolution), kind)
    defects = np.empty((len(centers), N + 1))
    for u, idx in enumerate(cols[eps_balls]):
        cloud = orbits[:, idx]
        hits[u] = (coord_distances(kind, cloud[:, :, None], coords).min(axis=1) < cfg.eps).T
        # per time row: the grid point farthest from its nearest cloud point
        defects[u] = coord_distances(kind, cloud[:, None], full[:, None]).min(axis=2).max(axis=1)
    diams = np.array([_cloud_diam_series(kind, orbits[:, idx]) for idx in cols])
    return _BallEvidence(centers, balls, diams, [None] * len(balls), hits, defects)


# ---------------------------------------------------------------------------
# pointwise checkers

def check_equicontinuity(sys: SystemView, cfg: CheckConfig) -> Verdict:
    """Search a ladder of pair separations delta' for one that keeps all
    sampled pairs within eps for every time up to the horizon."""
    cfg.validate(sys.space)
    space = sys.space
    N = cfg.horizon
    base = min(cfg.eps, cfg.delta)
    rungs = [base / 2.0**i for i in range(5)]
    if space.kind is SpaceKind.BINARY_SEQ:
        # validate keeps eps, the largest rung, resolvable
        rungs = [r for r in rungs if r > 1.0 / space.word_length]
    centers = grid_points(space, cfg)

    worst_for_smallest: tuple[Point, Point, int, float] | None = None
    for rung in rungs:
        worst_sep = 0.0
        worst_pair: tuple[Point, Point, int] | None = None
        groups = [
            [c] + partners
            for c in centers
            if (partners := [p for p in _ball_points(space, c, rung, cfg.ball_count) if p != c])
        ]
        if groups:
            orbits, cols = _sweep_groups(sys, groups, N)
            for (c, *partners), idx in zip(groups, cols):
                seps = coord_distances(space.kind, orbits[:, idx[1:]], orbits[:, idx[:1]])
                flat = int(np.argmax(seps))
                t, j = divmod(flat, seps.shape[1])
                if seps[t, j] > worst_sep:
                    worst_sep, worst_pair = float(seps[t, j]), (c, partners[j], t)
        if worst_sep <= cfg.eps:
            return V.holds(
                {"delta_prime": rung, "max_separation": worst_sep, "horizon": N},
                f"pairs within {rung:g} stay {cfg.eps:g}-close up to n={N}",
            )
        if rung == rungs[-1] and worst_pair is not None:
            x, y, t = worst_pair
            worst_for_smallest = (x, y, t, worst_sep)

    if worst_for_smallest is not None:
        x, y, t, sep = worst_for_smallest
        return V.refuted(
            {
                "pair": [point_to_json(x), point_to_json(y)],
                "time": t,
                "separation": sep,
                "delta_floor": rungs[-1],
            },
            f"a pair within {rungs[-1]:g} separates to {sep:.3g} by n={t}",
        )
    return V.inconclusive({"horizon": N, "rungs": rungs}, "no conclusive rung at this horizon")


def _refute_balls(
    sys: SystemView, cfg: CheckConfig, ev: _BallEvidence, failing: np.ndarray, what: str
) -> Verdict | None:
    """Symbolic refutation from the first of the failing balls whose diameter
    provably never clears delta."""
    for k in failing:
        (center, radius), series, collapse = ev.balls[k], ev.diams[k], ev.collapses[k]
        if float(np.max(series[1:])) > cfg.delta - cfg.tol:
            continue
        if collapse is not None:
            step, p = collapse
            if _constant_after_collapse(sys, p, cfg.horizon):
                return V.refuted(
                    {
                        "ball_center": point_to_json(center),
                        "radius": radius,
                        "collapse_step": step,
                        "max_diameter": float(np.max(series)),
                    },
                    f"{what}: the ball collapses to a point at step {step} and stays collapsed",
                )
        if sys.steps_isometric:
            return V.refuted(
                {
                    "ball_center": point_to_json(center),
                    "radius": radius,
                    "max_diameter": float(np.max(series)),
                    "rule": "isometric-steps",
                },
                f"{what}: isometric steps keep the ball diameter at most {2 * radius:g} forever",
            )
    return None


def _constant_after_collapse(sys: SystemView, p: Point, horizon: int) -> bool:
    """True when the point p a region chain collapsed to provably stays put.

    The chain already witnesses collapse up to the horizon; forever needs
    every step after the horizon to be the limit map, and p to be a fixed
    point of the limit.
    """
    cutoff = sys.constant_tail_from()
    if cutoff is None or horizon < cutoff - 1:
        return False
    return apply(sys.fam.limit, p) == p


def check_sensitivity(sys: SystemView, cfg: CheckConfig) -> Verdict:
    """Every grid point, every ladder radius: some time with ball diameter > delta."""
    cfg.validate(sys.space)
    ev = _ball_evidence(sys, cfg)
    separated = ev.diams[:, 1:] > cfg.delta
    failing = np.flatnonzero(~separated.any(axis=1))
    if not failing.size:
        first = separated.argmax(axis=1) + 1
        times = [
            {"center": point_to_json(c), "radius": r, "separation_time": int(t)}
            for (c, r), t in zip(ev.balls, first)
        ]
        worst = int(first.max())
        return V.holds(
            {"separation_times": times, "max_separation_time": worst, "delta": cfg.delta},
            f"every sampled neighborhood reaches diameter {cfg.delta:g} by n={worst}",
        )
    refutation = _refute_balls(sys, cfg, ev, failing, "sensitivity")
    if refutation is not None:
        return refutation
    c, r = ev.balls[failing[0]]
    return V.inconclusive(
        {
            "ball_center": point_to_json(c),
            "radius": r,
            "max_diameter": float(np.max(ev.diams[failing[0]])),
            "horizon": cfg.horizon,
        },
        "some sampled neighborhoods never separated and no symbolic rule applies",
    )


def check_cofinite_sensitivity(sys: SystemView, cfg: CheckConfig) -> Verdict:
    """Sensitivity with persistence: diameters stay above delta from some
    K <= horizon/2 onward, for every sampled ball."""
    cfg.validate(sys.space)
    N = cfg.horizon
    ev = _ball_evidence(sys, cfg)
    # K is one past the last diameter of at most delta, found backwards
    below = ev.diams[:, ::-1] <= cfg.delta
    K = np.where(below.any(axis=1), N + 1 - below.argmax(axis=1), 1)
    failing = np.flatnonzero(K > N // 2)
    if not failing.size:
        entries = [
            {"center": point_to_json(c), "radius": r, "K": int(k)} for (c, r), k in zip(ev.balls, K)
        ]
        worst = int(K.max())
        return V.holds(
            {"persistence_starts": entries, "max_K": worst, "delta": cfg.delta},
            f"every sampled ball stays spread past delta from K <= {worst}",
        )
    refutation = _refute_balls(sys, cfg, ev, failing, "cofinite sensitivity")
    if refutation is not None:
        return refutation
    c, r = ev.balls[failing[0]]
    return V.inconclusive(
        {"ball_center": point_to_json(c), "radius": r, "horizon": N},
        "no persistent spreading found and no symbolic rule applies",
    )


# ---------------------------------------------------------------------------
# open-set checkers (transitivity family)

def _prove_pair_miss(
    sys: SystemView, cfg: CheckConfig, ev: _BallEvidence, u: int, v: int
) -> dict | None:
    """Proof that the eps-ball around center u can never meet the eps-ball
    around center v."""
    uc, vc = ev.centers[u], ev.centers[v]
    # collapse rule: the ball degenerates to an eventually fixed point
    collapse = ev.collapse(u)
    if collapse is not None:
        step, p = collapse
        if _constant_after_collapse(sys, p, cfg.horizon):
            gap = distance(sys.space, p, vc)
            if gap >= cfg.eps:
                return {
                    "rule": "collapse",
                    "collapse_step": step,
                    "stuck_at": point_to_json(p),
                    "gap": gap,
                }
    # displacement confinement for rotation families with a summable tail
    conf = _confinement_gaps(sys, cfg.horizon, uc, vc)
    if conf is not None:
        min_gap, future, tail = conf
        need = cfg.eps + cfg.eps + cfg.tol
        if min_gap >= need and future >= need:
            return {"rule": "displacement-confinement", "min_gap": min_gap, "tail_bound": tail}
    return None


def check_transitivity(sys: SystemView, cfg: CheckConfig) -> Verdict:
    """Every ordered pair of grid balls interacts at some time <= horizon."""
    cfg.validate(sys.space)
    ev = _ball_evidence(sys, cfg)
    G = len(ev.centers)
    any_hits = ev.hits[:, :, 1:].any(axis=2)
    first_hit = np.where(any_hits, ev.hits[:, :, 1:].argmax(axis=2) + 1, -1)
    if any_hits.all():
        return V.holds(
            {
                "hit_times": first_hit.tolist(),
                "max_hit_time": int(first_hit.max()),
                "grid_resolution": cfg.grid_resolution,
            },
            f"all {G * G} ordered ball pairs interact by n={int(first_hit.max())}",
        )
    missed = [(u, v) for u in range(G) for v in range(G) if not any_hits[u, v]]
    for u, v in missed:
        proof = _prove_pair_miss(sys, cfg, ev, u, v)
        if proof is not None:
            return V.refuted(
                {
                    "from_center": point_to_json(ev.centers[u]),
                    "to_center": point_to_json(ev.centers[v]),
                    **proof,
                },
                "a ball provably never reaches a target ball",
            )
    return V.inconclusive(
        {
            "missed_pairs": [
                [point_to_json(ev.centers[u]), point_to_json(ev.centers[v])]
                for u, v in missed[:8]
            ],
            "missed_count": len(missed),
            "horizon": cfg.horizon,
        },
        f"{len(missed)} ball pairs never interacted at this horizon",
    )


def check_weak_mixing(sys: SystemView, cfg: CheckConfig) -> Verdict:
    """Pairs of ball pairs must interact simultaneously at a single time."""
    cfg.validate(sys.space)
    ev = _ball_evidence(sys, cfg)
    G = len(ev.centers)
    first, missed = _shared_time_misses(ev.hits.reshape(G * G, -1)[:, 1:])
    if first is None:
        return V.holds(
            {"pairs": G * G, "grid_resolution": cfg.grid_resolution},
            "every two ball pairs interact at a shared time",
        )
    p1, p2 = first
    u1, v1 = divmod(p1, G)
    u2, v2 = divmod(p2, G)
    quad = {
        "U1": point_to_json(ev.centers[u1]),
        "V1": point_to_json(ev.centers[v1]),
        "U2": point_to_json(ev.centers[u2]),
        "V2": point_to_json(ev.centers[v2]),
    }
    for u, v in ((u1, v1), (u2, v2)):
        proof = _prove_pair_miss(sys, cfg, ev, u, v)
        if proof is not None:
            return V.refuted({**quad, **proof}, "one leg of the quadruple provably never hits")
    if sys.steps_isometric:
        extreme = _isometric_spacing_witness(sys, cfg, ev)
        if extreme is not None:
            return V.refuted(
                extreme,
                "isometric steps preserve the spacing between the two source balls, "
                "which is incompatible with the target spacing",
            )
    return V.inconclusive(
        {"missed_quadruples": missed, "witness_quadruple": quad, "horizon": cfg.horizon},
        "no simultaneous interaction found for some quadruples",
    )


def _shared_time_misses(H: np.ndarray) -> tuple[tuple[int, int] | None, int]:
    """The ordered pairs of rows of the boolean matrix H that share no True
    column: the first in row-major order, or None, and their number.

    Only the distinct rows are multiplied. Rows are grouped by their packed
    bytes, so a pair of rows misses exactly when their classes do, and the
    class multiplicities weight the count.
    """
    packed = np.packbits(H, axis=1)
    _, first, inverse = np.unique(
        packed.view(f"V{packed.shape[1]}").reshape(-1), return_index=True, return_inverse=True
    )
    rows = H[first].astype(np.float32)
    miss = rows @ rows.T < 0.5
    if not miss.any():
        return None, 0
    mult = np.bincount(inverse)
    p1 = int(np.argmax(miss.any(axis=1)[inverse]))
    p2 = int(np.argmax(miss[inverse[p1]][inverse]))
    return (p1, p2), int(mult @ miss.astype(np.int64) @ mult)


def _isometric_spacing_witness(sys: SystemView, cfg: CheckConfig, ev: _BallEvidence) -> dict | None:
    """A quadruple whose source/target spacings differ too much for any
    isometry to reconcile: take sources at maximal spacing and targets at
    minimal spacing."""
    centers = ev.centers
    G = len(centers)
    slack = 2.0 * (cfg.eps + cfg.eps) + cfg.tol
    coords = point_coords(centers, sys.space.kind)
    dmat = coord_distances(sys.space.kind, coords[:, None], coords)
    hi = int(np.argmax(dmat))
    u1, u2 = divmod(hi, G)
    if dmat[u1, u2] - 0.0 <= slack:  # targets at spacing 0: v1 = v2
        return None
    return {
        "U1": point_to_json(centers[u1]),
        "U2": point_to_json(centers[u2]),
        "V1": point_to_json(centers[0]),
        "V2": point_to_json(centers[0]),
        "rule": "isometric-spacing",
        "source_gap": float(dmat[u1, u2]),
        "target_gap": 0.0,
    }


def check_topological_mixing(sys: SystemView, cfg: CheckConfig) -> Verdict:
    """Two tests, both reported: hit persistence and cloud convergence."""
    cfg.validate(sys.space)
    N = cfg.horizon
    ev = _ball_evidence(sys, cfg)
    G = len(ev.centers)

    # (a) hit persistence: for each pair a K with hits at every n in [K, N],
    # one past its last miss; backwards, the first miss is at n = N - argmin
    backwards = ev.hits[:, :, :0:-1]
    K = np.where(backwards.all(axis=2), 1, N + 1 - backwards.argmin(axis=2))
    late = K > N // 2
    persistence_ok = not late.any()
    worst_K = int(np.where(late, 0, K).max())
    miss_pair = None if persistence_ok else divmod(int(late.argmax()), G)

    # (b) cloud convergence: image covering defect below eps from some K on,
    # one past its last defect of eps or more, found backwards as in (a)
    bad = ev.defects[:, ::-1] >= cfg.eps
    K = np.where(bad.any(axis=1), N + 1 - bad.argmax(axis=1), 0)
    late = K > N // 2
    convergence_ok = not late.any()
    conv_K = int(np.where(late, 0, K).max())
    conv_fail = None if convergence_ok else int(late.argmax())
    defects_final = ev.defects[:, -1].tolist()

    tests = {
        "hit_persistence": {"passed": persistence_ok, "K": worst_K},
        "cloud_convergence": {
            "passed": convergence_ok,
            "K": conv_K,
            "final_defects": defects_final,
        },
    }
    if persistence_ok and convergence_ok:
        return V.holds(
            {**tests, "grid_resolution": cfg.grid_resolution},
            f"hits persist from K={worst_K} and ball images become "
            f"{cfg.eps:g}-dense from K={conv_K}",
        )
    # symbolic refutations
    if miss_pair is not None:
        proof = _prove_pair_miss(sys, cfg, ev, *miss_pair)
        if proof is not None:
            u, v = miss_pair
            return V.refuted(
                {
                    **tests,
                    "from_center": point_to_json(ev.centers[u]),
                    "to_center": point_to_json(ev.centers[v]),
                    **proof,
                },
                "a ball pair provably stops interacting",
            )
    if sys.steps_isometric:
        idx = conv_fail if conv_fail is not None else 0
        return V.refuted(
            {**tests, "rule": "isometric-steps", "ball_center": point_to_json(ev.centers[idx])},
            "isometric steps preserve ball image spread, so small balls never become dense",
        )
    return V.inconclusive(
        {**tests, "horizon": N}, "mixing evidence incomplete at this horizon"
    )


def check_minimality(sys: SystemView, cfg: CheckConfig) -> Verdict:
    """Dense-orbit surrogate: every grid start visits every grid cell within eps."""
    cfg.validate(sys.space)
    space = sys.space
    N = cfg.horizon
    starts = grid_points(space, cfg)
    targets = list(sample_grid(space, cfg.grid_resolution))

    uncovered: list[tuple[int, Point]] = []
    visit_times: list[int] = []
    orbits = orbit_matrix(sys, point_coords(starts, space.kind), N)
    tcols = point_coords(targets, space.kind)
    for i in range(len(starts)):
        ok = coord_distances(space.kind, orbits[:, i, None], tcols) <= cfg.eps
        any_ok = ok.any(axis=0)
        if any_ok.all():
            visit_times.append(int(ok.argmax(axis=0).max()))
        else:
            uncovered.append((i, targets[int(np.argmin(any_ok))]))

    if not uncovered:
        worst = max(visit_times)
        return V.holds(
            {"max_cell_visit_time": worst, "starts": len(starts), "targets": len(targets)},
            f"every grid orbit is {cfg.eps:g}-dense by n={worst}",
        )

    # symbolic refutations
    cutoff = sys.constant_tail_from()
    for i, t in uncovered:
        x, orb = starts[i], orbits[:, i]
        # eventually-fixed orbit: once the step maps are the constant limit,
        # an orbit that lands on a fixed point of the limit stays there forever
        if cutoff is not None:
            lo = max(0, cutoff - 1)
            fixed = np.flatnonzero(apply_batch(sys.fam.limit, orb[lo:], space.kind) == orb[lo:])
            if fixed.size:
                m = lo + int(fixed[0])
                p = coord_point(orb[m], space.kind)
                gap = float(
                    coord_distances(space.kind, orb[: m + 1], point_coords([t], space.kind)).min()
                )
                if gap > cfg.eps:
                    return V.refuted(
                        {
                            "start": point_to_json(x),
                            "stuck_at": point_to_json(p),
                            "stuck_from": m,
                            "missed_target": point_to_json(t),
                            "gap": gap,
                            "rule": "eventually-fixed-orbit",
                        },
                        "an orbit freezes at a fixed point and misses a cell forever",
                    )
        conf = _confinement_gaps(sys, N, x, t)
        if conf is not None:
            min_gap, future, tail = conf
            if min_gap > cfg.eps + cfg.tol and future > cfg.eps + cfg.tol:
                return V.refuted(
                    {
                        "start": point_to_json(x),
                        "missed_target": point_to_json(t),
                        "min_gap": min_gap,
                        "tail_bound": tail,
                        "rule": "displacement-confinement",
                    },
                    "total rotation displacement is confined, leaving a cell unreachable",
                )
    return V.inconclusive(
        {
            "non_covered_starts": [point_to_json(starts[i]) for i, _ in uncovered[:8]],
            "uncovered_count": len(uncovered),
            "horizon": N,
        },
        f"{len(uncovered)} of {len(starts)} grid starts left some cell unvisited "
        "at this horizon",
    )


# ---------------------------------------------------------------------------
# recurrence checkers

def _periods(
    sys: SystemView, points: list[Point], P: int, R: int, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Return distances d(omega_n(x), x) for n = 0..P*R (rows) and each
    point x (columns), from one sweep, and each point's least period: the
    least n <= P whose returns at every multiple n*k, k <= R, lie within tol,
    or 0 when there is none."""
    kind = sys.space.kind
    coords = point_coords(points, kind)
    returns = coord_distances(kind, orbit_matrix(sys, coords, P * R), coords)
    multiples = np.arange(1, P + 1)[:, None] * np.arange(1, R + 1)
    closed = (returns[multiples] <= tol).all(axis=1)
    return returns, np.where(closed.any(axis=0), closed.argmax(axis=0) + 1, 0)


def _periodic_verdict(
    x: Point, returns: np.ndarray, period: int, P: int, R: int, tol: float
) -> Verdict:
    """check_periodic's verdict on x from its column of _periods."""
    if period:
        return V.holds(
            {
                "point": point_to_json(x),
                "period": int(period),
                "revisit_gaps": returns[period * np.arange(1, R + 1)].tolist(),
                "repetitions": R,
            },
            f"orbit returns within {tol:g} at every multiple of {period}",
        )
    closest = float(returns[1 : P + 1].min())
    return V.refuted(
        {"point": point_to_json(x), "max_period": P, "min_recurrence_gap": closest},
        f"no period up to {P}; closest return misses by {closest:.3g}",
    )


def check_periodic(sys: SystemView, x: Point, cfg: CheckConfig) -> Verdict:
    """Least n <= P with orbit returns at every multiple n*k, k <= R, within tol.

    Both modes use the same multiple-revisit rule so that autonomous wrappers
    produce identical verdicts in either mode.
    """
    cfg.validate(sys.space)
    P, R = cfg.max_period, cfg.repetitions
    returns, periods = _periods(sys, [x], P, R, cfg.tol)
    return _periodic_verdict(x, returns[:, 0], periods[0], P, R, cfg.tol)


def _refute_periodicity(
    sys: SystemView, cfg: CheckConfig, P: int, R: int, **witness
) -> Verdict | None:
    """No point is periodic with period <= P: a rotation system whose window
    displacements stay away from zero. The witness gains any extra keys."""
    conf = _rotation_displacements(sys, P * R)
    if conf is None:
        return None
    disp, tail = conf
    gaps = coord_distances(SpaceKind.CIRCLE, np.mod(disp, TWO_PI), np.zeros(1))
    if float(gaps.min()) <= cfg.tol + tail:
        return None
    return V.refuted(
        {"rule": "nonzero-displacement", "min_displacement": float(gaps.min()), **witness},
        "every window rotates by a provably nonzero angle, so no point is periodic",
    )


def check_periodic_points(sys: SystemView, cfg: CheckConfig) -> Verdict:
    """Existence of periodic points, sampled over the grid in one sweep."""
    cfg.validate(sys.space)
    P, R = cfg.max_period, cfg.repetitions
    refutation = _refute_periodicity(sys, cfg, P, R)
    if refutation is not None:
        return refutation
    grid = grid_points(sys.space, cfg)
    returns, periods = _periods(sys, grid, P, R, cfg.tol)
    if periods.any():
        j = int(np.flatnonzero(periods)[0])
        v = _periodic_verdict(grid[j], returns[:, j], periods[j], P, R, cfg.tol)
        return V.holds(
            {"witness": v.witness, "sampled": len(grid)},
            f"a sampled point is periodic with period {v.witness['period']}",
        )
    return V.refuted(
        {"sampled": len(grid), "min_recurrence_gap": float(returns[1 : P + 1].min())},
        "no sampled point returns to itself at this period horizon",
    )


def _window_descriptor(sys: SystemView, n: int) -> MapDescriptor | None:
    """Canonical composition of maps 1..n, when the algebra supports it."""
    out: MapDescriptor | None = None
    for step in sys.steps(n)[1 : n + 1]:
        out = step if out is None else compose(step, out)
    if out is None:
        return None
    if sys.space.kind is SpaceKind.CIRCLE:
        return out if circle_canonical(out) is not None else None
    if sys.space.kind is SpaceKind.UNIT_INTERVAL:
        return out if isinstance(out, PiecewiseLinear) else None
    return None


def _periodic_candidates(sys: SystemView, cfg: CheckConfig, P: int) -> list[Point] | None:
    """Solve omega_n(x) = x symbolically for n <= P; None when unsupported."""
    space = sys.space
    if space.kind is SpaceKind.BINARY_SEQ:
        return None
    candidates: list[Point] = []
    for n in range(1, P + 1):
        m = _window_descriptor(sys, n)
        if m is None:
            return None
        if space.kind is SpaceKind.CIRCLE:
            slope, offset = circle_canonical(m)
            fixed = circle_map_fixed_points(slope, offset)
            if fixed is None:
                # identity window: every point qualifies; grid stands in
                candidates.extend(grid_points(space, cfg))
            else:
                candidates.extend(CircleAngle(t) for t in fixed)
        else:
            candidates.extend(IntervalPoint(t) for t in pl_fixed_points(m))
    return candidates


def check_dense_periodicity(sys: SystemView, cfg: CheckConfig) -> Verdict:
    """Every eps-ball on the grid contains a verified periodic point."""
    cfg.validate(sys.space)
    P, R = cfg.max_period, cfg.repetitions

    refutation = _refute_periodicity(sys, cfg, P, R, max_period=P)
    if refutation is not None:
        return refutation

    candidates = _periodic_candidates(sys, cfg, P)
    centers = grid_points(sys.space, cfg)
    if candidates is not None:
        kind = sys.space.kind
        near = coord_distances(
            kind, point_coords(centers, kind)[:, None], point_coords(candidates, kind)
        ) < cfg.eps
    witnesses: list[dict] = []
    unfilled: list[int] = []
    for g, c in enumerate(centers):
        pool: list[Point] = []
        if candidates is not None:
            pool = [candidates[j] for j in np.flatnonzero(near[g])]
        pool.extend(_ball_points(sys.space, c, cfg.eps, cfg.ball_count))
        # one sweep per ball keeps the peak memory at one pool's orbits
        returns, periods = _periods(sys, pool, P, R, cfg.tol)
        if not periods.any():
            unfilled.append(g)
        elif len(witnesses) < 8:
            j = int(np.flatnonzero(periods)[0])
            v = _periodic_verdict(pool[j], returns[:, j], periods[j], P, R, cfg.tol)
            witnesses.append({"center": point_to_json(c), **v.witness})
    if not unfilled:
        return V.holds(
            {"balls": len(centers), "witnesses": witnesses, "max_period": P},
            f"every {cfg.eps:g}-ball contains a point of period <= {P}",
        )
    if candidates is not None:
        # the candidate solver is exhaustive for periods <= P, so an empty
        # ball is a genuine counterexample at this period horizon
        for g in unfilled:
            if not near[g].any():
                return V.refuted(
                    {
                        "ball_center": point_to_json(centers[g]),
                        "radius": cfg.eps,
                        "max_period": P,
                        "rule": "no-candidate-solutions",
                    },
                    f"no solution of any window equation of period <= {P} lies in this ball",
                )
    return V.inconclusive(
        {
            "unfilled_balls": [point_to_json(centers[g]) for g in unfilled[:8]],
            "unfilled_count": len(unfilled),
            "max_period": P,
        },
        "some balls produced no verified periodic point at this period horizon",
    )


# ---------------------------------------------------------------------------
# proximality checkers

class PairPredicate(str, Enum):
    PROXIMAL = "proximal"
    LI_YORKE = "li_yorke"


class _PairEvidence(NamedTuple):
    """Evidence on the pairs (x, y) from one source point x, one entry per
    partner y: the time-0 distance, and the minimum, maximum and time of the
    minimum of the pair distance inside the tail window, and its minimum
    over the whole horizon."""

    d0: np.ndarray
    tail_min: np.ndarray
    tail_max: np.ndarray
    min_time: np.ndarray
    overall_min: np.ndarray

    def at(self, j) -> "_PairEvidence":
        """The evidence on the partners j names: one index or an index array."""
        return _PairEvidence(*(a[j] for a in self))


class _PairSweep:
    """Orbits of every point in some groups, swept once, giving the pair
    evidence from any one of those points to every swept column. Isometric
    steps keep every pair distance at its time-0 value, so their sweep stops
    at row 0, which is then the whole tail window."""

    def __init__(self, sys: SystemView, groups: list[list[Point]], cfg: CheckConfig):
        self.kind, self.horizon, self.window = sys.space.kind, cfg.horizon, cfg.tail_window
        horizon = 0 if sys.steps_isometric else cfg.horizon
        self.orbits, self.cols = _sweep_groups(sys, groups, horizon)

    def evidence(self, g: int, i: int) -> _PairEvidence:
        """Evidence from point i of group g to every swept column."""
        x = self.cols[g][i : i + 1]
        series = coord_distances(self.kind, self.orbits, self.orbits[:, x])
        tail = series[-(self.window + 1) :]
        first = self.horizon + 1 - len(tail)  # the time of the tail's first row
        # a copy of row 0, so kept evidence does not pin the whole series
        return _PairEvidence(
            series[0].copy(), tail.min(axis=0), tail.max(axis=0),
            first + tail.argmin(axis=0), series.min(axis=0),
        )


def _pool_matrix(cols: list[np.ndarray]) -> np.ndarray:
    """The pools' column indices as the rows of one matrix. A shorter pool is
    padded by repeating its own columns, which changes no any, all or first
    index taken along a row."""
    width = max(len(c) for c in cols)
    return np.array([np.resize(c, width) for c in cols])


def _pair_outcomes(
    sys: SystemView, cfg: CheckConfig, predicate: PairPredicate, ev: _PairEvidence
) -> tuple[np.ndarray, np.ndarray]:
    """The rule of each pair predicate: the (holds, refuted) flags of every
    pair in the evidence; neither flag means inconclusive. A pair with
    x == y, which is exactly where d0 == 0.0, stays at distance 0: it is
    proximal and not Li-Yorke."""
    if predicate is PairPredicate.PROXIMAL:
        holds = ev.tail_min < cfg.eps
        # isometric steps keep the pair at its time-0 distance forever
        return holds, ~holds & sys.steps_isometric
    same = ev.d0 == 0.0
    if sys.steps_isometric:
        # a constant pair distance cannot both vanish and exceed delta
        return np.zeros_like(same), np.ones_like(same)
    return (ev.tail_min < cfg.eps) & (ev.tail_max > cfg.delta), same


def _pair_verdict(
    sys: SystemView, cfg: CheckConfig, predicate: PairPredicate, x: Point, y: Point,
    ev: _PairEvidence,
) -> Verdict:
    """The verdict on the pair (x, y), whose evidence is ev; its outcome
    comes from _pair_outcomes, and this only formats its witness."""
    holds, refuted = (bool(flag) for flag in _pair_outcomes(sys, cfg, predicate, ev))
    d0, tail_min, tail_max = float(ev.d0), float(ev.tail_min), float(ev.tail_max)
    pair = [point_to_json(x), point_to_json(y)]
    if predicate is PairPredicate.PROXIMAL:
        if d0 == 0.0:
            return V.holds(
                {"pair": pair, "tail_min": 0.0, "time": cfg.horizon},
                "identical points stay at distance zero",
            )
        if refuted:
            return V.refuted(
                {"pair": pair, "distance": d0, "rule": "isometric-steps"},
                "isometric steps keep the pair distance constant, never below eps",
            )
        if holds:
            return V.holds(
                {"pair": pair, "tail_min": tail_min, "time": int(ev.min_time)},
                "isometric steps keep the pair closer than eps forever"
                if sys.steps_isometric
                else f"pair distance falls to {tail_min:.3g} inside the tail window",
            )
        return V.inconclusive(
            {
                "pair": pair,
                "tail_min": tail_min,
                "overall_min": float(ev.overall_min),
                "horizon": cfg.horizon,
            },
            "pair never approached within eps at this horizon",
        )
    if d0 == 0.0:
        return V.refuted(
            {"pair": pair, "tail_max": 0.0},
            "identical points have zero spread forever",
        )
    if refuted:
        return V.refuted(
            {"pair": pair, "distance": d0, "rule": "isometric-steps"},
            "a constant pair distance cannot both vanish and exceed delta",
        )
    parts = {
        "pair": pair,
        "tail_min": tail_min,
        "tail_max": tail_max,
        "eps": cfg.eps,
        "delta": cfg.delta,
    }
    if holds:
        return V.holds(parts, "the pair both approaches and separates inside the tail window")
    return V.inconclusive(
        {**parts, "horizon": cfg.horizon},
        "tail window does not show both approach and separation",
    )


def _pair_check(
    sys: SystemView, x: Point, y: Point, cfg: CheckConfig, predicate: PairPredicate
) -> Verdict:
    cfg.validate(sys.space)
    sweep = _PairSweep(sys, [[x, y]], cfg)
    ev = sweep.evidence(0, 0).at(sweep.cols[0][1])
    return _pair_verdict(sys, cfg, predicate, x, y, ev)


def proximal_check(sys: SystemView, x: Point, y: Point, cfg: CheckConfig) -> Verdict:
    """Tail-window minimum of the pair distance as a liminf proxy."""
    return _pair_check(sys, x, y, cfg, PairPredicate.PROXIMAL)


def li_yorke_check(sys: SystemView, x: Point, y: Point, cfg: CheckConfig) -> Verdict:
    """Tail min below eps and tail max above delta, components reported."""
    return _pair_check(sys, x, y, cfg, PairPredicate.LI_YORKE)


def cell_density(sys: SystemView, x: Point, cfg: CheckConfig, predicate: PairPredicate) -> Verdict:
    """Every eps-ball on the grid contains a partner for x under the predicate."""
    cfg.validate(sys.space)
    cells = _cell_evidence(sys, [x], cfg)
    return _cell_density(sys, cfg, predicate, x, cells.evidence[0], cells)


class _Cells(NamedTuple):
    """Evidence from each of some points to every swept column, and the grid
    centers with their pools; row k of cols holds the columns of pool k."""

    evidence: list[_PairEvidence]
    centers: list[Point]
    pools: list[list[Point]]
    cols: np.ndarray


def _cell_evidence(sys: SystemView, xs: list[Point], cfg: CheckConfig) -> _Cells:
    """Cell evidence for each x, from one sweep over every x and every pool."""
    centers = grid_points(sys.space, cfg)
    pools = [_ball_points(sys.space, c, cfg.eps, cfg.ball_count) for c in centers]
    sweep = _PairSweep(sys, [xs] + pools, cfg)
    evidence = [sweep.evidence(0, i) for i in range(len(xs))]
    return _Cells(evidence, centers, pools, _pool_matrix(sweep.cols[1:]))


def _cell_density(
    sys: SystemView, cfg: CheckConfig, predicate: PairPredicate, x: Point,
    ev: _PairEvidence, cells: _Cells,
) -> Verdict:
    """Cell density of x, whose evidence to every swept column is ev."""
    centers, pools, cols = cells.centers, cells.pools, cells.cols
    holds, refuted = _pair_outcomes(sys, cfg, predicate, ev)
    if predicate is PairPredicate.LI_YORKE:
        # x is no Li-Yorke partner of itself, so it is skipped
        other = ev.d0 != 0.0
        holds, refuted = holds & other, refuted & other
    holds, refuted = holds[cols], refuted[cols]
    found = holds.any(axis=1)
    if found.all():
        witnesses = [
            {"center": point_to_json(c), "partner": point_to_json(pools[k][holds[k].argmax()])}
            for k, c in enumerate(centers[:8])
        ]
        return V.holds(
            {"balls": len(centers), "witnesses": witnesses, "predicate": predicate.value},
            f"every {cfg.eps:g}-ball contains a {predicate.value} partner",
        )
    unfilled = np.flatnonzero(~found)
    if sys.steps_isometric and refuted[unfilled].any(axis=1).all():
        # the witness is the first refuted sample of the first unfilled ball
        k = unfilled[0]
        j = refuted[k].argmax()
        v = _pair_verdict(sys, cfg, predicate, x, pools[k][j], ev.at(cols[k, j]))
        return V.refuted(
            {
                "ball_center": point_to_json(centers[k]),
                "sample_verdict": v.to_json(),
                "predicate": predicate.value,
            },
            "isometric steps exclude such partners in some balls",
        )
    return V.inconclusive(
        {
            "unfilled_balls": [point_to_json(centers[k]) for k in unfilled[:8]],
            "unfilled_count": len(unfilled),
            "predicate": predicate.value,
        },
        f"{len(unfilled)} balls produced no {predicate.value} partner at this horizon",
    )


def _cell_density_all(sys: SystemView, cfg: CheckConfig, predicate: PairPredicate) -> Verdict:
    """Cell density of every grid point under the predicate; both predicates
    read one evidence table per view."""
    xs = grid_points(sys.space, cfg)
    cells = _cached(sys, ("cell_evidence", cfg), lambda: _cell_evidence(sys, xs, cfg))
    verdicts = [
        (x, _cell_density(sys, cfg, predicate, x, ev, cells))
        for x, ev in zip(xs, cells.evidence)
    ]
    bad = [(x, v) for x, v in verdicts if not v.holds]
    if not bad:
        return V.holds(
            {"points": len(verdicts), "predicate": predicate.value},
            f"the {predicate.value} cell of every sampled point is dense",
        )
    x, v = next(((x, v) for x, v in bad if v.refuted), bad[0])
    if v.refuted:
        return V.refuted(
            {"point": point_to_json(x), "cell_verdict": v.to_json()},
            f"a sampled point has a provably non-dense {predicate.value} cell",
        )
    return V.inconclusive(
        {"point": point_to_json(x), "cell_verdict": v.to_json()},
        f"density of some {predicate.value} cells is unresolved",
    )


def check_proximal_cell_density(sys: SystemView, cfg: CheckConfig) -> Verdict:
    """Every sampled point has a dense proximal cell."""
    cfg.validate(sys.space)
    return _cell_density_all(sys, cfg, PairPredicate.PROXIMAL)


def check_li_yorke_cell_density(sys: SystemView, cfg: CheckConfig) -> Verdict:
    """Every sampled point has a dense Li-Yorke cell."""
    cfg.validate(sys.space)
    return _cell_density_all(sys, cfg, PairPredicate.LI_YORKE)


def check_proximal_pairs_density(sys: SystemView, cfg: CheckConfig) -> Verdict:
    """Dense proximal pairs: every ordered pair of grid balls holds one."""
    cfg.validate(sys.space)
    centers = grid_points(sys.space, cfg)
    pools = [_ball_points(sys.space, c, cfg.eps, cfg.ball_count)[:5] for c in centers]
    sweep = _PairSweep(sys, pools, cfg)
    cols = _pool_matrix(sweep.cols)
    missing: list[tuple[int, int]] = []
    refutable = 0
    for i, pool in enumerate(pools):
        # a ball pair (i, j) needs one proximal pair; it is refutable when
        # every sampled pair is refuted. Once every ball j has a proximal
        # pair, no further x of ball i is swept.
        found = np.zeros(len(pools), dtype=bool)
        all_refuted = np.ones(len(pools), dtype=bool)
        for k in range(len(pool)):
            if found.all():
                break
            holds, refuted = _pair_outcomes(
                sys, cfg, PairPredicate.PROXIMAL, sweep.evidence(i, k)
            )
            found |= holds[cols].any(axis=1)
            all_refuted &= refuted[cols].all(axis=1)
        missing.extend((i, int(j)) for j in np.flatnonzero(~found))
        refutable += int(all_refuted[~found].sum())
    if not missing:
        return V.holds(
            {"ball_pairs": len(centers) ** 2},
            "every sampled pair of balls contains a proximal pair",
        )
    i, j = missing[0]
    ball_pair = [point_to_json(centers[i]), point_to_json(centers[j])]
    if sys.steps_isometric and refutable == len(missing):
        return V.refuted(
            {"ball_pair": ball_pair, "rule": "isometric-steps"},
            "isometric steps keep all sampled cross-ball pairs separated",
        )
    return V.inconclusive(
        {"missing_count": len(missing), "ball_pair": ball_pair},
        f"{len(missing)} ball pairs produced no proximal pair at this horizon",
    )


def ball_diameter_series(
    sys: SystemView, center: Point, radius: float, cfg: CheckConfig, horizon: int
) -> np.ndarray:
    """Orbit diameter of the ball around center for n = 0..horizon: exact
    from its region chain when the steps allow it, else from cfg.ball_count
    sampled points."""
    chains = _ball_chains(sys, [(center, radius)], horizon)
    if chains is not None:
        return chains.diameters()[:, 0]
    cloud = _ball_points(sys.space, center, radius, cfg.ball_count)
    orbits, (idx,) = _sweep_groups(sys, [cloud], horizon)
    return _cloud_diam_series(sys.space.kind, orbits[:, idx])
