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
    Rotation,
    apply_batch,
    circle_canonical,
    circle_map_fixed_points,
    compose,
    pl_fixed_points,
)
from .orbit import Mode, SystemView, orbit_matrix
from .regions import RegionChains, ball_chains
from .space import (
    TWO_PI,
    MAX_WORD_BITS,
    PhaseSpace,
    Point,
    SpaceError,
    SpaceKind,
    ball_coords,
    canonical_coord,
    coord_distances,
    coord_to_json,
    grid_coords,
    grid_size,
    grid_window,
    point_coords,
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
        for key, least in (
            ("horizon", 1), ("grid_resolution", 2), ("ball_count", 1),
            ("max_period", 1), ("repetitions", 1),
        ):
            if getattr(self, key) < least:
                raise SpaceError(f"need {key} >= {least}, got {key}={getattr(self, key)}")
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
        if not self.tol >= 0.0:
            raise SpaceError(f"tol must be nonnegative, got {self.tol}")
        need = _estimated_bytes(self, space)
        if need > MEMORY_BUDGET:
            raise SpaceError(
                f"this config needs about {need / 2**30:.1f} GiB for its hit table, ball "
                f"sweep, pair table and periodicity sweep, over the "
                f"{MEMORY_BUDGET / 2**30:g} GiB budget"
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
    """Bytes of the G x G x (N+1) boolean hit table, the ball-table sweep,
    (N+1) rows of ball_count points per ball, the pair table, one byte from
    each pair-pool point to each pool point, and dense periodicity's sweep,
    P*R+1 rows of the ball_count samples of every eps-ball, from the
    config's shapes alone."""
    G = grid_size(space, cfg.grid_resolution)
    itemsize = point_coords([], space.kind).itemsize
    points = G * len(_rungs(space, cfg, 0.25, 3)) * cfg.ball_count
    # each ball pool starts with its center, so the grid is among the pool points
    pair_codes = G * min(cfg.ball_count, _PAIR_POOL) * G * cfg.ball_count
    periods = (cfg.max_period * cfg.repetitions + 1) * G * cfg.ball_count
    return (cfg.horizon + 1) * (G * G + points * itemsize) + pair_codes + periods * itemsize


# ---------------------------------------------------------------------------
# shared machinery

def checker_grid(space: PhaseSpace, cfg: CheckConfig) -> np.ndarray:
    """Coordinates of the checker grid; binary words take the space's word
    length, zeros past the grid's coordinates, so orbits keep enough
    resolution for the horizon."""
    grid = grid_coords(space, cfg.grid_resolution)
    if space.kind is SpaceKind.BINARY_SEQ:
        grid["length"] = grid["eff"] = space.word_length
    return grid


def _blocks(n: int, step: int) -> list[slice]:
    """range(n) in slices of step indices."""
    return [slice(lo, lo + step) for lo in range(0, n, step)]


def _sweep_groups(
    sys: SystemView, groups: list[np.ndarray], horizon: int
) -> tuple[np.ndarray, list[np.ndarray]]:
    """One orbit sweep over the distinct start coordinates of several groups.

    Returns the orbit matrix and, for each group, the column of each of its
    points. Starts are deduplicated by their exact bytes, so 0.0 and -0.0
    keep separate columns. Element-wise maps make every column bit-identical
    to a sweep of that start alone.
    """
    coords = np.concatenate(groups)
    _, first, inverse = np.unique(
        coords.view(f"V{coords.dtype.itemsize}"), return_index=True, return_inverse=True
    )
    orbits = orbit_matrix(sys, coords[first], horizon)
    return orbits, np.split(inverse.reshape(-1), np.cumsum([len(g) for g in groups])[:-1])


def _ball_chains(
    sys: SystemView, centers: np.ndarray, radii: np.ndarray, horizon: int
) -> RegionChains | None:
    """Region chains of the balls around the center coordinates through
    steps 1..horizon; None when some step has no exact region image."""
    return ball_chains(sys.space.kind, centers, radii, sys.steps(horizon)[1 : horizon + 1])


def _cloud_diam_series(kind: SpaceKind, orbits: np.ndarray) -> np.ndarray:
    """Max pairwise distance per time row of an orbit matrix; 0 for fewer
    than two columns."""
    i, j = np.triu_indices(orbits.shape[1], 1)
    return coord_distances(kind, orbits[:, i], orbits[:, j]).max(axis=1, initial=0.0)


def _rungs(space: PhaseSpace, cfg: CheckConfig, ratio: float, count: int) -> list[float]:
    """The radii eps * ratio**i, i < count, that the space resolves: binary
    words see radii above 1/word_length, and validate keeps eps resolvable."""
    rungs = [cfg.eps * ratio**i for i in range(count)]
    if space.kind is SpaceKind.BINARY_SEQ:
        rungs = [r for r in rungs if r > 1.0 / space.word_length]
    return rungs


def _rotation_displacements(sys: SystemView, horizon: int) -> tuple[np.ndarray, float] | None:
    """Cumulative rotation displacements d_1..d_N plus a forever-tail bound.

    Returns None unless the limit is the identity rotation and the
    displacement after the horizon is provably confined: the limit system
    never moves, and a non-autonomous system needs isometric steps that are
    all rotations up to the horizon plus a closed-form tail bound.
    """
    limit = sys.fam.limit
    if not isinstance(limit, Rotation) or limit.amount != 0.0:
        return None
    if sys.mode is Mode.AUTONOMOUS_LIMIT:
        return np.zeros(horizon), 0.0
    tail = sys.fam.series_tail_bound
    if not sys.fam.steps_isometric or tail is None:
        return None
    steps = sys.steps(horizon)[1 : horizon + 1]
    if not all(isinstance(m, Rotation) for m in steps):
        return None
    return np.cumsum([m.amount for m in steps]), float(tail(horizon))


def _confinement_gaps(
    sys: SystemView, horizon: int, source: float, target: float
) -> tuple[float, float, float] | None:
    """Displacement confinement of a rotation system: how close the orbit
    of angle source comes to angle target. Returns the least gap up to the
    horizon, a lower bound on every later gap, and the displacement tail
    bound; None unless _rotation_displacements confines the displacement."""
    conf = _rotation_displacements(sys, horizon)
    if conf is None:
        return None
    disp, tail = conf
    base = target - source
    gaps = coord_distances(SpaceKind.CIRCLE, np.mod(base - disp, TWO_PI), np.zeros(1))
    return float(gaps.min()), max(0.0, float(gaps[-1]) - tail), tail


def _cached(sys: SystemView, key: tuple, build):
    """build(), run once per view and key; what it builds is a pure function
    of the view and the key's config, so caching is transparent."""
    if key not in sys._cache:
        sys._cache[key] = build()
    return sys._cache[key]


@dataclass
class _BallEvidence:
    """How the grid balls move, for one view and config. Ball k = u * R + i
    is grid center u with rung i of _rungs, so ball u * R is the eps-ball
    around u. It has the diameter series diams[k] for n = 0..N and a
    collapse step and point (region chains only). The eps-balls alone have
    hits[u, v, n], image n of ball u within eps of center v, dense[u, n],
    image n of ball u within eps of every point of the grid (its covering
    defect below eps), and final_defects[u], how far image N of ball u is
    from covering the grid."""

    centers: np.ndarray  # coordinates, shape (G,)
    balls: list[tuple[np.ndarray, float]]
    diams: np.ndarray  # float, shape (G * R, N+1)
    collapses: list[tuple[int, float] | None]
    hits: np.ndarray  # bool, shape (G, G, N+1)
    dense: np.ndarray  # bool, shape (G, N+1)
    final_defects: np.ndarray  # float, shape (G,)

    def collapse(self, u: int) -> tuple[int, float] | None:
        """Collapse of the eps-ball around center u."""
        return self.collapses[u * (len(self.balls) // len(self.centers))]


def _ball_evidence(sys: SystemView, cfg: CheckConfig) -> _BallEvidence:
    return _cached(sys, ("ball_evidence", cfg), lambda: _compute_ball_evidence(sys, cfg))


def _compute_ball_evidence(sys: SystemView, cfg: CheckConfig) -> _BallEvidence:
    """One region chain or one orbit sweep over every ball; only the arrays
    derived from it are kept."""
    kind, N = sys.space.kind, cfg.horizon
    centers = checker_grid(sys.space, cfg)
    rungs = _rungs(sys.space, cfg, 0.25, 3)
    G, R = len(centers), len(rungs)
    balls = [(c, r) for c in centers for r in rungs]

    chains = _ball_chains(sys, np.repeat(centers, R), np.tile(rungs, G), N)
    if chains is not None:
        hits = np.zeros((G, G, N + 1), dtype=bool)
        chains.hits(R, centers, cfg.eps, hits)
        defects = chains.covering_defects()[:, ::R]
        return _BallEvidence(
            centers, balls, np.ascontiguousarray(chains.diameters().T),
            [chains.collapse(k) for k in range(G * R)], hits,
            np.ascontiguousarray(defects.T < cfg.eps), defects[-1].copy(),
        )

    per_rung = [ball_coords(sys.space, centers, r, cfg.ball_count) for r in rungs]
    orbits, cols = _sweep_groups(sys, [cloud for u in zip(*per_rung) for cloud in u], N)
    # the first rung is eps
    table = _sampled_ball_table(sys.space, cfg.grid_resolution, cfg.eps, centers, orbits, cols[::R])
    diams = np.array([_cloud_diam_series(kind, orbits[:, idx]) for idx in cols])
    return _BallEvidence(centers, balls, diams, [None] * (G * R), *table)


def _sampled_ball_table(
    space: PhaseSpace, resolution: int, eps: float, centers: np.ndarray,
    orbits: np.ndarray, cols: list[np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The hits, dense flags and final defects of _BallEvidence for balls
    whose samples are the orbit columns cols[u], with centers the checker
    grid of grid_coords(space, resolution), which it equals on continuum
    spaces. Each sample is measured only against its grid_window, in row
    blocks of at most half as many window elements as one ball's samples
    against the whole grid over every row: each element also takes an index
    and a gathered grid point."""
    kind, T, G, B = space.kind, len(orbits), len(centers), len(cols)
    sizes = [len(idx) for idx in cols]
    # the samples: column idx[s] of ball owner[s]
    idx, owner = np.concatenate(cols), np.repeat(np.arange(B), sizes)[:, None]
    full = grid_coords(space, resolution)
    binary = kind is SpaceKind.BINARY_SEQ
    hits = np.zeros((B, G, T), dtype=bool)
    dense = np.empty((T, B), dtype=bool)
    width = grid_window(space, resolution, full[:0], eps).shape[1]
    step = max(1, T * max(sizes) * G // (2 * len(idx) * width + binary * B * G))
    for rows in _blocks(T, step):
        cloud = orbits[rows, idx]
        window = grid_window(space, resolution, cloud, eps)
        n = np.arange(len(cloud))[:, None, None]
        near = coord_distances(kind, cloud[..., None], centers.take(window)) < eps
        hits.reshape(-1)[((owner * G + window) * T + rows.start + n)[near]] = True
        if binary:  # grid words end at the grid's coordinates, centers at the word length
            near = coord_distances(kind, cloud[..., None], full.take(window)) < eps
            covered = np.zeros((len(cloud), B, G), dtype=bool)
            covered.reshape(-1)[((n * B + owner) * G + window)[near]] = True
            dense[rows] = covered.all(axis=2)
    dense = np.ascontiguousarray(dense.T) if binary else hits.all(axis=1)
    # per ball, the grid point farthest from its nearest sample at the last row
    last = coord_distances(kind, orbits[-1, idx, None], full)
    final = np.minimum.reduceat(last, np.cumsum([0] + sizes[:-1]), axis=0).max(axis=1)
    return hits, dense, final


# ---------------------------------------------------------------------------
# pointwise checkers

def check_equicontinuity(sys: SystemView, cfg: CheckConfig) -> Verdict:
    """Search a ladder of pair separations delta' for one that keeps all
    sampled pairs within eps for every time up to the horizon."""
    cfg.validate(sys.space)
    space = sys.space
    N = cfg.horizon
    rungs = _rungs(space, cfg, 0.5, 5)
    centers = checker_grid(space, cfg)

    worst_for_smallest: tuple[np.ndarray, np.ndarray, int, float] | None = None
    for rung in rungs:
        worst_sep = 0.0
        worst_pair: tuple[np.ndarray, np.ndarray, int] | None = None
        # each ball's samples: its center, then its partners
        groups = [
            (u, g) for u, g in enumerate(ball_coords(space, centers, rung, cfg.ball_count))
            if len(g) > 1
        ]
        if groups:
            orbits, cols = _sweep_groups(sys, [g for _, g in groups], N)
            for (u, g), idx in zip(groups, cols):
                seps = coord_distances(space.kind, orbits[:, idx[1:]], orbits[:, idx[:1]])
                flat = int(np.argmax(seps))
                t, j = divmod(flat, seps.shape[1])
                if seps[t, j] > worst_sep:
                    worst_sep, worst_pair = float(seps[t, j]), (centers[u], g[j + 1], t)
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
                "pair": [coord_to_json(x, space.kind), coord_to_json(y, space.kind)],
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
    kind = sys.space.kind
    for k in failing:
        (center, radius), series, collapse = ev.balls[k], ev.diams[k], ev.collapses[k]
        if float(np.max(series[1:])) > cfg.delta - cfg.tol:
            continue
        if collapse is not None:
            step, p = collapse
            if _constant_after_collapse(sys, p, cfg.horizon):
                return V.refuted(
                    {
                        "ball_center": coord_to_json(center, kind),
                        "radius": radius,
                        "collapse_step": step,
                        "max_diameter": float(np.max(series)),
                    },
                    f"{what}: the ball collapses to a point at step {step} and stays collapsed",
                )
        if sys.steps_isometric:
            return V.refuted(
                {
                    "ball_center": coord_to_json(center, kind),
                    "radius": radius,
                    "max_diameter": float(np.max(series)),
                    "rule": "isometric-steps",
                },
                f"{what}: isometric steps keep the ball diameter at most {2 * radius:g} forever",
            )
    return None


def _constant_after_collapse(sys: SystemView, p: float, horizon: int) -> bool:
    """True when the point p a region chain collapsed to provably stays put.

    The chain already witnesses collapse up to the horizon; forever needs
    every step after the horizon to be the limit map, and p to be a fixed
    point of the limit.
    """
    cutoff = sys.constant_tail_from()
    if cutoff is None or horizon < cutoff - 1:
        return False
    kind = sys.space.kind
    return canonical_coord(apply_batch(sys.fam.limit, np.array([p]), kind)[0], kind) == p


def check_sensitivity(sys: SystemView, cfg: CheckConfig) -> Verdict:
    """Every grid point, every ladder radius: some time with ball diameter > delta."""
    cfg.validate(sys.space)
    kind = sys.space.kind
    ev = _ball_evidence(sys, cfg)
    separated = ev.diams[:, 1:] > cfg.delta
    failing = np.flatnonzero(~separated.any(axis=1))
    if not failing.size:
        first = separated.argmax(axis=1) + 1
        times = [
            {"center": coord_to_json(c, kind), "radius": r, "separation_time": int(t)}
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
            "ball_center": coord_to_json(c, kind),
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
    N, kind = cfg.horizon, sys.space.kind
    ev = _ball_evidence(sys, cfg)
    # K is one past the last diameter of at most delta, found backwards
    below = ev.diams[:, ::-1] <= cfg.delta
    K = np.where(below.any(axis=1), N + 1 - below.argmax(axis=1), 1)
    failing = np.flatnonzero(K > N // 2)
    if not failing.size:
        entries = [
            {"center": coord_to_json(c, kind), "radius": r, "K": int(k)}
            for (c, r), k in zip(ev.balls, K)
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
        {"ball_center": coord_to_json(c, kind), "radius": r, "horizon": N},
        "no persistent spreading found and no symbolic rule applies",
    )


# ---------------------------------------------------------------------------
# open-set checkers (transitivity family)

def _prove_pair_miss(
    sys: SystemView, cfg: CheckConfig, ev: _BallEvidence, u: int, v: int
) -> dict | None:
    """Proof that the eps-ball around center u can never meet the eps-ball
    around center v."""
    kind, uc, vc = sys.space.kind, ev.centers[u], ev.centers[v]
    # collapse rule: the ball degenerates to an eventually fixed point
    collapse = ev.collapse(u)
    if collapse is not None:
        step, p = collapse
        if _constant_after_collapse(sys, p, cfg.horizon):
            gap = float(coord_distances(kind, np.array([p]), vc)[0])
            if gap >= cfg.eps:
                return {
                    "rule": "collapse",
                    "collapse_step": step,
                    "stuck_at": coord_to_json(p, kind),
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
    kind = sys.space.kind
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
                    "from_center": coord_to_json(ev.centers[u], kind),
                    "to_center": coord_to_json(ev.centers[v], kind),
                    **proof,
                },
                "a ball provably never reaches a target ball",
            )
    return V.inconclusive(
        {
            "missed_pairs": [
                [coord_to_json(ev.centers[u], kind), coord_to_json(ev.centers[v], kind)]
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
        name: coord_to_json(ev.centers[u], sys.space.kind)
        for name, u in (("U1", u1), ("V1", v1), ("U2", u2), ("V2", v2))
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
    centers, kind = ev.centers, sys.space.kind
    G = len(centers)
    slack = 2.0 * (cfg.eps + cfg.eps) + cfg.tol
    dmat = coord_distances(kind, centers[:, None], centers)
    hi = int(np.argmax(dmat))
    u1, u2 = divmod(hi, G)
    if dmat[u1, u2] - 0.0 <= slack:  # targets at spacing 0: v1 = v2
        return None
    return {
        "U1": coord_to_json(centers[u1], kind),
        "U2": coord_to_json(centers[u2], kind),
        "V1": coord_to_json(centers[0], kind),
        "V2": coord_to_json(centers[0], kind),
        "rule": "isometric-spacing",
        "source_gap": float(dmat[u1, u2]),
        "target_gap": 0.0,
    }


def check_topological_mixing(sys: SystemView, cfg: CheckConfig) -> Verdict:
    """Two tests, both reported: hit persistence and cloud convergence."""
    cfg.validate(sys.space)
    N, kind = cfg.horizon, sys.space.kind
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
    bad = ~ev.dense[:, ::-1]
    K = np.where(bad.any(axis=1), N + 1 - bad.argmax(axis=1), 0)
    late = K > N // 2
    convergence_ok = not late.any()
    conv_K = int(np.where(late, 0, K).max())
    conv_fail = None if convergence_ok else int(late.argmax())
    defects_final = ev.final_defects.tolist()

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
                    "from_center": coord_to_json(ev.centers[u], kind),
                    "to_center": coord_to_json(ev.centers[v], kind),
                    **proof,
                },
                "a ball pair provably stops interacting",
            )
    if sys.steps_isometric:
        idx = conv_fail if conv_fail is not None else 0
        return V.refuted(
            {**tests, "rule": "isometric-steps", "ball_center": coord_to_json(ev.centers[idx], kind)},
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
    kind = space.kind
    starts = checker_grid(space, cfg)
    targets = grid_coords(space, cfg.grid_resolution)

    uncovered: list[tuple[int, int]] = []  # start and missed target
    visit_times: list[int] = []
    orbits = orbit_matrix(sys, starts, N)
    for i in range(len(starts)):
        ok = coord_distances(kind, orbits[:, i, None], targets) <= cfg.eps
        any_ok = ok.any(axis=0)
        if any_ok.all():
            visit_times.append(int(ok.argmax(axis=0).max()))
        else:
            uncovered.append((i, int(np.argmin(any_ok))))

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
            fixed = np.flatnonzero(apply_batch(sys.fam.limit, orb[lo:], kind) == orb[lo:])
            if fixed.size:
                m = lo + int(fixed[0])
                gap = float(coord_distances(kind, orb[: m + 1], targets[t : t + 1]).min())
                if gap > cfg.eps:
                    return V.refuted(
                        {
                            "start": coord_to_json(x, kind),
                            "stuck_at": coord_to_json(orb[m], kind),
                            "stuck_from": m,
                            "missed_target": coord_to_json(targets[t], kind),
                            "gap": gap,
                            "rule": "eventually-fixed-orbit",
                        },
                        "an orbit freezes at a fixed point and misses a cell forever",
                    )
        conf = _confinement_gaps(sys, N, x, targets[t])
        if conf is not None:
            min_gap, future, tail = conf
            if min_gap > cfg.eps + cfg.tol and future > cfg.eps + cfg.tol:
                return V.refuted(
                    {
                        "start": coord_to_json(x, kind),
                        "missed_target": coord_to_json(targets[t], kind),
                        "min_gap": min_gap,
                        "tail_bound": tail,
                        "rule": "displacement-confinement",
                    },
                    "total rotation displacement is confined, leaving a cell unreachable",
                )
    return V.inconclusive(
        {
            "non_covered_starts": [coord_to_json(starts[i], kind) for i, _ in uncovered[:8]],
            "uncovered_count": len(uncovered),
            "horizon": N,
        },
        f"{len(uncovered)} of {len(starts)} grid starts left some cell unvisited "
        "at this horizon",
    )


# ---------------------------------------------------------------------------
# recurrence checkers

def _periods(kind: SpaceKind, orbits: np.ndarray, P: int, R: int, tol: float) -> np.ndarray:
    """Each column's least period in an orbit matrix of rows n = 0..P*R: the
    least n <= P whose returns d(omega_n(x), x) at every multiple n*k, k <= R,
    lie within tol, or 0 when there is none. Returns are measured R rows at a
    time, so no array outgrows the sweep."""
    periods = np.zeros(orbits.shape[1], dtype=int)
    for n in range(P, 0, -1):
        returns = coord_distances(kind, orbits[n : n * R + 1 : n], orbits[0])
        periods[(returns <= tol).all(axis=0)] = n
    return periods


def _periodic_verdict(
    kind: SpaceKind, orbit: np.ndarray, period: int, P: int, R: int, tol: float
) -> Verdict:
    """check_periodic's verdict on orbit[0] from its orbit column and its period."""
    returns = coord_distances(kind, orbit, orbit[0])
    if period:
        return V.holds(
            {
                "point": coord_to_json(orbit[0], kind),
                "period": int(period),
                "revisit_gaps": returns[period * np.arange(1, R + 1)].tolist(),
                "repetitions": R,
            },
            f"orbit returns within {tol:g} at every multiple of {period}",
        )
    closest = float(returns[1 : P + 1].min())
    return V.refuted(
        {"point": coord_to_json(orbit[0], kind), "max_period": P, "min_recurrence_gap": closest},
        f"no period up to {P}; closest return misses by {closest:.3g}",
    )


def check_periodic(sys: SystemView, x: Point, cfg: CheckConfig) -> Verdict:
    """Least n <= P with orbit returns at every multiple n*k, k <= R, within tol.

    Both modes use the same multiple-revisit rule so that autonomous wrappers
    produce identical verdicts in either mode.
    """
    cfg.validate(sys.space)
    P, R = cfg.max_period, cfg.repetitions
    kind = sys.space.kind
    orbit = orbit_matrix(sys, point_coords([x], kind), P * R)
    period = _periods(kind, orbit, P, R, cfg.tol)[0]
    return _periodic_verdict(kind, orbit[:, 0], period, P, R, cfg.tol)


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
    kind = sys.space.kind
    grid = checker_grid(sys.space, cfg)
    orbits = orbit_matrix(sys, grid, P * R)
    periods = _periods(kind, orbits, P, R, cfg.tol)
    if periods.any():
        j = int(np.flatnonzero(periods)[0])
        v = _periodic_verdict(kind, orbits[:, j], periods[j], P, R, cfg.tol)
        return V.holds(
            {"witness": v.witness, "sampled": len(grid)},
            f"a sampled point is periodic with period {v.witness['period']}",
        )
    return V.refuted(
        {
            "sampled": len(grid),
            "min_recurrence_gap": float(coord_distances(kind, orbits[1 : P + 1], orbits[0]).min()),
        },
        "no sampled point returns to itself at this period horizon",
    )


def _periodic_candidates(sys: SystemView, cfg: CheckConfig, P: int) -> np.ndarray | None:
    """Solve omega_n(x) = x symbolically for n <= P, as coordinates; None
    when unsupported. Window n is map n composed after window n-1, built once."""
    space = sys.space
    if space.kind is SpaceKind.BINARY_SEQ:
        return None
    candidates: list[np.ndarray] = []
    window: MapDescriptor | None = None
    for step in sys.steps(P)[1 : P + 1]:
        window = step if window is None else compose(step, window)
        if space.kind is SpaceKind.CIRCLE:
            canon = circle_canonical(window)
            if canon is None:
                return None
            fixed = circle_map_fixed_points(*canon)
            # an identity window fixes every point; the grid stands in
            candidates.append(checker_grid(space, cfg) if fixed is None else np.array(fixed))
        elif isinstance(window, PiecewiseLinear):
            candidates.append(np.array(pl_fixed_points(window)))
        else:
            return None
    # each identity window adds the whole grid again; keep every point once
    coords = np.concatenate(candidates).astype(float)
    first = np.unique(coords.view(f"V{coords.itemsize}"), return_index=True)[1]
    return coords[np.sort(first)]


def check_dense_periodicity(sys: SystemView, cfg: CheckConfig) -> Verdict:
    """Every eps-ball on the grid contains a verified periodic point."""
    cfg.validate(sys.space)
    P, R = cfg.max_period, cfg.repetitions

    refutation = _refute_periodicity(sys, cfg, P, R, max_period=P)
    if refutation is not None:
        return refutation

    kind = sys.space.kind
    candidates = _periodic_candidates(sys, cfg, P)
    centers = checker_grid(sys.space, cfg)
    pools = ball_coords(sys.space, centers, cfg.eps, cfg.ball_count)
    if candidates is not None:
        near = coord_distances(kind, centers[:, None], candidates) < cfg.eps
        pools = [np.concatenate([candidates[n], pool]) for n, pool in zip(near, pools)]
    # one sweep of the distinct points of every pool; _estimated_bytes counts
    # its sampled points
    orbits, cols = _sweep_groups(sys, pools, P * R)
    periods = _periods(kind, orbits, P, R, cfg.tol)
    witnesses: list[dict] = []
    unfilled: list[int] = []
    for g, (c, idx) in enumerate(zip(centers, cols)):
        found = np.flatnonzero(periods[idx])
        if not found.size:
            unfilled.append(g)
        elif len(witnesses) < 8:
            j = idx[found[0]]
            v = _periodic_verdict(kind, orbits[:, j], periods[j], P, R, cfg.tol)
            witnesses.append({"center": coord_to_json(c, kind), **v.witness})
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
                        "ball_center": coord_to_json(centers[g], kind),
                        "radius": cfg.eps,
                        "max_period": P,
                        "rule": "no-candidate-solutions",
                    },
                    f"no solution of any window equation of period <= {P} lies in this ball",
                )
    return V.inconclusive(
        {
            "unfilled_balls": [coord_to_json(centers[g], kind) for g in unfilled[:8]],
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


#: the flags the pair rules read, one bit each of a pair's code: d(x, y) == 0
#: at time 0, which is exactly x == y, and the pair distance falls below eps,
#: and rises above delta, inside the tail window
_SAME, _NEAR, _FAR = 1, 2, 4

#: how many points of each grid ball the dense proximal pairs check pairs up
_PAIR_POOL = 5

#: the most pairs a decision gathers from a pair table at once
_BLOCK = 1 << 20


def _pair_codes(
    kind: SpaceKind, cfg: CheckConfig, orbits: np.ndarray, sources: np.ndarray
) -> np.ndarray:
    """The code from each source column to every column of a pair sweep, read
    from row 0 and the tail window alone. Columns equal over the whole tail
    window have the same near and far bits, so those are measured between
    distinct tail columns only, one distinct source at a time, so no
    transient outgrows one source's tail distances. Each row of a sweep is
    its step map applied to the row before, so columns equal on the tail's
    first row are equal over the whole tail."""
    tail = orbits[-(cfg.tail_window + 1) :]
    _, first, inverse = np.unique(
        tail[0].view(f"V{tail.itemsize}"), return_index=True, return_inverse=True
    )
    distinct, inverse = tail[:, first], inverse.reshape(-1)
    # the distinct columns of the sources, by a mask: np.unique on integers
    # raises resident memory by 0.65 MiB on its first use in a process
    used = np.zeros(len(first), dtype=bool)
    used[inverse[sources]] = True
    bits = np.empty((used.sum(), len(first)), dtype=np.uint8)
    for k, c in enumerate(np.flatnonzero(used)):
        d = coord_distances(kind, distinct[:, c, None], distinct)
        bits[k] = (d < cfg.eps).any(axis=0) * _NEAR | (d > cfg.delta).any(axis=0) * _FAR
    codes = bits[(np.cumsum(used) - 1)[inverse[sources]]][:, inverse]
    codes[coord_distances(kind, orbits[0, sources, None], orbits[0]) == 0.0] |= _SAME
    return codes


def _pair_outcomes(
    sys: SystemView, predicate: PairPredicate, codes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The rule of each pair predicate: the (holds, refuted) flags of every
    pair, from its code; neither flag means inconclusive. A pair with x == y
    stays at distance 0: it is proximal and not Li-Yorke."""
    same, near, far = ((codes & bit) > 0 for bit in (_SAME, _NEAR, _FAR))
    if predicate is PairPredicate.PROXIMAL:
        # isometric steps keep the pair at its time-0 distance forever
        return near, ~near & sys.steps_isometric
    if sys.steps_isometric:
        # a constant pair distance cannot both vanish and exceed delta
        return np.zeros_like(same), np.ones_like(same)
    return near & far, same


def _pair_check(
    sys: SystemView, xy: np.ndarray, cfg: CheckConfig, predicate: PairPredicate
) -> Verdict:
    """The verdict on the coordinate pair xy: its outcome comes from
    _pair_outcomes, and this formats its witness from its distance series."""
    cfg.validate(sys.space)
    kind = sys.space.kind
    # a sweep as _compute_pair_table makes, of the two points alone
    orbits, ((i, j),) = _sweep_groups(sys, [xy], 0 if sys.steps_isometric else cfg.horizon)
    code = _pair_codes(kind, cfg, orbits, np.array([i]))[0, j]
    holds, refuted = (bool(f) for f in _pair_outcomes(sys, predicate, code))
    series = coord_distances(kind, orbits[:, j], orbits[:, i])
    tail = series[-(cfg.tail_window + 1) :]
    d0, tail_min, tail_max = float(series[0]), float(tail.min()), float(tail.max())
    pair = [coord_to_json(c, kind) for c in xy]
    proximal = predicate is PairPredicate.PROXIMAL
    if d0 == 0.0 and proximal:
        return V.holds(
            {"pair": pair, "tail_min": 0.0, "time": cfg.horizon},
            "identical points stay at distance zero",
        )
    if d0 == 0.0:
        return V.refuted(
            {"pair": pair, "tail_max": 0.0}, "identical points have zero spread forever"
        )
    if refuted:  # by isometric steps
        return V.refuted(
            {"pair": pair, "distance": d0, "rule": "isometric-steps"},
            "isometric steps keep the pair distance constant, never below eps"
            if proximal
            else "a constant pair distance cannot both vanish and exceed delta",
        )
    parts = {"pair": pair, "tail_min": tail_min}
    if proximal and holds:
        # the time of the tail's first row is horizon + 1 - len(tail)
        time = cfg.horizon + 1 - len(tail) + int(tail.argmin())
        return V.holds(
            {**parts, "time": time},
            "isometric steps keep the pair closer than eps forever"
            if sys.steps_isometric
            else f"pair distance falls to {tail_min:.3g} inside the tail window",
        )
    if proximal:
        return V.inconclusive(
            {**parts, "overall_min": float(series.min()), "horizon": cfg.horizon},
            "pair never approached within eps at this horizon",
        )
    parts.update(tail_max=tail_max, eps=cfg.eps, delta=cfg.delta)
    if holds:
        return V.holds(parts, "the pair both approaches and separates inside the tail window")
    return V.inconclusive(
        {**parts, "horizon": cfg.horizon},
        "tail window does not show both approach and separation",
    )


def proximal_check(sys: SystemView, x: Point, y: Point, cfg: CheckConfig) -> Verdict:
    """Tail-window minimum of the pair distance as a liminf proxy."""
    return _pair_check(sys, point_coords([x, y], sys.space.kind), cfg, PairPredicate.PROXIMAL)


def li_yorke_check(sys: SystemView, x: Point, y: Point, cfg: CheckConfig) -> Verdict:
    """Tail min below eps and tail max above delta, components reported."""
    return _pair_check(sys, point_coords([x, y], sys.space.kind), cfg, PairPredicate.LI_YORKE)


class _PairTable(NamedTuple):
    """Pair codes from one sweep over some point coordinates xs and the
    eps-ball pool of every grid center: xs take columns cols, and pool k the
    columns in row k of pool_cols, where a shorter pool repeats its own
    columns, which changes no any, all or first index along a row. rows[c]
    is the row of codes of source column c: the columns of xs and of each
    pool's first points."""

    centers: np.ndarray
    pools: list[np.ndarray]
    cols: np.ndarray
    pool_cols: np.ndarray
    rows: np.ndarray
    codes: np.ndarray  # uint8, shape (sources, columns)


def _compute_pair_table(
    sys: SystemView, cfg: CheckConfig, xs: np.ndarray, pool_sources: int
) -> _PairTable:
    """The pair table of xs; its sources add the first pool_sources of each pool."""
    centers = checker_grid(sys.space, cfg)
    pools = ball_coords(sys.space, centers, cfg.eps, cfg.ball_count)
    # isometric steps keep every pair distance at its time-0 value, so their
    # sweep stops at row 0, which is then the whole tail window
    orbits, cols = _sweep_groups(sys, [xs] + pools, 0 if sys.steps_isometric else cfg.horizon)
    width = max(map(len, pools))
    pool_cols = np.array([np.resize(c, width) for c in cols[1:]])
    # a mask, not np.unique, which imports numpy.ma (half a MiB) on first use
    source = np.zeros(orbits.shape[1], dtype=bool)
    source[cols[0]] = source[pool_cols[:, :pool_sources]] = True
    rows = np.where(source, np.cumsum(source) - 1, -1)
    codes = _pair_codes(sys.space.kind, cfg, orbits, np.flatnonzero(source))
    return _PairTable(centers, pools, cols[0], pool_cols, rows, codes)


def _pair_table(sys: SystemView, cfg: CheckConfig) -> _PairTable:
    """The pair table of the grid, built once per view and config; the proximal
    pairs, proximal cell and Li-Yorke cell checks all read it."""
    return _cached(
        sys, ("pair_table", cfg),
        lambda: _compute_pair_table(sys, cfg, checker_grid(sys.space, cfg), _PAIR_POOL),
    )


def _cell_outcomes(
    sys: SystemView, predicate: PairPredicate, table: _PairTable, xs: slice
) -> tuple[np.ndarray, np.ndarray]:
    """The (holds, refuted) flags of the points xs names with sample j of pool
    k, at [i, k, j] for the i-th of them."""
    codes = table.codes[table.rows[table.cols[xs]][:, None, None], table.pool_cols]
    holds, refuted = _pair_outcomes(sys, predicate, codes)
    if predicate is PairPredicate.LI_YORKE:
        # x is no Li-Yorke partner of itself, so it is skipped
        other = (codes & _SAME) == 0
        holds, refuted = holds & other, refuted & other
    return holds, refuted


def cell_density(sys: SystemView, x: Point, cfg: CheckConfig, predicate: PairPredicate) -> Verdict:
    """Every eps-ball on the grid contains a partner for x under the predicate."""
    cfg.validate(sys.space)
    xs = point_coords([x], sys.space.kind)
    return _cell_density(sys, cfg, predicate, xs, _compute_pair_table(sys, cfg, xs, 0), 0)


def _cell_density(
    sys: SystemView, cfg: CheckConfig, predicate: PairPredicate, x: np.ndarray,
    table: _PairTable, i: int,
) -> Verdict:
    """Cell density of the one-point coordinate array x, point i of the
    table's xs."""
    kind, centers, pools = sys.space.kind, table.centers, table.pools
    holds, refuted = (a[0] for a in _cell_outcomes(sys, predicate, table, slice(i, i + 1)))
    found = holds.any(axis=1)
    if found.all():
        witnesses = [
            {
                "center": coord_to_json(c, kind),
                "partner": coord_to_json(pools[k][holds[k].argmax()], kind),
            }
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
        v = _pair_check(sys, np.concatenate([x, pools[k][j : j + 1]]), cfg, predicate)
        return V.refuted(
            {
                "ball_center": coord_to_json(centers[k], kind),
                "sample_verdict": v.to_json(),
                "predicate": predicate.value,
            },
            "isometric steps exclude such partners in some balls",
        )
    return V.inconclusive(
        {
            "unfilled_balls": [coord_to_json(centers[k], kind) for k in unfilled[:8]],
            "unfilled_count": len(unfilled),
            "predicate": predicate.value,
        },
        f"{len(unfilled)} balls produced no {predicate.value} partner at this horizon",
    )


def _cell_density_all(sys: SystemView, cfg: CheckConfig, predicate: PairPredicate) -> Verdict:
    """Cell density of every grid point under the predicate, decided from the
    pair table in blocks of points; only the cell reported is formatted."""
    cfg.validate(sys.space)
    table = _pair_table(sys, cfg)
    # per point and ball: a sample holds; a sample holds or is refuted
    found, covered = (np.empty((len(table.cols), len(table.pools)), dtype=bool) for _ in range(2))
    for xs in _blocks(len(table.cols), max(1, _BLOCK // table.pool_cols.size)):
        holds, refuted = _cell_outcomes(sys, predicate, table, xs)
        found[xs], covered[xs] = holds.any(axis=2), (holds | refuted).any(axis=2)
    dense = found.all(axis=1)
    if dense.all():
        return V.holds(
            {"points": len(table.centers), "predicate": predicate.value},
            f"the {predicate.value} cell of every sampled point is dense",
        )
    # a cell is refuted when every unfilled ball holds a refuted sample; the
    # first refuted cell is reported, else the first unresolved one
    refutable = covered.all(axis=1) & ~dense
    g = int(refutable.argmax() if sys.steps_isometric and refutable.any() else dense.argmin())
    x = table.centers[g : g + 1]
    v = _cell_density(sys, cfg, predicate, x, table, g)
    point = coord_to_json(x[0], sys.space.kind)
    if v.refuted:
        return V.refuted(
            {"point": point, "cell_verdict": v.to_json()},
            f"a sampled point has a provably non-dense {predicate.value} cell",
        )
    return V.inconclusive(
        {"point": point, "cell_verdict": v.to_json()},
        f"density of some {predicate.value} cells is unresolved",
    )


def check_proximal_cell_density(sys: SystemView, cfg: CheckConfig) -> Verdict:
    """Every sampled point has a dense proximal cell."""
    return _cell_density_all(sys, cfg, PairPredicate.PROXIMAL)


def check_li_yorke_cell_density(sys: SystemView, cfg: CheckConfig) -> Verdict:
    """Every sampled point has a dense Li-Yorke cell."""
    return _cell_density_all(sys, cfg, PairPredicate.LI_YORKE)


def check_proximal_pairs_density(sys: SystemView, cfg: CheckConfig) -> Verdict:
    """Dense proximal pairs: every ordered pair of grid balls holds one."""
    cfg.validate(sys.space)
    table = _pair_table(sys, cfg)
    pools = table.pool_cols[:, :_PAIR_POOL]
    # a ball pair needs one proximal pair; it is refutable when every
    # sampled pair is refuted
    missing, refutable = (np.empty((len(pools), len(pools)), dtype=bool) for _ in range(2))
    for i in _blocks(len(pools), max(1, _BLOCK // (pools.size * pools.shape[1]))):
        # the code of sample a of ball i with sample b of ball j, at [i, a, j, b]
        codes = table.codes[table.rows[pools[i]][:, :, None, None], pools]
        holds, refuted = _pair_outcomes(sys, PairPredicate.PROXIMAL, codes)
        missing[i], refutable[i] = ~holds.any(axis=(1, 3)), refuted.all(axis=(1, 3))
    if not missing.any():
        return V.holds(
            {"ball_pairs": len(table.centers) ** 2},
            "every sampled pair of balls contains a proximal pair",
        )
    i, j = np.argwhere(missing)[0]
    ball_pair = [coord_to_json(table.centers[k], sys.space.kind) for k in (i, j)]
    if sys.steps_isometric and refutable[missing].all():
        return V.refuted(
            {"ball_pair": ball_pair, "rule": "isometric-steps"},
            "isometric steps keep all sampled cross-ball pairs separated",
        )
    return V.inconclusive(
        {"missing_count": int(missing.sum()), "ball_pair": ball_pair},
        f"{int(missing.sum())} ball pairs produced no proximal pair at this horizon",
    )


def ball_diameter_series(
    sys: SystemView, center: np.ndarray, radius: float, cfg: CheckConfig, horizon: int
) -> np.ndarray:
    """Orbit diameter of the ball around the one-point coordinate array
    center for n = 0..horizon: exact from its region chain when the steps
    allow it, else from cfg.ball_count sampled points."""
    chains = _ball_chains(sys, center, np.array([radius]), horizon)
    if chains is not None:
        return chains.diameters()[:, 0]
    cloud = ball_coords(sys.space, center, radius, cfg.ball_count)
    orbits, (idx,) = _sweep_groups(sys, cloud, horizon)
    return _cloud_diam_series(sys.space.kind, orbits[:, idx])
