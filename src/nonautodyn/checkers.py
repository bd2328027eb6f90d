"""Finite-horizon empirical checkers for dynamical properties.

Every checker takes a MapFamily: the non-autonomous system (orbit operator
omega_n) or its autonomous limit (orbit operator f^n), the family with no
steps, and memoizes what it builds on it. Verdicts are three-valued and
carry reproducible witnesses.

Semi-decidability policy: Holds verdicts are evidence at the configured
horizon. Refuted verdicts require either a concrete finite counterexample or
a symbolic step rule that extends to all times (isometric steps keep pair
distances and region widths constant; a flat piece collapses an interval to
a point; a rotation family with a summable displacement tail confines every
orbit to a computable arc). Pure absence of evidence yields Inconclusive.

Displacement tail rule: with an identity-rotation limit and rotation steps,
the displacement after step N is 0.0 when the family is constant from a step
<= N + 1, else at most ``series_tail_bound(N)``; with neither, no rule fires.
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
from .family import MapFamily
from .orbit import orbit_matrix
from .regions import RegionChains, ball_chains, exact_chains
from .space import (
    TWO_PI,
    MAX_WORD_BITS,
    PhaseSpace,
    SpaceError,
    SpaceKind,
    ball_coords,
    canonical_coord,
    coord_distances,
    coord_to_json,
    grid_coords,
    grid_size,
    grid_window,
    json_number,
    point_coords,
)
from .verdict import Verdict


def verdict_record(property_name: str, mode: str, cfg: "CheckConfig", verdict: Verdict) -> dict:
    """One checker run, mode "non_autonomous" or "autonomous_limit"."""
    return {
        "property": property_name,
        "mode": mode,
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
            json_number(value, f"check config {key!r}", isinstance(defaults[key], float))
        return cls(**doc)


#: the most bytes CheckConfig.validate lets a config's largest arrays take
MEMORY_BUDGET = 1 << 30


def _estimated_bytes(cfg: CheckConfig, space: PhaseSpace) -> int:
    """Bytes of the G x G x (N+1) boolean hit table, the ball-table sweep,
    (N+1) rows of ball_count points per ball, the pair table, one byte from
    each pair-pool point to each pool point, and dense periodicity's sweep,
    P*R+1 rows of the ball_count samples of every eps-ball, from the
    config's shapes alone. Sampled balls build the pair table from the ball
    sweep while it is alive; region chains leave it a sweep of the pools,
    and build hits a few centers at a time, so the hit term bounds theirs.
    The ball-sweep term bounds the chains themselves, two floats a row for
    each of G + R - 1 arcs or G * R intervals, once ball_count >= 2."""
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
    fam: MapFamily, groups: list[np.ndarray], horizon: int
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
    orbits = orbit_matrix(fam, coords[first], horizon)
    return orbits, np.split(inverse.reshape(-1), np.cumsum([len(g) for g in groups])[:-1])


#: rows in the first block of a sweep that may stop early; each later block doubles
_FIRST_BLOCK = 16

#: the most elements a block of rows or of hit cells grows to: _row_blocks stops
#: doubling at it, and _summarised takes at most this many hit cells or one center
_BLOCK_ELEMENTS = 1 << 16


def _row_blocks(fam: MapFamily, coords: np.ndarray, horizon: int):
    """orbit_matrix(fam, coords, horizon) in blocks of rows, yielded as (t, block)
    with block[0] row t. Each block starts from the last row of the one before,
    which the semigroup identity makes bit-exact, and is twice as long until
    one holds _BLOCK_ELEMENTS."""
    t, k = 0, _FIRST_BLOCK
    while t < horizon:
        k = min(k, horizon - t)
        block = orbit_matrix(fam, coords, k, start=t)
        yield t, block
        t, k, coords = t + k, k if block.size >= _BLOCK_ELEMENTS else 2 * k, block[-1]


def _exact(fam: MapFamily, horizon: int) -> bool:
    """Whether the family's balls take exact region chains through steps
    1..horizon, which alone decide it; else their samples are swept."""
    return exact_chains(fam.space.kind, fam.steps(horizon)[1 : horizon + 1])


#: the most distances _cloud_diam_series and check_equicontinuity measure at
#: once, unless one ball has more: a binary distance takes several temporaries
#: of 8 bytes or more, and a larger block raises peak memory. The binary metric
#: (first differences capped at the smaller eff) is an ultrametric, so a binary
#: ball of K columns takes the K - 1 distances from its first, not K(K-1)/2
_DIAM_BLOCK = 1 << 13


def _cloud_diam_series(kind: SpaceKind, orbits: np.ndarray, cols: list[np.ndarray]) -> np.ndarray:
    """Max pairwise distance per time row of the orbit columns cols[k] of each
    ball k, shape (len(cols), rows); 0 for fewer than two columns. Balls of
    one size are measured together, in blocks of at most _DIAM_BLOCK
    distances or one ball; on the interval, max - min, which bounds every
    |a - b| as rounding is monotone (abs sends -0.0 to 0.0)."""
    diams = np.zeros((len(cols), len(orbits)))
    for size in sorted(set(map(len, cols)) - {0, 1}):
        balls = [k for k, idx in enumerate(cols) if len(idx) == size]
        i, j = np.triu_indices(size, 1)
        if kind is SpaceKind.BINARY_SEQ:  # the first column against the rest, broadcast
            i, j = i[:1], j[: size - 1]
        elif kind is SpaceKind.UNIT_INTERVAL:  # one gathered value per column
            i = j = np.arange(size)
        for block in _blocks(len(balls), max(1, _DIAM_BLOCK // (len(orbits) * len(j)))):
            idx = np.array([cols[k] for k in balls[block]])
            if kind is SpaceKind.UNIT_INTERVAL:
                v = orbits[:, idx]
                diams[balls[block]] = np.abs(v.max(axis=2) - v.min(axis=2)).T
            else:
                d = coord_distances(kind, orbits[:, idx[:, i]], orbits[:, idx[:, j]])
                diams[balls[block]] = d.max(axis=2, initial=0.0).T
    return diams


def _padded(cols: list[np.ndarray], least: int = 1) -> np.ndarray:
    """The column lists cols as the rows of one array, as wide as the longest
    or least, each repeating its own columns: a repeat changes no max, any,
    all or first index along a row."""
    lens = np.array([len(c) for c in cols])
    width = np.arange(max(least, lens.max()))
    return np.concatenate(cols)[(np.cumsum(lens) - lens)[:, None] + width % lens[:, None]]


def _separations(
    kind: SpaceKind, orbits: np.ndarray, idx: np.ndarray, t0: int = 0, best=None, at=None
) -> tuple[np.ndarray, np.ndarray]:
    """Each ball's largest center-to-partner distance over the orbit rows,
    row 0 being time t0, and its first (time, partner) position, for balls
    whose columns are the rows of idx, center first. Given the best and at
    of earlier rows, a ball's are replaced only where these rows are larger.
    Balls are measured in blocks of at most _DIAM_BLOCK distances or one."""
    if best is None:
        best, at = np.full(len(idx), -np.inf), np.zeros((2, len(idx)), dtype=np.int64)
    for block in _blocks(len(idx), max(1, _DIAM_BLOCK // (len(orbits) * idx.shape[1]))):
        balls = orbits[:, idx[block]].transpose(1, 0, 2)  # ball, time, sample
        seps = coord_distances(kind, balls[..., 1:], balls[..., :1])
        flat = seps.reshape(len(seps), -1)
        sep, (t, j) = flat.max(axis=1), np.divmod(flat.argmax(axis=1), seps.shape[2])
        larger = sep > best[block]
        np.copyto(best[block], sep, where=larger)
        np.copyto(at[:, block], [t0 + t, j], where=larger)
    return best, at


def _rungs(space: PhaseSpace, cfg: CheckConfig, ratio: float, count: int) -> list[float]:
    """The radii eps * ratio**i, i < count, that the space resolves: binary
    words see radii above 1/word_length, and validate keeps eps resolvable."""
    rungs = [cfg.eps * ratio**i for i in range(count)]
    if space.kind is SpaceKind.BINARY_SEQ:
        rungs = [r for r in rungs if r > 1.0 / space.word_length]
    return rungs


def _rotation_displacements(fam: MapFamily, horizon: int) -> tuple[np.ndarray, float] | None:
    """Cumulative rotation displacements d_1..d_N plus a forever-tail bound,
    or None unless the displacement tail rule (module docstring) applies."""
    if not isinstance(fam.limit, Rotation) or fam.limit.amount != 0.0 or not fam.steps_isometric:
        return None
    # steps N+1, N+2, ... are all the identity limit
    still = fam.eventually_constant_from is not None and fam.eventually_constant_from <= horizon + 1
    if not still and fam.series_tail_bound is None:
        return None
    steps = fam.steps(horizon)[1 : horizon + 1]
    if not all(isinstance(m, Rotation) for m in steps):
        return None
    tail = 0.0 if still else float(fam.series_tail_bound(horizon))
    return np.cumsum([m.amount for m in steps]), tail


def _confinement_gaps(
    fam: MapFamily, horizon: int, source: float, target: float
) -> tuple[float, float, float] | None:
    """Displacement confinement of a rotation system: how close the orbit
    of angle source comes to angle target. Returns the least gap up to the
    horizon, a lower bound on every later gap, and the displacement tail
    bound; None unless _rotation_displacements confines the displacement."""
    conf = _rotation_displacements(fam, horizon)
    if conf is None:
        return None
    disp, tail = conf
    base = target - source
    gaps = coord_distances(SpaceKind.CIRCLE, np.mod(base - disp, TWO_PI), np.zeros(1))
    return float(gaps.min()), max(0.0, float(gaps[-1]) - tail), tail


def _cached(fam: MapFamily, key: tuple, build):
    """build(), run once per family and key; what it builds is a pure function
    of the family and the key's config, so caching is transparent."""
    if key not in fam._cache:
        fam._cache[key] = build()
    return fam._cache[key]


@dataclass
class _BallEvidence:
    """How the grid balls move, for one family and config, kept as the numbers
    the checks read. Ball k = u * R + i is grid center u with rung i of
    _rungs, so ball u * R is the eps-ball around u, and hit n of the pair
    (u, v) is image n of eps-ball u within eps of center v. Sampled balls
    leave what other checks read from their sweep: _separations per rung,
    the pair table, and first visits of each grid start (sample 0 of its
    eps-ball) to each cell, with the starts' orbits when a cell is unvisited."""

    centers: np.ndarray  # coordinates, shape (G,)
    balls: list[tuple[np.ndarray, float]]
    collapses: list[tuple[int, float] | None]  # per ball, its step and point (region chains)
    diameters: np.ndarray  # ball 0's diameter series, n = 0..N
    separated_at: np.ndarray  # per ball, the first n >= 1 with diameter above delta, else 0
    spread_from: np.ndarray  # one past the last n with diameter at most delta, else 1
    max_diam_after_0: np.ndarray  # the largest diameter for n >= 1
    max_diam: np.ndarray  # the largest diameter for n >= 0
    first_hit: np.ndarray  # per pair, the first n >= 1 with a hit, else -1
    hits_from: np.ndarray  # one past the last miss in n = 1..N, else 1
    hit_rows: np.ndarray  # the hits for n = 1..N by np.packbits, shape (G, G, ceil(N / 8))
    dense_from: np.ndarray  # per eps-ball, one past the last n with covering defect >= eps, else 0
    final_defects: np.ndarray  # how far image N is from covering the grid
    separations: dict | None = None  # rung: (best, at), shapes (G,) and (2, G)
    visits: tuple[np.ndarray, np.ndarray | None] | None = None  # (G, cells), (N+1, G)
    pairs: _PairTable | None = None

    def collapse(self, u: int) -> tuple[int, float] | None:
        """Collapse of the eps-ball around center u."""
        return self.collapses[u * (len(self.balls) // len(self.centers))]


def _ball_evidence(fam: MapFamily, cfg: CheckConfig) -> _BallEvidence:
    return _cached(fam, ("ball_evidence", cfg), lambda: _compute_ball_evidence(fam, cfg))


def eps_ball_diameters(fam: MapFamily, cfg: CheckConfig) -> np.ndarray:
    """Diameter series n = 0..horizon of the eps-ball around checker_grid's first point."""
    return _ball_evidence(fam, cfg).diameters


def _first(mask: np.ndarray, none: int) -> np.ndarray:
    """The index of the first True along the last axis of mask, else none."""
    return np.where(mask.any(axis=-1), mask.argmax(axis=-1), none)


def _summarised(cfg: CheckConfig, centers: np.ndarray, balls, block, **sampled) -> _BallEvidence:
    """_BallEvidence from block(us), for the centers us: their balls' diameter
    series, their eps-balls' hits, dense flags and final defects, and their
    balls' collapses or None, taken _BLOCK_ELEMENTS hit cells or one center at a time."""
    G, N, delta = len(centers), cfg.horizon, cfg.delta
    kept, collapses, series0 = [], [], None
    for us in _blocks(G, max(1, _BLOCK_ELEMENTS // (G * (N + 1)))):
        diams, hits, dense, final, collapsed = block(us)
        series0 = diams[0].copy() if series0 is None else series0
        kept.append((
            _first(diams[:, 1:] > delta, -1) + 1, N + 1 - _first(diams[:, ::-1] <= delta, N),
            diams[:, 1:].max(axis=1), diams.max(axis=1),
            _first(hits[..., 1:], -2) + 1, N + 1 - _first(~hits[..., :0:-1], N),
            np.packbits(hits[..., 1:], axis=2), N + 1 - _first(~dense[:, ::-1], N + 1),
            final.copy(),  # a row of a block's defects keeps the whole block alive
        ))
        collapses += collapsed or [None] * len(diams)
    summaries = map(np.concatenate, zip(*kept))
    return _BallEvidence(centers, balls, collapses, series0, *summaries, **sampled)


def _compute_ball_evidence(fam: MapFamily, cfg: CheckConfig) -> _BallEvidence:
    """One region chain or one orbit sweep over every ball; only the
    summaries derived from it are kept, never the chains or the sweep."""
    kind, N = fam.space.kind, cfg.horizon
    centers = checker_grid(fam.space, cfg)
    rungs = _rungs(fam.space, cfg, 0.25, 3)
    G, R = len(centers), len(rungs)
    balls = [(c, r) for c in centers for r in rungs]

    steps = fam.steps(N)[1 : N + 1]
    if exact_chains(kind, steps):
        # ball u * R + i takes chain col[u, i]; an arc's length depends on its radius and
        # the slopes alone, so the circle's rungs past eps are stepped on center 0 only
        col = np.arange(G * R).reshape(G, R)
        if kind is SpaceKind.CIRCLE:
            col = np.c_[np.arange(G), np.broadcast_to(np.arange(G, G + R - 1), (G, R - 1))]
        k = np.unique(col, return_index=True)[1]
        chains = ball_chains(kind, centers[k // R], np.array(rungs)[k % R], steps)

        def block(us: slice):  # the balls of each center us; defects of the eps-balls only
            ours = RegionChains(kind, chains.a[:, col[us].ravel()], chains.b[:, col[us].ravel()])
            hits = np.empty((len(centers[us]), G, N + 1), dtype=bool)
            ours.hits(R, centers, cfg.eps, hits)
            defects = RegionChains(kind, ours.a[:, ::R], ours.b[:, ::R]).covering_defects()
            diams = np.ascontiguousarray(ours.diameters().T)
            dense = np.ascontiguousarray(defects.T < cfg.eps)
            # arcs never collapse: lengths start at 2r > 0 and circle slopes are integers >= 1
            return diams, hits, dense, defects[-1], ours.collapses()

        return _summarised(cfg, centers, balls, block)

    per_rung = [ball_coords(fam.space, centers, r, cfg.ball_count) for r in rungs]
    orbits, cols = _sweep_groups(fam, [cloud for u in zip(*per_rung) for cloud in u], N)
    pools = cols[::R]  # the first rung is eps: the pair pools, each starting at its center
    starts = np.array([c[0] for c in pools])
    # the pair codes' transients come before the hit table, not on top of it
    pairs = _compute_pair_table(fam, cfg, (orbits, pools))
    hits, dense, final, visits = _sampled_ball_table(
        fam.space, cfg.grid_resolution, cfg.eps, centers, orbits, pools
    )
    best, at = _separations(kind, orbits, _padded(cols, 2))
    diams = _cloud_diam_series(kind, orbits, cols)
    return _summarised(
        cfg, centers, balls,
        lambda us: (diams[us.start * R : us.stop * R], hits[us], dense[us], final[us], None),
        separations={r: (best[i::R], at[:, i::R]) for i, r in enumerate(rungs)},
        # the refutation rules read the starts' orbits only when a cell is unvisited
        visits=(visits, orbits[:, starts] if (visits < 0).any() else None),
        pairs=pairs,
    )


def _sampled_ball_table(
    space: PhaseSpace, resolution: int, eps: float, centers: np.ndarray,
    orbits: np.ndarray, cols: list[np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The whole hits, dense flags and final defects _summarised reads, for balls
    whose samples are the orbit columns cols[u], with centers the checker
    grid of grid_coords(space, resolution), which it equals on continuum
    spaces, and the first visits of each ball's first sample to the cells of
    grid_coords, read from the same distances with <= eps. Each sample is
    measured only against its grid_window, in row blocks of at most half as
    many window elements as one ball's samples against the whole grid over
    every row: each element also takes an index and a gathered grid point."""
    kind, T, G, B = space.kind, len(orbits), len(centers), len(cols)
    sizes = [len(idx) for idx in cols]
    # the samples: column idx[s] of ball owner[s]; ball u starts at sample firsts[u]
    idx, owner = np.concatenate(cols), np.repeat(np.arange(B), sizes)[:, None]
    firsts = np.cumsum([0] + sizes[:-1])
    full = grid_coords(space, resolution)
    binary = kind is SpaceKind.BINARY_SEQ
    hits = np.zeros((B, G, T), dtype=bool)
    dense = np.empty((T, B), dtype=bool)
    visits = np.full(B * len(full), T)
    width = grid_window(space, resolution, full[:0], eps).shape[1]
    step = max(1, T * max(sizes) * G // (2 * len(idx) * width + binary * B * G))
    for rows in _blocks(T, step):
        cloud = orbits[rows, idx]
        window = grid_window(space, resolution, cloud, eps)
        n = np.arange(len(cloud))[:, None, None]
        d = coord_distances(kind, cloud[..., None], centers.take(window))
        hits.reshape(-1)[((owner * G + window) * T + rows.start + n)[d < eps]] = True
        if binary:  # grid words end at the grid's coordinates, centers at the word length
            d = coord_distances(kind, cloud[..., None], full.take(window))
            covered = np.zeros((len(cloud), B, G), dtype=bool)
            covered.reshape(-1)[((n * B + owner) * G + window)[d < eps]] = True
            dense[rows] = covered.all(axis=2)
        # d is against grid_coords now on every space, which minimality reads
        near = d[:, firsts] <= eps
        cell = owner[firsts] * len(full) + window[:, firsts]
        np.minimum.at(visits, cell[near], np.broadcast_to(rows.start + n, near.shape)[near])
    dense = np.ascontiguousarray(dense.T) if binary else hits.all(axis=1)
    # per ball, the grid point farthest from its nearest sample at the last row
    last = coord_distances(kind, orbits[-1, idx, None], full)
    final = np.minimum.reduceat(last, firsts, axis=0).max(axis=1)
    return hits, dense, final, np.where(visits < T, visits, -1).reshape(B, -1)


# ---------------------------------------------------------------------------
# pointwise checkers

def check_equicontinuity(fam: MapFamily, cfg: CheckConfig) -> Verdict:
    """Search a ladder of pair separations delta' for one that keeps all
    sampled pairs within eps for every time up to the horizon.

    Sampled balls read rungs eps * 0.5**(2j), the ball rungs eps * 0.25**j
    bit for bit, from the ball sweep; other rungs are swept in row blocks. A
    rung other than the last stops at the first block with a separation
    above eps, since only its failure is read; a rung that holds, and the
    last rung, cover the whole horizon."""
    cfg.validate(fam.space)
    space = fam.space
    N = cfg.horizon
    rungs = _rungs(space, cfg, 0.5, 5)
    centers = checker_grid(space, cfg)
    shared = {} if _exact(fam, N) else _ball_evidence(fam, cfg).separations

    worst_for_smallest: tuple[np.ndarray, np.ndarray, int, float] | None = None
    for rung in rungs:
        worst_sep = 0.0
        worst_pair: tuple[np.ndarray, np.ndarray, int] | None = None
        # each ball's samples: its center, then its partners
        samples = ball_coords(space, centers, rung, cfg.ball_count)
        if rung in shared:
            best, at = shared[rung]
        else:
            starts, cols = _sweep_groups(fam, samples, 0)
            idx, best, at = _padded(cols, 2), None, None
            for t0, orbits in _row_blocks(fam, starts[0], N):
                best, at = _separations(space.kind, orbits, idx, t0, best, at)
                if rung != rungs[-1] and best.max() > cfg.eps:
                    break
        # a ball of one sample, padded with itself, stays at 0
        for u, (g, sep, t, j) in enumerate(zip(samples, best, *at)):
            if sep > worst_sep:
                worst_sep, worst_pair = float(sep), (centers[u], g[j + 1], int(t))
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
    fam: MapFamily, cfg: CheckConfig, ev: _BallEvidence, failing: np.ndarray, what: str
) -> Verdict | None:
    """Symbolic refutation from the first of the failing balls whose diameter
    provably never clears delta."""
    kind = fam.space.kind
    for k in failing:
        (center, radius), collapse = ev.balls[k], ev.collapses[k]
        if float(ev.max_diam_after_0[k]) > cfg.delta - cfg.tol:
            continue
        if collapse is not None:
            step, p = collapse
            if _constant_after_collapse(fam, p, cfg.horizon):
                return V.refuted(
                    {
                        "ball_center": coord_to_json(center, kind),
                        "radius": radius,
                        "collapse_step": step,
                        "max_diameter": float(ev.max_diam[k]),
                    },
                    f"{what}: the ball collapses to a point at step {step} and stays collapsed",
                )
        if fam.steps_isometric:
            return V.refuted(
                {
                    "ball_center": coord_to_json(center, kind),
                    "radius": radius,
                    "max_diameter": float(ev.max_diam[k]),
                    "rule": "isometric-steps",
                },
                f"{what}: isometric steps keep the ball diameter at most {2 * radius:g} forever",
            )
    return None


def _constant_after_collapse(fam: MapFamily, p: float, horizon: int) -> bool:
    """True when the point p a region chain collapsed to provably stays put.

    The chain already witnesses collapse up to the horizon; forever needs
    every step after the horizon to be the limit map, and p to be a fixed
    point of the limit.
    """
    cutoff = fam.eventually_constant_from
    if cutoff is None or horizon < cutoff - 1:
        return False
    kind = fam.space.kind
    return canonical_coord(apply_batch(fam.limit, np.array([p]), kind)[0], kind) == p


def check_sensitivity(fam: MapFamily, cfg: CheckConfig) -> Verdict:
    """Every grid point, every ladder radius: some time with ball diameter > delta."""
    cfg.validate(fam.space)
    kind = fam.space.kind
    ev = _ball_evidence(fam, cfg)
    failing = np.flatnonzero(ev.separated_at == 0)
    if not failing.size:
        times = [
            {"center": coord_to_json(c, kind), "radius": r, "separation_time": int(t)}
            for (c, r), t in zip(ev.balls, ev.separated_at)
        ]
        worst = int(ev.separated_at.max())
        return V.holds(
            {"separation_times": times, "max_separation_time": worst, "delta": cfg.delta},
            f"every sampled neighborhood reaches diameter {cfg.delta:g} by n={worst}",
        )
    refutation = _refute_balls(fam, cfg, ev, failing, "sensitivity")
    if refutation is not None:
        return refutation
    c, r = ev.balls[failing[0]]
    return V.inconclusive(
        {
            "ball_center": coord_to_json(c, kind),
            "radius": r,
            "max_diameter": float(ev.max_diam[failing[0]]),
            "horizon": cfg.horizon,
        },
        "some sampled neighborhoods never separated and no symbolic rule applies",
    )


def check_cofinite_sensitivity(fam: MapFamily, cfg: CheckConfig) -> Verdict:
    """Sensitivity with persistence: diameters stay above delta from some
    K <= horizon/2 onward, for every sampled ball."""
    cfg.validate(fam.space)
    N, kind = cfg.horizon, fam.space.kind
    ev = _ball_evidence(fam, cfg)
    K = ev.spread_from
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
    refutation = _refute_balls(fam, cfg, ev, failing, "cofinite sensitivity")
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
    fam: MapFamily, cfg: CheckConfig, ev: _BallEvidence, u: int, v: int
) -> dict | None:
    """Proof that the eps-ball around center u can never meet the eps-ball
    around center v."""
    kind, uc, vc = fam.space.kind, ev.centers[u], ev.centers[v]
    # collapse rule: the ball degenerates to an eventually fixed point
    collapse = ev.collapse(u)
    if collapse is not None:
        step, p = collapse
        if _constant_after_collapse(fam, p, cfg.horizon):
            gap = float(coord_distances(kind, np.array([p]), vc)[0])
            if gap >= cfg.eps:
                return {
                    "rule": "collapse",
                    "collapse_step": step,
                    "stuck_at": coord_to_json(p, kind),
                    "gap": gap,
                }
    # displacement confinement for rotation families with a summable tail
    conf = _confinement_gaps(fam, cfg.horizon, uc, vc)
    if conf is not None:
        min_gap, future, tail = conf
        need = cfg.eps + cfg.eps + cfg.tol
        if min_gap >= need and future >= need:
            return {"rule": "displacement-confinement", "min_gap": min_gap, "tail_bound": tail}
    return None


def check_transitivity(fam: MapFamily, cfg: CheckConfig) -> Verdict:
    """Every ordered pair of grid balls interacts at some time <= horizon."""
    cfg.validate(fam.space)
    kind = fam.space.kind
    ev = _ball_evidence(fam, cfg)
    G = len(ev.centers)
    first_hit = ev.first_hit
    if (first_hit > 0).all():
        return V.holds(
            {
                "hit_times": first_hit.tolist(),
                "max_hit_time": int(first_hit.max()),
                "grid_resolution": cfg.grid_resolution,
            },
            f"all {G * G} ordered ball pairs interact by n={int(first_hit.max())}",
        )
    missed = [(u, v) for u in range(G) for v in range(G) if first_hit[u, v] < 0]
    for u, v in missed:
        proof = _prove_pair_miss(fam, cfg, ev, u, v)
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


def check_weak_mixing(fam: MapFamily, cfg: CheckConfig) -> Verdict:
    """Pairs of ball pairs must interact simultaneously at a single time."""
    cfg.validate(fam.space)
    ev = _ball_evidence(fam, cfg)
    G = len(ev.centers)
    first, missed = _shared_time_misses(ev.hit_rows.reshape(G * G, -1))
    if first is None:
        return V.holds(
            {"pairs": G * G, "grid_resolution": cfg.grid_resolution},
            "every two ball pairs interact at a shared time",
        )
    p1, p2 = first
    u1, v1 = divmod(p1, G)
    u2, v2 = divmod(p2, G)
    quad = {
        name: coord_to_json(ev.centers[u], fam.space.kind)
        for name, u in (("U1", u1), ("V1", v1), ("U2", u2), ("V2", v2))
    }
    for u, v in ((u1, v1), (u2, v2)):
        proof = _prove_pair_miss(fam, cfg, ev, u, v)
        if proof is not None:
            return V.refuted({**quad, **proof}, "one leg of the quadruple provably never hits")
    if fam.steps_isometric:
        extreme = _isometric_spacing_witness(fam, cfg, ev)
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


def _shared_time_misses(packed: np.ndarray) -> tuple[tuple[int, int] | None, int]:
    """The ordered pairs of rows of a boolean matrix, packed along its rows by
    np.packbits, that share no True column: the first in row-major order, or
    None, and their number.

    Only the distinct rows are multiplied. Rows are grouped by their packed
    bytes, so a pair of rows misses exactly when their classes do, and the
    class multiplicities weight the count. Padding bits are 0 and share none.
    """
    _, first, inverse = np.unique(
        packed.view(f"V{packed.shape[1]}").reshape(-1), return_index=True, return_inverse=True
    )
    rows = np.unpackbits(packed[first], axis=1).astype(np.float32)
    miss = rows @ rows.T < 0.5
    if not miss.any():
        return None, 0
    mult = np.bincount(inverse)
    p1 = int(np.argmax(miss.any(axis=1)[inverse]))
    p2 = int(np.argmax(miss[inverse[p1]][inverse]))
    return (p1, p2), int(mult @ miss.astype(np.int64) @ mult)


def _isometric_spacing_witness(fam: MapFamily, cfg: CheckConfig, ev: _BallEvidence) -> dict | None:
    """A quadruple whose source/target spacings differ too much for any
    isometry to reconcile: take sources at maximal spacing and targets at
    minimal spacing."""
    centers, kind = ev.centers, fam.space.kind
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


def check_topological_mixing(fam: MapFamily, cfg: CheckConfig) -> Verdict:
    """Two tests, both reported: hit persistence and cloud convergence."""
    cfg.validate(fam.space)
    N, kind = cfg.horizon, fam.space.kind
    ev = _ball_evidence(fam, cfg)
    G = len(ev.centers)

    # (a) hit persistence: for each pair, hits at every n from its hits_from on
    late = ev.hits_from > N // 2
    persistence_ok = not late.any()
    worst_K = int(np.where(late, 0, ev.hits_from).max())
    miss_pair = None if persistence_ok else divmod(int(late.argmax()), G)

    # (b) cloud convergence: covering defects below eps from each dense_from on
    late = ev.dense_from > N // 2
    convergence_ok = not late.any()
    conv_K = int(np.where(late, 0, ev.dense_from).max())
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
        proof = _prove_pair_miss(fam, cfg, ev, *miss_pair)
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
    if fam.steps_isometric:
        idx = conv_fail if conv_fail is not None else 0
        return V.refuted(
            {**tests, "rule": "isometric-steps", "ball_center": coord_to_json(ev.centers[idx], kind)},
            "isometric steps preserve ball image spread, so small balls never become dense",
        )
    return V.inconclusive(
        {**tests, "horizon": N}, "mixing evidence incomplete at this horizon"
    )


def check_minimality(fam: MapFamily, cfg: CheckConfig) -> Verdict:
    """Dense-orbit surrogate: every grid start visits every grid cell within eps.

    The orbits are swept in row blocks, one start at a time, and the verdict
    holds as soon as every start has visited every target; otherwise the
    sweep reaches the horizon and the refutation rules read the whole orbits."""
    cfg.validate(fam.space)
    space = fam.space
    N = cfg.horizon
    kind = space.kind
    starts = checker_grid(space, cfg)
    targets = grid_coords(space, cfg.grid_resolution)

    # first[i, t]: the first time start i visits target t, or -1; sampled
    # balls read it and the orbits from the ball sweep and sweep no row
    visits = None if _exact(fam, N) else _ball_evidence(fam, cfg).visits
    first, orbits = visits or (
        np.full((len(starts), len(targets)), -1), np.empty((N + 1, len(starts)), dtype=starts.dtype)
    )
    for t0, block in _row_blocks(fam, starts, 0 if visits else N):
        orbits[t0 : t0 + len(block)] = block
        for i in np.flatnonzero((first < 0).any(axis=1)):
            ok = coord_distances(kind, block[:, i, None], targets) <= cfg.eps
            new = ok.any(axis=0) & (first[i] < 0)
            first[i, new] = t0 + ok.argmax(axis=0)[new]
        if (first >= 0).all():
            break
    if (first >= 0).all():
        worst = int(first.max())
        return V.holds(
            {"max_cell_visit_time": worst, "starts": len(starts), "targets": len(targets)},
            f"every grid orbit is {cfg.eps:g}-dense by n={worst}",
        )
    # start and first missed target
    uncovered = [(i, int(np.argmax(miss))) for i, miss in enumerate(first < 0) if miss.any()]

    # symbolic refutations
    cutoff = fam.eventually_constant_from
    for i, t in uncovered:
        x, orb = starts[i], orbits[:, i]
        # eventually-fixed orbit: once the step maps are the constant limit,
        # an orbit that lands on a fixed point of the limit stays there forever
        if cutoff is not None:
            lo = max(0, cutoff - 1)
            fixed = np.flatnonzero(apply_batch(fam.limit, orb[lo:], kind) == orb[lo:])
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
        conf = _confinement_gaps(fam, N, x, targets[t])
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
    """The periodicity verdict on orbit[0] from its orbit column and its period."""
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


def _refute_periodicity(
    fam: MapFamily, cfg: CheckConfig, P: int, R: int, **witness
) -> Verdict | None:
    """No point is periodic with period <= P: a rotation system whose window
    displacements stay away from zero. The witness gains any extra keys."""
    conf = _rotation_displacements(fam, P * R)
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


def check_periodic_points(fam: MapFamily, cfg: CheckConfig) -> Verdict:
    """Existence of periodic points, sampled over the grid in one sweep."""
    cfg.validate(fam.space)
    P, R = cfg.max_period, cfg.repetitions
    refutation = _refute_periodicity(fam, cfg, P, R)
    if refutation is not None:
        return refutation
    kind = fam.space.kind
    grid = checker_grid(fam.space, cfg)
    orbits = orbit_matrix(fam, grid, P * R)
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


def _periodic_candidates(fam: MapFamily, cfg: CheckConfig, P: int) -> np.ndarray | None:
    """Solve omega_n(x) = x symbolically for n <= P, as coordinates; None
    when unsupported. Window n is map n composed after window n-1, built once."""
    space = fam.space
    if space.kind is SpaceKind.BINARY_SEQ:
        return None
    candidates: list[np.ndarray] = []
    window: MapDescriptor | None = None
    for step in fam.steps(P)[1 : P + 1]:
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


def check_dense_periodicity(fam: MapFamily, cfg: CheckConfig) -> Verdict:
    """Every eps-ball on the grid contains a verified periodic point."""
    cfg.validate(fam.space)
    P, R = cfg.max_period, cfg.repetitions

    refutation = _refute_periodicity(fam, cfg, P, R, max_period=P)
    if refutation is not None:
        return refutation

    kind = fam.space.kind
    candidates = _periodic_candidates(fam, cfg, P)
    centers = checker_grid(fam.space, cfg)
    pools = ball_coords(fam.space, centers, cfg.eps, cfg.ball_count)
    if candidates is not None:
        near = coord_distances(kind, centers[:, None], candidates) < cfg.eps
        pools = [np.concatenate([candidates[n], pool]) for n, pool in zip(near, pools)]
    # one sweep of the distinct points of every pool; _estimated_bytes counts
    # its sampled points
    orbits, cols = _sweep_groups(fam, pools, P * R)
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
    kind: SpaceKind, cfg: CheckConfig, orbits: np.ndarray, keep: np.ndarray, sources: np.ndarray
) -> np.ndarray:
    """The code from each source to every kept column of a pair sweep, read
    from row 0 and the tail window alone: keep holds increasing column
    indices, and sources and the codes' columns index keep. Columns equal
    over the whole tail window have the same near and far bits, so those are
    measured between distinct tail columns only, one distinct source at a
    time, so no transient outgrows one source's tail distances. Each row of
    a sweep is its step map applied to the row before, so columns equal on
    the tail's first row are equal over the whole tail."""
    tail = orbits[-(cfg.tail_window + 1) :]
    _, first, inverse = np.unique(
        tail[0, keep].view(f"V{tail.itemsize}"), return_index=True, return_inverse=True
    )
    distinct, inverse = tail[:, keep[first]], inverse.reshape(-1)
    # the distinct columns of the sources, by a mask: np.unique on integers
    # raises resident memory by 0.65 MiB on its first use in a process
    used = np.zeros(len(first), dtype=bool)
    used[inverse[sources]] = True
    bits = np.empty((used.sum(), len(first)), dtype=np.uint8)
    for k, c in enumerate(np.flatnonzero(used)):
        d = coord_distances(kind, distinct[:, c, None], distinct)
        bits[k] = (d < cfg.eps).any(axis=0) * _NEAR | (d > cfg.delta).any(axis=0) * _FAR
    codes = bits[(np.cumsum(used) - 1)[inverse[sources]]][:, inverse]
    codes[coord_distances(kind, orbits[0, keep[sources], None], orbits[0, keep]) == 0.0] |= _SAME
    return codes


def _pair_outcomes(
    fam: MapFamily, predicate: PairPredicate, codes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The rule of each pair predicate: the (holds, refuted) flags of every
    pair, from its code; neither flag means inconclusive. A pair with x == y
    stays at distance 0: it is proximal and not Li-Yorke."""
    same, near, far = ((codes & bit) > 0 for bit in (_SAME, _NEAR, _FAR))
    if predicate is PairPredicate.PROXIMAL:
        # isometric steps keep the pair at its time-0 distance forever
        return near, ~near & fam.steps_isometric
    if fam.steps_isometric:
        # a constant pair distance cannot both vanish and exceed delta
        return np.zeros_like(same), np.ones_like(same)
    return near & far, same


class _PairTable(NamedTuple):
    """Pair codes from one sweep over the eps-ball pool of every grid center:
    pool k takes the columns in row k of pool_cols, where a shorter pool
    repeats its own columns, which changes no any, all or first index along
    a row. Each pool starts with its center, so column 0 of pool_cols is the
    grid. rows[c] is the row of codes of source column c: the columns of the
    first _PAIR_POOL points of each pool."""

    centers: np.ndarray
    pools: list[np.ndarray]
    pool_cols: np.ndarray
    rows: np.ndarray
    codes: np.ndarray  # uint8, shape (sources, columns)


def _compute_pair_table(fam: MapFamily, cfg: CheckConfig, sweep=None) -> _PairTable:
    """The pair table of the grid. It reads sweep, an orbit matrix and the
    columns of each pool in it, when given."""
    centers = checker_grid(fam.space, cfg)
    pools = ball_coords(fam.space, centers, cfg.eps, cfg.ball_count)
    # isometric steps keep every pair distance at its time-0 value, so row 0
    # is then the whole tail window, and their own sweep stops there
    orbits, cols = sweep or _sweep_groups(
        fam, pools, 0 if fam.steps_isometric else cfg.horizon
    )
    # masks, not np.unique, which imports numpy.ma (half a MiB) on first use
    keep = np.zeros(orbits.shape[1], dtype=bool)
    keep[np.concatenate(cols)] = True
    at = np.cumsum(keep) - 1
    pool_cols = _padded([at[c] for c in cols])
    source = np.zeros(keep.sum(), dtype=bool)
    source[pool_cols[:, :_PAIR_POOL]] = True
    rows = np.where(source, np.cumsum(source) - 1, -1)
    tail = orbits[:1] if fam.steps_isometric else orbits
    codes = _pair_codes(fam.space.kind, cfg, tail, np.flatnonzero(keep), np.flatnonzero(source))
    return _PairTable(centers, pools, pool_cols, rows, codes)


def _pair_table(fam: MapFamily, cfg: CheckConfig) -> _PairTable:
    """The pair table of the grid, built once per family and config, from the
    ball-table sweep on sampled balls; the proximal pairs, proximal cell and
    Li-Yorke cell checks all read it."""
    if not _exact(fam, cfg.horizon):
        return _ball_evidence(fam, cfg).pairs
    return _cached(fam, ("pair_table", cfg), lambda: _compute_pair_table(fam, cfg))


def _cell_outcomes(
    fam: MapFamily, predicate: PairPredicate, table: _PairTable, xs: slice
) -> tuple[np.ndarray, np.ndarray]:
    """The (holds, refuted) flags of the grid points xs names with sample j
    of pool k, at [i, k, j] for the i-th of them."""
    codes = table.codes[table.rows[table.pool_cols[xs, 0]][:, None, None], table.pool_cols]
    holds, refuted = _pair_outcomes(fam, predicate, codes)
    if predicate is PairPredicate.LI_YORKE:
        # x is no Li-Yorke partner of itself, so it is skipped
        other = (codes & _SAME) == 0
        holds, refuted = holds & other, refuted & other
    return holds, refuted


def _cell_density_all(fam: MapFamily, cfg: CheckConfig, predicate: PairPredicate) -> Verdict:
    """Cell density of every grid point under the predicate, decided from the
    pair table in blocks of points; only the cell reported is formatted."""
    cfg.validate(fam.space)
    table = _pair_table(fam, cfg)
    kind, centers, pools = fam.space.kind, table.centers, table.pools
    # per point and ball: a sample holds; a sample holds or is refuted
    found, covered = (np.empty((len(pools), len(pools)), dtype=bool) for _ in range(2))
    for xs in _blocks(len(pools), max(1, _BLOCK // table.pool_cols.size)):
        holds, refuted = _cell_outcomes(fam, predicate, table, xs)
        found[xs], covered[xs] = holds.any(axis=2), (holds | refuted).any(axis=2)
    dense = found.all(axis=1)
    if dense.all():
        return V.holds(
            {"points": len(centers), "predicate": predicate.value},
            f"the {predicate.value} cell of every sampled point is dense",
        )
    # a cell is refuted when every unfilled ball holds a refuted sample; the
    # first refuted cell is reported, else the first unresolved one
    refutable = covered.all(axis=1) & ~dense
    g = int(refutable.argmax() if fam.steps_isometric and refutable.any() else dense.argmin())
    x, point = centers[g : g + 1], coord_to_json(centers[g], kind)
    unfilled = np.flatnonzero(~found[g])
    if fam.steps_isometric and refutable[g]:
        # the witness is the first refuted sample of the first unfilled ball;
        # isometric steps keep the pair at its time-0 distance, which is not
        # 0: a refuted proximal pair is not near, a refuted Li-Yorke pair
        # not the same point
        k = unfilled[0]
        j = _cell_outcomes(fam, predicate, table, slice(g, g + 1))[1][0, k].argmax()
        y = pools[k][j : j + 1]
        sample = V.refuted(
            {
                "pair": [coord_to_json(x[0], kind), coord_to_json(y[0], kind)],
                "distance": float(coord_distances(kind, y, x)[0]),
                "rule": "isometric-steps",
            },
            "isometric steps keep the pair distance constant, never below eps"
            if predicate is PairPredicate.PROXIMAL
            else "a constant pair distance cannot both vanish and exceed delta",
        )
        cell = V.refuted(
            {
                "ball_center": coord_to_json(centers[k], kind),
                "sample_verdict": sample.to_json(),
                "predicate": predicate.value,
            },
            "isometric steps exclude such partners in some balls",
        )
        return V.refuted(
            {"point": point, "cell_verdict": cell.to_json()},
            f"a sampled point has a provably non-dense {predicate.value} cell",
        )
    cell = V.inconclusive(
        {
            "unfilled_balls": [coord_to_json(centers[k], kind) for k in unfilled[:8]],
            "unfilled_count": len(unfilled),
            "predicate": predicate.value,
        },
        f"{len(unfilled)} balls produced no {predicate.value} partner at this horizon",
    )
    return V.inconclusive(
        {"point": point, "cell_verdict": cell.to_json()},
        f"density of some {predicate.value} cells is unresolved",
    )


def check_proximal_cell_density(fam: MapFamily, cfg: CheckConfig) -> Verdict:
    """Every sampled point has a dense proximal cell."""
    return _cell_density_all(fam, cfg, PairPredicate.PROXIMAL)


def check_li_yorke_cell_density(fam: MapFamily, cfg: CheckConfig) -> Verdict:
    """Every sampled point has a dense Li-Yorke cell."""
    return _cell_density_all(fam, cfg, PairPredicate.LI_YORKE)


def check_proximal_pairs_density(fam: MapFamily, cfg: CheckConfig) -> Verdict:
    """Dense proximal pairs: every ordered pair of grid balls holds one."""
    cfg.validate(fam.space)
    table = _pair_table(fam, cfg)
    pools = table.pool_cols[:, :_PAIR_POOL]
    # a ball pair needs one proximal pair; it is refutable when every
    # sampled pair is refuted
    missing, refutable = (np.empty((len(pools), len(pools)), dtype=bool) for _ in range(2))
    for i in _blocks(len(pools), max(1, _BLOCK // (pools.size * pools.shape[1]))):
        # the code of sample a of ball i with sample b of ball j, at [i, a, j, b]
        codes = table.codes[table.rows[pools[i]][:, :, None, None], pools]
        holds, refuted = _pair_outcomes(fam, PairPredicate.PROXIMAL, codes)
        missing[i], refutable[i] = ~holds.any(axis=(1, 3)), refuted.all(axis=(1, 3))
    if not missing.any():
        return V.holds(
            {"ball_pairs": len(table.centers) ** 2},
            "every sampled pair of balls contains a proximal pair",
        )
    i, j = np.argwhere(missing)[0]
    ball_pair = [coord_to_json(table.centers[k], fam.space.kind) for k in (i, j)]
    if fam.steps_isometric and refutable[missing].all():
        return V.refuted(
            {"ball_pair": ball_pair, "rule": "isometric-steps"},
            "isometric steps keep all sampled cross-ball pairs separated",
        )
    return V.inconclusive(
        {"missing_count": int(missing.sum()), "ball_pair": ball_pair},
        f"{int(missing.sum())} ball pairs produced no proximal pair at this horizon",
    )

