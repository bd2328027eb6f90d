"""Exact forward images of intervals and circular arcs under the map algebra.

Open balls in the continuum spaces are intervals or arcs, and every builtin
continuum map (rotations, integer-slope affine circle maps, piecewise-linear
interval maps) sends such a region to another one that this module computes
in closed form. Checkers use these exact images instead of sampled point
clouds whenever the steps allow it: a region of zero width proves a collapse,
and a region's hits are the grid points within eps of it, a window of grid
indices read from its ends (the distance rule decides the window's ends).
Sampled clouds take the same design point by point: each sample's hits are
decided inside its `space.grid_window`. A region's covering defect is kept
as a flag, below eps or not, except on the last step.

Regions are never objects. `region_chains` steps many regions at once from
their row-0 arrays (arc starts and lengths, or interval lows and highs), and
`ball_chains` builds that row for open balls. Whether a family supports
exact images is decided by the kernel alone: it returns None at the first
step without one, and callers then fall back to sampling. Binary-sequence
maps have no images here, so `ball_chains` returns None on that space.

An interval image is what the map's one rule (`descriptors.apply_batch`)
reaches on the region's floats, so a swept point stays in the images of its
region; where that rule rounds a value out of [0, 1] by an ulp, the image
ends leave it by as much.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .descriptors import (
    Compose,
    MapDescriptor,
    PiecewiseLinear,
    as_piecewise_linear,
    circle_canonical,
    pl_image_batch,
)
from .space import TWO_PI, SpaceKind, canonical_coord, reduce_angles


@dataclass(frozen=True)
class RegionChains:
    """Forward images of B start regions through N steps, as arrays.

    Row n holds the images under steps 1..n and column j the chain of start
    region j: arc starts and lengths, or interval lows and highs, each of
    shape (N+1, B).
    """

    kind: SpaceKind  # CIRCLE for arcs, UNIT_INTERVAL for intervals
    a: np.ndarray
    b: np.ndarray

    def diameters(self) -> np.ndarray:
        if self.kind is SpaceKind.CIRCLE:
            return np.minimum(self.b, math.pi)
        return self.b - self.a

    def covering_defects(self) -> np.ndarray:
        """sup over the space of the distance to each region, 0 where interval ends leave it."""
        arcs = self.kind is SpaceKind.CIRCLE
        return np.maximum((TWO_PI - self.b) / 2 if arcs else np.maximum(self.a, 1.0 - self.b), 0.0)

    def hits(self, step: int, grid: np.ndarray, eps: float, out: np.ndarray) -> None:
        """out[u, v, n] = region n of chain u * step lies within eps of grid[v] on
        the uniform grid of grid_coords, in place. The v form a window, cyclic on the circle:
        those 1e-9 or more inside it hit, and the distance rule decides those nearer its ends."""
        arcs, G = self.kind is SpaceKind.CIRCLE, len(grid)
        P, scale = (G, G / TWO_PI) if arcs else (2**32, G - 1.0)  # interval windows never wrap
        tol, idx, inside = 1e-9 * scale, np.arange(G)[:, None], np.empty(out.shape[1:], bool)
        for hit, a, b in zip(out, self.a[:, ::step].T, self.b[:, ::step].T):
            x = np.stack([a - eps, (a + b if arcs else b) + eps]) * scale
            # the sure hits are ends[0] <= k < ends[1], and near the index on either side
            ends = np.stack([np.floor(x[0] + tol) + 1, np.ceil(x[1] - tol)]).astype(np.int64)
            near = ends - [[1], [0]]
            count = np.where(b >= TWO_PI, P, np.clip(ends[1] - ends[0], 0, P))  # full arcs
            start = ends[0] % P
            np.greater_equal(idx, start, out=hit)
            hit &= np.less(idx, start + count, out=inside)
            hit |= np.less(idx, start + count - P, out=inside)  # the part wrapped past 2pi
            side, n = np.nonzero((np.abs(near - x) <= tol) & (count < P) & (near % P < G))
            v, a, b = near[side, n] % P, a[n], b[n]
            if arcs:  # the distance rule
                z = np.mod(grid[v] - a, TWO_PI)
                w = np.mod(z - b, TWO_PI)
                d = np.minimum(np.minimum(z, TWO_PI - z), np.minimum(w, TWO_PI - w))
                d[(z <= b) | (b >= TWO_PI)] = 0.0
            else:
                d = np.maximum(np.maximum(a - grid[v], grid[v] - b), 0.0)
            hit[v, n] |= d < eps

    def collapse(self, j: int) -> tuple[int, float] | None:
        """First step at which chain j is a single point, with the coordinate
        of the midpoint of its last region; None when it never collapses."""
        arcs = self.kind is SpaceKind.CIRCLE
        a, b = self.a[:, j], self.b[:, j]
        points = np.flatnonzero((b if arcs else b - a) == 0.0)
        if not points.size:
            return None
        mid = a[-1] + b[-1] / 2.0 if arcs else (a[-1] + b[-1]) / 2.0
        return int(points[0]), canonical_coord(mid, self.kind)


def _step_arcs(slope: int, offset: float, a: np.ndarray, b: np.ndarray, n: int) -> None:
    """Row n of arc starts a and lengths b, the images of row n-1 under theta ->
    slope*theta + offset. Full arcs keep their start and, as slope >= 1, their length."""
    if slope == 1 and b[n - 1].max(initial=0.0) < TWO_PI:  # no full arc: min(1.0 * b, 2pi) == b
        reduce_angles(np.add(a[n - 1], offset, out=a[n]), out=a[n])
        b[n] = b[n - 1]
        return
    r = reduce_angles(float(slope) * a[n - 1] + offset)
    a[n] = np.where(b[n - 1] >= TWO_PI, a[n - 1], r)
    np.minimum(float(slope) * b[n - 1], TWO_PI, out=b[n])


def _pl_factors(m: MapDescriptor) -> tuple[PiecewiseLinear, ...] | None:
    """The piecewise-linear maps an interval step applies, in order: a
    composition is stepped through its operands, as a sweep steps it."""
    if isinstance(m, Compose):
        inner, outer = _pl_factors(m.inner), _pl_factors(m.outer)
        return None if inner is None or outer is None else inner + outer
    pl = as_piecewise_linear(m)
    return None if pl is None else (pl,)


def region_chains(
    kind: SpaceKind, a0: np.ndarray, b0: np.ndarray, steps: Sequence[MapDescriptor]
) -> RegionChains | None:
    """Exact images of the start regions (a0[j], b0[j]) under steps[0], then
    steps[1], ...

    On the circle the starts are arc starts in [0, 2pi) and lengths capped
    at 2pi, on the unit interval lows and highs within [0, 1]. Each step is
    flattened once for all regions: a circle step to one affine map, an
    interval step to the piecewise-linear maps it applies in turn. Returns
    None at the first step without an exact image; that depends on the step
    alone, never on the regions.
    """
    arcs = kind is SpaceKind.CIRCLE
    a = np.empty((len(steps) + 1, len(a0)))
    b = np.empty_like(a)
    a[0], b[0] = a0, b0
    prev = flat = None
    for n, m in enumerate(steps, 1):
        if m is not prev:
            prev, flat = m, circle_canonical(m) if arcs else _pl_factors(m)
        if flat is None:
            return None
        if arcs:
            _step_arcs(*flat, a, b, n)
        else:
            a[n], b[n] = a[n - 1], b[n - 1]
            for pl in flat:
                a[n], b[n] = pl_image_batch(pl, a[n], b[n])
    return RegionChains(kind, a, b)


def ball_chains(
    kind: SpaceKind, centers: np.ndarray, radii: np.ndarray, steps: Sequence[MapDescriptor]
) -> RegionChains | None:
    """region_chains of the open balls around the center coordinates, with
    radii below pi, clipped to the space; None on binary sequence space."""
    if kind is SpaceKind.CIRCLE:
        return region_chains(kind, reduce_angles(centers - radii), 2.0 * radii, steps)
    if kind is SpaceKind.UNIT_INTERVAL:
        lo, hi = np.maximum(centers - radii, 0.0), np.minimum(centers + radii, 1.0)
        return region_chains(kind, lo, hi, steps)
    return None
