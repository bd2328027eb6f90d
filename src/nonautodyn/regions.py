"""Exact forward images of intervals and circular arcs under the map algebra.

Open balls in the continuum spaces are intervals or arcs, and every builtin
continuum map (rotations, integer-slope affine circle maps, piecewise-linear
interval maps) sends such a region to another one that this module computes
in closed form. Checkers use these exact images instead of sampled point
clouds whenever the steps allow it: a collapsed region (zero width) is a
proof of collapse, and a region covering the space is a proof of a hit.

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
        """sup over the space of the distance to each region."""
        if self.kind is SpaceKind.CIRCLE:
            return np.where(self.b >= TWO_PI, 0.0, (TWO_PI - self.b) / 2.0)
        return np.maximum(self.a, 1.0 - self.b)

    def distances(self, j: int, coords: np.ndarray) -> np.ndarray:
        """Distance from each point coordinate to each region of chain j,
        shape (N+1, len(coords)); 0 where contained."""
        a, b = self.a[:, j, None], self.b[:, j, None]
        if self.kind is SpaceKind.CIRCLE:
            z = np.mod(coords - a, TWO_PI)
            w = np.mod(z - b, TWO_PI)
            out = np.minimum(np.minimum(z, TWO_PI - z), np.minimum(w, TWO_PI - w))
            return np.where((z <= b) | (b >= TWO_PI), 0.0, out)
        return np.maximum(np.maximum(a - coords, coords - b), 0.0)

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


def _step_arcs(
    slope: int, offset: float, start: np.ndarray, length: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Arc images under theta -> slope*theta + offset. Full arcs keep their
    start; their length stays 2pi since slope >= 1."""
    r = reduce_angles(float(slope) * start + offset)
    return np.where(length >= TWO_PI, start, r), np.minimum(float(slope) * length, TWO_PI)


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
            a[n], b[n] = _step_arcs(*flat, a[n - 1], b[n - 1])
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
