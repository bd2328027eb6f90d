"""Exact forward images of intervals and circular arcs under the map algebra.

Open balls in the continuum spaces are intervals or arcs, and every builtin
continuum map (rotations, integer-slope affine circle maps, piecewise-linear
interval maps) sends such a region to another one that this module computes
in closed form. Checkers use these exact images instead of sampled point
clouds whenever the family supports it: a collapsed region (zero width) is a
proof of collapse, and a region covering the space is a proof of a hit.
`region_chains` steps many regions at once, as arrays.

Binary-sequence maps are not covered; callers fall back to sampling there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .descriptors import (
    MapDescriptor,
    as_piecewise_linear,
    circle_canonical,
    pl_image_batch,
)
from .space import (
    TWO_PI,
    CircleAngle,
    IntervalPoint,
    PhaseSpace,
    Point,
    SpaceError,
    SpaceKind,
    reduce_angle,
)


@dataclass(frozen=True)
class IntervalRegion:
    """A closed subinterval of [0, 1]."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (0.0 <= self.lo <= self.hi <= 1.0):
            raise SpaceError(f"bad interval region [{self.lo}, {self.hi}]")


@dataclass(frozen=True)
class ArcRegion:
    """A closed arc on the circle: angles start..start+length; full if length >= 2pi."""

    start: float
    length: float

    def __post_init__(self):
        if self.length < 0.0:
            raise SpaceError("arc length must be nonnegative")
        object.__setattr__(self, "start", reduce_angle(float(self.start)))
        object.__setattr__(self, "length", min(float(self.length), TWO_PI))

    @property
    def full(self) -> bool:
        return self.length >= TWO_PI


Region = Union[IntervalRegion, ArcRegion]


def ball_region(space: PhaseSpace, center: Point, radius: float) -> Region:
    """The open ball around center as a region (clipped to the space)."""
    space.require(center)
    if space.kind is SpaceKind.UNIT_INTERVAL:
        return IntervalRegion(max(0.0, center.x - radius), min(1.0, center.x + radius))
    if space.kind is SpaceKind.CIRCLE:
        if radius >= math.pi:
            return ArcRegion(0.0, TWO_PI)
        return ArcRegion(center.theta - radius, 2.0 * radius)
    raise SpaceError("regions are defined on continuum spaces only")


@dataclass(frozen=True)
class RegionChains:
    """Forward images of B start regions through N steps, as arrays.

    Row n holds the images under steps 1..n and column j the chain of start
    region j: arc starts and lengths, or interval lows and highs, each of
    shape (N+1, B).
    """

    kind: str  # "arc" or "interval"
    a: np.ndarray
    b: np.ndarray

    def diameters(self) -> np.ndarray:
        if self.kind == "arc":
            return np.minimum(self.b, math.pi)
        return self.b - self.a

    def covering_defects(self) -> np.ndarray:
        """sup over the space of the distance to each region."""
        if self.kind == "arc":
            return np.where(self.b >= TWO_PI, 0.0, (TWO_PI - self.b) / 2.0)
        return np.maximum(self.a, 1.0 - self.b)

    def distances(self, j: int, coords: np.ndarray) -> np.ndarray:
        """Distance from each point coordinate to each region of chain j,
        shape (N+1, len(coords)); 0 where contained."""
        a, b = self.a[:, j, None], self.b[:, j, None]
        if self.kind == "arc":
            z = np.mod(coords - a, TWO_PI)
            w = np.mod(z - b, TWO_PI)
            out = np.minimum(np.minimum(z, TWO_PI - z), np.minimum(w, TWO_PI - w))
            return np.where((z <= b) | (b >= TWO_PI), 0.0, out)
        return np.maximum(np.maximum(a - coords, coords - b), 0.0)

    def midpoint(self, j: int) -> Point:
        """Midpoint of the last region of chain j."""
        a, b = float(self.a[-1, j]), float(self.b[-1, j])
        return CircleAngle(a + b / 2.0) if self.kind == "arc" else IntervalPoint((a + b) / 2.0)

    def collapse(self, j: int) -> tuple[int, Point] | None:
        """First step at which chain j is a single point, with the midpoint
        of its last region; None when it never collapses."""
        a, b = self.a[:, j], self.b[:, j]
        points = np.flatnonzero((b if self.kind == "arc" else b - a) == 0.0)
        return (int(points[0]), self.midpoint(j)) if points.size else None


def _step_arcs(
    slope: int, offset: float, start: np.ndarray, length: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Arc images under theta -> slope*theta + offset, reduced as reduce_angle
    does. Full arcs keep their start; their length stays 2pi since slope >= 1."""
    r = np.fmod(float(slope) * start + offset, TWO_PI)
    np.add(r, TWO_PI, out=r, where=r < 0.0)
    np.subtract(r, TWO_PI, out=r, where=r >= TWO_PI)
    return np.where(length >= TWO_PI, start, r), np.minimum(float(slope) * length, TWO_PI)


def region_chains(
    starts: list[Region], steps: Sequence[MapDescriptor]
) -> RegionChains | None:
    """Exact images of every start region under steps[0], then steps[1], ...

    Each step is flattened once for all regions. Returns None at the first
    step without an exact image; that depends on the step alone, never on
    the regions. The starts are all arcs or all intervals.
    """
    arcs = isinstance(starts[0], ArcRegion)
    a = np.empty((len(steps) + 1, len(starts)))
    b = np.empty_like(a)
    if arcs:
        a[0], b[0] = [r.start for r in starts], [r.length for r in starts]
    else:
        a[0], b[0] = [r.lo for r in starts], [r.hi for r in starts]
    prev = flat = None
    for n, m in enumerate(steps, 1):
        if m is not prev:
            prev, flat = m, circle_canonical(m) if arcs else as_piecewise_linear(m)
        if flat is None:
            return None
        if arcs:
            a[n], b[n] = _step_arcs(*flat, a[n - 1], b[n - 1])
        else:
            a[n], b[n] = pl_image_batch(flat, a[n - 1], b[n - 1])
            # the check IntervalRegion makes; rounding could leave [0, 1]
            if a[n].min() < 0.0 or b[n].max() > 1.0:
                raise SpaceError(f"bad interval regions {a[n]}, {b[n]} at step {n}")
    return RegionChains("arc" if arcs else "interval", a, b)


def family_supports_regions(space: PhaseSpace, probe: list[MapDescriptor]) -> bool:
    """True when every probed step has an exact region image."""
    if space.kind is SpaceKind.BINARY_SEQ:
        return False
    if space.kind is SpaceKind.CIRCLE:
        return all(circle_canonical(m) is not None for m in probe)
    return all(as_piecewise_linear(m) is not None for m in probe)
