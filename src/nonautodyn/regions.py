"""Exact forward images of intervals and circular arcs under the map algebra.

Open balls in the continuum spaces are intervals or arcs, and every builtin
continuum map (rotations, integer-slope affine circle maps, piecewise-linear
interval maps) sends such a region to another one that this module computes
in closed form. Checkers use these exact images instead of sampled point
clouds whenever the steps allow it: a region of zero width proves a collapse,
and a region's hits are the grid points within eps of it, a window of grid
indices read from its ends (the distance rule decides the window's ends).
Sampled clouds take the same design point by point: each sample's hits are
decided inside its `space.grid_window`. A region's covering defect is read
as a flag, below eps or not, except on the last step.

Regions are never objects. `region_chains` steps many regions at once from
their row-0 arrays (arc starts and lengths, or interval lows and highs), and
`ball_chains` builds that row for open balls. `exact_chains` decides from
the steps alone whether they have exact images, and callers sample where
they have not: every circle map is affine, a binary-sequence map never has
one, and an interval step has one when it is piecewise linear.

An interval image is what the map's one rule (`descriptors.apply_batch`)
reaches on the region's floats, so a swept point stays in the images of its
region; where that rule rounds a value out of [0, 1] by an ulp, the image
ends leave it by as much.

Still tails: a step is a pure elementwise function of its map and the row
before, so `region_chains` stops stepping once the rest of the chain is
decided. At each power-of-two row n it checks two rules, and fills the
rows they decide with one broadcast:
- rows n and n-1 are bitwise equal (bytes, so -0.0 and 0.0 stay apart):
  the rows stay equal for as long as the same map object repeats
  (`descriptors.repeat_end`), and stepping resumes at the first different
  map;
- on the circle, every arc of row n is full: a full arc keeps its start and
  its length under any circle step, so the rows stay equal to the end.

Arc starts move by a sweep's rule, `apply_batch`, a composition operand by
operand, and lengths by the flattened slope. Slope-1 runs: while no arc is
full, single slope-1 steps keep every length and move each start by
apply_batch's own sum fmod(a + offset, 2pi) inline; a run's lengths are one
broadcast, written before each power-of-two check and where the run ends.
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
    apply_batch,
    as_piecewise_linear,
    circle_canonical,
    pl_image_batch,
    repeat_end,
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
            # 2 * tol: the rounding of x - tol can leave a hit just past tol from x
            side, n = np.nonzero((np.abs(near - x) <= 2 * tol) & (count < P) & (near % P < G))
            v, a, b = near[side, n] % P, a[n], b[n]
            if arcs:  # the distance rule
                z = np.mod(grid[v] - a, TWO_PI)
                w = np.mod(z - b, TWO_PI)
                d = np.minimum(np.minimum(z, TWO_PI - z), np.minimum(w, TWO_PI - w))
                d[(z <= b) | (b >= TWO_PI)] = 0.0
            else:
                d = np.maximum(np.maximum(a - grid[v], grid[v] - b), 0.0)
            hit[v, n] |= d < eps

    def collapses(self) -> list[tuple[int, float] | None]:
        """Per chain, the first step at which it is a single point, with the
        coordinate of the midpoint of its last region; None when it never collapses."""
        arcs = self.kind is SpaceKind.CIRCLE
        points = (self.b if arcs else self.b - self.a) == 0.0
        first = points.argmax(axis=0)
        mid = self.a[-1] + self.b[-1] / 2.0 if arcs else (self.a[-1] + self.b[-1]) / 2.0
        return [
            (int(n), canonical_coord(m, self.kind)) if point else None
            for n, m, point in zip(first, mid, points[first, range(len(first))])
        ]


def _step_arcs(m: MapDescriptor, slope: int, a: np.ndarray, b: np.ndarray, n: int) -> None:
    """Row n of arc starts a and lengths b, the images of row n-1 under circle
    step m of flattened slope slope, outside slope-1 runs. Full arcs keep their
    start and, as slope >= 1, their length; other starts move as swept."""
    a[n] = np.where(b[n - 1] >= TWO_PI, a[n - 1], apply_batch(m, a[n - 1], SpaceKind.CIRCLE))
    np.minimum(float(slope) * b[n - 1], TWO_PI, out=b[n])


def _pl_factors(m: MapDescriptor) -> tuple[PiecewiseLinear, ...] | None:
    """The piecewise-linear maps an interval step applies, in order: a
    composition is stepped through its operands, as a sweep steps it."""
    if isinstance(m, Compose):
        inner, outer = _pl_factors(m.inner), _pl_factors(m.outer)
        return None if inner is None or outer is None else inner + outer
    pl = as_piecewise_linear(m)
    return None if pl is None else (pl,)


def exact_chains(kind: SpaceKind, steps: Sequence[MapDescriptor]) -> bool:
    """Whether regions of the space have exact images under all the steps:
    always on the circle, whose maps are all affine, never on binary words,
    and on the interval when every distinct step object is piecewise linear."""
    if kind is not SpaceKind.UNIT_INTERVAL:
        return kind is SpaceKind.CIRCLE
    return all(_pl_factors(m) is not None for m in {id(m): m for m in steps}.values())


def region_chains(
    kind: SpaceKind, a0: np.ndarray, b0: np.ndarray, steps: Sequence[MapDescriptor]
) -> RegionChains:
    """Exact images of the start regions (a0[j], b0[j]) under steps[0], then
    steps[1], ..., for steps that exact_chains accepts.

    On the circle the starts are arc starts in [0, 2pi) and lengths capped
    at 2pi, on the unit interval lows and highs within [0, 1]. Each step is
    flattened once for all regions: a circle step to its slope, an interval
    step to the piecewise-linear maps it applies in turn. Still tails are
    filled, not stepped (see the module docstring).
    """
    arcs = kind is SpaceKind.CIRCLE
    flatten = circle_canonical if arcs else _pl_factors
    N = len(steps)
    a = np.empty((N + 1, len(a0)))
    b = np.empty_like(a)
    a[0], b[0] = a0, b0
    prev = flat = None
    n = 1
    while n <= N:
        m = steps[n - 1]
        if m is not prev:
            prev, flat = m, flatten(m)
        single = arcs and flat[0] == 1 and not isinstance(m, Compose)  # apply_batch's sum, inline
        if single and b[n - 1].max(initial=0.0) < TWO_PI:  # a slope-1 run
            s, row, stop = n, a[n - 1], min(N, 1 << (n - 1).bit_length())
            while True:
                row = np.add(row, flat[1], out=a[n])
                np.fmod(row, TWO_PI, out=row)
                if n == stop:
                    break
                if steps[n] is not prev:
                    prev, flat = steps[n], flatten(steps[n])
                    if flat[0] != 1 or isinstance(prev, Compose):
                        break
                n += 1
            b[s : n + 1] = b[s - 1]
        elif arcs:
            _step_arcs(m, flat[0], a, b, n)
        else:
            a[n], b[n] = a[n - 1], b[n - 1]
            for pl in flat:
                a[n], b[n] = pl_image_batch(pl, a[n], b[n])
        if n & (n - 1) == 0:
            k = n  # the last row the still rules decide from row n
            if arcs and b[n].min(initial=TWO_PI) >= TWO_PI:
                k = N
            elif a[n].tobytes() == a[n - 1].tobytes() and b[n].tobytes() == b[n - 1].tobytes():
                k = repeat_end(steps, n - 1, N) + 1
            a[n + 1 : k + 1], b[n + 1 : k + 1] = a[n], b[n]
            n = k
        n += 1
    return RegionChains(kind, a, b)


def ball_chains(
    kind: SpaceKind, centers: np.ndarray, radii: np.ndarray, steps: Sequence[MapDescriptor]
) -> RegionChains:
    """region_chains of the open balls around the center coordinates, with
    radii below pi, clipped to the space: arcs, or else intervals."""
    if kind is SpaceKind.CIRCLE:
        return region_chains(kind, reduce_angles(centers - radii), 2.0 * radii, steps)
    lo, hi = np.maximum(centers - radii, 0.0), np.minimum(centers + radii, 1.0)
    return region_chains(kind, lo, hi, steps)
