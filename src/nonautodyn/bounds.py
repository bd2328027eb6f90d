"""Quantitative orbit-deviation bounds and the collective-convergence profiler.

The central inequality: when the family commutes with its limit map, the
orbit of the non-autonomous system deviates from the autonomous orbit, over
the window of k steps after step n, by at most the window's summed
supremum-metric gaps,

    d(omega_{n+k}(x), f^k(omega_n(x))) <= sum_{n<i<=n+k} D(f_i, f).

``deviation_series`` measures it for every k up to k_max of one window; n = 0
is the plain bound d(omega_k(x), f^k(x)) <= sum_{i<=k} D(f_i, f). The same
right-hand side bounds the windowed composition distance D(omega^n_{n+k}, f^k)
when the limit is an isometry (or merely shrinking), with no commutation
needed; ``collective_convergence_profile`` sets the two side by side, cell by
cell. Both read the partial sums of ``family.term_sums`` and sweep the
family's own limit system. The records here do not require the hypotheses:
they are also how a violated bound is exhibited when a hypothesis fails.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .descriptors import apply_batch
from .family import MapFamily, term_sums
from .orbit import orbit_matrix
from .space import (
    Point,
    SpaceError,
    coord_distances,
    grid_coords,
    point_coords,
    point_to_json,
)


@dataclass(frozen=True)
class DeviationRecord:
    """One measured-versus-bound comparison."""

    x: Point
    n: int
    k: int
    measured: float
    bound: float
    holds: bool
    bound_exact: bool

    def to_json(self) -> dict:
        return {
            "x": point_to_json(self.x),
            "n": self.n,
            "k": self.k,
            "measured": self.measured,
            "bound": self.bound,
            "holds": self.holds,
            "bound_exact": self.bound_exact,
        }


def deviation_series(
    fam: MapFamily, x: Point, k_max: int, tol: float = 1e-9, n: int = 0
) -> list[DeviationRecord]:
    """Compare d(omega_{n+k}(x), f^k(omega_n(x))) against the window sum over
    terms n+1..n+k, for every k up to k_max, from one sweep of each system
    and the partial sums of n + k_max terms."""
    if k_max < 1 or n < 0:
        raise SpaceError("deviation series needs k_max >= 1 and n >= 0")
    _, sums, exact = term_sums(fam, n + k_max)
    fam.space.require(x)
    window = orbit_matrix(fam, point_coords([x], fam.space.kind), n + k_max)[n:]
    limit = orbit_matrix(fam.limit_system(), window[0], k_max)
    gaps = coord_distances(fam.space.kind, window, limit)[:, 0].tolist()
    bounds = [sums[n + k] - sums[n] for k in range(k_max + 1)]
    return [
        DeviationRecord(
            x, n, k, gaps[k], bounds[k], gaps[k] <= bounds[k] + tol, all(exact[n : n + k])
        )
        for k in range(1, k_max + 1)
    ]


@dataclass(frozen=True)
class ConvergenceProfile:
    """Grid estimates E(n, k) of D(omega^n_{n+k}, f^k) plus tail suprema.

    Each cell also carries the window-sum bound over terms n+1..n+k and
    whether the estimate respects it; the bound caps E whenever the family
    commutes with its limit or the limit is an isometry.
    """

    family_label: str
    n_values: tuple[int, ...]
    k_values: tuple[int, ...]
    matrix: tuple[tuple[float, ...], ...]  # E[n_index][k_index]
    bounds: tuple[tuple[float, ...], ...]  # window sums, same shape
    holds: tuple[tuple[bool, ...], ...]  # E <= bound + tol, same shape
    tail_sup: tuple[float, ...]  # T(n) = max_k E(n, k)
    collective_likely: bool
    eps: float

    def to_json(self) -> dict:
        return {
            "family": self.family_label,
            "n_values": list(self.n_values),
            "k_values": list(self.k_values),
            "matrix": [list(r) for r in self.matrix],
            "bounds": [list(r) for r in self.bounds],
            "holds": [list(r) for r in self.holds],
            "tail_sup": list(self.tail_sup),
            "collective_likely": self.collective_likely,
            "eps": self.eps,
        }


def collective_convergence_profile(
    fam: MapFamily, n_max: int, k_max: int, grid_resolution: int = 64,
    eps: float = 0.05, tol: float = 1e-9,
) -> ConvergenceProfile:
    """Profile how windowed compositions track limit iterates, uniformly in k.

    E(n, k) maxes d(omega^n_{n+k}(x), f^k(x)) over the grid; T(n) maxes over
    k <= k_max. The verdict flag reports trend evidence only: T must end
    below eps and be non-increasing over the last half of the n range.

    Diagonal sweep: the limit orbit is swept once and the windows step together;
    at step t, windows n with t - k_max <= n < t take f_t and are measured against
    limit row t - n, bit for bit what a sweep of each window alone gives.
    """
    if n_max < 1 or k_max < 1:
        raise SpaceError("profile needs n_max >= 1 and k_max >= 1")
    coords = grid_coords(fam.space, grid_resolution)
    _, sums, _ = term_sums(fam, n_max + k_max)
    n_values = tuple(range(1, n_max + 1))
    k_values = tuple(range(1, k_max + 1))
    kind, steps = fam.space.kind, fam.steps(n_max + k_max)
    limit = orbit_matrix(fam.limit_system(), coords, k_max)
    windows = np.repeat(coords[None], n_max, axis=0)  # row n - 1: window n
    worst = np.empty((n_max, k_max))
    for t in range(2, n_max + k_max + 1):
        lo, hi = max(1, t - k_max), min(n_max, t - 1)
        rows = windows[lo - 1 : hi] = apply_batch(steps[t], windows[lo - 1 : hi], kind)
        gaps = coord_distances(kind, rows, limit[t - lo : t - hi - 1 : -1])
        worst[np.arange(lo - 1, hi), t - 1 - np.arange(lo, hi + 1)] = gaps.max(axis=1)
    matrix = tuple(map(tuple, worst.tolist()))
    bounds = tuple(tuple(sums[n + k] - sums[n] for k in k_values) for n in n_values)
    holds = tuple(tuple(e <= b + tol for e, b in zip(*rows)) for rows in zip(matrix, bounds))
    tail = tuple(max(row) for row in matrix)
    half = len(tail) // 2
    non_increasing = all(
        tail[i + 1] <= tail[i] + 1e-12 for i in range(half, len(tail) - 1)
    )
    likely = tail[-1] < eps and non_increasing
    return ConvergenceProfile(
        family_label=fam.label,
        n_values=n_values,
        k_values=k_values,
        matrix=matrix,
        bounds=bounds,
        holds=holds,
        tail_sup=tail,
        collective_likely=likely,
        eps=eps,
    )
