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
needed. The deviation records here do not require the hypotheses: they are
also how a violated bound is exhibited when a hypothesis fails.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .descriptors import apply_batch
from .family import MapFamily, isometry_shrinking_check, step_table_family, term
from .orbit import orbit_matrix
from .space import (
    Point,
    SpaceError,
    coord_distances,
    coord_point,
    grid_coords,
    point_coords,
    point_to_json,
)


class HypothesisNotMetError(SpaceError):
    """A bound check was refused because its precondition fails."""


@dataclass
class BoundLedger:
    """Per-index supremum-metric terms D(f_i, f) with prefix sums.

    Terms are flagged exact when they come from closed forms; a bound built
    from any grid-estimated term (on ``family.term``'s grid) is itself
    approximate (a lower bound of the true right-hand side).
    """

    family_label: str
    terms: list[float]
    exact_flags: list[bool]
    prefix_sums: list[float]

    _fam: MapFamily | None = None

    @classmethod
    def for_family(cls, fam: MapFamily, upto: int = 0) -> "BoundLedger":
        ledger = cls(fam.label, [], [], [], fam)
        ledger.extend_to(upto)
        return ledger

    def extend_to(self, n: int) -> None:
        while len(self.terms) < n:
            i = len(self.terms) + 1
            est = term(self._fam, i)
            self.terms.append(est.value)
            self.exact_flags.append(est.exact)
            prev = self.prefix_sums[-1] if self.prefix_sums else 0.0
            self.prefix_sums.append(prev + est.value)

    def prefix(self, k: int) -> float:
        """S_k = sum of the first k terms."""
        self.extend_to(k)
        return self.prefix_sums[k - 1] if k else 0.0

    def window_sum(self, n: int, k: int) -> float:
        """sum of terms n+1 .. n+k."""
        self.extend_to(n + k)
        hi = self.prefix_sums[n + k - 1] if n + k else 0.0
        lo = self.prefix_sums[n - 1] if n else 0.0
        return hi - lo

    def window_exact(self, n: int, k: int) -> bool:
        self.extend_to(n + k)
        return all(self.exact_flags[n : n + k])


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


def _limit(fam: MapFamily) -> MapFamily:
    """The limit system (X, f): the family with no steps."""
    return step_table_family(fam.space, (), fam.limit, fam.label)


def _record(
    x: Point, n: int, k: int, measured: float, ledger: BoundLedger, tol: float
) -> DeviationRecord:
    bound = ledger.window_sum(n, k)
    return DeviationRecord(
        x=x,
        n=n,
        k=k,
        measured=measured,
        bound=bound,
        holds=measured <= bound + tol,
        bound_exact=ledger.window_exact(n, k),
    )


def deviation_series(
    fam: MapFamily, x: Point, k_max: int, tol: float = 1e-9, n: int = 0
) -> list[DeviationRecord]:
    """Compare d(omega_{n+k}(x), f^k(omega_n(x))) against the window sum over
    terms n+1..n+k, for every k up to k_max, from one sweep of each system
    and one ledger of n + k_max terms."""
    if k_max < 1 or n < 0:
        raise SpaceError("deviation series needs k_max >= 1 and n >= 0")
    ledger = BoundLedger.for_family(fam, n + k_max)
    fam.space.require(x)
    window = orbit_matrix(fam, point_coords([x], fam.space.kind), n + k_max)[n:]
    limit = orbit_matrix(_limit(fam), window[0], k_max)
    gaps = coord_distances(fam.space.kind, window, limit)[:, 0].tolist()
    return [_record(x, n, k, gaps[k], ledger, tol) for k in range(1, k_max + 1)]


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
    ledger = BoundLedger.for_family(fam, n_max + k_max)
    n_values = tuple(range(1, n_max + 1))
    k_values = tuple(range(1, k_max + 1))
    kind, steps = fam.space.kind, fam.steps(n_max + k_max)
    limit = orbit_matrix(_limit(fam), coords, k_max)
    windows = np.repeat(coords[None], n_max, axis=0)  # row n - 1: window n
    worst = np.empty((n_max, k_max))
    for t in range(2, n_max + k_max + 1):
        lo, hi = max(1, t - k_max), min(n_max, t - 1)
        rows = windows[lo - 1 : hi] = apply_batch(steps[t], windows[lo - 1 : hi], kind)
        gaps = coord_distances(kind, rows, limit[t - lo : t - hi - 1 : -1])
        worst[np.arange(lo - 1, hi), t - 1 - np.arange(lo, hi + 1)] = gaps.max(axis=1)
    matrix = tuple(map(tuple, worst.tolist()))
    bounds = tuple(tuple(ledger.window_sum(n, k) for k in k_values) for n in n_values)
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


def isometry_bound_check(
    fam: MapFamily, n: int, k: int, grid_resolution: int = 64, tol: float = 1e-9
) -> DeviationRecord:
    """Window-sum bound on D(omega^n_{n+k}, f^k) for isometric/shrinking limits.

    Refuses to run when the limit map neither preserves nor shrinks
    distances; this check has no commutation requirement, the isometry is
    what carries it.
    """
    iso, shrinking = isometry_shrinking_check(fam.space, fam.limit)
    if not (iso or shrinking):
        raise HypothesisNotMetError(
            f"limit map of {fam.label} is neither an isometry nor shrinking"
        )
    if k < 1 or n < 0:
        raise SpaceError("isometry bound check needs k >= 1 and n >= 0")
    ledger = BoundLedger.for_family(fam, n + k)
    grid = grid_coords(fam.space, grid_resolution)
    window, limit = orbit_matrix(fam, grid, k, n)[k], orbit_matrix(_limit(fam), grid, k)[k]
    gaps = coord_distances(fam.space.kind, window, limit)
    worst = int(gaps.argmax())
    return _record(coord_point(grid[worst], fam.space.kind), n, k, float(gaps[worst]), ledger, tol)

