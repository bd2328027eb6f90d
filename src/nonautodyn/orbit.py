"""The orbit kernel: every sequence of map applications runs through
``orbit_matrix``.

Orbits index from 0 with the identity, so states[n] is the point after maps
1..n have been applied. A sweep may start after step n, applying maps
n+1..n+k, which makes the semigroup identity

    omega(fam, x, n + k) == the last row of orbit_matrix(view, y, k, start=n)

for y the coordinates of omega(fam, x, n), hold bit-exactly: both sides
perform the same float operations in the same order. Evaluation is
forward-only; no inverse maps are ever computed.

Still tails: a step is a pure elementwise function of its map and the row
before, so once row j is bitwise equal to row j-1, every later row that the
same map object makes equals it too. ``orbit_matrix`` compares the bytes of
rows j and j-1 at each power-of-two j (a view that never goes still pays
about log2(horizon) comparisons) and then fills the rows up to the first
different map with one broadcast (``descriptors.repeat_end``). Bytes, not
``==``, so that -0.0 and 0.0 stay apart.

A limit view steps the family with no steps, f, f, f, ....

``omega``, the one-point orbit operator, sweeps one column through the
kernel. Binary words are packed (``space.point_coords``), so words longer
than ``space.MAX_WORD_BITS`` coordinates raise ``SpaceError``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .descriptors import MapDescriptor, apply_batch, repeat_end
from .family import MapFamily, step_table_family
from .space import PhaseSpace, Point, SpaceError, coord_point, point_coords


class Mode(str, Enum):
    NON_AUTONOMOUS = "non_autonomous"
    AUTONOMOUS_LIMIT = "autonomous_limit"


@dataclass(frozen=True, eq=False)
class SystemView:
    """One of the two systems under comparison: (X, F) or (X, f). A limit view
    replaces ``fam`` by the family with no steps (``step_table_family``), so
    the mode only labels the view."""

    fam: MapFamily
    mode: Mode
    #: memo for expensive intermediates (step tables, hit tables); results
    #: are pure functions of (fam, mode, config), so caching is transparent
    _cache: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.mode is Mode.AUTONOMOUS_LIMIT:
            fam = self.fam
            object.__setattr__(self, "fam", step_table_family(fam.space, (), fam.limit, fam.label))

    @property
    def space(self) -> PhaseSpace:
        return self.fam.space

    def steps(self, horizon: int) -> list[MapDescriptor]:
        """Step table: entry n is the map applied at step n, for n <= horizon.

        Built once per view and grown to the largest horizon asked for, so
        sweeps stop building a descriptor per step. Entry 0 is unused.
        """
        table = self._cache.setdefault("steps", [None])
        for n in range(len(table), horizon + 1):
            table.append(self.fam.member(n))
        return table


def orbit_matrix(sys: SystemView, coords: np.ndarray, horizon: int, start: int = 0) -> np.ndarray:
    """Vectorized orbit sweep of a coordinate array (``space.point_coords``),
    shape (horizon+1, len). Row j is the state after steps start+1..start+j;
    a still tail is filled, not stepped (see the module docstring)."""
    kind = sys.space.kind
    steps = sys.steps(start + horizon)
    rows = np.empty((horizon + 1, coords.shape[0]), dtype=coords.dtype)
    rows[0] = coords
    j = 1
    while j <= horizon:
        rows[j] = apply_batch(steps[start + j], rows[j - 1], kind)
        if j & (j - 1) == 0 and rows[j].tobytes() == rows[j - 1].tobytes():
            k = repeat_end(steps, start + j, start + horizon + 1) - start
            rows[j + 1 : k + 1] = rows[j]
            j = k
        j += 1
    return rows


def omega(fam: MapFamily, x: Point, n: int) -> Point:
    """Apply maps 1..n in order; n = 0 returns x unchanged."""
    if n < 0:
        raise SpaceError("orbit indices must be nonnegative")
    fam.space.require(x)
    kind = fam.space.kind
    rows = orbit_matrix(SystemView(fam, Mode.NON_AUTONOMOUS), point_coords([x], kind), n)
    return coord_point(rows[-1, 0], kind)
