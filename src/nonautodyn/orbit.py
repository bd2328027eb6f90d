"""The orbit kernel: every sequence of map applications runs through
``orbit_matrix``.

Orbits index from 0 with the identity, so states[n] is the point after maps
1..n have been applied. A sweep may start after step n, applying maps
n+1..n+k, which makes the semigroup identity

    omega(fam, x, n + k) == the last row of orbit_matrix(fam, y, k, start=n)

for y the coordinates of omega(fam, x, n), hold bit-exactly: both sides
perform the same float operations in the same order. Evaluation is
forward-only; no inverse maps are ever computed.

Still tails: a step is a pure elementwise function of its map and the row
before, so once row j is bitwise equal to row j-1, every later row that the
same map object makes equals it too. ``orbit_matrix`` compares the bytes of
rows j and j-1 at each power-of-two j (a family that never goes still pays
about log2(horizon) comparisons) and then fills the rows up to the first
different map with one broadcast (``descriptors.repeat_end``). Bytes, not
``==``, so that -0.0 and 0.0 stay apart.

Every sweep of a family reads its one step table (``MapFamily.steps``); the
limit system is the family with no steps, f, f, f, ....

``omega``, the one-point orbit operator, sweeps one column through the
kernel. Binary words are packed (``space.point_coords``), so words longer
than ``space.MAX_WORD_BITS`` coordinates raise ``SpaceError``.
"""

from __future__ import annotations

import numpy as np

from .descriptors import apply_batch, repeat_end
from .family import MapFamily
from .space import Point, SpaceError, coord_point, point_coords


def orbit_matrix(fam: MapFamily, coords: np.ndarray, horizon: int, start: int = 0) -> np.ndarray:
    """Vectorized orbit sweep of a coordinate array (``space.point_coords``),
    shape (horizon+1, len). Row j is the state after steps start+1..start+j;
    a still tail is filled, not stepped (see the module docstring)."""
    kind = fam.space.kind
    steps = fam.steps(start + horizon)
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
    rows = orbit_matrix(fam, point_coords([x], kind), n)
    return coord_point(rows[-1, 0], kind)
