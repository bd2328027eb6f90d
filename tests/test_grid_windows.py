"""The sampled ball table from grid windows: windowed hits, dense flags,
final defects and first visits against dense distances, and how many
elements the odometer ball table measures."""

import math
import sys

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nonautodyn import checkers
from nonautodyn.checkers import (
    CheckConfig,
    _compute_ball_evidence,
    _sampled_ball_table,
    checker_grid,
)
from nonautodyn.report import CATALOG
from nonautodyn.space import (
    TWO_PI,
    WORD_DTYPE,
    PhaseSpace,
    SpaceKind,
    ball_coords,
    coord_distances,
    grid_coords,
    grid_window,
    reduce_angle,
)


def _dense_table(space, resolution, eps, centers, orbits, cols):
    """Hits, dense flags and final defects from every sample against every
    grid point, and the first time each ball's first sample comes within eps
    (<= eps) of each grid point, or -1."""
    full = grid_coords(space, resolution)
    hits, dense, final, visits = [], [], [], []
    for idx in cols:
        cloud = orbits[:, idx, None]
        hits.append((coord_distances(space.kind, cloud, centers).min(axis=1) < eps).T)
        defects = coord_distances(space.kind, cloud, full).min(axis=1)
        dense.append((defects < eps).all(axis=1))
        final.append(defects[-1].max())
        near = coord_distances(space.kind, cloud[:, 0], full) <= eps
        visits.append(np.where(near.any(axis=0), near.argmax(axis=0), -1))
    return np.array(hits), np.array(dense), np.array(final), np.array(visits)


def _eps(draw, unit: float) -> float:
    """unit/k, or one ulp either side of it."""
    eps = unit / draw(st.integers(1, 40))
    return draw(st.sampled_from([eps, math.nextafter(eps, 0.0), math.nextafter(eps, math.inf)]))


def _words(draw, space, resolution, eps, count):
    """Packed words: grid words and centers, as they are or with one
    coordinate flipped, and words of any length and effective length."""
    grids = np.concatenate([grid_coords(space, resolution), checker_grid_of(space, resolution)])
    g = len(grid_coords(space, resolution)).bit_length() - 1
    q = max(min(g, math.floor(1.0 / eps) - 1), 0)
    words = np.zeros(count, dtype=WORD_DTYPE)
    for i in range(count):
        if draw(st.booleans()):
            w = grids[draw(st.integers(0, len(grids) - 1))].copy()
            if draw(st.booleans()):
                w["value"] ^= 1 << draw(st.integers(0, int(w["length"]) - 1))
        else:
            length = draw(st.integers(1, min(space.word_length + 2, 63)))
            # effective lengths at or below the window's prefix among them
            eff = draw(st.integers(1, length) | st.integers(1, max(1, min(q, length))))
            w = np.array((draw(st.integers(0, 2**length - 1)), length, eff), dtype=WORD_DTYPE)
        words[i] = w
    return words


def checker_grid_of(space, resolution):
    return checker_grid(space, CheckConfig(grid_resolution=resolution))


def _reals(draw, space, resolution, eps, count):
    """Floats on the grid and an ulp or eps off it, near the ends of the
    space, and an ulp outside [0, 1] on the interval."""
    grid = grid_coords(space, resolution)
    top = TWO_PI if space.kind is SpaceKind.CIRCLE else 1.0
    special = [0.0, 5e-324, 1e-17, math.nextafter(top, 0.0)]
    if space.kind is SpaceKind.UNIT_INTERVAL:
        special += [-5e-324, -0.0, 1.0, math.nextafter(1.0, 2.0)]
    xs = []
    for _ in range(count):
        how = draw(st.sampled_from(["any", "special", "grid"]))
        if how == "any":
            x = draw(st.floats(0.0, top, exclude_max=True))
        elif how == "special":
            x = draw(st.sampled_from(special))
        else:
            c = float(grid[draw(st.integers(0, len(grid) - 1))])
            x = draw(st.sampled_from([
                c, math.nextafter(c, -math.inf), math.nextafter(c, math.inf), c - eps, c + eps,
            ]))
            if space.kind is SpaceKind.CIRCLE:
                x = reduce_angle(x)
            else:
                x = min(max(x, -5e-324), math.nextafter(1.0, 2.0))
        xs.append(x)
    return np.array(xs)


@st.composite
def _tables(draw):
    kind = draw(st.sampled_from(list(SpaceKind)))
    if kind is SpaceKind.BINARY_SEQ:
        g = draw(st.integers(1, 12))
        length = 1 if g == 1 else draw(st.integers(g, 24))
        resolution = 2 if g == 1 else (g if g < 12 else draw(st.integers(12, 14)))
        space = PhaseSpace.binary_seq(length)
        eps = _eps(draw, 1.0)
    else:
        space = PhaseSpace.circle() if kind is SpaceKind.CIRCLE else PhaseSpace.unit_interval()
        resolution = draw(st.integers(2, 40))
        eps = _eps(draw, draw(st.sampled_from([1.0, math.pi])))
    T, S = draw(st.integers(1, 4)), draw(st.integers(1, 12))
    sample = _words if kind is SpaceKind.BINARY_SEQ else _reals
    orbits = sample(draw, space, resolution, eps, T * S).reshape(T, S)
    balls = draw(st.lists(st.lists(st.integers(0, S - 1), min_size=1, max_size=6), min_size=1, max_size=5))
    return space, resolution, eps, orbits, [np.array(b) for b in balls]


# x = 15/24 of the turn is pi/12 from the grid points 7 and 8 of 12, and
# eps*scale rounds below 1/2: the window's last index is one of these hits
ROUNDED_WIDTH = (
    PhaseSpace.circle(), 12, 0.2617993877991494, np.array([[3.9269908169872414]]), [np.array([0])]
)


@settings(max_examples=400, deadline=None)
@given(_tables())
@example(ROUNDED_WIDTH)
def test_windowed_table_matches_dense_distances(table):
    space, resolution, eps, orbits, cols = table
    centers = checker_grid_of(space, resolution)
    got = _sampled_ball_table(space, resolution, eps, centers, orbits, cols)
    want = _dense_table(space, resolution, eps, centers, orbits, cols)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    assert got[2].tobytes() == want[2].tobytes()
    assert np.array_equal(got[3], want[3])


@settings(max_examples=300, deadline=None)
@given(_tables())
@example(ROUNDED_WIDTH)
def test_window_holds_every_grid_point_within_eps(table):
    space, resolution, eps, orbits, _ = table
    grid = grid_coords(space, resolution)
    window = grid_window(space, resolution, orbits, eps)
    inside = np.zeros(orbits.shape + (len(grid),), dtype=bool)
    np.put_along_axis(inside, window, True, axis=-1)
    for centers in (grid, checker_grid_of(space, resolution)):
        # minimality reads the window's distances with <= eps, the hits with < eps
        near = coord_distances(space.kind, orbits[..., None], centers) <= eps
        assert not (near & ~inside).any()


def test_binary_window_is_a_run_of_grid_words():
    # grid of 6-coordinate words, eps 0.2: q = 4, so 4 of 64 grid words
    space = PhaseSpace.binary_seq(24)
    word = np.array([(0b1011 | 1 << 9, 24, 24)], dtype=WORD_DTYPE)
    # coordinates 1..4 are 1, 1, 0, 1: index bits 5..2 read 1101
    assert grid_window(space, 6, word, 0.2).tolist() == [[52, 53, 54, 55]]


def test_odometer_ball_table_measures_only_window_candidates(monkeypatch):
    spec = CATALOG["odometer-deletion"]
    cfg, space = spec.check, spec.build_family().space
    centers = checker_grid(space, cfg)
    N, G = cfg.horizon, len(centers)
    S = sum(map(len, ball_coords(space, centers, cfg.eps, cfg.ball_count)))
    W = grid_window(space, cfg.grid_resolution, centers[:0], cfg.eps).shape[1]
    measured = []

    def counting(kind, a, b):
        if sys._getframe(1).f_code.co_name == "_sampled_ball_table":
            measured.append(np.broadcast(a, b).size)
        return coord_distances(kind, a, b)

    monkeypatch.setattr(checkers, "coord_distances", counting)
    _compute_ball_evidence(spec.build_family(), cfg)
    # hits, dense flags and the grid starts' first visits over the windows of
    # every row, the last row densely; every sample against every grid point
    # would be 2 * (N+1) * S * G. The evidence also measures its balls'
    # separations and the pair codes from the same sweep, apart from the table
    assert (W, G) == (4, 64)
    assert sum(measured) <= 2 * (N + 1) * S * W + S * G
