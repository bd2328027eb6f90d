"""Exact forward-image regions versus sampled oracles."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nonautodyn import regions
from nonautodyn.checkers import _ball_evidence, _compute_ball_evidence, _exact, _rungs
from nonautodyn.descriptors import AffineCircle, Rotation, apply
from nonautodyn.family import PLATEAU_HEAD, TENT, step_table_family
from nonautodyn.regions import RegionChains, ball_chains, exact_chains, region_chains
from nonautodyn.report import CATALOG
from nonautodyn.space import (
    TWO_PI,
    CircleAngle,
    IntervalPoint,
    PhaseSpace,
    SpaceKind,
    distance,
    grid_coords,
    reduce_angle,
)

CIRCLE = PhaseSpace.circle()
ARC, INTERVAL = SpaceKind.CIRCLE, SpaceKind.UNIT_INTERVAL


def _chain(kind, a0, b0, *steps):
    """The one region (a0, b0) through the steps, as a chain."""
    return region_chains(kind, np.array([a0]), np.array([b0]), list(steps))


def _ball(kind, center, radius, *steps):
    """The one ball through the steps, as a chain."""
    return ball_chains(kind, np.array([center]), np.array([radius]), list(steps))


def _ref_distances(kind, a, b, coords):
    """Distance from each coordinate to the region (a, b) it broadcasts with,
    0 where contained: the rule that decides a hit, as a full distance array."""
    if kind is ARC:
        z = np.mod(coords - a, TWO_PI)
        w = np.mod(z - b, TWO_PI)
        out = np.minimum(np.minimum(z, TWO_PI - z), np.minimum(w, TWO_PI - w))
        return np.where((z <= b) | (b >= TWO_PI), 0.0, out)
    return np.maximum(np.maximum(a - coords, coords - b), 0.0)


def test_ball_region_shapes():
    r = _ball(INTERVAL, 0.5, 0.1)
    assert (r.a[0, 0], r.b[0, 0]) == (0.4, 0.6)
    a = _ball(ARC, 0.0, 0.2)
    assert a.b[0, 0] == pytest.approx(0.4)


def test_balls_start_together():
    # one vectorised row, equal to the per-ball rule: arc starts reduce like
    # reduce_angle and wrap through zero, intervals clip to [0, 1]
    centers, radii = [0.1, 3.0, 6.2], [0.2, 0.5, 0.3]
    arcs = ball_chains(ARC, np.array(centers), np.array(radii), [])
    assert arcs.a[0].tolist() == [reduce_angle(c - r) for c, r in zip(centers, radii)]
    assert arcs.b[0].tolist() == [2.0 * r for r in radii]
    centers, radii = [0.05, 0.5, 0.95], [0.1, 0.1, 0.1]
    intervals = ball_chains(INTERVAL, np.array(centers), np.array(radii), [])
    assert intervals.a[0].tolist() == [max(0.0, c - r) for c, r in zip(centers, radii)]
    assert intervals.b[0].tolist() == [min(1.0, c + r) for c, r in zip(centers, radii)]
    assert intervals.a[0, 0] == 0.0 and intervals.b[0, 2] == 1.0


def test_interval_step_matches_dense_sampling():
    image = _chain(INTERVAL, 0.3, 0.45, TENT)
    samples = [apply(TENT, IntervalPoint(v)).x for v in np.linspace(0.3, 0.45, 400)]
    assert image.a[1, 0] == pytest.approx(min(samples), abs=1e-6)
    assert image.b[1, 0] == pytest.approx(max(samples), abs=1e-6)


def test_arc_step_under_doubling():
    image = _chain(ARC, 1.0, 0.5, AffineCircle(2, 0.25))
    assert image.a[1, 0] == pytest.approx(2.25)
    assert image.b[1, 0] == pytest.approx(1.0)
    # membership oracle
    thetas = [
        apply(AffineCircle(2, 0.25), CircleAngle(1.0 + t)).theta for t in np.linspace(0, 0.5, 50)
    ]
    assert (_ref_distances(ARC, image.a[1, 0], image.b[1, 0], np.array(thetas)) == 0.0).all()


def test_arc_wraps_to_full_cover():
    image = _chain(ARC, 0.0, 2.0, AffineCircle(2, 0.0), AffineCircle(2, 0.0))
    assert image.b[2, 0] >= TWO_PI
    assert image.covering_defects()[2, 0] == 0.0


def test_plateau_collapse_detected():
    image = _ball(INTERVAL, 0.25, 0.1, PLATEAU_HEAD)
    step, midpoint = image.collapses()[0]
    assert step == 1
    assert midpoint == 1.0


def test_collapses_are_read_per_chain():
    # the tent map, the flat head, the tent map: balls inside [0, 1/2) after
    # the first step collapse at the second, the others never do
    centers, radii = np.array([0.25, 0.9, 0.05, 0.6]), np.array([0.1, 0.05, 0.04, 0.3])
    image = ball_chains(INTERVAL, centers, radii, [TENT, PLATEAU_HEAD, TENT])
    assert image.collapses() == [None, (2, 0.0), (2, 0.0), None]


def test_rotation_preserves_arc_length():
    image = _chain(ARC, 0.3, 0.8, Rotation(1.7))
    assert image.b[1, 0] == 0.8


def test_region_distance_matches_sampled_minimum():
    thetas = np.linspace(0, TWO_PI, 37, endpoint=False)
    arc = _chain(ARC, 5.5, 0.9)  # wraps through zero
    measured = _ref_distances(ARC, arc.a[0, 0], arc.b[0, 0], thetas)
    for theta, got in zip(thetas, measured):
        p = CircleAngle(theta)
        dense = min(
            distance(CIRCLE, p, CircleAngle(5.5 + t)) for t in np.linspace(0, 0.9, 600)
        )
        assert got == pytest.approx(dense, abs=2e-3)

    interval = _chain(INTERVAL, 0.2, 0.4)
    coords = np.array([0.1, 0.3, 0.9])
    near, inside, far = _ref_distances(INTERVAL, interval.a[0, 0], interval.b[0, 0], coords)
    assert near == pytest.approx(0.1)
    assert inside == 0.0
    assert far == pytest.approx(0.5)


def test_covering_defect_values():
    assert _chain(INTERVAL, 0.25, 1.0).covering_defects()[0, 0] == 0.25
    assert _chain(INTERVAL, 0.0, 1.0).covering_defects()[0, 0] == 0.0
    assert _chain(ARC, 0.0, math.pi).covering_defects()[0, 0] == pytest.approx(math.pi / 2)


def test_covering_defect_is_never_negative():
    # np.interp can round interval ends an ulp out of [0, 1]
    assert _chain(INTERVAL, -5e-17, 1.0 + 2**-52).covering_defects()[0, 0] == 0.0


def test_diameter_caps_at_geodesic_diameter():
    assert _chain(ARC, 0.0, 0.4).diameters()[0, 0] == pytest.approx(0.4)
    assert _chain(ARC, 0.0, 5.0).diameters()[0, 0] == math.pi
    assert _chain(INTERVAL, 0.2, 0.7).diameters()[0, 0] == pytest.approx(0.5)


def test_kernel_decides_support():
    assert exact_chains(ARC, [Rotation(1.0), AffineCircle(2, 0.1)])
    assert exact_chains(INTERVAL, [TENT, PLATEAU_HEAD])
    from nonautodyn.descriptors import OdometerAdd

    assert not exact_chains(SpaceKind.BINARY_SEQ, [OdometerAdd()])


# ---------------------------------------------------------------------------
# the hit table from region ends, against the distance rule on every center


def _ref_hits(chains, step, grid, eps, count):
    """hits[u, v, n] = distance from grid[v] to region n of chain u * step < eps."""
    a, b = chains.a[:, ::step, None], chains.b[:, ::step, None]
    return (_ref_distances(chains.kind, a, b, grid) < eps)[:, :count].transpose(1, 2, 0)


def _hits(chains, step, grid, eps, count):
    out = np.ones((count, len(grid), chains.a.shape[0]), dtype=bool)  # every cell is written
    chains.hits(step, grid, eps, out)
    return out


@st.composite
def _hit_case(draw):
    """A uniform grid, an eps and a few chains of regions, with centers at
    eps from an end, arcs through zero, full and nearly full arcs, and
    interval ends an ulp outside [0, 1]."""
    kind = draw(st.sampled_from([ARC, INTERVAL]))
    G = draw(st.integers(2, 64))
    grid = grid_coords(CIRCLE if kind is ARC else PhaseSpace.unit_interval(), G)
    eps = draw(st.one_of(st.floats(1e-6, 4.0), st.floats(0.01, 2.0).map(lambda t: t / G)))
    center = st.integers(0, G - 1).map(lambda k: float(grid[k]))
    gap = st.sampled_from([eps, eps - 1e-12, eps + 1e-12])  # at eps, just inside or outside it
    if kind is ARC:
        length = st.one_of(
            st.floats(0.0, TWO_PI),
            st.just(TWO_PI),
            st.floats(0.0, 1.0).map(lambda t: TWO_PI - t * TWO_PI / G),  # within a step of full
            st.just(0.0),
        )

        @st.composite
        def region(draw):
            b = draw(length)
            a = draw(st.one_of(
                st.floats(0.0, TWO_PI, exclude_max=True),
                st.tuples(center, gap).map(lambda t: t[0] + t[1]),  # c lies eps before the start
                st.tuples(center, gap).map(lambda t: t[0] - t[1] - b),  # c lies eps past the end
                st.floats(0.0, 1.0).map(lambda t: -t * b),  # through zero
            ))
            return reduce_angle(a), b
    else:
        end = st.one_of(
            st.floats(0.0, 1.0),
            st.tuples(center, gap).map(lambda t: t[0] + t[1]),
            st.tuples(center, gap).map(lambda t: t[0] - t[1]),
            st.sampled_from([-5e-17, -(2**-1074), 0.0, 1.0, 1.0 + 2**-52]),
        )

        def region():
            return st.tuples(end, end).map(sorted)
    rows, chains = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    ends = draw(st.lists(region(), min_size=rows * chains, max_size=rows * chains))
    a, b = np.array(ends).T.reshape(2, rows, chains)
    return RegionChains(kind, a, b), grid, eps


@settings(max_examples=400, deadline=None)
@given(_hit_case())
# grid point 1.0 is 1 - 1e-9 from the region, inside eps: ceil(x - tol) leaves it
# out of the sure hits, and its computed gap to x is just over tol
@example((RegionChains(INTERVAL, np.array([[0.0]]), np.array([[1e-9]])), np.array([0.0, 1.0]), 1.0))
def test_hits_match_the_distance_rule(case):
    chains, grid, eps = case
    count = chains.a.shape[1]
    want = _ref_hits(chains, 1, grid, eps, count)
    assert np.array_equal(_hits(chains, 1, grid, eps, count), want)


@pytest.mark.parametrize("mode", ["non_autonomous", "autonomous_limit"])
@pytest.mark.parametrize("name", sorted(CATALOG))
def test_builtin_hits_match_the_distance_rule(name, mode):
    spec = CATALOG[name]
    sys = spec.build_family()
    if mode == "autonomous_limit":
        sys = step_table_family(sys.space, (), sys.limit, sys.label)
    cfg = spec.check
    ev = _ball_evidence(sys, cfg)
    G, R = len(ev.centers), len(ev.balls) // len(ev.centers)
    radii = np.tile(_rungs(sys.space, cfg, 0.25, 3), G)
    if not _exact(sys, cfg.horizon):
        assert sys.space.kind is SpaceKind.BINARY_SEQ
        return
    steps = sys.steps(cfg.horizon)[1 : cfg.horizon + 1]
    chains = ball_chains(sys.space.kind, np.repeat(ev.centers, R), radii, steps)
    want, N = _ref_hits(chains, R, ev.centers, cfg.eps, G), cfg.horizon
    # the evidence keeps rows n = 1..N packed, the first hit and the hit-persistence start
    assert np.array_equal(np.unpackbits(ev.hit_rows, axis=2, count=N).astype(bool), want[:, :, 1:])
    later, backwards = want[:, :, 1:], want[:, :, :0:-1]
    assert np.array_equal(ev.first_hit, np.where(later.any(axis=2), later.argmax(axis=2) + 1, -1))
    assert np.array_equal(
        ev.hits_from, np.where(backwards.all(axis=2), 1, N + 1 - backwards.argmin(axis=2))
    )


def test_hits_evaluate_the_rule_only_at_window_ends(monkeypatch):
    # the circle distance rule takes two np.mod calls per element; a distance
    # array per center would evaluate G * G * (N+1) elements
    mods = []

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def mod(self, x, *args):
            mods.append(np.size(x))
            return np.mod(x, *args)

    monkeypatch.setattr(regions, "np", CountingNumpy())
    spec = CATALOG["alternating-rotation"]
    ev = _compute_ball_evidence(spec.build_family(), spec.check)
    G, N = len(ev.centers), spec.check.horizon
    assert sum(mods) / 2 <= 4 * G * (N + 1)
