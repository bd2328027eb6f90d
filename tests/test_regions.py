"""Exact forward-image regions versus sampled oracles."""

import math

import numpy as np
import pytest

from nonautodyn.descriptors import AffineCircle, Rotation, apply
from nonautodyn.family import PLATEAU_HEAD, TENT
from nonautodyn.regions import ball_chains, region_chains
from nonautodyn.space import (
    TWO_PI,
    CircleAngle,
    IntervalPoint,
    PhaseSpace,
    SpaceKind,
    distance,
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
    assert (image.distances(0, np.array(thetas))[1] == 0.0).all()


def test_arc_wraps_to_full_cover():
    image = _chain(ARC, 0.0, 2.0, AffineCircle(2, 0.0), AffineCircle(2, 0.0))
    assert image.b[2, 0] >= TWO_PI
    assert image.covering_defects()[2, 0] == 0.0


def test_plateau_collapse_detected():
    image = _ball(INTERVAL, 0.25, 0.1, PLATEAU_HEAD)
    step, midpoint = image.collapse(0)
    assert step == 1
    assert midpoint == 1.0


def test_rotation_preserves_arc_length():
    image = _chain(ARC, 0.3, 0.8, Rotation(1.7))
    assert image.b[1, 0] == 0.8


def test_region_distance_matches_sampled_minimum():
    thetas = np.linspace(0, TWO_PI, 37, endpoint=False)
    measured = _chain(ARC, 5.5, 0.9).distances(0, thetas)[0]  # wraps through zero
    for theta, got in zip(thetas, measured):
        p = CircleAngle(theta)
        dense = min(
            distance(CIRCLE, p, CircleAngle(5.5 + t)) for t in np.linspace(0, 0.9, 600)
        )
        assert got == pytest.approx(dense, abs=2e-3)

    near, inside, far = _chain(INTERVAL, 0.2, 0.4).distances(0, np.array([0.1, 0.3, 0.9]))[0]
    assert near == pytest.approx(0.1)
    assert inside == 0.0
    assert far == pytest.approx(0.5)


def test_covering_defect_values():
    assert _chain(INTERVAL, 0.25, 1.0).covering_defects()[0, 0] == 0.25
    assert _chain(INTERVAL, 0.0, 1.0).covering_defects()[0, 0] == 0.0
    assert _chain(ARC, 0.0, math.pi).covering_defects()[0, 0] == pytest.approx(math.pi / 2)


def test_diameter_caps_at_geodesic_diameter():
    assert _chain(ARC, 0.0, 0.4).diameters()[0, 0] == pytest.approx(0.4)
    assert _chain(ARC, 0.0, 5.0).diameters()[0, 0] == math.pi
    assert _chain(INTERVAL, 0.2, 0.7).diameters()[0, 0] == pytest.approx(0.5)


def test_kernel_decides_support():
    assert _ball(ARC, 1.0, 0.1, Rotation(1.0), AffineCircle(2, 0.1)) is not None
    assert _ball(INTERVAL, 0.5, 0.1, TENT, PLATEAU_HEAD) is not None
    from nonautodyn.descriptors import OdometerAdd

    assert _ball(SpaceKind.BINARY_SEQ, 0.0, 0.1, OdometerAdd()) is None
