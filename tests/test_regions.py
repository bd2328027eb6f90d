"""Exact forward-image regions versus sampled oracles."""

import math

import numpy as np
import pytest

from nonautodyn.descriptors import AffineCircle, Rotation, apply
from nonautodyn.family import PLATEAU_HEAD, TENT
from nonautodyn.regions import (
    ArcRegion,
    IntervalRegion,
    ball_region,
    family_supports_regions,
    region_chains,
)
from nonautodyn.space import (
    TWO_PI,
    CircleAngle,
    IntervalPoint,
    PhaseSpace,
    distance,
)

CIRCLE = PhaseSpace.circle()
INTERVAL = PhaseSpace.unit_interval()


def _chain(region, *steps):
    """The one region through the steps, as a chain."""
    return region_chains([region], list(steps))


def test_ball_region_shapes():
    r = ball_region(INTERVAL, IntervalPoint(0.5), 0.1)
    assert (r.lo, r.hi) == (0.4, 0.6)
    a = ball_region(CIRCLE, CircleAngle(0.0), 0.2)
    assert a.length == pytest.approx(0.4)


def test_interval_step_matches_dense_sampling():
    region = IntervalRegion(0.3, 0.45)
    image = _chain(region, TENT)
    samples = [apply(TENT, IntervalPoint(v)).x for v in np.linspace(0.3, 0.45, 400)]
    assert image.a[1, 0] == pytest.approx(min(samples), abs=1e-6)
    assert image.b[1, 0] == pytest.approx(max(samples), abs=1e-6)


def test_arc_step_under_doubling():
    arc = ArcRegion(1.0, 0.5)
    image = _chain(arc, AffineCircle(2, 0.25))
    assert image.a[1, 0] == pytest.approx(2.25)
    assert image.b[1, 0] == pytest.approx(1.0)
    # membership oracle
    thetas = [
        apply(AffineCircle(2, 0.25), CircleAngle(1.0 + t)).theta for t in np.linspace(0, 0.5, 50)
    ]
    assert (image.distances(0, np.array(thetas))[1] == 0.0).all()


def test_arc_wraps_to_full_cover():
    arc = ArcRegion(0.0, 2.0)
    image = _chain(arc, AffineCircle(2, 0.0), AffineCircle(2, 0.0))
    assert image.b[2, 0] >= TWO_PI
    assert image.covering_defects()[2, 0] == 0.0


def test_plateau_collapse_detected():
    region = ball_region(INTERVAL, IntervalPoint(0.25), 0.1)
    image = _chain(region, PLATEAU_HEAD)
    step, midpoint = image.collapse(0)
    assert step == 1
    assert midpoint.x == 1.0


def test_rotation_preserves_arc_length():
    arc = ArcRegion(0.3, 0.8)
    image = _chain(arc, Rotation(1.7))
    assert image.b[1, 0] == arc.length


def test_region_distance_matches_sampled_minimum():
    arc = ArcRegion(5.5, 0.9)  # wraps through zero
    thetas = np.linspace(0, TWO_PI, 37, endpoint=False)
    measured = _chain(arc).distances(0, thetas)[0]
    for theta, got in zip(thetas, measured):
        p = CircleAngle(theta)
        dense = min(
            distance(CIRCLE, p, CircleAngle(5.5 + t)) for t in np.linspace(0, 0.9, 600)
        )
        assert got == pytest.approx(dense, abs=2e-3)

    region = IntervalRegion(0.2, 0.4)
    near, inside, far = _chain(region).distances(0, np.array([0.1, 0.3, 0.9]))[0]
    assert near == pytest.approx(0.1)
    assert inside == 0.0
    assert far == pytest.approx(0.5)


def test_covering_defect_values():
    assert _chain(IntervalRegion(0.25, 1.0)).covering_defects()[0, 0] == 0.25
    assert _chain(IntervalRegion(0.0, 1.0)).covering_defects()[0, 0] == 0.0
    arc = ArcRegion(0.0, math.pi)
    assert _chain(arc).covering_defects()[0, 0] == pytest.approx(math.pi / 2)


def test_diameter_caps_at_geodesic_diameter():
    assert _chain(ArcRegion(0.0, 0.4)).diameters()[0, 0] == pytest.approx(0.4)
    assert _chain(ArcRegion(0.0, 5.0)).diameters()[0, 0] == math.pi
    assert _chain(IntervalRegion(0.2, 0.7)).diameters()[0, 0] == pytest.approx(0.5)


def test_family_support_probe():
    assert family_supports_regions(CIRCLE, [Rotation(1.0), AffineCircle(2, 0.1)])
    assert family_supports_regions(INTERVAL, [TENT, PLATEAU_HEAD])
    from nonautodyn.descriptors import OdometerAdd

    assert not family_supports_regions(PhaseSpace.binary_seq(8), [OdometerAdd()])
