"""The array region kernel, bit for bit against a plain-Python per-region rule."""

import bisect
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonautodyn.checkers import CheckConfig, Mode, SystemView, _supports_regions
from nonautodyn.descriptors import (
    AffineCircle,
    Compose,
    Lookup,
    PiecewiseLinear,
    Rotation,
    as_piecewise_linear,
    circle_canonical,
)
from nonautodyn.family import PLATEAU_HEAD, TENT, MapFamily
from nonautodyn.regions import (
    ArcRegion,
    IntervalRegion,
    _step_arcs,
    region_chains,
)
from nonautodyn.report import ALL_PROPERTIES, ScenarioSpec, run_comparison
from nonautodyn.space import TWO_PI, PhaseSpace, SpaceError, reduce_angle

# ---------------------------------------------------------------------------
# reference: one region object per step, in plain Python floats


def _ref_pl_eval(pl, x):
    xs, ys = pl.xs, pl.ys
    i = bisect.bisect_right(xs, x) - 1
    if i >= len(xs) - 1:
        return ys[-1]
    x0, y0 = xs[i], ys[i]
    x1, y1 = xs[i + 1], ys[i + 1]
    if x == x0:
        return y0
    return y0 + (y1 - y0) * (x - x0) / (x1 - x0)


def _ref_step(region, m):
    if isinstance(region, ArcRegion):
        canon = circle_canonical(m)
        if canon is None:
            return None
        slope, offset = canon
        if region.full:
            return region
        return ArcRegion(slope * region.start + offset, slope * region.length)
    pl = as_piecewise_linear(m)
    if pl is None:
        return None
    vals = [_ref_pl_eval(pl, region.lo), _ref_pl_eval(pl, region.hi)]
    for x, y in pl.breakpoints:
        if region.lo < x < region.hi:
            vals.append(y)
    return IntervalRegion(min(vals), max(vals))


def _fields(region):
    if isinstance(region, ArcRegion):
        return region.start, region.length
    return region.lo, region.hi


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def _assert_matches_reference(starts, steps):
    try:
        ref = [[r] for r in starts]
        for m in steps:
            for chain in ref:
                chain.append(_ref_step(chain[-1], m))
            if any(chain[-1] is None for chain in ref):
                break
    except SpaceError:
        with pytest.raises(SpaceError):
            region_chains(starts, steps)
        return
    chains = region_chains(starts, steps)
    if any(chain[-1] is None for chain in ref):
        assert chains is None
        return
    assert chains.a.shape == chains.b.shape == (len(steps) + 1, len(starts))
    for j, chain in enumerate(ref):
        a, b = zip(*(_fields(r) for r in chain))
        assert _bits(chains.a[:, j]) == _bits(a)
        assert _bits(chains.b[:, j]) == _bits(b)
    if steps:
        one = region_chains(starts[:1], steps[:1])
        assert (one.a[1, 0], one.b[1, 0]) == _fields(ref[0][1])


# ---------------------------------------------------------------------------
# strategies

# signed zeros are valid coordinates, and ties between them decide signs
unit = st.one_of(st.just(-0.0), st.floats(0.0, 1.0))
angle = st.one_of(st.just(0.0), st.just(-0.0), st.floats(0.0, TWO_PI, exclude_max=True))
# starts just below 2pi with lengths past the gap wrap through 0; lengths of
# 2pi and beyond are full arcs
arc = st.one_of(
    st.builds(ArcRegion, angle, st.floats(0.0, 1.5 * TWO_PI)),
    st.builds(ArcRegion, st.floats(TWO_PI - 0.5, TWO_PI, exclude_max=True), st.floats(0.5, 3.0)),
    st.builds(ArcRegion, angle, st.just(TWO_PI)),
)
circle_step = st.one_of(
    st.builds(Rotation, angle),
    st.builds(AffineCircle, st.integers(1, 3), angle),
    st.builds(Compose, st.builds(AffineCircle, st.integers(1, 3), angle), st.builds(Rotation, angle)),
)


@st.composite
def pl_maps(draw):
    inner = draw(st.lists(st.floats(0.01, 0.99), max_size=5, unique=True))
    xs = [0.0] + sorted(inner) + [1.0]
    ys = [draw(unit)]
    for _ in xs[1:]:
        # repeat the previous value now and then: a flat piece
        ys.append(ys[-1] if draw(st.booleans()) else draw(unit))
    return PiecewiseLinear(tuple(zip(xs, ys)))


linear_lookup = st.builds(Lookup, st.lists(unit, min_size=2, max_size=9).map(tuple))
interval_step = st.one_of(
    pl_maps(),
    linear_lookup,
    st.builds(Compose, pl_maps(), linear_lookup),
    st.builds(Compose, linear_lookup, pl_maps()),
)


@st.composite
def intervals(draw):
    lo, hi = sorted([draw(st.one_of(st.just(0.0), unit)), draw(st.one_of(st.just(1.0), unit))])
    return IntervalRegion(lo, hi)


# ---------------------------------------------------------------------------
# tests


@settings(max_examples=300, deadline=None)
@given(st.lists(arc, min_size=1, max_size=6), st.lists(circle_step, max_size=12))
def test_arc_chains_match_reference(starts, steps):
    _assert_matches_reference(starts, steps)


@settings(max_examples=300, deadline=None)
@given(st.lists(intervals(), min_size=1, max_size=6), st.lists(interval_step, max_size=8))
def test_interval_chains_match_reference(starts, steps):
    _assert_matches_reference(starts, steps)


def test_arcs_through_zero_and_to_full():
    starts = [ArcRegion(0.0, 0.4), ArcRegion(TWO_PI - 0.1, 0.3), ArcRegion(1.0, TWO_PI)]
    steps = [AffineCircle(3, 0.25)] * 4 + [Rotation(2.0)]
    _assert_matches_reference(starts, steps)
    chains = region_chains(starts, steps)
    assert chains.b[-1].tolist() == [TWO_PI] * 3
    assert chains.a[-1, 2] == 1.0


def test_arc_starts_reduce_like_reduce_angle():
    # valid arcs never step to a negative angle, so both corrections are
    # probed here directly; -1e-300 + 2pi rounds to 2pi and needs the second
    raw = np.array([-1e-300, -1.0, -TWO_PI, 7.0, -0.0, 0.0])
    starts, _ = _step_arcs(1, 0.0, raw, np.zeros(raw.size))
    assert _bits(starts) == _bits([reduce_angle(1 * t + 0.0) for t in raw.tolist()])


def test_nearest_lookup_step_has_no_image():
    nearest = Lookup((0.0, 0.5, 1.0), "nearest")
    assert region_chains([IntervalRegion(0.0, 0.5)], [TENT, nearest, TENT]) is None
    _assert_matches_reference([IntervalRegion(0.0, 0.5)], [TENT, nearest, TENT])


# A family whose step 70, past the 64-step support probe, has no exact image:
# the probe accepts it, the kernel refuses it, and every checker falls back to
# sampling in the non-autonomous mode.
NEAREST = Lookup(tuple(min(1.0, 2 * i / 16, 2 - 2 * i / 16) for i in range(17)), "nearest")


def _late_nearest(n: int):
    if n == 70:
        return NEAREST
    return PLATEAU_HEAD if n == 1 else TENT


LATE_NEAREST = MapFamily(
    space=PhaseSpace.unit_interval(), generator=_late_nearest, limit=TENT, label="late-nearest"
)


class _LateNearestSpec(ScenarioSpec):
    def build_family(self):
        return LATE_NEAREST


LATE_SPEC = _LateNearestSpec(
    family_config={"label": "late-nearest", "built_in": "python"},
    check=CheckConfig(
        horizon=100, grid_resolution=6, ball_count=5, eps=0.1, delta=0.25,
        tol=1e-9, tail_window=50, max_period=4, repetitions=2,
    ),
    properties=ALL_PROPERTIES,
    label="late-nearest",
)


def test_late_nearest_step_falls_back_to_sampling():
    starts = [IntervalRegion(0.2, 0.4)]
    sys_F = SystemView(LATE_NEAREST, Mode.NON_AUTONOMOUS)
    assert _supports_regions(sys_F, 100)
    assert region_chains(starts, sys_F.steps(100)[1:101]) is None
    assert region_chains(starts, sys_F.steps(69)[1:70]) is not None
    sys_f = SystemView(LATE_NEAREST, Mode.AUTONOMOUS_LIMIT)
    assert region_chains(starts, sys_f.steps(100)[1:101]) is not None


def test_late_nearest_report_is_pinned():
    # sha256 of the report text as produced with one region object per step,
    # with a minimality narrative that counts grid starts; it covers the
    # version string, so a version bump changes it
    text = run_comparison(LATE_SPEC).to_json_text()
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "e6e0680f4c0242c13bb7ab63d577801d1ca623c1ef93432a45ef22327eb311ea"
    )
