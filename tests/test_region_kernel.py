"""The array region kernel, bit for bit against a plain-Python per-region rule."""

import bisect
import hashlib
import math
from dataclasses import dataclass

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nonautodyn.checkers import CheckConfig, _exact, orbit_matrix
from nonautodyn.descriptors import (
    AffineCircle,
    Compose,
    Lookup,
    PiecewiseLinear,
    Rotation,
    as_piecewise_linear,
    circle_canonical,
)
from nonautodyn.family import PLATEAU_HEAD, TENT, MapFamily, step_table_family
from nonautodyn.regions import ball_chains, exact_chains, region_chains
from nonautodyn.report import ALL_PROPERTIES, ScenarioSpec, run_comparison
from nonautodyn.space import (
    TWO_PI,
    IntervalPoint,
    PhaseSpace,
    SpaceError,
    SpaceKind,
    point_coords,
    reduce_angle,
    reduce_angles,
)

# ---------------------------------------------------------------------------
# reference: one region record per step, in plain Python floats


@dataclass(frozen=True)
class ArcRegion:
    """A closed arc: angles start..start+length, the start reduced into
    [0, 2pi) and the length capped at 2pi; full if the length is 2pi."""

    start: float
    length: float

    def __post_init__(self):
        if self.length < 0.0:
            raise SpaceError("arc length must be nonnegative")
        object.__setattr__(self, "start", reduce_angle(float(self.start)))
        object.__setattr__(self, "length", min(float(self.length), TWO_PI))

    @property
    def full(self) -> bool:
        return self.length >= TWO_PI


@dataclass(frozen=True)
class IntervalRegion:
    """A closed interval of [0, 1], whose ends may leave it by the rounding
    a sweep of the same map makes."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise SpaceError(f"bad interval region [{self.lo}, {self.hi}]")


def _ref_pl_eval(pl, x):
    """np.interp's rule: the first value before the first breakpoint (an
    interval end an ulp below 0), the last value at and past the last
    breakpoint, the left end's value at a piece's left end, else the slope
    times the offset from the left end, plus the left end's value."""
    xs = [bx for bx, _ in pl.breakpoints]
    i = bisect.bisect_right(xs, x) - 1
    if i < 0:
        return pl.breakpoints[0][1]
    if i >= len(xs) - 1:
        return pl.breakpoints[-1][1]
    (x0, y0), (x1, y1) = pl.breakpoints[i], pl.breakpoints[i + 1]
    if x == x0:
        return y0
    return ((y1 - y0) / (x1 - x0)) * (x - x0) + y0


def _ref_start(start, m):
    """An arc start under a circle step, operand by operand as a sweep moves it."""
    if isinstance(m, Compose):
        return _ref_start(_ref_start(start, m.inner), m.outer)
    slope, offset = circle_canonical(m)
    return reduce_angle(slope * start + offset)


def _ref_step(region, m):
    if isinstance(region, ArcRegion):
        # a full arc stays put; the length grows by the flattened slope
        if region.full:
            return region
        return ArcRegion(_ref_start(region.start, m), circle_canonical(m)[0] * region.length)
    if isinstance(m, Compose):
        # the inner step's image, then the outer step's, as a sweep applies them
        inner = _ref_step(region, m.inner)
        return None if inner is None else _ref_step(inner, m.outer)
    pl = as_piecewise_linear(m)
    if pl is None:
        return None
    vals = [_ref_pl_eval(pl, region.lo), _ref_pl_eval(pl, region.hi)]
    for x, y in pl.breakpoints:
        if region.lo < x < region.hi:
            vals.append(y)
    # the rule is monotone on each piece, and a piece reaching a breakpoint
    # inside or at hi ends at the float just below it
    for x, _ in pl.breakpoints[1:]:
        if region.lo < x <= region.hi:
            vals.append(_ref_pl_eval(pl, math.nextafter(x, -math.inf)))
    return IntervalRegion(min(vals), max(vals))


def _fields(region):
    if isinstance(region, ArcRegion):
        return region.start, region.length
    return region.lo, region.hi


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def _kind(starts):
    return SpaceKind.CIRCLE if isinstance(starts[0], ArcRegion) else SpaceKind.UNIT_INTERVAL


def _chains(starts, steps):
    """The kernel on the start records' row-0 arrays."""
    a0, b0 = zip(*(_fields(r) for r in starts))
    return region_chains(_kind(starts), np.array(a0), np.array(b0), steps)


def _assert_matches_reference(starts, steps):
    ref = [[r] for r in starts]
    for m in steps:
        for chain in ref:
            chain.append(_ref_step(chain[-1], m))
        if any(chain[-1] is None for chain in ref):
            break
    if any(chain[-1] is None for chain in ref):
        assert not exact_chains(_kind(starts), steps)
        return
    assert exact_chains(_kind(starts), steps)
    chains = _chains(starts, steps)
    assert chains.a.shape == chains.b.shape == (len(steps) + 1, len(starts))
    for j, chain in enumerate(ref):
        a, b = zip(*(_fields(r) for r in chain))
        assert _bits(chains.a[:, j]) == _bits(a)
        assert _bits(chains.b[:, j]) == _bits(b)
    if steps:
        one = _chains(starts[:1], steps[:1])
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
# the first image ends an ulp below 0, where the second step's rule takes its first value
@example([IntervalRegion(0.0, 1.0)], [Compose(
    Lookup((-0.0, -0.0)),
    PiecewiseLinear(((0.0, -0.0), (0.18539626756445265, 0.47265625), (1.0, -0.0))),
)])
def test_interval_chains_match_reference(starts, steps):
    _assert_matches_reference(starts, steps)


def _interval_points(region, pl):
    """Points of the region: its ends, an even spread, and each breakpoint of
    pl strictly inside with the floats next to it."""
    lo, hi = region.lo, region.hi
    inside = [x for x, _ in pl.breakpoints if lo < x < hi]
    near = np.nextafter(inside, [[-np.inf], [np.inf]]) if inside else []
    pts = np.concatenate([np.linspace(lo, hi, 17), inside, np.ravel(near)])
    return np.clip(pts, lo, hi)


@settings(max_examples=300, deadline=None)
@given(st.lists(intervals(), min_size=1, max_size=4),
       st.lists(interval_step, min_size=1, max_size=6))
# swept images one ulp outside the region images: region ends evaluated by
# another rule than swept points, a piece rounding past its right breakpoint's
# value just below it, and a composition's image taken from its flattened map
# where a sweep applies the operands in turn
@example([IntervalRegion(0.65, 0.67)], [PiecewiseLinear(((0.0, 0.42), (0.3, 0.03), (1.0, 0.12)))])
@example([IntervalRegion(0.0, 1.0)], [PiecewiseLinear(
    ((0.0, 1.0), (0.875, 0.35978018897009717), (1.0, 0.35978018897009717))
)])
@example([IntervalRegion(0.02, 0.87)], [Compose(
    PiecewiseLinear(((0.0, 0.27), (0.56, 0.88), (1.0, 0.06))),
    PiecewiseLinear(((0.0, 0.87), (0.68, 0.23), (1.0, 0.9))),
)])
def test_swept_points_stay_in_their_region_chains(starts, steps):
    chains = _chains(starts, steps)
    fam = MapFamily(PhaseSpace.unit_interval(), lambda n: steps[n - 1], steps[-1], "drawn")
    first = as_piecewise_linear(steps[0])
    for j, region in enumerate(starts):
        rows = orbit_matrix(fam, _interval_points(region, first), len(steps))
        assert (chains.a[:, j, None] <= rows).all() and (rows <= chains.b[:, j, None]).all()


def test_arcs_through_zero_and_to_full():
    starts = [ArcRegion(0.0, 0.4), ArcRegion(TWO_PI - 0.1, 0.3), ArcRegion(1.0, TWO_PI)]
    steps = [AffineCircle(3, 0.25)] * 4 + [Rotation(2.0)]
    _assert_matches_reference(starts, steps)
    chains = _chains(starts, steps)
    assert chains.b[-1].tolist() == [TWO_PI] * 3
    assert chains.a[-1, 2] == 1.0


def test_arc_starts_reduce_like_reduce_angle():
    # ball_chains reduces the starts of row 0, centers minus radii, with
    # reduce_angles; both corrections are probed here directly, and
    # -1e-300 + 2pi rounds to 2pi and needs the second
    raw = np.array([-1e-300, -1.0, -TWO_PI, 7.0, -0.0, 0.0])
    starts = reduce_angles(1 * raw + 0.0)
    assert _bits(starts) == _bits([reduce_angle(1 * t + 0.0) for t in raw.tolist()])


def test_nearest_lookup_step_has_no_image():
    nearest = Lookup((0.0, 0.5, 1.0), "nearest")
    assert not exact_chains(SpaceKind.UNIT_INTERVAL, [TENT, nearest, TENT])
    _assert_matches_reference([IntervalRegion(0.0, 0.5)], [TENT, nearest, TENT])


# A family whose step 70 has no exact image: its steps refuse exact chains,
# and every checker falls back to sampling in the non-autonomous system.
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
    fam = LATE_NEAREST
    assert not exact_chains(SpaceKind.UNIT_INTERVAL, fam.steps(100)[1:101])
    assert exact_chains(SpaceKind.UNIT_INTERVAL, fam.steps(69)[1:70])
    limit = step_table_family(fam.space, (), fam.limit, fam.label)
    assert exact_chains(SpaceKind.UNIT_INTERVAL, limit.steps(100)[1:101])


def test_steps_alone_decide_exact_chains():
    # tent steps with a nearest-rule limit: steps 1..50 all have exact images
    # and the limit is never applied before the horizon, so the non-autonomous
    # balls get exact chains; the limit system has no image at its first step
    fam = MapFamily(
        space=PhaseSpace.unit_interval(), generator=lambda n: TENT, limit=NEAREST,
        label="tent-to-nearest",
    )
    balls = [(IntervalPoint(0.3), 0.1), (IntervalPoint(0.9), 0.025)]
    centers = point_coords([c for c, _ in balls], fam.space.kind)
    radii = np.array([r for _, r in balls])
    assert _exact(fam, 50)
    assert ball_chains(fam.space.kind, centers, radii, fam.steps(50)[1:51]).a.shape == (51, 2)
    assert not _exact(step_table_family(fam.space, (), fam.limit, fam.label), 50)


def test_late_nearest_report_is_pinned():
    # sha256 of the report text as produced with one region object per step,
    # with a minimality narrative that counts grid starts; it covers the
    # version string, so a version bump changes it
    text = run_comparison(LATE_SPEC).to_json_text()
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "e6e0680f4c0242c13bb7ab63d577801d1ca623c1ef93432a45ef22327eb311ea"
    )
