"""The array samplers against a plain-Python reference, and the rule that a
report builds points only for the witnesses it writes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonautodyn import bounds, checkers, cli, descriptors, family, orbit, regions, report, space
from nonautodyn.report import CATALOG, ScenarioSpec, run_comparison
from nonautodyn.space import (
    MAX_ENUM_BITS,
    TWO_PI,
    BinaryWord,
    CircleAngle,
    IntervalPoint,
    PhaseSpace,
    ResolutionError,
    SpaceError,
    SpaceKind,
    ball_coords,
    grid_coords,
    point_coords,
)

CIRCLE = PhaseSpace.circle()
INTERVAL = PhaseSpace.unit_interval()

# ---------------------------------------------------------------------------
# reference: the samplers as one point at a time, in plain Python


def _ref_grid(space, resolution, step=1):
    """Circle {2pi*i/resolution}, interval {i/(resolution-1)}, and every
    binary word of min(resolution, 12, word_length) coordinates in counting
    order, first coordinate most significant."""
    if space.kind is SpaceKind.CIRCLE:
        return [CircleAngle(TWO_PI * i / resolution) for i in range(0, resolution, step)]
    if space.kind is SpaceKind.UNIT_INTERVAL:
        return [IntervalPoint(i / (resolution - 1)) for i in range(0, resolution, step)]
    length = min(resolution, MAX_ENUM_BITS, space.word_length)
    return [
        BinaryWord(tuple((v >> (length - 1 - j)) & 1 for j in range(length)), length)
        for v in range(0, 1 << length, step)
    ]


def _dedupe(points):
    seen = []
    for p in points:
        if p not in seen:
            seen.append(p)
    return seen


def _ref_ball(space, center, radius, count):
    """The center, then center -+ i*h on the continuum; on binary words, the
    center with its free coordinates flipped by the bits of v = 1, 2, ..."""
    if space.kind is SpaceKind.BINARY_SEQ:
        if radius <= space.resolution_floor or radius <= 1.0 / center.effective_length:
            raise ResolutionError("unresolvable radius")
        prefix_len = min(int(math.floor(1.0 / radius + 1e-12)), center.effective_length)
        free = list(range(prefix_len, center.effective_length))
        pts = [center]
        v = 1
        while len(pts) < count and free and v < (1 << min(len(free), MAX_ENUM_BITS)):
            bits = list(center.bits)
            for j, pos in enumerate(free):
                if j >= MAX_ENUM_BITS:
                    break
                if (v >> j) & 1:
                    bits[pos] ^= 1
            pts.append(BinaryWord(tuple(bits), center.effective_length))
            v += 1
        return _dedupe(pts)
    h = radius / (count // 2 + 1)
    offsets = [0.0]
    i = 1
    while len(offsets) < count:
        offsets.append(-i * h)
        if len(offsets) < count:
            offsets.append(i * h)
        i += 1
    if space.kind is SpaceKind.CIRCLE:
        return _dedupe([CircleAngle(center.theta + off) for off in offsets])
    return _dedupe([IntervalPoint(min(1.0, max(0.0, center.x + off))) for off in offsets])


def _bytes(points, kind):
    return point_coords(points, kind).tobytes()


# ---------------------------------------------------------------------------
# draws


@st.composite
def _grid_case(draw):
    space = draw(st.sampled_from([CIRCLE, INTERVAL, None]))
    if space is None:
        # binary grids stop at 12 coordinates and at the space's word length
        return PhaseSpace.binary_seq(draw(st.integers(1, 20))), draw(st.integers(2, 14)), 1
    return space, draw(st.integers(2, 60)), draw(st.integers(1, 5))


@st.composite
def _interval_case(draw):
    """Centers at 0, at 1, within h of either end (where clamping makes
    duplicates) or anywhere."""
    count = draw(st.integers(1, 16))
    radius = draw(st.floats(1e-9, 1.0))
    h = radius / (count // 2 + 1)
    near = st.floats(0.0, min(1.0, 2.0 * h))
    where = st.one_of(
        st.just(0.0), st.just(1.0), near, near.map(lambda t: 1.0 - t), st.floats(0.0, 1.0)
    )
    centers = draw(st.lists(where, min_size=1, max_size=4))
    return INTERVAL, [IntervalPoint(c) for c in centers], radius, count


@st.composite
def _circle_case(draw):
    """Centers near 0 and near 2pi, or anywhere."""
    count = draw(st.integers(1, 16))
    radius = draw(st.floats(1e-9, math.pi))
    where = st.one_of(
        st.floats(0.0, 0.5), st.floats(-0.5, 0.0), st.floats(TWO_PI - 0.5, TWO_PI),
        st.floats(0.0, TWO_PI),
    )
    centers = draw(st.lists(where, min_size=1, max_size=4))
    return CIRCLE, [CircleAngle(c) for c in centers], radius, count


@st.composite
def _binary_case(draw):
    """Words with 0, 1, 2 or more than 12 free coordinates past the prefix
    the radius sees, in the word with the least effective length."""
    eff = draw(st.integers(2, 40))
    free = draw(st.sampled_from([f for f in (0, 1, 2, 13, 20, 30, 39) if f < eff]))
    # a radius a hair above 1/eff sees every trusted coordinate
    radius = 1.0 / (eff - free) if free else float(np.nextafter(1.0 / eff, 2.0))
    space = PhaseSpace.binary_seq(draw(st.integers(eff, 63)))
    words = []
    for k in range(draw(st.integers(1, 4))):
        n = draw(st.integers(eff, 63))
        bits = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        words.append(BinaryWord(tuple(bits), eff if k == 0 else draw(st.integers(eff, n))))
    return space, words, radius, draw(st.integers(1, 16))


@settings(max_examples=200, deadline=None)
@given(_grid_case())
def test_grid_coords_match_reference(case):
    space, resolution, step = case
    ref = _ref_grid(space, resolution, step)
    assert grid_coords(space, resolution, step).tobytes() == _bytes(ref, space.kind)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_interval_case(), _circle_case(), _binary_case()))
def test_ball_coords_match_reference(case):
    space, centers, radius, count = case
    samples = ball_coords(space, point_coords(centers, space.kind), radius, count)
    assert len(samples) == len(centers)
    for center, got in zip(centers, samples):
        ref = _ref_ball(space, center, radius, count)
        assert got.tobytes() == _bytes(ref, space.kind)


def test_samplers_keep_their_checks():
    word = BinaryWord((0, 1) * 4, 8)
    for radius, count in ((0.0, 3), (-0.1, 3), (4.0, 3), (0.1, 0)):
        with pytest.raises(SpaceError):
            ball_coords(CIRCLE, np.array([1.0]), radius, count)
    # 0.05 is below 1/8, the finest distance an 8-coordinate word resolves
    with pytest.raises(ResolutionError):
        ball_coords(PhaseSpace.binary_seq(24), point_coords([word], SpaceKind.BINARY_SEQ), 0.05, 3)
    with pytest.raises(SpaceError):
        grid_coords(INTERVAL, 1)


# ---------------------------------------------------------------------------
# points only where a witness is written


def _nearest(values):
    return {"type": "lookup", "rule": "nearest", "values": values}


NEAREST_DOC = {
    "space": {"kind": "unit_interval"},
    "family": {
        "custom": {
            "steps": [_nearest([0.0, 0.6, 1.0, 0.5, 0.1]), _nearest([0.0, 0.4, 1.0, 0.6, 0.0])],
            "limit": _nearest([0.0, 0.5, 1.0, 0.5, 0.0]),
            "label": "nearest-steps",
        }
    },
    "check": {
        "horizon": 80, "grid_resolution": 8, "ball_count": 5, "eps": 0.1,
        "delta": 0.25, "tol": 1e-9, "tail_window": 40, "max_period": 4, "repetitions": 2,
    },
    "properties": "all",
    "label": "nearest-steps",
}

REPORTS = {**{name: CATALOG[name] for name in sorted(CATALOG)}, "nearest": None}


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_points_are_built_only_for_witnesses(name, monkeypatch):
    spec = REPORTS[name] or ScenarioSpec.from_json(NEAREST_DOC)
    built, written = [], []
    for cls in (BinaryWord, CircleAngle, IntervalPoint):
        post_init = cls.__post_init__
        monkeypatch.setattr(
            cls, "__post_init__", lambda self, f=post_init: built.append(1) or f(self)
        )
    to_json = space.point_to_json
    for module in (bounds, checkers, cli, descriptors, family, orbit, regions, report, space):
        if hasattr(module, "point_to_json"):
            monkeypatch.setattr(
                module, "point_to_json", lambda p: written.append(1) or to_json(p)
            )
    assert run_comparison(spec).rows
    assert written and len(built) <= len(written)
