"""Metric, grid, and sampling behavior of the three phase spaces."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonautodyn.space import (
    TWO_PI,
    BinaryWord,
    CircleAngle,
    IntervalPoint,
    PhaseSpace,
    ResolutionError,
    SpaceError,
    SpaceKind,
    ball_coords,
    distance,
    coord_distances,
    coord_point,
    distance_info,
    grid_coords,
    grid_size,
    point_coords,
)

CIRCLE = PhaseSpace.circle()
INTERVAL = PhaseSpace.unit_interval()
BIN8 = PhaseSpace.binary_seq(8)


def test_diameter_and_resolution_floor_follow_the_kind():
    assert (CIRCLE.diameter, CIRCLE.resolution_floor) == (math.pi, 1e-12)
    assert (INTERVAL.diameter, INTERVAL.resolution_floor) == (1.0, 1e-12)
    assert (BIN8.diameter, BIN8.resolution_floor) == (1.0, 1 / 8)
    # neither can be given apart from the kind, so no space contradicts its kind
    with pytest.raises(TypeError):
        PhaseSpace(SpaceKind.CIRCLE, 7.0, 0.5)
    for space in (CIRCLE, INTERVAL, BIN8):
        assert PhaseSpace.from_json(space.to_json()) == space
    assert PhaseSpace.binary_seq(8) != PhaseSpace.binary_seq(9) and CIRCLE != INTERVAL


class TestDistance:
    def test_circle_wraparound(self):
        d = distance(CIRCLE, CircleAngle(0.1), CircleAngle(TWO_PI - 0.1))
        assert d == pytest.approx(0.2, abs=1e-12)

    def test_binary_first_difference(self):
        x = BinaryWord((0, 1, 0, 1), 4)
        y = BinaryWord((0, 0, 0, 1), 4)
        assert distance(BIN8, x, y) == 0.5

    def test_interval_identity(self):
        assert distance(INTERVAL, IntervalPoint(0.37), IntervalPoint(0.37)) == 0.0

    def test_point_of_wrong_space_rejected(self):
        with pytest.raises(SpaceError):
            distance(CIRCLE, IntervalPoint(0.5), IntervalPoint(0.5))

    def test_binary_resolution_floor_flagged(self):
        x = BinaryWord((0, 1, 0, 1), 2)
        y = BinaryWord((0, 1, 1, 0), 3)
        info = distance_info(BIN8, x, y)
        assert info.at_resolution_floor
        assert info.value == 0.5  # 1 / min(effective lengths)

    def test_binary_identical_word_is_zero(self):
        x = BinaryWord((0, 1, 0, 1), 4)
        assert distance(BIN8, x, x) == 0.0

    def test_circle_angle_reduced(self):
        assert CircleAngle(TWO_PI + 0.25).theta == pytest.approx(0.25)
        assert 0.0 <= CircleAngle(-1.0).theta < TWO_PI

    def test_interval_point_rejects_outside(self):
        with pytest.raises(SpaceError):
            IntervalPoint(1.5)


@settings(max_examples=200, deadline=None)
@given(
    st.floats(0, TWO_PI - 1e-9),
    st.floats(0, TWO_PI - 1e-9),
    st.floats(0, TWO_PI - 1e-9),
)
def test_circle_triangle_inequality(a, b, c):
    x, y, z = CircleAngle(a), CircleAngle(b), CircleAngle(c)
    assert distance(CIRCLE, x, z) <= distance(CIRCLE, x, y) + distance(CIRCLE, y, z) + 1e-12


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=6, max_size=6),
       st.lists(st.integers(0, 1), min_size=6, max_size=6),
       st.lists(st.integers(0, 1), min_size=6, max_size=6))
def test_binary_triangle_inequality(a, b, c):
    space = PhaseSpace.binary_seq(6)
    x, y, z = (BinaryWord(tuple(v), 6) for v in (a, b, c))
    assert distance(space, x, z) <= distance(space, x, y) + distance(space, y, z) + 1e-12


@settings(max_examples=100, deadline=None)
@given(st.floats(0, TWO_PI - 1e-9), st.floats(0, TWO_PI - 1e-9))
def test_circle_distance_symmetric_and_zero_on_self(a, b):
    x, y = CircleAngle(a), CircleAngle(b)
    assert distance(CIRCLE, x, y) == distance(CIRCLE, y, x)
    assert distance(CIRCLE, x, y) == _ref_circle_distance(x.theta, y.theta)
    assert distance(CIRCLE, x, x) == 0.0


class TestSampleGrid:
    def test_circle_resolution_4(self):
        pts = grid_coords(CIRCLE, 4).tolist()
        assert pts == pytest.approx([0.0, math.pi / 2, math.pi, 3 * math.pi / 2])

    def test_interval_resolution_3(self):
        assert grid_coords(INTERVAL, 3).tolist() == [0.0, 0.5, 1.0]

    def test_binary_length_2(self):
        grid = grid_coords(PhaseSpace.binary_seq(2), 2)
        words = [str(coord_point(c, SpaceKind.BINARY_SEQ)) for c in grid]
        assert words == ["00", "01", "10", "11"]

    def test_binary_enumeration_capped(self):
        assert len(grid_coords(PhaseSpace.binary_seq(24), 20)) == 2**12

    def test_binary_grid_words_no_longer_than_the_space_words(self):
        # ten-coordinate grid words read 0.1 apart, below the 1/8 an
        # eight-coordinate space resolves
        space = PhaseSpace.binary_seq(8)
        words = grid_coords(space, 10)
        assert len(words) == grid_size(space, 10) == 2**8
        assert (words["length"] == 8).all() and (words["eff"] == 8).all()
        assert coord_distances(space.kind, words[:1], words[1:]).min() == space.resolution_floor

    def test_deterministic(self):
        for space, res in ((CIRCLE, 13), (INTERVAL, 9), (BIN8, 4)):
            assert grid_coords(space, res).tobytes() == grid_coords(space, res).tobytes()


class TestBallSample:
    def test_interval_pattern(self):
        (pts,) = ball_coords(INTERVAL, np.array([0.5]), 0.1, 3)
        assert pts.tolist() == [0.5, 0.45, 0.55]

    def test_circle_count_one(self):
        (pts,) = ball_coords(CIRCLE, np.array([0.0]), 0.1, 1)
        assert pts.tolist() == [0.0]

    def test_all_points_inside_open_ball(self):
        for count in (1, 2, 5, 9, 16):
            (pts,) = ball_coords(CIRCLE, np.array([1.0]), 0.3, count)
            assert (coord_distances(CIRCLE.kind, pts, np.array([1.0])) < 0.3).all()

    def test_binary_prefix_agreement(self):
        center = BinaryWord((0, 1, 0, 1, 0, 1, 0, 1), 8)
        (pts,) = ball_coords(BIN8, point_coords([center], BIN8.kind), 1 / 3, 6)
        for c in pts:
            p = coord_point(c, BIN8.kind)
            assert p.bits[:3] == center.bits[:3]
            assert distance(BIN8, p, center) < 1 / 3

    def test_binary_unresolvable_radius(self):
        center = point_coords([BinaryWord((0, 1, 0, 1, 0, 1, 0, 1), 8)], BIN8.kind)
        with pytest.raises(ResolutionError):
            ball_coords(BIN8, center, 0.05, 3)

    def test_deterministic(self):
        (a,) = ball_coords(INTERVAL, np.array([0.3]), 0.2, 7)
        (b,) = ball_coords(INTERVAL, np.array([0.3]), 0.2, 7)
        assert a.tobytes() == b.tobytes()


@st.composite
def _word(draw, max_len=63):
    length = draw(st.integers(1, max_len))
    bits = draw(st.lists(st.integers(0, 1), min_size=length, max_size=length))
    return BinaryWord(tuple(bits), draw(st.integers(1, length)))


@st.composite
def _word_pair(draw):
    """Two words that are identical, share a prefix, or are independent;
    lengths and effective lengths may differ."""
    x = draw(_word())
    how = draw(st.sampled_from(["identical", "prefix", "independent"]))
    if how == "identical":
        return x, BinaryWord(x.bits, x.effective_length)
    if how == "independent":
        return x, draw(_word())
    length = draw(st.integers(1, 63))
    keep = draw(st.integers(0, min(length, len(x.bits))))
    rest = draw(st.lists(st.integers(0, 1), min_size=length - keep, max_size=length - keep))
    return x, BinaryWord(x.bits[:keep] + tuple(rest), draw(st.integers(1, length)))


def _first_difference(x: BinaryWord, y: BinaryWord) -> int | None:
    """1-based index of the first differing trusted coordinate, or None."""
    n = min(x.effective_length, y.effective_length)
    return next((i + 1 for i in range(n) if x.bits[i] != y.bits[i]), None)


def _ref_distance_info(x: BinaryWord, y: BinaryWord) -> tuple[float, bool]:
    """d(x, y) = 1/k for the first differing coordinate k; identical words are
    at 0, and words agreeing to their shared resolution n at 1/n, flagged."""
    k = _first_difference(x, y)
    if k is not None:
        return 1.0 / k, False
    if x == y:
        return 0.0, False
    return 1.0 / min(x.effective_length, y.effective_length), True


@settings(max_examples=400, deadline=None)
@given(_word_pair())
def test_packed_distance_matches_scalar_distance(pair):
    x, y = pair
    space = PhaseSpace.binary_seq(63)
    a, b = point_coords([x], SpaceKind.BINARY_SEQ), point_coords([y], SpaceKind.BINARY_SEQ)
    value, floor = _ref_distance_info(x, y)
    assert distance_info(space, x, y) == (value, floor)
    assert distance_info(space, y, x) == (value, floor)
    assert float(coord_distances(SpaceKind.BINARY_SEQ, a, b)[0]) == value
    assert float(coord_distances(SpaceKind.BINARY_SEQ, b, a)[0]) == value
    assert coord_point(a[0], SpaceKind.BINARY_SEQ) == x


@st.composite
def _related_words(draw):
    """Up to six words cut from one 63-coordinate base: a prefix of it with
    one coordinate flipped (often past coordinate 53, where a float holds
    the low bits of x ^ (x - 1) only rounded), an exact copy of an earlier
    word, or an earlier word padded with zeros, whose packed value is equal
    while its length is not."""
    base = draw(st.lists(st.integers(0, 1), min_size=63, max_size=63))
    words: list[BinaryWord] = []
    for _ in range(draw(st.integers(1, 6))):
        how = draw(st.sampled_from(["flip", "copy", "pad"] if words else ["flip"]))
        if how == "flip":
            length = draw(st.one_of(st.just(63), st.integers(1, 63)))
            bits = base[:length]
            flip = draw(st.integers(0, length))  # length flips nothing
            bits = bits[:flip] + [1 - b for b in bits[flip : flip + 1]] + bits[flip + 1 :]
        else:
            w = draw(st.sampled_from(words))
            if how == "copy" or len(w.bits) == 63:
                words.append(BinaryWord(w.bits, w.effective_length))
                continue
            bits = list(w.bits) + [0] * draw(st.integers(1, 63 - len(w.bits)))
            length = len(bits)
        words.append(BinaryWord(tuple(bits), draw(st.one_of(st.just(length), st.integers(1, length)))))
    return words


@settings(max_examples=300, deadline=None)
@given(_related_words())
def test_packed_distances_match_first_difference_reference(words):
    # every pair through broadcasting, each word as a 0-d array against the
    # whole array, and each pair of 0-d arrays
    kind = SpaceKind.BINARY_SEQ
    c = point_coords(words, kind)
    want = np.array([[_ref_distance_info(x, y)[0] for y in words] for x in words])
    got = coord_distances(kind, c[:, None], c)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    for i in range(len(words)):
        row = coord_distances(kind, c[i, ...], c)
        assert row.shape == (len(words),) and row.tobytes() == want[i].tobytes()
        for j in range(len(words)):
            assert np.shape(coord_distances(kind, c[i, ...], c[j, ...])) == ()
            assert float(coord_distances(kind, c[i, ...], c[j, ...])) == want[i, j]


def test_packed_distance_resolves_every_coordinate():
    space = PhaseSpace.binary_seq(63)
    base = BinaryWord((0,) * 63, 63)
    words = [base] + [BinaryWord(tuple(int(j == k) for j in range(63)), 63) for k in range(63)]
    got = coord_distances(
        SpaceKind.BINARY_SEQ,
        point_coords([base], SpaceKind.BINARY_SEQ),
        point_coords(words, SpaceKind.BINARY_SEQ),
    )
    assert got.tolist() == [distance(space, base, w) for w in words]
    assert got.tolist() == [0.0] + [1.0 / k for k in range(1, 64)]


def _ref_circle_distance(a: float, b: float) -> float:
    """Geodesic arc distance between two reduced angles."""
    d = abs(a - b)
    return TWO_PI - d if d > math.pi else d


def test_continuum_coordinate_distances_match_scalar():
    angles = [CircleAngle(t) for t in (0.0, 1.0, math.pi, 4.0, TWO_PI - 1e-9)]
    xs = [IntervalPoint(v) for v in (0.0, 0.3, 1.0)]
    for space, pts, ref in (
        (CIRCLE, angles, lambda p, q: _ref_circle_distance(p.theta, q.theta)),
        (INTERVAL, xs, lambda p, q: abs(p.x - q.x)),
    ):
        c = point_coords(pts, space.kind)
        got = coord_distances(space.kind, c[:, None], c)
        want = [[ref(p, q) for q in pts] for p in pts]
        assert got.tolist() == want
        assert [[distance(space, p, q) for q in pts] for p in pts] == want
