"""Descriptor evaluation and the symbolic map algebra."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonautodyn.descriptors import (
    AffineCircle,
    Compose,
    Delete,
    Lookup,
    OdometerAdd,
    PiecewiseLinear,
    Rotation,
    apply,
    apply_batch,
    as_piecewise_linear,
    circle_map_fixed_points,
    compose,
    descriptor_from_json,
    descriptor_to_json,
    pl_compose,
    pl_fixed_points,
    pl_image,
    sup_metric,
    zero_slope_pieces,
)
from nonautodyn.family import PLATEAU_HEAD, TENT
from nonautodyn.space import (
    TWO_PI,
    BinaryWord,
    CircleAngle,
    IntervalPoint,
    PhaseSpace,
    ResolutionError,
    SpaceError,
    SpaceKind,
    coord_point,
    distance,
    grid_coords,
)

CIRCLE = PhaseSpace.circle()
INTERVAL = PhaseSpace.unit_interval()


class TestApply:
    def test_tent_peak(self):
        assert apply(TENT, IntervalPoint(0.5)).x == 1.0

    def test_odometer_carry_through(self):
        out = apply(OdometerAdd(), BinaryWord((1, 1, 1), 3))
        assert str(out) == "000"
        assert out.effective_length == 3

    def test_odometer_simple(self):
        assert str(apply(OdometerAdd(), BinaryWord((0, 1, 1, 0), 4))) == "1110"
        assert str(apply(OdometerAdd(), BinaryWord((1, 0, 1, 0), 4))) == "0110"

    def test_identity_rotation(self):
        x = CircleAngle(1.234)
        assert apply(Rotation(0.0), x) == x

    def test_delete_within_resolution(self):
        w = BinaryWord((1, 0, 1, 1, 0), 5)
        out = apply(Delete(2), w)
        assert str(out) == "1110"
        assert out.effective_length == 4

    def test_delete_beyond_trusted_prefix_is_identity(self):
        w = BinaryWord((1, 0, 1), 2)
        assert apply(Delete(3), w) == w

    def test_delete_exhausts_resolution(self):
        with pytest.raises(ResolutionError):
            apply(Delete(1), BinaryWord((1,), 1))

    def test_affine_doubling(self):
        out = apply(AffineCircle(2, 0.0), CircleAngle(0.1))
        assert out.theta == pytest.approx(0.2)

    def test_lookup_linear(self):
        table = Lookup((0.0, 0.5, 1.0))
        assert apply(table, IntervalPoint(0.25)).x == pytest.approx(0.25)

    def test_wrong_space_rejected(self):
        with pytest.raises(SpaceError):
            apply(TENT, CircleAngle(0.3))


def _ref_odometer(w: BinaryWord) -> BinaryWord:
    """Add one with carry on the bit tuple: leading 1s flip to 0, the first 0
    to 1, and a carry out of the last coordinate vanishes."""
    bits = list(w.bits)
    for i in range(len(bits)):
        if bits[i] == 0:
            bits[i] = 1
            break
        bits[i] = 0
    return BinaryWord(tuple(bits), w.effective_length)


def _ref_delete(index: int, w: BinaryWord) -> BinaryWord:
    """Drop coordinate index of the bit tuple; beyond the trusted prefix the
    word stays as it is."""
    if index > w.effective_length:
        return w
    if w.effective_length <= 1:
        raise ResolutionError("no coordinate left to delete")
    return BinaryWord(w.bits[: index - 1] + w.bits[index:], w.effective_length - 1)


@st.composite
def _words(draw):
    """Words of up to 63 coordinates, often trusted on a shorter prefix."""
    bits = draw(st.lists(st.integers(0, 1), min_size=1, max_size=63))
    return BinaryWord(tuple(bits), draw(st.integers(1, len(bits))))


@settings(max_examples=300, deadline=None)
@given(_words(), st.integers(1, 70))
def test_binary_apply_matches_bit_tuple_rules(w, index):
    assert apply(OdometerAdd(), w) == _ref_odometer(w)
    try:
        want = _ref_delete(index, w)
    except ResolutionError:
        with pytest.raises(ResolutionError):
            apply(Delete(index), w)
        return
    assert apply(Delete(index), w) == want
    assert apply(Compose(OdometerAdd(), Delete(index)), w) == _ref_odometer(want)


class TestBatchEval:
    def test_matches_scalar_on_circle(self):
        arr = np.linspace(0, TWO_PI, 17, endpoint=False)
        m = AffineCircle(2, 0.3)
        batch = apply_batch(m, arr, SpaceKind.CIRCLE)
        for v, b in zip(arr, batch):
            assert apply(m, CircleAngle(v)).theta == pytest.approx(b, abs=1e-12)

    def test_matches_scalar_on_interval(self):
        arr = np.linspace(0, 1, 23)
        for v, b in zip(arr, apply_batch(TENT, arr, SpaceKind.UNIT_INTERVAL)):
            assert apply(TENT, IntervalPoint(v)).x == pytest.approx(b, abs=1e-12)


class TestAlgebra:
    def test_circle_composition_canonical(self):
        m = compose(AffineCircle(2, 0.1), Rotation(0.5))
        assert isinstance(m, AffineCircle)
        assert m.slope == 2
        assert m.offset == pytest.approx(1.1)  # 2*0.5 + 0.1

    def test_rotation_composition_sums(self):
        m = compose(Rotation(1.0), Rotation(2.0))
        assert isinstance(m, Rotation)
        assert m.amount == pytest.approx(3.0)

    def test_pl_compose_matches_pointwise(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            xs = np.sort(np.concatenate(([0.0, 1.0], rng.random(3))))
            xs = np.unique(xs)
            inner = PiecewiseLinear(tuple((float(x), float(rng.random())) for x in xs))
            outer = TENT
            comp = pl_compose(outer, inner)
            for t in np.linspace(0, 1, 101):
                want = apply(outer, apply(inner, IntervalPoint(float(t)))).x
                got = apply(comp, IntervalPoint(float(t))).x
                assert got == pytest.approx(want, abs=1e-12)

    def test_tent_square_fixed_points(self):
        tent2 = pl_compose(TENT, TENT)
        fixed = pl_fixed_points(tent2)
        assert fixed == pytest.approx([0.0, 0.4, 2 / 3, 0.8])

    def test_tent_fixed_points(self):
        assert pl_fixed_points(TENT) == pytest.approx([0.0, 2 / 3])

    def test_circle_fixed_points_doubling(self):
        assert circle_map_fixed_points(2, 0.0) == [0.0]
        pts = circle_map_fixed_points(3, 0.0)
        assert pts == pytest.approx([0.0, math.pi])

    def test_identity_fixed_points_sentinel(self):
        assert circle_map_fixed_points(1, 0.0) is None
        assert circle_map_fixed_points(1, 0.5) == []

    def test_zero_slope_pieces(self):
        assert zero_slope_pieces(PLATEAU_HEAD) == [(0.0, 0.5)]
        assert zero_slope_pieces(TENT) == []

    def test_pl_image(self):
        assert pl_image(TENT, 0.4, 0.6) == (0.8, 1.0)
        assert pl_image(TENT, 0.0, 1.0) == (0.0, 1.0)
        assert pl_image(PLATEAU_HEAD, 0.1, 0.3) == (1.0, 1.0)

    def test_as_piecewise_linear_flattens_compose(self):
        nested = Compose(TENT, Compose(TENT, TENT))
        flat = as_piecewise_linear(nested)
        assert isinstance(flat, PiecewiseLinear)
        for t in np.linspace(0, 1, 64):
            want = apply(nested, IntervalPoint(float(t))).x
            assert apply(flat, IntervalPoint(float(t))).x == pytest.approx(want, abs=1e-12)

    def test_compose_space_mismatch(self):
        with pytest.raises(SpaceError):
            compose(TENT, Rotation(1.0))


class TestSupMetric:
    def test_rotations_exact(self):
        est = sup_metric(CIRCLE, Rotation(1.0), Rotation(1.01), 8)
        assert est.exact
        assert est.value == pytest.approx(0.01)

    def test_identical_maps(self):
        assert sup_metric(INTERVAL, TENT, TENT, 8).value == 0.0

    def test_doubling_constant_offset(self):
        est = sup_metric(CIRCLE, AffineCircle(2, 0.0), AffineCircle(2, 0.2), 8)
        assert est.exact
        assert est.value == pytest.approx(0.2)
        # brute-force grid oracle
        worst = max(
            distance(
                CIRCLE,
                apply(AffineCircle(2, 0.0), x),
                apply(AffineCircle(2, 0.2), x),
            )
            for x in (coord_point(c, CIRCLE.kind) for c in grid_coords(CIRCLE, 512))
        )
        assert worst == pytest.approx(0.2, abs=1e-12)

    def test_different_slopes_reach_diameter(self):
        est = sup_metric(CIRCLE, Rotation(0.0), AffineCircle(2, 0.0), 8)
        assert est.exact
        assert est.value == math.pi

    def test_pl_pair_exact_vs_grid(self):
        est = sup_metric(INTERVAL, TENT, PLATEAU_HEAD, 8)
        assert est.exact
        assert est.value == 1.0  # gap at x = 0

    def test_monotone_refinement(self):
        # grid estimates may only grow when the grid is refined
        pairs = [
            (CIRCLE, Rotation(0.4), Rotation(1.3)),
            (INTERVAL, TENT, PLATEAU_HEAD),
            (
                PhaseSpace.binary_seq(8),
                Compose(OdometerAdd(), Delete(2)),
                OdometerAdd(),
            ),
        ]
        for space, g, h in pairs:
            for r in (4, 8, 16, 32):
                lo = sup_metric(space, g, h, r).value
                hi = sup_metric(space, g, h, 2 * r).value
                assert hi >= lo - 1e-15

    @pytest.mark.parametrize(
        "space, g, h",
        [
            (PhaseSpace.binary_seq(8), Compose(OdometerAdd(), Delete(2)), OdometerAdd()),
            (PhaseSpace.binary_seq(16), OdometerAdd(), Delete(5)),
            (INTERVAL, Lookup((0.0, 1.0, 0.25, 0.5), "nearest"), TENT),
        ],
    )
    def test_grid_estimate_matches_scalar_loop(self, space, g, h):
        for r in (4, 12, 33):
            est = sup_metric(space, g, h, r)
            grid = (coord_point(c, space.kind) for c in grid_coords(space, r))
            want = max(distance(space, apply(g, x), apply(h, x)) for x in grid)
            assert not est.exact and est.value == want


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0), min_size=2, max_size=9),
    st.lists(
        st.sampled_from([0.0, -0.0, 1.0, -0.5, 1.5, -3.0, 4.0]) | st.floats(-2.0, 3.0)
        # exact halves of the node spacing for tables of 2, 3, 5 and 9 values
        | st.integers(-16, 32).map(lambda k: (k + 0.5) / 8),
        min_size=1, max_size=40,
    ),
)
def test_nearest_lookup_matches_clipped_rounding(values, xs):
    m = Lookup(tuple(values), "nearest")
    arr, table = np.array(xs), np.array(values)
    n = len(values)
    want = table[np.clip(np.rint(arr * (n - 1)).astype(int), 0, n - 1)]
    assert apply_batch(m, arr, SpaceKind.UNIT_INTERVAL).tobytes() == want.tobytes()


def test_descriptor_json_round_trip():
    descriptors = [
        Rotation(0.7),
        AffineCircle(3, 1.2),
        TENT,
        Lookup((0.0, 1.0, 0.5), "nearest"),
        OdometerAdd(),
        Delete(4),
        Compose(OdometerAdd(), Delete(2)),
    ]
    for m in descriptors:
        assert descriptor_from_json(descriptor_to_json(m)) == m


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"type": "rotation"}, "malformed 'rotation' descriptor: missing field 'amount'"),
        (
            {"type": "affine_circle", "slope": 2},
            "malformed 'affine_circle' descriptor: missing field 'offset'",
        ),
        ({"type": "delete"}, "malformed 'delete' descriptor: missing field 'index'"),
        (
            {"type": "compose", "inner": {"type": "odometer_add"}},
            "malformed 'compose' descriptor: missing field 'outer'",
        ),
        (  # an operand's own field is named with the operand's type
            {"type": "compose", "outer": {"type": "rotation"}, "inner": {"type": "odometer_add"}},
            "malformed 'rotation' descriptor: missing field 'amount'",
        ),
        ({"amount": 0.5}, "a map descriptor has no field 'type'"),
    ],
)
def test_a_missing_field_is_named(doc, message):
    # a KeyError once reached the command line with only the key: "'amount'"
    with pytest.raises(SpaceError) as info:
        descriptor_from_json(doc)
    assert str(info.value) == message


# before, each of these was accepted: NaN passed the breakpoint order check
# and reduce_angle returned NaN for NaN (and raised "math domain error" for
# an infinite angle)
@pytest.mark.parametrize("x", [math.nan, math.inf])
def test_piecewise_linear_refuses_a_non_finite_breakpoint(x):
    with pytest.raises(SpaceError, match="strictly increasing"):
        PiecewiseLinear(((0.0, 0.0), (x, 1.0), (1.0, 0.0)))


@pytest.mark.parametrize("amount", [math.nan, math.inf, -math.inf])
def test_rotation_refuses_a_non_finite_amount(amount):
    with pytest.raises(SpaceError, match="angle must be finite"):
        Rotation(amount)


@pytest.mark.parametrize("offset", [math.nan, math.inf, -math.inf])
def test_affine_circle_refuses_a_non_finite_offset(offset):
    with pytest.raises(SpaceError, match="angle must be finite"):
        AffineCircle(2, offset)
