"""Orbit composition identities, orbit columns, and the orbit kernel."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonautodyn.descriptors import (
    AffineCircle,
    Delete,
    Lookup,
    OdometerAdd,
    PiecewiseLinear,
    Rotation,
    apply,
    descriptor_to_json,
)
from nonautodyn.bounds import collective_convergence_profile, deviation_series
from nonautodyn.checkers import orbit_matrix
from nonautodyn.family import (
    TENT,
    MapFamily,
    family_from_config,
    make_builtin_family,
    step_table_family,
)
from nonautodyn.orbit import omega
from nonautodyn.space import (
    BinaryWord,
    CircleAngle,
    IntervalPoint,
    PhaseSpace,
    SpaceError,
    SpaceKind,
    coord_point,
    point_coords,
)

ALT = make_builtin_family("alternating-rotation", alpha=1.1)
INV = make_builtin_family("inverse-square-rotation")
PD = make_builtin_family("perturbed-doubling")
PLAT = make_builtin_family("plateau-tent")
ODO = make_builtin_family("odometer-deletion", word_length=24)
FAMILIES = [ALT, INV, PD, PLAT, ODO]


def random_point(fam, rng):
    if fam.space.kind is SpaceKind.CIRCLE:
        return CircleAngle(rng.uniform(0, 2 * math.pi))
    if fam.space.kind is SpaceKind.UNIT_INTERVAL:
        return IntervalPoint(rng.random())
    return BinaryWord(tuple(rng.randint(0, 1) for _ in range(24)), 24)


def states(fam, x, horizon, limit=False, start=0):
    """The orbit_matrix column of x as points: entry n after steps start+1..start+n,
    of the family or, with limit, of its limit system."""
    kind = fam.space.kind
    if limit:
        fam = step_table_family(fam.space, (), fam.limit, fam.label)
    rows = orbit_matrix(fam, point_coords([x], kind), horizon, start)
    return [coord_point(c, kind) for c in rows[:, 0]]


class TestOmega:
    def test_alternating_pair_cancellation(self):
        th = 0.3
        got = omega(ALT, CircleAngle(th), 2).theta
        assert got == pytest.approx((th + 2 * 1.1) % (2 * math.pi), abs=1e-12)

    def test_inverse_square_partial_sum(self):
        got = omega(INV, CircleAngle(0.0), 3).theta
        assert got == pytest.approx(1 + 1 / 4 + 1 / 9, abs=1e-12)

    def test_zero_steps_identity(self):
        x = CircleAngle(0.77)
        assert omega(ALT, x, 0) == x


class TestWindow:
    def test_zero_length_window(self):
        x = IntervalPoint(0.4)
        assert states(PLAT, x, 0, start=3) == [x]

    def test_perturbed_doubling_single_step(self):
        got = states(PD, CircleAngle(0.0), 1, start=1)[-1]
        assert got.theta == pytest.approx(0.5)  # f_2(0) = 2*0 + 1/2

    def test_semigroup_identity_bit_exact(self):
        rng = random.Random(99)
        for _ in range(100):
            fam = rng.choice(FAMILIES)
            x = random_point(fam, rng)
            n, k = rng.randint(0, 20), rng.randint(0, 20)
            assert omega(fam, x, n + k) == states(fam, omega(fam, x, n), k, start=n)[-1]


class TestLimitIterate:
    def test_doubling_powers(self):
        got = states(PD, CircleAngle(0.1), 3, limit=True)[-1]
        assert got.theta == pytest.approx(0.8, abs=1e-12)

    def test_zero_iterations(self):
        x = IntervalPoint(0.9)
        assert states(PLAT, x, 0, limit=True) == [x]

    def test_identity_limit(self):
        x = CircleAngle(2.5)
        assert states(INV, x, 17, limit=True)[-1] == x


class TestTrajectory:
    def test_zero_horizon(self):
        x = CircleAngle(0.4)
        assert states(ALT, x, 0) == [x]

    def test_plateau_hand_computed(self):
        assert [p.x for p in states(PLAT, IntervalPoint(0.25), 3)] == [0.25, 1.0, 0.0, 0.0]

    def test_inverse_square_partial_sums(self):
        got = states(INV, CircleAngle(0.0), 2)
        assert [p.theta for p in got] == pytest.approx([0.0, 1.0, 1.25])

    def test_states_bit_identical_to_omega(self):
        rng = random.Random(5)
        for fam in FAMILIES:
            x = random_point(fam, rng)
            column = states(fam, x, 12)
            for n in range(13):
                assert column[n] == omega(fam, x, n)

    def test_autonomous_family_matches_limit_iterates(self):
        # a custom family with no steps is f_n = f for every n
        fam = family_from_config(
            {"space": {"kind": "unit_interval"}, "custom": {"limit": descriptor_to_json(TENT)}}
        )
        x = IntervalPoint(0.3123)
        limit = states(fam, x, 9, limit=True)
        for n in range(10):
            assert omega(fam, x, n) == limit[n]

    def test_limit_trajectory_matches_limit_iterate(self):
        x = CircleAngle(1.9)
        column = states(PD, x, 8, limit=True)
        for n in range(9):
            assert column[n] == states(PD, x, n, limit=True)[-1]


def test_sweeps_of_one_family_share_one_step_table():
    # every sweep reads the family's own step table, so each map f_n is built
    # once, however many sweeps and bounds read it
    calls = []

    def counted(n):
        calls.append(n)
        return Rotation(1.0 / n)

    fam = MapFamily(
        PhaseSpace.circle(), counted, Rotation(0.0), "counted", term_formula=lambda n: 1.0 / n
    )
    x = CircleAngle(0.3)
    orbit_matrix(fam, point_coords([x], SpaceKind.CIRCLE), 10)
    omega(fam, x, 15)
    deviation_series(fam, x, 12, n=8)
    collective_convergence_profile(fam, n_max=4, k_max=3, grid_resolution=8)
    orbit_matrix(fam, point_coords([x], SpaceKind.CIRCLE), 5, start=20)
    assert calls == list(range(1, 26))


class TestWrapperLimits:
    def test_words_longer_than_a_packed_word_raise(self):
        fam = make_builtin_family("odometer-deletion", word_length=64)
        with pytest.raises(SpaceError, match="cannot be packed"):
            omega(fam, BinaryWord((0,) * 64, 64), 3)

    def test_negative_indices_raise(self):
        with pytest.raises(SpaceError):
            omega(ALT, CircleAngle(0.1), -1)


# -- the kernel against scalar apply, one step at a time ---------------------


def _pl(draw):
    xs = sorted(set(draw(st.lists(st.floats(1e-6, 1 - 1e-6), max_size=5))))
    ys = [draw(st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0, 1)))
          for _ in range(len(xs) + 2)]
    if draw(st.booleans()) and len(ys) > 2:
        ys[1] = ys[0]  # a flat piece
    return PiecewiseLinear(tuple(zip([0.0] + xs + [1.0], ys)))


def _lookup(draw, rule):
    values = draw(st.lists(st.floats(0, 1), min_size=2, max_size=40))
    return Lookup(tuple(values), rule)


@st.composite
def _steps(draw):
    """A kind, a few step maps of that kind, and starts."""
    kind = draw(st.sampled_from(["circle", "pl", "linear", "nearest", "binary"]))
    count = draw(st.integers(1, 4))
    if kind == "circle":
        steps = [
            draw(st.one_of(
                st.builds(Rotation, st.floats(0, 7)),
                st.builds(AffineCircle, st.integers(1, 4), st.floats(0, 7)),
            ))
            for _ in range(count)
        ]
        starts = [CircleAngle(t) for t in draw(st.lists(st.floats(0, 7), min_size=1, max_size=6))]
        return PhaseSpace.circle(), steps, starts
    if kind == "binary":
        length = draw(st.integers(2, 63))
        steps = [
            draw(st.one_of(st.just(OdometerAdd()), st.builds(Delete, st.integers(length, 70))))
            for _ in range(count)
        ]
        words = draw(st.lists(st.integers(0, 2**length - 1), min_size=1, max_size=6))
        starts = [BinaryWord(tuple((v >> j) & 1 for j in range(length)), length) for v in words]
        return PhaseSpace.binary_seq(length), steps, starts
    if kind == "pl":
        steps = [_pl(draw) for _ in range(count)]
    else:
        steps = [_lookup(draw, "nearest" if kind == "nearest" else "linear") for _ in range(count)]
    points = draw(st.lists(
        st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0, 1)), min_size=1, max_size=6
    ))
    return PhaseSpace.unit_interval(), steps, [IntervalPoint(x) for x in points]


@settings(max_examples=300, deadline=None)
@given(_steps(), st.integers(1, 12))
def test_kernel_rows_match_scalar_apply(case, horizon):
    space, steps, starts = case
    fam = MapFamily(space, lambda n: steps[(n - 1) % len(steps)], steps[0], "drawn")
    rows = orbit_matrix(fam, point_coords(starts, space.kind), horizon)
    for n in range(1, horizon + 1):
        m = steps[(n - 1) % len(steps)]
        for j in range(len(starts)):
            want = apply(m, coord_point(rows[n - 1, j], space.kind))
            got = coord_point(rows[n, j], space.kind)
            assert point_coords([got], space.kind).tobytes() == point_coords([want], space.kind).tobytes()
