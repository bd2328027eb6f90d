"""Circle steps on one reduction rule: apply_batch's fmod against an np.mod
reference, slope-1 arc runs in region_chains against a plain per-step loop,
and arc starts under every circle step against sweep columns."""

import dataclasses
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nonautodyn.descriptors import AffineCircle, Compose, Rotation, apply_batch, circle_canonical
from nonautodyn.family import MapFamily
from nonautodyn.orbit import orbit_matrix
from nonautodyn.regions import region_chains
from nonautodyn.space import TWO_PI, PhaseSpace, SpaceKind

BELOW_TWO_PI = math.nextafter(TWO_PI, 0.0)

# ---------------------------------------------------------------------------
# apply_batch against np.mod

#: reduced angles, with both zeros and the float just below 2pi
REDUCED = st.sampled_from([0.0, -0.0, 1.0, math.pi, BELOW_TWO_PI]) | st.floats(
    0.0, TWO_PI, exclude_max=True
)
#: amounts and offsets as given, reduced at construction
AMOUNTS = REDUCED | st.sampled_from([-1.0, -TWO_PI, 7.0, -BELOW_TWO_PI])
LEAVES = st.builds(Rotation, AMOUNTS) | st.builds(AffineCircle, st.integers(1, 4), AMOUNTS)
CIRCLE_MAPS = st.recursive(LEAVES, lambda inner: st.builds(Compose, inner, inner), max_leaves=3)


def _mod_rule(m, x):
    """The circle step rule with np.mod, operand by operand."""
    if isinstance(m, Rotation):
        return np.mod(x + m.amount, TWO_PI)
    if isinstance(m, AffineCircle):
        return np.mod(m.slope * x + m.offset, TWO_PI)
    return _mod_rule(m.outer, _mod_rule(m.inner, x))


@settings(max_examples=200, deadline=None)
@given(CIRCLE_MAPS, st.lists(REDUCED, min_size=1, max_size=8))
# -0.0 + -0.0 is -0.0, which fmod keeps and np.mod sends to +0.0
@example(Rotation(-0.0), [-0.0, 0.0, BELOW_TWO_PI])
@example(AffineCircle(3, -0.0), [-0.0, BELOW_TWO_PI])
@example(Compose(Rotation(-0.0), AffineCircle(2, -0.0)), [-0.0, 0.0])
def test_circle_steps_equal_the_mod_rule_bytewise(m, angles):
    x = np.array(angles)
    assert apply_batch(m, x, SpaceKind.CIRCLE).tobytes() == _mod_rule(m, x).tobytes()


def test_a_negative_zero_amount_is_stored_as_zero():
    offsets = (
        Rotation(-0.0).amount,
        AffineCircle(2, -0.0).offset,
        circle_canonical(Compose(Rotation(-0.0), AffineCircle(2, -0.0)))[1],
    )
    assert [math.copysign(1.0, x) for x in offsets] == [1.0, 1.0, 1.0]


# ---------------------------------------------------------------------------
# slope-1 runs against a plain per-step loop

def _plain_step_arcs(m, a, b, n):
    """The arc step rule, one row at a time: starts that are not full move by
    the mod rule, operand by operand, lengths by the flattened slope."""
    slope = circle_canonical(m)[0]
    a[n] = np.where(b[n - 1] >= TWO_PI, a[n - 1], _mod_rule(m, a[n - 1]))
    b[n] = np.minimum(float(slope) * b[n - 1], TWO_PI)


def _plain_arcs(a0, b0, steps):
    a, b = np.empty((len(steps) + 1, len(a0))), np.empty((len(steps) + 1, len(a0)))
    a[0], b[0] = a0, b0
    for n, m in enumerate(steps, 1):
        _plain_step_arcs(m, a, b, n)
    return a, b


#: identity rotations of both zeros, rotations, slope-1 affine maps, and
#: slope >= 2 maps that turn arcs full
POOL = (
    Rotation(0.0), Rotation(-0.0), Rotation(1.3), Rotation(BELOW_TWO_PI), AffineCircle(1, 2.0),
    AffineCircle(2, 0.0), AffineCircle(3, 0.7), Compose(Rotation(0.5), Rotation(6.0)),
)
#: runs of one pool map: (pool index, length, a new equal object per step)
RUNS = st.lists(
    st.tuples(st.integers(0, len(POOL) - 1), st.integers(1, 70), st.booleans()),
    min_size=1, max_size=6,
)
ARCS = st.lists(
    st.tuples(REDUCED, st.sampled_from([0.0, 0.01, 1.0, math.pi, TWO_PI]) | st.floats(0.0, TWO_PI)),
    min_size=1, max_size=5,
)


def _table(runs) -> list:
    return [
        dataclasses.replace(POOL[i]) if fresh else POOL[i]
        for i, length, fresh in runs for _ in range(length)
    ]


@settings(max_examples=150, deadline=None)
@given(RUNS, ARCS)
# rotations across rows 2, 4, ..., 64, then a doubling, then rotations again
@example([(2, 70, True), (5, 1, False), (2, 9, False)], [(1.0, 0.01), (-0.0, 0.5)])
# doubling turns the long arc full mid-table; the rotations after it must keep
# that arc's start while they move the short one
@example([(2, 3, False), (5, 2, False), (2, 5, True)], [(1.0, 4.0), (2.0, 0.001)])
# a slope-2 step inside a run of rotations, away from any power of two
@example([(2, 5, True), (6, 1, False), (3, 4, False)], [(0.5, 0.25)])
# still identity tails of both zeros, then a rotation
@example([(0, 20, False), (1, 20, True), (2, 3, False)], [(-0.0, 0.5), (6.0, 0.1)])
def test_arc_runs_match_a_plain_loop(runs, arcs):
    a0, b0 = (np.array(v) for v in zip(*arcs))
    steps = _table(runs)
    got = region_chains(SpaceKind.CIRCLE, a0, b0, steps)
    want = _plain_arcs(a0, b0, steps)
    assert got.a.tobytes() == want[0].tobytes()
    assert got.b.tobytes() == want[1].tobytes()


# ---------------------------------------------------------------------------
# arc starts are sweep columns until their arc is full


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(CIRCLE_MAPS, st.integers(1, 40)), min_size=1, max_size=5),
    st.lists(st.tuples(REDUCED, st.floats(0.0, 6.0) | st.just(TWO_PI)), min_size=1, max_size=6),
)
@example([(Rotation(-0.0), 3), (Rotation(1.0), 70)], [(-0.0, 0.5), (BELOW_TWO_PI, 0.25)])
# the flattened offset 6.5 - 2pi moves 0.1 to another float than the operands do
@example([(Compose(Rotation(0.5), Rotation(6.0)), 1)], [(0.1, 0.5)])
# doubling turns the first arc full mid-table, where its start stops
@example(
    [(AffineCircle(2, 0.3), 3), (Compose(Rotation(0.5), Rotation(6.0)), 4)],
    [(0.1, 1.0), (2.0, 0.01)],
)
def test_arc_starts_are_sweep_columns_until_full(runs, arcs):
    steps = [m for m, length in runs for _ in range(length)]
    a0, b0 = (np.array(v) for v in zip(*arcs))
    fam = MapFamily(PhaseSpace.circle(), lambda n: steps[n - 1], steps[-1], "circle maps")
    rows = orbit_matrix(fam, a0, len(steps))
    chains = region_chains(SpaceKind.CIRCLE, a0, b0, steps)
    # the row in which each arc is first full, else the last row
    full = chains.b >= TWO_PI
    until = np.where(full.any(axis=0), full.argmax(axis=0), len(steps))
    for j, k in enumerate(until):
        assert chains.a[: k + 1, j].tobytes() == rows[: k + 1, j].tobytes()
        assert chains.a[k:, j].tobytes() == np.repeat(chains.a[k, j], len(steps) + 1 - k).tobytes()
