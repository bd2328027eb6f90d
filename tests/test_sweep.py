"""Batched orbit sweeps: one sweep per checker call, sliced by column."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonautodyn.checkers import (
    PairPredicate,
    _SAME,
    _pair_codes,
    _pair_outcomes,
    _pair_table,
    _sweep_groups,
    checker_grid,
    orbit_matrix,
)
from nonautodyn.descriptors import Compose, Delete, OdometerAdd, apply
from nonautodyn.family import (
    MapFamily,
    family_from_config,
    make_builtin_family,
    step_table_family,
)
from nonautodyn.report import CATALOG, ScenarioSpec, run_comparison
from nonautodyn.space import (
    BinaryWord,
    CircleAngle,
    IntervalPoint,
    PhaseSpace,
    ResolutionError,
    SpaceKind,
    ball_coords,
    coord_point,
    distance,
    point_coords,
)

HORIZON = 200
MODES = ("non_autonomous", "autonomous_limit")


def _system(fam: MapFamily, mode: str) -> MapFamily:
    """A copy of the family with a memo of its own, or its limit system (X, f)."""
    if mode == "autonomous_limit":
        return step_table_family(fam.space, (), fam.limit, fam.label)
    return dataclasses.replace(fam)


def _tent_table(size: int, wiggle: float, k: int) -> list[float]:
    out = []
    for i in range(size):
        x = i / (size - 1)
        v = 2.0 * x if x <= 0.5 else 2.0 - 2.0 * x
        if k:
            v += (wiggle / k) * (1 if (i * 7 + k) % 3 else -1)
        out.append(min(1.0, max(0.0, v)))
    return out


def _lookup(values: list[float]) -> dict:
    return {"type": "lookup", "rule": "nearest", "values": values}


LOOKUP_DOC = {
    "space": {"kind": "unit_interval"},
    "family": {
        "custom": {
            "steps": [_lookup(_tent_table(17, 0.03, k)) for k in (1, 2)],
            "limit": _lookup(_tent_table(17, 0.03, 0)),
            "label": "small-lookup",
        }
    },
    "check": {
        "horizon": 60, "grid_resolution": 6, "ball_count": 5, "eps": 0.1,
        "delta": 0.25, "tol": 1e-9, "tail_window": 30, "max_period": 4,
        "repetitions": 2,
    },
    "properties": "all",
    "label": "small-lookup",
}

FAMILIES = {
    "alternating-rotation": make_builtin_family("alternating-rotation", alpha=2.0),
    "inverse-square-rotation": make_builtin_family("inverse-square-rotation"),
    "perturbed-doubling": make_builtin_family("perturbed-doubling"),
    "plateau-tent": make_builtin_family("plateau-tent"),
    "nearest-lookup": family_from_config(
        {"space": LOOKUP_DOC["space"], **LOOKUP_DOC["family"]}
    ),
}


def _groups(fam) -> list[list]:
    """Point groups with repeated coordinates across and within groups and a
    signed-zero pair."""
    if fam.space.kind.value == "circle":
        make, hi = CircleAngle, 2.0 * math.pi
    else:
        make, hi = IntervalPoint, 1.0
    grid = [make(hi * i / 7.0) for i in range(7)]
    return [
        [make(0.0), make(-0.0)] + grid[:4],
        grid[2:] + [grid[3], make(0.0)],
        [make(hi * 0.123), make(-0.0), make(hi * 0.123)],
    ]


def _bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a, dtype=np.float64).tobytes()


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_batched_sweep_matches_single_columns(name, mode):
    sys = _system(FAMILIES[name], mode)
    groups = _groups(FAMILIES[name])
    orbits, cols = _sweep_groups(sys, [point_coords(g, sys.space.kind) for g in groups], HORIZON)
    starts = [point_coords(g, sys.space.kind) for g in groups]
    assert orbits.shape == (HORIZON + 1, len({_bits(c) for s in starts for c in s}))
    for coords, idx in zip(starts, cols):
        assert len(idx) == len(coords)
        for c, j in zip(coords, idx):
            alone = orbit_matrix(_system(FAMILIES[name], mode), np.array([c]), HORIZON)
            assert _bits(orbits[:, j]) == _bits(alone[:, 0])


def test_signed_zeros_keep_separate_columns():
    sys = _system(FAMILIES["plateau-tent"], "non_autonomous")
    zeros = point_coords([IntervalPoint(0.0), IntervalPoint(-0.0)], SpaceKind.UNIT_INTERVAL)
    orbits, (cols,) = _sweep_groups(sys, [zeros], 3)
    assert cols[0] != cols[1]
    assert math.copysign(1.0, orbits[0, cols[1]]) == -1.0


def test_step_table_grows_to_largest_horizon():
    sys = _system(FAMILIES["perturbed-doubling"], "non_autonomous")
    assert len(sys.steps(5)) == 6
    table = sys.steps(12)
    assert len(table) == 13 and sys.steps(3) is table
    assert all(table[n] == sys.member(n) for n in range(1, 13))


def test_nearest_lookup_report_is_pinned():
    # sha256 of the report text as produced by one orbit sweep per ball,
    # before sweeps were batched; no golden report reaches this sampled path
    # (it covers the version string, so a version bump changes it)
    text = run_comparison(ScenarioSpec.from_json(LOOKUP_DOC)).to_json_text()
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "1580d11ee44a2705fd9982f0442443fbf3d382905f04101fa7037023cae049a9"
    )


def _pair_code(sys, cfg, xy):
    """The code from xy[0] to xy[1], from a sweep of the two points alone,
    and whether they took separate columns."""
    kind = sys.space.kind
    orbits, ((i, j),) = _sweep_groups(sys, [xy], 0 if sys.steps_isometric else cfg.horizon)
    return _pair_codes(kind, cfg, orbits, np.arange(orbits.shape[1]), np.array([i]))[0, j], i != j


def _old_pair_rule(predicate, same, isometric, d0, tail_min, tail_max, cfg):
    """(holds, refuted) of one pair, as the per-pair rules decided it."""
    if predicate is PairPredicate.PROXIMAL:
        if same:
            return True, False
        if isometric:
            return d0 < cfg.eps, d0 >= cfg.eps
        return tail_min < cfg.eps, False
    if same or isometric:
        return False, True
    return tail_min < cfg.eps and tail_max > cfg.delta, False


PAIR_SPECS = {
    **{name: CATALOG[name] for name in sorted(CATALOG)},
    "nearest-lookup": ScenarioSpec.from_json(LOOKUP_DOC),
}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", sorted(PAIR_SPECS))
def test_pair_outcomes_match_plain_python_rules(name, mode):
    spec = PAIR_SPECS[name]
    fam = spec.build_family()
    cfg = dataclasses.replace(
        spec.check, horizon=HORIZON, tail_window=min(spec.check.tail_window, HORIZON // 2)
    )
    sys = _system(fam, mode)
    kind = fam.space.kind
    grid = checker_grid(fam.space, cfg)
    x = coord_point(grid[1], kind)
    # the ball around x starts with x itself; the second ball lies far away
    balls = ball_coords(fam.space, grid[[1, len(grid) // 2]], cfg.eps, cfg.ball_count)
    partners = [coord_point(c, kind) for c in np.concatenate(balls)]
    table = _pair_table(sys, cfg)
    # row k of pool_cols holds the columns of the pool of grid point k
    pools = np.concatenate([table.pools[1], table.pools[len(grid) // 2]])
    assert [coord_point(c, kind) for c in pools] == partners
    cols = [table.pool_cols[k, : len(table.pools[k])] for k in (1, len(grid) // 2)]
    codes = table.codes[table.rows[table.pool_cols[1, 0]], np.concatenate(cols)]

    # the orbit columns of x and of each partner, as points
    orbits = orbit_matrix(sys, point_coords([x] + partners, kind), HORIZON)
    states = [[coord_point(c, kind) for c in row] for row in orbits]
    tail = range(HORIZON - cfg.tail_window, HORIZON + 1)
    for predicate in PairPredicate:
        holds, refuted = _pair_outcomes(sys, predicate, codes)
        for j, y in enumerate(partners):
            gaps = [distance(fam.space, states[n][0], states[n][j + 1]) for n in tail]
            d0 = distance(fam.space, x, y)
            want = _old_pair_rule(
                predicate, x == y, sys.steps_isometric, d0, min(gaps), max(gaps), cfg
            )
            assert (bool(holds[j]), bool(refuted[j])) == want, (predicate, y)
            assert bool(codes[j] & _SAME) == (d0 == 0.0)
            if d0 == 0.0 and not sys.steps_isometric:
                assert max(gaps) == 0.0


@pytest.mark.parametrize("mode", MODES)
def test_pair_at_distance_zero_is_one_point(mode):
    # 0.0 and -0.0 take separate sweep columns, yet they are one point
    sys = _system(FAMILIES["plateau-tent"], mode)
    cfg = dataclasses.replace(CATALOG["plateau-tent"].check, horizon=50, tail_window=20)
    code, separate = _pair_code(sys, cfg, np.array([0.0, -0.0]))
    assert separate
    assert code & _SAME
    assert [bool(f) for f in _pair_outcomes(sys, PairPredicate.PROXIMAL, code)] == [True, False]
    assert [bool(f) for f in _pair_outcomes(sys, PairPredicate.LI_YORKE, code)] == [False, True]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", sorted(PAIR_SPECS))
def test_pair_table_matches_two_point_checks(name, mode):
    spec = PAIR_SPECS[name]
    fam = spec.build_family()
    binary = fam.space.kind is SpaceKind.BINARY_SEQ
    cfg = dataclasses.replace(
        spec.check, horizon=30, tail_window=15, grid_resolution=2 if binary else 4
    )
    sys = _system(fam, mode)
    table = _pair_table(sys, cfg)
    if name == "plateau-tent":
        # the balls at the interval's ends hold fewer distinct points
        assert len({len(pool) for pool in table.pools}) > 1
    # every kept column is a pool point; each pool starts with its center
    points = {}
    for pool, idx in zip(table.pools, table.pool_cols):
        points.update(zip(idx.tolist(), pool))
    assert len(points) == len(table.rows)
    assert [points[c].tobytes() for c in table.pool_cols[:, 0]] == [
        c.tobytes() for c in table.centers
    ]
    sources = np.flatnonzero(table.rows >= 0)
    for s in sources:
        for c, y in points.items():
            code = _pair_code(sys, cfg, np.array([points[s], y]))[0]
            assert code == table.codes[table.rows[s], c]


@st.composite
def _binary_start(draw):
    """A word (sometimes all ones, for the carry out of the word), its
    effective length, and a deletion index that may exceed it."""
    length = draw(st.integers(1, 63))
    if draw(st.booleans()):
        bits = (1,) * length
    else:
        bits = tuple(draw(st.lists(st.integers(0, 1), min_size=length, max_size=length)))
    word = BinaryWord(bits, draw(st.integers(1, length)))
    return word, draw(st.integers(1, length + 3))


def _apply_orbit(sys, x, horizon):
    """Reference orbit: a plain loop over scalar apply."""
    states = [x]
    for n in range(1, horizon + 1):
        states.append(apply(sys.member(n), states[-1]))
    return states


def _scalar_orbit(sys, word, horizon):
    try:
        return _apply_orbit(sys, word, horizon)
    except ResolutionError:
        return None


def _packed_orbit(sys, word, horizon):
    try:
        rows = orbit_matrix(sys, point_coords([word], SpaceKind.BINARY_SEQ), horizon)
    except ResolutionError:
        return None
    return [coord_point(c, SpaceKind.BINARY_SEQ) for c in rows[:, 0]]


def _limit_system(space, m):
    """The limit system of the constant family f_n = m."""
    return step_table_family(space, (), m, "constant")


@settings(max_examples=150, deadline=None)
@given(_binary_start(), st.integers(1, 70))
def test_packed_binary_orbits_decode_to_scalar_orbits(start, horizon):
    word, index = start
    space = PhaseSpace.binary_seq(len(word.bits))
    for m in (OdometerAdd(), Delete(index), Compose(OdometerAdd(), Delete(index))):
        sys = _limit_system(space, m)
        assert _packed_orbit(sys, word, horizon) == _scalar_orbit(sys, word, horizon)


def test_packed_binary_edge_cases():
    space = PhaseSpace.binary_seq(4)
    odometer = _limit_system(space, OdometerAdd())
    ones = BinaryWord((1, 1, 1, 1), 3)
    assert _packed_orbit(odometer, ones, 1)[1] == BinaryWord((0, 0, 0, 0), 3)
    beyond = _limit_system(space, Delete(3))
    word = BinaryWord((1, 0, 1, 1), 2)
    assert _packed_orbit(beyond, word, 2) == [word] * 3
    first = _limit_system(space, Delete(1))
    short = BinaryWord((1, 0), 1)
    with pytest.raises(ResolutionError):
        _apply_orbit(first, short, 1)
    with pytest.raises(ResolutionError):
        orbit_matrix(first, point_coords([short], SpaceKind.BINARY_SEQ), 1)


@pytest.mark.parametrize("mode", MODES)
def test_odometer_deletion_packed_sweep_matches_scalar_orbits(mode):
    fam = make_builtin_family("odometer-deletion", word_length=24)
    sys = _system(fam, mode)
    words = [BinaryWord(tuple((v >> j) & 1 for j in range(24)), 24) for v in (0, 5, 2**24 - 1)]
    orbits, (cols,) = _sweep_groups(sys, [point_coords(words + words[:1], SpaceKind.BINARY_SEQ)], 60)
    assert orbits.shape == (61, 3) and cols[0] == cols[3]
    for w, j in zip(words, cols):
        assert [coord_point(c, SpaceKind.BINARY_SEQ) for c in orbits[:, j]] == _apply_orbit(sys, w, 60)
