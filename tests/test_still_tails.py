"""Still tails in the orbit and region kernels, and the early exits of
equicontinuity and minimality: each against a plain full-horizon copy of the
rule, plus the step counts the shortcuts save."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nonautodyn import checkers, orbit, regions
from nonautodyn import verdict as V
from nonautodyn.checkers import (
    CheckConfig,
    _confinement_gaps,
    check_equicontinuity,
    check_minimality,
    checker_grid,
)
from nonautodyn.descriptors import (
    AffineCircle,
    Compose,
    Delete,
    Lookup,
    OdometerAdd,
    PiecewiseLinear,
    Rotation,
    apply_batch,
    circle_canonical,
    pl_image_batch,
)
from nonautodyn.family import (
    PLATEAU_HEAD,
    TENT,
    MapFamily,
    family_from_config,
    step_table_family,
)
from nonautodyn.orbit import orbit_matrix
from nonautodyn.regions import _pl_factors, _step_arcs, region_chains
from nonautodyn.report import CATALOG
from nonautodyn.space import (
    TWO_PI,
    WORD_DTYPE,
    PhaseSpace,
    SpaceKind,
    ball_coords,
    coord_distances,
    coord_to_json,
    grid_coords,
)

# ---------------------------------------------------------------------------
# the kernels against a plain per-step loop

#: two equal identity rotations: a run of one, then of the other, changes
#: the map object but not the map
CIRCLE_MAPS = (
    Rotation(0.0), Rotation(0.0), Rotation(1.3), AffineCircle(2, 0.0), AffineCircle(3, 0.7),
    Compose(Rotation(0.5), AffineCircle(2, 0.0)),
)
#: the constant 0, the identity, and a map that moves 0
ZERO = PiecewiseLinear(((0.0, 0.0), (1.0, 0.0)))
IDENTITY = PiecewiseLinear(((0.0, 0.0), (1.0, 1.0)))
LIFT = PiecewiseLinear(((0.0, 0.5), (1.0, 1.0)))
INTERVAL_MAPS = (
    TENT, PLATEAU_HEAD, ZERO, IDENTITY, LIFT, Lookup((0.0, 1.0, 0.25)),
    Compose(TENT, LIFT),
)
#: Delete(3) shortens a word of effective length 3 or more, and leaves one of
#: 2 unchanged; Delete(40) reaches past every word here
BINARY_MAPS = (OdometerAdd(), Delete(3), Delete(40), Compose(OdometerAdd(), Delete(40)))


def _runs(pool_size: int):
    """A step table of runs of one map object each: (pool index, run length)."""
    return st.lists(
        st.tuples(st.integers(0, pool_size - 1), st.integers(1, 40)), min_size=1, max_size=6
    )


def _table(pool, runs) -> list:
    return [pool[i] for i, length in runs for _ in range(length)]


def _family(space: PhaseSpace, steps: list) -> MapFamily:
    return MapFamily(space, lambda n: steps[n - 1], steps[-1], "steps")


MODES = ("non_autonomous", "autonomous_limit")


def _system(fam: MapFamily, mode: str) -> MapFamily:
    """A copy of the family with a memo of its own, or its limit system (X, f)."""
    if mode == "autonomous_limit":
        return step_table_family(fam.space, (), fam.limit, fam.label)
    return dataclasses.replace(fam)


def _plain_orbit(kind, coords, steps, start):
    rows = [coords]
    for m in steps[start:]:
        rows.append(apply_batch(m, rows[-1], kind))
    return np.stack(rows)


def _plain_regions(kind, a0, b0, steps):
    """region_chains without still tails: every step flattened and stepped."""
    arcs = kind is SpaceKind.CIRCLE
    a, b = np.empty((len(steps) + 1, len(a0))), np.empty((len(steps) + 1, len(a0)))
    a[0], b[0] = a0, b0
    for n, m in enumerate(steps, 1):
        if arcs:
            _step_arcs(m, circle_canonical(m)[0], a, b, n)
        else:
            a[n], b[n] = a[n - 1], b[n - 1]
            for pl in _pl_factors(m):
                a[n], b[n] = pl_image_batch(pl, a[n], b[n])
    return a, b


def _same_regions(kind, a0, b0, steps):
    got, want = region_chains(kind, a0, b0, steps), _plain_regions(kind, a0, b0, steps)
    assert got.a.tobytes() == want[0].tobytes()
    assert got.b.tobytes() == want[1].tobytes()


ANGLES = st.sampled_from([0.0, -0.0, 1.0, math.pi, 6.0]) | st.floats(0.0, TWO_PI, exclude_max=True)


@settings(max_examples=60, deadline=None)
@given(_runs(len(CIRCLE_MAPS)), st.lists(ANGLES, min_size=1, max_size=5), st.integers(0, 3))
# identity steps, then a nonzero rotation; a -0.0 that R_0 turns into +0.0
@example([(0, 9), (2, 9)], [-0.0, 1.0], 0)
@example([(0, 1), (1, 16), (2, 3)], [-0.0], 0)
def test_circle_orbits_match_a_plain_loop(runs, angles, start):
    steps = _table(CIRCLE_MAPS, runs)
    start = min(start, len(steps) - 1)
    coords = np.array(angles)
    got = orbit_matrix(_family(PhaseSpace.circle(), steps), coords, len(steps) - start, start)
    assert got.tobytes() == _plain_orbit(SpaceKind.CIRCLE, coords, steps, start).tobytes()


@settings(max_examples=60, deadline=None)
@given(
    _runs(len(INTERVAL_MAPS)),
    st.lists(st.sampled_from([0.0, -0.0, 0.5, 1.0]) | st.floats(0.0, 1.0), min_size=1, max_size=5),
)
@example([(0, 70), (4, 5)], [0.3, 0.0])
def test_interval_orbits_match_a_plain_loop(runs, xs):
    steps = _table(INTERVAL_MAPS, runs)
    coords = np.array(xs)
    got = orbit_matrix(_family(PhaseSpace.unit_interval(), steps), coords, len(steps))
    assert got.tobytes() == _plain_orbit(SpaceKind.UNIT_INTERVAL, coords, steps, 0).tobytes()


@settings(max_examples=60, deadline=None)
@given(
    _runs(len(BINARY_MAPS)),
    st.lists(st.tuples(st.integers(0, 2**24 - 1), st.integers(2, 24)), min_size=1, max_size=5),
)
# Delete(i) with i > eff leaves the words unchanged, then the odometer moves them
@example([(2, 9), (0, 3)], [(5, 24), (6, 2)])
@example([(1, 30), (0, 2), (1, 5)], [(5, 24), (1, 3)])
def test_binary_orbits_match_a_plain_loop(runs, words):
    steps = _table(BINARY_MAPS, runs)
    coords = np.array([(v, 24, eff) for v, eff in words], dtype=WORD_DTYPE)
    got = orbit_matrix(_family(PhaseSpace.binary_seq(24), steps), coords, len(steps))
    assert got.tobytes() == _plain_orbit(SpaceKind.BINARY_SEQ, coords, steps, 0).tobytes()


ARCS = st.lists(
    st.tuples(ANGLES, st.sampled_from([0.0, 0.5, TWO_PI]) | st.floats(0.0, TWO_PI)),
    min_size=1, max_size=5,
)


@settings(max_examples=80, deadline=None)
@given(_runs(len(CIRCLE_MAPS)), ARCS)
# identity steps keep an arc that is not full, then a rotation moves it
@example([(0, 9), (2, 9)], [(1.0, 0.5), (-0.0, 0.25)])
@example([(0, 16), (1, 4), (2, 20)], [(1.0, 0.5)])
def test_arc_chains_match_a_plain_loop(runs, arcs):
    a0, b0 = (np.array(v) for v in zip(*arcs))
    _same_regions(SpaceKind.CIRCLE, a0, b0, _table(CIRCLE_MAPS, runs))


@pytest.mark.parametrize("length", [0.3, 1.0, TWO_PI])
def test_full_arcs_under_changing_doubling_maps(length):
    # every map is a new object; the arcs are full from a few steps on
    steps = [AffineCircle(2, 1.0 / n) for n in range(1, 60)]
    steps += [Rotation(0.5), AffineCircle(3, 0.1)] + steps
    a0, b0 = np.array([0.0, -0.0, 2.0, 6.0]), np.full(4, length)
    _same_regions(SpaceKind.CIRCLE, a0, b0, steps)


INTERVALS = st.lists(
    st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(sorted)
    | st.sampled_from([(0.0, 0.0), (0.0, 1.0), (0.5, 0.5)]),
    min_size=1, max_size=5,
)


@settings(max_examples=80, deadline=None)
@given(_runs(len(INTERVAL_MAPS)), INTERVALS)
# tent takes [0, 0] to itself, then a map that lifts it
@example([(0, 20), (4, 3), (0, 2)], [(0.0, 0.0), (0.25, 0.5)])
@example([(2, 8), (0, 9), (6, 9)], [(0.1, 0.2)])
def test_interval_chains_match_a_plain_loop(runs, intervals):
    lo, hi = (np.array(v, dtype=float) for v in zip(*intervals))
    _same_regions(SpaceKind.UNIT_INTERVAL, lo, hi, _table(INTERVAL_MAPS, runs))


def test_still_interval_chain_meets_a_step_without_an_exact_image():
    steps = [TENT] * 40 + [Lookup((0.0, 1.0), "nearest")] + [TENT] * 40
    lo, hi = np.array([0.0, 0.0]), np.array([0.0, 1.0])
    assert not regions.exact_chains(SpaceKind.UNIT_INTERVAL, steps)
    _same_regions(SpaceKind.UNIT_INTERVAL, lo, hi, steps[:40])


# ---------------------------------------------------------------------------
# the early exits against today's full-horizon rules


def _full_equicontinuity(sys, cfg):
    """check_equicontinuity as one sweep of every rung to the horizon."""
    space, N = sys.space, cfg.horizon
    rungs = checkers._rungs(space, cfg, 0.5, 5)
    centers = checker_grid(space, cfg)
    worst_for_smallest = None
    for rung in rungs:
        worst_sep, worst_pair = 0.0, None
        groups = [
            (u, g) for u, g in enumerate(ball_coords(space, centers, rung, cfg.ball_count))
            if len(g) > 1
        ]
        if groups:
            orbits, cols = checkers._sweep_groups(sys, [g for _, g in groups], N)
            for (u, g), idx in zip(groups, cols):
                seps = coord_distances(space.kind, orbits[:, idx[1:]], orbits[:, idx[:1]])
                t, j = divmod(int(np.argmax(seps)), seps.shape[1])
                if seps[t, j] > worst_sep:
                    worst_sep, worst_pair = float(seps[t, j]), (centers[u], g[j + 1], t)
        if worst_sep <= cfg.eps:
            return V.holds(
                {"delta_prime": rung, "max_separation": worst_sep, "horizon": N},
                f"pairs within {rung:g} stay {cfg.eps:g}-close up to n={N}",
            )
        if rung == rungs[-1] and worst_pair is not None:
            worst_for_smallest = (*worst_pair, worst_sep)
    if worst_for_smallest is not None:
        x, y, t, sep = worst_for_smallest
        return V.refuted(
            {
                "pair": [coord_to_json(x, space.kind), coord_to_json(y, space.kind)],
                "time": t,
                "separation": sep,
                "delta_floor": rungs[-1],
            },
            f"a pair within {rungs[-1]:g} separates to {sep:.3g} by n={t}",
        )
    return V.inconclusive({"horizon": N, "rungs": rungs}, "no conclusive rung at this horizon")


def _full_minimality(sys, cfg):
    """check_minimality as one sweep to the horizon, every start measured."""
    space, N = sys.space, cfg.horizon
    kind = space.kind
    starts = checker_grid(space, cfg)
    targets = grid_coords(space, cfg.grid_resolution)
    uncovered, visit_times = [], []
    orbits = orbit_matrix(sys, starts, N)
    for i in range(len(starts)):
        ok = coord_distances(kind, orbits[:, i, None], targets) <= cfg.eps
        any_ok = ok.any(axis=0)
        if any_ok.all():
            visit_times.append(int(ok.argmax(axis=0).max()))
        else:
            uncovered.append((i, int(np.argmin(any_ok))))
    if not uncovered:
        worst = max(visit_times)
        return V.holds(
            {"max_cell_visit_time": worst, "starts": len(starts), "targets": len(targets)},
            f"every grid orbit is {cfg.eps:g}-dense by n={worst}",
        )
    cutoff = sys.eventually_constant_from
    for i, t in uncovered:
        x, orb = starts[i], orbits[:, i]
        if cutoff is not None:
            lo = max(0, cutoff - 1)
            fixed = np.flatnonzero(apply_batch(sys.limit, orb[lo:], kind) == orb[lo:])
            if fixed.size:
                m = lo + int(fixed[0])
                gap = float(coord_distances(kind, orb[: m + 1], targets[t : t + 1]).min())
                if gap > cfg.eps:
                    return V.refuted(
                        {
                            "start": coord_to_json(x, kind),
                            "stuck_at": coord_to_json(orb[m], kind),
                            "stuck_from": m,
                            "missed_target": coord_to_json(targets[t], kind),
                            "gap": gap,
                            "rule": "eventually-fixed-orbit",
                        },
                        "an orbit freezes at a fixed point and misses a cell forever",
                    )
        conf = _confinement_gaps(sys, N, x, targets[t])
        if conf is not None:
            min_gap, future, tail = conf
            if min_gap > cfg.eps + cfg.tol and future > cfg.eps + cfg.tol:
                return V.refuted(
                    {
                        "start": coord_to_json(x, kind),
                        "missed_target": coord_to_json(targets[t], kind),
                        "min_gap": min_gap,
                        "tail_bound": tail,
                        "rule": "displacement-confinement",
                    },
                    "total rotation displacement is confined, leaving a cell unreachable",
                )
    return V.inconclusive(
        {
            "non_covered_starts": [coord_to_json(starts[i], kind) for i, _ in uncovered[:8]],
            "uncovered_count": len(uncovered),
            "horizon": N,
        },
        f"{len(uncovered)} of {len(starts)} grid starts left some cell unvisited "
        "at this horizon",
    )


def _nearest_family(values, steps=()):
    lookup = lambda v: {"type": "lookup", "rule": "nearest", "values": list(v)}  # noqa: E731
    return family_from_config({
        "space": {"kind": "unit_interval"},
        "custom": {"steps": [lookup(s) for s in steps], "limit": lookup(values)},
    })


def _tent_values(size, wiggle=0.0):
    return [
        min(1.0, max(0.0, (2 * i / (size - 1) if 2 * i <= size - 1 else 2 - 2 * i / (size - 1))
                     + wiggle * (1 if i % 3 else -1)))
        for i in range(size)
    ]


#: nearest rule on the nodes 0, 1/3, 2/3, 1, each sent to the next and 1 to 0:
#: a ball centered on a boundary between two nodes holds samples on both
#: sides, so its separations repeat exactly every 4 steps, for every sample
#: across the boundary, and at each of the three boundaries
CYCLE = (1 / 3, 2 / 3, 1.0, 0.0)
CASES = {
    **{name: (spec.build_family(), spec.check) for name, spec in CATALOG.items()},
    "nearest-lookup": (
        _nearest_family(_tent_values(17), [_tent_values(17, 0.03), _tent_values(17, 0.01)]),
        CheckConfig(horizon=300, grid_resolution=12, ball_count=9, eps=0.1, delta=0.25,
                    tail_window=200, max_period=8, repetitions=3),
    ),
    "nearest-cycle": (
        _nearest_family(CYCLE),
        CheckConfig(horizon=100, grid_resolution=7, ball_count=9, eps=0.1, delta=0.25,
                    tail_window=50, max_period=8, repetitions=3),
    ),
}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", sorted(CASES))
def test_early_exits_match_full_horizon_rules(name, mode):
    fam, cfg = CASES[name]
    for early, full in ((check_equicontinuity, _full_equicontinuity),
                        (check_minimality, _full_minimality)):
        # two systems, so that nothing the early rule memoizes serves the full one
        got = early(_system(fam, mode), cfg).to_json()
        assert got == full(_system(fam, mode), cfg).to_json(), early.__name__


def test_the_cycle_family_ties_in_time_partner_and_ball():
    # the last rung's largest separation is reached at several times of one
    # ball, by several partners at one time, and by several balls
    fam, cfg = CASES["nearest-cycle"]
    sys = _system(fam, "non_autonomous")
    rung = checkers._rungs(fam.space, cfg, 0.5, 5)[-1]
    pools = [g for g in ball_coords(fam.space, checker_grid(fam.space, cfg), rung, 9) if len(g) > 1]
    orbits, cols = checkers._sweep_groups(sys, pools, cfg.horizon)
    seps = [coord_distances(fam.space.kind, orbits[:, i[1:]], orbits[:, i[:1]]) for i in cols]
    top = max(s.max() for s in seps)
    at_top = [s for s in seps if s.max() == top]
    assert len(at_top) > 1
    assert any((s == top).any(axis=1).sum() > 1 for s in at_top)
    assert any(((s == top).sum(axis=1) > 1).any() for s in at_top)
    verdict = check_equicontinuity(sys, cfg)
    assert verdict.refuted and verdict.witness["separation"] == top


# ---------------------------------------------------------------------------
# what the shortcuts save


def _counting(monkeypatch, module, name) -> list:
    calls, real = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", ["perturbed-doubling", "plateau-tent"])
def test_expanding_ball_chains_stop_stepping(monkeypatch, name, mode):
    spec = CATALOG[name]
    sys = _system(spec.build_family(), mode)
    stepper = "_step_arcs" if name == "perturbed-doubling" else "pl_image_batch"
    steps = _counting(monkeypatch, regions, stepper)
    centers = checker_grid(sys.space, spec.check)
    N = spec.check.horizon
    radii = np.full(len(centers), spec.check.eps)
    chains = regions.ball_chains(sys.space.kind, centers, radii, sys.steps(N)[1 : N + 1])
    assert chains.a.shape[0] == N + 1
    assert len(steps) <= 16


def test_identity_limit_sweep_is_one_step(monkeypatch):
    spec = CATALOG["inverse-square-rotation"]
    sys = _system(spec.build_family(), "autonomous_limit")
    steps = _counting(monkeypatch, orbit, "apply_batch")
    rows = orbit_matrix(sys, checker_grid(sys.space, spec.check), spec.check.horizon)
    assert len(steps) == 1 and (rows == rows[0]).all()


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", ["perturbed-doubling", "plateau-tent"])
def test_failing_equicontinuity_rungs_stop_early(monkeypatch, name, mode):
    spec = CATALOG[name]
    N = spec.check.horizon
    sweeps = _counting(monkeypatch, checkers, "orbit_matrix")
    assert check_equicontinuity(_system(spec.build_family(), mode), spec.check).refuted
    # each rung first sweeps row 0 of its distinct starts, then row blocks
    rungs = []
    for _, _, horizon, *_ in sweeps:
        if horizon == 0:
            rungs.append(0)
        else:
            rungs[-1] += horizon
    assert len(rungs) == 5 and rungs[-1] == N
    assert all(rows < N for rows in rungs[:-1])


def test_minimality_stops_once_every_cell_is_visited(monkeypatch):
    spec = CATALOG["alternating-rotation"]
    sweeps = _counting(monkeypatch, checkers, "orbit_matrix")
    verdict = check_minimality(spec.build_family(), spec.check)
    assert verdict.holds
    rows = sum(horizon for _, _, horizon, *_ in sweeps)
    assert rows < 2 * verdict.witness["max_cell_visit_time"] + 16 < spec.check.horizon
