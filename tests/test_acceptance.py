"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance and runtime limit is pinned here; nothing is deferred to
later calibration. Run with `pytest tests/test_acceptance.py -v -s` to see
the per-criterion lines.
"""

import math
import random
import time

import numpy as np
import pytest

from nonautodyn.bounds import collective_convergence_profile, deviation_series
from nonautodyn.checkers import (
    CheckConfig,
    _periods,
    check_minimality,
    check_sensitivity,
    check_topological_mixing,
    check_transitivity,
    checker_grid,
    orbit_matrix,
)
from nonautodyn.descriptors import descriptor_to_json
from nonautodyn.family import (
    PLATEAU_HEAD,
    TENT,
    family_from_config,
    feeble_open_check,
    make_builtin_family,
    step_table_family,
    summability_estimate,
    term_sums,
)
from nonautodyn.orbit import omega
from nonautodyn.report import (
    CATALOG,
    PROPERTY_RULES,
    ScenarioSpec,
    golden_path,
    reproduce,
    run_comparison,
)
from nonautodyn.space import (
    BinaryWord,
    CircleAngle,
    IntervalPoint,
    SpaceKind,
    coord_distances,
    coord_point,
    grid_coords,
    point_coords,
)

GOLDEN_ALPHA = 2.0 * math.pi * (math.sqrt(5.0) - 1.0) / 2.0


def _limit(fam):
    """The limit system (X, f): the family with no steps."""
    return step_table_family(fam.space, (), fam.limit, fam.label)


class _Clock:
    def __init__(self, limit_s: float, label: str):
        self.limit = limit_s
        self.label = label

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.elapsed = time.monotonic() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.label}: {status} ({self.elapsed:.2f}s, limit {self.limit:g}s)")
        if exc_type is None:
            assert self.elapsed < self.limit, (
                f"{self.label} exceeded runtime limit: {self.elapsed:.2f}s >= {self.limit}s"
            )


def test_criterion_01_deviation_bound_suite():
    """Commuting families satisfy the deviation bound on 100 points, k <= 200."""
    with _Clock(10.0, "1 deviation-bound-suite"):
        families = [
            make_builtin_family("alternating-rotation", alpha=GOLDEN_ALPHA),
            make_builtin_family("inverse-square-rotation"),
        ]
        for fam in families:
            _, sums, _ = term_sums(fam, 200)
            grid = grid_coords(fam.space, 100)
            states = orbit_matrix(fam, grid, 200)
            lim = orbit_matrix(_limit(fam), grid, 200)
            # row k: d(omega_k(x), f^k(x)) for every grid point x
            measured = coord_distances(fam.space.kind, states, lim)
            for k in range(1, 201):
                bound = sums[k]
                assert (measured[k] <= bound + 1e-9).all()
                if fam.label == "inverse-square-rotation":
                    assert (abs(measured[k] - bound) <= 1e-12).all()
            # spot-check the record-producing operation on a few grid points
            for c in grid_coords(fam.space, 5):
                rec = deviation_series(fam, coord_point(c, fam.space.kind), 200)[-1]
                assert rec.holds


def test_criterion_02_commuting_hypothesis_is_load_bearing():
    """Perturbed doubling violates the bound within five steps from zero."""
    with _Clock(1.0, "2 hypothesis-necessity-witness"):
        fam = make_builtin_family("perturbed-doubling")
        records = deviation_series(fam, CircleAngle(0.0), 5)
        assert any(not r.holds for r in records)


def test_criterion_03_inverse_square_scenario():
    """Partial sums target pi^2/6; no periodic points except for the limit."""
    with _Clock(30.0, "3 inverse-square-scenario"):
        fam = make_builtin_family("inverse-square-rotation")
        rep = summability_estimate(fam, 128)
        sums = rep.partial_sums
        assert all(b >= a for a, b in zip(sums, sums[1:]))
        assert rep.series_limit == pytest.approx(math.pi**2 / 6, abs=1e-12)
        # independent extrapolation: a million terms plus an integral tail
        n = np.arange(1, 1_000_001, dtype=float)
        extrapolated = float((1.0 / n**2).sum()) + 1.0 / 1_000_000.5
        assert abs(extrapolated - math.pi**2 / 6) < 1e-6

        cfg = CheckConfig(
            horizon=500, grid_resolution=50, ball_count=7, eps=0.1, delta=0.3,
            tol=1e-9, tail_window=200, max_period=100, repetitions=5,
        )
        thetas = grid_coords(fam.space, 50)
        assert len(thetas) == 50
        P, R = cfg.max_period, cfg.repetitions
        for system, want in ((fam, 0), (_limit(fam), 1)):
            orbits = orbit_matrix(system, thetas, P * R)
            # 0 is no period up to P, a refuted periodic point
            assert (_periods(fam.space.kind, orbits, P, R, cfg.tol) == want).all()


def test_criterion_04_alternating_rotation_scenario():
    """Even-step orbits are pure rotations; minimality holds in both modes."""
    with _Clock(60.0, "4 alternating-rotation-scenario"):
        fam = make_builtin_family("alternating-rotation", alpha=GOLDEN_ALPHA)
        th = 0.8128
        states = orbit_matrix(fam, np.array([th]), 2000)
        for n in range(1, 1001):
            want = (th + 2 * n * GOLDEN_ALPHA) % (2 * math.pi)
            got = states[2 * n, 0]
            gap = abs(got - want)
            assert min(gap, 2 * math.pi - gap) <= 1e-9
        cfg = CheckConfig(
            horizon=5000, grid_resolution=20, ball_count=9, eps=0.05, delta=0.25,
            tol=1e-9, tail_window=2000, max_period=8, repetitions=3,
        )
        assert check_minimality(fam, cfg).holds
        assert check_minimality(_limit(fam), cfg).holds
        flag = summability_estimate(fam, 64).flag
        assert flag.startswith("divergent")


def test_criterion_05_plateau_tent_scenario():
    """Collapse kills mixing for the family; the tent limit keeps it all."""
    with _Clock(30.0, "5 plateau-tent-scenario"):
        fam = make_builtin_family("plateau-tent")
        cfg = CheckConfig(
            horizon=500, grid_resolution=20, ball_count=9, eps=0.1, delta=0.25,
            tol=1e-9, tail_window=200, max_period=8, repetitions=3,
        )
        limit = _limit(fam)
        for checker in (check_sensitivity, check_transitivity, check_topological_mixing):
            assert checker(fam, cfg).refuted
            assert checker(limit, cfg).holds
        v = feeble_open_check(PLATEAU_HEAD)
        assert v.refuted
        assert v.witness["flat_piece"] == [0.0, 0.5]


def test_criterion_06_mode_consistency_all_checkers():
    """All 12 checkers agree between modes on an autonomous tent wrapper."""
    with _Clock(30.0, "6 mode-consistency"):
        # a custom family with no steps: f_n = TENT for every n
        fam = family_from_config({
            "space": {"kind": "unit_interval"},
            "custom": {"limit": descriptor_to_json(TENT), "label": "tent-wrapper"},
        })
        cfg = CheckConfig(
            horizon=400, grid_resolution=12, ball_count=7, eps=0.1, delta=0.25,
            tol=1e-9, tail_window=150, max_period=6, repetitions=2,
        )
        limit = _limit(fam)
        assert len(PROPERTY_RULES) == 12
        for rule in PROPERTY_RULES:
            va, vb = rule.runner(fam, cfg), rule.runner(limit, cfg)
            assert va.outcome == vb.outcome, rule.name
            assert va.witness == vb.witness, rule.name


def test_criterion_07_semigroup_identity():
    """Window composition after a prefix reproduces the full orbit bit-exactly."""
    with _Clock(5.0, "7 semigroup-identity"):
        rng = random.Random(20260810)
        fams = [
            make_builtin_family("alternating-rotation", alpha=GOLDEN_ALPHA),
            make_builtin_family("inverse-square-rotation"),
            make_builtin_family("perturbed-doubling"),
            make_builtin_family("plateau-tent"),
            make_builtin_family("odometer-deletion", word_length=24),
        ]
        for _ in range(1000):
            fam = rng.choice(fams)
            n, k = rng.randint(0, 30), rng.randint(0, 30)
            if fam.space.kind is SpaceKind.CIRCLE:
                x = CircleAngle(rng.uniform(0.0, 2 * math.pi))
            elif fam.space.kind is SpaceKind.UNIT_INTERVAL:
                x = IntervalPoint(rng.random())
            else:
                x = BinaryWord(tuple(rng.randint(0, 1) for _ in range(24)), 24)
            # the sweep of omega_n(x) through steps n+1..n+k
            y = point_coords([omega(fam, x, n)], fam.space.kind)
            window = orbit_matrix(fam, y, k, start=n)
            assert omega(fam, x, n + k) == coord_point(window[-1, 0], fam.space.kind)


def test_criterion_08_collective_convergence_profile():
    """Tail suprema shrink for the summable rotations; doubling just reports."""
    with _Clock(30.0, "8 collective-convergence-profile"):
        inv = make_builtin_family("inverse-square-rotation")
        prof = collective_convergence_profile(inv, n_max=55, k_max=50, grid_resolution=32)
        T = prof.tail_sup
        assert all(T[i + 1] < T[i] for i in range(len(T) - 1))
        assert T[49] < 0.02
        closed = sum(1.0 / i**2 for i in range(51, 101))
        assert T[49] == pytest.approx(closed, abs=1e-12)

        pd = make_builtin_family("perturbed-doubling")
        prof_pd = collective_convergence_profile(pd, n_max=20, k_max=10, grid_resolution=16)
        assert all(math.isfinite(v) for row in prof_pd.matrix for v in row)
        assert len(prof_pd.tail_sup) == 20


def test_criterion_09_periodic_transfer_direction():
    """Alpha = 0: period 2 for the family, period 1 for the identity limit."""
    with _Clock(10.0, "9 periodic-transfer"):
        fam = make_builtin_family("alternating-rotation", alpha=0.0)
        cfg = CheckConfig(
            horizon=100, grid_resolution=12, ball_count=7, eps=0.1, delta=0.25,
            tol=1e-9, tail_window=50, max_period=8, repetitions=3,
        )
        grid, P, R = checker_grid(fam.space, cfg), cfg.max_period, cfg.repetitions
        for system, want in ((fam, 2), (_limit(fam), 1)):
            orbits = orbit_matrix(system, grid, P * R)
            assert (_periods(fam.space.kind, orbits, P, R, cfg.tol) == want).all()
        spec = ScenarioSpec(
            family_config={"builtin": "alternating-rotation", "params": {"alpha": 0.0}},
            check=cfg,
            properties=("periodic_points",),
            label="periodic-transfer",
        )
        report = run_comparison(spec)
        row = report.rows[0]
        assert row.rule_id == "periodic-point-transfer"
        assert row.consistent
        assert row.verdict_nonautonomous.holds and row.verdict_limit.holds


def test_criterion_10_golden_reports():
    """Every catalog scenario reproduces its shipped verdict table, byte for byte."""
    with _Clock(180.0, "10 golden-reports"):
        for key in CATALOG:
            report = reproduce(key)
            # the shipped scenarios all satisfy the comparison rules; an
            # inconsistent row would be an implementation bug
            assert not report.any_inconsistent, f"inconsistent row in {key}"
            got = report.to_json_text()
            want = golden_path(key).read_text()
            assert got == want, f"golden mismatch for {key}"
