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

from nonautodyn.bounds import (
    BoundLedger,
    collective_convergence_profile,
    deviation_check,
    deviation_series,
)
from nonautodyn.checkers import (
    CheckConfig,
    Mode,
    PairPredicate,
    SystemView,
    cell_density,
    check_cofinite_sensitivity,
    check_dense_periodicity,
    check_equicontinuity,
    check_minimality,
    check_periodic,
    check_sensitivity,
    check_topological_mixing,
    check_transitivity,
    check_weak_mixing,
    checker_grid,
    li_yorke_check,
    proximal_check,
)
from nonautodyn.family import (
    PLATEAU_HEAD,
    TENT,
    autonomous_family,
    feeble_open_check,
    make_builtin_family,
    summability_estimate,
)
from nonautodyn.orbit import limit_trajectory, omega, omega_window, trajectory
from nonautodyn.report import CATALOG, ScenarioSpec, golden_path, reproduce, run_comparison
from nonautodyn.space import (
    BinaryWord,
    CircleAngle,
    IntervalPoint,
    PhaseSpace,
    SpaceKind,
    coord_point,
    distance,
    sample_grid,
)

GOLDEN_ALPHA = 2.0 * math.pi * (math.sqrt(5.0) - 1.0) / 2.0


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
            ledger = BoundLedger.for_family(fam, 200)
            for x in sample_grid(fam.space, 100):
                states = trajectory(fam, x, 200).states
                lim = limit_trajectory(fam, x, 200).states
                for k in range(1, 201):
                    measured = distance(fam.space, states[k], lim[k])
                    bound = ledger.prefix(k)
                    assert measured <= bound + 1e-9
                    if fam.label == "inverse-square-rotation":
                        assert abs(measured - bound) <= 1e-12
            # spot-check the record-producing operation on a few grid points
            for x in list(sample_grid(fam.space, 5)):
                rec = deviation_check(fam, x, 200, 1e-9, ledger)
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
        sys_F = SystemView(fam, Mode.NON_AUTONOMOUS)
        sys_f = SystemView(fam, Mode.AUTONOMOUS_LIMIT)
        thetas = list(sample_grid(fam.space, 50))
        assert len(thetas) == 50
        for th in thetas:
            assert check_periodic(sys_F, th, cfg).refuted
        v = check_periodic(sys_f, thetas[7], cfg)
        assert v.holds and v.witness["period"] == 1


def test_criterion_04_alternating_rotation_scenario():
    """Even-step orbits are pure rotations; minimality holds in both modes."""
    with _Clock(60.0, "4 alternating-rotation-scenario"):
        fam = make_builtin_family("alternating-rotation", alpha=GOLDEN_ALPHA)
        th = 0.8128
        states = trajectory(fam, CircleAngle(th), 2000).states
        for n in range(1, 1001):
            want = (th + 2 * n * GOLDEN_ALPHA) % (2 * math.pi)
            got = states[2 * n].theta
            gap = abs(got - want)
            assert min(gap, 2 * math.pi - gap) <= 1e-9
        cfg = CheckConfig(
            horizon=5000, grid_resolution=20, ball_count=9, eps=0.05, delta=0.25,
            tol=1e-9, tail_window=2000, max_period=8, repetitions=3,
        )
        assert check_minimality(SystemView(fam, Mode.NON_AUTONOMOUS), cfg).holds
        assert check_minimality(SystemView(fam, Mode.AUTONOMOUS_LIMIT), cfg).holds
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
        sys_F = SystemView(fam, Mode.NON_AUTONOMOUS)
        sys_f = SystemView(fam, Mode.AUTONOMOUS_LIMIT)
        for checker in (check_sensitivity, check_transitivity, check_topological_mixing):
            assert checker(sys_F, cfg).refuted
            assert checker(sys_f, cfg).holds
        v = feeble_open_check(PLATEAU_HEAD)
        assert v.refuted
        assert v.witness["flat_piece"] == [0.0, 0.5]


def test_criterion_06_mode_consistency_all_checkers():
    """All 12 checkers agree between modes on an autonomous tent wrapper."""
    with _Clock(30.0, "6 mode-consistency"):
        fam = autonomous_family(PhaseSpace.unit_interval(), TENT, "tent-wrapper")
        cfg = CheckConfig(
            horizon=400, grid_resolution=12, ball_count=7, eps=0.1, delta=0.25,
            tol=1e-9, tail_window=150, max_period=6, repetitions=2,
        )
        a = SystemView(fam, Mode.NON_AUTONOMOUS)
        b = SystemView(fam, Mode.AUTONOMOUS_LIMIT)
        x = IntervalPoint(0.3)
        y = IntervalPoint(0.7)
        checkers = [
            ("equicontinuity", lambda s: check_equicontinuity(s, cfg)),
            ("sensitivity", lambda s: check_sensitivity(s, cfg)),
            ("cofinite_sensitivity", lambda s: check_cofinite_sensitivity(s, cfg)),
            ("transitivity", lambda s: check_transitivity(s, cfg)),
            ("weak_mixing", lambda s: check_weak_mixing(s, cfg)),
            ("topological_mixing", lambda s: check_topological_mixing(s, cfg)),
            ("minimality", lambda s: check_minimality(s, cfg)),
            ("periodic", lambda s: check_periodic(s, x, cfg)),
            ("dense_periodicity", lambda s: check_dense_periodicity(s, cfg)),
            ("proximal", lambda s: proximal_check(s, x, y, cfg)),
            ("li_yorke", lambda s: li_yorke_check(s, x, y, cfg)),
            ("cell_density", lambda s: cell_density(s, x, cfg, PairPredicate.PROXIMAL)),
        ]
        assert len(checkers) == 12
        for name, run in checkers:
            va, vb = run(a), run(b)
            assert va.outcome == vb.outcome, name
            assert va.witness == vb.witness, name


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
            assert omega(fam, x, n + k) == omega_window(fam, omega(fam, x, n), n, k)


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
        sys_F = SystemView(fam, Mode.NON_AUTONOMOUS)
        sys_f = SystemView(fam, Mode.AUTONOMOUS_LIMIT)
        for p in (coord_point(c, fam.space.kind) for c in checker_grid(fam.space, cfg)):
            vF = check_periodic(sys_F, p, cfg)
            assert vF.holds and vF.witness["period"] == 2
            vf = check_periodic(sys_f, p, cfg)
            assert vf.holds and vf.witness["period"] == 1
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
