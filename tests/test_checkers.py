"""Verdict behavior of the finite-horizon checkers."""

import dataclasses
import math

import pytest

from nonautodyn import verdict as V
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
    check_periodic_points,
    check_sensitivity,
    check_topological_mixing,
    check_transitivity,
    check_weak_mixing,
    grid_points,
    li_yorke_check,
    proximal_check,
)
from nonautodyn.descriptors import apply
from nonautodyn.family import TENT, autonomous_family, family_from_config, make_builtin_family
from nonautodyn.report import CATALOG
from nonautodyn.space import (
    BinaryWord,
    CircleAngle,
    IntervalPoint,
    PhaseSpace,
    SpaceError,
    ball_sample,
    distance,
    point_to_json,
    sample_grid,
)

GOLDEN_ALPHA = 2 * math.pi * (math.sqrt(5) - 1) / 2

ALT = make_builtin_family("alternating-rotation", alpha=GOLDEN_ALPHA)
INV = make_builtin_family("inverse-square-rotation")
PD = make_builtin_family("perturbed-doubling")
PLAT = make_builtin_family("plateau-tent")

SMALL = CheckConfig(
    horizon=500, grid_resolution=12, ball_count=7, eps=0.1, delta=0.25,
    tol=1e-9, tail_window=200, max_period=8, repetitions=3,
)
CIRCLE_SMALL = CheckConfig(
    horizon=500, grid_resolution=12, ball_count=7, eps=0.2, delta=0.25,
    tol=1e-9, tail_window=200, max_period=8, repetitions=3,
)


def F(fam):
    return SystemView(fam, Mode.NON_AUTONOMOUS)


def limit(fam):
    return SystemView(fam, Mode.AUTONOMOUS_LIMIT)


class TestConfigValidation:
    def test_eps_below_delta_required(self):
        cfg = CheckConfig(eps=0.5, delta=0.25)
        with pytest.raises(SpaceError):
            cfg.validate(PhaseSpace.circle())

    def test_tail_window_within_horizon(self):
        cfg = CheckConfig(horizon=10, tail_window=20)
        with pytest.raises(SpaceError):
            cfg.validate(PhaseSpace.circle())

    def test_unknown_key_rejected(self):
        with pytest.raises(SpaceError, match="tail_windw"):
            CheckConfig.from_json({"horizon": 10, "tail_windw": 5})

    @pytest.mark.parametrize(
        "key, value",
        [("horizon", "50"), ("horizon", 50.0), ("horizon", True), ("max_period", None),
         ("tail_window", [5]), ("eps", "0.1"), ("delta", False), ("tol", None)],
    )
    def test_wrong_value_type_rejected(self, key, value):
        with pytest.raises(SpaceError, match=key):
            CheckConfig.from_json({"horizon": 10, "tail_window": 5, key: value})

    def test_integer_reals_accepted(self):
        cfg = CheckConfig.from_json({"horizon": 10, "tail_window": 5, "delta": 1, "tol": 0})
        assert (cfg.delta, cfg.tol) == (1, 0)

    def test_binary_needs_resolving_words(self):
        cfg = CheckConfig(horizon=10, tail_window=5, eps=0.05, delta=0.5)
        with pytest.raises(SpaceError):
            cfg.validate(PhaseSpace.binary_seq(8))

    def test_binary_words_fit_a_packed_word(self):
        cfg = CheckConfig(horizon=10, tail_window=5, eps=0.2, delta=0.5)
        cfg.validate(PhaseSpace.binary_seq(63))
        with pytest.raises(SpaceError, match="word_length=64"):
            cfg.validate(PhaseSpace.binary_seq(64))

    # before, repetitions=0 made x = 0 on plateau-tent "periodic" with period
    # 1 and no revisit gaps, max_period=0 crashed both periodicity checkers,
    # and a negative tol refuted every periodic point
    @pytest.mark.parametrize(
        "key, value", [("max_period", 0), ("repetitions", 0), ("tol", -1.0)]
    )
    def test_period_bounds_and_tol_rejected(self, key, value):
        cfg = dataclasses.replace(SMALL, **{key: value})
        with pytest.raises(SpaceError, match=key):
            cfg.validate(PhaseSpace.unit_interval())
        for checker in (check_periodic_points, check_dense_periodicity):
            with pytest.raises(SpaceError, match=key):
                checker(F(PLAT), cfg)


class TestEquicontinuity:
    def test_alternating_rotations_hold(self):
        v = check_equicontinuity(F(ALT), SMALL)
        assert v.holds
        assert v.witness["max_separation"] <= SMALL.eps

    def test_doubling_limit_refuted(self):
        v = check_equicontinuity(limit(PD), CIRCLE_SMALL)
        assert v.refuted
        assert v.witness["separation"] > CIRCLE_SMALL.eps

    def test_identity_limit_holds(self):
        assert check_equicontinuity(limit(INV), SMALL).holds


class TestSensitivity:
    def test_plateau_family_refuted_by_collapse(self):
        v = check_sensitivity(F(PLAT), SMALL)
        assert v.refuted
        assert v.witness.get("collapse_step") == 1

    def test_tent_limit_holds(self):
        v = check_sensitivity(limit(PLAT), SMALL)
        assert v.holds
        assert v.witness["max_separation_time"] <= SMALL.horizon

    def test_rotation_family_refuted_by_isometry(self):
        v = check_sensitivity(F(INV), SMALL)
        assert v.refuted
        assert v.witness["rule"] == "isometric-steps"


class TestCofiniteSensitivity:
    def test_doubling_family_holds(self):
        v = check_cofinite_sensitivity(F(PD), CIRCLE_SMALL)
        assert v.holds
        assert v.witness["max_K"] <= CIRCLE_SMALL.horizon // 2

    def test_plateau_family_refuted(self):
        assert check_cofinite_sensitivity(F(PLAT), SMALL).refuted

    def test_rotation_family_refuted(self):
        assert check_cofinite_sensitivity(F(ALT), SMALL).refuted


class TestTransitivity:
    def test_tent_limit_holds_at_spec_scale(self):
        cfg = CheckConfig(
            horizon=200, grid_resolution=20, ball_count=7, eps=0.2, delta=0.25,
            tail_window=100, max_period=8, repetitions=3,
        )
        v = check_transitivity(limit(PLAT), cfg)
        assert v.holds
        assert v.witness["max_hit_time"] <= 200

    def test_plateau_family_refuted_by_collapse(self):
        v = check_transitivity(F(PLAT), SMALL)
        assert v.refuted
        assert v.witness["rule"] == "collapse"

    def test_alternating_family_holds(self):
        cfg = CheckConfig(
            horizon=2000, grid_resolution=12, ball_count=7, eps=0.2, delta=0.25,
            tail_window=500, max_period=8, repetitions=3,
        )
        assert check_transitivity(F(ALT), cfg).holds

    def test_inverse_square_family_refuted_by_confinement(self):
        v = check_transitivity(F(INV), SMALL)
        assert v.refuted
        assert v.witness["rule"] == "displacement-confinement"

    def test_collapse_rule_waits_for_the_constant_tail(self):
        # step 1 flattens [0, 1/2] to 0, steps 2-9 are the identity and step
        # 10 sends everything to 0.25, so the collapsed ball at 0 does reach
        # the ball at 0.25; the limit (tent) only takes over from step 11
        def pl(*bps):
            return {"type": "piecewise_linear", "breakpoints": [list(b) for b in bps]}

        fam = family_from_config(
            {
                "space": {"kind": "unit_interval"},
                "custom": {
                    "steps": [pl((0, 0), (0.5, 0), (1, 1))]
                    + [pl((0, 0), (1, 1))] * 8
                    + [pl((0, 0.25), (1, 0.25))],
                    "limit": pl((0, 0), (0.5, 1), (1, 0)),
                },
            }
        )
        assert fam.eventually_constant_from == 11
        for horizon in (5, 9):
            cfg = CheckConfig(
                horizon=horizon, grid_resolution=5, ball_count=5, eps=0.1,
                delta=0.25, tail_window=horizon,
            )
            v = check_transitivity(F(fam), cfg)
            assert not v.refuted, v.witness


class TestWeakMixing:
    def test_doubling_holds_both_modes(self):
        for sys in (F(PD), limit(PD)):
            assert check_weak_mixing(sys, CIRCLE_SMALL).holds

    def test_rotation_family_refuted_by_spacing(self):
        v = check_weak_mixing(F(ALT), CIRCLE_SMALL)
        assert v.refuted
        assert v.witness["rule"] == "isometric-spacing"

    def test_plateau_family_refuted(self):
        assert check_weak_mixing(F(PLAT), SMALL).refuted


class TestTopologicalMixing:
    def test_doubling_family_holds(self):
        v = check_topological_mixing(F(PD), CIRCLE_SMALL)
        assert v.holds
        assert v.witness["hit_persistence"]["passed"]
        assert v.witness["cloud_convergence"]["passed"]

    def test_alternating_family_refuted(self):
        v = check_topological_mixing(F(ALT), CIRCLE_SMALL)
        assert v.refuted

    def test_tent_limit_holds(self):
        assert check_topological_mixing(limit(PLAT), SMALL).holds


class TestMinimality:
    def test_alternating_holds_both_modes(self):
        cfg = CheckConfig(
            horizon=3000, grid_resolution=12, ball_count=7, eps=0.1, delta=0.25,
            tail_window=1000, max_period=8, repetitions=3,
        )
        assert check_minimality(F(ALT), cfg).holds
        assert check_minimality(limit(ALT), cfg).holds

    def test_inverse_square_family_confined(self):
        v = check_minimality(F(INV), SMALL)
        assert v.refuted
        assert v.witness["rule"] == "displacement-confinement"

    def test_tent_limit_refuted_by_fixed_point(self):
        v = check_minimality(limit(PLAT), SMALL)
        assert v.refuted
        assert v.witness["rule"] == "eventually-fixed-orbit"
        assert v.witness["stuck_at"] == {"space": "unit_interval", "x": 0.0}

    def test_inconclusive_narrative_counts_starts(self):
        # uncovered_count counts grid starts, each missing at least one cell
        cfg = dataclasses.replace(SMALL, horizon=5, tail_window=5)
        v = check_minimality(F(ALT), cfg)
        assert v.inconclusive
        assert v.narrative == (
            f"{v.witness['uncovered_count']} of 12 grid starts left some cell "
            "unvisited at this horizon"
        )


class TestPeriodic:
    def test_inverse_square_family_never_returns(self):
        cfg = dataclasses.replace(SMALL, max_period=20, repetitions=3)
        v = check_periodic(F(INV), CircleAngle(0.9), cfg)
        assert v.refuted
        # displacement first reaches 1 and never returns near the start
        assert v.witness["min_recurrence_gap"] > 0.3

    def test_identity_limit_period_one(self):
        v = check_periodic(limit(INV), CircleAngle(0.9), SMALL)
        assert v.holds and v.witness["period"] == 1

    def test_alternating_zero_alpha_period_two(self):
        fam = make_builtin_family("alternating-rotation", alpha=0.0)
        vF = check_periodic(F(fam), CircleAngle(0.9), SMALL)
        assert vF.holds and vF.witness["period"] == 2
        vf = check_periodic(limit(fam), CircleAngle(0.9), SMALL)
        assert vf.holds and vf.witness["period"] == 1


class TestDensePeriodicity:
    def test_identity_limit_holds(self):
        v = check_dense_periodicity(limit(INV), SMALL)
        assert v.holds

    def test_inverse_square_family_refuted(self):
        v = check_dense_periodicity(F(INV), SMALL)
        assert v.refuted
        assert v.witness["rule"] == "nonzero-displacement"

    def test_doubling_limit_holds(self):
        cfg = CheckConfig(
            horizon=100, grid_resolution=12, ball_count=7, eps=0.1, delta=0.25,
            tail_window=50, max_period=10, repetitions=3,
        )
        v = check_dense_periodicity(limit(PD), cfg)
        assert v.holds

    def test_plateau_family_refuted_off_the_fixed_points(self):
        v = check_dense_periodicity(F(PLAT), SMALL)
        assert v.refuted
        assert v.witness["rule"] == "no-candidate-solutions"
        # witness ball sits inside the collapsing half
        assert 0.0 < v.witness["ball_center"]["x"] <= 0.5


class TestProximality:
    def test_identical_points_proximal(self):
        x = CircleAngle(0.4)
        assert proximal_check(F(ALT), x, x, SMALL).holds

    def test_rotation_pair_refuted(self):
        v = proximal_check(F(ALT), CircleAngle(0.0), CircleAngle(1.0), SMALL)
        assert v.refuted
        assert v.witness["rule"] == "isometric-steps"

    def test_plateau_collapse_pair(self):
        v = proximal_check(F(PLAT), IntervalPoint(0.1), IntervalPoint(0.3), SMALL)
        assert v.holds
        assert v.witness["tail_min"] == 0.0

    def test_li_yorke_identical_refuted(self):
        x = IntervalPoint(0.2)
        assert li_yorke_check(limit(PLAT), x, x, SMALL).refuted

    def test_li_yorke_rotation_refuted(self):
        assert li_yorke_check(F(ALT), CircleAngle(0.0), CircleAngle(1.0), SMALL).refuted

    def test_li_yorke_doubling_witness(self):
        cfg = CheckConfig(
            horizon=5000, grid_resolution=12, ball_count=7, eps=0.01, delta=0.5,
            tail_window=2000, max_period=8, repetitions=3,
        )
        v = li_yorke_check(limit(PD), CircleAngle(0.0), CircleAngle(0.001), cfg)
        assert v.holds
        assert v.witness["tail_min"] < 0.01 and v.witness["tail_max"] > 0.5


class TestCellDensity:
    def test_plateau_proximal_cell_matches_brute_force(self):
        from nonautodyn.orbit import trajectory
        from nonautodyn.space import ball_sample

        cfg = CheckConfig(
            horizon=500, grid_resolution=10, ball_count=7, eps=0.1, delta=0.25,
            tail_window=200, max_period=8, repetitions=3,
        )
        sys = F(PLAT)
        x = IntervalPoint(0.2)
        v = cell_density(sys, x, cfg, PairPredicate.PROXIMAL)
        # independent sweep: orbit tails of all ball samples against x
        x_states = [p.x for p in trajectory(PLAT, x, cfg.horizon).states]
        every_ball_filled = True
        for c in sample_grid(PLAT.space, cfg.grid_resolution):
            filled = False
            for y in ball_sample(PLAT.space, c, cfg.eps, cfg.ball_count):
                y_states = [p.x for p in trajectory(PLAT, y, cfg.horizon).states]
                tail = [
                    abs(a - b)
                    for a, b in zip(x_states[cfg.horizon - cfg.tail_window:],
                                    y_states[cfg.horizon - cfg.tail_window:])
                ]
                if min(tail) < cfg.eps:
                    filled = True
                    break
            every_ball_filled &= filled
        assert v.holds == every_ball_filled

    def test_rotation_cells_refuted(self):
        v = cell_density(F(ALT), CircleAngle(0.0), SMALL, PairPredicate.PROXIMAL)
        assert v.refuted

    def test_doubling_origin_both_predicates(self):
        cfg = CheckConfig(
            horizon=2000, grid_resolution=12, ball_count=7, eps=0.2, delta=0.5,
            tail_window=800, max_period=8, repetitions=3,
        )
        sys = limit(PD)
        prox = cell_density(sys, CircleAngle(0.0), cfg, PairPredicate.PROXIMAL)
        ly = cell_density(sys, CircleAngle(0.0), cfg, PairPredicate.LI_YORKE)
        assert prox.holds and ly.holds
        # sensitivity plus dense proximal cells must not contradict dense
        # Li-Yorke cells (verdict-level compatibility)
        sens = check_sensitivity(sys, cfg)
        if sens.holds and prox.holds:
            assert not ly.refuted


class TestModeConsistency:
    def test_autonomous_wrapper_identical_verdicts(self):
        fam = autonomous_family(PhaseSpace.unit_interval(), TENT, "tent-wrap")
        cfg = CheckConfig(
            horizon=300, grid_resolution=10, ball_count=7, eps=0.1, delta=0.25,
            tail_window=100, max_period=6, repetitions=2,
        )
        a, b = SystemView(fam, Mode.NON_AUTONOMOUS), SystemView(fam, Mode.AUTONOMOUS_LIMIT)
        for checker in (check_sensitivity, check_transitivity, check_minimality):
            va, vb = checker(a, cfg), checker(b, cfg)
            assert va.outcome == vb.outcome
            assert va.witness == vb.witness


class TestReproducibilityAndMonotonicity:
    def test_verdicts_reproducible(self):
        for checker in (check_sensitivity, check_transitivity):
            v1 = checker(F(PLAT), SMALL)
            v2 = checker(SystemView(PLAT, Mode.NON_AUTONOMOUS), SMALL)
            assert v1 == v2

    def test_holds_survive_longer_horizons(self):
        short = CheckConfig(
            horizon=300, grid_resolution=10, ball_count=7, eps=0.1, delta=0.25,
            tail_window=100, max_period=6, repetitions=2,
        )
        long = CheckConfig(
            horizon=600, grid_resolution=10, ball_count=7, eps=0.1, delta=0.25,
            tail_window=100, max_period=6, repetitions=2,
        )
        for checker in (check_sensitivity, check_transitivity, check_topological_mixing):
            assert checker(limit(PLAT), short).holds
            assert checker(limit(PLAT), long).holds

    def test_witnesses_json_serializable(self):
        import json

        for checker in (
            check_equicontinuity, check_sensitivity, check_cofinite_sensitivity,
            check_transitivity, check_weak_mixing, check_topological_mixing,
            check_minimality,
        ):
            for sys in (F(PLAT), limit(PLAT)):
                v = checker(sys, SMALL)
                json.dumps(v.to_json())


def test_verdict_record_shape():
    import json

    from nonautodyn.checkers import verdict_record

    v = check_sensitivity(F(PLAT), SMALL)
    rec = verdict_record("sensitivity", Mode.NON_AUTONOMOUS, SMALL, v)
    assert set(rec) == {"property", "mode", "outcome", "witness", "config", "narrative"}
    assert rec["mode"] == "non_autonomous"
    json.dumps(rec)


class TestBinaryGrid:
    def test_grid_points_padded_to_word_length(self):
        fam = make_builtin_family("odometer-deletion", word_length=24)
        cfg = CheckConfig(
            horizon=50, grid_resolution=4, ball_count=3, eps=0.2, delta=0.5,
            tail_window=20, max_period=4, repetitions=2,
        )
        pts = grid_points(fam.space, cfg)
        assert len(pts) == 16
        assert all(isinstance(p, BinaryWord) and len(p.bits) == 24 for p in pts)
        assert all(p.effective_length == 24 for p in pts)

    def test_odometer_equicontinuity_resolves_past_twelve_coordinates(self):
        # eps = 0.06 needs coordinate 17; a 12-coordinate frame read pairs
        # that agree that far as 1/12 apart and refuted the isometry
        fam = make_builtin_family("odometer-deletion", word_length=24)
        cfg = CheckConfig(
            horizon=50, grid_resolution=4, ball_count=5, eps=0.06, delta=0.5, tail_window=20
        )
        v = check_equicontinuity(SystemView(fam, Mode.AUTONOMOUS_LIMIT), cfg)
        assert v.holds
        assert v.witness["max_separation"] <= cfg.eps


# -- periodicity against the scalar loop --------------------------------------

def _scalar_periodic(sys, x, cfg):
    """Plain-Python check_periodic: an apply loop and scalar distances."""
    P, R = cfg.max_period, cfg.repetitions
    orbit = [x]
    for n in range(1, P * R + 1):
        orbit.append(apply(sys.step_map(n), orbit[-1]))
    gaps = [distance(sys.space, orbit[n], x) for n in range(1, P + 1)]
    for n in range(1, P + 1):
        revisits = [distance(sys.space, orbit[n * k], x) for k in range(1, R + 1)]
        if all(g <= cfg.tol for g in revisits):
            return V.holds(
                {"point": point_to_json(x), "period": n, "revisit_gaps": revisits,
                 "repetitions": R},
                f"orbit returns within {cfg.tol:g} at every multiple of {n}",
            )
    return V.refuted(
        {"point": point_to_json(x), "max_period": P, "min_recurrence_gap": min(gaps)},
        f"no period up to {P}; closest return misses by {min(gaps):.3g}",
    )


def _scalar_periodic_points(sys, cfg):
    """Plain-Python periodic_points runner, grid points checked one by one."""
    verdicts = [_scalar_periodic(sys, x, cfg) for x in grid_points(sys.space, cfg)]
    for v in verdicts:
        if v.holds:
            return V.holds(
                {"witness": v.witness, "sampled": len(verdicts)},
                f"a sampled point is periodic with period {v.witness['period']}",
            )
    return V.refuted(
        {"sampled": len(verdicts),
         "min_recurrence_gap": min(v.witness["min_recurrence_gap"] for v in verdicts)},
        "no sampled point returns to itself at this period horizon",
    )


@pytest.mark.parametrize("mode", list(Mode))
@pytest.mark.parametrize("name", sorted(CATALOG))
def test_batched_periodic_verdicts_match_scalar_loop(name, mode):
    spec = CATALOG[name]
    sys, cfg = SystemView(spec.build_family(), mode), spec.check
    grid = grid_points(sys.space, cfg)
    for x in grid + list(ball_sample(sys.space, grid[1], cfg.eps, 5)):
        assert check_periodic(sys, x, cfg) == _scalar_periodic(sys, x, cfg)
    v = check_periodic_points(sys, cfg)
    if v.witness.get("rule") != "nonzero-displacement":
        assert v == _scalar_periodic_points(sys, cfg)
