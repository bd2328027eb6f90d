"""Verdict behavior of the finite-horizon checkers."""

import dataclasses
import json
import math

import numpy as np
import pytest

from nonautodyn import checkers
from nonautodyn import verdict as V
from nonautodyn.checkers import (
    CheckConfig,
    PairPredicate,
    check_cofinite_sensitivity,
    check_dense_periodicity,
    check_equicontinuity,
    check_minimality,
    check_periodic_points,
    check_sensitivity,
    check_topological_mixing,
    check_transitivity,
    check_weak_mixing,
    checker_grid,
    orbit_matrix,
)
from nonautodyn.descriptors import Rotation, apply, compose, descriptor_to_json
from nonautodyn.family import TENT, family_from_config, make_builtin_family, step_table_family
from nonautodyn.report import CATALOG, PROPERTY_BY_NAME, golden_path, run_comparison
from nonautodyn.space import (
    BinaryWord,
    CircleAngle,
    IntervalPoint,
    PhaseSpace,
    SpaceError,
    ball_coords,
    coord_distances,
    coord_point,
    distance,
    grid_coords,
    point_coords,
    point_to_json,
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


def limit(fam):
    """The limit system (X, f): the family with no steps."""
    return step_table_family(fam.space, (), fam.limit, fam.label)


def period(sys, x, cfg):
    """_periods of the orbit column of x, and the column."""
    kind, P, R = sys.space.kind, cfg.max_period, cfg.repetitions
    orbits = orbit_matrix(sys, point_coords([x], kind), P * R)
    return checkers._periods(kind, orbits, P, R, cfg.tol)[0], orbits[:, 0]


def pair_flags(sys, cfg, predicate, x, ys):
    """The (holds, refuted) flags of x paired with each coordinate of ys, from
    the codes of one sweep, as the pair table measures them."""
    kind = sys.space.kind
    xy = np.concatenate([point_coords([x], kind), ys])
    orbits, (cols,) = checkers._sweep_groups(sys, [xy], 0 if sys.steps_isometric else cfg.horizon)
    codes = checkers._pair_codes(kind, cfg, orbits, np.arange(orbits.shape[1]), cols[:1])
    return checkers._pair_outcomes(sys, predicate, codes[0, cols[1:]])


def cell_flags(sys, cfg, predicate, x):
    """pair_flags of x with the samples of each eps-ball on the grid, one array per ball."""
    pools = ball_coords(sys.space, checker_grid(sys.space, cfg), cfg.eps, cfg.ball_count)
    at = np.cumsum([len(p) for p in pools])[:-1]
    return [np.split(f, at) for f in pair_flags(sys, cfg, predicate, x, np.concatenate(pools))]


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
                checker(PLAT, cfg)


class TestEquicontinuity:
    def test_alternating_rotations_hold(self):
        v = check_equicontinuity(ALT, SMALL)
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
        v = check_sensitivity(PLAT, SMALL)
        assert v.refuted
        assert v.witness.get("collapse_step") == 1

    def test_tent_limit_holds(self):
        v = check_sensitivity(limit(PLAT), SMALL)
        assert v.holds
        assert v.witness["max_separation_time"] <= SMALL.horizon

    def test_rotation_family_refuted_by_isometry(self):
        v = check_sensitivity(INV, SMALL)
        assert v.refuted
        assert v.witness["rule"] == "isometric-steps"


class TestCofiniteSensitivity:
    def test_doubling_family_holds(self):
        v = check_cofinite_sensitivity(PD, CIRCLE_SMALL)
        assert v.holds
        assert v.witness["max_K"] <= CIRCLE_SMALL.horizon // 2

    def test_plateau_family_refuted(self):
        assert check_cofinite_sensitivity(PLAT, SMALL).refuted

    def test_rotation_family_refuted(self):
        assert check_cofinite_sensitivity(ALT, SMALL).refuted


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
        v = check_transitivity(PLAT, SMALL)
        assert v.refuted
        assert v.witness["rule"] == "collapse"

    def test_alternating_family_holds(self):
        cfg = CheckConfig(
            horizon=2000, grid_resolution=12, ball_count=7, eps=0.2, delta=0.25,
            tail_window=500, max_period=8, repetitions=3,
        )
        assert check_transitivity(ALT, cfg).holds

    def test_inverse_square_family_refuted_by_confinement(self):
        v = check_transitivity(INV, SMALL)
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
            v = check_transitivity(fam, cfg)
            assert not v.refuted, v.witness


class TestWeakMixing:
    def test_doubling_holds_both_modes(self):
        for sys in (PD, limit(PD)):
            assert check_weak_mixing(sys, CIRCLE_SMALL).holds

    def test_rotation_family_refuted_by_spacing(self):
        v = check_weak_mixing(ALT, CIRCLE_SMALL)
        assert v.refuted
        assert v.witness["rule"] == "isometric-spacing"

    def test_plateau_family_refuted(self):
        assert check_weak_mixing(PLAT, SMALL).refuted


class TestTopologicalMixing:
    def test_doubling_family_holds(self):
        v = check_topological_mixing(PD, CIRCLE_SMALL)
        assert v.holds
        assert v.witness["hit_persistence"]["passed"]
        assert v.witness["cloud_convergence"]["passed"]

    def test_alternating_family_refuted(self):
        v = check_topological_mixing(ALT, CIRCLE_SMALL)
        assert v.refuted

    def test_tent_limit_holds(self):
        assert check_topological_mixing(limit(PLAT), SMALL).holds


class TestMinimality:
    def test_alternating_holds_both_modes(self):
        cfg = CheckConfig(
            horizon=3000, grid_resolution=12, ball_count=7, eps=0.1, delta=0.25,
            tail_window=1000, max_period=8, repetitions=3,
        )
        assert check_minimality(ALT, cfg).holds
        assert check_minimality(limit(ALT), cfg).holds

    def test_inverse_square_family_confined(self):
        v = check_minimality(INV, SMALL)
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
        v = check_minimality(ALT, cfg)
        assert v.inconclusive
        assert v.narrative == (
            f"{v.witness['uncovered_count']} of 12 grid starts left some cell "
            "unvisited at this horizon"
        )


class TestPeriodic:
    def test_inverse_square_family_never_returns(self):
        cfg = dataclasses.replace(SMALL, max_period=20, repetitions=3)
        p, orbit = period(INV, CircleAngle(0.9), cfg)
        assert p == 0
        # displacement first reaches 1 and never returns near the start
        assert coord_distances(INV.space.kind, orbit[1:21], orbit[0]).min() > 0.3

    def test_identity_limit_period_one(self):
        assert period(limit(INV), CircleAngle(0.9), SMALL)[0] == 1

    def test_alternating_zero_alpha_period_two(self):
        fam = make_builtin_family("alternating-rotation", alpha=0.0)
        assert period(fam, CircleAngle(0.9), SMALL)[0] == 2
        assert period(limit(fam), CircleAngle(0.9), SMALL)[0] == 1


class TestDensePeriodicity:
    def test_identity_limit_holds(self):
        v = check_dense_periodicity(limit(INV), SMALL)
        assert v.holds

    def test_inverse_square_family_refuted(self):
        v = check_dense_periodicity(INV, SMALL)
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
        v = check_dense_periodicity(PLAT, SMALL)
        assert v.refuted
        assert v.witness["rule"] == "no-candidate-solutions"
        # witness ball sits inside the collapsing half
        assert 0.0 < v.witness["ball_center"]["x"] <= 0.5


class TestProximality:
    @staticmethod
    def outcome(sys, cfg, predicate, x, y):
        holds, refuted = pair_flags(sys, cfg, predicate, x, point_coords([y], sys.space.kind))
        return bool(holds[0]), bool(refuted[0])

    def test_identical_points_proximal(self):
        x = CircleAngle(0.4)
        assert self.outcome(ALT, SMALL, PairPredicate.PROXIMAL, x, x) == (True, False)

    def test_rotation_pair_refuted(self):
        # refuted by the isometric-steps rule, the only proximal refutation
        sys = ALT
        assert sys.steps_isometric
        v = self.outcome(sys, SMALL, PairPredicate.PROXIMAL, CircleAngle(0.0), CircleAngle(1.0))
        assert v == (False, True)

    def test_plateau_collapse_pair(self):
        x, y = IntervalPoint(0.1), IntervalPoint(0.3)
        assert self.outcome(PLAT, SMALL, PairPredicate.PROXIMAL, x, y) == (True, False)

    def test_li_yorke_identical_refuted(self):
        x = IntervalPoint(0.2)
        assert self.outcome(limit(PLAT), SMALL, PairPredicate.LI_YORKE, x, x)[1]

    def test_li_yorke_rotation_refuted(self):
        v = self.outcome(ALT, SMALL, PairPredicate.LI_YORKE, CircleAngle(0.0), CircleAngle(1.0))
        assert v[1]

    def test_li_yorke_doubling_witness(self):
        cfg = CheckConfig(
            horizon=5000, grid_resolution=12, ball_count=7, eps=0.01, delta=0.5,
            tail_window=2000, max_period=8, repetitions=3,
        )
        x, y = CircleAngle(0.0), CircleAngle(0.001)
        assert self.outcome(limit(PD), cfg, PairPredicate.LI_YORKE, x, y) == (True, False)


class TestCellDensity:
    def test_plateau_proximal_cell_matches_brute_force(self):
        cfg = CheckConfig(
            horizon=500, grid_resolution=10, ball_count=7, eps=0.1, delta=0.25,
            tail_window=200, max_period=8, repetitions=3,
        )
        sys = PLAT
        x = IntervalPoint(0.2)
        holds, _ = cell_flags(sys, cfg, PairPredicate.PROXIMAL, x)
        dense = all(h.any() for h in holds)

        def states(c):
            return orbit_matrix(sys, np.array([c]), cfg.horizon)[:, 0].tolist()

        # independent sweep: orbit tails of all ball samples against x
        x_states = states(x.x)
        every_ball_filled = True
        for c in grid_coords(PLAT.space, cfg.grid_resolution):
            filled = False
            for y in ball_coords(PLAT.space, np.array([c]), cfg.eps, cfg.ball_count)[0]:
                y_states = states(y)
                tail = [
                    abs(a - b)
                    for a, b in zip(x_states[cfg.horizon - cfg.tail_window:],
                                    y_states[cfg.horizon - cfg.tail_window:])
                ]
                if min(tail) < cfg.eps:
                    filled = True
                    break
            every_ball_filled &= filled
        assert dense == every_ball_filled

    def test_rotation_cells_refuted(self):
        # some ball holds no partner, and every such ball a refuted sample
        holds, refuted = cell_flags(ALT, SMALL, PairPredicate.PROXIMAL, CircleAngle(0.0))
        unfilled = [k for k, h in enumerate(holds) if not h.any()]
        assert unfilled and all(refuted[k].any() for k in unfilled)

    def test_doubling_origin_both_predicates(self):
        cfg = CheckConfig(
            horizon=2000, grid_resolution=12, ball_count=7, eps=0.2, delta=0.5,
            tail_window=800, max_period=8, repetitions=3,
        )
        sys = limit(PD)
        for predicate in PairPredicate:
            holds, _ = cell_flags(sys, cfg, predicate, CircleAngle(0.0))
            assert all(h.any() for h in holds)


class TestModeConsistency:
    def test_autonomous_wrapper_identical_verdicts(self):
        fam = family_from_config({
            "space": {"kind": "unit_interval"},
            "custom": {"limit": descriptor_to_json(TENT), "label": "tent-wrap"},
        })
        cfg = CheckConfig(
            horizon=300, grid_resolution=10, ball_count=7, eps=0.1, delta=0.25,
            tail_window=100, max_period=6, repetitions=2,
        )
        for checker in (check_sensitivity, check_transitivity, check_minimality):
            va, vb = checker(fam, cfg), checker(limit(fam), cfg)
            assert va.outcome == vb.outcome
            assert va.witness == vb.witness

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_limit_view_is_the_family_with_no_steps(self, name):
        # (X, f) is the non-autonomous system of f, f, f, ...: each report
        # row's limit verdict is the verdict on a custom no-step family
        spec = CATALOG[name]
        fam = spec.build_family()
        nostep = family_from_config({
            "space": fam.space.to_json(),
            "custom": {"limit": descriptor_to_json(fam.limit)},
        })
        rows = run_comparison(spec).rows
        assert [r.property for r in rows] == list(PROPERTY_BY_NAME)
        for row in rows:
            got = PROPERTY_BY_NAME[row.property].runner(nostep, spec.check)
            assert row.verdict_limit.to_json() == got.to_json(), row.property

    def test_custom_steps_onto_the_identity_get_the_displacement_rules(self):
        # after step 2 every orbit moves by exactly 0.5, so the tail bound is 0
        steps = [descriptor_to_json(Rotation(0.3)), descriptor_to_json(Rotation(0.2))]
        fam = family_from_config({
            "space": {"kind": "circle"},
            "custom": {"steps": steps, "limit": descriptor_to_json(Rotation(0.0))},
        })
        sys = fam
        v = check_transitivity(sys, CIRCLE_SMALL)
        assert v.refuted and v.witness["rule"] == "displacement-confinement"
        assert v.witness["tail_bound"] == 0.0
        for checker in (check_periodic_points, check_dense_periodicity):
            v = checker(sys, CIRCLE_SMALL)
            assert v.refuted and v.witness["rule"] == "nonzero-displacement"
            assert v.witness["min_displacement"] == 0.3


class TestReproducibilityAndMonotonicity:
    def test_verdicts_reproducible(self):
        for checker in (check_sensitivity, check_transitivity):
            # two families, so that nothing one run memoizes serves the other
            v1 = checker(make_builtin_family("plateau-tent"), SMALL)
            v2 = checker(make_builtin_family("plateau-tent"), SMALL)
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
            for sys in (PLAT, limit(PLAT)):
                v = checker(sys, SMALL)
                json.dumps(v.to_json())


def test_verdict_record_shape():
    import json

    from nonautodyn.checkers import verdict_record

    v = check_sensitivity(PLAT, SMALL)
    rec = verdict_record("sensitivity", "non_autonomous", SMALL, v)
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
        pts = [coord_point(c, fam.space.kind) for c in checker_grid(fam.space, cfg)]
        assert len(pts) == 16
        assert all(isinstance(p, BinaryWord) and len(p.bits) == 24 for p in pts)
        assert all(p.effective_length == 24 for p in pts)

    def test_short_words_cap_the_grid(self):
        space = PhaseSpace.binary_seq(8)
        cfg = CheckConfig(
            horizon=20, grid_resolution=10, ball_count=3, eps=0.2, delta=0.5, tail_window=10
        )
        pts = [coord_point(c, space.kind) for c in checker_grid(space, cfg)]
        assert len(pts) == 2**8
        assert all(len(p.bits) == p.effective_length == 8 for p in pts)

    def test_odometer_equicontinuity_resolves_past_twelve_coordinates(self):
        # eps = 0.06 needs coordinate 17; a 12-coordinate frame read pairs
        # that agree that far as 1/12 apart and refuted the isometry
        fam = make_builtin_family("odometer-deletion", word_length=24)
        cfg = CheckConfig(
            horizon=50, grid_resolution=4, ball_count=5, eps=0.06, delta=0.5, tail_window=20
        )
        v = check_equicontinuity(limit(fam), cfg)
        assert v.holds
        assert v.witness["max_separation"] <= cfg.eps


# -- periodicity against the scalar loop --------------------------------------

def _scalar_periodic(sys, x, cfg):
    """Plain-Python periodicity verdict on x: an apply loop and scalar distances."""
    P, R = cfg.max_period, cfg.repetitions
    orbit = [x]
    for n in range(1, P * R + 1):
        orbit.append(apply(sys.member(n), orbit[-1]))
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
    grid = [coord_point(c, sys.space.kind) for c in checker_grid(sys.space, cfg)]
    verdicts = [_scalar_periodic(sys, x, cfg) for x in grid]
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


@pytest.mark.parametrize("mode", ["non_autonomous", "autonomous_limit"])
@pytest.mark.parametrize("name", sorted(CATALOG))
def test_batched_periodic_verdicts_match_scalar_loop(name, mode):
    spec = CATALOG[name]
    sys, cfg = spec.build_family(), spec.check
    if mode == "autonomous_limit":
        sys = limit(sys)
    kind, P, R = sys.space.kind, cfg.max_period, cfg.repetitions
    grid = checker_grid(sys.space, cfg)
    coords = np.concatenate([grid, *ball_coords(sys.space, grid[1:2], cfg.eps, 5)])
    orbits = orbit_matrix(sys, coords, P * R)
    periods = checkers._periods(kind, orbits, P, R, cfg.tol)
    for j, c in enumerate(coords):
        v = checkers._periodic_verdict(kind, orbits[:, j], periods[j], P, R, cfg.tol)
        assert v == _scalar_periodic(sys, coord_point(c, kind), cfg)
    v = check_periodic_points(sys, cfg)
    if v.witness.get("rule") != "nonzero-displacement":
        assert v == _scalar_periodic_points(sys, cfg)


def test_dense_periodicity_composes_each_window_once(monkeypatch):
    # the limit is the identity rotation, so every window up to max_period is
    # solved symbolically; window n is map n composed after window n-1
    spec = CATALOG["inverse-square-rotation"]
    calls = []
    monkeypatch.setattr(checkers, "compose", lambda *a: calls.append(1) or compose(*a))
    check_dense_periodicity(limit(spec.build_family()), spec.check)
    assert len(calls) == spec.check.max_period - 1


def test_dense_periodicity_sweeps_each_candidate_once(monkeypatch):
    # every identity window solves to the whole grid; the candidates keep
    # one copy of each point, so a ball pools its one grid candidate and its
    # ball samples (2,180 columns before, for 200 now), and the pools of all
    # balls take one sweep of their distinct points, where the candidate is
    # the ball's center (20 sweeps of 10 columns before)
    spec = CATALOG["inverse-square-rotation"]
    widths = []
    sweep = checkers.orbit_matrix
    monkeypatch.setattr(
        checkers, "orbit_matrix", lambda sys, c, *a: widths.append(len(c)) or sweep(sys, c, *a)
    )
    v = check_dense_periodicity(limit(spec.build_family()), spec.check)
    assert widths == [spec.check.ball_count * spec.check.grid_resolution]
    row = next(r for r in json.loads(golden_path(spec.label).read_text())["rows"]
               if r["property"] == "dense_periodicity")
    assert v.to_json() == row["verdict_limit"]
