"""Builtin families and hypothesis profiling."""

import math

import numpy as np
import pytest

from nonautodyn.descriptors import (
    AffineCircle,
    Compose,
    Delete,
    Lookup,
    OdometerAdd,
    PiecewiseLinear,
    Rotation,
    apply,
    compose,
    descriptor_to_json,
)
from nonautodyn import space
from nonautodyn.family import (
    PLATEAU_HEAD,
    TENT,
    commutes_with_limit,
    family_feeble_open,
    family_from_config,
    feeble_open_check,
    isometry_shrinking_check,
    make_builtin_family,
    profile_hypotheses,
    summability_estimate,
    surjectivity_check,
    term,
)
from nonautodyn.space import (
    PhaseSpace,
    SpaceError,
    coord_point,
    distance,
    grid_coords,
    point_to_json,
)

CIRCLE = PhaseSpace.circle()
INTERVAL = PhaseSpace.unit_interval()
#: a custom family with no steps: f_n = TENT for every n
TENT_FAMILY = family_from_config(
    {"space": {"kind": "unit_interval"}, "custom": {"limit": descriptor_to_json(TENT)}}
)


def grid_points(space, resolution):
    return [coord_point(c, space.kind) for c in grid_coords(space, resolution)]


class TestBuiltins:
    def test_alternating_first_member(self):
        fam = make_builtin_family("alternating-rotation", alpha=0.9)
        m = fam.member(1)
        assert isinstance(m, Rotation)
        assert m.amount == pytest.approx(0.9 + 1.0)  # 2/(n+1) = 1 at n = 1

    def test_alternating_even_member(self):
        fam = make_builtin_family("alternating-rotation", alpha=0.9)
        m = fam.member(2)
        assert m.amount == pytest.approx(0.9 - 1.0 + 2 * math.pi)

    def test_inverse_square_member(self):
        fam = make_builtin_family("inverse-square-rotation")
        assert fam.member(2) == Rotation(0.25)
        assert fam.limit == Rotation(0.0)

    def test_plateau_tent_members(self):
        fam = make_builtin_family("plateau-tent")
        assert fam.member(1) == PLATEAU_HEAD
        assert fam.member(5) == TENT
        assert fam.limit == TENT

    def test_perturbed_doubling_member(self):
        fam = make_builtin_family("perturbed-doubling")
        assert fam.member(4) == AffineCircle(2, 0.25)

    def test_odometer_member(self):
        fam = make_builtin_family("odometer-deletion", word_length=16)
        assert fam.member(3) == Compose(OdometerAdd(), Delete(3))
        assert fam.space.word_length == 16

    def test_unknown_name(self):
        with pytest.raises(SpaceError):
            make_builtin_family("nope")

    def test_rational_alpha_warns(self):
        with pytest.warns(UserWarning):
            make_builtin_family("alternating-rotation", alpha=math.pi / 2)

    def test_irrational_alpha_does_not_warn(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            make_builtin_family("alternating-rotation", alpha=1.1)


class TestTerms:
    def test_perturbed_doubling_closed_form_matches_grid(self):
        fam = make_builtin_family("perturbed-doubling")
        from nonautodyn.descriptors import sup_metric

        for n in (1, 2, 5, 17):
            exact = term(fam, n)
            assert exact.exact and exact.value == pytest.approx(1.0 / n, abs=0)
            grid = sup_metric(fam.space, fam.member(n), fam.limit, 64)
            assert grid.value == pytest.approx(1.0 / n, abs=1e-12)

    def test_alternating_terms(self):
        fam = make_builtin_family("alternating-rotation", alpha=1.1)
        assert term(fam, 1).value == 1.0
        assert term(fam, 2).value == 1.0
        assert term(fam, 3).value == 0.5


class TestCommutation:
    def test_rotations_commute_exactly(self):
        fam = make_builtin_family("alternating-rotation", alpha=1.1)
        v = commutes_with_limit(fam)
        assert v.holds
        assert v.witness["max_gap"] == 0.0

    def test_doubling_refuted_at_first_index(self):
        fam = make_builtin_family("perturbed-doubling")
        v = commutes_with_limit(fam)
        assert v.refuted
        assert v.witness["index"] == 1
        # f_1(f(t)) = 4t + 1 vs f(f_1(t)) = 4t + 2: constant gap min(1, 2pi-1)
        assert v.witness["gap"] == pytest.approx(1.0)

    def test_constant_family_commutes(self):
        assert commutes_with_limit(TENT_FAMILY).holds


class TestFeebleOpen:
    def test_tent_holds(self):
        assert feeble_open_check(TENT).holds

    def test_plateau_head_refuted_with_witness(self):
        v = feeble_open_check(PLATEAU_HEAD)
        assert v.refuted
        assert v.witness["flat_piece"] == [0.0, 0.5]

    def test_rotation_holds(self):
        assert feeble_open_check(Rotation(1.0)).holds

    def test_odometer_inconclusive(self):
        assert feeble_open_check(OdometerAdd()).inconclusive
        assert feeble_open_check(Delete(2)).inconclusive

    def test_family_level_verdicts(self):
        assert family_feeble_open(make_builtin_family("plateau-tent")).refuted
        assert family_feeble_open(make_builtin_family("perturbed-doubling")).holds
        assert family_feeble_open(make_builtin_family("odometer-deletion")).inconclusive

    def test_pl_feeble_iff_no_flat_piece(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            xs = np.unique(np.concatenate(([0.0, 1.0], rng.random(4))))
            ys = rng.random(len(xs))
            if rng.random() < 0.5 and len(xs) >= 3:
                ys[2] = ys[1]  # force one flat piece
            pl = PiecewiseLinear(tuple((float(x), float(y)) for x, y in zip(xs, ys)))
            has_flat = any(y0 == y1 for (_, y0), (_, y1) in zip(pl.breakpoints, pl.breakpoints[1:]))
            assert feeble_open_check(pl).refuted == has_flat


class TestSummability:
    def test_inverse_square_exact(self):
        fam = make_builtin_family("inverse-square-rotation")
        rep = summability_estimate(fam, 64)
        assert rep.flag == "summable (exact)"
        assert rep.series_limit == pytest.approx(math.pi**2 / 6)
        sums = rep.partial_sums
        assert all(b >= a for a, b in zip(sums, sums[1:]))
        assert sums[-1] == pytest.approx(sum(1.0 / n**2 for n in range(1, 65)))

    def test_alternating_divergent(self):
        rep = summability_estimate(make_builtin_family("alternating-rotation", alpha=1.1), 64)
        assert rep.flag.startswith("divergent")

    def test_constant_family_all_zero(self):
        rep = summability_estimate(TENT_FAMILY, 16)
        assert set(rep.partial_sums) == {0.0}
        assert rep.flag.startswith("summable")

    def test_fitted_exponent_heuristic(self):
        # custom family without closed forms: terms 1/n^2 via actual sup gaps
        fam = family_from_config(
            {
                "space": {"kind": "circle"},
                "custom": {
                    "steps": [
                        {"type": "rotation", "amount": 1.0 / n**2} for n in range(1, 33)
                    ],
                    "limit": {"type": "rotation", "amount": 0.0},
                    "label": "decaying",
                },
            }
        )
        rep = summability_estimate(fam, 30)
        assert rep.flag == "summable-likely"
        assert rep.fitted_exponent == pytest.approx(2.0, abs=0.05)


class TestIsometryShrinking:
    def test_rotation(self):
        assert isometry_shrinking_check(CIRCLE, Rotation(0.3)) == (True, True)

    def test_doubling(self):
        assert isometry_shrinking_check(CIRCLE, AffineCircle(2, 0.0)) == (False, False)

    def test_tent(self):
        assert isometry_shrinking_check(INTERVAL, TENT) == (False, False)

    def test_odometer_is_isometry(self):
        space = PhaseSpace.binary_seq(8)
        assert isometry_shrinking_check(space, OdometerAdd(), grid_resolution=6) == (True, True)

    def test_halving_map_shrinks(self):
        halving = PiecewiseLinear(((0.0, 0.0), (1.0, 0.5)))
        iso, shrink = isometry_shrinking_check(INTERVAL, halving)
        assert (iso, shrink) == (False, True)


class TestSurjectivity:
    def test_tent_onto(self):
        assert surjectivity_check(INTERVAL, TENT).holds

    def test_halving_not_onto(self):
        halving = PiecewiseLinear(((0.0, 0.0), (1.0, 0.5)))
        v = surjectivity_check(INTERVAL, halving)
        assert v.refuted
        assert v.witness["uncovered_center"]["x"] > 0.5

    def test_rotation_onto(self):
        assert surjectivity_check(CIRCLE, Rotation(2.0)).holds


class TestScalarReference:
    """The profile's array rules against plain loops over apply and distance."""

    @pytest.mark.parametrize("name", ["perturbed-doubling", "plateau-tent", "odometer-deletion"])
    def test_commutation_witness_is_first_worst_grid_point(self, name):
        fam = make_builtin_family(name)
        v = commutes_with_limit(fam)
        assert v.refuted
        n = v.witness["index"]
        fwd = compose(fam.member(n), fam.limit)
        bwd = compose(fam.limit, fam.member(n))
        grid = grid_points(fam.space, 64)
        gaps = [distance(fam.space, apply(fwd, x), apply(bwd, x)) for x in grid]
        assert v.witness["point"] == point_to_json(grid[gaps.index(max(gaps))])

    @pytest.mark.parametrize(
        "space, m",
        [
            (CIRCLE, AffineCircle(3, 0.4)),
            (INTERVAL, TENT),
            (INTERVAL, PiecewiseLinear(((0.0, 0.0), (1.0, 0.5)))),
            (INTERVAL, Lookup((0.0, 0.5, 1.0), "nearest")),
            (PhaseSpace.binary_seq(8), OdometerAdd()),
            (PhaseSpace.binary_seq(8), Delete(3)),
        ],
    )
    def test_isometry_and_surjectivity_match_pair_loops(self, space, m):
        grid = grid_points(space, 24)
        if len(grid) > 48:
            grid = grid[:: len(grid) // 48]
        pairs = [(x, y) for i, x in enumerate(grid) for y in grid[i + 1 :]]
        before = [distance(space, x, y) for x, y in pairs]
        after = [distance(space, apply(m, x), apply(m, y)) for x, y in pairs]
        iso = all(abs(a - b) <= 1e-9 for a, b in zip(after, before))
        shrink = all(a <= b + 1e-9 for a, b in zip(after, before))
        assert isometry_shrinking_check(space, m) == (iso, shrink)

        # a coarse grid keeps the word space at 64 words
        grid = grid_points(space, 6)
        image = [apply(m, x) for x in grid]
        defect = max(min(distance(space, x, y) for y in image) for x in grid)
        v = surjectivity_check(space, m, grid_resolution=6)
        assert v.witness.get("covering_defect", v.witness.get("gap")) == defect


def test_profile_reports_first_non_surjective_member():
    halving = PiecewiseLinear(((0.0, 0.0), (1.0, 0.5)))
    quarter = PiecewiseLinear(((0.0, 0.0), (1.0, 0.25)))
    fam = family_from_config(
        {
            "space": {"kind": "unit_interval"},
            "custom": {
                "steps": [
                    {"type": "piecewise_linear", "breakpoints": [[0, 0], [0.5, 1], [1, 0]]},
                    {"type": "piecewise_linear", "breakpoints": [[0, 0], [1, 0.5]]},
                ],
                "limit": {"type": "piecewise_linear", "breakpoints": [[0, 0], [1, 0.25]]},
            },
        }
    )
    assert fam.member(2) == halving and fam.limit == quarter
    prof = profile_hypotheses(fam)
    assert prof.surjective == surjectivity_check(INTERVAL, halving)


def test_profile_assembles_all_hypotheses():
    prof = profile_hypotheses(make_builtin_family("inverse-square-rotation"))
    assert prof.commutes.holds
    assert prof.summable_likely
    assert prof.feeble_open.holds
    assert prof.surjective.holds
    assert prof.isometry and prof.shrinking


def test_custom_family_from_config_applies_steps_then_limit():
    fam = family_from_config(
        {
            "space": {"kind": "unit_interval"},
            "custom": {
                "steps": [{"type": "piecewise_linear", "breakpoints": [[0, 1], [0.5, 1], [1, 0]]}],
                "limit": {"type": "piecewise_linear", "breakpoints": [[0, 0], [0.5, 1], [1, 0]]},
                "label": "head-then-tent",
            },
        }
    )
    assert fam.member(1) == PLATEAU_HEAD
    assert fam.member(2) == TENT


def test_profile_builds_each_sample_grid_once(monkeypatch):
    # odometer-deletion at the report's profile resolution: words of length 8
    built = []
    post_init = space.BinaryWord.__post_init__
    monkeypatch.setattr(
        space.BinaryWord, "__post_init__", lambda self: built.append(1) or post_init(self)
    )
    fam = make_builtin_family("odometer-deletion")
    prof = profile_hypotheses(fam, grid_resolution=8, eps=0.2)
    assert prof.surjective.holds and prof.commutes.refuted
    # the grids are coordinate arrays; the one word built is the commutation
    # witness that the refuted verdict writes
    assert len(built) == 1
