"""Deviation bounds, ledgers, and the collective-convergence profiler."""

import math

import pytest

from nonautodyn.bounds import (
    BoundLedger,
    HypothesisNotMetError,
    collective_convergence_profile,
    deviation_check,
    deviation_series,
    isometry_bound_check,
    shifted_deviation_check,
)
from nonautodyn.family import TENT, autonomous_family, make_builtin_family
from nonautodyn.space import CircleAngle, IntervalPoint, PhaseSpace, sample_grid

ALT = make_builtin_family("alternating-rotation", alpha=1.1)
INV = make_builtin_family("inverse-square-rotation")
PD = make_builtin_family("perturbed-doubling")


class TestLedger:
    def test_prefix_sums_non_decreasing(self):
        ledger = BoundLedger.for_family(INV, 32)
        sums = ledger.prefix_sums
        assert all(t >= 0 for t in ledger.terms)
        assert all(b >= a for a, b in zip(sums, sums[1:]))

    def test_window_sum(self):
        ledger = BoundLedger.for_family(INV, 20)
        want = sum(1.0 / i**2 for i in range(11, 16))
        assert ledger.window_sum(10, 5) == pytest.approx(want, abs=1e-15)

    def test_exact_flags(self):
        ledger = BoundLedger.for_family(INV, 4)
        assert all(ledger.exact_flags)
        assert ledger.window_exact(0, 4)


class TestDeviation:
    def test_alternating_cancellation(self):
        rec = deviation_check(ALT, CircleAngle(1.2), 2)
        assert rec.measured == 0.0
        # terms 2/(1+1) and 2/2 both equal 1
        assert rec.bound == pytest.approx(2.0)
        assert rec.holds and rec.bound_exact

    def test_autonomous_family_zero(self):
        fam = autonomous_family(PhaseSpace.unit_interval(), TENT)
        rec = deviation_check(fam, IntervalPoint(0.3), 7)
        assert rec.measured == 0.0 and rec.bound == 0.0 and rec.holds

    def test_doubling_violates_bound(self):
        rec = deviation_check(PD, CircleAngle(0.0), 2)
        assert rec.measured == pytest.approx(2.5)
        assert rec.bound == pytest.approx(1.5)
        assert not rec.holds

    def test_violation_exists_within_five_steps(self):
        records = deviation_series(PD, CircleAngle(0.0), 5)
        assert any(not r.holds for r in records)

    def test_commuting_family_bound_always_holds(self):
        for fam in (ALT, INV):
            for rec in deviation_series(fam, CircleAngle(0.37), 60):
                assert rec.holds

    @pytest.mark.parametrize("name", ["alternating-rotation", "perturbed-doubling",
                                      "plateau-tent", "odometer-deletion"])
    def test_series_matches_single_checks(self, name):
        fam = make_builtin_family(name)
        x = sample_grid(fam.space, 5).points[1]
        ledger = BoundLedger.for_family(fam, 40)
        series = deviation_series(fam, x, 40)
        assert [r.k for r in series] == list(range(1, 41))
        for rec in series:
            assert rec == deviation_check(fam, x, rec.k, 1e-9, ledger)

    def test_bound_monotone_in_k(self):
        records = deviation_series(INV, CircleAngle(0.0), 30)
        for a, b in zip(records, records[1:]):
            assert b.bound >= a.bound


class TestShiftedDeviation:
    def test_n_zero_reduces_to_deviation(self):
        a = deviation_check(INV, CircleAngle(0.5), 4)
        b = shifted_deviation_check(INV, CircleAngle(0.5), 0, 4)
        assert (a.measured, a.bound, a.holds) == (b.measured, b.bound, b.holds)

    def test_inverse_square_equality(self):
        rec = shifted_deviation_check(INV, CircleAngle(0.0), 10, 5)
        want = sum(1.0 / i**2 for i in range(11, 16))
        assert rec.measured == pytest.approx(want, abs=1e-12)
        assert rec.measured == pytest.approx(rec.bound, abs=1e-12)
        assert rec.holds

    def test_alternating_shifted(self):
        # window over steps 2 and 3: perturbations -2/2 and +2/4
        rec = shifted_deviation_check(ALT, CircleAngle(0.2), 1, 2)
        assert rec.measured == pytest.approx(0.5, abs=1e-12)
        assert rec.bound == pytest.approx(1.5)
        assert rec.holds


class TestCollectiveProfile:
    def test_autonomous_profile_vanishes(self):
        fam = autonomous_family(PhaseSpace.unit_interval(), TENT)
        prof = collective_convergence_profile(fam, 6, 6, grid_resolution=16)
        assert all(v == 0.0 for row in prof.matrix for v in row)
        assert prof.collective_likely

    def test_inverse_square_matches_closed_form(self):
        prof = collective_convergence_profile(INV, 12, 8, grid_resolution=16)
        for i, n in enumerate(prof.n_values):
            for j, k in enumerate(prof.k_values):
                want = sum(1.0 / m**2 for m in range(n + 1, n + k + 1))
                assert prof.matrix[i][j] == pytest.approx(want, abs=1e-12)
        assert prof.collective_likely

    def test_tail_sup_is_row_max(self):
        prof = collective_convergence_profile(ALT, 8, 6, grid_resolution=16)
        for row, t in zip(prof.matrix, prof.tail_sup):
            assert t == max(row)
        assert all(math.isfinite(t) for t in prof.tail_sup)

    def test_window_bound_caps_commuting_and_isometric_families(self):
        for fam in (ALT, INV):
            prof = collective_convergence_profile(fam, 10, 8, grid_resolution=16)
            assert all(h for row in prof.holds for h in row)
            for erow, brow in zip(prof.matrix, prof.bounds):
                for e, b in zip(erow, brow):
                    assert e <= b + 1e-9


class TestIsometryBound:
    def test_inverse_square_equality(self):
        rec = isometry_bound_check(INV, n=5, k=3, grid_resolution=16)
        assert rec.holds
        assert rec.measured == pytest.approx(rec.bound, abs=1e-12)

    def test_alternating_holds(self):
        rec = isometry_bound_check(ALT, n=2, k=2, grid_resolution=16)
        assert rec.holds

    def test_doubling_refused(self):
        with pytest.raises(HypothesisNotMetError):
            isometry_bound_check(PD, n=1, k=1)
