"""Deviation bounds, the term series, and the collective-convergence profiler."""

import dataclasses
import math

import pytest

from nonautodyn.bounds import (
    ConvergenceProfile,
    collective_convergence_profile,
    deviation_series,
)
from nonautodyn.descriptors import Delete, OdometerAdd, descriptor_to_json
from nonautodyn.family import (
    TENT,
    MapFamily,
    family_from_config,
    make_builtin_family,
    step_table_family,
    summability_estimate,
    term_sums,
)
from nonautodyn.orbit import orbit_matrix
from nonautodyn.report import CATALOG
from nonautodyn.space import (
    CircleAngle,
    IntervalPoint,
    PhaseSpace,
    ResolutionError,
    SpaceError,
    SpaceKind,
    coord_distances,
    coord_point,
    grid_coords,
)

ALT = make_builtin_family("alternating-rotation", alpha=1.1)
INV = make_builtin_family("inverse-square-rotation")
PD = make_builtin_family("perturbed-doubling")

#: a custom family with no steps: f_n = TENT for every n
TENT_FAMILY = family_from_config(
    {"space": {"kind": "unit_interval"}, "custom": {"limit": descriptor_to_json(TENT)}}
)


class TestLedger:
    """The term series of ``term_sums``: terms, partial sums, exactness."""

    def test_prefix_sums_non_decreasing(self):
        terms, sums, _ = term_sums(INV, 32)
        assert all(t >= 0 for t in terms)
        assert all(b >= a for a, b in zip(sums, sums[1:]))

    def test_window_sum(self):
        _, sums, _ = term_sums(INV, 20)
        want = sum(1.0 / i**2 for i in range(11, 16))
        assert sums[10 + 5] - sums[10] == pytest.approx(want, abs=1e-15)

    def test_exact_flags(self):
        _, _, exact = term_sums(INV, 4)
        assert len(exact) == 4 and all(exact)


class TestDeviation:
    def test_alternating_cancellation(self):
        rec = deviation_series(ALT, CircleAngle(1.2), 2)[-1]
        assert rec.measured == 0.0
        # terms 2/(1+1) and 2/2 both equal 1
        assert rec.bound == pytest.approx(2.0)
        assert rec.holds and rec.bound_exact

    def test_autonomous_family_zero(self):
        fam = TENT_FAMILY
        rec = deviation_series(fam, IntervalPoint(0.3), 7)[-1]
        assert rec.measured == 0.0 and rec.bound == 0.0 and rec.holds

    def test_doubling_violates_bound(self):
        rec = deviation_series(PD, CircleAngle(0.0), 2)[-1]
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
        # each record of one long sweep equals the last record of a sweep
        # that stops at its k, for windows from the start and after step 3
        fam = make_builtin_family(name)
        x = coord_point(grid_coords(fam.space, 5)[1], fam.space.kind)
        for n in (0, 3):
            series = deviation_series(fam, x, 40, n=n)
            assert [(r.n, r.k) for r in series] == [(n, k) for k in range(1, 41)]
            for rec in series:
                assert rec == deviation_series(fam, x, rec.k, n=n)[-1]

    @pytest.mark.parametrize("k_max, n", [(0, 0), (-3, 0), (1, -1), (0, 2)])
    def test_empty_or_negative_window_is_refused(self, k_max, n):
        with pytest.raises(SpaceError, match="k_max >= 1 and n >= 0"):
            deviation_series(INV, CircleAngle(0.0), k_max, n=n)

    def test_bound_monotone_in_k(self):
        records = deviation_series(INV, CircleAngle(0.0), 30)
        for a, b in zip(records, records[1:]):
            assert b.bound >= a.bound


class TestShiftedDeviation:
    def test_inverse_square_equality(self):
        rec = deviation_series(INV, CircleAngle(0.0), 5, n=10)[-1]
        want = sum(1.0 / i**2 for i in range(11, 16))
        assert rec.measured == pytest.approx(want, abs=1e-12)
        assert rec.measured == pytest.approx(rec.bound, abs=1e-12)
        assert rec.holds

    def test_alternating_shifted(self):
        # window over steps 2 and 3: perturbations -2/2 and +2/4
        rec = deviation_series(ALT, CircleAngle(0.2), 2, n=1)[-1]
        assert rec.measured == pytest.approx(0.5, abs=1e-12)
        assert rec.bound == pytest.approx(1.5)
        assert rec.holds


class TestCollectiveProfile:
    def test_autonomous_profile_vanishes(self):
        fam = TENT_FAMILY
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



def _per_window_profile(fam, n_max, k_max, grid_resolution, eps=0.05, tol=1e-9):
    """The profile from one sweep of each window and one limit sweep per window."""
    coords = grid_coords(fam.space, grid_resolution)
    limit = step_table_family(fam.space, (), fam.limit, fam.label)
    _, sums, _ = term_sums(fam, n_max + k_max)
    n_values, k_values = tuple(range(1, n_max + 1)), tuple(range(1, k_max + 1))
    matrix, bounds, holds = [], [], []
    for n in n_values:
        window = orbit_matrix(fam, coords, k_max, n)
        gaps = coord_distances(fam.space.kind, window, orbit_matrix(limit, coords, k_max))
        worst = gaps[1:].max(axis=1).tolist()
        bound = [sums[n + k] - sums[n] for k in k_values]
        matrix.append(tuple(worst))
        bounds.append(tuple(bound))
        holds.append(tuple(e <= b + tol for e, b in zip(worst, bound)))
    tail = tuple(max(row) for row in matrix)
    half = len(tail) // 2
    decreasing = all(tail[i + 1] <= tail[i] + 1e-12 for i in range(half, len(tail) - 1))
    return ConvergenceProfile(
        fam.label, n_values, k_values, tuple(matrix), tuple(bounds), tuple(holds), tail,
        tail[-1] < eps and decreasing, eps,
    )


def _nearest_lookups():
    lookup = lambda v: {"type": "lookup", "rule": "nearest", "values": v}  # noqa: E731
    return family_from_config({
        "space": {"kind": "unit_interval"},
        "custom": {
            "steps": [lookup([0.0, 0.9, 0.3, 1.0]), lookup([0.2, 1.0, 0.0, 0.6, 0.1])],
            "limit": lookup([0.1, 1.0, 0.2, 0.8]),
        },
    })


PROFILE_FAMILIES = {
    **{name: spec.build_family() for name, spec in CATALOG.items()},
    "nearest-lookups": _nearest_lookups(),
}


@pytest.mark.parametrize("shape", [(3, 7), (9, 4), (1, 1)])
@pytest.mark.parametrize("name", sorted(PROFILE_FAMILIES))
def test_profile_equals_a_sweep_per_window(name, shape):
    fam = PROFILE_FAMILIES[name]
    resolution = 6 if fam.space.kind is SpaceKind.BINARY_SEQ else 16
    got = collective_convergence_profile(fam, *shape, grid_resolution=resolution)
    want = _per_window_profile(fam, *shape, resolution)
    for field in dataclasses.fields(ConvergenceProfile):
        # repr keeps -0.0 apart from 0.0
        assert repr(getattr(got, field.name)) == repr(getattr(want, field.name)), field.name


@pytest.mark.parametrize("name", sorted(PROFILE_FAMILIES))
def test_summability_reads_the_term_series(name):
    # one series of D(f_n, f): summability's partial sums are term_sums' own
    fam = PROFILE_FAMILIES[name]
    resolution = 6 if fam.space.kind is SpaceKind.BINARY_SEQ else 48
    report = summability_estimate(fam, 64, resolution)
    assert repr(report.partial_sums) == repr(tuple(term_sums(fam, 64, resolution)[1][1:]))


def test_profile_that_runs_out_of_resolution_raises_as_a_sweep_per_window():
    # each step deletes the first coordinate, so 4-bit grid words run out
    fam = MapFamily(PhaseSpace.binary_seq(8), lambda n: Delete(1), OdometerAdd(), "deletions")
    with pytest.raises(ResolutionError):
        _per_window_profile(fam, 3, 6, 4)
    with pytest.raises(ResolutionError):
        collective_convergence_profile(fam, 3, 6, grid_resolution=4)


class TestIsometryBound:
    """The window-sum bound on D(omega^n_{n+k}, f^k) under an isometric
    limit, on every cell of the profile."""

    def test_inverse_square_equality(self):
        prof = collective_convergence_profile(INV, 5, 3, grid_resolution=16)
        assert all(h for row in prof.holds for h in row)
        for erow, brow in zip(prof.matrix, prof.bounds):
            for e, b in zip(erow, brow):
                assert e == pytest.approx(b, abs=1e-12)

    def test_alternating_holds(self):
        prof = collective_convergence_profile(ALT, 2, 2, grid_resolution=16)
        assert all(h for row in prof.holds for h in row)
