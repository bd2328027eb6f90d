"""One sampled sweep per system: on balls with no exact region image, the
ball-table sweep also yields the pair table, equicontinuity's rungs that are
ball rungs, and minimality's first visits.

The oracles below are the separate sweeps those tables came from before:
equicontinuity's row-block ladder over every rung, the pair table's own
sweep of the grid and its eps-pools, and minimality's row-block loop. Every
verdict they give must be byte-identical to the report's. So must each
property's verdict when it runs alone on a fresh family, and on the region
path a property that reads no ball table builds none.
"""

import dataclasses
import json
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonautodyn import checkers
from nonautodyn import verdict as V
from nonautodyn.checkers import (
    _PAIR_POOL,
    _PairTable,
    _ball_evidence,
    _cloud_diam_series,
    _confinement_gaps,
    _padded,
    _row_blocks,
    _rungs,
    _sweep_groups,
    check_equicontinuity,
    check_li_yorke_cell_density,
    check_minimality,
    check_proximal_cell_density,
    check_proximal_pairs_density,
    checker_grid,
)
from nonautodyn.descriptors import apply_batch
from nonautodyn.family import step_table_family
from nonautodyn.report import CATALOG, PROPERTY_BY_NAME, ScenarioSpec, run_comparison
from nonautodyn.space import SpaceKind, ball_coords, coord_distances, coord_to_json, grid_coords

PAIR_ROWS = (check_proximal_cell_density, check_proximal_pairs_density, check_li_yorke_cell_density)
ORACLE_ROWS = ("equicontinuity", "minimality") + tuple(c.__name__[6:] for c in PAIR_ROWS)
MODES = ("non_autonomous", "autonomous_limit")


def _system(fam, mode):
    """The family itself, or its limit system (X, f): the family with no steps."""
    if mode == "autonomous_limit":
        return step_table_family(fam.space, (), fam.limit, fam.label)
    return fam


# ---------------------------------------------------------------------------
# the separate sweeps, as they were


def _old_equicontinuity(sys, cfg):
    """The rung ladder with a row-block sweep of every rung."""
    space, N = sys.space, cfg.horizon
    rungs = _rungs(space, cfg, 0.5, 5)
    centers = checker_grid(space, cfg)
    worst_for_smallest = None
    for rung in rungs:
        worst_sep, worst_pair = 0.0, None
        groups = [
            (u, g) for u, g in enumerate(ball_coords(space, centers, rung, cfg.ball_count))
            if len(g) > 1
        ]
        if groups:
            starts, cols = _sweep_groups(sys, [g for _, g in groups], 0)
            idx = np.array([np.resize(c, max(map(len, cols))) for c in cols])
            best, at = np.full(len(idx), -np.inf), np.zeros((2, len(idx)), dtype=np.int64)
            for t0, orbits in _row_blocks(sys, starts[0], N):
                seps = coord_distances(space.kind, orbits[:, idx[:, 1:]], orbits[:, idx[:, :1]])
                for k in range(len(idx)):
                    t, j = divmod(int(np.argmax(seps[:, k])), seps.shape[2])
                    if seps[t, k, j] > best[k]:
                        best[k], at[:, k] = seps[t, k, j], (t0 + t, j)
                if rung != rungs[-1] and best.max() > cfg.eps:
                    break
            for (u, g), sep, t, j in zip(groups, best, *at):
                if sep > worst_sep:
                    worst_sep, worst_pair = float(sep), (centers[u], g[j + 1], int(t))
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


def _old_pair_table(sys, cfg):
    """One sweep of the grid and its eps-pools, codes measured per source."""
    kind, centers = sys.space.kind, checker_grid(sys.space, cfg)
    pools = ball_coords(sys.space, centers, cfg.eps, cfg.ball_count)
    orbits, cols = _sweep_groups(sys, [centers] + pools, 0 if sys.steps_isometric else cfg.horizon)
    pool_cols = np.array([np.resize(c, max(map(len, pools))) for c in cols[1:]])
    # each pool starts with its center: the grid's columns are the pools' first
    assert (pool_cols[:, 0] == cols[0]).all()
    source = np.zeros(orbits.shape[1], dtype=bool)
    source[pool_cols[:, :_PAIR_POOL]] = True
    tail = orbits[-(cfg.tail_window + 1) :]
    codes = np.empty((source.sum(), orbits.shape[1]), dtype=np.uint8)
    for k, s in enumerate(np.flatnonzero(source)):
        d = coord_distances(kind, tail[:, s, None], tail)
        codes[k] = (
            (coord_distances(kind, orbits[0, s], orbits[0]) == 0.0) * checkers._SAME
            | (d < cfg.eps).any(axis=0) * checkers._NEAR
            | (d > cfg.delta).any(axis=0) * checkers._FAR
        )
    rows = np.where(source, np.cumsum(source) - 1, -1)
    return _PairTable(centers, pools, pool_cols, rows, codes)


def _old_minimality(sys, cfg):
    """Row blocks of the grid starts, stopping once every cell is visited."""
    space, N = sys.space, cfg.horizon
    kind = space.kind
    starts = checker_grid(space, cfg)
    targets = grid_coords(space, cfg.grid_resolution)
    first = np.full((len(starts), len(targets)), -1)
    orbits = np.empty((N + 1, len(starts)), dtype=starts.dtype)
    for t0, block in _row_blocks(sys, starts, N):
        orbits[t0 : t0 + len(block)] = block
        for i in np.flatnonzero((first < 0).any(axis=1)):
            ok = coord_distances(kind, block[:, i, None], targets) <= cfg.eps
            new = ok.any(axis=0) & (first[i] < 0)
            first[i, new] = t0 + ok.argmax(axis=0)[new]
        if (first >= 0).all():
            worst = int(first.max())
            return V.holds(
                {"max_cell_visit_time": worst, "starts": len(starts), "targets": len(targets)},
                f"every grid orbit is {cfg.eps:g}-dense by n={worst}",
            )
    uncovered = [(i, int(np.argmax(miss))) for i, miss in enumerate(first < 0) if miss.any()]
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


def _text(verdict) -> str:
    return json.dumps(verdict.to_json(), sort_keys=True)


def _oracle(fam, mode, cfg) -> list[str]:
    """The verdict texts of ORACLE_ROWS from the separate sweeps."""
    sys = _system(fam, mode)
    table = _old_pair_table(sys, cfg)
    with mock.patch.object(checkers, "_pair_table", lambda s, c: table):
        pairs = [check(sys, cfg) for check in PAIR_ROWS]
    return [_text(v) for v in (_old_equicontinuity(sys, cfg), _old_minimality(sys, cfg), *pairs)]


def _report_texts(spec: ScenarioSpec) -> dict[str, list[str]]:
    rows = {r.property: r for r in run_comparison(spec).rows}
    return {
        "non_autonomous": [_text(rows[p].verdict_nonautonomous) for p in ORACLE_ROWS],
        "autonomous_limit": [_text(rows[p].verdict_limit) for p in ORACLE_ROWS],
    }


# ---------------------------------------------------------------------------
# the documents


def _tent(size):
    xs = [i / (size - 1) for i in range(size)]
    return [2.0 * x if x <= 0.5 else 2.0 - 2.0 * x for x in xs]


def _tabulated_doc(seed: int) -> dict:
    """Three tent tables of 244 entries with noise 0.05/j on step j, clipped
    to [0, 1], then the tent table; all nearest-rule lookups, so no step has
    an exact region image."""
    rng = random.Random(f"tabulated-maps/{seed}")
    tent = _tent(244)
    steps = [
        {
            "type": "lookup", "rule": "nearest",
            "values": [min(1.0, max(0.0, v + 0.05 / j * rng.uniform(-1.0, 1.0))) for v in tent],
        }
        for j in range(1, 4)
    ]
    return {
        "space": {"kind": "unit_interval"},
        "family": {"custom": {
            "steps": steps, "limit": {"type": "lookup", "rule": "nearest", "values": tent},
        }},
        "check": {
            "horizon": 300, "grid_resolution": 12, "ball_count": 9, "eps": 0.1, "delta": 0.25,
            "tol": 1e-9, "tail_window": 200, "max_period": 8, "repetitions": 3,
        },
        "label": "tabulated-maps",
    }


# ---------------------------------------------------------------------------
# one sweep


def test_each_view_sweeps_its_balls_once(monkeypatch):
    spec = ScenarioSpec.from_json(_tabulated_doc(0))
    N = spec.check.horizon
    sweeps = []
    sweep = checkers.orbit_matrix

    def counted(sys, coords, horizon, start=0):
        sweeps.append((sys, len(coords), horizon, start))
        return sweep(sys, coords, horizon, start)

    monkeypatch.setattr(checkers, "orbit_matrix", counted)
    run_comparison(spec)
    systems = {id(sys): sys for sys, *_ in sweeps}.values()
    assert len(systems) == 2
    for system in systems:
        full = [w for m, w, h, s in sweeps if m is system and w > 2 and (h, s) == (N, 0)]
        assert len(full) == 1, (system.eventually_constant_from, full)


@pytest.mark.parametrize("mode", MODES)
def test_sampled_minimality_and_pair_rows_sweep_nothing(monkeypatch, mode):
    # once the ball evidence is built, only equicontinuity's rungs eps/2 and
    # eps/8, which are no ball rungs, are swept, each from row 0
    spec = ScenarioSpec.from_json(_tabulated_doc(1))
    sys = _system(spec.build_family(), mode)
    evidence = _ball_evidence(sys, spec.check)
    assert sorted(evidence.separations) == _rungs(sys.space, spec.check, 0.25, 3)[::-1]
    sweeps = []
    sweep = checkers.orbit_matrix

    def counted(sys, coords, horizon, start=0):
        sweeps.append((horizon, start))
        return sweep(sys, coords, horizon, start)

    monkeypatch.setattr(checkers, "orbit_matrix", counted)
    for check in (check_minimality, *PAIR_ROWS):
        check(sys, spec.check)
    assert sweeps == []
    check_equicontinuity(sys, spec.check)
    assert sweeps.count((0, 0)) <= 2 and (spec.check.horizon, 0) not in sweeps


def test_isometric_pair_codes_read_row_0_alone(monkeypatch):
    # odometer additions are exact isometries of the word metric, so every
    # tail row gives the pair codes of row 0, and only row 0 is read; the
    # non-autonomous family deletes coordinates and reads its tail window
    spec = CATALOG["odometer-deletion"]
    rows = {}
    codes = checkers._pair_codes

    def counted(kind, cfg, orbits, *args):
        rows[len(orbits)] = True
        return codes(kind, cfg, orbits, *args)

    monkeypatch.setattr(checkers, "_pair_codes", counted)
    for mode in MODES:
        rows.clear()
        sys = _system(spec.build_family(), mode)
        assert sys.steps_isometric is (mode == "autonomous_limit")
        _ball_evidence(sys, spec.check)
        assert list(rows) == [1 if sys.steps_isometric else spec.check.horizon + 1]


# ---------------------------------------------------------------------------
# the oracle


@pytest.mark.parametrize("seed", range(4))
def test_tabulated_verdicts_match_the_separate_sweeps(seed):
    spec = ScenarioSpec.from_json(_tabulated_doc(seed))
    fam = spec.build_family()
    for mode, texts in _report_texts(spec).items():
        assert texts == _oracle(fam, mode, spec.check)


def test_odometer_verdicts_match_the_separate_sweeps():
    spec = CATALOG["odometer-deletion"]
    fam = spec.build_family()
    for mode, texts in _report_texts(spec).items():
        assert texts == _oracle(fam, mode, spec.check)


#: table values: any real in [0, 1], -0.0, or eighths, which meet the grid
#: points and eps exactly, so distances of exactly eps occur
_VALUES = st.one_of(
    st.floats(0.0, 1.0), st.just(-0.0), st.integers(0, 8).map(lambda j: j / 8)
)


@st.composite
def _lookup_families(draw):
    size = draw(st.integers(8, 64))

    def table():
        values = draw(st.lists(_VALUES, min_size=size, max_size=size))
        return {"type": "lookup", "rule": "nearest", "values": values}

    horizon = draw(st.integers(10, 80))
    doc = {
        "space": {"kind": "unit_interval"},
        "family": {"custom": {
            "steps": [table() for _ in range(draw(st.integers(3, 5)))], "limit": table(),
        }},
        "check": {
            "horizon": horizon,
            "grid_resolution": draw(st.one_of(st.sampled_from([5, 9]), st.integers(4, 16))),
            "ball_count": draw(st.integers(1, 9)),
            "eps": draw(st.sampled_from([0.125, 0.25, 0.1, 0.05])),
            "delta": draw(st.sampled_from([0.5, 0.3, 1.0])),
            "tail_window": draw(st.integers(1, horizon)),
            "max_period": 4,
            "repetitions": 2,
        },
        "properties": list(ORACLE_ROWS),
    }
    return ScenarioSpec.from_json(doc)


@settings(max_examples=40, deadline=None)
@given(_lookup_families())
def test_lookup_verdicts_match_the_separate_sweeps(spec):
    fam, cfg = spec.build_family(), spec.check
    for mode in MODES:
        # the report's order on one system: equicontinuity builds the
        # evidence; a second family, so that the oracle memoizes apart
        sys = _system(spec.build_family(), mode)
        checks = (check_equicontinuity, check_minimality, *PAIR_ROWS)
        assert [_text(check(sys, cfg)) for check in checks] == _oracle(fam, mode, cfg)


# ---------------------------------------------------------------------------
# single properties


def _short(spec: ScenarioSpec, horizon: int = 50) -> ScenarioSpec:
    check = dataclasses.replace(
        spec.check, horizon=horizon, tail_window=min(spec.check.tail_window, horizon)
    )
    return dataclasses.replace(spec, check=check)


SHORT_SPECS = [_short(spec) for spec in CATALOG.values()]


@pytest.mark.parametrize(
    "spec", SHORT_SPECS + [ScenarioSpec.from_json(_tabulated_doc(0))], ids=lambda s: s.label
)
def test_single_property_verdicts_equal_the_report_rows(spec):
    for row in run_comparison(spec).rows:
        runner = PROPERTY_BY_NAME[row.property].runner
        for mode, verdict in zip(MODES, (row.verdict_nonautonomous, row.verdict_limit)):
            # a family of its own, so that no other row's memo serves it
            alone = runner(_system(spec.build_family(), mode), spec.check)
            assert _text(alone) == _text(verdict), (row.property, mode)


@pytest.mark.parametrize("name", ["alternating-rotation", "plateau-tent"])
def test_single_region_properties_build_no_ball_chains(monkeypatch, name):
    # these rows read no table of the ball evidence on the region path, so
    # the path is decided from the steps and no chain is built
    spec = _short(CATALOG[name])
    chains = []
    real = checkers.ball_chains

    def counted(*args):
        chains.append(args)
        return real(*args)

    monkeypatch.setattr(checkers, "ball_chains", counted)
    for mode in MODES:
        for check in (check_equicontinuity, check_minimality, *PAIR_ROWS):
            check(_system(spec.build_family(), mode), spec.check)
    assert chains == []


# ---------------------------------------------------------------------------
# helpers


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.integers(0, 30), min_size=1, max_size=9), min_size=1, max_size=8),
       st.integers(1, 12))
def test_padding_repeats_each_row_as_resize_does(cols, least):
    cols = [np.array(c) for c in cols]
    width = max(least, max(map(len, cols)))
    want = np.array([np.resize(c, width) for c in cols])
    assert np.array_equal(_padded(cols, least), want)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.one_of(st.floats(0.0, 1.0), st.just(-0.0)), min_size=4, max_size=4),
                min_size=1, max_size=5),
       st.lists(st.lists(st.integers(0, 3), max_size=6), min_size=1, max_size=5))
def test_interval_diameters_are_the_pairwise_maximum(rows, cols):
    orbits, cols = np.array(rows), [np.array(c, dtype=np.int64) for c in cols]
    want = np.zeros((len(cols), len(orbits)))
    for k, idx in enumerate(cols):
        for i in idx:
            for j in idx:
                d = coord_distances(SpaceKind.UNIT_INTERVAL, orbits[:, i], orbits[:, j])
                want[k] = np.maximum(want[k], d)
    assert _cloud_diam_series(SpaceKind.UNIT_INTERVAL, orbits, cols).tobytes() == want.tobytes()
