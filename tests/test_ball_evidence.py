"""The per-view ball-evidence table, weak mixing over distinct hit rows, the
per-view pair table and the memory preflight."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from nonautodyn import checkers, regions
from nonautodyn.checkers import (
    MEMORY_BUDGET,
    CheckConfig,
    Mode,
    SystemView,
    _ball_evidence,
    _cloud_diam_series,
    _pair_codes,
    _shared_time_misses,
    check_li_yorke_cell_density,
    check_proximal_cell_density,
    check_proximal_pairs_density,
    check_weak_mixing,
    checker_grid,
    orbit_matrix,
)
from nonautodyn.report import CATALOG, run_comparison
from nonautodyn.space import (
    WORD_DTYPE,
    SpaceError,
    SpaceKind,
    ball_sample,
    coord_distances,
    coord_point,
    coord_to_json,
    point_coords,
)


def _dense_reference(H: np.ndarray):
    """The first ordered row pair sharing no True column, in row-major
    order, and the number of such pairs, from the full product; float32
    counts the shared columns exactly below 2**24."""
    Hf = H.astype(np.float32)
    sim = Hf @ Hf.T > 0
    if sim.all():
        return None, 0
    return divmod(int(np.argmin(sim)), len(H)), int(sim.size - sim.sum())


@pytest.mark.parametrize("mode", list(Mode))
@pytest.mark.parametrize("name", sorted(CATALOG))
def test_weak_mixing_matches_dense_reference(name, mode):
    spec = CATALOG[name]
    cfg = spec.check
    sys = SystemView(spec.build_family(), mode)
    verdict = check_weak_mixing(sys, cfg)
    ev = _ball_evidence(sys, cfg)
    G = len(ev.centers)
    H = ev.hits[:, :, 1:].reshape(G * G, -1)
    first, missed = _dense_reference(H)
    assert _shared_time_misses(H) == (first, missed)
    assert verdict.holds == (first is None)
    if first is None:
        return
    (u1, v1), (u2, v2) = divmod(first[0], G), divmod(first[1], G)
    quad = {
        "U1": coord_to_json(ev.centers[u1], sys.space.kind),
        "V1": coord_to_json(ev.centers[v1], sys.space.kind),
        "U2": coord_to_json(ev.centers[u2], sys.space.kind),
        "V2": coord_to_json(ev.centers[v2], sys.space.kind),
    }
    w = verdict.witness
    if verdict.inconclusive:
        assert w["witness_quadruple"] == quad
        assert w["missed_quadruples"] == missed
    elif w["rule"] != "isometric-spacing":
        assert {k: w[k] for k in quad} == quad


def _repeated_rows():
    """Boolean matrices built from a few distinct rows, each used many times."""
    return st.integers(1, 21).flatmap(
        lambda width: st.tuples(
            st.lists(hnp.arrays(bool, width), min_size=1, max_size=5),
            st.lists(st.integers(0, 4), min_size=1, max_size=40),
        ).map(lambda t: np.array([t[0][i % len(t[0])] for i in t[1]]))
    )


@settings(max_examples=200, deadline=None)
@given(_repeated_rows())
@example(np.ones((6, 9), dtype=bool))
@example(np.zeros((5, 3), dtype=bool))
@example(np.array([[True, False], [False, True], [True, False]]))
def test_shared_time_misses_match_dense_reference(H):
    assert _shared_time_misses(H) == _dense_reference(H)


def _per_source_codes(kind, cfg, orbits, sources):
    """Pair codes measured from each source to every column over the tail."""
    tail = orbits[-(cfg.tail_window + 1) :]
    codes = np.empty((len(sources), orbits.shape[1]), dtype=np.uint8)
    for k, s in enumerate(sources):
        d = coord_distances(kind, tail[:, s, None], tail)
        codes[k] = (
            (coord_distances(kind, orbits[0, s], orbits[0]) == 0.0) * checkers._SAME
            | (d < cfg.eps).any(axis=0) * checkers._NEAR
            | (d > cfg.delta).any(axis=0) * checkers._FAR
        )
    return codes


@st.composite
def _repeated_tails(draw):
    """Sweeps of a few values under maps that merge some of them, so columns
    that differ at row 0 can repeat one tail column, with a tail window and
    sources among the columns."""
    kind = draw(st.sampled_from([SpaceKind.UNIT_INTERVAL, SpaceKind.BINARY_SEQ]))
    rows, width = draw(st.integers(1, 6)), draw(st.integers(1, 12))
    pool = [0.0, -0.0, 0.1, 0.3, 0.5, 0.95] if kind is SpaceKind.UNIT_INTERVAL else [0, 1, 2, 6, 7]
    index = [draw(st.lists(st.integers(0, len(pool) - 1), min_size=width, max_size=width))]
    for _ in range(rows - 1):
        step = draw(st.lists(st.integers(0, len(pool) - 1), min_size=len(pool), max_size=len(pool)))
        index.append([step[i] for i in index[-1]])
    values = np.array(pool)[np.array(index)]
    if kind is SpaceKind.BINARY_SEQ:
        orbits = np.zeros(values.shape, dtype=WORD_DTYPE)
        orbits["value"], orbits["length"], orbits["eff"] = values, 4, 4
    else:
        orbits = values.astype(float)
    cfg = CheckConfig(horizon=rows, tail_window=draw(st.integers(1, rows)), eps=0.2, delta=0.3)
    sources = np.array(sorted(draw(st.sets(st.integers(0, width - 1), min_size=1))))
    return kind, cfg, orbits, sources


@settings(max_examples=300, deadline=None)
@given(_repeated_tails())
def test_pair_codes_match_per_source_rule(case):
    codes = _pair_codes(*case)
    assert codes.dtype == np.uint8
    assert np.array_equal(codes, _per_source_codes(*case))


def test_one_alternating_rotation_report_steps_each_view_once(monkeypatch):
    calls = {"chains": 0, "arcs": 0}

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(checkers, "ball_chains", counted(regions.ball_chains, "chains"))
    monkeypatch.setattr(regions, "_step_arcs", counted(regions._step_arcs, "arcs"))
    run_comparison(CATALOG["alternating-rotation"])
    # one ball table per view over the horizon of 5000, plus the tracked ball's 400 steps
    assert calls == {"chains": 3, "arcs": 2 * 5000 + 400}


@pytest.mark.parametrize("mode", list(Mode))
@pytest.mark.parametrize("name", ["perturbed-doubling", "odometer-deletion"])
def test_cell_evidence_is_swept_once_per_view(name, mode, monkeypatch):
    spec = CATALOG[name]
    cfg = dataclasses.replace(spec.check, horizon=60, tail_window=30)
    calls = []
    build = checkers._compute_pair_table
    monkeypatch.setattr(
        checkers, "_compute_pair_table", lambda *a: calls.append(1) or build(*a)
    )
    sys = SystemView(spec.build_family(), mode)
    rows = (check_proximal_pairs_density, check_proximal_cell_density, check_li_yorke_cell_density)
    for check in rows:
        fresh = check(SystemView(spec.build_family(), mode), cfg)
        assert check(sys, cfg).to_json() == fresh.to_json()
    assert len(calls) == 4  # one per fresh view, one for the shared view


def test_pair_rows_sweep_one_table_per_view(monkeypatch):
    # a pair verdict's witness is recomputed from a sweep of its two points;
    # any wider sweep in the three pair rows builds the table
    widths = []
    sweep = checkers.orbit_matrix

    def counted(sys, coords, *args):
        widths.append((sys.mode, len(coords)))
        return sweep(sys, coords, *args)

    builds = []
    build = checkers._compute_pair_table
    monkeypatch.setattr(
        checkers, "_compute_pair_table", lambda *a: builds.append(a[0].mode) or build(*a)
    )
    spec = CATALOG["odometer-deletion"]
    for mode in Mode:
        sys = SystemView(spec.build_family(), mode)
        monkeypatch.setattr(checkers, "orbit_matrix", counted)
        for check in (
            check_proximal_pairs_density, check_proximal_cell_density, check_li_yorke_cell_density
        ):
            check(sys, spec.check)
        monkeypatch.setattr(checkers, "orbit_matrix", sweep)
    assert builds == list(Mode)
    assert [mode for mode, width in widths if width > 2] == list(Mode)
    builds.clear()
    run_comparison(spec)
    assert sorted(builds) == sorted(Mode)


@pytest.mark.parametrize("name", ["perturbed-doubling", "odometer-deletion"])
def test_cloud_diameters_match_pairwise_loop(name):
    spec = CATALOG[name]
    fam = spec.build_family()
    kind = fam.space.kind
    sys = SystemView(fam, Mode.NON_AUTONOMOUS)
    center = coord_point(checker_grid(fam.space, spec.check)[3], kind)
    for count in (1, 2, 5, 9):
        cloud = list(ball_sample(fam.space, center, spec.check.eps, count))
        orbits = orbit_matrix(sys, point_coords(cloud, kind), 50)
        want = np.zeros(51)
        for i in range(len(cloud)):
            for j in range(i + 1, len(cloud)):
                want = np.maximum(want, coord_distances(kind, orbits[:, i], orbits[:, j]))
        assert _cloud_diam_series(kind, orbits).tobytes() == want.tobytes()


def test_preflight_refuses_a_hit_table_over_budget():
    space = CATALOG["odometer-deletion"].build_family().space
    cfg = dataclasses.replace(CATALOG["odometer-deletion"].check, grid_resolution=12)
    # 4,096 centers: 4096 * 4096 * 201 bytes of hits alone
    assert 4096 * 4096 * 201 > MEMORY_BUDGET
    with pytest.raises(SpaceError, match="budget"):
        cfg.validate(space)
    for spec in CATALOG.values():
        spec.check.validate(spec.build_family().space)


def test_preflight_counts_the_ball_sweep():
    # 8 grid centers keep the hit table small; 3 rungs of 9 points each are
    # swept over (N+1) rows of 8-byte angles
    space = CATALOG["alternating-rotation"].build_family().space
    cfg = CheckConfig(grid_resolution=8, horizon=10, tail_window=5)
    cfg.validate(space)
    N = MEMORY_BUDGET // (8 * 3 * 9 * 8)
    with pytest.raises(SpaceError, match="budget"):
        dataclasses.replace(cfg, horizon=N, tail_window=5).validate(space)


def test_preflight_counts_the_pair_table():
    # 100 centers with 25,000 points per ball over two rows: the hit table and
    # the ball sweep fit, but the pair table takes a byte from each of the
    # first 5 points of every pool to every pool point
    space = CATALOG["alternating-rotation"].build_family().space
    cfg = CheckConfig(grid_resolution=100, ball_count=25_000, horizon=1, tail_window=1)
    assert 2 * (100 * 100 + 100 * 3 * 25_000 * 8) < MEMORY_BUDGET < 100 * 5 * 100 * 25_000
    with pytest.raises(SpaceError, match="pair table"):
        cfg.validate(space)
    dataclasses.replace(cfg, ball_count=2_000).validate(space)


def test_preflight_counts_the_periodicity_sweep():
    # 8 grid centers over ten steps keep every other table small; dense
    # periodicity sweeps the 9 samples of every eps-ball over P*R+1 rows of
    # 8-byte angles
    space = CATALOG["alternating-rotation"].build_family().space
    cfg = CheckConfig(grid_resolution=8, horizon=10, tail_window=5, repetitions=1)
    cfg.validate(space)
    with pytest.raises(SpaceError, match="budget"):
        dataclasses.replace(cfg, max_period=MEMORY_BUDGET // (8 * 9 * 8)).validate(space)
