"""The per-system ball-evidence table, weak mixing over distinct hit rows, the
per-system pair table and the memory preflight."""

import dataclasses
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from nonautodyn import checkers, regions
from nonautodyn.checkers import (
    MEMORY_BUDGET,
    CheckConfig,
    _ball_evidence,
    _cloud_diam_series,
    _compute_ball_evidence,
    _exact,
    _pair_codes,
    _rungs,
    _sampled_ball_table,
    _shared_time_misses,
    _summarised,
    _sweep_groups,
    check_equicontinuity,
    check_li_yorke_cell_density,
    check_proximal_cell_density,
    check_proximal_pairs_density,
    check_weak_mixing,
    checker_grid,
    orbit_matrix,
)
from nonautodyn.descriptors import AffineCircle, Compose, Rotation
from nonautodyn.family import MapFamily, step_table_family
from nonautodyn.regions import ball_chains
from nonautodyn.report import CATALOG, ScenarioSpec, run_comparison
from nonautodyn.space import (
    WORD_DTYPE,
    BinaryWord,
    PhaseSpace,
    SpaceError,
    SpaceKind,
    ball_coords,
    coord_distances,
    coord_to_json,
    point_coords,
)


MODES = ("non_autonomous", "autonomous_limit")


def _system(fam: MapFamily, mode: str) -> MapFamily:
    """The family itself, or its limit system (X, f): the family with no steps."""
    if mode == "autonomous_limit":
        return step_table_family(fam.space, (), fam.limit, fam.label)
    return fam


def _mode(fam: MapFamily) -> str:
    """The mode of a builtin's system: only its limit system is constant from step 1."""
    return "autonomous_limit" if fam.eventually_constant_from == 1 else "non_autonomous"


def _dense_reference(H: np.ndarray):
    """The first ordered row pair sharing no True column, in row-major
    order, and the number of such pairs, from the full product; float32
    counts the shared columns exactly below 2**24."""
    Hf = H.astype(np.float32)
    sim = Hf @ Hf.T > 0
    if sim.all():
        return None, 0
    return divmod(int(np.argmin(sim)), len(H)), int(sim.size - sim.sum())


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", sorted(CATALOG))
def test_weak_mixing_matches_dense_reference(name, mode):
    spec = CATALOG[name]
    cfg = spec.check
    sys = _system(spec.build_family(), mode)
    verdict = check_weak_mixing(sys, cfg)
    ev = _ball_evidence(sys, cfg)
    G = len(ev.centers)
    H = np.unpackbits(ev.hit_rows.reshape(G * G, -1), axis=1, count=cfg.horizon).astype(bool)
    first, missed = _dense_reference(H)
    assert _shared_time_misses(np.packbits(H, axis=1)) == (first, missed)
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
    assert _shared_time_misses(np.packbits(H, axis=1)) == _dense_reference(H)


# ---------------------------------------------------------------------------
# what the ball evidence keeps, against the whole tables it is read from


def _tabulated_doc(seed: int) -> dict:
    """Nearest-rule lookup tables shaped like the tabulated-maps workload: three
    tent tables of 244 entries with noise 0.05/j on step j, then the tent
    table; no step has an exact region image, so every ball is sampled."""
    rng = random.Random(f"ball-evidence/{seed}")
    tent = [2.0 * x if x <= 0.5 else 2.0 - 2.0 * x for x in (i / 243 for i in range(244))]
    steps = [
        {"type": "lookup", "rule": "nearest",
         "values": [min(1.0, max(0.0, v + 0.05 / j * rng.uniform(-1.0, 1.0))) for v in tent]}
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


def _whole_tables(sys, cfg):
    """Every ball's diameter series, the eps-balls' hit table, dense flags and
    final defects, and the collapses, each whole, from the region chains or
    the ball sweep of the system."""
    space, N = sys.space, cfg.horizon
    centers = checker_grid(space, cfg)
    rungs = _rungs(space, cfg, 0.25, 3)
    G, R = len(centers), len(rungs)
    if _exact(sys, N):
        steps = sys.steps(N)[1 : N + 1]
        chains = ball_chains(space.kind, np.repeat(centers, R), np.tile(rungs, G), steps)
        hits = np.zeros((G, G, N + 1), dtype=bool)
        chains.hits(R, centers, cfg.eps, hits)
        defects = chains.covering_defects()[:, ::R]
        return chains.diameters().T, hits, (defects < cfg.eps).T, defects[-1], chains.collapses()
    per_rung = [ball_coords(space, centers, r, cfg.ball_count) for r in rungs]
    orbits, cols = _sweep_groups(sys, [cloud for u in zip(*per_rung) for cloud in u], N)
    hits, dense, final, _ = _sampled_ball_table(
        space, cfg.grid_resolution, cfg.eps, centers, orbits, cols[::R]
    )
    return _cloud_diam_series(space.kind, orbits, cols), hits, dense, final, [None] * (G * R)


def _first(mask, none):
    return int(np.flatnonzero(mask)[0]) if mask.any() else none


def _last(mask, none):
    return int(np.flatnonzero(mask)[-1]) if mask.any() else none


SUMMARY_CASES = [(name, mode) for name in sorted(CATALOG) for mode in MODES] + [
    (f"tabulated-{seed}", mode) for seed in (0, 1) for mode in MODES
]


@pytest.mark.parametrize("hit_block", [None, 0])
@pytest.mark.parametrize("name,mode", SUMMARY_CASES)
def test_kept_summaries_equal_the_whole_tables(monkeypatch, name, mode, hit_block):
    # integers equal and floats bitwise, one center to a block or the default blocks
    if name.startswith("tabulated-"):
        spec = ScenarioSpec.from_json(_tabulated_doc(int(name.split("-")[1])))
    else:
        spec = CATALOG[name]
    cfg, N, delta = spec.check, spec.check.horizon, spec.check.delta
    sys = _system(spec.build_family(), mode)
    if hit_block is not None:
        monkeypatch.setattr(checkers, "_BLOCK_ELEMENTS", hit_block)
    ev = _compute_ball_evidence(sys, cfg)
    diams, hits, dense, final, collapses = _whole_tables(sys, cfg)
    assert ev.diameters.tobytes() == diams[0].tobytes()
    assert ev.collapses == collapses
    assert ev.separated_at.tolist() == [_first(d[1:] > delta, -1) + 1 for d in diams]
    assert ev.spread_from.tolist() == [_last(d <= delta, 0) + 1 for d in diams]
    assert ev.max_diam_after_0.tobytes() == np.array([d[1:].max() for d in diams]).tobytes()
    assert ev.max_diam.tobytes() == np.array([d.max() for d in diams]).tobytes()
    G = len(ev.centers)
    pairs = [hits[u, v] for u in range(G) for v in range(G)]
    assert ev.first_hit.reshape(-1).tolist() == [_first(h[1:], -2) + 1 for h in pairs]
    assert ev.hits_from.reshape(-1).tolist() == [_last(~h[1:], -1) + 2 for h in pairs]
    assert np.array_equal(np.unpackbits(ev.hit_rows, axis=2, count=N).astype(bool), hits[:, :, 1:])
    assert ev.dense_from.tolist() == [_last(~row, -1) + 1 for row in dense]
    assert ev.final_defects.tobytes() == np.ascontiguousarray(final).tobytes()


@pytest.mark.parametrize("hit_block", [None, 0])
def test_summaries_of_ties_and_empty_series(monkeypatch, hit_block):
    # two centers with two balls each over n = 0..4: diameters equal to delta,
    # and series with no separation, no hit, no miss and no defect
    if hit_block is not None:
        monkeypatch.setattr(checkers, "_BLOCK_ELEMENTS", hit_block)
    cfg = CheckConfig(horizon=4, tail_window=2, delta=0.25)
    diams = np.array([[0.3, 0.25, 0.3, 0.25, 0.3], [0.25] * 5, [0.5] * 5, [0.0] * 5])
    hits = np.array([[[0, 1, 1, 0, 1], [1] * 5], [[0] * 5, [1, 0, 0, 1, 1]]], dtype=bool)
    dense = np.array([[1] * 5, [0, 0, 1, 0, 1]], dtype=bool)
    final = np.array([0.0, 0.125])
    ev = _summarised(
        cfg, np.array([0.0, 1.0]), [],
        lambda us: (diams[2 * us.start : 2 * us.stop], hits[us], dense[us], final[us], None),
    )
    assert ev.diameters.tolist() == diams[0].tolist()
    assert ev.separated_at.tolist() == [2, 0, 1, 0]
    assert ev.spread_from.tolist() == [4, 5, 1, 5]
    assert ev.max_diam_after_0.tolist() == [0.3, 0.25, 0.5, 0.0]
    assert ev.max_diam.tolist() == [0.3, 0.25, 0.5, 0.0]
    assert ev.first_hit.tolist() == [[1, 1], [-1, 3]]
    assert ev.hits_from.tolist() == [[4, 1], [5, 3]]
    assert np.array_equal(np.unpackbits(ev.hit_rows, axis=2, count=4).astype(bool), hits[:, :, 1:])
    assert ev.dense_from.tolist() == [0, 4]
    assert ev.final_defects.tolist() == [0.0, 0.125]
    assert ev.collapses == [None] * 4


@st.composite
def _circle_step_tables(draw):
    """A circle family whose steps are runs of a few map objects: rotations,
    the still Rotation(0.0), affine maps of slope 2 or 3, which make arcs
    full, and compositions of them; with a horizon within or past the table,
    a small grid and an eps up to 2.5."""
    angles = st.floats(0.0, 7.0, allow_nan=False)
    leaf = st.one_of(
        st.just(Rotation(0.0)), angles.map(Rotation),
        st.builds(AffineCircle, st.integers(2, 3), angles),
    )
    pool = draw(st.lists(st.one_of(leaf, st.builds(Compose, leaf, leaf)), min_size=1, max_size=4))
    runs = draw(st.lists(st.tuples(st.sampled_from(pool), st.integers(1, 12)), max_size=8))
    steps = tuple(m for m, length in runs for _ in range(length))
    limit = draw(st.sampled_from([*pool, Rotation(0.0)]))
    fam = step_table_family(PhaseSpace.circle(), steps, limit, "drawn")
    eps = draw(st.sampled_from([0.05, 0.4, 1.3, 2.5]))
    cfg = CheckConfig(
        horizon=draw(st.integers(1, 70)), grid_resolution=draw(st.integers(2, 9)), eps=eps,
        delta=draw(st.sampled_from([d for d in (0.3, 1.0, 3.0) if d > eps])), tail_window=1,
    )
    return fam, cfg, draw(st.sampled_from([None, 0]))


@settings(max_examples=150, deadline=None)
@given(_circle_step_tables())
@example((step_table_family(PhaseSpace.circle(), (), Rotation(0.0), "still"), CheckConfig(
    horizon=37, grid_resolution=5, eps=0.4, delta=1.0, tail_window=1), None))
@example((step_table_family(
    PhaseSpace.circle(), (AffineCircle(2, 0.3),) * 3 + (Rotation(1.0),) * 6, Rotation(0.0), "full"
), CheckConfig(horizon=45, grid_resolution=7, eps=1.3, delta=3.0, tail_window=1), 0))
def test_circle_evidence_from_shared_rungs_equals_one_chain_per_ball(case):
    # the evidence from G + R - 1 arcs, every field byte for byte, against the
    # evidence from the G * R arcs of ball_chains over every ball, one center to
    # a block or the default blocks
    fam, cfg, hit_block = case
    diams, hits, dense, final, collapses = _whole_tables(fam, cfg)
    centers = checker_grid(fam.space, cfg)
    rungs = _rungs(fam.space, cfg, 0.25, 3)
    R = len(rungs)
    block = checkers._BLOCK_ELEMENTS if hit_block is None else hit_block
    with mock.patch.object(checkers, "_BLOCK_ELEMENTS", block):
        ev = _compute_ball_evidence(fam, cfg)
        want = _summarised(cfg, centers, [(c, r) for c in centers for r in rungs], lambda us: (
            diams[us.start * R : us.stop * R], hits[us], dense[us], final[us],
            collapses[us.start * R : us.stop * R],
        ))
    for field in dataclasses.fields(ev):
        got, ref = getattr(ev, field.name), getattr(want, field.name)
        if isinstance(got, np.ndarray):
            assert (got.dtype, got.shape, got.tobytes()) == (ref.dtype, ref.shape, ref.tobytes())
        elif field.name == "balls":
            assert [(c.tobytes(), r) for c, r in got] == [(c.tobytes(), r) for c, r in ref]
        else:
            assert got == ref, field.name
    assert collapses == [None] * len(collapses)  # arcs never collapse


def _held_bytes(value) -> int:
    """Bytes of the numpy arrays that value holds, through dataclasses, dicts,
    lists and tuples; an array view counts the whole array it keeps alive."""
    if isinstance(value, np.ndarray):
        while isinstance(value.base, np.ndarray):
            value = value.base
        return value.nbytes
    if dataclasses.is_dataclass(value):
        value = [getattr(value, f.name) for f in dataclasses.fields(value)]
    if isinstance(value, dict):
        value = list(value.values())
    return sum(map(_held_bytes, value)) if isinstance(value, (list, tuple)) else 0


@pytest.mark.parametrize("mode", MODES)
def test_rotation_ball_evidence_keeps_under_a_mebibyte(mode):
    # 20 centers, 3 rungs, 5,000 steps: the packed hit rows take
    # G * G * ceil(N / 8) = 250 kB, ball 0's series 40 kB, and the other
    # summaries a few numbers per ball or center pair. The 1 MiB allowance
    # holds those with room to spare, and neither a whole hit table,
    # G * G * (N+1) bytes = 2.0 MB, nor whole diameter series,
    # G * R * (N+1) floats = 2.4 MB
    spec = CATALOG["alternating-rotation"]
    ev = _ball_evidence(_system(spec.build_family(), mode), spec.check)
    assert _held_bytes(ev) <= 2**20


def _traced_peak(fn) -> int:
    """The most bytes traced while fn() runs, above those traced before it."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


def test_rotation_report_traced_peak_stays_under_11_mib():
    # the largest arrays alive at once are one system's ball chains,
    # 2 x 5001 x 22 floats = 1.7 MiB, beside the other system's kept evidence,
    # or equicontinuity's row blocks. The 11 MiB allowance holds either with
    # room to spare, but not chains of every ball together with a whole hit
    # table, whole diameter series and full-size temporaries of either, which
    # take 18.3 MiB
    assert _traced_peak(lambda: run_comparison(CATALOG["alternating-rotation"])) <= 11 * 2**20


@pytest.mark.parametrize("mode", MODES)
def test_rotation_chains_and_row_blocks_stay_small(mode):
    # alternating-rotation at its builtin config: 20 centers, 3 rungs, 5,000
    # steps, and 180 sample columns for equicontinuity. The ball evidence
    # steps G + R - 1 = 22 arcs, 2 x 5001 x 22 floats = 1.7 MiB, where one arc
    # per ball took 4.6 MiB and peaks of 6.8-7.3 MiB; equicontinuity's row
    # blocks stop doubling at 512 rows, 0.7 MiB, where blocks of 1,024 and
    # 2,048 rows took peaks of 5.0-5.5 MiB. Each fresh system builds its step
    # table inside the traced call
    spec = CATALOG["alternating-rotation"]
    cfg = spec.check
    build = _traced_peak(lambda: _compute_ball_evidence(_system(spec.build_family(), mode), cfg))
    assert build < 5 * 2**20
    rows = _traced_peak(lambda: check_equicontinuity(_system(spec.build_family(), mode), cfg))
    assert rows < 2.5 * 2**20


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
    that differ at row 0 can repeat one tail column, with a tail window, the
    columns kept and sources among them."""
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
    keep = np.array(sorted(draw(st.sets(st.integers(0, width - 1), min_size=1))))
    sources = np.array(sorted(draw(st.sets(st.integers(0, len(keep) - 1), min_size=1))))
    return kind, cfg, orbits, keep, sources


@settings(max_examples=300, deadline=None)
@given(_repeated_tails())
def test_pair_codes_match_per_source_rule(case):
    kind, cfg, orbits, keep, sources = case
    codes = _pair_codes(*case)
    assert codes.dtype == np.uint8
    assert np.array_equal(codes, _per_source_codes(kind, cfg, orbits[:, keep], sources))


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
    # one ball table per system, which the tracked ball reads too; every step is
    # a rotation of arcs that are not full, so a slope-1 run
    assert calls == {"chains": 2, "arcs": 0}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", ["perturbed-doubling", "odometer-deletion"])
def test_cell_evidence_is_swept_once_per_view(name, mode, monkeypatch):
    spec = CATALOG[name]
    cfg = dataclasses.replace(spec.check, horizon=60, tail_window=30)
    calls = []
    build = checkers._compute_pair_table
    monkeypatch.setattr(
        checkers, "_compute_pair_table", lambda *a: calls.append(1) or build(*a)
    )
    sys = _system(spec.build_family(), mode)
    rows = (check_proximal_pairs_density, check_proximal_cell_density, check_li_yorke_cell_density)
    for check in rows:
        fresh = check(_system(spec.build_family(), mode), cfg)
        assert check(sys, cfg).to_json() == fresh.to_json()
    assert len(calls) == 4  # one per fresh family, one for the shared one


def test_pair_rows_sweep_one_table_per_view(monkeypatch):
    # a pair verdict's witness is read from the pair's time-0 distance, so
    # the only sweep in the three pair rows builds the table
    widths = []
    sweep = checkers.orbit_matrix

    def counted(sys, coords, *args):
        widths.append((_mode(sys), len(coords)))
        return sweep(sys, coords, *args)

    builds = []
    build = checkers._compute_pair_table
    monkeypatch.setattr(
        checkers, "_compute_pair_table", lambda *a: builds.append(_mode(a[0])) or build(*a)
    )
    spec = CATALOG["odometer-deletion"]
    for mode in MODES:
        sys = _system(spec.build_family(), mode)
        monkeypatch.setattr(checkers, "orbit_matrix", counted)
        for check in (
            check_proximal_pairs_density, check_proximal_cell_density, check_li_yorke_cell_density
        ):
            check(sys, spec.check)
        monkeypatch.setattr(checkers, "orbit_matrix", sweep)
    assert builds == list(MODES)
    assert [mode for mode, _ in widths] == list(MODES)
    builds.clear()
    run_comparison(spec)
    assert sorted(builds) == sorted(MODES)


@pytest.mark.parametrize("name", ["perturbed-doubling", "odometer-deletion"])
def test_cloud_diameters_match_pairwise_loop(name):
    spec = CATALOG[name]
    fam = spec.build_family()
    kind = fam.space.kind
    center = checker_grid(fam.space, spec.check)[3:4]
    for count in (1, 2, 5, 9):
        (cloud,) = ball_coords(fam.space, center, spec.check.eps, count)
        orbits = orbit_matrix(fam, cloud, 50)
        want = np.zeros(51)
        for i in range(len(cloud)):
            for j in range(i + 1, len(cloud)):
                want = np.maximum(want, coord_distances(kind, orbits[:, i], orbits[:, j]))
        series = _cloud_diam_series(kind, orbits, [np.arange(len(cloud))])
        assert series.tobytes() == want.tobytes()


def _ref_word_distance(x: BinaryWord, y: BinaryWord) -> float:
    """1/k for the first coordinate k, up to the smaller effective length n, at
    which the words differ; else 0 for identical words and 1/n."""
    n = min(x.effective_length, y.effective_length)
    k = next((i + 1 for i in range(n) if x.bits[i] != y.bits[i]), n)
    return 0.0 if x == y else 1.0 / k


@st.composite
def _binary_cloud(draw):
    """Rows of words drawn from a pool cut from one 63-coordinate base (a
    prefix with one coordinate flipped), so that balls hold identical
    records, equal values of two lengths and first differences past
    coordinate 53; balls are column lists that may repeat a column."""
    base = draw(st.lists(st.integers(0, 1), min_size=63, max_size=63))
    pool = []
    for _ in range(draw(st.integers(1, 5))):
        length = draw(st.one_of(st.just(63), st.integers(1, 63)))
        flip = draw(st.integers(0, length))  # length flips nothing
        bits = base[:flip] + [1 - b for b in base[flip : flip + 1]] + base[flip + 1 : length]
        pool.append(BinaryWord(tuple(bits), draw(st.one_of(st.just(length), st.integers(1, length)))))
    rows, width = draw(st.integers(1, 4)), draw(st.integers(1, 8))
    words = [[draw(st.sampled_from(pool)) for _ in range(width)] for _ in range(rows)]
    cols = draw(st.lists(st.lists(st.integers(0, width - 1), max_size=8), min_size=1, max_size=6))
    return words, [np.array(c, dtype=np.int64) for c in cols]


@settings(max_examples=300, deadline=None)
@given(_binary_cloud())
def test_binary_star_diameters_match_all_pairs(cloud):
    # the binary series measures each ball from its first column only
    words, cols = cloud
    kind = SpaceKind.BINARY_SEQ
    orbits = np.array([point_coords(row, kind) for row in words])
    want = np.zeros((len(cols), len(words)))
    for k, idx in enumerate(cols):
        for t, row in enumerate(words):
            pairs = [(i, j) for i in idx for j in idx]
            want[k, t] = max([_ref_word_distance(row[i], row[j]) for i, j in pairs], default=0.0)
    assert _cloud_diam_series(kind, orbits, cols).tobytes() == want.tobytes()


@pytest.mark.parametrize("name", ["perturbed-doubling", "odometer-deletion", "plateau-tent"])
@pytest.mark.parametrize("block", [0, 5000, 10**9])
def test_batched_cloud_diameters_match_one_ball_at_a_time(monkeypatch, name, block):
    # clouds of several sizes, interleaved, measured in blocks of any size
    spec = CATALOG[name]
    fam = spec.build_family()
    kind = fam.space.kind
    centers = checker_grid(fam.space, spec.check)
    clouds = [
        c for count in (1, 2, 5, 9)
        for c in ball_coords(fam.space, centers[::3], spec.check.eps, count)
    ][::-1]
    orbits, cols = _sweep_groups(_system(fam, "autonomous_limit"), clouds, 40)
    monkeypatch.setattr(checkers, "_DIAM_BLOCK", block)
    batched = _cloud_diam_series(kind, orbits, cols)
    for k, idx in enumerate(cols):
        one = np.zeros(len(orbits))
        for i in range(len(idx)):
            for j in range(i + 1, len(idx)):
                one = np.maximum(one, coord_distances(kind, orbits[:, idx[i]], orbits[:, idx[j]]))
        assert batched[k].tobytes() == one.tobytes()


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
