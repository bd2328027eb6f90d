"""Comparison reports: applicability, consistency, emission, determinism."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonautodyn.checkers import CheckConfig
from nonautodyn.report import (
    ALIASES,
    ALL_PROPERTIES,
    CATALOG,
    PropertyRule,
    ScenarioSpec,
    _consistent,
    emit,
    golden_path,
    json_text,
    resolve_scenario_id,
    run_comparison,
)
from nonautodyn.space import SpaceError
from nonautodyn.verdict import Outcome, holds, inconclusive, refuted


def small_spec(builtin, properties, **check_overrides):
    check = {
        "horizon": 300, "grid_resolution": 10, "ball_count": 7, "eps": 0.1,
        "delta": 0.25, "tol": 1e-9, "tail_window": 100, "max_period": 6,
        "repetitions": 2,
    }
    check.update(check_overrides)
    return ScenarioSpec.from_json(
        {
            "family": {"builtin": builtin},
            "check": check,
            "properties": list(properties),
            "label": f"test-{builtin}",
        }
    )


class TestApplicability:
    def test_plateau_sensitivity_rule_idle(self):
        spec = small_spec("plateau-tent", ["sensitivity"])
        report = run_comparison(spec)
        row = report.rows[0]
        assert row.property == "sensitivity"
        assert not row.theorem_applicable  # feeble openness refuted
        assert row.verdict_limit.holds and row.verdict_nonautonomous.refuted
        assert row.consistent

    def test_inverse_square_equicontinuity_rule_applies(self):
        spec = small_spec("inverse-square-rotation", ["equicontinuity"])
        report = run_comparison(spec)
        row = report.rows[0]
        assert row.theorem_applicable
        assert row.verdict_limit.holds and row.verdict_nonautonomous.holds
        assert row.consistent

    def test_one_directional_transfer(self):
        spec = small_spec(
            "inverse-square-rotation", ["periodic_points", "dense_periodicity"],
            max_period=20, repetitions=3,
        )
        report = run_comparison(spec)
        for row in report.rows:
            assert row.verdict_nonautonomous.refuted
            assert row.verdict_limit.holds
            assert row.theorem_applicable
            assert row.consistent  # transfer is one-directional


class TestConsistencyRules:
    RULE = PropertyRule("p", "p-equivalence", lambda s, c: None)
    ONE_WAY = PropertyRule("p", "p-transfer", lambda s, c: None, one_directional=True)

    def test_opposite_definite_verdicts_inconsistent(self):
        ok, _ = _consistent(self.RULE, holds({}), refuted({}), applicable=True)
        assert not ok

    def test_inconclusive_constrains_nothing(self):
        ok, _ = _consistent(self.RULE, inconclusive({}), refuted({}), applicable=True)
        assert ok

    def test_not_applicable_never_inconsistent(self):
        ok, _ = _consistent(self.RULE, holds({}), refuted({}), applicable=False)
        assert ok

    def test_one_directional_allows_limit_only_verdicts(self):
        ok, _ = _consistent(self.ONE_WAY, refuted({}), holds({}), applicable=True)
        assert ok
        ok, _ = _consistent(self.ONE_WAY, holds({}), refuted({}), applicable=True)
        assert not ok


class TestScenarioSpec:
    def test_unknown_property_rejected(self):
        with pytest.raises(SpaceError):
            small_spec("plateau-tent", ["nonsense"])

    def test_all_properties_keyword(self):
        spec = ScenarioSpec.from_json(
            {"family": {"builtin": "plateau-tent"}, "check": {}, "properties": "all"}
        )
        assert spec.properties == ALL_PROPERTIES

    def test_config_hash_stable_and_sensitive(self):
        a = small_spec("plateau-tent", ["sensitivity"])
        b = small_spec("plateau-tent", ["sensitivity"])
        c = small_spec("plateau-tent", ["transitivity"])
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()

    def test_resolve_aliases(self):
        assert resolve_scenario_id("eqex") == "alternating-rotation"
        assert resolve_scenario_id("sens") == "plateau-tent"
        with pytest.raises(SpaceError):
            resolve_scenario_id("unknown-thing")


class TestEmission:
    def test_json_round_trip(self, tmp_path):
        spec = small_spec("plateau-tent", ["sensitivity"])
        report = run_comparison(spec)
        (path,) = emit(report, "json", tmp_path)
        assert json.loads(path.read_text()) == report.to_json()

    def test_csv_rows(self, tmp_path):
        spec = small_spec("plateau-tent", ["sensitivity", "transitivity"])
        report = run_comparison(spec)
        (path,) = emit(report, "csv", tmp_path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("property,rule,")
        assert len(lines) == 3

    def test_header_only_csv_for_empty_properties(self, tmp_path):
        spec = small_spec("plateau-tent", [])
        report = run_comparison(spec)
        (path,) = emit(report, "csv", tmp_path)
        assert path.read_text().splitlines() == [
            "property,rule,verdict_nonautonomous,verdict_limit,theorem_applicable,consistent"
        ]

    def test_plotdata_files(self, tmp_path):
        spec = small_spec("inverse-square-rotation", ["equicontinuity"])
        report = run_comparison(spec)
        paths = emit(report, "plotdata", tmp_path)
        names = sorted(p.name for p in paths)
        assert names == [
            "test-inverse-square-rotation_ball_diameter.csv",
            "test-inverse-square-rotation_collective_tail.csv",
            "test-inverse-square-rotation_deviation.csv",
        ]
        dev = paths[0].read_text().splitlines()
        assert dev[0] == "k,measured,bound"
        assert len(dev) > 10

    def test_unknown_format(self, tmp_path):
        spec = small_spec("plateau-tent", [])
        report = run_comparison(spec)
        with pytest.raises(SpaceError):
            emit(report, "yaml", tmp_path)


class TestDeterminism:
    def test_reports_byte_identical(self):
        spec = small_spec("plateau-tent", ["sensitivity", "periodic_points"])
        a = run_comparison(spec).to_json_text()
        b = run_comparison(spec).to_json_text()
        assert a == b

    def test_deviation_series_converges_to_series_limit(self):
        # the plotted bound column approaches the closed-form series limit
        spec = small_spec("inverse-square-rotation", [])
        report = run_comparison(spec)
        bounds = report.plot_series["deviation_bound"]["bound"]
        assert bounds[-1] == pytest.approx(
            sum(1 / n**2 for n in range(1, len(bounds) + 1)), abs=1e-12
        )
        assert bounds[-1] < math.pi**2 / 6


class TestCatalog:
    def test_catalog_complete(self):
        assert set(CATALOG) == {
            "alternating-rotation", "inverse-square-rotation", "perturbed-doubling",
            "plateau-tent", "odometer-deletion",
        }
        assert set(ALIASES.values()) == set(CATALOG)

    def test_golden_paths_exist(self):
        for key in CATALOG:
            assert golden_path(key).exists()

    def test_checker_failures_recorded_not_raised(self):
        # a config that breaks one checker must still produce a report row
        spec = ScenarioSpec(
            family_config={"builtin": "plateau-tent"},
            check=CheckConfig(
                horizon=50, grid_resolution=10, ball_count=7, eps=0.1, delta=0.25,
                tail_window=20, max_period=40, repetitions=10,
            ),
            properties=("periodic_points",),
            label="stress",
        )
        report = run_comparison(spec)
        assert len(report.rows) == 1  # row present regardless of outcome


def _plain(obj):
    """The reference conversion for json_text: str keys, numpy scalars as
    Python values, Outcome members as their values; json.dumps does the rest."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, Outcome):
        return obj.value
    return obj


FLOATS = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16])
INTS = st.integers() | st.integers(min_value=2**63).map(lambda n: n * 7**40)
TEXT = st.text(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f aZ\u00e9\u2028\U0001d53d') | st.characters())
SCALARS = st.one_of(
    st.none(), st.booleans(), INTS, FLOATS, TEXT,
    FLOATS.map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(-2**63, 2**63 - 1).map(np.int64), st.booleans().map(np.bool_),
    st.sampled_from(Outcome),
)
# lists of one scalar type take the writer's join, [1, 1.0, True] the walk
SCALAR_LISTS = st.one_of(
    st.lists(FLOATS), st.lists(st.booleans()), st.lists(INTS), st.lists(TEXT),
    st.lists(st.none()), st.just([1, 1.0, True]), st.just([math.nan, 1.0]),
)
KEYS = TEXT | st.integers(-20, 20) | st.booleans() | st.sampled_from(Outcome)
DOCS = st.recursive(
    SCALARS | SCALAR_LISTS,
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(KEYS, inner, max_size=5),
    max_leaves=25,
)


@settings(max_examples=400, deadline=None)
@given(DOCS)
def test_json_text_matches_json_dumps(doc):
    assert json_text(doc) == json.dumps(_plain(doc), sort_keys=True, indent=2)
