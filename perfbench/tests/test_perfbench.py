"""Tests of the benchmark itself: its inputs, its checks and its tracer.

    python3 -m pytest perfbench/tests -q
"""

import copy
import json
import math
import warnings
from pathlib import Path

import pytest

from checks import check_report
from tracer import METRICS, Tracer
from workloads import GOLDEN_ALPHA, WORKLOADS, rotation_angle

from nonautodyn import report
from nonautodyn.family import make_builtin_family

GOLDENS = Path(report.__file__).parent / "goldens"
CATALOG_WORKLOADS = ("catalog-rotations", "catalog-expanding", "catalog-odometer")


def _seed0_doc(label):
    for name in CATALOG_WORKLOADS:
        for doc in WORKLOADS[name](0):
            if doc["label"] == label:
                return doc
    raise KeyError(label)


def _report(label):
    return json.loads((GOLDENS / f"{label}.json").read_text())


@pytest.mark.parametrize("label", sorted(report.CATALOG))
def test_seed_zero_gives_the_pinned_catalog_config(label):
    spec = report.ScenarioSpec.from_json(_seed0_doc(label))
    assert spec.to_json() == report.CATALOG[label].to_json()
    assert spec.config_hash() == report.CATALOG[label].config_hash()


@pytest.mark.parametrize("label", sorted(report.CATALOG))
def test_known_good_reports_pass(label):
    result = check_report(_seed0_doc(label), _report(label))
    assert result.problems == []
    assert (result.attempted, result.failed) == (25, 0)


def _row(rep, prop):
    return next(r for r in rep["rows"] if r["property"] == prop)


def _rejected(label, rep):
    return check_report(_seed0_doc(label), rep).problems


def test_altered_witness_time_is_rejected():
    rep = _report("perturbed-doubling")
    _row(rep, "equicontinuity")["verdict_nonautonomous"]["witness"]["time"] += 1
    assert any("separation" in p for p in _rejected("perturbed-doubling", rep))


def test_altered_separation_is_rejected():
    rep = _report("plateau-tent")
    _row(rep, "equicontinuity")["verdict_limit"]["witness"]["separation"] *= 1.001
    assert any("separation" in p for p in _rejected("plateau-tent", rep))


def test_altered_deviation_value_is_rejected():
    rep = _report("inverse-square-rotation")
    rep["bound_summary"]["deviation_records"][9]["measured"] += 1e-9
    problems = _rejected("inverse-square-rotation", rep)
    assert any("deviation[k=10]" in p for p in problems)


def test_altered_revisit_gap_and_period_are_rejected():
    rep = _report("perturbed-doubling")
    witness = _row(rep, "periodic_points")["verdict_limit"]["witness"]["witness"]
    bad_gap = copy.deepcopy(rep)
    _row(bad_gap, "periodic_points")["verdict_limit"]["witness"]["witness"]["revisit_gaps"][0] += 1e-6
    assert _rejected("perturbed-doubling", bad_gap)
    bad_period = copy.deepcopy(rep)
    _row(bad_period, "periodic_points")["verdict_limit"]["witness"]["witness"]["period"] = (
        witness["period"] + 1
    )
    assert _rejected("perturbed-doubling", bad_period)


def test_verdict_against_known_truth_is_rejected():
    rep = _report("inverse-square-rotation")
    _row(rep, "periodic_points")["verdict_limit"]["outcome"] = "refuted"
    assert any("known truth" in p for p in _rejected("inverse-square-rotation", rep))


def test_inconsistent_row_is_rejected():
    rep = _report("alternating-rotation")
    _row(rep, "sensitivity")["consistent"] = False
    assert _rejected("alternating-rotation", rep)


def test_checker_error_counts_as_failed():
    rep = _report("odometer-deletion")
    _row(rep, "minimality")["verdict_limit"] = {
        "outcome": "inconclusive", "witness": {"error": "RuntimeError: boom"}, "narrative": "",
    }
    result = check_report(_seed0_doc("odometer-deletion"), rep)
    assert (result.attempted, result.failed) == (25, 1)


def test_drawn_angles_avoid_small_denominator_rationals():
    assert rotation_angle(0) == GOLDEN_ALPHA
    for seed in range(1, 40):
        alpha = rotation_angle(seed)
        assert alpha == rotation_angle(seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            make_builtin_family("alternating-rotation", alpha=alpha)
        u = alpha / (2 * math.pi)
        assert min(abs(u - round(u * q) / q) * q * q for q in range(1, 65)) > 0.2


def test_tabulated_tables_follow_the_seed():
    assert WORKLOADS["tabulated-maps"](3) == WORKLOADS["tabulated-maps"](3)
    assert WORKLOADS["tabulated-maps"](3) != WORKLOADS["tabulated-maps"](4)
    for doc in WORKLOADS["tabulated-maps"](3):
        spec = report.ScenarioSpec.from_json(doc)
        spec.check.validate(spec.build_family().space)


def _small_spec():
    doc = _seed0_doc("plateau-tent")
    doc = {**doc, "check": {**doc["check"], "horizon": 40, "grid_resolution": 5, "tail_window": 20}}
    return report.ScenarioSpec.from_json(doc)


def test_tracer_counts_repeat_and_uninstall_restores():
    spec = _small_spec()
    before = (report.run_comparison, dict(report.PROPERTY_BY_NAME))
    plain = report.run_comparison(spec).to_json_text()
    runs = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            text = report.run_comparison(spec).to_json_text()
        finally:
            tracer.uninstall()
        assert text == plain
        runs.append(tracer.metrics())
        assert tracer.spans and all(s[2] >= s[1] for s in tracer.spans)
    assert (report.run_comparison, dict(report.PROPERTY_BY_NAME)) == before
    assert set(runs[0]) == set(METRICS)
    counts = [n for n, unit in METRICS.items() if unit == "count"]
    assert [runs[0][n] for n in counts] == [runs[1][n] for n in counts]
    assert runs[0]["report.rows"] == 12
    assert runs[0]["region_chain.steps"] > 0
    assert runs[0]["space.binary_words_built"] == 0
