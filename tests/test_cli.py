"""CLI subcommands and exit codes."""

import dataclasses
import json
import math

import pytest

from nonautodyn import report
from nonautodyn.bounds import deviation_series
from nonautodyn.checkers import checker_grid
from nonautodyn.cli import (
    EXIT_CHECKER_FAILED,
    EXIT_CONFIG,
    EXIT_INCONSISTENT,
    EXIT_OK,
    main,
)
from nonautodyn.space import ResolutionError, coord_point
from nonautodyn.verdict import Outcome


@pytest.fixture
def spec_file(tmp_path):
    doc = {
        "family": {"builtin": "plateau-tent"},
        "check": {
            "horizon": 200, "grid_resolution": 10, "ball_count": 5, "eps": 0.1,
            "delta": 0.25, "tol": 1e-9, "tail_window": 100, "max_period": 6,
            "repetitions": 2,
        },
        "properties": ["sensitivity", "transitivity"],
        "label": "cli-smoke",
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    return path


def test_list(capsys):
    assert main(["list"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "plateau-tent" in out
    assert "sensitivity" in out


def test_run_spec(spec_file, tmp_path, capsys):
    code = main(["run", str(spec_file), "--out", str(tmp_path / "out"), "--format", "csv"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "cli-smoke" in out
    assert (tmp_path / "out" / "cli-smoke.csv").exists()


def test_run_with_overrides(spec_file, capsys):
    code = main(["run", str(spec_file), "--horizon", "150", "--grid", "8"])
    assert code == EXIT_OK
    assert "sensitivity" in capsys.readouterr().out


def test_missing_spec_is_config_error(capsys):
    assert main(["run", "/nonexistent/spec.json"]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_malformed_spec_is_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", str(bad)]) == EXIT_CONFIG


def test_misspelled_check_key_is_config_error(spec_file, capsys):
    doc = json.loads(spec_file.read_text())
    doc["check"]["tail_windw"] = doc["check"].pop("tail_window")
    spec_file.write_text(json.dumps(doc))
    assert main(["run", str(spec_file)]) == EXIT_CONFIG
    assert "tail_windw" in capsys.readouterr().err


def test_string_check_value_is_config_error(spec_file, capsys):
    doc = json.loads(spec_file.read_text())
    doc["check"]["horizon"] = "50"
    spec_file.write_text(json.dumps(doc))
    assert main(["run", str(spec_file)]) == EXIT_CONFIG
    assert "'horizon' must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("max_period", 0), ("repetitions", 0), ("tol", -1)])
def test_bad_period_bound_or_tol_is_config_error(spec_file, capsys, key, value):
    doc = json.loads(spec_file.read_text())
    doc["check"][key] = value
    spec_file.write_text(json.dumps(doc))
    assert main(["check", "periodic_points", str(spec_file)]) == EXIT_CONFIG
    assert key in capsys.readouterr().err


# before, grid_resolution=1 was refused as "must be positive"
@pytest.mark.parametrize(
    "key, value, message",
    [
        ("horizon", 0, "need horizon >= 1, got horizon=0"),
        ("grid_resolution", 1, "need grid_resolution >= 2, got grid_resolution=1"),
        ("ball_count", 0, "need ball_count >= 1, got ball_count=0"),
    ],
)
def test_size_below_its_bound_is_config_error(spec_file, capsys, key, value, message):
    doc = json.loads(spec_file.read_text())
    doc["check"][key] = value
    spec_file.write_text(json.dumps(doc))
    assert main(["run", str(spec_file)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err


def test_overlong_binary_word_is_config_error(tmp_path, capsys):
    doc = {
        "family": {"builtin": "odometer-deletion", "params": {"word_length": 64}},
        "check": {
            "horizon": 20, "grid_resolution": 4, "ball_count": 3, "eps": 0.2,
            "delta": 0.5, "tail_window": 10, "max_period": 4, "repetitions": 2,
        },
        "properties": ["equicontinuity"],
        "label": "long-words",
    }
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path)]) == EXIT_CONFIG
    assert "word_length=64" in capsys.readouterr().err


# before, each of these limits raised a ValueError or TypeError traceback
@pytest.mark.parametrize(
    "limit",
    [
        {"type": "piecewise_linear", "breakpoints": [[0, "a"], [1, 0]]},
        {"type": "piecewise_linear", "breakpoints": [[0, 0, 0], [1, 0, 1]]},
        {"type": "lookup", "values": 5},
    ],
)
def test_malformed_map_document_is_config_error(tmp_path, capsys, limit):
    doc = {
        "space": {"kind": "unit_interval"},
        "family": {"custom": {"limit": limit}},
        "check": {"horizon": 20, "grid_resolution": 4, "tail_window": 10},
        "properties": ["sensitivity"],
    }
    path = tmp_path / "bad-map.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path)]) == EXIT_CONFIG
    assert f"malformed {limit['type']!r} descriptor" in capsys.readouterr().err


# before, these labels ran with exit 0 and were written into the report as given
@pytest.mark.parametrize("label", [7, ["a"], None])
def test_custom_family_label_that_is_not_a_string_is_config_error(tmp_path, capsys, label):
    tent = {"type": "piecewise_linear", "breakpoints": [[0, 0], [0.5, 1], [1, 0]]}
    doc = {
        "space": {"kind": "unit_interval"},
        "family": {"custom": {"limit": tent, "label": label}},
        "check": {"horizon": 20, "grid_resolution": 4, "tail_window": 10},
        "properties": ["sensitivity"],
    }
    path = tmp_path / "bad-label.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path)]) == EXIT_CONFIG
    assert f"custom family label must be a string, got {label!r}" in capsys.readouterr().err


def test_config_over_memory_budget_is_refused_before_any_work(monkeypatch, capsys):
    # 4,096 centers would ask for about 3.4 GB of hits; the hypothesis
    # profile is the first work a report does, so it must never start
    def no_work(*args, **kwargs):
        raise AssertionError("the report started before the preflight")

    monkeypatch.setattr(report, "profile_hypotheses", no_work)
    assert main(["reproduce", "odometer-deletion", "--grid", "12"]) == EXIT_CONFIG
    assert "budget" in capsys.readouterr().err


@pytest.mark.parametrize("error", [KeyError("no such field"), ResolutionError("no coordinate left")])
def test_program_error_after_the_config_exits_4(monkeypatch, capsys, error):
    # the spec loads, builds and validates, so a later failure is the program's
    def broken(*args):
        raise error

    monkeypatch.setattr(report, "_bound_summary", broken)
    assert main(["reproduce", "sens", "--horizon", "150"]) == EXIT_CHECKER_FAILED
    err = capsys.readouterr().err
    assert f"{type(error).__name__}: {error}" in err and "config error" not in err


def _no_work(monkeypatch):
    """Make the hypothesis profile, the first work a report does, fail loudly."""
    def no_work(*args, **kwargs):
        raise AssertionError("the report started before the spec was checked")

    monkeypatch.setattr(report, "profile_hypotheses", no_work)


@pytest.mark.parametrize("formats", [["xml"], "json", ["json", "yaml"], {"json": 1}])
def test_unknown_output_format_is_refused_before_any_work(
    spec_file, tmp_path, monkeypatch, capsys, formats
):
    _no_work(monkeypatch)
    doc = json.loads(spec_file.read_text())
    doc["output"] = {"dir": str(tmp_path / "out"), "formats": formats}
    spec_file.write_text(json.dumps(doc))
    assert main(["run", str(spec_file)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "output formats must be a list of ['json', 'csv', 'plotdata']" in err
    assert not (tmp_path / "out").exists()


def test_properties_as_a_string_names_the_expected_list(spec_file, monkeypatch, capsys):
    _no_work(monkeypatch)
    doc = json.loads(spec_file.read_text())
    doc["properties"] = "sensitivity"
    spec_file.write_text(json.dumps(doc))
    assert main(["run", str(spec_file)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "a list of property names, got 'sensitivity'" in err and "'s'" not in err


#: a custom family on the unit interval whose limit is the tent map
TENT_DOC = {"type": "piecewise_linear", "breakpoints": [[0, 0], [0.5, 1], [1, 0]]}
CUSTOM = {"space": {"kind": "unit_interval"}, "family": {"custom": {"limit": TENT_DOC}}}


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"output": ["json"]}, "output must be an object, got ['json']"),
        ({"family": "plateau-tent"}, "family must be an object, got 'plateau-tent'"),
        ({"seed": "x"}, "seed must be an integer, got 'x'"),
        ({"properties": [{"a": 1}]}, "list of property names, got [{'a': 1}]"),
        (None, "a scenario spec must be an object, got [1, 2]"),
        ({"family": {"builtin": "plateau-tent", "params": [1]}}, "family params must be an object"),
        ({"check": [1]}, "check must be an object, got [1]"),
        ({**CUSTOM, "family": {"custom": [1]}}, "custom family must be an object, got [1]"),
        ({**CUSTOM, "space": "circle"}, "space must be an object, got 'circle'"),
        (
            {**CUSTOM, "family": {"custom": {"limit": [1]}}},
            "custom limit must be an object, got [1]",
        ),
        (
            {**CUSTOM, "family": {"custom": {"steps": {"a": 1}, "limit": TENT_DOC}}},
            "custom steps must be a list of map descriptors, got {'a': 1}",
        ),
        (
            {
                "space": {"kind": "binary_seq", "word_length": "x"},
                "family": {"custom": {"limit": {"type": "odometer_add"}}},
            },
            "word_length must be an integer, got 'x'",
        ),
        (
            {"family": {"builtin": "odometer-deletion", "params": {"word_length": "x"}}},
            "word_length must be an integer, got 'x'",
        ),
        (
            {"family": {"builtin": "odometer-deletion", "params": {"word_length": True}}},
            "word_length must be an integer, got True",
        ),
        (
            {"family": {"builtin": "alternating-rotation", "params": {"alpha": "1.5"}}},
            "alpha must be a real number, got '1.5'",
        ),
        (
            {"family": {"builtin": "alternating-rotation", "params": {"alpha": math.inf}}},
            "alpha must be a real number, got inf",
        ),
        # an unknown param is not ignored: a typo would run the default family
        (
            {"family": {"builtin": "alternating-rotation", "params": {"beta": 1}}},
            "unknown params for builtin family 'alternating-rotation': ['beta']",
        ),
        (
            {"family": {"builtin": "alternating-rotation", "params": {"alpah": 1.1}}},
            "unknown params for builtin family 'alternating-rotation': ['alpah']",
        ),
        (
            {"family": {"builtin": "plateau-tent", "params": {"alpha": 1.1}}},
            "unknown params for builtin family 'plateau-tent': ['alpha']",
        ),
        ({"output": {"dir": 5}}, "output dir must be a string, got 5"),
        # the label is the stem of every file the report writes
        ({"label": [1]}, "label must be a file name without a path separator, got [1]"),
        ({"label": ""}, "label must be a file name without a path separator, got ''"),
        ({"label": "."}, "label must be a file name without a path separator, got '.'"),
        ({"label": ".."}, "label must be a file name without a path separator, got '..'"),
        (
            {"label": "a/b", "output": {"dir": "o"}},
            "label must be a file name without a path separator, got 'a/b'",
        ),
    ],
    ids=[
        "output", "family", "seed", "properties", "top-level", "params", "check",
        "custom", "space", "limit", "steps", "space-word-length", "builtin-word-length",
        "bool-word-length", "alpha", "infinite-alpha", "unknown-param", "misspelled-param",
        "param-of-another-family", "output-dir", "label-list", "label-empty", "label-dot",
        "label-dot-dot", "label-with-separator",
    ],
)
def test_spec_of_the_wrong_shape_exits_3(spec_file, monkeypatch, capsys, fields, message):
    # None stands for a document that is a list, not an object
    _no_work(monkeypatch)
    doc = json.loads(spec_file.read_text())
    spec_file.write_text(json.dumps([1, 2] if fields is None else {**doc, **fields}))
    assert main(["run", str(spec_file)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error: " in err and message in err and "Traceback" not in err


def test_unknown_example_id(capsys):
    assert main(["reproduce", "not-a-scenario"]) == EXIT_CONFIG


def test_reproduce_with_small_overrides(capsys):
    code = main(["reproduce", "sens", "--horizon", "150"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "plateau-tent" in out


def test_bound_subcommand(spec_file, capsys):
    spec = report.ScenarioSpec.from_json(json.loads(spec_file.read_text()))
    fam = spec.build_family()
    x0 = coord_point(checker_grid(fam.space, spec.check)[0], fam.space.kind)
    for n in (0, 1):
        assert main(["bound", str(spec_file), "--n", str(n), "--k", "2"]) == EXIT_OK
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert {"measured", "bound", "holds", "n", "k"} <= set(doc)
        assert doc["n"] == n and doc["k"] == 2
        # the last record of the window's series, written by json.dumps
        rec = deviation_series(fam, x0, 2, spec.check.tol, n)[-1]
        assert out == json.dumps(rec.to_json(), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "window",
    [["--k", "0"], ["--k", "-3"], ["--n", "-1"], ["--n", "2", "--k", "0"]],
    ids=["k0", "k-3", "n-1", "n2-k0"],
)
def test_bound_with_an_empty_or_negative_window_exits_3(spec_file, capsys, window):
    assert main(["bound", str(spec_file), *window]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "config error: bound needs --k >= 1 and --n >= 0" in captured.err
    assert "Traceback" not in captured.err and not captured.out


def test_check_subcommand(spec_file, capsys):
    assert main(["check", "equicontinuity", str(spec_file)]) == EXIT_OK
    assert "equicontinuity" in capsys.readouterr().out


def test_check_prints_one_record_per_system(spec_file, capsys):
    assert main(["check", "sensitivity", str(spec_file)]) == EXIT_OK
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()[-2:]]
    assert [r["mode"] for r in records] == ["non_autonomous", "autonomous_limit"]
    assert all(r["property"] == "sensitivity" for r in records)


def test_check_unknown_property(spec_file, capsys):
    assert main(["check", "nope", str(spec_file)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: unknown property 'nope'; known: ")
    assert not captured.out


@pytest.mark.parametrize(
    "argv",
    [["reproduce", "plateau-tent", "--horizon", "abc"], ["reproduce", "sens", "--bogus"], []],
    ids=["not-an-integer", "unknown-flag", "no-subcommand"],
)
def test_usage_error_exits_3(capsys, argv):
    # exit 2 means an inconsistent report row, so a usage error is a config error
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "usage: nonautodyn" in captured.err and "error: " in captured.err
    assert not captured.out


def test_help_exits_0(capsys):
    assert main(["--help"]) == EXIT_OK
    assert "usage: nonautodyn" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["bound", "check"])
@pytest.mark.parametrize("flag", ["--out", "--format"])
def test_only_run_and_reproduce_take_output_flags(spec_file, tmp_path, capsys, command, flag):
    argv = [command, *(["sensitivity"] if command == "check" else []), str(spec_file)]
    value = str(tmp_path / "out") if flag == "--out" else "csv"
    assert main([*argv, flag, value]) == EXIT_CONFIG
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_inconsistency_exit_code():
    # synthetic: the exit path flags definite opposite verdicts under an
    # applicable rule
    from nonautodyn.report import ComparisonRow, _consistent, PROPERTY_BY_NAME
    from nonautodyn.verdict import holds, refuted

    rule = PROPERTY_BY_NAME["sensitivity"]
    ok, _ = _consistent(rule, holds({}), refuted({}), applicable=True)
    assert not ok
    row = ComparisonRow(
        property="sensitivity",
        rule_id=rule.rule_id,
        verdict_nonautonomous=holds({}),
        verdict_limit=refuted({}),
        theorem_applicable=True,
        consistent=ok,
        note="synthetic",
    )
    assert not row.consistent
    assert EXIT_INCONSISTENT == 2


@pytest.mark.parametrize("command", ["run", "check"])
def test_crashed_checker_exits_4(spec_file, monkeypatch, capsys, command):
    def boom(sys, cfg):
        raise RuntimeError("boom")

    rule = report.PROPERTY_BY_NAME["sensitivity"]
    monkeypatch.setitem(
        report.PROPERTY_BY_NAME, "sensitivity", dataclasses.replace(rule, runner=boom)
    )
    argv = ["run", str(spec_file)] if command == "run" else ["check", "sensitivity", str(spec_file)]
    assert main(argv) == EXIT_CHECKER_FAILED
    assert "[XXX] sensitivity" in capsys.readouterr().out

    spec = report.ScenarioSpec.from_json(json.loads(spec_file.read_text()))
    row = report.run_comparison(spec).rows[0]
    assert row.verdict_nonautonomous.witness == {"error": "RuntimeError: boom"}
    # its own outcome, which no reader takes for a finite-horizon result
    assert row.verdict_nonautonomous.outcome is Outcome.ERROR
    assert row.to_json()["verdict_limit"]["outcome"] == "error"
    assert report.run_comparison(spec).any_checker_failed
    assert not row.consistent
    assert "a checker failed" in row.note
