"""Scenario runner: schema rejection, serialization, exit codes, determinism."""

import copy
import json
import math
import random
import runpy
import shutil
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import expbases
from expbases import cli, paley_wiener
from expbases.cli import (
    COMMANDS,
    SchemaError,
    dumps_report,
    main,
    report_csv,
    run_scenario,
    write_text_atomic,
)
from expbases.domain import NODE_CAP
from expbases.tiling import GROUP_ORDER_CAP, SEARCH_BUDGET


def bounds_scenario(**extra):
    scenario = {
        "name": "unit band lattice",
        "command": "bounds",
        "parameters": {
            "domain": {"boxes": [[-0.5, 0.5]]},
            "freqs": {"range": [-2, 2]},
        },
        "expect": {"is_onb": True, "is_riesz_basis": True},
    }
    scenario.update(extra)
    return scenario


MASK_BAND = {"mask": {"origin": [-0.5], "counts": [2], "widths": [0.5],
                      "included": [True, True]}}


def tiling_scenario(expect_tiling):
    return {
        "name": "interval cover",
        "command": "tiling",
        "parameters": {
            "moduli": [4],
            "mode": "check_tiling",
            "pattern": [0, 1],
            "candidate": [0, 1],
        },
        "expect": {"is_tiling": expect_tiling},
    }


def test_run_scenario_reports_pass():
    report = run_scenario(bounds_scenario(), "bounds")
    assert report["passed"] is True
    assert report["verdicts"] == {
        "is_onb": True, "is_riesz_basis": True, "degenerate": False}
    assert report["results"]["system_size"] == 5
    assert report["tool_version"] == "0.1.0"
    assert all(h["passed"] for h in report["hypothesis_checks"])


def test_version_comes_from_the_package(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["--version"])
    assert stop.value.code == 0
    assert capsys.readouterr().out == f"expbases {expbases.__version__}\n"


def test_run_scenario_failed_expectation_is_not_schema_error():
    report = run_scenario(tiling_scenario(True), "tiling")
    assert report["passed"] is False
    assert report["verdicts"]["is_tiling"] is False


@pytest.mark.parametrize("mutate,fragment", [
    (lambda s: s.pop("name"), "scenario.name"),
    (lambda s: s.update(command="no_such"), "unknown command"),
    (lambda s: s.update(parameters=[]), "scenario.parameters"),
    (lambda s: s["expect"].update(no_such_verdict=True), "unknown verdict"),
    (lambda s: s["expect"].update(is_onb="yes"), "expected bool"),
    (lambda s: s.update(bogus=1), r"scenario\.bogus \(unknown key"),
    (lambda s: s["parameters"].update(nodes_per_axes=3),
     r"scenario\.parameters\.nodes_per_axes \(unknown key"),
    (lambda s: s["parameters"].update(freqs={"points": [[0, 0], [1, 1]]}),
     r"scenario\.parameters\.freqs \(2-dimensional frequencies on a 1-dimensional"),
    pytest.param(lambda s: s["parameters"].update(nodes_per_axis=1),
                 r"scenario\.parameters\.nodes_per_axis applies only", id="nodes-on-boxes"),
    pytest.param(lambda s: s["parameters"].update(
        domain=MASK_BAND, nodes_per_axis=8, weight={"profile": "constant", "value": 2.0}),
                 r"scenario\.parameters\.nodes_per_axis applies only", id="nodes-with-weight"),
])
def test_schema_errors_name_the_offending_path(mutate, fragment):
    scenario = bounds_scenario()
    mutate(scenario)
    with pytest.raises(SchemaError, match=fragment):
        run_scenario(scenario, scenario.get("command", "bounds"))


def test_unknown_expect_names_are_rejected_before_the_solve(tmp_path, capsys, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved a scenario with a misspelt expect key")
    monkeypatch.setattr("expbases.cli.exp_gram", no_solve)
    monkeypatch.setattr("expbases.cli.riesz_bounds", no_solve)
    scenario = bounds_scenario(expect={"is_onbb": True, "is_riesz_basis": True})
    scenario["parameters"]["freqs"] = {"range": [-256, 255]}
    code, err = run_main(tmp_path, capsys, scenario, "bounds")
    assert code == 2
    assert "scenario.expect.is_onbb (unknown verdict, expected one of is_onb," in err
    assert "scenario.expect.is_riesz_basis" not in err


def test_tiling_expect_names_depend_on_the_mode():
    scenario = tiling_scenario(True)
    scenario["expect"] = {"is_spectrum": True}
    with pytest.raises(SchemaError, match=r"scenario\.expect\.is_spectrum \(unknown verdict, "
                       r"expected one of is_tiling\)"):
        run_scenario(scenario, "tiling")
    scenario["parameters"]["mode"] = "check_spectrum"
    assert run_scenario(scenario, "tiling")["verdicts"] == {"is_spectrum": False}
    scenario["expect"] = {"is_spectrum": True, "bogus": False}
    with pytest.raises(SchemaError) as rejected:
        run_scenario(scenario, "tiling")
    assert rejected.value.paths == (
        "scenario.expect.bogus (unknown verdict, expected one of is_spectrum)",)
    # Parameters that are rejected build no mode, so the names cannot be
    # known and any passes; what is named is the parameter.
    scenario["parameters"]["mode"] = ["check_spectrum"]
    with pytest.raises(SchemaError) as rejected:
        run_scenario(scenario, "tiling")
    assert rejected.value.paths == (
        "scenario.parameters.mode (unknown mode ['check_spectrum'], expected one of "
        "check_tiling, check_spectrum, search_complements, search_spectra)",)
    scenario["parameters"].update(mode="check_spectrum", pattern=[0, 7])
    with pytest.raises(SchemaError) as rejected:
        run_scenario(scenario, "tiling")
    assert rejected.value.paths == (
        "scenario.parameters.pattern (pattern indices must lie in [0, 4))",)


def declared_verdicts(scenario):
    names = COMMANDS[scenario["command"]].verdicts
    return names[scenario["parameters"]["mode"]] if isinstance(names, dict) else names


def benchmark_scenarios():
    """The shipped scenarios and one round of every benchmark workload, seed 1."""
    root = Path(__file__).resolve().parent.parent
    workloads = runpy.run_path(str(root / "perfbench" / "workloads.py"))
    out = workloads["small_scenarios"](random.Random("small_scenarios:1"),
                                       str(root / "scenarios"))
    for name in ("dense_grams", "tiling_search"):
        out += workloads[name](random.Random(f"{name}:1"))
    return out


@pytest.fixture(scope="module")
def report_of_each_kind():
    """(scenario, report) for the first benchmark scenario of each command
    and tiling mode. Verdict and results names depend only on those, so
    one solve of each kind the benchmark runs is enough."""
    reports = {}
    for scenario in benchmark_scenarios():
        kind = (scenario["command"], scenario["parameters"].get("mode"))
        if kind not in reports:
            reports[kind] = (scenario, run_scenario(scenario, scenario["command"]))
    return reports


def test_every_runner_returns_exactly_its_declared_verdicts(report_of_each_kind):
    names = {s["name"] for s in benchmark_scenarios()}
    assert names >= {json.loads(p.read_text())["name"] for p in SHIPPED}
    for scenario, report in report_of_each_kind.values():
        assert tuple(report["verdicts"]) == declared_verdicts(scenario), scenario["name"]
    assert set(report_of_each_kind) == {(c, None) for c in COMMANDS if c != "tiling"} | {
        ("tiling", mode) for mode in COMMANDS["tiling"].verdicts}


SANDWICH_KEYS = {"predicted_lower", "predicted_upper", "lower_margin", "upper_margin"}
SEARCH_KEYS = {"found", "n_found", "examined", "note"}

# The results keys of each command and tiling mode, as the reports have
# always carried them.
RESULTS_KEYS = {
    ("bounds", None): {"lower", "upper", "certificate_margin", "condition", "verdict",
                       "onb_deviation", "provenance", "system_size", "domain_measure"},
    ("transfer", None): SANDWICH_KEYS | {
        "exp_lower", "exp_upper", "exp_certificate_margin", "translation_lower",
        "translation_upper", "translation_certificate_margin", "inf_modulus", "sup_modulus",
        "resolution_flagged"},
    ("frame-transfer", None): SANDWICH_KEYS | {
        "weighted_lower", "weighted_upper", "weighted_certificate_margin", "unweighted_lower",
        "unweighted_upper", "unweighted_certificate_margin", "weight_floor_sq",
        "weight_ceil_sq", "space_dim", "n_vectors", "support_is_proper", "note"},
    ("tiling", "check_tiling"): {"uncovered", "collisions"},
    ("tiling", "check_spectrum"): {"defect", "tolerance", "sizes_match"},
    ("tiling", "search_complements"): SEARCH_KEYS,
    ("tiling", "search_spectra"): SEARCH_KEYS,
    ("cube-check", None): {"side", "dual_side", "n_complements", "n_spectra", "complements",
                           "spectra"},
    ("sample", None): {"signal_energy", "truncations"},
    ("gabor", None): {"gabor_deviation", "modulation_deviation", "translation_deviation",
                      "window_normalized", "system_order", "note"},
    ("periodization", None): {"sup_deviation", "gram_deviation", "tol", "gram_tol",
                              "resolution"},
    ("factorization", None): {"residual", "quotient_norm", "norm_bound", "signal_norm"},
}


def test_every_runner_returns_exactly_its_listed_results_keys(report_of_each_kind):
    assert set(report_of_each_kind) == set(RESULTS_KEYS)
    for kind, (scenario, report) in report_of_each_kind.items():
        assert set(report["results"]) == RESULTS_KEYS[kind], scenario["name"]


def test_reports_carry_the_certificate_margins():
    band = {"boxes": [[-0.5, 0.5]]}
    weight = {"profile": "affine", "offset": 2.0, "gradient": [1.0], "nodes_per_axis": 16}
    cases = [
        ("bounds", bounds_scenario(), ["certificate_margin"]),
        ("transfer", {"name": "t", "command": "transfer", "parameters": {
            "domain": band, "freqs": {"range": [-3, 3]}, "weight": weight}},
         ["exp_certificate_margin", "translation_certificate_margin"]),
        ("frame-transfer", {"name": "f", "command": "frame-transfer", "parameters": {
            "domain": band, "freqs": {"range": [-3, 3]}, "weight": weight}},
         ["weighted_certificate_margin", "unweighted_certificate_margin"]),
    ]
    for command, scenario, keys in cases:
        report = run_scenario(scenario, command)
        for key in keys:
            assert 0.0 < report["results"][key] < 1e-12, (command, key)
        assert all(h["name"] != "system_size_within_cap" for h in report["hypothesis_checks"])


def test_declared_command_must_match_invocation():
    with pytest.raises(SchemaError, match="invoked as"):
        run_scenario(bounds_scenario(), "tiling")


def test_seed_override_lands_in_report():
    report = run_scenario(bounds_scenario(), "bounds", seed_override=99)
    assert report["seed"] == 99


def test_reports_identical_up_to_wall_time():
    a = dumps_report(run_scenario(bounds_scenario(), "bounds"))
    b = dumps_report(run_scenario(bounds_scenario(), "bounds"))
    strip = lambda text: [ln for ln in text.splitlines() if "wall_time_s" not in ln]
    assert strip(a) == strip(b)


def test_dumps_report_layout():
    text = dumps_report({"b": True, "a": [1.5, None], "z": {"im": 0.0}})
    parsed = json.loads(text)
    assert parsed == {"a": [1.5, None], "b": True, "z": {"im": 0.0}}
    # sorted keys, booleans as JSON literals
    assert text.index('"a"') < text.index('"b"') < text.index('"z"')
    assert "true" in text


def test_plain_number_lists_are_written_as_the_items_one_by_one():
    # A list of plain ints, floats and bools is joined in one write; numpy
    # scalars take the item-by-item path, which must give the same bytes.
    assert dumps_report({"a": [1, -2.5, float("nan")], "b": [True, False]}) == (
        '{\n  "a": [\n    1,\n    -2.5,\n    null\n  ],\n  "b": [\n    true,\n    false\n  ]\n}\n')
    values = [0, -7, 2 ** 70, 0.1, -0.0, 1e300, 5e-324, float("inf"), float("-inf"), float("nan")]
    each = [(np.int64(v) if abs(v) < 2 ** 63 else v) if type(v) is int else np.float64(v)
            for v in values]
    flags = [True, False, False, True]
    mixed = [True, 0, -2.5, False, 7]
    for plain, numpy_items in ((values, each), ([3], [np.int64(3)]), ((1.5, 2), (np.float64(1.5), 2)),
                               (flags, [np.bool_(v) for v in flags]),
                               (mixed, [np.bool_(True), np.int64(0), np.float64(-2.5),
                                        np.bool_(False), 7])):
        nested = {"x": {"y": plain}, "z": [plain, plain]}
        assert dumps_report(nested) == dumps_report(
            {"x": {"y": numpy_items}, "z": [numpy_items, numpy_items]})
    assert json.loads(dumps_report({"b": [True, 1, 2.0]}))["b"] == [True, 1, 2.0]


def test_dumps_report_special_values():
    text = dumps_report({
        "nanval": float("nan"),
        "infval": float("inf"),
        "cval": complex(1.0, -2.0),
        "arr": np.array([1.0, 2.0]),
    })
    parsed = json.loads(text)
    assert parsed["nanval"] is None
    assert parsed["infval"] is None
    assert parsed["cval"] == {"im": -2.0, "re": 1.0}
    assert parsed["arr"] == [1.0, 2.0]


@given(st.floats(allow_nan=False, allow_infinity=False))
@settings(max_examples=200, deadline=None)
def test_float_serialization_round_trips(x):
    assert json.loads(dumps_report({"x": x}))["x"] == x


def test_csv_keeps_whitespace_runs_inside_strings():
    report = run_scenario(bounds_scenario(name="unit   band\tlattice"), "bounds")
    assert 'meta,name,"""unit   band\\tlattice"""' in report_csv(report).splitlines()
    assert json.loads(dumps_report(report))["name"] == "unit   band\tlattice"


def test_report_csv_header_and_meta():
    text = report_csv(run_scenario(bounds_scenario(), "bounds"))
    lines = text.splitlines()
    assert lines[0] == "section,key,value"
    # the value column carries JSON tokens, so strings keep their quotes
    assert 'meta,command,"""bounds"""' in lines
    assert "verdicts,is_onb,true" in lines


def test_write_text_atomic_replaces_and_cleans_up(tmp_path):
    target = tmp_path / "deep" / "report.json"
    write_text_atomic(str(target), "first\n")
    write_text_atomic(str(target), "second\n")
    assert target.read_text() == "second\n"
    assert [p.name for p in target.parent.iterdir()] == ["report.json"]


def write_scenario(path, scenario):
    path.write_text(json.dumps(scenario))


def test_main_single_pass_and_output_file(tmp_path, capsys):
    scenario = tmp_path / "a.json"
    write_scenario(scenario, bounds_scenario())
    out = tmp_path / "report.json"
    code = main(["bounds", "--scenario", str(scenario), "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True
    code = main(["bounds", "--scenario", str(scenario)])
    assert code == 0
    assert '"passed": true' in capsys.readouterr().out


def test_main_single_csv_format(tmp_path, capsys):
    scenario = tmp_path / "a.json"
    write_scenario(scenario, bounds_scenario())
    assert main(["bounds", "--scenario", str(scenario), "--format", "csv"]) == 0
    assert capsys.readouterr().out.startswith("section,key,value")


def test_main_exit_codes(tmp_path, capsys):
    failing = tmp_path / "f.json"
    write_scenario(failing, tiling_scenario(True))
    assert main(["tiling", "--scenario", str(failing)]) == 1
    capsys.readouterr()
    assert main(["bounds", "--scenario", str(tmp_path / "missing.json")]) == 2
    err = capsys.readouterr().err
    assert "missing.json" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["bounds", "--scenario", str(bad)]) == 2


@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
@pytest.mark.parametrize("command", ["bounds", "batch"])
def test_tol_must_be_finite_and_not_negative(tmp_path, capsys, command, tol):
    scenario = tmp_path / "runs" / "a.json"
    scenario.parent.mkdir()
    write_scenario(scenario, bounds_scenario())
    out = tmp_path / "out"
    where = (["--dir", str(scenario.parent), "--out-dir", str(out)] if command == "batch"
             else ["--scenario", str(scenario), "--out", str(out)])
    with pytest.raises(SystemExit) as stop:
        main([command, *where, "--tol", tol])
    assert stop.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --tol: must be a finite number >= 0, got '{tol}'" in err
    assert "Traceback" not in err
    assert not out.exists()


def without_wall_time(text):
    return [line for line in text.splitlines() if "wall_time_s" not in line]


def run_calls(calls, out_dir, capsys):
    """(exit status, stdout, stderr, files written to out_dir) of each call
    to main in turn, with wall_time_s lines dropped."""
    seen = []
    for argv in calls:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            code = main(argv)
        except SystemExit as stop:
            code = stop.code
        out, err = capsys.readouterr()
        files = {path.name: without_wall_time(path.read_text())
                 for path in sorted(out_dir.glob("*"))}
        seen.append((code, without_wall_time(out), err, files))
    return seen


def test_main_answers_as_with_a_fresh_parser_on_every_call(tmp_path, capsys, monkeypatch):
    runs = tmp_path / "runs"
    runs.mkdir()
    write_scenario(runs / "01_ok.json", bounds_scenario())
    write_scenario(runs / "02_ok.json", tiling_scenario(False))
    scenario, out = str(runs / "01_ok.json"), tmp_path / "out"
    calls = [
        ["bounds", "--scenario", scenario, "--out", str(out / "report.json")],
        ["bounds", "--scenario", scenario, "--out", str(out / "report.json"), "--tol", "-1"],
        ["bounds", "--scenario", scenario, "--format", "csv"],
        ["batch", "--dir", str(runs), "--out-dir", str(out)],
        ["--version"],
        ["bounds", "--scenario", scenario],
    ]
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_parser", cli.build_parser)
        fresh = run_calls(calls, out, capsys)
    shared = run_calls(calls, out, capsys)
    assert shared == fresh
    assert [code for code, *_ in shared] == [0, 2, 0, 0, 0, 0]
    assert "argument --tol" in shared[1][2]
    assert shared[4][1] == [f"expbases {expbases.__version__}"]
    assert shared[3][3].keys() == {"01_ok.json", "02_ok.json", "summary.csv"}


def test_main_builds_one_parser_for_many_calls(tmp_path, capsys, monkeypatch):
    built = []
    true_build = cli.build_parser

    def build_parser():
        built.append(True)
        return true_build()
    monkeypatch.setattr(cli, "build_parser", build_parser)
    cli._parser.cache_clear()
    scenario = tmp_path / "a.json"
    write_scenario(scenario, bounds_scenario())
    for _ in range(4):
        assert main(["bounds", "--scenario", str(scenario), "--format", "csv"]) == 0
    assert len(built) == 1


def test_build_parser_returns_a_new_parser_that_main_does_not_share(capsys):
    first, second = cli.build_parser(), cli.build_parser()
    assert first is not second
    first.add_argument("--extra")
    argv = ["--extra=1", "bounds", "--scenario", "missing.json"]
    assert first.parse_args(argv).extra == "1"
    for parse in (second.parse_args, main):
        with pytest.raises(SystemExit) as stop:
            parse(argv)
        assert stop.value.code == 2
        assert "unrecognized arguments: --extra=1" in capsys.readouterr().err


TOL_COMMANDS = ("bounds", "gabor", "periodization", "factorization")


@pytest.mark.parametrize("command", COMMANDS)
def test_tol_is_offered_exactly_where_a_command_judges_at_one(command, capsys):
    assert (COMMANDS[command].tol is not None) == (command in TOL_COMMANDS)
    argv = [command, "--scenario", "s.json", "--tol", "1e-3"]
    if command in TOL_COMMANDS:
        assert cli.build_parser().parse_args(argv).tol == 1e-3
        return
    with pytest.raises(SystemExit) as stop:
        cli.build_parser().parse_args(argv)
    assert stop.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --tol 1e-3" in err and "Traceback" not in err


def test_batch_tol_applies_to_the_commands_that_judge_at_one(tmp_path, capsys):
    runs = tmp_path / "runs"
    runs.mkdir()
    transfer = {"name": "t", "command": "transfer",
                "parameters": {"domain": UNIT_BAND, "freqs": {"range": [-2, 2]},
                               "weight": {"profile": "constant", "value": 2.0}}}
    write_scenario(runs / "transfer.json", transfer)
    kadec = bounds_scenario(expect={})
    kadec["parameters"]["freqs"] = {"points": [-1.1, 0.0, 1.2]}
    write_scenario(runs / "bounds.json", kadec)
    with pytest.raises(SystemExit) as stop:
        main(["transfer", "--scenario", str(runs / "transfer.json"), "--tol", "1e-3"])
    assert stop.value.code == 2 and "Traceback" not in capsys.readouterr().err
    reports = {}
    for tol in ([], ["--tol", "10"]):
        out = tmp_path / f"out{len(tol)}"
        assert main(["batch", "--dir", str(runs), "--out-dir", str(out), *tol]) == 0
        reports[len(tol)] = {name: json.loads((out / f"{name}.json").read_text())
                             for name in ("transfer", "bounds")}
    for report in (reports[0]["transfer"], reports[2]["transfer"]):
        report.pop("wall_time_s")
    assert reports[0]["transfer"] == reports[2]["transfer"]
    assert reports[0]["bounds"]["verdicts"]["is_onb"] is False
    assert reports[2]["bounds"]["verdicts"]["is_onb"] is True


def test_a_zero_tol_is_accepted(tmp_path):
    scenario = tmp_path / "a.json"
    write_scenario(scenario, bounds_scenario())
    out = tmp_path / "report.json"
    assert main(["bounds", "--scenario", str(scenario), "--out", str(out), "--tol", "0"]) in (0, 1)
    assert json.loads(out.read_text())["results"]["system_size"] == 5


def test_main_batch_mixed_results(tmp_path, capsys):
    runs = tmp_path / "runs"
    runs.mkdir()
    write_scenario(runs / "01_ok.json", bounds_scenario())
    write_scenario(runs / "02_fail.json", tiling_scenario(True))
    write_scenario(runs / "03_broken.json", {"name": "x"})
    out_dir = tmp_path / "out"
    code = main(["batch", "--dir", str(runs), "--out-dir", str(out_dir)])
    assert code == 2
    rows = (out_dir / "summary.csv").read_text().splitlines()
    assert rows[0] == "scenario,command,passed,note"
    assert rows[1].startswith("01_ok,bounds,true")
    assert rows[2].startswith("02_fail,tiling,false")
    assert rows[3].startswith("03_broken,,error")
    assert (out_dir / "01_ok.json").exists()
    assert not (out_dir / "03_broken.json").exists()


def test_main_batch_failures_without_schema_errors(tmp_path):
    runs = tmp_path / "runs"
    runs.mkdir()
    write_scenario(runs / "01_ok.json", bounds_scenario())
    write_scenario(runs / "02_fail.json", tiling_scenario(True))
    out_dir = tmp_path / "out"
    assert main(["batch", "--dir", str(runs), "--out-dir", str(out_dir)]) == 1


def test_main_batch_empty_dir(tmp_path, capsys):
    runs = tmp_path / "runs"
    runs.mkdir()
    assert main(["batch", "--dir", str(runs), "--out-dir", str(tmp_path / "o")]) == 2


def test_scenario_weight_and_signal_commands(tmp_path):
    scenario = {
        "name": "factor roundtrip",
        "command": "factorization",
        "parameters": {
            "domain": {"boxes": [[0.0, 1.0]]},
            "weight": {"profile": "constant", "value": [2.0, 0.0],
                       "nodes_per_axis": 16},
            "signal": {"kind": "random"},
            "nodes_per_axis": 16,
        },
        "expect": {"roundtrip_exact": True, "bound_holds": True},
    }
    report = run_scenario(scenario, "factorization")
    assert report["passed"] is True
    assert report["results"]["residual"] <= 1e-12


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_main_batch_survives_a_solver_failure(tmp_path):
    runs = tmp_path / "runs"
    runs.mkdir()
    diverging = bounds_scenario()
    diverging["parameters"]["domain"] = {"boxes": [[-0.5, 1e308]]}
    write_scenario(runs / "01_ok.json", bounds_scenario())
    write_scenario(runs / "02_diverging.json", diverging)
    write_scenario(runs / "03_ok.json", bounds_scenario())
    out_dir = tmp_path / "out"
    assert main(["batch", "--dir", str(runs), "--out-dir", str(out_dir)]) == 2
    rows = (out_dir / "summary.csv").read_text().splitlines()
    assert rows[2].startswith("02_diverging,,error,") and "did not converge" in rows[2]
    assert rows[3].startswith("03_ok,bounds,true")
    assert (out_dir / "03_ok.json").exists()


def run_main(tmp_path, capsys, scenario, command):
    path = tmp_path / "scenario.json"
    write_scenario(path, scenario)
    code = main([command, "--scenario", str(path), "--out", str(tmp_path / "report.json")])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("included,why", [
    (["no", "no"], "included flags must be bools, got <U2 values"),
    ([2, 0], "included flags must be bools, got int64 values"),
    ([0.5, 0.0], "included flags must be bools, got float64 values"),
    ([[True], [True, False]], "included must nest its flags in lists of equal length"),
    ("yes", "expected a list of bools"),
])
def test_mask_flags_that_are_not_bools_exit_2_naming_included(included, why, tmp_path, capsys):
    scenario = bounds_scenario()
    scenario["parameters"]["domain"] = {"mask": {**MASK_BAND["mask"], "included": included}}
    code, err = run_main(tmp_path, capsys, scenario, "bounds")
    assert code == 2
    assert f"scenario.parameters.domain.mask.included ({why})" in err
    assert "Traceback" not in err


def test_cube_check_side_zero_is_rejected_with_its_path(tmp_path, capsys):
    scenario = {"name": "c", "command": "cube-check",
                "parameters": {"moduli": [6], "side": 0}}
    code, err = run_main(tmp_path, capsys, scenario, "cube-check")
    assert code == 2
    assert "scenario.parameters.side (" in err


def test_cube_check_side_that_does_not_divide_fails_its_check(tmp_path, capsys, monkeypatch):
    def no_search(*args):
        raise AssertionError("searched without a dual cube")
    monkeypatch.setattr("expbases.cli.cube_equivalence_check", no_search)
    scenario = {"name": "c", "command": "cube-check",
                "parameters": {"moduli": [6], "side": 4},
                "expect": {"families_equal": True}}
    code, err = run_main(tmp_path, capsys, scenario, "cube-check")
    assert code == 1 and err == ""
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["hypothesis_checks"] == [
        {"name": "side_divides_moduli", "passed": False, "measured": 4, "tolerance": 6}]
    assert report["results"] == {} and report["verdicts"] == {"families_equal": None}


def test_tiling_rejects_keys_of_other_modes_and_empty_patterns(tmp_path, capsys):
    search = {"name": "t", "command": "tiling",
              "parameters": {"moduli": [4], "mode": "search_complements",
                             "pattern": [0, 1], "candidate": [0, 2]}}
    code, err = run_main(tmp_path, capsys, search, "tiling")
    assert code == 2 and "scenario.parameters.candidate (unknown key)" in err
    check = tiling_scenario(True)
    check["parameters"]["pattern"] = []
    code, err = run_main(tmp_path, capsys, check, "tiling")
    assert code == 2 and "scenario.parameters.pattern (" in err


def factorization_scenario(weight, **parameters):
    return {"name": "f", "command": "factorization",
            "parameters": {"domain": {"boxes": [[0.0, 1.0]]}, "weight": weight,
                           "signal": {"kind": "random"}, **parameters}}


def test_factorization_weight_nodes_must_match_the_shared_rule(tmp_path, capsys):
    weight = {"profile": "affine", "offset": 2.0, "gradient": [1.0], "nodes_per_axis": 32}
    assert run_scenario(factorization_scenario(weight, nodes_per_axis=32),
                        "factorization")["passed"]
    code, err = run_main(tmp_path, capsys, factorization_scenario(weight), "factorization")
    assert code == 2
    assert "scenario.parameters.weight (" in err
    assert "scenario.parameters.nodes_per_axis 64" in err


UNIT_BAND = {"boxes": [[-0.5, 0.5]]}

# Every Gram of a weight squares its moduli; past about 1.3e154 the square
# is no float.
OVERFLOWING = "weight modulus 1e+200 has no finite square"

# An affine weight small on a tiny box, whose gradient the closed form squares.
STEEP_ON_A_SLIVER = {"domain": {"boxes": [[0.0, 1e-200]]},
                     "weight": {"profile": "affine", "offset": 1.0, "gradient": [1e200]}}
STEEP = "affine gradient component 1e+200 has no finite square"


def gabor_parameters(modulations, translations):
    return {"base_domain": UNIT_BAND, "modulations": modulations,
            "translations": translations,
            "window": {"domain": UNIT_BAND, "weight": {"profile": "indicator"}}}


@pytest.mark.parametrize("command,parameters,path", [
    ("bounds", {"domain": UNIT_BAND, "freqs": {"range": [-1500, 1500]}}, "freqs"),
    ("transfer", {"domain": UNIT_BAND, "freqs": {"points": list(range(513))},
                  "weight": {"profile": "constant"}}, "freqs"),
    ("gabor", gabor_parameters({"range": [-300, 300]}, {"range": [0, 0]}), "modulations"),
    ("gabor", gabor_parameters({"range": [0, 0]}, {"range": [-300, 300]}), "translations"),
])
def test_oversize_frequency_sets_are_rejected_before_they_are_built(
        command, parameters, path, tmp_path, capsys, monkeypatch):
    def small_only(build, count):
        def guarded(*args):
            assert count(*args) <= 512, "built an oversize frequency set"
            return build(*args)
        return guarded
    monkeypatch.setattr("expbases.cli.FrequencySet", small_only(expbases.FrequencySet, len))
    monkeypatch.setattr("expbases.cli.lattice_truncation", small_only(
        expbases.lattice_truncation, lambda lo, hi, d: (hi - lo + 1) ** d))
    scenario = {"name": "big", "command": command, "parameters": parameters}
    code, err = run_main(tmp_path, capsys, scenario, command)
    assert code == 2
    assert f"scenario.parameters.{path} (" in err and "dense-solver cap 512" in err
    assert "Traceback" not in err


INF, NAN = float("inf"), float("nan")


@pytest.mark.parametrize("command,parameters,path", [
    pytest.param("transfer", {"domain": UNIT_BAND, "freqs": {"range": [-3, 3]},
                              "weight": {"profile": "affine", "offset": INF, "gradient": [1.0]}},
                 "weight.offset", id="affine-offset-infinity"),
    pytest.param("transfer", {"domain": UNIT_BAND, "freqs": {"range": [-3, 3]},
                              "weight": {"profile": "affine", "offset": 1.0,
                                         "gradient": [-INF]}},
                 "weight.gradient[0]", id="affine-gradient-minus-infinity"),
    pytest.param("transfer", {"domain": UNIT_BAND, "freqs": {"range": [-3, 3]},
                              "weight": {"profile": "constant", "value": NAN}},
                 "weight.value", id="constant-value-nan"),
    pytest.param("transfer", {"domain": UNIT_BAND, "freqs": {"range": [-3, 3]},
                              "weight": {"profile": "constant", "value": [1.0, INF]}},
                 "weight.value", id="constant-value-imaginary-infinity"),
    pytest.param("frame-transfer", {"domain": UNIT_BAND, "freqs": {"range": [-3, 3]},
                                    "weight": {"profile": "table", "values": [1.0, NAN, 1.0],
                                               "nodes_per_axis": 3}},
                 "weight.values[1]", id="table-value-nan"),
    pytest.param("frame-transfer", {"domain": UNIT_BAND, "freqs": {"range": [-3, 3]},
                                    "weight": {"profile": "bump", "steepness": NAN}},
                 "weight.steepness", id="bump-steepness-nan"),
    pytest.param("bounds", {"domain": {"boxes": [[-0.5, INF]]}, "freqs": {"range": [-3, 3]}},
                 "domain.boxes[0][1]", id="box-bound-infinity"),
    pytest.param("bounds", {"domain": {"boxes": [[-0.5, 10 ** 400]]}, "freqs": {"range": [-3, 3]}},
                 "domain.boxes[0][1]", id="box-bound-past-float-range"),
    pytest.param("bounds", {"domain": UNIT_BAND, "freqs": {"points": [0.0, NAN, 2.0]}},
                 "freqs.points[1]", id="frequency-nan"),
    pytest.param("sample", {"domain": UNIT_BAND, "nodes_per_axis": 129,
                            "signal": {"kind": "indicator"}, "n_terms": [16],
                            "eval_points": {"grid": [-3.0, INF, 61]}},
                 "eval_points.grid[1]", id="grid-end-infinity"),
])
def test_non_finite_numbers_are_rejected_naming_their_path(command, parameters, path,
                                                          tmp_path, capsys):
    # json.load reads NaN and +-Infinity, and integer literals of any
    # length; the schema rejects a number that is no finite float where it
    # reads it, before any library code sees one.
    scenario = {"name": "non-finite", "command": command, "parameters": parameters}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, err = run_main(tmp_path, capsys, scenario, command)
    assert code == 2
    assert f"scenario.parameters.{path} (expected " in err and "finite number" in err
    assert "Traceback" not in err
    assert [str(w.message) for w in caught] == []
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("command,parameters,rejection", [
    pytest.param("tiling", {"moduli": [4], "mode": "check_tiling", "pattern": [0, 7],
                            "candidate": [0, 2]},
                 "pattern indices must lie in [0, 4)", id="pattern_within_group"),
    pytest.param("sample", {"domain": UNIT_BAND, "nodes_per_axis": 100,
                            "signal": {"kind": "indicator"}, "n_terms": 64,
                            "eval_points": {"points": [0.0]}},
                 "100 nodes cannot resolve 129 series terms", id="nodes_resolve_truncation"),
    pytest.param("gabor", {**gabor_parameters({"range": [0, 1]}, {"range": [0, 1]}),
                           "base_domain": {"boxes": [[0.0, 2.0]]}},
                 "base domain measure 2.0 is not 1", id="unit_base_measure"),
    pytest.param("frame-transfer", {"domain": {"boxes": [[0.0, 1.0]]},
                                    "freqs": {"range": [0, 512]},
                                    "weight": {"profile": "constant", "nodes_per_axis": 513}},
                 "513 support nodes and 513 frequencies both exceed the dense-solver cap 512",
                 id="support_within_cap"),
    pytest.param("periodization", {"profile": {"kind": "indicator", "lower": [0.0],
                                               "upper": [1.0]}, "resolution": 1},
                 "scenario.parameters.resolution (expected int >= 2)",
                 id="resolution_sufficient"),
    pytest.param("frame-transfer", {"domain": {"boxes": [[0.0, 1.0]]}, "freqs": {"range": [0, 1]},
                                    "weight": {"profile": "table", "values": [0, 0, 0, 0],
                                               "nodes_per_axis": 4}},
                 "scenario.parameters.weight (weight vanishes at every node)",
                 id="support_nonempty"),
])
def test_inputs_outside_a_hypothesis_are_rejected_before_a_report(
        command, parameters, rejection, tmp_path, capsys):
    # Each input would have failed a hypothesis check that reports no longer
    # carry: the schema or the library rejects it first.
    scenario = {"name": "outside", "command": command, "parameters": parameters}
    code, err = run_main(tmp_path, capsys, scenario, command)
    assert code == 2
    assert rejection in err
    assert "Traceback" not in err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("command,parameters,path", [
    pytest.param("tiling", {"moduli": [4], "mode": "check_tiling", "pattern": [0, 7],
                            "candidate": [0, 2]}, "pattern", id="pattern-outside-the-group"),
    pytest.param("tiling", {"moduli": [4], "mode": "check_spectrum", "pattern": [0, 1],
                            "candidate": [0, 4]}, "candidate", id="candidate-outside-the-group"),
    pytest.param("tiling", {"moduli": [4], "mode": "search_spectra", "pattern": [1, 1]},
                 "pattern", id="repeated-pattern"),
    pytest.param("tiling", {"moduli": [25], "mode": "check_tiling", "pattern": [0, 10 ** 23],
                            "candidate": [0, 1]},
                 "pattern (pattern indices must lie in [0, 25))", id="pattern-past-int64"),
    pytest.param("tiling", {"moduli": [25], "mode": "check_spectrum", "pattern": [0, 1],
                            "candidate": [10 ** 23, 0]},
                 "candidate (candidate indices must lie in [0, 25))", id="candidate-past-int64"),
    pytest.param("tiling", {"moduli": [5000], "mode": "search_spectra",
                            "pattern": list(range(4097)), "samples": 1},
                 "pattern: a sampled spectrum of 4097 elements exceeds the cap 4096",
                 id="sampled-spectrum-above-the-cap"),
    pytest.param("frame-transfer", {"domain": {"boxes": [[0.0, 1.0]]},
                                    "freqs": {"range": [0, 599]},
                                    "weight": {"profile": "bump", "nodes_per_axis": 700}},
                 "weight.nodes_per_axis: 648 support nodes and 600 frequencies both exceed",
                 id="frame-support-and-frequencies-above-the-cap"),
    pytest.param("gabor", {**gabor_parameters({"range": [0, 1]}, {"range": [0, 1]}),
                           "base_domain": {"boxes": [[0.0, 2.0]]}},
                 "base_domain", id="base-measure-not-one"),
    pytest.param("sample", {"domain": UNIT_BAND, "nodes_per_axis": 100,
                            "signal": {"kind": "indicator"}, "n_terms": [8, 64],
                            "eval_points": {"points": [0.0]}},
                 "nodes_per_axis", id="nodes-below-the-truncation"),
    pytest.param("sample", {"domain": UNIT_BAND, "nodes_per_axis": 2000,
                            "signal": {"kind": "indicator"}, "n_terms": 600,
                            "eval_points": {"points": [0.0]}},
                 "n_terms", id="truncation-above-its-cap"),
    pytest.param("sample", {"domain": {"boxes": [[0.0, 1.0]]}, "nodes_per_axis": 100,
                            "signal": {"kind": "indicator"}, "n_terms": [8],
                            "eval_points": {"points": [0.0]}},
                 "domain", id="band-not-the-unit-band"),
    pytest.param("tiling", {"moduli": [5000], "mode": "search_spectra", "pattern": [0, 1]},
                 "pattern", id="search-above-the-order-cap-with-no-budget"),
    pytest.param("tiling", {"moduli": [26], "mode": "search_complements",
                            "pattern": list(range(13))},
                 "pattern", id="search-above-the-pattern-cap-unforced"),
    pytest.param("transfer", {"domain": {"boxes": [[0.0, 1.0]]}, "freqs": {"range": [-3, 3]},
                              "weight": {"profile": "bump"}},
                 "weight", id="transfer-weight-vanishing-at-a-node"),
    pytest.param("factorization", {"domain": {"boxes": [[0.0, 1.0]]},
                                   "weight": {"profile": "bump"}, "signal": {"kind": "random"}},
                 "weight", id="factorization-weight-vanishing-at-a-node"),
    pytest.param("periodization", {"profile": {"kind": "indicator", "lower": [0.0],
                                               "upper": [600.0]}},
                 "profile", id="shift-lattice-above-the-system-cap"),
    pytest.param("periodization", {"profile": {"kind": "indicator", "lower": [0.0],
                                               "upper": [1.0], "scale": 0.0}},
                 "profile: weight vanishes at every node", id="profile-zero-at-every-node"),
    pytest.param("periodization", {"profile": {"kind": "bump", "steepness": 1e6}},
                 "profile: weight vanishes at every node", id="profile-underflows-at-every-node"),
    pytest.param("frame-transfer", {"domain": {"boxes": [[0.0, 1.0]]},
                                    "freqs": {"range": [-2 ** 40, 2 ** 40]},
                                    "weight": {"profile": "bump"}},
                 f"freqs ({2 ** 41 + 1} grid points exceed the cap {2 ** 20})",
                 id="frame-frequencies-above-the-node-cap"),
    pytest.param("gabor", {**gabor_parameters({"range": [0, 1]}, {"range": [0, 1]}),
                           "base_domain": MASK_BAND},
                 "base_domain (an unweighted Gram on a mask domain needs a quadrature rule)",
                 id="base-domain-with-no-closed-form"),
    pytest.param("transfer", {"domain": UNIT_BAND, "freqs": {"range": [-3, 3]},
                              "weight": {"profile": "constant", "value": 1e200}},
                 f"weight ({OVERFLOWING})", id="transfer-constant-weight-overflows"),
    pytest.param("bounds", {"domain": UNIT_BAND, "freqs": {"range": [-3, 3]},
                            "weight": {"profile": "constant", "value": 1e200}},
                 f"weight ({OVERFLOWING})", id="bounds-constant-weight-overflows"),
    pytest.param("transfer", {"domain": UNIT_BAND, "freqs": {"range": [-3, 3]},
                              "weight": {"profile": "affine", "offset": 1e200,
                                         "gradient": [1.0]}},
                 f"weight ({OVERFLOWING})", id="transfer-affine-offset-overflows"),
    pytest.param("gabor", {**gabor_parameters({"range": [0, 1]}, {"range": [0, 1]}),
                           "window": {"domain": UNIT_BAND,
                                      "weight": {"profile": "constant", "value": 1e200}}},
                 f"window.weight ({OVERFLOWING})", id="gabor-window-weight-overflows"),
    pytest.param("transfer", {**STEEP_ON_A_SLIVER, "freqs": {"range": [-2, 2]}},
                 f"weight ({STEEP})", id="transfer-affine-gradient-overflows"),
    pytest.param("bounds", {**STEEP_ON_A_SLIVER, "freqs": {"range": [-2, 2]}},
                 f"weight ({STEEP})", id="bounds-affine-gradient-overflows"),
    pytest.param("gabor", {**gabor_parameters({"range": [0, 1]}, {"range": [0, 1]}),
                           "window": STEEP_ON_A_SLIVER},
                 f"window.weight ({STEEP})", id="gabor-window-affine-gradient-overflows"),
])
def test_runtime_rejections_name_their_scenario_path(command, parameters, path, tmp_path,
                                                     capsys):
    start = time.perf_counter()
    code, err = run_main(tmp_path, capsys, {"name": "named", "command": command,
                                           "parameters": parameters}, command)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert f"scenario.parameters.{path}" in err
    assert "Traceback" not in err


SQUARE_2D = {"boxes": [[[0.0, 0.0], [1.0, 1.0]]]}
PROFILE_2D = {"kind": "indicator", "lower": [0.0, 0.0], "upper": [1.0, 1.0]}


@pytest.mark.parametrize("command,parameters,path", [
    pytest.param("periodization", {"profile": PROFILE_2D, "resolution": 2 ** 23},
                 "resolution", id="periodization-resolution"),
    pytest.param("periodization", {"profile": PROFILE_2D, "gram_nodes": 2 ** 23},
                 "gram_nodes", id="periodization-gram-nodes"),
    pytest.param("bounds", {"domain": SQUARE_2D, "freqs": {"range": [0, 1]},
                            "weight": {"profile": "constant", "nodes_per_axis": 2 ** 23}},
                 "weight.nodes_per_axis", id="bounds-2d-weight-nodes"),
    pytest.param("bounds", {"domain": {"mask": {"origin": [0.0, 0.0], "counts": [1, 1],
                                                "widths": [1.0, 1.0], "included": [True]}},
                            "freqs": {"range": [0, 1]}, "nodes_per_axis": 2 ** 23},
                 "nodes_per_axis", id="bounds-2d-mask-nodes"),
    pytest.param("transfer", {"domain": UNIT_BAND, "freqs": {"range": [-3, 3]},
                              "weight": {"profile": "constant", "nodes_per_axis": 2 ** 45}},
                 "weight.nodes_per_axis", id="transfer-1d-weight-nodes"),
    pytest.param("sample", {"domain": UNIT_BAND, "signal": {"kind": "indicator"}, "n_terms": 8,
                            "eval_points": {"grid": [-1.0, 1.0, 2 ** 45]}},
                 "eval_points.grid[2]", id="sample-grid-count"),
    pytest.param("sample", {"domain": UNIT_BAND, "nodes_per_axis": 129, "n_terms": 8,
                            "signal": {"kind": "smooth_random", "max_order": 10 ** 9},
                            "eval_points": {"points": [0.0]}},
                 "signal.max_order", id="sample-signal-order"),
])
def test_sizes_past_the_node_cap_are_rejected_before_an_array(command, parameters, path,
                                                              tmp_path, capsys):
    # Each size would ask for a first array above 2^47 bytes, more than a
    # process can map; the schema bounds it, through the library's check,
    # where it reads it.
    start = time.perf_counter()
    code, err = run_main(tmp_path, capsys, {"name": "huge", "command": command,
                                           "parameters": parameters}, command)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert f"scenario.parameters.{path} (" in err and f"exceed the cap {NODE_CAP}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command,parameters,path", [
    pytest.param("bounds", {"domain": UNIT_BAND, "freqs": {"range": [-2, 2]},
                            "weight": {"profile": "indicator", "nodes_per_axis": 4}},
                 "weight.nodes_per_axis", id="bounds-indicator"),
    pytest.param("transfer", {"domain": UNIT_BAND, "freqs": {"range": [-2, 2]},
                              "weight": {"profile": "constant", "value": 2.0,
                                         "nodes_per_axis": 64}},
                 "weight.nodes_per_axis", id="transfer-constant"),
    pytest.param("gabor", {**gabor_parameters({"range": [0, 1]}, {"range": [0, 1]}),
                           "window": {"domain": UNIT_BAND,
                                      "weight": {"profile": "indicator", "nodes_per_axis": 4}}},
                 "window.weight.nodes_per_axis", id="gabor-indicator"),
])
def test_a_weight_node_count_that_no_gram_reads_is_refused(command, parameters, path, tmp_path,
                                                           capsys):
    code, err = run_main(tmp_path, capsys, {"name": "n", "command": command,
                                           "parameters": parameters}, command)
    assert code == 2
    assert (f"scenario.parameters.{path} (an indicator or constant weight on a domain of "
            "boxes is integrated in closed form, on no nodes)") in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command,parameters", [
    pytest.param("bounds", {"domain": UNIT_BAND, "freqs": {"range": [-2, 2]},
                            "weight": {"profile": "affine", "offset": 2.0, "gradient": [1.0],
                                       "nodes_per_axis": 4}}, id="bounds-affine"),
    pytest.param("bounds", {"domain": MASK_BAND, "freqs": {"range": [-1, 1]},
                            "weight": {"profile": "constant", "nodes_per_axis": 4}},
                 id="bounds-mask"),
    pytest.param("frame-transfer", {"domain": UNIT_BAND, "freqs": {"range": [-2, 2]},
                                    "weight": {"profile": "indicator", "nodes_per_axis": 8}},
                 id="frame-transfer-indicator"),
    pytest.param("factorization", {"domain": UNIT_BAND, "nodes_per_axis": 8,
                                   "weight": {"profile": "constant", "nodes_per_axis": 8},
                                   "signal": {"kind": "random"}}, id="factorization-constant"),
])
def test_a_weight_node_count_that_is_read_is_accepted(command, parameters):
    report = run_scenario({"name": "n", "command": command, "parameters": parameters}, command)
    assert report["scenario"]["parameters"] == parameters


@pytest.mark.parametrize("profile", [
    {"kind": "indicator", "lower": [0.0], "upper": [1.0]},
    {"kind": "indicator", "lower": [0.0, 0.0], "upper": [1.0, 1.0]},
])
def test_a_periodization_builds_its_gram_rule_once(profile, monkeypatch):
    # The schema builds the Gram's rule and weight to check the profile,
    # and the run integrates on what it built.
    calls = []
    build = paley_wiener.quadrature

    def quadrature(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)
    monkeypatch.setattr(paley_wiener, "quadrature", quadrature)
    report = run_scenario({"name": "p", "command": "periodization",
                           "parameters": {"profile": profile, "resolution": 8}},
                          "periodization")
    assert report["verdicts"] == {"is_onb": True, "gram_is_onb": True, "routes_agree": True}
    assert len(calls) == 1


@pytest.mark.parametrize("nodes,eval_points", [
    pytest.param(131072, {"points": [0.0, 0.5]}, id="phase-table"),
    pytest.param(1025, {"grid": [-4.0, 4.0, 2 ** 20]}, id="sinc-table"),
])
def test_a_sample_at_its_caps_runs_in_bounded_memory(nodes, eval_points, tmp_path,
                                                      child_env):
    # Formed whole, the phase table of the first scenario is a (1025, 131072)
    # complex array (2 GiB) and the sinc table of the second a (1025, 2^20)
    # float one (8 GiB). Summed in blocks, both run with the child's
    # address space limited to 1 GiB.
    resource = pytest.importorskip("resource")
    scenario = tmp_path / "sample.json"
    write_scenario(scenario, {"name": "big", "command": "sample", "parameters": {
        "domain": UNIT_BAND, "signal": {"kind": "indicator"}, "n_terms": [512],
        "nodes_per_axis": nodes, "eval_points": eval_points}})
    env = {**child_env, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
    done = subprocess.run([sys.executable, "-m", "expbases.cli", "sample", "--scenario",
                           str(scenario), "--out", str(tmp_path / "report.json")],
                          env=env, preexec_fn=limit, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert json.loads((tmp_path / "report.json").read_text())["passed"] is True


# 2^20 cells, each taking one node: inside every cap.
FULL_MASK_1024 = {"mask": {"origin": [0.0, 0.0], "counts": [1024, 1024],
                           "widths": [1 / 1024, 1 / 1024], "included": [[True] * 1024] * 1024}}
SAMPLE_BUDGET_PASSED = "scenario.parameters.samples: sample budget"
CARDINAL_REACH = "evaluation points t must keep pi (|t| + 48) finite"
# The support of the bump window.
UNIT_INTERVAL = {"boxes": [[0.0, 1.0]]}


@pytest.mark.parametrize("command,parameters,code,message", [
    pytest.param("bounds", {"domain": FULL_MASK_1024, "freqs": {"range": [0, 3]},
                            "nodes_per_axis": 1}, 0, None, id="bounds-on-a-full-1024-mask"),
    pytest.param("transfer", {"domain": FULL_MASK_1024, "freqs": {"range": [0, 3]},
                              "weight": {"profile": "affine", "offset": 2.0,
                                         "gradient": [0.5, -0.25], "nodes_per_axis": 1}},
                 0, None, id="affine-transfer-on-a-full-1024-mask"),
    pytest.param("tiling", {"moduli": [72, 72], "mode": "search_spectra",
                            "pattern": list(range(16)), "samples": 10 ** 12},
                 2, SAMPLE_BUDGET_PASSED, id="spectrum-search-of-1e12-samples"),
    pytest.param("tiling", {"moduli": [2 ** 28], "mode": "search_complements",
                            "pattern": list(range(2 ** 16)), "samples": 1},
                 2, SAMPLE_BUDGET_PASSED, id="sampled-complement-of-4096-elements"),
    # No numpy overflow warning precedes the error line.
    pytest.param("transfer", {**STEEP_ON_A_SLIVER, "freqs": {"range": [-2, 2]}},
                 2, f"scenario.parameters.weight ({STEEP})", id="affine-gradient-overflows"),
    # pi (t - m) would overflow in the sinc table, and a grid's span in
    # np.linspace.
    *(pytest.param("sample", {"domain": UNIT_BAND, "signal": {"kind": "indicator"},
                              "n_terms": [4, 48], "eval_points": points}, 2,
                   f"scenario.parameters.eval_points ({CARDINAL_REACH})", id=name)
      for name, points in [("eval-point-1e308", {"points": [1e308]}),
                           ("eval-point-minus-1e308", {"points": [-1e308, 0.5]}),
                           ("eval-grid-of-span-2e308", {"grid": [1e308, -1e308, 3]})]),
    pytest.param("factorization", {"domain": UNIT_BAND, "nodes_per_axis": 2 ** 20,
                                   "weight": {"profile": "affine", "offset": 2.0,
                                              "gradient": [1.0]},
                                   "signal": {"kind": "random"}},
                 0, None, id="factorization-on-2^20-nodes"),
    pytest.param("gabor", {**gabor_parameters({"range": [0, 511]}, {"range": [0, 511]}),
                           "window": {"domain": UNIT_INTERVAL,
                                      "weight": {"profile": "bump", "nodes_per_axis": 2 ** 20}}},
                 0, None, id="gabor-512x512-with-a-2^20-node-bump"),
    pytest.param("periodization", {"profile": {"kind": "cosine"}, "resolution": 2 ** 20},
                 0, None, id="cosine-periodization-at-2^20"),
    pytest.param("frame-transfer", {"domain": UNIT_INTERVAL, "freqs": {"range": [0, 511]},
                                    "weight": {"profile": "bump", "nodes_per_axis": 2 ** 20}},
                 0, None, id="frame-transfer-of-512-on-2^20-bump-nodes"),
    pytest.param("cube-check", {"moduli": [4096], "side": 2}, 0, None,
                 id="cube-check-on-z4096"),
    # 125,000 samples of 16 against 16 spend the whole budget; a 2^16-element
    # group is judged from its character-sum table, one past it by Grams.
    *(pytest.param("tiling", {"moduli": moduli, "mode": "search_spectra",
                              "pattern": list(range(16)), "samples": 125_000},
                   0, None, id=name)
      for name, moduli in [("sampled-spectra-in-z256xz256", [256, 256]),
                           ("sampled-spectra-in-z256xz257", [256, 257])]),
])
def test_scenarios_at_the_caps_end_in_bounded_memory(command, parameters, code, message,
                                                     tmp_path, child_env):
    # With the child's address space limited to 1 GiB, each ends within a
    # minute in exit 0 and an empty stderr, or exit 2 and one error line:
    # a piece-by-piece walk of the mask took 738 MB and 37 s, the spectrum
    # search would have run for months, and the complement's cover counts
    # would have asked for 2 GiB. The 2^20-node cases take at most 5 s and
    # 300 MB each. The Z_4096 cube check reads its dual's 2,048-element
    # character sums from one DFT table, forming no order x k array of
    # exponentials, and takes 0.4 s and 100 MB; the two sampled spectrum
    # searches take 1-3 s and under 40 MB each.
    resource = pytest.importorskip("resource")
    scenario = tmp_path / "scenario.json"
    write_scenario(scenario, {"name": "edge", "command": command, "parameters": parameters})
    env = {**child_env, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
    done = subprocess.run([sys.executable, "-m", "expbases.cli", command, "--scenario",
                           str(scenario), "--out", str(tmp_path / "report.json")],
                          env=env, preexec_fn=limit, capture_output=True, text=True, timeout=60)
    assert done.returncode == code, done.stderr
    if message is None:
        assert done.stderr == ""
    else:
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
        assert message in done.stderr


def test_the_runtime_does_not_import_scipy(child_env):
    # numpy is the one runtime dependency; scipy may be installed all the same.
    probe = ("import sys, expbases, expbases.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=child_env, check=True)
    assert done.stdout.strip() == "[]"


def test_a_bump_touching_the_boundary_leaves_stderr_empty(tmp_path, child_env):
    # The trimmed support is in the report; a Python warning on stderr
    # would only be noise outside the "error: ..." form.
    scenario = {"name": "bump-boundary", "command": "frame-transfer",
                "parameters": {"domain": {"boxes": [[0.0, 1.0]]},
                               "freqs": {"range": [-8, 8]},
                               "weight": {"profile": "bump", "nodes_per_axis": 64}}}
    path = tmp_path / "scenario.json"
    write_scenario(path, scenario)
    out = tmp_path / "report.json"
    done = subprocess.run([sys.executable, "-m", "expbases.cli", "frame-transfer",
                           "--scenario", str(path), "--out", str(out)],
                          capture_output=True, text=True, env=child_env)
    assert done.returncode == 0
    assert done.stderr == ""
    assert json.loads(out.read_text())["results"]["support_is_proper"] is True


def test_frame_transfer_vector_count_has_no_cap(tmp_path, capsys):
    scenario = {"name": "overcomplete", "command": "frame-transfer",
                "parameters": {"domain": {"boxes": [[0.0, 1.0]]},
                               "freqs": {"range": [-300, 299]},
                               "weight": {"profile": "constant", "nodes_per_axis": 16}}}
    code, err = run_main(tmp_path, capsys, scenario, "frame-transfer")
    assert code == 0 and err == ""
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["results"]["n_vectors"] == 600


def test_a_frame_transfer_past_the_cap_on_one_side_runs(tmp_path, capsys):
    # 513 support nodes and 2 frequencies: the operator is solved as its
    # 2 x 2 Gram.
    scenario = {"name": "tall", "command": "frame-transfer",
                "parameters": {"domain": {"boxes": [[0.0, 1.0]]}, "freqs": {"range": [0, 1]},
                               "weight": {"profile": "constant", "nodes_per_axis": 513}}}
    code, err = run_main(tmp_path, capsys, scenario, "frame-transfer")
    assert code == 0 and err == ""
    results = json.loads((tmp_path / "report.json").read_text())["results"]
    assert (results["space_dim"], results["n_vectors"]) == (513, 2)


def test_a_range_frame_transfer_on_2048_nodes_has_a_rank_proved_zero_lower_bound(
        tmp_path, capsys):
    scenario = {"name": "fine-bump", "command": "frame-transfer",
                "parameters": {"domain": {"boxes": [[0.1, 0.9]]}, "freqs": {"range": [-16, 15]},
                               "weight": {"profile": "bump", "nodes_per_axis": 2048}}}
    code, err = run_main(tmp_path, capsys, scenario, "frame-transfer")
    assert code == 0 and err == ""
    report = json.loads((tmp_path / "report.json").read_text())
    results = report["results"]
    assert results["space_dim"] == 2048 and results["n_vectors"] == 32
    for side in ("weighted_", "unweighted_"):
        assert results[side + "lower"] == 0.0
        assert results[side + "upper"] > 0.0
        assert 0.0 < results[side + "certificate_margin"] <= 1e-12 * results[side + "upper"]
    assert report["verdicts"]["sandwich_holds"] is True


def test_transfer_with_a_large_weight_passes_the_hermiticity_gates(tmp_path, capsys):
    # Entries reach 4e4, so an absolute 1e-12 gate would refuse rounding noise.
    scenario = {"name": "heavy", "command": "transfer",
                "parameters": {"domain": {"boxes": [[[0.0, 0.0], [1.0, 1.0]]]},
                               "freqs": {"range": [-10, 11]},
                               "weight": {"profile": "affine", "offset": 200.0,
                                          "gradient": [0.5, -0.3], "nodes_per_axis": 45}}}
    code, err = run_main(tmp_path, capsys, scenario, "transfer")
    assert code == 0 and err == ""
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["verdicts"]["sandwich_holds"] is True


def test_complement_search_deeper_than_the_recursion_limit(tmp_path, capsys):
    scenario = {"name": "deep", "command": "tiling",
                "parameters": {"moduli": [2048], "mode": "search_complements",
                               "pattern": [0, 1]}}
    code, err = run_main(tmp_path, capsys, scenario, "tiling")
    assert code == 0 and err == ""
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["verdicts"]["exhaustive"] is True
    assert report["results"]["found"] == [list(range(0, 2048, 2))]


@pytest.mark.parametrize("command,parameters,code", [
    pytest.param("tiling", {"moduli": [2 ** 32, 2 ** 32], "mode": "check_tiling",
                            "pattern": [0], "candidate": [0]}, 2, id="tiling-order-past-an-index"),
    pytest.param("cube-check", {"moduli": [2 ** 32, 2 ** 32], "side": 2 ** 32}, 2,
                 id="cube-order-past-an-index"),
    pytest.param("tiling", {"moduli": [2 ** 40], "mode": "check_tiling",
                            "pattern": [0], "candidate": [0]}, 0, id="tiling-order-2^40"),
])
def test_huge_groups_end_promptly_without_a_traceback(tmp_path, capsys, command, parameters,
                                                      code):
    start = time.perf_counter()
    got, err = run_main(tmp_path, capsys, {"name": "huge", "command": command,
                                          "parameters": parameters}, command)
    assert time.perf_counter() - start < 1.0
    assert got == code
    assert "Traceback" not in err
    if code == 2:
        assert (f"scenario.parameters.moduli (moduli {parameters['moduli']} "
                f"give group order {2 ** 64}") in err
    else:
        results = json.loads((tmp_path / "report.json").read_text())["results"]
        assert results == {"uncovered": 2 ** 40 - 1, "collisions": 0}


def test_a_sampled_complement_past_the_cap_is_rejected_naming_the_pattern(tmp_path, capsys):
    # A complement of a 2-element pattern in Z_{2^40} has 2^39 elements,
    # which each sample would draw.
    start = time.perf_counter()
    code, err = run_main(tmp_path, capsys, {"name": "huge", "command": "tiling", "parameters": {
        "moduli": [2 ** 40], "mode": "search_complements", "pattern": [0, 1], "samples": 1}},
                         "tiling")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert ("scenario.parameters (scenario.parameters.pattern: a sampled complement of "
            f"{2 ** 39} elements exceeds the cap {GROUP_ORDER_CAP})") in err
    assert "Traceback" not in err


@pytest.mark.parametrize("mode", ["search_complements", "search_spectra"])
def test_a_forced_search_above_the_order_cap_exits_2_and_a_batch_goes_on(tmp_path, capsys,
                                                                         mode):
    # Forcing lifts the pattern cap only: with no sample budget, a search
    # in Z_{2^40} is rejected in the schema, naming the pattern, before it
    # lays the group out element by element.
    forced = {"name": "forced", "command": "tiling", "parameters": {
        "moduli": [2 ** 40], "mode": mode, "pattern": [0, 1], "force_exhaustive": True}}
    start = time.perf_counter()
    code, err = run_main(tmp_path, capsys, forced, "tiling")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert (f"scenario.parameters.pattern: group order {2 ** 40} exceeds the exhaustive cap "
            f"{GROUP_ORDER_CAP}" in err and err.rstrip().endswith("pass a sample budget)"))
    assert "Traceback" not in err
    runs = tmp_path / "runs"
    runs.mkdir()
    write_scenario(runs / "01_forced.json", forced)
    write_scenario(runs / "02_ok.json", bounds_scenario())
    out_dir = tmp_path / "out"
    assert main(["batch", "--dir", str(runs), "--out-dir", str(out_dir)]) == 2
    rows = (out_dir / "summary.csv").read_text().splitlines()
    assert rows[1].startswith("01_forced,,error,") and "pass a sample budget" in rows[1]
    assert rows[2].startswith("02_ok,bounds,true")


@pytest.mark.parametrize("moduli, side", [([2 ** 31], 2 ** 31), ([64, 65], 1)])
def test_a_cube_check_group_above_the_order_cap_is_rejected_before_a_search(tmp_path, capsys,
                                                                            moduli, side):
    # Both searches lift the pattern cap and allocate per group element, so
    # the check refuses the order before it builds a cube, and the rejection
    # names the moduli: Z_{2^31} would need 16 GiB before either search
    # examined anything.
    start = time.perf_counter()
    code, err = run_main(tmp_path, capsys, {"name": "huge", "command": "cube-check",
                                           "parameters": {"moduli": moduli, "side": side}},
                         "cube-check")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    order = math.prod(moduli)
    assert (f"scenario.parameters.moduli (moduli {moduli} give group order {order}, "
            f"above the cube-check cap {GROUP_ORDER_CAP})") in err
    assert "Traceback" not in err


WALK_PAST_ITS_BUDGET = f"complement search passed its budget of {SEARCH_BUDGET} work units"


@pytest.mark.parametrize("command, parameters, rejection", [
    pytest.param("tiling", {"moduli": [64, 64], "mode": "search_complements",
                            "pattern": [0, 1, 64, 65]}, WALK_PAST_ITS_BUDGET,
                 id="tiling-parameters0"),
    pytest.param("cube-check", {"moduli": [64, 64], "side": 2}, WALK_PAST_ITS_BUDGET,
                 id="cube-check-parameters1"),
    # Sampled: about 250 days of candidates, and one candidate whose cover
    # counts would take 2 GiB; each is charged before any draw.
    pytest.param("tiling", {"moduli": [72, 72], "mode": "search_spectra",
                            "pattern": list(range(16)), "samples": 10 ** 12},
                 f"scenario.parameters.samples: sample budget {10 ** 12} costs {10 ** 12 * 16} "
                 f"work units on 16-element candidates, past the budget of {SEARCH_BUDGET}",
                 id="spectrum-samples-past-the-budget"),
    pytest.param("tiling", {"moduli": [2 ** 28], "mode": "search_complements",
                            "pattern": list(range(2 ** 16)), "samples": 1},
                 f"scenario.parameters.samples: sample budget 1 costs {2 ** 24} work units on "
                 f"4096-element candidates, past the budget of {SEARCH_BUDGET}",
                 id="complement-sample-past-the-budget"),
])
def test_search_past_its_work_budget_exits_promptly(tmp_path, capsys, command, parameters,
                                                    rejection):
    # The 2x2 cube in Z64^2 is within the caps but has astronomically many
    # complements; the walk must stop at its budget, not run until killed.
    start = time.perf_counter()
    code, err = run_main(tmp_path, capsys, {"name": "huge", "command": command,
                                           "parameters": parameters}, command)
    assert time.perf_counter() - start < 30.0
    assert code == 2
    assert rejection in err
    assert "Traceback" not in err


def test_bounds_reads_the_node_count_on_an_unweighted_mask():
    scenario = bounds_scenario()
    scenario["parameters"]["domain"] = MASK_BAND
    default = run_scenario(scenario, "bounds")["results"]
    scenario["parameters"]["nodes_per_axis"] = 32
    assert run_scenario(scenario, "bounds")["results"] == default
    scenario["parameters"]["nodes_per_axis"] = 2
    coarse = run_scenario(scenario, "bounds")["results"]
    assert coarse["provenance"] == "quadrature"
    assert coarse["lower"] != default["lower"]


@pytest.mark.parametrize("command,extra", [
    ("factorization", {"signal": {"kind": "random"}}),
    ("transfer", {"freqs": {"range": [-2, 2]}}),
])
def test_weight_nowhere_zero_is_judged_on_the_exact_infimum(command, extra):
    # offset 0 and gradient 1 vanish at the left end of [0, 1]; no node sits there.
    weight = {"profile": "affine", "offset": 0.0, "gradient": [1.0]}
    scenario = {"name": "w", "command": command,
                "parameters": {"domain": {"boxes": [[0.0, 1.0]]}, "weight": weight, **extra}}
    report = run_scenario(scenario, command)
    check = next(h for h in report["hypothesis_checks"]
                 if h["name"] == "weight_nowhere_zero")
    assert check["passed"] is False
    # The floor reported is the floor judged, not the node samples' minimum.
    assert check["measured"] == 0.0
    assert report["passed"] is False


SHIPPED = sorted((Path(__file__).resolve().parent.parent / "scenarios").glob("*.json"))


def test_shipped_csvs_equal_the_rendering_that_collapsed_every_whitespace_run(monkeypatch):
    # No string of a shipped report holds a run of whitespace, so keeping
    # such runs changes none of their CSV bytes.
    reports = [run_scenario(scenario, scenario["command"])
               for scenario in (json.loads(path.read_text()) for path in SHIPPED)]
    kept = [report_csv(report) for report in reports]
    monkeypatch.setattr(cli, "_compact_token", lambda value: " ".join(dumps_report(value).split()))
    assert [report_csv(report) for report in reports] == kept


# The unit square with its upper x end at 1e-320: a Gram of subnormal
# entries, whose certificate margin can never clear its ceiling. A margin
# that underflows to 0 would double forever here.
SUBNORMAL_SQUARE = {"name": "subnormal", "command": "bounds", "parameters": {
    "domain": {"boxes": [[[0.0, 0.0], [1e-320, 1.0]]]}, "freqs": {"range": [-1, 1]}}}

# Seconds a child process may take before a test counts it as hung.
CHILD_TIMEOUT_S = 60


def run_child(env, *args):
    """The expbases command line on args, in a child process that a hang
    fails (subprocess.TimeoutExpired) instead of stalling the suite."""
    return subprocess.run([sys.executable, "-m", "expbases.cli", *args], env=env,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)


def test_a_subnormal_gram_is_refused_within_the_timeout(tmp_path, child_env):
    path = tmp_path / "subnormal.json"
    write_scenario(path, SUBNORMAL_SQUARE)
    done = run_child(child_env, "bounds", "--scenario", str(path))
    assert done.returncode == 2
    assert "eigen certificate margin" in done.stderr and "Traceback" not in done.stderr


def test_a_batch_runs_past_a_subnormal_gram(tmp_path, child_env):
    runs = tmp_path / "runs"
    runs.mkdir()
    write_scenario(runs / "01_subnormal.json", SUBNORMAL_SQUARE)
    write_scenario(runs / "02_ok.json", bounds_scenario())
    out_dir = tmp_path / "out"
    assert run_child(child_env, "batch", "--dir", str(runs), "--out-dir", str(out_dir)).returncode == 2
    rows = (out_dir / "summary.csv").read_text().splitlines()
    assert rows[1].startswith("01_subnormal,,error,") and "eigen certificate margin" in rows[1]
    assert rows[2].startswith("02_ok,bounds,true")
    assert json.loads((out_dir / "02_ok.json").read_text())["passed"] is True

# Keys with a default; dropping one leaves a valid scenario.
OPTIONAL_KEYS = {"seed", "expect", "nodes_per_axis", "value", "steepness", "resolution"}

# Replacements that no field holding a value of the key's type accepts.
WRONG_TYPES = {
    str: [1, True, [1], {"a": 1}],
    bool: ["x", 1, [True]],
    int: ["x", True, {"a": 1}],
    float: ["x", True, {"a": 1}],
    list: ["x", True, {"a": 1}],
    dict: ["x", 1, [1]],
}


def object_paths(value, path="scenario"):
    """(path, keys) of every object in a scenario, outermost first."""
    if isinstance(value, dict):
        yield path, ()
        for key, item in value.items():
            for sub, keys in object_paths(item, f"{path}.{key}"):
                yield sub, (key,) + keys


def mutations(scenario, rng):
    """(mutant, paths the rejection must name one of) at every object level."""
    for path, keys in object_paths(scenario):
        def copy_at():
            mutant = copy.deepcopy(scenario)
            target = mutant
            for key in keys:
                target = target[key]
            return mutant, target

        mutant, target = copy_at()
        target["bogus_key"] = 1
        yield mutant, (f"{path}.bogus_key (",)
        for key, value in copy_at()[1].items():
            if key not in OPTIONAL_KEYS and path != "scenario.expect":
                mutant, target = copy_at()
                del target[key]
                yield mutant, (f"{path}.{key} (", f"{path} (")
            mutant, target = copy_at()
            target[key] = rng.choice(WRONG_TYPES[type(value)])
            yield mutant, (f"{path}.{key} (",)
            if isinstance(value, list):
                mutant, target = copy_at()
                target[key] = []
                yield mutant, (f"{path}.{key} (",)


@pytest.mark.parametrize("shipped", SHIPPED, ids=lambda p: p.stem)
def test_malformed_scenarios_exit_2_and_name_the_path(shipped, tmp_path, capsys):
    scenario = json.loads(shipped.read_text())
    rng = random.Random(f"{shipped.stem}-20261017")
    cases = list(mutations(scenario, rng))
    assert len(cases) >= 10
    for mutant, paths in cases:
        code, err = run_main(tmp_path, capsys, mutant, scenario["command"])
        assert code == 2, (paths, mutant)
        assert any(path in err for path in paths), (paths, err)
        assert "Traceback" not in err
