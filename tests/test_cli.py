"""Scenario runner: schema rejection, serialization, exit codes, determinism."""

import copy
import json
import math
import os
import random
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import expbases
from expbases.cli import (
    SchemaError,
    dumps_report,
    main,
    report_csv,
    run_scenario,
    write_text_atomic,
)
from expbases.tiling import SEARCH_BUDGET


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
    assert f"scenario.parameters.{path} (" in err and "system cap 512" in err
    assert "Traceback" not in err


def test_frame_transfer_vector_count_has_no_cap(tmp_path, capsys):
    scenario = {"name": "overcomplete", "command": "frame-transfer",
                "parameters": {"domain": {"boxes": [[0.0, 1.0]]},
                               "freqs": {"range": [-300, 299]},
                               "weight": {"profile": "constant", "nodes_per_axis": 16}}}
    code, err = run_main(tmp_path, capsys, scenario, "frame-transfer")
    assert code == 0 and err == ""
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["results"]["n_vectors"] == 600


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


@pytest.mark.parametrize("command, parameters", [
    ("tiling", {"moduli": [64, 64], "mode": "search_complements", "pattern": [0, 1, 64, 65]}),
    ("cube-check", {"moduli": [64, 64], "side": 2}),
])
def test_search_past_its_work_budget_exits_promptly(tmp_path, capsys, command, parameters):
    # The 2x2 cube in Z64^2 is within the caps but has astronomically many
    # complements; the walk must stop at its budget, not run until killed.
    start = time.perf_counter()
    code, err = run_main(tmp_path, capsys, {"name": "huge", "command": command,
                                           "parameters": parameters}, command)
    assert time.perf_counter() - start < 30.0
    assert code == 2
    assert f"complement search passed its budget of {SEARCH_BUDGET} work units" in err
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
    assert check["measured"] > 0.0
    assert report["passed"] is False


SHIPPED = sorted((Path(__file__).resolve().parent.parent / "scenarios").glob("*.json"))

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
