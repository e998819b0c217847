"""The per-layer tracer in perfbench/tracing.py against the library it wraps.

The tracer binds exp_gram's arguments by position and wraps functions by
name, so a renamed function or a reordered signature would break a
traced benchmark run; these tests catch that here first.
"""

import inspect
import json
import runpy
import sys
from pathlib import Path

import expbases
from expbases import cli, spectra

# run_path compiles the file itself and writes no bytecode next to it.
TRACING = runpy.run_path(str(Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"))

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def bindings():
    """Every name bound in an expbases module, with the object it is bound to."""
    modules = [m for n, m in sorted(sys.modules.items())
               if n == "expbases" or n.startswith("expbases.")]
    bound = {(m.__name__, attr): obj for m in modules for attr, obj in vars(m).items()}
    for cls, attr in ((spectra.FrequencySet, "__init__"), (expbases.Pcg32, "uniforms"),
                      (expbases.Pcg32, "distinct_indices")):
        bound[(cls.__name__, attr)] = cls.__dict__[attr]
    return bound


def test_a_traced_run_records_the_benchmark_spans_and_restores_the_library(tmp_path):
    before = bindings()
    tracer = TRACING["Tracer"]()
    tracer.install()
    try:
        for command, name in (("bounds", "01_wsk_orthonormal.json"),
                              ("transfer", "05_transfer_constant.json")):
            code = cli.main([command, "--scenario", str(SCENARIOS / name),
                             "--out", str(tmp_path / f"{command}.json")])
            assert code == 0
    finally:
        tracer.uninstall()
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is obj for key, obj in before.items())
    # main builds its parser once per process, so two calls build at most
    # one, and the parser it keeps records nothing once the tracer is gone.
    assert sum(span[0] == "cli.build_parser" for span in tracer.spans) <= 1
    recorded = len(tracer.spans)
    assert cli.main(["bounds", "--scenario", str(SCENARIOS / "01_wsk_orthonormal.json"),
                     "--out", str(tmp_path / "untraced.json")]) == 0
    assert len(tracer.spans) == recorded
    names = {span[0] for span in tracer.spans}
    assert {"spectra.exp_gram", "numerics.eigen_bounds", "paley_wiener.verify_riesz_transfer",
            "cli.dumps_report"} <= names
    grams = [span[5] for span in tracer.spans if span[0] == "spectra.exp_gram"]
    assert grams and all({"n", "lattice"} <= attrs.keys() for attrs in grams)
    assert grams[0]["n"] == 17 and grams[0]["lattice"] is True


def test_every_function_the_tracer_names_is_still_a_public_function():
    # A span name the library no longer defines would read as zero time in
    # every traced benchmark run instead of failing.
    named = set(TRACING["_ATTRS"])
    for metric, _unit in TRACING["PER_LAYER"]:
        layer, *rest = metric.split(".")
        if layer in TRACING["LAYERS"] and len(rest) == 2:
            named.add(f"{layer}.{rest[0]}")
    # Metrics summed over several functions or methods.
    named -= {"numerics.pcg32", "paley_wiener.weight", "paley_wiener.signal"}
    named |= {f"paley_wiener.{name}"
              for name in TRACING["_WEIGHT_BUILDERS"] + TRACING["_SIGNAL_BUILDERS"]}
    for name in sorted(named):
        layer, attr, *method = name.split(".")
        module = sys.modules[f"expbases.{layer}"]
        obj = getattr(module, attr, None)
        if inspect.isclass(obj):
            # The wrapped methods: FrequencySet.__init__, Pcg32's draws.
            assert set(method) <= vars(obj).keys(), name
        else:
            assert not method and not attr.startswith("_"), name
            assert inspect.isfunction(obj) and obj.__module__ == module.__name__, name


def traced_spans(tmp_path, command, scenario):
    tracer = TRACING["Tracer"]()
    tracer.install()
    try:
        code = cli.main([command, "--scenario", str(SCENARIOS / scenario),
                         "--out", str(tmp_path / "report.json")])
    finally:
        tracer.uninstall()
    assert code == 0
    return tracer.spans


def test_a_traced_frame_transfer_records_its_eigen_solves_with_their_order(tmp_path):
    spans = traced_spans(tmp_path, "frame-transfer", "06_frame_bump.json")
    report = json.loads((tmp_path / "report.json").read_text())
    solves = [span[5] for span in spans if span[0] == "numerics.eigen_bounds"]
    assert solves == [{"n": report["results"]["space_dim"]}] * 2


def test_a_traced_gabor_records_its_grams_and_solves_nothing(tmp_path):
    # vv_onb_check judges orthonormality from the Grams' entries: gabor_gram,
    # traced with the product's order, builds the factor Grams, traced with
    # their sizes, and no eigen solve runs.
    spans = traced_spans(tmp_path, "gabor", "11_gabor_wsk.json")
    # The modulation and translation Grams of the ranges -1..1, built once.
    assert [span[5]["n"] for span in spans if span[0] == "spectra.exp_gram"] == [3, 3]
    assert "gabor.vv_onb_check" in {span[0] for span in spans}
    assert [span[5] for span in spans if span[0] == "gabor.gabor_gram"] == [{"order": 9}]
    assert TRACING["layer_metrics"](spans, 1, 1.0, 1.0)["gabor.order_sum"] == 9
    assert not any(span[0] == "numerics.eigen_bounds" for span in spans)


def test_a_traced_box_union_records_one_solve_of_the_full_order(tmp_path):
    # The union's Gram on a symmetric range is centrohermitian, and
    # eigen_bounds solves it as one real matrix in the reversal's even/odd
    # basis: one eigen_bounds span, with the order of the Gram, not of a
    # half.
    scenario = tmp_path / "union.json"
    scenario.write_text(json.dumps({
        "name": "union", "command": "bounds",
        "parameters": {"domain": {"boxes": [[-0.25, 0.75], [1.0, 1.375]]},
                       "freqs": {"range": [-6, 8]}}}))
    tracer = TRACING["Tracer"]()
    tracer.install()
    try:
        code = cli.main(["bounds", "--scenario", str(scenario),
                         "--out", str(tmp_path / "report.json")])
    finally:
        tracer.uninstall()
    assert code == 0
    solves = [span[5] for span in tracer.spans if span[0] == "numerics.eigen_bounds"]
    assert solves == [{"n": 15}]


def test_a_traced_sampled_tiling_search_records_its_draws(tmp_path):
    # The sampler draws each stack of candidates in one distinct_indices
    # call, which the tracer still wraps by name and reads k from.
    scenario = tmp_path / "sampled.json"
    scenario.write_text(json.dumps({
        "name": "sampled", "command": "tiling",
        "parameters": {"moduli": [5000], "mode": "search_complements",
                       "pattern": [0, 1], "samples": 3}}))
    tracer = TRACING["Tracer"]()
    tracer.install()
    try:
        code = cli.main(["tiling", "--scenario", str(scenario),
                         "--out", str(tmp_path / "report.json")])
    finally:
        tracer.uninstall()
    assert code == 0
    draws = [span[5] for span in tracer.spans if span[0] == "numerics.Pcg32.distinct_indices"]
    assert draws and all(attrs == {"values": 2500} for attrs in draws)
