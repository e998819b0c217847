"""Per-layer spans for expbases, recorded from outside the library.

``Tracer.install`` replaces every public function of the seven expbases
modules with a timing wrapper at every place the function is bound:
the defining module and every other expbases module that imported the
name (``cli`` imports ``exp_gram``, ``paley_wiener`` imports it too,
``spectra`` imports ``eigen_bounds``, ``gabor`` imports
``translation_gram``, and the package re-exports them all). Three
methods are wrapped on their classes: ``FrequencySet.__init__`` and
``Pcg32.uniforms``/``Pcg32.distinct_indices``. ``uninstall`` puts the
originals back, so untraced and traced rounds can alternate in one
process.

A span is ``[name, start, end, parent, scenario, attrs]``, kept in
memory. Self time is a span's duration minus the durations of its direct
children; spans nest strictly because everything runs in one thread.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "domain", "numerics", "spectra", "paley_wiener", "tiling", "gabor")

_WEIGHT_BUILDERS = ("indicator_weight", "constant_weight", "affine_weight",
                    "bump_window", "table_weight")
_SIGNAL_BUILDERS = ("indicator_signal", "random_signal", "smooth_random_signal")


def _arg(args, kwargs, position, name, default=None):
    if len(args) > position:
        return args[position]
    return kwargs.get(name, default)


def _exp_gram_attrs(args, kwargs, result):
    domain = _arg(args, kwargs, 0, "domain")
    freqs = _arg(args, kwargs, 1, "freqs")
    weight = _arg(args, kwargs, 2, "weight")
    rule = _arg(args, kwargs, 3, "rule")
    pts = freqs.points
    # "Integer lattice on one box": the structure a Toeplitz or Kronecker
    # assembly can use. Integer-valued frequencies give integer
    # differences along every axis of a single box.
    lattice = len(domain.boxes) == 1 and bool((pts == pts.round()).all())
    closed = weight is None and rule is None and bool(domain.boxes)
    return {"n": freqs.size, "d": freqs.dimension, "boxes": len(domain.boxes),
            "lattice": lattice, "closed": closed}


def _eigen_attrs(args, kwargs, result):
    return {"n": int(_arg(args, kwargs, 0, "matrix").shape[0])}


def _quadrature_attrs(args, kwargs, result):
    return {"nodes": result.n_nodes}


def _gabor_attrs(args, kwargs, result):
    return {"order": _arg(args, kwargs, 1, "modulations").size
            * _arg(args, kwargs, 2, "translations").size}


def _search_attrs(args, kwargs, result):
    group = _arg(args, kwargs, 0, "group")
    return {"moduli": list(group.moduli), "k": len(list(_arg(args, kwargs, 1, "pattern"))),
            "examined": result.examined, "found": len(result.found),
            "exhaustive": result.exhaustive}


def _transfer_attrs(args, kwargs, result):
    freqs = _arg(args, kwargs, 1, "freqs")
    weight = _arg(args, kwargs, 2, "weight")
    return {"n": freqs.size, "d": freqs.dimension, "nodes": weight.rule.n_nodes,
            "support": int(weight.support_mask.sum())}


_ATTRS = {
    "spectra.exp_gram": _exp_gram_attrs,
    "numerics.eigen_bounds": _eigen_attrs,
    "domain.quadrature": _quadrature_attrs,
    "gabor.gabor_gram": _gabor_attrs,
    "tiling.search_complements": _search_attrs,
    "tiling.search_spectra": _search_attrs,
    "paley_wiener.verify_riesz_transfer": _transfer_attrs,
    "paley_wiener.verify_frame_transfer": _transfer_attrs,
    "cli.dumps_report": lambda args, kwargs, result: {"bytes": len(result)},
    "numerics.Pcg32.uniforms":
        lambda args, kwargs, result: {"values": int(_arg(args, kwargs, 1, "n"))},
    "numerics.Pcg32.distinct_indices":
        lambda args, kwargs, result: {"values": int(_arg(args, kwargs, 2, "k"))},
}


class Tracer:
    """Collects spans while installed; the scenario id is set by the caller."""

    def __init__(self):
        self.spans: list[list] = []
        self.scenario = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        attrs_of = _ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.scenario, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if attrs_of is not None:
                record[5] = attrs_of(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        package = [m for n, m in sorted(sys.modules.items())
                   if n == "expbases" or n.startswith("expbases.")]
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"expbases.{layer}"]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for module in package:
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, hit[1])
        spectra = sys.modules["expbases.spectra"]
        numerics = sys.modules["expbases.numerics"]
        for cls, attr, name in ((spectra.FrequencySet, "__init__", "spectra.FrequencySet"),
                                (numerics.Pcg32, "uniforms", "numerics.Pcg32.uniforms"),
                                (numerics.Pcg32, "distinct_indices",
                                 "numerics.Pcg32.distinct_indices")):
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def self_times(spans) -> list[float]:
    """Duration minus the durations of direct children, per span."""
    children = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            children[span[3]] += span[2] - span[1]
    return [span[2] - span[1] - covered for span, covered in zip(spans, children)]


# (metric, unit) in the order they are printed; every value is per traced
# scenario except the ratios.
PER_LAYER = [
    ("trace.overhead_ratio", "ratio"),
    ("trace.wall_s", "s/scenario"),
    ("trace.unattributed_frac", "ratio"),
    *[(f"{layer}.self_s", "s/scenario") for layer in LAYERS],
    ("cli.main.self_s", "s/scenario"),
    ("cli.build_parser.s", "s/scenario"),
    ("cli.run_scenario.self_s", "s/scenario"),
    ("cli.dumps_report.s", "s/scenario"),
    ("cli.write_text_atomic.s", "s/scenario"),
    ("cli.report_bytes", "bytes/scenario"),
    ("domain.quadrature.s", "s/scenario"),
    ("domain.quadrature.nodes", "count/scenario"),
    ("spectra.FrequencySet.s", "s/scenario"),
    ("spectra.exp_gram.self_s", "s/scenario"),
    ("spectra.exp_gram.calls", "count/scenario"),
    ("spectra.gram_entries", "count/scenario"),
    ("spectra.lattice_share", "ratio"),
    ("spectra.riesz_bounds.self_s", "s/scenario"),
    ("numerics.eigen_bounds.s", "s/scenario"),
    ("numerics.eigen_bounds.calls", "count/scenario"),
    ("numerics.eigen_order_cubed", "count/scenario"),
    ("numerics.pcg32.s", "s/scenario"),
    ("numerics.pcg32.values", "count/scenario"),
    ("paley_wiener.weight.s", "s/scenario"),
    ("paley_wiener.signal.s", "s/scenario"),
    ("paley_wiener.translation_gram.self_s", "s/scenario"),
    ("paley_wiener.verify_riesz_transfer.self_s", "s/scenario"),
    ("paley_wiener.verify_frame_transfer.self_s", "s/scenario"),
    ("paley_wiener.shannon_reconstruct.s", "s/scenario"),
    ("paley_wiener.zd_periodization.self_s", "s/scenario"),
    ("paley_wiener.convolution_factorization_check.s", "s/scenario"),
    ("tiling.search_complements.self_s", "s/scenario"),
    ("tiling.search_spectra.self_s", "s/scenario"),
    ("tiling.cube_equivalence_check.self_s", "s/scenario"),
    ("tiling.tiles.s", "s/scenario"),
    ("tiling.is_spectrum.s", "s/scenario"),
    ("tiling.examined", "count/scenario"),
    ("tiling.found", "count/scenario"),
    ("tiling.found_per_examined", "ratio"),
    ("gabor.vv_onb_check.self_s", "s/scenario"),
    ("gabor.gabor_gram.self_s", "s/scenario"),
    ("gabor.order_sum", "count/scenario"),
]


def layer_metrics(spans, n_scenarios: int, traced_wall: float,
                  overhead: float) -> dict[str, float]:
    """Aggregate spans into the PER_LAYER values.

    ``traced_wall`` is the raw time of the traced scenarios, which the
    spans divide up; ``overhead`` is calibrated traced over calibrated
    untraced time (1.0 when tracing costs nothing).
    """
    own = self_times(spans)
    total = defaultdict(float)
    self_total = defaultdict(float)
    calls = defaultdict(int)
    layer_self = defaultdict(float)
    attr_sum = defaultdict(float)
    lattice_calls = 0
    for span, s in zip(spans, own):
        name = span[0]
        total[name] += span[2] - span[1]
        self_total[name] += s
        calls[name] += 1
        layer_self[name.split(".", 1)[0]] += s
        attrs = span[5] or {}
        if name == "spectra.exp_gram":
            attr_sum["gram_entries"] += attrs["n"] ** 2
            lattice_calls += attrs["lattice"]
        elif name == "numerics.eigen_bounds":
            attr_sum["eigen_cubed"] += attrs["n"] ** 3
        elif name.startswith("numerics.Pcg32."):
            attr_sum["pcg_values"] += attrs["values"]
        elif name in ("tiling.search_complements", "tiling.search_spectra"):
            attr_sum["examined"] += attrs["examined"]
            attr_sum["found"] += attrs["found"]
        elif name == "domain.quadrature":
            attr_sum["nodes"] += attrs["nodes"]
        elif name == "gabor.gabor_gram":
            attr_sum["order"] += attrs["order"]
        elif name == "cli.dumps_report":
            attr_sum["bytes"] += attrs["bytes"]

    def prefixed(prefix, names):
        return sum(total[f"{prefix}.{n}"] for n in names)

    raw = {
        "trace.overhead_ratio": overhead,
        "trace.wall_s": traced_wall,
        "trace.unattributed_frac": 1.0 - sum(layer_self.values()) / traced_wall,
        **{f"{layer}.self_s": layer_self[layer] for layer in LAYERS},
        "cli.main.self_s": self_total["cli.main"],
        "cli.build_parser.s": total["cli.build_parser"],
        "cli.run_scenario.self_s": self_total["cli.run_scenario"],
        "cli.dumps_report.s": total["cli.dumps_report"],
        "cli.write_text_atomic.s": total["cli.write_text_atomic"],
        "cli.report_bytes": attr_sum["bytes"],
        "domain.quadrature.s": total["domain.quadrature"],
        "domain.quadrature.nodes": attr_sum["nodes"],
        "spectra.FrequencySet.s": total["spectra.FrequencySet"],
        "spectra.exp_gram.self_s": self_total["spectra.exp_gram"],
        "spectra.exp_gram.calls": calls["spectra.exp_gram"],
        "spectra.gram_entries": attr_sum["gram_entries"],
        "spectra.lattice_share": (lattice_calls / calls["spectra.exp_gram"]
                                  if calls["spectra.exp_gram"] else 0.0),
        "spectra.riesz_bounds.self_s": self_total["spectra.riesz_bounds"],
        "numerics.eigen_bounds.s": total["numerics.eigen_bounds"],
        "numerics.eigen_bounds.calls": calls["numerics.eigen_bounds"],
        "numerics.eigen_order_cubed": attr_sum["eigen_cubed"],
        "numerics.pcg32.s": prefixed("numerics.Pcg32", ("uniforms", "distinct_indices")),
        "numerics.pcg32.values": attr_sum["pcg_values"],
        "paley_wiener.weight.s": prefixed("paley_wiener", _WEIGHT_BUILDERS),
        "paley_wiener.signal.s": prefixed("paley_wiener", _SIGNAL_BUILDERS),
        "paley_wiener.translation_gram.self_s": self_total["paley_wiener.translation_gram"],
        "paley_wiener.verify_riesz_transfer.self_s":
            self_total["paley_wiener.verify_riesz_transfer"],
        "paley_wiener.verify_frame_transfer.self_s":
            self_total["paley_wiener.verify_frame_transfer"],
        "paley_wiener.shannon_reconstruct.s": total["paley_wiener.shannon_reconstruct"],
        "paley_wiener.zd_periodization.self_s": self_total["paley_wiener.zd_periodization"],
        "paley_wiener.convolution_factorization_check.s":
            total["paley_wiener.convolution_factorization_check"],
        "tiling.search_complements.self_s": self_total["tiling.search_complements"],
        "tiling.search_spectra.self_s": self_total["tiling.search_spectra"],
        "tiling.cube_equivalence_check.self_s": self_total["tiling.cube_equivalence_check"],
        "tiling.tiles.s": total["tiling.tiles"],
        "tiling.is_spectrum.s": total["tiling.is_spectrum"],
        "tiling.examined": attr_sum["examined"],
        "tiling.found": attr_sum["found"],
        "tiling.found_per_examined": (attr_sum["found"] / attr_sum["examined"]
                                      if attr_sum["examined"] else 0.0),
        "gabor.vv_onb_check.self_s": self_total["gabor.vv_onb_check"],
        "gabor.gabor_gram.self_s": self_total["gabor.gabor_gram"],
        "gabor.order_sum": attr_sum["order"],
    }
    ratios = {"trace.overhead_ratio", "trace.unattributed_frac",
              "spectra.lattice_share", "tiling.found_per_examined"}
    # Everything but the ratios is a run total; report it per traced scenario.
    out = {}
    for name, _unit in PER_LAYER:
        value = raw[name]
        if name not in ratios:
            value /= n_scenarios
        out[name] = value
    return out


# ROADMAP item 1 reference cases: (label, span selector, ROADMAP low/high ms).
REFERENCES = [
    ("closed-form Gram 1-D n=512", "spectra.exp_gram",
     lambda a: a["closed"] and a["boxes"] == 1 and a["d"] == 1 and a["n"] == 512, 30.0, 35.0),
    ("closed-form Gram 2-D n=484", "spectra.exp_gram",
     lambda a: a["closed"] and a["boxes"] == 1 and a["d"] == 2 and a["n"] == 484, 55.0, 55.0),
    ("eigen_bounds n=484", "numerics.eigen_bounds", lambda a: a["n"] == 484, 114.0, 114.0),
    ("eigen_bounds n=512", "numerics.eigen_bounds", lambda a: a["n"] == 512, 118.0, 118.0),
    ("verify_riesz_transfer 2-D n=484, 2,048 nodes", "paley_wiener.verify_riesz_transfer",
     lambda a: a["d"] == 2 and a["n"] == 484 and a["nodes"] == 2048, 366.0, 366.0),
    ("verify_frame_transfer 400 support nodes", "paley_wiener.verify_frame_transfer",
     lambda a: a["support"] == 400, 136.0, 136.0),
    ("search_complements Z16^2, 2x2 cube", "tiling.search_complements",
     lambda a: a["moduli"] == [16, 16] and a["k"] == 4 and a["exhaustive"], 2200.0, 3600.0),
    ("search_spectra Z64^2, 2x2 cube", "tiling.search_spectra",
     lambda a: a["moduli"] == [64, 64] and a["k"] == 4 and a["exhaustive"], 333.0, 333.0),
]


def reference_check(spans) -> list[dict]:
    """Per-call traced times of the ROADMAP cases against its table.

    A case is flagged when its median lies outside the ROADMAP range by
    more than the case's own run spread (interquartile range over median).
    Pcg32 draws are scaled to 100k uniforms.
    """
    rows = []
    for label, name, select, low, high in REFERENCES:
        times = [1e3 * (s[2] - s[1]) for s in spans
                 if s[0] == name and select(s[5])]
        rows.append(_reference_row(label, times, low, high))
    per_value = [1e3 * (s[2] - s[1]) * 1e5 / s[5]["values"] for s in spans
                 if s[0] == "numerics.Pcg32.uniforms" and s[5]["values"] >= 64]
    rows.append(_reference_row("Pcg32.uniforms, 100k draws (scaled)", per_value,
                               248.0, 248.0))
    return [row for row in rows if row is not None]


def _reference_row(label, times, low, high):
    if not times:
        return None
    median = statistics.median(times)
    if len(times) >= 4:
        q1, _, q3 = statistics.quantiles(times, n=4)
        spread = (q3 - q1) / median
    else:
        spread = 0.0
    outside = median < low * (1.0 - spread) or median > high * (1.0 + spread)
    return {"case": label, "calls": len(times), "median_ms": median,
            "run_spread": spread, "roadmap_ms": [low, high], "flagged": outside}
