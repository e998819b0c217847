"""Command line front end: scenario files in, deterministic reports out.

Every command reads one scenario JSON file, runs the matching library
operation, and writes a report whose bytes depend only on the scenario
and the seed (wall_time_s is the single exception). Exit status: 0 all
checks passed, 1 a verdict failed, 2 the scenario or invocation was
rejected before any verdict.
"""

from __future__ import annotations

import argparse
import csv
import glob
import inspect
import io
import json
import os
import sys
import tempfile
import time
from collections import namedtuple
from typing import Any, Optional

import numpy as np

from . import __version__
from .domain import Box, Domain, MaskGrid, QuadratureRule, quadrature
from .gabor import UNIT_MEASURE_RTOL, vv_onb_check
from .numerics import Pcg32
from .paley_wiener import (PERIODIZATION_KINDS, SUPPORT_TOL, BandlimitedSignal,
                           affine_weight, bump_window, constant_weight,
                           convolution_factorization_check,
                           indicator_signal, indicator_weight,
                           periodization_profile, random_signal,
                           shannon_reconstruct, smooth_random_signal,
                           table_weight, translation_gram,
                           verify_frame_transfer, verify_riesz_transfer,
                           zd_periodization)
from .spectra import (SYSTEM_SIZE_CAP, FrequencySet, exp_gram,
                      is_orthonormal_system, lattice_truncation, riesz_bounds)
from .tiling import (GroupInstance, cube_equivalence_check, is_spectrum,
                     search_complements, search_spectra, tiles)

# Judgement scales echoed into every report: absolute for magnitudes at
# or below one, relative otherwise.
ABSOLUTE_TOL = 1e-10
RELATIVE_TOL = 1e-9

_TOLERANCE_POLICY = {
    "absolute": ABSOLUTE_TOL,
    "relative": RELATIVE_TOL,
    "rule": "absolute below unit magnitude, relative otherwise",
}


class SchemaError(Exception):
    """Scenario rejected before running; carries the offending paths."""

    def __init__(self, paths):
        self.paths = tuple(paths)
        super().__init__("invalid scenario fields: " + "; ".join(self.paths))


# The scenario schema: specs are data, and _check walks a JSON value
# against one. The forms are
#   _Leaf(what, test, convert): a value that passes test, converted if a
#     converter is given (_INT, _NUM for any number, _STR, _BOOL, _COMPLEX
#     for a number or [re, im], _at_least(n) for an int of at least n);
#   [item]: a nonempty list of items; (a, b, ...): a list, one spec per place;
#   _Array(leaf, rank): a leaf, or nonempty lists nested at most rank deep
#     around leaves (any depth when rank is None);
#   _Map(item): an object with free keys, each value an item;
#   _Obj(fields, build): an object with exactly the keys of fields, each
#     mapped to (spec, default), where a default of None also accepts null;
#     a function in place of (spec, default) computes a value from the
#     fields before it and is never read from the scenario.
#     build(values, scope) makes the object from its checked values;
#   _Tagged(tag, variants): an _Obj whose tag key names the variant, given
#     as name -> (fields, build).
# scope maps the names of the values built so far in the enclosing objects
# (the innermost wins), so a builder finds its domain, rule or seeded stream.
_Leaf = namedtuple("_Leaf", "what test convert", defaults=(None,))
_Array = namedtuple("_Array", "leaf rank")
_Map = namedtuple("_Map", "item")
_Obj = namedtuple("_Obj", "fields build", defaults=(None,))
_Tagged = namedtuple("_Tagged", "tag variants")

_BAD = object()
_REQ = object()  # default of a field that must be given


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _at_least(lo: int) -> _Leaf:
    return _Leaf(f"int >= {lo}", lambda v: _is_int(v) and v >= lo)


_INT = _Leaf("int", _is_int)
_NUM = _Leaf("number", _is_number)
_STR = _Leaf("str", lambda v: isinstance(v, str))
_BOOL = _Leaf("bool", lambda v: isinstance(v, bool))
_COMPLEX = _Leaf(
    "a number or [re, im]",
    lambda v: _is_number(v) or (isinstance(v, list) and len(v) == 2
                                and all(map(_is_number, v))),
    lambda v: complex(*v) if isinstance(v, list) else complex(v))


class _Walk:
    """The offending paths of one scenario, collected so one rejection names all."""

    def __init__(self):
        self.errors: list[str] = []

    def fail(self, path: str, why: str):
        self.errors.append(f"{path} ({why})")
        return _BAD

    def build(self, path: str, fn, *args):
        try:
            return fn(*args)
        except KeyError:
            # A value the builder needs was rejected, and is reported already.
            if not self.errors:
                raise
            return _BAD
        except (TypeError, ValueError) as exc:
            return self.fail(path, str(exc))


def _check(spec, value, path: str, walk: _Walk, scope: dict):
    """What value builds under spec, or _BAD once walk has recorded why not."""
    if isinstance(spec, _Leaf):
        if not spec.test(value):
            return walk.fail(path, f"expected {spec.what}")
        return value if spec.convert is None else spec.convert(value)
    if isinstance(spec, _Array):
        if not isinstance(value, list) or spec.rank == 0:
            return _check(spec.leaf, value, path, walk, scope)
        inner = [spec.leaf if spec.rank == 1 else
                 _Array(spec.leaf, None if spec.rank is None else spec.rank - 1)]
        return _BAD if _check(inner, value, path, walk, scope) is _BAD else value
    if type(spec) in (list, tuple):
        many = type(spec) is list
        if not (isinstance(value, list) and value and (many or len(value) == len(spec))):
            return walk.fail(path, "expected a nonempty list" if many
                             else f"expected a list of {len(spec)} items")
        out = []
        for i, v in enumerate(value):
            got = _check(spec[0] if many else spec[i], v, f"{path}[{i}]", walk, scope)
            if got is _BAD:
                return _BAD
            out.append(got)
        return out
    if not isinstance(value, dict):
        return walk.fail(path, "expected an object")
    if isinstance(spec, _Map):
        out = {key: _check(spec.item, v, f"{path}.{key}", walk, scope)
               for key, v in value.items()}
        return _BAD if any(v is _BAD for v in out.values()) else out
    if isinstance(spec, _Tagged):
        name = value.get(spec.tag)
        if not (isinstance(name, str) and name in spec.variants):
            why = ("missing" if spec.tag not in value else f"unknown {spec.tag} {name!r}, "
                   f"expected one of {', '.join(spec.variants)}")
            return walk.fail(f"{path}.{spec.tag}", why)
        fields, build = spec.variants[name]
        spec = _Obj({spec.tag: (_STR, _REQ), **fields}, build)
    # Computed fields are not keys a scenario may give.
    unknown = sorted(key for key in value if not isinstance(spec.fields.get(key), tuple))
    for key in unknown:
        walk.fail(f"{path}.{key}", "unknown key")
    out = {}
    inner = dict(scope)
    for key, field in spec.fields.items():
        sub = f"{path}.{key}"
        if callable(field):
            got = walk.build(sub, field, inner)
        elif key not in value:
            got = walk.fail(sub, "missing") if field[1] is _REQ else field[1]
        elif value[key] is None and field[1] is None:
            got = None
        else:
            got = _check(field[0], value[key], sub, walk, inner)
        if got is not _BAD:
            out[key] = inner[key] = got
    if unknown or len(out) < len(spec.fields):
        return _BAD
    return out if spec.build is None else walk.build(path, spec.build, out, scope)


def _only(values) -> str:
    # Variants keyed by name (freqs points or range): exactly one is given.
    given = [key for key, value in values.items() if value is not None]
    if len(given) != 1:
        raise ValueError(f"needs exactly one of {' or '.join(values)}")
    return given[0]


def _domain(v, s) -> Domain:
    if v["boxes"] is None and v["mask"] is None:
        raise ValueError("needs boxes or mask")
    return Domain(boxes=[Box(lo, hi) for lo, hi in v["boxes"] or ()], mask=v["mask"])


_VECTOR = _Array(_NUM, 1)  # a number, or one number per axis

_DOMAIN = _Obj({
    "boxes": ([(_VECTOR, _VECTOR)], None),
    "mask": (_Obj({"origin": (_VECTOR, _REQ), "counts": (_Array(_at_least(1), 1), _REQ),
                   "widths": (_VECTOR, _REQ), "included": (_Array(_BOOL, None), _REQ)},
                  lambda v, s: MaskGrid(**v)), None),
}, _domain)


def _freqs(domain_of, cap: Optional[int] = SYSTEM_SIZE_CAP) -> _Obj:
    """Frequencies as points or an integer range, on the domain domain_of(scope).

    A set of more than cap points (None: no cap) is rejected before it is
    built, because building it compares every pair of points.
    """
    def build(v, s) -> FrequencySet:
        variant = _only(v)
        dimension = domain_of(s).dimension
        if variant == "range":
            count = max(v["range"][1] - v["range"][0] + 1, 0) ** dimension
        else:
            count = len(v["points"]) if isinstance(v["points"], list) else 1
        if cap is not None and count > cap:
            raise ValueError(f"{count} points exceed the system cap {cap}")
        if variant == "range":
            freqs = lattice_truncation(v["range"][0], v["range"][1], dimension)
        else:
            freqs = FrequencySet(v["points"])
        if freqs.dimension != dimension:
            raise ValueError(f"{freqs.dimension}-dimensional frequencies on a "
                             f"{dimension}-dimensional domain")
        return freqs
    return _Obj({"points": (_Array(_NUM, 2), None), "range": ((_INT, _INT), None)}, build)


_FREQS = _freqs(lambda s: s["domain"])
# A frame may be overcomplete, so its vector count has no cap.
_FRAME_FREQS = _freqs(lambda s: s["domain"], cap=None)


def _shared_rule(v, s) -> Optional[QuadratureRule]:
    # A command with its own rule (factorization) samples the weight on it.
    rule = s.get("rule")
    if rule is not None and v["nodes_per_axis"] not in (None, s["nodes_per_axis"]):
        raise ValueError(
            f"nodes_per_axis {v['nodes_per_axis']} differs from "
            f"scenario.parameters.nodes_per_axis {s['nodes_per_axis']}, "
            "the rule weight and signal share")
    return rule


def _weight(nodes, bump_nodes) -> _Tagged:
    """Spectral weights by profile, with these node-count defaults."""
    n = (_at_least(1), nodes)
    return _Tagged("profile", {
        "indicator": ({"nodes_per_axis": n}, lambda v, s: indicator_weight(
            s["domain"], v["nodes_per_axis"], _shared_rule(v, s))),
        "constant": ({"value": (_COMPLEX, 1.0), "nodes_per_axis": n},
                     lambda v, s: constant_weight(s["domain"], v["value"], v["nodes_per_axis"],
                                                  _shared_rule(v, s))),
        "affine": ({"offset": (_NUM, _REQ), "gradient": (_VECTOR, _REQ), "nodes_per_axis": n},
                   lambda v, s: affine_weight(s["domain"], v["offset"], v["gradient"],
                                              v["nodes_per_axis"], _shared_rule(v, s))),
        "bump": ({"steepness": (_NUM, 1.0), "nodes_per_axis": (_at_least(1), bump_nodes)},
                 lambda v, s: bump_window(s["domain"], v["steepness"], v["nodes_per_axis"],
                                          _shared_rule(v, s))),
        "table": ({"values": ([_COMPLEX], _REQ), "nodes_per_axis": n},
                  lambda v, s: table_weight(s["domain"], _shared_rule(v, s)
                                            or quadrature(s["domain"], v["nodes_per_axis"]),
                                            v["values"])),
    })


_WEIGHT = _weight(32, 64)
# On a shared rule the weight's node count is the rule's: given, it must match.
_WEIGHT_ON_RULE = _weight(None, None)

_SIGNAL = _Tagged("kind", {
    "indicator": ({}, lambda v, s: indicator_signal(s["domain"], s["rule"])),
    "random": ({}, lambda v, s: random_signal(s["domain"], s["rule"], s["rng"])),
    "smooth_random": ({"max_order": (_at_least(0), 3)}, lambda v, s: smooth_random_signal(
        s["domain"], s["rule"], s["rng"], max_order=v["max_order"])),
    "table": ({"values": ([_COMPLEX], _REQ)},
              lambda v, s: BandlimitedSignal(s["domain"], s["rule"], v["values"])),
})

# Each kind takes the keyword parameters, and defaults, of its constructor.
_PERIODIZATION_PROFILE = _Tagged("kind", {
    kind: ({name: (_VECTOR, _REQ if p.default is p.empty else p.default)
            for name, p in inspect.signature(make).parameters.items()},
           lambda v, s: periodization_profile(**v))
    for kind, make in PERIODIZATION_KINDS.items()})


def _eval_points(v, s) -> np.ndarray:
    if _only(v) == "grid":
        lo, hi, count = v["grid"]
        return np.linspace(float(lo), float(hi), count)
    return np.asarray(v["points"], dtype=float)


def _command_rule(s) -> QuadratureRule:
    return quadrature(s["domain"], s["nodes_per_axis"])


def _bounds_parameters(v, s) -> dict:
    # exp_gram reads a node count only for an unweighted Gram on a domain
    # without boxes; anywhere else a given one would be ignored.
    if v["nodes_per_axis"] is None:
        return {**v, "nodes_per_axis": 32}
    if v["domain"].boxes or v["weight"] is not None:
        raise ValueError("scenario.parameters.nodes_per_axis applies only to an "
                         "unweighted Gram on a mask domain")
    return v


def _hyp(name: str, passed: bool, measured, tolerance) -> dict:
    return {"name": name, "passed": bool(passed), "measured": measured,
            "tolerance": tolerance}


def _nowhere_zero(weight) -> bool:
    # Node samples can straddle a zero; the exact infimum, where the profile
    # knows it, cannot.
    floor = weight.exact_inf if weight.exact_inf is not None else weight.inf_mod
    return floor > SUPPORT_TOL


def _run_bounds(p, rng, tol):
    domain, freqs = p["domain"], p["freqs"]
    if p["weight"] is not None:
        gram = translation_gram(domain, freqs, p["weight"])
    else:
        gram = exp_gram(domain, freqs, nodes_per_axis=p["nodes_per_axis"])
    bounds = riesz_bounds(gram)
    onb = is_orthonormal_system(gram, tol if tol is not None else ABSOLUTE_TOL)
    hyps = [_hyp("system_size_within_cap", freqs.size <= SYSTEM_SIZE_CAP,
                 freqs.size, SYSTEM_SIZE_CAP)]
    results = {
        "lower": bounds.lower,
        "upper": bounds.upper,
        "condition": bounds.condition,
        "verdict": bounds.verdict,
        "onb_deviation": onb.deviation,
        "provenance": gram.provenance,
        "system_size": freqs.size,
        "domain_measure": domain.measure,
    }
    verdicts = {
        "is_onb": bool(onb.is_onb),
        "is_riesz_basis": bounds.verdict == "riesz_basis",
        "degenerate": bounds.verdict == "degenerate",
    }
    return hyps, results, verdicts


def _run_transfer(p, rng, tol):
    report = verify_riesz_transfer(p["domain"], p["freqs"], p["weight"])
    hyps = [_hyp("weight_nowhere_zero", _nowhere_zero(p["weight"]), report.inf_mod,
                 SUPPORT_TOL)]
    results = {
        "exp_lower": report.exp_bounds.lower,
        "exp_upper": report.exp_bounds.upper,
        "translation_lower": report.translation_bounds.lower,
        "translation_upper": report.translation_bounds.upper,
        "predicted_lower": report.predicted_lower,
        "predicted_upper": report.predicted_upper,
        "lower_margin": report.lower_margin,
        "upper_margin": report.upper_margin,
        "inf_modulus": report.inf_mod,
        "sup_modulus": report.sup_mod,
        "resolution_flagged": report.weight_resolution_flagged,
    }
    verdicts = {
        "sandwich_holds": bool(report.sandwich_holds),
        "translation_degenerate": report.translation_bounds.verdict == "degenerate",
    }
    return hyps, results, verdicts


def _run_frame_transfer(p, rng, tol):
    report = verify_frame_transfer(p["domain"], p["freqs"], p["weight"])
    hyps = [
        _hyp("support_nonempty", report.space_dim >= 1, report.space_dim, 1),
        _hyp("support_within_cap", report.space_dim <= 512, report.space_dim, 512),
    ]
    results = {
        "weighted_lower": report.weighted_bounds.lower,
        "weighted_upper": report.weighted_bounds.upper,
        "unweighted_lower": report.unweighted_bounds.lower,
        "unweighted_upper": report.unweighted_bounds.upper,
        "predicted_lower": report.predicted_lower,
        "predicted_upper": report.predicted_upper,
        "lower_margin": report.lower_margin,
        "upper_margin": report.upper_margin,
        "weight_floor_sq": report.weight_floor_sq,
        "weight_ceil_sq": report.weight_ceil_sq,
        "space_dim": report.space_dim,
        "n_vectors": report.n_vectors,
        "support_is_proper": report.support_is_proper,
        "note": report.note,
    }
    verdicts = {"sandwich_holds": bool(report.sandwich_holds)}
    return hyps, results, verdicts


def _run_tiling(p, rng, tol):
    group = GroupInstance(p["moduli"])
    mode, pattern = p["mode"], p["pattern"]
    hyps = [_hyp("pattern_within_group", max(pattern) < group.order,
                 max(pattern), group.order)]
    if mode == "check_tiling":
        verdict = tiles(group, pattern, p["candidate"])
        results = {"uncovered": verdict.uncovered, "collisions": verdict.collisions}
        verdicts = {"is_tiling": bool(verdict.is_tiling)}
    elif mode == "check_spectrum":
        verdict = is_spectrum(group, pattern, p["candidate"])
        results = {"defect": verdict.defect, "tolerance": verdict.tolerance,
                   "sizes_match": verdict.sizes_match}
        verdicts = {"is_spectrum": bool(verdict.is_spectrum)}
    else:
        search = search_complements if mode == "search_complements" else search_spectra
        found = search(group, pattern, force_exhaustive=p["force_exhaustive"],
                       samples=p["samples"], rng=rng)
        results = {
            "found": [list(s) for s in found.found],
            "n_found": len(found.found),
            "examined": found.examined,
            "note": found.note,
        }
        verdicts = {"exhaustive": bool(found.exhaustive),
                    "found_any": len(found.found) > 0}
    return hyps, results, verdicts


def _run_cube_check(p, rng, tol):
    moduli, side = p["moduli"], p["side"]
    divides = all(m % side == 0 for m in moduli)
    hyps = [_hyp("side_divides_moduli", divides, side, min(moduli))]
    if not divides:
        # No dual cube exists, so neither family is searched.
        return hyps, {}, {"families_equal": None}
    report = cube_equivalence_check(GroupInstance(moduli), side)
    results = {
        "side": list(report.side),
        "dual_side": list(report.dual_side),
        "n_complements": report.n_complements,
        "n_spectra": report.n_spectra,
        "complements": [list(s) for s in report.complements.found],
        "spectra": [list(s) for s in report.spectra.found],
    }
    verdicts = {"families_equal": bool(report.equal)}
    return hyps, results, verdicts


def _run_sample(p, rng, tol):
    terms = p["n_terms"] if isinstance(p["n_terms"], list) else [p["n_terms"]]
    truncations = []
    energies = []
    for n in terms:
        rep = shannon_reconstruct(p["signal"], n, p["eval_points"])
        energies.append((n, rep.coeff_energy))
        truncations.append({
            "n_terms": n,
            "coeff_energy": rep.coeff_energy,
            "parseval_ok": bool(rep.parseval_ok),
            "max_abs_value": float(np.max(np.abs(rep.values))),
        })
    ordered = sorted(energies)
    monotone = all(b[1] >= a[1] - 1e-12 * max(1.0, abs(a[1]))
                   for a, b in zip(ordered, ordered[1:]))
    n_nodes = p["rule"].n_nodes
    hyps = [_hyp("nodes_resolve_truncation", n_nodes > 2 * max(terms),
                 n_nodes, 2 * max(terms) + 1)]
    results = {
        "signal_energy": p["signal"].norm_sq,
        "truncations": truncations,
    }
    verdicts = {
        "parseval_ok": all(t["parseval_ok"] for t in truncations),
        "energy_monotone": bool(monotone),
    }
    return hyps, results, verdicts


def _run_gabor(p, rng, tol):
    base, modulations, translations = p["base_domain"], p["modulations"], p["translations"]
    report = vv_onb_check(base, modulations, translations, p["window"]["weight"],
                          tol if tol is not None else ABSOLUTE_TOL)
    order = modulations.size * translations.size
    hyps = [
        _hyp("unit_base_measure", abs(base.measure - 1.0) <= UNIT_MEASURE_RTOL,
             base.measure, UNIT_MEASURE_RTOL),
        _hyp("system_size_within_cap", order <= SYSTEM_SIZE_CAP, order, SYSTEM_SIZE_CAP),
    ]
    results = {
        "gabor_deviation": report.gabor.deviation,
        "modulation_deviation": report.modulation.deviation,
        "translation_deviation": report.translation.deviation,
        "kron_defect": report.kron_defect,
        "window_normalized": report.window_normalized,
        "system_order": order,
        "note": report.note,
    }
    verdicts = {
        "gabor_is_onb": bool(report.gabor.is_onb),
        "modulation_is_onb": bool(report.modulation.is_onb),
        "translation_is_onb": bool(report.translation.is_onb),
        "equivalent": bool(report.equivalent),
    }
    return hyps, results, verdicts


def _run_periodization(p, rng, tol):
    resolution = p["resolution"]
    report = zd_periodization(p["profile"], resolution=resolution,
                              tol=tol if tol is not None else 1e-8,
                              gram_nodes=p["gram_nodes"])
    hyps = [_hyp("resolution_sufficient", resolution >= 2, resolution, 2)]
    results = {
        "sup_deviation": report.sup_deviation,
        "gram_deviation": report.gram_deviation,
        "tol": report.tol,
        "gram_tol": report.gram_tol,
        "resolution": report.resolution,
    }
    verdicts = {
        "is_onb": bool(report.is_onb),
        "gram_is_onb": bool(report.gram_is_onb),
        "routes_agree": bool(report.agree),
    }
    return hyps, results, verdicts


def _run_factorization(p, rng, tol):
    weight = p["weight"]
    report = convolution_factorization_check(p["domain"], weight, p["signal"])
    hyps = [_hyp("weight_nowhere_zero", _nowhere_zero(weight), weight.inf_mod, SUPPORT_TOL)]
    results = {
        "residual": report.residual,
        "quotient_norm": report.quotient_norm,
        "norm_bound": report.norm_bound,
        "signal_norm": report.signal_norm,
    }
    verdicts = {
        "roundtrip_exact": report.residual <= (tol if tol is not None else 1e-12),
        "bound_holds": bool(report.bound_holds),
    }
    return hyps, results, verdicts


_PATTERN = {"moduli": ([_at_least(1)], _REQ), "pattern": ([_at_least(0)], _REQ)}
_CHECK_CANDIDATE = {**_PATTERN, "candidate": ([_at_least(0)], _REQ)}
_SEARCH = {**_PATTERN, "samples": (_at_least(1), None), "force_exhaustive": (_BOOL, False)}


def _transfer(freqs) -> _Obj:
    return _Obj({"domain": (_DOMAIN, _REQ), "freqs": (freqs, _REQ), "weight": (_WEIGHT, _REQ)})


# Each command: its runner and the spec of its parameters. README.md lists
# the same keys.
COMMANDS = {
    "bounds": (_run_bounds, _Obj({
        "domain": (_DOMAIN, _REQ),
        "freqs": (_FREQS, _REQ),
        "weight": (_WEIGHT, None),
        "nodes_per_axis": (_at_least(1), None),
    }, _bounds_parameters)),
    "transfer": (_run_transfer, _transfer(_FREQS)),
    "frame-transfer": (_run_frame_transfer, _transfer(_FRAME_FREQS)),
    "tiling": (_run_tiling, _Tagged("mode", {
        "check_tiling": (_CHECK_CANDIDATE, None),
        "check_spectrum": (_CHECK_CANDIDATE, None),
        "search_complements": (_SEARCH, None),
        "search_spectra": (_SEARCH, None),
    })),
    "cube-check": (_run_cube_check, _Obj({
        "moduli": ([_at_least(1)], _REQ),
        "side": (_at_least(1), _REQ),
    })),
    "sample": (_run_sample, _Obj({
        "domain": (_DOMAIN, _REQ),
        "nodes_per_axis": (_at_least(1), 129),
        "rule": _command_rule,
        "signal": (_SIGNAL, _REQ),
        "n_terms": (_Array(_at_least(0), 1), _REQ),
        "eval_points": (_Obj({"grid": ((_NUM, _NUM, _at_least(2)), None),
                              "points": ([_NUM], None)}, _eval_points), _REQ),
    })),
    "gabor": (_run_gabor, _Obj({
        "base_domain": (_DOMAIN, _REQ),
        "window": (_Obj({"domain": (_DOMAIN, _REQ), "weight": (_WEIGHT, _REQ)}), _REQ),
        "modulations": (_freqs(lambda s: s["base_domain"]), _REQ),
        "translations": (_freqs(lambda s: s["window"]["domain"]), _REQ),
    })),
    "periodization": (_run_periodization, _Obj({
        "profile": (_PERIODIZATION_PROFILE, _REQ),
        "resolution": (_at_least(2), 64),
        "gram_nodes": (_at_least(1), None),
    })),
    "factorization": (_run_factorization, _Obj({
        "domain": (_DOMAIN, _REQ),
        "nodes_per_axis": (_at_least(1), 64),
        "rule": _command_rule,
        "weight": (_WEIGHT_ON_RULE, _REQ),
        "signal": (_SIGNAL, _REQ),
    })),
}

_SCENARIO = _Tagged("command", {
    command: ({
        "name": (_STR, _REQ),
        "seed": (_INT, 0),
        "effective_seed": lambda s: (s["seed"] if s["seed_override"] is None
                                     else s["seed_override"]),
        "rng": lambda s: Pcg32(s["effective_seed"]),
        "expect": (_Map(_BOOL), {}),
        "parameters": (params, _REQ),
    }, None)
    for command, (_, params) in COMMANDS.items()})


def run_scenario(scenario, command: str, seed_override: Optional[int] = None,
                 tol_override: Optional[float] = None) -> dict:
    """Validate and execute one scenario dict, returning the report dict."""
    started = time.perf_counter()
    walk = _Walk()
    top = _check(_SCENARIO, scenario, "scenario", walk, {"seed_override": seed_override})
    if top is not _BAD and top["command"] != command:
        walk.fail("scenario.command", f"declares {top['command']!r}, invoked as {command!r}")
    if walk.errors:
        raise SchemaError(walk.errors)
    hyps, results, verdicts = COMMANDS[command][0](top["parameters"], top["rng"], tol_override)
    wall = time.perf_counter() - started
    expect = dict(top["expect"])
    unknown = [k for k in expect if k not in verdicts]
    if unknown:
        raise SchemaError([f"scenario.expect.{k} (unknown verdict)" for k in unknown])
    passed = (all(h["passed"] for h in hyps)
              and all(verdicts[k] == v for k, v in expect.items()))
    return {
        "name": top["name"],
        "command": command,
        "tool_version": __version__,
        "seed": top["effective_seed"],
        "tolerance_policy": _TOLERANCE_POLICY,
        "scenario": scenario,
        "hypothesis_checks": hyps,
        "results": results,
        "verdicts": verdicts,
        "expect": expect,
        "passed": bool(passed),
        "wall_time_s": wall,
    }


def _float_token(x: float) -> str:
    if not np.isfinite(x):
        return "null"
    return f"{x:.17g}"


def _emit(value, out, indent: int) -> None:
    pad = " " * indent
    inner = " " * (indent + 2)
    if isinstance(value, dict):
        if not value:
            out.write("{}")
            return
        out.write("{\n")
        keys = sorted(str(k) for k in value)
        for i, key in enumerate(keys):
            out.write(f'{inner}"{key}": ')
            _emit(value[key], out, indent + 2)
            out.write(",\n" if i + 1 < len(keys) else "\n")
        out.write(pad + "}")
        return
    if isinstance(value, (list, tuple)):
        seq = list(value)
        if not seq:
            out.write("[]")
            return
        out.write("[\n")
        for i, item in enumerate(seq):
            out.write(inner)
            _emit(item, out, indent + 2)
            out.write(",\n" if i + 1 < len(seq) else "\n")
        out.write(pad + "]")
        return
    if isinstance(value, str):
        out.write(json.dumps(value, ensure_ascii=True))
        return
    if isinstance(value, (bool, np.bool_)):
        out.write("true" if value else "false")
        return
    if value is None:
        out.write("null")
        return
    if isinstance(value, (int, np.integer)):
        out.write(str(int(value)))
        return
    if isinstance(value, (float, np.floating)):
        out.write(_float_token(float(value)))
        return
    if isinstance(value, (complex, np.complexfloating)):
        _emit({"im": float(value.imag), "re": float(value.real)}, out, indent)
        return
    if isinstance(value, np.ndarray):
        _emit(value.tolist(), out, indent)
        return
    raise TypeError(f"cannot serialize {type(value).__name__}")


def dumps_report(report: dict) -> str:
    """Serialize with sorted keys and 17-significant-digit floats."""
    out = io.StringIO()
    _emit(report, out, 0)
    out.write("\n")
    return out.getvalue()


def _compact_token(value) -> str:
    out = io.StringIO()
    _emit(value, out, 0)
    return " ".join(out.getvalue().split())


def report_csv(report: dict) -> str:
    """Flat three-column rendering of one report."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["section", "key", "value"])
    for key in ("name", "command", "tool_version", "seed", "passed"):
        writer.writerow(["meta", key, _compact_token(report[key])])
    for h in report["hypothesis_checks"]:
        writer.writerow(["hypothesis", h["name"], _compact_token(h["passed"])])
    for section in ("results", "verdicts"):
        for key in sorted(report[section]):
            writer.writerow([section, key, _compact_token(report[section][key])])
    return buf.getvalue()


def write_text_atomic(path: str, text: str) -> None:
    """Write via a sibling temp file and an atomic rename."""
    target = os.path.abspath(path)
    directory = os.path.dirname(target)
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".report-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# What rejects a scenario, or an invocation, before any verdict: exit
# status 2, and an error row in a batch.
_REJECTED = (SchemaError, ValueError, RuntimeError, OSError)


def _load_json(path: str) -> Any:
    with open(path, "r") as handle:
        return json.load(handle)


def _main_single(args) -> int:
    scenario = _load_json(args.scenario)
    report = run_scenario(scenario, args.command, args.seed, args.tol)
    text = dumps_report(report) if args.format == "json" else report_csv(report)
    if args.out:
        write_text_atomic(args.out, text)
    else:
        sys.stdout.write(text)
    return 0 if report["passed"] else 1


def _main_batch(args) -> int:
    files = sorted(glob.glob(os.path.join(args.dir, "*.json")))
    if not files:
        print(f"error: no scenario files in {args.dir}", file=sys.stderr)
        return 2
    os.makedirs(args.out_dir, exist_ok=True)
    rows = []
    status = 0
    for path in files:
        stem = os.path.splitext(os.path.basename(path))[0]
        try:
            scenario = _load_json(path)
            declared = scenario.get("command") if isinstance(scenario, dict) else None
            report = run_scenario(scenario, declared, args.seed, args.tol)
        except _REJECTED as exc:
            rows.append([stem, "", "error", str(exc)])
            status = 2
            continue
        write_text_atomic(os.path.join(args.out_dir, stem + ".json"),
                          dumps_report(report))
        rows.append([stem, report["command"],
                     "true" if report["passed"] else "false", ""])
        if not report["passed"] and status == 0:
            status = 1
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["scenario", "command", "passed", "note"])
    writer.writerows(rows)
    write_text_atomic(os.path.join(args.out_dir, "summary.csv"), buf.getvalue())
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expbases",
        description="Scenario-driven checks for exponential and translation systems.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        sp = sub.add_parser(command, help=f"run a {command} scenario")
        sp.add_argument("--scenario", required=True, help="scenario JSON file")
        sp.add_argument("--out", help="report path (stdout when omitted)")
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        sp.add_argument("--seed", type=int, help="override the scenario seed")
        sp.add_argument("--tol", type=float, help="override the judgement tolerance")
    batch = sub.add_parser("batch", help="run every scenario in a directory")
    batch.add_argument("--dir", required=True, help="directory of scenario files")
    batch.add_argument("--out-dir", required=True, help="directory for reports")
    batch.add_argument("--seed", type=int, help="override every scenario seed")
    batch.add_argument("--tol", type=float, help="override the judgement tolerance")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "batch":
            return _main_batch(args)
        return _main_single(args)
    except _REJECTED as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
