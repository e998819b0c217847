"""Command line front end: scenario files in, deterministic reports out.

Every command reads one scenario JSON file, runs the matching library
operation, and writes a report whose bytes depend only on the scenario
and the seed (wall_time_s is the single exception). Exit status: 0 all
checks passed, 1 a verdict failed, 2 the scenario or invocation was
rejected before any verdict.

COMMANDS holds what each command decides: its runner, the schema of its
parameters, the names of its verdicts and the tolerance it judges at,
which --tol replaces (a command that judges at none takes no --tol). The
schema builds each input once, checked by the library rule that owns it,
and the runner reads what was built.
"""

from __future__ import annotations

import argparse
import csv
import functools
import glob
import inspect
import io
import json
import math
import os
import sys
import tempfile
import time
from collections import namedtuple
from typing import Any, Optional

import numpy as np

from . import __version__
from .domain import (Box, Domain, MaskGrid, QuadratureRule, _flags, _grid_size, _rule_nodes,
                     quadrature)
from .gabor import _unit_measure, vv_onb_check
from .numerics import Pcg32
from .paley_wiener import (PERIODIZATION_KINDS, SUPPORT_TOL, BandlimitedSignal,
                           _cardinal_band, _cardinal_points, _frame_support, _gram_inputs,
                           _nowhere_vanishing, _periodize, _resolves, _signal_orders,
                           _truncation, affine_weight, bump_window, constant_weight,
                           convolution_factorization_check, indicator_signal, indicator_weight,
                           periodization_profile, random_signal, shannon_reconstruct,
                           smooth_random_signal, table_weight, verify_frame_transfer,
                           verify_riesz_transfer, zd_periodization)
from .spectra import (FrequencySet, _closed_form_applies, _on_domain, _rule_free, _system_size,
                      exp_gram, is_orthonormal_system, lattice_truncation, riesz_bounds)
from .tiling import (_NO_COMPLEMENT, GroupInstance, _cube_group, _distinct_coords, _dual_sides,
                     _sample_work, _search_route, cube_equivalence_check, is_spectrum,
                     search_complements, search_spectra, tiles)

# Judgement scales echoed into every report: absolute for magnitudes at
# or below one, relative otherwise.
_TOLERANCE_POLICY = {
    "absolute": 1e-10,
    "relative": 1e-9,
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
#     converter is given (_INT, _NUM for any finite number, _STR, _BOOL,
#     _COMPLEX for a finite number or [re, im], _at_least(n) for an int of
#     at least n);
#   [item]: a nonempty list of items; (a, b, ...): a list, one spec per place;
#   _Array(leaf, rank): a leaf, or nonempty lists nested at most rank deep
#     around leaves;
#   _Verdicts(names): an object of bools keyed by verdict names: a tuple of
#     names, or a dict of them by the mode of the parameters built before it
#     (any name when the parameters were rejected);
#   _Obj(fields, build): an object with exactly the keys of fields, each
#     mapped to (spec, default), where a default of None also accepts null
#     and any other default is checked against spec as a given value is;
#     a function in place of (spec, default) computes a value from the
#     fields before it and is never read from the scenario.
#     build(values, scope) makes the object from its checked values;
#   _Tagged(tag, variants): an _Obj whose tag key names the variant, given
#     as name -> (fields, build);
#   _Built(spec, build): a value that passes spec, made into build(value, scope).
# scope maps the names of the values built so far in the enclosing objects
# (the innermost wins), so a builder finds its domain, rule or seeded stream;
# it starts with the seed override.
_Leaf = namedtuple("_Leaf", "what test convert", defaults=(None,))
_Array = namedtuple("_Array", "leaf rank")
_Verdicts = namedtuple("_Verdicts", "names")
_Obj = namedtuple("_Obj", "fields build", defaults=(None,))
_Tagged = namedtuple("_Tagged", "tag variants")
_Built = namedtuple("_Built", "spec build")

_BAD = object()
_REQ = object()  # default of a field that must be given


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    # json.load reads NaN, Infinity and -Infinity as floats, and an integer
    # literal of any length as an int; no field takes a number that is not
    # a finite float.
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _at_least(lo: int) -> _Leaf:
    return _Leaf(f"int >= {lo}", lambda v: _is_int(v) and v >= lo)


_INT = _Leaf("int", _is_int)
_NUM = _Leaf("finite number", _is_number)
_STR = _Leaf("str", lambda v: isinstance(v, str))
_BOOL = _Leaf("bool", lambda v: isinstance(v, bool))
_COMPLEX = _Leaf(
    "a finite number or [re, im]",
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
    if isinstance(spec, _Built):
        got = _check(spec.spec, value, path, walk, scope)
        return _BAD if got is _BAD else walk.build(path, spec.build, got, scope)
    if isinstance(spec, _Array):
        if not isinstance(value, list):
            return _check(spec.leaf, value, path, walk, scope)
        inner = [spec.leaf if spec.rank == 1 else _Array(spec.leaf, spec.rank - 1)]
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
    if isinstance(spec, _Verdicts):
        names = spec.names
        if isinstance(names, dict):
            names = names[scope["parameters"]["mode"]] if "parameters" in scope else None
        out = {}
        for key, v in value.items():
            if names is None or key in names:
                out[key] = _check(_BOOL, v, f"{path}.{key}", walk, scope)
            else:
                out[key] = walk.fail(f"{path}.{key}", "unknown verdict, expected one of "
                                     + ", ".join(names))
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
        elif (given := value.get(key, field[1])) is _REQ:
            got = walk.fail(sub, "missing")
        elif given is None and field[1] is None:
            got = None
        else:
            got = _check(field[0], given, sub, walk, inner)
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
    if _only(v) == "boxes":
        return Domain(boxes=[Box(lo, hi) for lo, hi in v["boxes"]])
    return Domain(mask=v["mask"])


_VECTOR = _Array(_NUM, 1)  # a number, or one number per axis
# Mask flags, nested lists of bools of any depth, checked by the rule that
# MaskGrid applies rather than one flag at a time.
_FLAGS = _Built(_Leaf("a list of bools", lambda v: isinstance(v, list)), lambda v, s: _flags(v))

_DOMAIN = _Obj({
    "boxes": ([(_VECTOR, _VECTOR)], None),
    "mask": (_Obj({"origin": (_VECTOR, _REQ), "counts": (_Array(_at_least(1), 1), _REQ),
                   "widths": (_VECTOR, _REQ), "included": (_FLAGS, _REQ)},
                  lambda v, s: MaskGrid(**v)), None),
}, _domain)


def _freqs(domain_of, cap=_system_size) -> _Obj:
    """Frequencies as points or an integer range, on the domain domain_of(scope),
    their count passed to cap before building allocates or compares pairs."""
    def build(v, s) -> FrequencySet:
        domain = domain_of(s)
        if _only(v) == "range":
            lo, hi = v["range"]
            cap(max(hi - lo + 1, 0) ** domain.dimension)
            freqs = lattice_truncation(lo, hi, domain.dimension)
        else:
            cap(len(v["points"]) if isinstance(v["points"], list) else 1)
            freqs = FrequencySet(v["points"])
        return _on_domain(domain, freqs)
    return _Obj({"points": (_Array(_NUM, 2), None), "range": ((_INT, _INT), None)}, build)


_FREQS = _freqs(lambda s: s["domain"])
# A frame may be overcomplete: its vectors are bounded as a grid is.
_FRAME_FREQS = _freqs(lambda s: s["domain"], _grid_size)

# A node count per axis, bounded where it is read by the rule it sets.
_NODES = _Built(_at_least(1), lambda v, s: _rule_nodes(s["domain"], v))


def _shared_rule(v, s) -> Optional[QuadratureRule]:
    # A command with its own rule (factorization) samples the weight on it.
    rule = s.get("rule")
    if rule is not None and v["nodes_per_axis"] not in (None, s["nodes_per_axis"]):
        raise ValueError(
            f"nodes_per_axis {v['nodes_per_axis']} differs from "
            f"scenario.parameters.nodes_per_axis {s['nodes_per_axis']}, "
            "the rule weight and signal share")
    return rule


def _closed_form_nodes(v, s) -> int:
    # exp_gram integrates an indicator or constant weight on a box domain in
    # closed form, and its samples, all one value, do not depend on the count.
    nodes = _rule_nodes(s["domain"], v)
    if _closed_form_applies(s["domain"]):
        raise ValueError("an indicator or constant weight on a domain of boxes is integrated "
                         "in closed form, on no nodes")
    return nodes


def _weight(nodes, bump_nodes, flat=_NODES) -> _Tagged:
    """Spectral weights by profile, with these node-count defaults; flat is
    the spec of an indicator or constant weight's node count."""
    n = (_NODES, nodes)
    return _Tagged("profile", {
        "indicator": ({"nodes_per_axis": (flat, None)}, lambda v, s: indicator_weight(
            s["domain"], v["nodes_per_axis"] or nodes, _shared_rule(v, s))),
        "constant": ({"value": (_COMPLEX, 1.0), "nodes_per_axis": (flat, None)},
                     lambda v, s: constant_weight(s["domain"], v["value"],
                                                  v["nodes_per_axis"] or nodes,
                                                  _shared_rule(v, s))),
        "affine": ({"offset": (_NUM, _REQ), "gradient": (_VECTOR, _REQ), "nodes_per_axis": n},
                   lambda v, s: affine_weight(s["domain"], v["offset"], v["gradient"],
                                              v["nodes_per_axis"], _shared_rule(v, s))),
        "bump": ({"steepness": (_NUM, 1.0), "nodes_per_axis": (_NODES, bump_nodes)},
                 lambda v, s: bump_window(s["domain"], v["steepness"], v["nodes_per_axis"],
                                          _shared_rule(v, s))),
        "table": ({"values": ([_COMPLEX], _REQ), "nodes_per_axis": n},
                  lambda v, s: table_weight(s["domain"], _shared_rule(v, s)
                                            or quadrature(s["domain"], v["nodes_per_axis"]),
                                            v["values"])),
    })


# Where the Gram of a weight is integrated in closed form if it can be.
_WEIGHT = _weight(32, 64, _Built(_at_least(1), _closed_form_nodes))
# Where the weight's samples are read.
_SAMPLED_WEIGHT = _weight(32, 64)
# On a shared rule the weight's node count is the rule's: given, it must match.
_WEIGHT_ON_RULE = _weight(None, None)

_SIGNAL = _Tagged("kind", {
    "indicator": ({}, lambda v, s: indicator_signal(s["domain"], s["rule"])),
    "random": ({}, lambda v, s: random_signal(s["domain"], s["rule"], s["rng"])),
    "smooth_random": ({"max_order": (_Built(_at_least(0), lambda v, s: _signal_orders(
        s["rule"], v)), 3)}, lambda v, s: smooth_random_signal(
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


def _profile_grid(v, s) -> int:
    return _grid_size(v, s["profile"].support.dimension)


def _eval_points(v, s) -> np.ndarray:
    # A grid's ends bound its points, and are checked before np.linspace
    # forms their span.
    if _only(v) == "grid":
        *ends, count = v["grid"]
        return np.linspace(*_cardinal_points(ends, max(s["n_terms"])), count)
    return _cardinal_points(v["points"], max(s["n_terms"]))


def _command_rule(s) -> QuadratureRule:
    return quadrature(s["domain"], s["nodes_per_axis"])


def _bounds_parameters(v, s) -> dict:
    # A rule of nodes_per_axis, 32 unless given, only where exp_gram has
    # neither a weight's rule nor a closed form; elsewhere it is refused.
    if v["weight"] is None and not _closed_form_applies(v["domain"]):
        return {**v, "nodes_per_axis": _rule_nodes(v["domain"], v["nodes_per_axis"] or 32)}
    if v["nodes_per_axis"] is not None:
        raise ValueError("scenario.parameters.nodes_per_axis applies only to an "
                         "unweighted Gram on a mask domain")
    return v


def _blaming(key: str, check, into: Optional[str] = None):
    """A parameters build that runs check(values), a library precondition,
    naming key; what check returns is kept as into, if given."""
    def build(v, s) -> dict:
        try:
            got = check(v)
        except ValueError as exc:
            raise ValueError(f"scenario.parameters.{key}: {exc}") from None
        return v if into is None else {**v, into: got}
    return build


def _hyp(name: str, passed: bool, measured, tolerance) -> dict:
    return {"name": name, "passed": bool(passed), "measured": measured,
            "tolerance": tolerance}


def _nowhere_zero(weight) -> dict:
    # Node samples can straddle a zero; the exact infimum, where the profile
    # knows it, cannot. The floor judged is the floor reported.
    floor = weight.exact_inf if weight.exact_inf is not None else weight.inf_mod
    return _hyp("weight_nowhere_zero", floor > SUPPORT_TOL, floor, SUPPORT_TOL)


def _bounds(prefix: str, bounds) -> dict:
    """A BoundsReport's two bounds and certificate margin, keys prefixed."""
    return {prefix + "lower": bounds.lower, prefix + "upper": bounds.upper,
            prefix + "certificate_margin": bounds.margin}


def _sandwich(report) -> dict:
    """What both transfer reports carry of their sandwich."""
    return {"predicted_lower": report.predicted_lower,
            "predicted_upper": report.predicted_upper,
            "lower_margin": report.lower_margin, "upper_margin": report.upper_margin}


def _run_bounds(p, rng, tol):
    domain, freqs, nodes = p["domain"], p["freqs"], p["nodes_per_axis"]
    rule = None if nodes is None else quadrature(domain, nodes)
    gram = exp_gram(domain, freqs, p["weight"], rule)
    bounds = riesz_bounds(gram)
    onb = is_orthonormal_system(gram, tol)
    results = {
        **_bounds("", bounds),
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
    return [], results, verdicts


def _run_transfer(p, rng, tol):
    report = verify_riesz_transfer(p["domain"], p["freqs"], p["weight"])
    results = {
        **_bounds("exp_", report.exp_bounds),
        **_bounds("translation_", report.translation_bounds),
        **_sandwich(report),
        "inf_modulus": report.inf_mod,
        "sup_modulus": report.sup_mod,
        "resolution_flagged": report.weight_resolution_flagged,
    }
    verdicts = {
        "sandwich_holds": bool(report.sandwich_holds),
        "translation_degenerate": report.translation_bounds.verdict == "degenerate",
    }
    return [_nowhere_zero(p["weight"])], results, verdicts


def _run_frame_transfer(p, rng, tol):
    report = verify_frame_transfer(p["domain"], p["freqs"], p["weight"])
    results = {
        **_bounds("weighted_", report.weighted_bounds),
        **_bounds("unweighted_", report.unweighted_bounds),
        **_sandwich(report),
        "weight_floor_sq": report.weight_floor_sq,
        "weight_ceil_sq": report.weight_ceil_sq,
        "space_dim": report.space_dim,
        "n_vectors": report.n_vectors,
        "support_is_proper": report.support_is_proper,
        "note": report.note,
    }
    return [], results, {"sandwich_holds": bool(report.sandwich_holds)}


def _run_tiling(p, rng, tol):
    group = p["moduli"]
    mode, pattern = p["mode"], p["pattern"]
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
        results = {"found": [list(s) for s in found.found], "n_found": len(found.found),
                   "examined": found.examined, "note": found.note}
        verdicts = {"exhaustive": bool(found.exhaustive),
                    "found_any": len(found.found) > 0}
    return [], results, verdicts


def _run_cube_check(p, rng, tol):
    group, side = p["moduli"], p["side"]
    divides = _dual_sides(group, [side] * group.dimension) is not None
    hyps = [_hyp("side_divides_moduli", divides, side, min(group.moduli))]
    if not divides:
        # No dual cube exists, so neither family is searched.
        return hyps, {}, {"families_equal": None}
    report = cube_equivalence_check(group, side)
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
    truncations = []
    energies = []
    for n in p["n_terms"]:
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
    results = {
        "signal_energy": p["signal"].norm_sq,
        "truncations": truncations,
    }
    verdicts = {
        "parseval_ok": all(t["parseval_ok"] for t in truncations),
        "energy_monotone": bool(monotone),
    }
    return [], results, verdicts


def _run_gabor(p, rng, tol):
    base, modulations, translations = p["base_domain"], p["modulations"], p["translations"]
    report = vv_onb_check(base, modulations, translations, p["window"]["weight"], tol)
    results = {
        "gabor_deviation": report.gabor.deviation,
        "modulation_deviation": report.modulation.deviation,
        "translation_deviation": report.translation.deviation,
        "window_normalized": report.window_normalized,
        "system_order": modulations.size * translations.size,
        "note": report.note,
    }
    verdicts = {
        "gabor_is_onb": bool(report.gabor.is_onb),
        "modulation_is_onb": bool(report.modulation.is_onb),
        "translation_is_onb": bool(report.translation.is_onb),
        "equivalent": bool(report.equivalent),
    }
    return [], results, verdicts


def _run_periodization(p, rng, tol):
    report = _periodize(p["profile"], p["resolution"], tol, p["gram_inputs"])
    results = {"sup_deviation": report.sup_deviation, "gram_deviation": report.gram_deviation,
               "tol": report.tol, "gram_tol": report.gram_tol, "resolution": report.resolution}
    verdicts = {
        "is_onb": bool(report.is_onb),
        "gram_is_onb": bool(report.gram_is_onb),
        "routes_agree": bool(report.agree),
    }
    return [], results, verdicts


def _run_factorization(p, rng, tol):
    report = convolution_factorization_check(p["domain"], p["weight"], p["signal"])
    results = {"residual": report.residual, "quotient_norm": report.quotient_norm,
               "norm_bound": report.norm_bound, "signal_norm": report.signal_norm}
    verdicts = {
        "roundtrip_exact": report.residual <= tol,
        "bound_holds": bool(report.bound_holds),
    }
    return [_nowhere_zero(p["weight"])], results, verdicts


def _group_indices(label: str):
    """Distinct indices of the group built from moduli, checked where read."""
    def build(v, s) -> list:
        _distinct_coords(s["moduli"], v, label)
        return v
    return (_Built([_at_least(0)], build), _REQ)


# The group is built, and its order checked, where its moduli are read.
_GROUP = (_Built([_at_least(1)], lambda v, s: GroupInstance(v)), _REQ)

_PATTERN = {"moduli": _GROUP, "pattern": _group_indices("pattern")}
_CHECK_CANDIDATE = {**_PATTERN, "candidate": _group_indices("candidate")}
_SEARCH = {**_PATTERN, "samples": (_at_least(1), None), "force_exhaustive": (_BOOL, False)}


def _search_route_named(v, s) -> dict:
    # The route's caps name the pattern, and then a sampled route's work
    # names samples.
    args = (v["moduli"], len(v["pattern"]), v["mode"] == "search_complements")
    route = _blaming("pattern", lambda v: _search_route(
        *args, v["force_exhaustive"], v["samples"]), "route")(v, s)["route"]
    if route in (None, _NO_COMPLEMENT):
        return v
    return _blaming("samples", lambda v: _sample_work(*args, v["samples"]))(v, s)


_Command = namedtuple("_Command", "run params verdicts tol", defaults=(None,))

_SEARCH_VERDICTS = ("exhaustive", "found_any")


def _default_tol(verdict) -> float:
    """The tolerance a library verdict judges at unless it is given one."""
    return inspect.signature(verdict).parameters["tol"].default


# Each command: its runner, the spec of its parameters, the names of the
# verdicts the runner returns (per mode for tiling) and the tolerance it
# judges at unless --tol is given (None: it judges at none, and takes no
# --tol). README.md lists the same keys.
COMMANDS = {
    "bounds": _Command(_run_bounds, _Obj({
        "domain": (_DOMAIN, _REQ),
        "freqs": (_FREQS, _REQ),
        "weight": (_WEIGHT, None),
        "nodes_per_axis": (_NODES, None),
    }, _bounds_parameters), ("is_onb", "is_riesz_basis", "degenerate"),
        _default_tol(is_orthonormal_system)),
    "transfer": _Command(_run_transfer, _Obj({
        "domain": (_DOMAIN, _REQ), "freqs": (_FREQS, _REQ),
        "weight": (_Built(_WEIGHT, lambda v, s: _nowhere_vanishing(v)), _REQ),
    }), ("sandwich_holds", "translation_degenerate")),
    "frame-transfer": _Command(_run_frame_transfer, _Obj({
        "domain": (_DOMAIN, _REQ), "freqs": (_FRAME_FREQS, _REQ),
        "weight": (_SAMPLED_WEIGHT, _REQ),
    }, _blaming("weight.nodes_per_axis", lambda v: _frame_support(v["weight"], v["freqs"]))),
        ("sandwich_holds",)),
    "tiling": _Command(_run_tiling, _Tagged("mode", {
        "check_tiling": (_CHECK_CANDIDATE, None),
        "check_spectrum": (_CHECK_CANDIDATE, None),
        "search_complements": (_SEARCH, _search_route_named),
        "search_spectra": (_SEARCH, _search_route_named),
    }), {
        "check_tiling": ("is_tiling",),
        "check_spectrum": ("is_spectrum",),
        "search_complements": _SEARCH_VERDICTS,
        "search_spectra": _SEARCH_VERDICTS,
    }),
    "cube-check": _Command(_run_cube_check, _Obj({
        "moduli": (_Built([_at_least(1)], lambda v, s: _cube_group(GroupInstance(v))), _REQ),
        "side": (_at_least(1), _REQ),
    }), ("families_equal",)),
    "sample": _Command(_run_sample, _Obj({
        "domain": (_Built(_DOMAIN, lambda v, s: _cardinal_band(v)), _REQ),
        "nodes_per_axis": (_NODES, 129),
        "rule": _command_rule,
        "signal": (_SIGNAL, _REQ),
        "n_terms": (_Built(_Array(_at_least(0), 1), lambda v, s: [
            _truncation(n) for n in (v if isinstance(v, list) else [v])]), _REQ),
        "eval_points": (_Obj({
            "grid": ((_NUM, _NUM, _Built(_at_least(2), lambda v, s: _grid_size(v))), None),
            "points": ([_NUM], None)}, _eval_points), _REQ),
    }, _blaming("nodes_per_axis", lambda v: _resolves(v["rule"], max(v["n_terms"])))),
        ("parseval_ok", "energy_monotone")),
    "gabor": _Command(_run_gabor, _Obj({
        "base_domain": (_Built(_DOMAIN, lambda v, s: _unit_measure(_rule_free(v))), _REQ),
        "window": (_Obj({"domain": (_DOMAIN, _REQ), "weight": (_WEIGHT, _REQ)}), _REQ),
        "modulations": (_freqs(lambda s: s["base_domain"]), _REQ),
        "translations": (_freqs(lambda s: s["window"]["domain"]), _REQ),
    }), ("gabor_is_onb", "modulation_is_onb", "translation_is_onb", "equivalent"),
        _default_tol(vv_onb_check)),
    "periodization": _Command(_run_periodization, _Obj({
        "profile": (_PERIODIZATION_PROFILE, _REQ),
        "resolution": (_Built(_at_least(2), _profile_grid), 64),
        "gram_nodes": (_Built(_at_least(1), _profile_grid), None),
    }, _blaming("profile", lambda v: _gram_inputs(v["profile"], v["resolution"],
                                                  v["gram_nodes"]), "gram_inputs")),
        ("is_onb", "gram_is_onb", "routes_agree"), _default_tol(zd_periodization)),
    "factorization": _Command(_run_factorization, _Obj({
        "domain": (_DOMAIN, _REQ),
        "nodes_per_axis": (_NODES, 64),
        "rule": _command_rule,
        "weight": (_Built(_WEIGHT_ON_RULE, lambda v, s: _nowhere_vanishing(v)), _REQ),
        "signal": (_SIGNAL, _REQ),
    }), ("roundtrip_exact", "bound_holds"), 1e-12),
}


_SCENARIO = _Tagged("command", {
    command: ({
        "name": (_STR, _REQ),
        "seed": (_INT, 0),
        "effective_seed": lambda s: (s["seed"] if s["seed_override"] is None
                                     else s["seed_override"]),
        "rng": lambda s: Pcg32(s["effective_seed"]),
        "parameters": (spec.params, _REQ),
        "expect": (_Verdicts(spec.verdicts), {}),
    }, None)
    for command, spec in COMMANDS.items()})


def run_scenario(scenario, command: str, seed_override: Optional[int] = None,
                 tol_override: Optional[float] = None) -> dict:
    """Validate and execute one scenario dict, returning the report dict;
    tol_override replaces the tolerance of a command that judges at one."""
    started = time.perf_counter()
    walk = _Walk()
    top = _check(_SCENARIO, scenario, "scenario", walk, {"seed_override": seed_override})
    if top is not _BAD and top["command"] != command:
        walk.fail("scenario.command", f"declares {top['command']!r}, invoked as {command!r}")
    if walk.errors:
        raise SchemaError(walk.errors)
    spec = COMMANDS[command]
    tol = spec.tol if tol_override is None or spec.tol is None else tol_override
    hyps, results, verdicts = spec.run(top["parameters"], top["rng"], tol)
    wall = time.perf_counter() - started
    expect = dict(top["expect"])
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


def _emit(value, out, indent: int) -> None:
    if isinstance(value, (dict, list, tuple)):
        keyed = isinstance(value, dict)
        if not value:
            out.write("{}" if keyed else "[]")
            return
        inner = " " * (indent + 2)
        if not keyed and all(type(item) in (int, float, bool) for item in value):
            # Plain numbers and bools, written as the loop below writes
            # them, in one join.
            out.write("[\n" + inner + (",\n" + inner).join(map(_number, value))
                      + "\n" + " " * indent + "]")
            return
        out.write("{\n" if keyed else "[\n")
        keys = sorted(str(k) for k in value) if keyed else range(len(value))
        last = len(keys) - 1
        for i, key in enumerate(keys):
            out.write(f'{inner}"{key}": ' if keyed else inner)
            _emit(value[key], out, indent + 2)
            out.write(",\n" if i < last else "\n")
        out.write(" " * indent + ("}" if keyed else "]"))
    elif isinstance(value, str):
        out.write(json.dumps(value, ensure_ascii=True))
    elif isinstance(value, (bool, np.bool_)):
        out.write("true" if value else "false")
    elif value is None:
        out.write("null")
    elif isinstance(value, (int, np.integer)):
        out.write(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        out.write(_number(float(value)))
    elif isinstance(value, (complex, np.complexfloating)):
        _emit({"im": float(value.imag), "re": float(value.real)}, out, indent)
    elif isinstance(value, np.ndarray):
        _emit(value.tolist(), out, indent)
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")


def _number(value) -> str:
    """A plain int, float or bool as _emit writes it."""
    if type(value) is int:
        return str(value)
    if type(value) is bool:
        return "true" if value else "false"
    return f"{value:.17g}" if math.isfinite(value) else "null"


def dumps_report(report: dict) -> str:
    """Serialize with sorted keys and 17-significant-digit floats."""
    out = io.StringIO()
    _emit(report, out, 0)
    out.write("\n")
    return out.getvalue()


def _compact_token(value) -> str:
    # _emit's only layout is each newline and the indentation after it (a
    # string's own newlines are escaped), so each becomes one space.
    out = io.StringIO()
    _emit(value, out, 0)
    return " ".join(line.lstrip(" ") for line in out.getvalue().split("\n"))


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
    report = run_scenario(scenario, args.command, args.seed, getattr(args, "tol", None))
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


def _tolerance(text: str) -> float:
    """argparse type of --tol: a finite number at or above zero."""
    value = float(text)
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """A new parser for the expbases command line; callers may extend it."""
    parser = argparse.ArgumentParser(
        prog="expbases",
        description="Scenario-driven checks for exponential and translation systems.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, spec in COMMANDS.items():
        sp = sub.add_parser(command, help=f"run a {command} scenario")
        sp.add_argument("--scenario", required=True, help="scenario JSON file")
        sp.add_argument("--out", help="report path (stdout when omitted)")
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        sp.add_argument("--seed", type=int, help="override the scenario seed")
        if spec.tol is not None:
            sp.add_argument("--tol", type=_tolerance, help="override the judgement tolerance")
    batch = sub.add_parser("batch", help="run every scenario in a directory")
    batch.add_argument("--dir", required=True, help="directory of scenario files")
    batch.add_argument("--out-dir", required=True, help="directory for reports")
    batch.add_argument("--seed", type=int, help="override every scenario seed")
    batch.add_argument("--tol", type=_tolerance, help="override each judgement tolerance")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # main's own parser, built on the first call rather than at import.
    # parse_args keeps no state between calls (each gets a fresh Namespace,
    # and errors leave through SystemExit), so one serves every call.
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "batch":
            return _main_batch(args)
        return _main_single(args)
    except _REJECTED as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
