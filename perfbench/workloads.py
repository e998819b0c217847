"""Seeded scenario generators for the three benchmark workloads.

Each generator takes a ``random.Random`` and returns one *round*: a fixed
list of scenario slots whose sizes never change, so every seed costs the
same work. The seed only moves what does not change the cost: box
positions, lattice offsets, perturbations, weight parameters, pattern
translates and the small cyclic groups.

Every scenario carries an ``expect`` block. Where the paper gives the
answer it is used (an integer lattice on a set that tiles by the integers
is an orthonormal basis; Kadec-type perturbations of the lattice stay
Riesz bases; a domain containing a unit cube keeps the integer lattice a
Riesz sequence; transfer sandwiches hold; cube complement and dual-cube
spectrum families are equal). The remaining verdicts (sampled searches
finding nothing, degenerate or ONB periodization profiles) are pinned to
what the seed commit answers on every seed tried.
"""

from __future__ import annotations

import cmath
import glob
import json
import math
import os
import random


def _scenario(name, command, parameters, expect, seed=0):
    return {"name": name, "command": command, "parameters": parameters,
            "seed": seed, "expect": expect}


def _r(x: float) -> float:
    # Short decimals keep the scenario files readable; exact values are
    # irrelevant because every verdict is robust to them.
    return round(x, 6)


def _eighths(rng: random.Random, lo: int, hi: int) -> float:
    # Box corners on a 1/8 grid are exact binary fractions, so a shifted
    # unit box still has measure exactly one.
    return rng.randint(lo * 8, hi * 8) / 8.0


def _lattice_1d(rng, n):
    lo = rng.randint(-n // 2 - 40, -n // 2 + 40)
    return {"range": [lo, lo + n - 1]}


def _kadec_points_1d(rng, n, delta):
    # Integer lattice with every point moved by at most delta < 1/4, a
    # Riesz basis of L^2 on any unit interval (Kadec's 1/4 theorem).
    lo = rng.randint(-n // 2 - 40, -n // 2 + 40)
    return {"points": [_r(k + rng.uniform(-delta, delta)) for k in range(lo, lo + n)]}


def _kadec_points_2d(rng, side, delta):
    # Sup-norm perturbation below ln 2 / (2 pi) keeps the planar lattice a
    # Riesz basis on the unit square (Sun and Zhou's d-dimensional Kadec).
    lo = rng.randint(-side // 2 - 5, -side // 2 + 5)
    pts = []
    for i in range(lo, lo + side):
        for j in range(lo, lo + side):
            pts.append([_r(i + rng.uniform(-delta, delta)),
                        _r(j + rng.uniform(-delta, delta))])
    return {"points": pts}


_ONB = {"is_onb": True, "is_riesz_basis": True, "degenerate": False}
_RIESZ = {"is_onb": False, "is_riesz_basis": True, "degenerate": False}
_SANDWICH = {"sandwich_holds": True, "translation_degenerate": False}


def _unit_interval(rng):
    a = _eighths(rng, -1, 1)
    return [[a, a + 1.0]]


def _unit_square(rng):
    a, b = _eighths(rng, -1, 1), _eighths(rng, -1, 1)
    return [[[a, b], [a + 1.0, b + 1.0]]]


def _affine_weight(rng, dimension, nodes):
    gradient = [_r(rng.uniform(-1.0, 1.0)) for _ in range(dimension)]
    # The offset clears |<gradient, x>| on boxes within [-2, 3]^d, so the
    # weight never vanishes and the Riesz transfer applies.
    offset = _r(3.0 * sum(abs(g) for g in gradient) + rng.uniform(0.5, 2.0))
    return {"profile": "affine", "offset": offset, "gradient": gradient,
            "nodes_per_axis": nodes}


def dense_grams(rng: random.Random) -> list[dict]:
    """Gram assembly and dense eigen solves at 256-512 members."""
    out = []

    # 1-D, closed form: lattice on a shifted unit interval (ROADMAP
    # reference: closed-form Gram and eigen_bounds at n = 512).
    out.append(_scenario("bounds-1d-lattice-512", "bounds",
                         {"domain": {"boxes": _unit_interval(rng)},
                          "freqs": _lattice_1d(rng, 512)}, _ONB))

    # A unit interval cut in two and the pieces moved by integers still
    # tiles by Z, so the lattice stays orthonormal on the union.
    cut = _r(rng.uniform(0.2, 0.8))
    shift = rng.choice([1, 2, -2])
    out.append(_scenario("bounds-1d-tiling-union-384", "bounds",
                         {"domain": {"boxes": [[0.0, cut],
                                               [cut + shift, 1.0 + shift]]},
                          "freqs": _lattice_1d(rng, 384)}, _ONB))

    # A unit interval plus a disjoint extra piece: Riesz, not orthonormal.
    a = _eighths(rng, -1, 1)
    gap = _r(rng.uniform(0.1, 0.5))
    width = _r(rng.uniform(0.2, 0.6))
    out.append(_scenario("bounds-1d-union-512", "bounds",
                         {"domain": {"boxes": [[a, a + 1.0],
                                               [a + 1.0 + gap, a + 1.0 + gap + width]]},
                          "freqs": _lattice_1d(rng, 512)}, _RIESZ))

    out.append(_scenario("bounds-1d-kadec-448", "bounds",
                         {"domain": {"boxes": _unit_interval(rng)},
                          "freqs": _kadec_points_1d(rng, 448, 0.2)}, _RIESZ))

    # Midpoint quadrature on a five-cell mask: the first four cells form a
    # unit interval with 1024 nodes, which integrates every lattice
    # difference below 1024 exactly, so the lower bound stays at one.
    origin = _eighths(rng, -1, 1)
    out.append(_scenario("bounds-1d-mask-quadrature-512", "bounds",
                         {"domain": {"mask": {"origin": [origin], "counts": [5],
                                              "widths": [0.25],
                                              "included": [True] * 5}},
                          "freqs": _lattice_1d(rng, 512), "nodes_per_axis": 256},
                         _RIESZ))

    # 2-D lattice on a shifted unit square (ROADMAP reference: n = 484).
    lo = rng.randint(-14, -8)
    out.append(_scenario("bounds-2d-lattice-484", "bounds",
                         {"domain": {"boxes": _unit_square(rng)},
                          "freqs": {"range": [lo, lo + 21]}}, _ONB))

    square = _unit_square(rng)
    (x0, y0), (x1, y1) = square[0]
    gap = _r(rng.uniform(0.1, 0.4))
    extra = [[x1 + gap, y0], [x1 + gap + _r(rng.uniform(0.2, 0.6)),
                              y0 + _r(rng.uniform(0.2, 1.0))]]
    lo = rng.randint(-14, -8)
    out.append(_scenario("bounds-2d-union-484", "bounds",
                         {"domain": {"boxes": square + [extra]},
                          "freqs": {"range": [lo, lo + 21]}}, _RIESZ))

    out.append(_scenario("bounds-2d-kadec-400", "bounds",
                         {"domain": {"boxes": _unit_square(rng)},
                          "freqs": _kadec_points_2d(rng, 20, 0.08)}, _RIESZ))

    # 2 x 2 mask cells of side 1/2 with 24 nodes per cell axis: 48 nodes
    # per axis integrate every lattice difference of at most 21 exactly.
    lo = rng.randint(-14, -8)
    out.append(_scenario("bounds-2d-mask-quadrature-484", "bounds",
                         {"domain": {"mask": {"origin": [_eighths(rng, -1, 0),
                                                         _eighths(rng, -1, 0)],
                                              "counts": [2, 2], "widths": [0.5, 0.5],
                                              "included": [True] * 4}},
                          "freqs": {"range": [lo, lo + 21]}, "nodes_per_axis": 24},
                         _ONB))

    # Riesz transfer, affine weight on a 2,025-node rule, 2-D n = 484.
    lo = rng.randint(-14, -8)
    out.append(_scenario("transfer-2d-affine-484-2025", "transfer",
                         {"domain": {"boxes": [[[0.0, 0.0], [1.0, 1.0]]]},
                          "freqs": {"range": [lo, lo + 21]},
                          "weight": _affine_weight(rng, 2, 45)}, _SANDWICH))

    # The same on a two-box union with 2 x 32^2 = 2,048 nodes (ROADMAP
    # reference for verify_riesz_transfer).
    lo = rng.randint(-14, -8)
    out.append(_scenario("transfer-2d-affine-484-2048", "transfer",
                         {"domain": {"boxes": [[[0.0, 0.0], [1.0, 1.0]],
                                               [[1.25, 0.0], [1.75, 0.5]]]},
                          "freqs": {"range": [lo, lo + 21]},
                          "weight": _affine_weight(rng, 2, 32)}, _SANDWICH))

    # Constant weight: the sandwich is tight, closed form at n = 512. Two
    # equal-cost copies make the block the tail percentile lands in.
    for copy in range(2):
        value = cmath.rect(rng.uniform(0.5, 2.0), rng.uniform(0.0, 2.0 * math.pi))
        out.append(_scenario(f"transfer-1d-constant-512-{copy}", "transfer",
                             {"domain": {"boxes": _unit_interval(rng)},
                              "freqs": _lattice_1d(rng, 512),
                              "weight": {"profile": "constant",
                                         "value": [_r(value.real), _r(value.imag)]}},
                             _SANDWICH))

    # Scattered frequencies under an affine weight: quadrature on both sides.
    out.append(_scenario("transfer-1d-affine-kadec-320", "transfer",
                         {"domain": {"boxes": [[0.0, 1.0]]},
                          "freqs": _kadec_points_1d(rng, 320, 0.2),
                          "weight": _affine_weight(rng, 1, 1024)}, _SANDWICH))

    # Frame transfer on a bump window sampled at 400 nodes (ROADMAP
    # reference for verify_frame_transfer).
    left = _r(rng.uniform(0.05, 0.15))
    right = _r(rng.uniform(0.85, 0.95))
    out.append(_scenario("frame-transfer-bump-400", "frame-transfer",
                         {"domain": {"boxes": [[left, right]]},
                          "freqs": _lattice_1d(rng, 320),
                          "weight": {"profile": "bump",
                                     "steepness": _r(rng.uniform(0.5, 1.5)),
                                     "nodes_per_axis": 400}},
                         {"sandwich_holds": True}))

    # 16 x 32 product systems: orthonormal exactly when both factors are.
    # A unimodular constant window keeps the translates orthonormal.
    theta = rng.uniform(0.0, 2.0 * math.pi)
    for window, translation_onb in (
            ({"profile": "indicator"}, True),
            ({"profile": "constant", "value": [math.cos(theta), math.sin(theta)]}, True),
            (_affine_weight(rng, 1, 64), False)):
        mod_lo = rng.randint(-10, -6)
        trans_lo = rng.randint(-18, -14)
        out.append(_scenario(f"gabor-16x32-{window['profile']}", "gabor",
                             {"base_domain": {"boxes": _unit_interval(rng)},
                              "modulations": {"range": [mod_lo, mod_lo + 15]},
                              "translations": {"range": [trans_lo, trans_lo + 31]},
                              "window": {"domain": {"boxes": _unit_interval(rng)},
                                         "weight": window}},
                             {"gabor_is_onb": translation_onb,
                              "modulation_is_onb": True,
                              "translation_is_onb": translation_onb,
                              "equivalent": True}))
    return out


def _cube_indices(moduli, corner, side):
    # C-order linear indices of the side x side cube at corner, wrapped.
    m0, m1 = moduli
    return sorted(((corner[0] + i) % m0) * m1 + (corner[1] + j) % m1
                  for i in range(side) for j in range(side))


def tiling_search(rng: random.Random) -> list[dict]:
    """Exhaustive and sampled tiling/spectrum searches and cube checks."""
    out = []
    found = {"exhaustive": True, "found_any": True}

    def corner(moduli):
        return [rng.randrange(m) for m in moduli]

    # ROADMAP references: complement search on Z16^2 and spectrum search
    # on Z64^2 with a 2 x 2 cube. A translated pattern has the same
    # families up to translation, so every seed does identical work.
    # Three spectrum searches make the block the tail percentile lands in.
    for moduli, mode, copies in (([16, 16], "search_complements", 1),
                                 ([64, 64], "search_spectra", 3)):
        for copy in range(copies):
            out.append(_scenario(f"{mode.replace('_', '-')}-z{moduli[0]}sq-cube2-{copy}",
                                 "tiling", {"moduli": moduli, "mode": mode,
                                            "pattern": _cube_indices(moduli, corner(moduli), 2)},
                                 found))

    # Above the exhaustive order cap: seeded sampling, Pcg32-bound. Random
    # candidate sets of these sizes essentially never tile or diagonalize.
    # Five equal-cost spectrum samplers form the middle of the round, so
    # the median latency sits inside one cluster of like scenarios.
    sampled = {"exhaustive": False, "found_any": False}
    for mode, samples, copies in (("search_complements", 200, 1), ("search_spectra", 1000, 5)):
        for copy in range(copies):
            out.append(_scenario(f"sampled-{mode.replace('_', '-')}-z72sq-{copy}", "tiling",
                                 {"moduli": [72, 72], "mode": mode,
                                  "pattern": _cube_indices([72, 72], corner([72, 72]), 2),
                                  "samples": samples},
                                 sampled, seed=rng.randrange(1 << 31)))

    # Cube complements equal dual-cube spectra (the paper's cube case). The
    # rank-2 groups keep one orientation: swapping the moduli changes the
    # cost, and the seed must not.
    for moduli, side in (([8, 8], 2), ([6, 12], 2), ([4, 16], 4)):
        out.append(_scenario(f"cube-check-z{moduli[0]}xz{moduli[1]}-side{side}", "cube-check",
                             {"moduli": moduli, "side": side}, {"families_equal": True}))
    for _ in range(4):
        n = rng.choice([12, 14, 15, 16, 18, 20, 21, 22, 24])
        side = rng.choice([d for d in range(2, n) if n % d == 0])
        out.append(_scenario(f"cube-check-z{n}-side{side}", "cube-check",
                             {"moduli": [n], "side": side}, {"families_equal": True}))
    return out


def small_scenarios(rng: random.Random, shipped_dir: str) -> list[dict]:
    """The shipped scenarios plus seeded small ones, 0.3-30 ms each."""
    paths = sorted(glob.glob(os.path.join(shipped_dir, "*.json")))
    if not paths:
        raise FileNotFoundError(f"no shipped scenarios in {shipped_dir}")
    out = []
    for path in paths:
        with open(path) as handle:
            out.append(json.load(handle))

    band = [[-0.5, 0.5]]
    out.append(_scenario("small-bounds-1d-lattice-17", "bounds",
                         {"domain": {"boxes": _unit_interval(rng)},
                          "freqs": _lattice_1d(rng, 17)}, _ONB))
    out.append(_scenario("small-bounds-1d-kadec-13", "bounds",
                         {"domain": {"boxes": _unit_interval(rng)},
                          "freqs": _kadec_points_1d(rng, 13, 0.2)}, _RIESZ))
    lo = rng.randint(-3, 0)
    out.append(_scenario("small-bounds-2d-lattice-16", "bounds",
                         {"domain": {"boxes": _unit_square(rng)},
                          "freqs": {"range": [lo, lo + 3]}}, _ONB))
    a = _eighths(rng, -1, 1)
    out.append(_scenario("small-bounds-1d-union-9", "bounds",
                         {"domain": {"boxes": [[a, a + 1.0],
                                               [a + 1.5, a + 1.5 + _r(rng.uniform(0.2, 0.6))]]},
                          "freqs": _lattice_1d(rng, 9)}, _RIESZ))

    roundtrip = {"roundtrip_exact": True, "bound_holds": True}
    for nodes in (64, 128, 256):
        out.append(_scenario(f"small-factorization-random-{nodes}", "factorization",
                             {"domain": {"boxes": band},
                              "weight": _affine_weight(rng, 1, nodes),
                              "signal": {"kind": "random"}, "nodes_per_axis": nodes},
                             roundtrip, seed=rng.randrange(1 << 31)))
    out.append(_scenario("small-factorization-constant-smooth", "factorization",
                         {"domain": {"boxes": band},
                          "weight": {"profile": "constant", "value": _r(rng.uniform(0.5, 2.0))},
                          "signal": {"kind": "smooth_random"}, "nodes_per_axis": 96},
                         roundtrip, seed=rng.randrange(1 << 31)))

    # Bessel's inequality holds exactly on the discrete rule, so both
    # verdicts are true for any signal.
    for kind, nodes, terms in (("smooth_random", 129, [8, 24, 48]),
                               ("random", 257, [16, 64, 100])):
        out.append(_scenario(f"small-sample-{kind}-{nodes}", "sample",
                             {"domain": {"boxes": band}, "signal": {"kind": kind},
                              "n_terms": terms,
                              "eval_points": {"grid": [-4.0, 4.0, 81]},
                              "nodes_per_axis": nodes},
                             {"parseval_ok": True, "energy_monotone": True},
                             seed=rng.randrange(1 << 31)))

    def periodization(name, profile, onb):
        return _scenario(f"small-periodization-{name}", "periodization",
                         {"profile": profile, "resolution": 64},
                         {"is_onb": onb, "gram_is_onb": onb, "routes_agree": True})

    a = _eighths(rng, -2, 2)
    out.append(periodization("unit-indicator", {"kind": "indicator", "lower": [a],
                                                "upper": [a + 1.0]}, True))
    a = _eighths(rng, -2, 2)
    out.append(periodization("short-indicator", {"kind": "indicator", "lower": [a],
                                                 "upper": [a + _eighths(rng, 0, 1) * 0.75 + 0.125]},
                             False))
    out.append(periodization("cosine", {"kind": "cosine", "center": _eighths(rng, -2, 2)}, True))
    a = _eighths(rng, -2, 2)
    out.append(periodization("triangle", {"kind": "triangle", "lower": a, "upper": a + 2.0},
                             False))

    # Cube patterns tile with the side lattice and are spectral with the
    # dual lattice; one moved element breaks either verdict.
    for moduli, side in (([12, 12], 3), ([8, 16], 4)):
        m0, m1 = moduli
        pattern = _cube_indices(moduli, [rng.randrange(m0), rng.randrange(m1)], side)
        shift = [rng.randrange(side), rng.randrange(side)]
        lattice = sorted(((shift[0] + i) % m0) * m1 + (shift[1] + j) % m1
                         for i in range(0, m0, side) for j in range(0, m1, side))
        dual = sorted(i * m1 + j for i in range(0, m0, m0 // side)
                      for j in range(0, m1, m1 // side))
        broken = sorted(set(dual[:-1]) | {(dual[-1] + 1) % (m0 * m1)})
        name = f"z{m0}xz{m1}-cube{side}"
        out.append(_scenario(f"small-tiling-{name}-lattice", "tiling",
                             {"moduli": moduli, "mode": "check_tiling",
                              "pattern": pattern, "candidate": lattice},
                             {"is_tiling": True}))
        out.append(_scenario(f"small-tiling-{name}-dual-spectrum", "tiling",
                             {"moduli": moduli, "mode": "check_spectrum",
                              "pattern": pattern, "candidate": dual},
                             {"is_spectrum": True}))
        out.append(_scenario(f"small-tiling-{name}-moved-spectrum", "tiling",
                             {"moduli": moduli, "mode": "check_spectrum",
                              "pattern": pattern, "candidate": broken},
                             {"is_spectrum": False}))
    return out
