"""Bandlimited translation systems seen through their spectral weights.

A translation system is modeled by the modulus profile of its window on
the frequency domain. Its Gram is a weighted exponential Gram, so
two-sided bound transfer between the exponential system and the
translates is one eigenvalue sandwich (_sandwich), verified for Riesz
bounds on the full domain when the weight never vanishes and for frame
bounds on the weight's support otherwise.

The cardinal series and the integer-translate periodization criterion
live here too. The integer samples of the cardinal series are the band's
Fourier coefficients, so shannon_reconstruct reads them from the
quadrature table the integer-frequency Grams use (_quadrature_table);
that table and the sinc table are summed and formed over bounded blocks,
so its memory does not grow with the node or point count. The
periodization check runs on inputs (_gram_inputs) built once, by
zd_periodization or by the scenario schema that checked them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Callable, Optional

import numpy as np

from .domain import NODE_CAP, Box, Domain, QuadratureRule, _grid_size, quadrature
from .numerics import ORDER_CAP, _eigen_bounds
from .spectra import (_TABLE_BLOCK_ENTRIES, BoundsReport, FrequencySet, GramMatrix, OnbVerdict,
                      _on_domain, _pairwise_quadrature, _quadrature_table, _system_size,
                      box_centre, exp_gram, frame_bounds_of_operator, is_orthonormal_system,
                      riesz_bounds)

# Node values at or below this modulus count as outside the support.
SUPPORT_TOL = 1e-12

# Slack applied to both sides of the transfer sandwiches: relative, with
# an absolute floor for bounds at eigensolver noise scale.
SANDWICH_RTOL = 1e-8
SANDWICH_ATOL = 1e-10

# Node-sample versus exact profile extremes are flagged above this gap.
PROFILE_MISMATCH_TOL = 1e-9

_NAMED_PROFILES = ("affine", "bump", "constant", "indicator", "table")


@dataclass(frozen=True, init=False)
class SpectralWeight:
    """Complex weight sampled on a quadrature rule over a domain.

    inf_mod and sup_mod are taken from the node samples (inf over the
    support only). Named profiles additionally carry exact extremes so
    that under-resolved sampling can be flagged. An affine profile, and
    only it, carries affine = (offset, gradient), the weight offset +
    <gradient, x> its samples come from, which exp_gram integrates in
    closed form on box domains.

    Every Gram of a weight squares its moduli, so a weight whose largest
    modulus, sampled or exact, has no finite float square is refused, and
    so is an affine weight with a gradient component that has none (the
    closed form squares each).
    """

    domain: Domain
    rule: QuadratureRule
    values: np.ndarray
    profile: str
    support_mask: np.ndarray
    inf_mod: float
    sup_mod: float
    exact_inf: Optional[float]
    exact_sup: Optional[float]
    affine: Optional[tuple[float, np.ndarray]]

    def __init__(self, domain, rule, values, profile="table", exact_inf=None, exact_sup=None,
                 affine=None):
        if profile not in _NAMED_PROFILES:
            raise ValueError(f"unknown profile {profile!r}")
        if (profile == "affine") != (affine is not None):
            raise ValueError("an affine profile carries its offset and gradient, and only it")
        vals = np.ascontiguousarray(np.asarray(values, dtype=complex))
        if vals.shape != (rule.n_nodes,):
            raise ValueError(f"need one value per node, got shape {vals.shape} for {rule.n_nodes} nodes")
        mods = np.abs(vals)
        mask = mods > SUPPORT_TOL
        if not mask.any():
            raise ValueError("weight vanishes at every node")
        sup_mod = float(mods.max())
        for largest in (sup_mod, exact_sup):
            # A NaN has no finite square either.
            if largest is not None and not math.isfinite(largest * largest):
                raise ValueError(f"weight modulus {largest:g} has no finite square")
        if affine is not None:
            for g in affine[1].tolist():
                if not math.isfinite(g * g):
                    raise ValueError(f"affine gradient component {g:g} has no finite square")
        vals.setflags(write=False)
        mask = np.ascontiguousarray(mask)
        mask.setflags(write=False)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "rule", rule)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "profile", profile)
        object.__setattr__(self, "support_mask", mask)
        object.__setattr__(self, "inf_mod", float(mods[mask].min()))
        object.__setattr__(self, "sup_mod", sup_mod)
        object.__setattr__(self, "exact_inf", None if exact_inf is None else float(exact_inf))
        object.__setattr__(self, "exact_sup", None if exact_sup is None else float(exact_sup))
        object.__setattr__(self, "affine", affine)

    @property
    def profile_mismatch(self) -> float:
        """Largest gap between node-sampled and exact modulus extremes."""
        gaps = []
        if self.exact_inf is not None:
            gaps.append(abs(self.inf_mod - self.exact_inf))
        if self.exact_sup is not None:
            gaps.append(abs(self.sup_mod - self.exact_sup))
        return max(gaps, default=0.0)


def indicator_weight(domain: Domain, nodes_per_axis: int = 32,
                     rule: Optional[QuadratureRule] = None) -> SpectralWeight:
    """Weight identically one on the domain."""
    rule = rule or quadrature(domain, nodes_per_axis)
    return SpectralWeight(domain, rule, np.ones(rule.n_nodes), profile="indicator",
                          exact_inf=1.0, exact_sup=1.0)


def constant_weight(domain: Domain, value, nodes_per_axis: int = 32,
                    rule: Optional[QuadratureRule] = None) -> SpectralWeight:
    """Constant complex weight."""
    value = complex(value)
    if value == 0:
        raise ValueError("constant weight must be nonzero")
    rule = rule or quadrature(domain, nodes_per_axis)
    return SpectralWeight(domain, rule, np.full(rule.n_nodes, value), profile="constant",
                          exact_inf=abs(value), exact_sup=abs(value))


def _affine_extremes(domain: Domain, offset: float, gradient: np.ndarray) -> tuple[float, float]:
    # An affine map attains its extremes at cell corners; the modulus
    # infimum is zero whenever a single convex piece changes sign. Each
    # cell's 2^d corners take the lower or upper end per axis, first axis
    # slowest.
    lowers, widths, _ = domain.cells()
    upper = np.array(list(product((False, True), repeat=domain.dimension)))
    corners = np.where(upper, (lowers + widths)[:, np.newaxis], lowers[:, np.newaxis])
    vals = (offset + corners.reshape(-1, domain.dimension) @ gradient).reshape(len(lowers), -1)
    mods = np.abs(vals)
    inf_abs = 0.0 if np.any((vals.min(axis=1) <= 0.0) & (vals.max(axis=1) >= 0.0)) else mods.min()
    return float(inf_abs), float(mods.max())


def affine_weight(domain: Domain, offset: float, gradient,
                  nodes_per_axis: int = 32,
                  rule: Optional[QuadratureRule] = None) -> SpectralWeight:
    """Real affine weight offset + <gradient, x>."""
    gradient = np.atleast_1d(np.asarray(gradient, dtype=float))
    if gradient.shape != (domain.dimension,):
        raise ValueError(f"gradient must have dimension {domain.dimension}")
    rule = rule or quadrature(domain, nodes_per_axis)
    values = offset + rule.nodes @ gradient
    exact_inf, exact_sup = _affine_extremes(domain, float(offset), gradient)
    gradient = gradient.copy()
    gradient.setflags(write=False)
    return SpectralWeight(domain, rule, values.astype(complex), profile="affine",
                          exact_inf=exact_inf, exact_sup=exact_sup,
                          affine=(float(offset), gradient))


def bump_values(x, steepness: float = 1.0) -> np.ndarray:
    """Smooth bump exp(-steepness / (x (1 - x))) on (0, 1), zero elsewhere."""
    x = np.asarray(x, dtype=float)
    y = x * (1.0 - x)
    out = np.zeros_like(y)
    inside = y > 0.0
    out[inside] = np.exp(-steepness / y[inside])
    return out


def _bump_extremes(domain: Domain, steepness: float) -> tuple[float, float]:
    # The bump is least at a cell's ends and greatest at 0.5, or at an end
    # of a cell without it.
    lowers, widths, _ = domain.cells()
    lo, hi = lowers[:, 0], lowers[:, 0] + widths[:, 0]
    edge = bump_values(np.stack([lo, hi], axis=1), steepness)
    peak = np.where((lo <= 0.5) & (0.5 <= hi), bump_values(0.5, steepness), edge.max(axis=1))
    return float(edge.min()), float(peak.max())


def bump_window(domain: Domain, steepness: float = 1.0, nodes_per_axis: int = 64,
                rule: Optional[QuadratureRule] = None) -> SpectralWeight:
    """Compactly supported smooth window on a one-dimensional domain in [0, 1].

    A domain touching 0 or 1 is allowed but the window vanishes there, so
    the weight's support_mask drops the nodes below the modulus threshold
    (a frame transfer reports that as support_is_proper).
    """
    if domain.dimension != 1:
        raise ValueError("bump windows are one-dimensional")
    if steepness <= 0:
        raise ValueError(f"steepness must be positive, got {steepness}")
    lowers, widths, _ = domain.cells()
    lo, hi = lowers[:, 0].min(), (lowers[:, 0] + widths[:, 0]).max()
    if lo < -SUPPORT_TOL or hi > 1.0 + SUPPORT_TOL:
        raise ValueError(f"bump support is [0, 1]; domain spans [{lo}, {hi}]")
    rule = rule or quadrature(domain, nodes_per_axis)
    values = bump_values(rule.nodes[:, 0], steepness)
    exact_inf, exact_sup = _bump_extremes(domain, steepness)
    return SpectralWeight(domain, rule, values.astype(complex), profile="bump",
                          exact_inf=exact_inf, exact_sup=exact_sup)


def table_weight(domain: Domain, rule: QuadratureRule, values) -> SpectralWeight:
    """Weight given directly by its node samples."""
    return SpectralWeight(domain, rule, values, profile="table")


def translation_gram(domain: Domain, freqs: FrequencySet, weight: SpectralWeight) -> GramMatrix:
    """Gram of the translation system: the |weight|^2-weighted exponential
    Gram, in closed form or on the weight's rule as exp_gram decides."""
    return exp_gram(domain, freqs, weight=weight)


def _nowhere_vanishing(weight: SpectralWeight) -> SpectralWeight:
    """weight, if it vanishes at no node, as the Riesz transfer and the factorization need."""
    if not bool(weight.support_mask.all()):
        raise ValueError(f"spectral weight vanishes at {int((~weight.support_mask).sum())} of "
                         f"{weight.rule.n_nodes} nodes; a nowhere-zero weight is needed (for "
                         "frame bounds on its support use verify_frame_transfer or the "
                         "frame-transfer command)")
    return weight


def _sandwich(outer: BoundsReport, inner: BoundsReport, floor_sq: float,
              ceil_sq: float) -> dict:
    """The transfer rule, for Riesz and frame bounds alike: inner's bounds lie
    within outer's scaled by floor_sq and ceil_sq, up to the sandwich slack.
    Returns the sandwich's fields of either transfer report."""
    lower, upper = floor_sq * outer.lower, ceil_sq * outer.upper
    holds = (inner.lower >= lower - max(SANDWICH_RTOL * abs(lower), SANDWICH_ATOL)
             and inner.upper <= upper + max(SANDWICH_RTOL * abs(upper), SANDWICH_ATOL))
    return {"predicted_lower": lower, "predicted_upper": upper,
            "lower_margin": inner.lower - lower, "upper_margin": upper - inner.upper,
            "sandwich_holds": holds}


@dataclass(frozen=True)
class TransferReport:
    """Outcome of the Riesz bound transfer between exponentials and translates."""

    exp_bounds: BoundsReport
    translation_bounds: BoundsReport
    inf_mod: float
    sup_mod: float
    predicted_lower: float
    predicted_upper: float
    lower_margin: float
    upper_margin: float
    sandwich_holds: bool
    weight_resolution_flagged: bool


def verify_riesz_transfer(domain: Domain, freqs: FrequencySet,
                          weight: SpectralWeight) -> TransferReport:
    """Check the two-sided bound transfer for a nowhere-vanishing weight.

    The translation bounds must land inside the window scaled by the
    squared modulus extremes of the weight. Both Gram matrices are built
    with matching provenance (one shared rule, or both closed form), so
    the sandwich holds at the discrete level up to SANDWICH_RTOL slack.
    The window is scaled by the extremes of what the translation Gram
    integrates: the weight's samples on its rule; their one modulus on the
    closed form of an indicator or constant weight; the weight itself on
    the closed form of an affine weight, so its exact extremes, which can
    lie outside its samples. The report's inf_mod and sup_mod are the
    samples' either way, and weight_resolution_flagged compares them with
    the exact ones.
    """
    _nowhere_vanishing(weight)
    g_trans = translation_gram(domain, freqs, weight)
    closed = g_trans.provenance == "closed_form"
    g_exp = exp_gram(domain, freqs, rule=None if closed else weight.rule)
    exp_b = riesz_bounds(g_exp)
    trans_b = riesz_bounds(g_trans)
    floor, ceil = ((weight.exact_inf, weight.exact_sup) if closed and weight.affine is not None
                   else (weight.inf_mod, weight.sup_mod))
    return TransferReport(
        exp_bounds=exp_b,
        translation_bounds=trans_b,
        inf_mod=weight.inf_mod,
        sup_mod=weight.sup_mod,
        **_sandwich(exp_b, trans_b, floor ** 2, ceil ** 2),
        weight_resolution_flagged=weight.profile_mismatch > PROFILE_MISMATCH_TOL,
    )


@dataclass(frozen=True)
class FrameTransferReport:
    """Outcome of the frame bound transfer on the weight's support."""

    weighted_bounds: BoundsReport
    unweighted_bounds: BoundsReport
    weight_floor_sq: float
    weight_ceil_sq: float
    predicted_lower: float
    predicted_upper: float
    lower_margin: float
    upper_margin: float
    sandwich_holds: bool
    space_dim: int
    n_vectors: int
    support_is_proper: bool
    note: str

_FRAME_NOTE = ("frame bounds are certified on the quadrature model of the weight "
               "support only; nothing is claimed about signals concentrated where "
               "the weight vanishes")


def _rank_deficient_bounds(gram: GramMatrix) -> BoundsReport:
    """Frame bounds of an operator V V* on more nodes than the n frequencies,
    from its Gram V* V, which has the same nonzero spectrum: V V* has rank
    at most n, so its lower bound is 0 (degenerate) by rank, not by a
    solve, and its upper bound is the Gram's certified largest eigenvalue,
    with that Gram's margin; its lambda_min is not certified."""
    bounds = _eigen_bounds(gram.operand, gram.scan, lower=False)
    return BoundsReport(0.0, bounds.lambda_max, None, "degenerate", bounds.margin)


def _frame_support(weight: SpectralWeight, freqs: FrequencySet) -> int:
    """The support node count, unless it and the frequency count both exceed ORDER_CAP."""
    n_support = int(weight.support_mask.sum())
    if min(n_support, freqs.size) > ORDER_CAP:
        raise ValueError(f"{n_support} support nodes and {freqs.size} frequencies both exceed "
                         f"the dense-solver cap {ORDER_CAP}; coarsen the rule")
    return n_support


def verify_frame_transfer(domain: Domain, freqs: FrequencySet,
                          weight: SpectralWeight) -> FrameTransferReport:
    """Frame-bound sandwich for weights that may vanish on part of the domain.

    The model space keeps only the N quadrature nodes inside the support.
    Both frame operators (weighted and unweighted exponentials) act there,
    and the weighted bounds must sit inside the unweighted ones scaled by
    the extreme squared moduli over the support. Each operator is V V* for
    V = diag(u) P, with P the node-by-frequency phase matrix and u the
    square roots of the node weights, times the weight's values for the
    weighted one. Each is solved on its smaller side, so only when both N
    and the n frequencies exceed ORDER_CAP is the transfer refused.

    With N > n, the n x n Gram V* V stands for V V* (_rank_deficient_bounds):
    the Gram on the support's rule, weighted by |weight|^2 for the weighted
    operator, which exp_gram integrates about the domain's centre (a
    difference table on a range), and no N x N operator is formed. With
    N <= n, V V* is formed from the frequencies moved by -m, m the centre
    of their bounding box (spectra.box_centre): that only rotates each
    operator by a unimodular diagonal, and makes it real when the
    frequencies are symmetric about m and the weight is real. Both are
    scalings of one node kernel, built in real arithmetic.
    """
    _on_domain(domain, freqs, weight)
    n_support = _frame_support(weight, freqs)
    mask = weight.support_mask
    nodes = weight.rule.nodes[mask]
    wts = weight.rule.weights[mask]
    vals = weight.values[mask]
    if n_support > freqs.size:
        support = QuadratureRule(nodes, wts)
        unweighted = _rank_deficient_bounds(exp_gram(domain, freqs, rule=support))
        weighted = _rank_deficient_bounds(
            exp_gram(domain, freqs, weight=table_weight(domain, support, vals)))
    else:
        centred = freqs.points - box_centre(freqs.points)
        # Each operator is outer(u, conj(u)) times the node kernel P P*,
        # which is the pairwise quadrature of the nodes' differences against
        # the frequencies.
        kernel = _pairwise_quadrature(centred, np.ones(freqs.size), nodes)
        droot = np.sqrt(wts)
        scaled = droot * vals
        unweighted = frame_bounds_of_operator(np.outer(droot, droot) * kernel)
        weighted = frame_bounds_of_operator(np.outer(scaled, scaled.conj()) * kernel)
    mods_sq = np.abs(vals) ** 2
    floor_sq = float(mods_sq.min())
    ceil_sq = float(mods_sq.max())
    return FrameTransferReport(
        weighted_bounds=weighted,
        unweighted_bounds=unweighted,
        weight_floor_sq=floor_sq,
        weight_ceil_sq=ceil_sq,
        **_sandwich(unweighted, weighted, floor_sq, ceil_sq),
        space_dim=n_support,
        n_vectors=freqs.size,
        support_is_proper=not bool(mask.all()),
        note=_FRAME_NOTE,
    )


@dataclass(frozen=True, init=False)
class BandlimitedSignal:
    """Signal given by frequency samples on a rule; norms via Plancherel."""

    domain: Domain
    rule: QuadratureRule
    coeffs: np.ndarray

    def __init__(self, domain, rule, coeffs):
        c = np.ascontiguousarray(np.asarray(coeffs, dtype=complex))
        if c.shape != (rule.n_nodes,):
            raise ValueError(f"need one coefficient per node, got shape {c.shape}")
        c.setflags(write=False)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "rule", rule)
        object.__setattr__(self, "coeffs", c)

    @property
    def norm_sq(self) -> float:
        return float(np.sum(self.rule.weights * np.abs(self.coeffs) ** 2))


def indicator_signal(domain: Domain, rule: QuadratureRule) -> BandlimitedSignal:
    return BandlimitedSignal(domain, rule, np.ones(rule.n_nodes))


def random_signal(domain: Domain, rule: QuadratureRule, rng) -> BandlimitedSignal:
    re = rng.uniforms(rule.n_nodes, -1.0, 1.0)
    im = rng.uniforms(rule.n_nodes, -1.0, 1.0)
    return BandlimitedSignal(domain, rule, re + 1j * im)


def _signal_orders(rule: QuadratureRule, max_order) -> int:
    """max_order as an int, if 2 max_order + 1 exponentials over rule's nodes
    take at most NODE_CAP values."""
    max_order = int(max_order)
    if max_order < 0:
        raise ValueError(f"max_order must be at least 0, got {max_order}")
    values = (2 * max_order + 1) * rule.n_nodes
    if values > NODE_CAP:
        raise ValueError(f"{values} values of {2 * max_order + 1} exponentials over "
                         f"{rule.n_nodes} nodes exceed the cap {NODE_CAP}")
    return max_order


def smooth_random_signal(domain: Domain, rule: QuadratureRule, rng,
                         max_order: int = 3) -> BandlimitedSignal:
    """Random trigonometric polynomial profile with decaying coefficients."""
    if domain.dimension != 1:
        raise ValueError("smooth random signals are one-dimensional")
    max_order = _signal_orders(rule, max_order)
    xi = rule.nodes[:, 0]
    coeffs = np.zeros(rule.n_nodes, dtype=complex)
    for k in range(-max_order, max_order + 1):
        c = (rng.uniform(-1.0, 1.0) + 1j * rng.uniform(-1.0, 1.0)) / (1.0 + k * k)
        coeffs += c * np.exp(2j * np.pi * k * xi)
    return BandlimitedSignal(domain, rule, coeffs)


@dataclass(frozen=True)
class FactorizationReport:
    """Division-multiplication roundtrip of a signal through a weight."""

    residual: float
    quotient_norm: float
    norm_bound: float
    bound_holds: bool
    signal_norm: float


def convolution_factorization_check(domain: Domain, psi: SpectralWeight,
                                    signal: BandlimitedSignal) -> FactorizationReport:
    """Divide the signal by the weight, multiply back, measure the defect.

    The quotient norm must respect signal norm / inf_mod. A zero signal
    reports residual zero by convention.
    """
    _on_domain(domain, None, psi)
    if signal.domain != psi.domain or not np.array_equal(psi.rule.nodes, signal.rule.nodes):
        raise ValueError("weight and signal must share one quadrature rule")
    _nowhere_vanishing(psi)
    w = signal.rule.weights
    signal_norm = math.sqrt(signal.norm_sq)
    if signal_norm == 0.0:
        return FactorizationReport(0.0, 0.0, 0.0, True, 0.0)
    quotient = signal.coeffs / psi.values
    back = quotient * psi.values
    residual = float(np.sqrt(np.sum(w * np.abs(back - signal.coeffs) ** 2))) / signal_norm
    quotient_norm = float(np.sqrt(np.sum(w * np.abs(quotient) ** 2)))
    norm_bound = signal_norm / psi.inf_mod
    return FactorizationReport(
        residual=residual,
        quotient_norm=quotient_norm,
        norm_bound=norm_bound,
        bound_holds=quotient_norm <= norm_bound * (1.0 + 1e-10),
        signal_norm=signal_norm,
    )


@dataclass(frozen=True)
class WskReport:
    """Cardinal-series reconstruction from integer samples."""

    n_terms: int
    samples: np.ndarray
    eval_points: np.ndarray
    values: np.ndarray
    coeff_energy: float
    signal_energy: float
    parseval_ok: bool


def _cardinal_band(domain: Domain) -> Domain:
    """domain, if it is the band [-1/2, 1/2] of the cardinal series."""
    if domain.dimension != 1 or len(domain.boxes) != 1:
        raise ValueError("cardinal reconstruction needs a single interval band")
    box = domain.boxes[0]
    if abs(box.lower[0] + 0.5) > 1e-12 or abs(box.upper[0] - 0.5) > 1e-12:
        raise ValueError(
            f"band must be [-1/2, 1/2] within 1e-12, got [{box.lower[0]}, {box.upper[0]}]")
    return domain


def _truncation(n_terms) -> int:
    """n_terms as an int, if the cardinal series can be truncated there."""
    n_terms = int(n_terms)
    if not 0 <= n_terms <= 512:
        raise ValueError(f"truncation must lie in [0, 512], got {n_terms}")
    return n_terms


def _resolves(rule: QuadratureRule, n_terms: int) -> int:
    """n_terms, if rule has more nodes than the cardinal series has terms."""
    if rule.n_nodes <= 2 * n_terms:
        raise ValueError(f"{rule.n_nodes} nodes cannot resolve {2 * n_terms + 1} series terms")
    return n_terms


def _cardinal_points(points, n_terms: int) -> np.ndarray:
    """points as a float array within the cap, if every point t is finite
    and so is pi (|t| + n_terms), the largest argument the sinc table of a
    series of n_terms terms takes at t."""
    pts = np.atleast_1d(np.asarray(points, dtype=float))
    _grid_size(pts.size)
    with np.errstate(over="ignore"):
        if not np.all(np.isfinite(np.pi * (np.abs(pts) + n_terms))):
            raise ValueError(f"evaluation points t must keep pi (|t| + {n_terms}) finite")
    return pts


def shannon_reconstruct(signal: BandlimitedSignal, n_terms: int,
                        eval_points) -> WskReport:
    """Reconstruct from integer samples with a truncated cardinal series.

    The band must be [-1/2, 1/2]. The sample f(m) is the band's Fourier
    coefficient sum_k w_k c_k exp(2 pi i m x_k) on the signal's own rule,
    which must oversample the truncation (more nodes than series terms):
    the quadrature table of the integer-frequency Grams (_quadrature_table)
    read at -m, which costs q + b exponentials per node and sums over
    blocks of nodes. The sinc table is formed over blocks of points of
    about _TABLE_BLOCK_ENTRIES entries: one block when there are fewer.
    """
    _cardinal_band(signal.domain)
    n_terms = _resolves(signal.rule, _truncation(n_terms))
    pts = _cardinal_points(eval_points, n_terms)
    orders = np.arange(-n_terms, n_terms + 1)
    block = max(1, _TABLE_BLOCK_ENTRIES // orders.size)
    samples = _quadrature_table(signal.rule.nodes, signal.rule.weights * signal.coeffs,
                                [n_terms])[::-1]
    values = np.concatenate([
        samples @ np.sinc(pts[np.newaxis, start:start + block] - orders[:, np.newaxis])
        for start in range(0, pts.size, block)])
    coeff_energy = float(np.sum(np.abs(samples) ** 2))
    signal_energy = signal.norm_sq
    parseval_ok = coeff_energy <= signal_energy * (1.0 + SANDWICH_RTOL) + 1e-15
    return WskReport(n_terms, samples, pts, values, coeff_energy, signal_energy, parseval_ok)


@dataclass(frozen=True)
class PeriodizationProfile:
    """Compactly supported frequency profile with a pointwise evaluator."""

    name: str
    support: Box
    fn: Callable[[np.ndarray], np.ndarray]


def _indicator_profile(lower, upper, scale=1.0) -> PeriodizationProfile:
    lo = np.atleast_1d(np.asarray(lower, dtype=float))
    hi = np.atleast_1d(np.asarray(upper, dtype=float))
    scale = float(scale)

    def fn(x: np.ndarray) -> np.ndarray:
        inside = np.all((x >= lo) & (x < hi), axis=-1)
        return scale * inside.astype(float)

    return PeriodizationProfile("indicator", Box(lo, hi), fn)


def _triangle_profile(lower, upper, height=1.0) -> PeriodizationProfile:
    lo = float(lower)
    hi = float(upper)
    height = float(height)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)

    def fn(x: np.ndarray) -> np.ndarray:
        t = 1.0 - np.abs(x[..., 0] - mid) / half
        return height * np.maximum(t, 0.0)

    return PeriodizationProfile("triangle", Box([lo], [hi]), fn)


def _cosine_profile(center=0.5) -> PeriodizationProfile:
    center = float(center)

    def fn(x: np.ndarray) -> np.ndarray:
        t = x[..., 0] - center
        return np.where(np.abs(t) <= 1.0, np.cos(0.5 * np.pi * t), 0.0)

    return PeriodizationProfile("cosine", Box([center - 1.0], [center + 1.0]), fn)


def _bump_profile(steepness=1.0, scale=1.0) -> PeriodizationProfile:
    steepness = float(steepness)
    scale = float(scale)

    def fn(x: np.ndarray) -> np.ndarray:
        return scale * bump_values(x[..., 0], steepness)

    return PeriodizationProfile("bump", Box([0.0], [1.0]), fn)


# Constructor of each named profile; its keyword parameters and their
# defaults are the profile's parameters, so the scenario schema reads them
# from here.
PERIODIZATION_KINDS = {
    "indicator": _indicator_profile,
    "triangle": _triangle_profile,
    "cosine": _cosine_profile,
    "bump": _bump_profile,
}


def periodization_profile(kind: str, **params) -> PeriodizationProfile:
    """Named profiles for the integer-translate orthonormality criterion."""
    if kind not in PERIODIZATION_KINDS:
        raise ValueError(f"unknown periodization profile {kind!r}")
    return PERIODIZATION_KINDS[kind](**params)


@dataclass(frozen=True)
class PeriodizationReport:
    """Grid check of the squared-modulus periodization against one."""

    sup_deviation: float
    is_onb: bool
    gram_deviation: float
    gram_is_onb: bool
    agree: bool
    resolution: int
    tol: float
    gram_tol: float


def _gram_inputs(profile: PeriodizationProfile, resolution: int,
                 gram_nodes: Optional[int]) -> tuple[list[np.ndarray], SpectralWeight, int]:
    """What zd_periodization's Gram integrates, checked before it is built:
    the integer shifts per axis moving some of the support into the unit
    cube (capped), the profile as a weight on gram_nodes (resolution unless
    given) midpoint nodes per axis over its support, and that count."""
    ends = [(math.floor(lo) - 1, math.ceil(hi) + 1)
            for lo, hi in zip(profile.support.lower, profile.support.upper)]
    _system_size(math.prod(hi - lo for lo, hi in ends))
    gram_nodes = resolution if gram_nodes is None else int(gram_nodes)
    support = Domain(boxes=[profile.support])
    rule = quadrature(support, gram_nodes)
    weight = table_weight(support, rule, profile.fn(rule.nodes))
    return [np.arange(lo, hi) for lo, hi in ends], weight, gram_nodes


def zd_periodization(profile: PeriodizationProfile, resolution: int = 64,
                     tol: float = 1e-8,
                     gram_nodes: Optional[int] = None) -> PeriodizationReport:
    """Sum |profile|^2 over integer shifts on a grid of the unit cube.

    The verdict (sup deviation from one within tol) is cross-checked
    against the orthonormality of the integer-translate Gram built by
    quadrature on the profile support, judged at the tolerance
    max(1e-8, h^2) of the rule's node spacing h.
    """
    if int(resolution) < 2:
        raise ValueError(f"resolution must be at least 2, got {resolution}")
    resolution = _grid_size(resolution, profile.support.dimension)
    return _periodize(profile, resolution, tol, _gram_inputs(profile, resolution, gram_nodes))


def _periodize(profile: PeriodizationProfile, resolution: int, tol: float,
               inputs: tuple[list[np.ndarray], SpectralWeight, int]) -> PeriodizationReport:
    """zd_periodization at a checked resolution, on the _gram_inputs built for it."""
    ranges, weight, gram_nodes = inputs
    d = profile.support.dimension
    axes = [(np.arange(resolution) + 0.5) / resolution] * d
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    total = np.zeros(grid.shape[0])
    for shift in product(*[r.tolist() for r in ranges]):
        total += np.abs(profile.fn(grid + np.asarray(shift, dtype=float))) ** 2
    sup_dev = float(np.max(np.abs(total - 1.0)))
    verdict = sup_dev <= tol

    lattice = FrequencySet(np.stack(np.meshgrid(*ranges, indexing="ij"), axis=-1).reshape(-1, d))
    gram = translation_gram(weight.domain, lattice, weight)
    span = max(hi - lo for lo, hi in zip(profile.support.lower, profile.support.upper))
    h = span / gram_nodes
    gram_tol = max(1e-8, h * h)
    gram_verdict: OnbVerdict = is_orthonormal_system(gram, gram_tol)
    return PeriodizationReport(
        sup_deviation=sup_dev,
        is_onb=verdict,
        gram_deviation=gram_verdict.deviation,
        gram_is_onb=gram_verdict.is_onb,
        agree=verdict == gram_verdict.is_onb,
        resolution=resolution,
        tol=tol,
        gram_tol=gram_tol,
    )
