"""Bandlimited translation systems seen through their spectral weights.

A translation system is modeled by the modulus profile of its window on
the frequency domain. Its Gram is a weighted exponential Gram, so
two-sided bound transfer between the exponential system and the
translates is one eigenvalue sandwich (_sandwich), verified for Riesz
bounds on the full domain when the weight never vanishes and for frame
bounds on the weight's support otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, Optional

import numpy as np

from .domain import Box, Domain, QuadratureRule, quadrature
from .numerics import ORDER_CAP
from .spectra import (BoundsReport, FrequencySet, GramMatrix, OnbVerdict,
                      _pairwise_quadrature, box_centre, exp_gram,
                      frame_bounds_of_operator, is_orthonormal_system, riesz_bounds)

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
        vals.setflags(write=False)
        mask = np.ascontiguousarray(mask)
        mask.setflags(write=False)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "rule", rule)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "profile", profile)
        object.__setattr__(self, "support_mask", mask)
        object.__setattr__(self, "inf_mod", float(mods[mask].min()))
        object.__setattr__(self, "sup_mod", float(mods.max()))
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


def _default_rule(domain: Domain, rule: Optional[QuadratureRule], nodes_per_axis: int) -> QuadratureRule:
    return rule if rule is not None else quadrature(domain, nodes_per_axis)


def indicator_weight(domain: Domain, nodes_per_axis: int = 32,
                     rule: Optional[QuadratureRule] = None) -> SpectralWeight:
    """Weight identically one on the domain."""
    rule = _default_rule(domain, rule, nodes_per_axis)
    return SpectralWeight(domain, rule, np.ones(rule.n_nodes), profile="indicator",
                          exact_inf=1.0, exact_sup=1.0)


def constant_weight(domain: Domain, value, nodes_per_axis: int = 32,
                    rule: Optional[QuadratureRule] = None) -> SpectralWeight:
    """Constant complex weight."""
    value = complex(value)
    if value == 0:
        raise ValueError("constant weight must be nonzero")
    rule = _default_rule(domain, rule, nodes_per_axis)
    return SpectralWeight(domain, rule, np.full(rule.n_nodes, value), profile="constant",
                          exact_inf=abs(value), exact_sup=abs(value))


def _box_corner_values(lower, upper, offset: float, gradient: np.ndarray) -> np.ndarray:
    corners = np.array(list(product(*zip(lower, upper))))
    return offset + corners @ gradient


def _affine_extremes(domain: Domain, offset: float, gradient: np.ndarray) -> tuple[float, float]:
    # An affine map attains its extremes at cell corners; the modulus
    # infimum is zero whenever a single convex piece changes sign.
    inf_abs = np.inf
    sup_abs = 0.0
    for lower, widths, _ in domain.cells():
        vals = _box_corner_values(lower, lower + widths, offset, gradient)
        if vals.min() <= 0.0 <= vals.max():
            inf_abs = 0.0
        else:
            inf_abs = min(inf_abs, float(np.min(np.abs(vals))))
        sup_abs = max(sup_abs, float(np.max(np.abs(vals))))
    return float(inf_abs), float(sup_abs)


def affine_weight(domain: Domain, offset: float, gradient,
                  nodes_per_axis: int = 32,
                  rule: Optional[QuadratureRule] = None) -> SpectralWeight:
    """Real affine weight offset + <gradient, x>."""
    gradient = np.atleast_1d(np.asarray(gradient, dtype=float))
    if gradient.shape != (domain.dimension,):
        raise ValueError(f"gradient must have dimension {domain.dimension}")
    rule = _default_rule(domain, rule, nodes_per_axis)
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
    inf_abs = np.inf
    sup_abs = 0.0
    for lower, widths, _ in domain.cells():
        lo, hi = lower[0], lower[0] + widths[0]
        edge = bump_values(np.array([lo, hi]), steepness)
        inf_abs = min(inf_abs, float(edge.min()))
        peak = bump_values(np.array([0.5]), steepness) if lo <= 0.5 <= hi else edge
        sup_abs = max(sup_abs, float(peak.max()))
    return float(inf_abs), float(sup_abs)


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
    cells = domain.cells()
    lo = min(lower[0] for lower, _, _ in cells)
    hi = max(lower[0] + widths[0] for lower, widths, _ in cells)
    if lo < -SUPPORT_TOL or hi > 1.0 + SUPPORT_TOL:
        raise ValueError(f"bump support is [0, 1]; domain spans [{lo}, {hi}]")
    rule = _default_rule(domain, rule, nodes_per_axis)
    values = bump_values(rule.nodes[:, 0], steepness)
    exact_inf, exact_sup = _bump_extremes(domain, steepness)
    return SpectralWeight(domain, rule, values.astype(complex), profile="bump",
                          exact_inf=exact_inf, exact_sup=exact_sup)


def table_weight(domain: Domain, rule: QuadratureRule, values) -> SpectralWeight:
    """Weight given directly by its node samples."""
    return SpectralWeight(domain, rule, values, profile="table")


def translation_gram(domain: Domain, freqs: FrequencySet, weight: SpectralWeight) -> GramMatrix:
    """Gram of the translation system: the |weight|^2-weighted exponential Gram.

    exp_gram picks the route: the closed form for indicator, constant and
    affine profiles on box domains, the weight's quadrature rule otherwise.
    """
    return exp_gram(domain, freqs, weight=weight)


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
    if weight.domain != domain:
        raise ValueError("weight was sampled on a different domain")
    if not bool(weight.support_mask.all()):
        missing = int((~weight.support_mask).sum())
        raise ValueError(
            f"spectral weight vanishes at {missing} of {weight.rule.n_nodes} nodes; "
            "the Riesz transfer needs a nowhere-zero weight, use verify_frame_transfer")
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


def verify_frame_transfer(domain: Domain, freqs: FrequencySet,
                          weight: SpectralWeight) -> FrameTransferReport:
    """Frame-bound sandwich for weights that may vanish on part of the domain.

    The model space keeps only the quadrature nodes inside the support.
    Both frame operators (weighted and unweighted exponentials) act there,
    and the weighted bounds must sit inside the unweighted ones scaled by
    the extreme squared moduli over the support. Both are built from the
    frequencies moved by -m, m the centre of their bounding box
    (spectra.box_centre): that only rotates each operator by a unimodular
    diagonal, and makes it real when the frequencies are symmetric about m
    and the weight is real. Both are scalings of one node kernel, built in
    real arithmetic.
    """
    if weight.domain != domain:
        raise ValueError("weight was sampled on a different domain")
    mask = weight.support_mask
    n_support = int(mask.sum())
    if n_support > ORDER_CAP:
        raise ValueError(
            f"{n_support} support nodes exceed the dense-solver cap {ORDER_CAP}; "
            "coarsen the rule")
    nodes = weight.rule.nodes[mask]
    wts = weight.rule.weights[mask]
    vals = weight.values[mask]
    centred = freqs.points - box_centre(freqs.points)
    # With P the node-by-frequency phase matrix, each operator is V V* for
    # V = diag(u) P, that is outer(u, conj(u)) times the node kernel P P*,
    # which is the pairwise quadrature of the nodes' differences against the
    # frequencies.
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


def smooth_random_signal(domain: Domain, rule: QuadratureRule, rng,
                         max_order: int = 3) -> BandlimitedSignal:
    """Random trigonometric polynomial profile with decaying coefficients."""
    if domain.dimension != 1:
        raise ValueError("smooth random signals are one-dimensional")
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
    if psi.domain != domain or signal.domain != domain:
        raise ValueError("weight and signal must live on the given domain")
    if not np.array_equal(psi.rule.nodes, signal.rule.nodes):
        raise ValueError("weight and signal must share one quadrature rule")
    if not bool(psi.support_mask.all()):
        raise ValueError("factorization needs a nowhere-zero weight on the domain")
    w = signal.rule.weights
    signal_norm = float(np.sqrt(np.sum(w * np.abs(signal.coeffs) ** 2)))
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


def shannon_reconstruct(signal: BandlimitedSignal, n_terms: int,
                        eval_points) -> WskReport:
    """Reconstruct from integer samples with a truncated cardinal series.

    The band must be [-1/2, 1/2]. Samples come from quadrature of the
    inverse transform on the signal's own rule, which must oversample the
    truncation (more nodes than series terms).
    """
    _cardinal_band(signal.domain)
    n_terms = _truncation(n_terms)
    if signal.rule.n_nodes <= 2 * n_terms:
        raise ValueError(
            f"{signal.rule.n_nodes} nodes cannot resolve {2 * n_terms + 1} series terms")
    orders = np.arange(-n_terms, n_terms + 1)
    xi = signal.rule.nodes[:, 0]
    inverse_phases = np.exp(2j * np.pi * orders[:, np.newaxis] * xi[np.newaxis, :])
    samples = inverse_phases @ (signal.rule.weights * signal.coeffs)
    pts = np.atleast_1d(np.asarray(eval_points, dtype=float))
    cardinal = np.sinc(pts[np.newaxis, :] - orders[:, np.newaxis])
    values = samples @ cardinal
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
    box = Box(lo, hi)

    def fn(x: np.ndarray) -> np.ndarray:
        inside = np.all((x >= lo) & (x < hi), axis=-1)
        return scale * inside.astype(float)

    return PeriodizationProfile("indicator", box, fn)


def _triangle_profile(lower, upper, height=1.0) -> PeriodizationProfile:
    lo = float(lower)
    hi = float(upper)
    height = float(height)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    box = Box([lo], [hi])

    def fn(x: np.ndarray) -> np.ndarray:
        t = 1.0 - np.abs(x[..., 0] - mid) / half
        return height * np.maximum(t, 0.0)

    return PeriodizationProfile("triangle", box, fn)


def _cosine_profile(center=0.5) -> PeriodizationProfile:
    center = float(center)
    box = Box([center - 1.0], [center + 1.0])

    def fn(x: np.ndarray) -> np.ndarray:
        t = x[..., 0] - center
        return np.where(np.abs(t) <= 1.0, np.cos(0.5 * np.pi * t), 0.0)

    return PeriodizationProfile("cosine", box, fn)


def _bump_profile(steepness=1.0, scale=1.0) -> PeriodizationProfile:
    steepness = float(steepness)
    scale = float(scale)
    box = Box([0.0], [1.0])

    def fn(x: np.ndarray) -> np.ndarray:
        return scale * bump_values(x[..., 0], steepness)

    return PeriodizationProfile("bump", box, fn)


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


def _integer_cover(support: Box) -> list[np.ndarray]:
    ranges = []
    for lo, hi in zip(support.lower, support.upper):
        ranges.append(np.arange(int(np.floor(lo)) - 1, int(np.ceil(hi)) + 1))
    return ranges


def zd_periodization(profile: PeriodizationProfile, resolution: int = 64,
                     tol: float = 1e-8,
                     gram_nodes: Optional[int] = None) -> PeriodizationReport:
    """Sum |profile|^2 over integer shifts on a grid of the unit cube.

    The verdict (sup deviation from one within tol) is cross-checked
    against the orthonormality of the integer-translate Gram built by
    quadrature on the profile support, judged at the tolerance
    max(1e-8, h^2) of the rule's node spacing h.
    """
    resolution = int(resolution)
    if resolution < 2:
        raise ValueError(f"resolution must be at least 2, got {resolution}")
    d = profile.support.dimension
    axes = [(np.arange(resolution) + 0.5) / resolution] * d
    mesh = np.meshgrid(*axes, indexing="ij")
    grid = np.stack([m.reshape(-1) for m in mesh], axis=-1)
    total = np.zeros(grid.shape[0])
    ranges = _integer_cover(profile.support)
    for shift in product(*[r.tolist() for r in ranges]):
        total += np.abs(profile.fn(grid + np.asarray(shift, dtype=float))) ** 2
    sup_dev = float(np.max(np.abs(total - 1.0)))
    verdict = sup_dev <= tol

    gram_nodes = resolution if gram_nodes is None else int(gram_nodes)
    support_domain = Domain(boxes=[profile.support])
    rule = quadrature(support_domain, gram_nodes)
    weight = table_weight(support_domain, rule, profile.fn(rule.nodes))
    lattice_axes = [np.asarray(r, dtype=float) for r in ranges]
    lattice_mesh = np.meshgrid(*lattice_axes, indexing="ij")
    lattice = FrequencySet(np.stack([m.reshape(-1) for m in lattice_mesh], axis=-1))
    gram = translation_gram(support_domain, lattice, weight)
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
