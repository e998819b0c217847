"""Exponential systems on a domain: Gram matrices and Riesz-bound verdicts.

The exponential attached to a frequency a is x -> exp(-2 pi i <x, a>), and
all Gram entries are integrals of products of such exponentials over the
domain, optionally against a spectral weight. exp_gram alone decides how a
Gram is integrated: box domains get a product of closed-form axis
factors (one routine, _closed_form, for a single pair or a whole matrix);
everything else goes through midpoint quadrature. On an axis whose
frequencies are integers the closed-form factor depends only on the
integer difference, so it is evaluated once per difference and gathered
(the Gram is Toeplitz along that axis). A quadrature Gram of integer
frequencies is Toeplitz too: when every axis is integer and the box of
differences has at most n^2 points, the node sum is evaluated once per
difference vector and gathered; any other set takes the product of the
node-by-frequency phase matrix with its weighted conjugate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .domain import Domain, QuadratureRule, quadrature
from .numerics import eigen_bounds, hermitian_defect, hermiticity_ceiling

# Largest frequency-set size a Gram matrix will be assembled for.
SYSTEM_SIZE_CAP = 512

# Frequencies closer than this in sup norm count as duplicates.
DISTINCTNESS_TOL = 1e-12

# Pairwise gaps per block of the distinctness check; a set within
# SYSTEM_SIZE_CAP is one block.
_GAP_BLOCK_ENTRIES = SYSTEM_SIZE_CAP ** 2

# Entries per block of nodes in a Toeplitz quadrature Gram's folded table.
_TABLE_BLOCK_ENTRIES = SYSTEM_SIZE_CAP ** 2

# Below this phase scale the closed-form axis factor switches to its
# zero-frequency branch.
DELTA_ZERO_TOL = 1e-12

# Integer coordinates below this magnitude have exact float differences.
_EXACT_INTEGER_BOUND = 2.0 ** 52

# A lower bound at or below this fraction of the upper bound is degenerate.
DEGENERACY_RTOL = 1e-9

_HERMITICITY_TOL = {"closed_form": 1e-12, "quadrature": 1e-8}


@dataclass(frozen=True, init=False)
class FrequencySet:
    """Finite set of pairwise distinct frequency vectors, shape (n, d)."""

    dimension: int
    points: np.ndarray

    def __init__(self, points):
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, np.newaxis]
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ValueError(f"frequencies must form a nonempty (n, d) array, got shape {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("frequencies must be finite")
        # Closest pair by blocks of rows, so memory stays linear in n; a
        # strict comparison keeps the first pair in row-major order on ties.
        n = pts.shape[0]
        rows = max(1, _GAP_BLOCK_ENTRIES // n)
        closest, i, j = np.inf, 0, 0
        for start in range(0, n, rows):
            gaps = np.max(np.abs(pts[start:start + rows, np.newaxis, :] - pts[np.newaxis, :, :]),
                          axis=-1)
            local = np.arange(gaps.shape[0])
            gaps[local, start + local] = np.inf
            k = int(np.argmin(gaps))
            if gaps.flat[k] < closest:
                closest, i, j = gaps.flat[k], start + k // n, k % n
        if closest <= DISTINCTNESS_TOL:
            raise ValueError(
                f"frequencies {i} and {j} coincide within {DISTINCTNESS_TOL}: "
                f"{pts[i].tolist()} vs {pts[j].tolist()}")
        pts = np.ascontiguousarray(pts)
        pts.setflags(write=False)
        object.__setattr__(self, "dimension", int(pts.shape[1]))
        object.__setattr__(self, "points", pts)

    @property
    def size(self) -> int:
        return self.points.shape[0]


def lattice_truncation(lo: int, hi: int, dimension: int = 1) -> FrequencySet:
    """Integer lattice points of [lo, hi]^dimension, lexicographic order."""
    if hi < lo:
        raise ValueError(f"empty integer range [{lo}, {hi}]")
    axis = np.arange(lo, hi + 1, dtype=float)
    mesh = np.meshgrid(*([axis] * dimension), indexing="ij")
    return FrequencySet(np.stack([m.reshape(-1) for m in mesh], axis=-1))


@dataclass(frozen=True, init=False)
class GramMatrix:
    """Hermitian Gram matrix with a provenance tag."""

    matrix: np.ndarray
    provenance: str

    def __init__(self, matrix, provenance="closed_form"):
        if provenance not in _HERMITICITY_TOL:
            raise ValueError(f"unknown provenance {provenance!r}")
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"Gram matrix must be square, got shape {m.shape}")
        defect, (i, j) = hermitian_defect(m)
        tol = hermiticity_ceiling(float(np.max(np.abs(m))), _HERMITICITY_TOL[provenance])
        if defect > tol:
            raise ValueError(
                f"Gram matrix is not Hermitian within {tol:g}: defect {defect:.3e} at ({i},{j})")
        diag = np.diagonal(m)
        if np.min(diag.real) <= 0.0:
            k = int(np.argmin(diag.real))
            raise ValueError(f"Gram diagonal entry {k} is not positive: {diag.real[k]}")
        m = np.ascontiguousarray(m)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "provenance", provenance)

    @property
    def order(self) -> int:
        return self.matrix.shape[0]


def _axis_factor(delta: np.ndarray, lo: float, hi: float) -> np.ndarray:
    # Integral of exp(-2 pi i delta x) over [lo, hi], stable through delta = 0.
    delta = np.asarray(delta, dtype=float)
    small = np.abs(delta) < DELTA_ZERO_TOL
    safe = np.where(small, 1.0, delta)
    coef = -2j * np.pi * safe
    out = (np.exp(coef * hi) - np.exp(coef * lo)) / coef
    return np.where(small, hi - lo, out)


def _closed_form(domain: Domain, shape, axis_factor) -> np.ndarray:
    # Integral of exp(-2 pi i <delta, x>) over the box union for an array
    # of differences delta of the given shape: per box, the product of
    # axis_factor(j, lo, hi), the axis-j factor on [lo, hi].
    total = np.zeros(shape, dtype=complex)
    for box in domain.boxes:
        factor = np.ones(shape, dtype=complex)
        for j in range(domain.dimension):
            factor = factor * axis_factor(j, box.lower[j], box.upper[j])
        total += factor
    return total


def _integer_span(col: np.ndarray) -> Optional[int]:
    """max - min of an axis of integers below _EXACT_INTEGER_BOUND, else None.

    On such an axis every difference of two coordinates is an exact float
    integer in -span..span, so a Gram factor can be tabled by difference.
    """
    if np.all(col == np.round(col)) and np.max(np.abs(col)) < _EXACT_INTEGER_BOUND:
        return int(np.max(col) - np.min(col))
    return None


def _gram_axis_factor(points: np.ndarray):
    """axis_factor for the Gram differences points[r] - points[c], shape (n, n).

    An integer axis (_integer_span) whose difference range -span..span has
    no more values than the Gram has entries gets a table over that range,
    gathered by index; the table holds the same floats the broadcast
    differences would, so the Gram is bitwise the same.
    """
    n = points.shape[0]
    axes = []
    for col in points.T:
        span = _integer_span(col)
        if span is not None and 2 * span + 1 <= n * n:
            ic = col.astype(np.int64)
            axes.append((np.arange(-span, span + 1, dtype=float),
                         ic[:, np.newaxis] - ic[np.newaxis, :] + span))
        else:
            axes.append((col[:, np.newaxis] - col[np.newaxis, :], None))

    def axis_factor(j, lo, hi):
        delta, index = axes[j]
        factor = _axis_factor(delta, lo, hi)
        return factor if index is None else factor[index]
    return axis_factor


def exp_inner_closed(domain: Domain, a, b) -> complex:
    """Closed-form inner product of two exponentials over a box union."""
    if not domain.boxes:
        raise ValueError("closed form needs a box representation; use the quadrature path")
    av = np.atleast_1d(np.asarray(a, dtype=float))
    bv = np.atleast_1d(np.asarray(b, dtype=float))
    if av.shape != (domain.dimension,) or bv.shape != (domain.dimension,):
        raise ValueError(
            f"frequencies must have dimension {domain.dimension}, got {av.shape} and {bv.shape}")
    delta = av - bv
    return complex(_closed_form(domain, (), lambda j, lo, hi: _axis_factor(delta[j], lo, hi)))


def _coarse_fine(size: int) -> tuple[int, int]:
    """(q, b) with q * b >= size and b about sqrt(size)."""
    b = int(np.sqrt(size - 1)) + 1
    return -(-size // b), b


def _phase_factors(x: np.ndarray, span: int) -> tuple[np.ndarray, np.ndarray]:
    """exp(-2 pi i delta x) for delta = -span..span, as coarse[q] * fine[m].

    With delta + span = q * b + m (_coarse_fine), the two factors take
    q + b exponentials per node instead of 2 span + 1; rows are indexed by
    q and by m, columns by node.
    """
    q, b = _coarse_fine(2 * span + 1)
    turn = -2.0 * np.pi * x
    coarse = np.exp(1j * np.multiply.outer(np.arange(q) * b - span, turn))
    fine = np.exp(1j * np.multiply.outer(np.arange(b), turn))
    return coarse, fine


def _toeplitz_quadrature_gram(nodes: np.ndarray, coeff: np.ndarray, points: np.ndarray,
                              spans: list[int]) -> np.ndarray:
    """The quadrature Gram of integer frequencies from its difference table.

    G[r, c] = f(points[r] - points[c]) with f(delta) = sum_k coeff[k]
    exp(-2 pi i <delta, nodes[k]>), evaluated on the whole box of
    differences prod_j [-span_j, span_j]. coeff, the phase table of every
    axis but the last and the last axis's coarse factor fold into one
    array; its product with the last axis's fine factor is the table,
    whose last axis is padded to q * b. Nodes go in blocks, so the folded
    array stays near _TABLE_BLOCK_ENTRIES entries. The Gram is gathered
    from the table with a mixed-radix index.
    """
    sizes = [2 * span + 1 for span in spans]
    q, b = _coarse_fine(sizes[-1])
    radices = sizes[:-1] + [q * b]
    rows = int(np.prod(sizes[:-1])) * q
    block = max(1, _TABLE_BLOCK_ENTRIES // rows)
    table = np.zeros((rows, b), dtype=complex)
    for start in range(0, nodes.shape[0], block):
        x = nodes[start:start + block]
        folded = coeff[np.newaxis, start:start + block].astype(complex)
        for j, size in enumerate(sizes[:-1]):
            coarse, fine = _phase_factors(x[:, j], spans[j])
            phases = (coarse[:, np.newaxis, :] * fine).reshape(-1, x.shape[0])[:size]
            folded = (folded[:, np.newaxis, :] * phases).reshape(-1, x.shape[0])
        coarse, fine = _phase_factors(x[:, -1], spans[-1])
        folded = (folded[:, np.newaxis, :] * coarse).reshape(-1, x.shape[0])
        table += folded @ fine.T
    # Table index of delta: sum_j strides[j] * (delta_j + span_j).
    strides = np.cumprod([1] + radices[:0:-1])[::-1]
    key = (points - np.min(points, axis=0)).astype(np.int64) @ strides
    index = np.subtract.outer(key, key)
    index += int(np.dot(strides, spans))
    return table.reshape(-1)[index]


def _quadrature_gram(rule: QuadratureRule, freqs: FrequencySet,
                     weight_sq: Optional[np.ndarray]) -> np.ndarray:
    # Integer frequencies whose box of differences has at most n^2 points
    # take the Toeplitz route; every other set, the phase-matrix product.
    coeff = rule.weights if weight_sq is None else rule.weights * weight_sq
    points = freqs.points
    spans = [_integer_span(col) for col in points.T]
    if None not in spans:
        box = 1
        for span in spans:
            box *= 2 * span + 1
        if box <= freqs.size ** 2:
            return _toeplitz_quadrature_gram(rule.nodes, coeff, points, spans)
    phases = np.exp(-2j * np.pi * (rule.nodes @ points.T))
    return phases.T @ (coeff[:, np.newaxis] * np.conj(phases))


def exp_gram(domain: Domain, freqs: FrequencySet, weight=None,
             rule: Optional[QuadratureRule] = None,
             nodes_per_axis: int = 32) -> GramMatrix:
    """Gram matrix of the exponential system, optionally weighted.

    A weight contributes |weight|^2 inside the integral. This is the one
    place that picks how a Gram is integrated: a box domain with no
    explicit rule, unweighted or under a weight of constant modulus
    (indicator or constant profile), gets the closed form scaled by
    sup|weight|^2; every other case uses midpoint quadrature, on the
    weight's rule when there is a weight, else on rule or a fresh
    nodes_per_axis rule. A quadrature Gram of integer frequencies whose
    box of differences has at most n^2 points is gathered from a table of
    the node sum over that box (_toeplitz_quadrature_gram); other sets
    use the phase-matrix product.
    """
    if freqs.size > SYSTEM_SIZE_CAP:
        raise ValueError(f"{freqs.size} frequencies exceed the system cap {SYSTEM_SIZE_CAP}")
    if freqs.dimension != domain.dimension:
        raise ValueError(
            f"frequency dimension {freqs.dimension} does not match domain dimension {domain.dimension}")
    if weight is not None and weight.domain != domain:
        raise ValueError("weight was sampled on a different domain")
    if (rule is None and domain.boxes
            and (weight is None or weight.profile in ("indicator", "constant"))):
        matrix = _closed_form(domain, (freqs.size, freqs.size),
                              _gram_axis_factor(freqs.points))
        scale = 1.0 if weight is None else weight.sup_mod ** 2
        if scale != 1.0:
            matrix = matrix * scale
        return GramMatrix(matrix, provenance="closed_form")
    if weight is None:
        rule = rule if rule is not None else quadrature(domain, nodes_per_axis)
        return GramMatrix(_quadrature_gram(rule, freqs, None), provenance="quadrature")
    wsq = np.abs(weight.values) ** 2
    matrix = _quadrature_gram(weight.rule, freqs, wsq)
    cap = domain.measure * float(np.max(wsq))
    if float(np.max(np.diagonal(matrix).real)) > cap * (1.0 + 1e-9):
        raise RuntimeError("weighted Gram diagonal exceeds measure * sup|weight|^2")
    return GramMatrix(matrix, provenance="quadrature")


@dataclass(frozen=True)
class BoundsReport:
    """Two-sided bounds with the condition ratio and a verdict string.

    verdict is one of riesz_basis, frame_only_not_tested, degenerate.
    condition is None when the lower bound vanishes. margin is the eigen
    certificate margin (EigenBounds.margin) of the matrix the bounds
    come from.
    """

    lower: float
    upper: float
    condition: Optional[float]
    verdict: str
    margin: float


def _bounds_from_matrix(matrix: np.ndarray, frame_route: bool) -> BoundsReport:
    eb = eigen_bounds(matrix)
    upper = max(eb.lambda_max, 0.0)
    lower = eb.lambda_min
    if lower < -DEGENERACY_RTOL * max(upper, 1.0):
        raise ValueError(
            f"matrix is not positive semidefinite: lambda_min = {lower:.3e}")
    lower = max(lower, 0.0)
    degenerate = lower <= DEGENERACY_RTOL * upper
    if degenerate:
        verdict = "degenerate"
    else:
        verdict = "frame_only_not_tested" if frame_route else "riesz_basis"
    condition = (upper / lower) if lower > 0.0 else None
    return BoundsReport(lower, upper, condition, verdict, eb.margin)


def riesz_bounds(gram: GramMatrix) -> BoundsReport:
    """Riesz bounds of the finite section: extreme Gram eigenvalues."""
    return _bounds_from_matrix(gram.matrix, frame_route=False)


def frame_bounds_of_operator(matrix) -> BoundsReport:
    """Frame bounds from a frame operator; Riesz property is not examined."""
    return _bounds_from_matrix(np.asarray(matrix, dtype=complex), frame_route=True)


@dataclass(frozen=True)
class OnbVerdict:
    is_onb: bool
    deviation: float


def is_orthonormal_system(gram: GramMatrix, tol: float = 1e-10) -> OnbVerdict:
    """Max-abs deviation of the Gram from the identity, judged against tol."""
    dev = float(np.max(np.abs(gram.matrix - np.eye(gram.order))))
    return OnbVerdict(dev <= tol, dev)
