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

Every Gram also carries its centre phase (centre_phase): with c the
centre of the domain's bounding box, G = D G_0 D* for the unimodular
D = diag(exp(-2 pi i <a_j, c>)) and G_0 the Gram of the domain moved to
the origin. G_0 is real when the domain and |weight|^2 are symmetric
about c, and riesz_bounds hands the phase to eigen_bounds, which measures
the imaginary part of D* G D and solves in real arithmetic when it is
within the Hermiticity ceiling. Distinct frequencies are proved by a sort
(one axis, or integer coordinates) before any pairwise scan runs.
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
        if not _distinct_by_sorting(pts):
            closest, i, j = _closest_pair(pts)
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


def _distinct_by_sorting(pts: np.ndarray) -> bool:
    """True when a sort proves every sup-norm gap exceeds DISTINCTNESS_TOL.

    One axis: the adjacent gaps of the sorted values. Integer coordinates
    below _EXACT_INTEGER_BOUND: no two int64 rows are equal after a
    lexsort, so every gap is at least one. Any other set, or a failed
    proof, is left to _closest_pair.
    """
    if pts.shape[1] == 1:
        return pts.shape[0] < 2 or float(np.min(np.diff(np.sort(pts[:, 0])))) > DISTINCTNESS_TOL
    if all(_integer_span(col) is not None for col in pts.T):
        rows = pts.astype(np.int64)
        rows = rows[np.lexsort(rows.T)]
        return not bool(np.any(np.all(rows[1:] == rows[:-1], axis=1)))
    return False


def _closest_pair(pts: np.ndarray) -> tuple[float, int, int]:
    """Smallest sup-norm gap between two rows and the first pair, in
    row-major order, that attains it.

    Blocks of rows keep memory linear in n; the per-axis gaps of a block
    are folded with np.maximum. A strict comparison keeps the first pair
    on ties.
    """
    n = pts.shape[0]
    rows = max(1, _GAP_BLOCK_ENTRIES // n)
    closest, i, j = np.inf, 0, 0
    for start in range(0, n, rows):
        block = pts[start:start + rows]
        gaps = np.abs(block[:, 0, np.newaxis] - pts[:, 0])
        for axis in range(1, pts.shape[1]):
            np.maximum(gaps, np.abs(block[:, axis, np.newaxis] - pts[:, axis]), out=gaps)
        local = np.arange(gaps.shape[0])
        gaps[local, start + local] = np.inf
        k = int(np.argmin(gaps))
        if gaps.flat[k] < closest:
            closest, i, j = float(gaps.flat[k]), start + k // n, k % n
    return closest, i, j


def lattice_truncation(lo: int, hi: int, dimension: int = 1) -> FrequencySet:
    """Integer lattice points of [lo, hi]^dimension, lexicographic order."""
    if hi < lo:
        raise ValueError(f"empty integer range [{lo}, {hi}]")
    axis = np.arange(lo, hi + 1, dtype=float)
    mesh = np.meshgrid(*([axis] * dimension), indexing="ij")
    return FrequencySet(np.stack([m.reshape(-1) for m in mesh], axis=-1))


@dataclass(frozen=True, init=False)
class GramMatrix:
    """Hermitian Gram matrix with a provenance tag.

    phase, when set, is the unimodular diagonal under which the matrix is
    expected to be real (centre_phase); riesz_bounds passes it to
    eigen_bounds, which measures whether it is.
    """

    matrix: np.ndarray
    provenance: str
    phase: Optional[np.ndarray]

    def __init__(self, matrix, provenance="closed_form", phase=None):
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
        if phase is not None:
            phase = np.array(phase, dtype=complex)
            if phase.shape != (m.shape[0],):
                raise ValueError(f"phase must have shape ({m.shape[0]},), got {phase.shape}")
            phase.setflags(write=False)
        m = np.ascontiguousarray(m)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "provenance", provenance)
        object.__setattr__(self, "phase", phase)

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


def centre_phase(points: np.ndarray, corners: np.ndarray) -> np.ndarray:
    """exp(-2 pi i <p, c>) for each row p of points, with c the centre of
    the bounding box of the rows of corners.

    Translating by c multiplies each exponential by its entry, so a Gram
    of a system centred at c is D G_0 D* with G_0 the Gram of the system
    centred at 0: real when that system is symmetric about 0.
    """
    centre = 0.5 * (np.min(corners, axis=0) + np.max(corners, axis=0))
    return np.exp(-2j * np.pi * (points @ centre))


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

    Every route sets the Gram's phase to centre_phase of the frequencies
    about the centre c of the bounding box of domain.cells(): translating
    the domain by -c rotates the Gram by that diagonal, so a domain and
    weight symmetric about c give a Gram that is real after rotation, and
    eigen_bounds solves it in real arithmetic.
    """
    if freqs.size > SYSTEM_SIZE_CAP:
        raise ValueError(f"{freqs.size} frequencies exceed the system cap {SYSTEM_SIZE_CAP}")
    if freqs.dimension != domain.dimension:
        raise ValueError(
            f"frequency dimension {freqs.dimension} does not match domain dimension {domain.dimension}")
    if weight is not None and weight.domain != domain:
        raise ValueError("weight was sampled on a different domain")
    phase = centre_phase(freqs.points, np.concatenate(
        [(lower, lower + widths) for lower, widths, _ in domain.cells()]))
    if (rule is None and domain.boxes
            and (weight is None or weight.profile in ("indicator", "constant"))):
        matrix = _closed_form(domain, (freqs.size, freqs.size),
                              _gram_axis_factor(freqs.points))
        scale = 1.0 if weight is None else weight.sup_mod ** 2
        if scale != 1.0:
            matrix = matrix * scale
        return GramMatrix(matrix, provenance="closed_form", phase=phase)
    if weight is None:
        rule = rule if rule is not None else quadrature(domain, nodes_per_axis)
        return GramMatrix(_quadrature_gram(rule, freqs, None), provenance="quadrature",
                          phase=phase)
    wsq = np.abs(weight.values) ** 2
    matrix = _quadrature_gram(weight.rule, freqs, wsq)
    cap = domain.measure * float(np.max(wsq))
    if float(np.max(np.diagonal(matrix).real)) > cap * (1.0 + 1e-9):
        raise RuntimeError("weighted Gram diagonal exceeds measure * sup|weight|^2")
    return GramMatrix(matrix, provenance="quadrature", phase=phase)


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


def _bounds_from_matrix(matrix: np.ndarray, frame_route: bool, phase) -> BoundsReport:
    eb = eigen_bounds(matrix, phase)
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
    """Riesz bounds of the finite section: extreme Gram eigenvalues, solved
    under the Gram's phase (eigen_bounds)."""
    return _bounds_from_matrix(gram.matrix, frame_route=False, phase=gram.phase)


def frame_bounds_of_operator(matrix, phase=None) -> BoundsReport:
    """Frame bounds from a frame operator; Riesz property is not examined.
    phase goes to eigen_bounds as for a Gram."""
    return _bounds_from_matrix(np.asarray(matrix, dtype=complex), frame_route=True, phase=phase)


@dataclass(frozen=True)
class OnbVerdict:
    is_onb: bool
    deviation: float


def is_orthonormal_system(gram: GramMatrix, tol: float = 1e-10) -> OnbVerdict:
    """Max-abs deviation of the Gram from the identity, judged against tol."""
    dev = float(np.max(np.abs(gram.matrix - np.eye(gram.order))))
    return OnbVerdict(dev <= tol, dev)
