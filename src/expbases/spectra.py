"""Exponential systems on a domain: Gram matrices and Riesz-bound verdicts.

The exponential attached to a frequency a is x -> exp(-2 pi i <x, a>), and
all Gram entries are integrals of products of such exponentials over the
domain, optionally against a spectral weight. exp_gram alone decides how a
Gram is integrated: box domains get a product of closed-form axis
factors (one routine, _closed_form, for a single pair, a whole matrix or
a table); everything else goes through midpoint quadrature. Either way an
entry depends only on the difference of two frequencies, so integer
frequencies whose box of differences has at most n^2 points
(_difference_box) are integrated once per difference vector and gathered
(_gather): the Gram is Toeplitz. Other sets take every pairwise
difference, or the node-by-frequency phase-matrix product, built in real
arithmetic from cos and sin tables (_pairwise_quadrature).

Every Gram is integrated about its centre c, the centre of the bounding
box of the domain's cells: moving the domain by -c multiplies each
exponential by exp(-2 pi i <a, c>), so G = D G_0 D* with G_0 the centred
Gram and D that unimodular diagonal. G_0 has G's spectrum and the same
|G_ij - delta_ij|, so every reader here works on G_0. Its dtype follows
its integral: float64 on a single box (_closed_form), else complex, real
within rounding when the domain and |weight|^2 are symmetric about c;
eigen_bounds solves either in real arithmetic, and certifies the Gram of
an orthonormal system, the identity to rounding, by Gershgorin discs from
the scan the Gram carries, with no solve at all. Entries that depend only
on differences make the Gram of a set symmetric through its centre,
listed in lexicographic order (every integer range), centrohermitian:
eigen_bounds finds that in G_0 itself and solves it in real even/odd
halves. Distinct frequencies are proved by a sort (one axis, or integer
coordinates) before any pairwise scan runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .domain import Domain, QuadratureRule, quadrature
from .numerics import (HERMITICITY_TOL, _as_square, eigen_bounds, hermitian_scan,
                       hermiticity_ceiling)

# Largest frequency-set size a Gram matrix will be assembled for.
SYSTEM_SIZE_CAP = 512

# Frequencies closer than this in sup norm count as duplicates.
DISTINCTNESS_TOL = 1e-12

# Pairwise gaps per block of the distinctness check; a set within
# SYSTEM_SIZE_CAP is one block.
_GAP_BLOCK_ENTRIES = SYSTEM_SIZE_CAP ** 2

# Entries per block of nodes in a Toeplitz quadrature Gram's folded table.
_TABLE_BLOCK_ENTRIES = SYSTEM_SIZE_CAP ** 2

# Integer coordinates below this magnitude have exact float differences.
_EXACT_INTEGER_BOUND = 2.0 ** 52

# A lower bound at or below this fraction of the upper bound is degenerate.
DEGENERACY_RTOL = 1e-9


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
    """Hermitian Gram matrix G = D G_0 D*, held as G_0, with a provenance tag.

    centred is G_0, the Gram integrated about the domain's centre, and
    phase the unimodular diagonal of D (none: D = I). G_0 has G's
    spectrum and the same |G_ij - delta_ij|, so the library reads only
    G_0; matrix forms G on demand for callers that want the Gram of the
    domain where it sits. scan is G_0's one hermitian_scan, taken for the
    Hermiticity gate here, which is eigen_bounds' own (HERMITICITY_TOL,
    whatever the provenance), and handed to eigen_bounds' gate and disc
    route; G_0 is read-only, so it cannot go stale.
    """

    centred: np.ndarray
    provenance: str
    phase: Optional[np.ndarray]
    scan: tuple[float, float, tuple[int, int], float]

    def __init__(self, centred, provenance="closed_form", phase=None):
        if provenance not in ("closed_form", "quadrature"):
            raise ValueError(f"unknown provenance {provenance!r}")
        m = _as_square(centred)
        scan = hermitian_scan(m)
        top, defect, (i, j), _ = scan
        tol = hermiticity_ceiling(top, HERMITICITY_TOL)
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
        object.__setattr__(self, "centred", m)
        object.__setattr__(self, "provenance", provenance)
        object.__setattr__(self, "phase", phase)
        object.__setattr__(self, "scan", scan)

    @property
    def matrix(self) -> np.ndarray:
        """G = D G_0 D*, formed on every call."""
        if self.phase is None:
            return self.centred
        return self.phase[:, np.newaxis] * self.centred * self.phase.conj()

    @property
    def order(self) -> int:
        return self.centred.shape[0]


def _axis_factor(delta, width: float, offset: float) -> np.ndarray:
    # Integral of exp(-2 pi i delta x) over an interval of that width whose
    # midpoint lies offset from the centre; real when offset is 0.
    factor = width * np.sinc(np.multiply(delta, width))
    return factor if offset == 0.0 else factor * np.exp(-2j * np.pi * offset * delta)


def _closed_form(domain: Domain, deltas, centre) -> np.ndarray:
    # Integral of exp(-2 pi i <delta, x>) over the box union moved by
    # -centre, for per-axis arrays of differences deltas[j] of one shape:
    # per box, the product of the axis factors, the new factor the left
    # operand (a complex product rounds by operand order, and tables and
    # pairwise arrays must agree). A box's offset is box_centre of its cell
    # less the centre, so a single box has offset 0 on every axis.
    total = 0.0
    for lower, widths, _ in domain.cells():
        offsets = box_centre(np.stack([lower, lower + widths])) - centre
        factor = 1.0
        for j, delta in enumerate(deltas):
            factor = _axis_factor(delta, widths[j], offsets[j]) * factor
        total = total + factor
    return total


def _integer_span(col: np.ndarray) -> Optional[int]:
    """max - min of an axis of integers below _EXACT_INTEGER_BOUND, else None.

    On such an axis every difference of two coordinates is an exact float
    integer in -span..span.
    """
    if np.all(col == np.round(col)) and np.max(np.abs(col)) < _EXACT_INTEGER_BOUND:
        return int(np.max(col) - np.min(col))
    return None


def _difference_box(points: np.ndarray) -> Optional[list[int]]:
    """The spans of the box of differences when the Gram is Toeplitz, else None.

    Every axis must be integer (_integer_span) and the box of differences
    prod_j [-span_j, span_j] may have at most n^2 points, counted in Python
    ints: spans near 2^52 overflow int64.
    """
    spans = [_integer_span(col) for col in points.T]
    if None in spans or math.prod(2 * span + 1 for span in spans) > points.shape[0] ** 2:
        return None
    return spans


def _gather(table: np.ndarray, points: np.ndarray, spans: list[int]) -> np.ndarray:
    """G[r, c] = table[points[r] - points[c] + spans] from a C-order table
    of shape 2 spans + 1."""
    key = np.ravel_multi_index((points - np.min(points, axis=0)).astype(np.int64).T, table.shape)
    zero = np.ravel_multi_index(spans, table.shape)
    return table.reshape(-1)[np.subtract.outer(key, key) + zero]


def exp_inner_closed(domain: Domain, a, b) -> complex:
    """Closed-form inner product of two exponentials over a box union."""
    if not domain.boxes:
        raise ValueError("closed form needs a box representation; use the quadrature path")
    av = np.atleast_1d(np.asarray(a, dtype=float))
    bv = np.atleast_1d(np.asarray(b, dtype=float))
    if av.shape != (domain.dimension,) or bv.shape != (domain.dimension,):
        raise ValueError(
            f"frequencies must have dimension {domain.dimension}, got {av.shape} and {bv.shape}")
    return complex(_closed_form(domain, av - bv, 0.0))


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


def _quadrature_table(nodes: np.ndarray, coeff: np.ndarray, spans: list[int]) -> np.ndarray:
    """f(delta) = sum_k coeff[k] exp(-2 pi i <delta, nodes[k]>) on the box
    of differences prod_j [-span_j, span_j], as a C-order table.

    coeff, the phase table of every axis but the last and the last axis's
    coarse factor fold into one array; its product with the last axis's
    fine factor is the table, whose last axis is padded to q * b and then
    trimmed. Nodes go in blocks, so the folded array stays near
    _TABLE_BLOCK_ENTRIES entries.
    """
    sizes = [2 * span + 1 for span in spans]
    q, b = _coarse_fine(sizes[-1])
    rows = math.prod(sizes[:-1]) * q
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
    return table.reshape(sizes[:-1] + [q * b])[..., :sizes[-1]]


def _pairwise_quadrature(nodes: np.ndarray, coeff: np.ndarray,
                         points: np.ndarray) -> np.ndarray:
    """G[r, c] = sum_k coeff[k] exp(-2 pi i <a_r - a_c, x_k>) for the rows
    a of points and x of nodes, in real arithmetic.

    With C and S the cos and sin of 2 pi <x_k, a_r>, each row k times
    sqrt(coeff[k]), Re G = C^T C + S^T S is one symmetric product of the
    stacked table [C; S], and Im G = X - X^T with X = C^T S: no complex
    exponential or product, and G is Hermitian to the last bit.
    """
    angles = (2.0 * np.pi) * (nodes @ points.T)
    table = np.empty((2,) + angles.shape)
    np.cos(angles, out=table[0])
    np.sin(angles, out=table[1])
    table *= np.sqrt(coeff)[:, np.newaxis]
    cross = table[0].T @ table[1]
    table = table.reshape(-1, angles.shape[1])
    gram = np.empty((points.shape[0],) * 2, dtype=complex)
    gram.real = table.T @ table
    gram.imag = cross - cross.T
    return gram


def box_centre(points: np.ndarray) -> np.ndarray:
    """Centre of the bounding box of the rows of points.

    Moving a system by this centre multiplies each exponential by a
    unimodular factor and leaves the spectrum of its Gram or frame
    operator alone; about it, a system symmetric in its bounding box has
    a real Gram or operator.
    """
    return 0.5 * (np.min(points, axis=0) + np.max(points, axis=0))


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
    nodes_per_axis rule. Either way a set with a small box of integer
    differences (_difference_box) is integrated once per difference and
    gathered (_gather); any other set takes every pairwise difference or
    the phase-matrix product, in real arithmetic (_pairwise_quadrature).

    Every route integrates about the centre c of the bounding box of
    domain.cells(): box bounds and quadrature nodes are moved by -c (the
    weight keeps its samples), which gives the centred Gram G_0. The
    result holds G_0 and the phase exp(-2 pi i <a, c>) of each frequency
    a, under which G_0 rotates to the Gram of the domain where it sits. A
    domain and |weight|^2 symmetric about c give a real G_0.
    """
    if freqs.size > SYSTEM_SIZE_CAP:
        raise ValueError(f"{freqs.size} frequencies exceed the system cap {SYSTEM_SIZE_CAP}")
    if freqs.dimension != domain.dimension:
        raise ValueError(
            f"frequency dimension {freqs.dimension} does not match domain dimension {domain.dimension}")
    if weight is not None and weight.domain != domain:
        raise ValueError("weight was sampled on a different domain")
    points = freqs.points
    centre = box_centre(np.concatenate(
        [(lower, lower + widths) for lower, widths, _ in domain.cells()]))
    spans = _difference_box(points)
    wsq = None
    if (rule is None and domain.boxes
            and (weight is None or weight.profile in ("indicator", "constant"))):
        provenance = "closed_form"
        if spans is None:
            deltas = [col[:, np.newaxis] - col[np.newaxis, :] for col in points.T]
        else:
            deltas = np.meshgrid(*(np.arange(-span, span + 1, dtype=float) for span in spans),
                                 indexing="ij")
        table = _closed_form(domain, deltas, centre)
        if weight is not None and weight.sup_mod != 1.0:
            table = table * weight.sup_mod ** 2
    else:
        provenance = "quadrature"
        if weight is not None:
            rule, wsq = weight.rule, np.abs(weight.values) ** 2
        elif rule is None:
            rule = quadrature(domain, nodes_per_axis)
        coeff = rule.weights if wsq is None else rule.weights * wsq
        nodes = rule.nodes - centre
        if spans is None:
            table = _pairwise_quadrature(nodes, coeff, points)
        else:
            table = _quadrature_table(nodes, coeff, spans)
    centred = table if spans is None else _gather(table, points, spans)
    if wsq is not None:
        cap = domain.measure * float(np.max(wsq))
        if float(np.max(np.diagonal(centred).real)) > cap * (1.0 + 1e-9):
            raise RuntimeError("weighted Gram diagonal exceeds measure * sup|weight|^2")
    # <a, c> turns, less the nearest whole turn: 2 pi times a large <a, c>
    # would round by |<a, c>| eps, and matrix would carry that into every
    # entry.
    turns = points @ centre
    return GramMatrix(centred, provenance=provenance,
                      phase=np.exp(-2j * np.pi * (turns - np.round(turns))))


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


def _bounds_from_matrix(matrix: np.ndarray, frame_route: bool,
                        scan: Optional[tuple] = None) -> BoundsReport:
    eb = eigen_bounds(matrix, scan=scan)
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
    """Riesz bounds of the finite section: extreme eigenvalues of the
    centred Gram, with the scan the Gram carries."""
    return _bounds_from_matrix(gram.centred, frame_route=False, scan=gram.scan)


def frame_bounds_of_operator(matrix) -> BoundsReport:
    """Frame bounds from a frame operator; Riesz property is not examined."""
    return _bounds_from_matrix(matrix, frame_route=True)


@dataclass(frozen=True)
class OnbVerdict:
    is_onb: bool
    deviation: float


def is_orthonormal_system(gram: GramMatrix, tol: float = 1e-10) -> OnbVerdict:
    """Max-abs deviation of the Gram from the identity, judged against tol."""
    dev = float(np.max(np.abs(gram.centred - np.eye(gram.order))))
    return OnbVerdict(dev <= tol, dev)
