"""Exponential systems on a domain: Gram matrices and Riesz-bound verdicts.

The exponential attached to a frequency a is x -> exp(-2 pi i <x, a>), and
all Gram entries are integrals of products of such exponentials over the
domain, optionally against a spectral weight. exp_gram alone decides how a
Gram is integrated: box domains, unweighted or under a weight of constant
modulus or an affine weight, get products of closed-form axis moments
(one routine, _closed_form, for a single pair, a whole matrix or a
table); everything else goes through midpoint quadrature. Either way an
entry depends only on the difference of two frequencies, so integer
frequencies whose box of differences has at most n^2 points
(_difference_box) are integrated once per difference vector and gathered
(_gather): the Gram is Toeplitz. When the frequencies are a whole box in
lexicographic order (every integer range), the table itself is kept, as
a _ToeplitzSection, and every reader here takes what it needs from it;
the n x n Gram is formed only for a caller that asks for it (centred,
matrix). Other sets take every pairwise
difference, or the node-by-frequency phase-matrix product, built in real
arithmetic from cos and sin tables (_pairwise_quadrature).

Every Gram is integrated about its centre c, the centre of the bounding
box of the domain's cells: moving the domain by -c multiplies each
exponential by exp(-2 pi i <a, c>), so G = D G_0 D* with G_0 the centred
Gram and D that unimodular diagonal. G_0 has G's spectrum and the same
|G_ij - delta_ij|, so every reader here works on G_0. Its dtype follows
its integral: float64 on a single box, unweighted or under a weight of
constant modulus (_closed_form), else complex, real within rounding when
the domain and |weight|^2 are symmetric about c; eigen_bounds solves
either in real arithmetic, and certifies the Gram of an orthonormal
system, the identity to rounding, by Gershgorin discs from the scan the
Gram carries, with no solve at all. Entries that depend only
on differences make the Gram of a whole integer box centrohermitian:
eigen_bounds solves it in real even/odd halves built from its table.
Distinct frequencies are proved by sorting, axis by axis
(_distinct_by_sorting), before any pairwise scan runs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .domain import Domain, QuadratureRule
from .numerics import (ORDER_CAP, HermitianScan, _as_square, _ToeplitzSection, eigen_bounds,
                       hermitian_scan, hermiticity_gate)

# Frequencies closer than this in sup norm count as duplicates.
DISTINCTNESS_TOL = 1e-12

# Entries per block of nodes in a Toeplitz quadrature Gram's folded table,
# and in the cos and sin tables of the pairwise quadrature route; pairwise
# gaps per block of rows of the distinctness check, where a set within
# ORDER_CAP is one block.
_TABLE_BLOCK_ENTRIES = ORDER_CAP ** 2

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

    Axis by axis, the rows are sorted within their clusters, and a cluster
    splits wherever adjacent values lie more than DISTINCTNESS_TOL apart:
    two rows within the tolerance of each other share every cluster. The
    set is distinct when every row ends alone. A failed proof is left to
    _closest_pair.
    """
    cluster = np.zeros(pts.shape[0], dtype=np.int64)
    for col in pts.T:
        order = np.lexsort((col, cluster))
        split = (np.diff(col[order]) > DISTINCTNESS_TOL) | (np.diff(cluster[order]) != 0)
        # The first row in order is in cluster 0 and stays there; the
        # last is in the greatest cluster.
        cluster[order[1:]] = np.cumsum(split)
    return bool(cluster[order[-1]] == pts.shape[0] - 1)


def _closest_pair(pts: np.ndarray) -> tuple[float, int, int]:
    """Smallest sup-norm gap between two rows and the first pair, in
    row-major order, that attains it.

    Blocks of rows keep memory linear in n; the per-axis gaps of a block
    are folded with np.maximum. A strict comparison keeps the first pair
    on ties.
    """
    n = pts.shape[0]
    rows = max(1, _TABLE_BLOCK_ENTRIES // n)
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

    operand is G_0, the Gram integrated about the domain's centre: a dense
    array, or for frequencies that are a whole integer box in
    lexicographic order a _ToeplitzSection, its difference table, which
    the library reads as it stands. phase is the unimodular diagonal of D
    (none: D = I). G_0 has G's spectrum and the same |G_ij - delta_ij|, so
    the library reads only G_0; centred forms it as an array, and matrix
    forms G, on demand for callers that want them. scan is G_0's one
    HermitianScan, taken for the Hermiticity gate here (hermiticity_gate,
    eigen_bounds' own, whatever the provenance), and handed to
    eigen_bounds' gate and disc route and to is_orthonormal_system; G_0
    is read-only, so it cannot go stale.
    """

    operand: Union[np.ndarray, _ToeplitzSection]
    provenance: str
    phase: Optional[np.ndarray]
    scan: HermitianScan

    def __init__(self, centred, provenance="closed_form", phase=None):
        if provenance not in ("closed_form", "quadrature"):
            raise ValueError(f"unknown provenance {provenance!r}")
        section = isinstance(centred, _ToeplitzSection)
        m = centred if section else _as_square(centred)
        scan = hermitian_scan(m)
        hermiticity_gate(scan)
        diag = m.diagonal()
        if np.min(diag.real) <= 0.0:
            k = int(np.argmin(diag.real))
            raise ValueError(f"Gram diagonal entry {k} is not positive: {diag.real[k]}")
        if phase is not None:
            phase = np.array(phase, dtype=complex)
            if phase.shape != (m.shape[0],):
                raise ValueError(f"phase must have shape ({m.shape[0]},), got {phase.shape}")
            phase.setflags(write=False)
        if not section:
            m = np.ascontiguousarray(m)
            m.setflags(write=False)
        object.__setattr__(self, "operand", m)
        object.__setattr__(self, "provenance", provenance)
        object.__setattr__(self, "phase", phase)
        object.__setattr__(self, "scan", scan)

    @functools.cached_property
    def centred(self) -> np.ndarray:
        """G_0 as an array, formed on the first call for a section."""
        if isinstance(self.operand, np.ndarray):
            return self.operand
        m = self.operand.dense()
        m.setflags(write=False)
        return m

    @property
    def matrix(self) -> np.ndarray:
        """G = D G_0 D*, formed on every call."""
        if self.phase is None:
            return self.centred
        return self.phase[:, np.newaxis] * self.centred * self.phase.conj()

    @property
    def order(self) -> int:
        return self.operand.shape[0]


def _axis_moments(delta, width: float, degree: int) -> list[np.ndarray]:
    """Moments of an interval of that width about its own midpoint: the
    integrals of u^k exp(-2 pi i delta u) over [-width/2, width/2] for
    k <= degree (0 or 2), each a real array.

    With t = pi delta and theta = t width, M_0 = sin(theta) / t, exactly
    width where delta is 0. M_1 is imaginary and listed as i M_1 =
    (M_0 - width cos(theta)) / (2 t), the integral of u sin(2 pi delta u),
    and M_2 = width^2 M_0 / 4 - i M_1 / t. Both cancel to a relative error
    of about 6 eps / theta^2, so where |theta| < 1 they are summed from ten
    terms of their Taylor series in theta instead, the first term left out
    far below eps there; at delta = 0 that gives i M_1 = 0 and M_2 =
    width^3 / 12.
    """
    turn = np.multiply(np.pi, delta)
    theta = np.multiply(turn, width)
    m0 = np.sin(theta) if degree else np.sin(theta, out=theta)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(m0, turn, out=m0)
        m0[delta == 0.0] = width
        if degree == 0:
            return [m0]
        m1 = (m0 - width * np.cos(theta)) / (2.0 * turn)
        m2 = (0.25 * width ** 2) * m0 - m1 / turn
    small = np.abs(theta) < 1.0
    if small.any():
        theta = theta[small]
        step = -theta ** 2
        odd = even = 0.0
        for n in range(10, 0, -1):
            scale = math.factorial(2 * n + 1)
            odd = odd * step + 2 * n / scale
            even = even * step + 2 * n * (2 * n - 1) / scale
        m1[small] = (0.5 * width ** 2) * theta * odd
        m2[small] = (0.25 * width ** 3) * even
    return [m0, m1, m2]


def _closed_form(domain: Domain, deltas, centre, affine=None) -> np.ndarray:
    # Integral of |w|^2 exp(-2 pi i <delta, x>) over the box union moved by
    # -centre, for per-axis arrays of differences deltas[j] of one shape:
    # w = 1, or w(x) = offset + <gradient, x> in the domain's coordinates
    # for affine = (offset, gradient). Per box, about its midpoint m, from
    # the axis moments (_axis_moments); then the phase exp(-2 pi i delta_j
    # o_j) of every axis whose offset o_j = m_j - centre_j is not 0 (a
    # single box has none), the new factor the left operand (a complex
    # product rounds by operand order, and tables and pairwise arrays must
    # agree).
    total = 0.0
    for lower, widths, _ in zip(*domain.cells()):
        middle = box_centre(np.stack([lower, lower + widths]))
        if affine is None:
            factor = 1.0
            for j, delta in enumerate(deltas):
                factor = _axis_moments(delta, widths[j], 0)[0] * factor
        else:
            # With u = x - m and level = w(m), |w|^2 = level^2 + 2 level
            # <g, u> + <g, u>^2. The integrals p_k of <g, u>^k over the axes
            # so far follow the binomial rule, axis by axis; the imaginary
            # p_1 is held as i p_1, so all three are real.
            gradient = affine[1]
            level = affine[0] + float(middle @ gradient)
            for j, delta in enumerate(deltas):
                m0, m1, m2 = _axis_moments(delta, widths[j], 2)
                g = gradient[j]
                if j == 0:
                    p0, p1, p2 = m0, g * m1, g * g * m2
                else:
                    p0, p1, p2 = (p0 * m0, p1 * m0 + g * p0 * m1,
                                  p2 * m0 - 2.0 * g * p1 * m1 + g * g * p0 * m2)
            factor = np.empty(p0.shape, dtype=complex)
            factor.real = level ** 2 * p0 + p2
            factor.imag = -2.0 * level * p1
        for j, offset in enumerate(middle - centre):
            if offset != 0.0:
                factor = np.exp(-2j * np.pi * offset * deltas[j]) * factor
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


def _gather(table: np.ndarray, points: np.ndarray,
            spans: list[int]) -> Union[np.ndarray, _ToeplitzSection]:
    """G[r, c] = table[points[r] - points[c] + spans] from a C-order table
    of shape 2 spans + 1: the table itself as a _ToeplitzSection when the
    points are the whole box of their spans in lexicographic order (their
    keys into the table are exactly the section's), else G gathered."""
    key = np.ravel_multi_index((points - np.min(points, axis=0)).astype(np.int64).T, table.shape)
    if key.size == math.prod(span + 1 for span in spans):
        section = _ToeplitzSection(table)
        if np.array_equal(key, section.keys):
            return section
    zero = np.ravel_multi_index(spans, table.shape)
    return table.reshape(-1)[np.subtract.outer(key, key) + zero]


def exp_inner_closed(domain: Domain, a, b) -> complex:
    """Closed-form inner product of two exponentials over a box union."""
    _rule_free(domain)
    av, bv = (_on_domain(domain, FrequencySet(np.atleast_1d(v)[np.newaxis])).points[0]
              for v in (a, b))
    return complex(_closed_form(domain, (av - bv)[:, np.newaxis], 0.0)[0])


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
    exponential or product, and G is Hermitian to the last bit. Nodes go
    in blocks of about _TABLE_BLOCK_ENTRIES table entries, whose products
    are summed; one block when there are fewer entries.
    """
    n = points.shape[0]
    rows = max(1, _TABLE_BLOCK_ENTRIES // n)
    real = cross = None
    for start in range(0, nodes.shape[0], rows):
        angles = (2.0 * np.pi) * (nodes[start:start + rows] @ points.T)
        table = np.empty((2,) + angles.shape)
        np.cos(angles, out=table[0])
        np.sin(angles, out=table[1])
        table *= np.sqrt(coeff[start:start + rows])[:, np.newaxis]
        block = table[0].T @ table[1]
        table = table.reshape(-1, n)
        if real is None:
            real, cross = table.T @ table, block
        else:
            real += table.T @ table
            cross += block
    gram = np.empty((n, n), dtype=complex)
    gram.real = real
    gram.imag = cross - cross.T
    return gram


def _system_size(count: int) -> int:
    """count, if a Gram of that many frequencies may be assembled and solved."""
    if count > ORDER_CAP:
        raise ValueError(f"{count} frequencies exceed the dense-solver cap {ORDER_CAP}")
    return count


def _on_domain(domain: Domain, freqs: Optional[FrequencySet],
               weight=None) -> Optional[FrequencySet]:
    """freqs, if any have the domain's dimension and any weight was sampled on it."""
    if freqs is not None and freqs.dimension != domain.dimension:
        raise ValueError(f"{freqs.dimension}-dimensional frequencies on a "
                         f"{domain.dimension}-dimensional domain")
    if weight is not None and weight.domain != domain:
        raise ValueError("weight was sampled on a different domain")
    return freqs


def _closed_form_applies(domain: Domain, weight=None) -> bool:
    """Whether exp_gram, given no rule, integrates in closed form: on a box
    domain, unweighted or under an indicator, constant or affine weight."""
    return bool(domain.boxes) and (weight is None
                                   or weight.profile in ("indicator", "constant", "affine"))


def _rule_free(domain: Domain) -> Domain:
    """domain, if exp_gram integrates an unweighted Gram on it with no rule."""
    if not _closed_form_applies(domain):
        raise ValueError("an unweighted Gram on a mask domain needs a quadrature rule")
    return domain


def box_centre(points: np.ndarray) -> np.ndarray:
    """Centre of the bounding box of the rows of points.

    Moving a system by this centre multiplies each exponential by a
    unimodular factor and leaves the spectrum of its Gram or frame
    operator alone; about it, a system symmetric in its bounding box has
    a real Gram or operator.
    """
    return 0.5 * (np.min(points, axis=0) + np.max(points, axis=0))


def exp_gram(domain: Domain, freqs: FrequencySet, weight=None,
             rule: Optional[QuadratureRule] = None) -> GramMatrix:
    """Gram matrix of the exponential system, optionally weighted.

    A weight contributes |weight|^2 inside the integral and brings its own
    rule, so rule is for unweighted Grams, and a mask domain needs one.
    This is the one place that picks how a Gram is integrated: with no
    rule, in closed form where _closed_form_applies (_closed_form), scaled
    by sup|weight|^2 under a weight of constant modulus; an affine
    weight's |weight|^2, of degree 2, is integrated from the axis moments,
    its rule serving only its sampled extremes, and the Gram's diagonal
    must stay within measure * exact sup|weight|^2. Every other Gram takes
    midpoint quadrature, on the weight's rule or on rule.
    Either way a set with a small box of integer
    differences (_difference_box) is integrated once per difference and
    gathered (_gather), or held as that table when it is a whole box in
    lexicographic order; any other set takes every pairwise difference or
    the phase-matrix product, in real arithmetic (_pairwise_quadrature).

    Every route integrates about the centre c of the bounding box of
    domain.cells(): box bounds and quadrature nodes are moved by -c (the
    weight keeps its samples), which gives the centred Gram G_0. The
    result holds G_0 and the phase exp(-2 pi i <a, c>) of each frequency
    a, under which G_0 rotates to the Gram of the domain where it sits. A
    domain and |weight|^2 symmetric about c give a real G_0.
    """
    _system_size(freqs.size)
    _on_domain(domain, freqs, weight)
    if weight is not None and rule is not None:
        raise ValueError("a weighted Gram integrates on its weight's rule; pass no rule with it")
    if weight is None and rule is None:
        _rule_free(domain)
    points = freqs.points
    lowers, widths, _ = domain.cells()
    centre = box_centre(np.concatenate([lowers, lowers + widths]))
    spans = _difference_box(points)
    affine = None
    if rule is None and _closed_form_applies(domain, weight):
        provenance = "closed_form"
        if spans is None:
            deltas = [col[:, np.newaxis] - col[np.newaxis, :] for col in points.T]
        else:
            deltas = np.meshgrid(*(np.arange(-span, span + 1, dtype=float) for span in spans),
                                 indexing="ij")
        affine = None if weight is None else weight.affine
        table = _closed_form(domain, deltas, centre, affine)
        if weight is not None and affine is None and weight.sup_mod != 1.0:
            table = table * weight.sup_mod ** 2
    else:
        provenance = "quadrature"
        if weight is not None:
            rule = weight.rule
        coeff = rule.weights if weight is None else rule.weights * np.abs(weight.values) ** 2
        nodes = rule.nodes - centre
        if spans is None:
            table = _pairwise_quadrature(nodes, coeff, points)
        else:
            table = _quadrature_table(nodes, coeff, spans)
    centred = table if spans is None else _gather(table, points, spans)
    # The affine moments against the weight's exact supremum, from its
    # corners: a route that shares nothing with _axis_moments.
    if affine is not None and (float(np.max(centred.diagonal().real))
                               > domain.measure * weight.exact_sup ** 2 * (1.0 + 1e-9)):
        raise RuntimeError("affine-weighted Gram diagonal exceeds measure * sup|weight|^2")
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


def _bounds_from_matrix(matrix, frame_route: bool,
                        scan: Optional[HermitianScan] = None) -> BoundsReport:
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
    centred Gram, as the Gram holds it, with the scan the Gram carries."""
    return _bounds_from_matrix(gram.operand, frame_route=False, scan=gram.scan)


def frame_bounds_of_operator(matrix) -> BoundsReport:
    """Frame bounds from a frame operator; Riesz property is not examined."""
    return _bounds_from_matrix(matrix, frame_route=True)


@dataclass(frozen=True)
class OnbVerdict:
    is_onb: bool
    deviation: float


def is_orthonormal_system(gram: GramMatrix, tol: float = 1e-10) -> OnbVerdict:
    """Max-abs deviation of the Gram from the identity, judged against tol:
    the larger of the scan's largest off-diagonal modulus and the
    diagonal's distance from 1, which is max |G_0 - I| to the last bit."""
    dev = float(np.max(np.abs(gram.operand.diagonal() - 1.0), initial=gram.scan.off_diagonal))
    return OnbVerdict(dev <= tol, dev)
