"""Slow reference routes, deliberately independent of the library solvers.

The eigenvalue oracles are plain power iteration with a fixed seeded start
vector, so disagreements with the dense solver point at the library, not at
randomness in the test, and a full eigendecomposition whose eigenpairs
must pass a residual test. The product-system Gram is assembled one member
pair at a time from its own per-axis integral (box_integral) or a plain
node sum, so it shares no code with the closed form in spectra, nor the
Gram assembly, the centring or the Kronecker layout of gabor_gram. The
closed-form axis integral of a whole array (interval_integral) is a
difference of exponentials with its own zero case, where the library
takes sin(pi delta w) / (pi delta). The quadrature Gram is one product of
the full node-by-frequency phase matrix with its weighted conjugate, with
no table of frequency differences. The Gram under an affine weight (affine_gram)
is composite Gauss-Legendre quadrature of the weight's monomials in the
domain's own coordinates, where the library sums closed-form moments
about each box's midpoint.
"""

from itertools import combinations

import numpy as np

POWER_MAX_ITERS = 50000
POWER_INCREMENT_TOL = 1e-14


def dominant_eigenvalue(matrix, seed: int = 123) -> float:
    """Largest eigenvalue of a Hermitian PSD matrix by power iteration."""
    m = np.asarray(matrix, dtype=complex)
    n = m.shape[0]
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    last = np.inf
    lam = 0.0
    for _ in range(POWER_MAX_ITERS):
        w = m @ v
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v = w / norm
        lam = float(np.real(np.vdot(v, m @ v)))
        if abs(lam - last) <= POWER_INCREMENT_TOL * max(1.0, abs(lam)):
            break
        last = lam
    return lam


def extreme_eigenvalues(matrix, seed: int = 123) -> tuple[float, float]:
    """(smallest, largest) eigenvalues via power iteration plus a spectral flip.

    The smallest eigenvalue comes from running the same iteration on
    (shift I - M) with shift just above the largest eigenvalue.
    """
    m = np.asarray(matrix, dtype=complex)
    lam_max = dominant_eigenvalue(m, seed=seed)
    shift = lam_max + 1.0
    flipped = shift * np.eye(m.shape[0]) - m
    lam_min = shift - dominant_eigenvalue(flipped, seed=seed + 1)
    return lam_min, lam_max


# Ceiling on max_i ||H v_i - w_i v_i|| scaled by (max |H| entry) * order.
EIGH_RESIDUAL_CAP = 1e-8


def eigh_extreme_eigenvalues(matrix) -> tuple[float, float]:
    """(smallest, largest) eigenvalues from a full eigendecomposition.

    The decomposed matrix is the Hermitian part H = (M + M*) / 2, and every
    computed eigenpair must leave a residual against H below
    EIGH_RESIDUAL_CAP, so the pairs are accurate; the eigenvalue-only
    library route shares neither the eigenvectors nor this test.
    """
    m = np.asarray(matrix, dtype=complex)
    h = 0.5 * (m + m.conj().T)
    w, v = np.linalg.eigh(h)
    # A zero H leaves a zero residual, measured unscaled.
    scale = float(np.max(np.abs(h))) * m.shape[0] or 1.0
    residual = float(np.max(np.linalg.norm(h @ v - v * w, axis=0))) / scale
    if residual > EIGH_RESIDUAL_CAP:
        raise AssertionError(f"eigh residual {residual:.3e} exceeds {EIGH_RESIDUAL_CAP}")
    return float(w[0]), float(w[-1])


def interval_integral(delta, lo: float, hi: float) -> np.ndarray:
    """Integral of exp(-2 pi i delta x) over [lo, hi] for an array of delta,
    as a difference of exponentials: (exp(-2 pi i delta hi) -
    exp(-2 pi i delta lo)) / (-2 pi i delta), and hi - lo where delta is
    exactly 0."""
    delta = np.asarray(delta, dtype=float)
    zero = delta == 0.0
    coef = -2j * np.pi * np.where(zero, 1.0, delta)
    return np.where(zero, hi - lo, (np.exp(coef * hi) - np.exp(coef * lo)) / coef)


def box_integral(boxes, delta) -> complex:
    """Integral of exp(-2 pi i <delta, x>) over a union of boxes, each a
    product over axes of (hi - lo) exp(-pi i d (lo + hi)) sinc(d (hi - lo))."""
    total = 0j
    for box in boxes:
        term = 1.0 + 0j
        for lo, hi, d in zip(box.lower, box.upper, delta):
            term *= (hi - lo) * np.exp(-1j * np.pi * d * (lo + hi)) * np.sinc(d * (hi - lo))
        total += term
    return total


# Gauss-Legendre nodes per panel of affine_gram; a panel spans at most
# one period of every exponential it integrates.
LEGENDRE_NODES = 16


def legendre_axis(lo: float, hi: float, top: float) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes and weights on [lo, hi], in panels
    no longer than 1 / top."""
    panels = int(np.ceil((hi - lo) * top)) + 1
    x, w = np.polynomial.legendre.leggauss(LEGENDRE_NODES)
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * np.diff(edges)[:, np.newaxis]
    mid = 0.5 * (edges[:-1] + edges[1:])[:, np.newaxis]
    return (mid + half * x).reshape(-1), (half * w).reshape(-1)


def affine_gram(boxes, offset: float, gradient, points) -> np.ndarray:
    """G[r, c] = integral of (offset + <gradient, x>)^2 exp(-2 pi i <a_r -
    a_c, x>) over a union of boxes, for the rows a of points.

    The square is expanded into monomials prod_j x_j^k_j (sum of k_j at
    most 2). Over a box, each is a product over axes of one-axis Gauss-
    Legendre sums P^T diag(w x^k) conj(P), P the node-by-frequency phase
    matrix of the axis, whose panels span at most one period of the
    largest difference on it.
    """
    points = np.asarray(points, dtype=float).reshape(len(points), -1)
    dim = points.shape[1]
    gradient = np.atleast_1d(np.asarray(gradient, dtype=float))
    terms = {(0,) * dim: offset ** 2}
    for j in range(dim):
        terms[tuple(int(i == j) for i in range(dim))] = 2.0 * offset * gradient[j]
        for k in range(j, dim):
            powers = tuple(int(i == j) + int(i == k) for i in range(dim))
            terms[powers] = (1.0 if j == k else 2.0) * gradient[j] * gradient[k]
    out = np.zeros((points.shape[0],) * 2, dtype=complex)
    for box in boxes:
        moments = []
        for j in range(dim):
            col = points[:, j]
            x, w = legendre_axis(box.lower[j], box.upper[j], max(float(np.ptp(col)), 1.0))
            phases = np.exp(-2j * np.pi * np.outer(x, col))
            moments.append([phases.T @ ((w * x ** k)[:, np.newaxis] * phases.conj())
                            for k in range(3)])
        for powers, coeff in terms.items():
            term = coeff
            for j, k in enumerate(powers):
                term = term * moments[j][k]
            out += term
    return out


def product_system_gram(base_domain, modulations, translations, window) -> np.ndarray:
    """Gram of the product system, one entry per pair of members.

    Row r is modulation r // n_translations with translation
    r % n_translations. The modulation entry is box_integral on the base
    domain. The translation entry is sup|window|^2 times box_integral for
    an indicator or constant window on boxes, affine_gram's for an affine
    window on boxes, else an explicit sum over the window's nodes. No
    Kronecker product and no factor matrix is formed.
    """
    n_t = translations.size
    order = modulations.size * n_t
    boxes = window.domain.boxes
    closed = bool(boxes) and window.profile in ("indicator", "constant")
    affine = (affine_gram(boxes, window.affine[0], window.affine[1], translations.points)
              if boxes and window.profile == "affine" else None)
    nodes = window.rule.nodes
    coeff = window.rule.weights * np.abs(window.values) ** 2

    def translation_entry(r, c):
        a, b = translations.points[r], translations.points[c]
        if closed:
            return window.sup_mod ** 2 * box_integral(boxes, a - b)
        if affine is not None:
            return affine[r, c]
        return complex(np.sum(coeff * np.exp(-2j * np.pi * (nodes @ (a - b)))))

    out = np.empty((order, order), dtype=complex)
    for r in range(order):
        for c in range(order):
            mod = box_integral(base_domain.boxes,
                               modulations.points[r // n_t] - modulations.points[c // n_t])
            out[r, c] = mod * translation_entry(r % n_t, c % n_t)
    return out


def dense_quadrature_gram(rule, freqs, weight_sq=None) -> np.ndarray:
    """Quadrature Gram sum_k c_k exp(-2 pi i <a_r - a_c, x_k>) with
    c_k = rule weight times weight_sq, from an N x n phase matrix and one
    n x N x n product."""
    phases = np.exp(-2j * np.pi * (rule.nodes @ freqs.points.T))
    coeff = rule.weights if weight_sq is None else rule.weights * weight_sq
    return phases.T @ (coeff[:, np.newaxis] * np.conj(phases))


def brute_force_complements(group, pattern) -> set[tuple[int, ...]]:
    """Every canonical complement by direct enumeration of all subsets.

    Only viable for tiny groups; used to pin down the search results.
    """
    order = group.order
    if order % len(pattern) != 0:
        return set()
    size = order // len(pattern)
    pat = [group.coords(p) for p in pattern]
    found = set()
    for combo in combinations(range(order), size):
        covered = set()
        ok = True
        for c in combo:
            base = group.coords(c)
            for p in pat:
                idx = group.index([(a + b) % m for a, b, m in zip(base, p, group.moduli)])
                if idx in covered:
                    ok = False
                    break
                covered.add(idx)
            if not ok:
                break
        if ok and len(covered) == order:
            found.add(canonical_translate(group, combo))
    return found


def brute_force_spectra(group, pattern, tol: float = 1e-9) -> set[tuple[int, ...]]:
    """Every canonical spectrum by testing all candidate subsets directly."""
    order = group.order
    size = len(pattern)
    pat = np.array([group.coords(p) for p in pattern], dtype=float)
    mods = np.asarray(group.moduli, dtype=float)
    found = set()
    for combo in combinations(range(order), size):
        ok = True
        for a, b in combinations(combo, 2):
            delta = np.array(group.coords(a)) - np.array(group.coords(b))
            phases = np.exp(2j * np.pi * (pat @ (delta / mods)))
            if abs(phases.sum()) > tol * size:
                ok = False
                break
        if ok:
            found.add(canonical_translate(group, combo))
    return found


def canonical_translate(group, indices) -> tuple[int, ...]:
    """Lexicographically least translate of the set, matching the library rule."""
    pts = [group.coords(i) for i in indices]
    best = None
    for base in pts:
        shifted = sorted(
            group.index([(a - b) % m for a, b, m in zip(p, base, group.moduli)])
            for p in pts)
        key = tuple(shifted)
        if best is None or key < best:
            best = key
    return best


def pcg32_distinct_draws(seed: int, bound: int, k: int) -> tuple[list[int], int, int]:
    """k distinct values in [0, bound) from a PCG32 stream, one state at a time.

    The stream is restated from its published definition (64-bit LCG,
    XSH-RR output, rejection below the largest multiple of bound under
    2^32, repeats skipped), in plain Python integers. Returns the values,
    the state after them and the stream's next 32-bit output.
    """
    mult, inc, mask = 6364136223846793005, 1442695040888963407, (1 << 64) - 1
    state = (inc + (seed & mask)) & mask
    state = (state * mult + inc) & mask

    def output(s: int) -> int:
        word = (((s >> 18) ^ s) >> 27) & 0xFFFFFFFF
        turn = s >> 59
        return ((word >> turn) | (word << (32 - turn))) & 0xFFFFFFFF

    ceiling = (2 ** 32 // bound) * bound
    values: list[int] = []
    while len(values) < k:
        word = output(state)
        state = (state * mult + inc) & mask
        if word < ceiling and word % bound not in values:
            values.append(word % bound)
    return values, state, output(state)
