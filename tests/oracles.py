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
takes a sinc. The quadrature Gram is one product of the full
node-by-frequency phase matrix with its weighted conjugate, with no table
of frequency differences.
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


def product_system_gram(base_domain, modulations, translations, window) -> np.ndarray:
    """Gram of the product system, one entry per pair of members.

    Row r is modulation r // n_translations with translation
    r % n_translations. The modulation entry is box_integral on the base
    domain. The translation entry is sup|window|^2 times box_integral for
    an indicator or constant window on boxes,
    else an explicit sum over the window's nodes. No Kronecker product
    and no factor matrix is formed.
    """
    n_t = translations.size
    order = modulations.size * n_t
    closed = bool(window.domain.boxes) and window.profile in ("indicator", "constant")
    nodes = window.rule.nodes
    coeff = window.rule.weights * np.abs(window.values) ** 2

    def translation_entry(a, b):
        if closed:
            return window.sup_mod ** 2 * box_integral(window.domain.boxes, a - b)
        return complex(np.sum(coeff * np.exp(-2j * np.pi * (nodes @ (a - b)))))

    out = np.empty((order, order), dtype=complex)
    for r in range(order):
        for c in range(order):
            mod = box_integral(base_domain.boxes,
                               modulations.points[r // n_t] - modulations.points[c // n_t])
            out[r, c] = mod * translation_entry(translations.points[r % n_t],
                                                translations.points[c % n_t])
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
