"""Seeded random inputs shared by the randomized suites."""

from itertools import product

import numpy as np

from expbases import (
    Box,
    FrequencySet,
    Pcg32,
    affine_weight,
    constant_weight,
    indicator_weight,
    make_domain,
    quadrature,
    table_weight,
)


def random_interval_domain(rng: Pcg32, max_boxes: int = 2):
    """Disjoint union of one-dimensional intervals with gaps between them."""
    count = 1 + rng.randint(max_boxes)
    lo = rng.uniform(-1.5, -0.25)
    boxes = []
    for _ in range(count):
        width = rng.uniform(0.3, 0.9)
        boxes.append(Box(lo, lo + width))
        lo += width + rng.uniform(0.1, 0.4)
    return make_domain(boxes)


def random_square_domain(rng: Pcg32):
    lo = [rng.uniform(-1.0, 0.0), rng.uniform(-1.0, 0.0)]
    side = rng.uniform(0.5, 1.2)
    return make_domain([Box(lo, [lo[0] + side, lo[1] + side])])


def random_freqs(rng: Pcg32, dimension: int, count: int,
                 spread: float = 4.0, min_gap: float = 0.05) -> FrequencySet:
    """Distinct frequencies with a guaranteed sup-norm separation."""
    points: list[list[float]] = []
    while len(points) < count:
        cand = [rng.uniform(-spread, spread) for _ in range(dimension)]
        if all(max(abs(c - p) for c, p in zip(cand, q)) > min_gap for q in points):
            points.append(cand)
    return FrequencySet(points)


def jittered_integer_freqs(rng: Pcg32, dimension: int, count: int,
                           reach: int = 8) -> FrequencySet:
    """Distinct integer frequencies nudged by at most 0.2 per axis.

    The unit separation keeps the exponential Gram well conditioned, so
    eigenvalue comparisons stay far above solver noise.
    """
    span = 2 * reach + 1
    cells = rng.distinct_indices(span ** dimension, count)
    points = []
    for cell in cells:
        coords = []
        for _ in range(dimension):
            coords.append(cell % span - reach + rng.uniform(-0.2, 0.2))
            cell //= span
        points.append(coords)
    return FrequencySet(points)


def _affine_corner_min(domain, gradient) -> float:
    lo = 0.0
    first = True
    for box in domain.boxes:
        for corner in product(*zip(box.lower, box.upper)):
            val = float(np.dot(gradient, corner))
            lo = val if first else min(lo, val)
            first = False
    return lo


def random_nonvanishing_weight(rng: Pcg32, domain, rule):
    """Weight with a strictly positive modulus floor on every node."""
    kind = rng.randint(4)
    if kind == 0:
        return indicator_weight(domain, rule=rule)
    if kind == 1:
        value = complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
        return constant_weight(domain, value, rule=rule)
    if kind == 2:
        gradient = [rng.uniform(-1.0, 1.0) for _ in range(domain.dimension)]
        offset = 0.25 + rng.uniform(0.0, 1.0) - _affine_corner_min(domain, gradient)
        return affine_weight(domain, offset, gradient, rule=rule)
    mods = rng.uniforms(rule.n_nodes, 0.25, 1.75)
    phases = rng.uniforms(rule.n_nodes, 0.0, 2.0 * np.pi)
    return table_weight(domain, rule, mods * np.exp(1j * phases))


def random_product_system(seed: int):
    """(modulations, translations, window) of one seeded product system.

    Two to four jittered integer modulations and translations, and a
    nowhere-vanishing window on a random interval union, sampled on a
    24-node rule per piece.
    """
    rng = Pcg32(seed)
    n_mod = 2 + rng.randint(3)
    n_trans = 2 + rng.randint(3)
    modulations = jittered_integer_freqs(rng, 1, n_mod, reach=4)
    translations = jittered_integer_freqs(rng, 1, n_trans, reach=4)
    window_domain = random_interval_domain(rng)
    rule = quadrature(window_domain, 24)
    return modulations, translations, random_nonvanishing_weight(rng, window_domain, rule)


def random_psd_with_known_spectrum(seed: int, max_order: int = 32):
    """(matrix, lambda_min, lambda_max) with a planted, well-separated spectrum.

    Eigenvalues sit on a coarse grid in [0.5, 10] (pairwise gaps at least
    0.03), conjugated by the unitary factor of a random matrix, so both
    the dense solver and the power-iteration route have a known target.
    """
    rng = Pcg32(seed)
    n = 4 + rng.randint(max_order - 3)
    slots = rng.distinct_indices(191, n)
    values = np.array([0.5 + 0.05 * s + rng.uniform(-0.01, 0.01) for s in slots])
    raw = (rng.uniforms(n * n, -1.0, 1.0) + 1j * rng.uniforms(n * n, -1.0, 1.0))
    q, _ = np.linalg.qr(raw.reshape(n, n))
    matrix = (q * values) @ q.conj().T
    matrix = 0.5 * (matrix + matrix.conj().T)
    return matrix, float(values.min()), float(values.max())


def random_scenario(seed: int, two_dim_every: int = 4):
    """(domain, rule, freqs, weight) tuple for one seeded sandwich check."""
    rng = Pcg32(seed)
    if two_dim_every > 0 and seed % two_dim_every == 0:
        domain = random_square_domain(rng)
        count = 4 + rng.randint(6)
        freqs = jittered_integer_freqs(rng, 2, count, reach=3)
    else:
        domain = random_interval_domain(rng)
        count = 4 + rng.randint(9)
        freqs = jittered_integer_freqs(rng, 1, count)
    nodes = 24 + rng.randint(41)
    rule = quadrature(domain, nodes)
    weight = random_nonvanishing_weight(rng, domain, rule)
    return domain, rule, freqs, weight
