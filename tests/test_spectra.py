"""Exponential Gram matrices: closed form, quadrature, and the bounds verdicts."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from expbases import (
    Box,
    FrequencySet,
    Pcg32,
    affine_weight,
    bump_window,
    constant_weight,
    exp_gram,
    exp_inner_closed,
    is_orthonormal_system,
    lattice_truncation,
    make_domain,
    make_mask_domain,
    quadrature,
    riesz_bounds,
    translation_gram,
    verify_frame_transfer,
    verify_riesz_transfer,
)
from expbases import spectra
from expbases.spectra import _GAP_BLOCK_ENTRIES

UNIT = make_domain([Box(0.0, 1.0)])

# Frozen: |integral of exp(pi i x) over [0, 1]| = 2/pi, checked against a
# 2e6-node midpoint rule (difference 6.6e-14) before freezing.
TWO_OVER_PI = 0.6366197723675814


def test_frequency_set_shapes():
    fs = FrequencySet([[0.0, 1.0], [1.0, 0.0]])
    assert fs.size == 2
    assert fs.dimension == 2
    flat = FrequencySet([0.0, 1.0, 2.0])
    assert flat.size == 3
    assert flat.dimension == 1


def test_frequency_set_rejects_empty_and_nonfinite():
    with pytest.raises(ValueError):
        FrequencySet(np.zeros((0, 1)))
    with pytest.raises(ValueError, match="finite"):
        FrequencySet([0.0, float("nan")])


def test_lattice_truncation_range():
    fs = lattice_truncation(-2, 2)
    assert fs.points[:, 0].tolist() == [-2.0, -1.0, 0.0, 1.0, 2.0]
    grid = lattice_truncation(0, 1, dimension=2)
    assert grid.size == 4
    with pytest.raises(ValueError, match="empty"):
        lattice_truncation(3, 1)


def test_closed_inner_unit_interval_frozen():
    val = exp_inner_closed(UNIT, [0.0], [0.5])
    assert abs(val) == pytest.approx(TWO_OVER_PI, abs=1e-15)
    assert exp_inner_closed(UNIT, [3.0], [3.0]) == pytest.approx(1.0)


def test_closed_gram_eigenvalues_frozen():
    gram = exp_gram(UNIT, FrequencySet([0.0, 0.5]))
    rep = riesz_bounds(gram)
    assert rep.lower == pytest.approx(1.0 - TWO_OVER_PI, rel=1e-12)
    assert rep.upper == pytest.approx(1.0 + TWO_OVER_PI, rel=1e-12)
    assert rep.verdict == "riesz_basis"
    assert rep.condition == pytest.approx(rep.upper / rep.lower, rel=1e-12)


def test_integer_lattice_gram_is_identity():
    domain = make_domain([Box(-0.5, 0.5)])
    gram = exp_gram(domain, lattice_truncation(-5, 5))
    verdict = is_orthonormal_system(gram)
    assert verdict.is_onb
    assert verdict.deviation <= 1e-12
    assert gram.provenance == "closed_form"


def test_quadrature_gram_approaches_closed_form():
    freqs = FrequencySet([-1.5, 0.0, 0.5, 2.0])
    closed = exp_gram(UNIT, freqs)
    sampled = exp_gram(UNIT, freqs, rule=quadrature(UNIT, 2000))
    assert sampled.provenance == "quadrature"
    assert np.max(np.abs(closed.matrix - sampled.matrix)) < 1e-6


def test_mask_domain_uses_quadrature_route():
    domain = make_mask_domain([0.0], [4], [0.25], [True, True, False, True])
    gram = exp_gram(domain, FrequencySet([0.0, 1.0]), nodes_per_axis=200)
    assert gram.provenance == "quadrature"
    with pytest.raises(ValueError, match="quadrature path"):
        exp_inner_closed(make_mask_domain([0.0], [2], [0.5], [True, True]),
                         [0.0], [1.0])


def test_gram_entries_are_the_pairwise_closed_form_exactly():
    union = make_domain([Box([0.0, 0.0], [1.0, 0.5]), Box([1.25, -0.3], [2.0, 0.7])])
    a, b = [0.3, -1.7], [2.25, 0.4]
    gram = exp_gram(union, FrequencySet([a, b]))
    assert gram.provenance == "closed_form"
    assert gram.matrix[0, 1] == exp_inner_closed(union, a, b)
    assert gram.matrix[1, 0] == exp_inner_closed(union, b, a)


def broadcast_gram(domain, points):
    """The closed-form Gram from every pairwise difference, one axis factor
    per box and axis, multiplied and summed in the library's order."""
    delta = points[:, np.newaxis, :] - points[np.newaxis, :, :]
    total = np.zeros(delta.shape[:-1], dtype=complex)
    for box in domain.boxes:
        factor = np.ones(delta.shape[:-1], dtype=complex)
        for j in range(domain.dimension):
            factor = factor * spectra._axis_factor(delta[..., j], box.lower[j], box.upper[j])
        total += factor
    return total


TWO_BOX_SQUARE = make_domain([Box([0.0, 0.0], [1.0, 1.0]), Box([1.25, -0.5], [1.75, 0.25])])


@pytest.mark.parametrize("domain,points,tables", [
    pytest.param(make_domain([Box(0.125, 1.125)]), lattice_truncation(-300, 211).points,
                 [True], id="1d-lattice"),
    pytest.param(make_domain([Box(-0.25, 0.75), Box(1.0, 1.375)]),
                 lattice_truncation(1000, 1100).points, [True], id="1d-union-offset"),
    pytest.param(make_domain([Box(-3.5, -2.25)]), -np.arange(0.0, 300.0, 3.0)[:, None],
                 [True], id="1d-negative-stride-3"),
    pytest.param(TWO_BOX_SQUARE, lattice_truncation(-11, 10, 2).points, [True, True],
                 id="2d-union-lattice"),
    pytest.param(TWO_BOX_SQUARE, np.stack([np.repeat(np.arange(-10.0, 10.0), 20),
                                           np.tile(np.arange(20) * 0.37 + 0.1, 20)], -1),
                 [True, False], id="2d-integer-and-scattered"),
    pytest.param(make_domain([Box(0.0, 1.0)]), 2.0 ** 52 + np.arange(5.0)[:, None], [False],
                 id="integers-at-2^52"),
    pytest.param(make_domain([Box(0.0, 1.0)]), np.array([[-7.0], [5.0], [2.0 ** 52 - 1]]),
                 [False], id="span-beyond-the-gram"),
])
def test_integer_axes_gather_a_difference_table_bitwise(monkeypatch, domain, points, tables):
    shapes = []
    axis_factor = spectra._axis_factor

    def recording(delta, lo, hi):
        shapes.append(np.shape(delta))
        return axis_factor(delta, lo, hi)
    monkeypatch.setattr(spectra, "_axis_factor", recording)
    gram = exp_gram(domain, FrequencySet(points))
    # A table is a 1-D array of differences; the broadcast is (n, n).
    assert [len(shape) == 1 for shape in shapes[:domain.dimension]] == tables
    monkeypatch.undo()
    want = broadcast_gram(domain, np.asarray(points, dtype=float))
    assert gram.matrix.tobytes() == want.tobytes()


def seeded_rows(points, seed, k=None):
    """k rows of points (all by default) in a seeded random order."""
    order = np.random.default_rng(seed).permutation(len(points))
    return np.asarray(points, dtype=float)[order[:k]]


MASK_1D = make_mask_domain([-0.375], [5], [0.25], [True, True, False, True, True])
MASK_2D = make_mask_domain([-0.5, 0.25], [3, 2], [0.5, 0.5],
                           [True, False, True, True, True, False])

# (domain, nodes per axis, integer frequencies whose box of differences
# has at most n^2 points): the Toeplitz route.
TABLE_ROUTE = {
    "1d-box-negative-shuffled": (make_domain([Box(-1.25, 0.5)]), 40,
                                 seeded_rows(lattice_truncation(-70, -11).points, 1)),
    "1d-mask-sparse": (MASK_1D, 64, seeded_rows(np.arange(-400.0, 501.0)[:, None], 2, 60)),
    "2d-union-shuffled": (TWO_BOX_SQUARE, 12,
                          seeded_rows(lattice_truncation(-9, 2, 2).points, 3)),
    "2d-mask-sparse": (MASK_2D, 10, seeded_rows(lattice_truncation(-16, 6, 2).points, 4, 60)),
    "3d-box-shuffled": (make_domain([Box([-0.5, 0.0, 0.25], [0.5, 0.75, 1.0])]), 6,
                        seeded_rows(lattice_truncation(-3, 1, 3).points, 5)),
}


def quadrature_gram_and_oracle(domain, nodes, freqs, weighted):
    if weighted:
        weight = affine_weight(domain, 3.0, [0.5, -0.25, 0.75][:domain.dimension],
                               nodes_per_axis=nodes)
        want = oracles.dense_quadrature_gram(weight.rule, freqs, np.abs(weight.values) ** 2)
        return exp_gram(domain, freqs, weight=weight), want
    rule = quadrature(domain, nodes)
    return exp_gram(domain, freqs, rule=rule), oracles.dense_quadrature_gram(rule, freqs)


@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "affine"])
@pytest.mark.parametrize("case", TABLE_ROUTE)
def test_integer_quadrature_grams_match_the_phase_matrix_product(case, weighted):
    domain, nodes, points = TABLE_ROUTE[case]
    freqs = FrequencySet(points)
    assert np.prod(2 * np.ptp(points, axis=0) + 1) <= freqs.size ** 2
    gram, want = quadrature_gram_and_oracle(domain, nodes, freqs, weighted)
    assert gram.provenance == "quadrature"
    assert np.max(np.abs(gram.matrix - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


# Sets the Toeplitz route must leave to the phase-matrix product.
DENSE_ROUTE = {
    "kadec": (UNIT, 64, np.arange(-20.0, 20.0) + Pcg32(3).uniforms(40, -0.2, 0.2)),
    "integer-and-scattered-axes": (MASK_2D, 8, np.stack(
        [np.repeat(np.arange(-3.0, 3.0), 6), np.tile(np.arange(6) * 0.37 + 0.1, 6)], -1)),
    "integers-2^40-apart": (MASK_1D, 16, [0.0, 2.0 ** 40]),
    "difference-box-beyond-n^2": (UNIT, 16, [0.0, 1.0, 5.0]),
}


@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "affine"])
@pytest.mark.parametrize("case", DENSE_ROUTE)
def test_other_frequency_sets_keep_the_phase_matrix_product(case, weighted):
    domain, nodes, points = DENSE_ROUTE[case]
    gram, want = quadrature_gram_and_oracle(domain, nodes, FrequencySet(points), weighted)
    assert gram.matrix.tobytes() == want.tobytes()


def test_a_lattice_quadrature_gram_never_forms_the_phase_matrix():
    # The N x n phase matrix of a 512-lattice on a 4,096-node rule alone
    # takes 32 MB, and the phase-matrix product holds two of them.
    rule = quadrature(UNIT, 4096)
    freqs = lattice_truncation(-256, 255)
    tracemalloc.start()
    try:
        gram = exp_gram(UNIT, freqs, rule=rule)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gram.provenance == "quadrature"
    assert is_orthonormal_system(gram).is_onb
    assert peak < 16e6


def test_two_dim_gram_factorizes_over_axes():
    square = make_domain([Box([0.0, 0.0], [1.0, 1.0])])
    fa = [0.0, 0.0]
    fb = [0.5, 0.25]
    got = exp_inner_closed(square, fa, fb)
    want = (exp_inner_closed(UNIT, [0.0], [0.5])
            * exp_inner_closed(UNIT, [0.0], [0.25]))
    assert got == pytest.approx(want, abs=1e-14)


def test_near_duplicate_frequencies_read_degenerate():
    # the pair is legal (gap above the coincidence tolerance) but the
    # resulting Gram is numerically singular
    gram = exp_gram(UNIT, FrequencySet([0.0, 1e-7]))
    rep = riesz_bounds(gram)
    assert rep.verdict == "degenerate"
    assert rep.upper == pytest.approx(2.0, rel=1e-9)


def test_coinciding_frequencies_rejected_at_construction():
    with pytest.raises(ValueError, match="coincide"):
        FrequencySet([0.0, 1e-14])


def test_coinciding_pair_across_a_block_boundary_is_named():
    n = 1000
    rows = _GAP_BLOCK_ENTRIES // n
    assert rows < n
    points = np.arange(n, dtype=float)
    points[rows] = points[rows - 1] + 1e-13
    with pytest.raises(ValueError, match=rf"frequencies {rows - 1} and {rows} coincide"):
        FrequencySet(points)


def test_distinctness_check_memory_is_linear_in_the_set_size():
    # The full (n, n) gap array for 3,001 points alone would take 72 MB.
    tracemalloc.start()
    try:
        fs = lattice_truncation(-1500, 1500)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fs.size == 3001
    assert peak < 16e6


def test_system_cap_enforced():
    domain = make_domain([Box(-0.5, 0.5)])
    with pytest.raises(ValueError, match="cap"):
        exp_gram(domain, lattice_truncation(-300, 300))


@given(a=st.floats(-3.0, 3.0), b=st.floats(-3.0, 3.0))
@settings(max_examples=60, deadline=None)
def test_closed_inner_is_conjugate_symmetric(a, b):
    lhs = exp_inner_closed(UNIT, [a], [b])
    rhs = exp_inner_closed(UNIT, [b], [a])
    assert lhs == pytest.approx(np.conj(rhs), abs=1e-12)


def test_gram_diagonal_equals_measure():
    domain = make_domain([Box(0.0, 0.75), Box(1.0, 1.5)])
    gram = exp_gram(domain, FrequencySet([-2.0, 0.0, 1.25]))
    assert np.allclose(np.diag(gram.matrix).real, domain.measure, atol=1e-12)


def first_closest_pair(points):
    """The (n, n, d) broadcast scan: smallest sup-norm gap, first pair in
    row-major order."""
    pts = np.asarray(points, dtype=float).reshape(len(points), -1)
    gaps = np.max(np.abs(pts[:, np.newaxis, :] - pts[np.newaxis, :, :]), axis=-1)
    np.fill_diagonal(gaps, np.inf)
    k = int(np.argmin(gaps))
    return float(gaps.flat[k]), divmod(k, len(pts))


@pytest.mark.parametrize("points", [
    pytest.param(seeded_rows(np.arange(-50.0, 50.0)[:, None], 1), id="1d-lattice"),
    pytest.param(seeded_rows(lattice_truncation(-6, 5, 2).points, 2), id="2d-lattice"),
    pytest.param(seeded_rows(lattice_truncation(-2, 2, 3).points, 3), id="3d-lattice"),
    pytest.param(np.arange(-20.0, 20.0) + Pcg32(3).uniforms(40, -0.2, 0.2), id="1d-kadec"),
])
def test_sorting_proves_distinctness_without_the_pairwise_scan(monkeypatch, points):
    def scan(pts):
        raise AssertionError("pairwise scan ran")
    monkeypatch.setattr(spectra, "_closest_pair", scan)
    assert FrequencySet(points).size == len(points)


@pytest.mark.parametrize("points", [
    pytest.param([3.0, -1.0, 2.0, 3.0, -1.0], id="1d-integers"),
    pytest.param([0.5, 0.25, 0.5 + 1e-13, 0.25 + 1e-14], id="1d-near"),
    pytest.param([[1.0, 2.0], [0.0, 0.0], [1.0, 2.0], [0.0, 0.0]], id="2d-integers"),
    pytest.param([[0.5, 2.0], [0.0, 0.25], [0.5, 2.0 + 1e-13], [0.0, 0.25]], id="2d-near"),
    pytest.param([[1.0, 2.0, 0.0], [1.0, 2.0, 1e-12]], id="3d-at-the-tolerance"),
])
def test_coinciding_frequencies_name_the_first_pair_of_the_scan(points):
    closest, (i, j) = first_closest_pair(points)
    assert closest <= spectra.DISTINCTNESS_TOL
    pts = np.asarray(points, dtype=float).reshape(len(points), -1)
    want = (f"frequencies {i} and {j} coincide within {spectra.DISTINCTNESS_TOL}: "
            f"{pts[i].tolist()} vs {pts[j].tolist()}")
    with pytest.raises(ValueError) as info:
        FrequencySet(points)
    assert str(info.value) == want


def test_every_gram_route_carries_the_centre_phase():
    freqs = FrequencySet([[-2.0, 1.0], [0.5, 3.0], [4.0, -1.5]])
    union = make_domain([Box([0.0, -1.0], [1.0, 0.5]), Box([1.5, 0.0], [2.5, 2.0])])
    centre = np.array([1.25, 0.5])
    want = np.exp(-2j * np.pi * (freqs.points @ centre))
    weight = affine_weight(union, 3.0, [0.5, -0.25], nodes_per_axis=6)
    for gram in (exp_gram(union, freqs), exp_gram(union, freqs, nodes_per_axis=6),
                 exp_gram(union, freqs, weight=weight)):
        assert np.array_equal(gram.phase, want)
    mask = make_mask_domain([-0.5, 0.25], [3, 2], [0.5, 0.5],
                            [False, True, True, True, True, False])
    assert np.array_equal(exp_gram(mask, freqs, nodes_per_axis=4).phase,
                          np.exp(-2j * np.pi * (freqs.points @ np.array([0.25, 0.75]))))


def test_a_gram_phase_of_the_wrong_length_is_rejected():
    with pytest.raises(ValueError, match="phase must have shape"):
        spectra.GramMatrix(np.eye(3), phase=np.ones(2))


SHIFTED_UNIT = make_domain([Box(0.375, 1.375)])


@pytest.mark.parametrize("solve,kinds", [
    pytest.param(lambda: riesz_bounds(exp_gram(SHIFTED_UNIT, lattice_truncation(-40, 23))),
                 "f", id="single-box"),
    pytest.param(lambda: riesz_bounds(exp_gram(
        make_mask_domain([0.25, -0.5], [2, 2], [0.5, 0.5], [True] * 4),
        lattice_truncation(-5, 3, 2), nodes_per_axis=12)), "f", id="full-mask"),
    pytest.param(lambda: verify_riesz_transfer(
        SHIFTED_UNIT, lattice_truncation(-40, 23), constant_weight(SHIFTED_UNIT, 0.6 + 0.8j)),
        "ff", id="constant-transfer"),
    pytest.param(lambda: verify_frame_transfer(
        make_domain([Box(0.1, 0.9)]), lattice_truncation(-30, 9),
        bump_window(make_domain([Box(0.1, 0.9)]), 1.0, 60)), "ff", id="bump-frame-operators"),
    pytest.param(lambda: riesz_bounds(exp_gram(
        make_domain([Box(-0.25, 0.75), Box(1.0, 1.375)]), lattice_truncation(-40, 23))),
        "c", id="box-union"),
    pytest.param(lambda: riesz_bounds(translation_gram(
        SHIFTED_UNIT, lattice_truncation(-40, 23),
        affine_weight(SHIFTED_UNIT, 2.0, [1.0], nodes_per_axis=128))), "c",
        id="affine-translation-gram"),
])
def test_the_solve_route_follows_the_measured_imaginary_part(eigvalsh_dtypes, solve, kinds):
    solve()
    assert "".join(dtype.kind for dtype in eigvalsh_dtypes) == kinds
