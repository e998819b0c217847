"""Eigen solver contract and the seeded stream."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import generators
import oracles
from expbases import (Box, FrequencySet, Pcg32, affine_weight, bump_window, constant_weight,
                      eigen_bounds, exp_gram, hermitian_defect, lattice_truncation,
                      make_domain, make_mask_domain, numerics, quadrature, riesz_bounds,
                      table_weight, translation_gram)
from expbases.cli import main
from expbases.numerics import HERMITICITY_TOL, RESIDUAL_CAP
from expbases.spectra import box_centre

# First four 32-bit outputs, frozen from evaluating the 64/32 xorshift-rotate
# recipe step by step with integer arithmetic outside the library.
PCG_SEED0_FIRST = [3894649422, 2055130073, 2315086854, 2925816488]
PCG_SEED42_FIRST = [3270867926, 1795671209, 1924641435, 1143034755]


def test_eigen_bounds_diagonal():
    bounds = eigen_bounds(np.diag([1.0, 3.0, 2.0]))
    assert bounds.lambda_min == pytest.approx(1.0, rel=1e-14)
    assert bounds.lambda_max == pytest.approx(3.0, rel=1e-14)
    assert bounds.margin <= 1e-12


def test_eigen_bounds_zero_matrix():
    bounds = eigen_bounds(np.zeros((4, 4)))
    assert (bounds.lambda_min, bounds.lambda_max, bounds.margin) == (0.0, 0.0, 0.0)


def test_non_hermitian_rejected_with_named_entry():
    m = np.eye(3)
    m[0, 2] = 1e-6
    with pytest.raises(ValueError, match=r"M\[0,2\]"):
        eigen_bounds(m)


def test_non_square_rejected():
    with pytest.raises(ValueError, match="square"):
        eigen_bounds(np.zeros((2, 3)))


def test_order_cap_enforced():
    with pytest.raises(ValueError, match="512"):
        eigen_bounds(np.eye(513))


def test_hermitian_defect_locates_worst_entry():
    m = np.eye(3, dtype=complex)
    m[1, 2] = 0.5
    m[2, 1] = 0.25
    defect, (i, j) = hermitian_defect(m)
    assert defect == pytest.approx(0.25)
    assert {i, j} == {1, 2}


def first_row_major_defect(m):
    diff = np.abs(m - m.conj().T)
    k = int(np.argmax(diff))
    return float(diff.flat[k]), divmod(k, m.shape[0])


@pytest.mark.parametrize("n", [1, 7, 130, 300])
def test_hermitian_defect_is_the_first_row_major_maximum(n):
    rng = np.random.default_rng(n)
    # Entries on a half-integer grid tie often.
    m = np.round(2 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))) / 2
    assert hermitian_defect(m) == first_row_major_defect(m)
    h = 0.5 * (m + m.conj().T)
    h[n - 1, n - 2] += 1e-3j  # for n = 300, a maximum in the second block of rows
    assert hermitian_defect(h) == first_row_major_defect(h)


@pytest.mark.parametrize("seed", range(5))
def test_eigen_bounds_match_power_iteration(seed):
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    m = b @ b.conj().T
    m = 0.5 * (m + m.conj().T)
    bounds = eigen_bounds(m)
    lo, hi = oracles.extreme_eigenvalues(m, seed=seed + 10)
    assert bounds.lambda_max == pytest.approx(hi, rel=1e-8)
    assert bounds.lambda_min == pytest.approx(lo, rel=1e-8, abs=1e-10)


def assert_certified_like_the_eigh_oracle(matrix):
    bounds = eigen_bounds(matrix)
    lo, hi = oracles.eigh_extreme_eigenvalues(matrix)
    tol = 1e-12 * max(1.0, abs(hi))
    assert abs(bounds.lambda_min - lo) <= tol
    assert abs(bounds.lambda_max - hi) <= tol
    m = np.asarray(matrix)
    assert 0.0 < bounds.margin <= RESIDUAL_CAP * np.max(np.abs(m)) * m.shape[0]


def test_eigen_bounds_match_the_eigh_oracle_on_planted_spectra():
    for seed in range(50):
        matrix, _, _ = generators.random_psd_with_known_spectrum(seed)
        assert_certified_like_the_eigh_oracle(matrix)


def frame_operator(domain, freqs, weight):
    # The weighted frame operator on the weight's support, as the frame
    # transfer builds it.
    mask = weight.support_mask
    phases = np.exp(-2j * np.pi * (weight.rule.nodes[mask] @ freqs.points.T))
    v = (np.sqrt(weight.rule.weights[mask]) * weight.values[mask])[:, np.newaxis] * phases
    return v @ v.conj().T


# One matrix of each kind the dense benchmark solves, at its sizes.
DENSE_SHAPES = {
    "1d-lattice-512": lambda: exp_gram(make_domain([Box(0.125, 1.125)]),
                                       lattice_truncation(-300, 211)).matrix,
    "1d-union-512": lambda: exp_gram(make_domain([Box(-0.25, 0.75), Box(1.0, 1.375)]),
                                     lattice_truncation(-256, 255)).matrix,
    "1d-kadec-448": lambda: exp_gram(make_domain([Box(0.0, 1.0)]), FrequencySet(
        np.arange(-224, 224) + Pcg32(5).uniforms(448, -0.2, 0.2))).matrix,
    "1d-mask-quadrature-512": lambda: exp_gram(
        make_mask_domain([-0.375], [5], [0.25], [True] * 5), lattice_truncation(-256, 255),
        nodes_per_axis=256).matrix,
    "2d-lattice-484": lambda: exp_gram(make_domain([Box([-0.125, 0.5], [0.875, 1.5])]),
                                       lattice_truncation(-11, 10, 2)).matrix,
    "2d-union-484": lambda: exp_gram(
        make_domain([Box([0.0, 0.0], [1.0, 1.0]), Box([1.25, 0.0], [1.75, 0.5])]),
        lattice_truncation(-11, 10, 2)).matrix,
    "degenerate-half-interval-81": lambda: exp_gram(make_domain([Box(0.0, 0.5)]),
                                                    lattice_truncation(-40, 40)).matrix,
    "frame-operator-bump-400": lambda: frame_operator(
        make_domain([Box(0.1, 0.9)]), lattice_truncation(-160, 159),
        bump_window(make_domain([Box(0.1, 0.9)]), 1.0, 400)),
}


@pytest.mark.parametrize("shape", DENSE_SHAPES)
def test_eigen_bounds_match_the_eigh_oracle_on_dense_gram_shapes(shape):
    assert_certified_like_the_eigh_oracle(DENSE_SHAPES[shape]())


def centred_gram(domain, freqs, **kwargs):
    # G_0 and the Gram G = D G_0 D* of the domain where it sits.
    gram = exp_gram(domain, freqs, **kwargs)
    return gram.centred, gram.matrix


def centred_frame_operator(domain, freqs, weight):
    # The frame operator of the frequencies moved to the centre of their
    # bounding box, as the frame transfer builds it, and of the frequencies
    # where they sit.
    centred = FrequencySet(freqs.points - box_centre(freqs.points))
    return frame_operator(domain, centred, weight), frame_operator(domain, freqs, weight)


KADEC_448 = FrequencySet(np.arange(-230, 218) + Pcg32(5).uniforms(448, -0.2, 0.2))

# (centred, placed) of each dense benchmark shape whose domain, weight or
# frequencies are symmetric about a centre, at the benchmark's sizes. The
# lattice shapes sit on boxes and masks 3/4 wide per axis: on unit ones
# their Grams are diagonal to rounding and need no solve
# (DIAGONAL_MATRICES).
CENTRED_SHAPES = {
    "1d-lattice-512": lambda: centred_gram(make_domain([Box(0.125, 0.875)]),
                                           lattice_truncation(-300, 211)),
    "2d-lattice-484": lambda: centred_gram(make_domain([Box([-0.125, 0.5], [0.625, 1.25])]),
                                           lattice_truncation(-11, 10, 2)),
    "1d-kadec-448": lambda: centred_gram(make_domain([Box(-0.375, 0.625)]), KADEC_448),
    "2d-kadec-400": lambda: centred_gram(make_domain([Box([0.25, -0.5], [1.25, 0.5])]),
                                         FrequencySet(np.stack(np.meshgrid(
                                             np.arange(-12.0, 8.0), np.arange(-9.0, 11.0)),
                                             -1).reshape(-1, 2)
                                             + Pcg32(6).uniforms(800, -0.08, 0.08).reshape(-1, 2))),
    "1d-full-mask-512": lambda: centred_gram(
        make_mask_domain([-0.375], [5], [0.25], [True] * 5), lattice_truncation(-256, 255),
        nodes_per_axis=256),
    "2d-full-mask-484": lambda: centred_gram(
        make_mask_domain([-0.625, 0.0], [2, 2], [0.375, 0.375], [True] * 4),
        lattice_truncation(-12, 9, 2), nodes_per_axis=24),
    "1d-constant-transfer-512": lambda: centred_gram(
        make_domain([Box(0.5, 1.25)]), lattice_truncation(-290, 221),
        weight=constant_weight(make_domain([Box(0.5, 1.25)]), 1.25 - 0.75j)),
    "frame-operator-bump-400": lambda: centred_frame_operator(
        make_domain([Box(0.1, 0.9)]), lattice_truncation(-160, 159),
        bump_window(make_domain([Box(0.1, 0.9)]), 1.0, 400)),
}

# The closed-form shapes above: symmetric boxes, whose centred axis factors
# are real to the last bit.
CLOSED_FORM_SHAPES = ["1d-lattice-512", "2d-lattice-484", "1d-kadec-448", "2d-kadec-400",
                      "1d-constant-transfer-512"]

# The shapes above whose frequencies (or, for the frame operator, nodes)
# are symmetric in their order: real and persymmetric, so they split.
PERSYMMETRIC_SHAPES = ["1d-lattice-512", "2d-lattice-484", "1d-full-mask-512",
                       "2d-full-mask-484", "1d-constant-transfer-512", "frame-operator-bump-400"]


@pytest.mark.parametrize("shape", CENTRED_SHAPES)
def test_the_real_route_agrees_with_the_complex_route(shape, eigvalsh_dtypes):
    # The complex route is the eigh oracle on the Gram or operator where it
    # sits, which has the spectrum of the centred one.
    centred, placed = CENTRED_SHAPES[shape]()
    real = eigen_bounds(centred)
    assert eigvalsh_dtypes == [np.float64] * (2 if shape in PERSYMMETRIC_SHAPES else 1)
    lo, hi = oracles.eigh_extreme_eigenvalues(placed)
    tol = 1e-12 * max(1.0, abs(hi))
    assert abs(real.lambda_min - lo) <= tol
    assert abs(real.lambda_max - hi) <= tol
    assert real.lambda_min - real.margin <= lo
    assert hi <= real.lambda_max + real.margin
    assert real.margin < 1e-11 * max(1.0, abs(hi))


@pytest.mark.parametrize("shape", CLOSED_FORM_SHAPES)
def test_a_symmetric_box_gives_an_exactly_real_centred_gram(shape):
    centred, _ = CENTRED_SHAPES[shape]()
    assert not np.any(centred.imag)


def planted(coupling=0.9 * HERMITICITY_TOL, n=64, seed=8):
    """(A + iB, lambda_min, lambda_max, B) for a Hermitian A + iB.

    A is real symmetric with its top eigenvalue 1 doubled on e_0, e_1, and
    B couples e_0 and e_1 antisymmetrically (B[0,1] = coupling, by default
    just under the Hermiticity ceiling), so the top eigenvalue of A + iB is
    1 + ||B||_2: the dropped imaginary part moves it to first order.
    """
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n - 2, n - 2)))
    a = np.zeros((n, n))
    a[0, 0] = a[1, 1] = 1.0
    a[2:, 2:] = (q * rng.uniform(0.1, 0.5, n - 2)) @ q.T
    b = np.zeros((n, n))
    b[0, 1], b[1, 0] = coupling, -coupling
    m = a + 1j * b
    lo, hi = oracles.eigh_extreme_eigenvalues(m)
    return m, lo, hi, b


def test_the_dropped_imaginary_part_is_in_the_margin(eigvalsh_dtypes):
    m, lo, hi, b = planted()
    bounds = eigen_bounds(m)
    assert eigvalsh_dtypes == [np.float64]
    assert bounds.lambda_max < hi - 0.5 * np.linalg.norm(b, 2)
    assert bounds.margin >= np.linalg.norm(b, 2)
    assert bounds.lambda_min - bounds.margin <= lo
    assert hi <= bounds.lambda_max + bounds.margin


@pytest.mark.parametrize("wrong", ["conjugated", "random"])
def test_a_wrong_phase_falls_back_to_the_complex_route(wrong, eigvalsh_dtypes):
    # A centred Gram rotated by any phase but the one that undoes it has an
    # imaginary part far above the ceiling: it is solved in complex, to the
    # bounds of the real solve.
    gram = exp_gram(make_domain([Box(-0.375, 0.625)]), KADEC_448)
    phase = (gram.phase.conj() if wrong == "conjugated"
             else np.exp(2j * np.pi * Pcg32(4).uniforms(gram.order)))
    real = eigen_bounds(gram.centred)
    rotated = eigen_bounds(phase[:, np.newaxis] * gram.centred * phase.conj())
    assert [dtype.kind for dtype in eigvalsh_dtypes] == ["f", "c"]
    tol = 1e-12 * max(1.0, abs(real.lambda_max))
    assert abs(rotated.lambda_min - real.lambda_min) <= tol
    assert abs(rotated.lambda_max - real.lambda_max) <= tol


def test_an_imaginary_part_above_the_ceiling_keeps_the_complex_route(eigvalsh_dtypes):
    m, lo, hi, _ = planted(coupling=1.1 * HERMITICITY_TOL)
    bounds = eigen_bounds(m)
    assert [dtype.kind for dtype in eigvalsh_dtypes] == ["c"]
    assert bounds.lambda_min - bounds.margin <= lo
    assert hi <= bounds.lambda_max + bounds.margin


def symmetric_subset(seed, shuffled=False):
    """Integer points of [-4, 4] x [-3, 3], symmetric through the origin and
    no range: a seeded half of the points below the origin in
    lexicographic order, their reflections, and the origin itself for odd
    seeds. The rows are in lexicographic order, which the reflection
    reverses, or shuffled, and are moved by an integer offset."""
    rng = np.random.default_rng(seed)
    below = [(i, j) for i in range(-4, 5) for j in range(-3, 4) if (i, j) < (0, 0)]
    half = [point for point in below if rng.random() < 0.5]
    half += [(-4, -3)]  # the corners fix the bounding box
    points = half + [(-i, -j) for i, j in half] + ([(0, 0)] if seed % 2 else [])
    points = np.array(sorted(set(points)), dtype=float)
    return FrequencySet((rng.permutation(points) if shuffled else points) + [7.0, -2.0])


UNION_2D = make_domain([Box([0.0, 0.0], [1.0, 1.0]), Box([1.25, 0.0], [1.75, 0.5])])
SQUARE = make_domain([Box([0.25, -0.5], [1.25, 0.5])])
SQUARE_RULE = quadrature(SQUARE, 12)
# 3/4 of SQUARE per axis: on SQUARE itself the Gram of integer frequencies
# is diagonal to rounding.
SMALL_SQUARE = make_domain([Box([0.25, -0.5], [1.0, 0.25])])

# Grams of a symmetric set, each with the kinds of the matrices eigvalsh
# receives: two real halves when the domain and weight are symmetric too,
# else one real matrix.
REFLECTED_GRAMS = {
    "box-union": (lambda freqs: exp_gram(UNION_2D, freqs), "f"),
    "mask": (lambda freqs: exp_gram(
        make_mask_domain([-0.5, 0.0], [3, 2], [0.5, 0.5], [True, True, False, True, True, True]),
        freqs, nodes_per_axis=8), "f"),
    "affine-weight": (lambda freqs: translation_gram(
        SQUARE, freqs, affine_weight(SQUARE, 2.5, [0.75, -0.5], nodes_per_axis=12)), "f"),
    # The same node values as a table: the weighted quadrature route.
    "table-weight": (lambda freqs: translation_gram(SQUARE, freqs, table_weight(
        SQUARE, SQUARE_RULE, 2.5 + SQUARE_RULE.nodes @ np.array([0.75, -0.5]))), "f"),
    "symmetric-box": (lambda freqs: exp_gram(SMALL_SQUARE, freqs), "ff"),
}


def assert_bracketed_like_the_eigh_oracle(bounds, matrix):
    lo, hi = oracles.eigh_extreme_eigenvalues(matrix)
    assert abs(bounds.lambda_min - lo) <= 1e-12 * max(1.0, abs(lo))
    assert abs(bounds.lambda_max - hi) <= 1e-12 * max(1.0, abs(hi))
    assert bounds.lambda_min - bounds.margin <= lo
    assert hi <= bounds.lambda_max + bounds.margin


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("kind", REFLECTED_GRAMS)
def test_a_reflected_solve_matches_the_eigh_oracle(seed, kind, eigvalsh_dtypes):
    freqs = symmetric_subset(seed)
    assert freqs.size % 2 == seed % 2
    assert np.array_equal(freqs.points[::-1], np.array([14.0, -4.0]) - freqs.points)
    build, kinds = REFLECTED_GRAMS[kind]
    gram = build(freqs)
    bounds = eigen_bounds(gram.centred)
    assert "".join(dtype.kind for dtype in eigvalsh_dtypes) == kinds
    assert_bracketed_like_the_eigh_oracle(bounds, gram.matrix)
    report = riesz_bounds(gram)
    assert (report.upper, report.margin) == (bounds.lambda_max, bounds.margin)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("kind", ["box-union", "mask", "affine-weight", "table-weight"])
def test_a_shuffled_symmetric_set_is_solved_unsplit(seed, kind, eigvalsh_dtypes):
    # The reflection no longer reverses the order, so the Gram is not
    # centrohermitian as it stands: one matrix is solved. (On the unit
    # square the Gram of integer frequencies is I to rounding, which is
    # certified by discs in any order.)
    gram = REFLECTED_GRAMS[kind][0](symmetric_subset(seed, shuffled=True))
    bounds = eigen_bounds(gram.centred)
    assert len(eigvalsh_dtypes) == 1
    assert_bracketed_like_the_eigh_oracle(bounds, gram.matrix)


def centrohermitian(n, seed):
    """A Hermitian matrix M with J M J = conj(M), J the reversal."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a = a + a.conj().T
    return 0.5 * (a + a[::-1, ::-1].conj())


@pytest.mark.parametrize("n", [7, 8])
@pytest.mark.parametrize("broken", [0.0, 0.5, 4.0])
def test_a_broken_reflection_above_the_ceiling_takes_the_complex_route(n, broken,
                                                                       eigvalsh_dtypes):
    # An imaginary entry pair that the reflection does not map to its
    # conjugate, at a multiple of the ceiling; the basis change spreads it
    # over entries of half its size. Below the ceiling the real route drops
    # it into the margin, above it the matrix is solved in complex.
    m = centrohermitian(n, seed=n)
    ceiling = HERMITICITY_TOL * np.max(np.abs(m))
    m[0, 1] += 1j * broken * ceiling
    m[1, 0] -= 1j * broken * ceiling
    bounds = eigen_bounds(m)
    kinds = "".join(dtype.kind for dtype in eigvalsh_dtypes)
    assert kinds == ("c" if broken > 2.0 else "f")
    lo, hi = oracles.eigh_extreme_eigenvalues(m)
    assert bounds.lambda_min - bounds.margin <= lo
    assert hi <= bounds.lambda_max + bounds.margin
    assert abs(bounds.lambda_max - hi) <= 1e-12 * max(1.0, abs(hi))


def solved_matrices(monkeypatch):
    """Copies of the operands np.linalg.eigvalsh receives, in call order."""
    solved = []
    true_eigvalsh = np.linalg.eigvalsh

    def eigvalsh(a, *args, **kwargs):
        solved.append(np.array(a))
        return true_eigvalsh(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    return solved


def assert_solved_as_the_symmetric_real_part(solved, m):
    # The route that has always been: (Re M + Re M^T) / 2, to the last bit.
    want = m.real + m.real.T
    want *= 0.5
    assert len(solved) == 1 and solved[0].dtype == want.dtype
    assert solved[0].tobytes() == want.tobytes()


def test_without_a_reflection_the_solved_matrix_is_the_symmetric_real_part(monkeypatch):
    # A real Gram on a Kadec set, which no reflection maps onto itself,
    # fails the screen for J M J = conj(M).
    gram = exp_gram(make_domain([Box(-0.375, 0.625)]),
                    FrequencySet(np.arange(-8, 8) + Pcg32(3).uniforms(16, -0.2, 0.2)))
    solved = solved_matrices(monkeypatch)
    eigen_bounds(gram.centred)
    assert_solved_as_the_symmetric_real_part(solved, gram.centred)


@pytest.mark.parametrize("n", [2, 7, 8])
@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_a_centrohermitian_matrix_is_solved_in_real_halves_unasked(n, real, eigvalsh_dtypes):
    # J M J = conj(M) in the order M comes in: a real (centrosymmetric) M
    # splits into two real halves, a complex one is solved as one real
    # matrix, since its imaginary part couples the halves. The margin
    # carries the basis change's rounding term. (Order 1 is diagonal:
    # DIAGONAL_MATRICES.)
    m = centrohermitian(n, seed=n)
    if real:
        m = m.real
    bounds = eigen_bounds(m)
    kinds = "".join(dtype.kind for dtype in eigvalsh_dtypes)
    assert kinds == ("ff" if real else "f")
    assert_bracketed_like_the_eigh_oracle(bounds, m)
    assert bounds.margin >= 3.0 * n * np.finfo(float).eps * np.max(np.abs(m))


def even_odd_basis(n):
    """The orthonormal even/odd basis of the reversal, as columns: the even
    vectors (with the middle one for odd n), then the odd ones."""
    eye, pairs = np.eye(n), n // 2
    even = [(eye[k] + eye[n - 1 - k]) / np.sqrt(2.0) for k in range(pairs)]
    odd = [(eye[k] - eye[n - 1 - k]) / np.sqrt(2.0) for k in range(pairs)]
    return np.array(even + ([eye[pairs]] if n % 2 else []) + odd).T


def test_a_real_matrix_that_passes_the_screen_and_couples_is_solved_turned_and_whole(
        monkeypatch):
    # Real and symmetric, persymmetric in the rows through its largest
    # diagonal entries but not in rows 0 and 1: the screen passes, and the
    # turned matrix is real, but its even and odd halves couple far above
    # the ceiling. It is solved whole, in the even/odd basis, with the basis
    # change's rounding in the margin.
    rng = np.random.default_rng(5)
    a = rng.standard_normal((8, 8))
    m = 0.25 * (a + a.T + a[::-1, ::-1] + a.T[::-1, ::-1]) + 10.0 * np.eye(8)
    m[3, 3] = m[4, 4] = 12.0
    m[0, 1] = m[1, 0] = m[0, 1] + 0.5
    assert numerics._mirrored(m, HERMITICITY_TOL * np.max(np.abs(m)))
    solved = solved_matrices(monkeypatch)
    bounds = eigen_bounds(m)
    basis = even_odd_basis(8)
    assert len(solved) == 1 and solved[0].dtype == np.float64
    assert np.max(np.abs(solved[0] - basis.T @ m @ basis)) <= 1e-14 * np.max(np.abs(m))
    assert_bracketed_like_the_eigh_oracle(bounds, m)
    assert bounds.margin >= 3.0 * 8 * np.finfo(float).eps * np.max(np.abs(m))


@pytest.mark.parametrize("nodes", [60, 61])
@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
def test_a_frame_operator_on_a_symmetric_node_set_splits(nodes, weighted, eigvalsh_dtypes):
    # The midpoint nodes of a box are symmetric in their order and the bump
    # is symmetric about the box's centre: with centred frequencies the
    # operator is real and persymmetric, so it is solved in two halves.
    domain = make_domain([Box(0.1, 0.9)])
    weight = bump_window(domain, 1.0, nodes)
    if not weighted:
        weight = constant_weight(domain, 1.0, rule=weight.rule)
    centred, placed = centred_frame_operator(domain, lattice_truncation(-30, 9), weight)
    bounds = eigen_bounds(centred)
    assert eigvalsh_dtypes == [np.float64] * 2
    assert_bracketed_like_the_eigh_oracle(bounds, placed)


def dense_calls(monkeypatch):
    """The names of the np.linalg.eigvalsh and np.linalg.cholesky calls
    made from here on, in call order."""
    calls = []
    for name in ("eigvalsh", "cholesky"):
        def spy(a, *args, _name=name, _true=getattr(np.linalg, name), **kwargs):
            calls.append(_name)
            return _true(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, spy)
    return calls


def assert_within_the_margin(bounds, lo, hi, shift=0.0):
    # Each extreme eigenvalue, less shift, lies within the margin of the
    # reported one less shift, on both sides.
    for got, want in ((bounds.lambda_min, lo), (bounds.lambda_max, hi)):
        assert got - shift - bounds.margin <= want <= got - shift + bounds.margin


# Matrices that are diagonal to rounding: Grams of orthonormal systems, the
# Gram of translates under a unimodular window times |c|^2 (|c|^2 I), and
# matrices of order 1.
DIAGONAL_MATRICES = {
    "1d-lattice-512": lambda: exp_gram(make_domain([Box(0.125, 1.125)]),
                                       lattice_truncation(-300, 211)).centred,
    "2d-lattice-484": lambda: exp_gram(make_domain([Box([-0.125, 0.5], [0.875, 1.5])]),
                                       lattice_truncation(-11, 10, 2)).centred,
    "2d-full-mask-484": lambda: exp_gram(
        make_mask_domain([-0.625, 0.0], [2, 2], [0.5, 0.5], [True] * 4),
        lattice_truncation(-12, 9, 2), nodes_per_axis=24).centred,
    "1d-constant-translation-512": lambda: translation_gram(
        make_domain([Box(0.5, 1.5)]), lattice_truncation(-290, 221),
        constant_weight(make_domain([Box(0.5, 1.5)]), 1.25 - 0.75j)).centred,
    "symmetric-subset-on-the-unit-square": lambda: exp_gram(SQUARE,
                                                            symmetric_subset(3)).centred,
    "1x1-real": lambda: centrohermitian(1, seed=1).real,
    "1x1-complex": lambda: centrohermitian(1, seed=1),
}


@pytest.mark.parametrize("case", DIAGONAL_MATRICES)
def test_a_matrix_diagonal_to_rounding_is_certified_by_discs(case, monkeypatch):
    m = DIAGONAL_MATRICES[case]()
    calls = dense_calls(monkeypatch)
    bounds = eigen_bounds(m)
    assert calls == []
    diagonal = np.diagonal(m).real
    assert (bounds.lambda_min, bounds.lambda_max) == (diagonal.min(), diagonal.max())
    assert bounds.margin <= m.shape[0] * np.finfo(float).eps * np.max(np.abs(m))
    # The eigh oracle on M - c I, c = H[0,0] for H = (M + M*) / 2: every
    # diagonal entry is within a factor of two of c, so the shift is exact,
    # and it leaves entries of the order of the margin, whose eigenvalues
    # eigh finds far more closely than the margin (it rounds relative to
    # the largest entry).
    shift = diagonal[0]
    lo, hi = oracles.eigh_extreme_eigenvalues(m - shift * np.eye(m.shape[0]))
    assert_within_the_margin(bounds, lo, hi, shift)


def test_the_eigh_oracle_measures_its_residual_against_the_matrix_it_decomposes():
    # G - I for the full unit-mask quadrature Gram: entries of order 1e-15
    # whose anti-Hermitian rounding is not small against max |M| n, so the
    # eigenpairs of H = (M + M*) / 2 leave a residual against M far above
    # the cap, and one against H far below it.
    m = DIAGONAL_MATRICES["2d-full-mask-484"]()
    m = m - np.eye(m.shape[0])
    h = 0.5 * (m + m.conj().T)
    w, v = np.linalg.eigh(h)
    scale = float(np.max(np.abs(m))) * m.shape[0]
    assert np.max(np.linalg.norm(m @ v - v * w, axis=0)) / scale > oracles.EIGH_RESIDUAL_CAP
    lo, hi = oracles.eigh_extreme_eigenvalues(m)
    for got, want in ((lo, w[0]), (hi, w[-1])):
        assert abs(got - want) <= scale * np.finfo(float).eps


@pytest.mark.parametrize("factor", [0.9, 1.1], ids=["below-the-gate", "above-the-gate"])
@pytest.mark.parametrize("phase", [1.0, np.exp(0.3j)], ids=["real", "complex"])
def test_a_planted_pair_just_past_the_gate_takes_the_dense_route(factor, phase, monkeypatch):
    # A diagonal with its least entry doubled at 0 and 1, and a Hermitian
    # pair coupling them at a multiple of the gate n eps max |M|. The pair
    # moves the least eigenvalue to 1 - |M[0,1]| exactly, so the disc
    # margin must cover it.
    n = 64
    diagonal = np.linspace(1.0, 2.0, n)
    diagonal[1] = 1.0
    m = np.diag(diagonal).astype(np.result_type(phase, float))
    coupling = factor * n * np.finfo(float).eps * 2.0
    m[0, 1], m[1, 0] = coupling * phase, coupling * np.conj(phase)
    calls = dense_calls(monkeypatch)
    bounds = eigen_bounds(m)
    if factor < 1.0:
        assert calls == []
        assert (bounds.lambda_min, bounds.lambda_max) == (1.0, 2.0)
        assert bounds.margin >= coupling
    else:
        assert calls[0] == "eigvalsh" and "cholesky" in calls
    assert_within_the_margin(bounds, 1.0 - abs(m[0, 1]), 2.0)


def test_an_asymmetric_column_within_the_hermiticity_ceiling_takes_the_dense_route(
        monkeypatch):
    # The identity with s, a quarter of the gate n eps, in column 0 below
    # the diagonal and row 0 left at zero: Hermitian within the ceiling,
    # and no row's off-diagonal sum exceeds s. Column 0 sums to (n - 1) s,
    # about 16 gates, and the Hermitian part's extreme eigenvalues are
    # 1 +- (n - 1)^(1/2) s / 2, about a gate from 1, which discs from the
    # rows alone would not cover.
    n = 64
    m = np.eye(n)
    s = 0.25 * n * np.finfo(float).eps
    m[1:, 0] = s
    calls = dense_calls(monkeypatch)
    bounds = eigen_bounds(m)
    assert "eigvalsh" in calls
    split = 0.5 * np.sqrt(n - 1) * s
    assert_within_the_margin(bounds, 1.0 - split, 1.0 + split)


@pytest.mark.parametrize("at", [(0, 0), (3, 3), (0, 5), (5, 0)])
@pytest.mark.parametrize("value", [np.nan, complex(0.0, np.nan), np.inf],
                         ids=["nan", "imaginary-nan", "inf"])
def test_a_nan_or_an_infinity_anywhere_takes_the_dense_route_and_is_an_error(
        at, value, monkeypatch):
    # A diagonal matrix takes the disc route unless an entry is not finite;
    # then the eigensolver or the margin gate fails, as without the discs.
    m = np.diag(np.linspace(1.0, 2.0, 8)).astype(type(value))
    m[at] = value
    calls = dense_calls(monkeypatch)
    with pytest.raises(RuntimeError, match="did not converge|certificate margin nan"):
        with np.errstate(invalid="ignore"):
            eigen_bounds(m)
    assert calls[:1] == ["eigvalsh"]


def move_extreme(monkeypatch, end=0, shift=None, order=None):
    """Make eigvalsh move its extreme eigenvalue w[end] inward by shift
    (default: a tenth of the spread), for matrices of the given order."""
    true_eigvalsh = np.linalg.eigvalsh

    def eigvalsh(a, *args, **kwargs):
        w = true_eigvalsh(a, *args, **kwargs)
        if order is None or a.shape[0] == order:
            step = 0.1 * (w[-1] - w[0]) if shift is None else shift
            w[end] += step if end == 0 else -step
        return w
    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)


@pytest.mark.parametrize("end", [0, -1], ids=["lambda_min", "lambda_max"])
def test_a_wrong_extreme_eigenvalue_fails_the_certificate(monkeypatch, end):
    matrix, _, _ = generators.random_psd_with_known_spectrum(3)
    move_extreme(monkeypatch, end)
    with pytest.raises(RuntimeError, match="certificate margin"):
        eigen_bounds(matrix)


def test_the_margin_doubles_until_it_covers_the_error(monkeypatch):
    matrix, lo, hi = generators.random_psd_with_known_spectrum(3)
    shift = 1e-9 * hi
    move_extreme(monkeypatch, shift=shift)
    bounds = eigen_bounds(matrix)
    assert bounds.lambda_min == pytest.approx(lo + shift, abs=1e-12)
    assert shift <= bounds.margin <= 2.5 * shift
    assert bounds.lambda_min - bounds.margin <= lo


def test_a_failed_certificate_is_an_error_row_in_a_batch(tmp_path, monkeypatch):
    # The symmetric frequency ranges solve in two halves: orders 2 and 2 for
    # the four members of the good scenarios, 3 and 3 for the six of the
    # poisoned one.
    runs = tmp_path / "runs"
    runs.mkdir()
    for stem, hi in (("01_ok", 1), ("02_wrong", 3), ("03_ok", 1)):
        (runs / f"{stem}.json").write_text(json.dumps({
            "name": stem, "command": "bounds",
            "parameters": {"domain": {"boxes": [[0.0, 0.75]]}, "freqs": {"range": [-2, hi]}},
            "expect": {"is_riesz_basis": True}}))
    move_extreme(monkeypatch, order=3)
    assert main(["batch", "--dir", str(runs), "--out-dir", str(tmp_path / "out")]) == 2
    rows = (tmp_path / "out" / "summary.csv").read_text().splitlines()
    assert rows[1].startswith("01_ok,bounds,true")
    assert rows[2].startswith("02_wrong,,error,") and "certificate margin" in rows[2]
    assert rows[3].startswith("03_ok,bounds,true")


def test_pcg32_frozen_streams():
    stream = Pcg32(0)
    assert [stream.next_u32() for _ in range(4)] == PCG_SEED0_FIRST
    stream = Pcg32(42)
    assert [stream.next_u32() for _ in range(4)] == PCG_SEED42_FIRST


def test_pcg32_first_output_rederived():
    # Reference arithmetic for the first draw from seed 42, restated here so
    # the frozen lists above cannot drift silently with the implementation.
    mult = 6364136223846793005
    inc = 1442695040888963407
    mask = (1 << 64) - 1
    state = inc
    state = (state + 42) & mask
    state = (state * mult + inc) & mask
    xorshifted = (((state >> 18) ^ state) >> 27) & 0xFFFFFFFF
    rot = state >> 59
    expected = ((xorshifted >> rot) | (xorshifted << ((32 - rot) & 31))) & 0xFFFFFFFF
    assert expected == PCG_SEED42_FIRST[0]
    assert Pcg32(42).next_u32() == expected


def test_uniforms_deterministic_and_in_range():
    xs = Pcg32(7).uniforms(200, -2.0, 5.0)
    ys = Pcg32(7).uniforms(200, -2.0, 5.0)
    assert np.array_equal(xs, ys)
    assert np.all((xs >= -2.0) & (xs < 5.0))


def test_uniforms_start_from_the_pinned_outputs():
    # 53 bits from two consecutive outputs, high word first.
    for seed, words in ((0, PCG_SEED0_FIRST), (42, PCG_SEED42_FIRST)):
        want = [((hi >> 5) * 2.0 ** 26 + (lo >> 6)) / 2.0 ** 53
                for hi, lo in (words[0:2], words[2:4])]
        assert Pcg32(seed).uniforms(2).tolist() == want


@pytest.mark.parametrize("n", [0, 1, 2, 257, 10 ** 4])
def test_uniforms_equal_the_scalar_loop_bitwise(n):
    for seed in (0, 42, 2 ** 64 - 1):
        fast, loop = Pcg32(seed), Pcg32(seed)
        got = fast.uniforms(n, -1.0, 3.0)
        want = np.array([loop.uniform(-1.0, 3.0) for _ in range(n)])
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        # The generator state after the call is the loop's too.
        assert [fast.next_u32() for _ in range(3)] == [loop.next_u32() for _ in range(3)]


@given(seed=st.integers(0, 2**32 - 1), bound=st.integers(1, 1000))
@settings(max_examples=50, deadline=None)
def test_randint_stays_in_range(seed, bound):
    assert 0 <= Pcg32(seed).randint(bound) < bound


def test_randint_rejects_bad_bound():
    with pytest.raises(ValueError, match="bound"):
        Pcg32(0).randint(0)


def test_distinct_indices_exhaust_and_sample():
    full = Pcg32(3).distinct_indices(10, 10)
    assert sorted(full) == list(range(10))
    part = Pcg32(3).distinct_indices(50, 5)
    assert len(set(part)) == 5
    with pytest.raises(ValueError, match="distinct"):
        Pcg32(3).distinct_indices(4, 5)


def _draws_equal_the_scalar_reference(seed, bound, k):
    rng = Pcg32(seed)
    values, state, following = oracles.pcg32_distinct_draws(seed, bound, k)
    assert rng.distinct_indices(bound, k) == values
    assert rng._state == state
    assert rng.next_u32() == following


@pytest.mark.parametrize("seed,bound,k,blocks", [
    (1, 10, 0, 0),
    (2, 10, 10, 0),
    (3, 5184, numerics._BLOCK_DRAW_MIN - 1, 0),
    (4, 5184, numerics._BLOCK_DRAW_MIN, 1),
    (5, 5184, 1296, 1),
    (6, 2 ** 31 + 1, 300, 1),  # about half of all outputs rejected
    (11, 2 ** 31 + 1, 300, 2),
    (7, 2 ** 32, 300, 1),
    (0, 64, 64, 2),
    (8, 200, 200, 4),
])
def test_distinct_indices_equal_a_scalar_reference(monkeypatch, seed, bound, k, blocks):
    # The block path must give the scalar walk's values and leave the
    # stream where it would, also when a block falls short.
    states = Pcg32._states
    calls = []

    def counted(self, count):
        calls.append(count)
        return states(self, count)
    monkeypatch.setattr(Pcg32, "_states", counted)
    _draws_equal_the_scalar_reference(seed, bound, k)
    assert len(calls) == blocks


def test_distinct_indices_equal_a_scalar_reference_on_seeded_cases():
    picks = Pcg32(2026)
    for seed in range(60):
        bound = (picks.randint(300) + 1, picks.randint(6000) + 1,
                 (1 << 32) - picks.randint(1 << 31))[seed % 3]
        k = picks.randint(min(bound, 400) + 1)
        _draws_equal_the_scalar_reference(seed, bound, k)
