"""Exponential Gram matrices: closed form, quadrature, and the bounds verdicts."""

import inspect
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from expbases import (
    Box,
    FrequencySet,
    Pcg32,
    QuadratureRule,
    affine_weight,
    bump_window,
    constant_weight,
    exp_gram,
    exp_inner_closed,
    gabor_gram,
    indicator_weight,
    is_orthonormal_system,
    lattice_truncation,
    make_domain,
    make_mask_domain,
    quadrature,
    riesz_bounds,
    table_weight,
    translation_gram,
    verify_frame_transfer,
    verify_riesz_transfer,
)
from expbases import numerics, paley_wiener, spectra
from expbases.spectra import _TABLE_BLOCK_ENTRIES

UNIT = make_domain([Box(0.0, 1.0)])

# Frozen: |integral of exp(pi i x) over [0, 1]| = 2/pi, checked against a
# 2e6-node midpoint rule (difference 6.6e-14) before freezing.
TWO_OVER_PI = 0.6366197723675814

EPS = np.finfo(float).eps


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


def ruled_gram(domain, freqs, nodes_per_axis):
    # An unweighted Gram on the domain's midpoint rule, as a mask domain needs.
    return exp_gram(domain, freqs, rule=quadrature(domain, nodes_per_axis))


def test_mask_domain_uses_quadrature_route():
    domain = make_mask_domain([0.0], [4], [0.25], [True, True, False, True])
    gram = exp_gram(domain, FrequencySet([0.0, 1.0]), rule=quadrature(domain, 200))
    assert gram.provenance == "quadrature"
    with pytest.raises(ValueError, match="needs a quadrature rule"):
        exp_inner_closed(make_mask_domain([0.0], [2], [0.5], [True, True]),
                         [0.0], [1.0])
    # On a box domain each vector is held to the one dimension rule.
    with pytest.raises(ValueError, match="^2-dimensional frequencies on a 1-dimensional domain$"):
        exp_inner_closed(UNIT, [0.0], [1.0, 0.0])


def test_exp_gram_takes_its_integration_one_way():
    # No node count of its own: a weighted Gram integrates on its weight's
    # rule, so a rule beside a weight is refused rather than dropped, and an
    # unweighted mask Gram needs a rule.
    freqs = FrequencySet([0.0, 0.5])
    assert list(inspect.signature(exp_gram).parameters) == ["domain", "freqs", "weight", "rule"]
    with pytest.raises(TypeError, match="nodes_per_axis"):
        exp_gram(UNIT, freqs, nodes_per_axis=6)
    weight = table_weight(UNIT, quadrature(UNIT, 6), np.full(6, 2.0))
    with pytest.raises(ValueError, match="^a weighted Gram integrates on its weight's rule"):
        exp_gram(UNIT, freqs, weight=weight, rule=quadrature(UNIT, 40))
    mask = make_mask_domain([0.0], [4], [0.25], [True, True, False, True])
    with pytest.raises(ValueError, match="^an unweighted Gram on a mask domain needs a "
                                         "quadrature rule$"):
        exp_gram(mask, freqs)


def centre_of(domain):
    """Centre of the bounding box of the domain's cells."""
    return spectra.box_centre(np.concatenate([(lower, lower + widths)
                                              for lower, widths, _ in zip(*domain.cells())]))


def moved_to_its_centre(domain):
    """The box union moved by minus its centre."""
    centre = centre_of(domain)
    return make_domain([Box(np.subtract(b.lower, centre), np.subtract(b.upper, centre))
                        for b in domain.boxes])


def test_gram_entries_are_the_pairwise_closed_form_exactly():
    union = make_domain([Box([0.0, 0.0], [1.0, 0.5]), Box([1.25, -0.3], [2.0, 0.7])])
    centred = moved_to_its_centre(union)
    a, b = [0.3, -1.7], [2.25, 0.4]
    gram = exp_gram(union, FrequencySet([a, b]))
    assert gram.provenance == "closed_form"
    assert gram.centred[0, 1] == exp_inner_closed(centred, a, b)
    assert gram.centred[1, 0] == exp_inner_closed(centred, b, a)
    assert abs(gram.matrix[0, 1] - exp_inner_closed(union, a, b)) <= 1e-13
    assert abs(gram.matrix[1, 0] - exp_inner_closed(union, b, a)) <= 1e-13


def broadcast_gram(domain, points):
    """The closed-form Gram from every pairwise difference: per box, the
    product of the oracle's interval integrals over the axes."""
    delta = points[:, np.newaxis, :] - points[np.newaxis, :, :]
    total = np.zeros(delta.shape[:-1], dtype=complex)
    for box in domain.boxes:
        factor = np.ones(delta.shape[:-1], dtype=complex)
        for j in range(domain.dimension):
            factor *= oracles.interval_integral(delta[..., j], box.lower[j], box.upper[j])
        total += factor
    return total


TWO_BOX_SQUARE = make_domain([Box([0.0, 0.0], [1.0, 1.0]), Box([1.25, -0.5], [1.75, 0.25])])


def gathered_grams(monkeypatch, build):
    """build()'s result and the number of _gather calls it made."""
    calls = []
    gather = spectra._gather

    def recording(table, points, spans):
        calls.append(spans)
        return gather(table, points, spans)
    monkeypatch.setattr(spectra, "_gather", recording)
    result = build()
    monkeypatch.undo()
    return result, len(calls)


SPARSE_2D = np.random.default_rng(7).choice(401, size=(20, 2), replace=False) - 200.0


@pytest.mark.parametrize("domain,points,table", [
    pytest.param(make_domain([Box(0.125, 1.125)]), lattice_truncation(-300, 211).points,
                 True, id="1d-lattice"),
    pytest.param(make_domain([Box(-0.25, 0.75), Box(1.0, 1.375)]),
                 lattice_truncation(1000, 1100).points, True, id="1d-union-offset"),
    pytest.param(make_domain([Box(-3.5, -2.25)]), -np.arange(0.0, 300.0, 3.0)[:, None],
                 True, id="1d-negative-stride-3"),
    pytest.param(TWO_BOX_SQUARE, lattice_truncation(-11, 10, 2).points, True,
                 id="2d-union-lattice"),
    pytest.param(TWO_BOX_SQUARE, np.stack([np.repeat(np.arange(-10.0, 10.0), 20),
                                           np.tile(np.arange(20) * 0.37 + 0.1, 20)], -1),
                 False, id="2d-integer-and-scattered"),
    pytest.param(make_domain([Box(0.0, 1.0)]), 2.0 ** 52 + np.arange(5.0)[:, None], False,
                 id="integers-at-2^52"),
    pytest.param(make_domain([Box(0.0, 1.0)]), np.array([[-7.0], [5.0], [2.0 ** 52 - 1]]),
                 False, id="span-beyond-the-gram"),
    pytest.param(TWO_BOX_SQUARE, np.unique(SPARSE_2D, axis=0), False,
                 id="2d-sparse-box-beyond-n^2"),
    # (2^32 - 1) * (2^32 + 1) points: -1 in int64, which a wrapped count
    # would take for at most n^2.
    pytest.param(TWO_BOX_SQUARE, [[0.0, 0.0], [2.0 ** 31 - 1, 2.0 ** 31], [1.0, 1.0]], False,
                 id="box-count-past-int64"),
])
def test_integer_axes_gather_a_difference_table_bitwise(monkeypatch, domain, points, table):
    # The gathered table is the pairwise closed form to the last bit, and
    # both are within a few eps of the oracle's difference of exponentials.
    freqs = FrequencySet(np.asarray(points, dtype=float))
    gram, gathers = gathered_grams(monkeypatch, lambda: exp_gram(domain, freqs))
    assert gathers == int(table)
    monkeypatch.setattr(spectra, "_difference_box", lambda points: None)
    assert gram.centred.tobytes() == exp_gram(domain, freqs).centred.tobytes()
    want = broadcast_gram(moved_to_its_centre(domain), freqs.points)
    assert np.max(np.abs(gram.centred - want)) <= 8 * EPS * np.max(np.abs(want))


@pytest.mark.parametrize("points,table", [
    pytest.param([0.0, 1.0, 4.0], True, id="1d-n^2"),
    pytest.param([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], True, id="2d-n^2"),
    pytest.param([0.0, 1.0, 2.0, 8.0], False, id="1d-n^2+1"),
    pytest.param([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [8.0, 0.0]], False, id="2d-n^2+1"),
])
def test_the_table_holds_at_most_n_squared_differences(monkeypatch, points, table):
    freqs = FrequencySet(points)
    assert (np.prod(2 * np.ptp(freqs.points, axis=0) + 1) <= freqs.size ** 2) == table
    domain = TWO_BOX_SQUARE if freqs.dimension == 2 else make_domain([Box(-0.25, 0.75)])
    rule = quadrature(domain, 8)
    for build, want in ((lambda: exp_gram(domain, freqs), broadcast_gram(domain, freqs.points)),
                        (lambda: exp_gram(domain, freqs, rule=rule),
                         oracles.dense_quadrature_gram(rule, freqs))):
        gram, gathers = gathered_grams(monkeypatch, build)
        assert gathers == int(table)
        assert np.max(np.abs(gram.matrix - want)) <= 1e-12 * np.max(np.abs(want))


def test_a_table_gram_is_byte_identical_across_rebuilds():
    # Report bytes must not depend on where the allocator puts the table.
    freqs = lattice_truncation(-11, 10, 2)
    first = exp_gram(TWO_BOX_SQUARE, freqs).matrix.tobytes()
    rng = np.random.default_rng(11)
    for size in rng.integers(1, 200_000, size=50):
        churn = [np.empty(int(size) + k, dtype=complex) for k in range(3)]
        assert exp_gram(TWO_BOX_SQUARE, freqs).matrix.tobytes() == first
        del churn


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


def affine_table_weight(domain, nodes, offset, gradient):
    """The table weight with the node values of affine_weight(domain,
    offset, gradient, nodes): the same samples, on the quadrature route."""
    rule = quadrature(domain, nodes)
    return table_weight(domain, rule, offset + rule.nodes @ np.asarray(gradient, dtype=float))


def quadrature_gram_and_oracle(domain, nodes, freqs, weighted, centred=False):
    """The library's quadrature Gram and the phase-matrix oracle's, on the
    rule moved by minus the domain's centre when centred is set."""
    if weighted:
        weight = affine_table_weight(domain, nodes, 3.0, [0.5, -0.25, 0.75][:domain.dimension])
        rule, weight_sq = weight.rule, np.abs(weight.values) ** 2
        gram = exp_gram(domain, freqs, weight=weight)
    else:
        rule, weight_sq = quadrature(domain, nodes), None
        gram = exp_gram(domain, freqs, rule=rule)
    if centred:
        rule = QuadratureRule(rule.nodes - centre_of(domain), rule.weights)
    return gram, oracles.dense_quadrature_gram(rule, freqs, weight_sq)


@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "table-weight"])
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


@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "table-weight"])
@pytest.mark.parametrize("case", DENSE_ROUTE)
def test_other_frequency_sets_keep_the_phase_matrix_product(case, weighted, monkeypatch):
    # The pairwise route forms the product from real cos and sin tables, so
    # it rounds apart from the complex oracle, and is Hermitian to the
    # last bit.
    routes = []
    pairwise = spectra._pairwise_quadrature
    monkeypatch.setattr(spectra, "_pairwise_quadrature",
                        lambda *args: routes.append("pairwise") or pairwise(*args))
    domain, nodes, points = DENSE_ROUTE[case]
    gram, want = quadrature_gram_and_oracle(domain, nodes, FrequencySet(points), weighted,
                                            centred=True)
    assert routes == ["pairwise"]
    assert np.max(np.abs(gram.centred - want)) <= 8 * EPS * np.max(np.abs(want))
    assert np.array_equal(gram.centred, gram.centred.conj().T)


def complex_shapes(build):
    """build() and the shapes of the complex arrays that spectra and
    paley_wiener functions held or returned, read from their locals as
    each returns."""
    files = {spectra.__file__, paley_wiener.__file__}
    shapes = set()

    def hook(frame, event, value):
        if event == "return" and frame.f_code.co_filename in files:
            for v in [*frame.f_locals.values(), value]:
                if isinstance(v, np.ndarray) and v.dtype.kind == "c":
                    shapes.add(v.shape)
    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        result = build()
    finally:
        sys.setprofile(previous)
    return result, shapes


def test_the_pairwise_and_frame_routes_form_no_complex_phase_matrix(monkeypatch):
    # The pairwise quadrature Gram and the frame operators come from real
    # cos and sin tables: no complex array has a node axis and a frequency
    # axis. With no more nodes than frequencies the frame transfer forms one
    # node kernel for both operators.
    freqs = FrequencySet(np.arange(-20.0, 20.0) + Pcg32(3).uniforms(40, -0.2, 0.2))
    rule = quadrature(UNIT, 64)
    gram, shapes = complex_shapes(lambda: exp_gram(UNIT, freqs, rule=rule))
    assert gram.provenance == "quadrature"
    assert shapes <= {(40, 40), (40,)}
    kernels = []
    pairwise = spectra._pairwise_quadrature
    monkeypatch.setattr(paley_wiener, "_pairwise_quadrature",
                        lambda *args: kernels.append(args[2].shape) or pairwise(*args))
    domain = make_domain([Box(0.1, 0.9)])
    _, shapes = complex_shapes(lambda: verify_frame_transfer(
        domain, lattice_truncation(-36, 35), bump_window(domain, 1.0, 60)))
    assert kernels == [(60, 1)]
    assert not any({72, 60} <= set(shape) for shape in shapes)


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


@pytest.mark.parametrize("entries", [40 * 37, 40 * 64, 40 * 3000])
def test_the_pairwise_route_sums_blocks_of_nodes(entries, monkeypatch):
    # 64 nodes against 40 frequencies, in blocks of entries // 40 nodes: a
    # short last block, whole blocks, or one block, which is the one
    # product of the tables to the last bit. Summed blocks round apart
    # from it, and stay Hermitian to the last bit.
    nodes = quadrature(UNIT, 64).nodes - 0.5
    coeff = 1.0 + Pcg32(9).uniforms(64)
    points = (np.arange(-20.0, 20.0) + Pcg32(3).uniforms(40, -0.2, 0.2))[:, np.newaxis]
    whole = spectra._pairwise_quadrature(nodes, coeff, points)
    monkeypatch.setattr(spectra, "_TABLE_BLOCK_ENTRIES", entries)
    blocked = spectra._pairwise_quadrature(nodes, coeff, points)
    assert np.array_equal(blocked, blocked.conj().T)
    if entries >= 40 * 64:
        assert blocked.tobytes() == whole.tobytes()
    else:
        assert np.max(np.abs(blocked - whole)) <= 8 * EPS * np.max(np.abs(whole))
    assert np.max(np.abs(whole - oracles.dense_quadrature_gram(
        QuadratureRule(nodes, coeff), FrequencySet(points)))) <= 8 * EPS * np.max(np.abs(whole))


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
    rows = _TABLE_BLOCK_ENTRIES // n
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
    # At the frame-transfer cap, where the scan would take about an hour.
    pytest.param(np.random.default_rng(4).uniform(-512.0, 512.0, (2 ** 20, 2)),
                 id="2d-scattered"),
    pytest.param(np.random.default_rng(5).normal(size=(20000, 3)), id="3d-scattered"),
    pytest.param(seeded_rows(np.stack(np.meshgrid(0.37 * np.arange(64), 0.61 * np.arange(64),
                                                  indexing="ij"), axis=-1).reshape(-1, 2), 6),
                 id="2d-non-integer-grid"),
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
    grams = (exp_gram(union, freqs), exp_gram(union, freqs, rule=quadrature(union, 6)),
             exp_gram(union, freqs, weight=weight),
             exp_gram(union, freqs, weight=affine_table_weight(union, 6, 3.0, [0.5, -0.25])))
    assert [gram.provenance for gram in grams] == ["closed_form", "quadrature"] * 2
    for gram in grams:
        assert np.max(np.abs(gram.phase - want)) <= 1e-14
    mask = make_mask_domain([-0.5, 0.25], [3, 2], [0.5, 0.5],
                            [False, True, True, True, True, False])
    want = np.exp(-2j * np.pi * (freqs.points @ np.array([0.25, 0.75])))
    assert np.max(np.abs(exp_gram(mask, freqs, rule=quadrature(mask, 4)).phase - want)) <= 1e-14


def test_the_phase_keeps_the_gram_of_far_frequencies_accurate():
    # <a, c> reaches about 620 turns here, so 2 pi <a, c> would round by up
    # to about 2e-13; the phase is reduced by whole turns first, so the
    # formed Gram stays at the accuracy of the pairwise closed form.
    union = make_domain([Box(-0.25, 0.75), Box(1.0, 1.375)])
    freqs = lattice_truncation(1000, 1100)
    want = broadcast_gram(union, freqs.points)
    assert np.max(np.abs(exp_gram(union, freqs).matrix - want)) <= 1e-15 * np.max(np.abs(want))


def test_a_gram_phase_of_the_wrong_length_is_rejected():
    with pytest.raises(ValueError, match="phase must have shape"):
        spectra.GramMatrix(np.eye(3), phase=np.ones(2))


SHIFTED_UNIT = make_domain([Box(0.375, 1.375)])
# 3/4 as wide: on SHIFTED_UNIT the Gram of integer frequencies is the
# identity to rounding, which eigen_bounds certifies with no solve
# (UNIT_WIDTH_LATTICES).
SHIFTED_NARROW = make_domain([Box(0.375, 1.125)])


# Solves, each with the kind of every matrix eigvalsh receives (f on a real
# route, c on the complex one) and the number of matrices it solves. A
# Gram on a frequency range is centrohermitian and solved in the
# reversal's even/odd basis: as two real halves when its domain and weight
# are symmetric too, else as one real matrix. The bump frame transfer has
# more nodes than frequencies, so its operators are solved as their Grams
# on the support's rule, each on the range.
SOLVES = [
    pytest.param(lambda: riesz_bounds(exp_gram(SHIFTED_NARROW, lattice_truncation(-40, 23))),
                 "ff", 1, id="single-box"),
    pytest.param(lambda: riesz_bounds(ruled_gram(
        make_mask_domain([0.25, -0.5], [2, 2], [0.375, 0.375], [True] * 4),
        lattice_truncation(-5, 3, 2), 12)), "ff", 1, id="full-mask"),
    pytest.param(lambda: verify_riesz_transfer(
        SHIFTED_NARROW, lattice_truncation(-40, 23),
        constant_weight(SHIFTED_NARROW, 0.6 + 0.8j)), "ffff", 2, id="constant-transfer"),
    pytest.param(lambda: verify_frame_transfer(
        make_domain([Box(0.1, 0.9)]), lattice_truncation(-30, 9),
        bump_window(make_domain([Box(0.1, 0.9)]), 1.0, 60)), "ffff", 2,
        id="bump-frame-operators"),
    pytest.param(lambda: riesz_bounds(exp_gram(
        make_domain([Box(-0.25, 0.75), Box(1.0, 1.375)]), lattice_truncation(-40, 23))),
        "f", 1, id="box-union"),
    pytest.param(lambda: riesz_bounds(translation_gram(
        SHIFTED_UNIT, lattice_truncation(-40, 23),
        affine_weight(SHIFTED_UNIT, 2.0, [1.0], nodes_per_axis=128))), "f", 1,
        id="affine-translation-gram"),
    pytest.param(lambda: riesz_bounds(translation_gram(
        SHIFTED_UNIT, lattice_truncation(-40, 23),
        affine_table_weight(SHIFTED_UNIT, 128, 2.0, [1.0]))), "f", 1,
        id="table-translation-gram"),
]


@pytest.mark.parametrize("solve,kinds,solved", SOLVES)
def test_the_solve_route_follows_the_measured_imaginary_part(eigvalsh_dtypes, solve, kinds,
                                                             solved):
    solve()
    assert "".join(dtype.kind for dtype in eigvalsh_dtypes) == kinds


# The unit-width inputs SOLVES and SINGLE_BOXES had before their boxes
# narrowed: the Gram of integer frequencies on a unit box or a full unit
# mask, and |c|^2 times it, is the identity times a constant to rounding.
# It is certified by discs, with no eigenvalue solve.
UNIT_WIDTH_LATTICES = {
    "single-box": lambda: riesz_bounds(exp_gram(SHIFTED_UNIT, lattice_truncation(-40, 23))),
    "2d-single-box": lambda: riesz_bounds(exp_gram(
        make_domain([Box([-0.125, 0.5], [0.875, 1.5])]), lattice_truncation(-5, 4, 2))),
    "full-mask": lambda: riesz_bounds(ruled_gram(
        make_mask_domain([0.25, -0.5], [2, 2], [0.5, 0.5], [True] * 4),
        lattice_truncation(-5, 3, 2), 12)),
    "constant-transfer": lambda: verify_riesz_transfer(
        SHIFTED_UNIT, lattice_truncation(-40, 23), constant_weight(SHIFTED_UNIT, 0.6 + 0.8j)),
}


@pytest.mark.parametrize("case", UNIT_WIDTH_LATTICES)
def test_a_unit_width_lattice_gram_is_certified_with_no_solve(case, eigvalsh_dtypes):
    report = UNIT_WIDTH_LATTICES[case]()
    assert eigvalsh_dtypes == []
    if case == "constant-transfer":
        assert report.sandwich_holds
    reports = ([report.exp_bounds, report.translation_bounds] if case == "constant-transfer"
               else [report])
    for bounds in reports:
        assert bounds.verdict == "riesz_basis"
        assert bounds.condition == pytest.approx(1.0, abs=1e-13)
        assert 0.0 <= bounds.margin <= 1e-13 * bounds.upper


@pytest.mark.parametrize("solve,kinds,solved", SOLVES)
def test_each_solved_matrix_is_scanned_for_hermiticity_once(monkeypatch, solve, kinds, solved):
    # A Gram is scanned when it is built and carries the scan to its solve;
    # a frame operator is scanned by eigen_bounds. Every binding of
    # hermitian_defect is counted, wherever a module imported the name.
    # A Gram on an integer box is scanned through its difference table,
    # and that scan is counted the same way.
    scanned = []
    true_defect = numerics.hermitian_defect
    true_scan = numerics._ToeplitzSection.scan

    def hermitian_defect(matrix):
        scanned.append(np.shape(matrix))
        return true_defect(matrix)

    def scan(section):
        scanned.append(section.shape)
        return true_scan(section)
    for module in (numerics, spectra):
        monkeypatch.setattr(module, "hermitian_defect", hermitian_defect, raising=False)
    monkeypatch.setattr(numerics._ToeplitzSection, "scan", scan)
    solve()
    assert len(scanned) == solved


@pytest.mark.parametrize("provenance", ["closed_form", "quadrature"])
def test_a_gram_past_the_hermiticity_ceiling_is_rejected_when_built(provenance):
    # One gate, eigen_bounds' own, rejects a Gram as it is built, whatever
    # its provenance, with the message eigen_bounds gives the raw matrix.
    matrix = np.eye(4, dtype=complex)
    matrix[0, 1] = 1e-10
    want = "matrix is not Hermitian: |M[0,1] - conj(M[1,0])| = 1.000e-10 exceeds 1e-12"
    for build in (lambda: spectra.GramMatrix(matrix, provenance=provenance),
                  lambda: numerics.eigen_bounds(matrix)):
        with pytest.raises(ValueError) as rejected:
            build()
        assert str(rejected.value) == want


OFF_CENTRE_UNION = make_domain([Box(-0.25, 0.75), Box(1.0, 1.375)])
SYMMETRIC_UNION = make_domain([Box(0.0, 0.3), Box(0.7, 1.0)])
AFFINE_UNION = make_domain([Box([0.0, 0.0], [1.0, 1.0]), Box([1.25, 0.0], [1.75, 0.5])])
OFF_CENTRE = make_domain([Box(0.375, 1.625)])
SHIFTED_MASK = make_mask_domain([-0.5, 0.25], [3, 2], [0.5, 0.5],
                                [True, False, True, True, True, False])

# Grams of frequencies that are a whole integer box in lexicographic order,
# held as their difference table, each with the kinds of the matrices
# eigvalsh receives from the table and from the Gram formed as an array,
# which is never split: even and odd n, real and complex tables, symmetric
# and off-centre unions, the affine closed form, quadrature on a mask and
# under a weight, and a Gram diagonal to rounding.
BOX_GRAMS = {
    "1d-box-16": (lambda: exp_gram(SHIFTED_NARROW, lattice_truncation(-8, 7)), "ff", "f"),
    "1d-box-17": (lambda: exp_gram(SHIFTED_NARROW, lattice_truncation(-8, 8)), "ff", "f"),
    "1d-symmetric-union-17": (lambda: exp_gram(SYMMETRIC_UNION, lattice_truncation(-8, 8)),
                              "ff", "f"),
    "1d-off-centre-union-17": (lambda: exp_gram(OFF_CENTRE_UNION, lattice_truncation(-8, 8)),
                               "f", "c"),
    "1d-off-centre-union-512": (
        lambda: exp_gram(OFF_CENTRE_UNION, lattice_truncation(-256, 255)), "f", "c"),
    "2d-box-20^2": (lambda: exp_gram(make_domain([Box([-0.125, 0.5], [0.625, 1.25])]),
                                     lattice_truncation(-10, 9, 2)), "ff", "f"),
    "2d-off-centre-union-21^2": (lambda: exp_gram(AFFINE_UNION, lattice_truncation(-10, 10, 2)),
                                 "f", "c"),
    "affine-1d-off-centre-17": (lambda: translation_gram(
        OFF_CENTRE, lattice_truncation(-8, 8),
        affine_weight(OFF_CENTRE, 1.0, [-0.6], 3)), "f", "c"),
    "affine-2d-union-21^2": (lambda: translation_gram(
        AFFINE_UNION, lattice_truncation(-10, 10, 2), affine_weight(AFFINE_UNION, 2.8, [0.6, -0.4], 3)),
        "f", "c"),
    "mask-quadrature-9^2": (lambda: exp_gram(SHIFTED_MASK, lattice_truncation(-4, 4, 2),
                                             rule=quadrature(SHIFTED_MASK, 8)), "f", "c"),
    "table-weight-17": (lambda: translation_gram(
        SHIFTED_NARROW, lattice_truncation(-8, 8),
        affine_table_weight(SHIFTED_NARROW, 64, 2.0, [1.0])), "f", "c"),
    "1d-unit-box-17-discs": (lambda: exp_gram(SHIFTED_UNIT, lattice_truncation(-8, 8)), "", ""),
}


@pytest.mark.parametrize("case", BOX_GRAMS)
def test_a_box_gram_is_solved_from_its_table_as_its_matrix_is(case, eigvalsh_dtypes):
    build, kinds, dense_kinds = BOX_GRAMS[case]
    gram = build()
    assert isinstance(gram.operand, numerics._ToeplitzSection)
    table = numerics.eigen_bounds(gram.operand)
    assert "".join(dtype.kind for dtype in eigvalsh_dtypes) == kinds
    report = riesz_bounds(gram)
    assert (report.upper, report.margin) == (table.lambda_max, table.margin)
    del eigvalsh_dtypes[:]
    # The unsplit matrix route on the same G_0, formed and scanned afresh.
    dense = numerics.eigen_bounds(gram.centred)
    assert "".join(dtype.kind for dtype in eigvalsh_dtypes) == dense_kinds
    scale = max(abs(dense.lambda_min), abs(dense.lambda_max))
    for got, want in ((table.lambda_min, dense.lambda_min),
                      (table.lambda_max, dense.lambda_max)):
        assert abs(got - want) <= 1e-14 * scale
        assert abs(got - want) <= min(table.margin, dense.margin)
    if kinds:
        # The rounding of the halves built from the table.
        assert table.margin >= 3.0 * gram.order * EPS * gram.scan.top
    else:
        assert table.margin == pytest.approx(dense.margin, rel=1e-12)


@pytest.mark.parametrize("case", BOX_GRAMS)
def test_a_box_gram_is_split_in_the_even_odd_basis_of_the_reversal(case):
    # The halves and their coupling, gathered from the table (here kept
    # whole by a ceiling nothing is within), are the Hermitian part H of
    # G_0 in the reversal's even/odd basis B, the odd vectors times i: the
    # oracle's B* H B, exactly real, within the halves' rounding term.
    gram = BOX_GRAMS[case][0]()
    n = gram.order
    basis = oracles.even_odd_basis(n).astype(complex)
    basis[:, n - n // 2:] *= 1j
    m = gram.centred
    want = basis.conj().T @ (0.5 * (m + m.conj().T)) @ basis
    top = gram.scan.top
    (whole,), slack = gram.operand.halves(-np.inf, top)
    assert slack == 3.0 * n * EPS * top
    assert np.max(np.abs(want.imag)) <= 3.0 * n * EPS * top
    assert np.max(np.abs(whole - want.real)) <= 3.0 * n * EPS * top


@pytest.mark.parametrize("case", BOX_GRAMS)
def test_a_box_gram_scans_its_table_to_the_matrix_scan_bits(case):
    # Every difference of the box occurs in G_0, so the largest modulus,
    # the Hermitian defect and the ONB deviation are the matrix scan's to
    # the last bit; the entry named for the defect attains it; the radius
    # bounds the same sums, added in another order.
    gram = BOX_GRAMS[case][0]()
    scan = gram.scan
    deviation = is_orthonormal_system(gram).deviation
    matrix = gram.centred
    want = numerics.hermitian_scan(matrix)
    assert (scan.top, scan.defect, scan.off_diagonal) == (want.top, want.defect,
                                                           want.off_diagonal)
    assert deviation == float(np.max(np.abs(matrix - np.eye(gram.order))))
    i, j = scan.at
    assert abs(matrix[i, j] - np.conj(matrix[j, i])) == scan.defect
    assert scan.radius == pytest.approx(want.radius, rel=1e-12)


def test_a_planted_non_hermitian_table_entry_is_named_where_its_difference_occurs():
    # t(delta) off its conjugate mirror by 1e-10 at delta = (2, -3): the
    # Gram is rejected as it is built, naming a pair of frequencies at that
    # difference (or its negative), and eigen_bounds names the same pair.
    freqs = lattice_truncation(-3, 2, 2)
    gram = exp_gram(make_domain([Box([0.25, -0.5], [1.0, 0.25])]), freqs)
    table = np.array(gram.operand.table, dtype=complex)
    table[2 + 5, -3 + 5] += 1e-10j
    section = numerics._ToeplitzSection(table)
    with pytest.raises(ValueError, match=r"^matrix is not Hermitian: \|M\[(\d+),(\d+)\] - "
                                         r"conj\(M\[\2,\1\]\)\| = 1\.000e-10 "
                                         r"exceeds 1e-12$") as info:
        spectra.GramMatrix(section)
    i, j = (int(k) for k in re.search(r"\|M\[(\d+),(\d+)\]", str(info.value)).groups())
    assert tuple(np.abs(freqs.points[i] - freqs.points[j])) == (2.0, 3.0)
    matrix = section.dense()
    assert abs(matrix[i, j] - np.conj(matrix[j, i])) == section.scan().defect
    with pytest.raises(ValueError, match=rf"^matrix is not Hermitian: \|M\[{i},{j}\] - "
                                         rf"conj\(M\[{j},{i}\]\)\| = 1\.000e-10 exceeds 1e-12$"):
        numerics.eigen_bounds(section)


# Integer sets whose differences fill a small table but which are not a
# whole box in lexicographic order: their Grams are gathered into a matrix
# and take the matrix route.
NON_BOX_INTEGER_SETS = {
    "1d-0-1-3-7": [0.0, 1.0, 3.0, 7.0],
    "1d-range-with-a-hole": np.delete(np.arange(-8.0, 9.0), 5),
    "1d-reversed-range": np.arange(8.0, -9.0, -1.0),
    "2d-box-by-columns": lattice_truncation(-3, 3, 2).points[:, ::-1],
}


@pytest.mark.parametrize("case", NON_BOX_INTEGER_SETS)
def test_an_integer_set_that_is_not_a_whole_box_keeps_the_matrix_route(case):
    freqs = FrequencySet(NON_BOX_INTEGER_SETS[case])
    domain = OFF_CENTRE_UNION if freqs.dimension == 1 else AFFINE_UNION
    assert spectra._difference_box(freqs.points) is not None
    gram = exp_gram(domain, freqs)
    assert isinstance(gram.operand, np.ndarray) and gram.centred is gram.operand
    assert gram.scan == numerics.hermitian_scan(gram.centred)
    want = numerics.eigen_bounds(gram.centred)
    report = riesz_bounds(gram)
    assert (report.upper, report.margin) == (want.lambda_max, want.margin)


MATRIX_HELD_GRAMS = {
    "real-kadec": lambda: exp_gram(make_domain([Box(-0.375, 0.625)]), FrequencySet(
        np.arange(-20, 20) + Pcg32(3).uniforms(40, -0.2, 0.2))),
    "complex-kadec": lambda: exp_gram(OFF_CENTRE_UNION, FrequencySet(
        np.arange(-20, 20) + Pcg32(3).uniforms(40, -0.2, 0.2))),
    "nan-entry": lambda: spectra.GramMatrix(np.array([[1.0, np.nan], [np.nan, 1.0]])),
}


@pytest.mark.parametrize("case", MATRIX_HELD_GRAMS)
def test_the_onb_deviation_of_a_matrix_held_gram_comes_from_its_scan(case, monkeypatch):
    # max |G_0 - I| from the scan's off-diagonal maximum and the diagonal,
    # to the last bit, with no second pass over G_0.
    gram = MATRIX_HELD_GRAMS[case]()
    assert isinstance(gram.operand, np.ndarray)
    want = np.max(np.abs(gram.centred - np.eye(gram.order)))
    monkeypatch.setattr(np, "eye", None)
    got = is_orthonormal_system(gram).deviation
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


def complex_squares(build, n):
    """build() and the names of the spectra and numerics functions that
    held or returned a complex array of at least n * n entries, read from
    their locals as each returns. A Gram is read through what it holds, so
    reading it forms no array."""
    files = {spectra.__file__, numerics.__file__}
    held = set()

    def hook(frame, event, value):
        if event == "return" and frame.f_code.co_filename in files:
            for v in [*frame.f_locals.values(), value]:
                v = getattr(v, "operand", v)
                if isinstance(v, np.ndarray) and v.dtype.kind == "c" and v.size >= n * n:
                    held.add(frame.f_code.co_name)
    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        result = build()
    finally:
        sys.setprofile(previous)
    return result, held


SQUARE_BOX = make_domain([Box([0.25, -0.5], [1.25, 0.5])])

# Single boxes in closed form, each (domain, frequencies): ranges and
# scattered sets in one and two dimensions.
SINGLE_BOXES = {
    "1d-range": (SHIFTED_NARROW, lattice_truncation(-40, 23)),
    "1d-kadec": (make_domain([Box(-0.375, 0.625)]),
                 FrequencySet(np.arange(-20, 20) + Pcg32(3).uniforms(40, -0.2, 0.2))),
    "2d-range": (make_domain([Box([-0.125, 0.5], [0.625, 1.25])]), lattice_truncation(-5, 4, 2)),
    "2d-scattered": (SQUARE_BOX, FrequencySet(
        np.stack(np.meshgrid(np.arange(-4.0, 4.0), np.arange(-3.0, 5.0)), -1).reshape(-1, 2)
        + Pcg32(6).uniforms(128, -0.08, 0.08).reshape(-1, 2))),
}


def assert_bracketed_by_the_placed_gram(bounds, gram):
    lo, hi = oracles.eigh_extreme_eigenvalues(gram.matrix)
    assert abs(bounds.lower - lo) <= 1e-12 * max(1.0, abs(hi))
    assert abs(bounds.upper - hi) <= 1e-12 * max(1.0, abs(hi))


@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "constant-weight"])
@pytest.mark.parametrize("case", SINGLE_BOXES)
def test_a_single_box_gram_stays_float64_from_assembly_to_eigvalsh(case, weighted,
                                                                   eigvalsh_dtypes):
    # Every axis factor of a box about its own centre is a real sinc: the
    # Gram is assembled in float64, and nothing between its assembly and
    # eigvalsh holds a complex n x n array.
    domain, freqs = SINGLE_BOXES[case]
    weight = constant_weight(domain, 0.6 + 0.8j) if weighted else None
    (gram, bounds), held = complex_squares(
        lambda: (g := exp_gram(domain, freqs, weight=weight), riesz_bounds(g)), freqs.size)
    assert gram.provenance == "closed_form"
    assert gram.centred.dtype == np.float64
    assert eigvalsh_dtypes and set(eigvalsh_dtypes) == {np.dtype(np.float64)}
    assert held == set()
    assert_bracketed_by_the_placed_gram(bounds, gram)


# Box sets whose Grams are complex: off-centre unions, affine weights,
# quadrature on a mask.
COMPLEX_BOX_GRAMS = {
    "1d-off-centre-union": (OFF_CENTRE_UNION, lattice_truncation(-32, 31), {}),
    "2d-off-centre-union": (AFFINE_UNION, lattice_truncation(-10, 10, 2), {}),
    "affine-1d-off-centre": (OFF_CENTRE, lattice_truncation(-32, 32),
                             {"weight": affine_weight(OFF_CENTRE, 1.0, [-0.6], 3)}),
    "affine-2d-union": (AFFINE_UNION, lattice_truncation(-10, 10, 2),
                        {"weight": affine_weight(AFFINE_UNION, 2.8, [0.6, -0.4], 3)}),
    "mask-quadrature": (SHIFTED_MASK, lattice_truncation(-10, 10, 2),
                        {"rule": quadrature(SHIFTED_MASK, 8)}),
}


@pytest.mark.parametrize("case", COMPLEX_BOX_GRAMS)
def test_a_complex_box_gram_holds_no_complex_square_from_assembly_to_eigvalsh(
        case, eigvalsh_dtypes):
    # The Gram is held as its difference table; its scan, bounds and ONB
    # deviation read the table, and the matrix is never formed.
    domain, freqs, kwargs = COMPLEX_BOX_GRAMS[case]
    (gram, _, _), held = complex_squares(
        lambda: (g := exp_gram(domain, freqs, **kwargs), riesz_bounds(g),
                 is_orthonormal_system(g)), freqs.size)
    assert isinstance(gram.operand, numerics._ToeplitzSection)
    assert gram.operand.table.dtype == np.complex128
    assert np.max(np.abs(gram.operand.table.imag)) > 1e-3
    assert eigvalsh_dtypes and set(eigvalsh_dtypes) == {np.dtype(np.float64)}
    assert held == set()
    assert "centred" not in vars(gram)


@pytest.mark.parametrize("window", ["indicator", "constant"])
def test_a_product_of_single_boxes_is_float64(window):
    base = make_domain([Box(-0.5, 0.5)])
    weight = indicator_weight(base) if window == "indicator" else constant_weight(base, 1j)
    for gram in gabor_gram(base, lattice_truncation(-3, 2), lattice_truncation(-4, 4), weight):
        assert gram.provenance == "closed_form"
        assert gram.centred.dtype == np.float64


def test_an_off_centre_union_gives_a_complex_gram():
    # The boxes' midpoints lie off the union's centre, so their axis
    # factors carry a phase.
    gram = exp_gram(make_domain([Box(-0.25, 0.75), Box(1.0, 1.375)]), lattice_truncation(-8, 8))
    assert gram.provenance == "closed_form"
    assert gram.centred.dtype == np.complex128
    assert np.max(np.abs(gram.centred.imag)) > 1e-3



# Affine weights offset + <gradient, x> on boxes: (domain, frequencies,
# offset, gradient, whether the Gram is Toeplitz). Differences down to
# 1e-9 take the moments' series branch.
AFFINE_GRAMS = {
    "1d-centred-box-scattered": (make_domain([Box(-0.5, 0.5)]),
                                 np.arange(-8.0, 9.0) * 0.73, 1.5, [0.9], False),
    "1d-off-centre-box-range": (OFF_CENTRE, lattice_truncation(-8, 8).points, 1.0, [-0.6], True),
    "1d-off-centre-box-scattered": (OFF_CENTRE, np.arange(-6.0, 7.0)
                                    + Pcg32(9).uniforms(13, -0.2, 0.2), 1.0, [-0.6], False),
    "2d-box-cross-term": (make_domain([Box([0.25, -0.5], [1.25, 0.75])]),
                          lattice_truncation(-3, 3, 2).points, 2.0, [0.7, -0.9], True),
    "2d-union-range": (AFFINE_UNION, lattice_truncation(-4, 3, 2).points, 2.8, [0.6, -0.4], True),
    "2d-union-scattered": (AFFINE_UNION, lattice_truncation(-3, 2, 2).points * 0.87 + 0.1,
                           2.8, [0.6, -0.4], False),
    "1d-small-differences": (OFF_CENTRE, [0.0, 1e-9, 3e-9, 2e-7, 1e-4, 0.05, 0.31, 1.7],
                             1.0, [-0.6], False),
    "2d-small-differences": (AFFINE_UNION, [[0.0, 0.0], [1e-9, 0.0], [0.0, 2e-9], [3e-9, -1e-9],
                                            [1e-4, 0.2], [0.4, 1e-7]], 2.8, [0.6, -0.4], False),
}


@pytest.mark.parametrize("case", AFFINE_GRAMS)
def test_affine_grams_on_boxes_match_the_gauss_legendre_oracle(case):
    domain, points, offset, gradient, toeplitz = AFFINE_GRAMS[case]
    freqs = FrequencySet(points)
    assert (spectra._difference_box(freqs.points) is not None) == toeplitz
    gram = exp_gram(domain, freqs, weight=affine_weight(domain, offset, gradient, 3))
    want = oracles.affine_gram(domain.boxes, offset, gradient, freqs.points)
    assert gram.provenance == "closed_form"
    assert np.max(np.abs(gram.matrix - want)) <= 1e-12 * np.max(np.abs(want))


# The three affine transfer shapes of the dense_grams benchmark workload:
# (domain, frequencies, offset, gradient, nodes per axis).
BENCHMARK_AFFINE_SHAPES = {
    "1d-kadec-320": (make_domain([Box(0.0, 1.0)]),
                     np.arange(-160.0, 160.0) + Pcg32(7).uniforms(320, -0.2, 0.2),
                     2.3, [0.7], 1024),
    "2d-range-484-box": (make_domain([Box([0.0, 0.0], [1.0, 1.0])]),
                         lattice_truncation(-11, 10, 2).points, 2.8, [0.6, -0.4], 45),
    "2d-range-484-union": (AFFINE_UNION, lattice_truncation(-11, 10, 2).points,
                           2.8, [0.6, -0.4], 32),
}


@pytest.mark.parametrize("case", BENCHMARK_AFFINE_SHAPES)
def test_the_benchmark_affine_translation_grams_match_the_oracle(case):
    domain, points, offset, gradient, nodes = BENCHMARK_AFFINE_SHAPES[case]
    freqs = FrequencySet(points)
    gram = translation_gram(domain, freqs, affine_weight(domain, offset, gradient, nodes))
    want = oracles.affine_gram(domain.boxes, offset, gradient, freqs.points)
    assert np.max(np.abs(gram.matrix - want)) <= 1e-9 * np.max(np.abs(want))


def test_the_affine_closed_form_checks_its_diagonal_against_the_exact_supremum():
    weight = affine_weight(OFF_CENTRE, 2.0, [0.1], 4)
    freqs = FrequencySet([0.0, 0.5])
    assert exp_gram(OFF_CENTRE, freqs, weight=weight).provenance == "closed_form"
    object.__setattr__(weight, "exact_sup", 0.9 * weight.exact_sup)
    with pytest.raises(RuntimeError, match="measure"):
        exp_gram(OFF_CENTRE, freqs, weight=weight)


def test_an_affine_profile_carries_its_coefficients():
    rule = quadrature(UNIT, 4)
    with pytest.raises(ValueError, match="affine profile"):
        paley_wiener.SpectralWeight(UNIT, rule, np.ones(4), profile="affine")
    with pytest.raises(ValueError, match="affine profile"):
        paley_wiener.SpectralWeight(UNIT, rule, np.ones(4), affine=(1.0, np.zeros(1)))
