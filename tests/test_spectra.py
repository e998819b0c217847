"""Exponential Gram matrices: closed form, quadrature, and the bounds verdicts."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from expbases import (
    Box,
    FrequencySet,
    exp_gram,
    exp_inner_closed,
    is_orthonormal_system,
    lattice_truncation,
    make_domain,
    make_mask_domain,
    quadrature,
    riesz_bounds,
)
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
