"""Weights, bound transfer, cardinal series, and integer-translate criteria."""

import itertools

import numpy as np
import pytest

import generators
import oracles
from expbases import (
    BandlimitedSignal,
    Box,
    FrequencySet,
    Pcg32,
    affine_weight,
    bump_window,
    constant_weight,
    convolution_factorization_check,
    eigen_bounds,
    exp_gram,
    indicator_signal,
    indicator_weight,
    lattice_truncation,
    make_domain,
    make_mask_domain,
    periodization_profile,
    quadrature,
    random_signal,
    shannon_reconstruct,
    smooth_random_signal,
    table_weight,
    translation_gram,
    verify_frame_transfer,
    verify_riesz_transfer,
    zd_periodization,
)
from expbases import paley_wiener, spectra

UNIT = make_domain([Box(0.0, 1.0)])
BAND = make_domain([Box(-0.5, 0.5)])

# Triangle profile on [0, 2], resolution 64: the grid point nearest 1/2 is
# 63/128, where |P - 1| = 2 x (1 - x) = 4095/8192. Frozen from the fraction.
TRIANGLE_DEV_64 = 0.4998779296875


def test_indicator_weight_extremes():
    w = indicator_weight(UNIT, nodes_per_axis=16)
    assert w.profile == "indicator"
    assert w.inf_mod == 1.0
    assert w.sup_mod == 1.0
    assert w.profile_mismatch == 0.0
    assert bool(w.support_mask.all())


def test_constant_weight_modulus():
    w = constant_weight(UNIT, 3.0 + 4.0j, nodes_per_axis=8)
    assert w.inf_mod == pytest.approx(5.0, rel=1e-15)
    assert w.exact_sup == pytest.approx(5.0, rel=1e-15)
    with pytest.raises(ValueError, match="nonzero"):
        constant_weight(UNIT, 0.0)


def test_affine_weight_corner_extremes():
    w = affine_weight(UNIT, 1.0, [1.0], nodes_per_axis=32)
    assert w.exact_inf == pytest.approx(1.0)
    assert w.exact_sup == pytest.approx(2.0)
    # node extremes sit half a cell inside the corners
    assert w.profile_mismatch == pytest.approx(1.0 / 64.0, rel=1e-12)


def test_affine_sign_change_gives_zero_infimum():
    domain = make_domain([Box(-1.0, 1.0)])
    w = affine_weight(domain, 0.0, [1.0], nodes_per_axis=16)
    assert w.exact_inf == 0.0
    assert w.exact_sup == pytest.approx(1.0)
    # midpoint nodes dodge the zero, so the node infimum stays positive
    assert w.inf_mod > 0.0


def _per_cell_affine_extremes(domain, offset, gradient):
    # Reference: the corners of one cell at a time, as itertools.product
    # lists them, folded into running extremes.
    inf_abs, sup_abs = np.inf, 0.0
    for lower, widths, _ in zip(*domain.cells()):
        vals = offset + np.array(list(itertools.product(*zip(lower, lower + widths)))) @ gradient
        if vals.min() <= 0.0 <= vals.max():
            inf_abs = 0.0
        else:
            inf_abs = min(inf_abs, float(np.min(np.abs(vals))))
        sup_abs = max(sup_abs, float(np.max(np.abs(vals))))
    return float(inf_abs), float(sup_abs)


def _per_cell_bump_extremes(domain, steepness):
    inf_abs, sup_abs = np.inf, 0.0
    for lower, widths, _ in zip(*domain.cells()):
        lo, hi = lower[0], lower[0] + widths[0]
        edge = paley_wiener.bump_values(np.array([lo, hi]), steepness)
        inf_abs = min(inf_abs, float(edge.min()))
        peak = paley_wiener.bump_values(np.array([0.5]), steepness) if lo <= 0.5 <= hi else edge
        sup_abs = max(sup_abs, float(peak.max()))
    return float(inf_abs), float(sup_abs)


def _random_domain(rng, dimension, lower, upper):
    # A union of up to 6 disjoint boxes in [lower, upper] (slabs along the
    # first axis), or a mask of up to 6 cells per axis over that range,
    # alternately.
    if rng.random() < 0.5:
        cuts = np.sort(rng.uniform(lower, upper, 2 * int(rng.integers(1, 7))))
        boxes = []
        for lo, hi in cuts.reshape(-1, 2):
            rest = np.sort(rng.uniform(lower, upper, (2, dimension - 1)), axis=0)
            boxes.append(Box([lo, *rest[0]], [hi, *rest[1]]))
        return make_domain(boxes)
    counts = rng.integers(1, 7, dimension)
    included = rng.random(int(np.prod(counts))) < 0.6
    included[rng.integers(included.size)] = True
    return make_mask_domain(np.full(dimension, lower), counts,
                            (upper - lower) / counts, included)


@pytest.mark.parametrize("seed", range(40))
def test_weight_extremes_equal_a_per_cell_reference_bitwise(seed):
    rng = np.random.default_rng(seed)
    domain = _random_domain(rng, int(rng.integers(1, 4)), -2.0, 3.0)
    offset, gradient = float(rng.normal()), rng.normal(size=domain.dimension) * 2.0
    assert (paley_wiener._affine_extremes(domain, offset, gradient)
            == _per_cell_affine_extremes(domain, offset, gradient))
    line = _random_domain(rng, 1, 0.0, 1.0)
    steepness = float(rng.uniform(0.1, 3.0))
    assert (paley_wiener._bump_extremes(line, steepness)
            == _per_cell_bump_extremes(line, steepness))


def test_affine_gradient_dimension_checked():
    with pytest.raises(ValueError, match="dimension"):
        affine_weight(UNIT, 1.0, [1.0, 2.0])


def test_bump_window_interior_support():
    domain = make_domain([Box(0.25, 0.75)])
    w = bump_window(domain, steepness=1.0, nodes_per_axis=16)
    assert w.profile == "bump"
    assert bool(w.support_mask.all())
    assert w.sup_mod <= np.exp(-4.0) + 1e-12


def test_bump_window_boundary_trims_support():
    w = bump_window(UNIT, nodes_per_axis=64)
    assert not bool(w.support_mask.all())
    assert bool(w.support_mask.any())


def test_bump_window_measures_a_mask_by_its_included_cells():
    # The grid spans [0, 2], but only its cells in [0, 1] belong to the domain.
    domain = make_mask_domain([0.0], [4], [0.5], [True, True, False, False])
    w = bump_window(domain, nodes_per_axis=8)
    assert w.rule.n_nodes == 16
    assert bool(w.support_mask.any())


@pytest.mark.parametrize("domain,err", [
    (make_domain([Box([0.0, 0.0], [1.0, 1.0])]), "one-dimensional"),
    (make_domain([Box(-0.5, 0.5)]), r"support is \[0, 1\]"),
    (make_mask_domain([0.0], [4], [0.5], [True, False, False, True]),
     r"domain spans \[0.0, 2.0\]"),
])
def test_bump_window_domain_validation(domain, err):
    with pytest.raises(ValueError, match=err):
        bump_window(domain)


def test_bump_window_steepness_positive():
    with pytest.raises(ValueError, match="steepness"):
        bump_window(make_domain([Box(0.25, 0.75)]), steepness=0.0)


def test_table_weight_validation():
    rule = quadrature(UNIT, 8)
    with pytest.raises(ValueError, match="one value per node"):
        table_weight(UNIT, rule, np.ones(7))
    with pytest.raises(ValueError, match="vanishes at every node"):
        table_weight(UNIT, rule, np.zeros(8))


def test_a_weight_whose_largest_modulus_has_no_finite_square_is_refused():
    rule = quadrature(UNIT, 8)
    with pytest.raises(ValueError, match="no finite square"):
        table_weight(UNIT, rule, np.full(8, 1e200))
    with pytest.raises(ValueError, match="no finite square"):
        constant_weight(UNIT, 1e200j, rule=rule)
    # Exact only: the nodes reach 15/16 of the corner value 1.4e154, whose
    # square alone overflows.
    with pytest.raises(ValueError, match="no finite square"):
        affine_weight(UNIT, 0.0, [1.4e154], rule=rule)
    assert constant_weight(UNIT, 1e154, rule=rule).sup_mod == 1e154
    # Small on its domain, but the closed form squares the gradient.
    with pytest.raises(ValueError, match="gradient component 1e\\+200 has no finite square"):
        affine_weight(make_domain([Box(0.0, 1e-200)]), 1.0, [1e200], nodes_per_axis=4)


def test_translation_gram_constant_weight_scales_exactly():
    freqs = FrequencySet([-1.0, 0.0, 2.5])
    base = exp_gram(UNIT, freqs)
    gram = translation_gram(UNIT, freqs, constant_weight(UNIT, 2.0j))
    assert gram.provenance == "closed_form"
    assert np.allclose(gram.matrix, 4.0 * base.matrix, atol=1e-14)


# A modulus of 2.5 scales the closed form; a modulus of 2 keeps the scaling
# exact on the quadrature route, where |value|^2 enters each node weight.
@pytest.mark.parametrize("domain,value,provenance", [
    (make_domain([Box(0.0, 0.5), Box(1.0, 1.75)]), 1.5 - 2.0j, "closed_form"),
    (make_mask_domain([0.0], [4], [0.25], [True, False, True, True]), -2.0j, "quadrature"),
])
def test_translation_gram_is_the_scaled_exponential_gram_bitwise(domain, value, provenance):
    freqs = FrequencySet([-1.0, 0.0, 2.5])
    weight = constant_weight(domain, value, nodes_per_axis=8)
    gram = translation_gram(domain, freqs, weight)
    rule = None if provenance == "closed_form" else weight.rule
    base = exp_gram(domain, freqs, rule=rule)
    assert gram.provenance == base.provenance == provenance
    assert np.array_equal(gram.centred, abs(value) ** 2 * base.centred)
    assert np.array_equal(gram.phase, base.phase)


def test_translation_gram_matches_direct_quadrature():
    rule = quadrature(UNIT, 40)
    rng = Pcg32(11)
    w = generators.random_nonvanishing_weight(rng, UNIT, rule)
    freqs = FrequencySet([0.0, 1.0, -2.0])
    gram = translation_gram(UNIT, freqs, w)
    phases = np.exp(-2j * np.pi * rule.nodes[:, 0][:, None] * freqs.points[:, 0][None, :])
    coeff = rule.weights * np.abs(w.values) ** 2
    direct = phases.T @ (coeff[:, None] * np.conj(phases))
    assert np.max(np.abs(gram.matrix - direct)) < 1e-13


def test_riesz_transfer_requires_nowhere_zero_weight():
    rule = quadrature(UNIT, 8)
    vals = np.ones(8)
    vals[3] = 0.0
    w = table_weight(UNIT, rule, vals)
    with pytest.raises(ValueError, match="verify_frame_transfer"):
        verify_riesz_transfer(UNIT, FrequencySet([0.0, 1.0]), w)


def test_riesz_transfer_constant_weight_is_tight():
    domain = make_domain([Box(-0.5, 0.5)])
    freqs = lattice_truncation(-4, 4)
    rep = verify_riesz_transfer(domain, freqs, constant_weight(domain, 1.5))
    assert rep.sandwich_holds
    assert rep.translation_bounds.lower == pytest.approx(rep.predicted_lower, rel=1e-9)
    assert rep.translation_bounds.upper == pytest.approx(rep.predicted_upper, rel=1e-9)
    assert rep.inf_mod == pytest.approx(1.5)


@pytest.mark.parametrize("seed", range(8))
def test_riesz_transfer_sandwich_on_random_scenarios(seed):
    domain, _, freqs, weight = generators.random_scenario(seed)
    rep = verify_riesz_transfer(domain, freqs, weight)
    assert rep.sandwich_holds
    assert rep.predicted_lower <= rep.predicted_upper
    assert rep.exp_bounds.upper > 0.0


def test_both_transfers_reject_a_foreign_weight_and_foreign_frequencies():
    # The one spectra check: a weight sampled elsewhere, or frequencies of
    # another dimension, are refused with the schema's own messages.
    w = indicator_weight(make_domain([Box(0.0, 2.0)]), nodes_per_axis=8)
    for verify in (verify_riesz_transfer, verify_frame_transfer):
        with pytest.raises(ValueError, match="^weight was sampled on a different domain$"):
            verify(UNIT, FrequencySet([0.0]), w)
        with pytest.raises(ValueError, match="^2-dimensional frequencies on a 1-dimensional "
                                             "domain$"):
            verify(UNIT, FrequencySet([[0.0, 0.0]]), indicator_weight(UNIT, nodes_per_axis=8))


def test_frame_transfer_on_vanishing_weight():
    rule = quadrature(UNIT, 24)
    vals = np.where(rule.nodes[:, 0] < 0.5, 1.0, 0.0)
    w = table_weight(UNIT, rule, vals)
    rep = verify_frame_transfer(UNIT, FrequencySet([-1.0, 0.0, 1.0]), w)
    assert rep.support_is_proper
    assert rep.space_dim == int(w.support_mask.sum())
    assert rep.n_vectors == 3
    assert rep.sandwich_holds
    assert rep.weighted_bounds.verdict in {"frame_only_not_tested", "degenerate"}
    assert "support" in rep.note


def test_frame_transfer_full_support_flagged():
    rule = quadrature(UNIT, 16)
    w = indicator_weight(UNIT, rule=rule)
    rep = verify_frame_transfer(UNIT, FrequencySet([0.0, 1.0]), w)
    assert not rep.support_is_proper
    assert rep.sandwich_holds
    assert rep.weight_floor_sq == pytest.approx(1.0)
    assert rep.weight_ceil_sq == pytest.approx(1.0)


def test_signal_validation_and_norm():
    rule = quadrature(UNIT, 8)
    with pytest.raises(ValueError, match="coefficient per node"):
        BandlimitedSignal(UNIT, rule, np.ones(5))
    sig = indicator_signal(UNIT, rule)
    assert sig.norm_sq == pytest.approx(UNIT.measure, rel=1e-12)


def test_smooth_random_signal_one_dimensional_only():
    square = make_domain([Box([0.0, 0.0], [1.0, 1.0])])
    rule = quadrature(square, 4)
    with pytest.raises(ValueError, match="one-dimensional"):
        smooth_random_signal(square, rule, Pcg32(0))


def test_smooth_random_signal_orders_are_capped_before_a_draw():
    # 2 max_order + 1 exponentials over 129 nodes: 8,127 of them fit in
    # NODE_CAP values, 8,129 do not.
    rule = quadrature(UNIT, 129)
    rng = Pcg32(0)
    with pytest.raises(ValueError, match=f"1048641 values of 8129 exponentials over 129 nodes "
                                         f"exceed the cap {2 ** 20}"):
        smooth_random_signal(UNIT, rule, rng, max_order=4064)
    with pytest.raises(ValueError, match="max_order must be at least 0"):
        smooth_random_signal(UNIT, rule, rng, max_order=-1)
    assert rng.next_u32() == Pcg32(0).next_u32()
    assert smooth_random_signal(UNIT, rule, rng, max_order=4063).coeffs.shape == (129,)


def test_factorization_constant_weight_norms():
    rule = quadrature(UNIT, 32)
    sig = random_signal(UNIT, rule, Pcg32(5))
    rep = convolution_factorization_check(UNIT, constant_weight(UNIT, 2.0, rule=rule), sig)
    assert rep.residual < 1e-15
    assert rep.bound_holds
    assert rep.quotient_norm == pytest.approx(rep.signal_norm / 2.0, rel=1e-14)
    assert rep.norm_bound == pytest.approx(rep.signal_norm / 2.0, rel=1e-14)


def test_factorization_zero_signal_short_circuits():
    rule = quadrature(UNIT, 8)
    sig = BandlimitedSignal(UNIT, rule, np.zeros(8))
    rep = convolution_factorization_check(UNIT, indicator_weight(UNIT, rule=rule), sig)
    assert rep.residual == 0.0
    assert rep.signal_norm == 0.0
    assert rep.bound_holds


def test_factorization_requires_shared_rule():
    sig = indicator_signal(UNIT, quadrature(UNIT, 8))
    w = indicator_weight(UNIT, nodes_per_axis=16)
    with pytest.raises(ValueError, match="share one quadrature rule"):
        convolution_factorization_check(UNIT, w, sig)
    # A weight sampled elsewhere is refused with the transfers' one message.
    with pytest.raises(ValueError, match="^weight was sampled on a different domain$"):
        convolution_factorization_check(BAND, indicator_weight(UNIT, nodes_per_axis=8), sig)


def test_factorization_requires_nowhere_zero_weight():
    rule = quadrature(UNIT, 8)
    vals = np.ones(8)
    vals[0] = 0.0
    with pytest.raises(ValueError, match="nowhere-zero"):
        convolution_factorization_check(
            UNIT, table_weight(UNIT, rule, vals), indicator_signal(UNIT, rule))


def test_shannon_band_and_truncation_validation():
    rule = quadrature(UNIT, 65)
    with pytest.raises(ValueError, match=r"band must be \[-1/2, 1/2\]"):
        shannon_reconstruct(indicator_signal(UNIT, rule), 4, [0.0])
    band_rule = quadrature(BAND, 65)
    sig = indicator_signal(BAND, band_rule)
    with pytest.raises(ValueError, match=r"\[0, 512\]"):
        shannon_reconstruct(sig, -1, [0.0])
    with pytest.raises(ValueError, match="cannot resolve"):
        shannon_reconstruct(sig, 40, [0.0])


def test_shannon_flat_spectrum_reconstructs_sinc():
    rule = quadrature(BAND, 129)
    sig = indicator_signal(BAND, rule)
    pts = np.array([0.0, 0.25, 1.0, 2.5])
    rep = shannon_reconstruct(sig, 16, pts)
    # flat spectrum on the band has sinc as inverse transform; integer
    # samples are exactly the unit impulse under the midpoint rule
    assert np.max(np.abs(rep.samples - (np.arange(-16, 17) == 0))) < 1e-13
    assert np.max(np.abs(rep.values - np.sinc(pts))) < 1e-12
    assert rep.parseval_ok
    assert rep.coeff_energy == pytest.approx(1.0, rel=1e-12)


def test_shannon_blocks_agree_with_one_block(monkeypatch):
    # Every shipped shape is one block. Blocks of 22 columns sum the phase
    # table, whose 33 orders take 6 coarse rows, over 12 blocks of nodes and
    # form the sinc table over 4 blocks of points, which reorders the sums
    # only.
    sig = smooth_random_signal(BAND, quadrature(BAND, 257), Pcg32(4))
    pts = np.linspace(-4.0, 4.0, 81)
    whole = shannon_reconstruct(sig, 16, pts)
    monkeypatch.setattr(paley_wiener, "_TABLE_BLOCK_ENTRIES", 33 * 22)
    monkeypatch.setattr(spectra, "_TABLE_BLOCK_ENTRIES", 6 * 22)
    blocked = shannon_reconstruct(sig, 16, pts)
    np.testing.assert_allclose(blocked.samples, whole.samples, rtol=0, atol=1e-14)
    np.testing.assert_allclose(blocked.values, whole.values, rtol=0, atol=1e-13)
    assert blocked.coeff_energy == pytest.approx(whole.coeff_energy, rel=1e-14)


@pytest.mark.parametrize("nodes,n_terms,bound", [(129, 48, 1e-14), (257, 100, 1.5e-14),
                                                  (1025, 512, 1e-13)])
def test_shannon_samples_match_a_long_double_sum(nodes, n_terms, bound):
    # f(m) = sum_k w_k c_k exp(2 pi i m x_k), summed directly in long
    # double; the error is relative to max |f(m)|.
    if np.finfo(np.longdouble).eps >= np.finfo(float).eps:
        pytest.skip("long double is no wider than double here")
    rule = quadrature(BAND, nodes)
    sig = random_signal(BAND, rule, Pcg32(3))
    rep = shannon_reconstruct(sig, n_terms, [0.0])
    x, weights = (np.asarray(a, dtype=np.longdouble) for a in (rule.nodes[:, 0], rule.weights))
    angles = 2 * np.arccos(np.longdouble(-1)) * np.multiply.outer(
        np.arange(-n_terms, n_terms + 1), x)
    cos, sin = np.cos(angles), np.sin(angles)
    re, im = weights * sig.coeffs.real, weights * sig.coeffs.imag
    real, imag = cos @ re - sin @ im, cos @ im + sin @ re
    error = np.hypot((rep.samples.real - real).astype(float),
                     (rep.samples.imag - imag).astype(float))
    assert np.max(error) <= bound * float(np.max(np.hypot(real, imag)))


def test_shannon_samples_are_the_bands_quadrature_table(monkeypatch):
    # One table over the rule's nodes, of the orders -n_terms..n_terms.
    calls = []
    table = paley_wiener._quadrature_table

    def recorded(nodes, coeff, spans):
        calls.append(spans)
        return table(nodes, coeff, spans)
    monkeypatch.setattr(paley_wiener, "_quadrature_table", recorded)
    shannon_reconstruct(indicator_signal(BAND, quadrature(BAND, 129)), 48, [0.5])
    assert calls == [[48]]


@pytest.mark.parametrize("points", [[1e308], [-1e308, 0.5], [np.inf], [np.nan]])
def test_shannon_refuses_points_past_the_sinc_kernels_range(points):
    sig = indicator_signal(BAND, quadrature(BAND, 129))
    with pytest.raises(ValueError, match=r"pi \(\|t\| \+ 16\) finite"):
        shannon_reconstruct(sig, 16, points)
    assert np.isfinite(shannon_reconstruct(sig, 16, [5e307]).values).all()


def test_shannon_energy_grows_with_truncation():
    rule = quadrature(BAND, 257)
    sig = smooth_random_signal(BAND, rule, Pcg32(9))
    energies = [shannon_reconstruct(sig, n, [0.1]).coeff_energy for n in (2, 8, 32)]
    assert energies[0] <= energies[1] + 1e-12
    assert energies[1] <= energies[2] + 1e-12
    assert all(shannon_reconstruct(sig, n, [0.1]).parseval_ok for n in (2, 8, 32))


def test_periodization_unit_indicator_is_onb():
    rep = zd_periodization(periodization_profile("indicator", lower=[0.0], upper=[1.0]))
    assert rep.sup_deviation < 1e-12
    assert rep.is_onb and rep.gram_is_onb and rep.agree


def test_periodization_half_indicator_deviation_is_one():
    rep = zd_periodization(
        periodization_profile("indicator", lower=[0.0], upper=[0.5]))
    assert rep.sup_deviation == 1.0
    assert not rep.is_onb
    assert rep.agree


def test_periodization_scaled_indicator_deviation_is_three():
    rep = zd_periodization(
        periodization_profile("indicator", lower=[0.0], upper=[1.0], scale=2.0))
    assert rep.sup_deviation == 3.0
    assert not rep.is_onb
    assert rep.agree


def test_periodization_triangle_frozen_deviation():
    rep = zd_periodization(
        periodization_profile("triangle", lower=0.0, upper=2.0), resolution=64)
    assert rep.sup_deviation == pytest.approx(TRIANGLE_DEV_64, abs=1e-15)
    assert not rep.is_onb
    assert rep.agree


def test_periodization_cosine_is_onb():
    rep = zd_periodization(periodization_profile("cosine", center=0.5))
    assert rep.is_onb and rep.agree
    assert rep.sup_deviation < 1e-10


def test_periodization_bump_is_not_onb():
    rep = zd_periodization(periodization_profile("bump"))
    assert not rep.is_onb
    assert rep.agree


def test_periodization_resolution_validated():
    prof = periodization_profile("indicator", lower=[0.0], upper=[1.0])
    with pytest.raises(ValueError, match="resolution"):
        zd_periodization(prof, resolution=1)
    with pytest.raises(ValueError, match="unknown periodization profile"):
        periodization_profile("gaussian")


def test_periodization_profile_rejects_parameters_of_other_kinds():
    with pytest.raises(TypeError, match="scale"):
        periodization_profile("triangle", lower=0.0, upper=2.0, scale=2.0)


@pytest.mark.parametrize("nodes", [1, 2])
def test_an_exact_transfer_predicts_from_the_exact_extremes(nodes):
    # 1 + x ranges over [1, 2] on the unit interval, and its samples at one
    # or two midpoints lie strictly inside. Both Grams are exact, and the
    # translation bounds spread past the samples' window: only the exact
    # extremes predict a sandwich that holds.
    weight = affine_weight(UNIT, 1.0, [1.0], nodes_per_axis=nodes)
    assert (weight.exact_inf, weight.exact_sup) == (1.0, 2.0)
    assert 1.0 < weight.inf_mod <= weight.sup_mod < 2.0
    rep = verify_riesz_transfer(UNIT, lattice_truncation(-20, 20), weight)
    exp_b, trans_b = rep.exp_bounds, rep.translation_bounds
    assert rep.sandwich_holds
    assert (rep.predicted_lower, rep.predicted_upper) == (exp_b.lower, 4.0 * exp_b.upper)
    assert trans_b.lower < weight.inf_mod ** 2 * exp_b.lower * (1.0 - 1e-2)
    assert trans_b.upper > weight.sup_mod ** 2 * exp_b.upper * (1.0 + 1e-2)
    # The report keeps the samples' extremes, and flags them.
    assert (rep.inf_mod, rep.sup_mod) == (weight.inf_mod, weight.sup_mod)
    assert rep.weight_resolution_flagged


def test_affine_transfers_on_boxes_take_no_quadrature(monkeypatch):
    def refuse(*args):
        raise AssertionError("an affine Gram on boxes took a quadrature route")
    monkeypatch.setattr(spectra, "_pairwise_quadrature", refuse)
    monkeypatch.setattr(spectra, "_quadrature_table", refuse)
    union = make_domain([Box([0.0, 0.0], [1.0, 1.0]), Box([1.25, 0.0], [1.75, 0.5])])
    for domain, freqs, gradient in (
            (UNIT, FrequencySet(np.arange(-20.0, 20.0) + Pcg32(3).uniforms(40, -0.2, 0.2)), [0.7]),
            (UNIT, lattice_truncation(-20, 20), [0.7]),
            (make_domain([Box([0.0, 0.0], [1.0, 1.0])]), lattice_truncation(-4, 3, 2),
             [0.6, -0.4]),
            (union, lattice_truncation(-4, 3, 2), [0.6, -0.4])):
        rep = verify_riesz_transfer(domain, freqs, affine_weight(domain, 2.5, gradient, 32))
        assert rep.sandwich_holds


def node_side_operators(domain, freqs, weight):
    """The weighted and the unweighted frame operator V V* on the weight's
    support, V = diag(u) P, formed from the complex phase matrix P."""
    mask = weight.support_mask
    phases = np.exp(-2j * np.pi * (weight.rule.nodes[mask] @ freqs.points.T))
    root = np.sqrt(weight.rule.weights[mask])
    return [v @ v.conj().T for v in ((root * weight.values[mask])[:, np.newaxis] * phases,
                                     root[:, np.newaxis] * phases)]


FRAME_DOMAIN = make_domain([Box(0.1, 0.9)])
# Frequency sets of 40 members: a range, whose Grams are difference tables,
# and a Kadec set, whose Grams take the pairwise route.
FRAME_FREQS = {
    "range": lattice_truncation(-20, 19),
    "kadec": FrequencySet(np.arange(-20.0, 20.0) + Pcg32(3).uniforms(40, -0.2, 0.2)),
}


@pytest.mark.parametrize("freqs", FRAME_FREQS)
def test_a_frame_transfer_with_more_nodes_than_frequencies_forms_no_node_operator(
        freqs, monkeypatch):
    def refuse(*args):
        raise AssertionError("a frame transfer with more nodes than frequencies took the "
                             "node side")
    # The node kernel and the operator solve; a range's Grams are tables,
    # so they take no pairwise route either.
    monkeypatch.setattr(paley_wiener, "_pairwise_quadrature", refuse)
    monkeypatch.setattr(paley_wiener, "frame_bounds_of_operator", refuse)
    if freqs == "range":
        monkeypatch.setattr(spectra, "_pairwise_quadrature", refuse)
    rep = verify_frame_transfer(FRAME_DOMAIN, FRAME_FREQS[freqs],
                                bump_window(FRAME_DOMAIN, 1.0, 41))
    assert rep.space_dim == 41 and rep.n_vectors == 40
    assert rep.sandwich_holds
    assert rep.weighted_bounds.lower == rep.unweighted_bounds.lower == 0.0


@pytest.mark.parametrize("freqs", FRAME_FREQS)
@pytest.mark.parametrize("profile", ["bump", "constant"])
def test_one_node_past_the_frequencies_the_bounds_are_the_node_operators(freqs, profile):
    # N = n + 1: V V* has rank at most n < N, so both lower bounds are 0
    # exactly, by rank; the upper bounds are those of the N x N operators.
    bump = bump_window(FRAME_DOMAIN, 1.0, 41)
    weight = bump if profile == "bump" else constant_weight(FRAME_DOMAIN, 0.6 - 0.8j,
                                                            rule=bump.rule)
    rep = verify_frame_transfer(FRAME_DOMAIN, FRAME_FREQS[freqs], weight)
    operators = node_side_operators(FRAME_DOMAIN, FRAME_FREQS[freqs], weight)
    for bounds, operator in zip((rep.weighted_bounds, rep.unweighted_bounds), operators):
        _, hi = oracles.eigh_extreme_eigenvalues(operator)
        assert bounds.lower == 0.0
        assert bounds.verdict == "degenerate" and bounds.condition is None
        assert abs(bounds.upper - hi) <= 1e-12 * max(1.0, hi)
        assert hi <= bounds.upper + bounds.margin


@pytest.mark.parametrize("freqs", FRAME_FREQS)
def test_a_rank_deficient_frame_transfer_factors_only_for_its_upper_bounds(freqs, monkeypatch):
    # Both lower bounds are 0 by rank, so each solved matrix is factored
    # once, for lambda_max, where eigen_bounds factors it twice; the upper
    # bounds and margins stay eigen_bounds' own.
    calls = {"eigvalsh": 0, "cholesky": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(np.linalg, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(np.linalg, name, counted)
    grams = []
    deficient = paley_wiener._rank_deficient_bounds
    monkeypatch.setattr(paley_wiener, "_rank_deficient_bounds",
                        lambda gram: grams.append(gram) or deficient(gram))
    rep = verify_frame_transfer(FRAME_DOMAIN, FRAME_FREQS[freqs],
                                bump_window(FRAME_DOMAIN, 1.0, 41))
    assert calls["cholesky"] == calls["eigvalsh"] > 0
    monkeypatch.undo()
    for bounds, gram in zip((rep.unweighted_bounds, rep.weighted_bounds), grams):
        full = eigen_bounds(gram.operand, scan=gram.scan)
        assert (bounds.upper, bounds.margin) == (full.lambda_max, full.margin)


@pytest.mark.parametrize("freqs", FRAME_FREQS)
def test_as_many_nodes_as_frequencies_keep_the_node_side(freqs, monkeypatch):
    kernels, solved = [], []
    pairwise, of_operator = paley_wiener._pairwise_quadrature, paley_wiener.frame_bounds_of_operator
    monkeypatch.setattr(paley_wiener, "_pairwise_quadrature",
                        lambda *args: kernels.append(args[2].shape) or pairwise(*args))
    monkeypatch.setattr(paley_wiener, "frame_bounds_of_operator",
                        lambda m: solved.append(m.shape) or of_operator(m))
    weight = bump_window(FRAME_DOMAIN, 1.0, 40)
    rep = verify_frame_transfer(FRAME_DOMAIN, FRAME_FREQS[freqs], weight)
    assert kernels == [(40, 1)] and solved == [(40, 40)] * 2
    operators = node_side_operators(FRAME_DOMAIN, FRAME_FREQS[freqs], weight)
    for bounds, operator in zip((rep.weighted_bounds, rep.unweighted_bounds), operators):
        lo, hi = oracles.eigh_extreme_eigenvalues(operator)
        assert abs(bounds.upper - hi) <= 1e-12 * max(1.0, hi)
        assert bounds.lower - bounds.margin <= max(lo, 0.0) <= bounds.lower + bounds.margin

