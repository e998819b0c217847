"""Weights, bound transfer, cardinal series, and integer-translate criteria."""

import numpy as np
import pytest

import generators
from expbases import (
    BandlimitedSignal,
    Box,
    FrequencySet,
    Pcg32,
    affine_weight,
    bump_window,
    constant_weight,
    convolution_factorization_check,
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
from expbases import spectra

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


def test_riesz_transfer_rejects_foreign_weight():
    other = make_domain([Box(0.0, 2.0)])
    w = indicator_weight(other, nodes_per_axis=8)
    with pytest.raises(ValueError, match="different domain"):
        verify_riesz_transfer(UNIT, FrequencySet([0.0]), w)


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
