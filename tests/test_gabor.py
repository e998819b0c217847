"""Product time-frequency systems and their factorizing Gram matrices."""

import json

import numpy as np
import pytest

import generators
import oracles
from expbases import (
    Box,
    FrequencySet,
    affine_weight,
    bump_window,
    cli,
    constant_weight,
    exp_gram,
    gabor_gram,
    indicator_weight,
    lattice_truncation,
    make_domain,
    translation_gram,
    vv_onb_check,
)

BASE = make_domain([Box(-0.5, 0.5)])


def entrywise_product_gram(base_domain, modulations, translations, window):
    """Direct double loop over member pairs, no Kronecker shortcut."""
    n_mod = modulations.size
    n_trans = translations.size
    mod = exp_gram(base_domain, modulations).matrix
    trans = translation_gram(window.domain, translations, window).matrix
    order = n_mod * n_trans
    out = np.zeros((order, order), dtype=complex)
    for r in range(order):
        for c in range(order):
            out[r, c] = (mod[r // n_trans, c // n_trans]
                         * trans[r % n_trans, c % n_trans])
    return out


def test_gram_matches_entrywise_oracle():
    # The layout gabor_gram documents for the product it never forms.
    mods = FrequencySet([0.0, 0.5])
    trans = FrequencySet([-1.0, 0.0, 1.0])
    window = indicator_weight(BASE, nodes_per_axis=8)
    mod_gram, trans_gram = gabor_gram(BASE, mods, trans, window)
    oracle = entrywise_product_gram(BASE, mods, trans, window)
    assert (mod_gram.order, trans_gram.order) == (2, 3)
    assert np.array_equal(np.kron(mod_gram.matrix, trans_gram.matrix), oracle)


def test_product_oracle_rejects_a_swapped_layout():
    # The same entries with the modulation index cycling fastest fail the
    # 1e-10 comparison of acceptance 7 on every one of its seeds.
    for seed in range(50):
        mods, trans, window = generators.random_product_system(seed)
        oracle = oracles.product_system_gram(BASE, mods, trans, window)
        swapped = np.kron(translation_gram(window.domain, trans, window).matrix,
                          exp_gram(BASE, mods).matrix)
        assert np.max(np.abs(swapped - oracle)) > 1e-10, f"seed {seed}"


def test_gram_provenance_tracks_factors():
    mods = FrequencySet([0.0])
    trans = FrequencySet([0.0, 1.0])
    for window in (indicator_weight(BASE), constant_weight(BASE, 1.0 + 1.0j, nodes_per_axis=16)):
        assert [g.provenance for g in gabor_gram(BASE, mods, trans, window)] == ["closed_form"] * 2
    bump = bump_window(make_domain([Box(0.0, 1.0)]), 1.0, 16)
    assert [g.provenance for g in gabor_gram(BASE, mods, trans, bump)] == ["closed_form",
                                                                          "quadrature"]


# Windows of the three kinds the benchmark's 16 x 32 products carry, on
# off-centre unit intervals, with (modulations, translations): the
# indicator and unimodular constant windows give float64 factors, the
# affine window a complex translation factor. Half steps put the product's
# largest deviation off its diagonal, in one factor or the other.
OFF_CENTRE_BAND = make_domain([Box(0.375, 1.375)])
WINDOW_BAND = make_domain([Box(-0.625, 0.375)])
HALF_STEPS = FrequencySet(np.arange(-8, 8) * 0.5)
PRODUCTS = {
    "indicator": (indicator_weight(WINDOW_BAND), lattice_truncation(-8, 7),
                  lattice_truncation(-17, 14)),
    "constant": (constant_weight(WINDOW_BAND, np.exp(2.1j)), lattice_truncation(-8, 7),
                 lattice_truncation(-17, 14)),
    "affine": (affine_weight(WINDOW_BAND, 2.4, [-0.7], 64), lattice_truncation(-8, 7),
               lattice_truncation(-17, 14)),
    "half-step-translations": (indicator_weight(WINDOW_BAND), lattice_truncation(-8, 7),
                               HALF_STEPS),
    "half-step-modulations": (indicator_weight(WINDOW_BAND), HALF_STEPS,
                              lattice_truncation(-17, 14)),
}


@pytest.mark.parametrize("case", PRODUCTS)
def test_the_product_deviation_is_the_kron_products(case):
    # max |G kron H - I| read from the factors: bitwise the dense value for
    # float64 factors, within 4 ulp of it for a complex factor.
    weight, mods, trans = PRODUCTS[case]
    mod_gram, trans_gram = gabor_gram(OFF_CENTRE_BAND, mods, trans, weight)
    product = np.kron(mod_gram.centred, trans_gram.centred)
    want = np.max(np.abs(product - np.eye(product.shape[0])))
    got = vv_onb_check(OFF_CENTRE_BAND, mods, trans, weight).gabor.deviation
    if product.dtype == np.float64:
        assert case != "affine"
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
    else:
        assert case == "affine"
        assert abs(got - want) <= 4 * np.spacing(want)


def test_a_1024_member_product_runs_with_no_kronecker_product(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.kron called")
    monkeypatch.setattr(np, "kron", refuse)
    scenario = tmp_path / "gabor.json"
    scenario.write_text(json.dumps({
        "name": "gabor-16x64", "command": "gabor",
        "parameters": {"base_domain": {"boxes": [[-0.5, 0.5]]},
                       "modulations": {"range": [0, 15]}, "translations": {"range": [0, 63]},
                       "window": {"domain": {"boxes": [[-0.5, 0.5]]},
                                  "weight": {"profile": "indicator"}}}}))
    out = tmp_path / "report.json"
    assert cli.main(["gabor", "--scenario", str(scenario), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["results"]["system_order"] == 1024
    assert report["verdicts"]["gabor_is_onb"] and report["verdicts"]["equivalent"]


def test_onb_case_integer_lattice():
    mods = lattice_truncation(-2, 2)
    trans = lattice_truncation(-2, 2)
    rep = vv_onb_check(BASE, mods, trans, indicator_weight(BASE))
    assert rep.gabor.is_onb
    assert rep.modulation.is_onb and rep.translation.is_onb
    assert rep.window_normalized
    assert rep.equivalent
    assert rep.note


def test_unnormalized_window_breaks_onb_but_not_equivalence():
    mods = lattice_truncation(-1, 1)
    trans = lattice_truncation(-1, 1)
    rep = vv_onb_check(BASE, mods, trans, constant_weight(BASE, 2.0))
    assert not rep.translation.is_onb
    assert not rep.gabor.is_onb
    assert rep.modulation.is_onb
    assert not rep.window_normalized
    assert rep.equivalent


def test_fractional_translations_break_onb_consistently():
    mods = lattice_truncation(-1, 1)
    trans = FrequencySet([0.0, 0.5])
    rep = vv_onb_check(BASE, mods, trans, indicator_weight(BASE))
    assert not rep.translation.is_onb
    assert not rep.gabor.is_onb
    assert rep.equivalent


def test_non_unit_measure_base_rejected():
    wide = make_domain([Box(0.0, 2.0)])
    with pytest.raises(ValueError, match="measure"):
        vv_onb_check(wide, FrequencySet([0.0]), FrequencySet([0.0]),
                     indicator_weight(wide))
