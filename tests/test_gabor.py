"""Product time-frequency systems and their factorizing Gram matrices."""

import numpy as np
import pytest

import generators
import oracles
from expbases import (
    Box,
    FrequencySet,
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
    mods = FrequencySet([0.0, 0.5])
    trans = FrequencySet([-1.0, 0.0, 1.0])
    window = indicator_weight(BASE, nodes_per_axis=8)
    gram = gabor_gram(BASE, mods, trans, window)
    oracle = entrywise_product_gram(BASE, mods, trans, window)
    assert gram.order == 6
    assert np.array_equal(gram.matrix, oracle)


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
    closed = gabor_gram(BASE, mods, trans, indicator_weight(BASE))
    assert closed.provenance == "closed_form"
    mixed = gabor_gram(BASE, mods, trans,
                       constant_weight(BASE, 1.0 + 1.0j, nodes_per_axis=16))
    assert mixed.provenance == "closed_form"


def test_system_cap_applies_to_product_order():
    mods = lattice_truncation(-12, 12)
    trans = lattice_truncation(-12, 12)
    with pytest.raises(ValueError, match="cap"):
        gabor_gram(BASE, mods, trans, indicator_weight(BASE))


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
