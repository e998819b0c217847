"""Vector-valued time-frequency systems with factorizing Gram matrices.

A system member carries a modulation on the base domain and a translate
of a bandlimited window. Inner products split into a product of the two
component inner products, so the full Gram is the Kronecker product of
the modulation Gram with the translation Gram. Rows follow the kron
layout: the translation index cycles fastest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import Domain
from .paley_wiener import SpectralWeight, translation_gram
from .spectra import (SYSTEM_SIZE_CAP, FrequencySet, GramMatrix, OnbVerdict,
                      exp_gram, is_orthonormal_system)

# Base domains this far from unit measure cannot carry orthonormal exponentials.
UNIT_MEASURE_RTOL = 1e-9

_TRUNCATION_NOTE = ("orthonormality is certified for the listed modulations and "
                    "translations only; nothing is claimed beyond this truncation")


def _product_grams(base_domain: Domain, modulations: FrequencySet,
                   translations: FrequencySet, window: SpectralWeight):
    # The modulation Gram, the translation Gram and their Kronecker product.
    order = modulations.size * translations.size
    if order > SYSTEM_SIZE_CAP:
        raise ValueError(f"system order {order} exceeds the cap {SYSTEM_SIZE_CAP}")
    mod_gram = exp_gram(base_domain, modulations)
    trans_gram = translation_gram(window.domain, translations, window)
    matrix = np.kron(mod_gram.matrix, trans_gram.matrix)
    labels = tuple(
        (tuple(translations.points[r % translations.size]),
         tuple(modulations.points[r // translations.size]))
        for r in range(order))
    closed = mod_gram.provenance == "closed_form" and trans_gram.provenance == "closed_form"
    return mod_gram, trans_gram, GramMatrix(
        matrix, pair_labels=labels, provenance="closed_form" if closed else "quadrature")


def gabor_gram(base_domain: Domain, modulations: FrequencySet,
               translations: FrequencySet, window: SpectralWeight) -> GramMatrix:
    """Gram of the product system, one row per (translation, modulation) pair.

    Row r pairs translation r % n_translations with modulation
    r // n_translations, matching np.kron(modulation_gram, translation_gram).
    """
    return _product_grams(base_domain, modulations, translations, window)[2]


@dataclass(frozen=True)
class VvOnbReport:
    """Joint orthonormality verdicts for the product system and its factors."""

    gabor: OnbVerdict
    modulation: OnbVerdict
    translation: OnbVerdict
    window_normalized: bool
    equivalent: bool
    kron_defect: float
    note: str


def vv_onb_check(base_domain: Domain, modulations: FrequencySet,
                 translations: FrequencySet, window: SpectralWeight,
                 tol: float = 1e-10) -> VvOnbReport:
    """Check that the product system is orthonormal exactly when both factors are.

    The base domain must have unit measure (orthonormal exponentials are
    impossible otherwise); the window's normalization is reported, not
    required.
    """
    if abs(base_domain.measure - 1.0) > UNIT_MEASURE_RTOL:
        raise ValueError(
            f"base domain measure {base_domain.measure} is not 1; "
            "normalize the domain before an orthonormality check")
    mod_gram, trans_gram, full = _product_grams(base_domain, modulations,
                                                translations, window)
    mod_v = is_orthonormal_system(mod_gram, tol)
    trans_v = is_orthonormal_system(trans_gram, tol)
    gabor_v = is_orthonormal_system(full, tol)
    diag = np.real(np.diag(trans_gram.matrix))
    window_normalized = bool(np.max(np.abs(diag - 1.0)) <= tol)
    defect = float(np.max(np.abs(
        full.matrix - np.kron(mod_gram.matrix, trans_gram.matrix))))
    return VvOnbReport(
        gabor=gabor_v,
        modulation=mod_v,
        translation=trans_v,
        window_normalized=window_normalized,
        equivalent=gabor_v.is_onb == (mod_v.is_onb and trans_v.is_onb),
        kron_defect=defect,
        note=_TRUNCATION_NOTE,
    )
