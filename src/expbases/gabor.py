"""Vector-valued time-frequency systems with factorizing Gram matrices.

A system member carries a modulation on the base domain and a translate
of a bandlimited window. Inner products split into a product of the two
component inner products, so the full Gram is the Kronecker product of
the modulation Gram with the translation Gram, and its centred Gram and
phase are the Kronecker products of theirs. Rows follow the kron layout:
the translation index cycles fastest.
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


def _unit_measure(base_domain: Domain) -> Domain:
    # Orthonormal exponentials need a base domain of unit measure.
    if abs(base_domain.measure - 1.0) > UNIT_MEASURE_RTOL:
        raise ValueError(
            f"base domain measure {base_domain.measure} is not 1; "
            "normalize the domain before an orthonormality check")
    return base_domain


def gabor_gram(base_domain: Domain, modulations: FrequencySet,
               translations: FrequencySet, window: SpectralWeight) -> GramMatrix:
    """Gram of the product system, one row per (translation, modulation) pair.

    Row r pairs translation r % n_translations with modulation
    r // n_translations, matching np.kron(modulation_gram, translation_gram):
    (D1 G1 D1*) kron (D2 G2 D2*) = (D1 kron D2)(G1 kron G2)(D1 kron D2)*.
    """
    order = modulations.size * translations.size
    if order > SYSTEM_SIZE_CAP:
        raise ValueError(f"system order {order} exceeds the cap {SYSTEM_SIZE_CAP}")
    mod_gram = exp_gram(base_domain, modulations)
    trans_gram = translation_gram(window.domain, translations, window)
    closed = mod_gram.provenance == "closed_form" and trans_gram.provenance == "closed_form"
    return GramMatrix(np.kron(mod_gram.centred, trans_gram.centred),
                      provenance="closed_form" if closed else "quadrature",
                      phase=np.kron(mod_gram.phase, trans_gram.phase))


@dataclass(frozen=True)
class VvOnbReport:
    """Joint orthonormality verdicts for the product system and its factors."""

    gabor: OnbVerdict
    modulation: OnbVerdict
    translation: OnbVerdict
    window_normalized: bool
    equivalent: bool
    note: str


def vv_onb_check(base_domain: Domain, modulations: FrequencySet,
                 translations: FrequencySet, window: SpectralWeight,
                 tol: float = 1e-10) -> VvOnbReport:
    """Check that the product system is orthonormal exactly when both factors are.

    The base domain must have unit measure (orthonormal exponentials are
    impossible otherwise); the window's normalization is reported, not
    required.
    """
    # The product's verdict reads the Kronecker product gabor_gram forms;
    # each factor's reads that factor's own Gram.
    full = gabor_gram(_unit_measure(base_domain), modulations, translations, window)
    mod_gram = exp_gram(base_domain, modulations)
    trans_gram = translation_gram(window.domain, translations, window)
    mod_v = is_orthonormal_system(mod_gram, tol)
    trans_v = is_orthonormal_system(trans_gram, tol)
    gabor_v = is_orthonormal_system(full, tol)
    diag = trans_gram.operand.diagonal().real
    window_normalized = bool(np.max(np.abs(diag - 1.0)) <= tol)
    return VvOnbReport(
        gabor=gabor_v,
        modulation=mod_v,
        translation=trans_v,
        window_normalized=window_normalized,
        equivalent=gabor_v.is_onb == (mod_v.is_onb and trans_v.is_onb),
        note=_TRUNCATION_NOTE,
    )
