"""Vector-valued time-frequency systems with factorizing Gram matrices.

A system member carries a modulation on the base domain and a translate
of a bandlimited window. Inner products split into a product of the two
component inner products, so the product Gram is the Kronecker product
of the modulation Gram with the translation Gram. It is never formed:
its distance from the identity is read from the factors' entries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import Domain
from .paley_wiener import SpectralWeight, translation_gram
from .spectra import FrequencySet, GramMatrix, OnbVerdict, exp_gram, is_orthonormal_system

# Base domains this far from unit measure cannot carry orthonormal exponentials.
UNIT_MEASURE_RTOL = 1e-9

_NOTE = ("orthonormality is certified for the listed modulations and translations only; "
         "nothing is claimed beyond this truncation. The product's deviation comes from "
         "its factors' entries, so equivalent follows from the factors by construction; "
         "the test suite's per-member product Gram is the independent route")


def _unit_measure(base_domain: Domain) -> Domain:
    # Orthonormal exponentials need a base domain of unit measure.
    if abs(base_domain.measure - 1.0) > UNIT_MEASURE_RTOL:
        raise ValueError(
            f"base domain measure {base_domain.measure} is not 1; "
            "normalize the domain before an orthonormality check")
    return base_domain


def gabor_gram(base_domain: Domain, modulations: FrequencySet, translations: FrequencySet,
               window: SpectralWeight) -> tuple[GramMatrix, GramMatrix]:
    """The factor Grams (modulation, translation) of the product system,
    whose Gram is np.kron(modulation.matrix, translation.matrix): row r
    pairs translation r % n_translations with modulation r // n_translations.
    """
    return (exp_gram(base_domain, modulations),
            translation_gram(window.domain, translations, window))


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
    mod_gram, trans_gram = gabor_gram(_unit_measure(base_domain), modulations,
                                      translations, window)
    mod_v = is_orthonormal_system(mod_gram, tol)
    trans_v = is_orthonormal_system(trans_gram, tol)
    # max |G kron H - I| for the centred factors G and H: the product's
    # diagonal is the outer product of theirs, and an entry g_ij h_kl off it
    # has i != j or k != l, so the largest such modulus is the larger of
    # off(G) top(H) and top(G) off(H), from their scans. Rounding is
    # monotone, so for float64 factors this is the dense value to the last
    # bit; for complex ones |g| |h| and |g h| differ by a few ulp.
    g, h = mod_gram.scan, trans_gram.scan
    trans_diag = trans_gram.operand.diagonal()
    diagonal = np.multiply.outer(mod_gram.operand.diagonal(), trans_diag)
    deviation = float(np.max(np.abs(diagonal - 1.0),
                             initial=max(g.off_diagonal * h.top, g.top * h.off_diagonal)))
    gabor_v = OnbVerdict(deviation <= tol, deviation)
    return VvOnbReport(gabor_v, mod_v, trans_v,
                       window_normalized=bool(np.max(np.abs(trans_diag.real - 1.0)) <= tol),
                       equivalent=gabor_v.is_onb == (mod_v.is_onb and trans_v.is_onb),
                       note=_NOTE)
