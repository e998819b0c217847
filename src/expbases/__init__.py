"""Numerical toolkit for exponential systems on finite-measure domains."""

# The one version string: pyproject.toml and the command line read it from here.
__version__ = "0.1.0"

from .domain import (Box, Domain, MaskGrid, QuadratureRule, make_domain,
                     make_mask_domain, normalize, quadrature)
from .gabor import VvOnbReport, gabor_gram, vv_onb_check
from .numerics import EigenBounds, Pcg32, eigen_bounds, hermitian_defect
from .paley_wiener import (BandlimitedSignal, FactorizationReport,
                           FrameTransferReport, PeriodizationProfile,
                           PeriodizationReport, SpectralWeight, TransferReport,
                           WskReport, affine_weight, bump_window,
                           constant_weight, convolution_factorization_check,
                           indicator_signal, indicator_weight,
                           periodization_profile, random_signal,
                           shannon_reconstruct, smooth_random_signal,
                           table_weight, translation_gram,
                           verify_frame_transfer, verify_riesz_transfer,
                           zd_periodization)
from .spectra import (BoundsReport, FrequencySet, GramMatrix, OnbVerdict,
                      exp_gram, exp_inner_closed, frame_bounds_of_operator,
                      is_orthonormal_system, lattice_truncation, riesz_bounds)
from .tiling import (CubeReport, GroupInstance, SearchResult, SpectrumVerdict,
                     TilingVerdict, cube_equivalence_check, cube_set,
                     is_spectrum, search_complements, search_spectra, tiles)

__all__ = [
    "BandlimitedSignal", "BoundsReport", "Box", "CubeReport", "Domain",
    "EigenBounds", "FactorizationReport", "FrameTransferReport",
    "FrequencySet", "GramMatrix", "GroupInstance",
    "MaskGrid", "OnbVerdict", "Pcg32", "PeriodizationProfile",
    "PeriodizationReport", "QuadratureRule", "SearchResult", "SpectralWeight",
    "SpectrumVerdict", "TilingVerdict", "TransferReport", "VvOnbReport",
    "WskReport", "affine_weight", "bump_window", "constant_weight",
    "convolution_factorization_check", "cube_equivalence_check", "cube_set",
    "eigen_bounds", "exp_gram", "exp_inner_closed",
    "frame_bounds_of_operator",
    "gabor_gram", "hermitian_defect", "indicator_signal", "indicator_weight",
    "is_orthonormal_system", "is_spectrum",
    "lattice_truncation", "make_domain", "make_mask_domain", "normalize",
    "periodization_profile", "quadrature", "random_signal", "riesz_bounds",
    "search_complements", "search_spectra",
    "shannon_reconstruct", "smooth_random_signal", "table_weight", "tiles",
    "translation_gram", "verify_frame_transfer", "verify_riesz_transfer",
    "vv_onb_check", "zd_periodization",
]
