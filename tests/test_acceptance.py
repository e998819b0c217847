"""End-to-end acceptance checks, one test per shipped guarantee.

Each test is self-timed where a runtime budget is part of the guarantee.
Seeds, tolerances, and fixture values are pinned; changing them changes
what the package promises.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

import generators
import oracles
from expbases import (
    Box,
    FrequencySet,
    GroupInstance,
    Pcg32,
    bump_window,
    constant_weight,
    convolution_factorization_check,
    cube_equivalence_check,
    eigen_bounds,
    exp_gram,
    exp_inner_closed,
    gabor_gram,
    indicator_signal,
    indicator_weight,
    is_orthonormal_system,
    kron_residual,
    lattice_truncation,
    make_domain,
    periodization_profile,
    quadrature,
    random_signal,
    shannon_reconstruct,
    smooth_random_signal,
    translation_gram,
    verify_frame_transfer,
    verify_riesz_transfer,
    vv_onb_check,
    zd_periodization,
)
from expbases.cli import main as cli_main

BAND = make_domain([Box(-0.5, 0.5)])
SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def test_01_integer_exponentials_orthonormal_and_cardinal_series_rebuilds():
    started = time.perf_counter()
    gram = exp_gram(BAND, lattice_truncation(-8, 8))
    verdict = is_orthonormal_system(gram)
    assert gram.order == 17
    assert verdict.is_onb
    assert verdict.deviation < 1e-10

    signal = indicator_signal(BAND, quadrature(BAND, 129))
    points = np.linspace(-5.0, 5.0, 101)
    rep = shannon_reconstruct(signal, 16, points)
    assert np.max(np.abs(rep.values - np.sinc(points))) < 1e-12
    assert rep.parseval_ok
    assert time.perf_counter() - started < 1.0


def test_02_weighted_translation_bounds_sandwich_100_seeds():
    started = time.perf_counter()
    for seed in range(100):
        domain, _, freqs, weight = generators.random_scenario(seed)
        rep = verify_riesz_transfer(domain, freqs, weight)
        assert rep.sandwich_holds, f"seed {seed}"
        assert rep.translation_bounds.lower >= rep.predicted_lower * (1.0 - 1e-8), \
            f"seed {seed}"
        assert rep.translation_bounds.upper <= rep.predicted_upper * (1.0 + 1e-8), \
            f"seed {seed}"
    assert time.perf_counter() - started < 30.0


def test_03_constant_weight_transfer_is_tight():
    cases = [
        (make_domain([Box(-0.5, 0.5)]), lattice_truncation(-4, 4), 2.0),
        (make_domain([Box(0.0, 0.6), Box(1.0, 1.5)]),
         FrequencySet([-3.0, -1.0, 0.0, 2.0, 4.5]), 1.5 - 2.0j),
        (make_domain([Box([0.0, 0.0], [1.0, 1.0])]),
         lattice_truncation(-1, 1, dimension=2), 0.5j),
    ]
    for domain, freqs, value in cases:
        rep = verify_riesz_transfer(domain, freqs,
                                    constant_weight(domain, value))
        assert rep.sandwich_holds
        assert rep.translation_bounds.lower == pytest.approx(
            rep.predicted_lower, rel=1e-9)
        assert rep.translation_bounds.upper == pytest.approx(
            rep.predicted_upper, rel=1e-9)


def test_04_vanishing_window_frame_bounds_carry_caveat():
    domain = make_domain([Box(0.25, 0.75)])
    window = bump_window(domain, steepness=1.0, nodes_per_axis=16)
    rep = verify_frame_transfer(domain, lattice_truncation(-8, 8), window)
    assert rep.sandwich_holds
    assert rep.n_vectors == 17
    # nothing beyond a frame-style bound is claimed for this window
    assert rep.weighted_bounds.verdict in {"frame_only_not_tested", "degenerate"}
    assert rep.unweighted_bounds.verdict != "riesz_basis"
    assert rep.note


def test_05_division_roundtrip_and_quotient_bound_20_seeds():
    for seed in range(20):
        rng = Pcg32(seed)
        domain = generators.random_interval_domain(rng)
        rule = quadrature(domain, 48)
        weight = generators.random_nonvanishing_weight(rng, domain, rule)
        if seed % 2:
            signal = smooth_random_signal(domain, rule, rng)
        else:
            signal = random_signal(domain, rule, rng)
        rep = convolution_factorization_check(domain, weight, signal)
        assert rep.residual < 1e-12, f"seed {seed}"
        assert rep.bound_holds, f"seed {seed}"
        assert rep.quotient_norm <= (1.0 + 1e-10) * rep.signal_norm / weight.inf_mod


def test_06_cube_complement_and_spectrum_families_agree():
    started = time.perf_counter()
    for order in range(1, 25):
        for side in range(1, order + 1):
            if order % side:
                continue
            rep = cube_equivalence_check(GroupInstance([order]), side)
            assert rep.equal, f"order {order}, side {side}"
            assert rep.complements.exhaustive and rep.spectra.exhaustive
    square = cube_equivalence_check(GroupInstance([6, 6]), 2)
    assert square.equal
    assert square.n_complements == square.n_spectra == 3
    assert time.perf_counter() - started < 60.0


def test_07_product_system_gram_factorizes_50_seeds():
    for seed in range(50):
        rng = Pcg32(seed)
        n_mod = 2 + rng.randint(3)
        n_trans = 2 + rng.randint(3)
        modulations = generators.jittered_integer_freqs(rng, 1, n_mod, reach=4)
        translations = generators.jittered_integer_freqs(rng, 1, n_trans, reach=4)
        window_domain = generators.random_interval_domain(rng)
        rule = quadrature(window_domain, 24)
        window = generators.random_nonvanishing_weight(rng, window_domain, rule)
        full = gabor_gram(BAND, modulations, translations, window)
        mod_gram = exp_gram(BAND, modulations)
        trans_gram = translation_gram(window_domain, translations, window)
        assert kron_residual(full, mod_gram, trans_gram) < 1e-10, f"seed {seed}"
        rep = vv_onb_check(BAND, modulations, translations, window)
        assert rep.equivalent, f"seed {seed}"

    lattice = lattice_truncation(-1, 1)
    rep = vv_onb_check(BAND, lattice, lattice, indicator_weight(BAND))
    gram = gabor_gram(BAND, lattice, lattice, indicator_weight(BAND))
    assert gram.order == 9
    assert np.max(np.abs(gram.matrix - np.eye(9))) < 1e-10
    assert rep.gabor.is_onb and rep.modulation.is_onb and rep.translation.is_onb
    assert rep.equivalent


def test_08_integer_translate_criterion_matches_gram_route():
    unit = zd_periodization(
        periodization_profile("indicator", lower=[0.0], upper=[1.0]))
    assert unit.sup_deviation < 1e-12
    assert unit.is_onb and unit.gram_is_onb and unit.agree

    half = zd_periodization(
        periodization_profile("indicator", lower=[0.0], upper=[0.5]))
    assert half.sup_deviation == 1.0
    assert not half.is_onb

    profiles = [
        (periodization_profile("indicator", lower=[0.0], upper=[1.0]), True),
        (periodization_profile("indicator", lower=[1.0], upper=[2.0]), True),
        (periodization_profile("indicator", lower=[-0.5], upper=[0.5]), True),
        (periodization_profile("cosine", center=0.5), True),
        (periodization_profile("indicator", lower=[0.0, 0.0], upper=[1.0, 1.0]), True),
        (periodization_profile("indicator", lower=[0.0], upper=[0.5]), False),
        (periodization_profile("indicator", lower=[0.0], upper=[1.0], scale=2.0), False),
        (periodization_profile("triangle", lower=0.0, upper=2.0), False),
        (periodization_profile("bump"), False),
        (periodization_profile("indicator", lower=[0.0], upper=[0.75]), False),
    ]
    for profile, expected in profiles:
        rep = zd_periodization(profile)
        assert rep.agree, profile.name
        assert rep.is_onb is expected, profile.name


def test_09_closed_form_and_solver_cross_checks():
    for seed in range(50):
        rng = Pcg32(seed)
        lo = rng.uniform(-2.0, 2.0)
        width = rng.uniform(0.2, 1.5)
        domain = make_domain([Box(lo, lo + width)])
        a = [rng.uniform(-8.0, 8.0)]
        b = [rng.uniform(-8.0, 8.0)]
        closed = exp_inner_closed(domain, a, b)
        rule = quadrature(domain, 100000)
        phases = np.exp(-2j * np.pi * (a[0] - b[0]) * rule.nodes[:, 0])
        quad = complex(np.sum(rule.weights * phases))
        assert abs(closed - quad) < 1e-6, f"seed {seed}"

    for seed in range(50):
        matrix, lo_true, hi_true = generators.random_psd_with_known_spectrum(seed)
        bounds = eigen_bounds(matrix)
        lo_ref, hi_ref = oracles.extreme_eigenvalues(matrix, seed=seed + 1000)
        assert bounds.lambda_min == pytest.approx(lo_ref, rel=1e-8), f"seed {seed}"
        assert bounds.lambda_max == pytest.approx(hi_ref, rel=1e-8), f"seed {seed}"
        assert bounds.lambda_min == pytest.approx(lo_true, rel=1e-8)
        assert bounds.lambda_max == pytest.approx(hi_true, rel=1e-8)


def strip_wall_time(text: str) -> list[str]:
    return [line for line in text.splitlines() if "wall_time_s" not in line]


def test_10_batch_reports_are_deterministic(tmp_path):
    assert SCENARIO_DIR.is_dir()
    runs = {}
    for label in ("first", "second"):
        out_dir = tmp_path / label
        code = cli_main(["batch", "--dir", str(SCENARIO_DIR),
                         "--out-dir", str(out_dir)])
        assert code == 0
        runs[label] = out_dir
    first_files = sorted(p.name for p in runs["first"].iterdir())
    second_files = sorted(p.name for p in runs["second"].iterdir())
    assert first_files == second_files
    assert len(first_files) == 13  # 12 reports plus the summary
    for name in first_files:
        a = (runs["first"] / name).read_text()
        b = (runs["second"] / name).read_text()
        if name.endswith(".json"):
            assert strip_wall_time(a) == strip_wall_time(b), name
            json.loads(a)
        else:
            assert a == b, name
