"""Eigen solver contract, Kronecker layout residual, and the seeded stream."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from expbases import Pcg32, eigen_bounds, hermitian_defect, kron_residual

# First four 32-bit outputs, frozen from evaluating the 64/32 xorshift-rotate
# recipe step by step with integer arithmetic outside the library.
PCG_SEED0_FIRST = [3894649422, 2055130073, 2315086854, 2925816488]
PCG_SEED42_FIRST = [3270867926, 1795671209, 1924641435, 1143034755]


def test_eigen_bounds_diagonal():
    bounds = eigen_bounds(np.diag([1.0, 3.0, 2.0]))
    assert bounds.lambda_min == pytest.approx(1.0, rel=1e-14)
    assert bounds.lambda_max == pytest.approx(3.0, rel=1e-14)
    assert bounds.residual <= 1e-12


def test_eigen_bounds_zero_matrix():
    bounds = eigen_bounds(np.zeros((4, 4)))
    assert (bounds.lambda_min, bounds.lambda_max, bounds.residual) == (0.0, 0.0, 0.0)


def test_non_hermitian_rejected_with_named_entry():
    m = np.eye(3)
    m[0, 2] = 1e-6
    with pytest.raises(ValueError, match=r"M\[0,2\]"):
        eigen_bounds(m)


def test_non_square_rejected():
    with pytest.raises(ValueError, match="square"):
        eigen_bounds(np.zeros((2, 3)))


def test_order_cap_enforced():
    with pytest.raises(ValueError, match="512"):
        eigen_bounds(np.eye(513))


def test_hermitian_defect_locates_worst_entry():
    m = np.eye(3, dtype=complex)
    m[1, 2] = 0.5
    m[2, 1] = 0.25
    defect, (i, j) = hermitian_defect(m)
    assert defect == pytest.approx(0.25)
    assert {i, j} == {1, 2}


@pytest.mark.parametrize("seed", range(5))
def test_eigen_bounds_match_power_iteration(seed):
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    m = b @ b.conj().T
    m = 0.5 * (m + m.conj().T)
    bounds = eigen_bounds(m)
    lo, hi = oracles.extreme_eigenvalues(m, seed=seed + 10)
    assert bounds.lambda_max == pytest.approx(hi, rel=1e-8)
    assert bounds.lambda_min == pytest.approx(lo, rel=1e-8, abs=1e-10)


def test_kron_residual_exact_and_perturbed():
    left = np.array([[1.0, 0.5], [0.5, 2.0]])
    right = np.diag([1.0, 3.0])
    big = np.kron(left, right)
    assert kron_residual(big, left, right) == 0.0
    bumped = big.copy()
    bumped[3, 0] += 2e-7
    assert kron_residual(bumped, left, right) == pytest.approx(2e-7)


def test_kron_residual_row_convention():
    # row = left_index * order(right) + right_index
    left = np.array([[0.0, 1.0], [0.0, 0.0]])
    right = np.eye(2)
    big = np.zeros((4, 4))
    big[0, 2] = 1.0
    big[1, 3] = 1.0
    assert kron_residual(big, left, right) == 0.0


def test_kron_residual_order_mismatch():
    with pytest.raises(ValueError, match="order mismatch"):
        kron_residual(np.eye(5), np.eye(2), np.eye(2))


def test_pcg32_frozen_streams():
    stream = Pcg32(0)
    assert [stream.next_u32() for _ in range(4)] == PCG_SEED0_FIRST
    stream = Pcg32(42)
    assert [stream.next_u32() for _ in range(4)] == PCG_SEED42_FIRST


def test_pcg32_first_output_rederived():
    # Reference arithmetic for the first draw from seed 42, restated here so
    # the frozen lists above cannot drift silently with the implementation.
    mult = 6364136223846793005
    inc = 1442695040888963407
    mask = (1 << 64) - 1
    state = inc
    state = (state + 42) & mask
    state = (state * mult + inc) & mask
    xorshifted = (((state >> 18) ^ state) >> 27) & 0xFFFFFFFF
    rot = state >> 59
    expected = ((xorshifted >> rot) | (xorshifted << ((32 - rot) & 31))) & 0xFFFFFFFF
    assert expected == PCG_SEED42_FIRST[0]
    assert Pcg32(42).next_u32() == expected


def test_next_u64_packs_high_word_first():
    a = Pcg32(7)
    b = Pcg32(7)
    hi, lo = b.next_u32(), b.next_u32()
    assert a.next_u64() == (hi << 32) | lo


def test_uniforms_deterministic_and_in_range():
    xs = Pcg32(7).uniforms(200, -2.0, 5.0)
    ys = Pcg32(7).uniforms(200, -2.0, 5.0)
    assert np.array_equal(xs, ys)
    assert np.all((xs >= -2.0) & (xs < 5.0))


@given(seed=st.integers(0, 2**32 - 1), bound=st.integers(1, 1000))
@settings(max_examples=50, deadline=None)
def test_randint_stays_in_range(seed, bound):
    assert 0 <= Pcg32(seed).randint(bound) < bound


def test_randint_rejects_bad_bound():
    with pytest.raises(ValueError, match="bound"):
        Pcg32(0).randint(0)


def test_distinct_indices_exhaust_and_sample():
    full = Pcg32(3).distinct_indices(10, 10)
    assert sorted(full) == list(range(10))
    part = Pcg32(3).distinct_indices(50, 5)
    assert len(set(part)) == 5
    with pytest.raises(ValueError, match="distinct"):
        Pcg32(3).distinct_indices(4, 5)
