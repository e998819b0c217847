"""Dense Hermitian eigenvalue bounds and a portable random stream.

The eigensolver route computes eigenvalues only, behind a fixed contract:
order cap, Hermiticity rejection with the offending entry named, and an
inertia certificate whose margin must clear a hard ceiling before any
bounds are reported. Test suites hold it against an independent power
iteration oracle and an eigenvector residual oracle, so the routes never
share code.

A caller that knows a unimodular diagonal D under which D* M D should be
real (the centre phase of a Gram, see spectra.exp_gram) passes it as
phase. The rotated matrix is solved in real arithmetic when its measured
imaginary part clears the Hermiticity ceiling; Weyl's inequality then
widens the margin by the dropped part's Frobenius norm and the rotation's
own rounding. Any other matrix keeps the complex solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Largest matrix order the dense solver accepts.
ORDER_CAP = 512

# Ceiling on |M - M*| entries before a matrix counts as Hermitian: absolute
# while max |M| is at most one, relative to max |M| above that.
HERMITICITY_TOL = 1e-12

# Ceiling on the certificate margin scaled by (max |M| entry) * order.
RESIDUAL_CAP = 1e-8

# Entries per block of rows in the Hermitian defect and rotation scans.
_DEFECT_BLOCK_ENTRIES = 2 ** 16

# Rounding of one rotated entry, conj(d_i) * M[i,j] * d_j, and of the
# symmetrization after it, in units of eps * |M[i,j]|.
_ROTATION_ROUNDING = 4


@dataclass(frozen=True)
class EigenBounds:
    """Extreme eigenvalues of a Hermitian matrix and their certificate margin.

    Every eigenvalue lies in [lambda_min - margin, lambda_max + margin].
    """

    lambda_min: float
    lambda_max: float
    margin: float


def _as_square(matrix) -> np.ndarray:
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def hermitian_defect(matrix) -> tuple[float, tuple[int, int]]:
    """Largest deviation |M[i,j] - conj(M[j,i])| and where it occurs.

    The deviation is symmetric in (i, j), so its first maximum in row-major
    order lies on or above the diagonal. One pass over rows i and columns
    j >= i, in blocks of rows and with no conjugate copy of M, finds the
    same value and entry as a row-major argmax over the whole matrix.
    """
    m = _as_square(matrix)
    n = m.shape[0]
    if n == 0:
        raise ValueError("an empty matrix has no Hermitian defect")
    rows = max(1, _DEFECT_BLOCK_ENTRIES // n)
    defect, at = -np.inf, (0, 0)
    for start in range(0, n, rows):
        upper = m[start:start + rows, start:]
        lower = m[start:, start:start + rows].T
        # M[i,j] - conj(M[j,i]), formed part by part without conjugating.
        block = np.empty(upper.shape, dtype=complex)
        np.subtract(upper.real, lower.real, out=block.real)
        np.add(upper.imag, lower.imag, out=block.imag)
        block = np.abs(block)
        k = int(np.argmax(block))
        value = block.flat[k]
        # A strict comparison keeps the earliest row; a NaN wins as in argmax.
        if value > defect or np.isnan(value):
            defect, at = float(value), (start + k // block.shape[1], start + k % block.shape[1])
            if np.isnan(value):
                break
    return defect, at


def hermiticity_ceiling(top: float, tol: float) -> float:
    """tol scaled to a matrix whose largest entry has modulus top: absolute
    below unit magnitude, relative otherwise."""
    return tol * max(1.0, top)


def _positive_definite(matrix: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        return False
    return True


def _real_rotation(m: np.ndarray, phase: np.ndarray, ceiling: float):
    """R = conj(d_i) M[i,j] d_j as (Re R, ||Im R||_F), or None as soon as an
    entry of Im R exceeds ceiling (or is NaN).

    One pass over blocks of rows, like hermitian_defect; only Re R is kept
    whole, so no n x n complex array is formed, and a matrix that is not
    real under the phase stops at its first failing block.
    """
    n = m.shape[0]
    rows = max(1, _DEFECT_BLOCK_ENTRIES // n)
    real = np.empty((n, n))
    dropped_sq = 0.0
    for start in range(0, n, rows):
        block = m[start:start + rows] * np.multiply.outer(phase[start:start + rows].conj(), phase)
        imag = np.abs(block.imag).ravel()
        if not np.max(imag) <= ceiling:
            return None
        dropped_sq += float(np.dot(imag, imag))
        real[start:start + rows] = block.real
    return real, float(np.sqrt(dropped_sq))


def eigen_bounds(matrix, phase=None) -> EigenBounds:
    """Extreme eigenvalues, certified by Sylvester's law of inertia.

    Rejects non-square input, orders above ORDER_CAP, and matrices whose
    Hermitian defect exceeds HERMITICITY_TOL * max(1, max |M|) (the
    offending entry is named). eigvalsh gives lambda_min and lambda_max;
    Cholesky factorizations of H - (lambda_min - margin) I and
    (lambda_max + margin) I - H then show that no eigenvalue of the solved
    matrix H lies outside the reported range by more than margin. The
    margin starts at order * eps * max(|lambda_min|, |lambda_max|) and
    doubles after a failed factorization. An eigensolver that fails to
    converge, or a margin that would exceed RESIDUAL_CAP * max |M| * order,
    raises instead of returning a partial answer.

    H is the Hermitian part (M + M*) / 2, solved in complex arithmetic,
    unless phase is given: a length-order vector d of unimodular entries.
    Then R = conj(d_i) M[i,j] d_j = D* M D, whose Hermitian part has the
    spectrum of M's. If every |Im R[i,j]| is within the Hermiticity
    ceiling above, H is the real symmetric (Re R + Re R^T) / 2, solved in
    float64. By Weyl's inequality the Hermitian parts of R and of M differ
    from H in each eigenvalue by at most ||Im R||_F plus the rotation's
    rounding (_ROTATION_ROUNDING * eps, and 2 delta + delta^2 for
    delta = max ||d_j| - 1|, times order * max |M|), so that sum is added
    to the certified margin. Otherwise the complex solve runs unchanged.
    """
    m = _as_square(matrix)
    n = m.shape[0]
    if n > ORDER_CAP:
        raise ValueError(f"order {n} exceeds the dense-solver cap {ORDER_CAP}; shrink the truncation")
    top = float(np.max(np.abs(m)))
    defect, (i, j) = hermitian_defect(m)
    ceiling = hermiticity_ceiling(top, HERMITICITY_TOL)
    if defect > ceiling:
        raise ValueError(
            f"matrix is not Hermitian: |M[{i},{j}] - conj(M[{j},{i}])| = {defect:.3e} "
            f"exceeds {ceiling:g}")
    if phase is not None:
        phase = np.asarray(phase, dtype=complex)
        if phase.shape != (n,):
            raise ValueError(f"phase must have shape ({n},), got {phase.shape}")
    scale = top * n
    if scale == 0.0:
        return EigenBounds(0.0, 0.0, 0.0)
    eps = np.finfo(float).eps
    # The eigensolver and both certificates read this one matrix; slack is
    # the Weyl distance from its spectrum to that of M's Hermitian part.
    slack = 0.0
    rotated = None if phase is None else _real_rotation(m, phase, ceiling)
    if rotated is None:
        herm = 0.5 * (m + m.conj().T)
    else:
        herm, dropped = rotated
        herm += herm.T
        herm *= 0.5
        delta = float(np.max(np.abs(np.abs(phase) - 1.0)))
        slack = dropped + (_ROTATION_ROUNDING * eps + delta * (2.0 + delta)) * scale
    try:
        w = np.linalg.eigvalsh(herm)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigenvalue solver did not converge: {exc}") from exc
    lo, hi = float(w[0]), float(w[-1])
    # max |M| <= max |lambda| for a Hermitian M; top only keeps the margin
    # positive should the solver return zeros for a nonzero M. np.max
    # propagates a NaN, which the gate below then rejects.
    margin = float(n * eps * np.max(np.abs([lo, hi, top])))
    below = above = False
    while True:
        # Written so that NaN or infinite values fail the gate too.
        if not margin + slack <= RESIDUAL_CAP * scale < np.inf:
            raise RuntimeError(
                f"eigen certificate margin {(margin + slack) / scale:.3e} exceeds the ceiling "
                f"{RESIDUAL_CAP}")
        # A factorization that succeeds at one margin succeeds at any larger
        # one. Each operand is a copy of herm with its diagonal shifted.
        if not below:
            shifted = herm.copy()
            shifted.flat[::n + 1] -= lo - margin
            below = _positive_definite(shifted)
        if not above:
            shifted = -herm
            shifted.flat[::n + 1] += hi + margin
            above = _positive_definite(shifted)
        if below and above:
            return EigenBounds(lo, hi, margin + slack)
        margin *= 2.0


class Pcg32:
    """Deterministic 32-bit PCG stream (XSH-RR output on a 64-bit LCG).

    The recurrence and output stage are fixed by these constants, so the
    stream is identical on every platform and Python build:

        state' = (state * 6364136223846793005 + 1442695040888963407) mod 2^64
        out    = rotr32(((state >> 18) xor state) >> 27, state >> 59)

    Seeding zeroes the state, advances once, adds the 64-bit seed, and
    advances again. Uniform doubles take 53 bits from two consecutive
    32-bit outputs (high word first).
    """

    _MULT = 6364136223846793005
    _INC = 1442695040888963407
    _M64 = (1 << 64) - 1

    def __init__(self, seed: int):
        self._state = 0
        self._advance()
        self._state = (self._state + (int(seed) & self._M64)) & self._M64
        self._advance()

    def _advance(self) -> None:
        self._state = (self._state * self._MULT + self._INC) & self._M64

    def next_u32(self) -> int:
        s = self._state
        self._advance()
        xorshifted = (((s >> 18) ^ s) >> 27) & 0xFFFFFFFF
        rot = s >> 59
        return ((xorshifted >> rot) | (xorshifted << ((32 - rot) & 31))) & 0xFFFFFFFF

    def next_u64(self) -> int:
        hi = self.next_u32()
        lo = self.next_u32()
        return (hi << 32) | lo

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        a = self.next_u32() >> 5
        b = self.next_u32() >> 6
        unit = (a * 67108864.0 + b) * (1.0 / 9007199254740992.0)
        return lo + (hi - lo) * unit

    def _states(self, count: int) -> np.ndarray:
        """The next count states as uint64; the stream moves past them.

        Doubling by LCG jump-ahead: with the first k states known, the next
        k are state * MULT^k + INC * (MULT^(k-1) + ... + 1) mod 2^64, with
        the jump coefficients in exact integer arithmetic.
        """
        states = np.empty(count, dtype=np.uint64)
        if count == 0:
            return states
        states[0] = self._state
        mult, inc, k = self._MULT, self._INC, 1
        while k < count:
            take = min(k, count - k)
            states[k:k + take] = states[:take] * np.uint64(mult) + np.uint64(inc)
            mult, inc, k = (mult * mult) & self._M64, (inc * (mult + 1)) & self._M64, 2 * k
        self._state = int(states[-1])
        self._advance()
        return states

    def uniforms(self, n: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        """n values of uniform(lo, hi), bitwise, with the same state after."""
        s = self._states(2 * max(n, 0))
        xorshifted = ((s >> np.uint64(18)) ^ s) >> np.uint64(27) & np.uint64(0xFFFFFFFF)
        rot = s >> np.uint64(59)
        out = ((xorshifted >> rot) | (xorshifted << ((np.uint64(32) - rot) & np.uint64(31)))
               ) & np.uint64(0xFFFFFFFF)
        a = (out[0::2] >> np.uint64(5)).astype(float)
        b = (out[1::2] >> np.uint64(6)).astype(float)
        unit = (a * 67108864.0 + b) * (1.0 / 9007199254740992.0)
        return lo + (hi - lo) * unit

    def randint(self, bound: int) -> int:
        """Uniform integer in [0, bound) via rejection, so no modulo bias."""
        if not 1 <= bound <= 1 << 32:
            raise ValueError(f"bound must be in [1, 2^32], got {bound}")
        limit = (1 << 32) - ((1 << 32) % bound)
        while True:
            x = self.next_u32()
            if x < limit:
                return x % bound

    def distinct_indices(self, bound: int, k: int) -> list[int]:
        """k distinct integers in [0, bound), in draw order."""
        if k > bound:
            raise ValueError(f"cannot draw {k} distinct values from {bound}")
        seen: set[int] = set()
        out: list[int] = []
        while len(out) < k:
            x = self.randint(bound)
            if x not in seen:
                seen.add(x)
                out.append(x)
        return out
