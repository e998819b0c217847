"""Dense Hermitian eigenvalue bounds, Kronecker residuals, and a portable
random stream.

The eigensolver route is a full symmetric eigendecomposition behind a
fixed contract: order cap, Hermiticity rejection with the offending entry
named, and a relative residual that must clear a hard ceiling before any
bounds are reported. Test suites hold it against an independent power
iteration oracle, so the two routes never share code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Largest matrix order the dense solver accepts.
ORDER_CAP = 512

# Ceiling on |M - M*| entries before a matrix counts as Hermitian: absolute
# while max |M| is at most one, relative to max |M| above that.
HERMITICITY_TOL = 1e-12

# Ceiling on the reported eigen residual, max_i ||M v_i - w_i v_i|| scaled
# by (max |M| entry) * order.
RESIDUAL_CAP = 1e-8


@dataclass(frozen=True)
class EigenBounds:
    """Extreme eigenvalues of a Hermitian matrix plus the achieved residual."""

    lambda_min: float
    lambda_max: float
    residual: float


def _as_square(matrix) -> np.ndarray:
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def hermitian_defect(matrix) -> tuple[float, tuple[int, int]]:
    """Largest deviation |M[i,j] - conj(M[j,i])| and where it occurs."""
    m = _as_square(matrix)
    diff = np.abs(m - m.conj().T)
    flat = int(np.argmax(diff))
    i, j = np.unravel_index(flat, diff.shape)
    return float(diff[i, j]), (int(i), int(j))


def hermiticity_ceiling(matrix: np.ndarray, tol: float) -> float:
    """tol scaled to the matrix: absolute below unit magnitude, relative otherwise."""
    return tol * max(1.0, float(np.max(np.abs(matrix), initial=0.0)))


def eigen_bounds(matrix) -> EigenBounds:
    """Extreme eigenvalues via a dense symmetric eigendecomposition.

    Rejects non-square input, orders above ORDER_CAP, and matrices whose
    Hermitian defect exceeds HERMITICITY_TOL * max(1, max |M|) (the
    offending entry is named). A decomposition that fails to converge, or
    whose residual exceeds RESIDUAL_CAP, raises instead of returning a
    partial answer.
    """
    m = _as_square(matrix)
    n = m.shape[0]
    if n > ORDER_CAP:
        raise ValueError(f"order {n} exceeds the dense-solver cap {ORDER_CAP}; shrink the truncation")
    defect, (i, j) = hermitian_defect(m)
    ceiling = hermiticity_ceiling(m, HERMITICITY_TOL)
    if defect > ceiling:
        raise ValueError(
            f"matrix is not Hermitian: |M[{i},{j}] - conj(M[{j},{i}])| = {defect:.3e} "
            f"exceeds {ceiling:g}")
    herm = 0.5 * (m + m.conj().T)
    try:
        w, v = np.linalg.eigh(herm)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigendecomposition did not converge: {exc}") from exc
    scale = float(np.max(np.abs(m))) * n
    if scale == 0.0:
        return EigenBounds(0.0, 0.0, 0.0)
    resid_vectors = m @ v - v * w[np.newaxis, :]
    residual = float(np.max(np.linalg.norm(resid_vectors, axis=0))) / scale
    if residual > RESIDUAL_CAP:
        raise RuntimeError(
            f"eigen residual {residual:.3e} exceeds the ceiling {RESIDUAL_CAP}")
    return EigenBounds(float(w[0]), float(w[-1]), residual)


def kron_residual(big, left, right) -> float:
    """Max-abs deviation of ``big`` from the Kronecker product left (x) right.

    Row convention: row = left_index * order(right) + right_index, the
    C-order identification, and the same for columns. GramMatrix-like
    objects may be passed directly; their ``matrix`` attribute is used.
    """
    big = _as_square(getattr(big, "matrix", big))
    left = _as_square(getattr(left, "matrix", left))
    right = _as_square(getattr(right, "matrix", right))
    expected = left.shape[0] * right.shape[0]
    if big.shape[0] != expected:
        raise ValueError(
            f"order mismatch: big has order {big.shape[0]}, factors give {expected}")
    return float(np.max(np.abs(big - np.kron(left, right))))


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

    def uniforms(self, n: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        return np.array([self.uniform(lo, hi) for _ in range(n)])

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
