"""Dense Hermitian eigenvalue bounds and a portable random stream.

The eigensolver route computes eigenvalues only, behind a fixed contract:
order cap, Hermiticity rejection with the offending entry named, and an
inertia certificate whose margin must clear a hard ceiling before any
bounds are reported. Test suites hold it against an independent power
iteration oracle and an eigenvector residual oracle, so the routes never
share code.

A matrix keeps its dtype (integers become float64). A float64 matrix is
solved in real arithmetic throughout; a complex one that is real within
the Hermiticity ceiling is solved in real arithmetic with the dropped
part's Frobenius norm added to the margin (Weyl's inequality), and any
other in complex. Which matrices are real is settled where they are built:
spectra integrates every Gram about its domain's centre, and paley_wiener
centres the frequencies of its frame operators. A centrohermitian matrix,
J M J = conj(M) with J the reversal (a Gram on an integer range in
lexicographic order; a frame operator whose nodes and weight are
symmetric in their order), is real in J's even/odd basis, and is solved
there, in two halves when the halves do not couple. No caller says that
a matrix has this structure: eigen_bounds screens one row against its
mirror, and measures every part that must vanish.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

# Largest matrix order the dense solver accepts.
ORDER_CAP = 512

# Ceiling on |M - M*| entries before a matrix counts as Hermitian: absolute
# while max |M| is at most one, relative to max |M| above that.
HERMITICITY_TOL = 1e-12

# Ceiling on the certificate margin scaled by (max |M| entry) * order.
RESIDUAL_CAP = 1e-8

# Entries per block of rows in the Hermitian defect scan.
_DEFECT_BLOCK_ENTRIES = 2 ** 16


@dataclass(frozen=True)
class EigenBounds:
    """Extreme eigenvalues of a Hermitian matrix and their certificate margin.

    Every eigenvalue lies in [lambda_min - margin, lambda_max + margin].
    """

    lambda_min: float
    lambda_max: float
    margin: float


def _as_square(matrix) -> np.ndarray:
    m = np.asarray(matrix)
    m = m.astype(np.result_type(m, float), copy=False)
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
        block = np.abs(upper - lower.conj())
        k = int(np.argmax(block))
        value = block.flat[k]
        # A strict comparison keeps the earliest row; a NaN wins as in argmax.
        if value > defect or np.isnan(value):
            defect, at = float(value), (start + k // block.shape[1], start + k % block.shape[1])
            if np.isnan(value):
                break
    return defect, at


def hermitian_scan(matrix) -> tuple[float, float, tuple[int, int]]:
    """(max |M|, defect, (i, j)): what every Hermiticity gate reads, the
    largest entry modulus and hermitian_defect, from one call."""
    m = _as_square(matrix)
    defect, at = hermitian_defect(m)
    return float(np.max(np.abs(m))), defect, at


def hermiticity_ceiling(top: float, tol: float) -> float:
    """tol scaled to a matrix whose largest entry has modulus top: absolute
    below unit magnitude, relative otherwise."""
    return tol * max(1.0, top)


def _positive_definite(matrix: np.ndarray, shift: float) -> bool:
    """Whether matrix - shift I has a Cholesky factor; matrix is a fresh
    array, shifted in place."""
    matrix.flat[::matrix.shape[0] + 1] -= shift
    try:
        np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        return False
    return True


def _mirrored(m: np.ndarray, ceiling: float) -> bool:
    """Whether M may satisfy J M J = conj(M), J the reversal: the row
    through its largest diagonal entry matches the conjugate of its mirror
    within the ceiling, in O(n). Row 0 would not do: under a window that
    vanishes at the edges it is nearly zero and matches anything. This is
    only a screen; _real_halves measures the whole of what it assumes.
    """
    n = m.shape[0]
    r = int(np.argmax(m.diagonal().real))
    return float(np.max(np.abs(m[n - 1 - r, ::-1] - m[r].conj()))) <= ceiling


def _turned(m: np.ndarray) -> tuple[np.ndarray, int, float]:
    """(U, pairs, scale): M in the even/odd basis of the reversal J,
    T = scale U, with the even half first; pairs = n // 2 is the order of
    the odd half.

    The basis is (e_k + e_Jk)/sqrt(2) for k < Jk = n - 1 - k and e_f for
    the middle index f when n is odd, then (e_k - e_Jk)/sqrt(2), times i
    when M is complex: sums and differences of mirrored rows, then of
    mirrored columns, and then the two coupling blocks times i and -i. T is
    real when J M J = conj(M).
    """
    n = m.shape[0]
    pairs = n // 2
    q = n - pairs
    rows, u = np.empty_like(m), np.empty_like(m)
    for src, out in ((m, rows), (rows.T, u.T)):
        np.add(src[:q], src[::-1][:q], out=out[:q])
        np.subtract(src[:pairs], src[::-1][:pairs], out=out[q:])
    if np.iscomplexobj(u):
        u[:q, q:] *= 1j
        u[q:, :q] *= -1j
    if q > pairs:
        # The middle row and column were added to themselves.
        u[pairs] *= np.sqrt(0.5)
        u[:, pairs] *= np.sqrt(0.5)
    return u, pairs, 0.5


def _real_halves(u: np.ndarray, pairs: int, scale: float,
                 ceiling: float) -> Optional[tuple[list, float]]:
    """The real symmetric matrices whose joint spectrum stands for that of
    the Hermitian part of T = scale U, and the Frobenius norm of what was
    dropped to get them; None when T is not real within the ceiling.

    T is M itself (pairs = 0, scale = 1) or M turned by _turned. Its
    imaginary part is measured, gated at the Hermiticity ceiling and
    dropped, and the symmetric real part of T is solved: its even and odd
    halves apart when the coupling between them is within the ceiling too
    (and is dropped), else whole. Each dropped part moves no eigenvalue by
    more than its Frobenius norm (Weyl).
    """
    dropped = np.abs(u.imag).ravel()
    # Written so that a NaN takes the complex route, as it always has.
    if not scale * float(dropped.max()) <= ceiling:
        return None
    slack = scale ** 2 * float(np.dot(dropped, dropped))
    herm = u.real + u.real.T
    herm *= 0.5 * scale
    q = u.shape[0] - pairs
    coupling = herm[:q, q:]
    if not pairs or not float(np.abs(coupling).max()) <= ceiling:
        return [herm], math.sqrt(slack)
    # The coupling sits above and below the diagonal.
    slack += 2.0 * float(np.vdot(coupling, coupling))
    return [herm[:q, :q], herm[q:, q:]], math.sqrt(slack)


def eigen_bounds(matrix, *, scan: Optional[tuple] = None) -> EigenBounds:
    """Extreme eigenvalues, certified by Sylvester's law of inertia.

    Rejects non-square input, orders above ORDER_CAP, and matrices whose
    Hermitian defect exceeds HERMITICITY_TOL * max(1, max |M|) (the
    offending entry is named). eigvalsh gives lambda_min and lambda_max;
    Cholesky factorizations of H - (lambda_min - margin) I and
    (lambda_max + margin) I - H then show that no eigenvalue of each
    solved matrix H lies outside the reported range by more than margin.
    The margin starts at order * eps * max(|lambda_min|, |lambda_max|) and
    doubles after a failed factorization. An eigensolver that fails to
    converge, or a margin that would exceed RESIDUAL_CAP * max |M| * order,
    raises instead of returning a partial answer.

    The solved matrices are real (_real_halves) whenever M is float64 or
    the parts of M that must vanish are within that Hermiticity ceiling,
    measured on the routes below in turn. When M passes the O(n) screen for
    J M J = conj(M), J the reversal (_mirrored), M is turned into J's
    even/odd basis: two real symmetric halves of orders about n / 2, or
    one real matrix of order n when the halves couple; the margin also
    carries 3 n eps max |M| for the rounding of the basis change. When M
    fails the screen, or the turned matrix is not real, the route is
    (Re M + Re M^T) / 2. By Weyl's inequality the Hermitian part of M
    differs from the solved matrices in each eigenvalue by at most the
    Frobenius norm of the dropped parts, which is added to the certified
    margin. Otherwise the Hermitian part (M + M*) / 2 is solved in
    complex arithmetic.

    scan is hermitian_scan(matrix) when the caller already holds it for
    this very matrix (a GramMatrix carries its own), so the matrix is not
    scanned twice; without it the scan runs here. The gate is the same.
    """
    m = _as_square(matrix)
    n = m.shape[0]
    if n > ORDER_CAP:
        raise ValueError(f"order {n} exceeds the dense-solver cap {ORDER_CAP}; shrink the truncation")
    top, defect, (i, j) = hermitian_scan(m) if scan is None else scan
    ceiling = hermiticity_ceiling(top, HERMITICITY_TOL)
    if defect > ceiling:
        raise ValueError(
            f"matrix is not Hermitian: |M[{i},{j}] - conj(M[{j},{i}])| = {defect:.3e} "
            f"exceeds {ceiling:g}")
    scale = top * n
    if scale == 0.0:
        return EigenBounds(0.0, 0.0, 0.0)
    eps = np.finfo(float).eps
    # The eigensolver and both certificates read the same matrices; slack
    # is the Weyl distance from their joint spectrum to that of M's
    # Hermitian part.
    real = None
    if _mirrored(m, ceiling):
        real = _real_halves(*_turned(m), ceiling)
        if real is not None:
            # The basis change rounds: an entry of T is half a sum of four
            # entries of M, within 2 sqrt(2) eps max |M| of its value, or in
            # the middle row or column within 3 eps max |M|; so T is within
            # 3 n eps max |M| in Frobenius norm.
            real = real[0], real[1] + 3.0 * n * eps * top
    if real is None:
        real = _real_halves(m, 0, 1.0, ceiling)
    halves, slack = real if real is not None else ([0.5 * (m + m.conj().T)], 0.0)
    try:
        spectra = [np.linalg.eigvalsh(h) for h in halves]
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigenvalue solver did not converge: {exc}") from exc
    lo = min(float(w[0]) for w in spectra)
    hi = max(float(w[-1]) for w in spectra)
    # max |M| <= max |lambda| for a Hermitian M; top only keeps the margin
    # positive should the solver return zeros for a nonzero M. np.max
    # propagates a NaN, which the gate below then rejects.
    margin = float(n * eps * np.max(np.abs([lo, hi, top])))
    below, above = halves, halves
    while True:
        # Written so that NaN or infinite values fail the gate too.
        if not margin + slack <= RESIDUAL_CAP * scale < np.inf:
            raise RuntimeError(
                f"eigen certificate margin {(margin + slack) / scale:.3e} exceeds the ceiling "
                f"{RESIDUAL_CAP}")
        # A factorization that succeeds at one margin succeeds at any larger
        # one, so only the matrices not yet certified are factored again.
        below = [h for h in below if not _positive_definite(h.copy(), lo - margin)]
        above = [h for h in above if not _positive_definite(-h, -(hi + margin))]
        if not below and not above:
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
