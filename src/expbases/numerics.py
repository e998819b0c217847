"""Dense Hermitian eigenvalue bounds and a portable random stream.

The eigensolver route computes eigenvalues only, behind a fixed contract:
order cap, Hermiticity rejection with the offending entry named, and an
inertia certificate whose margin must clear a hard ceiling before any
bounds are reported. Test suites hold it against an independent power
iteration oracle and an eigenvector residual oracle, so the routes never
share code.

A matrix that is diagonal to rounding (the Gram of an orthonormal system,
or |c|^2 times one) needs no solve. The Hermiticity scan also bounds the
Gershgorin radii of the Hermitian part, from the |M| it forms anyway;
when they are within the margin the eigensolver route would start from,
the least and largest real diagonal entries are the bounds and the
largest radius is their margin. The gate is that starting margin, so it
adds no tolerance, and a NaN or an infinity takes the eigensolver route.

A matrix keeps its dtype (integers become float64). A float64 matrix is
solved in real arithmetic throughout; a complex one that is real within
the Hermiticity ceiling is solved in real arithmetic with the dropped
part's Frobenius norm added to the margin (Weyl's inequality), and any
other in complex. Which matrices are real is settled where they are built:
spectra integrates every Gram about its domain's centre, and paley_wiener
centres the frequencies of its frame operators. An array is solved as
one matrix, as it comes; only a box's difference table is split.

A Gram on frequencies that are a whole integer box in lexicographic order
(every integer range) is held as its difference table t, M[r, c] =
t(a_r - a_c), in a _ToeplitzSection, and is never formed as an n x n
array on the way to eigvalsh. Every difference of the box occurs in M,
so the scan reads the table: max |M|, the Hermitian defect and the
largest off-diagonal modulus to the last bit, the Gershgorin radii from
windowed sums of |t|. The reversal maps the box onto itself, so the
Hermitian part of M is centrohermitian exactly, and its even and odd
halves and their coupling are gathered as real arrays straight from the
table of (t(delta) + conj t(-delta)) / 2. Both routes end in the same
solve and certificate (_certified).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

# Largest matrix order the dense solver accepts: the most frequencies of a Gram.
ORDER_CAP = 512

# Ceiling on |M - M*| entries before a matrix counts as Hermitian: absolute
# while max |M| is at most one, relative to max |M| above that.
HERMITICITY_TOL = 1e-12

# Ceiling on the certificate margin scaled by (max |M| entry) * order.
RESIDUAL_CAP = 1e-8

# Entries per block of rows in the Hermitian defect scan.
_DEFECT_BLOCK_ENTRIES = 2 ** 16

# Pcg32.distinct_indices' array cut dedupes with a seen-array over
# [0, bound) while bound is at most this many times the draws expected for
# the whole stack, so its memory stays within a few times the draws';
# larger bounds use np.unique.
_SEEN_SPAN = 4


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


class HermitianScan(NamedTuple):
    """What every Hermiticity gate, the disc route of eigen_bounds and an
    orthonormality check read of a matrix M, from one scan of it.

    top is max |M|; defect and at are hermitian_defect's value and entry;
    radius bounds every Gershgorin radius of the Hermitian part
    (M + M*) / 2 from above; off_diagonal is the largest modulus off the
    diagonal (0 for order 1).
    """

    top: float
    defect: float
    at: tuple[int, int]
    radius: float
    off_diagonal: float


def _rounded_up_radius(half_sums: float, n: int) -> float:
    # Each modulus and each of the at most n additions behind a row plus
    # column sum of moduli rounds by a relative eps at most.
    return half_sums * (1.0 + 2.0 * n * np.finfo(float).eps)


def hermitian_scan(matrix) -> HermitianScan:
    """One pass of |M| for the scan: the row and column sums behind radius
    are taken with the diagonal zeroed (a full row sum less |M[i,i]| would
    cancel), and the largest half sum of a row and its column is rounded
    up for the summation. The same zeroed |M| gives off_diagonal, and top
    is the larger of it and the diagonal's moduli. A _ToeplitzSection is
    scanned through its table.
    """
    if isinstance(matrix, _ToeplitzSection):
        return matrix.scan()
    m = _as_square(matrix)
    n = m.shape[0]
    defect, at = hermitian_defect(m)
    mods = np.abs(m)
    diagonal = float(np.max(mods.diagonal()))
    mods.flat[::n + 1] = 0.0
    off = float(np.max(mods))
    # np.max keeps a NaN on either side, as the max over all of |M| would.
    top = float(np.max([off, diagonal]))
    radius = 0.5 * float(np.max(mods.sum(axis=0) + mods.sum(axis=1)))
    return HermitianScan(top, defect, at, _rounded_up_radius(radius, n), off)


def hermiticity_gate(scan: HermitianScan) -> float:
    """The one Hermiticity gate: the scanned matrix's HERMITICITY_TOL ceiling,
    if its Hermitian defect is within it; else raises naming the entry."""
    ceiling = HERMITICITY_TOL * max(1.0, scan.top)
    if scan.defect > ceiling:
        i, j = scan.at
        raise ValueError(
            f"matrix is not Hermitian: |M[{i},{j}] - conj(M[{j},{i}])| = {scan.defect:.3e} "
            f"exceeds {ceiling:g}")
    return ceiling


def _positive_definite(matrix: np.ndarray, shift: float) -> bool:
    """Whether matrix - shift I has a Cholesky factor; matrix is a fresh
    array, shifted in place."""
    matrix.flat[::matrix.shape[0] + 1] -= shift
    try:
        np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        return False
    return True


def _matrix_halves(m: np.ndarray, ceiling: float) -> tuple[list, float]:
    """The matrix eigen_bounds solves for a Hermitian M, and the Weyl
    distance from its spectrum to that of M's Hermitian part: the
    symmetric real part (Re M + Re M^T) / 2 when M is real within the
    ceiling, with the dropped imaginary part's Frobenius norm, else
    (M + M*) / 2 in complex arithmetic.
    """
    slack = 0.0
    if np.iscomplexobj(m):
        imaginary = np.abs(m.imag).ravel()
        # Written so that a NaN takes the complex route, as it always has.
        if not float(np.max(imaginary, initial=0.0)) <= ceiling:
            return [0.5 * (m + m.conj().T)], 0.0
        slack = float(np.dot(imaginary, imaginary))
    half = m.real + m.real.T
    half *= 0.5
    return [half], math.sqrt(slack)


class _ToeplitzSection:
    """The matrix M[r, c] = t(a_r - a_c) on the integer box
    prod_j [0, s_j], its n points a_r listed in lexicographic order, held
    as the C-order difference table t of shape 2 s + 1 (t(delta) at
    delta + s) and never formed unless dense() is called.

    Every difference of the box occurs in M, so the maximum over M of any
    function of the pair (t(delta), t(-delta)) is its maximum over the
    table: scan() gives hermitian_scan's top, defect and off_diagonal to
    the last bit. Row r of |M| is the window of |t| at a_r, and column r
    the window at s - a_r, so the Gershgorin radii come from windowed sums
    of |t|. The reversal J maps a_r to s - a_r, which makes the Hermitian
    part of M centrohermitian exactly, and halves() builds its even and odd
    halves straight from the table.
    """

    def __init__(self, table: np.ndarray):
        table = np.array(table, order="C")
        table.setflags(write=False)
        self.table = table
        self.box = tuple((size + 1) // 2 for size in table.shape)
        n = math.prod(self.box)
        self.shape = (n, n)
        # The flat table index of each point; the last point, s, has the
        # index of the difference 0.
        self.keys = np.ravel_multi_index(np.indices(self.box).reshape(table.ndim, -1),
                                         table.shape)
        self.zero = int(self.keys[-1])

    def dense(self) -> np.ndarray:
        """M, formed."""
        return self.table.reshape(-1)[np.subtract.outer(self.keys, self.keys) + self.zero]

    def diagonal(self) -> np.ndarray:
        """M's diagonal, t(0) n times."""
        return np.full(self.shape[0], self.table.flat[self.zero])

    def scan(self) -> HermitianScan:
        """hermitian_scan(self.dense()) with no n x n array.

        The defect's entry (i, j) is the first row-major pair at the
        table's first largest |t(delta) - conj t(-delta)|: a_i = max(delta,
        0) and a_j = a_i - delta, axis by axis. The radius is half the
        largest sum of the windows of |t| (t(0) zeroed) at a_r and s - a_r,
        each window summed one axis at a time (np.add.reduceat over the
        window starts and ends), rounded up as the matrix scan rounds.
        """
        t = self.table
        # np.flip reverses every axis: t(-delta) at delta + s.
        gaps = np.abs(t - np.flip(t).conj())
        k = int(gaps.argmax())
        i = j = 0
        for index, size in zip(np.unravel_index(k, t.shape), self.box):
            delta = int(index) - (size - 1)
            i, j = i * size + max(delta, 0), j * size + max(-delta, 0)
        mods = np.abs(t)
        top = float(mods.max())
        mods.flat[self.zero] = 0.0
        off = float(mods.max())
        for axis, size in enumerate(self.box):
            ends = np.arange(size)
            ends = np.stack([ends, ends + size], -1).ravel()[:-1]
            mods = np.add.reduceat(mods, ends, axis=axis)
            mods = mods[(slice(None),) * axis + (slice(None, None, 2),)]
        radius = 0.5 * float((mods + np.flip(mods)).max())
        return HermitianScan(top, float(gaps.flat[k]), (i, j),
                             _rounded_up_radius(radius, self.shape[0]), off)

    def halves(self, ceiling: float, top: float) -> tuple[list, float]:
        """The real symmetric matrices eigen_bounds solves for the Hermitian
        part H of M, and the Weyl distance from their joint spectrum to
        H's, built from the table.

        With t_h(delta) = (t(delta) + conj t(-delta)) / 2, the table of H,
        and for k, l below q = n - n // 2, near = a_k - a_l and
        far = a_k - a_Jl = a_k + a_l - s: the even half is Re t_h[near] +
        Re t_h[far], the odd half (k, l below n // 2) Re t_h[near] -
        Re t_h[far], and the coupling Im t_h[far] - Im t_h[near]; for odd n
        the middle row and column of the even half, and the middle row of
        the coupling, carry a further sqrt(1/2). That is H in J's even/odd
        basis, the odd vectors times i, exactly real. Each entry is within
        3 eps max |t| of its value (two halved sums and a product for the
        middle ones), so the solved matrices are within 3 n eps max |M| in
        Frobenius norm. A coupling within the ceiling is dropped, its
        Frobenius norm (counted above and below the diagonal) added, and
        the halves are solved apart; any other coupling joins them into
        one whole matrix.
        """
        n = self.shape[0]
        pairs = n // 2
        q = n - pairs
        keys = self.keys[:q]
        near = np.subtract.outer(keys, keys)
        near += self.zero
        far = np.add.outer(keys, keys)
        hermitian = self.table + np.flip(self.table).conj()
        hermitian *= 0.5
        real = hermitian.real.ravel()
        if np.iscomplexobj(hermitian):
            imag = hermitian.imag.ravel()
            coupling = imag[far[:, :pairs]] - imag[near[:, :pairs]]
        else:
            coupling = np.zeros((q, pairs))
        middle = q > pairs
        if middle:
            coupling[pairs] *= np.sqrt(0.5)
        if coupling.size and float(np.abs(coupling).max()) <= ceiling:
            even, odd = halves = [np.empty((q, q)), np.empty((pairs, pairs))]
            dropped = 2.0 * float(np.vdot(coupling, coupling))
        else:
            whole = np.empty((n, n))
            whole[:q, q:] = coupling
            whole[q:, :q] = coupling.T
            halves, even, odd, dropped = [whole], whole[:q, :q], whole[q:, q:], 0.0
        close, across = real[near], real[far]
        np.add(close, across, out=even)
        np.subtract(close[:pairs, :pairs], across[:pairs, :pairs], out=odd)
        if middle:
            even[pairs] *= np.sqrt(0.5)
            even[:, pairs] *= np.sqrt(0.5)
        return halves, math.sqrt(dropped) + 3.0 * n * np.finfo(float).eps * top


def _certified(halves: list, slack: float, top: float, n: int, lower: bool) -> EigenBounds:
    """Extreme eigenvalues of the real symmetric halves, certified by
    Cholesky factorizations, with slack added to the margin: the solve and
    certificate of eigen_bounds, for both of its routes. Without lower,
    lambda_min is the solver's and is not factored, so the margin doubles
    only for lambda_max."""
    eps = np.finfo(float).eps
    scale = top * n
    try:
        spectra = [np.linalg.eigvalsh(h) for h in halves]
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigenvalue solver did not converge: {exc}") from exc
    lo = min(float(w[0]) for w in spectra)
    hi = max(float(w[-1]) for w in spectra)
    # max |M| <= max |lambda| for a Hermitian M; top only keeps the margin
    # positive should the solver return zeros for a nonzero M. Below the
    # normal range that product can underflow to 0, which doubling would
    # never move, so the margin starts at least at the least positive
    # float. np.maximum propagates a NaN, which the gate below then rejects.
    margin = float(np.maximum(n * eps * np.max(np.abs([lo, hi, top])),
                              np.finfo(float).smallest_subnormal))
    below, above = (halves if lower else []), halves
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


def eigen_bounds(matrix, *, scan: Optional[HermitianScan] = None) -> EigenBounds:
    """Extreme eigenvalues, certified by Sylvester's law of inertia.

    matrix is a square array, or the _ToeplitzSection that a GramMatrix on
    an integer box holds, read through its difference table with no n x n
    complex array. Rejects non-square input, orders above ORDER_CAP, and
    matrices past the Hermiticity gate (hermiticity_gate).

    A matrix that is diagonal to rounding is certified by discs, with no
    eigen solve. Every eigenvalue of H = (M + M*) / 2 lies in a Gershgorin
    disc about some H[i,i] = Re M[i,i] of radius at most the scan's radius
    r, and the Rayleigh quotients e_i^T H e_i = Re M[i,i] put lambda_min at
    or below their minimum and lambda_max at or above their maximum. So
    when r is no larger than order * eps * max |M|, the margin the dense
    route starts from, the bounds are the least and largest Re M[i,i] with
    margin r. Any other matrix, and any with a NaN or infinite entry, takes
    the dense route.

    On the dense route the matrix is first reduced to real symmetric
    matrices whose joint spectrum is within a slack of that of H: for an
    array, one real matrix, or H itself in complex (_matrix_halves); for a
    section, its even and odd halves, or one real matrix when they couple
    (halves()). Then eigvalsh gives lambda_min and lambda_max; Cholesky
    factorizations of H - (lambda_min - margin) I and
    (lambda_max + margin) I - H show that no eigenvalue of each solved
    matrix H lies outside the reported range by more than margin
    (_certified). The margin starts at
    order * eps * max(|lambda_min|, |lambda_max|), or the least positive
    float should that underflow, and doubles after a failed
    factorization; the slack is added to it. An eigensolver that
    fails to converge, or a margin that would exceed
    RESIDUAL_CAP * max |M| * order, raises instead of returning a partial
    answer.

    scan is the HermitianScan of this very matrix when the caller already
    holds it (a GramMatrix carries its own), so the matrix is not scanned
    twice; without it the scan runs here. The gate is the same.
    """
    return _eigen_bounds(matrix, scan, lower=True)


def _eigen_bounds(matrix, scan: Optional[HermitianScan], lower: bool) -> EigenBounds:
    """eigen_bounds, or without lower its lambda_max and margin alone, for
    an operator whose lower bound is known otherwise: lambda_min is then
    the solver's, not factored, which saves one Cholesky factorization per
    solved matrix. The margin doubles only when the upper factorization
    fails, so it is eigen_bounds' margin wherever that never doubled, and
    never larger."""
    section = isinstance(matrix, _ToeplitzSection)
    m = matrix if section else _as_square(matrix)
    n = m.shape[0]
    if n > ORDER_CAP:
        raise ValueError(f"order {n} exceeds the dense-solver cap {ORDER_CAP}; shrink the truncation")
    if scan is None:
        scan = hermitian_scan(m)
    ceiling = hermiticity_gate(scan)
    scale = scan.top * n
    if scale == 0.0:
        return EigenBounds(0.0, 0.0, 0.0)
    # Written so that NaN or infinite values take the dense route.
    if scan.radius <= np.finfo(float).eps * scale < np.inf:
        diagonal = m.diagonal().real
        return EigenBounds(float(diagonal.min()), float(diagonal.max()), scan.radius)
    halves, slack = m.halves(ceiling, scan.top) if section else _matrix_halves(m, ceiling)
    return _certified(halves, slack, scan.top, n, lower)


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

    @staticmethod
    def _outputs(states: np.ndarray) -> np.ndarray:
        """The XSH-RR output of each uint64 state, as uint64 below 2^32."""
        xorshifted = ((states >> np.uint64(18)) ^ states) >> np.uint64(27) & np.uint64(0xFFFFFFFF)
        rot = states >> np.uint64(59)
        return ((xorshifted >> rot) | (xorshifted << ((np.uint64(32) - rot) & np.uint64(31)))
                ) & np.uint64(0xFFFFFFFF)

    def uniforms(self, n: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        """n values of uniform(lo, hi), bitwise, with the same state after."""
        out = self._outputs(self._states(2 * max(n, 0)))
        a = (out[0::2] >> np.uint64(5)).astype(float)
        b = (out[1::2] >> np.uint64(6)).astype(float)
        unit = (a * 67108864.0 + b) * (1.0 / 9007199254740992.0)
        return lo + (hi - lo) * unit

    @staticmethod
    def _limit(bound: int) -> int:
        # Outputs at or above the limit are rejected, so the rest fall
        # into [0, bound) equally often modulo bound.
        if not 1 <= bound <= 1 << 32:
            raise ValueError(f"bound must be in [1, 2^32], got {bound}")
        return (1 << 32) - ((1 << 32) % bound)

    def randint(self, bound: int) -> int:
        """Uniform integer in [0, bound) via rejection, so no modulo bias."""
        limit = self._limit(bound)
        while True:
            x = self.next_u32()
            if x < limit:
                return x % bound

    def distinct_indices(self, bound: int, k: int, rows: Optional[int] = None) -> np.ndarray:
        """k distinct integers in [0, bound), in draw order, as int64; given
        rows, a (rows, k) array of such draws made one after another.

        Each row holds the values of repeated randint(bound) with repeats
        skipped, from where the row before it stopped. The rows are cut
        from a block of states sized for all of them; should it fall
        short, another is drawn for the rows still to cut. Where a window
        of twice the rows expected before a repeat holds at least one row,
        rows are cut a window of whole k-value slices at a time
        (_clean_rows), up to the first row with a repeat; that row, and
        every row of a shape with more repeats, is cut by _cut. The stream is set back to just past the last state
        used, so the values and the state after are those of the
        one-value-at-a-time walk.
        """
        if k > bound:
            raise ValueError(f"cannot draw {k} distinct values from {bound}")
        count = 1 if rows is None else int(rows)
        out = np.empty((count, k), dtype=np.int64)
        if k and count:
            limit = self._limit(bound)
            # Accepted draws expected for one row of k distinct values,
            # bound * (H(bound) - H(bound - k)) with H(m) ~ ln(m + 1/2).
            per_row = bound * (math.log(bound + 0.5) - math.log(bound - k + 0.5))
            seen = (np.empty(bound, dtype=np.intp)
                    if bound <= _SEEN_SPAN * count * per_row else None)
            # A row of k draws holds a repeat with chance about k (k - 1) / 2
            # / bound, so rows come in runs of about run rows with no
            # repeat, each its next k draws; a window spans twice that.
            run = bound / (k * (k - 1) / 2) if k > 1 else math.inf
            window = int(min(count, 2 * run))
            accepted = np.empty(0, dtype=np.int64)
            states = np.empty(0, dtype=np.uint64)
            pos = r = 0
            while r < count:
                # States for the accepted draws of the rows left over the
                # acceptance rate, with a margin.
                draws = (count - r) * per_row
                block = self._states(int(1.05 * draws * (1 << 32) / limit) + 16)
                outputs = self._outputs(block)
                kept = outputs < limit
                accepted = np.concatenate(
                    [accepted, (outputs[kept] % np.uint64(bound)).astype(np.int64)])
                states = np.concatenate([states, block[kept]])
                while r < count:
                    if window:
                        most = min(window, count - r)
                        clean = _clean_rows(accepted, pos, k, most)
                        out[r:r + len(clean)] = clean
                        r, pos = r + len(clean), pos + clean.size
                        if len(clean) == most:
                            continue
                    if (got := _cut(accepted, pos, k, per_row, seen)) is None:
                        break
                    out[r], pos = got
                    r += 1
            self._state = (int(states[pos - 1]) * self._MULT + self._INC) & self._M64
        return out[0] if rows is None else out


def _clean_rows(values: np.ndarray, pos: int, k: int, most: int) -> np.ndarray:
    """Up to most consecutive k-value slices of values from pos on, ending
    before the first slice with a repeat or one that the values do not
    fill: each is a whole row, as no repeat was skipped in it."""
    rows = values[pos:pos + min(most, (values.size - pos) // k) * k].reshape(-1, k)
    ordered = np.sort(rows, axis=1)
    repeat = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
    return rows[:int(repeat.argmax())] if repeat.any() else rows


def _cut(values: np.ndarray, pos: int, k: int, per_row: float, seen: Optional[np.ndarray]):
    """(row, end): the k distinct values of values from pos on, in order,
    and the position just past the last; None when the values run out first.

    The row is cut from a window marked at each value's first occurrence:
    by seen, an array over [0, bound), or else by np.unique. A short window
    is doubled.
    """
    width = int(1.05 * per_row) + 16
    while True:
        window = values[pos:pos + width]
        if seen is None:
            first = np.zeros(window.size, dtype=bool)
            first[np.unique(window, return_index=True)[1]] = True
        else:
            at = np.arange(window.size)
            # Assigned in reverse, the last write to each value is its first place.
            seen[window[::-1]] = at[::-1]
            first = seen[window] == at
        # The k-th first occurrence ends the row.
        end = int(np.searchsorted(np.cumsum(first), k)) + 1
        if end <= window.size:
            return window[:end][first[:end]], pos + end
        if pos + width >= values.size:
            return None
        width *= 2
