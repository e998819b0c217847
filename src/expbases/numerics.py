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
centres the frequencies of its frame operators. A centrohermitian matrix,
J M J = conj(M) with J the reversal (a Gram on an integer range in
lexicographic order; a frame operator whose nodes and weight are
symmetric in their order), is real in J's even/odd basis, and is solved
there, in two halves when the halves do not couple. No caller says that
an array has this structure: eigen_bounds screens one row against its
mirror, and measures every part that must vanish.

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

# Largest matrix order the dense solver accepts.
ORDER_CAP = 512

# Ceiling on |M - M*| entries before a matrix counts as Hermitian: absolute
# while max |M| is at most one, relative to max |M| above that.
HERMITICITY_TOL = 1e-12

# Ceiling on the certificate margin scaled by (max |M| entry) * order.
RESIDUAL_CAP = 1e-8

# Entries per block of rows in the Hermitian defect scan.
_DEFECT_BLOCK_ENTRIES = 2 ** 16

# Pcg32.distinct_indices draws this many values or more from blocks of
# states, fewer one state at a time: near 48 values both take about 90 us
# (bounds 5,184 and 2^32, on a 2-core Xeon VM).
_BLOCK_DRAW_MIN = 48


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


def _turned(m: np.ndarray) -> list[list[np.ndarray]]:
    """The blocks [[E, B], [C, O]] of U, where T = U / 2 is M in the
    even/odd basis of the reversal J with the even half first: E and O are
    the even and odd halves, of orders q = n - n // 2 and n // 2, and B and
    C couple them.

    The basis is (e_k + e_Jk)/sqrt(2) for k < Jk = n - 1 - k and e_f for
    the middle index f when n is odd, then (e_k - e_Jk)/sqrt(2), times i
    when M is complex: sums and differences of mirrored rows into a q x n
    and an n // 2 x n array, then of their mirrored columns into the four
    blocks, and then B times i and C times -i. T is real when
    J M J = conj(M).
    """
    n = m.shape[0]
    pairs = n // 2
    q = n - pairs
    flipped = m[::-1]
    blocks = [[rows[:, :q] + rows[:, ::-1][:, :q], rows[:, :pairs] - rows[:, ::-1][:, :pairs]]
              for rows in (m[:q] + flipped[:q], m[:pairs] - flipped[:pairs])]
    (even, upper), (lower, _) = blocks
    if np.iscomplexobj(m):
        upper *= 1j
        lower *= -1j
    if q > pairs:
        # The middle row and column were added to themselves.
        for part in (even[pairs], upper[pairs], even[:, pairs], lower[:, pairs]):
            part *= np.sqrt(0.5)
    return blocks


def _arranged(orders: tuple, coupling: Optional[np.ndarray],
              ceiling: float) -> tuple[list, list, float]:
    """(halves, out, dropped): the matrices to solve for diagonal blocks of
    the given orders, and the buffers the caller writes those blocks into.

    With no coupling each block is a matrix of its own. A coupling between
    two blocks within the ceiling is dropped, and dropped is its squared
    Frobenius norm, counted above and below the diagonal; any other
    coupling joins the blocks into one whole matrix, written off its
    diagonal here.
    """
    if coupling is None or (coupling.size and float(np.abs(coupling).max()) <= ceiling):
        halves = [np.empty((k, k)) for k in orders]
        dropped = 0.0 if coupling is None else 2.0 * float(np.vdot(coupling, coupling))
        return halves, halves, dropped
    q = orders[0]
    whole = np.empty((sum(orders),) * 2)
    whole[:q, q:] = coupling
    whole[q:, :q] = coupling.T
    return [whole], [whole[:q, :q], whole[q:, q:]], 0.0


def _real_halves(blocks: list[list[np.ndarray]], scale: float,
                 ceiling: float) -> Optional[tuple[list, float]]:
    """The real symmetric matrices whose joint spectrum stands for that of
    the Hermitian part of T = scale U, and the Frobenius norm of what was
    dropped to get them; None when T is not real within the ceiling.

    U is [[M]] (scale = 1) or the blocks of M turned by _turned. Its
    imaginary part is measured, gated at the Hermiticity ceiling and
    dropped, and the symmetric real part of T is solved: its even and odd
    halves apart when the coupling between them is within the ceiling too
    (and is dropped, _arranged), else whole. Each dropped part moves no
    eigenvalue by more than its Frobenius norm (Weyl).
    """
    slack = 0.0
    if np.iscomplexobj(blocks[0][0]):
        imaginary = [np.abs(block.imag).ravel() for row in blocks for block in row]
        # Written so that a NaN takes the complex route, as it always has.
        if not scale * float(np.max([np.max(d, initial=0.0) for d in imaginary])) <= ceiling:
            return None
        slack = scale ** 2 * sum(float(np.dot(d, d)) for d in imaginary)
    diagonal = [row[k] for k, row in enumerate(blocks)]
    coupling = None
    if len(blocks) == 2:
        (_, upper), (lower, _) = blocks
        coupling = upper.real + lower.real.T
        coupling *= 0.5 * scale
    halves, out, dropped = _arranged(tuple(block.shape[0] for block in diagonal), coupling,
                                     ceiling)
    for block, half in zip(diagonal, out):
        np.add(block.real, block.real.T, out=half)
        half *= 0.5 * scale
    return halves, math.sqrt(slack + dropped)


def _matrix_halves(m: np.ndarray, ceiling: float, top: float) -> tuple[list, float]:
    """The matrices eigen_bounds solves for a Hermitian M, and the Weyl
    distance from their joint spectrum to that of M's Hermitian part.

    When M passes the screen for J M J = conj(M) (_mirrored) and turns
    into a real matrix in J's even/odd basis (_turned, _real_halves), that
    matrix or its two halves, with the basis change's rounding in the
    slack: an entry of T is half a sum of four entries of M, within
    2 sqrt(2) eps max |M| of its value, or in the middle row or column
    within 3 eps max |M|; so T is within 3 n eps max |M| in Frobenius norm.
    Else (Re M + Re M^T) / 2 when M is real within the ceiling, and else
    the Hermitian part (M + M*) / 2 in complex arithmetic.
    """
    if _mirrored(m, ceiling):
        real = _real_halves(_turned(m), 0.5, ceiling)
        if real is not None:
            return real[0], real[1] + 3.0 * m.shape[0] * np.finfo(float).eps * top
    real = _real_halves([[m]], 1.0, ceiling)
    return real if real is not None else ([0.5 * (m + m.conj().T)], 0.0)


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
        """_matrix_halves(self.dense(), ...), built from the table.

        With t_h(delta) = (t(delta) + conj t(-delta)) / 2, the table of the
        Hermitian part H, and for k, l below q = n - n // 2,
        near = a_k - a_l and far = a_k - a_Jl = a_k + a_l - s: the even half
        is Re t_h[near] + Re t_h[far], the odd half (k, l below n // 2)
        Re t_h[near] - Re t_h[far], and the coupling Im t_h[far] -
        Im t_h[near]; for odd n the middle row and column of the even half,
        and the middle row of the coupling, carry a further sqrt(1/2).
        That is H in J's even/odd basis, the odd vectors times i, exactly
        real. Each entry is within 3 eps max |t| of its value (two halved
        sums and a product for the middle ones), so the solved matrices are
        within 3 n eps max |M| in Frobenius norm, the matrix route's
        basis-change term; a dropped coupling adds its own norm
        (_arranged).
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
        halves, (even, odd), dropped = _arranged((q, pairs), coupling, ceiling)
        close, across = real[near], real[far]
        np.add(close, across, out=even)
        np.subtract(close[:pairs, :pairs], across[:pairs, :pairs], out=odd)
        if middle:
            even[pairs] *= np.sqrt(0.5)
            even[:, pairs] *= np.sqrt(0.5)
        return halves, math.sqrt(dropped) + 3.0 * n * np.finfo(float).eps * top


def _certified(halves: list, slack: float, top: float, n: int) -> EigenBounds:
    """Extreme eigenvalues of the real symmetric halves, certified by
    Cholesky factorizations, with slack added to the margin: the solve and
    certificate of eigen_bounds, for both of its routes."""
    eps = np.finfo(float).eps
    scale = top * n
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


def eigen_bounds(matrix, *, scan: Optional[HermitianScan] = None) -> EigenBounds:
    """Extreme eigenvalues, certified by Sylvester's law of inertia.

    matrix is a square array, or the _ToeplitzSection that a GramMatrix on
    an integer box holds, read through its difference table with no n x n
    complex array. Rejects non-square input, orders above ORDER_CAP, and
    matrices whose Hermitian defect exceeds HERMITICITY_TOL * max(1, max |M|)
    (the offending entry is named).

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
    array, the halves in the reversal's even/odd basis, one real matrix,
    or H itself in complex (_matrix_halves); for a section, its even and
    odd halves, or one real matrix when they couple (halves()). Then
    eigvalsh gives lambda_min and lambda_max; Cholesky factorizations of
    H - (lambda_min - margin) I and (lambda_max + margin) I - H show that
    no eigenvalue of each solved matrix H lies outside the reported range
    by more than margin (_certified). The margin starts at
    order * eps * max(|lambda_min|, |lambda_max|) and doubles after a
    failed factorization; the slack is added to it. An eigensolver that
    fails to converge, or a margin that would exceed
    RESIDUAL_CAP * max |M| * order, raises instead of returning a partial
    answer.

    scan is the HermitianScan of this very matrix when the caller already
    holds it (a GramMatrix carries its own), so the matrix is not scanned
    twice; without it the scan runs here. The gate is the same.
    """
    section = isinstance(matrix, _ToeplitzSection)
    m = matrix if section else _as_square(matrix)
    n = m.shape[0]
    if n > ORDER_CAP:
        raise ValueError(f"order {n} exceeds the dense-solver cap {ORDER_CAP}; shrink the truncation")
    if scan is None:
        scan = hermitian_scan(m)
    top = scan.top
    ceiling = hermiticity_ceiling(top, HERMITICITY_TOL)
    if scan.defect > ceiling:
        i, j = scan.at
        raise ValueError(
            f"matrix is not Hermitian: |M[{i},{j}] - conj(M[{j},{i}])| = {scan.defect:.3e} "
            f"exceeds {ceiling:g}")
    scale = top * n
    if scale == 0.0:
        return EigenBounds(0.0, 0.0, 0.0)
    # Written so that NaN or infinite values take the dense route.
    if scan.radius <= np.finfo(float).eps * scale < np.inf:
        diagonal = m.diagonal().real
        return EigenBounds(float(diagonal.min()), float(diagonal.max()), scan.radius)
    halves, slack = m.halves(ceiling, top) if section else _matrix_halves(m, ceiling, top)
    return _certified(halves, slack, top, n)


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

    def distinct_indices(self, bound: int, k: int) -> list[int]:
        """k distinct integers in [0, bound), in draw order.

        The values are those of repeated randint(bound) with repeats
        skipped. From _BLOCK_DRAW_MIN values on they come from blocks of
        states, and the stream is set back to just past the last state
        used, so the values and the state after are the same.
        """
        if k > bound:
            raise ValueError(f"cannot draw {k} distinct values from {bound}")
        if k < _BLOCK_DRAW_MIN:
            seen: set[int] = set()
            out: list[int] = []
            while len(out) < k:
                x = self.randint(bound)
                if x not in seen:
                    seen.add(x)
                    out.append(x)
            return out
        limit = self._limit(bound)
        values = np.empty(0, dtype=np.uint64)
        have = 0
        while True:
            # Accepted draws expected for the next k - have distinct values,
            # bound * (H(bound - have) - H(bound - k)) with H(m) ~ ln(m + 1/2),
            # over the acceptance rate, with a margin; a short block is
            # followed by another.
            expected = bound * (math.log(bound - have + 0.5) - math.log(bound - k + 0.5))
            states = self._states(int(1.05 * expected * (1 << 32) / limit) + 16)
            outputs = self._outputs(states)
            kept = np.flatnonzero(outputs < limit)
            earlier = values.size
            values = np.concatenate([values, outputs[kept] % np.uint64(bound)])
            first = np.sort(np.unique(values, return_index=True)[1])
            have = first.size
            if have >= k:
                last = int(states[kept[first[k - 1] - earlier]])
                self._state = (last * self._MULT + self._INC) & self._M64
                return values[first[:k]].tolist()
