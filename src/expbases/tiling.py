"""Tilings and spectra of patterns in finite abelian groups.

Elements of Z_{n_1} x ... x Z_{n_d} are addressed by C-order linear
index. Verdicts are exact (integer coverage counts, character sums
judged against a size-scaled tolerance); searches are exhaustive
depth-first enumerations up to the documented caps, with a seeded
sampling fallback beyond them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Optional

import numpy as np

from .numerics import Pcg32

# Exhaustive search caps; force_exhaustive overrides both.
GROUP_ORDER_CAP = 4096
PATTERN_SIZE_CAP = 12

# Character sums below this fraction of the pattern size count as zero.
CHARACTER_TOL = 1e-9


@dataclass(frozen=True, init=False)
class GroupInstance:
    """Finite abelian product group with fixed axis moduli."""

    moduli: tuple[int, ...]

    def __init__(self, moduli):
        mods = tuple(int(m) for m in np.atleast_1d(moduli))
        if not mods or any(m < 1 for m in mods):
            raise ValueError(f"moduli must be positive integers, got {mods}")
        object.__setattr__(self, "moduli", mods)

    @property
    def order(self) -> int:
        return int(np.prod(self.moduli))

    @property
    def dimension(self) -> int:
        return len(self.moduli)

    def coords(self, indices) -> np.ndarray:
        """Linear indices to coordinate rows, C order."""
        idx = np.asarray(indices, dtype=int)
        if idx.size and (idx.min() < 0 or idx.max() >= self.order):
            raise ValueError(f"indices must lie in [0, {self.order})")
        return np.stack(np.unravel_index(idx, self.moduli), axis=-1)

    def index(self, coords) -> np.ndarray:
        """Coordinate rows to linear indices, reducing mod the moduli."""
        c = np.asarray(coords, dtype=int) % np.asarray(self.moduli)
        return np.ravel_multi_index(tuple(np.moveaxis(c, -1, 0)), self.moduli)


def cube_set(group: GroupInstance, side) -> tuple[int, ...]:
    """Linear indices of the axis-aligned cube with the given side(s)."""
    sides = np.broadcast_to(np.atleast_1d(np.asarray(side, dtype=int)),
                            (group.dimension,))
    for s, m in zip(sides, group.moduli):
        if not 1 <= s <= m:
            raise ValueError(f"cube side {s} must lie in [1, {m}]")
    axes = [np.arange(s) for s in sides]
    mesh = np.meshgrid(*axes, indexing="ij")
    coords = np.stack([m.reshape(-1) for m in mesh], axis=-1)
    return tuple(int(i) for i in group.index(coords))


def _distinct_indices(group: GroupInstance, elements, label: str) -> np.ndarray:
    arr = np.asarray(list(elements), dtype=int)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{label} must be a nonempty flat index collection")
    if arr.min() < 0 or arr.max() >= group.order:
        raise ValueError(f"{label} indices must lie in [0, {group.order})")
    if len(set(arr.tolist())) != arr.size:
        raise ValueError(f"{label} contains repeated elements")
    return arr


@dataclass(frozen=True)
class TilingVerdict:
    is_tiling: bool
    uncovered: int
    collisions: int


def tiles(group: GroupInstance, pattern, candidate) -> TilingVerdict:
    """Exact check that pattern + candidate covers the group once each."""
    pat = group.coords(_distinct_indices(group, pattern, "pattern"))
    cand = group.coords(_distinct_indices(group, candidate, "candidate"))
    sums = group.index((pat[:, np.newaxis, :] + cand[np.newaxis, :, :]).reshape(-1, group.dimension))
    counts = np.bincount(sums, minlength=group.order)
    uncovered = int((counts == 0).sum())
    collisions = int((counts > 1).sum())
    return TilingVerdict(uncovered == 0 and collisions == 0, uncovered, collisions)


@dataclass(frozen=True)
class SpectrumVerdict:
    is_spectrum: bool
    defect: float
    tolerance: float
    sizes_match: bool


def _character_table(group: GroupInstance, freq_coords: np.ndarray,
                     point_coords: np.ndarray) -> np.ndarray:
    scaled = point_coords / np.asarray(group.moduli, dtype=float)
    return np.exp(2j * np.pi * (freq_coords @ scaled.T))


def is_spectrum(group: GroupInstance, pattern, candidate,
                tol: float = CHARACTER_TOL) -> SpectrumVerdict:
    """Check that the candidate characters are orthogonal and complete on the pattern.

    Completeness is by counting: the candidate must match the pattern's
    size. Orthogonality defect is the largest off-diagonal character sum
    modulus, judged against tol times the pattern size.
    """
    pat = group.coords(_distinct_indices(group, pattern, "pattern"))
    cand = group.coords(_distinct_indices(group, candidate, "candidate"))
    table = _character_table(group, cand, pat)
    gram = table @ table.conj().T
    off = np.abs(gram - np.diag(np.diag(gram)))
    defect = float(off.max()) if off.size else 0.0
    tolerance = tol * pat.shape[0]
    sizes_match = cand.shape[0] == pat.shape[0]
    return SpectrumVerdict(sizes_match and defect <= tolerance, defect, tolerance, sizes_match)


@dataclass(frozen=True)
class SearchResult:
    """Canonicalized search outcome; found sets are translation-orbit minima."""

    found: tuple[tuple[int, ...], ...]
    exhaustive: bool
    examined: int
    note: str


def _canonical(group: GroupInstance, indices: np.ndarray) -> tuple[int, ...]:
    coords = group.coords(indices)
    best = None
    for i in range(coords.shape[0]):
        shifted = np.sort(group.index(coords - coords[i]))
        key = tuple(int(v) for v in shifted)
        if best is None or key < best:
            best = key
    return best


def _check_caps(group: GroupInstance, size: int, force: bool, samples,
                what: str) -> Optional[str]:
    # Returns None when exhaustive search may run, else the refusal reason.
    if force:
        return None
    if group.order > GROUP_ORDER_CAP:
        reason = f"group order {group.order} exceeds the exhaustive cap {GROUP_ORDER_CAP}"
    elif size > PATTERN_SIZE_CAP:
        reason = f"pattern size {size} exceeds the exhaustive cap {PATTERN_SIZE_CAP}"
    else:
        return None
    if samples is None:
        raise ValueError(f"{reason} for {what}; pass force_exhaustive=True or a sample budget")
    return reason


def search_complements(group: GroupInstance, pattern, *,
                       force_exhaustive: bool = False,
                       samples: Optional[int] = None,
                       rng: Optional[Pcg32] = None) -> SearchResult:
    """All tiling complements of the pattern, up to translation.

    Exact-cover depth-first search keyed on the least uncovered element;
    every complement is enumerated, then canonicalized to its orbit
    minimum.
    """
    pat_idx = _distinct_indices(group, pattern, "pattern")
    order = group.order
    k = pat_idx.size
    if order % k != 0:
        return SearchResult((), True, 0, "pattern size does not divide the group order")
    reason = _check_caps(group, k, force_exhaustive, samples, "complement search")
    if reason is not None:
        return _sampled_search(group, pat_idx, samples, rng, reason, mode="tiling")

    pat_coords = group.coords(pat_idx)
    all_coords = group.coords(np.arange(order))
    shifted = group.index(pat_coords[np.newaxis, :, :] + all_coords[:, np.newaxis, :])
    cover = []
    full = (1 << order) - 1
    for b in range(order):
        mask = 0
        for s in shifted[b].tolist():
            mask |= 1 << s
        cover.append(mask)
    # starters[e] lists the b values whose translate reaches element e.
    starters = group.index(all_coords[:, np.newaxis, :] - pat_coords[np.newaxis, :, :]).tolist()

    found: set[tuple[int, ...]] = set()
    examined = 0

    def descend(covered: int, chosen: list[int]) -> None:
        nonlocal examined
        if covered == full:
            examined += 1
            found.add(_canonical(group, np.asarray(chosen)))
            return
        free = (~covered) & full
        least = (free & -free).bit_length() - 1
        for b in starters[least]:
            c = cover[b]
            if c & covered:
                continue
            chosen.append(b)
            descend(covered | c, chosen)
            chosen.pop()

    descend(0, [])
    del descend  # the recursive closure is a cycle that would keep cover alive
    return SearchResult(tuple(sorted(found)), True, examined, "")


def search_spectra(group: GroupInstance, pattern, *,
                   tol: float = CHARACTER_TOL,
                   force_exhaustive: bool = False,
                   samples: Optional[int] = None,
                   rng: Optional[Pcg32] = None) -> SearchResult:
    """All spectra of the pattern, up to translation.

    Differences within a spectrum must annihilate the pattern's character
    sum, so the search extends index-ascending cliques of the admissible
    difference set, anchored at zero.
    """
    pat_idx = _distinct_indices(group, pattern, "pattern")
    order = group.order
    k = pat_idx.size
    reason = _check_caps(group, k, force_exhaustive, samples, "spectrum search")
    if reason is not None:
        return _sampled_search(group, pat_idx, samples, rng, reason, mode="spectrum", tol=tol)

    pat_coords = group.coords(pat_idx)
    all_coords = group.coords(np.arange(order))
    sums = np.abs(_character_table(group, all_coords, pat_coords).sum(axis=1))
    ok = sums <= tol * k
    ok[0] = False

    # Axis-wise build keeps the difference table at one int32 temp per axis.
    diff_lin = np.zeros((order, order), dtype=np.int32)
    for axis, m in enumerate(group.moduli):
        col = all_coords[:, axis].astype(np.int32)
        diff_lin = diff_lin * m + (col[:, np.newaxis] - col[np.newaxis, :]) % m
    diff_ok = ok[diff_lin]
    del diff_lin

    found: set[tuple[int, ...]] = set()
    examined = 0

    def extend(members: list[int], candidates: list[int]) -> None:
        nonlocal examined
        if len(members) == k:
            examined += 1
            found.add(_canonical(group, np.asarray(members)))
            return
        needed = k - len(members)
        for pos, c in enumerate(candidates):
            remaining = candidates[pos + 1:]
            if 1 + len(remaining) < needed:
                break
            members.append(c)
            extend(members, [r for r in remaining if diff_ok[r, c]])
            members.pop()

    if k == 1:
        found.add((0,))
        examined = 1
    else:
        base = [c for c in range(1, order) if diff_ok[c, 0]]
        extend([0], base)
    del extend  # the recursive closure is a cycle that would keep diff_ok alive
    return SearchResult(tuple(sorted(found)), True, examined, "")


def _sampled_search(group: GroupInstance, pat_idx: np.ndarray,
                    samples: int, rng: Optional[Pcg32], reason: str,
                    mode: str, tol: float = CHARACTER_TOL) -> SearchResult:
    if samples < 1:
        raise ValueError(f"sample budget must be positive, got {samples}")
    rng = rng if rng is not None else Pcg32(0)
    k = pat_idx.size
    size = group.order // k if mode == "tiling" else k
    pattern = tuple(int(i) for i in pat_idx)
    found: set[tuple[int, ...]] = set()
    for _ in range(int(samples)):
        candidate = rng.distinct_indices(group.order, size)
        if mode == "tiling":
            hit = tiles(group, pattern, candidate).is_tiling
        else:
            hit = is_spectrum(group, pattern, candidate, tol=tol).is_spectrum
        if hit:
            found.add(_canonical(group, np.asarray(candidate)))
    note = f"{reason}; sampled {int(samples)} candidate sets, no exhaustive guarantee"
    return SearchResult(tuple(sorted(found)), False, int(samples), note)


@dataclass(frozen=True)
class CubeReport:
    """Comparison of cube tiling complements with dual-cube spectra."""

    side: tuple[int, ...]
    dual_side: tuple[int, ...]
    complements: SearchResult
    spectra: SearchResult
    equal: bool
    n_complements: int
    n_spectra: int


def cube_equivalence_check(group: GroupInstance, side) -> CubeReport:
    """Match the cube's tiling complements against the dual cube's spectra.

    The dual cube has per-axis side modulus/side, so the side must divide
    every modulus. Both searches run exhaustively; the cube structure
    keeps them shallow, so the caps are overridden.
    """
    sides = tuple(int(s) for s in np.broadcast_to(
        np.atleast_1d(np.asarray(side, dtype=int)), (group.dimension,)))
    for s, m in zip(sides, group.moduli):
        if not 1 <= s <= m:
            raise ValueError(f"cube side {s} must lie in [1, {m}]")
        if m % s != 0:
            raise ValueError(f"cube side {s} must divide the modulus {m}")
    dual = tuple(m // s for s, m in zip(sides, group.moduli))
    complements = search_complements(group, cube_set(group, sides), force_exhaustive=True)
    spectra = search_spectra(group, cube_set(group, dual), force_exhaustive=True)
    return CubeReport(
        side=sides,
        dual_side=dual,
        complements=complements,
        spectra=spectra,
        equal=set(complements.found) == set(spectra.found),
        n_complements=len(complements.found),
        n_spectra=len(spectra.found),
    )
