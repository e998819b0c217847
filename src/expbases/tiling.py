"""Tilings and spectra of patterns in finite abelian groups.

Elements of Z_{n_1} x ... x Z_{n_d} are addressed by C-order linear
index. Verdicts are exact (integer coverage counts, character sums
judged against a size-scaled tolerance). Searches are exhaustive
depth-first walks of an explicit stack up to the documented caps and a
work budget, with a seeded sampling fallback beyond the caps; the
spectrum search tabulates differences among admissible elements only.
A finished walk canonicalizes each orbit it found once; sampled
candidates are checked in bounded stacks, one verdict path with the
single-candidate checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .numerics import Pcg32

# Exhaustive search caps. force_exhaustive lifts the pattern cap only:
# every exhaustive walk allocates per group element.
GROUP_ORDER_CAP = 4096
PATTERN_SIZE_CAP = 12

# Character sums below this fraction of the pattern size count as zero.
CHARACTER_TOL = 1e-9

# Work an exhaustive walk may spend: one unit per node, plus n * n // 16
# per found set of n members (the size of a canonicalization table; 16
# entries cost about one node). Only one set per orbit is canonicalized,
# but every found set is charged, so the budget stops a walk at the node
# it always has. The caps bound the group and pattern, not the work.
SEARCH_BUDGET = 2_000_000

# Pattern-by-candidate entries per stack of sampled candidates checked at
# once (each entry is a sum or a character value), so memory does not grow
# with the sample budget.
_SAMPLE_STACK_ENTRIES = 2 ** 14


@dataclass(frozen=True, init=False)
class GroupInstance:
    """Finite abelian product group with fixed axis moduli."""

    moduli: tuple[int, ...]

    def __init__(self, moduli):
        mods = tuple(int(m) for m in np.atleast_1d(moduli))
        if not mods or any(m < 1 for m in mods):
            raise ValueError(f"moduli must be positive integers, got {mods}")
        order = math.prod(mods)
        if order > np.iinfo(np.intp).max:
            raise ValueError(f"moduli {list(mods)} give group order {order}, "
                             f"above the largest index {np.iinfo(np.intp).max}")
        object.__setattr__(self, "moduli", mods)

    @property
    def order(self) -> int:
        return math.prod(self.moduli)

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


def _cover_counts(group: GroupInstance, pat: np.ndarray,
                  cands: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # (uncovered, collisions) of pattern + candidate per candidate, from
    # coordinate rows: pat (p, d), cands (m, n, d). Each row of sums is
    # sorted, so the counts need no table the size of the group.
    sums = np.sort(group.index(pat[np.newaxis, :, np.newaxis, :]
                               + cands[:, np.newaxis, :, :]).reshape(cands.shape[0], -1), axis=1)
    repeat = sums[:, 1:] == sums[:, :-1]
    uncovered = group.order - sums.shape[1] + repeat.sum(axis=1)
    # One collision per run of equal sums: each repeat not after a repeat.
    collisions = repeat[:, :1].sum(axis=1) + (repeat[:, 1:] & ~repeat[:, :-1]).sum(axis=1)
    return uncovered, collisions


def tiles(group: GroupInstance, pattern, candidate) -> TilingVerdict:
    """Exact check that pattern + candidate covers the group once each."""
    pat = group.coords(_distinct_indices(group, pattern, "pattern"))
    cand = group.coords(_distinct_indices(group, candidate, "candidate"))
    uncovered, collisions = (int(c[0]) for c in _cover_counts(group, pat, cand[np.newaxis]))
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


def _character_defects(group: GroupInstance, pat: np.ndarray, cands: np.ndarray) -> np.ndarray:
    # The largest off-diagonal character sum modulus per candidate, from
    # coordinate rows: pat (p, d), cands (m, n, d).
    m, n, d = cands.shape
    table = _character_table(group, cands.reshape(m * n, d), pat).reshape(m, n, -1)
    gram = table @ table.conj().transpose(0, 2, 1)
    gram[:, np.arange(n), np.arange(n)] = 0
    return np.abs(gram).max(axis=(1, 2))


def is_spectrum(group: GroupInstance, pattern, candidate) -> SpectrumVerdict:
    """Check that the candidate characters are orthogonal and complete on the pattern.

    Completeness is by counting: the candidate must match the pattern's
    size. Orthogonality defect is the largest off-diagonal character sum
    modulus, judged against CHARACTER_TOL times the pattern size.
    """
    pat = group.coords(_distinct_indices(group, pattern, "pattern"))
    cand = group.coords(_distinct_indices(group, candidate, "candidate"))
    defect = float(_character_defects(group, pat, cand[np.newaxis])[0])
    tolerance = CHARACTER_TOL * pat.shape[0]
    sizes_match = cand.shape[0] == pat.shape[0]
    return SpectrumVerdict(sizes_match and defect <= tolerance, defect, tolerance, sizes_match)


@dataclass(frozen=True)
class SearchResult:
    """Canonicalized search outcome; found sets are translation-orbit minima."""

    found: tuple[tuple[int, ...], ...]
    exhaustive: bool
    examined: int
    note: str


def _canonical(group: GroupInstance, indices: np.ndarray,
               pending: Optional[set] = None) -> tuple[int, ...]:
    # Each row is the set translated so that one member sits at 0; the
    # orbit minimum is the least sorted row. Rows come in blocks of 256 so
    # the broadcast stays linear in the set size. The rows are the orbit's
    # sets through 0, struck from pending when it is given.
    coords = group.coords(indices)
    keys = []
    for start in range(0, coords.shape[0], 256):
        origins = coords[start:start + 256, np.newaxis, :]
        rows = np.sort(group.index(coords[np.newaxis, :, :] - origins), axis=1)
        keys.append(tuple(rows[np.lexsort(rows.T[::-1])[0]].tolist()))
        if pending is not None:
            pending.difference_update(map(tuple, rows.tolist()))
    return min(keys)


def _orbit_minima(group: GroupInstance, hits: list) -> tuple[tuple[int, ...], ...]:
    """The orbit minima of the sets through 0 that a finished walk found.

    Both exhaustive walks find every set through 0 in the orbit of each set
    they find, and canonicalizing one strikes all of them, so each orbit
    costs one _canonical call and nothing is kept beyond the found sets.
    """
    pending = {tuple(sorted(hit)) for hit in hits}
    minima = []
    while pending:
        minima.append(_canonical(group, np.asarray(pending.pop()), pending))
    return tuple(sorted(minima))


def _spend(work: int, cost: int, what: str) -> int:
    if work + cost > SEARCH_BUDGET:
        raise ValueError(f"{what} passed its budget of {SEARCH_BUDGET} work units unfinished")
    return work + cost


def _check_caps(group: GroupInstance, size: int, force: bool, samples,
                what: str) -> Optional[str]:
    # Returns None when exhaustive search may run, else the refusal reason.
    if group.order > GROUP_ORDER_CAP:
        reason = f"group order {group.order} exceeds the exhaustive cap {GROUP_ORDER_CAP}"
        remedy = "a sample budget"
    elif size > PATTERN_SIZE_CAP and not force:
        reason = f"pattern size {size} exceeds the exhaustive cap {PATTERN_SIZE_CAP}"
        remedy = "force_exhaustive=True or a sample budget"
    else:
        return None
    if samples is None:
        raise ValueError(f"{reason} for {what}; pass {remedy}")
    return reason


def search_complements(group: GroupInstance, pattern, *,
                       force_exhaustive: bool = False,
                       samples: Optional[int] = None,
                       rng: Optional[Pcg32] = None) -> SearchResult:
    """All tiling complements of the pattern, up to translation.

    Exact-cover depth-first search keyed on the least uncovered element;
    every complement is enumerated, then canonicalized to its orbit
    minimum. A walk past SEARCH_BUDGET raises ValueError.
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
    full = (1 << order) - 1
    # Translates are bijections, so a sum of distinct bits is their union.
    cover = [sum(1 << s for s in row) for row in shifted.tolist()]
    # starters[e] lists the b values whose translate reaches element e.
    starters = group.index(all_coords[:, np.newaxis, :] - pat_coords[np.newaxis, :, :]).tolist()

    hits = []
    examined = work = 0
    stack = [(0, ())]
    while stack:
        work = _spend(work, 1, "complement search")
        covered, chosen = stack.pop()
        if covered == full:
            examined += 1
            work = _spend(work, len(chosen) ** 2 // 16, "complement search")
            # Each orbit's sets through 0 are found too; they suffice.
            if 0 in chosen:
                hits.append(chosen)
            continue
        free = (~covered) & full
        least = (free & -free).bit_length() - 1
        for b in starters[least]:
            if not cover[b] & covered:
                stack.append((covered | cover[b], chosen + (b,)))
    return SearchResult(_orbit_minima(group, hits), True, examined, "")


def search_spectra(group: GroupInstance, pattern, *,
                   force_exhaustive: bool = False,
                   samples: Optional[int] = None,
                   rng: Optional[Pcg32] = None) -> SearchResult:
    """All spectra of the pattern, up to translation.

    Differences within a spectrum must annihilate the pattern's character
    sum, so the search extends index-ascending cliques of the admissible
    difference set, anchored at zero. A walk past SEARCH_BUDGET raises
    ValueError.
    """
    pat_idx = _distinct_indices(group, pattern, "pattern")
    order = group.order
    k = pat_idx.size
    reason = _check_caps(group, k, force_exhaustive, samples, "spectrum search")
    if reason is not None:
        return _sampled_search(group, pat_idx, samples, rng, reason, mode="spectrum")

    pat_coords = group.coords(pat_idx)
    all_coords = group.coords(np.arange(order))
    sums = np.abs(_character_table(group, all_coords, pat_coords).sum(axis=1))
    ok = sums <= CHARACTER_TOL * k
    ok[0] = False

    # Every member of a spectrum anchored at 0 is admissible, so the table
    # needs admissible elements only; bit r of extends[c] is set when
    # admissible[r] - admissible[c] is admissible.
    admissible = np.flatnonzero(ok).tolist()
    adm_coords = all_coords[admissible]
    diff_ok = ok[group.index(adm_coords[:, np.newaxis, :] - adm_coords[np.newaxis, :, :])]
    extends = [int.from_bytes(np.packbits(col, bitorder="little").tobytes(), "little")
               for col in diff_ok.T]

    hits = []
    work = 0
    # Each entry is a clique and the bitset of admissible positions that may
    # extend it: the lowest is tried first, then the clique without it.
    stack = [((0,), (1 << len(admissible)) - 1)]
    while stack:
        work = _spend(work, 1, "spectrum search")
        members, candidates = stack.pop()
        needed = k - len(members)
        if needed == 0:
            work = _spend(work, k * k // 16, "spectrum search")
            hits.append(members)
        elif candidates.bit_count() >= needed:
            low = candidates & -candidates
            c = low.bit_length() - 1
            stack.append((members, candidates ^ low))
            stack.append((members + (admissible[c],), (candidates ^ low) & extends[c]))
    return SearchResult(_orbit_minima(group, hits), True, len(hits), "")


def _sampled_search(group: GroupInstance, pat_idx: np.ndarray,
                    samples: int, rng: Optional[Pcg32], reason: str,
                    mode: str) -> SearchResult:
    if samples < 1:
        raise ValueError(f"sample budget must be positive, got {samples}")
    rng = rng if rng is not None else Pcg32(0)
    k = pat_idx.size
    size = group.order // k if mode == "tiling" else k
    # No larger than a group an exhaustive search may walk, before any draw.
    if size > GROUP_ORDER_CAP:
        raise ValueError(f"a sampled candidate of {size} elements exceeds the cap {GROUP_ORDER_CAP}")
    samples = int(samples)
    pat = group.coords(pat_idx)
    # Candidates are checked in stacks drawn in order, of at most
    # _SAMPLE_STACK_ENTRIES pattern-by-candidate entries.
    stack = max(1, _SAMPLE_STACK_ENTRIES // (k * size))
    found: set[tuple[int, ...]] = set()
    for start in range(0, samples, stack):
        cands = np.array([rng.distinct_indices(group.order, size)
                          for _ in range(min(stack, samples - start))])
        coords = group.coords(cands)
        if mode == "tiling":
            uncovered, collisions = _cover_counts(group, pat, coords)
            hits = (uncovered == 0) & (collisions == 0)
        else:
            hits = _character_defects(group, pat, coords) <= CHARACTER_TOL * k
        for cand in cands[hits]:
            found.add(_canonical(group, cand))
    note = f"{reason}; sampled {samples} candidate sets, no exhaustive guarantee"
    return SearchResult(tuple(sorted(found)), False, samples, note)


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
    keeps them shallow, so the pattern cap is lifted. The group order cap
    is not, and a larger group is refused before a cube is built.
    """
    if group.order > GROUP_ORDER_CAP:
        raise ValueError(f"moduli {list(group.moduli)} give group order {group.order}, "
                         f"above the cube-check cap {GROUP_ORDER_CAP}")
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
