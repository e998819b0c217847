"""Tilings and spectra of patterns in finite abelian groups.

Elements of Z_{n_1} x ... x Z_{n_d} are addressed by C-order linear
index. Tiling verdicts are exact (integer coverage counts); spectrum
verdicts judge float character sums against CHARACTER_TOL times the
pattern size. is_spectrum forms the candidate's character Gram; the
spectrum searches read one table instead, the modulus of the group DFT of
the pattern's indicator, whose zeros are the admissible differences
(Fuglede). Searches are exhaustive depth-first walks of an explicit
stack up to the documented caps and a work budget, with a seeded
sampling fallback beyond the caps, charged against the same budget
before any draw. Both walks are anchored at 0 and find only the sets
through 0, which is all that translation leaves to find: the complement
walk covers the pattern's translate through 0 from offset 0, and the
spectrum walk extends cliques from 0, tabulating differences among
admissible elements only. It orders them by their count of admissible
differences, fewest first, extends each clique directly by each candidate
after its last member, and pushes a child only if enough candidates remain
to finish it.
A finished walk canonicalizes each orbit it found once. Sampled
candidates are drawn a stack at a time (one Pcg32.distinct_indices call,
the same values and stream as one draw per candidate) and checked in
bounded stacks. A sampled complement that meets its own translate by
pattern[1] - pattern[0] has two equal sums and is dropped by one gather;
the rest go through the verdict path of tiles(). A sampled spectrum is
judged by the table at the differences of its pairs, or, in a group
larger than a stack, by is_spectrum's Gram. Sums and differences of
elements are indexed without a modulo (_sum_index).
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

# Work an exhaustive walk may spend: one unit per node of the complement
# walk and per candidate the spectrum walk tries, plus n * n // 16
# per found set of n members (the size of a canonicalization table; 16
# entries cost about one node). Only one set per orbit is canonicalized,
# but every found set is charged. The walks find only sets through 0: a
# complement walk charges 1 in k of the complements and walks the part of
# a walk over every translate below its first choice, so it never spends
# more than that walk did. The caps bound the group and pattern, not the
# work. A sampled search is charged at the same rate for its
# pattern-by-candidate entries, all before it draws.
SEARCH_BUDGET = 2_000_000

# Pattern-by-candidate entries per stack of sampled candidates drawn and
# checked at once (each entry is a sum, a member mark or a character
# value), so memory does not grow with the sample budget. A sampled
# spectrum search reads a table of one character sum per group element
# only in groups of at most this many elements. The sampled Z72^2
# complement search (200 candidates of 1,296 against a 4-element pattern)
# took a median 21.4 ms at 2^14 (3 rows a stack), 18.0 at 2^15, 17.5 at
# 2^16 and 25.1 at 2^17 (2-core Xeon VM), where the blocks of states
# outgrow the cache.
_SAMPLE_STACK_ENTRIES = 2 ** 16


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
        return _coords(self, np.asarray(indices, dtype=int), "indices")

    def index(self, coords) -> np.ndarray:
        """Coordinate rows to linear indices, reducing mod the moduli."""
        c = np.asarray(coords, dtype=int) % np.asarray(self.moduli)
        return np.ravel_multi_index(tuple(np.moveaxis(c, -1, 0)), self.moduli)


def _coords(group: GroupInstance, idx: np.ndarray, what: str) -> np.ndarray:
    """Coordinate rows of the linear indices idx, named what if one lies outside the group."""
    if idx.size and (idx.min() < 0 or idx.max() >= group.order):
        raise ValueError(f"{what} must lie in [0, {group.order})")
    return _unravel(group, idx)


def _unravel(group: GroupInstance, idx: np.ndarray) -> np.ndarray:
    """Coordinate rows of linear indices known to lie in the group."""
    return np.stack(np.unravel_index(idx, group.moduli), axis=-1)


def _cube_sides(group: GroupInstance, side) -> tuple[int, ...]:
    """One cube side per axis, from a side or a side per axis, each in [1, m]."""
    sides = tuple(int(s) for s in np.broadcast_to(
        np.atleast_1d(np.asarray(side, dtype=int)), (group.dimension,)))
    for s, m in zip(sides, group.moduli):
        if not 1 <= s <= m:
            raise ValueError(f"cube side {s} must lie in [1, {m}]")
    return sides


def cube_set(group: GroupInstance, side) -> tuple[int, ...]:
    """Linear indices of the axis-aligned cube with the given side(s)."""
    axes = [np.arange(s) for s in _cube_sides(group, side)]
    coords = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, group.dimension)
    return tuple(int(i) for i in group.index(coords))


def _distinct_coords(group: GroupInstance, elements, label: str) -> np.ndarray:
    """Coordinate rows of elements, distinct linear indices into the group."""
    try:
        arr = np.asarray(list(elements), dtype=int)
    except OverflowError:
        # An index past int64 lies outside any group.
        raise ValueError(f"{label} indices must lie in [0, {group.order})") from None
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{label} must be a nonempty flat index collection")
    if len(set(arr.tolist())) != arr.size:
        raise ValueError(f"{label} contains repeated elements")
    return _coords(group, arr, f"{label} indices")


def _sum_index(group: GroupInstance, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Linear indices of a + b, for coordinate rows a and b reduced into the
    group and broadcast against each other.

    Per axis, m is taken off the sums at or above m, and the axes are folded
    with their moduli in C order: no modulo and no ravel_multi_index.
    """
    index = None
    for axis, m in enumerate(group.moduli):
        s = a[..., axis] + b[..., axis]
        s -= m * (s >= m)
        if index is None:
            index = s
        else:
            index *= m
            index += s
    return index


def _negated(group: GroupInstance, coords: np.ndarray) -> np.ndarray:
    """Coordinate rows of the negated elements, reduced into the group."""
    return -coords % np.asarray(group.moduli)


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
    sums = np.sort(_sum_index(group, pat[np.newaxis, :, np.newaxis, :],
                              cands[:, np.newaxis, :, :]).reshape(cands.shape[0], -1), axis=1)
    repeat = sums[:, 1:] == sums[:, :-1]
    uncovered = group.order - sums.shape[1] + repeat.sum(axis=1)
    # One collision per run of equal sums: each repeat not after a repeat.
    collisions = repeat[:, :1].sum(axis=1) + (repeat[:, 1:] & ~repeat[:, :-1]).sum(axis=1)
    return uncovered, collisions


def _tile_hits(group: GroupInstance, pat: np.ndarray, cands: np.ndarray) -> np.ndarray:
    """Which rows of cands, linear indices (m, n) drawn inside the group,
    tile with pat, coordinate rows (p, d).

    A row that meets its translate by pat[1] - pat[0] has two equal sums,
    c + pat[1] = c' + pat[0], so it cannot tile: one gather over marks of
    the rows' members drops it. The rows left get _cover_counts's exact
    verdict, as tiles() gives it. The marks hold m * order = m * p * n
    entries, as many as the sums.
    """
    coords = _unravel(group, cands)
    left = np.ones(len(cands), dtype=bool)
    if len(pat) > 1:
        rows = np.arange(len(cands))[:, np.newaxis]
        marks = np.zeros((len(cands), group.order), dtype=bool)
        marks[rows, cands] = True
        step = (pat[1] - pat[0]) % np.asarray(group.moduli)
        left = ~marks[rows, _sum_index(group, coords, step)].any(axis=1)
    hits = np.zeros(len(cands), dtype=bool)
    if left.any():
        uncovered, collisions = _cover_counts(group, pat, coords[left])
        hits[left] = (uncovered == 0) & (collisions == 0)
    return hits


def tiles(group: GroupInstance, pattern, candidate) -> TilingVerdict:
    """Exact check that pattern + candidate covers the group once each."""
    pat = _distinct_coords(group, pattern, "pattern")
    cand = _distinct_coords(group, candidate, "candidate")
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


def _character_sums(group: GroupInstance, pat: np.ndarray) -> np.ndarray:
    """|sum over a in pat of chi_x(a)| for every element x, in C order.

    The modulus of the group DFT of the pattern's 0/1 indicator (np.fft,
    imported on first use): O(order log order) time and O(order) memory,
    whatever the pattern size. A spectrum's differences are its zeros.
    """
    indicator = np.zeros(group.moduli)
    indicator[tuple(pat.T)] = 1.0
    return np.abs(np.fft.fftn(indicator)).ravel()


def _character_defects(group: GroupInstance, pat: np.ndarray, cands: np.ndarray) -> np.ndarray:
    # The largest off-diagonal character sum modulus per candidate, from
    # coordinate rows: pat (p, d), cands (m, n, d).
    m, n, d = cands.shape
    table = _character_table(group, cands.reshape(m * n, d), pat).reshape(m, n, -1)
    gram = table @ table.conj().transpose(0, 2, 1)
    gram[:, np.arange(n), np.arange(n)] = 0
    return np.abs(gram).max(axis=(1, 2))


def _spectrum_hits(group: GroupInstance, pat: np.ndarray, cands: np.ndarray,
                   sums: Optional[np.ndarray]) -> np.ndarray:
    """Which rows of cands, linear indices (m, k) drawn inside the group, are
    spectra of pat, coordinate rows (k, d).

    The Gram entry of members c_i and c_j is the character sum at c_i - c_j,
    so with sums, _character_sums's table, a row's defect is the largest
    entry at the differences of its k(k-1)/2 pairs. Without it each row
    forms its character Gram, as is_spectrum does.
    """
    coords = _unravel(group, cands)
    if sums is None:
        defects = _character_defects(group, pat, coords)
    else:
        i, j = np.triu_indices(len(pat), 1)
        defects = sums[_sum_index(group, coords[:, i], _negated(group, coords[:, j]))].max(
            axis=1, initial=0.0)
    return defects <= CHARACTER_TOL * len(pat)


def is_spectrum(group: GroupInstance, pattern, candidate) -> SpectrumVerdict:
    """Check that the candidate characters are orthogonal and complete on the pattern.

    Completeness is by counting: the candidate must match the pattern's
    size. Orthogonality defect is the largest off-diagonal character sum
    modulus, judged against CHARACTER_TOL times the pattern size.
    """
    pat = _distinct_coords(group, pattern, "pattern")
    cand = _distinct_coords(group, candidate, "candidate")
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
    coords = _unravel(group, indices)
    keys = []
    for start in range(0, coords.shape[0], 256):
        origins = _negated(group, coords[start:start + 256, np.newaxis, :])
        rows = np.sort(_sum_index(group, coords[np.newaxis, :, :], origins), axis=1)
        keys.append(tuple(rows[np.lexsort(rows.T[::-1])[0]].tolist()))
        if pending is not None:
            pending.difference_update(map(tuple, rows.tolist()))
    return min(keys)


def _orbit_minima(group: GroupInstance, hits: list) -> tuple[tuple[int, ...], ...]:
    """The orbit minima of the sets through 0 that a finished walk found.

    Both exhaustive walks are anchored at 0 and find every set through 0,
    so they find all of each orbit's sets through 0 and no other set.
    Canonicalizing one strikes all of them, so each orbit costs one
    _canonical call and nothing is kept beyond the found sets; the last
    orbit has nothing left to strike.
    """
    pending = {tuple(sorted(hit)) for hit in hits}
    minima = []
    while pending:
        minima.append(_canonical(group, np.asarray(pending.pop()), pending or None))
    return tuple(sorted(minima))


def _over_budget(what: str) -> ValueError:
    return ValueError(f"{what} passed its budget of {SEARCH_BUDGET} work units unfinished")


def _spend(work: int, cost: int, what: str) -> int:
    # The walks charge their nodes inline, and a found set through here.
    if work + cost > SEARCH_BUDGET:
        raise _over_budget(what)
    return work + cost


_NO_COMPLEMENT = "pattern size does not divide the group order"


def _search_route(group: GroupInstance, k: int, complement: bool, force: bool,
                  samples: Optional[int]) -> Optional[str]:
    """_NO_COMPLEMENT, None (walk exhaustively) or the caps' reason to sample;
    refused past a cap with no budget, or for a sampled candidate (order // k
    elements for a complement, k for a spectrum) above GROUP_ORDER_CAP. The
    work of the samples is _sample_work's to bound."""
    kind = "complement" if complement else "spectrum"
    if complement and group.order % k:
        return _NO_COMPLEMENT
    if group.order > GROUP_ORDER_CAP:
        reason = f"group order {group.order} exceeds the exhaustive cap {GROUP_ORDER_CAP}"
        remedy = "a sample budget"
    elif k > PATTERN_SIZE_CAP and not force:
        reason = f"pattern size {k} exceeds the exhaustive cap {PATTERN_SIZE_CAP}"
        remedy = "force_exhaustive or a sample budget"
    else:
        return None
    if samples is None:
        raise ValueError(f"{reason} for {kind} search; pass {remedy}")
    if samples < 1:
        raise ValueError(f"sample budget must be positive, got {samples}")
    size = group.order // k if complement else k
    if size > GROUP_ORDER_CAP:
        raise ValueError(f"a sampled {kind} of {size} elements exceeds the cap {GROUP_ORDER_CAP}")
    return reason


def _sample_work(group: GroupInstance, k: int, complement: bool, samples: int) -> int:
    """The candidate size, if samples candidates cost at most SEARCH_BUDGET:
    one unit per 16 pattern-by-candidate entries, as a canonicalization is
    charged."""
    size = group.order // k if complement else k
    if samples * k * size // 16 > SEARCH_BUDGET:
        raise ValueError(f"sample budget {samples} costs {samples * k * size // 16} work units "
                         f"on {size}-element candidates, past the budget of {SEARCH_BUDGET}")
    return size


def search_complements(group: GroupInstance, pattern, *,
                       force_exhaustive: bool = False,
                       samples: Optional[int] = None,
                       rng: Optional[Pcg32] = None) -> SearchResult:
    """All tiling complements of the pattern, up to translation.

    Exact-cover depth-first search keyed on the least uncovered element,
    of the pattern's translate through 0 with offset 0 chosen: it
    enumerates the complements through 0, one orbit's worth of each, and
    canonicalizes each orbit to its minimum. examined counts every
    complement, k for each one through 0 for a pattern of k elements. A
    walk past SEARCH_BUDGET raises ValueError.
    """
    pat_coords = _distinct_coords(group, pattern, "pattern")
    order = group.order
    route = _search_route(group, len(pat_coords), True, force_exhaustive, samples)
    if route == _NO_COMPLEMENT:
        return SearchResult((), True, 0, route)
    if route is not None:
        return _sampled_search(group, pat_coords, samples, rng, route, mode="tiling")

    # A translate of the pattern has the same complements: walk the one
    # through 0, whose offset 0 covers element 0.
    pat_coords = (pat_coords - pat_coords[0]) % np.asarray(group.moduli)
    all_coords = group.coords(np.arange(order))
    shifted = _sum_index(group, pat_coords[np.newaxis, :, :], all_coords[:, np.newaxis, :])
    full = (1 << order) - 1
    # Translates are bijections, so a sum of distinct bits is their union.
    cover = [sum(1 << s for s in row) for row in shifted.tolist()]
    # starters[e] lists the b values whose translate reaches element e.
    starters = _sum_index(group, all_coords[:, np.newaxis, :],
                          _negated(group, pat_coords)[np.newaxis, :, :]).tolist()

    hits = []
    work = 0
    budget = SEARCH_BUDGET
    stack = [(cover[0], (0,))]
    while stack:
        work += 1
        if work > budget:
            raise _over_budget("complement search")
        covered, chosen = stack.pop()
        if covered == full:
            work = _spend(work, len(chosen) ** 2 // 16, "complement search")
            hits.append(chosen)
            continue
        least = (~covered & (covered + 1)).bit_length() - 1
        for b in starters[least]:
            if not cover[b] & covered:
                stack.append((covered | cover[b], chosen + (b,)))
    # Translates of a complement are complements, so each element lies in as
    # many complements as 0 does. Each complement has order // k members, so
    # counting memberships, order times that number is order // k times the
    # number of complements: there are k complements for each one through 0.
    return SearchResult(_orbit_minima(group, hits), True, len(pat_coords) * len(hits), "")


def search_spectra(group: GroupInstance, pattern, *,
                   force_exhaustive: bool = False,
                   samples: Optional[int] = None,
                   rng: Optional[Pcg32] = None) -> SearchResult:
    """All spectra of the pattern, up to translation.

    Differences within a spectrum must annihilate the pattern's character
    sum, read from one table of every element's sum (_character_sums, the
    group DFT of the pattern's indicator), so the search lists the cliques
    of the admissible difference set through zero; a sampled search judges
    each candidate's pair differences in the same table (or by the Gram of
    is_spectrum, past a stack's entries). The admissible elements are
    ordered by their count of admissible differences, fewest first, and a
    clique is extended by each candidate after its last member in turn; a
    child that has too few candidates left to finish is not pushed. Each
    candidate tried costs a unit; a walk past SEARCH_BUDGET raises
    ValueError.
    """
    pat_coords = _distinct_coords(group, pattern, "pattern")
    k = len(pat_coords)
    route = _search_route(group, k, False, force_exhaustive, samples)
    if route is not None:
        return _sampled_search(group, pat_coords, samples, rng, route, mode="spectrum")

    ok = _character_sums(group, pat_coords) <= CHARACTER_TOL * k
    ok[0] = False

    # Every member of a spectrum anchored at 0 is admissible, so the table
    # needs admissible elements only; bit r of extends[c] is set when
    # admissible[r] - admissible[c] is admissible. A clique is extended only
    # by positions after its last member, so the positions run by ascending
    # count of admissible differences (ties in index order): the sparse
    # elements come first, and their small candidate sets cut the walk early.
    admissible = np.flatnonzero(ok)
    adm_coords = _unravel(group, admissible)
    diff_ok = ok[_sum_index(group, adm_coords[:, np.newaxis, :],
                            _negated(group, adm_coords)[np.newaxis, :, :])]
    position = np.argsort(diff_ok.sum(axis=0), kind="stable")
    admissible = admissible[position].tolist()
    extends = [int.from_bytes(np.packbits(col, bitorder="little").tobytes(), "little")
               for col in diff_ok[np.ix_(position, position)].T]

    hits = []
    work = 0
    budget = SEARCH_BUDGET
    # Each entry is a clique and the bitset of admissible positions that may
    # extend it.
    stack = [((0,), (1 << len(admissible)) - 1)]
    while stack:
        members, candidates = stack.pop()
        needed = k - len(members)
        if needed == 0:
            work = _spend(work, k * k // 16, "spectrum search")
            hits.append(members)
            continue
        while candidates.bit_count() >= needed:
            work += 1
            if work > budget:
                raise _over_budget("spectrum search")
            low = candidates & -candidates
            candidates ^= low
            c = low.bit_length() - 1
            rest = candidates & extends[c]
            if rest.bit_count() >= needed - 1:
                stack.append((members + (admissible[c],), rest))
    return SearchResult(_orbit_minima(group, hits), True, len(hits), "")


def _sampled_search(group: GroupInstance, pat: np.ndarray,
                    samples: int, rng: Optional[Pcg32], reason: str,
                    mode: str) -> SearchResult:
    # The route (_search_route) bounded the candidate size; the work is
    # bounded here, before any draw.
    k = len(pat)
    samples = int(samples)
    size = _sample_work(group, k, mode == "tiling", samples)
    rng = rng if rng is not None else Pcg32(0)
    # Candidates are checked in stacks drawn in order, of at most
    # _SAMPLE_STACK_ENTRIES pattern-by-candidate entries.
    stack = max(1, _SAMPLE_STACK_ENTRIES // (k * size))
    sums = (_character_sums(group, pat)
            if mode == "spectrum" and group.order <= _SAMPLE_STACK_ENTRIES else None)
    found: set[tuple[int, ...]] = set()
    for start in range(0, samples, stack):
        cands = rng.distinct_indices(group.order, size, min(stack, samples - start))
        # Drawn inside [0, order), so the indices need no range check.
        if mode == "tiling":
            hits = _tile_hits(group, pat, cands)
        else:
            hits = _spectrum_hits(group, pat, cands, sums)
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


def _cube_group(group: GroupInstance) -> GroupInstance:
    """group, if both searches of a cube check may walk it exhaustively."""
    if group.order > GROUP_ORDER_CAP:
        raise ValueError(f"moduli {list(group.moduli)} give group order {group.order}, "
                         f"above the cube-check cap {GROUP_ORDER_CAP}")
    return group


def _dual_sides(group: GroupInstance, sides) -> Optional[tuple[int, ...]]:
    """The dual cube's sides, modulus // side per axis, or None unless each
    side divides its axis modulus."""
    if any(m % s for s, m in zip(sides, group.moduli)):
        return None
    return tuple(m // s for s, m in zip(sides, group.moduli))


def cube_equivalence_check(group: GroupInstance, side) -> CubeReport:
    """Match the cube's tiling complements against the dual cube's spectra.

    The dual cube has per-axis side modulus/side, so the side must divide
    every modulus. Both searches run exhaustively; the cube structure
    keeps them shallow, so the pattern cap is lifted. The group order cap
    is not, and a larger group is refused before a cube is built.
    """
    _cube_group(group)
    sides = _cube_sides(group, side)
    dual = _dual_sides(group, sides)
    if dual is None:
        raise ValueError(f"cube sides {list(sides)} must divide the moduli {list(group.moduli)}")
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
