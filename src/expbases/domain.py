"""Finite-measure domains built from axis-aligned boxes and grid masks.

Every inner product in the toolkit is an integral over one of these
domains, evaluated either in closed form (box unions) or with the
midpoint quadrature rules constructed here. Domain.cells is the one walk
over a domain's pieces (its boxes, or its included mask cells) that the
quadrature rule, the Gram's centre and the exact weight extremes share:
three arrays, the lower corners and widths (m, d) and the volumes (m,) of
its m pieces, so each of them is one array expression.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

# Most points a midpoint rule may hold over all its pieces, as may any grid
# a scenario sets; counted before anything is allocated.
NODE_CAP = 2 ** 20


def _vector(value, name: str) -> tuple[float, ...]:
    arr = np.atleast_1d(np.asarray(value, dtype=float))
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a scalar or a 1-d vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite, got {arr.tolist()}")
    return tuple(float(x) for x in arr)


@dataclass(frozen=True, init=False)
class Box:
    """Axis-aligned box with strictly positive extent on every axis."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __init__(self, lower, upper):
        lo = _vector(lower, "lower")
        hi = _vector(upper, "upper")
        if len(lo) != len(hi):
            raise ValueError(f"lower has dimension {len(lo)} but upper has {len(hi)}")
        for axis, (a, b) in enumerate(zip(lo, hi)):
            if not a < b:
                raise ValueError(f"box is empty on axis {axis}: lower {a} >= upper {b}")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dimension(self) -> int:
        return len(self.lower)

    @property
    def volume(self) -> float:
        return float(np.prod([b - a for a, b in zip(self.lower, self.upper)]))


def _flags(included) -> np.ndarray:
    """included as a bool array, if it holds bools only, nested in lists of
    equal length."""
    try:
        flags = np.asarray(included)
    except ValueError:
        raise ValueError("included must nest its flags in lists of equal length") from None
    if flags.dtype != bool:
        raise ValueError(f"included flags must be bools, got {flags.dtype} values")
    return flags


@dataclass(frozen=True, init=False)
class MaskGrid:
    """Uniform grid with a boolean inclusion flag per cell.

    Cells are indexed lexicographically (first axis slowest), matching the
    C-order flattening of ``included``, whose flags must be bools (_flags).
    """

    origin: tuple[float, ...]
    counts: tuple[int, ...]
    widths: tuple[float, ...]
    included: tuple[bool, ...]

    def __init__(self, origin, counts, widths, included):
        org = _vector(origin, "origin")
        cnt = tuple(int(c) for c in np.atleast_1d(counts))
        wid = _vector(widths, "widths")
        if not len(org) == len(cnt) == len(wid):
            raise ValueError("origin, counts and widths must share one dimension")
        if any(c < 1 for c in cnt):
            raise ValueError(f"cell counts must be positive, got {cnt}")
        if any(w <= 0 for w in wid):
            raise ValueError(f"cell widths must be positive, got {wid}")
        inc = _flags(included)
        n_cells = int(np.prod(cnt))
        if inc.shape == tuple(cnt):
            inc = inc.reshape(-1)
        elif not (inc.ndim == 1 and inc.size == n_cells):
            raise ValueError(f"included must have shape {cnt} or length {n_cells}, got shape {inc.shape}")
        if not inc.any():
            raise ValueError("mask includes no cell")
        object.__setattr__(self, "origin", org)
        object.__setattr__(self, "counts", cnt)
        object.__setattr__(self, "widths", wid)
        object.__setattr__(self, "included", tuple(inc.tolist()))

    @property
    def dimension(self) -> int:
        return len(self.counts)

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.widths))

    @property
    def n_included(self) -> int:
        return sum(self.included)

    def included_cells(self) -> np.ndarray:
        """Multi-indices of included cells, lexicographic, shape (n, d)."""
        flat = np.flatnonzero(np.asarray(self.included, dtype=bool))
        return np.stack(np.unravel_index(flat, self.counts), axis=-1)


@dataclass(frozen=True, init=False)
class Domain:
    """Finite-measure domain: a box union or a grid mask, never both."""

    dimension: int
    boxes: tuple[Box, ...]
    mask: Optional[MaskGrid]
    measure: float

    def __init__(self, boxes: Sequence[Box] = (), mask: Optional[MaskGrid] = None):
        boxes = tuple(boxes)
        if not boxes and mask is None:
            raise ValueError("a domain needs at least one box or a grid mask")
        if boxes and mask is not None:
            raise ValueError("a domain is a box union or a grid mask, not both")
        dims = {b.dimension for b in boxes} if boxes else {mask.dimension}
        if len(dims) != 1:
            raise ValueError(f"mixed dimensions in domain parts: {sorted(dims)}")
        dim = dims.pop()
        lows = np.array([b.lower for b in boxes])
        highs = np.array([b.upper for b in boxes])
        for i in range(len(boxes) - 1):
            # Interiors meet when they overlap on every axis.
            hit = np.all((lows[i] < highs[i + 1:]) & (lows[i + 1:] < highs[i]), axis=1)
            if hit.any():
                j = i + 1 + int(np.argmax(hit))
                raise ValueError(
                    f"boxes {i} and {j} have overlapping interiors: "
                    f"{boxes[i].lower}..{boxes[i].upper} vs {boxes[j].lower}..{boxes[j].upper}")
        measure = sum(b.volume for b in boxes) if boxes else mask.n_included * mask.cell_volume
        if not (np.isfinite(measure) and measure > 0):
            raise ValueError(f"domain measure must be positive and finite, got {measure}")
        object.__setattr__(self, "dimension", dim)
        object.__setattr__(self, "boxes", boxes)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "measure", float(measure))

    def cells(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(lowers, widths, volumes) of the pieces an integral walks:
        lower corners and widths of shape (m, d), volumes of shape (m,).

        The pieces are the boxes in their stored order, or the included
        mask cells in lexicographic order.
        """
        if self.boxes:
            lowers = np.array([b.lower for b in self.boxes])
            return (lowers, np.array([b.upper for b in self.boxes]) - lowers,
                    np.array([b.volume for b in self.boxes]))
        idx = self.mask.included_cells()
        widths = np.asarray(self.mask.widths)
        return (np.asarray(self.mask.origin) + idx * widths, np.broadcast_to(widths, idx.shape),
                np.full(len(idx), self.mask.cell_volume))


def make_domain(boxes: Sequence[Box]) -> Domain:
    """Domain from a finite union of pairwise disjoint boxes."""
    return Domain(boxes=boxes)


def make_mask_domain(origin, counts, widths, included) -> Domain:
    """Domain from a uniform grid with per-cell inclusion flags."""
    return Domain(mask=MaskGrid(origin, counts, widths, included))


def normalize(domain: Domain) -> Domain:
    """Rescale all coordinates isotropically so the measure becomes one."""
    scale = domain.measure ** (-1.0 / domain.dimension)
    mask = domain.mask
    if mask is None:
        return Domain(boxes=[Box([x * scale for x in b.lower], [x * scale for x in b.upper])
                             for b in domain.boxes])
    return Domain(mask=MaskGrid([x * scale for x in mask.origin], mask.counts,
                                [w * scale for w in mask.widths], mask.included))


@dataclass(frozen=True, init=False)
class QuadratureRule:
    """Midpoint nodes and positive weights, frozen after construction."""

    nodes: np.ndarray
    weights: np.ndarray

    def __init__(self, nodes, weights):
        nodes = np.ascontiguousarray(np.asarray(nodes, dtype=float))
        weights = np.ascontiguousarray(np.asarray(weights, dtype=float))
        if nodes.ndim != 2:
            raise ValueError(f"nodes must have shape (n, d), got {nodes.shape}")
        if weights.shape != (nodes.shape[0],):
            raise ValueError(f"weights must have shape ({nodes.shape[0]},), got {weights.shape}")
        if nodes.shape[0] == 0:
            raise ValueError("a quadrature rule needs at least one node")
        if not np.all(weights > 0):
            raise ValueError("quadrature weights must be strictly positive")
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def total_weight(self) -> float:
        return float(self.weights.sum())


def _grid_size(per_axis, dimension: int = 1, pieces: int = 1) -> int:
    """per_axis as an int, if pieces grids of per_axis points on each of
    dimension axes hold at most NODE_CAP points."""
    per_axis = int(per_axis)
    if pieces * per_axis ** dimension > NODE_CAP:
        raise ValueError(f"{pieces * per_axis ** dimension} grid points exceed the cap {NODE_CAP}")
    return per_axis


def _rule_nodes(domain: Domain, nodes_per_axis) -> int:
    """nodes_per_axis as an int, if quadrature may lay that rule on domain."""
    if int(nodes_per_axis) < 1:
        raise ValueError(f"nodes_per_axis must be at least 1, got {nodes_per_axis}")
    return _grid_size(nodes_per_axis, domain.dimension, len(domain.boxes) or domain.mask.n_included)


def quadrature(domain: Domain, nodes_per_axis: int) -> QuadratureRule:
    """Midpoint rule over every piece of Domain.cells, in its order.

    Node ordering is deterministic, and the weight attached to each node
    is the volume of its subcell.
    """
    n = _rule_nodes(domain, nodes_per_axis)
    lower, widths, volume = domain.cells()
    # Subcell multi-indices in lexicographic order, one row per node of a piece.
    sub = np.stack(np.unravel_index(np.arange(n ** domain.dimension),
                                    (n,) * domain.dimension), axis=-1)
    nodes = lower[:, np.newaxis, :] + (sub + 0.5) * (widths[:, np.newaxis, :] / n)
    return QuadratureRule(nodes.reshape(-1, domain.dimension),
                          np.repeat(volume / n ** domain.dimension, sub.shape[0]))
