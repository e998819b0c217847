"""Finite-measure domains built from axis-aligned boxes and grid masks.

Every inner product in the toolkit is an integral over one of these
domains, evaluated either in closed form (box unions) or with the
midpoint quadrature rules constructed here. Domain.cells is the one walk
over a domain's pieces (its boxes, else its included mask cells) that the
quadrature rule and the exact weight extremes share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

# Relative agreement required between the box and mask measures when a
# domain carries both representations.
MEASURE_AGREEMENT_RTOL = 1e-10

# Relative tolerance for the quadrature weight sum against the measure.
WEIGHT_SUM_RTOL = 1e-8


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


def _interiors_overlap(a: Box, b: Box) -> bool:
    return all(la < ub and lb < ua
               for la, ua, lb, ub in zip(a.lower, a.upper, b.lower, b.upper))


@dataclass(frozen=True, init=False)
class MaskGrid:
    """Uniform grid with a boolean inclusion flag per cell.

    Cells are indexed lexicographically (first axis slowest), matching the
    C-order flattening of ``included``.
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
        inc = np.asarray(included, dtype=bool)
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
        object.__setattr__(self, "included", tuple(bool(x) for x in inc))

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
    """Finite-measure domain carrying a box union, a grid mask, or both."""

    dimension: int
    boxes: tuple[Box, ...]
    mask: Optional[MaskGrid]
    measure: float

    def __init__(self, boxes: Sequence[Box] = (), mask: Optional[MaskGrid] = None):
        boxes = tuple(boxes)
        if not boxes and mask is None:
            raise ValueError("a domain needs at least one box or a grid mask")
        dims = {b.dimension for b in boxes}
        if mask is not None:
            dims.add(mask.dimension)
        if len(dims) != 1:
            raise ValueError(f"mixed dimensions in domain parts: {sorted(dims)}")
        dim = dims.pop()
        for i in range(len(boxes)):
            for j in range(i + 1, len(boxes)):
                if _interiors_overlap(boxes[i], boxes[j]):
                    raise ValueError(
                        f"boxes {i} and {j} have overlapping interiors: "
                        f"{boxes[i].lower}..{boxes[i].upper} vs {boxes[j].lower}..{boxes[j].upper}")
        box_measure = sum(b.volume for b in boxes)
        mask_measure = mask.n_included * mask.cell_volume if mask is not None else None
        measure = box_measure if boxes else mask_measure
        if boxes and mask_measure is not None:
            if abs(box_measure - mask_measure) > MEASURE_AGREEMENT_RTOL * measure:
                raise ValueError(
                    f"box measure {box_measure} and mask measure {mask_measure} disagree "
                    f"beyond {MEASURE_AGREEMENT_RTOL} relative")
        if not (np.isfinite(measure) and measure > 0):
            raise ValueError(f"domain measure must be positive and finite, got {measure}")
        object.__setattr__(self, "dimension", dim)
        object.__setattr__(self, "boxes", boxes)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "measure", float(measure))

    def cells(self) -> list[tuple[np.ndarray, np.ndarray, float]]:
        """(lower, widths, volume) of every piece an integral walks.

        The pieces are the boxes in their stored order when there are any,
        else the included mask cells in lexicographic order.
        """
        if self.boxes:
            lowers = [np.asarray(b.lower) for b in self.boxes]
            return [(lo, np.asarray(b.upper) - lo, b.volume)
                    for lo, b in zip(lowers, self.boxes)]
        mask = self.mask
        origin = np.asarray(mask.origin)
        widths = np.asarray(mask.widths)
        volume = mask.cell_volume
        return [(origin + idx * widths, widths, volume) for idx in mask.included_cells()]


def make_domain(boxes: Sequence[Box]) -> Domain:
    """Domain from a finite union of pairwise disjoint boxes."""
    boxes = tuple(boxes)
    if not boxes:
        raise ValueError("empty box list")
    return Domain(boxes=boxes)


def make_mask_domain(origin, counts, widths, included) -> Domain:
    """Domain from a uniform grid with per-cell inclusion flags."""
    return Domain(mask=MaskGrid(origin, counts, widths, included))


def normalize(domain: Domain) -> Domain:
    """Rescale all coordinates isotropically so the measure becomes one."""
    scale = domain.measure ** (-1.0 / domain.dimension)
    boxes = tuple(Box([x * scale for x in b.lower], [x * scale for x in b.upper])
                  for b in domain.boxes)
    mask = domain.mask
    if mask is not None:
        mask = MaskGrid([x * scale for x in mask.origin], mask.counts,
                        [w * scale for w in mask.widths], mask.included)
    return Domain(boxes=boxes, mask=mask)


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


def quadrature(domain: Domain, nodes_per_axis: int) -> QuadratureRule:
    """Midpoint rule over every piece of Domain.cells, in its order.

    Node ordering is deterministic, and the weight attached to each node
    is the volume of its subcell.
    """
    n = int(nodes_per_axis)
    if n < 1:
        raise ValueError(f"nodes_per_axis must be at least 1, got {nodes_per_axis}")
    lower, widths, volume = (np.array(part) for part in zip(*domain.cells()))
    # Subcell multi-indices in lexicographic order, one row per node of a piece.
    sub = np.stack(np.unravel_index(np.arange(n ** domain.dimension),
                                    (n,) * domain.dimension), axis=-1)
    nodes = lower[:, np.newaxis, :] + (sub + 0.5) * (widths[:, np.newaxis, :] / n)
    rule = QuadratureRule(nodes.reshape(-1, domain.dimension),
                          np.repeat(volume / n ** domain.dimension, sub.shape[0]))
    if abs(rule.total_weight - domain.measure) > WEIGHT_SUM_RTOL * domain.measure:
        raise RuntimeError(
            f"weight sum {rule.total_weight} drifted from measure {domain.measure}")
    return rule
