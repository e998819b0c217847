"""Domain construction, masks, and midpoint quadrature."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from expbases import (
    Box,
    Domain,
    MaskGrid,
    QuadratureRule,
    make_domain,
    make_mask_domain,
    normalize,
    quadrature,
)
from expbases.cli import main


def test_box_coerces_scalars_to_one_dim():
    box = Box(0.0, 2.5)
    assert box.dimension == 1
    assert box.volume == 2.5
    assert box.lower == (0.0,)


@pytest.mark.parametrize("lower,upper", [
    (0.0, 0.0),
    (1.0, 0.5),
    ([0.0, 0.0], [1.0, 0.0]),
])
def test_box_rejects_empty_axes(lower, upper):
    with pytest.raises(ValueError, match="empty on axis"):
        Box(lower, upper)


def test_box_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        Box([0.0], [1.0, 2.0])


def test_box_rejects_non_finite():
    with pytest.raises(ValueError, match="finite"):
        Box(0.0, float("inf"))


def test_union_measure_adds_volumes():
    domain = make_domain([Box(0.0, 1.0), Box(2.0, 2.5)])
    assert domain.dimension == 1
    assert domain.measure == pytest.approx(1.5, abs=1e-15)


def test_overlapping_boxes_rejected():
    with pytest.raises(ValueError, match="overlap"):
        make_domain([Box(0.0, 1.0), Box(0.5, 1.5)])
    # Pairs (1, 2), (1, 3) and (0, 3) overlap; the first in (i, j > i)
    # order is named, though pair (1, 2) has the smaller j. In 2-D, a box
    # meeting another on one axis only does not overlap it.
    with pytest.raises(ValueError) as info:
        make_domain([Box(0.0, 1.0), Box(2.0, 3.0), Box(2.5, 4.0), Box(0.5, 2.2)])
    assert str(info.value) == ("boxes 0 and 3 have overlapping interiors: "
                               "(0.0,)..(1.0,) vs (0.5,)..(2.2,)")
    with pytest.raises(ValueError) as info:
        make_domain([Box([0.0, 0.0], [1.0, 1.0]), Box([0.5, 2.0], [1.5, 3.0]),
                     Box([0.0, 1.0], [1.0, 2.0]), Box([0.9, 1.5], [2.0, 2.5])])
    assert str(info.value).startswith("boxes 1 and 3 have overlapping interiors: ")


def test_touching_boxes_allowed():
    domain = make_domain([Box(0.0, 1.0), Box(1.0, 2.0)])
    assert domain.measure == pytest.approx(2.0)


def test_empty_domain_rejected():
    with pytest.raises(ValueError):
        make_domain([])
    with pytest.raises(ValueError):
        Domain()


def test_mixed_dimensions_rejected():
    with pytest.raises(ValueError, match="mixed dimensions"):
        Domain(boxes=[Box(0.0, 1.0), Box([0.0, 0.0], [1.0, 1.0])])


def test_mask_measure_counts_included_cells():
    domain = make_mask_domain(
        [0.0, 0.0], [2, 2], [0.5, 0.5], [[True, False], [True, True]])
    assert domain.measure == pytest.approx(0.75)
    assert domain.mask.n_included == 3
    assert domain.mask.included_cells().tolist() == [[0, 0], [1, 0], [1, 1]]


def test_mask_needs_one_included_cell():
    with pytest.raises(ValueError, match="no cell"):
        MaskGrid([0.0], [2], [0.5], [False, False])


def test_mask_shape_mismatch_rejected():
    with pytest.raises(ValueError, match="included"):
        MaskGrid([0.0], [3], [0.5], [True, False])


@pytest.mark.parametrize("included,message", [
    (["no", "no"], "included flags must be bools, got <U2 values"),
    ([2, 0], "included flags must be bools, got int64 values"),
    ([0.5, 0.0], "included flags must be bools, got float64 values"),
    ([True, 1], "included flags must be bools, got int64 values"),
    ([[True], [True, False]], "included must nest its flags in lists of equal length"),
])
def test_mask_flags_must_be_bools(included, message):
    # Flags are not read by truthiness, by which ["no", "no"] includes both cells.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make_mask_domain([0.0], [2], [1.0], included)


def test_normalize_rescales_to_unit_measure():
    domain = make_domain([Box([0.0, 0.0], [2.0, 3.0])])
    scaled = normalize(domain)
    assert scaled.measure == pytest.approx(1.0, abs=1e-12)
    assert scaled.dimension == 2
    mask = normalize(make_mask_domain([1.0], [4], [0.5], [True, False, True, True]))
    assert mask.measure == pytest.approx(1.0, abs=1e-12)
    assert not mask.boxes and mask.mask.origin == (1.0 / 1.5,)


@given(lo=st.floats(-4.0, 4.0), width=st.floats(0.1, 3.0), n=st.integers(1, 7))
@settings(max_examples=40, deadline=None)
def test_quadrature_weights_sum_to_measure(lo, width, n):
    domain = make_domain([Box(lo, lo + width)])
    rule = quadrature(domain, n)
    assert rule.n_nodes == n
    assert rule.total_weight == pytest.approx(domain.measure, rel=1e-12)


def test_quadrature_midpoints_exact():
    rule = quadrature(make_domain([Box(0.0, 1.0)]), 2)
    assert rule.nodes[:, 0].tolist() == [0.25, 0.75]
    assert rule.weights.tolist() == [0.5, 0.5]


def test_quadrature_covers_mask_cells():
    domain = make_mask_domain(
        [0.0, 0.0], [2, 2], [0.5, 0.5], [[True, False], [True, True]])
    rule = quadrature(domain, 2)
    assert rule.n_nodes == 3 * 4
    assert rule.total_weight == pytest.approx(domain.measure, rel=1e-12)


def _per_cell_quadrature(domain, n):
    # Reference: one meshgrid of subcell midpoints per piece, concatenated.
    nodes, weights = [], []
    for lower, widths, volume in zip(*domain.cells()):
        axes = [lower[j] + (np.arange(n) + 0.5) * (widths[j] / n) for j in range(lower.size)]
        mesh = np.meshgrid(*axes, indexing="ij")
        nodes.append(np.stack([m.reshape(-1) for m in mesh], axis=-1))
        weights.append(np.full(n ** lower.size, volume / n ** lower.size))
    return np.concatenate(nodes), np.concatenate(weights)


QUADRATURE_DOMAINS = [
    make_domain([Box(-1.0, -0.3), Box(0.1, 0.35), Box(0.5, 1.4)]),
    make_domain([Box([2.0, 0.0], [3.0, 0.5]), Box([0.0, 0.0], [1.5, 2.0])]),
    make_domain([Box([0.0, 0.0, 0.0], [0.3, 0.7, 1.1]), Box([1.0, 0.0, 0.0], [1.9, 0.2, 0.4])]),
    make_mask_domain([0.1], [5], [0.3], [True, False, True, True, False]),
    make_mask_domain([1.0, -1.0], [3, 2], [0.5, 0.25], [[True, False], [False, True], [True, True]]),
    make_mask_domain([0.0, 0.0, -0.5], [2, 2, 2], [0.5, 0.3, 0.7],
                     [[[True, False], [True, True]], [[False, True], [True, False]]]),
]


@pytest.mark.parametrize("n", [1, 3, 4, 24, 45])
@pytest.mark.parametrize("domain", QUADRATURE_DOMAINS)
def test_quadrature_matches_the_per_cell_midpoints_bitwise(domain, n):
    rule = quadrature(domain, n)
    nodes, weights = _per_cell_quadrature(domain, n)
    assert np.array_equal(rule.nodes, nodes)
    assert np.array_equal(rule.weights, weights)


def test_cells_of_a_box_union_keep_the_stored_order():
    domain = make_domain([Box([2.0, 0.0], [3.0, 0.5]), Box([0.0, 0.0], [1.5, 2.0])])
    cells = list(zip(*domain.cells()))
    assert [c[0].tolist() for c in cells] == [[2.0, 0.0], [0.0, 0.0]]
    assert [c[1].tolist() for c in cells] == [[1.0, 0.5], [1.5, 2.0]]
    assert [c[2] for c in cells] == [0.5, 3.0]


def test_cells_of_a_mask_skip_excluded_cells_lexicographically():
    included = [[True, False], [False, True], [True, True]]
    domain = make_mask_domain([1.0, -1.0], [3, 2], [0.5, 0.25], included)
    cells = list(zip(*domain.cells()))
    assert [c[0].tolist() for c in cells] == [
        [1.0, -1.0], [1.5, -0.75], [2.0, -1.0], [2.0, -0.75]]
    assert all(c[1].tolist() == [0.5, 0.25] for c in cells)
    assert [c[2] for c in cells] == [0.125] * 4
    assert sum(c[2] for c in cells) == domain.measure


def test_quadrature_rejects_zero_nodes():
    with pytest.raises(ValueError, match="nodes_per_axis"):
        quadrature(make_domain([Box(0.0, 1.0)]), 0)


def test_quadrature_counts_its_nodes_over_every_piece_before_it_allocates():
    # 725 nodes per axis on each of two squares are 1,051,250 nodes, past the
    # cap of 2^20 that one square holds; 2^45 per axis would ask for 2^91
    # nodes, and is refused as promptly.
    from expbases.domain import NODE_CAP
    two = make_domain([Box([0.0, 0.0], [1.0, 1.0]), Box([1.0, 0.0], [2.0, 1.0])])
    with pytest.raises(ValueError, match=f"1051250 grid points exceed the cap {NODE_CAP}"):
        quadrature(two, 725)
    assert quadrature(make_domain([Box(0.0, 1.0)]), NODE_CAP).n_nodes == NODE_CAP
    with pytest.raises(ValueError, match=f"{2 ** 91} grid points exceed the cap"):
        quadrature(two, 2 ** 45)


def test_rule_rejects_nonpositive_weights():
    with pytest.raises(ValueError, match="strictly positive"):
        QuadratureRule(np.zeros((2, 1)), np.array([0.5, 0.0]))


def test_rule_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="weights"):
        QuadratureRule(np.zeros((2, 1)), np.array([0.5, 0.25, 0.25]))


def test_a_domain_given_both_boxes_and_a_mask_is_rejected(tmp_path, capsys):
    # The closed form and the cells read only the boxes, so a mask given
    # beside them would be ignored.
    with pytest.raises(ValueError, match="not both"):
        Domain(boxes=[Box(0.0, 1.0)], mask=MaskGrid([5.0], [2], [0.5], [True, True]))
    scenario = {"name": "both", "command": "bounds",
                "parameters": {"domain": {"boxes": [[0.0, 1.0]],
                                          "mask": {"origin": [5.0], "counts": [2],
                                                   "widths": [0.5], "included": [True, True]}},
                               "freqs": {"range": [-2, 2]}}}
    path = tmp_path / "both.json"
    path.write_text(json.dumps(scenario))
    assert main(["bounds", "--scenario", str(path), "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert "scenario.parameters.domain (needs exactly one of boxes or mask)" in err
    assert not (tmp_path / "r.json").exists()
