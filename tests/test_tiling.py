"""Finite abelian group translational covers and orthogonal character sets."""

import gc
import tracemalloc

import numpy as np
import pytest

import oracles
from expbases import (
    GroupInstance,
    Pcg32,
    cube_equivalence_check,
    cube_set,
    is_spectrum,
    search_complements,
    search_spectra,
    tiles,
)

# Frozen search results, confirmed against the subset-enumeration oracle.
KNOWN_CASES = [
    ((4,), (0, 1), {(0, 2)}, {(0, 2)}),
    ((6,), (0, 1, 2), {(0, 3)}, {(0, 2, 4)}),
    ((9,), (0, 1, 3), set(), set()),
    ((8,), (0, 1, 4, 5), {(0, 2)}, {(0, 1, 4, 5)}),
    ((2, 2), (0, 1), {(0, 2), (0, 3)}, {(0, 1), (0, 3)}),
]


def _seeded_cases():
    # Seeded patterns with no frozen answer: the oracle alone decides them.
    rng = Pcg32(2024)
    cases = []
    for moduli in ((4, 4), (2, 6), (3, 3)):
        order = int(np.prod(moduli))
        for size in (3, 3, 4, 4):
            cases.append((moduli, tuple(sorted(rng.distinct_indices(order, size))), None, None))
    return cases


def test_group_instance_validation_and_indexing():
    g = GroupInstance([3, 4])
    assert g.order == 12
    assert g.dimension == 2
    assert g.coords(7).tolist() == [1, 3]
    assert int(g.index([1, 3])) == 7
    assert int(g.index([4, 7])) == int(g.index([1, 3]))
    with pytest.raises(ValueError, match="positive"):
        GroupInstance([3, 0])
    with pytest.raises(ValueError, match="lie in"):
        g.coords(12)


def test_pattern_validation():
    g = GroupInstance([4])
    with pytest.raises(ValueError, match="repeated"):
        tiles(g, (0, 0), (0, 2))
    with pytest.raises(ValueError, match="lie in"):
        tiles(g, (0, 9), (0, 2))
    with pytest.raises(ValueError, match="nonempty"):
        tiles(g, (), (0, 2))


def test_tiles_counts_cover_defects():
    g = GroupInstance([4])
    good = tiles(g, (0, 1), (0, 2))
    assert good.is_tiling and good.uncovered == 0 and good.collisions == 0
    bad = tiles(g, (0, 2), (0, 2))
    assert not bad.is_tiling
    assert bad.uncovered == 2
    assert bad.collisions == 2


def test_is_spectrum_verdicts():
    g = GroupInstance([6])
    yes = is_spectrum(g, (0, 1, 2), (0, 2, 4))
    assert yes.is_spectrum and yes.sizes_match
    assert yes.defect <= yes.tolerance
    no = is_spectrum(g, (0, 1, 2), (0, 1, 2))
    assert not no.is_spectrum
    assert no.defect > no.tolerance
    short = is_spectrum(g, (0, 1, 2), (0, 3))
    assert not short.is_spectrum
    assert not short.sizes_match


@pytest.mark.parametrize("moduli,pattern,complements,spectra", KNOWN_CASES + _seeded_cases())
def test_searches_match_enumeration_oracle(moduli, pattern, complements, spectra):
    g = GroupInstance(moduli)
    comp = search_complements(g, pattern)
    spec = search_spectra(g, pattern)
    assert comp.exhaustive and spec.exhaustive
    oracle_complements = oracles.brute_force_complements(g, pattern)
    oracle_spectra = oracles.brute_force_spectra(g, pattern)
    assert set(comp.found) == oracle_complements
    assert set(spec.found) == oracle_spectra
    if complements is not None:
        assert oracle_complements == complements
        assert oracle_spectra == spectra


def test_found_sets_verify_under_direct_checks():
    g = GroupInstance([8])
    comp = search_complements(g, (0, 1, 4, 5))
    for cand in comp.found:
        assert tiles(g, (0, 1, 4, 5), cand).is_tiling
    spec = search_spectra(g, (0, 1, 4, 5))
    for cand in spec.found:
        assert is_spectrum(g, (0, 1, 4, 5), cand).is_spectrum


def test_search_results_are_translation_canonical():
    g = GroupInstance([6])
    base = search_complements(g, (0, 1, 2)).found
    shifted = search_complements(g, (3, 4, 5)).found
    assert base == shifted
    for cand in base:
        assert 0 in cand
        assert cand == oracles.canonical_translate(g, cand)


def test_nondivisor_pattern_short_circuits():
    res = search_complements(GroupInstance([5]), (0, 1))
    assert res.found == ()
    assert res.exhaustive
    assert "does not divide" in res.note


def test_singleton_pattern_edge_cases():
    g = GroupInstance([4])
    comp = search_complements(g, (0,))
    assert set(comp.found) == {(0, 1, 2, 3)}
    spec = search_spectra(g, (0,))
    assert set(spec.found) == {(0,)}


def test_exhaustive_caps_demand_explicit_choice():
    big = GroupInstance([5000])
    with pytest.raises(ValueError, match="force_exhaustive=True or a sample budget"):
        search_complements(big, (0, 1))
    wide = GroupInstance([26])
    with pytest.raises(ValueError, match="pattern size 13"):
        search_spectra(wide, tuple(range(13)))


def test_sampled_search_reports_no_guarantee():
    big = GroupInstance([5000])
    res = search_complements(big, (0, 1), samples=3)
    assert not res.exhaustive
    assert res.examined == 3
    assert "no exhaustive guarantee" in res.note
    with pytest.raises(ValueError, match="budget"):
        search_complements(big, (0, 1), samples=0)


def test_force_exhaustive_overrides_pattern_cap():
    # 13 columns in Z_26: the only spectrum is the even residues
    wide = GroupInstance([26])
    res = search_spectra(wide, tuple(range(13)), force_exhaustive=True)
    assert res.exhaustive
    assert set(res.found) == {tuple(range(0, 26, 2))}


def test_cube_set_indices():
    assert cube_set(GroupInstance([6, 6]), 2) == (0, 1, 6, 7)
    assert cube_set(GroupInstance([6]), 3) == (0, 1, 2)
    with pytest.raises(ValueError, match="lie in"):
        cube_set(GroupInstance([6]), 7)


def test_cube_equivalence_small_cyclic():
    rep = cube_equivalence_check(GroupInstance([4]), 2)
    assert rep.side == (2,)
    assert rep.dual_side == (2,)
    assert rep.equal
    assert rep.n_complements == rep.n_spectra == 1
    assert set(rep.complements.found) == {(0, 2)}


def test_cube_equivalence_requires_divisor_side():
    with pytest.raises(ValueError, match="divide"):
        cube_equivalence_check(GroupInstance([6]), 4)


def test_cube_equivalence_rejects_side_out_of_range():
    with pytest.raises(ValueError, match="lie in"):
        cube_equivalence_check(GroupInstance([6]), 0)


def test_cube_equivalence_z6_families():
    rep = cube_equivalence_check(GroupInstance([6]), 2)
    assert rep.dual_side == (3,)
    assert rep.equal
    assert set(rep.complements.found) == {(0, 2, 4)}


def test_spectrum_search_table_covers_admissible_differences_only():
    # The full difference table of Z64^2 would be 4,096^2 entries.
    g = GroupInstance([64, 64])
    pattern = cube_set(g, 2)
    tracemalloc.start()
    try:
        res = search_spectra(g, pattern)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.exhaustive and len(res.found) == 33
    assert peak < 8e6


def test_searches_leave_no_cycles_holding_their_tables():
    # A table kept alive until the next full collection raises peak memory
    # by its size (16 MB for the Z64^2 spectrum search).
    gc.collect()
    gc.disable()
    try:
        search_spectra(GroupInstance([8]), (0, 1))
        search_complements(GroupInstance([8]), (0, 1))
        assert gc.collect() == 0
    finally:
        gc.enable()
