"""Finite abelian group translational covers and orthogonal character sets."""

import gc
import hashlib
import json
import re
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
    tiling,
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


def test_group_orders_past_an_index_are_rejected():
    with pytest.raises(ValueError, match=r"moduli \[8589934592, 8589934593\] give group order "
                                         r"73786976303428141056"):
        GroupInstance([2 ** 33, 2 ** 33 + 1])
    assert GroupInstance([2 ** 31, 2 ** 31 - 1]).order == 2 ** 62 - 2 ** 31


def bincount_tiles(group, pattern, candidate):
    """The coverage counts of every group element, one bincount entry each."""
    pat = group.coords(np.asarray(pattern))
    cand = group.coords(np.asarray(candidate))
    sums = group.index((pat[:, None, :] + cand[None, :, :]).reshape(-1, group.dimension))
    counts = np.bincount(sums, minlength=group.order)
    return int((counts == 0).sum()), int((counts > 1).sum())


@pytest.mark.parametrize("moduli", [(12,), (4, 6), (3, 3, 2)])
def test_tiles_counts_match_a_count_per_element(moduli):
    group = GroupInstance(moduli)
    rng = Pcg32(17)
    for trial in range(40):
        pattern = rng.distinct_indices(group.order, 1 + trial % 4)
        candidate = rng.distinct_indices(group.order, 1 + trial % 6)
        verdict = tiles(group, pattern, candidate)
        assert (verdict.uncovered, verdict.collisions) == bincount_tiles(group, pattern, candidate)


@pytest.mark.parametrize("moduli,side", [((12,), 3), ((4, 6), (2, 3)), ((3, 3, 2), (3, 1, 2))])
def test_stacked_checks_equal_the_single_candidate_checks(moduli, side):
    # Sampled searches check a stack of candidates at once; each row must
    # get the verdict and counts the public check gives it alone. Found
    # complements and spectra of a cube lead its stacks, so both verdicts
    # occur; a seeded pattern's stacks follow.
    group = GroupInstance(moduli)
    rng = Pcg32(29)
    hits = {search_complements: 0, search_spectra: 0}
    for pattern in (cube_set(group, side), tuple(sorted(rng.distinct_indices(group.order, 3)))):
        pat = group.coords(np.asarray(pattern))
        for search, n in ((search_complements, group.order // len(pattern)),
                          (search_spectra, len(pattern))):
            found = search(group, pattern).found
            cands = np.array([*found, *(rng.distinct_indices(group.order, n) for _ in range(12))])
            coords = group.coords(cands)
            if search is search_complements:
                stacked = zip(*tiling._cover_counts(group, pat, coords))
                for cand, counts in zip(cands, stacked):
                    verdict = tiles(group, pattern, cand)
                    assert (verdict.uncovered, verdict.collisions) == counts
                    assert counts == bincount_tiles(group, pattern, cand)
                    assert verdict.is_tiling == (oracles.canonical_translate(group, cand) in found)
                    hits[search] += verdict.is_tiling
            else:
                defects = tiling._character_defects(group, pat, coords)
                for cand, defect in zip(cands, defects):
                    verdict = is_spectrum(group, pattern, cand)
                    assert verdict.is_spectrum == (defect <= verdict.tolerance)
                    assert defect == pytest.approx(verdict.defect, rel=1e-12, abs=1e-12)
                    assert verdict.is_spectrum == (oracles.canonical_translate(group, cand) in found)
                    hits[search] += verdict.is_spectrum
    assert min(hits.values()) > 0


def test_sampled_searches_that_find_sets_keep_their_results():
    # Values recorded before sampled candidates were drawn in blocks and
    # checked in stacks, with the stream's next output after the search.
    # Any pair at an odd distance is a spectrum of {0, 2050} in Z_4100, and
    # {0, 2050} is the one complement of {0, ..., 2049} up to translation.
    group = GroupInstance([4100])
    rng = Pcg32(1)
    spec = search_spectra(group, (0, 2050), samples=300, rng=rng)
    assert (len(spec.found), spec.examined) == (144, 300)
    assert all(a == 0 and d % 2 == 1 and d < 2050 for a, d in spec.found)
    assert hashlib.sha256(json.dumps(spec.found).encode()).hexdigest() == (
        "024fcb3f43ee304827f9fede92f0fee40faeb4977b59162899c4f070e59cef72")
    assert rng.next_u32() == 4051017673
    for seed, found, following in ((5, ((0, 2050),), 843016471), (4, (), 1385166840)):
        rng = Pcg32(seed)
        comp = search_complements(group, tuple(range(2050)), samples=1000, rng=rng)
        assert (comp.found, comp.examined) == (found, 1000)
        assert rng.next_u32() == following


@pytest.mark.parametrize("search,moduli,found,examined,digest", [
    (search_complements, [16, 16], 39, 1020,
     "de4d8fe3703796ba4f507203bac0f7e0a6a2270eedaae2b8b5dda62716136eb1"),
    (search_spectra, [64, 64], 33, 63,
     "990033d8d3799fccf3f74ce3adeb6f574a25705983354902cda5f5cd90da06c8"),
])
def test_an_exhaustive_walk_canonicalizes_each_orbit_once(monkeypatch, search, moduli, found,
                                                          examined, digest):
    # Found sets and counts as recorded when every found set was
    # canonicalized (1,020 and 63 _canonical calls).
    canonical = tiling._canonical
    calls = []

    def counted(*args):
        calls.append(1)
        return canonical(*args)
    monkeypatch.setattr(tiling, "_canonical", counted)
    group = GroupInstance(moduli)
    res = search(group, cube_set(group, 2))
    assert (len(res.found), res.examined) == (found, examined)
    assert hashlib.sha256(json.dumps(res.found).encode()).hexdigest() == digest
    assert len(calls) == found


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
    # Forcing lifts the pattern cap only, so it is the remedy named for
    # that cap alone.
    big = GroupInstance([5000])
    with pytest.raises(ValueError, match="exhaustive cap 4096 for complement search; "
                                         "pass a sample budget$"):
        search_complements(big, (0, 1))
    wide = GroupInstance([26])
    with pytest.raises(ValueError, match="pattern size 13 .*; pass force_exhaustive=True "
                                         "or a sample budget$"):
        search_spectra(wide, tuple(range(13)))


@pytest.mark.parametrize("search", [search_complements, search_spectra])
def test_a_forced_search_above_the_order_cap_is_refused_before_it_allocates(search,
                                                                            monkeypatch):
    # An exhaustive walk lays the group out element by element: in
    # Z_{2^40}, 2^40 coordinate rows before its budget is ever spent.
    def coords(self, indices):
        raise AssertionError("allocated per group element")
    monkeypatch.setattr(GroupInstance, "coords", coords)
    with pytest.raises(ValueError, match=f"group order {2 ** 40} exceeds the exhaustive cap "
                                         "4096 for .*; pass a sample budget$"):
        search(GroupInstance([2 ** 40]), (0, 1), force_exhaustive=True)
    monkeypatch.undo()
    # With a sample budget the forced search is sampled.
    res = search(GroupInstance([5000]), (0, 1), force_exhaustive=True, samples=2)
    assert not res.exhaustive and res.examined == 2
    assert "group order 5000 exceeds the exhaustive cap 4096" in res.note


def test_a_cube_check_above_the_order_cap_is_refused_before_a_cube_is_built(monkeypatch):
    def cube(group, side):
        raise AssertionError("built a cube")
    monkeypatch.setattr(tiling, "cube_set", cube)
    with pytest.raises(ValueError, match=re.escape(
            f"moduli [{2 ** 40}] give group order {2 ** 40}, above the cube-check cap 4096")):
        cube_equivalence_check(GroupInstance([2 ** 40]), 2)


def test_sampled_search_reports_no_guarantee():
    big = GroupInstance([5000])
    res = search_complements(big, (0, 1), samples=3)
    assert not res.exhaustive
    assert res.examined == 3
    assert "no exhaustive guarantee" in res.note
    with pytest.raises(ValueError, match="budget"):
        search_complements(big, (0, 1), samples=0)


def test_a_sampled_candidate_is_bounded_before_any_draw(monkeypatch):
    # A 2-element pattern in Z_{2^40} has complements of 2^39 elements.
    def draw(self, bound, k):
        raise AssertionError("drew a candidate")
    monkeypatch.setattr(Pcg32, "distinct_indices", draw)
    with pytest.raises(ValueError, match=f"candidate of {2 ** 39} elements exceeds the cap"):
        search_complements(GroupInstance([2 ** 40]), (0, 1), samples=1)
    wide = GroupInstance([8200])
    with pytest.raises(ValueError, match="candidate of 4100 elements exceeds the cap"):
        search_spectra(wide, tuple(range(4100)), samples=1)
    monkeypatch.undo()
    # The largest candidates the benchmark and the tests above draw.
    assert search_complements(GroupInstance([72, 72]), (0, 1, 72, 73), samples=1).examined == 1
    assert search_complements(GroupInstance([5000]), (0, 1), samples=1).examined == 1


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
