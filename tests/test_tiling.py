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
def test_stacked_checks_equal_the_single_candidate_checks(monkeypatch, moduli, side):
    # Sampled searches check a stack of candidates at once; each row must
    # get the verdict and counts the public check gives it alone. Found
    # complements and spectra of a cube lead its stacks, so both verdicts
    # occur; a seeded pattern's stacks follow, then a one-element pattern's,
    # which has no difference to screen by. The sampled route screens each
    # complement stack by its translate by pattern[1] - pattern[0] and
    # counts only the rows left; some of those do not tile.
    group = GroupInstance(moduli)
    rng = Pcg32(29)
    hits = {search_complements: 0, search_spectra: 0}
    screened = {"hits": 0, "misses": 0}
    cover_counts, counted = tiling._cover_counts, []

    def recorded(group, pat, coords):
        counted.append(len(coords))
        return cover_counts(group, pat, coords)
    monkeypatch.setattr(tiling, "_cover_counts", recorded)
    for pattern in (cube_set(group, side), tuple(sorted(rng.distinct_indices(group.order, 3))),
                    (int(rng.randint(group.order)),)):
        pat = group.coords(np.asarray(pattern))
        for search, n in ((search_complements, group.order // len(pattern)),
                          (search_spectra, len(pattern))):
            found = search(group, pattern).found
            cands = np.array([*found, *(rng.distinct_indices(group.order, n) for _ in range(12))])
            coords = group.coords(cands)
            if search is search_complements:
                stacked = zip(*cover_counts(group, pat, coords))
                counted.clear()
                sampled = tiling._tile_hits(group, pat, cands)
                kept = [len(pat) == 1 or not set(cand.tolist()) & set(
                    group.index(group.coords(cand) + pat[1] - pat[0]).tolist()) for cand in cands]
                assert counted == ([sum(kept)] if any(kept) else [])
                for cand, counts, hit, left in zip(cands, stacked, sampled, kept):
                    verdict = tiles(group, pattern, cand)
                    assert (verdict.uncovered, verdict.collisions) == counts
                    assert counts == bincount_tiles(group, pattern, cand)
                    assert verdict.is_tiling == (oracles.canonical_translate(group, cand) in found)
                    assert hit == verdict.is_tiling and (left or not hit)
                    screened["hits" if hit else "misses"] += left
                    hits[search] += verdict.is_tiling
            else:
                defects = tiling._character_defects(group, pat, coords)
                for cand, defect in zip(cands, defects):
                    verdict = is_spectrum(group, pattern, cand)
                    assert verdict.is_spectrum == (defect <= verdict.tolerance)
                    assert defect == pytest.approx(verdict.defect, rel=1e-12, abs=1e-12)
                    assert verdict.is_spectrum == (oracles.canonical_translate(group, cand) in found)
                    hits[search] += verdict.is_spectrum
    assert min(hits.values()) > 0 and min(screened.values()) > 0


def _character_sum_cases():
    # Rank 1 to 3, a modulus-1 axis, Z_4100 (past the order cap), k = 1 and
    # k = 12, a pattern of half the group forced past the pattern cap, and
    # seeded patterns beside cubes with spectra.
    rng = Pcg32(34)
    cases = [((12,), (5,)), ((4100,), (0, 2050)), ((26,), tuple(range(13)))]
    for moduli, side in (((1, 30), (1, 5)), ((6, 8), (3, 4)), ((2, 6, 4), (1, 3, 2))):
        cases.append((moduli, cube_set(GroupInstance(moduli), side)))
    for moduli, k in (((4100,), 12), ((4, 6), 12), ((3, 4, 5), 6), ((1, 9), 3)):
        cases.append((moduli, tuple(sorted(rng.distinct_indices(int(np.prod(moduli)), k).tolist()))))
    return cases


def test_the_character_sum_table_agrees_with_the_gram_route():
    # Spectrum searches read |T(x)|, the DFT of the pattern's indicator, and
    # is_spectrum forms a Gram of exponentials. On every element the table
    # admits what the direct character sums admit; on drawn stacks, led by
    # the found spectra and each one with a member moved, the table's pair
    # differences give the hits of the Gram.
    rng = Pcg32(35)
    hits = misses = 0
    for moduli, pattern in _character_sum_cases():
        group = GroupInstance(moduli)
        pat = group.coords(np.asarray(pattern))
        k, tol = len(pattern), tiling.CHARACTER_TOL * len(pattern)
        sums = tiling._character_sums(group, pat)
        direct = np.abs(tiling._character_table(
            group, group.coords(np.arange(group.order)), pat).sum(axis=1))
        assert np.array_equal(sums <= tol, direct <= tol), moduli
        assert sums == pytest.approx(direct, abs=1e-9)
        found = (search_spectra(group, pattern, force_exhaustive=True).found
                 if group.order <= tiling.GROUP_ORDER_CAP else ())
        moved = [(*s[:-1], (s[-1] + 1) % group.order) for s in found]
        cands = np.array([*found, *(m for m in moved if len(set(m)) == k),
                          *rng.distinct_indices(group.order, k, 40)])
        table = tiling._spectrum_hits(group, pat, cands, sums)
        gram = tiling._spectrum_hits(group, pat, cands, None)
        assert np.array_equal(table, gram), moduli
        assert table[:len(found)].all()
        hits += int(table.sum())
        misses += int((~table).sum())
    assert hits > 0 and misses > 0


@pytest.mark.parametrize("moduli,table", [pytest.param([256, 256], 1, id="2^16-table"),
                                           pytest.param([256, 257], 0, id="above-gram")])
def test_a_sampled_spectrum_search_at_the_table_edge_matches_the_gram(monkeypatch, moduli,
                                                                       table):
    # A group of 2^16 elements, the entries of a stack, is judged from the
    # table; one just above it by each candidate's Gram. Either way the
    # search finds the orbits that is_spectrum finds among the same draws
    # and leaves the stream where they do. The pattern {0, 64, 128, 192} on
    # the first axis admits every difference whose first coordinate is not a
    # multiple of 4, so a candidate whose first coordinates are distinct
    # mod 4 is a spectrum: about 1 in 11 draws.
    group = GroupInstance(moduli)
    pattern = tuple(int(i) for i in group.index([[a, 0] for a in (0, 64, 128, 192)]))
    character_sums, calls = tiling._character_sums, []

    def recorded(*args):
        calls.append(1)
        return character_sums(*args)
    monkeypatch.setattr(tiling, "_character_sums", recorded)
    rng, redraw = Pcg32(5), Pcg32(5)
    res = search_spectra(group, pattern, samples=300, rng=rng)
    cands = [redraw.distinct_indices(group.order, 4) for _ in range(300)]
    found = {oracles.canonical_translate(group, cand) for cand in cands
             if is_spectrum(group, pattern, cand).is_spectrum}
    assert found and set(res.found) == found and res.examined == 300
    assert rng.next_u32() == redraw.next_u32()
    assert len(calls) == table


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


def _off_0_cube(moduli, side, offset):
    group = GroupInstance(moduli)
    return tuple(int(i) for i in group.index(group.coords(cube_set(group, side)) + offset))


@pytest.mark.parametrize("moduli,pattern", [
    pytest.param([16, 16], (155, 156, 171, 172), id="benchmark-z16sq-cube"),
    pytest.param([12], (5, 6, 7), id="z12-interval"),
    pytest.param([4, 16], _off_0_cube([4, 16], 4, [1, 5]), id="z4xz16-cube-side-4"),
])
def test_a_complement_walk_off_0_matches_its_translate_and_the_oracle(moduli, pattern):
    # The walk covers the pattern's translate through 0 and counts k
    # complements for each complement through 0 it finds; the oracle counts
    # every complement, translates included.
    group = GroupInstance(moduli)
    k = len(pattern)
    coords = group.coords(pattern)
    through_0 = tuple(sorted(int(i) for i in group.index(coords - coords[0])))
    assert 0 not in pattern and 0 in through_0
    res = search_complements(group, pattern, force_exhaustive=True)
    moved = search_complements(group, through_0, force_exhaustive=True)
    every = oracles.every_complement(group, pattern)
    assert (res.found, res.examined) == (moved.found, moved.examined)
    assert set(res.found) == oracles.orbit_minima(group, every)
    assert res.examined == len(every) == k * sum(0 in c for c in every)
    if group.order <= 16:
        assert set(res.found) == oracles.brute_force_complements(group, pattern)


def test_a_complement_walk_charges_each_complement_through_0_once(monkeypatch):
    # The Z16^2 cube has 1,020 complements, 255 of them through 0: a walk
    # over every translate charged all 1,020 through _spend.
    spend, calls = tiling._spend, []

    def counted(*args):
        calls.append(1)
        return spend(*args)
    monkeypatch.setattr(tiling, "_spend", counted)
    group = GroupInstance([16, 16])
    res = search_complements(group, cube_set(group, 2))
    assert (len(res.found), res.examined, len(calls)) == (39, 1020, 255)


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
    with pytest.raises(ValueError, match="pattern size 13 .*; pass force_exhaustive "
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


@pytest.mark.parametrize("search,check,verdict,pattern", [
    (search_complements, tiles, "is_tiling", tuple(range(0, 4098, 2))),
    (search_spectra, is_spectrum, "is_spectrum", (0, 2049)),
])
def test_sampled_searches_with_hits_agree_with_the_checks(search, check, verdict, pattern):
    # In Z_4098 a pair tiles with the even elements, and is a spectrum of
    # {0, 2049}, exactly when its difference is odd: about half the drawn
    # candidates are hits. Each drawn candidate, redrawn one at a time from
    # the same stream, gets the public check's verdict; the search finds the
    # orbits of the hits and leaves the stream where those draws do.
    group = GroupInstance([4098])
    rng, redraw = Pcg32(7), Pcg32(7)
    res = search(group, pattern, samples=40, rng=rng)
    cands = [redraw.distinct_indices(group.order, 2) for _ in range(40)]
    hits = {oracles.canonical_translate(group, cand) for cand in cands
            if getattr(check(group, pattern, cand), verdict)}
    assert hits and set(res.found) == hits and res.examined == 40
    assert all((int(b) - int(a)) % 2 == 1 for a, b in res.found)
    assert rng._state == redraw._state


def test_sampled_stacks_are_drawn_inside_the_group(monkeypatch):
    # A sampled search unravels each drawn stack with no range check, so
    # every stack it draws must lie in [0, order): cyclic and rank-2 groups,
    # past the order cap and past the pattern cap, both kinds of search.
    draws = []
    distinct_indices = Pcg32.distinct_indices

    def recorded(self, bound, k, rows=None):
        stack = distinct_indices(self, bound, k, rows)
        draws.append((bound, stack))
        return stack
    monkeypatch.setattr(Pcg32, "distinct_indices", recorded)
    for moduli, pattern in (((5000,), (0, 1)), ((72, 72), (0, 1, 72, 73)),
                            ((13, 3), tuple(range(13))), ((3, 5, 7), tuple(range(0, 105, 7)))):
        group = GroupInstance(moduli)
        for search in (search_complements, search_spectra):
            draws.clear()
            search(group, pattern, samples=60, rng=Pcg32(group.order))
            assert draws and all(bound == group.order and stack.size for bound, stack in draws)
            assert all(0 <= stack.min() and stack.max() < group.order for _, stack in draws)


def test_a_sampled_candidate_is_bounded_before_any_draw(monkeypatch):
    # A 2-element pattern in Z_{2^40} has complements of 2^39 elements.
    def draw(self, bound, k):
        raise AssertionError("drew a candidate")
    monkeypatch.setattr(Pcg32, "distinct_indices", draw)
    with pytest.raises(ValueError, match=f"complement of {2 ** 39} elements exceeds the cap"):
        search_complements(GroupInstance([2 ** 40]), (0, 1), samples=1)
    wide = GroupInstance([8200])
    with pytest.raises(ValueError, match="spectrum of 4100 elements exceeds the cap"):
        search_spectra(wide, tuple(range(4100)), samples=1)
    # Each sample of 16 elements against 16 costs 16 units: 125,000 spend
    # the budget exactly.
    z72sq = GroupInstance([72, 72])
    with pytest.raises(ValueError, match="sample budget 125001 costs 2000016 work units on "
                                         "16-element candidates, past the budget of 2000000"):
        search_spectra(z72sq, tuple(range(16)), samples=125001)
    assert tiling._search_route(z72sq, 16, False, False, 125000) is not None
    monkeypatch.undo()
    # The largest candidates the benchmark and the tests above draw.
    assert search_complements(GroupInstance([72, 72]), (0, 1, 72, 73), samples=1).examined == 1
    assert search_complements(GroupInstance([5000]), (0, 1), samples=1).examined == 1


@pytest.mark.parametrize("search,side,work", [
    (search_complements, 2, 407),
    (search_spectra, 4, 1320),
])
def test_a_walk_one_unit_over_budget_stops_where_it_did(monkeypatch, search, side, work):
    # The work a whole walk of a Z8^2 cube spends: for spectra as counted
    # one unit per candidate tried in degree order, for complements as
    # counted for the walk anchored at 0. The walk finishes on exactly that
    # budget and raises one unit short of it, so the inline charge stops at
    # the same node.
    group = GroupInstance([8, 8])
    pattern = cube_set(group, side)
    monkeypatch.setattr(tiling, "SEARCH_BUDGET", work)
    assert len(search(group, pattern, force_exhaustive=True).found) == 7
    monkeypatch.setattr(tiling, "SEARCH_BUDGET", work - 1)
    kind = "complement" if search is search_complements else "spectrum"
    with pytest.raises(ValueError, match=f"^{kind} search passed its budget of {work - 1} "
                                         "work units unfinished$"):
        search(group, pattern, force_exhaustive=True)


def _spectrum_walk_family():
    # Cyclic Z_6..Z_24 and rank-2 groups up to order 64, each with its
    # divisor cubes of 2 to 4 elements (the cyclic ones of every size) and
    # seeded patterns: sizes the combinations oracle enumerates quickly.
    rng = Pcg32(33)
    groups = [(n,) for n in range(6, 25)] + [(a, b) for a in range(2, 9)
                                               for b in range(a, 64 // a + 1)]
    for moduli in groups:
        group = GroupInstance(moduli)
        sides = np.meshgrid(*[[s for s in range(1, m + 1) if m % s == 0] for m in moduli],
                            indexing="ij")
        for side in np.stack(sides, axis=-1).reshape(-1, len(moduli)):
            if 1 < side.prod() < group.order and (len(moduli) == 1 or side.prod() <= 4):
                yield group, cube_set(group, side)
        for size in ((2, 3, 4, 5) if len(moduli) == 1 else (3, 4)):
            yield group, tuple(sorted(rng.distinct_indices(group.order, size).tolist()))


def test_the_spectrum_walk_finds_the_brute_force_cliques_for_no_more_work(monkeypatch):
    # The walk in degree order finds the k-sets through 0 with admissible
    # differences that combinations of the admissible elements find, and
    # finishes within the work of the walk in index order that pushed an
    # include and an exclude child at every node. Some elements share a
    # count of admissible differences, so the order's tie rule is run.
    ties = cliques_found = 0
    for group, pattern in _spectrum_walk_family():
        k = len(pattern)
        diff = oracles.difference_table(group)
        admissible = oracles.admissible_elements(group, pattern)
        cliques = oracles.brute_force_cliques(diff, admissible, k)
        monkeypatch.setattr(tiling, "SEARCH_BUDGET",
                            oracles.include_exclude_spectrum_work(diff, admissible, k))
        res = search_spectra(group, pattern, force_exhaustive=True)
        assert res.examined == len(cliques), (group, pattern)
        assert set(res.found) == oracles.orbit_minima(group, cliques), (group, pattern)
        ok = set(admissible)
        degrees = [sum(diff[r][c] in ok for r in admissible) for c in admissible]
        ties += len(set(degrees)) < len(degrees)
        cliques_found += len(cliques)
    assert ties > 0 and cliques_found > 0


def test_indices_past_int64_are_refused_by_label():
    group = GroupInstance([25])
    with pytest.raises(ValueError, match=re.escape("pattern indices must lie in [0, 25)")):
        tiles(group, [0, 10 ** 23], [0, 1])
    with pytest.raises(ValueError, match=re.escape("candidate indices must lie in [0, 25)")):
        is_spectrum(group, [0, 1], [-10 ** 23, 0])


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
    with pytest.raises(ValueError, match=re.escape("cube sides [2, 4] must divide the moduli "
                                                   "[4, 6]")):
        cube_equivalence_check(GroupInstance([4, 6]), [2, 4])
    # The one rule the command line reports as side_divides_moduli.
    assert tiling._dual_sides(GroupInstance([4, 6]), [2, 4]) is None
    assert tiling._dual_sides(GroupInstance([4, 6]), [2, 3]) == (2, 2)


def test_cube_equivalence_rejects_side_out_of_range():
    with pytest.raises(ValueError, match="lie in"):
        cube_equivalence_check(GroupInstance([6]), 0)


@pytest.mark.parametrize("side,message", [
    (0, "cube side 0 must lie in [1, 4]"),
    (5, "cube side 5 must lie in [1, 4]"),
    ([2, 7], "cube side 7 must lie in [1, 6]"),
])
def test_cube_set_and_the_cube_check_state_one_side_rule(side, message):
    group = GroupInstance([4, 6])
    for build in (cube_set, cube_equivalence_check):
        with pytest.raises(ValueError) as rejected:
            build(group, side)
        assert str(rejected.value) == message


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
