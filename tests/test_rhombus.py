import pytest

from zonotile import bitsets as bs
from zonotile._planar import TilingError
from zonotile.rhombus import (
    Rhombus,
    RhombusTiling,
    from_s_collection,
    hexagons,
    maximal_tiling,
    minimal_tiling,
    spectrum_rhombus,
    strong_flip,
    validate_rhombus,
)
from zonotile.separation import (
    SetFamily,
    cointerval_collection,
    enumerate_maximal,
    hypercube_domain,
    interval_collection,
    is_maximal_separated,
)

M = bs.mask_of


def test_single_rhombus_tiling_valid():
    tiling = RhombusTiling(2, [Rhombus(0, 1, 2)])
    assert validate_rhombus(tiling)


def test_missing_tile_reports_area():
    tiling = RhombusTiling(3, [Rhombus(0, 1, 2), Rhombus(0, 2, 3)])
    with pytest.raises(TilingError):
        validate_rhombus(tiling)


def test_type_elements_must_avoid_base():
    with pytest.raises(ValueError):
        Rhombus(M([2]), 1, 2)


def test_out_of_range_text():
    with pytest.raises(ValueError) as info:
        RhombusTiling(2, [Rhombus(0, 1, 2), Rhombus(4, 1, 2)])
    assert str(info.value) == "mask 0x7 has elements outside 1..2"
    # of two tiles out of range, the one first in tile order is named
    for tiles in ([Rhombus(8, 1, 2), Rhombus(4, 1, 2)], [Rhombus(4, 1, 2), Rhombus(8, 1, 2)]):
        with pytest.raises(ValueError, match="^mask 0x7 has"):
            RhombusTiling(2, tiles)


def test_tile_counts():
    for n in (2, 3, 4, 5):
        tiling = minimal_tiling(n)
        assert len(tiling.tiles) == n * (n - 1) // 2
        assert len(tiling.vertex_masks()) == n * (n + 1) // 2 + 1


def test_spectrum_examples():
    assert spectrum_rhombus(RhombusTiling(2, [Rhombus(0, 1, 2)])) == SetFamily(
        2, [0, 1, 2, 3]
    )
    assert spectrum_rhombus(minimal_tiling(3)) == interval_collection(3)
    assert spectrum_rhombus(maximal_tiling(3)) == cointerval_collection(3)


def test_from_s_collection_rejects_non_maximal():
    with pytest.raises(ValueError):
        from_s_collection(SetFamily(3, [0, M([1])]))


def test_bijection_round_trip_all_n5():
    for n in (4, 5):
        report = enumerate_maximal(hypercube_domain(n), "strong")
        for fam in report.maximal_collections:
            tiling = from_s_collection(fam)
            assert validate_rhombus(tiling)
            assert spectrum_rhombus(tiling) == fam


def test_spectrum_is_maximal_strong():
    for n in (2, 3, 4):
        fam = spectrum_rhombus(minimal_tiling(n))
        assert is_maximal_separated(fam, "strong")


def test_strong_flip_n3():
    low = minimal_tiling(3)
    high = strong_flip(low, 0, 1, 2, 3, "raise")
    assert validate_rhombus(high)
    assert high == maximal_tiling(3)
    assert strong_flip(high, 0, 1, 2, 3, "lower") == low


def test_flip_requires_hexagon():
    high = maximal_tiling(3)
    with pytest.raises(ValueError):
        strong_flip(high, 0, 1, 2, 3, "raise")


def test_flip_validates_its_result():
    # A valid tiling holding the hexagon's tiles, plus one extra rhombus
    # that overlaps its tiles: the flip must not hand back a tiling.
    low = minimal_tiling(4)
    base, i, j, k = hexagons(low, "raise")[0]
    raised = {
        Rhombus(base | bs.singleton(k), i, j),
        Rhombus(base | bs.singleton(i), j, k),
        Rhombus(base, i, k),
    }
    extra = min(maximal_tiling(4).tiles - low.tiles - raised)
    bad = RhombusTiling(4, low.tiles | {extra})
    with pytest.raises(TilingError):
        validate_rhombus(bad)
    with pytest.raises(TilingError):
        strong_flip(bad, base, i, j, k, "raise")


def test_flip_graph_unique_source_and_sink():
    # breadth-first search over strong raising flips, n = 4
    n = 4
    start = minimal_tiling(n)
    seen = {start.tiles: start}
    frontier = [start]
    arcs = 0
    while frontier:
        cur = frontier.pop()
        for base, i, j, k in hexagons(cur, "raise"):
            nxt = strong_flip(cur, base, i, j, k, "raise")
            arcs += 1
            if nxt.tiles not in seen:
                seen[nxt.tiles] = nxt
                frontier.append(nxt)
    report = enumerate_maximal(hypercube_domain(n), "strong")
    assert len(seen) == len(report.maximal_collections)
    no_lower = [t for t in seen.values() if not hexagons(t, "lower")]
    no_raise = [t for t in seen.values() if not hexagons(t, "raise")]
    assert no_lower == [minimal_tiling(n)]
    assert no_raise == [maximal_tiling(n)]


def test_round_trip_under_flips_n4():
    n = 4
    cur = minimal_tiling(n)
    for _ in range(6):
        hexes = hexagons(cur, "raise")
        if not hexes:
            break
        cur = strong_flip(cur, *hexes[0], "raise")
        assert from_s_collection(spectrum_rhombus(cur)) == cur
