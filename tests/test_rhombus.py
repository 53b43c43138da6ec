import pytest

from zonotile import bitsets as bs
from zonotile import rhombus
from zonotile._planar import TilingError
from zonotile.rhombus import (
    Rhombus,
    RhombusTiling,
    from_s_collection,
    hexagons,
    maximal_tiling,
    minimal_tiling,
    shared_rhombus,
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


def test_failed_rhombi_are_never_shared():
    # each text through the class, then twice through the shared
    # constructor: a failure is not cached, so it raises every time
    cases = [
        ((0, 2, 2), "need 1 <= low < high, got 2, 2"),
        ((0, 0, 2), "need 1 <= low < high, got 0, 2"),
        ((M([1]), 1, 2), "type elements must not lie in the base set"),
        ((M([2]), 1, 2), "type elements must not lie in the base set"),
    ]
    size = shared_rhombus.cache_info().currsize
    for args, text in cases:
        for build in (Rhombus, shared_rhombus, shared_rhombus):
            with pytest.raises(ValueError) as info:
                build(*args)
            assert str(info.value) == text
    assert shared_rhombus.cache_info().currsize == size
    t = Rhombus(M([3]), 1, 2)
    assert (t.left, t.right) == (M([1, 3]), M([2, 3]))


def test_tilings_share_every_rhombus():
    # two reconstructions hold the same rhombus objects, equal to those the
    # plain class builds on every quadruple X, X+i, X+j, X+ij of members
    for n in range(1, 5):
        for fam in enumerate_maximal(hypercube_domain(n), "strong").maximal_collections:
            first, second = from_s_collection(fam), from_s_collection(fam)
            held = {t: t for t in first.tiles}
            assert all(held.get(t) is t for t in second.tiles)
            s = fam.as_set()
            plain = {
                Rhombus(x, i, j)
                for x in s for i in range(1, n + 1) for j in range(i + 1, n + 1)
                if {x | bs.singleton(i), x | bs.singleton(j), x | bs.singleton(i) | bs.singleton(j)} <= s
                and not x & (bs.singleton(i) | bs.singleton(j))
            }
            assert first.tiles == plain


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
    # the segment of n = 1 has no tile, only its two vertices and one edge
    assert spectrum_rhombus(minimal_tiling(1)) == SetFamily(1, [0, 1])
    assert minimal_tiling(1).edges() == {(0, 1)}


def test_from_s_collection_rejects_non_maximal(monkeypatch):
    with pytest.raises(ValueError, match="^family is not a maximal strongly separated collection$"):
        from_s_collection(SetFamily(3, [0, M([1])]))
    # let through the input check, the family fails validation, and the
    # error says that the collection does not assemble
    monkeypatch.setattr(rhombus, "is_maximal_separated", lambda family, relation: True)
    with pytest.raises(TilingError) as info:
        from_s_collection(SetFamily(3, [0, M([1])]))
    assert str(info.value) == (
        "region-boundary: collection does not assemble into a tiling "
        "(boundary edge (0, 4) not covered exactly once by the tiles)"
    )


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
