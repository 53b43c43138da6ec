import hashlib
from fractions import Fraction
from itertools import combinations

import pytest

from zonotile import bitsets as bs
from zonotile import rhombus
from zonotile._planar import TilingError
from zonotile.combi import from_rhombus, from_w_collection
from zonotile.render import _fmt, render_svg
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

from reverse_search import reverse_search_count

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


def _quadruple_tiles(fam: SetFamily) -> set[Rhombus]:
    """The reference rule: a plain rhombus on every quadruple X, X+i, X+j,
    X+ij of members (no other subset point can fall inside such a rhombus,
    so each quadruple of a maximal strong collection bounds a tile)."""
    s, n = fam.as_set(), fam.n
    return {
        Rhombus(x, i, j)
        for x in s for i in range(1, n + 1) for j in range(i + 1, n + 1)
        if {x | bs.singleton(i), x | bs.singleton(j), x | bs.singleton(i) | bs.singleton(j)} <= s
        and not x & (bs.singleton(i) | bs.singleton(j))
    }


def test_tilings_share_every_rhombus():
    # two reconstructions hold the same rhombus objects, equal to those the
    # quadruple reference builds
    for n in range(1, 6):
        for fam in enumerate_maximal(hypercube_domain(n), "strong").maximal_collections:
            first, second = from_s_collection(fam), from_s_collection(fam)
            held = {t: t for t in first.tiles}
            assert all(held.get(t) is t for t in second.tiles)
            assert first.tiles == _quadruple_tiles(fam)


@pytest.mark.slow
def test_fan_rule_matches_quadruples_n6():
    # the tiling read from the fan rule is the quadruple reference's, and
    # its semi-rhombus combi is the lens-free combi of the same collection
    fams = enumerate_maximal(hypercube_domain(6), "strong").maximal_collections
    assert len(fams) == 908
    for fam in fams:
        tiling = from_s_collection(fam)
        assert tiling.tiles == _quadruple_tiles(fam)
        combi = from_w_collection(fam)
        assert from_rhombus(tiling) == combi and not combi.lenses
        assert tiling.vertex_masks() == fam.as_set()


def _svg_digest(tilings) -> str:
    """The first 16 hex digits of the sha256 of the concatenated SVG texts."""
    h = hashlib.sha256()
    for tiling in tilings:
        h.update(render_svg(tiling).encode())
    return h.hexdigest()[:16]


def test_tiling_svg_bytes():
    assert _svg_digest([minimal_tiling(4)]) == "856d204696c8f0cc"
    assert _svg_digest([maximal_tiling(4)]) == "69b650b0f8322b30"
    every = (
        from_s_collection(fam)
        for n in range(1, 6)
        for fam in enumerate_maximal(hypercube_domain(n), "strong").maximal_collections
    )
    assert _svg_digest(every) == "add2a7618eccbbc5"


def test_svg_numbers_round_as_fractions_do():
    # six decimals, ties to even, of a numerator over any denominator
    cases = [(n, 2 * 10**6) for n in range(-7, 8)] + [(5, 2), (-1, 3), (2, 3), (10**7 + 1, 7), (0, 9)]
    for num, den in cases:
        scaled = round(Fraction(num, den) * 10**6)
        want = ("-" if scaled < 0 else "") + f"{abs(scaled) // 10**6}.{abs(scaled) % 10**6:06d}"
        assert _fmt(num, den) == _fmt(3 * num, 3 * den) == want


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
    assert _svg_digest([minimal_tiling(1)]) == "a74a46164c52d91f"


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
    with pytest.raises(ValueError, match="^hexagon witnesses are not present in the tiling$"):
        strong_flip(high, 0, 1, 2, 3, "raise")


def test_flip_argument_texts():
    low = minimal_tiling(3)
    for i, j, k in ((2, 1, 3), (1, 3, 2), (1, 2, 2), (1, 1, 3)):
        with pytest.raises(ValueError) as info:
            strong_flip(low, 0, i, j, k, "raise")
        assert str(info.value) == "types must satisfy i < j < k"
    # the direction is checked before the hexagon: the maximal tiling has
    # no hexagon to raise
    for call, args in ((strong_flip, (low, 0, 1, 2, 3)), (strong_flip, (maximal_tiling(3), 0, 1, 2, 3)),
                       (hexagons, (low,))):
        with pytest.raises(ValueError) as info:
            call(*args, "sideways")
        assert str(info.value) == "direction must be 'raise' or 'lower', got 'sideways'"


def test_flip_validates_its_result():
    # A valid tiling holding the hexagon's tiles, plus one extra rhombus
    # that overlaps its tiles: the flip must not hand back a tiling.  Its
    # traded vertex set is not a maximal strong collection.
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
    with pytest.raises(ValueError) as info:
        strong_flip(bad, base, i, j, k, "raise")
    assert str(info.value) == "family is not a maximal strongly separated collection"


def _surgery_flip(
    tiling: RhombusTiling, base: int, i: int, j: int, k: int, direction: str
) -> RhombusTiling:
    """The reference strong flip, by tile surgery: remove the hexagon's
    three rhombi around X+j (raise) or X+i+k (lower), add the other three,
    and validate the result."""
    sj = bs.singleton(j)
    lowered = {Rhombus(base, i, j), Rhombus(base, j, k), Rhombus(base | sj, i, k)}
    raised = {
        Rhombus(base | bs.singleton(k), i, j),
        Rhombus(base | bs.singleton(i), j, k),
        Rhombus(base, i, k),
    }
    old, new = (lowered, raised) if direction == "raise" else (raised, lowered)
    assert old <= tiling.tiles
    flipped = RhombusTiling(tiling.n, tiling.tiles - old | new)
    validate_rhombus(flipped)
    return flipped


def _check_flips_against_surgery(n: int) -> int:
    """Every raise and lower flip of every strong n-tiling, by the vertex
    trade and by the surgery; returns the number of flips."""
    flips = 0
    for fam in enumerate_maximal(hypercube_domain(n), "strong").maximal_collections:
        tiling = from_s_collection(fam)
        for direction in ("raise", "lower"):
            for hexagon in hexagons(tiling, direction):
                want = _surgery_flip(tiling, *hexagon, direction)
                assert strong_flip(tiling, *hexagon, direction) == want
                flips += 1
    return flips


def test_flips_match_tile_surgery():
    assert [_check_flips_against_surgery(n) for n in range(1, 6)] == [0, 0, 2, 16, 200]


@pytest.mark.slow
def test_flips_match_tile_surgery_n6():
    assert _check_flips_against_surgery(6) == 4288


def _strong_count(n: int) -> int:
    return reverse_search_count(
        minimal_tiling(n),
        lambda t: hexagons(t, "raise"),
        lambda t: hexagons(t, "lower"),
        lambda t, hexagon, direction: strong_flip(t, *hexagon, direction),
    )


def test_reverse_search_counts_strong_tilings():
    # OEIS A006245, without the clique search
    assert [_strong_count(n) for n in range(1, 6)] == [1, 1, 2, 8, 62]


@pytest.mark.slow
@pytest.mark.parametrize("n, count", [(6, 908), (7, 24698)])
def test_reverse_search_counts_strong_tilings_slow(n, count):
    assert _strong_count(n) == count


def _hexagon_reference(tiling: RhombusTiling, direction: str) -> list[tuple[int, int, int, int]]:
    """Every (X, i, j, k) at which the tiling holds the three tiles that a
    flip in `direction` removes, by a scan over all bases and types."""
    n, out = tiling.n, []
    for base in range(1 << n):
        for i, j, k in combinations(range(1, n + 1), 3):
            si, sj, sk = bs.singleton(i), bs.singleton(j), bs.singleton(k)
            if base & (si | sj | sk):
                continue
            if direction == "raise":
                old = {Rhombus(base, i, j), Rhombus(base, j, k), Rhombus(base | sj, i, k)}
            else:
                old = {Rhombus(base | sk, i, j), Rhombus(base | si, j, k), Rhombus(base, i, k)}
            if old <= tiling.tiles:
                out.append((base, i, j, k))
    return out


def test_hexagons_match_reference_scan():
    assert hexagons(minimal_tiling(3), "raise") == [(0, 1, 2, 3)]
    assert hexagons(maximal_tiling(3), "lower") == [(0, 1, 2, 3)]
    for n in range(1, 5):
        for fam in enumerate_maximal(hypercube_domain(n), "strong").maximal_collections:
            tiling = from_s_collection(fam)
            for direction in ("raise", "lower"):
                found = hexagons(tiling, direction)
                assert sorted(found) == _hexagon_reference(tiling, direction)
                assert len(set(found)) == len(found)


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
