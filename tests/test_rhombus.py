import hashlib
import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from zonotile import bitsets as bs
from zonotile import jsonio, rhombus
from zonotile._planar import TilingError
from zonotile.combi import (
    Combi,
    Delta,
    Nabla,
    from_rhombus,
    from_w_collection,
    shared_delta,
    shared_nabla,
    spectrum,
    validate_combi,
)
from zonotile.render import _fmt, render_svg
from zonotile.rhombus import (
    RhombusTiling,
    from_s_collection,
    hexagons,
    maximal_tiling,
    minimal_tiling,
    strong_flip,
)
from zonotile.separation import (
    SetFamily,
    cointerval_collection,
    interval_collection,
    is_maximal_separated,
)

import oracles

M = bs.mask_of


def _json_tiling(n: int, *rhombi) -> RhombusTiling:
    return jsonio.tiling_from_json({"n": n, "rhombi": [{"X": x, "i": i, "j": j} for x, i, j in rhombi]})


def test_single_rhombus_tiling_valid():
    tiling = oracles.tiling_of(2, [Nabla(0, 1, 2)])
    assert validate_combi(tiling.combi)
    assert tiling.combi == Combi(2, [Delta(3, 1, 2)], [Nabla(0, 1, 2)])


def test_missing_tile_reports_area():
    tiling = oracles.tiling_of(3, [Nabla(0, 1, 2), Nabla(0, 2, 3)])
    with pytest.raises(TilingError):
        validate_combi(tiling.combi)


def test_type_elements_must_avoid_base():
    # a rhombus is read as its lower half, so the nabla's check names it
    with pytest.raises(ValueError) as info:
        _json_tiling(3, ([2], 1, 2))
    assert str(info.value) == "bottom of a Nabla must avoid both type elements"


def test_failed_rhombi_are_never_shared():
    # each bad JSON rhombus raises its lower half's text, twice over, and
    # leaves no tile in the shared caches
    cases = [
        (([], 2, 2), "need 1 <= low < high, got 2, 2"),
        (([], 2, 1), "need 1 <= low < high, got 2, 1"),
        (([], 0, 2), "i must be in 1..16, got 0"),
        (([1], 1, 2), "bottom of a Nabla must avoid both type elements"),
        (([2], 1, 2), "bottom of a Nabla must avoid both type elements"),
    ]
    sizes = shared_delta.cache_info().currsize, shared_nabla.cache_info().currsize
    for rhombus_, text in cases:
        for _ in range(2):
            with pytest.raises(ValueError) as info:
                _json_tiling(3, rhombus_)
            assert str(info.value) == text
    assert (shared_delta.cache_info().currsize, shared_nabla.cache_info().currsize) == sizes
    (t,) = _json_tiling(3, ([3], 1, 2)).tiles
    assert (t.bottom, t.left, t.right) == (M([3]), M([1, 3]), M([2, 3]))


def test_tilings_share_every_rhombus():
    # two reconstructions hold the same rhombus objects, equal to those the
    # quadruple reference builds
    for n in range(1, 6):
        for fam in oracles.cube_families(n, "strong"):
            first, second = from_s_collection(fam), from_s_collection(fam)
            held = {t: t for t in first.tiles}
            assert all(held.get(t) is t for t in second.tiles)
            assert first.tiles == oracles.quadruple_tiles(fam)


@pytest.mark.slow
def test_fan_rule_matches_quadruples_n6():
    # the tiling read from the fan rule is the quadruple reference's, and
    # its semi-rhombus combi is the lens-free combi of the same collection
    fams = oracles.cube_families(6, "strong")
    assert len(fams) == 908
    for fam in fams:
        tiling = from_s_collection(fam)
        assert tiling.tiles == oracles.quadruple_tiles(fam)
        combi = from_w_collection(fam)
        assert from_rhombus(tiling) == combi and not combi.lenses
        assert tiling.combi.vertex_masks() == fam.as_set()


def _svg_digest(tilings) -> str:
    """The first 16 hex digits of the sha256 of the concatenated SVG texts."""
    h = hashlib.sha256()
    for tiling in tilings:
        h.update(render_svg(tiling).encode())
    return h.hexdigest()[:16]


def test_tiling_svg_bytes():
    assert _svg_digest([minimal_tiling(4)]) == "856d204696c8f0cc"
    assert _svg_digest([maximal_tiling(4)]) == "69b650b0f8322b30"
    every = (tiling for n in range(1, 6) for tiling in oracles.strong_tilings(n))
    assert _svg_digest(every) == "add2a7618eccbbc5"


def test_svg_numbers_round_as_fractions_do():
    # six decimals, ties to even, of a numerator over any denominator
    cases = [(n, 2 * 10**6) for n in range(-7, 8)] + [(5, 2), (-1, 3), (2, 3), (10**7 + 1, 7), (0, 9)]
    for num, den in cases:
        scaled = round(Fraction(num, den) * 10**6)
        want = ("-" if scaled < 0 else "") + f"{abs(scaled) // 10**6}.{abs(scaled) % 10**6:06d}"
        assert _fmt(num, den) == _fmt(3 * num, 3 * den) == want


def test_out_of_range_text():
    # a rhombus's top, its upper half's apex, is named
    with pytest.raises(ValueError) as info:
        oracles.tiling_of(2, [Nabla(0, 1, 2), Nabla(4, 1, 2)])
    assert str(info.value) == "mask 0x7 has elements outside 1..2"
    # of two tiles out of range, the one first in tile order is named
    for tiles in ([(8, 1, 2), (4, 1, 2)], [(4, 1, 2), (8, 1, 2)]):
        with pytest.raises(ValueError, match="^mask 0x7 has"):
            oracles.tiling_of(2, [Nabla(*t) for t in tiles])
        with pytest.raises(ValueError, match="^mask 0x7 has"):
            _json_tiling(2, *((list(bs.elements_of(x)), i, j) for x, i, j in tiles))


def test_tile_counts():
    for n in (2, 3, 4, 5):
        tiling = minimal_tiling(n)
        assert len(tiling.tiles) == n * (n - 1) // 2
        assert len(tiling.combi.vertex_masks()) == n * (n + 1) // 2 + 1


def test_spectrum_examples():
    assert spectrum(oracles.tiling_of(2, [Nabla(0, 1, 2)]).combi) == SetFamily(2, [0, 1, 2, 3])
    assert spectrum(minimal_tiling(3).combi) == interval_collection(3)
    assert spectrum(maximal_tiling(3).combi) == cointerval_collection(3)
    # the segment of n = 1 has no tile, only its two vertices and one edge
    assert spectrum(minimal_tiling(1).combi) == SetFamily(1, [0, 1])
    assert _svg_digest([minimal_tiling(1)]) == "a74a46164c52d91f"


def test_from_s_collection_rejects_non_maximal(monkeypatch):
    with pytest.raises(ValueError, match="^family is not a maximal strongly separated collection$"):
        from_s_collection(SetFamily(3, [0, M([1])]))
    # let through the input check, the family fails the combi layer's
    # validation, whose error comes out as it is
    monkeypatch.setattr(rhombus, "is_maximal_separated", lambda family, relation: True)
    with pytest.raises(TilingError) as info:
        from_s_collection(SetFamily(3, [0, M([1])]))
    assert str(info.value) == "region-boundary: boundary edge (0, 4) not covered exactly once by the tiles"


def test_spectrum_is_maximal_strong():
    for n in (2, 3, 4):
        fam = spectrum(minimal_tiling(n).combi)
        assert is_maximal_separated(fam, "strong")


def test_strong_flip_n3():
    low = minimal_tiling(3)
    high = strong_flip(low, 0, 1, 2, 3, "raise")
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
    # then the core, before the hexagon
    for tiling, core, direction in product((low, maximal_tiling(3)), range(1, 8), ("raise", "lower")):
        with pytest.raises(ValueError) as info:
            strong_flip(tiling, core, 1, 2, 3, direction)
        assert str(info.value) == "the core must avoid i, j and k"


def test_flip_validates_its_result():
    # A valid tiling holding the hexagon's tiles, plus one extra rhombus
    # that overlaps its tiles: the flip must not hand back a tiling.  Its
    # traded vertex set is not a maximal strong collection.
    low = minimal_tiling(4)
    base, i, j, k = hexagons(low, "raise")[0]
    raised = {
        Nabla(base | bs.singleton(k), i, j),
        Nabla(base | bs.singleton(i), j, k),
        Nabla(base, i, k),
    }
    extra = min(maximal_tiling(4).tiles - low.tiles - raised)
    bad = oracles.tiling_of(4, low.tiles | {extra})
    with pytest.raises(TilingError):
        validate_combi(bad.combi)
    with pytest.raises(ValueError) as info:
        strong_flip(bad, base, i, j, k, "raise")
    assert str(info.value) == "family is not a maximal strongly separated collection"


def _check_flips_against_surgery(n: int) -> int:
    """Every raise and lower flip of every strong n-tiling, by the vertex
    trade and by the surgery; returns the number of flips."""
    flips = 0
    for tiling in oracles.strong_tilings(n):
        for direction in ("raise", "lower"):
            for hexagon in hexagons(tiling, direction):
                want = oracles.surgery_flip(tiling, *hexagon, direction)
                assert strong_flip(tiling, *hexagon, direction) == want
                flips += 1
    return flips


def test_flips_match_tile_surgery():
    assert [_check_flips_against_surgery(n) for n in range(1, 6)] == [0, 0, 2, 16, 200]


@pytest.mark.slow
def test_flips_match_tile_surgery_n6():
    assert _check_flips_against_surgery(6) == 4288


def _strong_count(n: int) -> int:
    return oracles.reverse_search_count(
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


def test_hexagons_match_reference_scan():
    for n in range(1, 6):
        for tiling in oracles.strong_tilings(n):
            for direction in ("raise", "lower"):
                assert hexagons(tiling, direction) == oracles.hexagon_reference(tiling, direction)


def test_strong_flip_accepts_just_the_listed_hexagons():
    # `strong_flip` looks up its own hexagon's three tiles; on every base
    # and every i < j < k its verdict is membership in `hexagons`, and a
    # core holding i, j or k is rejected by the trade first
    texts = {"hexagon witnesses are not present in the tiling", "the core must avoid i, j and k"}
    for n in range(1, 6):
        for tiling in oracles.strong_tilings(n):
            for direction in ("raise", "lower"):
                listed = set(hexagons(tiling, direction))
                for base, (i, j, k) in product(range(1 << n), combinations(range(1, n + 1), 3)):
                    try:
                        strong_flip(tiling, base, i, j, k, direction)
                    except ValueError as error:
                        assert str(error) in texts and (base, i, j, k) not in listed
                    else:
                        assert (base, i, j, k) in listed


def test_flip_graph_unique_source_and_sink():
    # the reverse search reaches every tiling from the minimal one; only the
    # minimal tiling has no lowering hexagon, and only the maximal no raising
    for n in range(1, 6):
        tilings = oracles.strong_tilings(n)
        assert [t for t in tilings if not hexagons(t, "lower")] == [minimal_tiling(n)]
        assert [t for t in tilings if not hexagons(t, "raise")] == [maximal_tiling(n)]


def _split_verdict(n: int, rhombi) -> bool:
    """`validate_combi` on the rhombi's triangle split."""
    try:
        return validate_combi(oracles.tiling_of(n, rhombi).combi)
    except TilingError:
        return False


def test_rhombus_reference_agrees_with_the_triangle_split():
    rng = random.Random(31)
    tampered = 0
    for n in range(1, 6):
        tilings = oracles.strong_tilings(n)
        every = set().union(*(t.tiles for t in tilings))
        for tiling in tilings:
            tiles = sorted(tiling.tiles)
            assert oracles.rhombus_verdict(n, tiles) is _split_verdict(n, tiles) is True
            if not tiles:
                continue
            gone = rng.choice(tiles)
            # a rhombus of another tiling, which overlaps this one's
            extra = sorted(every - tiling.tiles)
            # the same types on another base set
            bases = [b for b in range(1 << n) if not b & (gone.left | gone.right) and b != gone.bottom]
            variants = [
                [t for t in tiles if t != gone],
                tiles + [rng.choice(extra)] if extra else None,
                [t for t in tiles if t != gone] + [Nabla(rng.choice(bases), gone.low, gone.high)] if bases else None,
            ]
            for rhombi in (v for v in variants if v is not None):
                assert oracles.rhombus_verdict(n, rhombi) is _split_verdict(n, rhombi) is False
                tampered += 1
    assert tampered == 217


def test_view_accepts_exactly_the_lens_free_combis():
    accepted = []
    for n in range(1, 6):
        views = 0
        for combi in oracles.cube_combis(n):
            if combi.lenses:
                with pytest.raises(TilingError) as info:
                    RhombusTiling(combi)
                assert info.value.axiom == "rhombus"
                continue
            tiling = RhombusTiling(combi)
            assert tiling.combi is combi and tiling.n == n and tiling.tiles == combi.nablas
            assert from_rhombus(from_s_collection(spectrum(combi))) == combi
            views += 1
        accepted.append(views)
    # OEIS A006245
    assert accepted == [1, 1, 2, 8, 62]


def test_view_rejection_texts():
    lensy = min((c for c in oracles.cube_combis(4) if c.lenses), key=lambda c: sorted(c.lenses))
    with pytest.raises(TilingError) as info:
        RhombusTiling(lensy)
    assert str(info.value) == f"rhombus: {min(lensy.lenses)} is not half of a rhombus"
    assert str(min(lensy.lenses)).startswith("lens(")
    cases = [
        (Combi(2, [], [Nabla(0, 1, 2)]), "rhombus: 0 deltas do not pair with 1 nablas"),
        (Combi(2, [Delta(3, 1, 2)]), "rhombus: 1 deltas do not pair with 0 nablas"),
        (Combi(3, [Delta(7, 1, 2)], [Nabla(0, 1, 2), Nabla(0, 2, 3)]), "rhombus: 1 deltas do not pair with 2 nablas"),
    ]
    for combi, text in cases:
        with pytest.raises(TilingError) as info:
            RhombusTiling(combi=combi)
        assert str(info.value) == text
