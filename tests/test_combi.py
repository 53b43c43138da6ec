import random
import re
import tracemalloc
from collections import Counter
from itertools import combinations, product

import pytest

from zonotile import _planar as planar_module
from zonotile import bitsets as bs
from zonotile import combi as combi_module
from zonotile._planar import TilingError, _pair, _tile_shapes, check_planar_cover, edge_key, zonogon_region
from zonotile.combi import (
    Combi,
    Delta,
    Lens,
    MConfig,
    Nabla,
    WConfig,
    find_m_configs,
    find_w_configs,
    from_rhombus,
    from_w_collection,
    shared_delta,
    shared_lens,
    shared_nabla,
    spectrum,
    validate_combi,
)
from zonotile.contraction import mirror, n_expand
from zonotile.flips import complement_combi, lowering_flip
from zonotile.geometry import Generators, default_generators, embedding_table
from zonotile.rhombus import from_s_collection, minimal_tiling
from zonotile.separation import (
    SetFamily,
    cointerval_collection,
    interval_collection,
    is_maximal_separated,
)
from zonotile.suite import CubePool

import oracles

M = bs.mask_of


def _outcome(call, *args, **kwargs):
    """What `call` returns, or the type and text of the ValueError (a
    TilingError included) it raises."""
    try:
        return call(*args, **kwargs)
    except ValueError as error:
        return type(error), str(error)


def _tampered_covers(cycles, boundary, area2, vertices, rng):
    """The cover itself and, for each tamper, one tampered copy as
    (cycles, boundary, area2): a tile dropped or duplicated, a cycle
    reversed or rotated, a vertex swapped for another vertex of the cover,
    a boundary edge repeated, the area off by one either way; then two
    tampers at once, twice."""

    def tile_tamper(kind, cycles):
        out = list(cycles)
        if not out:
            return out
        k = rng.randrange(len(out))
        tile, cyc = out[k]
        if kind == "drop":
            del out[k]
        elif kind == "duplicate":
            out.insert(rng.randrange(len(out) + 1), (tile, cyc))
        elif kind == "reverse":
            out[k] = (tile, cyc[::-1])
        elif kind == "rotate":
            r = rng.randrange(1, len(cyc))
            out[k] = (tile, cyc[r:] + cyc[:r])
        else:
            cyc = list(cyc)
            cyc[rng.randrange(len(cyc))] = rng.choice(vertices)
            out[k] = (tile, cyc)
        return out

    kinds = ["drop", "duplicate", "reverse", "rotate", "swap"]
    out = [(cycles, boundary, area2)]
    if cycles:
        out += [(tile_tamper(kind, cycles), boundary, area2) for kind in kinds]
        for _ in range(2):
            first, second = rng.sample(kinds, 2)
            out.append((tile_tamper(second, tile_tamper(first, cycles)), boundary, area2))
    k = rng.randrange(len(boundary))
    out.append((cycles, boundary[:k] + boundary[k:][:1] + boundary[k:], area2))
    out += [(cycles, boundary, area2 + 2), (cycles, boundary, area2 - 2)]
    return out


def _verdict(check, gens, cover):
    try:
        return check(gens, *cover)
    except TilingError as exc:
        return str(exc)


def test_cover_check_matches_reference_scan():
    # every combi and rhombus tiling with n <= 4 and a seeded sample at
    # n = 5, each as it is and under each tamper
    rng = random.Random(13)
    covers = []
    for n in range(1, 6):
        gens = default_generators(n)
        region = zonogon_region(gens)
        weak, strong = oracles.cube_combis(n), oracles.strong_tilings(n)
        if n == 5:
            weak, strong = rng.sample(weak, 40), rng.sample(strong, 20)
        for combi in weak:
            covers.append((gens, region, [(t, t.cycle()) for t in combi.tiles()], sorted(combi.vertex_masks())))
        for tiling in strong:
            covers.append((gens, region, [(t, t.cycle()) for t in sorted(tiling.tiles)], sorted(tiling.combi.vertex_masks())))
    verdicts = Counter()
    for gens, (boundary, area2), cycles, vertices in covers:
        tampered = [_tampered_covers(cycles, boundary, area2, vertices, rng) for _ in range(3)]
        batch = [c for copies in tampered for c in copies]
        wants = [_verdict(oracles.reference_cover_check, gens, cover) for cover in batch]
        # each tile's shape is memoised by its cycle: the same verdicts and
        # error texts with the memo cleared as warm
        _tile_shapes(gens).clear()
        for _ in range(2):
            assert [_verdict(check_planar_cover, gens, cover) for cover in batch] == wants
        verdicts.update(want if want is True else want.split(":")[0] for want in wants)
    assert len(covers) == 86
    assert set(verdicts) == {
        True, "tile-shape", "tile-convexity", "edge-sharing", "region-boundary", "area"
    }


def test_tile_memo_keyed_by_cycle_and_generators():
    gens = default_generators(2)
    boundary, area2 = zonogon_region(gens)
    nabla, delta = Nabla(0, 1, 2), Delta(M([1, 2]), 1, 2)
    cyc = delta.cycle()
    assert check_planar_cover(gens, [(delta, cyc), (nabla, nabla.cycle())], boundary, area2)
    # the genuine delta's verdict is not reused for its cycle reversed, nor
    # its edges for its cycle rotated, walked from another vertex
    rotated = cyc[1:] + cyc[:1]
    cases = [
        ([(delta, cyc[::-1]), (nabla, nabla.cycle())],
         "tile-convexity: delta({1,2};1,2) is not strictly convex and counterclockwise at vertex index 0"),
        ([(delta, cyc), (delta, rotated), (nabla, nabla.cycle())],
         f"edge-sharing: directed edge {(rotated[0], rotated[1])} used twice"),
    ]
    for cycles, text in cases * 2:  # a failing cycle fails the same way twice
        with pytest.raises(TilingError) as info:
            check_planar_cover(gens, cycles, boundary, area2)
        assert str(info.value) == text
    # one cycle, two generator sets: counterclockwise under the default
    # ones, flat under the symmetric ones, which put 0, {2} and {1,3} on one
    # vertical line; each verdict holds whichever is worked out first, and
    # the flat tile fails before the region is read
    triangle = (0, M([1, 3]), M([2]))
    symmetric = Generators(3, [(-3, 4), (0, 5), (3, 4)])
    for _ in range(2):
        edges, reverse, area = _tile_shapes(default_generators(3))[triangle]
        assert edges == (edge_key(0, M([1, 3])), edge_key(M([1, 3]), M([2])), edge_key(M([2]), 0)) and area > 0
        assert reverse == tuple(edge_key(*_pair(k)[::-1]) for k in edges)
        with pytest.raises(TilingError, match="^tile-convexity: is not strictly convex .* index 0$"):
            _tile_shapes(symmetric)[triangle]
        with pytest.raises(TilingError, match="flat is not strictly convex .* at vertex index 0"):
            check_planar_cover(symmetric, [("flat", list(triangle))], (), 0)
    # the least left turn there is: a triangle of doubled area 1
    thin = Generators(3, [(-4, 3), (-3, 4), (3, 4)])
    assert _tile_shapes(thin)[M([1]), M([2]), M([1, 3])][2] == 1
    with pytest.raises(TilingError, match="^tile-convexity: .* index 0$"):
        _tile_shapes(thin)[M([1]), M([1, 3]), M([2])]


def test_edge_keys_are_one_to_one_ordered_and_decoded():
    # every directed edge (u, v) of masks with n <= 6, and the extremes of
    # n = 16, in (u, v) order: the keys ascend strictly and decode back
    masks = [*range(1 << 6), 1 << 15, (1 << 16) - 2, (1 << 16) - 1]
    pairs = [(u, v) for u in masks for v in masks]
    keys = [edge_key(u, v) for u, v in pairs]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    assert [_pair(k) for k in keys] == pairs


def test_tile_memo_drops_its_earliest_cycle_past_the_bound(monkeypatch):
    # the memo keeps at most TILE_CACHE_SIZE cycles, dropping the one kept
    # earliest; a dropped cycle is worked out again, the same
    monkeypatch.setattr(planar_module, "TILE_CACHE_SIZE", 3)
    memo = _tile_shapes(default_generators(3))
    memo.clear()
    cycles = [t.cycle() for t in from_rhombus(minimal_tiling(3)).tiles()][:4]
    shapes = [memo[cyc] for cyc in cycles]
    assert list(memo) == cycles[1:]
    assert memo[cycles[0]] == shapes[0] and list(memo) == cycles[2:] + cycles[:1]
    memo.clear()


class TestTileTypes:
    def test_delta_vertices(self):
        d = Delta(M([1, 2]), 1, 2)
        assert d.left == M([1]) and d.right == M([2])
        assert Combi(2, [d]).vertex_masks() == {M([1]), M([2]), M([1, 2])}

    def test_nabla_vertices(self):
        v = Nabla(0, 1, 2)
        assert v.left == M([1]) and v.right == M([2])
        assert Combi(2, (), [v]).vertex_masks() == {0, M([1]), M([2])}

    def test_lens_axioms(self):
        good = Lens((M([1, 3]), M([2, 3]), M([3, 4])), (M([1, 3]), M([1, 4]), M([3, 4])))
        assert good.upper_center == M([3])
        assert good.lower_center == M([1, 3, 4])
        assert good.upper_types == (1, 2, 4)
        assert (good.left, good.right) == (M([1, 3]), M([3, 4]))
        shifted = Lens([v << 1 for v in good.upper], [v << 1 for v in good.lower])
        assert shifted.lower_center == M([2, 4, 5])

    def test_lens_needs_two_edges_per_side(self):
        with pytest.raises(ValueError):
            Lens((M([1, 3]), M([3, 4])), (M([1, 3]), M([1, 4]), M([3, 4])))

    def test_lens_error_texts(self):
        # each case breaks one axiom of the good lens, upper {1,3} {2,3}
        # {3,4} and lower {1,3} {1,4} {3,4}, and passes the ones before it
        up, lo = (M([1, 3]), M([2, 3]), M([3, 4])), (M([1, 3]), M([1, 4]), M([3, 4]))
        cases = [
            (up[::2], lo, "lens boundaries need at least two edges each"),
            (up, lo[::2], "lens boundaries need at least two edges each"),
            (up, (M([1, 3]), M([1, 4]), M([2, 4])), "lens boundaries must share their end vertices"),
            (up, (M([1, 3]), M([1]), M([3, 4])), "all lens vertices must have the same cardinality"),
            ((M([1, 2]), M([3, 4]), M([4, 5])), (M([1, 2]), M([1, 5]), M([4, 5])),
             "upper path vertices must share a common center"),
            ((M([1, 2]), M([2, 3]), M([3, 4])), (M([1, 2]), M([1, 4]), M([3, 4])),
             "upper path vertices must share a common center"),
            # equal ends meet in themselves
            ((M([1, 3]), M([2, 3]), M([1, 3])), (M([1, 3]), M([1, 4]), M([1, 3])),
             "upper path vertices must share a common center"),
            ((M([2, 3]), M([1, 3]), M([3, 4])), (M([2, 3]), M([2, 4]), M([3, 4])),
             "upper path types must strictly increase"),
            (up, (M([1, 3]), M([1, 2]), M([3, 4])), "lower path vertices must share a common union"),
            (up, (M([1, 3]), M([3, 4]), M([3, 4])), "lower path types must strictly decrease"),
        ]
        for upper, lower, text in cases:
            with pytest.raises(ValueError) as info:
                Lens(upper, lower)
            assert str(info.value) == text
        assert Lens(up, lo).upper_types == (1, 2, 4)

    def test_lens_accepts_just_the_axiom_lenses(self):
        # every pair of 3-vertex sides sharing their ends, over the subsets of
        # {1..5} of each size 1..4, then a seeded sample over {1..6} with a
        # 4-vertex side or two
        def accepts(upper, lower):
            try:
                Lens(upper, lower)
            except ValueError:
                return False
            return True

        levels = [[M(c) for c in combinations(range(1, 6), k)] for k in range(1, 5)]
        verdicts = Counter()
        for subs in levels:
            for a, b, x, y in product(subs, repeat=4):
                verdicts[accepts((a, x, b), (a, y, b)), oracles.lens_axioms((a, x, b), (a, y, b))] += 1
        assert verdicts == {(False, False): 21230, (True, True): 20}

        def middle(rng, count, pool, ends, vertex):
            # `count` vertices by `vertex` of types from `pool`, mostly
            # between the end types, ascending; now and then any subset
            between = [e for e in pool if ends[0] < e < ends[1]]
            types = sorted(rng.choices(between if between and rng.random() < 0.8 else pool, k=count))
            return [vertex(e) if rng.random() < 0.9 else rng.randrange(1, 64) for e in types]

        rng, sample = random.Random(5), Counter()
        for _ in range(1000):
            # a center and the end types, mostly in order; the upper middle
            # vertices hold the center, the lower ones lie in the ends' join
            *center, s, t = rng.sample(range(1, 7), rng.randint(3, 6))
            ends = sorted((s, t)) if rng.random() < 0.8 else [s, t]
            a, b = M(center + ends[:1]), M(center + ends[1:])
            ups, los = rng.choice(((2, 1), (1, 2), (2, 2)))
            outside = [e for e in range(1, 7) if e not in center]
            upper = (a, *middle(rng, ups, outside, ends, lambda e: M(center + [e])), b)
            lower = (a, *middle(rng, los, center, ends, lambda e: (a | b) & ~M([e]))[::-1], b)
            sample[accepts(upper, lower), oracles.lens_axioms(upper, lower)] += 1
        assert set(sample) == {(False, False), (True, True)}

    def test_failed_tiles_are_never_shared(self):
        # each text through the class, then twice through the shared
        # constructor: a failure is not cached, so it raises every time
        cases = [
            (Delta, shared_delta, (M([1, 2]), 2, 2), "need 1 <= low < high, got 2, 2"),
            (Delta, shared_delta, (M([1, 2]), 0, 2), "need 1 <= low < high, got 0, 2"),
            (Delta, shared_delta, (M([1]), 1, 2), "apex of a Delta must contain both type elements"),
            (Delta, shared_delta, (M([2]), 1, 2), "apex of a Delta must contain both type elements"),
            (Nabla, shared_nabla, (0, 2, 2), "need 1 <= low < high, got 2, 2"),
            (Nabla, shared_nabla, (0, 0, 1), "need 1 <= low < high, got 0, 1"),
            (Nabla, shared_nabla, (M([1]), 1, 2), "bottom of a Nabla must avoid both type elements"),
            (Nabla, shared_nabla, (M([2]), 1, 2), "bottom of a Nabla must avoid both type elements"),
            (Lens, shared_lens, ((M([1]), M([2])), (M([1]), M([2]))),
             "lens boundaries need at least two edges each"),
        ]
        for cls, shared, args, text in cases:
            size = shared.cache_info().currsize
            for build in (cls, shared, shared):
                with pytest.raises(ValueError) as info:
                    build(*args)
                assert str(info.value) == text
            assert shared.cache_info().currsize == size


class TestValidation:
    def test_semi_rhombus_z2(self):
        combi = Combi(2, [Delta(M([1, 2]), 1, 2)], [Nabla(0, 1, 2)])
        assert validate_combi(combi)

    def test_missing_half_fails(self):
        combi = Combi(2, [], [Nabla(0, 1, 2)])
        with pytest.raises(TilingError):
            validate_combi(combi)

    def test_missing_tile_names_its_edge(self):
        # Removing any tile leaves one of its edges unshared, and the error
        # names that edge, in one direction or the other.
        for combi in oracles.cube_combis(4)[:4]:
            for tile in combi.tiles():
                short = Combi(4, combi.deltas - {tile}, combi.nablas - {tile}, combi.lenses - {tile})
                with pytest.raises(TilingError) as info:
                    validate_combi(short)
                assert info.value.axiom in ("edge-sharing", "region-boundary")
                u, v = map(int, re.search(r"edge \((\d+), (\d+)\)", info.value.detail).groups())
                cyc = tile.cycle()
                edges = set(zip(cyc, cyc[1:] + cyc[:1]))
                assert (u, v) in edges or (v, u) in edges

    def test_tile_named_only_when_raising(self):
        gens = default_generators(3)
        boundary, area2 = zonogon_region(gens)
        combi = oracles.cube_combis(3)[0]
        named = []

        class Named:
            """A tile that records each time it is named."""

            def __init__(self, tile):
                self.tile = tile

            def __str__(self):
                named.append(self.tile)
                return str(self.tile)

        cycles = [(Named(t), t.cycle()) for t in combi.tiles()]
        assert check_planar_cover(gens, cycles, boundary, area2)
        assert named == []
        delta = Delta(M([1, 2]), 1, 2)
        with pytest.raises(TilingError) as info:
            check_planar_cover(gens, [(Named(delta), delta.cycle()[:2])], boundary, area2)
        assert str(info.value) == "tile-shape: delta({1,2};1,2) has fewer than 3 vertices"
        with pytest.raises(TilingError) as info:
            check_planar_cover(gens, [(Named(delta), delta.cycle()[::-1])], boundary, area2)
        assert info.value.detail == (
            "delta({1,2};1,2) is not strictly convex and counterclockwise at vertex index 0"
        )
        assert named == [delta, delta]

    def test_cover_error_texts(self):
        # The z2 square: boundary 0 -> {2} -> {1,2} -> {1} -> 0, one nabla
        # [0, {2}, {1}] below one delta [{1}, {2}, {1,2}].
        gens = default_generators(2)
        boundary, area2 = zonogon_region(gens)
        assert boundary == ((0, 2), (2, 3), (3, 1), (1, 0))
        nabla, delta = Nabla(0, 1, 2), Delta(M([1, 2]), 1, 2)
        turned = nabla.cycle()[1:] + nabla.cycle()[:1]
        good = [(delta, delta.cycle()), (nabla, nabla.cycle())]
        cases = [
            ([(nabla, nabla.cycle())] * 2, boundary, area2,
             "edge-sharing: directed edge (0, 2) used twice"),
            # edges are walked from (cyc[0], cyc[1]) round the cycle
            ([(nabla, nabla.cycle()), (nabla, turned)], boundary, area2,
             "edge-sharing: directed edge (2, 1) used twice"),
            ([(nabla, nabla.cycle())], boundary, area2,
             "edge-sharing: interior edge (2, 1) is not shared by tiles on both sides"),
            ([(delta, delta.cycle())], boundary, area2,
             "region-boundary: boundary edge (0, 2) not covered exactly once by the tiles"),
            (good, boundary + boundary[:1], area2,
             "region-boundary: boundary edge (0, 2) repeated"),
            (good, boundary[1:] + boundary[1:2] + boundary[:1], area2,
             "region-boundary: boundary edge (2, 3) repeated"),
            (good, boundary + boundary[2:3], area2,
             "region-boundary: boundary edge (3, 1) repeated"),
            # the delta spills over the nabla's edge from {2} to {1}
            ([(nabla, nabla.cycle()), (delta, delta.cycle())], ((0, 2), (2, 1), (1, 0)), area2 // 2,
             "region-boundary: boundary edge (1, 2) not covered exactly once by the tiles"),
            (good, boundary, area2 + 2,
             "area: tile areas sum to 132600/2, region area is 132602/2"),
        ]
        for cycles, bnd, want_area2, text in cases:
            with pytest.raises(TilingError) as info:
                check_planar_cover(gens, cycles, bnd, want_area2)
            assert str(info.value) == text
        assert check_planar_cover(gens, good, boundary, area2)
        # edges are compared as chains: two opposite boundary edges cancel
        assert check_planar_cover(gens, good, boundary + ((0, 3), (3, 0)), area2)

    def test_convexity_error_texts(self):
        # Each bad tile is the first of a cover that is exact in every other
        # respect, so without the convexity test the cover would pass.
        gens = default_generators(3)
        boundary, area2 = zonogon_region(gens)
        # the hexagon cut into the union of two rhombi around {2}, reflex
        # at {2}, and the third rhombus
        chevron = [0, M([3]), M([2, 3]), M([2]), M([1, 2]), M([1])]
        rhombus = [M([2]), M([2, 3]), M([1, 2, 3]), M([1, 2])]
        with pytest.raises(TilingError) as info:
            check_planar_cover(gens, [("chevron", chevron), ("rhombus", rhombus)], boundary, area2)
        assert str(info.value) == (
            "tile-convexity: chevron is not strictly convex and counterclockwise at vertex index 3"
        )
        # symmetric generators put 0, {2} and {1,3} on one vertical line: the
        # triangle 0, {1,3}, {1} with {2} on its edge from 0 to {1,3}
        gens = Generators(3, [(-3, 4), (0, 5), (3, 4)])
        boundary = [(0, M([2])), (M([2]), M([1, 3])), (M([1, 3]), M([1])), (M([1]), 0)]
        cases = [
            ([("notched", [0, M([2]), M([1, 3]), M([1])])], 1),
            ([("flat", [0, M([2]), M([1, 3])]), ("triangle", [0, M([1, 3]), M([1])])], 0),
        ]
        for cycles, index in cases:
            with pytest.raises(TilingError) as info:
                check_planar_cover(gens, cycles, boundary, 24)
            assert str(info.value) == (
                f"tile-convexity: {cycles[0][0]} is not strictly convex and "
                f"counterclockwise at vertex index {index}"
            )

    def test_error_order_and_bent_index(self):
        gens = default_generators(3)
        boundary, area2 = zonogon_region(gens)
        nabla = [0, M([2]), M([1])]
        chevron = [0, M([3]), M([2, 3]), M([2]), M([1, 2]), M([1])]
        rhombus = [M([2]), M([2, 3]), M([1, 2, 3]), M([1, 2])]
        # the dart 0, {2,3}, {2}, {1} turns right at {2} only
        dart = [0, M([2, 3]), M([2]), M([1])]
        cases = [
            # a repeated edge in an earlier tile wins over a later reflex tile
            ([("t0", nabla), ("t1", nabla), ("t2", rhombus), ("t3", chevron)],
             "edge-sharing: directed edge (0, 2) used twice"),
            # and a reflex tile wins over a later repeated edge
            ([("t0", nabla), ("t1", chevron), ("t2", rhombus), ("t3", nabla)],
             "tile-convexity: t1 is not strictly convex and counterclockwise at vertex index 3"),
            ([("first", dart[2:] + dart[:2])],
             "tile-convexity: first is not strictly convex and counterclockwise at vertex index 0"),
            ([("last", dart[3:] + dart[:3])],
             "tile-convexity: last is not strictly convex and counterclockwise at vertex index 3"),
            # a repeated vertex is a shape fault, though the triangle is flat too
            ([("t0", rhombus), ("twice", [0, M([1]), 0])], "tile-shape: twice repeats a vertex"),
            ([("t0", rhombus), ("twice", [0, M([1]), M([1]), M([2])])],
             "tile-shape: twice repeats a vertex"),
            ([("t0", rhombus), ("two", [0, M([1])])], "tile-shape: two has fewer than 3 vertices"),
            # turning left at every vertex, twice round a triangle
            ([("t0", rhombus), ("twice round", nabla * 2)], "tile-shape: twice round repeats a vertex"),
        ]
        for cycles, text in cases:
            with pytest.raises(TilingError) as info:
                check_planar_cover(gens, cycles, boundary, area2)
            assert str(info.value) == text

    def test_missing_tile_error_texts(self):
        # The first unbalanced edge is the least one as a (tail, head) pair.
        combi = from_rhombus(minimal_tiling(3))
        want = {
            "delta({1,2};1,2)": "edge-sharing: interior edge (2, 1) is not shared by tiles on both sides",
            "delta({2,3};2,3)": "edge-sharing: interior edge (2, 6) is not shared by tiles on both sides",
            "delta({1,2,3};1,3)": "edge-sharing: interior edge (6, 3) is not shared by tiles on both sides",
            "nabla({};1,2)": "region-boundary: boundary edge (1, 0) not covered exactly once by the tiles",
            "nabla({};2,3)": "edge-sharing: interior edge (0, 2) is not shared by tiles on both sides",
            "nabla({2};1,3)": "edge-sharing: interior edge (2, 3) is not shared by tiles on both sides",
        }
        got = {}
        for tile in combi.tiles():
            with pytest.raises(TilingError) as info:
                validate_combi(Combi(3, combi.deltas - {tile}, combi.nablas - {tile}))
            got[str(tile)] = str(info.value)
        assert got == want

    def test_each_cancellation_lookup_fails_alone(self):
        # With no edge used twice, the used edges E cancel against the
        # boundary's unpaired edges P just when (a) P lies in E, (b) no
        # reverse of P is in E, and (c) each reverse of E is in E or among
        # the reverses of P.  Each cover below fails one of the three only.
        def failing(cycles, boundary):
            used = {e for _, cyc in cycles for e in zip(cyc, cyc[1:] + cyc[:1])}
            unpaired = {e for e in boundary if e[::-1] not in boundary}
            outward = {e[::-1] for e in unpaired}
            held = [unpaired <= used, not used & outward, {e[::-1] for e in used} <= used | outward]
            return [name for name, ok in zip("abc", held) if not ok]

        hexagon, area3 = zonogon_region(default_generators(3))
        tiles = [(t, t.cycle()) for t in from_rhombus(minimal_tiling(3)).tiles()]
        spare = Delta(M([1, 3]), 1, 3).cycle()  # a tile of the hexagon's other tiling
        nabla, delta = Nabla(0, 1, 2), Delta(M([1, 2]), 1, 2)
        cases = [
            # a boundary edge no tile covers: the spare delta's, a second region
            (3, tiles, hexagon + tuple(zip(spare, spare[1:] + spare[:1])), area3, "a",
             "region-boundary: boundary edge (1, 4) not covered exactly once by the tiles"),
            # a tile using a boundary edge reversed: the delta over the nabla's
            # edge from {2} to {1}, with the delta's other sides on the boundary
            (2, [(nabla, nabla.cycle()), (delta, delta.cycle())], ((0, 2), (2, 1), (1, 0), (2, 3), (3, 1)), 0,
             "b", "region-boundary: boundary edge (1, 2) not covered exactly once by the tiles"),
            # an interior edge without its partner: the one tile touching no
            # side of the hexagon left out
            (3, [pair for pair in tiles if str(pair[0]) != "nabla({2};1,3)"], hexagon, area3, "c",
             "edge-sharing: interior edge (2, 3) is not shared by tiles on both sides"),
        ]
        for n, cycles, boundary, area2, fails, text in cases:
            assert failing(cycles, boundary) == [fails]
            with pytest.raises(TilingError) as info:
                check_planar_cover(default_generators(n), cycles, boundary, area2)
            assert str(info.value) == text

    def test_from_rhombus_examples(self):
        combi = from_rhombus(minimal_tiling(3))
        assert validate_combi(combi)
        assert len(combi.deltas) == 3 and len(combi.nablas) == 3
        assert spectrum(combi) == interval_collection(3)
        # a semi-rhombus combi: no lenses, and every delta's base is a nabla's
        assert not combi.lenses
        assert {(d.left, d.right) for d in combi.deltas} == {(v.left, v.right) for v in combi.nablas}


class TestSpectrum:
    def test_vertex_count(self):
        for n in (2, 3, 4, 5):
            for combi in oracles.cube_combis(n):
                assert len(combi.vertex_masks()) == n * (n + 1) // 2 + 1

    def test_z1_combi(self):
        combi = Combi(1)
        assert validate_combi(combi)
        assert combi.vertex_masks() == frozenset({0, 1})

    def test_spectra_are_maximal_weak(self):
        for combi in oracles.cube_combis(4):
            assert is_maximal_separated(spectrum(combi), "weak")


class TestReconstruction:
    def test_intervals_give_semi_rhombus(self):
        for n in (2, 3, 4):
            combi = from_w_collection(interval_collection(n))
            assert combi == from_rhombus(minimal_tiling(n))

    def test_specific_n3_collection(self):
        fam = SetFamily(3, [0, M([1]), M([3]), M([1, 3]), M([1, 2]), M([2, 3]), M([1, 2, 3])])
        combi = from_w_collection(fam)
        assert spectrum(combi) == fam

    def test_rejects_non_maximal(self):
        with pytest.raises(ValueError, match="^family is not a maximal weakly separated collection$"):
            from_w_collection(SetFamily(3, [0, M([1])]))

    def test_unchecked_member_on_no_tile_fails_the_spectrum_check(self):
        # no X+i or X-i of {1,3,5} is a member, so it is the vertex of no
        # tile: the tiles of the other members cover the zonogon, and only
        # the spectrum check sees the member left out
        rest = [0, 1, 2, 3, 4, 6, 7, 8, 12, 14, 15, 16, 24, 28, 30, 31]
        assert from_w_collection(SetFamily(5, rest)).vertex_masks() == set(rest)
        with pytest.raises(TilingError, match="^spectrum: reconstruction changed the vertex set$"):
            from_w_collection(SetFamily(5, rest + [M([1, 3, 5])]), check_input=False)

    def test_rejects_non_separated(self):
        # {1,3} and {2,4} interlace, so no separated collection holds both
        fam = SetFamily(4, [M([1, 3]), M([2, 4])])
        assert is_maximal_separated(fam, "weak") is False
        with pytest.raises(ValueError):
            from_w_collection(fam)

    def test_unchecked_lens_without_lower_path_raises_value_error(self):
        # {1}, {2}, {3} over the non-member {} make a lens's upper path, but
        # the union {1,3} of its ends is a member, so no lower path exists
        fam = SetFamily(3, [M([1]), M([2]), M([3]), M([1, 3])])
        with pytest.raises(TilingError) as info:
            from_w_collection(fam, check_input=False)
        assert str(info.value) == "lens: upper path over {}: lens boundaries need at least two edges each"

    def test_assembly_matches_two_step_reference(self):
        for n in range(1, 6):
            for fam in oracles.cube_families(n, "weak"):
                combi = from_w_collection(fam)
                ref = oracles.reference_combi(fam)
                # both read their vertex sets when built; `combi` has read its
                # edge sets too, `ref` has not: equality and hashing must not
                # see the difference
                combi.vertical_edges()
                assert combi == ref and hash(combi) == hash(ref)
                cycles = set().union(*(t.cycle() for t in combi.tiles())) if n > 1 else {0, 1}
                assert combi.vertex_masks() == cycles == fam.as_set()
                assert combi.vertex_masks() is combi.vertex_masks()
                ref.horizontal_edges()
                assert combi == ref and hash(combi) == hash(ref)

    def test_unchecked_assembly_succeeds_just_on_maximal_families(self):
        # every weak collection with n <= 5, sampled ones at n = 6, and
        # seeded families that miss a member of one, hold one more, or both:
        # the unchecked reconstruction succeeds exactly on the maximal ones,
        # and then builds the two-step reference's combi
        pools = {n: oracles.cube_families(n, "weak") for n in range(1, 7)}
        rng = random.Random(5)
        fams = [fam for n in range(1, 6) for fam in pools[n]] + rng.sample(pools[6], 600)
        maximal = len(fams)
        # a lens's upper path {1}, {2}, {3} whose end-union {1,3} is a member
        fams.append(SetFamily(3, [M([1]), M([2]), M([3]), M([1, 3])]))
        for _ in range(2000):
            n = rng.choice((3, 4, 5, 6))
            members = set(rng.choice(pools[n]).members)
            way = rng.choice(("drop", "add", "swap"))
            if way != "add":
                members.remove(rng.choice(sorted(members)))
            if way != "drop":
                members.add(rng.choice(sorted(set(range(1 << n)) - members)))
            fams.append(SetFamily(n, members))
        kinds = Counter()
        for fam in fams:
            got = _outcome(from_w_collection, fam, check_input=False)
            assert isinstance(got, Combi) == is_maximal_separated(fam, "weak"), (fam, got)
            if isinstance(got, Combi):
                assert got == oracles.reference_combi(fam), fam
                kinds["combi"] += 1
            else:
                # a TilingError's axiom, a lens error's text
                assert got[0] is TilingError, got
                axiom, _, detail = got[1].partition(": ")
                kinds[detail.rpartition(": ")[2] if axiom == "lens" else axiom] += 1
        # the altered families reach every error of the reconstruction, and
        # some, a flip away, are maximal again
        assert kinds["lens boundaries need at least two edges each"] > 100
        assert kinds["lens boundaries must share their end vertices"] > 0
        assert min(kinds["edge-sharing"], kinds["region-boundary"]) > 100
        assert kinds["spectrum"] > 10
        assert kinds["combi"] > maximal + 100

    def test_misfiled_tile_is_named(self):
        combi = from_w_collection(interval_collection(4))
        nablas, deltas = sorted(combi.nablas), sorted(combi.deltas)
        nb, d = nablas[0], deltas[0]
        cases = [
            ((combi.deltas | {nb}, combi.nablas - {nb}, ()), f"{nb} is filed among the deltas"),
            ((combi.deltas - {d}, combi.nablas | {d}, ()), f"{d} is filed among the nablas"),
            ((combi.deltas, combi.nablas - {nb}, {nb}), f"{nb} is filed among the lenses"),
            # two in one field: the least by its str; the deltas come first
            ((combi.deltas | set(nablas[:2]), combi.nablas | {d}, ()), f"{min(map(str, nablas[:2]))} is filed among the deltas"),
            ((combi.deltas, combi.nablas, [5]), "5 is filed among the lenses"),
        ]
        # on a combi with a lens: each kind of stray in each field, and
        # strays in two fields, where the first field's least str wins
        lensy = next(c for c in oracles.cube_combis(4) if c.lenses)
        ds, ns, ls = lensy.deltas, lensy.nablas, lensy.lenses
        n0, d0, l0 = min(ns), min(ds), min(ls)
        assert (str(n0), str(d0), str(l0)) == ("nabla({};1,4)", "delta({1,2,3};1,2)", "lens({1,3}..{3,4})")
        cases += [
            ((ds | {n0}, ns - {n0}, ls), "nabla({};1,4) is filed among the deltas"),
            ((ds | {l0}, ns, ()), "lens({1,3}..{3,4}) is filed among the deltas"),
            ((ds | {7}, ns, ls), "7 is filed among the deltas"),
            ([[*ds, None], ns, ls], "None is filed among the deltas"),
            ((ds, ns | {7}, ls), "7 is filed among the nablas"),
            ((ds, ns, ls | {"tile"}), "tile is filed among the lenses"),
            ((ds - {d0}, ns, ls | {d0}), "delta({1,2,3};1,2) is filed among the lenses"),
            ((ds - {d0} | {7}, ns, ls | {d0}), "7 is filed among the deltas"),
            ((ds | {n0}, ns | {3}, ls), "nabla({};1,4) is filed among the deltas"),
        ]
        for fields, text in cases:
            with pytest.raises(ValueError) as info:
                Combi(4, *fields)
            assert str(info.value) == text

    def test_reconstructions_share_every_tile(self):
        # each distinct tile is built once: every site that builds all the
        # tiles of a combi hands out the same objects
        for n in range(1, 5):
            strong = {fam.members: fam for fam in oracles.cube_families(n, "strong")}
            for fam in oracles.cube_families(n, "weak"):
                first = from_w_collection(fam)
                held = {t: t for t in first.tiles()}
                again = [from_w_collection(fam), mirror(mirror(first))]
                again.append(complement_combi(complement_combi(first)))
                if fam.members in strong:
                    again.append(from_rhombus(from_s_collection(strong[fam.members])))
                for combi in again:
                    assert len(combi.tiles()) == len(held)
                    assert all(held.get(t) is t for t in combi.tiles())

    def test_every_adjacent_pair_is_an_edge(self):
        # X and X+i in the spectrum always join by a vertical edge
        for combi in oracles.cube_combis(4):
            verts = combi.vertex_masks()
            edges = combi.vertical_edges()
            for x in verts:
                for e in range(1, 5):
                    if not bs.has(x, e) and (x | bs.singleton(e)) in verts:
                        assert (x, x | bs.singleton(e)) in edges

    def test_pair_vertex_alternatives(self):
        # for vertices X+i, X+j one of: X present, X+i+j present, or both on
        # one lens boundary
        for combi in oracles.cube_combis(4):
            verts = combi.vertex_masks()
            lens_uppers = [set(l.upper) for l in combi.lenses]
            lens_lowers = [set(l.lower) for l in combi.lenses]
            for a in verts:
                for b in verts:
                    if a >= b or bs.size(a) != bs.size(b) or bs.size(a ^ b) != 2:
                        continue
                    meet, join = a & b, a | b
                    ok = (
                        meet in verts
                        or join in verts
                        or any({a, b} <= s for s in lens_uppers)
                        or any({a, b} <= s for s in lens_lowers)
                    )
                    assert ok, (a, b)


@pytest.mark.slow
@pytest.mark.parametrize("n, collections, lenses", [(6, 3694, 4352), (7, 259480, 504578)])
def test_reconstructs_every_weak_collection(n, collections, lenses):
    # the lens totals are those the girdle peeling (`oracles.reference_combi`) found
    fams = CubePool().report(n).maximal_collections
    assert len(fams) == collections
    assert sum(len(from_w_collection(fam, check_input=False).lenses) for fam in fams) == lenses


class TestNablaLevels:
    def test_bases_chain_boundary_to_boundary(self):
        # the chained nabla bases of each level run from the left-boundary
        # vertex [1..h] to the right-boundary vertex [(n-h+1)..n]
        n = 4
        for combi in oracles.cube_combis(n):
            for level in range(1, n):
                bases = sorted((v.left, v.right) for v in combi.nablas if bs.size(v.left) == level)
                succ = dict(bases)
                start = bs.full_mask(level)
                end = bs.full_mask(n) ^ bs.full_mask(n - level)
                cur = start
                seen = 0
                while cur in succ:
                    cur = succ[cur]
                    seen += 1
                assert cur == end and seen == len(bases)


class TestConfigs:
    def test_interval_combi_has_single_m_and_no_w(self):
        combi = from_rhombus(minimal_tiling(3))
        assert find_w_configs(combi) == []
        ms = find_m_configs(combi)
        assert [(m.core, m.i, m.j, m.k) for m in ms] == [(0, 1, 2, 3)]

    def test_cointerval_combi_has_single_w(self):
        combi = from_w_collection(cointerval_collection(3), check_input=False)
        ws = find_w_configs(combi)
        assert [(w.core, w.i, w.j, w.k) for w in ws] == [(0, 1, 2, 3)]
        assert find_m_configs(combi) == []

    def test_z1_no_configs(self):
        combi = Combi(1)
        assert find_w_configs(combi) == [] and find_m_configs(combi) == []

    def test_configs_match_every_witness_pair(self):
        # every (core; i < j < k), the types not in the core, whose two
        # nablas (deltas) are tiles, in (core, i, j, k) order
        for n in range(3, 6):
            for combi in oracles.cube_combis(n):
                ws, ms = [], []
                for core in range(1 << n):
                    for i, j, k in combinations(bs.iter_elements(bs.full_mask(n) & ~core), 3):
                        w, m = WConfig(core, i, j, k), MConfig(core, i, j, k)
                        ws += [w] if {w.left_nabla(), w.right_nabla()} <= combi.nablas else []
                        ms += [m] if {m.left_delta(), m.right_delta()} <= combi.deltas else []
                assert find_w_configs(combi) == ws and find_m_configs(combi) == ms


# A weak collection at n=5 whose delta fan at {1,3,4,5} has three deltas,
# with a W-configuration in the middle of that fan and a legal path that
# peaks there.
_FAN5 = [
    [], [1], [1, 2], [1, 3], [1, 2, 3], [1, 3, 4], [1, 2, 3, 4], [5], [1, 5], [1, 3, 5],
    [4, 5], [1, 4, 5], [3, 4, 5], [1, 3, 4, 5], [2, 3, 4, 5], [1, 2, 3, 4, 5],
]


class TestIncidenceIndex:
    def test_index_is_not_part_of_equality(self):
        # the vertex set, read when built, and the edge readings, cached on
        # first use, are not fields
        combi = from_w_collection(SetFamily(5, [M(s) for s in _FAN5]))
        fresh = Combi(5, combi.deltas, combi.nablas, combi.lenses)
        combi.vertex_masks(), combi.vertical_edges(), combi.horizontal_edges()
        assert combi == fresh and hash(combi) == hash(fresh)
        # nor are the order, the repeats and the container of the tiles given
        rng = random.Random(11)
        for n in range(1, 5):
            for combi in oracles.cube_combis(n):
                kinds = [sorted(kind) for kind in (combi.deltas, combi.nablas, combi.lenses)]
                for kind in kinds:
                    rng.shuffle(kind)
                rebuilds = [
                    Combi(n, *kinds),
                    Combi(n, *(kind + kind[:1] for kind in kinds)),
                    Combi(n, *map(tuple, kinds)),
                    Combi(n, *map(set, kinds)),
                    Combi(n, *((t for t in kind) for kind in kinds)),
                ]
                for fresh in rebuilds:
                    assert fresh == combi and hash(fresh) == hash(combi) and fresh.tiles() == combi.tiles()

    def test_cached_edges_match_tile_cycles(self):
        for n in range(1, 6):
            table = embedding_table(default_generators(n))
            for combi in oracles.cube_combis(n):
                fresh = Combi(n, combi.deltas, combi.nablas, combi.lenses)
                vert, horiz = {(0, 1)} if n == 1 else set(), set()
                for tile in combi.tiles():
                    cycle = tile.cycle()
                    for u, v in zip(cycle, cycle[1:] + cycle[:1]):
                        if bs.size(u) != bs.size(v):
                            vert.add((u, v) if bs.size(u) < bs.size(v) else (v, u))
                        else:
                            horiz.add((u, v) if table[u][0] < table[v][0] else (v, u))
                assert combi.vertical_edges() == vert
                assert combi.horizontal_edges() == horiz
                assert combi.vertical_edges() is combi.vertical_edges()
                assert combi == fresh and hash(combi) == hash(fresh)

    def test_broken_fan_raises_everywhere(self):
        combi = from_w_collection(SetFamily(5, [M(s) for s in _FAN5]))
        mid = M([1, 3, 4, 5])
        middle = Delta.on_base(mid, M([1, 3, 5]), M([1, 4, 5]))
        assert middle in combi.deltas
        broken = Combi(5, combi.deltas - {middle}, combi.nablas, combi.lenses)
        with pytest.raises(TilingError):
            validate_combi(broken)
        # the flip reads only the vertex set and the two nablas, which the
        # broken combi keeps
        (w,) = [
            w for w in find_w_configs(broken)
            if w.core | bs.singleton(w.i) | bs.singleton(w.k) == mid
        ]
        assert lowering_flip(broken, w) == lowering_flip(combi, w)
        path = tuple(
            M(s)
            for s in ([], [1], [1, 2], [1, 2, 3], [1, 2, 3, 4], [1, 3, 4], [1, 3, 4, 5],
                      [3, 4, 5], [2, 3, 4, 5], [1, 2, 3, 4, 5])
        )
        # expansion reads only the vertex set and the path, and the broken
        # combi has the vertex set of the whole one
        assert n_expand(broken, path) == n_expand(combi, path)

    def test_on_base(self):
        for combi in oracles.cube_combis(4):
            for d in combi.deltas:
                assert Delta.on_base(d.apex, d.left, d.right) == d
            for v in combi.nablas:
                assert Nabla.on_base(v.bottom, v.left, v.right) == v
        cases = [
            (Delta, (M([1, 2, 3]), M([1, 2]), M([2])), "{1,2}-{2} is not the base of a delta at {1,2,3}"),
            (Nabla, (0, M([1]), M([2, 3])), "{1}-{2,3} is not the base of a nabla at {}"),
            # types worked out from a base the corner does not fit
            (Delta, (M([1, 2, 3]), M([2, 3]), M([1, 2])), "need 1 <= low < high, got 3, 1"),
            (Nabla, (M([1]), M([1, 2]), M([1])), "need 1 <= low < high, got 2, 0"),
        ]
        for cls, args, text in cases:
            with pytest.raises(ValueError) as info:
                cls.on_base(*args)
            assert str(info.value) == text


def test_every_reconstruction_checks_one_whole_cover(monkeypatch):
    # each weak 5-collection's reconstruction and each strong 6-collection's
    # tiling runs the cover check once, on a list of every tile's cycle
    # that can be read again after the call
    calls = []

    def recording(gens, cycles, boundary, area2):
        calls.append(cycles)
        return check_planar_cover(gens, cycles, boundary, area2)

    monkeypatch.setattr(combi_module, "check_planar_cover", recording)
    weak = oracles.cube_families(5, "weak")
    strong = oracles.cube_families(6, "strong")
    assert (len(weak), len(strong)) == (124, 908)
    builds = [(from_w_collection, fam) for fam in weak] + [(from_s_collection, fam) for fam in strong]
    for build, fam in builds:
        calls.clear()
        combi = build(fam)
        combi = getattr(combi, "combi", combi)  # a rhombus tiling's combi
        (cycles,) = calls
        assert type(cycles) is list and len(cycles) == len(combi.tiles())
        assert sum(len(cyc) for _, cyc in cycles) == sum(len(t.cycle()) for t in combi.tiles())
        assert {t: cyc for t, cyc in cycles} == {t: t.cycle() for t in combi.tiles()}


def test_a_held_combi_is_compact():
    # a run holds every combi it certifies, so each keeps its tile kinds and
    # vertex set as tuples (as frozensets they took about 3.2 KB a 5-combi);
    # the shared tiles and the shape memo are built before the count, and
    # the first combis stay held, so no freed tuple is reused in it
    fams = oracles.cube_families(5, "weak")
    warm = [from_w_collection(fam) for fam in fams]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        held = [from_w_collection(fam) for fam in fams]
        per_combi = (tracemalloc.get_traced_memory()[0] - before) / len(held)
    finally:
        tracemalloc.stop()
    assert len(held) == len(warm) == 124 and per_combi <= 1200


def test_a_reconstruction_shares_its_familys_members():
    # a certified combi keeps its family's member tuple as its vertex tuple,
    # and its spectrum is a family on that same tuple; a combi built from
    # the same tiles sorts its own and is equal, with the same hash and
    # vertex set
    pools = {n: oracles.cube_families(n, "weak") for n in range(1, 7)}
    fams = [fam for n in range(1, 6) for fam in pools[n]] + random.Random(6).sample(pools[6], 300)
    for fam in fams:
        combi = from_w_collection(fam)
        assert combi._vertices is fam.members
        assert spectrum(combi).members is combi._vertices and spectrum(combi) == fam
        fresh = Combi(fam.n, combi.deltas, combi.nablas, combi.lenses)
        assert fresh == combi and hash(fresh) == hash(combi) and fresh.vertex_masks() == combi.vertex_masks()


def test_range_check_scans_no_tile_in_range(monkeypatch):
    # the tiles are scanned one by one only to name one out of range
    combis = [(n, combi) for n in range(1, 6) for combi in oracles.cube_combis(n)]
    scanned = []
    monkeypatch.setattr(bs, "check_subset", lambda mask, n: scanned.append(mask))
    for n, combi in combis:
        assert Combi(n, combi.deltas, combi.nablas, combi.lenses) == combi
    assert scanned == []


def test_range_check_names_a_tile_independent_of_order():
    # the same tiles given in two orders, on a ground set one too small,
    # name the same out-of-range tile
    for combi in oracles.cube_combis(5):
        d, v, l = sorted(combi.deltas), sorted(combi.nablas), sorted(combi.lenses)
        texts = []
        for order in (1, -1):
            with pytest.raises(ValueError) as info:
                Combi(4, d[::order], v[::order], l[::order])
            texts.append(str(info.value))
        assert texts[0] == texts[1]


def test_range_check_names_a_nabla_or_a_lens():
    # with the tiles before it in range, a nabla or a lens is named
    with pytest.raises(ValueError) as info:
        Combi(2, [Delta(M([1, 2]), 1, 2)], [Nabla(M([3]), 1, 2)])
    assert str(info.value) == "mask 0x6 has elements outside 1..2"
    lens = Lens((M([1, 2]), M([2, 3]), M([2, 4])), (M([1, 2]), M([1, 4]), M([2, 4])))
    with pytest.raises(ValueError) as info:
        Combi(3, [Delta(M([1, 2]), 1, 2)], [Nabla(0, 1, 2)], [lens])
    assert str(info.value) == "mask 0xb has elements outside 1..3"
