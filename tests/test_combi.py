import re

import pytest

from zonotile import bitsets as bs
from zonotile._planar import TilingError, check_planar_cover, zonogon_region
from zonotile.combi import (
    Combi,
    Delta,
    Lens,
    Nabla,
    adjacent_h_classify,
    find_m_configs,
    find_w_configs,
    from_rhombus,
    from_w_collection,
    is_semi_rhombus,
    spectrum,
    tile_label,
    validate_combi,
)
from zonotile.contraction import n_expand
from zonotile.flips import lowering_flip
from zonotile.geometry import default_generators, embedding_table
from zonotile.rhombus import minimal_tiling
from zonotile.separation import (
    SetFamily,
    cointerval_collection,
    enumerate_maximal,
    hypercube_domain,
    interval_collection,
    is_maximal_separated,
)
from zonotile.suite import all_combis

M = bs.mask_of


def _reference_vertical_edges(members, n):
    """For each member, the sorted list of elements i with X+i also a member."""
    out = {}
    for x in members:
        ups = [i for i in range(1, n + 1) if not bs.has(x, i) and (x | bs.singleton(i)) in members]
        out[x] = ups
    return out


def _reference_triangles(members, n):
    """Fan rule: consecutive outgoing edges at a vertex span a Nabla, and
    consecutive incoming edges span a Delta."""
    ups = _reference_vertical_edges(members, n)
    nablas = []
    deltas = []
    for x, types in ups.items():
        for i, j in zip(types, types[1:]):
            nablas.append(Nabla(x, i, j))
    downs = {}
    for x, types in ups.items():
        for i in types:
            downs.setdefault(x | bs.singleton(i), []).append(i)
    for x, types in downs.items():
        types.sort(reverse=True)
        for i, j in zip(types, types[1:]):
            deltas.append(Delta(x, j, i))
    return deltas, nablas


def _peel_lenses(level, nabla_bases, delta_bases, members):
    """Recover the lenses of one girdle (one level) from the triangle base
    edges, as reconstruction did before lenses were read off the members.

    The lower frontier starts as the nabla bases; a maximal run of frontier
    edges with a constant pairwise union and at least two edges is the lower
    boundary of a lens exactly when witness vertices exist between its end
    types; emitting the lens replaces the run by the lens's upper path.
    Edges that are also delta bases are complete (degenerate lenses).
    """
    succ = {a: b for a, b in nabla_bases}
    frontier = set(nabla_bases)
    lenses = []
    while frontier - delta_bases:
        heads = {b for _, b in frontier}
        starts = [a for a, _ in frontier if a not in heads]
        progress = False
        for start in sorted(starts):
            path = [start]
            while path[-1] in succ and (path[-1], succ[path[-1]]) in frontier:
                path.append(succ[path[-1]])
            runs = []
            k = 0
            while k + 1 < len(path):
                if (path[k], path[k + 1]) in delta_bases:
                    k += 1
                    continue
                j = k
                union = path[k] | path[k + 1]
                while (
                    j + 1 < len(path)
                    and (path[j], path[j + 1]) not in delta_bases
                    and (path[j] | path[j + 1]) == union
                ):
                    j += 1
                if j - k >= 2:
                    runs.append(path[k : j + 1])
                k = j
            for run in runs:
                lo, hi = run[0], run[-1]
                meet = lo & hi
                t_lo, t_hi = bs.min_element(lo & ~meet), bs.min_element(hi & ~meet)
                witnesses = [
                    meet | bs.singleton(s)
                    for s in range(min(t_lo, t_hi) + 1, max(t_lo, t_hi))
                    if not bs.has(meet, s) and (meet | bs.singleton(s)) in members
                ]
                if not witnesses:
                    continue
                upper = [lo] + witnesses + [hi]
                lenses.append(Lens(upper, run))
                for a, b in zip(run, run[1:]):
                    frontier.discard((a, b))
                    succ.pop(a, None)
                for a, b in zip(upper, upper[1:]):
                    frontier.add((a, b))
                    succ[a] = b
                progress = True
        if not progress:
            raise TilingError("girdle", f"level {level}: lens recovery stalled")
    if frontier != delta_bases:
        raise TilingError("girdle", f"level {level}: frontier does not close onto the delta bases")
    return lenses


def _reference_combi(family):
    """The two-step assembly: triangles first, then the bases and the
    members grouped by level for the lens peeling."""
    n, members = family.n, family.as_set()
    deltas, nablas = _reference_triangles(members, n)
    by_level = {}
    for m in members:
        by_level.setdefault(bs.size(m), set()).add(m)
    nb_by_level = {}
    for v in nablas:
        nb_by_level.setdefault(bs.size(v.left), []).append(v.base)
    db_by_level = {}
    for d in deltas:
        db_by_level.setdefault(bs.size(d.left), set()).add(d.base)
    lenses = []
    for level, bases in sorted(nb_by_level.items()):
        lenses.extend(
            _peel_lenses(
                level, sorted(bases), db_by_level.get(level, set()), frozenset(by_level.get(level, ()))
            )
        )
    return Combi(n, deltas, nablas, lenses)


class TestTileTypes:
    def test_delta_vertices(self):
        d = Delta(M([1, 2]), 1, 2)
        assert d.left == M([1]) and d.right == M([2])
        assert d.base == (M([1]), M([2]))

    def test_nabla_vertices(self):
        v = Nabla(0, 1, 2)
        assert v.left == M([1]) and v.right == M([2])

    def test_lens_axioms(self):
        good = Lens((M([1, 3]), M([2, 3]), M([3, 4])), (M([1, 3]), M([1, 4]), M([3, 4])))
        assert good.level == 2
        assert good.upper_center == M([3])
        assert good.lower_center == M([1, 3, 4])
        assert good.upper_types == (1, 2, 4)
        with pytest.raises(ValueError):
            Lens((M([2, 3]), M([1, 3]), M([3, 4])), (M([2, 3]), M([2, 4]), M([3, 4])))

    def test_lens_needs_two_edges_per_side(self):
        with pytest.raises(ValueError):
            Lens((M([1, 3]), M([3, 4])), (M([1, 3]), M([1, 4]), M([3, 4])))


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
        for combi in all_combis(4)[:4]:
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
        combi = all_combis(3)[0]
        labelled = []

        def label(tile):
            labelled.append(tile)
            return tile_label(tile)

        cycles = [(t, t.cycle()) for t in combi.tiles()]
        assert check_planar_cover(gens, cycles, boundary, area2, label)
        assert labelled == []
        delta = Delta(M([1, 2]), 1, 2)
        with pytest.raises(TilingError) as info:
            check_planar_cover(gens, [(delta, delta.cycle()[:2])], boundary, area2, label)
        assert str(info.value) == "tile-shape: delta({1,2};1,2) has fewer than 3 vertices"
        with pytest.raises(TilingError) as info:
            check_planar_cover(gens, [(delta, delta.cycle()[::-1])], boundary, area2, label)
        assert info.value.detail == (
            "delta({1,2};1,2) is not strictly convex and counterclockwise at vertex index 0"
        )
        assert labelled == [delta, delta]

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
            (good, boundary, area2 + 2,
             "area: tile areas sum to 132600/2, region area is 132602/2"),
        ]
        for cycles, bnd, want_area2, text in cases:
            with pytest.raises(TilingError) as info:
                check_planar_cover(gens, cycles, bnd, want_area2, tile_label)
            assert str(info.value) == text
        assert check_planar_cover(gens, good, boundary, area2, tile_label)

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
            got[tile_label(tile)] = str(info.value)
        assert got == want

    def test_from_rhombus_examples(self):
        combi = from_rhombus(minimal_tiling(3))
        assert validate_combi(combi)
        assert len(combi.deltas) == 3 and len(combi.nablas) == 3
        assert spectrum(combi) == interval_collection(3)
        assert is_semi_rhombus(combi)


class TestSpectrum:
    def test_vertex_count(self):
        for n in (2, 3, 4, 5):
            for combi in all_combis(n):
                assert len(combi.vertex_masks()) == n * (n + 1) // 2 + 1

    def test_z1_combi(self):
        combi = Combi(1)
        assert validate_combi(combi)
        assert combi.vertex_masks() == frozenset({0, 1})

    def test_spectra_are_maximal_weak(self):
        for combi in all_combis(4):
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
        with pytest.raises(ValueError):
            from_w_collection(SetFamily(3, [0, M([1])]))

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
        with pytest.raises(ValueError, match="two edges each"):
            from_w_collection(fam, check_input=False)

    def test_unique_and_deterministic_all_n5(self):
        report = enumerate_maximal(hypercube_domain(5), "weak")
        for fam in report.maximal_collections:
            combi = from_w_collection(fam, check_input=False)
            assert spectrum(combi) == fam
            assert from_w_collection(fam, check_input=False) == combi

    def test_assembly_matches_two_step_reference(self):
        for n in range(1, 6):
            for fam in enumerate_maximal(hypercube_domain(n), "weak").maximal_collections:
                combi = from_w_collection(fam)
                deltas, nablas = _reference_triangles(fam.as_set(), n)
                assert combi.deltas == frozenset(deltas)
                assert combi.nablas == frozenset(nablas)
                ref = _reference_combi(fam)
                # `combi` has read its vertex set (the spectrum check), `ref`
                # has not: equality and hashing must not see the difference
                assert combi == ref and hash(combi) == hash(ref)
                cycles = set().union(*(t.cycle() for t in combi.tiles())) if n > 1 else {0, 1}
                assert combi.vertex_masks() == cycles == fam.as_set()
                assert combi.vertex_masks() is combi.vertex_masks()
                ref.vertex_masks()
                assert combi == ref and hash(combi) == hash(ref)

    def test_every_adjacent_pair_is_an_edge(self):
        # X and X+i in the spectrum always join by a vertical edge
        for combi in all_combis(4):
            verts = combi.vertex_masks()
            edges = combi.vertical_edges()
            for x in verts:
                for e in range(1, 5):
                    if not bs.has(x, e) and (x | bs.singleton(e)) in verts:
                        assert (x, x | bs.singleton(e)) in edges

    def test_pair_vertex_alternatives(self):
        # for vertices X+i, X+j one of: X present, X+i+j present, or both on
        # one lens boundary
        for combi in all_combis(4):
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
    # the lens totals are those the girdle peeling (`_peel_lenses`) found
    fams = enumerate_maximal(hypercube_domain(n), "weak").maximal_collections
    assert len(fams) == collections
    assert sum(len(from_w_collection(fam, check_input=False).lenses) for fam in fams) == lenses


class TestGirdles:
    def test_lens_levels_constant(self):
        for combi in all_combis(5):
            for lens in combi.lenses:
                sizes = {bs.size(v) for v in lens.upper} | {bs.size(v) for v in lens.lower}
                assert len(sizes) == 1

    def test_girdle_spans_boundary_to_boundary(self):
        # the chained nabla bases of each level run from the left-boundary
        # vertex [1..h] to the right-boundary vertex [(n-h+1)..n]
        n = 4
        for combi in all_combis(n):
            for level in range(1, n):
                bases = sorted(v.base for v in combi.nablas if bs.size(v.left) == level)
                succ = dict(bases)
                start = bs.interval_mask(1, level)
                end = bs.interval_mask(n - level + 1, n)
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


class TestAdjacentClassification:
    def test_two_nablas(self):
        combi = from_rhombus(minimal_tiling(3))
        # around {2} both bases climb then descend in type: the nabla pair
        verdict = adjacent_h_classify(combi, (M([1]), M([2])), (M([2]), M([3])))
        assert verdict == "two-nablas"

    def test_two_deltas(self):
        combi = from_w_collection(cointerval_collection(3), check_input=False)
        # deltas over apexes {1,2,3} share the middle vertex {1,3}
        verdict = adjacent_h_classify(combi, (M([1, 2]), M([1, 3])), (M([1, 3]), M([2, 3])))
        assert verdict == "two-deltas"

    def test_lens_lower(self):
        for combi in all_combis(4):
            for lens in combi.lenses:
                if len(lens.lower) >= 3:
                    e1 = (lens.lower[0], lens.lower[1])
                    e2 = (lens.lower[1], lens.lower[2])
                    assert adjacent_h_classify(combi, e1, e2) == "lens-lower"
                if len(lens.upper) >= 3:
                    e1 = (lens.upper[0], lens.upper[1])
                    e2 = (lens.upper[1], lens.upper[2])
                    assert adjacent_h_classify(combi, e1, e2) == "lens-upper"

    def test_pattern_mismatch_rejected(self):
        combi = from_rhombus(minimal_tiling(3))
        with pytest.raises(ValueError):
            adjacent_h_classify(combi, (M([1]), M([2])), (M([3]), M([2])))


def _reference_fan_targets(combi, bottom):
    """The left-to-right base path of the nabla fan at a vertex, as
    `split_quasi` chained it before the index existed."""
    fan = [v for v in combi.nablas if v.bottom == bottom]
    by_left = {v.left: v for v in fan}
    rights = {v.right for v in fan}
    starts = [v.left for v in fan if v.left not in rights]
    if len(starts) != 1:
        raise TilingError("sector", "upper fan does not form a single chain")
    path = [starts[0]]
    while path[-1] in by_left:
        path.append(by_left[path[-1]].right)
    return tuple(path)


def _reference_fan_sources(combi, apex):
    fan = [d for d in combi.deltas if d.apex == apex]
    by_left = {d.left: d for d in fan}
    rights = {d.right for d in fan}
    starts = [d.left for d in fan if d.left not in rights]
    if len(starts) != 1:
        raise TilingError("sector", "lower fan does not form a single chain")
    path = [starts[0]]
    while path[-1] in by_left:
        path.append(by_left[path[-1]].right)
    return tuple(path)


def _reference_lens_scan(combi, edge, side):
    """Every lens with the edge on that boundary, by a scan of all lenses."""
    a, b = edge
    hosts = []
    for lens in combi.lenses:
        path = lens.upper if side == "upper" else lens.lower
        for p in range(len(path) - 1):
            if path[p] == a and path[p + 1] == b:
                hosts.append(lens)
    return hosts


# A weak collection at n=5 whose delta fan at {1,3,4,5} has three deltas,
# with a W-configuration in the middle of that fan and a legal path that
# peaks there.
_FAN5 = [
    [], [1], [1, 2], [1, 3], [1, 2, 3], [1, 3, 4], [1, 2, 3, 4], [5], [1, 5], [1, 3, 5],
    [4, 5], [1, 4, 5], [3, 4, 5], [1, 3, 4, 5], [2, 3, 4, 5], [1, 2, 3, 4, 5],
]


class TestIncidenceIndex:
    def test_fans_match_reference_scans(self):
        for n in range(1, 6):
            for combi in all_combis(n):
                bottoms = {v.bottom for v in combi.nablas}
                apexes = {d.apex for d in combi.deltas}
                for x in combi.vertex_masks():
                    want = _reference_fan_targets(combi, x) if x in bottoms else ()
                    assert combi.nabla_fan(x) == want
                    want = _reference_fan_sources(combi, x) if x in apexes else ()
                    assert combi.delta_fan(x) == want

    def test_lens_on_matches_full_scan(self):
        for n in range(1, 6):
            for combi in all_combis(n):
                lens_edges = set()
                for lens in combi.lenses:
                    for side, path in (("upper", lens.upper), ("lower", lens.lower)):
                        for e in zip(path, path[1:]):
                            lens_edges.add((side, e))
                            assert [combi.lens_on(e, side)] == _reference_lens_scan(combi, e, side)
                for side in ("upper", "lower"):
                    for e in combi.horizontal_edges() | combi.vertical_edges():
                        if (side, e) not in lens_edges:
                            assert _reference_lens_scan(combi, e, side) == []
                            assert combi.lens_on(e, side) is None

    def test_index_is_not_part_of_equality(self):
        combi = from_w_collection(SetFamily(5, [M(s) for s in _FAN5]))
        fresh = Combi(5, combi.deltas, combi.nablas, combi.lenses)
        combi.delta_fan(M([1, 3, 4, 5]))
        combi.lens_on((M([1]), M([2])), "lower")
        assert combi == fresh and hash(combi) == hash(fresh)

    def test_cached_edges_match_tile_cycles(self):
        for n in range(1, 6):
            table = embedding_table(default_generators(n))
            for combi in all_combis(n):
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
        fan = combi.delta_fan(mid)
        assert fan == (M([1, 3, 4]), M([1, 3, 5]), M([1, 4, 5]), M([3, 4, 5]))
        middle = Delta.on_base(mid, fan[1], fan[2])
        broken = Combi(5, combi.deltas - {middle}, combi.nablas, combi.lenses)
        with pytest.raises(TilingError) as info:
            broken.delta_fan(mid)
        assert info.value.axiom == "fan"
        (w,) = [w for w in find_w_configs(broken) if w.middle == mid]
        with pytest.raises(TilingError) as info:
            lowering_flip(broken, w, validate=False)
        assert info.value.axiom == "fan"
        path = tuple(
            M(s)
            for s in ([], [1], [1, 2], [1, 2, 3], [1, 2, 3, 4], [1, 3, 4], [1, 3, 4, 5],
                      [3, 4, 5], [2, 3, 4, 5], [1, 2, 3, 4, 5])
        )
        with pytest.raises(TilingError) as info:
            n_expand(broken, path)
        assert info.value.axiom == "fan"

    def test_fan_that_is_not_one_path_raises(self):
        # at {}: two bases leaving {1}, then two separate stretches
        for nablas, text in (
            ([Nabla(0, 1, 2), Nabla(0, 1, 3)], "fan: nabla fan at {} has duplicate left vertices"),
            ([Nabla(0, 1, 2), Nabla(0, 3, 4)], "fan: nabla fan at {} does not start at one vertex"),
        ):
            with pytest.raises(TilingError) as info:
                Combi(4, nablas=nablas).nabla_fan(0)
            assert str(info.value) == text
        assert Combi(3, nablas=[Nabla(0, 2, 3), Nabla(0, 1, 2)]).nabla_fan(0) == (
            M([1]), M([2]), M([3])
        )

    def test_shared_lens_edge_raises(self):
        lower = (M([1, 2]), M([1, 5]), M([2, 5]))
        first = Lens((M([1, 2]), M([2, 3]), M([2, 5])), lower)
        second = Lens((M([1, 2]), M([2, 4]), M([2, 5])), lower)
        combi = Combi(5, lenses=[first, second])
        with pytest.raises(TilingError) as info:
            combi.lens_on((M([1, 2]), M([1, 5])), "lower")
        assert str(info.value) == "lens: two lenses have {1,2}-{1,5} on their lower boundary"
        assert combi.lens_on((M([1, 2]), M([2, 3])), "upper") == first
        assert combi.lens_on((M([1, 2]), M([2, 4])), "upper") == second
        with pytest.raises(ValueError):
            combi.lens_on((M([1, 2]), M([2, 3])), "left")

    def test_on_base(self):
        for combi in all_combis(4):
            for d in combi.deltas:
                assert Delta.on_base(d.apex, d.left, d.right) == d
            for v in combi.nablas:
                assert Nabla.on_base(v.bottom, v.left, v.right) == v
        with pytest.raises(ValueError, match=r"\{1,2\}-\{2\} is not the base of a delta at \{1,2,3\}"):
            Delta.on_base(M([1, 2, 3]), M([1, 2]), M([2]))
        with pytest.raises(ValueError):
            Delta.on_base(M([1, 2, 3]), M([2, 3]), M([1, 2]))
        with pytest.raises(ValueError, match=r"\{1\}-\{2,3\} is not the base of a nabla at \{\}"):
            Nabla.on_base(0, M([1]), M([2, 3]))
        with pytest.raises(ValueError):
            Nabla.on_base(M([1]), M([1, 2]), M([1]))


def test_range_check_names_a_tile_independent_of_order():
    # the same tiles given in two orders, on a ground set one too small,
    # name the same out-of-range tile
    for combi in all_combis(5):
        d, v, l = sorted(combi.deltas), sorted(combi.nablas), sorted(combi.lenses)
        texts = []
        for order in (1, -1):
            with pytest.raises(ValueError) as info:
                Combi(4, d[::order], v[::order], l[::order])
            texts.append(str(info.value))
        assert texts[0] == texts[1]
