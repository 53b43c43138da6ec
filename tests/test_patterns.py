import random

import pytest

from zonotile import bitsets as bs
from zonotile import patterns, separation
from zonotile._planar import TilingError
from zonotile.combi import from_rhombus, from_w_collection, spectrum, validate_combi
from zonotile.flips import flip_graph, interval_combi
from zonotile.geometry import Generators, default_generators, embedding_table, point_in_closed_polyline
from zonotile.patterns import (
    CyclicPattern,
    QuasiCombi,
    boundary_pattern,
    classify_pattern,
    curve_kind,
    domains,
    graph_pattern,
    graph_pattern_domains,
    grassmann_necklace,
    interval_necklace,
    merge_repair,
    pattern_faces,
    regions,
    split_quasi,
    strong_domains,
    verify_complementary,
    verify_face_domains,
)
from zonotile.rhombus import minimal_tiling
from zonotile.separation import (
    Permutation,
    ResourceGuardError,
    SetFamily,
    enumerate_maximal,
    hypercube_domain,
    inversions,
    purity_verdict,
)
from zonotile.suite import (
    all_combis,
    crossing_pattern_examples,
    sample_cycle,
)

import oracles

M = bs.mask_of


def _all_steps(n):
    """Every ordered 2-distance equal-size step and every ordered 1-distance
    step on {1..n}."""
    twos, ones = [], []
    for a in range(1 << n):
        for e in range(n):
            ones.append((a, a ^ 1 << e))
            for f in range(n):
                if a >> e & 1 and not a >> f & 1:
                    twos.append((a, a ^ 1 << e ^ 1 << f))
    return twos, ones


class TestClassification:
    def test_boundary_cycle_simple(self):
        for n in (2, 3, 4, 5):
            assert classify_pattern(boundary_pattern(n)) == "simple"
            assert curve_kind(boundary_pattern(n)) == "simple"

    def test_canonical_names_rotations_and_reflections(self):
        cyc = boundary_pattern(4).cycle
        forms = {CyclicPattern(4, seq[r:] + seq[:r]).canonical() for seq in (cyc, cyc[::-1]) for r in range(8)}
        assert forms == {(0, M([1]), M([1, 2]), M([1, 2, 3]), M([1, 2, 3, 4]), M([2, 3, 4]), M([3, 4]), M([4]))}

    def test_curve_test_cross_checks_the_quadruple_conditions(self, monkeypatch):
        monkeypatch.setattr(patterns, "curve_kind", lambda pattern: "crossing")
        with pytest.raises(TilingError, match="quadruple conditions disagree"):
            classify_pattern(boundary_pattern(3))

    def test_constructed_violators_cross(self):
        # in every rotation, so each step is the closing one in turn
        for pat in crossing_pattern_examples(4):
            for r in range(len(pat.cycle)):
                turned = CyclicPattern(4, pat.cycle[r:] + pat.cycle[:r])
                assert classify_pattern(turned) == "self_crossing"
                assert curve_kind(turned) == "crossing"

    def test_spanning_condition_on_the_union_side(self):
        # the 1-distance step {1,3}-{1,2,3} reaches the union of the
        # 2-distance step {2,3}-{1,2}, and its type 2 lies between 1 and 3
        two, one = (M([2, 3]), M([1, 2])), (M([1, 2, 3]), M([1, 3]))
        assert two[0] & two[1] != one[1]
        assert oracles.violates_c4(two, one)
        assert patterns._quadruple_violation([two], [one]) is not None
        assert not patterns._climbs(two, one)
        pat = CyclicPattern(3, (*two, *one))
        assert classify_pattern(pat) == "self_crossing"
        assert curve_kind(pat) == "crossing"

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_quadruple_conditions_match_two_sided_reference(self, n):
        # each union-side condition is the intersection side on complements
        twos, ones = _all_steps(n)
        violation = patterns._quadruple_violation
        fired = [0, 0]
        for p in twos:
            for q in twos:
                if p != q:
                    want = oracles.violates_c3(p, q)
                    assert (violation([p, q], []) is not None) == want, (p, q)
                    fired[0] += want
            for one in ones:
                want = oracles.violates_c4(p, one)
                assert (violation([p], [one]) is not None) == want, (p, one)
                fired[1] += want
        # interleaving needs four elements, and climbing three
        assert [c > 0 for c in fired] == [n >= 4, n >= 3]

    def test_crossing_at_a_touch_point(self):
        # no two segments cross, but the curve meets itself at {1} and its
        # two visits there leave in interleaved directions; and a curve
        # that runs back along its own segment {}-{1}
        for cyc in ((M([1]), 0, M([3]), M([1]), M([1, 2]), M([2])), (0, M([1]), 0, M([3]), M([2]))):
            pat = CyclicPattern(3, cyc)
            assert curve_kind(pat) == "crossing"
            assert classify_pattern(pat) == "self_crossing"

    def test_semi_simple_touching(self):
        # diamond traversed as a figure made of two loops touching at {1}
        cyc = (
            0,
            M([1]),
            M([1, 2]),
            M([1, 2, 3]),
            M([1, 3]),
            M([1]),
            M([1, 4]),
            M([4]),
        )
        pat = CyclicPattern(4, cyc)
        assert classify_pattern(pat) == "semi_simple"
        assert curve_kind(pat) == "touching"
        # two loops through {2,3}, one of them between the other's two
        # directions there
        pat = CyclicPattern(3, (M([2, 3]), M([1, 2, 3]), M([1, 2]), M([2, 3]), M([2]), M([3])))
        assert curve_kind(pat) == "touching"

    def test_three_visits_to_one_point(self):
        # three loops through {2,3}; the touch-point test pairs each visit's
        # two directions there, so it must tell the three visits apart.
        # Each loop run the other way round interleaves the pairs.
        x = M([2, 3])
        touching = (x, M([3]), M([2]), x, M([1, 2]), M([1, 2, 3]), x, M([2, 3, 4]), M([3, 4]))
        crossing = (x, M([2]), M([3]), x, M([1, 2, 3]), M([1, 2]), x, M([3, 4]), M([2, 3, 4]))
        for cyc, want in ((touching, ("touching", "semi_simple")),
                          (crossing, ("crossing", "self_crossing"))):
            pat = CyclicPattern(4, cyc)
            assert (curve_kind(pat), classify_pattern(pat)) == want

    def test_steps_validated(self):
        with pytest.raises(ValueError):
            CyclicPattern(3, (0, M([1, 2]), M([1])))
        # the closing step is a step too
        with pytest.raises(ValueError, match=r"illegal step \{2,3\} -> \{\}"):
            CyclicPattern(3, (0, M([1]), M([1, 2]), M([2, 3])))
        for short in ((0, M([1])), (0, M([1]), 0)):
            with pytest.raises(ValueError, match="at least three sets"):
                CyclicPattern(3, short)

    def test_first_bad_member_named_before_any_step(self):
        # each raise as `check_subset` words it, at the first bad member in
        # cycle order, though the step {} -> {1,2} is illegal too
        for cyc, error, text in (
            ((0, M([1, 2]), 1.5), TypeError, "unsupported operand type(s) for &: 'float' and 'int'"),
            ((0, M([1, 2]), -1, 8), ValueError, "mask -0x1 has elements outside 1..3"),
            ((0, M([1, 2]), 8, -1), ValueError, "mask 0x8 has elements outside 1..3"),
            (
                (frozenset(), frozenset({1, 2}), frozenset({1})),
                TypeError,
                "'<' not supported between instances of 'frozenset' and 'int'",
            ),
        ):
            with pytest.raises(error) as info:
                CyclicPattern(3, cyc)
            assert str(info.value) == text
        assert CyclicPattern(3, (True, M([1, 2]), M([2]))).cycle == (1, 3, 2)

    def test_weak_separation_required(self):
        with pytest.raises(ValueError):
            classify_pattern(CyclicPattern(4, (M([2]), M([1, 3]), M([1, 2, 3]), M([1, 2]))))

    def test_class_worked_out_once_per_pattern(self, monkeypatch):
        calls = []

        def counted(pattern):
            calls.append(pattern)
            return curve_kind(pattern)

        monkeypatch.setattr(patterns, "curve_kind", counted)
        pat = boundary_pattern(3)
        assert classify_pattern(pat) == classify_pattern(pat) == "simple"
        regions(pat)
        split_quasi(all_combis(3)[0], pat)
        assert calls == [pat]
        # the kept class is no field: a fresh equal pattern is equal and
        # hashes equal, also given with its first set repeated at the end
        for twin in (CyclicPattern(3, pat.cycle), CyclicPattern(3, pat.cycle + pat.cycle[:1])):
            assert twin == pat and hash(twin) == hash(pat)
        # a failed classification is not kept
        bad = CyclicPattern(4, (M([1]), M([2]), M([2, 3]), M([1, 3])))
        for _ in range(2):
            with pytest.raises(ValueError, match="pairwise weakly separated"):
                classify_pattern(bad)
        assert calls == [pat]

    def test_sampled_simple_patterns_never_cross(self):
        rng = random.Random(5)
        pool = all_combis(4)
        found = 0
        while found < 60:
            pat = oracles.sample_pattern(rng.choice(pool), rng, False)
            if pat is None:
                continue
            assert classify_pattern(pat) == "simple"
            found += 1

    def test_quadruples_match_curve_on_samples(self):
        rng = random.Random(6)
        pool = all_combis(4)
        found = 0
        while found < 60:
            pat = oracles.sample_pattern(rng.choice(pool), rng, True)
            if pat is None:
                continue
            # classification raises if the combinatorial and geometric
            # verdicts ever disagree
            assert classify_pattern(pat) in ("simple", "generalized_ok")
            found += 1


class TestRegionsAndDomains:
    def test_members_are_on_curve(self):
        pat = boundary_pattern(3)
        reg = regions(pat)
        for v in pat.cycle:
            assert reg.locate(v) == "on"

    def test_boundary_pattern_domains(self):
        inner, outer = domains(boundary_pattern(3))
        assert len(inner) == 8
        assert set(outer.members) == set(boundary_pattern(3).cycle)

    def test_empty_outside_boundary(self):
        # the bottom vertex is on the boundary of the zonogon, hence outside
        # any pattern that avoids it
        vert = all_combis(3)[0].vertical_edges()
        cyc = sample_cycle({e for e in vert if 0 not in e}, random.Random(3))
        if cyc is not None:
            reg = regions(CyclicPattern(3, cyc))
            assert reg.locate(0) == "outside"

    def test_domain_split_covers_compatible_sets(self):
        pat = boundary_pattern(4)
        inner, outer = domains(pat)
        compat = separation.compatible_sets(pat.cycle, 4, "weak")
        assert set(inner.members) | set(outer.members) == set(compat)
        for v in pat.cycle:
            assert v in set(inner.members) and v in set(outer.members)

    def test_region_generator_independence(self):
        # inside, on and outside are combinatorial: two other generator sets
        # locate every compatible set as the default generators do
        others = [Generators(4, oracles.fraction_generators(4, shift)) for shift in (1, 2)]
        assert len({g.vectors for g in others} | {default_generators(4).vectors}) == 3
        cycle = sample_cycle(interval_combi(4).vertical_edges(), random.Random(1))
        for pat in (boundary_pattern(4), CyclicPattern(4, cycle)):
            compat = separation.compatible_sets(pat.cycle, 4, "weak")
            reg = regions(pat)
            baseline = [reg.locate(x) for x in compat]
            for gens in others:
                table = embedding_table(gens)
                curve = [table[v] for v in pat.cycle]
                assert [point_in_closed_polyline(table[x], curve) for x in compat] == baseline
        assert set(baseline) == {"inside", "on", "outside"}


class TestComplementaryPairs:
    def test_exhaustive_small(self):
        rng = random.Random(0)
        for combi in all_combis(3):
            vert, horiz = combi.vertical_edges(), combi.horizontal_edges()
            for _ in range(20):
                cyc = sample_cycle(vert | horiz, rng)
                if cyc is None:
                    continue
                pat = CyclicPattern(3, cyc)
                if classify_pattern(pat) == "self_crossing":
                    continue
                inner, outer = domains(pat)
                assert verify_complementary(inner, outer)
                assert purity_verdict(inner, "weak").pure and purity_verdict(outer, "weak").pure

    def test_complementary_check_builds_the_smaller_domains_rows(self, monkeypatch):
        rows, memo = [], separation._rows

        class Reads(dict):
            """A row memo that misses on every read, so records each, then reads the real one."""

            def __init__(self, n, relation):
                self.memo = memo(n, relation)

            def __missing__(self, a):
                rows.append(a)
                return self.memo[a]

        monkeypatch.setattr(separation, "_rows", Reads)
        inner, outer = domains(boundary_pattern(5))
        assert (len(inner), len(outer)) == (32, 10)
        # {1,3} and {2} are not weakly separated, in either order
        apart = SetFamily(3, [M([1, 3])]), SetFamily(3, [0, M([2])])
        for first, second, verdict in [(inner, outer, True), (*apart, False)]:
            for pair in ((first, second), (second, first)):
                rows.clear()
                assert verify_complementary(*pair) is verdict
                assert sorted(rows) == sorted(min(first, second, key=len).members)

    def test_guard_bounds_the_clique_search_not_the_domain_scan(self, monkeypatch):
        # a domain is one linear scan under either relation; the
        # exponential work is the clique search, and only that is guarded
        report = enumerate_maximal(hypercube_domain(4), "weak")
        monkeypatch.setenv("ZONOTILE_MAX_N", "3")
        pat = boundary_pattern(4)
        for scan in (domains, strong_domains):
            inner, outer = scan(pat)
            assert (len(inner), len(outer)) == (16, 8)
        assert len(flip_graph(4, report).nodes) == 10
        with pytest.raises(ResourceGuardError) as info:
            purity_verdict(hypercube_domain(4), "weak")
        assert str(info.value) == "domain has 16 members, enumeration guard is 8"
        assert strong_domains(boundary_pattern(3)) == domains(boundary_pattern(3), "strong")


class TestSplitMerge:
    def test_split_partitions_when_no_cuts(self):
        # the halves meet in the curve and hold every vertex between them
        combi = from_rhombus(minimal_tiling(4))
        cyc = sample_cycle(combi.vertical_edges(), random.Random(2))
        inner, outer = split_quasi(combi, CyclicPattern(4, cyc))
        assert (inner.region, outer.region) == ("in", "out")
        assert inner.vertices & outer.vertices == set(cyc)
        assert inner.vertices | outer.vertices == combi.vertex_masks()

    def test_central_chord_split(self):
        target = None
        for combi in all_combis(4):
            for lens in combi.lenses:
                cyc = [lens.left, lens.right] + list(reversed(lens.upper))[1:-1]
                pat = CyclicPattern(4, cyc)
                if classify_pattern(pat) != "self_crossing":
                    target = (combi, lens, pat)
                    break
            if target:
                break
        assert target is not None
        combi, lens, pat = target
        # the curve closes the lens's central chord over its upper path,
        # and no vertex lies inside a lens
        inner, outer = split_quasi(combi, pat)
        assert inner.vertices == set(lens.upper)
        assert outer.vertices == combi.vertex_masks()
        assert merge_repair(inner, outer) == combi

    def test_self_merge_preserves_spectrum(self):
        rng = random.Random(9)
        pools = all_combis(4)
        done = 0
        while done < 25:
            combi = rng.choice(pools)
            pat = oracles.sample_pattern(combi, rng, True)
            if pat is None or classify_pattern(pat) == "self_crossing":
                continue
            inner, outer = split_quasi(combi, pat)
            assert inner.vertices & outer.vertices == set(pat.cycle)
            assert inner.vertices | outer.vertices == combi.vertex_masks()
            assert merge_repair(inner, outer) == combi
            done += 1

    def test_split_rejects_bad_patterns(self):
        combi = interval_combi(4)
        with pytest.raises(ValueError, match="self-crossing pattern does not bound regions"):
            split_quasi(combi, crossing_pattern_examples(4)[0])
        # {1,3} is no interval, so no vertex of the interval combi
        square = CyclicPattern(4, (0, M([1]), M([1, 3]), M([3])))
        with pytest.raises(ValueError, match="pattern members must be vertices of the combi"):
            split_quasi(combi, square)

    def test_halves_fill_their_domains(self):
        # the paper's statement behind the exchange: a combi holding the
        # pattern splits into a maximal collection of each closed domain
        rng = random.Random(4)
        halves = 0
        for n in (4, 5):
            combis = all_combis(n)
            for _ in range(6):
                pat = oracles.sample_pattern(rng.choice(combis), rng, True)
                if pat is None or classify_pattern(pat) == "self_crossing":
                    continue
                doms = domains(pat)
                ranks = [purity_verdict(dom, "weak").ranks for dom in doms]
                for combi in combis:
                    if set(pat.cycle) <= combi.vertex_masks():
                        for half, dom, rank in zip(split_quasi(combi, pat), doms, ranks):
                            assert half.vertices <= dom.as_set()
                            assert rank == (len(half.vertices),)
                            halves += 1
        assert halves == 490

    def test_semi_simple_exchange_and_domains(self):
        # the touching figure from the classification test, run through the
        # whole pipeline: split, merge, cross-exchange, domain purity
        cyc = (0, M([1]), M([1, 2]), M([1, 2, 3]), M([1, 3]), M([1]), M([1, 4]), M([4]))
        pat = CyclicPattern(4, cyc)
        assert classify_pattern(pat) == "semi_simple"
        hosts = [k for k in all_combis(4) if set(cyc) <= k.vertex_masks()]
        assert len(hosts) >= 2
        for combi in hosts:
            inner, outer = split_quasi(combi, pat)
            assert spectrum(merge_repair(inner, outer)) == spectrum(combi)
        qa, _ = split_quasi(hosts[0], pat)
        _, qb = split_quasi(hosts[1], pat)
        merged = merge_repair(qa, qb)
        assert qa.vertices | qb.vertices == merged.vertex_masks()
        din, dout = domains(pat)
        assert verify_complementary(din, dout)
        assert purity_verdict(din, "weak").pure and purity_verdict(dout, "weak").pure

    def test_merge_rejects_mismatched_halves(self):
        combi = from_rhombus(minimal_tiling(4))
        inner, _ = split_quasi(combi, boundary_pattern(4))
        cyc = sample_cycle(combi.vertical_edges(), random.Random(2))
        _, other = split_quasi(combi, CyclicPattern(4, cyc))
        _, small = split_quasi(from_rhombus(minimal_tiling(3)), boundary_pattern(3))
        for a, b, text in (
            (inner, small, "different ground sets"),
            (inner, other, "different patterns"),
            (inner, inner, "one inside half and one outside half"),
        ):
            with pytest.raises(ValueError, match=text):
                merge_repair(a, b)

    def test_merge_certifies_the_union(self):
        # the inside half here is the top corner rhombus; without the top
        # vertex in either half, the union is no combi's spectrum
        combi = from_rhombus(minimal_tiling(4))
        inner, outer = split_quasi(combi, CyclicPattern(4, (6, 14, 15, 7)))
        assert spectrum(merge_repair(inner, outer)) == spectrum(combi)
        top = {bs.full_mask(4)}
        with pytest.raises(TilingError) as info:
            merge_repair(*(QuasiCombi(h.n, h.region, h.pattern, h.vertices - top) for h in (inner, outer)))
        assert info.value.axiom == "edge-sharing"
        # {1}, {2}, {3} over the non-member {} whose end-union {1,3} is a
        # member: an upper path with no lower path, which makes no lens
        halves = QuasiCombi(3, "in", (1, 3, 2), frozenset({1, 2})), QuasiCombi(3, "out", (1, 3, 2), frozenset({4, 5}))
        with pytest.raises(TilingError) as info:
            merge_repair(*halves)
        assert str(info.value) == "lens: upper path over {}: lens boundaries need at least two edges each"

    # Curves through lenses and fans that the sampled exchanges rarely
    # reach: each case splits combi a and combi b along the cycle and
    # merges inside(a) with outside(b).
    @pytest.mark.parametrize(
        "n, spec_a, spec_b, cycle",
        [
            (
                5,
                {0, 1, 3, 5, 7, 13, 14, 15, 16, 17, 21, 24, 25, 28, 30, 31},
                {0, 1, 3, 7, 9, 11, 13, 15, 16, 17, 24, 25, 28, 29, 30, 31},
                (16, 24, 28, 30, 31, 15, 13, 25, 17),
            ),
            (
                5,
                {0, 1, 3, 7, 14, 15, 16, 17, 19, 21, 22, 24, 25, 28, 30, 31},
                {0, 1, 3, 7, 13, 14, 15, 16, 17, 19, 20, 21, 24, 28, 30, 31},
                (24, 17, 19, 21, 28),
            ),
            (
                5,
                {0, 1, 3, 7, 10, 11, 15, 16, 17, 18, 24, 26, 27, 28, 30, 31},
                {0, 1, 3, 6, 7, 10, 12, 14, 15, 16, 17, 18, 24, 28, 30, 31},
                (17, 16, 1, 3, 10, 18),
            ),
            (
                4,
                {0, 1, 3, 4, 5, 6, 7, 8, 12, 14, 15},
                {0, 1, 2, 3, 4, 6, 7, 8, 12, 14, 15},
                (8, 1, 4),
            ),
            (
                4,
                {0, 1, 3, 4, 5, 7, 8, 12, 13, 14, 15},
                {0, 1, 3, 7, 8, 9, 11, 12, 13, 14, 15},
                (14, 7, 13),
            ),
        ],
        ids=[
            "lens-reclosed",
            "lens-absorbs-lower",
            "lens-absorbs-upper",
            "upper-absorbs-upper",
            "lower-absorbs-lower",
        ],
    )
    def test_seam_witnesses(self, n, spec_a, spec_b, cycle):
        a = from_w_collection(SetFamily(n, spec_a))
        b = from_w_collection(SetFamily(n, spec_b))
        pat = CyclicPattern(n, cycle)
        inner, _ = split_quasi(a, pat)
        _, outer = split_quasi(b, pat)
        merged = merge_repair(inner, outer)
        validate_combi(merged)
        assert inner.vertices | outer.vertices == merged.vertex_masks()


class TestGraphPatterns:
    def test_single_cycle_reduces_to_domains(self):
        pat = boundary_pattern(3)
        hp = graph_pattern(3, set(pat.cycle), list(zip(pat.cycle, pat.cycle[1:] + pat.cycle[:1])))
        doms = graph_pattern_domains(hp)
        assert len(doms) == 1
        inner, _ = domains(pat)
        assert set(doms[0][1].members) == set(inner.members)

    def test_chamber_pair_example(self):
        def chain(perm, n):
            inv = {perm(i): i for i in range(1, n + 1)}
            sets, m = [0], 0
            for i in range(1, n + 1):
                m |= bs.singleton(inv[i])
                sets.append(m)
            return sets

        low = Permutation((1, 3, 2, 4))
        high = Permutation((4, 2, 1, 3))
        assert inversions(low) <= inversions(high)
        c1, c2 = chain(low, 4), chain(high, 4)
        edges = list(zip(c1, c1[1:])) + list(zip(c2, c2[1:]))
        hp = graph_pattern(4, set(c1) | set(c2), edges)
        assert verify_face_domains(hp)
        from zonotile.separation import chamber_pair_domain

        target = set(chamber_pair_domain(low, high).members)
        assert any(set(fam.members) == target for _, fam in graph_pattern_domains(hp))

    def test_crossing_edges_rejected(self):
        with pytest.raises(ValueError, match="violate the interleaving condition"):
            graph_pattern(
                4,
                {M([1]), M([3]), M([2]), M([4])},
                [(M([1]), M([3])), (M([2]), M([4]))],
            )
        # the 1-distance edge climbs by 2 from {3}, the intersection of the
        # edge {1,3}-{3,4}, whose traded elements are 1 and 4
        with pytest.raises(ValueError, match="violate the spanning condition"):
            graph_pattern(4, {M([1, 3]), M([3, 4]), M([3]), M([2, 3])}, [(M([1, 3]), M([3, 4])), (M([3]), M([2, 3]))])

    def test_plane_crossing_check_backs_the_quadruple_conditions(self, monkeypatch):
        # the quadruple conditions rule out every crossing pair; let one
        # through, the 1-distance edge {}-{2} and the 2-distance edge
        # {1}-{3} it meets, and the exact segment test still rejects it
        monkeypatch.setattr(patterns, "_quadruple_violation", lambda twos, ones: None)
        with pytest.raises(ValueError) as info:
            graph_pattern(3, {M([2])}, [(0, M([2])), (M([1]), M([3]))])
        assert str(info.value) == "edges (0, 2) and (1, 4) cross in the plane"

    def test_bad_graph_patterns_rejected(self):
        two, twothree = M([2]), M([2, 3])
        for vertices, edges, text in (
            ({M([1]), two, twothree, M([1, 3])}, [], "weakly separated family"),
            ({two}, [(two, twothree)], "join two distinct pattern vertices"),
            ({two}, [(two, two)], "join two distinct pattern vertices"),
            ({two}, [(two, M([2, 3, 4]))], "1- or 2-distance pairs"),
        ):
            with pytest.raises(ValueError, match=text):
                graph_pattern(4, vertices, edges)

    def test_face_domains_verdict_reads_complementarity(self, monkeypatch):
        hp = graph_pattern(3, set(), [])
        assert verify_face_domains(hp)
        hp = graph_pattern(4, {M([2]), M([2, 3]), M([3])}, [(M([2]), M([2, 3])), (M([2, 3]), M([3])), (M([3]), M([2]))])
        assert verify_face_domains(hp)
        monkeypatch.setattr(patterns, "verify_complementary", lambda a, b: False)
        assert not verify_face_domains(hp)

    def test_face_domains_match_nested_rescan_on_holes(self):
        # a tile of a combi with no vertex on the zonogon's boundary, drawn
        # with the boundary, leaves a hole in the outer face.  The reference
        # states the two bounded faces from the construction, the zonogon
        # and the tile, and gives a face each set on it or strictly inside
        # it, but not strictly inside the smaller face
        def rescan(n, cyc):
            pts = oracles.points(n)
            zonogon = [u for u, _ in oracles.zonogon(n)[1]]
            corners = [pts[v] for v in cyc]
            tile2 = abs(sum(a[0] * b[1] - a[1] * b[0] for a, b in zip(corners, corners[1:] + corners[:1])))
            compatible = [
                x for x in range(1 << n) if all(oracles.weakly_separated(x, v) for v in (*zonogon, *cyc))
            ]

            def where(x, face):
                return oracles.reference_point_location(pts[x], [pts[v] for v in face])

            outer = [
                x for x in compatible
                if where(x, zonogon) == "on" or where(x, zonogon) == "inside" and where(x, cyc) != "inside"
            ]
            inner = [x for x in compatible if where(x, cyc) != "outside"]
            return [(frozenset(zonogon), oracles.zonogon(n)[2], outer), (frozenset(cyc), tile2, inner)]

        def hole(n, cyc):
            pat = graph_pattern(n, cyc, zip(cyc, cyc[1:] + cyc[:1]))
            got = [(face, list(fam.members)) for face, fam in graph_pattern_domains(pat)]
            assert [(frozenset(face.cycle), face.area2, members) for face, members in got] == rescan(n, cyc)
            return got

        # 404 such tiles in the combis of n = 4 and 5, 78 of them distinct
        holes = [
            (n, tile.cycle())
            for n in (4, 5)
            for combi in all_combis(n)
            for tile in combi.tiles()
            if set(boundary_pattern(n).cycle).isdisjoint(tile.cycle())
        ]
        assert (len(holes), len(set(holes))) == (404, 78)
        for n, cyc in sorted(set(holes)):
            hole(n, cyc)
        # no compatible set lies strictly inside a tile; this hole holds
        # {2,4} strictly inside, which only the smaller face takes
        (outer, outer_dom), (inner, inner_dom) = sorted(
            hole(5, (26, 18, 2, 6, 14)), key=lambda fd: -fd[0].area2
        )
        pts = oracles.points(5)
        assert oracles.reference_point_location(pts[M([2, 4])], [pts[v] for v in inner.cycle]) == "inside"
        assert M([2, 4]) in inner_dom and M([2, 4]) not in outer_dom

    def test_face_count_of_boundary_only(self):
        hp = graph_pattern(3, set(), [])
        assert len(pattern_faces(hp)) == 1
        # a lone edge inside is walked around with zero area: no face
        hp = graph_pattern(4, {M([2]), M([2, 3])}, [(M([2]), M([2, 3]))])
        assert len(pattern_faces(hp)) == 1


class TestNecklaces:
    def test_interval_necklace_valid(self):
        for n, m in ((4, 1), (4, 2), (5, 2), (5, 3), (5, 4)):
            seq = interval_necklace(n, m)
            pat, offset = grassmann_necklace(seq, n)
            assert classify_pattern(pat) != "self_crossing"
            assert offset == m

    def test_bad_step_rejected(self):
        seq = (M([1, 2]), M([3, 4]), M([1, 4]), M([1, 2]))
        with pytest.raises(ValueError):
            grassmann_necklace(seq, 4)

    def test_necklace_errors(self):
        for seq, n, text in (
            (interval_necklace(4, 2)[:3], 4, "needs exactly 4 sets"),
            ((M([1, 2]), M([2, 3]), M([3, 4]), M([4])), 4, "share one cardinality"),
            ((M([1, 2]), M([1, 3]), M([3, 4]), M([1, 3])), 4, "necklace pattern is self-crossing"),
            (interval_necklace(4, 2)[::-1], 4, "necklace condition for no offset"),
        ):
            with pytest.raises(ValueError, match=text):
                grassmann_necklace(seq, n)
        for m in (0, 4):
            with pytest.raises(ValueError, match="need 0 < m < n"):
                interval_necklace(4, m)

    def test_necklace_domains_complementary_in_hypersimplex(self):
        n, m = 5, 2
        pat, _ = grassmann_necklace(interval_necklace(n, m), n)
        inner, outer = domains(pat)
        level = [x for x in outer.members if bs.size(x) == m]
        outer_level = SetFamily(n, level)
        assert verify_complementary(inner, outer_level)
        assert purity_verdict(inner, "weak").pure and purity_verdict(outer_level, "weak").pure
