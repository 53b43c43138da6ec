"""Weak flips, the complement and the mirror on combies, set flips, flip graphs.

`zonotile.flips` computes the flips and the complement, and
`zonotile.contraction` the mirror, as rules on vertex sets.  The tile maps
they replace are the references of a differential test, in `oracles.py`.
"""

import random
from itertools import combinations

import pytest

from zonotile import bitsets as bs
from zonotile import flips
from zonotile._planar import TilingError
from zonotile.combi import (
    Combi,
    MConfig,
    Nabla,
    WConfig,
    find_m_configs,
    find_w_configs,
    from_w_collection,
    spectrum,
)
from zonotile.contraction import mirror, n_contract, n_expand
from zonotile.flips import (
    complement_combi,
    descend_to_minimum,
    flip_graph,
    interval_combi,
    lowering_flip,
    raising_flip,
    set_flip,
    set_flip_graph,
)
from zonotile.separation import (
    DomainReport,
    ResourceGuardError,
    SetFamily,
    cointerval_collection,
    enumerate_maximal,
    hypercube_domain,
    interval_collection,
)
from zonotile.suite import all_combis

import oracles

M = bs.mask_of


def _check_against_references(n: int) -> tuple[int, int]:
    """Every flip, the complement and the mirror of every n-combi against the
    tile maps, and each flip against `set_flip`; returns the numbers of W-
    and M-configurations."""
    ws = ms = 0
    for combi in all_combis(n):
        fam = spectrum(combi)
        for w in find_w_configs(combi):
            lowered = lowering_flip(combi, w)
            assert lowered == oracles.reference_lower(combi, w), (combi, w)
            assert spectrum(lowered) == set_flip(fam, w.core, w.i, w.j, w.k, "lower")
            ws += 1
        for m in find_m_configs(combi):
            raised = raising_flip(combi, m)
            assert raised == oracles.reference_raise(combi, m), (combi, m)
            assert spectrum(raised) == set_flip(fam, m.core, m.i, m.j, m.k, "raise")
            ms += 1
        comp = complement_combi(combi)
        assert comp == oracles.reference_complement(combi)
        assert oracles.reference_complement(comp) == combi
        mirrored = mirror(combi)
        assert mirrored == oracles.reference_mirror(combi)
        assert oracles.reference_mirror(mirrored) == combi
    return ws, ms


def test_maps_match_tile_references():
    counts = [_check_against_references(n) for n in range(1, 6)]
    assert counts == [(0, 0), (0, 0), (1, 1), (12, 12), (254, 254)]


@pytest.mark.slow
def test_maps_match_tile_references_at_n6():
    assert _check_against_references(6) == (11328, 11328)


def _weak_count(n: int) -> int:
    def flip(combi, move, direction):
        if direction == "raise":
            return raising_flip(combi, MConfig(*move))
        return lowering_flip(combi, WConfig(*move))

    return oracles.reverse_search_count(
        interval_combi(n),
        lambda c: [(m.core, m.i, m.j, m.k) for m in find_m_configs(c)],
        lambda c: [(w.core, w.i, w.j, w.k) for w in find_w_configs(c)],
        flip,
    )


def test_reverse_search_counts_combis():
    # the stored weak count at n = 5, without the clique search
    assert _weak_count(5) == 124


@pytest.mark.slow
def test_reverse_search_counts_combis_n6():
    assert _weak_count(6) == 3694


def _all_families(n):
    return enumerate_maximal(hypercube_domain(n), "weak").maximal_collections


def test_n3_flip_pair():
    low = interval_combi(3)
    (m,) = find_m_configs(low)
    high = raising_flip(low, m)
    assert spectrum(high) == cointerval_collection(3)
    assert high.size_sum() == low.size_sum() + 1
    assert complement_combi(low) == high
    (w,) = find_w_configs(high)
    assert lowering_flip(high, w) == low


def test_flip_requires_configuration():
    low = interval_combi(3)
    with pytest.raises(ValueError, match="^the requested W-configuration is not present$"):
        lowering_flip(low, WConfig(0, 1, 2, 3))
    high = from_w_collection(cointerval_collection(3), check_input=False)
    with pytest.raises(ValueError, match="^the requested M-configuration is not present$"):
        raising_flip(high, MConfig(0, 1, 2, 3))
    # one triangle of the pair is a tile and the other is not
    sets = ([], [1], [2], [1, 2], [1, 2, 3], [4], [2, 4], [1, 2, 4], [3, 4], [2, 3, 4], [1, 2, 3, 4])
    combi = from_w_collection(SetFamily(4, [M(s) for s in sets]))
    for w in (WConfig(0, 2, 3, 4), WConfig(M([1]), 2, 3, 4)):
        assert (w.left_nabla() in combi.nablas) != (w.right_nabla() in combi.nablas)
        with pytest.raises(ValueError, match="^the requested W-configuration is not present$"):
            lowering_flip(combi, w)
    low = interval_combi(4)
    for m in (MConfig(0, 1, 2, 4), MConfig(0, 1, 3, 4)):
        assert (m.left_delta() in low.deltas) != (m.right_delta() in low.deltas)
        with pytest.raises(ValueError, match="^the requested M-configuration is not present$"):
            raising_flip(low, m)


def test_flips_reject_a_core_holding_a_type():
    # the core is checked after the types and the direction, in every flip,
    # before any witness; set_flip checks its direction last
    for n in (3, 4):
        for combi in all_combis(n):
            fam = spectrum(combi)
            for i, j, k in combinations(range(1, n + 1), 3):
                held = bs.singleton(i) | bs.singleton(j) | bs.singleton(k)
                for core in (c for c in range(1 << n) if c & held):
                    calls = [
                        lambda: lowering_flip(combi, WConfig(core, i, j, k)),
                        lambda: raising_flip(combi, MConfig(core, i, j, k)),
                        lambda: set_flip(fam, core, i, j, k, "raise"),
                        lambda: set_flip(fam, core, i, j, k, "lower"),
                    ]
                    for call in calls:
                        with pytest.raises(ValueError) as info:
                            call()
                        assert str(info.value) == "the core must avoid i, j and k"
    with pytest.raises(ValueError) as info:
        set_flip(interval_collection(3), M([2]), 1, 2, 3, "sideways")
    assert str(info.value) == "the core must avoid i, j and k"
    with pytest.raises(ValueError) as info:
        flips._trade(M([2]), 1, 2, 3, "sideways")
    assert str(info.value) == "direction must be 'raise' or 'lower', got 'sideways'"


def test_every_flip_matches_set_flip_n4():
    for fam in _all_families(4):
        combi = from_w_collection(fam, check_input=False)
        for w in find_w_configs(combi):
            flipped = lowering_flip(combi, w)
            assert spectrum(flipped) == set_flip(fam, w.core, w.i, w.j, w.k, "lower")
            assert flipped.size_sum() == combi.size_sum() - 1
            back = raising_flip(flipped, MConfig(w.core, w.i, w.j, w.k))
            assert back == combi


def test_flips_and_round_trip_on_sampled_n6():
    # beyond the exhaustive n <= 5 checks: 100 of the 3,694 weak collections
    # at n=6, drawn with a fixed seed
    families = _all_families(6)
    assert len(families) == 3694
    flips = 0
    for fam in random.Random(6).sample(families, 100):
        combi = from_w_collection(fam, check_input=False)
        for w in find_w_configs(combi):
            lowered = lowering_flip(combi, w)
            assert spectrum(lowered) == set_flip(fam, w.core, w.i, w.j, w.k, "lower")
            flips += 1
        for m in find_m_configs(combi):
            raised = raising_flip(combi, m)
            assert spectrum(raised) == set_flip(fam, m.core, m.i, m.j, m.k, "raise")
            flips += 1
        assert n_expand(*n_contract(combi)) == combi
    assert flips == 627


def test_flip_feasible_whenever_witnesses_present_n4():
    # statement (10): five members of the right shape always admit the flip
    for fam in _all_families(4):
        combi = from_w_collection(fam, check_input=False)
        mem = fam.as_set()
        ws = {(w.core, w.i, w.j, w.k) for w in find_w_configs(combi)}
        for core in range(16):
            for i in range(1, 5):
                for j in range(i + 1, 5):
                    for k in range(j + 1, 5):
                        trip = bs.mask_of((i, j, k))
                        if core & trip:
                            continue
                        need = [
                            core | bs.singleton(i),
                            core | bs.singleton(k),
                            core | bs.mask_of((i, j)),
                            core | bs.mask_of((j, k)),
                            core | bs.mask_of((i, k)),
                        ]
                        if all(x in mem for x in need):
                            assert (core, i, j, k) in ws


def test_no_lowering_flip_means_intervals_n4():
    for fam in _all_families(4):
        combi = from_w_collection(fam, check_input=False)
        if not find_w_configs(combi):
            assert fam == interval_collection(4)


def test_set_flip_examples():
    fam = interval_collection(3)
    raised = set_flip(fam, 0, 1, 2, 3, "raise")
    assert raised == cointerval_collection(3)
    assert set_flip(raised, 0, 1, 2, 3, "lower") == fam
    both = SetFamily(3, [M([1]), M([2]), M([3]), M([1, 2]), M([1, 3]), M([2, 3])])
    for family, types, direction, text in (
        (fam, (2, 2, 3), "raise", "types must satisfy i < j < k"),
        (fam, (1, 2, 2), "raise", "types must satisfy i < j < k"),
        (fam, (2, 1, 3), "raise", "types must satisfy i < j < k"),
        (SetFamily(3, [M([1]), M([3]), M([1, 3]), M([2, 3])]), (1, 2, 3), "raise",
         "flip witnesses are absent from the family"),
        (both, (1, 2, 3), "raise", "family contains both flip targets; it is not weakly separated"),
        (fam, (1, 2, 3), "sideways", "direction must be 'raise' or 'lower', got 'sideways'"),
        (fam, (1, 2, 3), "lower", "flip source {1,3} not in the family"),
        # two faults: the types are checked first, then the witnesses and
        # both targets, and the direction after them
        (fam, (2, 1, 3), "sideways", "types must satisfy i < j < k"),
        (SetFamily(3, [M([1]), M([3]), M([1, 3]), M([2, 3])]), (1, 2, 3), "sideways",
         "flip witnesses are absent from the family"),
        (both, (1, 2, 3), "sideways", "family contains both flip targets; it is not weakly separated"),
    ):
        with pytest.raises(ValueError) as info:
            set_flip(family, 0, *types, direction)
        assert str(info.value) == text


def test_descend_to_minimum():
    high = from_w_collection(cointerval_collection(3), check_input=False)
    final, trace = descend_to_minimum(high)
    assert len(trace) == 1
    assert spectrum(final) == interval_collection(3)
    for fam in _all_families(4):
        combi = from_w_collection(fam, check_input=False)
        final, trace = descend_to_minimum(combi)
        assert len(trace) == combi.size_sum() - final.size_sum()
        # the least W-configuration goes first
        assert trace[:1] == find_w_configs(combi)[:1]


def test_descent_rejects_a_combi_off_its_tiling():
    # a stray nabla brings in {2}, the vertex the flip adds, so the flip
    # takes the size sum down by 2
    high = from_w_collection(cointerval_collection(3), check_input=False)
    stray = Combi(3, high.deltas, high.nablas | {Nabla(M([2]), 1, 3)}, high.lenses)
    with pytest.raises(TilingError) as info:
        descend_to_minimum(stray)
    assert str(info.value) == "flip: lowering flip did not decrease the size sum by 1"
    # no W-configuration, and not the interval combi
    with pytest.raises(TilingError) as info:
        descend_to_minimum(Combi(3))
    assert str(info.value) == "flip: flip descent did not reach the interval combi"


def test_flip_graph_guard_and_reach_check(monkeypatch):
    graph = flip_graph(5)
    assert (len(graph.nodes), len(graph.arcs)) == (124, 254)
    with pytest.raises(ResourceGuardError) as info:
        flip_graph(6)
    assert str(info.value) == "flip_graph guard: n=6 exceeds 5"
    # a search that stops at the start misses the other collections
    monkeypatch.setattr(flips, "find_m_configs", lambda combi: [])
    with pytest.raises(TilingError) as info:
        flip_graph(3)
    assert str(info.value) == "flip-graph: flip moves do not reach every collection"


def test_flip_graph_needs_every_collection_the_flips_reach():
    report = enumerate_maximal(hypercube_domain(4), "weak")
    cols = report.maximal_collections
    start = cols.index(interval_collection(4))
    for lacking in (start, 5, len(cols) - 1):
        partial = DomainReport(report.domain, "weak", cols[:lacking] + cols[lacking + 1:], True, report.ranks)
        with pytest.raises(TilingError) as info:
            flip_graph(4, partial)
        assert str(info.value) == "flip-graph: flip moves do not reach every collection"
    # and only those: a strong report lacks collections the weak flips reach
    with pytest.raises(TilingError) as info:
        flip_graph(4, enumerate_maximal(hypercube_domain(4), "strong"))
    assert str(info.value) == "flip-graph: flip moves do not reach every collection"


def test_flip_graphs_index_the_report():
    report = enumerate_maximal(hypercube_domain(4), "weak")
    cols = report.maximal_collections[::-1]
    reversed_report = DomainReport(report.domain, "weak", cols, True, report.ranks)
    graph = flip_graph(4, reversed_report)
    assert graph.nodes == tuple(f.as_set() for f in cols)
    assert graph == set_flip_graph(4, reversed_report)
    sorted_graph = flip_graph(4, report)
    assert {(graph.nodes[u], graph.nodes[v]) for u, v in graph.arcs} == {
        (sorted_graph.nodes[u], sorted_graph.nodes[v]) for u, v in sorted_graph.arcs
    }


def test_flip_graphs_agree_n4():
    combi_graph = flip_graph(4)
    sets_graph = set_flip_graph(4)
    assert combi_graph.nodes == sets_graph.nodes
    assert combi_graph.arcs == sets_graph.arcs
    (src,) = combi_graph.sources()
    (snk,) = combi_graph.sinks()
    assert combi_graph.nodes[src] == interval_collection(4).as_set()
    assert combi_graph.nodes[snk] == cointerval_collection(4).as_set()
    # the same graphs over a weak report the caller already has
    report = enumerate_maximal(hypercube_domain(4), "weak")
    assert flip_graph(4, report) == combi_graph and set_flip_graph(4, report) == sets_graph
