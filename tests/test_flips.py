import random

import pytest

from zonotile import bitsets as bs
from zonotile.combi import (
    MConfig,
    WConfig,
    find_m_configs,
    find_w_configs,
    from_w_collection,
    spectrum,
)
from zonotile.contraction import n_contract, n_expand
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
    SetFamily,
    cointerval_collection,
    enumerate_maximal,
    hypercube_domain,
    interval_collection,
)

M = bs.mask_of


def _all_families(n):
    return enumerate_maximal(hypercube_domain(n), "weak").maximal_collections


def test_n3_flip_pair():
    low = interval_combi(3)
    (m,) = find_m_configs(low)
    high = raising_flip(low, m)
    assert spectrum(high) == cointerval_collection(3)
    assert high.size_sum() == low.size_sum() + 1
    (w,) = find_w_configs(high)
    assert lowering_flip(high, w) == low


def test_flip_requires_configuration():
    low = interval_combi(3)
    with pytest.raises(ValueError):
        lowering_flip(low, WConfig(0, 1, 2, 3))
    high = from_w_collection(cointerval_collection(3), check_input=False)
    with pytest.raises(ValueError):
        raising_flip(high, MConfig(0, 1, 2, 3))


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


def test_complement_is_involution_and_swaps_tiles():
    for fam in _all_families(4):
        combi = from_w_collection(fam, check_input=False)
        comp = complement_combi(combi)
        assert complement_combi(comp) == combi
        assert len(comp.deltas) == len(combi.nablas)
        assert len(comp.nablas) == len(combi.deltas)
        assert len(comp.lenses) == len(combi.lenses)
    low = interval_combi(3)
    assert spectrum(complement_combi(low)) == cointerval_collection(3)


def test_set_flip_examples():
    fam = interval_collection(3)
    raised = set_flip(fam, 0, 1, 2, 3, "raise")
    assert raised == cointerval_collection(3)
    assert set_flip(raised, 0, 1, 2, 3, "lower") == fam
    with pytest.raises(ValueError):
        set_flip(SetFamily(3, [M([1]), M([3]), M([1, 3]), M([2, 3])]), 0, 1, 2, 3, "raise")


def test_descend_to_minimum():
    high = from_w_collection(cointerval_collection(3), check_input=False)
    final, trace = descend_to_minimum(high)
    assert len(trace) == 1
    assert spectrum(final) == interval_collection(3)
    for fam in _all_families(4):
        combi = from_w_collection(fam, check_input=False)
        final, trace = descend_to_minimum(combi)
        assert len(trace) == combi.size_sum() - final.size_sum()


def test_flip_graph_n3():
    graph = flip_graph(3)
    assert len(graph.nodes) == 2 and len(graph.arcs) == 1
    assert graph.sources() != graph.sinks()


def test_flip_graphs_agree_n4():
    combi_graph = flip_graph(4)
    sets_graph = set_flip_graph(4)
    assert combi_graph.nodes == sets_graph.nodes
    assert combi_graph.arcs == sets_graph.arcs
    (src,) = combi_graph.sources()
    (snk,) = combi_graph.sinks()
    assert combi_graph.nodes[src] == interval_collection(4).as_set()
    assert combi_graph.nodes[snk] == cointerval_collection(4).as_set()
