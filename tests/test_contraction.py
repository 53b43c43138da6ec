import pytest

from zonotile import bitsets as bs
from zonotile.contraction import (
    _left_of_path_test,
    enumerate_legal_paths,
    extract_n_strip,
    first_contract,
    first_expand,
    is_legal_path,
    legal_path_report,
    mirror,
    n_contract,
    n_expand,
    path_vertex_roles,
)
from zonotile.flips import interval_combi
from zonotile.geometry import default_generators, embedding_table, point_in_closed_polyline
from zonotile.separation import enumerate_maximal, hypercube_domain
from zonotile.suite import all_combis

M = bs.mask_of


def test_strip_of_z2():
    strip = extract_n_strip(interval_combi(2))
    assert len(strip.tiles) == 2
    assert strip.left_path == (0, M([1]))
    assert strip.right_path == (M([2]), M([1, 2]))


def test_strip_endpoints():
    for n in (3, 4, 5):
        for combi in all_combis(n):
            strip = extract_n_strip(combi)
            assert strip.left_path[0] == 0
            assert strip.left_path[-1] == bs.full_mask(n) ^ bs.singleton(n)
            assert strip.right_path[0] == bs.singleton(n)
            assert strip.right_path[-1] == bs.full_mask(n)


def test_strip_collects_every_starred_tile_once():
    for combi in all_combis(4):
        strip = extract_n_strip(combi)
        starred = {d for d in combi.deltas if d.high == 4}
        starred |= {v for v in combi.nablas if v.high == 4}
        starred |= {l for l in combi.lenses if l.upper_types[-1] == 4}
        assert set(strip.tiles) == starred
        assert len(strip.tiles) == len(starred)


def test_contract_z2():
    smaller, path = n_contract(interval_combi(2))
    assert smaller.n == 1 and not (smaller.deltas or smaller.nablas or smaller.lenses)
    assert path == (0, M([1]))
    assert n_expand(smaller, path) == interval_combi(2)


def test_interval_expansion_along_right_boundary():
    # the new largest element slots in along the right boundary, so the
    # interval combi expands to the interval combi one size up
    for n in (2, 3, 4):
        combi = interval_combi(n)
        rbd = [0]
        mask = 0
        for k in range(n, 0, -1):
            mask |= bs.singleton(k)
            rbd.append(mask)
        assert n_expand(combi, tuple(rbd)) == interval_combi(n + 1)
        smaller, path = n_contract(interval_combi(n + 1))
        assert tuple(path) == tuple(rbd)


def test_legal_path_rules():
    combi = interval_combi(3)
    lbd = (0, M([1]), M([1, 2]), M([1, 2, 3]))
    assert is_legal_path(combi, lbd)
    assert path_vertex_roles(combi, lbd) == ["slope", "slope"]
    ok, why = legal_path_report(combi, (0, M([1]), M([1, 2])))
    assert not ok and why.startswith("P1")
    zig = (0, M([2]), M([1, 2]), M([2]), M([2, 3]), M([1, 2, 3]))
    ok, why = legal_path_report(combi, zig)
    assert not ok  # revisits a vertex via the same edge pair
    wrongzig = (0, M([3]), M([2, 3]), M([2]), M([1, 2]), M([1, 2, 3]))
    ok, why = legal_path_report(combi, wrongzig)
    assert not ok and why.startswith("P3")


def test_round_trip_forward_n5():
    for combi in all_combis(5):
        smaller, path = n_contract(combi)
        assert n_expand(smaller, path) == combi


def test_round_trip_converse_and_count():
    for n2 in (2, 3, 4):
        pairs = 0
        for combi in all_combis(n2):
            for path in enumerate_legal_paths(combi):
                expanded = n_expand(combi, path)
                back, path_back = n_contract(expanded)
                assert back == combi and path_back == path
                pairs += 1
        target = len(enumerate_maximal(hypercube_domain(n2 + 1), "weak").maximal_collections)
        assert pairs == target


def test_expand_rejects_illegal_path():
    combi = interval_combi(3)
    with pytest.raises(ValueError):
        n_expand(combi, (0, M([1])))


def test_mirror_involution_and_counts():
    for combi in all_combis(4):
        mirrored = mirror(combi)
        assert mirror(mirrored) == combi
        assert len(mirrored.deltas) == len(combi.deltas)
        assert len(mirrored.nablas) == len(combi.nablas)
        assert len(mirrored.lenses) == len(combi.lenses)


def test_mirror_of_intervals_is_intervals():
    from zonotile.combi import spectrum
    from zonotile.separation import interval_collection

    combi = interval_combi(4)
    assert spectrum(mirror(combi)) == interval_collection(4)


def test_first_contract_round_trip():
    for combi in all_combis(4):
        smaller, path = first_contract(combi)
        assert first_expand(smaller, path) == combi


def test_contraction_of_lens_combi():
    # a combi with a type-*n lens exercises the L-Z transformation
    hit = False
    for combi in all_combis(5):
        if any(l.upper_types[-1] == 5 for l in combi.lenses):
            smaller, path = n_contract(combi)
            assert n_expand(smaller, path) == combi
            assert any(bs.size(a) > bs.size(b) for a, b in zip(path, path[1:]))
            hit = True
    assert hit


def _centroid_left_of_path(n, path, cycle):
    """Reference side test: the tile's centroid probed against the region
    between the left boundary and the path, all scaled by the tile size."""
    table = embedding_table(default_generators(n))
    lbd = [(1 << k) - 1 for k in range(n + 1)]
    region = [table[v] for v in lbd + list(reversed(path[1:-1]))]
    m = len(cycle)
    probe = (sum(table[v][0] for v in cycle), sum(table[v][1] for v in cycle))
    return point_in_closed_polyline(probe, [(x * m, y * m) for x, y in region]) == "inside"


def test_side_test_matches_centroid_probe():
    pairs = 0
    for n in range(1, 6):
        for combi in all_combis(n):
            for path in enumerate_legal_paths(combi):
                left_of_path = _left_of_path_test(n, path)
                for tile in combi.tiles():
                    want = _centroid_left_of_path(n, path, tile.cycle())
                    assert left_of_path(tile.cycle()) == want, (combi, path, tile)
                pairs += 1
    assert pairs == 3831
