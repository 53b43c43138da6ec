"""Contraction and expansion between combies on adjacent ground sizes.

`zonotile.contraction` computes both maps as rules on vertex sets.  The
strip construction they replace is the reference of a differential test,
and so are the legal-path walker and report that stated the (P2) and (P3)
rules each on its own; both live in `oracles.py`.
"""

import random
import re
from collections import Counter

import pytest

from zonotile import bitsets as bs
from zonotile._planar import TilingError
from zonotile.combi import Combi, Delta
from zonotile.contraction import (
    _turn,
    _walks,
    enumerate_legal_paths,
    mirror,
    n_contract,
    n_expand,
    path_vertex_roles,
)
from zonotile.flips import interval_combi
from zonotile.geometry import default_generators, embedding_table, point_in_closed_polyline
from zonotile.separation import compatible_row

import oracles

M = bs.mask_of


def _random_walk(combi: Combi, rng: random.Random) -> tuple[int, ...]:
    """Steps along vertical edges, more often up than down, from the bottom
    vertex towards the top one; now and then a start elsewhere or a jump."""
    verts = sorted(combi.vertex_masks())
    nbrs: dict[int, list[int]] = {v: [] for v in verts}
    for a, b in sorted(combi.vertical_edges()):
        nbrs[a].append(b)
        nbrs[b].append(a)
    full = bs.full_mask(combi.n)
    path = [0 if rng.random() < 0.95 else rng.choice(verts)]
    while len(path) < 3 * combi.n and not (path[-1] == full and rng.random() < 0.8):
        cur = path[-1]
        ups = [v for v in nbrs[cur] if v > cur]
        if rng.random() < 0.03 or not nbrs[cur]:
            path.append(rng.choice(verts))
        else:
            path.append(rng.choice(ups if ups and rng.random() < 0.7 else nbrs[cur]))
    return tuple(path)


def _report(combi: Combi, path) -> tuple[bool, str]:
    """`path_vertex_roles`'s check in the shape of `oracles.separate_report`."""
    try:
        path_vertex_roles(combi, path)
    except ValueError as fault:
        return False, str(fault)
    return True, ""


def _both_3_combis() -> Combi:
    """The triangles of both 3-combis together: a left-bending pit after a
    right-bending peak, which no combi with n <= 5 has."""
    both = oracles.cube_combis(3)
    return Combi(3, set().union(*(c.deltas for c in both)), set().union(*(c.nablas for c in both)))


def test_walks_and_report_match_the_separate_rules():
    rng = random.Random(33)
    combis = [c for n in range(1, 6) for c in oracles.cube_combis(n)]
    sixes = rng.sample(oracles.cube_combis(6), 500)
    restricted = 0
    for combi in combis + sixes:
        paths = _walks(combi)
        assert paths == oracles.separate_walks(combi), combi
        assert enumerate_legal_paths(combi) == paths
        # the walk restricted to the vertices of a legal path, as
        # `n_contract` restricts it to the strip's image
        for path in paths if combi.n < 6 else rng.sample(paths, 2):
            within = set(path)
            assert _walks(combi, within) == oracles.separate_walks(combi, within), (combi, path)
            restricted += 1
    # a path for each (n+1)-combi, n <= 5, and two for each 6-combi
    assert restricted == 1 + 2 + 10 + 124 + 3694 + 2 * 500
    # both reports on random walks, which break every rule the walks can
    # reach; some break (P3) before they break (P2), and the (P2) is named
    kinds = Counter()
    for combi in combis[2:] * 2 + [_both_3_combis()] * 20:
        for _ in range(20):
            path = _random_walk(combi, rng)
            ok, why = _report(combi, path)
            assert (ok, why) == oracles.separate_report(combi, path), (combi, path)
            kinds["legal" if ok else re.sub(r" at position \d+|\{.*\}->\{.*\} ", "", why)] += 1
            turns = [_turn(a, b, c) for a, b, c in zip(path, path[1:], path[2:])]
            faults = [why[:2] for why in turns if why.startswith("P")]
            kinds["P3 before P2"] += not ok and why.startswith("P2") and faults[0] == "P3"
    assert sorted(kinds) == [
        "P1: is not a vertical edge",
        "P1: path must run from the bottom to the top vertex",
        "P1: path too short",
        "P2: two consecutive backward edges",
        "P3 before P2",
        "P3: path doubles back",
        "P3: peak bends left",
        "P3: pit bends left",
        "legal",
    ], kinds
    assert kinds["P3 before P2"] > 0


def test_strip_of_z2():
    strip = oracles.extract_n_strip(interval_combi(2))
    assert len(strip.tiles) == 2
    assert strip.left_path == (0, M([1]))
    assert strip.right_path == (M([2]), M([1, 2]))


def test_strip_endpoints():
    for n in (3, 4, 5):
        for combi in oracles.cube_combis(n):
            strip = oracles.extract_n_strip(combi)
            assert strip.left_path[0] == 0
            assert strip.left_path[-1] == bs.full_mask(n) ^ bs.singleton(n)
            assert strip.right_path[0] == bs.singleton(n)
            assert strip.right_path[-1] == bs.full_mask(n)


def test_strip_collects_every_starred_tile_once():
    for combi in oracles.cube_combis(4):
        strip = oracles.extract_n_strip(combi)
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
    with pytest.raises(ValueError, match="^contraction needs a ground set of size at least 2$"):
        n_contract(interval_combi(1))


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
    assert path_vertex_roles(combi, lbd) == ["slope", "slope"]
    ok, why = _report(combi, (0, M([1]), M([1, 2])))
    assert not ok and why.startswith("P1")
    zig = (0, M([2]), M([1, 2]), M([2]), M([2, 3]), M([1, 2, 3]))
    # revisits a vertex via the same edge pair
    assert _report(combi, zig) == (False, "P3: path doubles back at position 2")
    wrongzig = (0, M([3]), M([2, 3]), M([2]), M([1, 2]), M([1, 2, 3]))
    assert _report(combi, wrongzig) == (False, "P3: peak at position 2 bends left")
    assert _report(combi, (0,)) == (False, "P1: path too short")
    union = _both_3_combis()
    left_pit = (0, M([1]), M([1, 2]), M([2]), M([2, 3]), M([3]), M([1, 3]), M([1, 2, 3]))
    assert _report(union, left_pit) == (False, "P3: pit at position 5 bends left")
    twice_down = (0, M([1]), M([1, 2]), M([1]), 0, M([1]), M([1, 2]), M([1, 2, 3]))
    assert _report(combi, twice_down) == (
        False, "P2: two consecutive backward edges at position 3"
    )
    with pytest.raises(ValueError, match="^P2"):
        path_vertex_roles(combi, twice_down)


def test_expand_rejects_illegal_path():
    combi = interval_combi(3)
    with pytest.raises(ValueError, match="^P1: path must run from the bottom to the top vertex$"):
        n_expand(combi, (0, M([1])))


def test_mirror_of_intervals_is_intervals():
    from zonotile.combi import spectrum
    from zonotile.separation import interval_collection

    combi = interval_combi(4)
    assert spectrum(mirror(combi)) == interval_collection(4)


def test_contraction_of_lens_combi():
    # a combi with a type-*n lens exercises the L-Z transformation
    hit = False
    for combi in oracles.cube_combis(5):
        if any(l.upper_types[-1] == 5 for l in combi.lenses):
            _, path = n_contract(combi)
            assert any(bs.size(a) > bs.size(b) for a, b in zip(path, path[1:]))
            hit = True
    assert hit


def test_side_test_matches_centroid_probe():
    # expansion puts each vertex X off the path on the left of it (X) or on
    # the right (X + n) by whichever of the two is weakly separated from the
    # members the path itself gives; the side must be the one point
    # location finds, X lying in the region between the zonogon's left
    # boundary and the path ("on" is the left boundary, off the path)
    pairs = 0
    for n in range(1, 6):
        table = embedding_table(default_generators(n))
        lbd = [(1 << k) - 1 for k in range(n + 1)]
        sn = bs.singleton(n + 1)
        for combi in oracles.cube_combis(n):
            for path in enumerate_legal_paths(combi):
                region = [table[v] for v in lbd + list(reversed(path[1:-1]))]
                members = set()
                for x, role in zip(path, ["end", *path_vertex_roles(combi, path), "end"]):
                    if role != "pit":
                        members.add(x)
                    if role != "peak":
                        members.add(x | sn)
                row = compatible_row(members, n + 1, "weak")
                for x in combi.vertex_masks().difference(path):
                    left = point_in_closed_polyline(table[x], region) != "outside"
                    assert (row >> x & 1, row >> (x | sn) & 1) == (left, not left), (combi, path, x)
                pairs += 1
    assert pairs == 3831


def test_contraction_matches_strip_reference():
    contractions = 0
    for n in range(2, 6):
        for combi in oracles.cube_combis(n):
            assert n_contract(combi) == oracles.reference_contract(combi), combi
            contractions += 1
    assert contractions == 137


def test_expansion_matches_strip_reference():
    expansions = 0
    for n2 in range(1, 5):
        for combi in oracles.cube_combis(n2):
            for path in enumerate_legal_paths(combi):
                assert n_expand(combi, path) == oracles.reference_expand(combi, path), (combi, path)
                expansions += 1
    assert expansions == 137


@pytest.mark.slow
def test_maps_match_strip_reference_at_n6_and_sampled_n7():
    sixes = oracles.cube_combis(6)
    for combi in sixes:
        assert n_contract(combi) == oracles.reference_contract(combi), combi
    pairs = 0
    for combi in oracles.cube_combis(5):
        for path in enumerate_legal_paths(combi):
            assert n_expand(combi, path) == oracles.reference_expand(combi, path), (combi, path)
            pairs += 1
    assert len(sixes) == pairs == 3694
    # 7-combis are reached by expansion, which the reference checks too
    rng = random.Random(7)
    for combi in rng.sample(sixes, 300):
        path = rng.choice(enumerate_legal_paths(combi))
        seven = n_expand(combi, path)
        assert seven == oracles.reference_expand(combi, path), (combi, path)
        assert n_contract(seven) == oracles.reference_contract(seven) == (combi, path)


def test_contract_needs_the_strip_lenses():
    # without its strip lens the combi keeps its vertex set, but the path
    # through the strip's image misses the lens's zigzag, so no walk visits
    # all of it
    combi = next(c for c in oracles.cube_combis(4) if any(l.upper_types[-1] == 4 for l in c.lenses))
    strip = {l for l in combi.lenses if l.upper_types[-1] == 4}
    broken = Combi(4, combi.deltas, combi.nablas, combi.lenses - strip)
    assert broken.vertex_masks() == combi.vertex_masks()
    with pytest.raises(TilingError) as info:
        n_contract(broken)
    assert str(info.value) == "contract: 0 legal paths visit the strip's image, not 1"


def test_expand_names_a_vertex_on_neither_side():
    # a delta of another combi adds the vertex {1,3}, which is separated
    # from the path's members neither as {1,3} nor as {1,3,4}
    combi = interval_combi(3)
    extra = Combi(3, combi.deltas | {Delta(M([1, 2, 3]), 2, 3)}, combi.nablas)
    path = tuple(M(s) for s in ([], [1], [1, 2], [2], [2, 3], [1, 2, 3]))
    assert _report(combi, path)[0]
    with pytest.raises(TilingError) as info:
        n_expand(extra, path)
    assert str(info.value) == "expand: neither of {1,3} and its lift fit the path"

