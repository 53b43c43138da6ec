"""Contraction and expansion between combies on adjacent ground sizes.

`zonotile.contraction` computes both maps as rules on vertex sets.  The
strip construction they replace is kept here verbatim as the reference of a
differential test: the walk along the type-*n tiles, the L-Z and Z-L tile
surgery, and the point-location test that decides a tile's side of a path.
So are the legal-path walker and report that stated the (P2) and (P3) rules
each on its own, before both read them from one turn rule.
"""

import random
import re
from collections import Counter
from dataclasses import dataclass

import pytest

from zonotile import bitsets as bs
from zonotile._planar import TilingError
from zonotile.combi import Combi, Delta, Lens, Nabla, Tile, validate_combi
from zonotile.contraction import (
    _turn,
    _walks,
    enumerate_legal_paths,
    legal_path_report,
    mirror,
    n_contract,
    n_expand,
    path_vertex_roles,
)
from zonotile.flips import interval_combi
from zonotile.geometry import default_generators, embedding_table, point_in_closed_polyline
from zonotile.separation import compatible_row, enumerate_maximal, hypercube_domain
from zonotile.suite import all_combis

from tile_scans import delta_fan, nabla_fan

M = bs.mask_of


# The strip construction, the reference of the differential tests.


def _step_type(a: int, b: int) -> int:
    """Type of the vertical edge a -> b (= the single added element)."""
    d = b & ~a
    if a & ~b or bs.size(d) != 1:
        raise ValueError("not a single-element vertical step")
    return bs.min_element(d)


@dataclass(frozen=True)
class NStrip:
    tiles: tuple[Tile, ...]
    left_path: tuple[int, ...]
    right_path: tuple[int, ...]


def extract_n_strip(combi: Combi) -> NStrip:
    """The unique chain of type-*n tiles, bottom-right to top-left."""
    n = combi.n
    if n < 2:
        raise ValueError("strips need a ground set of size at least 2")
    strip_deltas = {d for d in combi.deltas if d.high == n}
    strip_nablas = {v for v in combi.nablas if v.high == n}
    strip_lenses = {l for l in combi.lenses if l.upper_types[-1] == n}
    above_delta = {d.base: d for d in strip_deltas}
    above_lens = {(l.lower[0], l.lower[1]): l for l in strip_lenses}
    nabla_by_bottom = {v.bottom: v for v in strip_nablas}

    start = nabla_by_bottom.get(0)
    if start is None:
        raise TilingError("strip", "no tile contains the first right-boundary edge")
    total = len(strip_deltas) + len(strip_nablas) + len(strip_lenses)
    tiles: list[Tile] = [start]
    left_path: list[int] = [0, start.left]
    right_path: list[int] = [start.right]
    cur: Tile = start
    last_left = bs.full_mask(n) ^ bs.singleton(n)
    while True:
        if isinstance(cur, Nabla):
            exit_edge = cur.base
        elif isinstance(cur, Lens):
            exit_edge = (cur.upper[-2], cur.upper[-1])
        else:
            if cur.left == last_left:
                break
            partner = nabla_by_bottom.get(cur.left)
            if partner is None:
                raise TilingError("strip", "strip broke at a vertical type-n edge")
            tiles.append(partner)
            if left_path[-1] != partner.bottom:
                raise TilingError("strip", "left boundary of the strip disconnected")
            left_path.append(partner.left)
            cur = partner
            continue
        nxt: Tile | None = above_delta.get(exit_edge) or above_lens.get(exit_edge)
        if nxt is None:
            raise TilingError("strip", f"no tile above strip edge {exit_edge}")
        tiles.append(nxt)
        if isinstance(nxt, Delta):
            if right_path[-1] != nxt.right:
                raise TilingError("strip", "right boundary of the strip disconnected")
            right_path.append(nxt.apex)
        else:
            if left_path[-1] != nxt.upper[0] or right_path[-1] != nxt.lower[1]:
                raise TilingError("strip", "lens does not join the strip boundaries")
            left_path.extend(nxt.upper[1:-1])
            right_path.extend(nxt.lower[2:])
        cur = nxt
    if len(tiles) != total or len(set(tiles)) != len(tiles):
        raise TilingError("strip", "strip does not visit every type-*n tile once")
    return NStrip(tuple(tiles), tuple(left_path), tuple(right_path))


def _relabel_drop(mask: int, n: int) -> int:
    if not bs.has(mask, n):
        raise TilingError("contract", "right-side vertex does not contain n")
    return mask ^ bs.singleton(n)


def _reference_contract(combi: Combi) -> tuple[Combi, tuple[int, ...]]:
    """Contract away element n; returns the smaller combi and the legal path
    that reproduces the input under `n_expand`."""
    n = combi.n
    strip = extract_n_strip(combi)
    in_strip = set(strip.tiles)
    sn = bs.singleton(n)
    deltas: list[Delta] = []
    nablas: list[Nabla] = []
    lenses: list[Lens] = []
    for d in combi.deltas:
        if d in in_strip:
            continue
        if d.apex & sn:
            deltas.append(Delta(_relabel_drop(d.apex, n), d.low, d.high))
        else:
            deltas.append(d)
    for v in combi.nablas:
        if v in in_strip:
            continue
        if v.bottom & sn:
            nablas.append(Nabla(_relabel_drop(v.bottom, n), v.low, v.high))
        else:
            nablas.append(v)
    for l in combi.lenses:
        if l in in_strip:
            continue
        if l.upper[0] & sn:
            lenses.append(
                Lens(
                    tuple(_relabel_drop(v, n) for v in l.upper),
                    tuple(_relabel_drop(v, n) for v in l.lower),
                )
            )
        else:
            lenses.append(l)
    # L-Z transformation of each strip lens
    for tile in strip.tiles:
        if not isinstance(tile, Lens):
            continue
        up = tile.upper
        low = [low_v if idx == 0 else _relabel_drop(low_v, n) for idx, low_v in enumerate(tile.lower)]
        apex = up[0]
        for a, b in zip(low[1:], low[2:]):
            deltas.append(Delta.on_base(apex, a, b))
        bottom = low[-1]
        for a, b in zip(up[:-2], up[1:-1]):
            nablas.append(Nabla.on_base(bottom, a, b))
    contracted = Combi(n - 1, deltas, nablas, lenses)
    # image of the strip's left boundary, with each lens replaced by its zigzag
    path: list[int] = [0]
    for tile in strip.tiles:
        if isinstance(tile, Nabla):
            if path[-1] != tile.bottom:
                raise TilingError("contract", "path assembly lost the strip boundary")
            path.append(tile.left)
        elif isinstance(tile, Delta):
            if path[-1] != tile.left:
                raise TilingError("contract", "path assembly lost the strip boundary")
        else:
            if path[-1] != tile.upper[0]:
                raise TilingError("contract", "path assembly lost the strip boundary")
            path.append(tile.lower[-1] ^ sn)
            path.append(tile.upper[-2])
    validate_combi(contracted)
    ok, why = legal_path_report(contracted, tuple(path))
    if not ok:
        raise TilingError("contract", f"contracted boundary path is not legal: {why}")
    return contracted, tuple(path)


def _fan_stretch(fan: tuple[int, ...], start: int, end: int, what: str) -> tuple[int, ...]:
    """The part of a fan's base path from `start` to `end`."""
    if start in fan and end in fan and fan.index(start) < fan.index(end):
        return fan[fan.index(start) : fan.index(end) + 1]
    raise TilingError("expand", f"{what} does not chain")


def _left_of_path_test(n: int, path: tuple[int, ...]):
    """The test whether a tile of an n-combi, given by its vertex cycle,
    lies left of the legal path: in the region between the zonogon's left
    boundary and the path.  The path runs along tile edges and crosses no
    tile, so a tile lies on the side of any of its vertices off the path;
    the first such vertex decides, and each is located once.  A tile with
    every vertex on the path is probed at its centroid."""
    table = embedding_table(default_generators(n))
    lbd = [(1 << k) - 1 for k in range(n + 1)]
    region = [table[v] for v in lbd + list(reversed(path[1:-1]))]
    on_path = set(path)
    vertex_left: dict[int, bool] = {}
    # the region scaled by each tile size m, so the probe (m times a tile's
    # centroid) stays an integer point
    scaled_by: dict[int, list[tuple[int, int]]] = {}

    def left_of_path(cycle_masks: list[int]) -> bool:
        for v in cycle_masks:
            if v not in on_path:
                left = vertex_left.get(v)
                if left is None:
                    # "on" is the left boundary, off the path
                    where = point_in_closed_polyline(table[v], region)
                    left = vertex_left[v] = where != "outside"
                return left
        m = len(cycle_masks)
        scaled = scaled_by.get(m)
        if scaled is None:
            scaled = scaled_by[m] = [(x * m, y * m) for x, y in region]
        pts = [table[v] for v in cycle_masks]
        probe = (sum(p[0] for p in pts), sum(p[1] for p in pts))
        return point_in_closed_polyline(probe, scaled) == "inside"

    return left_of_path


def _reference_expand(combi: Combi, path) -> Combi:
    """Inverse of `n_contract`: insert element n along a legal path."""
    path = tuple(path)
    ok, why = legal_path_report(combi, path)
    if not ok:
        raise ValueError(why)
    if len(set(path)) != len(path):
        raise ValueError("legal path repeats a vertex")
    n2 = combi.n
    n = n2 + 1
    sn = bs.singleton(n)
    left_of_path = _left_of_path_test(n2, path)

    # at each backward edge peak -> pit, the stretches of the delta fan at
    # the peak and of the nabla fan at the pit that the new lens replaces
    fills = []
    filled: set[Tile] = set()
    for d in range(1, len(path)):
        peak, pit = path[d - 1], path[d]
        if bs.size(pit) < bs.size(peak):
            low = _fan_stretch(delta_fan(combi, peak), path[d - 2], pit, "lower filling at a peak")
            up = _fan_stretch(nabla_fan(combi, pit), peak, path[d + 1], "upper filling at a pit")
            fills.append((peak, pit, low, up))
            filled.update(Delta.on_base(peak, a, b) for a, b in zip(low, low[1:]))
            filled.update(Nabla.on_base(pit, a, b) for a, b in zip(up, up[1:]))

    deltas: list[Delta] = []
    nablas: list[Nabla] = []
    lenses: list[Lens] = []
    for d in combi.deltas:
        if d in filled:
            continue
        if left_of_path(d.cycle()):
            deltas.append(d)
        else:
            deltas.append(Delta(d.apex | sn, d.low, d.high))
    for v in combi.nablas:
        if v in filled:
            continue
        if left_of_path(v.cycle()):
            nablas.append(v)
        else:
            nablas.append(Nabla(v.bottom | sn, v.low, v.high))
    for l in combi.lenses:
        if left_of_path(l.cycle()):
            lenses.append(l)
        else:
            lenses.append(
                Lens(tuple(v | sn for v in l.upper), tuple(v | sn for v in l.lower))
            )

    # new strip tiles: one nabla/delta pair per slope plus the two end tiles
    for prev, v, nxt in zip(path, path[1:], path[2:]):
        if not bs.size(prev) < bs.size(v) < bs.size(nxt):
            continue
        nablas.append(Nabla(v, _step_type(v, nxt), n))
        deltas.append(Delta(v | sn, _step_type(prev, v), n))
    nablas.append(Nabla(0, _step_type(path[0], path[1]), n))
    deltas.append(Delta(bs.full_mask(n), _step_type(path[-2], path[-1]), n))

    # one lens per backward edge (Z-L transformation)
    for peak, pit, low, up in fills:
        lenses.append(Lens(up + (pit | sn,), (peak,) + tuple(v | sn for v in low)))

    out = Combi(n, deltas, nablas, lenses)
    validate_combi(out)
    return out


# The legal-path rules stated twice, the reference of a differential test.


def _separate_report(combi: Combi, path: tuple[int, ...]) -> tuple[bool, str]:
    n = combi.n
    edges = combi.vertical_edges()
    if len(path) < 2:
        return False, "P1: path too short"
    if path[0] != 0 or path[-1] != bs.full_mask(n):
        return False, "P1: path must run from the bottom to the top vertex"
    for a, b in zip(path, path[1:]):
        if (a, b) not in edges and (b, a) not in edges:
            return False, f"P1: {bs.format_subset(a)}->{bs.format_subset(b)} is not a vertical edge"
    sizes = [v.bit_count() for v in path]
    for d, (sa, sb, sc) in enumerate(zip(sizes, sizes[1:], sizes[2:]), 1):
        if sa > sb > sc:
            return False, f"P2: two consecutive backward edges at position {d}"
    for d, (a, b, c) in enumerate(zip(path, path[1:], path[2:]), 1):
        if a.bit_count() != c.bit_count():
            continue
        if a == c:
            return False, f"P3: path doubles back at position {d}"
        if a.bit_count() > b.bit_count():
            if not a ^ b < c ^ b:
                return False, f"P3: pit at position {d} bends left"
        elif not a ^ b > c ^ b:
            return False, f"P3: peak at position {d} bends left"
    return True, ""


def _separate_walks(combi: Combi, within: set[int] | None = None) -> list[tuple[int, ...]]:
    edges = combi.vertical_edges()
    if within is not None:
        edges = [(a, b) for a, b in edges if a in within and b in within]
    ups: dict[int, list[int]] = {}
    downs: dict[int, list[int]] = {}
    for a, b in sorted(edges):
        ups.setdefault(a, []).append(b)
        downs.setdefault(b, []).append(a)
    full = bs.full_mask(combi.n)
    out: list[tuple[int, ...]] = []

    def walk(path: list[int], seen: set[int], last: int) -> None:
        cur = path[-1]
        if cur == full:
            if within is None or len(path) == len(within):
                out.append(tuple(path))
            return
        went_down = last.bit_count() > cur.bit_count()
        turn = last ^ cur
        steps = [v for v in ups.get(cur, ()) if not went_down or v ^ cur > turn]
        if not went_down:
            steps += [v for v in downs.get(cur, ()) if v ^ cur < turn]
        for nxt in steps:
            if nxt not in seen:
                path.append(nxt)
                seen.add(nxt)
                walk(path, seen, cur)
                seen.discard(nxt)
                path.pop()

    walk([0], {0}, 0)
    return out


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


def _both_3_combis() -> Combi:
    """The triangles of both 3-combis together: a left-bending pit after a
    right-bending peak, which no combi with n <= 5 has."""
    both = all_combis(3)
    return Combi(3, set().union(*(c.deltas for c in both)), set().union(*(c.nablas for c in both)))


def test_walks_and_report_match_the_separate_rules():
    rng = random.Random(33)
    combis = [c for n in range(1, 6) for c in all_combis(n)]
    sixes = rng.sample(all_combis(6), 500)
    restricted = 0
    for combi in combis + sixes:
        paths = _walks(combi)
        assert paths == _separate_walks(combi), combi
        assert enumerate_legal_paths(combi) == paths
        # the walk restricted to the vertices of a legal path, as
        # `n_contract` restricts it to the strip's image
        for path in paths if combi.n < 6 else rng.sample(paths, 2):
            within = set(path)
            assert _walks(combi, within) == _separate_walks(combi, within), (combi, path)
            restricted += 1
    # a path for each (n+1)-combi, n <= 5, and two for each 6-combi
    assert restricted == 1 + 2 + 10 + 124 + 3694 + 2 * 500
    # both reports on random walks, which break every rule the walks can
    # reach; some break (P3) before they break (P2), and the (P2) is named
    kinds = Counter()
    for combi in combis[2:] * 2 + [_both_3_combis()] * 20:
        for _ in range(20):
            path = _random_walk(combi, rng)
            ok, why = legal_path_report(combi, path)
            assert (ok, why) == _separate_report(combi, path), (combi, path)
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
    assert legal_path_report(combi, lbd)[0]
    assert path_vertex_roles(combi, lbd) == ["slope", "slope"]
    ok, why = legal_path_report(combi, (0, M([1]), M([1, 2])))
    assert not ok and why.startswith("P1")
    zig = (0, M([2]), M([1, 2]), M([2]), M([2, 3]), M([1, 2, 3]))
    # revisits a vertex via the same edge pair
    assert legal_path_report(combi, zig) == (False, "P3: path doubles back at position 2")
    wrongzig = (0, M([3]), M([2, 3]), M([2]), M([1, 2]), M([1, 2, 3]))
    assert legal_path_report(combi, wrongzig) == (False, "P3: peak at position 2 bends left")
    assert legal_path_report(combi, (0,)) == (False, "P1: path too short")
    union = _both_3_combis()
    left_pit = (0, M([1]), M([1, 2]), M([2]), M([2, 3]), M([3]), M([1, 3]), M([1, 2, 3]))
    assert legal_path_report(union, left_pit) == (False, "P3: pit at position 5 bends left")
    twice_down = (0, M([1]), M([1, 2]), M([1]), 0, M([1]), M([1, 2]), M([1, 2, 3]))
    assert legal_path_report(combi, twice_down) == (
        False, "P2: two consecutive backward edges at position 3"
    )
    with pytest.raises(ValueError, match="^P2"):
        path_vertex_roles(combi, twice_down)


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
    # element 1 is contracted away as element n of the mirror image, and
    # expanding that back and mirroring again restores the combi
    for combi in all_combis(4):
        smaller, path = n_contract(mirror(combi))
        assert mirror(n_expand(smaller, path)) == combi


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
        for combi in all_combis(n):
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
        for combi in all_combis(n):
            assert n_contract(combi) == _reference_contract(combi), combi
            contractions += 1
    assert contractions == 137


def test_expansion_matches_strip_reference():
    expansions = 0
    for n2 in range(1, 5):
        for combi in all_combis(n2):
            for path in enumerate_legal_paths(combi):
                assert n_expand(combi, path) == _reference_expand(combi, path), (combi, path)
                expansions += 1
    assert expansions == 137


@pytest.mark.slow
def test_maps_match_strip_reference_at_n6_and_sampled_n7():
    sixes = all_combis(6)
    for combi in sixes:
        assert n_contract(combi) == _reference_contract(combi), combi
    pairs = 0
    for combi in all_combis(5):
        for path in enumerate_legal_paths(combi):
            assert n_expand(combi, path) == _reference_expand(combi, path), (combi, path)
            pairs += 1
    assert len(sixes) == pairs == 3694
    # 7-combis are reached by expansion, which the reference checks too
    rng = random.Random(7)
    for combi in rng.sample(sixes, 300):
        path = rng.choice(enumerate_legal_paths(combi))
        seven = n_expand(combi, path)
        assert seven == _reference_expand(combi, path), (combi, path)
        assert n_contract(seven) == _reference_contract(seven) == (combi, path)


def test_contract_needs_the_strip_lenses():
    # without its strip lens the combi keeps its vertex set, but the path
    # through the strip's image misses the lens's zigzag, so no walk visits
    # all of it
    combi = next(c for c in all_combis(4) if any(l.upper_types[-1] == 4 for l in c.lenses))
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
    assert legal_path_report(combi, path)[0]
    with pytest.raises(TilingError) as info:
        n_expand(extra, path)
    assert str(info.value) == "expand: neither of {1,3} and its lift fit the path"

