"""Contraction and expansion between combies on adjacent ground sizes.

The tiles whose type involves the last element n form a single strip from
the bottom-right boundary edge to the top-left one.  Contracting collapses
that strip: the left part of the combi stays, the right part drops n from
every vertex, and each strip lens unwinds into a delta fan plus a nabla fan
(the L-Z transformation).  The image of the strip's left boundary is a legal
path in the contracted combi, and expansion along any legal path inverts
the operation exactly, giving the bijection
(combi on n-1 ground, legal path)  <->  (combi on n ground).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import bitsets as bs
from ._planar import TilingError
from .combi import Combi, Delta, Lens, Nabla, Tile, validate_combi
from .geometry import default_generators, embedding_table, point_in_closed_polyline


@dataclass(frozen=True)
class NStrip:
    tiles: tuple[Tile, ...]
    left_path: tuple[int, ...]
    right_path: tuple[int, ...]


def _step_type(a: int, b: int) -> int:
    """Type of the vertical edge a -> b (= the single added element)."""
    d = b & ~a
    if a & ~b or bs.size(d) != 1:
        raise ValueError("not a single-element vertical step")
    return bs.min_element(d)


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


def n_contract(combi: Combi) -> tuple[Combi, tuple[int, ...]]:
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


def legal_path_report(combi: Combi, path: tuple[int, ...]) -> tuple[bool, str]:
    """Check (P1) endpoints and vertical steps, (P2) no two consecutive
    backward edges, (P3) zigzags bend to the right."""
    n = combi.n
    edges = combi.vertical_edges()
    if len(path) < 2:
        return False, "P1: path too short"
    if path[0] != 0 or path[-1] != bs.full_mask(n):
        return False, "P1: path must run from the bottom to the top vertex"
    for a, b in zip(path, path[1:]):
        small, big = (a, b) if bs.size(a) < bs.size(b) else (b, a)
        if (small, big) not in edges:
            return False, f"P1: {bs.format_subset(a)}->{bs.format_subset(b)} is not a vertical edge"
    for d in range(1, len(path) - 1):
        down_in = bs.size(path[d - 1]) > bs.size(path[d])
        down_out = bs.size(path[d]) > bs.size(path[d + 1])
        if down_in and down_out:
            return False, f"P2: two consecutive backward edges at position {d}"
    for d in range(1, len(path) - 1):
        a, b, c = path[d - 1], path[d], path[d + 1]
        if bs.size(a) != bs.size(c) or bs.size(a) == bs.size(b):
            continue
        if a == c:
            return False, f"P3: path doubles back at position {d}"
        if bs.size(a) > bs.size(b):
            i, j = _step_type(b, a), _step_type(b, c)
            if not i < j:
                return False, f"P3: pit at position {d} bends left"
        else:
            i, j = _step_type(a, b), _step_type(c, b)
            if not i > j:
                return False, f"P3: peak at position {d} bends left"
    return True, ""


def is_legal_path(combi: Combi, path) -> bool:
    return legal_path_report(combi, tuple(path))[0]


def path_vertex_roles(combi: Combi, path) -> list[str]:
    """Classify internal path vertices as slope, peak, or pit."""
    path = tuple(path)
    ok, why = legal_path_report(combi, path)
    if not ok:
        raise ValueError(why)
    roles = []
    for d in range(1, len(path) - 1):
        sa, sb, sc = (bs.size(path[d - 1]), bs.size(path[d]), bs.size(path[d + 1]))
        if sa < sb < sc:
            roles.append("slope")
        elif sa > sb:
            roles.append("pit")
        else:
            roles.append("peak")
    return roles


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


def n_expand(combi: Combi, path) -> Combi:
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
            low = _fan_stretch(combi.delta_fan(peak), path[d - 2], pit, "lower filling at a peak")
            up = _fan_stretch(combi.nabla_fan(pit), peak, path[d + 1], "upper filling at a pit")
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


def mirror(combi: Combi) -> Combi:
    """Left-right mirror: relabel every element i as n+1-i."""
    n = combi.n
    deltas = [
        Delta(bs.reverse_mask(d.apex, n), n + 1 - d.high, n + 1 - d.low)
        for d in combi.deltas
    ]
    nablas = [
        Nabla(bs.reverse_mask(v.bottom, n), n + 1 - v.high, n + 1 - v.low)
        for v in combi.nablas
    ]
    lenses = [
        Lens(
            tuple(bs.reverse_mask(v, n) for v in reversed(l.upper)),
            tuple(bs.reverse_mask(v, n) for v in reversed(l.lower)),
        )
        for l in combi.lenses
    ]
    return Combi(n, deltas, nablas, lenses)


def first_contract(combi: Combi) -> tuple[Combi, tuple[int, ...]]:
    """Contract away element 1 via the mirror reflection."""
    contracted, path = n_contract(mirror(combi))
    back = mirror(contracted)
    return back, tuple(bs.reverse_mask(v, combi.n - 1) for v in path)


def first_expand(combi: Combi, path) -> Combi:
    """Insert a new smallest element along a mirrored legal path."""
    n2 = combi.n
    mirrored_path = tuple(bs.reverse_mask(v, n2) for v in path)
    return mirror(n_expand(mirror(combi), mirrored_path))


def enumerate_legal_paths(combi: Combi) -> list[tuple[int, ...]]:
    """All legal paths of a combi (simple, by depth-first search)."""
    n = combi.n
    edges = combi.vertical_edges()
    ups: dict[int, list[int]] = {}
    downs: dict[int, list[int]] = {}
    for a, b in edges:
        ups.setdefault(a, []).append(b)
        downs.setdefault(b, []).append(a)
    full = bs.full_mask(n)
    out: list[tuple[int, ...]] = []

    def walk(path: list[int], seen: set[int]) -> None:
        cur = path[-1]
        if cur == full:
            out.append(tuple(path))
            return
        went_down = len(path) >= 2 and bs.size(path[-2]) > bs.size(cur)
        for nxt in sorted(ups.get(cur, ())):
            if nxt in seen:
                continue
            if went_down:
                i, j = _step_type(cur, path[-2]), _step_type(cur, nxt)
                if not i < j:
                    continue
            path.append(nxt)
            seen.add(nxt)
            walk(path, seen)
            seen.discard(nxt)
            path.pop()
        if not went_down and len(path) >= 2:
            for nxt in sorted(downs.get(cur, ())):
                if nxt in seen:
                    continue
                i, j = _step_type(path[-2], cur), _step_type(nxt, cur)
                if not i > j:
                    continue
                path.append(nxt)
                seen.add(nxt)
                walk(path, seen)
                seen.discard(nxt)
                path.pop()

    walk([0], {0})
    return [p for p in out if legal_path_report(combi, p)[0]]
