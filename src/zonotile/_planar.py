"""Shared exact validation of planar tile covers.

A family of convex, positively oriented polygons exactly tiles a region if
and only if their directed boundary edges cancel in opposite pairs except
for the directed boundary of the region, each direction being used at most
once.  (The covering degree of any generic point then equals the winding
number of the region boundary, which is 1.)  This gives a complete
O(edges) certificate with no pairwise intersection tests.

`check_planar_cover` checks it in two stages.  Each tile's shape,
convexity, directed edges and area are a pure function of its vertex cycle
and the generators, memoised per generator set in a dict keyed by the
cycle's vertex tuple, so a distinct tile is worked out once however many
covers hold it.  The whole cover is then checked on every call, by set
lookups: no directed edge used twice, the edges cancelling against the
region's boundary, and the areas summing to the region's.  Only when a
check fails is the first violation in tile order worked out and named.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from functools import lru_cache

from ._value import _set
from .geometry import Generators, boundary_cycle, default_generators, embedding_table, polygon_area2

# C(10,2)·2^8 = 11,520 is the number of deltas, and of nablas, with
# n <= 10, so up to n = 10 none of them is ever evicted from the tile
# caches of `combi`, one per tile class, nor a cycle from the tile-shape
# memo of a generator set; README gives what a full cache or memo holds.
TILE_CACHE_SIZE = 11_520


class TilingError(ValueError):
    """A planar-tiling axiom failed; `axiom` names the first violated one."""

    def __init__(self, axiom: str, detail: str = "") -> None:
        self.axiom = axiom
        self.detail = detail
        super().__init__(f"{axiom}: {detail}" if detail else axiom)


_SPREAD = 106_039  # 2**16 + 0x9E37


def edge_key(u: int, v: int) -> int:
    """The key of the directed edge (u, v): one-to-one and ordered as the pairs are, as every mask is
    below 2**16 (bitsets.MAX_GROUND is 16); odd _SPREAD mixes u into the low bits that pick a set slot."""
    return u * _SPREAD + v


class _Boundary(tuple):
    """A region's directed boundary edges (u, v), with `keys`, their `edge_key`s,
    `unpaired`, the keys whose reverse is not one, and `outward`, their reverses."""

    def __init__(self, edges: Sequence[tuple[int, int]]) -> None:
        self.keys = frozenset(edge_key(u, v) for u, v in self)
        back = frozenset(edge_key(v, u) for u, v in self)
        self.unpaired, self.outward = self.keys - back, back - self.keys


def zonogon_region(gens: Generators) -> tuple[_Boundary, int]:
    """The zonogon's counterclockwise directed boundary edges and doubled area."""
    cyc, table = boundary_cycle(gens.n), embedding_table(gens)
    return _Boundary(zip(cyc, [*cyc[1:], cyc[0]])), polygon_area2([table[v] for v in cyc])


@lru_cache(maxsize=64)
def default_region(n: int) -> tuple[Generators, _Boundary, int]:
    """`default_generators(n)` and its `zonogon_region`, in one lookup per n."""
    gens = default_generators(n)
    return (gens, *zonogon_region(gens))


class _TileShapes(dict):
    """memo[cyc]: the directed-edge keys of the vertex cycle `cyc`, from (cyc[0], cyc[1]) on,
    their reverses' keys and its doubled area in the embedding `table`, kept by `cyc`, the
    earliest dropped past TILE_CACHE_SIZE.  Raises TilingError, whose detail names no tile,
    and keeps nothing, unless `cyc` has 3 distinct vertices or more and turns strictly left
    at each."""

    __slots__ = ("table",)

    def __missing__(self, cyc: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...], int]:
        m = len(cyc)
        if m < 3:
            raise TilingError("tile-shape", "has fewer than 3 vertices")
        if len(set(cyc)) != m:
            raise TilingError("tile-shape", "repeats a vertex")
        pts = [self.table[v] for v in cyc]
        area = 0
        for k in range(m):
            # the turn at pts[k] from its predecessor onto its successor
            (ax, ay), (bx, by), (cx, cy) = pts[k - 1], pts[k], pts[k + 1 - m]
            if (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) <= 0:
                detail = f"is not strictly convex and counterclockwise at vertex index {k}"
                raise TilingError("tile-convexity", detail)
            area += bx * cy - by * cx
        edges = list(zip(cyc, (*cyc[1:], cyc[0])))
        if len(self) >= TILE_CACHE_SIZE:
            del self[next(iter(self))]
        shape = self[cyc] = tuple(edge_key(u, v) for u, v in edges), tuple(edge_key(v, u) for u, v in edges), area
        return shape


def _tile_shapes(gens: Generators) -> _TileShapes:
    """The tile-shape memo of `gens`, kept on `gens` itself, so finding it hashes nothing."""
    if (memo := getattr(gens, "_shapes", None)) is None:
        memo = _TileShapes()
        memo.table = embedding_table(gens)
        _set(gens, "_shapes", memo)
    return memo


def check_planar_cover(
    gens: Generators, cycles: list[tuple[object, Sequence[int]]], boundary: Sequence[tuple[int, int]], area2: int
) -> bool:
    """Verify that `cycles`, (tile, CCW vertex-mask cycle) pairs, exactly tile
    the region whose counterclockwise directed boundary edges are `boundary`
    and whose doubled area is `area2`.  Raises TilingError on the first
    violation, naming the tile by its str.  Tiles are taken in order,
    each checked for its shape, then its convexity, then for a directed
    edge an earlier tile used; the region's boundary, the cancellation of
    the edges and the area come after.  The verdict does not depend on the
    order, only the error does.  Every mask must be a subset of
    {1..gens.n}, as the Combi constructor ensures.

    Cancellation is decided by lookups.  With no edge used twice, an edge's
    net use is +1, -1 or 0, so the used edges E cancel just when E - rev(E)
    = P, the boundary's edges whose reverse is not one.  That holds just when
    (a) P lies in E, (b) rev(P) misses E and (c) rev(E) lies in E and rev(P).
    If E - rev(E) = P: (a) is plain; an e of E in rev(P) would have rev(e)
    in P, so e not in E; and a used e with rev(e) unused is in P.  Given (a)
    to (c): a p of P is used and rev(p), in rev(P), is not; and a used e
    with rev(e) unused has rev(e) in rev(P) by (c), so e is in P.
    """
    shape = _tile_shapes(gens)
    keys: list[int] = []
    back: list[int] = []  # the reverse of each key
    total2 = 0
    for tile, cyc in cycles:
        try:
            edges, reverse, area = shape[tuple(cyc)]
        except TilingError as fault:  # an edge the tiles before used twice comes first
            raise _edge_twice(keys) or TilingError(fault.axiom, f"{tile} {fault.detail}") from None
        keys += edges
        back += reverse
        total2 += area
    used = set(keys)
    if len(used) != len(keys):
        raise _edge_twice(keys)

    boundary = boundary if isinstance(boundary, _Boundary) else _Boundary(boundary)
    bnd = boundary.keys
    if len(bnd) != len(boundary):
        e = next(e for e, c in Counter(boundary).items() if c > 1)
        raise TilingError("region-boundary", f"boundary edge {e} repeated")
    # (a) and (b) of the docstring, then (c) with rev(P) added to E
    outward = boundary.outward
    cancels = used.issuperset(boundary.unpaired) and used.isdisjoint(outward)
    if cancels:
        used |= outward
        cancels = used.issuperset(back)
    if not cancels:
        used, rev = set(keys), set(back)
        rbnd = {edge_key(v, u) for u, v in boundary}
        e = min(e for e in used | bnd if (e in used) - (e in rev) != (e in bnd) - (e in rbnd))
        if e in bnd or e in rbnd:
            raise TilingError("region-boundary", f"boundary edge {_pair(e)} not covered exactly once by the tiles")
        raise TilingError("edge-sharing", f"interior edge {_pair(e)} is not shared by tiles on both sides")
    if total2 != area2:
        raise TilingError("area", f"tile areas sum to {total2}/2, region area is {area2}/2")
    return True


def _edge_twice(keys: list[int]) -> TilingError | None:
    """The error for the first key of `keys` that repeats an earlier one,
    None if none does.  Within one tile of distinct vertices the keys are
    distinct, so this is the first edge, in tile order, that an earlier
    tile used."""
    seen: set[int] = set()
    for k in keys:
        if k in seen:
            return TilingError("edge-sharing", f"directed edge {_pair(k)} used twice")
        seen.add(k)
    return None


def _pair(key: int) -> tuple[int, int]:
    """The directed edge (u, v) whose `edge_key` is `key`."""
    return divmod(key, _SPREAD)
