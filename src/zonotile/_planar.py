"""Shared exact validation of planar tile covers.

A family of convex, positively oriented polygons exactly tiles a region if
and only if their directed boundary edges cancel in opposite pairs except
for the directed boundary of the region, each direction being used at most
once.  (The covering degree of any generic point then equals the winding
number of the region boundary, which is 1.)  This gives a complete
O(edges) certificate with no pairwise intersection tests.

`check_planar_cover` checks it in one pass over the tiles: one determinant
per triangle, one turn loop per larger tile, and every directed edge into
one list whose set must be as long as the list.  Nothing is named on the
way; only when a check fails is the first violation in tile order worked
out and named.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Sequence
from functools import lru_cache

from .geometry import Generators, boundary_cycle, embedding_table


class TilingError(ValueError):
    """A planar-tiling axiom failed; `axiom` names the first violated one."""

    def __init__(self, axiom: str, detail: str = "") -> None:
        self.axiom = axiom
        self.detail = detail
        super().__init__(f"{axiom}: {detail}" if detail else axiom)


@lru_cache(maxsize=64)
def zonogon_region(gens: Generators) -> tuple[tuple[tuple[int, int], ...], int]:
    """The zonogon's counterclockwise directed boundary edges and doubled area."""
    cyc = boundary_cycle(gens)
    boundary = tuple((cyc[k], cyc[(k + 1) % len(cyc)]) for k in range(len(cyc)))
    return boundary, gens.zonogon_area2()


def check_planar_cover(
    gens: Generators,
    cycles: list[tuple[object, list[int]]],
    boundary: Sequence[tuple[int, int]],
    area2: int,
    label: Callable[[object], str] = str,
) -> bool:
    """Verify that `cycles`, (tile, CCW vertex-mask cycle) pairs, exactly tile
    the region whose counterclockwise directed boundary edges are `boundary`
    and whose doubled area is `area2`.  Raises TilingError on the first
    violation, naming the tile by `label(tile)`.  Tiles are taken in order,
    each checked for its shape, then its convexity, then for a directed
    edge an earlier tile used; the region's boundary, the cancellation of
    the edges and the area come after.  The verdict does not depend on the
    order, only the error does: `combi._planar`, through which combies and
    rhombus tilings are validated, passes the tiles as they come and, on
    failure, again in tile order.  Every mask must be a subset of
    {1..gens.n}, as the Combi and RhombusTiling constructors ensure.
    """
    table = embedding_table(gens)
    # A directed edge (u, v) is kept as the int u << 16 | v: every mask is
    # below 2**16 (bitsets.MAX_GROUND is 16), so ints order as the pairs do.
    keys: list[int] = []
    total2 = 0
    for tile, cyc in cycles:
        m = len(cyc)
        if m == 3:
            a, b, c = cyc
            (ax, ay), (bx, by), (cx, cy) = table[a], table[b], table[c]
            # a triangle turns the same way at every vertex, by twice its
            # area, which is 0 if it repeats a vertex
            area = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
            if area <= 0:
                raise _tile_fault(keys, tile, cyc, 0, label)
            keys += (a << 16 | b, b << 16 | c, c << 16 | a)
        else:
            if m < 3 or len(set(cyc)) != m:
                raise _tile_fault(keys, tile, cyc, None, label)
            # the turn at vertex u = cyc[k + m - 1], from index 0 on, onto
            # its successor v = cyc[k]: cyc[1 - m] is cyc[1], and cyc[0] last
            u = cyc[0]
            (ax, ay), (bx, by) = table[cyc[-1]], table[u]
            area = 0
            for k in range(1 - m, 1):
                v = cyc[k]
                cx, cy = table[v]
                if (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) <= 0:
                    bent = k + m - 1
                    del keys[len(keys) - bent :]  # this tile's edges so far
                    raise _tile_fault(keys, tile, cyc, bent, label)
                area += bx * cy - by * cx
                keys.append(u << 16 | v)
                u = v
                ax, ay, bx, by = bx, by, cx, cy
        total2 += area
    used = set(keys)
    if len(used) != len(keys):
        raise _edge_twice(keys)

    bnd = {u << 16 | v for u, v in boundary}
    if len(bnd) != len(boundary):
        e = next(e for e, c in Counter(boundary).items() if c > 1)
        raise TilingError("region-boundary", f"boundary edge {e} repeated")
    # Each directed edge must be used by the tiles, net of its reverse, as
    # often as by the boundary.  With no edge used twice, the net use of e
    # is 1 if e is used and its reverse is not, -1 if the reverse is used
    # and e is not, and 0 otherwise: so the edges used without their
    # reverse must be the same for the tiles as for the boundary.
    if {k for k in used if (k & 0xFFFF) << 16 | k >> 16 not in used} != {
        k for k in bnd if (k & 0xFFFF) << 16 | k >> 16 not in bnd
    }:
        rev = {(k & 0xFFFF) << 16 | k >> 16 for k in used}
        rbnd = {(k & 0xFFFF) << 16 | k >> 16 for k in bnd}
        e = min(
            e for e in used | bnd if (e in used) - (e in rev) != (e in bnd) - (e in rbnd)
        )
        if e in bnd or e in rbnd:
            raise TilingError(
                "region-boundary",
                f"boundary edge {_pair(e)} not covered exactly once by the tiles",
            )
        raise TilingError(
            "edge-sharing",
            f"interior edge {_pair(e)} is not shared by tiles on both sides",
        )
    if total2 != area2:
        raise TilingError(
            "area", f"tile areas sum to {total2}/2, region area is {area2}/2"
        )
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


def _tile_fault(
    keys: list[int], tile: object, cyc: list[int], bent: int | None, label: Callable[[object], str]
) -> TilingError:
    """The error for a tile whose shape or convexity fails, with `keys` the
    edges of the tiles before it: an edge those tiles used twice comes
    first, then too few vertices, a repeated one, and the vertex index
    `bent` where the tile stops turning left."""
    err = _edge_twice(keys)
    if err is not None:
        return err
    if len(cyc) < 3:
        return TilingError("tile-shape", f"{label(tile)} has fewer than 3 vertices")
    if len(set(cyc)) != len(cyc):
        return TilingError("tile-shape", f"{label(tile)} repeats a vertex")
    return TilingError(
        "tile-convexity",
        f"{label(tile)} is not strictly convex and counterclockwise at vertex index {bent}",
    )


def _pair(key: int) -> tuple[int, int]:
    """The directed edge (u, v) kept as u << 16 | v."""
    return (key >> 16, key & 0xFFFF)
