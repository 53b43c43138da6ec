"""Shared exact validation of planar tile covers.

A family of convex, positively oriented polygons exactly tiles a region if
and only if their directed boundary edges cancel in opposite pairs except
for the directed boundary of the region, each direction being used at most
once.  (The covering degree of any generic point then equals the winding
number of the region boundary, which is 1.)  This gives a complete
O(edges) certificate with no pairwise intersection tests.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Sequence
from functools import lru_cache

from .geometry import Generators, Point, boundary_cycle, embedding_table


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


def _turns(pts: list[Point]) -> tuple[int | None, int]:
    """The first vertex index where the polygon fails to turn strictly left
    (None if there is none), and its doubled signed area."""
    m = len(pts)
    bent = None
    area = 0
    ax, ay = pts[-1]
    bx, by = pts[0]
    for k in range(m):
        cx, cy = pts[(k + 1) % m]
        if bent is None and (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) <= 0:
            bent = k
        area += bx * cy - by * cx
        ax, ay, bx, by = bx, by, cx, cy
    return bent, area


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
    violation, naming the tile by `label(tile)`.  Every mask must be a
    subset of {1..gens.n}, as the Combi and RhombusTiling constructors
    ensure.
    """
    table = embedding_table(gens)
    # A directed edge (u, v) is kept as the int u << 16 | v: every mask is
    # below 2**16 (bitsets.MAX_GROUND is 16), so ints order as the pairs do.
    used: set[int] = set()
    total2 = 0
    for tile, cyc in cycles:
        if len(cyc) == 3:
            a, b, c = cyc
            if a == b or b == c or c == a:
                raise TilingError("tile-shape", f"{label(tile)} repeats a vertex")
            (ax, ay), (bx, by), (cx, cy) = table[a], table[b], table[c]
            # a triangle turns the same way at every vertex, by twice its area
            area = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
            bent = 0 if area <= 0 else None
            keys = [a << 16 | b, b << 16 | c, c << 16 | a]
        else:
            m = len(cyc)
            if m < 3:
                raise TilingError("tile-shape", f"{label(tile)} has fewer than 3 vertices")
            if len(set(cyc)) != m:
                raise TilingError("tile-shape", f"{label(tile)} repeats a vertex")
            bent, area = _turns([table[v] for v in cyc])
            keys = [u << 16 | v for u, v in zip(cyc, (*cyc[1:], cyc[0]))]
        if bent is not None:
            raise TilingError(
                "tile-convexity",
                f"{label(tile)} is not strictly convex and counterclockwise at "
                f"vertex index {bent}",
            )
        total2 += area
        # The vertices are distinct, so the tile's own edges are too; the
        # first one already used is found walking from (cyc[0], cyc[1]).
        if not used.isdisjoint(keys):
            e = next(k for k in keys if k in used)
            raise TilingError("edge-sharing", f"directed edge {_pair(e)} used twice")
        used.update(keys)

    bnd = {u << 16 | v for u, v in boundary}
    if len(bnd) != len(boundary):
        e = next(e for e, c in Counter(boundary).items() if c > 1)
        raise TilingError("region-boundary", f"boundary edge {e} repeated")
    # Each directed edge must be used by the tiles, net of its reverse, as
    # often as by the boundary: the multisets used + rev(bnd) and
    # bnd + rev(used) agree, that is their unions and intersections do.
    rev = {(k & 0xFFFF) << 16 | k >> 16 for k in used}
    rbnd = {(k & 0xFFFF) << 16 | k >> 16 for k in bnd}
    if (used | rbnd) != (bnd | rev) or (used & rbnd) != (bnd & rev):
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


def _pair(key: int) -> tuple[int, int]:
    """The directed edge (u, v) kept as u << 16 | v."""
    return (key >> 16, key & 0xFFFF)
