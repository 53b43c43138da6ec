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
    violation, naming the tile by `label(tile)`.
    """
    table = embedding_table(gens)
    used: set[tuple[int, int]] = set()
    total2 = 0
    for tile, cyc in cycles:
        m = len(cyc)
        if m < 3:
            raise TilingError("tile-shape", f"{label(tile)} has fewer than 3 vertices")
        if len(set(cyc)) != m:
            raise TilingError("tile-shape", f"{label(tile)} repeats a vertex")
        pts = [table[v] for v in cyc]
        if m == 3:
            # a triangle turns the same way at every vertex, by twice its area
            (ax, ay), (bx, by), (cx, cy) = pts
            area = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
            bent = 0 if area <= 0 else None
        else:
            bent, area = _turns(pts)
        if bent is not None:
            raise TilingError(
                "tile-convexity",
                f"{label(tile)} is not strictly convex and counterclockwise at "
                f"vertex index {bent}",
            )
        total2 += area
        for e in zip(cyc, [*cyc[1:], cyc[0]]):
            if e in used:
                raise TilingError("edge-sharing", f"directed edge {e} used twice")
            used.add(e)

    bnd = set(boundary)
    if len(bnd) != len(boundary):
        e = next(e for e, c in Counter(boundary).items() if c > 1)
        raise TilingError("region-boundary", f"boundary edge {e} repeated")
    # Each directed edge must be used by the tiles, net of its reverse, as
    # often as by the boundary: the multisets used + rev(bnd) and
    # bnd + rev(used) agree, that is their unions and intersections do.
    rev = {(v, u) for u, v in used}
    rbnd = {(v, u) for u, v in bnd}
    if (used | rbnd) != (bnd | rev) or (used & rbnd) != (bnd & rev):
        e = min(
            e for e in used | bnd if (e in used) - (e in rev) != (e in bnd) - (e in rbnd)
        )
        if e in bnd or e in rbnd:
            raise TilingError(
                "region-boundary",
                f"boundary edge {e} not covered exactly once by the tiles",
            )
        raise TilingError(
            "edge-sharing",
            f"interior edge {e} is not shared by tiles on both sides",
        )
    if total2 != area2:
        raise TilingError(
            "area", f"tile areas sum to {total2}/2, region area is {area2}/2"
        )
    return True
