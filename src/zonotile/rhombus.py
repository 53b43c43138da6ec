"""Rhombus tilings of the zonogon and strong (hexagon) flips.

The spectrum (vertex set) of a rhombus tiling is a maximal strongly
separated collection, and this correspondence is a bijection; both
directions are implemented and cross-validated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from operator import attrgetter

from . import bitsets as bs
from ._planar import TilingError, check_planar_cover, zonogon_region
from .geometry import default_generators
from .separation import SetFamily, is_maximal_separated


@dataclass(frozen=True, order=True, slots=True)
class Rhombus:
    """Tile with corners base, base+low (left), base+high (right), base+both."""

    base: int
    low: int
    high: int

    def __post_init__(self) -> None:
        if not 1 <= self.low < self.high:
            raise ValueError(f"need 1 <= low < high, got {self.low}, {self.high}")
        if self.base & ((1 << (self.low - 1)) | (1 << (self.high - 1))):
            raise ValueError("type elements must not lie in the base set")

    @property
    def bottom(self) -> int:
        return self.base

    @property
    def left(self) -> int:
        return self.base | (1 << (self.low - 1))

    @property
    def right(self) -> int:
        return self.base | (1 << (self.high - 1))

    @property
    def top(self) -> int:
        return self.base | (1 << (self.low - 1)) | (1 << (self.high - 1))

    def cycle(self) -> list[int]:
        """Corner masks in counterclockwise order."""
        base, low, high = self.base, 1 << (self.low - 1), 1 << (self.high - 1)
        return [base, base | high, base | low | high, base | low]


# C(10,2)·2^8 = 11,520 is the number of rhombi, and of deltas and of
# nablas, with n <= 10, so up to n = 10 none of them is ever evicted.  A
# full cache holds at most 2.7 MB of these triangles or rhombi, or 8 MB of
# lenses with the longest paths at n = 16 (tracemalloc, Python 3.11).
TILE_CACHE_SIZE = 11_520

# One checked instance per distinct rhombus, for the sites that build every
# tile of a tiling: each tile runs its constructor check on its first build
# only, and a failure, never cached, raises every time.
shared_rhombus = lru_cache(maxsize=TILE_CACHE_SIZE)(Rhombus)


# Sort key giving the dataclass's own order (its fields compared in turn),
# faster than sorting by the generated __lt__.
_RHOMBUS_ORDER = attrgetter("base", "low", "high")


@dataclass(frozen=True)
class RhombusTiling:
    n: int
    tiles: frozenset[Rhombus]

    def __init__(self, n: int, tiles) -> None:
        bs.check_ground(n)
        tset = frozenset(tiles)
        # Every vertex lies in a top; the tiles are scanned one by one, in
        # sorted order, only to name the first one out of range.
        span = 0
        for t in tset:
            span |= t.top
        if span & ~bs.full_mask(n):
            for t in sorted(tset, key=_RHOMBUS_ORDER):
                bs.check_subset(t.top, n)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "tiles", tset)

    def vertex_masks(self) -> frozenset[int]:
        verts = set()
        for t in self.tiles:
            verts.update(t.cycle())
        if self.n == 1:
            verts.update((0, 1))
        return frozenset(verts)

    def edges(self) -> frozenset[tuple[int, int]]:
        """Upward directed tile edges (X, X+i)."""
        out = set()
        for t in self.tiles:
            out.add((t.bottom, t.left))
            out.add((t.bottom, t.right))
            out.add((t.left, t.top))
            out.add((t.right, t.top))
        if self.n == 1:
            out.add((0, 1))
        return frozenset(out)


def _rhombus_label(t: Rhombus) -> str:
    return f"rhombus({bs.format_subset(t.base)};{t.low},{t.high})"


def validate_rhombus(tiling: RhombusTiling) -> bool:
    """Planar-tiling axioms under the exact embedding; raises TilingError
    naming the first violation in sorted tile order."""
    gens = default_generators(tiling.n)
    region = zonogon_region(gens)
    try:
        return check_planar_cover(gens, [(t, t.cycle()) for t in tiling.tiles], *region, _rhombus_label)
    except TilingError:
        # the verdict does not depend on the tile order, only the error does
        cycles = [(t, t.cycle()) for t in sorted(tiling.tiles, key=_RHOMBUS_ORDER)]
        return check_planar_cover(gens, cycles, *region, _rhombus_label)


def spectrum_rhombus(tiling: RhombusTiling) -> SetFamily:
    return SetFamily(tiling.n, tiling.vertex_masks())


def from_s_collection(family: SetFamily) -> RhombusTiling:
    """The unique rhombus tiling whose vertex set is the given maximal
    strongly separated collection.

    Tiles are exactly the quadruples X, X+i, X+j, X+ij present in the family
    (no other subset point can fall inside such a rhombus, so each quadruple
    bounds a tile); validation certifies the result.
    """
    n = family.n
    if not is_maximal_separated(family, "strong"):
        raise ValueError("family is not a maximal strongly separated collection")
    present = family.as_set()
    bits = [(i, 1 << (i - 1)) for i in range(1, n + 1)]
    tiles = []
    for x in family.members:
        ups = [(i, x | b) for i, b in bits if not x & b and x | b in present]
        for (i, left), (j, right) in combinations(ups, 2):
            if left | right in present:
                tiles.append(shared_rhombus(x, i, j))
    tiling = RhombusTiling(n, tiles)
    try:
        validate_rhombus(tiling)
    except TilingError as exc:
        raise TilingError(
            exc.axiom, f"collection does not assemble into a tiling ({exc.detail})"
        ) from exc
    return tiling


def minimal_tiling(n: int) -> RhombusTiling:
    from .separation import interval_collection

    return from_s_collection(interval_collection(n))


def maximal_tiling(n: int) -> RhombusTiling:
    from .separation import cointerval_collection

    return from_s_collection(cointerval_collection(n))


def strong_flip(
    tiling: RhombusTiling, base: int, i: int, j: int, k: int, direction: str
) -> RhombusTiling:
    """Hexagon flip at base set X and types i < j < k.

    raise: tiles (X;i,j), (X;j,k), (X+j;i,k) become (X+k;i,j), (X+i;j,k), (X;i,k),
    moving the spectrum vertex X+j to X+i+k.  lower: the inverse.  The
    flipped tiling is validated, so an invalid input raises TilingError.
    """
    if not i < j < k:
        raise ValueError("types must satisfy i < j < k")
    sj = bs.singleton(j)
    lowered = (Rhombus(base, i, j), Rhombus(base, j, k), Rhombus(base | sj, i, k))
    raised = (
        Rhombus(base | bs.singleton(k), i, j),
        Rhombus(base | bs.singleton(i), j, k),
        Rhombus(base, i, k),
    )
    if direction == "raise":
        old, new = lowered, raised
    elif direction == "lower":
        old, new = raised, lowered
    else:
        raise ValueError(f"direction must be 'raise' or 'lower', got {direction!r}")
    tiles = set(tiling.tiles)
    if not all(t in tiles for t in old):
        raise ValueError("hexagon witnesses are not present in the tiling")
    tiles.difference_update(old)
    tiles.update(new)
    flipped = RhombusTiling(tiling.n, tiles)
    validate_rhombus(flipped)
    return flipped


def hexagons(tiling: RhombusTiling, direction: str) -> list[tuple[int, int, int, int]]:
    """All (base, i, j, k) admitting a strong flip in the given direction."""
    tiles = tiling.tiles
    out = []
    for t in sorted(tiles):
        if direction == "raise":
            i, j = t.low, t.high
            for k in range(j + 1, tiling.n + 1):
                if bs.has(t.base, k):
                    continue
                if Rhombus(t.base, j, k) in tiles and Rhombus(t.base | bs.singleton(j), i, k) in tiles:
                    out.append((t.base, i, j, k))
        else:
            i, k = t.low, t.high
            for j in range(i + 1, k):
                if bs.has(t.base, j):
                    continue
                if (
                    Rhombus(t.base | bs.singleton(k), i, j) in tiles
                    and Rhombus(t.base | bs.singleton(i), j, k) in tiles
                ):
                    out.append((t.base, i, j, k))
    return out
