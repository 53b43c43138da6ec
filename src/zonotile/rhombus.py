"""Rhombus tilings of the zonogon and strong (hexagon) flips.

The spectrum (vertex set) of a rhombus tiling is a maximal strongly
separated collection, and this correspondence is a bijection.  A maximal
strong collection is also a maximal weak one (both hypercubes are pure of
rank C(n+1,2)+1), and its combi is the semi-rhombus combi of its tiling:
so the tiling is read through the combi layer, its rhombi from the nablas
of the fan rule and its vertices and edges from its semi-rhombus combi.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from operator import attrgetter

from . import bitsets as bs
from ._planar import TILE_CACHE_SIZE, TilingError
from .combi import _assemble, _planar, from_rhombus
from .separation import SetFamily, cointerval_collection, interval_collection, is_maximal_separated


@dataclass(frozen=True, order=True, slots=True)
class Rhombus:
    """Tile with corners base, base+low (left), base+high (right), base+both."""

    base: int
    low: int
    high: int
    # the corners counterclockwise, from the bottom: set once
    _cycle: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 1 <= self.low < self.high:
            raise ValueError(f"need 1 <= low < high, got {self.low}, {self.high}")
        base, low, high = self.base, 1 << (self.low - 1), 1 << (self.high - 1)
        if base & (low | high):
            raise ValueError("type elements must not lie in the base set")
        object.__setattr__(self, "_cycle", (base, base | high, base | low | high, base | low))

    @property
    def bottom(self) -> int:
        return self.base

    @property
    def left(self) -> int:
        return self._cycle[3]

    @property
    def right(self) -> int:
        return self._cycle[1]

    @property
    def top(self) -> int:
        return self._cycle[2]

    def cycle(self) -> tuple[int, ...]:
        """Corner masks in counterclockwise order."""
        return self._cycle


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
        return from_rhombus(self).vertex_masks()


def _rhombus_label(t: Rhombus) -> str:
    return f"rhombus({bs.format_subset(t.base)};{t.low},{t.high})"


def validate_rhombus(tiling: RhombusTiling) -> bool:
    """Planar-tiling axioms under the exact embedding; raises TilingError
    naming the first violation in sorted tile order."""
    tiles = tiling.tiles
    return _planar(tiling.n, tiles, lambda: sorted(tiles, key=_RHOMBUS_ORDER), _rhombus_label)


def spectrum_rhombus(tiling: RhombusTiling) -> SetFamily:
    return SetFamily(tiling.n, tiling.vertex_masks())


def from_s_collection(family: SetFamily) -> RhombusTiling:
    """The unique rhombus tiling whose vertex set is the given maximal
    strongly separated collection.

    Its rhombi are the nablas of the fan rule (`combi._assemble`), each
    with the delta above it; validation certifies the result.  Every
    vertex of a tiling but the full set, which the family holds, is a
    bottom, left or right corner of a tile, so all its vertices lie in the
    family, and by purity they are all of it.
    """
    n = family.n
    if not is_maximal_separated(family, "strong"):
        raise ValueError("family is not a maximal strongly separated collection")
    _, nablas, _ = _assemble(family.as_set(), n)
    tiling = RhombusTiling(n, [shared_rhombus(v.bottom, v.low, v.high) for v in nablas])
    try:
        validate_rhombus(tiling)
    except TilingError as exc:
        raise TilingError(
            exc.axiom, f"collection does not assemble into a tiling ({exc.detail})"
        ) from exc
    return tiling


def minimal_tiling(n: int) -> RhombusTiling:
    return from_s_collection(interval_collection(n))


def maximal_tiling(n: int) -> RhombusTiling:
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
