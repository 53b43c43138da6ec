"""Rhombus tilings of the zonogon and strong (hexagon) flips.

The spectrum (vertex set) of a rhombus tiling is a maximal strongly
separated collection, and this correspondence is a bijection.  A maximal
strong collection is also a maximal weak one (both hypercubes are pure of
rank C(n+1,2)+1), and its combi is the semi-rhombus combi of its tiling:
so the tiling is read through the combi layer, its rhombi from the nablas
of the fan rule and its vertices and edges from its semi-rhombus combi.  A
strong flip trades one vertex, and `from_s_collection` certifies the result.
"""

from __future__ import annotations

from functools import lru_cache

from . import bitsets as bs
from ._planar import TILE_CACHE_SIZE, TilingError
from ._value import Value
from .combi import Tile, _assemble, _planar, from_rhombus
from .flips import _lowers, _trade
from .separation import SetFamily, cointerval_collection, interval_collection, is_maximal_separated


class Rhombus(Tile):
    """Tile with corners base, base+low (left), base+high (right), base+both."""

    __slots__ = ("base", "low", "high")
    base: int
    low: int
    high: int
    _holds = False
    _wrong = "type elements must not lie in the base set"
    _recipe = staticmethod(lambda base, lo, hi: (base, base | hi, base | lo | hi, base | lo))

    @property
    def top(self) -> int:
        return self._cycle[2]


# One checked instance per distinct rhombus, for the sites that build every
# tile of a tiling: each tile runs its constructor check on its first build
# only, and a failure, never cached, raises every time.
shared_rhombus = lru_cache(maxsize=TILE_CACHE_SIZE)(Rhombus)


class RhombusTiling(Value):
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
            for t in sorted(tset, key=Rhombus._values):
                bs.check_subset(t.top, n)
        self._fill(n, tset)

    def vertex_masks(self) -> frozenset[int]:
        return from_rhombus(self).vertex_masks()


def validate_rhombus(tiling: RhombusTiling) -> bool:
    """Planar-tiling axioms under the exact embedding; raises TilingError
    naming the first violation in sorted tile order."""
    tiles = tiling.tiles
    return _planar(tiling.n, tiles, lambda: sorted(tiles, key=Rhombus._values))


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


def _hexagon(base: int, i: int, j: int, k: int) -> tuple[tuple[Rhombus, ...], tuple[Rhombus, ...]]:
    """The hexagon at base set X and types i < j < k: its lowered rhombi
    (X;i,j), (X;j,k), (X+j;i,k) and its raised ones (X+k;i,j), (X+i;j,k),
    (X;i,k); a flip in a direction that lowers removes the raised ones."""
    si, sj, sk = bs.singleton(i), bs.singleton(j), bs.singleton(k)
    lowered = (Rhombus(base, i, j), Rhombus(base, j, k), Rhombus(base | sj, i, k))
    raised = (Rhombus(base | sk, i, j), Rhombus(base | si, j, k), Rhombus(base, i, k))
    return lowered, raised


def strong_flip(
    tiling: RhombusTiling, base: int, i: int, j: int, k: int, direction: str
) -> RhombusTiling:
    """Hexagon flip at base set X and types i < j < k.

    raise: tiles (X;i,j), (X;j,k), (X+j;i,k) become (X+k;i,j), (X+i;j,k), (X;i,k),
    trading the spectrum vertex X+j for X+i+k.  lower: the inverse.  The
    result is `from_s_collection` of the traded vertex set, so certified.
    """
    gone, came = _trade(base, i, j, k, direction)
    if not tiling.tiles.issuperset(_hexagon(base, i, j, k)[_lowers(direction)]):
        raise ValueError("hexagon witnesses are not present in the tiling")
    return from_s_collection(SetFamily(tiling.n, tiling.vertex_masks() - {gone} | {came}))


def hexagons(tiling: RhombusTiling, direction: str) -> list[tuple[int, int, int, int]]:
    """All (base, i, j, k) admitting a strong flip in the given direction:
    by the removed tile (X;i,j) or (X;i,k) in sorted order, then by the
    third type ascending, which no corner of that tile holds."""
    side = _lowers(direction)
    tiles, out = tiling.tiles, []
    for t in sorted(tiles):
        for m in bs.iter_elements(bs.full_mask(tiling.n) ^ t.top):
            hexagon = (t.base, t.low, m, t.high) if side else (t.base, t.low, t.high, m)
            if hexagon[1] < hexagon[2] < hexagon[3] and tiles.issuperset(_hexagon(*hexagon)[side]):
                out.append(hexagon)
    return out
