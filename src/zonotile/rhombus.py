"""Rhombus tilings of the zonogon and strong (hexagon) flips.

The spectrum (vertex set) of a rhombus tiling is a maximal strongly
separated collection, and this correspondence is a bijection.  Such a
collection is also maximal weakly separated, and its combi is the
semi-rhombus combi of the tiling: so a `RhombusTiling` is a checked view
of that combi, and each rhombus (X; i, j) is named by its lower half, the
nabla (X; i, j).  A strong flip trades one vertex.
"""

from __future__ import annotations

from . import bitsets as bs
from ._planar import TilingError
from ._value import Value
from .combi import Combi, Nabla, from_w_collection
from .flips import _lowers, _trade
from .separation import SetFamily, cointerval_collection, interval_collection, is_maximal_separated


class RhombusTiling(Value):
    """A view of a semi-rhombus combi, one with no lens and as many deltas
    as nablas: in a valid combi, a nabla's base is an interior horizontal
    edge, and with no lens the tile above it is the delta on that base."""

    combi: Combi

    def _fill(self, combi: Combi) -> None:
        deltas, nablas = len(combi.deltas), len(combi.nablas)
        if combi.lenses:
            raise TilingError("rhombus", f"{min(combi.lenses)} is not half of a rhombus")
        if deltas != nablas:
            raise TilingError("rhombus", f"{deltas} deltas do not pair with {nablas} nablas")
        super()._fill(combi)

    @property
    def n(self) -> int:
        return self.combi.n

    @property
    def tiles(self) -> frozenset[Nabla]:
        """The rhombi, each named by its lower half."""
        return self.combi.nablas

    def vertex_masks(self) -> frozenset[int]:
        return self.combi.vertex_masks()


def from_s_collection(family: SetFamily) -> RhombusTiling:
    """The unique rhombus tiling whose vertex set is the given maximal
    strongly separated collection: the view of its combi, which
    `from_w_collection` reconstructs and certifies."""
    if not is_maximal_separated(family, "strong"):
        raise ValueError("family is not a maximal strongly separated collection")
    return RhombusTiling(from_w_collection(family, check_input=False))


def minimal_tiling(n: int) -> RhombusTiling:
    return from_s_collection(interval_collection(n))


def maximal_tiling(n: int) -> RhombusTiling:
    return from_s_collection(cointerval_collection(n))


def _hexagon(base: int, i: int, j: int, k: int) -> tuple[tuple[Nabla, ...], tuple[Nabla, ...]]:
    """The hexagon at base set X and types i < j < k: its lowered rhombi
    (X;i,j), (X;j,k), (X+j;i,k) and its raised ones (X+k;i,j), (X+i;j,k),
    (X;i,k); a flip in a direction that lowers removes the raised ones."""
    si, sj, sk = bs.singleton(i), bs.singleton(j), bs.singleton(k)
    lowered = (Nabla(base, i, j), Nabla(base, j, k), Nabla(base | sj, i, k))
    raised = (Nabla(base | sk, i, j), Nabla(base | si, j, k), Nabla(base, i, k))
    return lowered, raised


def strong_flip(tiling: RhombusTiling, base: int, i: int, j: int, k: int, direction: str) -> RhombusTiling:
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
        for m in bs.iter_elements(bs.full_mask(tiling.n) ^ (t.left | t.right)):
            hexagon = (t.bottom, t.low, m, t.high) if side else (t.bottom, t.low, t.high, m)
            if hexagon[1] < hexagon[2] < hexagon[3] and tiles.issuperset(_hexagon(*hexagon)[side]):
                out.append(hexagon)
    return out
