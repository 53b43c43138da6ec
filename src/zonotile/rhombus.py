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
from .combi import Combi, Nabla, find_m_configs, find_w_configs, from_w_collection, shared_delta, shared_nabla
from .flips import _lowers, _trade, _traded
from .separation import SetFamily, cointerval_collection, interval_collection, is_maximal_separated


class RhombusTiling(Value):
    """A view of a semi-rhombus combi, one with no lens and as many deltas
    as nablas: in a valid combi, a nabla's base is an interior horizontal
    edge, and with no lens the tile above it is the delta on that base."""

    combi: Combi

    def _fill(self, combi: Combi) -> None:
        deltas, nablas = len(combi._deltas), len(combi._nablas)
        if combi._lenses:
            raise TilingError("rhombus", f"{combi._lenses[0]} is not half of a rhombus")
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


def strong_flip(tiling: RhombusTiling, base: int, i: int, j: int, k: int, direction: str) -> RhombusTiling:
    """Hexagon flip at base set X and types i < j < k, one that `hexagons` lists.

    raise: tiles (X;i,j), (X;j,k), (X+j;i,k) become (X+k;i,j), (X+i;j,k), (X;i,k),
    trading the spectrum vertex X+j for X+i+k.  lower: the inverse.  Its
    witnesses are the M-configuration's deltas (the W-configuration's
    nablas) and the third rhombus.  The result is `from_s_collection` of
    the traded vertex set, so certified.
    """
    gone, came = _trade(base, i, j, k, direction)
    xi, xj, xk = (base | bs.singleton(t) for t in (i, j, k))
    if _lowers(direction):
        witnesses = (shared_nabla(xi, j, k), shared_nabla(xk, i, j), shared_nabla(base, i, k))
    else:
        witnesses = (shared_delta(xi | xj, i, j), shared_delta(xj | xk, j, k), shared_nabla(xj, i, k))
    if not set(tiling.combi.tiles()).issuperset(witnesses):
        raise ValueError("hexagon witnesses are not present in the tiling")
    return from_s_collection(_traded(tiling.combi, gone, came))


def hexagons(tiling: RhombusTiling, direction: str) -> list[tuple[int, int, int, int]]:
    """All (base, i, j, k) admitting a strong flip in the given direction,
    ascending: the combi's M-configurations (raise) or W-configurations
    (lower), two of a hexagon's rhombi through its inner vertex, whose
    third rhombus, (X+j;i,k) or (X;i,k), is a tile."""
    lowers = _lowers(direction)
    configs = find_w_configs(tiling.combi) if lowers else find_m_configs(tiling.combi)
    rhombi = tiling.tiles
    return [(c.core, c.i, c.j, c.k) for c in configs
            if shared_nabla(c.core if lowers else c.core | bs.singleton(c.j), c.i, c.k) in rhombi]
