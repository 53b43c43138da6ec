"""Combined tilings (combies): triangles and lenses tiling the zonogon.

A combi is a planar tiling whose edges are either vertical steps (congruent
to a generator, adding one element) or horizontal steps (trading a smaller
element for a larger one).  Its tiles are:

  Delta  - upward triangle, apex on top, horizontal base below;
  Nabla  - downward triangle, bottom vertex below, horizontal base on top;
  Lens   - bounded by an upper horizontal path with strictly increasing
           types around a common intersection set, and a lower horizontal
           path with strictly decreasing types around a common union.

Every vertex and edge reading (the vertex set, the vertical and horizontal
edge sets, the range check) is read off the tiles' counterclockwise
boundary cycles, which each tile stores once when built.

The central facts implemented here: the vertex set (spectrum) of a combi is
a maximal weakly separated collection, every such collection arises from a
unique combi, and that combi is reconstructed by `from_w_collection` with
one fan-and-lens rule.  The members X+i over a member X, in increasing i,
span the nablas with bottom X, and the members X-i the deltas with apex X;
the members X+i over a non-member X, when three or more, are a lens's upper
path, and the members under the union of its ends its lower path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce
from itertools import chain
from operator import attrgetter, or_
from typing import TYPE_CHECKING

from . import bitsets as bs
from ._planar import TILE_CACHE_SIZE, TilingError, check_planar_cover, zonogon_region
from .geometry import default_generators
from .separation import SetFamily, is_maximal_separated

if TYPE_CHECKING:
    from .rhombus import RhombusTiling


@dataclass(frozen=True, order=True, slots=True)
class Delta:
    """Upward triangle: apex, base from apex-high (left) to apex-low (right)."""

    apex: int
    low: int
    high: int
    # the corners counterclockwise, from the base's left end: set once
    _cycle: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 1 <= self.low < self.high:
            raise ValueError(f"need 1 <= low < high, got {self.low}, {self.high}")
        apex, low, high = self.apex, 1 << (self.low - 1), 1 << (self.high - 1)
        if apex & (low | high) != low | high:
            raise ValueError("apex of a Delta must contain both type elements")
        object.__setattr__(self, "_cycle", (apex ^ high, apex ^ low, apex))

    @classmethod
    def on_base(cls, apex: int, left: int, right: int) -> Delta:
        """The delta with this apex over the base (left, right); raises
        ValueError if the built delta's base is another one."""
        d = cls(apex, bs.min_element(apex & ~right), bs.min_element(apex & ~left))
        if d.base != (left, right):
            where = bs.format_subset(apex)
            raise ValueError(f"{_edge_text(left, right)} is not the base of a delta at {where}")
        return d

    @property
    def left(self) -> int:
        return self._cycle[0]

    @property
    def right(self) -> int:
        return self._cycle[1]

    @property
    def base(self) -> tuple[int, int]:
        return (self.left, self.right)

    def cycle(self) -> tuple[int, ...]:
        return self._cycle


@dataclass(frozen=True, order=True, slots=True)
class Nabla:
    """Downward triangle: bottom, base from bottom+low (left) to bottom+high."""

    bottom: int
    low: int
    high: int
    # the corners counterclockwise, from the bottom: set once
    _cycle: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 1 <= self.low < self.high:
            raise ValueError(f"need 1 <= low < high, got {self.low}, {self.high}")
        bottom, low, high = self.bottom, 1 << (self.low - 1), 1 << (self.high - 1)
        if bottom & (low | high):
            raise ValueError("bottom of a Nabla must avoid both type elements")
        object.__setattr__(self, "_cycle", (bottom, bottom | high, bottom | low))

    @classmethod
    def on_base(cls, bottom: int, left: int, right: int) -> Nabla:
        """The nabla with this bottom under the base (left, right); raises
        ValueError if the built nabla's base is another one."""
        v = cls(bottom, bs.min_element(left & ~bottom), bs.min_element(right & ~bottom))
        if v.base != (left, right):
            where = bs.format_subset(bottom)
            raise ValueError(f"{_edge_text(left, right)} is not the base of a nabla at {where}")
        return v

    @property
    def left(self) -> int:
        return self._cycle[2]

    @property
    def right(self) -> int:
        return self._cycle[1]

    @property
    def base(self) -> tuple[int, int]:
        return (self.left, self.right)

    def cycle(self) -> tuple[int, ...]:
        return self._cycle


def _edge_text(a: int, b: int) -> str:
    return f"{bs.format_subset(a)}-{bs.format_subset(b)}"


def _path_types(vertices: tuple[int, ...]) -> list[tuple[int, int]]:
    """(removed, added) element pair per consecutive horizontal step."""
    out = []
    for a, b in zip(vertices, vertices[1:]):
        gone, came = a & ~b, b & ~a
        if gone.bit_count() != 1 or came.bit_count() != 1:
            raise ValueError("lens path steps must trade exactly one element")
        # one element each, so it is the highest
        out.append((gone.bit_length(), came.bit_length()))
    return out


@dataclass(frozen=True, order=True, slots=True)
class Lens:
    upper: tuple[int, ...]
    lower: tuple[int, ...]
    _cycle: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __init__(self, upper, lower) -> None:
        up, lo = tuple(upper), tuple(lower)
        if len(up) < 3 or len(lo) < 3:
            raise ValueError("lens boundaries need at least two edges each")
        if up[0] != lo[0] or up[-1] != lo[-1]:
            raise ValueError("lens boundaries must share their end vertices")
        sizes = {v.bit_count() for v in up} | {v.bit_count() for v in lo}
        if len(sizes) != 1:
            raise ValueError("all lens vertices must have the same cardinality")
        ups = _path_types(up)
        types = [ups[0][0]] + [t[1] for t in ups]
        if any(a >= b for a, b in zip(types, types[1:])):
            raise ValueError("upper path types must strictly increase")
        inter = up[0]
        for v in up:
            inter &= v
        if any((v & ~inter).bit_count() != 1 for v in up):
            raise ValueError("upper path vertices must share a common center")
        union = 0
        for v in lo:
            union |= v
        if any((union & ~v).bit_count() != 1 for v in lo):
            raise ValueError("lower path vertices must share a common union")
        lseq = [(union & ~v).bit_length() for v in lo]
        if any(a <= b for a, b in zip(lseq, lseq[1:])):
            raise ValueError("lower path types must strictly decrease")
        object.__setattr__(self, "upper", up)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "_cycle", lo + up[-2:0:-1])

    @property
    def left(self) -> int:
        return self.upper[0]

    @property
    def right(self) -> int:
        return self.upper[-1]

    # each upper (lower) vertex is its center with (without) one element,
    # and the ends differ, so they meet (join) in the center

    @property
    def upper_center(self) -> int:
        return self.upper[0] & self.upper[-1]

    @property
    def lower_center(self) -> int:
        return self.lower[0] | self.lower[-1]

    @property
    def level(self) -> int:
        return bs.size(self.upper[0])

    @property
    def upper_types(self) -> tuple[int, ...]:
        c = self.upper_center
        return tuple(bs.min_element(v & ~c) for v in self.upper)

    def cycle(self) -> tuple[int, ...]:
        return self._cycle


Tile = Delta | Nabla | Lens
# One checked instance per distinct tile, for the sites that build every
# tile of a combi (a combi is fixed by its vertex set, so its tiles repeat
# across reconstructions) and for the W/M-configuration search's partner
# candidates: each tile runs its constructor check and builds its cycle on
# its first build only, and a failure, never cached, raises every time.  A
# single tile is built with its class.
shared_delta = lru_cache(maxsize=TILE_CACHE_SIZE)(Delta)
shared_nabla = lru_cache(maxsize=TILE_CACHE_SIZE)(Nabla)
shared_lens = lru_cache(maxsize=TILE_CACHE_SIZE)(Lens)
# Sort keys giving each dataclass's own order (its fields compared in
# turn), faster than sorting by the generated __lt__.
_DELTA_ORDER = attrgetter("apex", "low", "high")
_NABLA_ORDER = attrgetter("bottom", "low", "high")
_LENS_ORDER = attrgetter("upper", "lower")
_CYCLE = attrgetter("_cycle")


@dataclass(frozen=True)
class Combi:
    n: int
    deltas: frozenset[Delta]
    nablas: frozenset[Nabla]
    lenses: frozenset[Lens]

    def __init__(self, n: int, deltas=(), nablas=(), lenses=()) -> None:
        bs.check_ground(n)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "deltas", frozenset(deltas))
        object.__setattr__(self, "nablas", frozenset(nablas))
        object.__setattr__(self, "lenses", frozenset(lenses))
        # A triangle's largest corner (its apex or right corner) or a lens's
        # lower center is out of range just when one of its corners is; the
        # tiles are scanned one by one, in `tiles()` order, only to name the
        # first one out of range.
        if reduce(or_, chain.from_iterable(self._cycles()), 0) & ~bs.full_mask(n):
            for t in self.tiles():
                bs.check_subset(t.lower_center if isinstance(t, Lens) else max(t.cycle()), n)

    def _cycles(self):
        """Every tile's boundary cycle; for n = 1, with no tiles, the one
        edge of the zonogon as the two-corner cycle ({}, {1})."""
        cycles = map(_CYCLE, chain(self.deltas, self.nablas, self.lenses))
        return chain(cycles, [(0, 1)]) if self.n == 1 else cycles

    def tiles(self) -> list[Tile]:
        """Deltas, nablas, lenses, each kind in its dataclass order."""
        return (
            sorted(self.deltas, key=_DELTA_ORDER)
            + sorted(self.nablas, key=_NABLA_ORDER)
            + sorted(self.lenses, key=_LENS_ORDER)
        )

    def vertex_masks(self) -> frozenset[int]:
        return self._vertices

    @cached_property
    def _vertices(self) -> frozenset[int]:
        # Built on first use and not a dataclass field, so equality and
        # hashing see only the tiles; copied from a set, the frozenset's
        # table is sized to the members, not to the corners with repeats.
        return frozenset(set(chain.from_iterable(self._cycles())))

    def nabla_fan(self, bottom: int) -> tuple[int, ...]:
        """Left-to-right base path of the nablas with this bottom, () if
        there are none; raises TilingError("fan") unless it is one path."""
        return _chain_fan(self._fan_bases.get(("nabla", bottom), ()), "nabla", bottom)

    def delta_fan(self, apex: int) -> tuple[int, ...]:
        """Left-to-right base path of the deltas with this apex, () if
        there are none; raises TilingError("fan") unless it is one path."""
        return _chain_fan(self._fan_bases.get(("delta", apex), ()), "delta", apex)

    def lens_on(self, edge: tuple[int, int], side: str) -> Lens | None:
        """The lens with this edge on its `side` ("upper" or "lower")
        boundary, None if there is none; raises TilingError if two lenses
        claim it."""
        if side not in ("upper", "lower"):
            raise ValueError(f"side must be 'upper' or 'lower', got {side!r}")
        index = self._lens_edges
        if (side, edge) in index and index[side, edge] is None:
            raise TilingError("lens", f"two lenses have {_edge_text(*edge)} on their {side} boundary")
        return index.get((side, edge))

    # The incidence index: built on first use and, like `_vertices`, not a
    # dataclass field, so equality and hashing see only the tiles.

    @cached_property
    def _fan_bases(self) -> dict[tuple[str, int], list[tuple[int, int]]]:
        """The nabla bases by bottom and the delta bases by apex."""
        fans: dict[tuple[str, int], list[tuple[int, int]]] = {}
        for v in self.nablas:
            fans.setdefault(("nabla", v.bottom), []).append(v.base)
        for d in self.deltas:
            fans.setdefault(("delta", d.apex), []).append(d.base)
        return fans

    @cached_property
    def _lens_edges(self) -> dict[tuple[str, tuple[int, int]], Lens | None]:
        """Each (side, boundary edge) to its lens, or to None if two lenses
        claim it."""
        index: dict[tuple[str, tuple[int, int]], Lens | None] = {}
        for l in self.lenses:
            for side, path in (("upper", l.upper), ("lower", l.lower)):
                for e in zip(path, path[1:]):
                    index[side, e] = None if (side, e) in index else l
        return index

    def vertical_edges(self) -> frozenset[tuple[int, int]]:
        """Upward (X, X+i) edges of the derived graph."""
        return self._edges[0]

    def horizontal_edges(self) -> frozenset[tuple[int, int]]:
        """Rightward trading edges of the derived graph."""
        return self._edges[1]

    @cached_property
    def _edges(self) -> tuple[frozenset[tuple[int, int]], frozenset[tuple[int, int]]]:
        # Built once per instance and, like `_vertices`, not a dataclass field.
        return cycle_sides(self._cycles())

    def size_sum(self) -> int:
        """Sum of vertex cardinalities (the flip potential)."""
        return sum(bs.size(v) for v in self.vertex_masks())


def cycle_sides(cycles) -> tuple[frozenset[tuple[int, int]], frozenset[tuple[int, int]]]:
    """The vertical and the horizontal sides of the given boundary cycles: a
    side is vertical when its ends differ in size, and is stored upward if
    so and rightward (smaller traded element first) if not."""
    vertical, horizontal = set(), set()
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            side = (a, b) if a & ~b < b & ~a else (b, a)
            (vertical if a.bit_count() != b.bit_count() else horizontal).add(side)
    return frozenset(vertical), frozenset(horizontal)


def _chain_fan(bases, kind: str, corner: int) -> tuple[int, ...]:
    """The vertex path through the (left, right) bases of a triangle fan,
    () for no bases; raises TilingError("fan") unless the bases form
    exactly one path: no two share a left end and one left end is no right
    end."""
    if not bases:
        return ()
    succ = dict(bases)
    if len(succ) != len(bases):
        raise _fan_error(kind, corner, "has duplicate left vertices")
    starts = succ.keys() - succ.values()
    if len(starts) != 1:
        raise _fan_error(kind, corner, "does not start at one vertex")
    path = [*starts]
    # low < high makes the bases acyclic, so one start walks through them all
    while path[-1] in succ:
        path.append(succ[path[-1]])
    return tuple(path)


def _fan_error(kind: str, corner: int, why: str) -> TilingError:
    return TilingError("fan", f"{kind} fan at {bs.format_subset(corner)} {why}")


def tile_label(tile: Tile) -> str:
    """How a tile is named in a TilingError."""
    if isinstance(tile, Delta):
        return f"delta({bs.format_subset(tile.apex)};{tile.low},{tile.high})"
    if isinstance(tile, Nabla):
        return f"nabla({bs.format_subset(tile.bottom)};{tile.low},{tile.high})"
    return f"lens({bs.format_subset(tile.left)}..{bs.format_subset(tile.right)})"


def _planar(n: int, tiles, ordered, label) -> bool:
    """Check that `tiles` exactly tile the n-zonogon under the default
    generators; raises TilingError naming, by `label`, the first violation
    in the order of the list `ordered()` returns."""
    gens = default_generators(n)
    region = zonogon_region(gens)
    try:
        return check_planar_cover(gens, [(t, t.cycle()) for t in tiles], *region, label)
    except TilingError:
        # the verdict does not depend on the tile order, only the error does
        return check_planar_cover(gens, [(t, t.cycle()) for t in ordered()], *region, label)


def validate_combi(combi: Combi) -> bool:
    """Exact planar-cover axioms under the default generators; raises
    TilingError naming the first violation in `tiles()` order."""
    return _planar(combi.n, (*combi.deltas, *combi.nablas, *combi.lenses), combi.tiles, tile_label)


def from_rhombus(tiling: RhombusTiling) -> Combi:
    """Split every rhombus into its upper and lower triangle (semi-rhombus combi)."""
    deltas = []
    nablas = []
    for t in tiling.tiles:
        deltas.append(shared_delta(t.top, t.low, t.high))
        nablas.append(shared_nabla(t.bottom, t.low, t.high))
    return Combi(tiling.n, deltas, nablas)


def spectrum(combi: Combi) -> SetFamily:
    return SetFamily(combi.n, combi.vertex_masks())


def _assemble(members: frozenset[int], n: int) -> tuple[list[Delta], list[Nabla], list[Lens]]:
    """The deltas, nablas and lenses of the fan-and-lens rule (see the module
    docstring), in one pass over the members X in ascending order and the
    elements i of 1..n: consecutive members X+i over a member X span a
    Nabla, consecutive members X-i under it a Delta, and the members over a
    non-member, when three or more, are a lens's upper path."""
    bits = [(i, 1 << (i - 1)) for i in range(1, n + 1)]
    deltas: list[Delta] = []
    nablas: list[Nabla] = []
    # members over / under each non-member; ascending members keep each list
    # in path order
    over: dict[int, list[int]] = {}
    under: dict[int, list[int]] = {}
    for x in sorted(members):
        up = down = 0  # the last type seen going up / down, 0 for none
        for i, b in bits:
            if x & b:
                if x ^ b in members:
                    if down:
                        deltas.append(shared_delta(x, down, i))
                    down = i
                else:
                    over.setdefault(x ^ b, []).append(x)
            elif x | b in members:
                if up:
                    nablas.append(shared_nabla(x, up, i))
                up = i
            else:
                under.setdefault(x | b, []).append(x)
    lenses = [
        shared_lens(tuple(upper), tuple(under.get(upper[0] | upper[-1], ())))
        for upper in over.values()
        if len(upper) >= 3
    ]
    return deltas, nablas, lenses


def from_w_collection(family: SetFamily, check_input: bool = True) -> Combi:
    """Reconstruct the unique combi whose spectrum is the given maximal
    weakly separated collection.

    Vertical edges are all pairs (X, X+i) inside the family; triangles are
    the fans between consecutive such edges, around a member; lenses are
    the same fans around a non-member, read off the members over it and
    under its ends' union.  The result is validated, so success certifies
    correctness on each instance.
    """
    n = family.n
    if check_input and not is_maximal_separated(family, "weak"):
        raise ValueError("family is not a maximal weakly separated collection")
    members = family.as_set()
    combi = Combi(n, *_assemble(members, n))
    validate_combi(combi)
    if combi.vertex_masks() != members:
        raise TilingError("spectrum", "reconstruction changed the vertex set")
    return combi


@dataclass(frozen=True)
class WConfig:
    """Two nablas sharing their middle top vertex, witnessing a lowering flip."""

    core: int
    i: int
    j: int
    k: int

    @property
    def middle(self) -> int:
        return self.core | bs.singleton(self.i) | bs.singleton(self.k)

    def left_nabla(self) -> Nabla:
        return Nabla(self.core | bs.singleton(self.i), self.j, self.k)

    def right_nabla(self) -> Nabla:
        return Nabla(self.core | bs.singleton(self.k), self.i, self.j)


@dataclass(frozen=True)
class MConfig:
    """Two deltas sharing their middle bottom vertex, witnessing a raising flip."""

    core: int
    i: int
    j: int
    k: int

    def left_delta(self) -> Delta:
        return Delta(self.core | bs.singleton(self.i) | bs.singleton(self.j), self.i, self.j)

    def right_delta(self) -> Delta:
        return Delta(self.core | bs.singleton(self.j) | bs.singleton(self.k), self.j, self.k)


def find_w_configs(combi: Combi) -> list[WConfig]:
    nablas = combi.nablas
    out = []
    for nb in nablas:
        # nb as the left tile: bottom core+i, base types (j, k)
        for i in bs.iter_elements(nb.bottom):
            cand_core = nb.bottom ^ bs.singleton(i)
            if i < nb.low and shared_nabla(cand_core | bs.singleton(nb.high), i, nb.low) in nablas:
                out.append(WConfig(cand_core, i, nb.low, nb.high))
    return sorted(out, key=lambda w: (w.core, w.i, w.j, w.k))


def find_m_configs(combi: Combi) -> list[MConfig]:
    deltas = combi.deltas
    out = []
    for d in deltas:
        # d as the left tile Delta(core+i+j; i, j); partner Delta(core+j+k; j, k)
        i, j = d.low, d.high
        core = d.apex & ~(bs.singleton(i) | bs.singleton(j))
        for k in range(j + 1, combi.n + 1):
            if bs.has(core, k):
                continue
            if shared_delta(core | bs.singleton(j) | bs.singleton(k), j, k) in deltas:
                out.append(MConfig(core, i, j, k))
    return sorted(out, key=lambda m: (m.core, m.i, m.j, m.k))


def adjacent_h_classify(combi: Combi, e: tuple[int, int], e2: tuple[int, int]) -> str:
    """Classify two horizontal edges sharing a middle vertex.

    For edges (A,B), (B,C) of types (j', k) then (i, j'') with i < j'' <= j' < k
    the middle types must agree and the pair lies on one lens's lower boundary
    or under two deltas with a common apex; the mirrored pattern lies on one
    lens's upper boundary or above two nablas with a common bottom.
    """
    (a, b), (b2, c) = e, e2
    if b != b2:
        raise ValueError("edges must share their middle vertex")
    if bs.size(a & ~b) != 1 or bs.size(b & ~a) != 1 or bs.size(b & ~c) != 1 or bs.size(c & ~b) != 1:
        raise ValueError("both edges must be single-trade horizontal steps")
    t1 = (bs.min_element(a & ~b), bs.min_element(b & ~a))
    t2 = (bs.min_element(b & ~c), bs.min_element(c & ~b))
    if t2[1] <= t1[0]:
        # types (j', k) then (i, j'') with i < j'' <= j' < k
        j_prime, k = t1
        i, j_second = t2
        if j_prime != j_second:
            raise TilingError("adjacency", "middle types differ, combi is inconsistent")
        host = combi.lens_on((a, b), "lower")
        if host is not None and host is combi.lens_on((b, c), "lower"):
            return "lens-lower"
        apex = b | bs.singleton(j_prime)
        if (
            Delta(apex, i, j_prime) in combi.deltas
            and Delta(apex, j_prime, k) in combi.deltas
        ):
            return "two-deltas"
        raise TilingError("adjacency", "neither a lens nor a delta pair covers the edges")
    if t1[1] <= t2[0]:
        # mirrored: types (i, j'') then (j', k) with i < j'' <= j' < k
        i, j_second = t1
        j_prime, k = t2
        if j_prime != j_second:
            raise TilingError("adjacency", "middle types differ, combi is inconsistent")
        host = combi.lens_on((a, b), "upper")
        if host is not None and host is combi.lens_on((b, c), "upper"):
            return "lens-upper"
        bottom = b ^ bs.singleton(j_prime)
        if (
            Nabla(bottom, i, j_prime) in combi.nablas
            and Nabla(bottom, j_prime, k) in combi.nablas
        ):
            return "two-nablas"
        raise TilingError("adjacency", "neither a lens nor a nabla pair covers the edges")
    raise ValueError("edge types do not match the required pattern")
