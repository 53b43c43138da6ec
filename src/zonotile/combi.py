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

from functools import lru_cache, reduce
from itertools import chain, compress
from operator import and_, attrgetter, ne, or_
from typing import TYPE_CHECKING

from . import bitsets as bs
from ._planar import TILE_CACHE_SIZE, TilingError, check_planar_cover, default_region
from ._value import OrderedValue, Value, _set
from .separation import SetFamily, is_maximal_separated

if TYPE_CHECKING:
    from .rhombus import RhombusTiling


class Tile(OrderedValue):
    """A tile of a combi, named by its str in a TilingError.

    `_fill` checks the fields and stores the corners, counterclockwise, once,
    through the class's `_corners`: so keyword construction, pickling and
    copying check a tile too.  The default `_corners` and str are a typed
    tile's: a delta or nabla, whose fields are a corner and two types
    low < high.  Its class gives the corner field first, `_holds`, whether
    the corner holds both type elements, `_wrong`, the error if not, and
    `_recipe`, the cycle from the corner and the two type masks: the right
    corner second, the left one first if the corner holds the types and
    last if not.  A lens gives its own `_corners`, str and ends.  Each class
    has its own `_cycle` slot, which `Combi` reads each field through, so a
    tile filed under another kind fails there.
    """

    __slots__ = ()
    _cycle: tuple[int, ...]

    def _fill(self, *values) -> None:
        cycle = self._corners(*values)
        super()._fill(*values)
        _set(self, "_cycle", cycle)

    def _corners(self, corner: int, low: int, high: int) -> tuple[int, ...]:
        if not 1 <= low < high:
            raise ValueError(f"need 1 <= low < high, got {low}, {high}")
        lo, hi = 1 << (low - 1), 1 << (high - 1)
        if corner & (lo | hi) != (lo | hi if self._holds else 0):
            raise ValueError(self._wrong)
        return self._recipe(corner, lo, hi)

    def cycle(self) -> tuple[int, ...]:
        return self._cycle

    def __str__(self) -> str:
        corner = bs.format_subset(self._values(self)[0])
        return f"{type(self).__name__.lower()}({corner};{self.low},{self.high})"

    @property
    def left(self) -> int:
        return self._cycle[0 if self._holds else -1]

    @property
    def right(self) -> int:
        return self._cycle[1]

    @classmethod
    def on_base(cls, corner: int, left: int, right: int) -> Tile:
        """The triangle with this apex or bottom and the base (left, right);
        raises ValueError if the built triangle's base is another one."""
        ends = (corner & ~right, corner & ~left) if cls._holds else (left & ~corner, right & ~corner)
        t = cls(corner, *map(bs.min_element, ends))
        if (t.left, t.right) != (left, right):
            edge, kind = f"{bs.format_subset(left)}-{bs.format_subset(right)}", cls.__name__.lower()
            raise ValueError(f"{edge} is not the base of a {kind} at {bs.format_subset(corner)}")
        return t


class Delta(Tile):
    """Upward triangle: apex, base from apex-high (left) to apex-low (right)."""

    __slots__ = ("apex", "low", "high", "_cycle")
    apex: int
    low: int
    high: int
    _holds = True
    _wrong = "apex of a Delta must contain both type elements"
    _recipe = staticmethod(lambda apex, lo, hi: (apex ^ hi, apex ^ lo, apex))


class Nabla(Tile):
    """Downward triangle: bottom, base from bottom+low (left) to bottom+high."""

    __slots__ = ("bottom", "low", "high", "_cycle")
    bottom: int
    low: int
    high: int
    _holds = False
    _wrong = "bottom of a Nabla must avoid both type elements"
    _recipe = staticmethod(lambda bottom, lo, hi: (bottom, bottom | hi, bottom | lo))


def _path_types(vertices: tuple[int, ...]) -> list[tuple[int, int]]:
    """(removed, added) element pair per consecutive horizontal step."""
    out = []
    for a, b in zip(vertices, vertices[1:]):
        gone, came = a & ~b, b & ~a
        # the lens vertices share one size, so `came` has one element when `gone` does
        if gone.bit_count() != 1:
            raise ValueError("lens path steps must trade exactly one element")
        # one element each, so it is the highest
        out.append((gone.bit_length(), came.bit_length()))
    return out


class Lens(Tile):
    __slots__ = ("upper", "lower", "_cycle")
    upper: tuple[int, ...]
    lower: tuple[int, ...]

    def __init__(self, upper, lower) -> None:
        self._fill(tuple(upper), tuple(lower))

    def _corners(self, up: tuple[int, ...], lo: tuple[int, ...]) -> tuple[int, ...]:
        if len(up) < 3 or len(lo) < 3:
            raise ValueError("lens boundaries need at least two edges each")
        if up[0] != lo[0] or up[-1] != lo[-1]:
            raise ValueError("lens boundaries must share their end vertices")
        if len({v.bit_count() for v in up + lo}) != 1:
            raise ValueError("all lens vertices must have the same cardinality")
        ups = _path_types(up)
        types = [ups[0][0]] + [t[1] for t in ups]
        if any(a >= b for a, b in zip(types, types[1:])):
            raise ValueError("upper path types must strictly increase")
        inter = reduce(and_, up)
        if any((v & ~inter).bit_count() != 1 for v in up):
            raise ValueError("upper path vertices must share a common center")
        union = reduce(or_, lo)
        if any((union & ~v).bit_count() != 1 for v in lo):
            raise ValueError("lower path vertices must share a common union")
        lseq = [(union & ~v).bit_length() for v in lo]
        if any(a <= b for a, b in zip(lseq, lseq[1:])):
            raise ValueError("lower path types must strictly decrease")
        return lo + up[-2:0:-1]

    def __str__(self) -> str:
        return f"lens({bs.format_subset(self.left)}..{bs.format_subset(self.right)})"

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
    def upper_types(self) -> tuple[int, ...]:
        c = self.upper_center
        return tuple(bs.min_element(v & ~c) for v in self.upper)


# One checked instance per distinct tile, for the sites that build every
# tile of a combi (a combi is fixed by its vertex set, so its tiles repeat
# across reconstructions), the W/M-configuration search's partner candidates
# and `rhombus`'s hexagon lookups: each tile runs its constructor check and
# builds its cycle on its first build only, and a failure, never cached,
# raises every time.  A single tile is built with its class.
shared_delta = lru_cache(maxsize=TILE_CACHE_SIZE)(Delta)
shared_nabla = lru_cache(maxsize=TILE_CACHE_SIZE)(Nabla)
shared_lens = lru_cache(maxsize=TILE_CACHE_SIZE)(Lens)
_DELTA_CYCLE, _NABLA_CYCLE, _LENS_CYCLE = (kind._cycle.__get__ for kind in (Delta, Nabla, Lens))
_KEY = attrgetter("_key")  # a tile's field tuple; AttributeError on anything else
# the (i, 1 << (i - 1)) pairs of the elements i of 1..n, for each n
_TYPE_BITS = [tuple((i, 1 << (i - 1)) for i in range(1, n + 1)) for n in range(bs.MAX_GROUND + 1)]


def _distinct(tiles: list[Tile]) -> tuple[Tile, ...]:
    """`tiles` sorted by their field tuples, an equal neighbour dropped, so
    no tile is hashed; AttributeError or TypeError if one is no tile."""
    tiles.sort(key=_KEY)
    keys = [*map(_KEY, tiles), None]
    return tuple(compress(tiles, map(ne, keys, keys[1:])))


class Combi(Value):
    """Kept compact, as a run holds every combi it certifies: each tile kind
    as a tuple in `tiles()` order, repeats dropped, and the vertex set as a
    sorted tuple, as `SetFamily.members` is: a reconstruction keeps its
    family's tuple itself, and `spectrum` hands it back.  The fields read as
    frozensets built on each read; the hash (the frozen-dataclass one), the
    vertex frozenset and the edge sets are worked out on first use and kept."""

    __slots__ = ("n", "_deltas", "_nablas", "_lenses", "_vertices", "_vertex_set", "_edges", "_hash")
    n: int
    # the tile fields, each read as a frozenset of its kept tuple
    deltas: frozenset[Delta] = property(lambda self: frozenset(self._deltas))
    nablas: frozenset[Nabla] = property(lambda self: frozenset(self._nablas))
    lenses: frozenset[Lens] = property(lambda self: frozenset(self._lenses))
    _state = attrgetter("n", "_deltas", "_nablas", "_lenses")

    def __init__(self, n: int, deltas=(), nablas=(), lenses=()) -> None:
        bs.check_ground(n)
        kinds = (list(deltas), list(nablas), list(lenses))
        try:
            self._fill(n, *map(_distinct, kinds))
        except (TypeError, AttributeError):
            # a tile of another kind: the least by str in the first such field
            fields = enumerate(zip(self._fields[1:], (Delta, Nabla, Lens), kinds))
            stray = [(k, str(t), f) for k, (f, cls, tiles) in fields for t in tiles if not isinstance(t, cls)]
            _, tile, name = min(stray)
            raise ValueError(f"{tile} is filed among the {name}") from None

    @classmethod
    def _assembled(
        cls, family: SetFamily, members: frozenset[int], deltas: list[Delta], nablas: list[Nabla], lenses: list[Lens]
    ) -> Combi:
        """`_assemble`'s tiles for `family`, held as the set `members`, deltas and nablas sorted, none
        repeated, each of its field's kind, so the corners are read straight off the tiles'
        `_cycle`s; if they are the members, the vertex tuple is `family.members` itself."""
        combi = object.__new__(cls)
        tiles = (tuple(deltas), tuple(nablas), tuple(sorted(lenses, key=_KEY)))
        cycles = [t._cycle for t in chain(*tiles)]
        combi._fill(family.n, *tiles, cycles=cycles, members=family.members, member_set=members)
        return combi

    def _fill(self, *values, cycles=(), members: tuple[int, ...] = (), member_set: frozenset[int] = frozenset()) -> None:
        for slot, value in zip(("n", "_deltas", "_nablas", "_lenses"), values):
            _set(self, slot, value)
        # the corners, sorted (`members` if they are them), read through `_cycles()` unless tile cycles are given
        corners = set(chain.from_iterable(cycles or self._cycles()))
        _set(self, "_vertices", vertices := members if corners == member_set else tuple(sorted(corners)))
        # A triangle's largest corner (its apex or right corner) or a lens's
        # lower center is out of range just when one of its corners is: the
        # tiles are scanned, in `tiles()` order, only to name the first one.
        if vertices and (vertices[0] < 0 or vertices[-1] > bs.full_mask(self.n)):
            for t in self.tiles():
                bs.check_subset(t.lower_center if isinstance(t, Lens) else max(t.cycle()), self.n)

    def _kept(self, slot: str, build):
        if (value := getattr(self, slot, None)) is None:
            _set(self, slot, value := build(self))
        return value

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._state(self) == self._state(other)
        return NotImplemented

    def __hash__(self) -> int:
        return self._kept("_hash", lambda combi: hash(combi._values(combi)))

    def _cycles(self):
        """Every tile's boundary cycle, read through its field's kind's slot,
        which raises TypeError on a tile of another kind; for n = 1, with no
        tiles, the one edge of the zonogon as the two-corner cycle ({}, {1})."""
        _, deltas, nablas, lenses = self._state(self)
        cycles = chain(map(_DELTA_CYCLE, deltas), map(_NABLA_CYCLE, nablas), map(_LENS_CYCLE, lenses))
        return chain(cycles, [(0, 1)]) if self.n == 1 else cycles

    def tiles(self) -> list[Tile]:
        """Deltas, nablas, lenses, each kind sorted by its field tuples."""
        return [*self._deltas, *self._nablas, *self._lenses]

    def vertex_masks(self) -> frozenset[int]:
        return self._kept("_vertex_set", lambda combi: frozenset(combi._vertices))

    def vertical_edges(self) -> frozenset[tuple[int, int]]:
        """Upward (X, X+i) edges of the derived graph."""
        return self._kept("_edges", Combi._edge_sets)[0]

    def horizontal_edges(self) -> frozenset[tuple[int, int]]:
        """Rightward trading edges of the derived graph."""
        return self._kept("_edges", Combi._edge_sets)[1]

    def _edge_sets(self) -> tuple[frozenset[tuple[int, int]], frozenset[tuple[int, int]]]:
        # a side is vertical when its ends differ in size, stored upward if
        # so and rightward (smaller traded element first) if not
        vertical, horizontal = set(), set()
        for cyc in self._cycles():
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                side = (a, b) if a & ~b < b & ~a else (b, a)
                (vertical if a.bit_count() != b.bit_count() else horizontal).add(side)
        return frozenset(vertical), frozenset(horizontal)

    def size_sum(self) -> int:
        """Sum of vertex cardinalities (the flip potential)."""
        return sum(bs.size(v) for v in self._vertices)


def validate_combi(combi: Combi) -> bool:
    """Exact planar-cover axioms under the default generators, which with
    their zonogon's boundary and area come from one lookup by n; the tiles
    go to the check in `tiles()` order as (tile, cycle) pairs, so a
    TilingError names the first violation by its tile's str."""
    gens, boundary, area2 = default_region(combi.n)
    return check_planar_cover(gens, [(t, t._cycle) for t in combi.tiles()], boundary, area2)


def from_rhombus(tiling: RhombusTiling) -> Combi:
    """The semi-rhombus combi of a rhombus tiling, of which the tiling is a view."""
    return tiling.combi


def spectrum(combi: Combi) -> SetFamily:
    """The combi's vertex set, as a family on its vertex tuple itself."""
    return SetFamily._trusted(combi.n, combi._vertices)


def _assemble(family: SetFamily, members: frozenset[int]) -> tuple[list[Delta], list[Nabla], list[Lens]]:
    """The deltas, nablas and lenses of the fan-and-lens rule (see the module
    docstring) for `family`, held as the set `members`, in one pass over the
    members X, ascending, and the elements i of 1..n, one membership test
    each: consecutive members X+i over a member X span a Nabla, consecutive
    members X-i under it a Delta, and the members over a non-member, when
    three or more, are a lens's upper path, whose lower path is then read:
    the members U-j under the union U of its ends, ascending, or none if U
    is a member.  Paths that make no lens raise TilingError "lens"."""
    bits = _TYPE_BITS[family.n]
    deltas: list[Delta] = []
    nablas: list[Nabla] = []
    # members over each non-member, in path order as the members ascend
    over: dict[int, list[int]] = {}
    for x in family.members:
        up = down = 0  # the last type seen going up / down, 0 for none
        for i, b in bits:
            y = x ^ b  # X-i if X holds i, so just when y < x, and X+i if not
            if y in members:
                if y < x:
                    if down:
                        deltas.append(shared_delta(x, down, i))
                    down = i
                else:
                    if up:
                        nablas.append(shared_nabla(x, up, i))
                    up = i
            elif y < x:
                over.setdefault(y, []).append(x)
    lenses = []
    for y, upper in over.items():
        if len(upper) >= 3:
            u = upper[0] | upper[-1]
            # dropping a larger element leaves a smaller set
            lower = () if u in members else tuple(u ^ b for _, b in reversed(bits) if u & b and u ^ b in members)
            try:
                lenses.append(shared_lens(tuple(upper), lower))
            except ValueError as error:
                raise TilingError("lens", f"upper path over {bs.format_subset(y)}: {error}") from None
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
    if check_input and not is_maximal_separated(family, "weak"):
        raise ValueError("family is not a maximal weakly separated collection")
    members = family.as_set()
    combi = Combi._assembled(family, members, *_assemble(family, members))
    validate_combi(combi)
    # the vertex tuple is the members' own just when the corners are the members
    if combi._vertices is not family.members:
        raise TilingError("spectrum", "reconstruction changed the vertex set")
    return combi


class WConfig(Value):
    """Two nablas sharing their middle top vertex, witnessing a lowering flip."""

    core: int
    i: int
    j: int
    k: int

    def left_nabla(self) -> Nabla:
        return Nabla(self.core | bs.singleton(self.i), self.j, self.k)

    def right_nabla(self) -> Nabla:
        return Nabla(self.core | bs.singleton(self.k), self.i, self.j)


class MConfig(Value):
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
    for nb in combi._nablas:
        # nb as the left tile: bottom core+i, base types (j, k)
        for i in bs.iter_elements(nb.bottom):
            cand_core = nb.bottom ^ bs.singleton(i)
            if i < nb.low and shared_nabla(cand_core | bs.singleton(nb.high), i, nb.low) in nablas:
                out.append(WConfig(cand_core, i, nb.low, nb.high))
    return sorted(out, key=lambda w: (w.core, w.i, w.j, w.k))


def find_m_configs(combi: Combi) -> list[MConfig]:
    deltas = combi.deltas
    out = []
    for d in combi._deltas:
        # d as the left tile Delta(core+i+j; i, j); partner Delta(core+j+k; j, k)
        i, j = d.low, d.high
        core = d.apex & ~(bs.singleton(i) | bs.singleton(j))
        for k in range(j + 1, combi.n + 1):
            if not bs.has(core, k) and shared_delta(core | bs.singleton(j) | bs.singleton(k), j, k) in deltas:
                out.append(MConfig(core, i, j, k))
    return sorted(out, key=lambda m: (m.core, m.i, m.j, m.k))
