"""Combined tilings (combies): triangles and lenses tiling the zonogon.

A combi is a planar tiling whose edges are either vertical steps (congruent
to a generator, adding one element) or horizontal steps (trading a smaller
element for a larger one).  Its tiles are:

  Delta  - upward triangle, apex on top, horizontal base below;
  Nabla  - downward triangle, bottom vertex below, horizontal base on top;
  Lens   - bounded by an upper horizontal path with strictly increasing
           types around a common intersection set, and a lower horizontal
           path with strictly decreasing types around a common union.

The central facts implemented here: the vertex set (spectrum) of a combi is
a maximal weakly separated collection, every such collection arises from a
unique combi, and that combi is reconstructed by `from_w_collection` with
one fan-and-lens rule.  The members X+i over a member X, in increasing i,
span the nablas with bottom X, and the members X-i the deltas with apex X;
the members X+i over a non-member X, when three or more, are a lens's upper
path, and the members under the union of its ends its lower path.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter

from . import bitsets as bs
from ._planar import TilingError, check_planar_cover, zonogon_region
from .geometry import default_generators
from .rhombus import RhombusTiling
from .separation import SetFamily, is_maximal_separated


@dataclass(frozen=True, order=True, slots=True)
class Delta:
    """Upward triangle: apex, base from apex-high (left) to apex-low (right)."""

    apex: int
    low: int
    high: int

    def __post_init__(self) -> None:
        if not 1 <= self.low < self.high:
            raise ValueError(f"need 1 <= low < high, got {self.low}, {self.high}")
        need = (1 << (self.low - 1)) | (1 << (self.high - 1))
        if self.apex & need != need:
            raise ValueError("apex of a Delta must contain both type elements")

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
        return self.apex ^ (1 << (self.high - 1))

    @property
    def right(self) -> int:
        return self.apex ^ (1 << (self.low - 1))

    @property
    def base(self) -> tuple[int, int]:
        return (self.left, self.right)

    def cycle(self) -> list[int]:
        apex = self.apex
        return [apex ^ (1 << (self.high - 1)), apex ^ (1 << (self.low - 1)), apex]


@dataclass(frozen=True, order=True, slots=True)
class Nabla:
    """Downward triangle: bottom, base from bottom+low (left) to bottom+high."""

    bottom: int
    low: int
    high: int

    def __post_init__(self) -> None:
        if not 1 <= self.low < self.high:
            raise ValueError(f"need 1 <= low < high, got {self.low}, {self.high}")
        if self.bottom & ((1 << (self.low - 1)) | (1 << (self.high - 1))):
            raise ValueError("bottom of a Nabla must avoid both type elements")

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
        return self.bottom | (1 << (self.low - 1))

    @property
    def right(self) -> int:
        return self.bottom | (1 << (self.high - 1))

    @property
    def base(self) -> tuple[int, int]:
        return (self.left, self.right)

    def cycle(self) -> list[int]:
        bottom = self.bottom
        return [bottom, bottom | (1 << (self.high - 1)), bottom | (1 << (self.low - 1))]


def _edge_text(a: int, b: int) -> str:
    return f"{bs.format_subset(a)}-{bs.format_subset(b)}"


def _path_types(vertices: tuple[int, ...]) -> list[tuple[int, int]]:
    """(removed, added) element pair per consecutive horizontal step."""
    out = []
    for a, b in zip(vertices, vertices[1:]):
        gone, came = a & ~b, b & ~a
        if bs.size(gone) != 1 or bs.size(came) != 1:
            raise ValueError("lens path steps must trade exactly one element")
        out.append((bs.min_element(gone), bs.min_element(came)))
    return out


@dataclass(frozen=True, order=True, slots=True)
class Lens:
    upper: tuple[int, ...]
    lower: tuple[int, ...]

    def __init__(self, upper, lower) -> None:
        up, lo = tuple(upper), tuple(lower)
        if len(up) < 3 or len(lo) < 3:
            raise ValueError("lens boundaries need at least two edges each")
        if up[0] != lo[0] or up[-1] != lo[-1]:
            raise ValueError("lens boundaries must share their end vertices")
        sizes = {bs.size(v) for v in up} | {bs.size(v) for v in lo}
        if len(sizes) != 1:
            raise ValueError("all lens vertices must have the same cardinality")
        ups = _path_types(up)
        types = [ups[0][0]] + [t[1] for t in ups]
        if any(a >= b for a, b in zip(types, types[1:])):
            raise ValueError("upper path types must strictly increase")
        inter = up[0]
        for v in up:
            inter &= v
        if any(bs.size(v & ~inter) != 1 for v in up):
            raise ValueError("upper path vertices must share a common center")
        union = 0
        for v in lo:
            union |= v
        if any(bs.size(union & ~v) != 1 for v in lo):
            raise ValueError("lower path vertices must share a common union")
        lseq = [bs.min_element(union & ~v) for v in lo]
        if any(a <= b for a, b in zip(lseq, lseq[1:])):
            raise ValueError("lower path types must strictly decrease")
        object.__setattr__(self, "upper", up)
        object.__setattr__(self, "lower", lo)

    @property
    def left(self) -> int:
        return self.upper[0]

    @property
    def right(self) -> int:
        return self.upper[-1]

    @property
    def upper_center(self) -> int:
        inter = self.upper[0]
        for v in self.upper:
            inter &= v
        return inter

    @property
    def lower_center(self) -> int:
        union = 0
        for v in self.lower:
            union |= v
        return union

    @property
    def level(self) -> int:
        return bs.size(self.upper[0])

    @property
    def upper_types(self) -> tuple[int, ...]:
        c = self.upper_center
        return tuple(bs.min_element(v & ~c) for v in self.upper)

    def cycle(self) -> list[int]:
        return list(self.lower) + list(reversed(self.upper))[1:-1]


Tile = Delta | Nabla | Lens
# Sort keys giving each dataclass's own order (its fields compared in
# turn), faster than sorting by the generated __lt__.
_DELTA_ORDER = attrgetter("apex", "low", "high")
_NABLA_ORDER = attrgetter("bottom", "low", "high")
_LENS_ORDER = attrgetter("upper", "lower")


@dataclass(frozen=True)
class Combi:
    n: int
    deltas: frozenset[Delta]
    nablas: frozenset[Nabla]
    lenses: frozenset[Lens]

    def __init__(self, n: int, deltas=(), nablas=(), lenses=()) -> None:
        bs.check_ground(n)
        dset, nset, lset = frozenset(deltas), frozenset(nablas), frozenset(lenses)
        # Every vertex lies in an apex, a nabla's right corner or a lens's
        # lower center; the tiles are scanned one by one, in `tiles()`
        # order, only to name the first one out of range.
        span = 0
        for d in dset:
            span |= d.apex
        for v in nset:
            span |= v.right
        for l in lset:
            for x in l.lower:
                span |= x
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "deltas", dset)
        object.__setattr__(self, "nablas", nset)
        object.__setattr__(self, "lenses", lset)
        if span < 0 or span & ~bs.full_mask(n):
            for t in self.tiles():
                if isinstance(t, Delta):
                    bs.check_subset(t.apex, n)
                elif isinstance(t, Nabla):
                    bs.check_subset(t.right, n)
                else:
                    bs.check_subset(t.lower_center, n)

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
        # Built once per instance; not a dataclass field, so equality and
        # hashing see only the tiles.
        verts = {d.apex for d in self.deltas}
        for d in self.deltas:
            verts.add(d.apex ^ (1 << (d.low - 1)))
            verts.add(d.apex ^ (1 << (d.high - 1)))
        for v in self.nablas:
            verts.add(v.bottom)
            verts.add(v.bottom | (1 << (v.low - 1)))
            verts.add(v.bottom | (1 << (v.high - 1)))
        for l in self.lenses:
            verts.update(l.upper)
            verts.update(l.lower)
        if self.n == 1:
            verts.update((0, 1))
        return frozenset(verts)

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
        return self._vertical_edges

    def horizontal_edges(self) -> frozenset[tuple[int, int]]:
        """Rightward trading edges of the derived graph."""
        return self._horizontal_edges

    # Built once per instance and, like `_vertices`, not dataclass fields.

    @cached_property
    def _vertical_edges(self) -> frozenset[tuple[int, int]]:
        out = set()
        for d in self.deltas:
            out.add((d.left, d.apex))
            out.add((d.right, d.apex))
        for v in self.nablas:
            out.add((v.bottom, v.left))
            out.add((v.bottom, v.right))
        if self.n == 1:
            out.add((0, 1))
        return frozenset(out)

    @cached_property
    def _horizontal_edges(self) -> frozenset[tuple[int, int]]:
        out = set()
        for d in self.deltas:
            out.add(d.base)
        for v in self.nablas:
            out.add(v.base)
        for l in self.lenses:
            out.update(zip(l.upper, l.upper[1:]))
            out.update(zip(l.lower, l.lower[1:]))
        return frozenset(out)

    def size_sum(self) -> int:
        """Sum of vertex cardinalities (the flip potential)."""
        return sum(bs.size(v) for v in self.vertex_masks())


def _chain_fan(bases, kind: str, corner: int) -> tuple[int, ...]:
    """The vertex path through the (left, right) bases of a triangle fan,
    () for no bases; raises TilingError("fan") unless the bases form
    exactly one path: no two share a left end, one left end is no right
    end, and the walk from it uses every base."""
    if not bases:
        return ()
    succ = dict(bases)
    if len(succ) != len(bases):
        raise _fan_error(kind, corner, "has duplicate left vertices")
    starts = succ.keys() - succ.values()
    if len(starts) != 1:
        raise _fan_error(kind, corner, "does not start at one vertex")
    path = [*starts]
    # a repeated vertex would loop, so the walk stops after every base
    while path[-1] in succ and len(path) <= len(bases):
        path.append(succ[path[-1]])
    if len(path) != len(bases) + 1 or path[-1] in succ:
        raise _fan_error(kind, corner, "does not chain through all its bases")
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


def validate_combi(combi: Combi) -> bool:
    """Exact planar-cover axioms under the default generators; raises TilingError."""
    gens = default_generators(combi.n)
    cycles = [(t, t.cycle()) for t in combi.tiles()]
    return check_planar_cover(gens, cycles, *zonogon_region(gens), tile_label)


def from_rhombus(tiling: RhombusTiling) -> Combi:
    """Split every rhombus into its upper and lower triangle (semi-rhombus combi)."""
    deltas = []
    nablas = []
    for t in tiling.tiles:
        deltas.append(Delta(t.top, t.low, t.high))
        nablas.append(Nabla(t.bottom, t.low, t.high))
    return Combi(tiling.n, deltas, nablas)


def spectrum(combi: Combi) -> SetFamily:
    return SetFamily(combi.n, combi.vertex_masks())


def is_semi_rhombus(combi: Combi) -> bool:
    if combi.lenses:
        return False
    return {d.base for d in combi.deltas} == {v.base for v in combi.nablas}


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
                        deltas.append(Delta(x, down, i))
                    down = i
                else:
                    over.setdefault(x ^ b, []).append(x)
            elif x | b in members:
                if up:
                    nablas.append(Nabla(x, up, i))
                up = i
            else:
                under.setdefault(x | b, []).append(x)
    lenses = [
        Lens(upper, under.get(upper[0] | upper[-1], ()))
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
            if i < nb.low and Nabla(
                cand_core | bs.singleton(nb.high), i, nb.low
            ) in nablas:
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
            if Delta(core | bs.singleton(j) | bs.singleton(k), j, k) in deltas:
                out.append(MConfig(core, i, j, k))
    return sorted(out, key=lambda m: (m.core, m.i, m.j, m.k))


def find_w_config_at(combi: Combi, core: int, i: int, j: int, k: int) -> WConfig:
    w = WConfig(core, i, j, k)
    if w.left_nabla() not in combi.nablas or w.right_nabla() not in combi.nablas:
        raise ValueError("the requested W-configuration is not present")
    return w


def find_m_config_at(combi: Combi, core: int, i: int, j: int, k: int) -> MConfig:
    m = MConfig(core, i, j, k)
    if m.left_delta() not in combi.deltas or m.right_delta() not in combi.deltas:
        raise ValueError("the requested M-configuration is not present")
    return m


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
