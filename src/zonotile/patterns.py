"""Cyclic and graph patterns, their regions, domains, and purity machinery.

A cyclic pattern is a closed sequence of pairwise weakly separated subsets
whose steps either add/remove one element (1-distance, a vertical segment)
or trade one element for another at equal size (2-distance).  Drawn on the
zonogon it bounds an inside and an outside region; the sets weakly
separated from the pattern split accordingly into two domains which form a
complementary pair, hence are both pure.  The cross exchange joins the
inside of one combi to the outside of another along a shared pattern.  A
combi is fixed by its vertex set, so both steps are rules on vertex sets:
`split_quasi` takes a combi's vertices in the closed inside and in the
closed outside of the curve, and `merge_repair` rebuilds the combi of the
union of an inside half and an outside half with `from_w_collection`,
which certifies it.
"""

from __future__ import annotations

from functools import cached_property, reduce
from itertools import combinations
from operator import or_

from . import bitsets as bs
from ._planar import TilingError
from ._value import Value
from .combi import Combi, from_w_collection
from .geometry import (
    Point,
    angle_sort_key,
    boundary_cycle,
    default_generators,
    embedding_table,
    first_crossing,
    point_in_closed_polyline,
    polygon_area2,
    sub,
)
from .separation import (
    SetFamily,
    compatible_row,
    compatible_sets,
    members_mask,
    purity_verdict,
)

class CyclicPattern(Value):
    """Cyclic sequence of subsets with 1- or 2-distance steps."""

    n: int
    cycle: tuple[int, ...]

    def __init__(self, n: int, cycle) -> None:
        bs.check_ground(n)
        cyc = tuple(cycle)
        if cyc and cyc[0] == cyc[-1]:
            cyc = cyc[:-1]
        if len(cyc) < 3:
            raise ValueError("a cyclic pattern needs at least three sets")
        # int members are all subsets of {1..n} exactly when their union is;
        # members with no union, or one that is not an int, go to the scan,
        # which names the first bad member
        try:
            union = reduce(or_, cyc)
        except TypeError:
            union = None
        if type(union) is not int or union & ~bs.full_mask(n):
            for m in cyc:
                bs.check_subset(m, n)
        self._fill(n, cyc)
        # in cycle order, so the first illegal step is the one named
        a = cyc[0]
        for b in (*cyc[1:], cyc[0]):
            d = (a ^ b).bit_count()
            if d != 1 and (d != 2 or a.bit_count() != b.bit_count()):
                raise ValueError(
                    f"illegal step {bs.format_subset(a)} -> {bs.format_subset(b)}: "
                    "steps must be 1-distance or equal-size 2-distance"
                )
            a = b

    def steps(self) -> list[tuple[int, int]]:
        c = self.cycle
        return list(zip(c, c[1:] + c[:1]))

    def canonical(self) -> tuple[int, ...]:
        c = self.cycle
        return min(seq[r:] + seq[:r] for seq in (c, c[::-1]) for r in range(len(c)))

    @cached_property
    def _kind(self) -> str:
        # Worked out on the first classification and, like `Combi._vertices`,
        # not a field, so equality and hashing see only n and the
        # cycle.  A classification that raises leaves nothing behind.
        return _classification(self)


def _legal_step(a: int, b: int) -> bool:
    """A 1-distance step, or a 2-distance one between sets of equal size."""
    d = bs.size(a ^ b)
    return d == 1 or (d == 2 and bs.size(a) == bs.size(b))


def _by_distance(steps) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Legal steps split into the 2-distance ones and the 1-distance ones."""
    twos = [s for s in steps if bs.size(s[0] ^ s[1]) == 2]
    return twos, [s for s in steps if bs.size(s[0] ^ s[1]) == 1]


def boundary_pattern(n: int) -> CyclicPattern:
    return CyclicPattern(n, boundary_cycle(n))


def _pairwise_weakly_separated(members, n: int) -> bool:
    distinct = set(members)
    fam = members_mask(distinct)
    return compatible_row(distinct, n, "weak") & fam == fam


# Each quadruple condition is stated about a common intersection; about a
# common union it is the same condition on the complements within {1..16}:
# X -> [n]\X keeps weak separation, swaps intersections and unions, and keeps
# the elements a step trades.
_FULL = bs.full_mask(bs.MAX_GROUND)


def _co(step: tuple[int, int]) -> tuple[int, int]:
    return _FULL ^ step[0], _FULL ^ step[1]


def _interleaved(p: tuple[int, int], q: tuple[int, int]) -> bool:
    """Two 2-distance steps about one intersection whose traded elements interleave."""
    (a1, b1), (a2, b2) = p, q
    x = a1 & b1
    if a2 & b2 != x:
        return False
    # each traded element is a singleton, and singletons order as their elements
    t0, t1 = sorted((a1 ^ x, b1 ^ x))
    s0, s1 = sorted((a2 ^ x, b2 ^ x))
    return t0 < s0 < t1 < s1 or s0 < t0 < s1 < t1


def _climbs(two: tuple[int, int], one: tuple[int, int]) -> bool:
    """A 1-distance step up from the intersection of a 2-distance step by an
    element strictly between the two that step trades."""
    (a, b), (c, d) = two, one
    x = a & b
    if c & d != x:
        return False
    i, k = sorted((a ^ x, b ^ x))
    return i < c ^ d < k


def _quadruple_violation(twos, ones) -> str | None:
    """The first pair of 2-distance steps breaking the interleaving
    condition, else of a 2-distance and a 1-distance step breaking the
    spanning condition, as text; None if there is none."""
    for p, q in combinations(twos, 2):
        if _interleaved(p, q) or _interleaved(_co(p), _co(q)):
            return f"edges {p} and {q} violate the interleaving condition"
    for two in twos:
        for one in ones:
            if _climbs(two, one) or _climbs(_co(two), _co(one)):
                return f"edges {two} and {one} violate the spanning condition"
    return None


def curve_points(pattern: CyclicPattern) -> list[Point]:
    table = embedding_table(default_generators(pattern.n))
    return [table[v] for v in pattern.cycle]


def _chords_laminar(pairs: list[tuple[int, int]]) -> bool:
    """Ascending pairs of distinct positions must nest or be disjoint."""
    for (a, b), (c, d) in combinations(pairs, 2):
        if (a < c < b) != (a < d < b):
            return False
    return True


def curve_kind(pattern: CyclicPattern) -> str:
    """Geometric verdict on the closed curve: 'simple', 'touching', 'crossing'."""
    pts = curve_points(pattern)
    r = len(pts)
    # adjacent segments share an endpoint, so for them "cross" is exactly a
    # collinear fold-back
    if first_crossing(list(zip(pts, pts[1:] + pts[:1]))) is not None:
        return "crossing"
    if len(set(pts)) == r:
        return "simple"
    multiplicity: dict[Point, list[int]] = {}
    for idx, p in enumerate(pts):
        multiplicity.setdefault(p, []).append(idx)
    # no two segments leave a point in one direction: they would overlap,
    # which the pass above calls a crossing
    for p, occurrences in multiplicity.items():
        # each visit leaves p along two segments; around p, the positions
        # of one visit's two directions must not interleave with another's
        dirs = [(sub(pts[(idx + step) % r], p), v) for v, idx in enumerate(occurrences) for step in (-1, 1)]
        order = [v for _, v in sorted(dirs, key=lambda t: angle_sort_key(t[0]))]
        pairs = [tuple(k for k, w in enumerate(order) if w == v) for v in range(len(occurrences))]
        if not _chords_laminar(pairs):
            return "crossing"
    return "touching"


def classify_pattern(pattern: CyclicPattern) -> str:
    """Combinatorial pattern class, cross-validated against the exact curve.

    Requires pairwise weak separation of the members; with distinct members
    the quadruple conditions decide self-crossing and must agree with the
    geometric test, otherwise the touch-only test decides semi-simplicity.
    The pattern keeps its class once worked out, so `classify_pattern`,
    `regions` and `split_quasi` on one pattern run `curve_kind` once; an
    input that fails raises again on every call.
    """
    return pattern._kind


def _classification(pattern: CyclicPattern) -> str:
    cyc = pattern.cycle
    if not _pairwise_weakly_separated(cyc, pattern.n):
        raise ValueError("pattern members must be pairwise weakly separated")
    geo = curve_kind(pattern)
    if len(set(cyc)) != len(cyc):
        return "semi_simple" if geo == "touching" else "self_crossing"
    twos, ones = _by_distance(pattern.steps())
    combinatorial_ok = _quadruple_violation(twos, ones) is None
    if combinatorial_ok != (geo != "crossing"):
        raise TilingError(
            "pattern",
            "quadruple conditions disagree with the exact curve test; "
            f"combinatorial={combinatorial_ok}, curve={geo}",
        )
    if not combinatorial_ok:
        return "self_crossing"
    return "simple" if not twos else "generalized_ok"


class PatternRegions(Value):
    pattern: CyclicPattern

    @cached_property
    def _table(self) -> tuple[Point, ...]:
        return embedding_table(default_generators(self.pattern.n))

    @cached_property
    def points(self) -> list[Point]:
        return curve_points(self.pattern)

    def locate(self, mask: int) -> str:
        return point_in_closed_polyline(self._table[mask], self.points)

    def _closed_sides(self, masks) -> tuple[list[int], list[int]]:
        """The masks in the closed inside and those in the closed outside of
        the curve, each in the given order; the curve's own lie in both."""
        where = [(x, self.locate(x)) for x in masks]
        return [x for x, w in where if w != "outside"], [x for x, w in where if w != "inside"]


def regions(pattern: CyclicPattern) -> PatternRegions:
    if classify_pattern(pattern) == "self_crossing":
        raise ValueError("a self-crossing pattern does not bound regions")
    return PatternRegions(pattern)


def pattern_compatible_sets(pattern: CyclicPattern, relation: str = "weak") -> SetFamily:
    """All subsets separated (weakly by default) from every member of the pattern."""
    return SetFamily._trusted(pattern.n, tuple(compatible_sets(set(pattern.cycle), pattern.n, relation)))


def domains(pattern: CyclicPattern, relation: str = "weak") -> tuple[SetFamily, SetFamily]:
    """Split the compatible sets into the closed inside and outside domains."""
    reg = regions(pattern)
    inner, outer = reg._closed_sides(pattern_compatible_sets(pattern, relation).members)
    return SetFamily._trusted(pattern.n, tuple(inner)), SetFamily._trusted(pattern.n, tuple(outer))


def strong_domains(pattern: CyclicPattern) -> tuple[SetFamily, SetFamily]:
    """Inside/outside domains under strong separation."""
    return domains(pattern, "strong")


def verify_complementary(dom: SetFamily, dom2: SetFamily, relation: str = "weak") -> bool:
    """Every member of one domain is separated from every member of the
    other; both relations are symmetric, so only the smaller's rows are built."""
    small, large = sorted((dom, dom2), key=len)
    other = members_mask(large.members)
    return compatible_row(small.members, max(dom.n, dom2.n), relation) & other == other


# --------------------------------------------------------------------------
# quasi-combies: splitting a combi along a pattern curve and merging halves


class QuasiCombi(Value):
    """One half of a combi split along a pattern: the combi's vertices in the
    closed inside (region "in") or the closed outside ("out") of the curve."""

    n: int
    region: str
    pattern: tuple[int, ...]
    vertices: frozenset[int]

    def vertex_masks(self) -> frozenset[int]:
        return self.vertices


def split_quasi(combi: Combi, pattern: CyclicPattern) -> tuple[QuasiCombi, QuasiCombi]:
    """Split the combi along the pattern curve into its inside and outside
    halves: the vertices not outside the curve, and those not inside it.

    A combi is fixed by its vertex set, so a half is its vertex set; the two
    halves meet in the pattern's members and together hold every vertex.
    """
    reg = regions(pattern)
    verts = combi._vertices
    if not set(pattern.cycle).issubset(verts):
        raise ValueError("pattern members must be vertices of the combi")
    inside, outside = reg._closed_sides(verts)
    return (
        QuasiCombi(combi.n, "in", pattern.cycle, frozenset(inside)),
        QuasiCombi(combi.n, "out", pattern.cycle, frozenset(outside)),
    )


def merge_repair(inside: QuasiCombi, outside: QuasiCombi) -> Combi:
    """The combi of the union of two quasi-combi halves split along a shared
    pattern, one inside half and one outside, possibly of different combies.

    A combi is fixed by its vertex set, so the merge reads only the halves'
    vertex sets: `from_w_collection` rebuilds the combi of their union and
    certifies it, raising `TilingError` if the union is not the spectrum of
    a combi.
    """
    if inside.n != outside.n:
        raise ValueError("halves live on different ground sets")
    if CyclicPattern(inside.n, inside.pattern).canonical() != CyclicPattern(
        outside.n, outside.pattern
    ).canonical():
        raise ValueError("halves were split along different patterns")
    if inside.region == outside.region:
        raise ValueError("need one inside half and one outside half")
    verts = inside.vertex_masks() | outside.vertex_masks()
    return from_w_collection(SetFamily(inside.n, verts), check_input=False)


# --------------------------------------------------------------------------
# planar graph patterns and their face domains


class GraphPattern(Value):
    """Planar graph of pattern vertices with 1-/2-distance edges."""

    n: int
    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    def __init__(self, n: int, vertices, edges) -> None:
        bs.check_ground(n)
        verts = tuple(sorted(set(vertices)))
        for v in verts:
            bs.check_subset(v, n)
        vset = set(verts)
        norm = set()
        for u, v in edges:
            if u == v or u not in vset or v not in vset:
                raise ValueError("edges must join two distinct pattern vertices")
            if not _legal_step(u, v):
                raise ValueError("edges must be 1- or 2-distance pairs")
            norm.add((min(u, v), max(u, v)))
        self._fill(n, verts, tuple(sorted(norm)))


def graph_pattern(n: int, vertices, edges) -> GraphPattern:
    """Build and fully check a graph pattern, the zonogon boundary cycle added.

    Verifies that the vertex family is weakly separated, that every edge
    pair obeys the quadruple conditions, and that the drawn segments are
    pairwise non-crossing.
    """
    cyc = boundary_cycle(n)
    verts = set(vertices) | set(cyc)
    if not _pairwise_weakly_separated(verts, n):
        raise ValueError("graph-pattern vertices must form a weakly separated family")
    pat = GraphPattern(n, verts, [*edges, *zip(cyc, cyc[1:] + cyc[:1])])
    violation = _quadruple_violation(*_by_distance(pat.edges))
    if violation is not None:
        raise ValueError(violation)
    pts = embedding_table(default_generators(n))
    hit = first_crossing([(pts[a], pts[b]) for a, b in pat.edges])
    if hit is not None:
        i, j = hit
        raise ValueError(f"edges {pat.edges[i]} and {pat.edges[j]} cross in the plane")
    return pat


class PatternFace(Value):
    """A bounded face of the graph pattern, traced counterclockwise."""

    cycle: tuple[int, ...]
    area2: int


def pattern_faces(pat: GraphPattern) -> list[PatternFace]:
    """Bounded faces from the rotation system of the exact embedding."""
    pts = embedding_table(default_generators(pat.n))
    outgoing: dict[int, list[int]] = {v: [] for v in pat.vertices}
    for u, v in pat.edges:
        outgoing[u].append(v)
        outgoing[v].append(u)
    for v in outgoing:
        outgoing[v].sort(key=lambda w: angle_sort_key(sub(pts[w], pts[v])))
    index_of = {
        (v, w): k for v, targets in outgoing.items() for k, w in enumerate(targets)
    }
    faces = []
    seen: set[tuple[int, int]] = set()
    for u0, targets in sorted(outgoing.items()):
        for w0 in targets:
            if (u0, w0) in seen:
                continue
            cycle = []
            u, w = u0, w0
            while (u, w) not in seen:
                seen.add((u, w))
                cycle.append(u)
                back = index_of[(w, u)]
                nxt = outgoing[w][(back - 1) % len(outgoing[w])]
                u, w = w, nxt
            area2 = polygon_area2([pts[v] for v in cycle])
            if area2 > 0:
                faces.append(PatternFace(tuple(cycle), area2))
    faces.sort(key=lambda f: f.cycle)
    return faces


def graph_pattern_domains(pat: GraphPattern):
    """Map each bounded face to the compatible sets lying in its closure.

    A face takes the sets on its boundary and the sets strictly inside it
    and strictly inside no smaller face: faces strictly around one point are
    nested, so each such set goes to the smallest face around it.
    """
    n = pat.n
    compatible = compatible_sets(pat.vertices, n, "weak")
    table = embedding_table(default_generators(n))
    faces = pattern_faces(pat)
    curves = [[table[v] for v in face.cycle] for face in faces]
    hits: list[list[int]] = [[] for _ in faces]
    for x in compatible:
        where = [point_in_closed_polyline(table[x], curve) for curve in curves]
        home = min((f.area2 for f, w in zip(faces, where) if w == "inside"), default=None)
        for face, w, found in zip(faces, where, hits):
            if w == "on" or (w == "inside" and face.area2 == home):
                found.append(x)
    return [(face, SetFamily(n, found)) for face, found in zip(faces, hits)]


def verify_face_domains(pat: GraphPattern, verdict=purity_verdict) -> bool:
    """All face-domain pairs complementary and every face domain pure, each
    purity verdict from `verdict(domain, relation)`."""
    doms = graph_pattern_domains(pat)
    for (_, fa), (_, fb) in combinations(doms, 2):
        if not verify_complementary(fa, fb):
            return False
    return all(verdict(fam, "weak").pure for _, fam in doms)


def grassmann_necklace(sequence, n: int) -> tuple[CyclicPattern, int]:
    """Validate a necklace in the discrete Grassmannian and build its pattern.

    The defining condition fixes each consecutive difference to one rotating
    singleton; the first difference fixes the index convention's offset,
    which is returned alongside the cyclic pattern.
    """
    seq = tuple(sequence)
    bs.check_ground(n)
    if len(seq) != n:
        raise ValueError(f"a necklace on ground size {n} needs exactly {n} sets")
    if len({bs.size(s) for s in seq}) != 1:
        raise ValueError("necklace sets must share one cardinality")
    offset = bs.min_element(seq[1 % n] & ~seq[0]) - 1
    if any(seq[(p + 1) % n] & ~seq[p] != bs.singleton((p + offset) % n + 1) for p in range(n)):
        raise ValueError("sequence satisfies the necklace condition for no offset")
    pattern = CyclicPattern(n, seq)
    if classify_pattern(pattern) == "self_crossing":
        raise ValueError("necklace pattern is self-crossing")
    return pattern, offset


def interval_necklace(n: int, m: int) -> tuple[int, ...]:
    """The necklace of cyclic intervals of size m."""
    if not 0 < m < n:
        raise ValueError("need 0 < m < n for a nondegenerate necklace")
    return tuple(bs.mask_of((start + k) % n + 1 for k in range(m)) for start in range(n))
