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

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from . import bitsets as bs
from ._planar import TilingError
from .combi import Combi, from_w_collection
from .geometry import (
    Point,
    angle_sort_key,
    boundary_cycle,
    default_generators,
    embedding_table,
    point_in_closed_polyline,
    polygon_area2,
    segment_contact,
    sub,
)
from .separation import (
    PurityVerdict,
    ResourceGuardError,
    SetFamily,
    _max_enum_n,
    compatible_row,
    compatible_sets,
    members_mask,
    purity_verdict,
)

@dataclass(frozen=True)
class CyclicPattern:
    """Cyclic sequence of subsets with 1- or 2-distance steps."""

    n: int
    cycle: tuple[int, ...]

    def __init__(self, n: int, cycle) -> None:
        bs.check_ground(n)
        cyc = tuple(cycle)
        if len(cyc) >= 2 and cyc[0] == cyc[-1]:
            cyc = cyc[:-1]
        if len(cyc) < 3:
            raise ValueError("a cyclic pattern needs at least three sets")
        for m in cyc:
            bs.check_subset(m, n)
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            d = bs.size(a ^ b)
            if not (d == 1 or (d == 2 and bs.size(a) == bs.size(b))):
                raise ValueError(
                    f"illegal step {bs.format_subset(a)} -> {bs.format_subset(b)}: "
                    "steps must be 1-distance or equal-size 2-distance"
                )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "cycle", cyc)

    def steps(self) -> list[tuple[int, int]]:
        c = self.cycle
        return list(zip(c, c[1:] + c[:1]))

    def two_distance_steps(self) -> list[tuple[int, int]]:
        return [(a, b) for a, b in self.steps() if bs.size(a ^ b) == 2]

    def canonical(self) -> tuple[int, ...]:
        c = self.cycle
        best = None
        for seq in (c, tuple(reversed(c))):
            for r in range(len(seq)):
                cand = seq[r:] + seq[:r]
                if best is None or cand < best:
                    best = cand
        return best

    @cached_property
    def _kind(self) -> str:
        # Worked out on the first classification and, like `Combi._vertices`,
        # not a dataclass field, so equality and hashing see only n and the
        # cycle.  A classification that raises leaves nothing behind.
        return _classification(self)


def boundary_pattern(n: int) -> CyclicPattern:
    return CyclicPattern(n, boundary_cycle(default_generators(n)))


def _pairwise_weakly_separated(members, n: int) -> bool:
    distinct = set(members)
    fam = members_mask(distinct)
    return compatible_row(distinct, n, "weak") & fam == fam


def _violates_c3(p: tuple[int, int], q: tuple[int, int]) -> bool:
    """Interleaved 2-distance pairs around a common intersection or union."""
    (a1, b1), (a2, b2) = p, q
    if a1 & b1 == a2 & b2:
        x = a1 & b1
        t = sorted((bs.min_element(a1 & ~x), bs.min_element(b1 & ~x)))
        s = sorted((bs.min_element(a2 & ~x), bs.min_element(b2 & ~x)))
        if len({*t, *s}) == 4 and (t[0] < s[0] < t[1] < s[1] or s[0] < t[0] < s[1] < t[1]):
            return True
    if a1 | b1 == a2 | b2:
        y = a1 | b1
        t = sorted((bs.min_element(y & ~a1), bs.min_element(y & ~b1)))
        s = sorted((bs.min_element(y & ~a2), bs.min_element(y & ~b2)))
        if len({*t, *s}) == 4 and (t[0] < s[0] < t[1] < s[1] or s[0] < t[0] < s[1] < t[1]):
            return True
    return False


def _violates_c4(two: tuple[int, int], one: tuple[int, int]) -> bool:
    """A 1-distance step climbing through the span of a 2-distance step."""
    a, b = two
    c, d = one if bs.size(one[0]) < bs.size(one[1]) else (one[1], one[0])
    x = a & b
    if c == x:
        i, k = sorted((bs.min_element(a & ~x), bs.min_element(b & ~x)))
        j = bs.min_element(d & ~c)
        if i < j < k:
            return True
    y = a | b
    if d == y:
        i, k = sorted((bs.min_element(y & ~a), bs.min_element(y & ~b)))
        j = bs.min_element(y & ~c)
        if i < j < k:
            return True
    return False


def _quadruple_violation(twos, ones) -> str | None:
    """The first pair of 2-distance steps breaking the interleaving
    condition, else of a 2-distance and a 1-distance step breaking the
    spanning condition, as text; None if there is none."""
    for p, q in combinations(twos, 2):
        if _violates_c3(p, q):
            return f"edges {p} and {q} violate the interleaving condition"
    for two in twos:
        for one in ones:
            if _violates_c4(two, one):
                return f"edges {two} and {one} violate the spanning condition"
    return None


def curve_points(pattern: CyclicPattern) -> list[Point]:
    table = embedding_table(default_generators(pattern.n))
    return [table[v] for v in pattern.cycle]


def _chords_laminar(pairs: list[tuple[int, int]], m: int) -> bool:
    """Pairs over cyclic positions 0..m-1 must not interleave."""
    for (a, b), (c, d) in combinations(pairs, 2):
        inside = lambda x, lo, hi: (lo < x < hi) if lo < hi else (x > lo or x < hi)
        if inside(c, a, b) != inside(d, a, b):
            return False
    return True


def curve_kind(pattern: CyclicPattern) -> str:
    """Geometric verdict on the closed curve: 'simple', 'touching', 'crossing'."""
    pts = curve_points(pattern)
    r = len(pts)
    # adjacent segments share an endpoint, so for them "cross" is exactly a
    # collinear fold-back
    for i in range(r):
        a, b = pts[i], pts[(i + 1) % r]
        for j in range(i + 1, r):
            if segment_contact(a, b, pts[j], pts[(j + 1) % r]) == "cross":
                return "crossing"
    multiplicity: dict[Point, list[int]] = {}
    for idx, p in enumerate(pts):
        multiplicity.setdefault(p, []).append(idx)
    repeated = {p: occ for p, occ in multiplicity.items() if len(occ) > 1}
    if not repeated:
        return "simple"
    for p, occurrences in repeated.items():
        dirs: list[tuple[Point, int]] = []
        for occ_idx, idx in enumerate(occurrences):
            before = pts[(idx - 1) % r]
            after = pts[(idx + 1) % r]
            dirs.append((sub(before, p), occ_idx))
            dirs.append((sub(after, p), occ_idx))
        keyed = sorted(dirs, key=lambda t: angle_sort_key(t[0]))
        for (v1, _), (v2, _) in zip(keyed, keyed[1:]):
            if angle_sort_key(v1) == angle_sort_key(v2):
                return "crossing"
        order = [occ for _, occ in keyed]
        pairs = []
        for occ_idx in range(len(occurrences)):
            pos = [k for k, o in enumerate(order) if o == occ_idx]
            pairs.append((pos[0], pos[1]))
        if not _chords_laminar(pairs, len(order)):
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
    distinct = len(set(cyc)) == len(cyc)
    if not distinct:
        return "semi_simple" if geo == "touching" else "self_crossing"
    twos = pattern.two_distance_steps()
    ones = [(a, b) for a, b in pattern.steps() if bs.size(a ^ b) == 1]
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


@dataclass(frozen=True)
class PatternRegions:
    pattern: CyclicPattern

    @cached_property
    def _table(self) -> tuple[Point, ...]:
        return embedding_table(default_generators(self.pattern.n))

    @cached_property
    def points(self) -> list[Point]:
        return [self._table[v] for v in self.pattern.cycle]

    def locate(self, mask: int) -> str:
        return point_in_closed_polyline(self._table[mask], self.points)


def regions(pattern: CyclicPattern) -> PatternRegions:
    if classify_pattern(pattern) == "self_crossing":
        raise ValueError("a self-crossing pattern does not bound regions")
    return PatternRegions(pattern)


def pattern_compatible_sets(pattern: CyclicPattern, relation: str = "weak") -> SetFamily:
    """All subsets separated (weakly by default) from every member of the pattern."""
    n = pattern.n
    if n > _max_enum_n():
        raise ResourceGuardError(f"domain scan guard: n={n}")
    return SetFamily(n, compatible_sets(set(pattern.cycle), n, relation))


def domains(pattern: CyclicPattern, relation: str = "weak") -> tuple[SetFamily, SetFamily]:
    """Split the compatible sets into the closed inside and outside domains."""
    reg = regions(pattern)
    compatible = pattern_compatible_sets(pattern, relation)
    inner, outer = [], []
    for x in compatible.members:
        where = reg.locate(x)
        if where in ("inside", "on"):
            inner.append(x)
        if where in ("outside", "on"):
            outer.append(x)
    return SetFamily(pattern.n, inner), SetFamily(pattern.n, outer)


def strong_domains(pattern: CyclicPattern) -> tuple[SetFamily, SetFamily]:
    """Inside/outside domains under strong separation."""
    return domains(pattern, "strong")


def verify_complementary(dom: SetFamily, dom2: SetFamily, relation: str = "weak") -> bool:
    """Every member of one domain is separated from every member of the other."""
    other = members_mask(dom2.members)
    return compatible_row(dom.members, max(dom.n, dom2.n), relation) & other == other


def verify_purity(dom: SetFamily, relation: str = "weak") -> PurityVerdict:
    """The domain's purity verdict: `.pure`, `.ranks` and `.count`, with no
    maximal collection built."""
    return purity_verdict(dom, relation)


# --------------------------------------------------------------------------
# quasi-combies: splitting a combi along a pattern curve and merging halves


@dataclass(frozen=True)
class QuasiCombi:
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
    verts = combi.vertex_masks()
    if not set(pattern.cycle) <= verts:
        raise ValueError("pattern members must be vertices of the combi")
    where = {v: reg.locate(v) for v in verts}
    inside = frozenset(v for v, w in where.items() if w != "outside")
    outside = frozenset(v for v, w in where.items() if w != "inside")
    return (
        QuasiCombi(combi.n, "in", pattern.cycle, inside),
        QuasiCombi(combi.n, "out", pattern.cycle, outside),
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


@dataclass(frozen=True)
class GraphPattern:
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
            d = bs.size(u ^ v)
            if not (d == 1 or (d == 2 and bs.size(u) == bs.size(v))):
                raise ValueError("edges must be 1- or 2-distance pairs")
            norm.add((min(u, v), max(u, v)))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "edges", tuple(sorted(norm)))


def graph_pattern(n: int, vertices, edges) -> GraphPattern:
    """Build and fully check a graph pattern, the zonogon boundary cycle added.

    Verifies that the vertex family is weakly separated, that every edge
    pair obeys the quadruple conditions, and that the drawn segments are
    pairwise non-crossing.
    """
    verts = set(vertices)
    edge_set = {(min(u, v), max(u, v)) for u, v in edges}
    cyc = boundary_cycle(default_generators(n))
    verts.update(cyc)
    for a, b in zip(cyc, cyc[1:] + cyc[:1]):
        edge_set.add((min(a, b), max(a, b)))
    if not _pairwise_weakly_separated(verts, n):
        raise ValueError("graph-pattern vertices must form a weakly separated family")
    pat = GraphPattern(n, verts, edge_set)
    twos = [e for e in pat.edges if bs.size(e[0] ^ e[1]) == 2]
    ones = [e for e in pat.edges if bs.size(e[0] ^ e[1]) == 1]
    violation = _quadruple_violation(twos, ones)
    if violation is not None:
        raise ValueError(violation)
    pts = embedding_table(default_generators(n))
    for (a, b), (c, d) in combinations(pat.edges, 2):
        if segment_contact(pts[a], pts[b], pts[c], pts[d]) == "cross":
            raise ValueError(f"edges {(a, b)} and {(c, d)} cross in the plane")
    return pat


@dataclass(frozen=True)
class PatternFace:
    """A bounded face of the graph pattern, traced counterclockwise."""

    cycle: tuple[int, ...]
    area2: int


def pattern_faces(pat: GraphPattern) -> list[PatternFace]:
    """Bounded faces from the rotation system of the exact embedding."""
    return _faces(pat, embedding_table(default_generators(pat.n)))


def _faces(pat: GraphPattern, pts: tuple[Point, ...]) -> list[PatternFace]:
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


def _face_closure_contains(
    face: PatternFace, all_faces: list[PatternFace], point: Point, table: tuple[Point, ...]
) -> bool:
    where = point_in_closed_polyline(point, [table[v] for v in face.cycle])
    if where != "inside":
        return where == "on"
    # inside the face, but not strictly inside a smaller face nested in it
    return not any(
        point_in_closed_polyline(point, [table[v] for v in other.cycle]) == "inside"
        for other in all_faces
        if other is not face and other.area2 < face.area2
    )


def graph_pattern_domains(pat: GraphPattern):
    """Map each bounded face to the compatible sets lying in its closure."""
    n = pat.n
    if n > _max_enum_n():
        raise ResourceGuardError(f"domain scan guard: n={n}")
    table = embedding_table(default_generators(n))
    faces = _faces(pat, table)
    compatible = compatible_sets(pat.vertices, n, "weak")
    out = []
    for face in faces:
        hits = [x for x in compatible if _face_closure_contains(face, faces, table[x], table)]
        out.append((face, SetFamily(n, hits)))
    return out


def verify_face_domains(pat: GraphPattern) -> bool:
    """All face-domain pairs complementary and every face domain pure."""
    doms = graph_pattern_domains(pat)
    for (_, fa), (_, fb) in combinations(doms, 2):
        if not verify_complementary(fa, fb):
            return False
    return all(verify_purity(fam).pure for _, fam in doms)


def grassmann_necklace(sequence, n: int) -> tuple[CyclicPattern, int]:
    """Validate a necklace in the discrete Grassmannian and build its pattern.

    The defining condition fixes each consecutive difference to one rotating
    singleton; the index convention is discovered by trying every offset,
    and the validating offset is returned alongside the cyclic pattern.
    """
    seq = tuple(sequence)
    bs.check_ground(n)
    if len(seq) != n:
        raise ValueError(f"a necklace on ground size {n} needs exactly {n} sets")
    sizes = {bs.size(s) for s in seq}
    if len(sizes) != 1:
        raise ValueError("necklace sets must share one cardinality")
    valid_offsets = []
    for offset in range(n):
        ok = True
        for p in range(n):
            want = (p + offset) % n + 1
            nxt, cur = seq[(p + 1) % n], seq[p]
            if nxt & ~cur != bs.singleton(want):
                ok = False
                break
        if ok:
            valid_offsets.append(offset)
    if not valid_offsets:
        raise ValueError("sequence satisfies the necklace condition for no offset")
    pattern = CyclicPattern(n, seq)
    if classify_pattern(pattern) == "self_crossing":
        raise ValueError("necklace pattern is self-crossing")
    return pattern, valid_offsets[0]


def interval_necklace(n: int, m: int) -> tuple[int, ...]:
    """The necklace of cyclic intervals of size m."""
    if not 0 < m < n:
        raise ValueError("need 0 < m < n for a nondegenerate necklace")
    out = []
    for start in range(n):
        mask = 0
        for k in range(m):
            mask |= bs.singleton((start + k) % n + 1)
        out.append(mask)
    return tuple(out)
