"""The differential references of the tests, one section per layer.

Each oracle is stated from the paper's definitions or kept from the code the
program replaced, and never calls a routine of the layer it checks.  The
separation predicates read their subsets as element sets, not bitmasks, as
`perfbench/oracles.py` does (which this module does not import).  Where an
oracle calls a routine of another layer, an oracle test holds that routine,
and the oracle's docstring names the test.  The value types (`SetFamily`,
the tiles, `Combi`, `RhombusTiling`, `Generators`), their readings held by
`test_corner_reading.py::test_readings_match_the_per_kind_reference`, and
`zonotile.bitsets` are data here, not layers.  The last section holds no
oracle: the inputs that several tests loop over, each built once per run.
"""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key, lru_cache
from itertools import combinations
from math import lcm

from zonotile import bitsets as bs
from zonotile._planar import TilingError
from zonotile.combi import Combi, Delta, Lens, MConfig, Nabla, Tile, WConfig, from_w_collection, validate_combi
from zonotile.geometry import Generators, point_in_closed_polyline, segment_contact
from zonotile.patterns import CyclicPattern
from zonotile.rhombus import RhombusTiling, from_s_collection
from zonotile.separation import SetFamily, enumerate_maximal, hypercube_domain
from zonotile.suite import sample_cycle


# Separation: the relations on element sets, maximality and the clique search.


@lru_cache(maxsize=None)
def elements(mask: int) -> frozenset[int]:
    """The subset of {1..n} whose bitmask is `mask` (bit e-1 for element e)."""
    return frozenset(e + 1 for e in range(mask.bit_length()) if mask >> e & 1)


@lru_cache(maxsize=None)
def strongly_separated(a: int, b: int) -> bool:
    """A - B lies wholly before B - A or wholly after it, an empty side
    lying anywhere."""
    x, y = elements(a) - elements(b), elements(b) - elements(a)
    return not x or not y or max(x) < min(y) or max(y) < min(x)


@lru_cache(maxsize=None)
def splits_around(a: int, b: int) -> bool:
    """A splits B: A - B is nonempty and B - A is the union of two nonempty
    parts, one below all of A - B and one above it.  Such a low part is an
    initial run of B - A, so trying each cut of B - A tries every
    decomposition."""
    x, y = elements(a) - elements(b), sorted(elements(b) - elements(a))
    return bool(x) and any(y[k - 1] < min(x) and max(x) < y[k] for k in range(1, len(y)))


@lru_cache(maxsize=None)
def weakly_separated(a: int, b: int) -> bool:
    """Strongly separated, or the larger set (either, at equal sizes) splits
    the other."""
    na, nb = len(elements(a)), len(elements(b))
    return (strongly_separated(a, b) or (na >= nb and splits_around(a, b))
            or (nb >= na and splits_around(b, a)))


SEPARATED = {"weak": weakly_separated, "strong": strongly_separated}


def maximal_cliques_of(neighbours: dict) -> list[tuple]:
    """Every maximal clique of the graph whose vertex v has the neighbour set
    `neighbours[v]`, as an ascending tuple, in ascending order: Bron and
    Kerbosch's search with Tomita's pivot, a vertex of the most candidate
    neighbours, on Python sets."""
    out = []

    def extend(clique, cand, done):
        if not cand and not done:
            out.append(tuple(sorted(clique)))
            return
        pivot = max(cand | done, key=lambda u: len(cand & neighbours[u]))
        for v in cand - neighbours[pivot]:
            extend(clique | {v}, cand & neighbours[v], done & neighbours[v])
            cand, done = cand - {v}, done | {v}

    extend(set(), set(neighbours), set())
    return sorted(out)


def clique_collections(domain, relation: str) -> list[tuple[int, ...]]:
    """The members of every maximal separated collection of the domain, the
    maximal cliques of its members under the predicate, in ascending order."""
    rel, mem = SEPARATED[relation], domain.members
    return maximal_cliques_of({a: {b for b in mem if b != a and rel(a, b)} for a in mem})


def maximal_reference(members, n, relation):
    """Pairwise separated and no subset of {1..n} can be added."""
    rel = SEPARATED[relation]
    if not all(rel(a, b) for a, b in combinations(members, 2)):
        return False
    return not any(c not in members and all(rel(c, m) for m in members) for c in range(1 << n))


def brute_force_maximal(domain, relation):
    """The members of every maximal separated collection of the domain, in
    ascending order, from every subset of its members checked pair by pair
    with the predicate: no clique search."""
    rel, mem = SEPARATED[relation], domain.members
    k = len(mem)
    adj = [sum(1 << j for j in range(k) if j != i and rel(mem[i], mem[j])) for i in range(k)]
    # a subset is separated when its rest is and its top member is separated
    # from each member of the rest
    separated = [True] * (1 << k)
    for s in range(1, 1 << k):
        top = s.bit_length() - 1
        rest = s ^ 1 << top
        separated[s] = separated[rest] and rest & ~adj[top] == 0
    return sorted(tuple(mem[i] for i in range(k) if s >> i & 1)
                  for s in range(1 << k)
                  if separated[s] and not any(s & ~adj[j] == 0 for j in range(k) if not s >> j & 1))


# Geometry: the generators, segment contact and point location.


@lru_cache(maxsize=None)
def fraction_generators(n, shift=0):
    """The generator vectors in Fractions: the points of the rational
    parametrization at u = 2(n-k+1)/(n+1), scaled by the least common
    denominator.  A `shift` moves the k-th u by shift/((n+2)(k+2)), which
    gives another valid generator set for n."""
    pts = []
    for k in range(1, n + 1):
        u = Fraction(2 * (n - k + 1), n + 1) + Fraction(shift, (n + 2) * (k + 2))
        p, q = u.numerator, u.denominator
        d = p * p + q * q
        pts.append((Fraction(q * q - p * p, d), Fraction(2 * p * q, d)))
    denom = lcm(*(c.denominator for p in pts for c in p))
    return tuple((int(x * denom), int(y * denom)) for x, y in pts)


@lru_cache(maxsize=None)
def subset_points(vectors) -> tuple[tuple[int, int], ...]:
    """The point of every subset, indexed by its mask: the sum of its
    elements' vectors."""
    return tuple(
        (sum(vectors[e - 1][0] for e in elements(m)), sum(vectors[e - 1][1] for e in elements(m)))
        for m in range(1 << len(vectors))
    )


def points(n: int) -> tuple[tuple[int, int], ...]:
    """`subset_points` of the vectors of `fraction_generators(n)`."""
    return subset_points(fraction_generators(n))


@lru_cache(maxsize=None)
def zonogon(n: int) -> tuple[Generators, tuple[tuple[int, int], ...], int]:
    """The generators of `fraction_generators(n)`, the zonogon's boundary as
    directed edges, counterclockwise: up the suffixes {n}, {n-1, n}, ...
    from the empty set to {1..n}, then down the prefixes; and its doubled
    area by the shoelace formula."""
    full = (1 << n) - 1
    cyc = [full ^ ((1 << (n - k)) - 1) for k in range(n)] + [(1 << k) - 1 for k in range(n, 0, -1)]
    edges = tuple(zip(cyc, cyc[1:] + cyc[:1]))
    pts = points(n)
    area2 = sum(pts[u][0] * pts[v][1] - pts[u][1] * pts[v][0] for u, v in edges)
    return Generators(n, fraction_generators(n)), edges, area2


def _orient(a, b, c):
    d = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (d > 0) - (d < 0)


def _on_segment(p, a, b):
    return _orient(a, b, p) == 0 and all(min(a[k], b[k]) <= p[k] <= max(a[k], b[k]) for k in (0, 1))


def _segments_properly_cross(a, b, c, d):
    o1, o2 = _orient(a, b, c), _orient(a, b, d)
    o3, o4 = _orient(c, d, a), _orient(c, d, b)
    return o1 * o2 < 0 and o3 * o4 < 0


def _collinear_overlap(a, b, c, d):
    if _orient(a, b, c) != 0 or _orient(a, b, d) != 0:
        return False
    pts = [p for p in (c, d) if _on_segment(p, a, b)] + [p for p in (a, b) if _on_segment(p, c, d)]
    return len(set(pts)) >= 2


def reference_segment_contact(a, b, c, d):
    if _segments_properly_cross(a, b, c, d) or _collinear_overlap(a, b, c, d):
        return "cross"
    touching = [p for p in set((a, b, c, d))
                if (p in (a, b) and _on_segment(p, c, d)) or (p in (c, d) and _on_segment(p, a, b))]
    if not touching:
        return "none"
    if all(p in (a, b) and p in (c, d) for p in touching):
        return "endpoint"
    return "cross"


def reference_point_location(p, points):
    r = len(points)
    for k in range(r):
        if _on_segment(p, points[k], points[(k + 1) % r]):
            return "on"
    wind = 0
    for k in range(r):
        a, b = points[k], points[(k + 1) % r]
        if a[1] <= p[1]:
            if b[1] > p[1] and _orient(a, b, p) > 0:
                wind += 1
        elif b[1] <= p[1] and _orient(a, b, p) < 0:
            wind -= 1
    return "inside" if wind != 0 else "outside"


def _by_angle(u, v) -> int:
    """Directions compared by their angle in [0, 2*pi): the upper half-plane
    with the positive x axis comes first; within a half-plane, u comes first
    when v lies counterclockwise of it."""
    lower = lambda w: w[1] < 0 or (w[1] == 0 and w[0] < 0)
    turn = u[0] * v[1] - u[1] * v[0]
    return (lower(u) - lower(v)) or (turn < 0) - (turn > 0)


# Combi: reconstruction, the planar cover, the readings of a combi's tiles
# and the tile scans.


def _triangles(members, n):
    """Fan rule: consecutive outgoing edges at a vertex span a Nabla, and
    consecutive incoming edges span a Delta.  The edges out of X are the
    elements i with X+i also a member."""
    ups = {x: [i for i in range(1, n + 1) if not bs.has(x, i) and (x | bs.singleton(i)) in members]
           for x in members}
    nablas = []
    deltas = []
    for x, types in ups.items():
        for i, j in zip(types, types[1:]):
            nablas.append(Nabla(x, i, j))
    downs = {}
    for x, types in ups.items():
        for i in types:
            downs.setdefault(x | bs.singleton(i), []).append(i)
    for x, types in downs.items():
        types.sort(reverse=True)
        for i, j in zip(types, types[1:]):
            deltas.append(Delta(x, j, i))
    return deltas, nablas


def _peel_lenses(level, nabla_bases, delta_bases, members):
    """Recover the lenses of one girdle (one level) from the triangle base
    edges, as reconstruction did before lenses were read off the members.

    The lower frontier starts as the nabla bases; a maximal run of frontier
    edges with a constant pairwise union and at least two edges is the lower
    boundary of a lens exactly when witness vertices exist between its end
    types; emitting the lens replaces the run by the lens's upper path.
    Edges that are also delta bases are complete (degenerate lenses).
    """
    succ = {a: b for a, b in nabla_bases}
    frontier = set(nabla_bases)
    lenses = []
    while frontier - delta_bases:
        heads = {b for _, b in frontier}
        starts = [a for a, _ in frontier if a not in heads]
        progress = False
        for start in sorted(starts):
            path = [start]
            while path[-1] in succ and (path[-1], succ[path[-1]]) in frontier:
                path.append(succ[path[-1]])
            runs = []
            k = 0
            while k + 1 < len(path):
                if (path[k], path[k + 1]) in delta_bases:
                    k += 1
                    continue
                j = k
                union = path[k] | path[k + 1]
                while (j + 1 < len(path) and (path[j], path[j + 1]) not in delta_bases
                       and (path[j] | path[j + 1]) == union):
                    j += 1
                if j - k >= 2:
                    runs.append(path[k : j + 1])
                k = j
            for run in runs:
                lo, hi = run[0], run[-1]
                meet = lo & hi
                t_lo, t_hi = bs.min_element(lo & ~meet), bs.min_element(hi & ~meet)
                witnesses = [
                    meet | bs.singleton(s)
                    for s in range(min(t_lo, t_hi) + 1, max(t_lo, t_hi))
                    if not bs.has(meet, s) and (meet | bs.singleton(s)) in members
                ]
                if not witnesses:
                    continue
                upper = [lo] + witnesses + [hi]
                lenses.append(Lens(upper, run))
                for a, b in zip(run, run[1:]):
                    frontier.discard((a, b))
                    succ.pop(a, None)
                for a, b in zip(upper, upper[1:]):
                    frontier.add((a, b))
                    succ[a] = b
                progress = True
        if not progress:
            raise TilingError("girdle", f"level {level}: lens recovery stalled")
    if frontier != delta_bases:
        raise TilingError("girdle", f"level {level}: frontier does not close onto the delta bases")
    return lenses


def reference_combi(family):
    """The two-step assembly: triangles first, then the bases and the
    members grouped by level for the lens peeling."""
    n, members = family.n, family.as_set()
    deltas, nablas = _triangles(members, n)
    by_level = {}
    for m in members:
        by_level.setdefault(bs.size(m), set()).add(m)
    nb_by_level = {}
    for v in nablas:
        nb_by_level.setdefault(bs.size(v.left), []).append((v.left, v.right))
    db_by_level = {}
    for d in deltas:
        db_by_level.setdefault(bs.size(d.left), set()).add((d.left, d.right))
    lenses = []
    for level, bases in sorted(nb_by_level.items()):
        members = frozenset(by_level.get(level, ()))
        lenses.extend(_peel_lenses(level, sorted(bases), db_by_level.get(level, set()), members))
    return Combi(n, deltas, nablas, lenses)


def _reference_turns(pts):
    """The first vertex index where the polygon fails to turn strictly left
    (None if there is none), and its doubled signed area."""
    m = len(pts)
    bent = None
    area = 0
    ax, ay = pts[-1]
    bx, by = pts[0]
    for k in range(m):
        cx, cy = pts[(k + 1) % m]
        if bent is None and (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) <= 0:
            bent = k
        area += bx * cy - by * cx
        ax, ay, bx, by = bx, by, cx, cy
    return bent, area


def reference_cover_check(gens, cycles, boundary, area2):
    """The planar-cover check as a scan that checks each tile in turn, as
    `check_planar_cover` was written before its one-pass form."""
    table = subset_points(gens.vectors)
    used = set()
    total2 = 0
    for tile, cyc in cycles:
        if len(cyc) == 3:
            a, b, c = cyc
            if a == b or b == c or c == a:
                raise TilingError("tile-shape", f"{tile} repeats a vertex")
            (ax, ay), (bx, by), (cx, cy) = table[a], table[b], table[c]
            # a triangle turns the same way at every vertex, by twice its area
            area = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
            bent = 0 if area <= 0 else None
            keys = [a << 16 | b, b << 16 | c, c << 16 | a]
        else:
            m = len(cyc)
            if m < 3:
                raise TilingError("tile-shape", f"{tile} has fewer than 3 vertices")
            if len(set(cyc)) != m:
                raise TilingError("tile-shape", f"{tile} repeats a vertex")
            bent, area = _reference_turns([table[v] for v in cyc])
            keys = [u << 16 | v for u, v in zip(cyc, (*cyc[1:], cyc[0]))]
        if bent is not None:
            raise TilingError(
                "tile-convexity", f"{tile} is not strictly convex and counterclockwise at vertex index {bent}")
        total2 += area
        # The vertices are distinct, so the tile's own edges are too; the
        # first one already used is found walking from (cyc[0], cyc[1]).
        if not used.isdisjoint(keys):
            e = next(k for k in keys if k in used)
            raise TilingError("edge-sharing", f"directed edge {(e >> 16, e & 0xFFFF)} used twice")
        used.update(keys)

    bnd = {u << 16 | v for u, v in boundary}
    if len(bnd) != len(boundary):
        e = next(e for e, c in Counter(boundary).items() if c > 1)
        raise TilingError("region-boundary", f"boundary edge {e} repeated")
    rev = {(k & 0xFFFF) << 16 | k >> 16 for k in used}
    rbnd = {(k & 0xFFFF) << 16 | k >> 16 for k in bnd}
    if (used | rbnd) != (bnd | rev) or (used & rbnd) != (bnd & rev):
        e = min(e for e in used | bnd if (e in used) - (e in rev) != (e in bnd) - (e in rbnd))
        if e in bnd or e in rbnd:
            raise TilingError(
                "region-boundary", f"boundary edge {(e >> 16, e & 0xFFFF)} not covered exactly once by the tiles")
        raise TilingError(
            "edge-sharing", f"interior edge {(e >> 16, e & 0xFFFF)} is not shared by tiles on both sides")
    if total2 != area2:
        raise TilingError("area", f"tile areas sum to {total2}/2, region area is {area2}/2")
    return True


def reference_vertices(combi):
    verts = {0, 1} if combi.n == 1 else set()
    for d in combi.deltas:
        verts.update((d.apex, d.apex ^ (1 << (d.low - 1)), d.apex ^ (1 << (d.high - 1))))
    for v in combi.nablas:
        verts.update((v.bottom, v.bottom | (1 << (v.low - 1)), v.bottom | (1 << (v.high - 1))))
    for l in combi.lenses:
        verts.update(l.upper + l.lower)
    return verts


def reference_vertical_edges(combi):
    out = {(0, 1)} if combi.n == 1 else set()
    out.update(e for d in combi.deltas for e in ((d.left, d.apex), (d.right, d.apex)))
    out.update(e for v in combi.nablas for e in ((v.bottom, v.left), (v.bottom, v.right)))
    return out


def reference_horizontal_edges(combi):
    out = {(d.left, d.right) for d in combi.deltas} | {(v.left, v.right) for v in combi.nablas}
    for l in combi.lenses:
        out.update(zip(l.upper, l.upper[1:]))
        out.update(zip(l.lower, l.lower[1:]))
    return out


def _fan_path(fan, what: str) -> tuple[int, ...]:
    """The left-to-right base path of the triangles of one fan, () for none."""
    if not fan:
        return ()
    by_left = {t.left: t for t in fan}
    rights = {t.right for t in fan}
    starts = [t.left for t in fan if t.left not in rights]
    if len(starts) != 1:
        raise TilingError("sector", f"{what} fan does not form a single chain")
    path = [starts[0]]
    while path[-1] in by_left:
        path.append(by_left[path[-1]].right)
    return tuple(path)


def nabla_fan(combi, bottom: int) -> tuple[int, ...]:
    return _fan_path([v for v in combi.nablas if v.bottom == bottom], "upper")


def delta_fan(combi, apex: int) -> tuple[int, ...]:
    return _fan_path([d for d in combi.deltas if d.apex == apex], "lower")


def lenses_on(combi, edge: tuple[int, int], side: str) -> list:
    """Every lens with the edge on its `side` ("upper" or "lower") boundary."""
    hosts = []
    for lens in combi.lenses:
        path = lens.upper if side == "upper" else lens.lower
        if any(pair == edge for pair in zip(path, path[1:])):
            hosts.append(lens)
    return hosts


# Patterns: the quadruple conditions and the curve kind.


def violates_c3(p, q):
    """The interleaving condition as it was stated on both sides, kept as a
    reference: interleaved 2-distance pairs around a common intersection or
    union."""
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


def violates_c4(two, one):
    """The spanning condition as it was stated on both sides, kept as a
    reference: a 1-distance step climbing through the span of a 2-distance
    step."""
    a, b = two
    c, d = one if bs.size(one[0]) < bs.size(one[1]) else (one[1], one[0])
    x = a & b
    if c == x:
        i, k = sorted((bs.min_element(a & ~x), bs.min_element(b & ~x)))
        if i < bs.min_element(d & ~c) < k:
            return True
    y = a | b
    if d == y:
        i, k = sorted((bs.min_element(y & ~a), bs.min_element(y & ~b)))
        if i < bs.min_element(y & ~c) < k:
            return True
    return False


def parent_curve_kind(pattern):
    """`curve_kind` as it was: every pair of segments, then the touch-point
    analysis at each repeated point, on the curve through `points(n)`.  It
    calls `segment_contact`, which
    `test_geometry.py::test_segment_contact_matches_reference_predicates`
    holds to `reference_segment_contact`."""
    table = points(pattern.n)
    pts = [table[v] for v in pattern.cycle]
    r = len(pts)
    for i in range(r):
        a, b = pts[i], pts[(i + 1) % r]
        for j in range(i + 1, r):
            if segment_contact(a, b, pts[j], pts[(j + 1) % r]) == "cross":
                return "crossing"
    multiplicity = {}
    for idx, p in enumerate(pts):
        multiplicity.setdefault(p, []).append(idx)
    repeated = {p: occ for p, occ in multiplicity.items() if len(occ) > 1}
    if not repeated:
        return "simple"
    by_angle = cmp_to_key(_by_angle)
    for p, occurrences in repeated.items():
        dirs = [((q[0] - p[0], q[1] - p[1]), v) for v, idx in enumerate(occurrences)
                for q in (pts[idx - 1], pts[(idx + 1) % r])]
        order = [v for _, v in sorted(dirs, key=lambda t: by_angle(t[0]))]
        pairs = [tuple(k for k, w in enumerate(order) if w == v) for v in range(len(occurrences))]
        for (a, b), (c, d) in combinations(pairs, 2):
            if (a < c < b) != (a < d < b):
                return "crossing"
    return "touching"


# Contraction: the strip construction and the legal-path rules stated
# each on its own.


def _step_type(a: int, b: int) -> int:
    """Type of the vertical edge a -> b (= the single added element)."""
    d = b & ~a
    if a & ~b or bs.size(d) != 1:
        raise ValueError("not a single-element vertical step")
    return bs.min_element(d)


@dataclass(frozen=True)
class NStrip:
    tiles: tuple[Tile, ...]
    left_path: tuple[int, ...]
    right_path: tuple[int, ...]


def extract_n_strip(combi: Combi) -> NStrip:
    """The unique chain of type-*n tiles, bottom-right to top-left."""
    n = combi.n
    if n < 2:
        raise ValueError("strips need a ground set of size at least 2")
    strip_deltas = {d for d in combi.deltas if d.high == n}
    strip_nablas = {v for v in combi.nablas if v.high == n}
    strip_lenses = {l for l in combi.lenses if l.upper_types[-1] == n}
    above_delta = {(d.left, d.right): d for d in strip_deltas}
    above_lens = {(l.lower[0], l.lower[1]): l for l in strip_lenses}
    nabla_by_bottom = {v.bottom: v for v in strip_nablas}

    start = nabla_by_bottom.get(0)
    if start is None:
        raise TilingError("strip", "no tile contains the first right-boundary edge")
    total = len(strip_deltas) + len(strip_nablas) + len(strip_lenses)
    tiles: list[Tile] = [start]
    left_path: list[int] = [0, start.left]
    right_path: list[int] = [start.right]
    cur: Tile = start
    last_left = bs.full_mask(n) ^ bs.singleton(n)
    while True:
        if isinstance(cur, Nabla):
            exit_edge = (cur.left, cur.right)
        elif isinstance(cur, Lens):
            exit_edge = (cur.upper[-2], cur.upper[-1])
        else:
            if cur.left == last_left:
                break
            partner = nabla_by_bottom.get(cur.left)
            if partner is None:
                raise TilingError("strip", "strip broke at a vertical type-n edge")
            tiles.append(partner)
            if left_path[-1] != partner.bottom:
                raise TilingError("strip", "left boundary of the strip disconnected")
            left_path.append(partner.left)
            cur = partner
            continue
        nxt: Tile | None = above_delta.get(exit_edge) or above_lens.get(exit_edge)
        if nxt is None:
            raise TilingError("strip", f"no tile above strip edge {exit_edge}")
        tiles.append(nxt)
        if isinstance(nxt, Delta):
            if right_path[-1] != nxt.right:
                raise TilingError("strip", "right boundary of the strip disconnected")
            right_path.append(nxt.apex)
        else:
            if left_path[-1] != nxt.upper[0] or right_path[-1] != nxt.lower[1]:
                raise TilingError("strip", "lens does not join the strip boundaries")
            left_path.extend(nxt.upper[1:-1])
            right_path.extend(nxt.lower[2:])
        cur = nxt
    if len(tiles) != total or len(set(tiles)) != len(tiles):
        raise TilingError("strip", "strip does not visit every type-*n tile once")
    return NStrip(tuple(tiles), tuple(left_path), tuple(right_path))


def _relabel_drop(mask: int, n: int) -> int:
    if not bs.has(mask, n):
        raise TilingError("contract", "right-side vertex does not contain n")
    return mask ^ bs.singleton(n)


def reference_contract(combi: Combi) -> tuple[Combi, tuple[int, ...]]:
    """Contract away element n; returns the smaller combi and the legal path
    that reproduces the input under `n_expand`.  It certifies the smaller
    combi with `validate_combi`, which
    `test_rhombus.py::test_rhombus_reference_agrees_with_the_triangle_split`
    holds to `rhombus_verdict`."""
    n = combi.n
    strip = extract_n_strip(combi)
    in_strip = set(strip.tiles)
    sn = bs.singleton(n)
    deltas: list[Delta] = []
    nablas: list[Nabla] = []
    lenses: list[Lens] = []
    for d in combi.deltas:
        if d in in_strip:
            continue
        if d.apex & sn:
            deltas.append(Delta(_relabel_drop(d.apex, n), d.low, d.high))
        else:
            deltas.append(d)
    for v in combi.nablas:
        if v in in_strip:
            continue
        if v.bottom & sn:
            nablas.append(Nabla(_relabel_drop(v.bottom, n), v.low, v.high))
        else:
            nablas.append(v)
    for l in combi.lenses:
        if l in in_strip:
            continue
        if l.upper[0] & sn:
            lenses.append(Lens(*(tuple(_relabel_drop(v, n) for v in side) for side in (l.upper, l.lower))))
        else:
            lenses.append(l)
    # L-Z transformation of each strip lens
    for tile in strip.tiles:
        if not isinstance(tile, Lens):
            continue
        up = tile.upper
        low = [low_v if idx == 0 else _relabel_drop(low_v, n) for idx, low_v in enumerate(tile.lower)]
        apex = up[0]
        for a, b in zip(low[1:], low[2:]):
            deltas.append(Delta.on_base(apex, a, b))
        bottom = low[-1]
        for a, b in zip(up[:-2], up[1:-1]):
            nablas.append(Nabla.on_base(bottom, a, b))
    contracted = Combi(n - 1, deltas, nablas, lenses)
    # image of the strip's left boundary, with each lens replaced by its zigzag
    path: list[int] = [0]
    for tile in strip.tiles:
        if isinstance(tile, Nabla):
            if path[-1] != tile.bottom:
                raise TilingError("contract", "path assembly lost the strip boundary")
            path.append(tile.left)
        elif isinstance(tile, Delta):
            if path[-1] != tile.left:
                raise TilingError("contract", "path assembly lost the strip boundary")
        else:
            if path[-1] != tile.upper[0]:
                raise TilingError("contract", "path assembly lost the strip boundary")
            path.append(tile.lower[-1] ^ sn)
            path.append(tile.upper[-2])
    validate_combi(contracted)
    ok, why = separate_report(contracted, tuple(path))
    if not ok:
        raise TilingError("contract", f"contracted boundary path is not legal: {why}")
    return contracted, tuple(path)


def _fan_stretch(fan: tuple[int, ...], start: int, end: int, what: str) -> tuple[int, ...]:
    """The part of a fan's base path from `start` to `end`."""
    if start in fan and end in fan and fan.index(start) < fan.index(end):
        return fan[fan.index(start) : fan.index(end) + 1]
    raise TilingError("expand", f"{what} does not chain")


def _left_of_path_test(n: int, path: tuple[int, ...]):
    """The test whether a tile of an n-combi, given by its vertex cycle,
    lies left of the legal path: in the region between the zonogon's left
    boundary and the path.  The path runs along tile edges and crosses no
    tile, so a tile lies on the side of any of its vertices off the path;
    the first such vertex decides, and each is located once.  A tile with
    every vertex on the path is probed at its centroid.  It calls
    `point_in_closed_polyline`, which
    `test_geometry.py::test_point_location_matches_reference_winding` holds
    to `reference_point_location`."""
    table = points(n)
    lbd = [(1 << k) - 1 for k in range(n + 1)]
    region = [table[v] for v in lbd + list(reversed(path[1:-1]))]
    on_path = set(path)
    vertex_left: dict[int, bool] = {}
    # the region scaled by each tile size m, so the probe (m times a tile's
    # centroid) stays an integer point
    scaled_by: dict[int, list[tuple[int, int]]] = {}

    def left_of_path(cycle_masks: list[int]) -> bool:
        for v in cycle_masks:
            if v not in on_path:
                left = vertex_left.get(v)
                if left is None:
                    # "on" is the left boundary, off the path
                    where = point_in_closed_polyline(table[v], region)
                    left = vertex_left[v] = where != "outside"
                return left
        m = len(cycle_masks)
        scaled = scaled_by.get(m)
        if scaled is None:
            scaled = scaled_by[m] = [(x * m, y * m) for x, y in region]
        pts = [table[v] for v in cycle_masks]
        probe = (sum(p[0] for p in pts), sum(p[1] for p in pts))
        return point_in_closed_polyline(probe, scaled) == "inside"

    return left_of_path


def reference_expand(combi: Combi, path) -> Combi:
    """Inverse of `n_contract`: insert element n along a legal path, certified
    by `validate_combi` as in `reference_contract`."""
    path = tuple(path)
    ok, why = separate_report(combi, path)
    if not ok:
        raise ValueError(why)
    if len(set(path)) != len(path):
        raise ValueError("legal path repeats a vertex")
    n2 = combi.n
    n = n2 + 1
    sn = bs.singleton(n)
    left_of_path = _left_of_path_test(n2, path)

    # at each backward edge peak -> pit, the stretches of the delta fan at
    # the peak and of the nabla fan at the pit that the new lens replaces
    fills = []
    filled: set[Tile] = set()
    for d in range(1, len(path)):
        peak, pit = path[d - 1], path[d]
        if bs.size(pit) < bs.size(peak):
            low = _fan_stretch(delta_fan(combi, peak), path[d - 2], pit, "lower filling at a peak")
            up = _fan_stretch(nabla_fan(combi, pit), peak, path[d + 1], "upper filling at a pit")
            fills.append((peak, pit, low, up))
            filled.update(Delta.on_base(peak, a, b) for a, b in zip(low, low[1:]))
            filled.update(Nabla.on_base(pit, a, b) for a, b in zip(up, up[1:]))

    deltas: list[Delta] = []
    nablas: list[Nabla] = []
    lenses: list[Lens] = []
    for d in combi.deltas:
        if d in filled:
            continue
        if left_of_path(d.cycle()):
            deltas.append(d)
        else:
            deltas.append(Delta(d.apex | sn, d.low, d.high))
    for v in combi.nablas:
        if v in filled:
            continue
        if left_of_path(v.cycle()):
            nablas.append(v)
        else:
            nablas.append(Nabla(v.bottom | sn, v.low, v.high))
    for l in combi.lenses:
        if left_of_path(l.cycle()):
            lenses.append(l)
        else:
            lenses.append(Lens(tuple(v | sn for v in l.upper), tuple(v | sn for v in l.lower)))

    # new strip tiles: one nabla/delta pair per slope plus the two end tiles
    for prev, v, nxt in zip(path, path[1:], path[2:]):
        if not bs.size(prev) < bs.size(v) < bs.size(nxt):
            continue
        nablas.append(Nabla(v, _step_type(v, nxt), n))
        deltas.append(Delta(v | sn, _step_type(prev, v), n))
    nablas.append(Nabla(0, _step_type(path[0], path[1]), n))
    deltas.append(Delta(bs.full_mask(n), _step_type(path[-2], path[-1]), n))

    # one lens per backward edge (Z-L transformation)
    for peak, pit, low, up in fills:
        lenses.append(Lens(up + (pit | sn,), (peak,) + tuple(v | sn for v in low)))

    out = Combi(n, deltas, nablas, lenses)
    validate_combi(out)
    return out


def separate_report(combi: Combi, path: tuple[int, ...]) -> tuple[bool, str]:
    """The check of `path_vertex_roles` with (P1), (P2) and (P3) each in a pass of its own."""
    n = combi.n
    edges = combi.vertical_edges()
    if len(path) < 2:
        return False, "P1: path too short"
    if path[0] != 0 or path[-1] != bs.full_mask(n):
        return False, "P1: path must run from the bottom to the top vertex"
    for a, b in zip(path, path[1:]):
        if (a, b) not in edges and (b, a) not in edges:
            return False, f"P1: {bs.format_subset(a)}->{bs.format_subset(b)} is not a vertical edge"
    sizes = [v.bit_count() for v in path]
    for d, (sa, sb, sc) in enumerate(zip(sizes, sizes[1:], sizes[2:]), 1):
        if sa > sb > sc:
            return False, f"P2: two consecutive backward edges at position {d}"
    for d, (a, b, c) in enumerate(zip(path, path[1:], path[2:]), 1):
        if a.bit_count() != c.bit_count():
            continue
        if a == c:
            return False, f"P3: path doubles back at position {d}"
        if a.bit_count() > b.bit_count():
            if not a ^ b < c ^ b:
                return False, f"P3: pit at position {d} bends left"
        elif not a ^ b > c ^ b:
            return False, f"P3: peak at position {d} bends left"
    return True, ""


def separate_walks(combi: Combi, within: set[int] | None = None) -> list[tuple[int, ...]]:
    """The legal paths by a walk that prunes each turn with (P2) and (P3) on its own."""
    edges = combi.vertical_edges()
    if within is not None:
        edges = [(a, b) for a, b in edges if a in within and b in within]
    ups: dict[int, list[int]] = {}
    downs: dict[int, list[int]] = {}
    for a, b in sorted(edges):
        ups.setdefault(a, []).append(b)
        downs.setdefault(b, []).append(a)
    full = bs.full_mask(combi.n)
    out: list[tuple[int, ...]] = []

    def walk(path: list[int], seen: set[int], last: int) -> None:
        cur = path[-1]
        if cur == full:
            if within is None or len(path) == len(within):
                out.append(tuple(path))
            return
        went_down = last.bit_count() > cur.bit_count()
        turn = last ^ cur
        steps = [v for v in ups.get(cur, ()) if not went_down or v ^ cur > turn]
        if not went_down:
            steps += [v for v in downs.get(cur, ()) if v ^ cur < turn]
        for nxt in steps:
            if nxt not in seen:
                path.append(nxt)
                seen.add(nxt)
                walk(path, seen, cur)
                seen.discard(nxt)
                path.pop()

    walk([0], {0}, 0)
    return out


# Flips: the tile maps and the reverse search (Avis & Fukuda 1996).


def reference_lower(combi: Combi, w: WConfig) -> Combi:
    """Replace the middle vertex core+i+k by core+j (i < j < k), by the
    paper's case analysis: two regimes above the removed vertex (its top
    companion present, or a lens absorbing the two horizontal edges) and
    three below (a single delta over a nabla, a single delta over a lens, or
    a delta fan that turns into a new lens).  The lenses and the delta fan
    are looked up in the input combi: every tile changed before a lookup has
    its apex or its edges elsewhere."""
    core, i, j, k = w.core, w.i, w.j, w.k
    si, sj, sk = bs.singleton(i), bs.singleton(j), bs.singleton(k)
    mid = core | si | sk
    new_v = core | sj
    left_top = core | si | sj
    right_top = core | sj | sk
    left_low = core | si
    right_low = core | sk
    top = core | si | sj | sk

    deltas = set(combi.deltas)
    nablas = set(combi.nablas)
    lenses = set(combi.lenses)

    nb_left = Nabla(left_low, j, k)
    nb_right = Nabla(right_low, i, j)
    if nb_left not in nablas or nb_right not in nablas:
        raise ValueError("W-configuration is not present in the combi")
    nablas.discard(nb_left)
    nablas.discard(nb_right)

    # update above the removed vertex
    if top in combi.vertex_masks():
        d_left = Delta(top, j, k)
        d_right = Delta(top, i, j)
        if d_left not in deltas or d_right not in deltas:
            raise TilingError("flip", "top companions of the W-configuration missing")
        deltas.discard(d_left)
        deltas.discard(d_right)
        deltas.add(Delta(top, i, k))
        nablas.add(Nabla(new_v, i, k))
    else:
        hosts = lenses_on(combi, (left_top, mid), "lower")
        if len(hosts) != 1 or hosts != lenses_on(combi, (mid, right_top), "lower"):
            raise TilingError("flip", "no lens carries the two horizontal flip edges")
        (host,) = hosts
        lenses.discard(host)
        if len(host.lower) >= 4:
            new_lower = tuple(v for v in host.lower if v != mid)
            lenses.add(Lens(host.upper, new_lower))
            nablas.add(Nabla(new_v, i, k))
        else:
            up = host.upper
            for a, b in zip(up, up[1:]):
                nablas.add(Nabla.on_base(new_v, a, b))

    deltas.add(Delta(left_top, i, j))
    deltas.add(Delta(right_top, j, k))

    # rebuild below the removed vertex
    fan = delta_fan(combi, mid)
    if not fan or (fan[0], fan[-1]) != (left_low, right_low):
        raise TilingError("fan", "delta fan does not run between the flip edges")
    for a, b in zip(fan, fan[1:]):
        deltas.discard(Delta.on_base(mid, a, b))
    if len(fan) == 2:  # a single delta
        under = Nabla(core, i, k)
        if under in nablas:
            nablas.discard(under)
            nablas.add(Nabla(core, i, j))
            nablas.add(Nabla(core, j, k))
        else:
            hosts = lenses_on(combi, (left_low, right_low), "upper")
            if len(hosts) != 1:
                raise TilingError("flip", "nothing beneath the flip fan base")
            (host,) = hosts
            lenses.discard(host)
            new_upper = []
            for v in host.upper:
                new_upper.append(v)
                if v == left_low:
                    new_upper.append(new_v)
            lenses.add(Lens(tuple(new_upper), host.lower))
    else:
        lenses.add(Lens((left_low, new_v, right_low), fan))

    return Combi(combi.n, deltas, nablas, lenses)


def reference_complement(combi: Combi) -> Combi:
    """Deltas and nablas swap roles with unchanged types; each lens swaps its
    boundaries, reversed and complemented."""
    full = bs.full_mask(combi.n)
    deltas = [Delta(full ^ v.bottom, v.low, v.high) for v in combi.nablas]
    nablas = [Nabla(full ^ d.apex, d.low, d.high) for d in combi.deltas]
    lenses = [
        Lens(tuple(full ^ v for v in reversed(l.lower)), tuple(full ^ v for v in reversed(l.upper)))
        for l in combi.lenses
    ]
    return Combi(combi.n, deltas, nablas, lenses)


def reference_raise(combi: Combi, m: MConfig) -> Combi:
    """Replace core+j by core+i+k: a lowering flip on the complemented combi."""
    if m.left_delta() not in combi.deltas or m.right_delta() not in combi.deltas:
        raise ValueError("M-configuration is not present in the combi")
    full = bs.full_mask(combi.n)
    comp_core = full ^ (m.core | bs.singleton(m.i) | bs.singleton(m.j) | bs.singleton(m.k))
    mirrored = WConfig(comp_core, m.i, m.j, m.k)
    return reference_complement(reference_lower(reference_complement(combi), mirrored))


def reference_mirror(combi: Combi) -> Combi:
    """Relabel every element i as n+1-i, tile by tile."""
    n = combi.n
    deltas = [Delta(bs.reverse_mask(d.apex, n), n + 1 - d.high, n + 1 - d.low) for d in combi.deltas]
    nablas = [Nabla(bs.reverse_mask(v.bottom, n), n + 1 - v.high, n + 1 - v.low) for v in combi.nablas]
    lenses = [Lens(*(tuple(bs.reverse_mask(v, n) for v in reversed(side)) for side in (l.upper, l.lower)))
              for l in combi.lenses]
    return Combi(n, deltas, nablas, lenses)


def reverse_search_count(root, raises, lowers, flip) -> int:
    """The number of nodes of the flip graph whose only source is `root`.

    `raises(node)` and `lowers(node)` list a node's moves, least first, as
    (base, i, j, k) tuples that name the same hexagon or configuration in
    both directions; `flip(node, move, direction)` makes one move.  Asserts
    that every node's least lowering move leads back to its parent."""
    count, stack = 0, [root]
    while stack:
        node = stack.pop()
        count += 1
        for move in raises(node):
            child = flip(node, move, "raise")
            if lowers(child)[0] == move:
                assert flip(child, move, "lower") == node
                stack.append(child)
    return count


# Rhombus tilings: the quadruple rule, the hexagon scan and the flip by
# tile surgery.


def tiling_of(n: int, nablas) -> RhombusTiling:
    """The tiling of the rhombi named by the given lower halves, the nablas
    (X; i, j), each split into it and the delta (X+i+j; i, j)."""
    return RhombusTiling(Combi(n, [Delta(v.left | v.right, v.low, v.high) for v in nablas], nablas))


def quadruple_tiles(fam: SetFamily) -> set[Nabla]:
    """The reference rule: a plain rhombus on every quadruple X, X+i, X+j,
    X+ij of members (no other subset point can fall inside such a rhombus,
    so each quadruple of a maximal strong collection bounds a tile), named
    by its lower half."""
    s, n = fam.as_set(), fam.n
    return {
        Nabla(x, i, j)
        for x in s for i in range(1, n + 1) for j in range(i + 1, n + 1)
        if {x | bs.singleton(i), x | bs.singleton(j), x | bs.singleton(i) | bs.singleton(j)} <= s
        and not x & (bs.singleton(i) | bs.singleton(j))
    }


def _hexagon_halves(base: int, i: int, j: int, k: int) -> tuple[set[Nabla], set[Nabla]]:
    """The three rhombi of the hexagon at (X; i, j, k) around X+j, which a
    raise removes, and the three around X+i+k, which a lower removes."""
    si, sj, sk = bs.singleton(i), bs.singleton(j), bs.singleton(k)
    return ({Nabla(base, i, j), Nabla(base, j, k), Nabla(base | sj, i, k)},
            {Nabla(base | sk, i, j), Nabla(base | si, j, k), Nabla(base, i, k)})


def hexagon_reference(tiling: RhombusTiling, direction: str) -> list[tuple[int, int, int, int]]:
    """Every (X, i, j, k) at which the tiling holds the three tiles that a
    flip in `direction` removes, by a scan over all bases and types, in
    ascending order."""
    n, out = tiling.n, []
    for base in range(1 << n):
        for i, j, k in combinations(range(1, n + 1), 3):
            if base & (bs.singleton(i) | bs.singleton(j) | bs.singleton(k)):
                continue
            if _hexagon_halves(base, i, j, k)[direction != "raise"] <= tiling.tiles:
                out.append((base, i, j, k))
    return out


def rhombus_verdict(n: int, rhombi) -> bool:
    """The reference certify path: each rhombus (X; i, j) as one tile with
    the cycle X, X+j, X+i+j, X+i, put through `reference_cover_check`."""
    gens, boundary, area2 = zonogon(n)
    cycles = []
    for r in rhombi:
        x, si, sj = r.bottom, bs.singleton(r.low), bs.singleton(r.high)
        cycles.append((r, (x, x | sj, x | si | sj, x | si)))
    try:
        return reference_cover_check(gens, cycles, boundary, area2)
    except TilingError:
        return False


def surgery_flip(tiling: RhombusTiling, base: int, i: int, j: int, k: int, direction: str) -> RhombusTiling:
    """The reference strong flip, by tile surgery: remove the hexagon's
    three rhombi around X+j (raise) or X+i+k (lower), add the other three,
    and certify the result with `rhombus_verdict` and `validate_combi`."""
    lowered, raised = _hexagon_halves(base, i, j, k)
    old, new = (lowered, raised) if direction == "raise" else (raised, lowered)
    assert old <= tiling.tiles
    flipped = tiling_of(tiling.n, tiling.tiles - old | new)
    assert rhombus_verdict(flipped.n, flipped.tiles) == validate_combi(flipped.combi)
    return flipped


# Inputs shared by the tests.


@lru_cache(maxsize=None)
def cube_families(n: int, relation: str) -> tuple[SetFamily, ...]:
    """Every maximal `relation`-separated collection of the n-cube, in order."""
    return enumerate_maximal(hypercube_domain(n), relation).maximal_collections


@lru_cache(maxsize=None)
def cube_combis(n: int) -> tuple[Combi, ...]:
    """Every n-combi, certified, in the order of the weak n-cube's collections."""
    return tuple(from_w_collection(fam, check_input=False) for fam in cube_families(n, "weak"))


@lru_cache(maxsize=None)
def strong_tilings(n: int) -> tuple[RhombusTiling, ...]:
    """The tiling of each maximal strongly separated n-collection, in order."""
    return tuple(map(from_s_collection, cube_families(n, "strong")))


def tiling_json(tiling: RhombusTiling) -> dict:
    """The tiling as a JSON document the CLI reads: each rhombus (X; i, j),
    named by its lower half, in the order of the sorted nablas."""
    rhombi = [{"X": [*bs.elements_of(t.bottom)], "i": t.low, "j": t.high} for t in sorted(tiling.tiles)]
    return {"n": tiling.n, "rhombi": rhombi}


def pattern_json(pattern: CyclicPattern) -> dict:
    """The pattern as a JSON document the CLI reads."""
    return {"n": pattern.n, "cycle": [[*bs.elements_of(v)] for v in pattern.cycle]}


def sample_pattern(combi: Combi, rng, generalized: bool) -> CyclicPattern | None:
    """A random cycle of the combi's vertical edges, or of all its edges if
    `generalized`, as a pattern, or None if no walk closes: the draw the
    suite's pattern checks make from the same generator state."""
    edges = combi.vertical_edges() | (combi.horizontal_edges() if generalized else set())
    cycle = sample_cycle(edges, rng)
    return None if cycle is None else CyclicPattern(combi.n, cycle)
