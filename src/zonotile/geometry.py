"""Exact plane geometry for the zonogon model.

Generator vectors have integer coordinates, so every predicate below is
exact integer arithmetic.  Subsets of {1..n} embed as subset-sums of the
generators; the constructor builds the table of them once and verifies
that this embedding is injective.
"""

from __future__ import annotations

from functools import cmp_to_key, lru_cache
from math import gcd, lcm

from ._value import Value, _set
from .bitsets import check_ground, full_mask

Point = tuple[int, int]


def cross(a: Point, b: Point) -> int:
    return a[0] * b[1] - a[1] * b[0]


def sub(a: Point, b: Point) -> Point:
    return (a[0] - b[0], a[1] - b[1])


class Generators(Value):
    """n integer vectors in the upper half-plane, clockwise, equal norms."""

    n: int
    vectors: tuple[Point, ...]
    _table: tuple[Point, ...]

    def __init__(self, n: int, vectors) -> None:
        check_ground(n)
        vecs = tuple((x, y) for x, y in vectors)
        for x, y in vecs:  # bool is a subclass of int, so compare the exact type
            if type(x) is not int or type(y) is not int:
                raise ValueError(f"generator {(x, y)} has a coordinate that is not an integer")
        if len(vecs) != n:
            raise ValueError(f"expected {n} generator vectors, got {len(vecs)}")
        for x, y in vecs:
            if y <= 0:
                raise ValueError(f"generator {(x, y)} is not in the open upper half-plane")
        norms = {x * x + y * y for x, y in vecs}
        if len(norms) != 1:
            raise ValueError("generators must have equal euclidean norms")
        for k in range(n - 1):
            if cross(vecs[k], vecs[k + 1]) >= 0:
                raise ValueError("generators must be ordered strictly clockwise")
        # each mask's subset sum: its lowest element's vector plus the rest's sum
        table = [(0, 0)]
        for mask in range(1, 1 << n):
            low = mask & -mask
            vx, vy = vecs[low.bit_length() - 1]
            px, py = table[mask ^ low]
            table.append((px + vx, py + vy))
        if len(set(table)) != len(table):
            raise ValueError("subset sums of the generators collide")
        self._fill(n, vecs)
        _set(self, "_table", tuple(table))


def _reduced(a: int, b: int) -> tuple[int, int]:
    g = gcd(a, b)
    return (a // g, b // g)


def _circle_point(p: int, q: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """The point at u = p/q of the parametrization below, each coordinate
    a reduced (numerator, positive denominator) pair."""
    d = p * p + q * q
    return (_reduced(q * q - p * p, d), _reduced(2 * p * q, d))


@lru_cache(maxsize=64)
def default_generators(n: int) -> Generators:
    """Equal-norm rational points on a circle, clockwise in the upper half-plane.

    Uses the rational parametrization ((1-u^2)/(1+u^2), 2u/(1+u^2)) at the
    decreasing u = 2(n-k+1)/(n+1), k = 1..n, then clears denominators.  The
    `Generators` constructor checks that the subset sums are injective, as
    they are for every n in 1..16.  Built once per n: `Generators` is
    immutable, so every caller may share the result.
    """
    check_ground(n)
    pts = [_circle_point(2 * (n - k + 1), n + 1) for k in range(1, n + 1)]
    denom = lcm(*(b for p in pts for _, b in p))
    return Generators(n, [(x * denom // b, y * denom // c) for (x, b), (y, c) in pts])


def embed(mask: int, gens: Generators) -> Point:
    """The point of subset `mask`: the sum of its elements' generators."""
    if mask < 0:  # a negative index would read the table from its end
        raise IndexError(f"mask {mask} is negative")
    return embedding_table(gens)[mask]


def embedding_table(gens: Generators) -> tuple[Point, ...]:
    """The subset sum of the generators for every mask of {1..n}, indexed by mask,
    built once by the constructor: at n=16, 65,536 points, some 8 MB."""
    return gens._table


def boundary_vertices(n: int) -> tuple[list[int], list[int]]:
    """Left and right boundary vertex chains of the zonogon Z_n, bottom to
    top: the prefixes and the suffixes of {1..n}."""
    left = [((1 << k) - 1) for k in range(n + 1)]
    right = [full_mask(n) ^ ((1 << (n - k)) - 1) for k in range(n + 1)]
    return left, right


def boundary_cycle(n: int) -> list[int]:
    """Boundary vertices of Z_n in counterclockwise order, starting at the bottom."""
    left, right = boundary_vertices(n)
    return right[:-1] + list(reversed(left))[:-1]


def segment_contact(a: Point, b: Point, c: Point, d: Point) -> str:
    """How the closed segments [a, b] and [c, d] meet: 'none', 'endpoint' or 'cross'.

    'endpoint' is one shared endpoint and nothing else.  'cross' is any other
    contact: the interiors cross, an endpoint touches the other segment's
    interior, or the two touch in two distinct points, which is a collinear
    overlap.  Two segments with a shared endpoint are answered by one
    collinearity test and one sign.
    """
    if a == c or a == d or b == c or b == d:
        # [p, q] and [p, s] meet beyond their shared endpoint p exactly when
        # they leave p along one ray: collinear, and q, s on one side of p
        p, q = (a, b) if a == c or a == d else (b, a)
        s = d if p == c else c
        qx, qy, sx, sy = q[0] - p[0], q[1] - p[1], s[0] - p[0], s[1] - p[1]
        return "cross" if qx * sy == qy * sx and qx * sx + qy * sy > 0 else "endpoint"
    ux, uy = b[0] - a[0], b[1] - a[1]
    vx, vy = d[0] - c[0], d[1] - c[1]
    o1 = ux * (c[1] - a[1]) - uy * (c[0] - a[0])
    o2 = ux * (d[1] - a[1]) - uy * (d[0] - a[0])
    o3 = vx * (a[1] - c[1]) - vy * (a[0] - c[0])
    o4 = vx * (b[1] - c[1]) - vy * (b[0] - c[0])
    if o1 * o2 > 0 or o3 * o4 > 0:
        return "none"
    if o1 * o2 < 0 and o3 * o4 < 0:
        return "cross"
    # no endpoint is shared, so any touch is a cross.  Some endpoint is
    # collinear with the other segment: it touches that segment exactly when
    # it also lies in its bounding box
    for p, o, s, t in ((c, o1, a, b), (d, o2, a, b), (a, o3, c, d), (b, o4, c, d)):
        if o == 0 and (p[0] - s[0]) * (p[0] - t[0]) <= 0 and (p[1] - s[1]) * (p[1] - t[1]) <= 0:
            return "cross"
    return "none"


def first_crossing(segments: list[tuple[Point, Point]]) -> tuple[int, int] | None:
    """The first pair (i, j), i < j in `combinations` order, of segments
    whose `segment_contact` is 'cross'; None if no pair crosses.

    Segments whose closed bounding boxes are apart cannot meet, so only the
    pairs whose boxes overlap or touch reach `segment_contact`.
    """
    boxes = []
    for (ax, ay), (bx, by) in segments:
        # conditionals, not min and max: two calls fewer per coordinate
        x0, x1 = (ax, bx) if ax < bx else (bx, ax)
        y0, y1 = (ay, by) if ay < by else (by, ay)
        boxes.append((x0, x1, y0, y1))
    r = len(segments)
    for i in range(r):
        a, b = segments[i]
        x0, x1, y0, y1 = boxes[i]
        for j in range(i + 1, r):
            u0, u1, v0, v1 = boxes[j]
            if u0 <= x1 and x0 <= u1 and v0 <= y1 and y0 <= v1:
                if segment_contact(a, b, *segments[j]) == "cross":
                    return i, j
    return None


def point_in_closed_polyline(p: Point, points: list[Point]) -> str:
    """Locate p against a closed polyline: 'inside', 'on', or 'outside'.

    The polyline is given by its vertices (closing edge implied).  One pass
    over the edges: each edge whose closed y-range holds p gets one exact
    determinant, which either puts p on that edge or updates the winding
    number (Hormann & Agathos 2001).  Points of a curve with touch-points
    therefore report 'on', and 'inside' means a nonzero winding number.
    """
    if len(points) < 2:
        raise ValueError("polyline needs at least 2 points")
    px, py = p
    wind = 0
    ax, ay = points[-1]
    for bx, by in points:
        if (ay - py) * (by - py) <= 0:
            det = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
            if det == 0 and (ax - px) * (bx - px) <= 0:
                return "on"
            if ay <= py < by and det > 0:
                wind += 1
            elif by <= py < ay and det < 0:
                wind -= 1
        ax, ay = bx, by
    return "inside" if wind else "outside"


def polygon_area2(points: list[Point]) -> int:
    """Twice the signed area (positive for counterclockwise)."""
    total = 0
    r = len(points)
    for k in range(r):
        a, b = points[k], points[(k + 1) % r]
        total += cross(a, b)
    return total


def _angle_cmp(p: tuple[int, Point], q: tuple[int, Point]) -> int:
    """(half-plane, direction) pairs by half-plane, then by the cross product."""
    (h, a), (k, b) = p, q
    return h - k or -cross(a, b)


_angle_key = cmp_to_key(_angle_cmp)


def angle_sort_key(v: Point):
    """Total order on nonzero directions by angle in [0, 2*pi), exact."""
    x, y = v
    if x == 0 and y == 0:
        raise ValueError("zero direction")
    return _angle_key((0 if (y > 0 or (y == 0 and x > 0)) else 1, v))
