"""Exact plane geometry for the zonogon model.

Generator vectors are stored with integer coordinates (a common denominator
is cleared on construction), so every predicate below is exact integer
arithmetic.  Subsets of {1..n} embed as subset-sums of the generators; the
constructor verifies that this embedding is injective.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .bitsets import check_ground, full_mask, iter_elements

Point = tuple[int, int]


def cross(a: Point, b: Point) -> int:
    return a[0] * b[1] - a[1] * b[0]


def sub(a: Point, b: Point) -> Point:
    return (a[0] - b[0], a[1] - b[1])


def add(a: Point, b: Point) -> Point:
    return (a[0] + b[0], a[1] + b[1])


def orient(a: Point, b: Point, c: Point) -> int:
    """Sign of the turn a->b->c: +1 left, -1 right, 0 collinear."""
    d = cross(sub(b, a), sub(c, a))
    return (d > 0) - (d < 0)


def _lcm(a: int, b: int) -> int:
    return a // gcd(a, b) * b


@dataclass(frozen=True)
class Generators:
    """n integer vectors in the upper half-plane, clockwise, equal norms."""

    n: int
    vectors: tuple[Point, ...]

    def __init__(self, n: int, vectors) -> None:
        check_ground(n)
        vecs = tuple((int(x), int(y)) for x, y in vectors)
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
        # subset-sum injectivity, verified exhaustively for this n
        sums = {(0, 0)}
        for v in vecs:
            nxt = set(sums)
            for s in sums:
                nxt.add(add(s, v))
            if len(nxt) != 2 * len(sums):
                raise ValueError("subset sums of the generators collide")
            sums = nxt
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "vectors", vecs)

    def vector(self, i: int) -> Point:
        return self.vectors[i - 1]

    @property
    def top(self) -> Point:
        x = sum(v[0] for v in self.vectors)
        y = sum(v[1] for v in self.vectors)
        return (x, y)

    def zonogon_area2(self) -> int:
        """Twice the zonogon area (sum of rhombus parallelogram areas)."""
        total = 0
        for a in range(self.n):
            for b in range(a + 1, self.n):
                total += cross(self.vectors[b], self.vectors[a])
        return 2 * total


def _circle_point(u: Fraction) -> tuple[Fraction, Fraction]:
    p, q = u.numerator, u.denominator
    d = p * p + q * q
    return (Fraction(q * q - p * p, d), Fraction(2 * p * q, d))


@lru_cache(maxsize=64)
def default_generators(n: int, attempt: int = 0) -> Generators:
    """Equal-norm rational points on a circle, clockwise in the upper half-plane.

    Uses the rational parametrization ((1-u^2)/(1+u^2), 2u/(1+u^2)) with a
    decreasing sequence of positive u, then clears denominators.  If the
    subset sums happen to collide the u values are perturbed deterministically
    and construction retries (bounded).  Built once per (n, attempt):
    `Generators` is immutable, so every caller may share the result.
    """
    check_ground(n)
    for trial in range(attempt, attempt + 8):
        us = [
            Fraction(2 * (n - k + 1), n + 1) + Fraction(trial, (n + 2) * (k + 2))
            for k in range(1, n + 1)
        ]
        pts = [_circle_point(u) for u in us]
        denom = 1
        for x, y in pts:
            denom = _lcm(denom, _lcm(x.denominator, y.denominator))
        vecs = [(int(x * denom), int(y * denom)) for x, y in pts]
        try:
            return Generators(n, vecs)
        except ValueError:
            continue
    raise ValueError(f"could not build injective generators for n={n}")


def embed(mask: int, gens: Generators) -> Point:
    x = y = 0
    for e in iter_elements(mask):
        vx, vy = gens.vector(e)
        x += vx
        y += vy
    return (x, y)


# At n=16 a table holds 65,536 points, some 8 MB.
@lru_cache(maxsize=8)
def embedding_table(gens: Generators) -> tuple[Point, ...]:
    """`embed(mask, gens)` for every mask of {1..n}, indexed by mask."""
    table = [(0, 0)]
    vecs = gens.vectors
    for mask in range(1, 1 << gens.n):
        low = mask & -mask
        vx, vy = vecs[low.bit_length() - 1]
        px, py = table[mask ^ low]
        table.append((px + vx, py + vy))
    return tuple(table)


def boundary_vertices(gens: Generators) -> tuple[list[int], list[int]]:
    """Left and right boundary vertex chains of the zonogon, bottom to top."""
    n = gens.n
    left = [((1 << k) - 1) for k in range(n + 1)]
    right = [full_mask(n) ^ ((1 << (n - k)) - 1) for k in range(n + 1)]
    return left, right


def boundary_cycle(gens: Generators) -> list[int]:
    """Boundary vertices in counterclockwise order, starting at the bottom."""
    left, right = boundary_vertices(gens)
    return right[:-1] + list(reversed(left))[:-1]


def on_segment(p: Point, a: Point, b: Point) -> bool:
    """p lies on the closed segment [a, b]."""
    if orient(a, b, p) != 0:
        return False
    return (
        min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )


def segments_properly_cross(a: Point, b: Point, c: Point, d: Point) -> bool:
    """Open segments (a,b) and (c,d) share exactly one interior point."""
    o1, o2 = orient(a, b, c), orient(a, b, d)
    o3, o4 = orient(c, d, a), orient(c, d, b)
    return o1 * o2 < 0 and o3 * o4 < 0


def collinear_overlap(a: Point, b: Point, c: Point, d: Point) -> bool:
    """Segments are collinear and share more than one point."""
    if orient(a, b, c) != 0 or orient(a, b, d) != 0:
        return False
    pts = [p for p in (c, d) if on_segment(p, a, b)] + [
        p for p in (a, b) if on_segment(p, c, d)
    ]
    return len(set(pts)) >= 2


def point_in_closed_polyline(p: Point, points: list[Point]) -> str:
    """Locate p against a closed polyline: 'inside', 'on', or 'outside'.

    The polyline is given by its vertices (closing edge implied).  Uses the
    exact winding number, so it also behaves sensibly for curves with
    touch-points (where touched points report 'on').
    """
    r = len(points)
    if r < 2:
        raise ValueError("polyline needs at least 2 points")
    for k in range(r):
        if on_segment(p, points[k], points[(k + 1) % r]):
            return "on"
    return "inside" if winding_number(p, points) != 0 else "outside"


def winding_number(p: Point, points: list[Point]) -> int:
    wind = 0
    r = len(points)
    for k in range(r):
        a, b = points[k], points[(k + 1) % r]
        if a[1] <= p[1]:
            if b[1] > p[1] and orient(a, b, p) > 0:
                wind += 1
        elif b[1] <= p[1] and orient(a, b, p) < 0:
            wind -= 1
    return wind


def polygon_area2(points: list[Point]) -> int:
    """Twice the signed area (positive for counterclockwise)."""
    total = 0
    r = len(points)
    for k in range(r):
        a, b = points[k], points[(k + 1) % r]
        total += cross(a, b)
    return total


class _AngleKey:
    """Sort key of a nonzero direction: its half-plane, then the cross product."""

    __slots__ = ("half", "vec")

    def __init__(self, half: int, vec: Point) -> None:
        self.half = half
        self.vec = vec

    def __lt__(self, other: "_AngleKey") -> bool:
        if self.half != other.half:
            return self.half < other.half
        return cross(self.vec, other.vec) > 0

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, _AngleKey)
            and self.half == other.half
            and cross(self.vec, other.vec) == 0
        )


def angle_sort_key(v: Point) -> _AngleKey:
    """Total order on nonzero directions by angle in [0, 2*pi), exact."""
    x, y = v
    if x == 0 and y == 0:
        raise ValueError("zero direction")
    return _AngleKey(0 if (y > 0 or (y == 0 and x > 0)) else 1, v)
