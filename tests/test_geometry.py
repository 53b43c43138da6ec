import random

import pytest

from zonotile import bitsets as bs
from zonotile.geometry import (
    Generators,
    angle_sort_key,
    boundary_vertices,
    default_generators,
    embed,
    on_segment,
    point_in_closed_polyline,
    segments_properly_cross,
)


def test_default_generators_basic():
    for n in (1, 2, 3, 4, 6, 8):
        gens = default_generators(n)
        norms = {x * x + y * y for x, y in gens.vectors}
        assert len(norms) == 1
        assert all(y > 0 for _, y in gens.vectors)


def test_generator_order_is_clockwise():
    gens = default_generators(4)
    vx = gens.vectors
    for a, b in zip(vx, vx[1:]):
        assert a[0] * b[1] - a[1] * b[0] < 0


def test_subset_sum_injectivity_checked():
    with pytest.raises(ValueError):
        Generators(2, [(0, 5), (0, 5)])


def test_embed_examples():
    gens = default_generators(3)
    assert embed(0, gens) == (0, 0)
    assert embed(bs.full_mask(3), gens) == gens.top
    assert embed(bs.singleton(2), gens) == gens.vector(2)


def test_embedding_injective_n4():
    gens = default_generators(4)
    points = {embed(m, gens) for m in range(16)}
    assert len(points) == 16


def test_size_increases_height():
    gens = default_generators(5)
    for m in range(32):
        for e in range(1, 6):
            if not bs.has(m, e):
                assert embed(m | bs.singleton(e), gens)[1] > embed(m, gens)[1]


def test_boundary_vertices():
    gens = default_generators(3)
    left, right = boundary_vertices(gens)
    assert left == [0, bs.mask_of([1]), bs.mask_of([1, 2]), bs.mask_of([1, 2, 3])]
    assert right == [0, bs.mask_of([3]), bs.mask_of([2, 3]), bs.mask_of([1, 2, 3])]
    l1, r1 = boundary_vertices(default_generators(1))
    assert l1 == r1 == [0, 1]


def test_angle_sort_key():
    # counterclockwise from the positive x axis; keys of one direction are
    # equal whatever the length
    dirs = [(0, -1), (-1, 0), (1, 1), (1, 0), (2, -1), (0, 3)]
    assert sorted(dirs, key=angle_sort_key) == [(1, 0), (1, 1), (0, 3), (-1, 0), (0, -1), (2, -1)]
    assert angle_sort_key((1, 2)) == angle_sort_key((3, 6))
    assert angle_sort_key((1, 2)) != angle_sort_key((-1, -2))
    with pytest.raises(ValueError):
        angle_sort_key((0, 0))


def test_proper_crossing():
    assert segments_properly_cross((0, 0), (2, 2), (0, 2), (2, 0))
    assert not segments_properly_cross((0, 0), (1, 1), (2, 2), (3, 3))
    assert not segments_properly_cross((0, 0), (2, 2), (1, 1), (3, 0))


def test_point_location_examples():
    square = [(0, 0), (4, 0), (4, 4), (0, 4)]
    assert point_in_closed_polyline((2, 2), square) == "inside"
    assert point_in_closed_polyline((0, 0), square) == "on"
    assert point_in_closed_polyline((5, 5), square) == "outside"
    assert point_in_closed_polyline((2, 0), square) == "on"


def _naive_ray_cast(p, poly):
    # crossing parity against a horizontal ray, counting half-open edges
    count = 0
    r = len(poly)
    for k in range(r):
        a, b = poly[k], poly[(k + 1) % r]
        if on_segment(p, a, b):
            return "on"
        if (a[1] <= p[1] < b[1]) or (b[1] <= p[1] < a[1]):
            # x coordinate of the intersection, exactly: cross-multiplied
            dy = b[1] - a[1]
            xin = a[0] * dy + (p[1] - a[1]) * (b[0] - a[0])
            if (xin > p[0] * dy) if dy > 0 else (xin < p[0] * dy):
                count += 1
    return "inside" if count % 2 else "outside"


def test_point_location_matches_naive_oracle():
    rng = random.Random(11)
    poly = [(0, 0), (7, 1), (9, 6), (4, 9), (1, 5)]
    for _ in range(600):
        p = (rng.randrange(-2, 12), rng.randrange(-2, 12))
        assert point_in_closed_polyline(p, poly) == _naive_ray_cast(p, poly)
