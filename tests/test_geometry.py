import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from zonotile import bitsets as bs
from zonotile import geometry
from zonotile._planar import zonogon_region
from zonotile.geometry import (
    Generators,
    angle_sort_key,
    boundary_vertices,
    default_generators,
    embed,
    embedding_table,
    first_crossing,
    point_in_closed_polyline,
    segment_contact,
)
from zonotile.patterns import CyclicPattern, curve_kind
from zonotile.suite import _all_cycles, crossing_pattern_examples

import oracles


def test_default_generators_basic():
    for n in (1, 2, 3, 4, 6, 8):
        gens = default_generators(n)
        norms = {x * x + y * y for x, y in gens.vectors}
        assert len(norms) == 1
        assert all(y > 0 for _, y in gens.vectors)


def test_default_generators_match_the_fraction_reference():
    for n in range(1, 17):
        assert default_generators(n).vectors == oracles.fraction_generators(n)
    # and their subset sums, which the oracles read from `points`
    for n in range(1, 9):
        assert embedding_table(default_generators(n)) == oracles.points(n)
    # the zonogon's doubled area, read from the boundary's points, and the
    # table, built once by the constructor
    for n in range(1, 11):
        g = default_generators(n)
        assert zonogon_region(g)[1] == oracles.zonogon(n)[2]
        assert embedding_table(g) is embedding_table(g)


def test_generator_order_is_clockwise():
    gens = default_generators(4)
    vx = gens.vectors
    for a, b in zip(vx, vx[1:]):
        assert a[0] * b[1] - a[1] * b[0] < 0


def test_subset_sum_injectivity_checked():
    # Six clockwise vectors of norm 65 in which two disjoint triples have
    # one sum: (-63,16)+(-39,52)+(33,56) = (-56,33)+(-52,39)+(39,52) = (-69,124).
    vecs = [(-63, 16), (-56, 33), (-52, 39), (-39, 52), (33, 56), (39, 52)]
    with pytest.raises(ValueError) as info:
        Generators(6, vecs)
    assert str(info.value) == "subset sums of the generators collide"
    assert len({embed(m, Generators(5, vecs[:5])) for m in range(32)}) == 32


@pytest.mark.parametrize(
    "n, vectors, text",
    [
        (2, [(0, 5)], "expected 2 generator vectors, got 1"),
        (2, [(-3, 4), (5, 0)], "generator (5, 0) is not in the open upper half-plane"),
        (2, [(-3, 4), (4, -3)], "generator (4, -3) is not in the open upper half-plane"),
        (2, [(-3, 4), (1, 1)], "generators must have equal euclidean norms"),
        (2, [(0, 5), (0, 5)], "generators must be ordered strictly clockwise"),
        (2, [(3, 4), (-3, 4)], "generators must be ordered strictly clockwise"),
        # coordinates are integers as given, never truncated or coerced
        (2, [(-1.5, 2), (1.5, 2)], "generator (-1.5, 2) has a coordinate that is not an integer"),
        (2, [(-3, 4), (Fraction(3, 2), 2)], "generator (Fraction(3, 2), 2) has a coordinate that is not an integer"),
        (1, [("1", 2)], "generator ('1', 2) has a coordinate that is not an integer"),
        (1, [(0, True)], "generator (0, True) has a coordinate that is not an integer"),
        # checked first, as the vectors are read, before their count
        (2, [(0, 1.0)], "generator (0, 1.0) has a coordinate that is not an integer"),
    ],
)
def test_generators_reject_bad_vectors(n, vectors, text):
    with pytest.raises(ValueError) as info:
        Generators(n, vectors)
    assert str(info.value) == text


def test_polyline_needs_two_points():
    for points in ([], [(0, 0)]):
        with pytest.raises(ValueError) as info:
            point_in_closed_polyline((1, 1), points)
        assert str(info.value) == "polyline needs at least 2 points"


def test_embed_examples():
    gens = default_generators(3)
    assert embed(0, gens) == (0, 0)
    assert embed(bs.full_mask(3), gens) == tuple(map(sum, zip(*gens.vectors)))
    assert embed(bs.singleton(2), gens) == gens.vectors[1]
    # a mask that is no subset of {1..3} has no point
    for mask in (-1, bs.singleton(4)):
        with pytest.raises(IndexError):
            embed(mask, gens)


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
    left, right = boundary_vertices(3)
    assert left == [0, bs.mask_of([1]), bs.mask_of([1, 2]), bs.mask_of([1, 2, 3])]
    assert right == [0, bs.mask_of([3]), bs.mask_of([2, 3]), bs.mask_of([1, 2, 3])]
    l1, r1 = boundary_vertices(1)
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
    assert segment_contact((0, 0), (2, 2), (0, 2), (2, 0)) == "cross"
    assert segment_contact((0, 0), (1, 1), (2, 2), (3, 3)) == "none"
    assert segment_contact((0, 0), (1, 0), (0, 1), (1, 1)) == "none"
    assert segment_contact((0, 0), (2, 2), (1, 1), (3, 0)) == "cross"
    assert segment_contact((0, 0), (2, 2), (2, 2), (3, 0)) == "endpoint"
    assert segment_contact((0, 0), (2, 2), (2, 2), (0, 0)) == "cross"
    assert segment_contact((0, 0), (2, 2), (0, 0), (2, 2)) == "cross"
    assert segment_contact((0, 0), (2, 2), (1, 1), (3, 3)) == "cross"


def test_point_location_examples():
    square = [(0, 0), (4, 0), (4, 4), (0, 4)]
    assert point_in_closed_polyline((2, 2), square) == "inside"
    assert point_in_closed_polyline((0, 0), square) == "on"
    assert point_in_closed_polyline((5, 5), square) == "outside"
    assert point_in_closed_polyline((2, 0), square) == "on"


def test_point_location_matches_naive_oracle():
    rng = random.Random(11)
    poly = [(0, 0), (7, 1), (9, 6), (4, 9), (1, 5)]
    for _ in range(600):
        p = (rng.randrange(-2, 12), rng.randrange(-2, 12))
        assert point_in_closed_polyline(p, poly) == oracles.reference_point_location(p, poly)


def _quadruple(rng):
    """Four grid points, with shared endpoints and collinear placements forced
    in most draws (a random quadruple is rarely degenerate)."""
    pt = lambda: (rng.randint(-4, 4), rng.randint(-4, 4))
    a, b, c, d = pt(), pt(), pt(), pt()
    mode = rng.randrange(4)
    if mode == 1:  # a shared endpoint, in either orientation of either segment
        c = rng.choice((a, b))
    elif mode == 2:  # all four on one line through a
        step = (rng.randint(-2, 2), rng.randint(-2, 2))
        b, c, d = ((a[0] + t * step[0], a[1] + t * step[1]) for t in rng.sample(range(-3, 4), 3))
    elif mode == 3:  # c = a, with b and d on one line through it
        step = (rng.randint(-2, 2), rng.randint(-2, 2))
        s, t = rng.randint(-3, 3), rng.randint(-3, 3)
        b, c, d = (a[0] + s * step[0], a[1] + s * step[1]), a, (a[0] + t * step[0], a[1] + t * step[1])
    if rng.random() < 0.5:
        a, b = b, a
    if rng.random() < 0.5:
        c, d = d, c
    return a, b, c, d


def test_segment_contact_matches_reference_predicates():
    rng = random.Random(2024)
    verdicts = {"none": 0, "endpoint": 0, "cross": 0}
    for _ in range(100_000):
        a, b, c, d = _quadruple(rng)
        got = segment_contact(a, b, c, d)
        assert got == oracles.reference_segment_contact(a, b, c, d), (a, b, c, d)
        verdicts[got] += 1
    assert min(verdicts.values()) > 20_000, verdicts


def test_point_location_matches_reference_winding():
    rng = random.Random(5)
    verdicts = {"inside": 0, "on": 0, "outside": 0}
    for _ in range(150):
        # random vertex lists: most are self-intersecting, some revisit a vertex
        poly = [(rng.randint(0, 5), rng.randint(0, 5)) for _ in range(rng.randint(2, 8))]
        for scale in (1, 2, 3):
            scaled = [(x * scale, y * scale) for x, y in poly]
            for x in range(5 * scale + 1):
                for y in range(5 * scale + 1):
                    got = point_in_closed_polyline((x, y), scaled)
                    assert got == oracles.reference_point_location((x, y), scaled), (x, y, scaled)
                    verdicts[got] += 1
    assert min(verdicts.values()) > 4_000, verdicts


def test_curve_kind_matches_reference_on_all_small_cycles():
    # every cycle of the vertical and horizontal edges of every combi with
    # n <= 4 (the vertical-edge cycles among them), and the hand-built
    # crossing patterns
    patterns = list(crossing_pattern_examples(4))
    for n in range(2, 5):
        for combi in oracles.cube_combis(n):
            vert, horiz = combi.vertical_edges(), combi.horizontal_edges()
            patterns += [CyclicPattern(n, cyc) for cyc in _all_cycles(vert | horiz)]
    kinds = {"simple": 0, "crossing": 0}
    for pattern in patterns:
        assert len(set(pattern.cycle)) == len(pattern.cycle)
        kind = curve_kind(pattern)
        assert kind == oracles.parent_curve_kind(pattern), pattern
        kinds[kind] += 1
    assert kinds == {"simple": 4945, "crossing": 3}


def test_curve_kind_folding_back_is_crossing():
    one, two = bs.singleton(1), bs.singleton(2)
    assert curve_kind(CyclicPattern(3, (0, one, 0, two))) == "crossing"


@pytest.mark.parametrize("shared", ["a=c", "a=d", "b=c", "b=d"])
def test_segment_contact_on_a_shared_endpoint(shared):
    # [p, q] and [p, s] with q, s on one ray from p fold back over each
    # other; on opposite rays they continue straight through p; off one
    # line they meet in p alone
    p, q = (1, 1), (3, 2)
    for s, want in (((5, 3), "cross"), ((-1, 0), "endpoint"), ((2, 4), "endpoint"), (q, "cross")):
        first = (p, q) if shared[0] == "a" else (q, p)
        second = (p, s) if shared[2] == "c" else (s, p)
        assert segment_contact(*first, *second) == want, (first, second)
        assert oracles.reference_segment_contact(*first, *second) == want


def test_segment_contact_on_identical_and_degenerate_segments():
    a, b = (0, 0), (2, 1)
    for c, d, want in (
        (a, b, "cross"),  # identical
        (b, a, "cross"),  # reversed
        (a, a, "endpoint"),  # a zero-length segment at an endpoint
        (b, b, "endpoint"),
        ((4, 2), (4, 2), "none"),  # one on the line beyond b
    ):
        assert segment_contact(a, b, c, d) == segment_contact(c, d, a, b) == want, (c, d)
        assert oracles.reference_segment_contact(a, b, c, d) == want
    assert segment_contact(a, a, a, a) == "endpoint"
    assert segment_contact(a, a, b, b) == "none"


def _boxes_meet(s, t):
    """Whether the closed bounding boxes of two segments share a point."""
    return all(
        max(min(s[0][k], s[1][k]), min(t[0][k], t[1][k])) <= min(max(s[0][k], s[1][k]), max(t[0][k], t[1][k]))
        for k in (0, 1)
    )


def _segment_list(rng):
    """Two to eight segments on a small grid, many of them degenerate: an
    endpoint shared with an earlier segment, a repeat of one (either way
    round), a segment along an earlier one's line, or a single point."""
    size = rng.choice((2, 4, 12))
    pt = lambda: (rng.randint(0, size), rng.randint(0, size))
    segments = []
    for _ in range(rng.randint(2, 8)):
        a, b = pt(), pt()
        if segments:
            c, d = rng.choice(segments)
            mode = rng.randrange(6)
            if mode == 1:
                a = rng.choice((c, d))
            elif mode == 2:
                a, b = rng.choice(((c, d), (d, c)))
            elif mode == 3:  # on the line through c and d
                t, u = rng.randint(-2, 2), rng.randint(-2, 2)
                a, b = ((c[0] + k * (d[0] - c[0]), c[1] + k * (d[1] - c[1])) for k in (t, u))
            elif mode == 4:
                b = a
        segments.append((a, b))
    return segments


def test_first_crossing_matches_all_pairs_scan(monkeypatch):
    # the first crossing pair in `combinations` order, and `segment_contact`
    # asked about exactly the pairs whose closed boxes meet before it
    rng = random.Random(71)
    asked = []

    def recorded(a, b, c, d):
        asked.append(((a, b), (c, d)))
        return segment_contact(a, b, c, d)

    monkeypatch.setattr(geometry, "segment_contact", recorded)
    outcomes = Counter()
    for _ in range(3000):
        segments = _segment_list(rng)
        want, meeting = None, []
        for (i, s), (j, t) in combinations(enumerate(segments), 2):
            if _boxes_meet(s, t):
                meeting.append((s, t))
            if segment_contact(*s, *t) == "cross":
                want = i, j
                break
        asked.clear()
        assert first_crossing(segments) == want, segments
        assert asked == meeting, segments
        outcomes["none" if want is None else "cross"] += 1
    assert outcomes == {"none": 835, "cross": 2165}


@pytest.mark.parametrize(
    "stem, bar",
    [
        (((0, 0), (2, 0)), ((0, -1), (0, 1))),  # the stem's box starts where the bar's ends
        (((0, 0), (0, 2)), ((-1, 0), (1, 0))),
        (((-2, 0), (0, 0)), ((0, -1), (0, 1))),  # ... or ends where it starts
        (((0, -2), (0, 0)), ((-1, 0), (1, 0))),
    ],
)
def test_first_crossing_keeps_t_touches_at_a_box_edge(stem, bar):
    # the stem's endpoint touches the bar's interior, and their closed boxes
    # meet in one edge only
    for segments in ([stem, bar], [bar, stem]):
        assert first_crossing(segments) == (0, 1)
    assert first_crossing([stem, ((5, 5), (6, 6)), bar]) == (0, 2)
    assert first_crossing([stem]) is None and first_crossing([]) is None


def _legal_steps(n):
    """For each subset of {1..n}, the sets one legal step away: one element
    added or removed, or one traded for another."""
    return [
        [x ^ (1 << e) for e in range(n)]
        + [x ^ (1 << i) ^ (1 << k) for i in range(n) for k in range(n) if x >> i & 1 and not x >> k & 1]
        for x in range(1 << n)
    ]


def _closed_walks(rng, count):
    """Seeded closed walks of legal steps at n = 3..6: one to four random
    steps, then back one element at a time, the last step being the closing
    one.  Walks revisit sets, and many fold back on themselves."""
    steps = {n: _legal_steps(n) for n in range(3, 7)}
    walks = []
    while len(walks) < count:
        n = 3 + rng.getrandbits(2)
        start = x = rng.getrandbits(n)
        walk = [x]
        for _ in range(rng.randint(1, 4)):
            x = rng.choice(steps[n][x])
            walk.append(x)
        back = [1 << e for e in range(n) if (x ^ start) >> e & 1]
        rng.shuffle(back)
        for bit in back[:-1]:
            x ^= bit
            walk.append(x)
        if len(walk) >= 3 + (x == start):
            walks.append(CyclicPattern(n, walk))
    return walks


def test_curve_kind_matches_parent_scan_on_closed_walks():
    kinds = Counter()
    for pattern in _closed_walks(random.Random(30), 30_000):
        kind = curve_kind(pattern)
        assert kind == oracles.parent_curve_kind(pattern), pattern
        kinds[kind] += 1
    assert kinds == {"simple": 14_023, "crossing": 15_631, "touching": 346}
