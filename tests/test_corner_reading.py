"""A combi's vertex set and edge sets, and the edges drawn for a quasi-combi,
are read off the tiles' boundary cycles.  The per-kind readings below are
the reference: they name each tile kind's corners and sides by hand."""

import copy
import pickle
import random
from dataclasses import replace

import pytest

from zonotile import bitsets as bs
from zonotile.combi import Delta, Lens, Nabla, from_rhombus, shared_delta
from zonotile.patterns import CyclicPattern, classify_pattern, split_quasi
from zonotile.render import _render_edges, render_svg
from zonotile.rhombus import Rhombus, from_s_collection
from zonotile.separation import enumerate_maximal, hypercube_domain
from zonotile.suite import CubePool, sample_cycle

M = bs.mask_of


def _reference_vertices(combi):
    verts = {d.apex for d in combi.deltas}
    for d in combi.deltas:
        verts.add(d.apex ^ (1 << (d.low - 1)))
        verts.add(d.apex ^ (1 << (d.high - 1)))
    for v in combi.nablas:
        verts.add(v.bottom)
        verts.add(v.bottom | (1 << (v.low - 1)))
        verts.add(v.bottom | (1 << (v.high - 1)))
    for l in combi.lenses:
        verts.update(l.upper)
        verts.update(l.lower)
    if combi.n == 1:
        verts.update((0, 1))
    return verts


def _reference_vertical_edges(combi):
    out = set()
    for d in combi.deltas:
        out.add((d.left, d.apex))
        out.add((d.right, d.apex))
    for v in combi.nablas:
        out.add((v.bottom, v.left))
        out.add((v.bottom, v.right))
    if combi.n == 1:
        out.add((0, 1))
    return out


def _reference_horizontal_edges(combi):
    out = {d.base for d in combi.deltas} | {v.base for v in combi.nablas}
    for l in combi.lenses:
        out.update(zip(l.upper, l.upper[1:]))
        out.update(zip(l.lower, l.lower[1:]))
    return out


def _reference_quasi_svg(quasi, labels):
    """A quasi-combi drawn with every piece's boundary sides, each upward if
    its ends differ in size and rightward (smaller traded element first) if
    they do not."""
    vert, horiz = set(), set()
    for piece in quasi.pieces():
        cyc = piece.cycle()
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            edge = (a, b) if a & ~b < b & ~a else (b, a)
            (vert if bs.size(a) != bs.size(b) else horiz).add(edge)
    groups = (quasi.lenses, quasi.upper_semis, quasi.lower_semis)
    fills = [p.cycle() for group in groups for p in sorted(group)]
    return _render_edges(quasi.n, sorted(vert), sorted(horiz), fills, labels)


def _weak_and_semi_combis(n):
    strong = enumerate_maximal(hypercube_domain(n), "strong").maximal_collections
    return CubePool().combis(n) + [from_rhombus(from_s_collection(f)) for f in strong]


def _assert_readings_match(combis):
    for combi in combis:
        assert combi.vertex_masks() == _reference_vertices(combi)
        assert combi.vertical_edges() == _reference_vertical_edges(combi)
        assert combi.horizontal_edges() == _reference_horizontal_edges(combi)


def test_readings_match_the_per_kind_reference():
    _assert_readings_match(c for n in range(1, 6) for c in _weak_and_semi_combis(n))


@pytest.mark.slow
def test_readings_match_the_per_kind_reference_n6():
    _assert_readings_match(_weak_and_semi_combis(6))


def test_quasi_combi_svg_matches_the_per_kind_reference():
    # halves of combis split, as in a cross exchange, along sampled cycles
    # of two combis' edges between their common vertices, drawn with and
    # without labels; some halves carry semi-lenses
    rng = random.Random(20)
    pool = CubePool()
    halves = semis = 0
    for n in (3, 4, 5):
        combis = pool.combis(n)
        for _ in range(8):
            a, b = rng.choice(combis), rng.choice(combis)
            common = a.vertex_masks() & b.vertex_masks()
            edges = a.vertical_edges() | a.horizontal_edges() | b.vertical_edges() | b.horizontal_edges()
            cyc = sample_cycle({(u, v) for u, v in edges if u in common and v in common}, rng)
            if cyc is None or classify_pattern(CyclicPattern(n, cyc)) == "self_crossing":
                continue
            for half in split_quasi(a, CyclicPattern(n, cyc)):
                halves += 1
                semis += half.semi_count() > 0
                for labels in (True, False):
                    assert render_svg(half, labels) == _reference_quasi_svg(half, labels)
    assert halves >= 40 and semis >= 5


@pytest.mark.parametrize(
    "tile",
    [
        Delta(M([1, 2, 4]), 2, 4),
        shared_delta(M([1, 3]), 1, 3),
        Nabla(M([2]), 1, 3),
        Lens((M([1, 2]), M([2, 3]), M([2, 4])), (M([1, 2]), M([1, 4]), M([2, 4]))),
        Rhombus(M([3]), 1, 2),
    ],
    ids=["delta", "shared-delta", "nabla", "lens", "rhombus"],
)
def test_tile_copies_keep_cycle_hash_and_order(tile):
    for twin in (pickle.loads(pickle.dumps(tile)), copy.copy(tile), copy.deepcopy(tile), replace(tile)):
        assert twin == tile and hash(twin) == hash(tile)
        assert twin.cycle() == tile.cycle()
        assert not twin < tile and not tile < twin
    assert "_cycle" not in repr(tile)
