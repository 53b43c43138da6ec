"""A combi's vertex set and edge sets are read off the tiles' boundary
cycles.  The reference readings in `oracles.py` name each tile kind's
corners and sides by hand."""

import copy
import pickle

import pytest

from zonotile import bitsets as bs
from zonotile.combi import Delta, Lens, Nabla, from_rhombus, shared_delta
from zonotile.rhombus import minimal_tiling
from zonotile.suite import CubePool

import oracles

M = bs.mask_of


def _weak_and_semi_combis(n):
    return CubePool().combis(n) + [from_rhombus(t) for t in oracles.strong_tilings(n)]


def _assert_readings_match(combis):
    for combi in combis:
        assert combi.vertex_masks() == oracles.reference_vertices(combi)
        assert combi.vertical_edges() == oracles.reference_vertical_edges(combi)
        assert combi.horizontal_edges() == oracles.reference_horizontal_edges(combi)


def test_readings_match_the_per_kind_reference():
    _assert_readings_match(c for n in range(1, 6) for c in _weak_and_semi_combis(n))


@pytest.mark.slow
def test_readings_match_the_per_kind_reference_n6():
    _assert_readings_match(_weak_and_semi_combis(6))


@pytest.mark.parametrize(
    "tile",
    [
        Delta(M([1, 2, 4]), 2, 4),
        shared_delta(M([1, 3]), 1, 3),
        Nabla(M([2]), 1, 3),
        Lens((M([1, 2]), M([2, 3]), M([2, 4])), (M([1, 2]), M([1, 4]), M([2, 4]))),
        # a rhombus, named in its tiling by its lower half
        max(minimal_tiling(3).tiles),
    ],
    ids=["delta", "shared-delta", "nabla", "lens", "rhombus"],
)
def test_tile_copies_keep_cycle_hash_and_order(tile):
    rebuilt = type(tile)(**{name: getattr(tile, name) for name in tile._fields})
    for twin in (pickle.loads(pickle.dumps(tile)), copy.copy(tile), copy.deepcopy(tile), rebuilt):
        assert twin == tile and hash(twin) == hash(tile)
        assert twin.cycle() == tile.cycle()
        assert not twin < tile and not tile < twin
    assert "_cycle" not in repr(tile)
