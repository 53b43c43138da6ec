"""The contract of the frozen value types: what each class kept from the
dataclass it was, pinned by instance."""

import copy
import dataclasses
import importlib
import pickle
import pkgutil

import pytest

import zonotile
from zonotile._planar import TilingError
from zonotile._value import OrderedValue, Value
from zonotile.combi import Combi, Delta, Lens, MConfig, Nabla, Tile, WConfig
from zonotile.flips import FlipGraph
from zonotile.geometry import Generators
from zonotile.patterns import CyclicPattern, GraphPattern, PatternFace, QuasiCombi
from zonotile.rhombus import RhombusTiling
from zonotile.separation import DomainReport, Permutation, PurityVerdict, SetFamily

import oracles

PATTERN = CyclicPattern(2, (0, 1, 3, 2))

# one instance per class, its dataclass repr, and an unequal instance
CASES = [
    (Delta(7, 1, 2), "Delta(apex=7, low=1, high=2)", Delta(7, 1, 3)),
    (Nabla(0, 1, 2), "Nabla(bottom=0, low=1, high=2)", Nabla(4, 1, 2)),
    (Lens((3, 6, 10), (3, 9, 10)), "Lens(upper=(3, 6, 10), lower=(3, 9, 10))", Lens((5, 6, 12), (5, 9, 12))),
    (
        Combi(2, [Delta(3, 1, 2)], [Nabla(0, 1, 2)]),
        "Combi(n=2, deltas=frozenset({Delta(apex=3, low=1, high=2)}), "
        "nablas=frozenset({Nabla(bottom=0, low=1, high=2)}), lenses=frozenset())",
        Combi(2, [Delta(3, 1, 2)]),
    ),
    (WConfig(0, 1, 2, 3), "WConfig(core=0, i=1, j=2, k=3)", WConfig(8, 1, 2, 3)),
    (MConfig(0, 1, 2, 3), "MConfig(core=0, i=1, j=2, k=3)", MConfig(0, 1, 2, 4)),
    (SetFamily(3, (2, 1)), "SetFamily(n=3, members=(1, 2))", SetFamily(4, (1, 2))),
    (PurityVerdict(1, (0,)), "PurityVerdict(count=1, ranks=(0,))", PurityVerdict(2, (0,))),
    (Permutation((2, 1)), "Permutation(images=(2, 1))", Permutation((1, 2))),
    (Generators(1, [(0, 1)]), "Generators(n=1, vectors=((0, 1),))", Generators(1, [(0, 2)])),
    (
        FlipGraph(1, (frozenset({0, 1}),), ()),
        "FlipGraph(n=1, nodes=(frozenset({0, 1}),), arcs=())",
        FlipGraph(1, (frozenset({0}),), ()),
    ),
    (PATTERN, "CyclicPattern(n=2, cycle=(0, 1, 3, 2))", CyclicPattern(2, (0, 2, 3, 1))),
    (
        QuasiCombi(2, "in", (0, 1, 3, 2), frozenset({0, 1})),
        "QuasiCombi(n=2, region='in', pattern=(0, 1, 3, 2), vertices=frozenset({0, 1}))",
        QuasiCombi(2, "out", (0, 1, 3, 2), frozenset({0, 1})),
    ),
    (
        GraphPattern(2, [0, 1, 3, 2], [(0, 1), (1, 3)]),
        "GraphPattern(n=2, vertices=(0, 1, 2, 3), edges=((0, 1), (1, 3)))",
        GraphPattern(2, [0, 1, 3, 2], [(0, 1)]),
    ),
    (PatternFace((0, 1, 3), 4), "PatternFace(cycle=(0, 1, 3), area2=4)", PatternFace((0, 1, 3), 6)),
    (
        RhombusTiling(Combi(2, [Delta(3, 1, 2)], [Nabla(0, 1, 2)])),
        "RhombusTiling(combi=Combi(n=2, deltas=frozenset({Delta(apex=3, low=1, high=2)}), "
        "nablas=frozenset({Nabla(bottom=0, low=1, high=2)}), lenses=frozenset()))",
        RhombusTiling(Combi(2)),
    ),
]
TILES = (Delta, Nabla, Lens)


def _classes():
    """Every class the zonotile modules define."""
    modules = [importlib.import_module(f"zonotile.{m.name}") for m in pkgutil.iter_modules(zonotile.__path__)]
    return {
        obj
        for module in modules
        for obj in vars(module).values()
        if isinstance(obj, type) and obj.__module__ == module.__name__
    }


def _fields(value):
    return tuple(getattr(value, name) for name in value._fields)


def test_every_value_class_is_covered():
    covered = {type(value) for value, _, _ in CASES}
    assert len(covered) == len(CASES) == 16
    # the tiles' abstract base is the one value class with no instance
    assert {cls for cls in _classes() if issubclass(cls, Value)} - {Value, OrderedValue, Tile} == covered
    assert {cls for cls in covered if issubclass(cls, OrderedValue)} == set(TILES)


def test_domain_report_is_the_only_dataclass():
    assert {cls for cls in _classes() if dataclasses.is_dataclass(cls)} == {DomainReport}


@pytest.mark.parametrize("value, text, other", CASES, ids=[type(value).__name__ for value, _, _ in CASES])
class TestContract:
    def test_equality_and_hash(self, value, text, other):
        twin = type(value)(*_fields(value))
        assert twin == value and not twin != value and hash(twin) == hash(value)
        assert other != value and not other == value
        assert value != _fields(value) and value.__eq__(_fields(value)) is NotImplemented
        # the dataclass hash, so sets of values iterate in the same order
        assert hash(value) == hash(_fields(value))

    def test_keywords(self, value, text, other):
        fields = dict(zip(value._fields, _fields(value)))
        assert type(value)(**fields) == value
        with pytest.raises(TypeError):
            type(value)(**fields, extra=0)
        first = value._fields[0]
        with pytest.raises(TypeError):
            type(value)(*_fields(value), **{first: fields[first]})

    def test_repr(self, value, text, other):
        assert repr(value) == text
        assert "_cycle" not in repr(value) and "_hash" not in repr(value)

    def test_frozen(self, value, text, other):
        for name in (*value._fields, "_cycle", "anything"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, name, 0)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(value, name)
        assert repr(value) == text

    def test_pickle_and_copies(self, value, text, other):
        pickled = [pickle.loads(pickle.dumps(value, proto)) for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
        for twin in (*pickled, copy.copy(value), copy.deepcopy(value)):
            assert type(twin) is type(value) and twin == value and hash(twin) == hash(value)
            assert repr(twin) == text

    def test_order(self, value, text, other):
        if not isinstance(value, TILES):
            with pytest.raises(TypeError):
                value < other  # noqa: B015
            return
        for a, b in ((value, other), (other, value), (value, value)):
            x, y = _fields(a), _fields(b)
            assert (a < b, a <= b, a > b, a >= b) == (x < y, x <= y, x > y, x >= y)
        stranger = Nabla(0, 1, 2) if isinstance(value, Delta) else Delta(7, 1, 2)
        with pytest.raises(TypeError):
            value < stranger  # noqa: B015


def test_generic_constructor_rejects_a_wrong_count():
    with pytest.raises(TypeError):
        WConfig(0, 1, 2)
    with pytest.raises(TypeError):
        WConfig(0, 1, 2, 3, 4)


# one tile of each class, its name in a TilingError, and its repr
NAMES = [
    (Delta(7, 1, 2), "delta({1,2,3};1,2)", "Delta(apex=7, low=1, high=2)"),
    (Nabla(0, 1, 2), "nabla({};1,2)", "Nabla(bottom=0, low=1, high=2)"),
    (Lens((3, 6, 10), (3, 9, 10)), "lens({1,2}..{2,4})", "Lens(upper=(3, 6, 10), lower=(3, 9, 10))"),
]


@pytest.mark.parametrize("tile, name, text", NAMES, ids=[type(tile).__name__ for tile, _, _ in NAMES])
def test_every_tile_names_itself(tile, name, text):
    assert str(tile) == f"{tile}" == name
    assert repr(tile) == text


@pytest.mark.parametrize("cls, corner, good, bad, error", [
    (Delta, "apex", 7, 1, "apex of a Delta must contain both type elements"),
    (Nabla, "bottom", 0, 2, "bottom of a Nabla must avoid both type elements"),
])
def test_typed_tiles_built_by_keyword_are_checked(cls, corner, good, bad, error):
    tile, named = cls(good, 1, 2), cls(high=2, **{corner: good}, low=1)
    assert named == cls(good, high=2, low=1) == tile and named.cycle() == tile.cycle()
    with pytest.raises(ValueError) as info:
        cls(**{corner: bad}, low=1, high=2)
    assert str(info.value) == error
    with pytest.raises(ValueError) as info:
        cls(**{corner: good}, low=2, high=2)
    assert str(info.value) == "need 1 <= low < high, got 2, 2"



def test_rhombus_tiling_copies_rerun_the_view_check():
    # a tiling forged round its constructor onto a lens combi: every copy
    # goes through the constructor, and so fails its check
    lensy = next(c for c in oracles.cube_combis(4) if c.lenses)
    forged = object.__new__(RhombusTiling)
    object.__setattr__(forged, "combi", lensy)
    copies = [lambda v, p=proto: pickle.loads(pickle.dumps(v, p)) for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
    for make in (*copies, copy.copy, copy.deepcopy):
        with pytest.raises(TilingError) as info:
            make(forged)
        assert info.value.axiom == "rhombus"
