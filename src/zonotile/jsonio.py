"""JSON encodings for the public object kinds.

Subsets are encoded as ascending element lists; every decoder checks the
shape of its input (objects, lists, and ints that are neither bools nor
floats) and then validates through the ordinary constructors, so
parse(serialize(x)) == x on valid data and malformed input raises
ValueError.
"""

from __future__ import annotations

from typing import Any

from . import bitsets as bs
from .combi import Combi, Delta, Lens, Nabla
from .patterns import CyclicPattern
from .rhombus import RhombusTiling
from .separation import DomainReport, SetFamily


def _int(data: Any, what: str) -> int:
    # bool is a subclass of int, so compare the exact type
    if type(data) is not int:
        raise ValueError(f"{what} must be an integer, got {data!r:.60}")
    return data


def _element(data: Any, what: str) -> int:
    # checked before any mask 1 << (e - 1) is built, which takes e/8 bytes
    e = _int(data, what)
    if not 1 <= e <= bs.MAX_GROUND:
        raise ValueError(f"{what} must be in 1..{bs.MAX_GROUND}, got {e}")
    return e


def _list(data: Any, what: str) -> list:
    if not isinstance(data, list):
        raise ValueError(f"{what} must be a list, got {data!r:.60}")
    return data


def _field(data: Any, key: str, what: str) -> Any:
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be an object, got {data!r:.60}")
    if key not in data:
        raise ValueError(f"{what} lacks the field {key!r}")
    return data[key]


def subset_to_json(mask: int) -> list[int]:
    return list(bs.iter_elements(mask))


def subset_from_json(data: Any) -> int:
    if not isinstance(data, list):
        raise ValueError("subset must be a list of elements")
    return bs.mask_of(_int(e, "subset element") for e in data)


def family_to_json(family: SetFamily) -> dict:
    return {"n": family.n, "members": [subset_to_json(m) for m in family.members]}


def family_from_json(data: Any) -> SetFamily:
    n = _int(_field(data, "n", "family"), "n")
    members = _list(_field(data, "members", "family"), "members")
    return SetFamily(n, [subset_from_json(m) for m in members])


def report_to_json(report: DomainReport) -> dict:
    return {
        "domain": family_to_json(report.domain),
        "relation": report.relation,
        "pure": report.pure,
        "ranks": list(report.ranks),
        "maximal_collections": [
            [subset_to_json(m) for m in fam.members]
            for fam in report.maximal_collections
        ],
    }


def tiling_to_json(tiling: RhombusTiling) -> dict:
    return {
        "n": tiling.n,
        "rhombi": [
            {"X": subset_to_json(t.bottom), "i": t.low, "j": t.high}
            for t in tiling.combi._nablas
        ],
    }


def tiling_from_json(data: Any) -> RhombusTiling:
    """Each rhombus (X; i, j) as its lower half, the nabla (X; i, j), and
    its upper half, the delta (X+i+j; i, j)."""
    n = _int(_field(data, "n", "tiling"), "n")
    nablas = [
        Nabla(
            subset_from_json(_field(r, "X", "rhombus")),
            _element(_field(r, "i", "rhombus"), "i"),
            _element(_field(r, "j", "rhombus"), "j"),
        )
        for r in _list(_field(data, "rhombi", "tiling"), "rhombi")
    ]
    deltas = [Delta(v.left | v.right, v.low, v.high) for v in nablas]
    return RhombusTiling(Combi(n, deltas, nablas))


def combi_to_json(combi: Combi) -> dict:
    return {
        "n": combi.n,
        "deltas": [
            {"apex": subset_to_json(d.apex), "base": [subset_to_json(d.left), subset_to_json(d.right)]}
            for d in combi._deltas
        ],
        "nablas": [
            {"bottom": subset_to_json(v.bottom), "base": [subset_to_json(v.left), subset_to_json(v.right)]}
            for v in combi._nablas
        ],
        "lenses": [
            {"upper": [subset_to_json(v) for v in l.upper], "lower": [subset_to_json(v) for v in l.lower]}
            for l in combi._lenses
        ],
    }


def _base_from_json(tile: Any, what: str) -> tuple[int, int]:
    base = _list(_field(tile, "base", what), "base")
    if len(base) != 2:
        raise ValueError(f"{what} base must be a list of two subsets")
    return subset_from_json(base[0]), subset_from_json(base[1])


def combi_from_json(data: Any) -> Combi:
    n = _int(_field(data, "n", "combi"), "n")
    kinds = {key: _list(data.get(key, []), key) for key in ("deltas", "nablas", "lenses")}
    deltas = [
        Delta.on_base(subset_from_json(_field(d, "apex", "delta")), *_base_from_json(d, "delta"))
        for d in kinds["deltas"]
    ]
    nablas = [
        Nabla.on_base(subset_from_json(_field(v, "bottom", "nabla")), *_base_from_json(v, "nabla"))
        for v in kinds["nablas"]
    ]
    lenses = [
        Lens(
            tuple(subset_from_json(v) for v in _list(_field(l, "upper", "lens"), "upper")),
            tuple(subset_from_json(v) for v in _list(_field(l, "lower", "lens"), "lower")),
        )
        for l in kinds["lenses"]
    ]
    return Combi(n, deltas, nablas, lenses)


def pattern_to_json(pattern: CyclicPattern) -> dict:
    return {"n": pattern.n, "cycle": [subset_to_json(v) for v in pattern.cycle]}


def pattern_from_json(data: Any) -> CyclicPattern:
    n = _int(_field(data, "n", "pattern"), "n")
    cycle = _list(_field(data, "cycle", "pattern"), "cycle")
    return CyclicPattern(n, [subset_from_json(v) for v in cycle])


def path_to_json(path) -> dict:
    return {"vertices": [subset_to_json(v) for v in path]}


def path_from_json(data: Any) -> tuple[int, ...]:
    return tuple(subset_from_json(v) for v in _list(_field(data, "vertices", "path"), "vertices"))


def flip_trace_line(op: str, core: int, i: int, j: int, k: int) -> dict:
    return {"op": op, "Y": subset_to_json(core), "i": i, "j": j, "k": k}
