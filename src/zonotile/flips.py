"""Weak raising and lowering flips on combies, set-level flips, flip graphs.

A combi is fixed by its vertex set, a maximal weakly separated collection,
which `from_w_collection` rebuilds and certifies, so the flips and the
complement are rules on vertex sets.  A lowering flip, on the two nablas of
a W-configuration, trades their shared top vertex core+i+k for core+j one
level down; a raising flip, on the two deltas of an M-configuration, makes
the reverse trade; the complement complements every vertex.  Every result
is validated.  The trade itself, with its type, direction and core checks, is
`_trade`, shared by these flips, `set_flip` and `rhombus.strong_flip`;
each checks only its own witnesses.
"""

from __future__ import annotations

from . import bitsets as bs
from ._planar import TilingError
from ._value import Value
from .combi import Combi, MConfig, WConfig, find_m_configs, find_w_configs, from_w_collection
from .separation import (
    DomainReport,
    ResourceGuardError,
    SetFamily,
    enumerate_maximal,
    hypercube_domain,
    interval_collection,
)


def _lowers(direction: str) -> bool:
    """Whether a flip in `direction` lowers; ValueError unless 'raise' or 'lower'."""
    if direction not in ("raise", "lower"):
        raise ValueError(f"direction must be 'raise' or 'lower', got {direction!r}")
    return direction == "lower"


def _trade(core: int, i: int, j: int, k: int, direction: str) -> tuple[int, int]:
    """The vertex a flip at core X and types i < j < k removes and the one it
    adds: X+j and X+i+k for a raise, the reverse for a lower.  Raises
    ValueError unless i < j < k, then unless the direction is known, then
    unless the core avoids i, j and k."""
    if not i < j < k:
        raise ValueError("types must satisfy i < j < k")
    lowers = _lowers(direction)
    low, high = core | bs.singleton(j), core | bs.singleton(i) | bs.singleton(k)
    if (low ^ high).bit_count() != 3:  # less when the core holds i, j or k
        raise ValueError("the core must avoid i, j and k")
    return (high, low) if lowers else (low, high)


def _traded(combi: Combi, gone: int, came: int) -> SetFamily:
    """The combi's vertex set with `gone` traded for `came`."""
    return SetFamily(combi.n, set(combi._vertices) - {gone} | {came})


def lowering_flip(combi: Combi, w: WConfig) -> Combi:
    """Replace the middle vertex core+i+k by core+j (i < j < k); raises
    ValueError unless i < j < k and the two nablas of `w` are tiles of the combi."""
    gone, came = _trade(w.core, w.i, w.j, w.k, "lower")
    if not combi.nablas.issuperset((w.left_nabla(), w.right_nabla())):
        raise ValueError("the requested W-configuration is not present")
    return from_w_collection(_traded(combi, gone, came), check_input=False)


def raising_flip(combi: Combi, m: MConfig) -> Combi:
    """Replace the middle vertex core+j by core+i+k (i < j < k); raises
    ValueError unless i < j < k and the two deltas of `m` are tiles of the combi."""
    gone, came = _trade(m.core, m.i, m.j, m.k, "raise")
    if not combi.deltas.issuperset((m.left_delta(), m.right_delta())):
        raise ValueError("the requested M-configuration is not present")
    return from_w_collection(_traded(combi, gone, came), check_input=False)


def complement_combi(combi: Combi) -> Combi:
    """The combi on the complemented vertex set (an involution)."""
    full = bs.full_mask(combi.n)
    verts = [full ^ x for x in combi._vertices]
    return from_w_collection(SetFamily(combi.n, verts), check_input=False)


def set_flip(
    family: SetFamily, core: int, i: int, j: int, k: int, direction: str
) -> SetFamily:
    """Weak flip on a maximal w-collection: trade core+j against core+i+k.
    Its witnesses core+i, core+k, core+i+j and core+j+k are checked before
    the direction."""
    low, high = _trade(core, i, j, k, "raise")
    mem = set(family.members)
    si, sk = bs.singleton(i), bs.singleton(k)
    if not mem.issuperset((core | si, core | sk, low | si, low | sk)):
        raise ValueError("flip witnesses are absent from the family")
    if low in mem and high in mem:
        raise ValueError("family contains both flip targets; it is not weakly separated")
    gone, came = _trade(core, i, j, k, direction)
    if gone not in mem:
        raise ValueError(f"flip source {bs.format_subset(gone)} not in the family")
    return SetFamily(family.n, mem - {gone} | {came})


def interval_combi(n: int) -> Combi:
    return from_w_collection(interval_collection(n), check_input=False)


def descend_to_minimum(combi: Combi) -> tuple[Combi, list[WConfig]]:
    """Greedy lowering flips (lexicographically least configuration first)
    down to the interval combi; the size-sum potential certifies termination."""
    trace: list[WConfig] = []
    cur = combi
    while True:
        ws = find_w_configs(cur)
        if not ws:
            break
        w = ws[0]
        before = cur.size_sum()
        cur = lowering_flip(cur, w)
        if cur.size_sum() != before - 1:
            raise TilingError("flip", "lowering flip did not decrease the size sum by 1")
        trace.append(w)
    if cur._vertices != interval_collection(combi.n).members:
        raise TilingError("flip", "flip descent did not reach the interval combi")
    return cur, trace


class FlipGraph(Value):
    """Raising-flip graph over maximal w-collections of the hypercube."""

    n: int
    nodes: tuple[frozenset[int], ...]
    arcs: tuple[tuple[int, int], ...]

    def sources(self) -> list[int]:
        has_in = {v for _, v in self.arcs}
        return [u for u in range(len(self.nodes)) if u not in has_in]

    def sinks(self) -> list[int]:
        has_out = {u for u, _ in self.arcs}
        return [v for v in range(len(self.nodes)) if v not in has_out]


def _index(n: int, report: DomainReport | None) -> dict[frozenset[int], int]:
    """The collections of `report`, else of the weak n-cube's enumeration,
    each to its place: the nodes of a flip graph."""
    if report is None:
        report = enumerate_maximal(hypercube_domain(n), "weak")
    return {f.as_set(): v for v, f in enumerate(report.maximal_collections)}


def flip_graph(n: int, report: DomainReport | None = None) -> FlipGraph:
    """BFS over raising flips from the interval combi; nodes are spectra,
    indexed by `report`, the weak n-cube's enumeration.

    The flips must reach exactly the collections of the report, so the flip
    moves provably reach every maximal w-collection.
    """
    if n > 5:
        raise ResourceGuardError(f"flip_graph guard: n={n} exceeds 5")
    index = _index(n, report)
    start = interval_combi(n)
    queue, seen, arcs = [start], {start.vertex_masks()}, set()
    for cur in queue:
        for m in find_m_configs(cur):
            nxt = raising_flip(cur, m)
            if nxt.vertex_masks() not in seen:
                seen.add(nxt.vertex_masks())
                queue.append(nxt)
            arcs.add((cur.vertex_masks(), nxt.vertex_masks()))
    if seen != index.keys():
        raise TilingError("flip-graph", "flip moves do not reach every collection")
    return FlipGraph(n, tuple(index), tuple(sorted((index[u], index[v]) for u, v in arcs)))


def set_flip_graph(n: int, report: DomainReport | None = None) -> FlipGraph:
    """Raising-flip graph computed purely at the set level, for cross-checks:
    the `set_flip` raises between the collections of `report`, the weak
    n-cube's enumeration, tried on each member X+j with i < j < k outside it."""
    index = _index(n, report)
    arcs = set()
    for node, u in index.items():
        fam = SetFamily(n, node)
        for low in node:
            rest = [e for e in range(1, n + 1) if not bs.has(low, e)]
            for j in bs.iter_elements(low):
                for i in (e for e in rest if e < j):
                    for k in (e for e in rest if e > j):
                        try:
                            raised = set_flip(fam, low ^ bs.singleton(j), i, j, k, "raise")
                        except ValueError:
                            continue
                        if raised.as_set() in index:
                            arcs.add((u, index[raised.as_set()]))
    return FlipGraph(n, tuple(index), tuple(sorted(arcs)))
