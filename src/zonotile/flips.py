"""Weak raising and lowering flips on combies, set-level flips, flip graphs.

A combi is fixed by its vertex set, a maximal weakly separated collection,
which `from_w_collection` rebuilds and certifies, so the flips and the
complement are rules on vertex sets.  A lowering flip, on the two nablas of
a W-configuration, trades their shared top vertex core+i+k for core+j one
level down; a raising flip, on the two deltas of an M-configuration, makes
the reverse trade; the complement complements every vertex.  Every result
is validated.
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
    _max_enum_n,
    enumerate_maximal,
    hypercube_domain,
    interval_collection,
)


def _check_types(i: int, j: int, k: int) -> None:
    if not i < j < k:
        raise ValueError("types must satisfy i < j < k")


def lowering_flip(combi: Combi, w: WConfig) -> Combi:
    """Replace the middle vertex core+i+k by core+j (i < j < k); raises
    ValueError unless i < j < k and the two nablas of `w` are tiles of the combi."""
    _check_types(w.i, w.j, w.k)
    if w.left_nabla() not in combi.nablas or w.right_nabla() not in combi.nablas:
        raise ValueError("the requested W-configuration is not present")
    verts = combi.vertex_masks() - {w.middle} | {w.core | bs.singleton(w.j)}
    return from_w_collection(SetFamily(combi.n, verts), check_input=False)


def raising_flip(combi: Combi, m: MConfig) -> Combi:
    """Replace the middle vertex core+j by core+i+k (i < j < k); raises
    ValueError unless i < j < k and the two deltas of `m` are tiles of the combi."""
    _check_types(m.i, m.j, m.k)
    if m.left_delta() not in combi.deltas or m.right_delta() not in combi.deltas:
        raise ValueError("the requested M-configuration is not present")
    high = m.core | bs.singleton(m.i) | bs.singleton(m.k)
    verts = combi.vertex_masks() - {m.core | bs.singleton(m.j)} | {high}
    return from_w_collection(SetFamily(combi.n, verts), check_input=False)


def complement_combi(combi: Combi) -> Combi:
    """The combi on the complemented vertex set (an involution)."""
    full = bs.full_mask(combi.n)
    verts = {full ^ x for x in combi.vertex_masks()}
    return from_w_collection(SetFamily(combi.n, verts), check_input=False)


def set_flip(
    family: SetFamily, core: int, i: int, j: int, k: int, direction: str
) -> SetFamily:
    """Weak flip on a maximal w-collection: trade core+j against core+i+k."""
    _check_types(i, j, k)
    mem = set(family.members)
    si, sj, sk = bs.singleton(i), bs.singleton(j), bs.singleton(k)
    witnesses = (core | si, core | sk, core | si | sj, core | sj | sk)
    if not all(wit in mem for wit in witnesses):
        raise ValueError("flip witnesses are absent from the family")
    low, high = core | sj, core | si | sk
    if low in mem and high in mem:
        raise ValueError("family contains both flip targets; it is not weakly separated")
    if direction == "raise":
        gone, came = low, high
    elif direction == "lower":
        gone, came = high, low
    else:
        raise ValueError(f"direction must be 'raise' or 'lower', got {direction!r}")
    if gone not in mem:
        raise ValueError(f"flip source {bs.format_subset(gone)} not in the family")
    mem.discard(gone)
    mem.add(came)
    return SetFamily(family.n, mem)


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
    if cur.vertex_masks() != interval_collection(combi.n).as_set():
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


def flip_graph(n: int, report: DomainReport | None = None) -> FlipGraph:
    """BFS over raising flips from the interval combi; nodes are spectra.

    Cross-checked against the brute-force clique enumeration, `report` if
    the caller has it, so the flip moves provably reach every maximal
    w-collection.
    """
    if n > min(5, _max_enum_n()):
        raise ResourceGuardError(f"flip_graph guard: n={n} exceeds the configured bound")
    start = interval_combi(n)
    key0 = start.vertex_masks()
    order: dict[frozenset[int], int] = {key0: 0}
    combis = [start]
    arcs: set[tuple[int, int]] = set()
    queue = [0]
    while queue:
        u = queue.pop(0)
        cur = combis[u]
        for m in find_m_configs(cur):
            nxt = raising_flip(cur, m)
            key = nxt.vertex_masks()
            v = order.get(key)
            if v is None:
                v = len(combis)
                order[key] = v
                combis.append(nxt)
                queue.append(v)
            arcs.add((u, v))
    nodes = tuple(sorted(order, key=lambda s: tuple(sorted(s))))
    remap = {order[key]: idx for idx, key in enumerate(nodes)}
    arcs2 = tuple(sorted((remap[u], remap[v]) for u, v in arcs))
    if report is None:
        report = enumerate_maximal(hypercube_domain(n), "weak")
    expected = {f.as_set() for f in report.maximal_collections}
    if set(nodes) != expected:
        raise TilingError("flip-graph", "flip moves do not reach every collection")
    return FlipGraph(n, nodes, arcs2)


def set_flip_graph(n: int, report: DomainReport | None = None) -> FlipGraph:
    """Raising-flip graph computed purely at the set level, for cross-checks,
    over the collections of `report`, the weak n-cube's enumeration."""
    if report is None:
        report = enumerate_maximal(hypercube_domain(n), "weak")
    nodes = tuple(f.as_set() for f in report.maximal_collections)
    index = {s: i for i, s in enumerate(nodes)}
    arcs = set()
    for idx, fam in enumerate(report.maximal_collections):
        mem = fam.as_set()
        for low in mem:
            rest = [e for e in range(1, n + 1) if not bs.has(low, e)]
            for j in bs.iter_elements(low):
                core = low ^ bs.singleton(j)
                for i in rest:
                    if i >= j:
                        continue
                    for k in rest:
                        if k <= j:
                            continue
                        si, sk = bs.singleton(i), bs.singleton(k)
                        wits = (core | si, core | sk, core | si | bs.singleton(j), core | bs.singleton(j) | sk)
                        if all(wt in mem for wt in wits):
                            target = (mem - {low}) | {core | si | sk}
                            v = index.get(frozenset(target))
                            if v is not None:
                                arcs.add((idx, v))
    return FlipGraph(n, nodes, tuple(sorted(arcs)))
