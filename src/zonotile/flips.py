"""Weak raising and lowering flips on combies, set-level flips, flip graphs.

A lowering flip removes the middle vertex of a W-configuration and inserts
the complementary vertex one level down, rebuilding the surrounding tiles.
There are two regimes above the removed vertex (its top companion present
or a lens absorbing the two horizontal edges) and three below (a single
delta over a nabla, a single delta over a lens, or a delta fan that turns
into a new lens).  Raising flips are lowering flips on the complemented
combi.  Every flip result is re-validated.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import bitsets as bs
from ._planar import TilingError
from .combi import (
    Combi,
    Delta,
    Lens,
    MConfig,
    Nabla,
    WConfig,
    find_m_configs,
    find_w_configs,
    from_w_collection,
    shared_delta,
    shared_lens,
    shared_nabla,
    validate_combi,
)
from .separation import (
    ResourceGuardError,
    SetFamily,
    _max_enum_n,
    enumerate_maximal,
    hypercube_domain,
    interval_collection,
)


def lowering_flip(combi: Combi, w: WConfig, validate: bool = True) -> Combi:
    """Replace the middle vertex core+i+k by core+j (i < j < k).

    The lenses and the delta fan are looked up in the input combi: every
    tile changed before a lookup has its apex or its edges elsewhere.
    """
    core, i, j, k = w.core, w.i, w.j, w.k
    si, sj, sk = bs.singleton(i), bs.singleton(j), bs.singleton(k)
    mid = core | si | sk
    new_v = core | sj
    left_top = core | si | sj
    right_top = core | sj | sk
    left_low = core | si
    right_low = core | sk
    top = core | si | sj | sk

    deltas = set(combi.deltas)
    nablas = set(combi.nablas)
    lenses = set(combi.lenses)

    nb_left = Nabla(left_low, j, k)
    nb_right = Nabla(right_low, i, j)
    if nb_left not in nablas or nb_right not in nablas:
        raise ValueError("W-configuration is not present in the combi")
    nablas.discard(nb_left)
    nablas.discard(nb_right)

    # update above the removed vertex
    if top in combi.vertex_masks():
        d_left = Delta(top, j, k)
        d_right = Delta(top, i, j)
        if d_left not in deltas or d_right not in deltas:
            raise TilingError("flip", "top companions of the W-configuration missing")
        deltas.discard(d_left)
        deltas.discard(d_right)
        deltas.add(Delta(top, i, k))
        nablas.add(Nabla(new_v, i, k))
    else:
        host = combi.lens_on((left_top, mid), "lower")
        if host is None or host is not combi.lens_on((mid, right_top), "lower"):
            raise TilingError("flip", "no lens carries the two horizontal flip edges")
        lenses.discard(host)
        if len(host.lower) >= 4:
            new_lower = tuple(v for v in host.lower if v != mid)
            lenses.add(Lens(host.upper, new_lower))
            nablas.add(Nabla(new_v, i, k))
        else:
            up = host.upper
            for a, b in zip(up, up[1:]):
                nablas.add(Nabla.on_base(new_v, a, b))

    deltas.add(Delta(left_top, i, j))
    deltas.add(Delta(right_top, j, k))

    # rebuild below the removed vertex
    fan = combi.delta_fan(mid)
    if not fan or (fan[0], fan[-1]) != (left_low, right_low):
        raise TilingError("fan", "delta fan does not run between the flip edges")
    for a, b in zip(fan, fan[1:]):
        deltas.discard(Delta.on_base(mid, a, b))
    if len(fan) == 2:  # a single delta
        under = Nabla(core, i, k)
        if under in nablas:
            nablas.discard(under)
            nablas.add(Nabla(core, i, j))
            nablas.add(Nabla(core, j, k))
        else:
            host = combi.lens_on((left_low, right_low), "upper")
            if host is None:
                raise TilingError("flip", "nothing beneath the flip fan base")
            lenses.discard(host)
            new_upper = []
            for v in host.upper:
                new_upper.append(v)
                if v == left_low:
                    new_upper.append(new_v)
            lenses.add(Lens(tuple(new_upper), host.lower))
    else:
        lenses.add(Lens((left_low, new_v, right_low), fan))

    out = Combi(combi.n, deltas, nablas, lenses)
    if validate:
        validate_combi(out)
    return out


def complement_combi(combi: Combi, validate: bool = True) -> Combi:
    """The combi on the complemented vertex set (an involution).

    Deltas and nablas swap roles with unchanged types; each lens swaps its
    boundaries, reversed and complemented.
    """
    full = bs.full_mask(combi.n)
    deltas = [shared_delta(full ^ v.bottom, v.low, v.high) for v in combi.nablas]
    nablas = [shared_nabla(full ^ d.apex, d.low, d.high) for d in combi.deltas]
    lenses = [
        shared_lens(
            tuple(full ^ v for v in reversed(l.lower)),
            tuple(full ^ v for v in reversed(l.upper)),
        )
        for l in combi.lenses
    ]
    out = Combi(combi.n, deltas, nablas, lenses)
    if validate:
        validate_combi(out)
    return out


def raising_flip(combi: Combi, m: MConfig) -> Combi:
    """Replace core+j by core+i+k; performed as a lowering flip on the
    complemented combi."""
    if m.left_delta() not in combi.deltas or m.right_delta() not in combi.deltas:
        raise ValueError("M-configuration is not present in the combi")
    full = bs.full_mask(combi.n)
    comp_core = full ^ (m.core | bs.singleton(m.i) | bs.singleton(m.j) | bs.singleton(m.k))
    mirrored = WConfig(comp_core, m.i, m.j, m.k)
    flipped = lowering_flip(complement_combi(combi, validate=False), mirrored, validate=False)
    out = complement_combi(flipped, validate=False)
    validate_combi(out)
    return out


def set_flip(
    family: SetFamily, core: int, i: int, j: int, k: int, direction: str
) -> SetFamily:
    """Weak flip on a maximal w-collection: trade core+j against core+i+k."""
    if not i < j < k:
        raise ValueError("types must satisfy i < j < k")
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


@dataclass(frozen=True)
class FlipGraph:
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


def flip_graph(n: int) -> FlipGraph:
    """BFS over raising flips from the interval combi; nodes are spectra.

    Cross-checked against the brute-force clique enumeration so the flip
    moves provably reach every maximal w-collection.
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
    report = enumerate_maximal(hypercube_domain(n), "weak")
    expected = {f.as_set() for f in report.maximal_collections}
    if set(nodes) != expected:
        raise TilingError("flip-graph", "flip moves do not reach every collection")
    return FlipGraph(n, nodes, arcs2)


def set_flip_graph(n: int) -> FlipGraph:
    """Raising-flip graph computed purely at the set level, for cross-checks."""
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
