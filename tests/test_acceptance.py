"""Acceptance battery: one test per criterion, exact tolerances, one
printed verdict line each (run with `pytest -s` to see the lines)."""

import hashlib
import json
import random
from itertools import permutations

from zonotile.cli import cmd
from zonotile.combi import find_w_configs, from_w_collection, spectrum
from zonotile.contraction import enumerate_legal_paths, n_contract, n_expand
from zonotile.flips import flip_graph, lowering_flip, set_flip_graph
from zonotile.patterns import (
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
from zonotile.separation import (
    Permutation,
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
from zonotile.suite import (
    _combi_edge_sets,
    all_combis,
    crossing_pattern_examples,
    sample_cycle,
    sample_generalized_pattern,
    sample_simple_pattern,
)


def _verdict(num: int, ok: bool, text: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num} failed: {text}"


def test_criterion_1_hypercube_purity():
    sizes = {}
    ok = True
    for n, want in ((3, 7), (4, 11), (5, 16)):
        report = enumerate_maximal(hypercube_domain(n), "weak")
        ok &= report.pure and report.ranks == (want,)
        sizes[n] = (len(report.maximal_collections), report.ranks)
    _verdict(1, ok, f"hypercube w-purity, ranks {sizes}")


def test_criterion_1_optional_n6():
    report = enumerate_maximal(hypercube_domain(6), "weak")
    ok = report.pure and report.ranks == (22,)
    _verdict(1, ok, f"hypercube n=6: {len(report.maximal_collections)} collections, rank 22")


def test_criterion_2_rank_formulas():
    ok = True
    for images in permutations(range(1, 5)):
        w = Permutation(images)
        report = enumerate_maximal(chamber_domain(w), "weak")
        ok &= report.pure and report.ranks == (len(inversions(w)) + 5,)
    pair_count = 0
    for low_images in permutations(range(1, 5)):
        for high_images in permutations(range(1, 5)):
            low, high = Permutation(low_images), Permutation(high_images)
            if not inversions(low) <= inversions(high):
                continue
            report = enumerate_maximal(chamber_pair_domain(low, high), "weak")
            want = len(inversions(high)) - len(inversions(low)) + 5
            ok &= report.pure and report.ranks == (want,)
            pair_count += 1
    hyper_count = 0
    for n in range(1, 7):
        for m_high in range(n + 1):
            for m_low in range(m_high + 1):
                report = enumerate_maximal(hypersimplex_domain(n, m_low, m_high), "weak")
                want = (
                    (n + 1) * n // 2
                    - (n - m_high + 1) * (n - m_high) // 2
                    - (m_low + 1) * m_low // 2
                    + 1
                )
                ok &= report.pure and report.ranks == (want,)
                hyper_count += 1
    ok &= enumerate_maximal(hypersimplex_domain(4, 2, 2), "weak").ranks == (5,)
    ok &= enumerate_maximal(hypersimplex_domain(5, 2, 2), "weak").ranks == (7,)
    _verdict(2, ok, f"24 chamber domains, {pair_count} chamber pairs, {hyper_count} hypersimplex bands")


def test_criterion_3_combi_bijection():
    ok = True
    total = 0
    for n in range(2, 6):
        for fam in enumerate_maximal(hypercube_domain(n), "weak").maximal_collections:
            combi = from_w_collection(fam)
            ok &= spectrum(combi) == fam
            ok &= from_w_collection(fam, check_input=False) == combi
            total += 1
    _verdict(3, ok, f"{total} maximal w-collections reconstructed, validated, round-tripped")


def test_criterion_4_flip_coherence():
    ok = True
    for n in (2, 3, 4):
        combi_graph = flip_graph(n)
        sets_graph = set_flip_graph(n)
        ok &= combi_graph.nodes == sets_graph.nodes and combi_graph.arcs == sets_graph.arcs
        sources, sinks = combi_graph.sources(), combi_graph.sinks()
        ok &= len(sources) == 1 and combi_graph.nodes[sources[0]] == interval_collection(n).as_set()
        ok &= len(sinks) == 1 and combi_graph.nodes[sinks[0]] == cointerval_collection(n).as_set()
        for node in combi_graph.nodes:
            combi = from_w_collection(SetFamily(n, node), check_input=False)
            for w in find_w_configs(combi):
                ok &= lowering_flip(combi, w).size_sum() == combi.size_sum() - 1
    _verdict(4, ok, "combi and set flip graphs isomorphic, unique source/sink, eta steps exact")


def test_criterion_5_contraction_bijection():
    ok = True
    forward = 0
    for n in range(2, 6):
        for combi in all_combis(n):
            smaller, path = n_contract(combi)
            ok &= n_expand(smaller, path) == combi
            forward += 1
    converse = 0
    for n2 in range(1, 5):
        pairs = 0
        for combi in all_combis(n2):
            for path in enumerate_legal_paths(combi):
                back, path_back = n_contract(n_expand(combi, path))
                ok &= back == combi and path_back == path
                pairs += 1
        want = len(enumerate_maximal(hypercube_domain(n2 + 1), "weak").maximal_collections)
        assert pairs == want, f"n={n2}: {pairs} converse pairs, want {want}"
        converse += pairs
    _verdict(5, ok, f"{forward} forward and {converse} converse round trips")


def test_criterion_6_pattern_theorems():
    rng = random.Random(2024)
    ok = True
    pools = {n: all_combis(n) for n in (3, 4, 5)}

    simple_count = 0
    while simple_count < 500:
        n = rng.choice((3, 4, 5))
        pat = sample_simple_pattern(rng.choice(pools[n]), rng)
        if pat is None:
            continue
        ok &= classify_pattern(pat) == "simple"
        simple_count += 1

    gen_count = 0
    for pat in crossing_pattern_examples(4):
        ok &= classify_pattern(pat) == "self_crossing" and curve_kind(pat) == "crossing"
        gen_count += 1
    while gen_count < 500:
        n = rng.choice((3, 4, 5))
        pat = sample_generalized_pattern(rng.choice(pools[n]), rng)
        if pat is None:
            continue
        ok &= classify_pattern(pat) in ("simple", "generalized_ok")
        gen_count += 1

    from zonotile.suite import _all_cycles

    seen = set()
    exhaustive = 0
    for combi in pools[4]:
        vert, _ = _combi_edge_sets(combi)
        for cyc in _all_cycles(vert):
            pat = CyclicPattern(4, cyc)
            key = pat.canonical()
            if key in seen:
                continue
            seen.add(key)
            inner, outer = domains(pat)
            ok &= verify_complementary(inner, outer)
            ok &= verify_purity(inner).pure and verify_purity(outer).pure
            exhaustive += 1
    sampled5 = 0
    while sampled5 < 100:
        pat = sample_generalized_pattern(rng.choice(pools[5]), rng)
        if pat is None or classify_pattern(pat) == "self_crossing":
            continue
        inner, outer = domains(pat)
        ok &= verify_complementary(inner, outer)
        ok &= verify_purity(inner).pure and verify_purity(outer).pure
        sampled5 += 1

    from zonotile.combi import from_rhombus
    from zonotile.rhombus import from_s_collection

    strong_count = 0
    for fam in enumerate_maximal(hypercube_domain(4), "strong").maximal_collections:
        semi = from_rhombus(from_s_collection(fam))
        vert, _ = _combi_edge_sets(semi)
        cyc = sample_cycle(vert, rng)
        if cyc is None:
            continue
        pat = CyclicPattern(4, cyc)
        inner, outer = strong_domains(pat)
        ok &= verify_complementary(inner, outer, "strong")
        sin = verify_purity(inner, "strong")
        win = verify_purity(inner, "weak")
        sout = verify_purity(outer, "strong")
        wout = verify_purity(outer, "weak")
        ok &= sin.pure and win.pure and sout.pure and wout.pure
        ok &= sin.ranks == win.ranks and sout.ranks == wout.ranks
        strong_count += 1

    graph_count = 0
    while graph_count < 50:
        combi = rng.choice(pools[4])
        vert, horiz = _combi_edge_sets(combi)
        chosen = [e for e in sorted(vert | horiz) if rng.random() < 0.35]
        try:
            pat = graph_pattern(4, set(combi.vertex_masks()), chosen)
        except ValueError:
            continue
        ok &= verify_face_domains(pat)
        graph_count += 1

    _verdict(
        6,
        ok,
        f"{simple_count} simple, {gen_count} generalized, {exhaustive} exhaustive n=4 "
        f"+ {sampled5} sampled n=5 pairs, {strong_count} strong, {graph_count} graph patterns",
    )


def test_criterion_7_cross_tiling_exchange():
    rng = random.Random(7)
    pools = {n: all_combis(n) for n in (3, 4, 5)}
    ok = True
    checked = 0
    while checked < 100:
        n = rng.choice((3, 4, 5))
        combi_a, combi_b = rng.choice(pools[n]), rng.choice(pools[n])
        common = combi_a.vertex_masks() & combi_b.vertex_masks()
        va, ha = _combi_edge_sets(combi_a)
        vb, hb = _combi_edge_sets(combi_b)
        usable = {(u, v) for u, v in va | ha | vb | hb if u in common and v in common}
        cyc = sample_cycle(usable, rng)
        if cyc is None:
            continue
        pat = CyclicPattern(n, cyc)
        if classify_pattern(pat) == "self_crossing":
            continue
        inside, _ = split_quasi(combi_a, pat)
        _, outside = split_quasi(combi_b, pat)
        merged = merge_repair(inside, outside)
        ok &= inside.vertex_masks() | outside.vertex_masks() <= merged.vertex_masks()
        checked += 1
    _verdict(7, ok, f"{checked} sampled cross-tiling exchanges merged and validated")


REPORT_MAX_N4_SEED7_SHA256 = "679d55dfce7ddb17f44090002abbe7ddc378d10bb637807e2680b3ddf36f8f8b"


def test_criterion_8_determinism(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    args = ["verify", "--paper-suite", "--max-n", "4", "--seed", "7"]
    rc1 = cmd(args + ["--out", str(out1)])
    rc2 = cmd(args + ["--out", str(out2)])
    ok = rc1 == 0 and rc2 == 0 and out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    ok &= report["pass"] is True
    # the report's bytes are pinned, so a refactor that changes one fails here
    ok &= hashlib.sha256(out1.read_bytes()).hexdigest() == REPORT_MAX_N4_SEED7_SHA256
    _verdict(8, ok, "verify --paper-suite --max-n 4 --seed 7 byte-identical across runs and commits")
