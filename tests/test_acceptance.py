"""Acceptance battery: one test per criterion, each running the matching
`zonotile.suite` check at the acceptance range and pinning its counts, so a
check that samples nothing cannot pass.  One printed verdict line each (run
with `pytest -s` to see the lines)."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from zonotile import suite
from zonotile.cli import cmd


def _verdict(num: int, ok: bool, text: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num} failed: {text}"


def _per_n(detail: dict, field: str) -> dict:
    return {key: entry[field] for key, entry in detail.items()}


def test_criterion_1_hypercube_purity():
    result = suite.check_hypercube_purity(5, suite.CubePool())
    sizes, ranks = _per_n(result["detail"], "collections"), _per_n(result["detail"], "ranks")
    ok = result["pass"] and sizes == {"3": 2, "4": 10, "5": 124}
    ok &= ranks == {"3": [7], "4": [11], "5": [16]}
    _verdict(1, ok, f"hypercube w-purity, collections {sizes}, ranks {ranks}")


def test_criterion_1_optional_n6():
    result = suite.check_hypercube_purity(6, suite.CubePool())
    sizes, ranks = _per_n(result["detail"], "collections"), _per_n(result["detail"], "ranks")
    ok = result["pass"] and sizes == {"3": 2, "4": 10, "5": 124, "6": 3694} and ranks["6"] == [22]
    _verdict(1, ok, f"hypercube n=6: {sizes['6']} collections, rank 22")


def test_criterion_2_rank_formulas():
    result = suite.check_rank_formulas(6, suite.CubePool())
    chambers, pairs, bands, spot = (entry.get("checked") for entry in result["detail"].values())
    ok = result["pass"] and (chambers, pairs, bands, spot) == (24, 151, 83, None)
    _verdict(2, ok, f"{chambers} chamber domains, {pairs} chamber pairs, {bands} hypersimplex bands")


def test_criterion_3_combi_bijection():
    result = suite.check_combi_bijection(5, suite.CubePool())
    sizes = _per_n(result["detail"], "collections")
    ok = result["pass"] and sizes == {"2": 1, "3": 2, "4": 10, "5": 124}
    _verdict(3, ok, f"{sum(sizes.values())} maximal w-collections reconstructed and round-tripped")


def test_criterion_4_flip_coherence():
    result = suite.check_flip_coherence(4, suite.CubePool())
    nodes, arcs = _per_n(result["detail"], "nodes"), _per_n(result["detail"], "arcs")
    ok = result["pass"] and nodes == {"2": 1, "3": 2, "4": 10} and arcs == {"2": 0, "3": 1, "4": 12}
    _verdict(4, ok, f"flip graphs isomorphic, nodes {nodes}, arcs {arcs}, unique source/sink, eta exact")


def test_criterion_5_contraction_bijection():
    result = suite.check_contraction_bijection(5, suite.CubePool())
    pairs = [result["detail"][f"converse_n{n}"]["pairs"] for n in range(1, 5)]
    forward = [key for key in result["detail"] if key.startswith("forward")]
    ok = result["pass"] and pairs == [1, 2, 10, 124]
    ok &= forward == [f"forward_n{n}" for n in range(2, 6)]
    _verdict(5, ok, f"forward round trips for n=2..5, converse pairs {pairs}")


def test_criterion_6_pattern_theorems():
    result = suite.check_pattern_theorems(5, seed=2024, samples=500, pool=suite.CubePool())
    d = result["detail"]
    counts = (d["simple_never_crossing"]["samples"], d["quadruples_match_curve"]["samples"],
              d["complementary_pairs"]["exhaustive_n4"], d["complementary_pairs"]["sampled_n5"],
              d["strong_patterns"]["checked"], d["graph_patterns"]["checked"])
    ok = result["pass"] and counts == (500, 500, 228, 100, 8, 50)
    ok &= d["quadruples_match_curve"]["violators"] == 3
    _verdict(6, ok, "{} simple, {} generalized, {} exhaustive n=4 + {} sampled n=5 pairs, "
                    "{} strong, {} graph patterns".format(*counts))


def test_criterion_7_cross_tiling_exchange():
    result = suite.check_cross_exchange(5, seed=7, samples=100, pool=suite.CubePool())
    checked = result["detail"]["checked"]
    ok = result["pass"] and checked == 100
    _verdict(7, ok, f"{checked} sampled cross-tiling exchanges merged and validated")


REPORT_MAX_N4_SEED7_SHA256 = "679d55dfce7ddb17f44090002abbe7ddc378d10bb637807e2680b3ddf36f8f8b"
# --max-n 5 is the smallest run that reaches every input the run's pool
# shares: the contraction converse up to n - 1 = 4, the sampled n = 5
# complementary pairs and the n = 5 cross exchanges
REPORT_MAX_N5_SEED7_SHA256 = "70d7680daa669d5549a0fbdc7c1ce4dd9cdea17b80851647158ea65700ff47be"
# --max-n 6 is the smallest run with a forward contraction pass (n = 6) that
# the converse, which stops at n - 1 = 4, does not read
REPORT_MAX_N6_SEED7_SHA256 = "d9ff8f2aa6e07d452dfae80cee521b97842f6879854dae7ec595e506f116eb1f"


def test_criterion_8_determinism(tmp_path):
    out1, out2, out5 = tmp_path / "r1.json", tmp_path / "r2.json", tmp_path / "r5.json"
    args = ["verify", "--paper-suite", "--max-n", "4", "--seed", "7"]
    rc1 = cmd(args + ["--out", str(out1)])
    rc2 = cmd(args + ["--out", str(out2)])
    ok = rc1 == 0 and rc2 == 0 and out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    ok &= report["pass"] is True
    # the report's bytes are pinned, so a refactor that changes one fails here
    ok &= hashlib.sha256(out1.read_bytes()).hexdigest() == REPORT_MAX_N4_SEED7_SHA256
    rc5 = cmd(["verify", "--paper-suite", "--max-n", "5", "--seed", "7", "--out", str(out5)])
    ok &= rc5 == 0 and hashlib.sha256(out5.read_bytes()).hexdigest() == REPORT_MAX_N5_SEED7_SHA256
    _verdict(8, ok, "verify --paper-suite --max-n 4 and 5 --seed 7 byte-identical across runs and commits")


@pytest.mark.slow
def test_report_max_n6_is_pinned(tmp_path):
    out = tmp_path / "r6.json"
    assert cmd(["verify", "--paper-suite", "--max-n", "6", "--seed", "7", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == REPORT_MAX_N6_SEED7_SHA256


@pytest.mark.slow
def test_the_suite_at_n7_runs_in_a_gigabyte():
    # the top n the suite allows, in its own process under a 1 GB address
    # space: every weak 7-collection is reconstructed, round-tripped and
    # contracted and expanded again (POSIX only, as `resource` is)
    import resource

    def one_gigabyte():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    args = [sys.executable, "-m", "zonotile.cli", "verify", "--paper-suite", "--max-n", "7", "--seed", "7"]
    run = subprocess.run(args, env=env, capture_output=True, text=True, preexec_fn=one_gigabyte, timeout=600)
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout)
    assert report["pass"] is True
    checks = report["checks"]
    purity = checks["hypercube_purity"]["detail"]["7"]
    assert (purity["collections"], purity["ranks"], purity["pass"]) == (259480, [29], True)
    assert checks["combi_bijection"]["detail"]["7"] == {"collections": 259480, "pass": True}
    assert checks["contraction_bijection"]["detail"]["forward_n7"] == {"pass": True}
