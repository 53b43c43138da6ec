"""`run_suite` shares one `CubePool` among its checks: each weak hypercube is
enumerated once per run, each combi is contracted and expanded back once per
run, each distinct purity input is worked out once per run, and nothing
carries over from one run to the next.  The contraction converse compares the
legal pairs with the forward pass's images, so a pool that lacks a combi or an
enumeration that repeats a path fails it.  Also the cycle sampler the pattern
checks draw through, the adjacencies the pool keeps for it and a pin of the
cycles it draws, and the cross exchange's two skips: a draw with no cycle or
a self-crossing one."""

import hashlib
import random
from collections import Counter

import pytest

from zonotile import flips, suite


def test_one_enumeration_per_n_per_run(monkeypatch):
    enumerations, builds = Counter(), Counter()
    contractions, expansions, verdicts = Counter(), Counter(), Counter()
    enumerate_maximal, from_w_collection = suite.enumerate_maximal, suite.from_w_collection
    n_contract, n_expand, purity_verdict = suite.n_contract, suite.n_expand, suite.purity_verdict

    def counted_enumerate(domain, relation):
        enumerations[domain.n, len(domain), relation] += 1
        return enumerate_maximal(domain, relation)

    def counted_build(family, **kwargs):
        builds[family.n] += 1
        return from_w_collection(family, **kwargs)

    def counted_contract(combi):
        contractions[combi] += 1
        return n_contract(combi)

    def counted_expand(combi, path):
        expansions[combi, tuple(path)] += 1
        return n_expand(combi, path)

    def counted_verdict(domain, relation):
        verdicts[domain.n, domain.members, relation] += 1
        return purity_verdict(domain, relation)

    monkeypatch.setattr(suite, "enumerate_maximal", counted_enumerate)
    monkeypatch.setattr(flips, "enumerate_maximal", counted_enumerate)
    monkeypatch.setattr(suite, "from_w_collection", counted_build)
    monkeypatch.setattr(suite, "n_contract", counted_contract)
    monkeypatch.setattr(suite, "n_expand", counted_expand)
    monkeypatch.setattr(suite, "purity_verdict", counted_verdict)

    counters = (enumerations, builds, contractions, expansions, verdicts)
    runs = []
    for _ in range(2):
        for counter in counters:
            counter.clear()
        report = suite.run_suite(max_n=4, seed=7, samples=5)
        assert report["pass"] is True
        runs.append((report, *(Counter(counter) for counter in counters)))
    first, second = runs
    _, enum1, builds1, contract1, expand1, verdict1 = first

    # the weak n-cube for n = 1..4 once each, the flip graphs reading the
    # pool's, and no strong cube: the strong patterns filter the pool's
    assert enum1 == Counter({(n, 1 << n, "weak"): 1 for n in range(1, 5)})
    # per weak collection (1, 1, 2 and 10 for n = 1..4): the pooled combi,
    # and the bijection's independent rebuild for n >= 2; the flip
    # coherence check reads the pooled combis
    assert builds1 == Counter({1: 1, 2: 2, 3: 4, 4: 20})
    # every n-combi for n = 2..4 is contracted once, and the pair it gives
    # expanded once; the converse (pairs at n - 1 = 1..3) calls neither map
    assert set(contract1.values()) == set(expand1.values()) == {1}
    assert len(contract1) == len(expand1) == 1 + 2 + 10
    # one purity verdict per distinct (domain, relation), 489 in this run,
    # the graph patterns' face domains among them
    assert set(verdict1.values()) == {1}
    assert len(verdict1) == 489
    # a second run in the same process starts from an empty pool
    assert second == first


def test_converse_fails_a_pool_that_lacks_a_combi():
    class FewerCombis(suite.CubePool):
        """Only the first three of the ten 4-combis."""

        def combis(self, n):
            got = super().combis(n)
            return got[:3] if n == 4 else got

    result = suite.check_contraction_bijection(4, FewerCombis())
    assert result["pass"] is False
    # the 10 legal pairs at n - 1 = 3 are counted right, but 7 of them are
    # no image of the forward pass, which maps the 3 combis it sees
    assert result["detail"]["converse_n3"] == {"pairs": 10, "expected": 10, "pass": False}
    assert all(entry["pass"] for key, entry in result["detail"].items() if key != "converse_n3")


@pytest.mark.parametrize("repeat", ["in_place_of_another", "as_an_extra"])
def test_converse_fails_a_repeated_path(monkeypatch, repeat):
    enumerate_legal_paths = suite.enumerate_legal_paths

    def repeating(combi):
        paths = enumerate_legal_paths(combi)
        if combi.n != 3:
            return paths
        # a 3-combi has at least two legal paths
        return paths[:-1] + paths[:1] if repeat == "in_place_of_another" else paths + paths[:1]

    monkeypatch.setattr(suite, "enumerate_legal_paths", repeating)
    result = suite.check_contraction_bijection(4, suite.CubePool())
    pairs = 10 if repeat == "in_place_of_another" else 12
    assert result["detail"]["converse_n3"] == {"pairs": pairs, "expected": 10, "pass": False}
    assert all(entry["pass"] for key, entry in result["detail"].items() if key != "converse_n3")


def test_sample_cycle_without_a_cycle_gives_none():
    rng = random.Random(0)
    assert suite.sample_cycle(set(), rng) is None
    # every walk on a path stops at an end before it can close
    assert suite.sample_cycle({(1, 2), (2, 3)}, rng) is None


def test_cross_exchange_counts_only_the_draws_it_checks(monkeypatch):
    sample_cycle, classify_pattern, merge_repair = suite.sample_cycle, suite.classify_pattern, suite.merge_repair
    calls = Counter()

    def skipping_sample(edges, rng):
        calls["draws"] += 1
        cyc = None if calls["draws"] % 3 == 0 else sample_cycle(edges, rng)
        calls["no cycle"] += cyc is None
        return cyc

    def skipping_classify(pattern):
        calls["classified"] += 1
        kind = "self_crossing" if calls["classified"] % 4 == 0 else classify_pattern(pattern)
        calls["crossing"] += kind == "self_crossing"
        return kind

    def counted_merge(inside, outside):
        calls["merged"] += 1
        return merge_repair(inside, outside)

    monkeypatch.setattr(suite, "sample_cycle", skipping_sample)
    monkeypatch.setattr(suite, "classify_pattern", skipping_classify)
    monkeypatch.setattr(suite, "merge_repair", counted_merge)
    result = suite.check_cross_exchange(4, 7, 10, suite.CubePool())
    assert result == {"pass": True, "detail": {"checked": 10}}
    assert calls["no cycle"] > 0 and calls["crossing"] > 0
    assert calls["merged"] == 10 == calls["draws"] - calls["no cycle"] - calls["crossing"]


def test_cross_exchange_fails_at_its_attempt_cap_when_every_draw_is_skipped(monkeypatch):
    sample_cycle, draws = suite.sample_cycle, Counter()

    def no_cycle(edges, rng):
        draws["no cycle"] += 1
        return None

    def counted_sample(edges, rng):
        draws["cycle"] += 1
        return sample_cycle(edges, rng)

    for name, sample, classify in (
        ("no cycle", no_cycle, suite.classify_pattern),
        ("cycle", counted_sample, lambda pattern: "self_crossing"),
    ):
        with monkeypatch.context() as patch:
            patch.setattr(suite, "sample_cycle", sample)
            patch.setattr(suite, "classify_pattern", classify)
            result = suite.check_cross_exchange(3, 7, 2, suite.CubePool())
        assert result == {"pass": False, "detail": {"checked": 0}}
        assert draws[name] == 2 * 60


# per seed: the patterns interned after the pattern checks, after the cross
# exchange, and the sha256 of the whole list
DRAW_PINS = {
    1: (1152, 1224, "1a7eb5cca7832f5dbe64886a185a193140bc2cae7d287be97ae531597b0ca877"),
    7: (1114, 1184, "936e8ecf7bc0f900b92e129c2eaf210309951d9f9c9b07bf2f17567da9a5cda2"),
}


@pytest.mark.parametrize("seed", sorted(DRAW_PINS))
def test_the_pattern_draws_are_pinned(seed):
    # the reports hold only counts, so a change in which cycles are drawn
    # shows only here: the pool interns each pattern in first-draw order
    after_patterns, after_exchange, digest = DRAW_PINS[seed]
    pool = suite.CubePool()
    suite.check_pattern_theorems(5, seed, 500, pool)
    assert len(pool.patterns) == after_patterns
    suite.check_cross_exchange(5, seed, 100, pool)
    assert len(pool.patterns) == after_exchange
    drawn = repr([(p.n, p.cycle) for p in pool.patterns]).encode()
    assert hashlib.sha256(drawn).hexdigest() == digest


def test_the_pool_keeps_one_adjacency_per_combi_and_edge_kind():
    pool = suite.CubePool()
    assert pool._adjacencies == {}
    suite.check_pattern_theorems(4, 7, 50, pool)
    assert {generalized for _, generalized in pool._adjacencies} == {False, True}
    for (combi, generalized), adjacency in pool._adjacencies.items():
        edges = combi.vertical_edges() | (combi.horizontal_edges() if generalized else set())
        assert adjacency == suite._SortedAdjacency(edges) and adjacency.verts == sorted(adjacency)
        assert pool.adjacency(combi, generalized) is adjacency
