"""`run_suite` shares one `CubePool` among its checks: each weak hypercube is
enumerated once per run, and nothing carries over from one run to the next."""

from collections import Counter

from zonotile import suite


def test_one_enumeration_per_n_per_run(monkeypatch):
    enumerations, builds = Counter(), Counter()
    enumerate_maximal, from_w_collection = suite.enumerate_maximal, suite.from_w_collection

    def counted_enumerate(domain, relation):
        enumerations[domain.n, len(domain), relation] += 1
        return enumerate_maximal(domain, relation)

    def counted_build(family, **kwargs):
        builds[family.n] += 1
        return from_w_collection(family, **kwargs)

    monkeypatch.setattr(suite, "enumerate_maximal", counted_enumerate)
    monkeypatch.setattr(suite, "from_w_collection", counted_build)

    runs = []
    for _ in range(2):
        enumerations.clear()
        builds.clear()
        report = suite.run_suite(max_n=4, seed=7, samples=5)
        assert report["pass"] is True
        runs.append((report, Counter(enumerations), Counter(builds)))
    (first, enum1, builds1), (second, enum2, builds2) = runs

    # the weak n-cube for n = 1..4 once each, and the strong 4-cube for the
    # strong patterns
    assert enum1 == Counter({(n, 1 << n, "weak"): 1 for n in range(1, 5)} | {(4, 16, "strong"): 1})
    # per weak collection (1, 1, 2 and 10 for n = 1..4): the pooled combi,
    # the bijection's independent rebuild for n >= 2, and the flip
    # coherence check's own build for n = 2..4
    assert builds1 == Counter({1: 1, 2: 3, 3: 6, 4: 30})
    # a second run in the same process starts from an empty pool
    assert second == first
    assert (enum2, builds2) == (enum1, builds1)
