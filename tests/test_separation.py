import dataclasses
import random
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zonotile import bitsets as bs
from zonotile import separation
from zonotile.patterns import CyclicPattern, domains, strong_domains
from zonotile.separation import (
    DomainReport,
    Permutation,
    PurityVerdict,
    ResourceGuardError,
    SetFamily,
    base_relation,
    chamber_domain,
    chamber_pair_domain,
    compatible_row,
    enumerate_maximal,
    hypercube_domain,
    hypersimplex_domain,
    interval_collection,
    inversions,
    is_maximal_separated,
    maximal_cliques,
    members_mask,
    purity_verdict,
    separation_row,
    strongly_separated,
    weakly_separated,
)
from zonotile.suite import _all_cycles, all_combis

import oracles

M = bs.mask_of


@pytest.fixture(scope="module")
def rank_domains():
    """The domains of the suite's rank table: the hypersimplex domains with
    n <= 6, the n = 4 chamber domains and chamber pairs."""
    chambers, pairs = [], []
    for upper in permutations(range(1, 5)):
        up = Permutation(upper)
        chambers.append(chamber_domain(up))
        for lower in permutations(range(1, 5)):
            if inversions(Permutation(lower)) <= inversions(up):
                pairs.append(chamber_pair_domain(Permutation(lower), up))
    return {
        "hypersimplex": [hypersimplex_domain(n, lo, hi) for n in range(1, 7)
                         for lo in range(n + 1) for hi in range(lo, n + 1)],
        "chamber": chambers,
        "chamber_pair": pairs,
    }


@pytest.fixture(scope="module")
def small_domains(rank_domains):
    """The rank table's domains, and the distinct simple cycles of the
    4-combis as patterns."""
    patterns = {}
    for combi in all_combis(4):
        for cyc in _all_cycles(combi.vertical_edges()):
            pat = CyclicPattern(4, cyc)
            patterns.setdefault(pat.canonical(), pat)
    return {**rank_domains, "pattern": list(patterns.values())}


@pytest.fixture(scope="module")
def enumerated():
    """`enumerate_maximal`, run once per domain and relation in this module."""
    reports = {}

    def get(dom, relation):
        key = (dom.n, dom.members, relation)
        if key not in reports:
            reports[key] = enumerate_maximal(dom, relation)
        return reports[key]

    return get


class TestBaseRelations:
    def test_global_empty_set_convention(self):
        assert base_relation("global", 0, M([1]), 3) is True
        assert base_relation("global", M([1]), 0, 3) is False

    def test_split_examples(self):
        assert base_relation("split", M([2]), M([1, 3]), 3) is True
        assert base_relation("split", M([1, 3]), M([2, 4]), 4) is False
        assert base_relation("split", M([2, 4]), M([1, 3]), 4) is False

    def test_split_brute_force_oracle(self):
        for a, b in permutations(range(16), 2):
            assert base_relation("split", a, b, 4) == oracles.splits_around(a, b)

    def test_cancel_and_termwise(self):
        assert base_relation("cancel", M([1, 2]), M([2, 3]), 3) is True
        assert base_relation("termwise", M([1, 2]), M([2, 3]), 3) is True
        # A = {1, 2} has more elements than B = {3}, though 1 <= 3
        assert base_relation("termwise", M([1, 2]), M([3]), 3) is False
        # equal terms do not break the order
        assert base_relation("termwise", M([1]), M([1, 2]), 2) is True

    def test_equal_sets_rejected_outside_global(self):
        for kind in ("termwise", "cancel", "split"):
            with pytest.raises(ValueError):
                base_relation(kind, M([1]), M([1]), 3)
        assert base_relation("global", M([1]), M([1]), 3) is False

    def test_out_of_range_elements(self):
        with pytest.raises(ValueError):
            base_relation("global", M([5]), 0, 3)

    def test_unknown_kind(self):
        with pytest.raises(ValueError) as info:
            base_relation("medium", M([1]), M([2]), 3)
        assert str(info.value) == "unknown relation kind 'medium'"

    def test_ground_size_checked(self):
        for n in (0, 17, 2.0):
            with pytest.raises(ValueError) as info:
                bs.check_ground(n)
            assert str(info.value) == f"ground size must be an integer in 1..16, got {n!r}"


class TestSeparation:
    def test_strong_examples(self):
        assert strongly_separated(M([1]), M([2, 3]))
        assert strongly_separated(M([1, 3]), M([1, 3]))
        assert not strongly_separated(M([1, 4]), M([2, 3]))

    def test_weak_examples(self):
        assert weakly_separated(M([1, 4]), M([2, 3]))
        assert not weakly_separated(M([2]), M([1, 3]))
        assert not weakly_separated(M([1, 3]), M([2, 4]))

    def test_predicates_match_their_definitions(self):
        # every ordered pair of subsets of {1..6}, equal pairs included
        for a, b in product(range(64), repeat=2):
            got = (weakly_separated(a, b), strongly_separated(a, b), separation.splits_around(a, b))
            want = (oracles.weakly_separated(a, b), oracles.strongly_separated(a, b), oracles.splits_around(a, b))
            assert got == want, (a, b)

    @given(st.integers(0, 63), st.integers(0, 63))
    def test_symmetry(self, a, b):
        assert weakly_separated(a, b) == weakly_separated(b, a)
        assert strongly_separated(a, b) == strongly_separated(b, a)

    @given(st.integers(0, 63), st.integers(0, 63))
    def test_strong_implies_weak(self, a, b):
        if strongly_separated(a, b):
            assert weakly_separated(a, b)

    @settings(max_examples=300)
    @given(st.integers(0, 63), st.integers(0, 63))
    def test_complement_duality_with_reversal(self, a, b):
        n = 6
        ra = bs.reverse_mask(bs.full_mask(n) ^ a, n)
        rb = bs.reverse_mask(bs.full_mask(n) ^ b, n)
        assert weakly_separated(a, b) == weakly_separated(ra, rb)

    def test_family_checks(self):
        intervals = interval_collection(3)
        assert len(intervals) == 7
        for family, separated in (
            (intervals, True),
            (SetFamily(3, [M([2]), M([1, 3])]), False),
            (SetFamily(3, [M([2])]), True),
        ):
            fam = members_mask(family.members)
            assert (compatible_row(family.members, 3, "weak") & fam == fam) == separated
        # no member rules nothing out
        assert compatible_row([], 3, "weak") == 0xFF

    def test_family_names_its_first_member_out_of_range(self):
        with pytest.raises(ValueError, match=r"^mask 0x8 has elements outside 1\.\.3$"):
            SetFamily(3, [M([1, 4, 5]), M([1]), M([4])])
        with pytest.raises(ValueError, match=r"^mask -0x1 has elements outside 1\.\.3$"):
            SetFamily(3, [M([2]), M([5]), -1])
        with pytest.raises(ValueError, match=r"^mask -0x1 has elements outside 1\.\.3$"):
            SetFamily(3, [-1, 2])

    def test_family_membership(self):
        fam = interval_collection(3)
        assert M([2, 3]) in fam and 0 in fam
        assert M([1, 3]) not in fam
        assert -1 not in fam and M([4]) not in fam and 1 << 20 not in fam

    def test_family_contract(self):
        with pytest.raises(ValueError, match=r"^SetFamily members must be duplicate-free$"):
            SetFamily(3, [3, 1, 3])
        assert SetFamily(3, (m for m in (5, 0, 2))).members == (0, 2, 5)
        empty = SetFamily(3, [])
        assert empty.members == () and len(empty) == 0 and 0 not in empty and empty.as_set() == frozenset()
        top = SetFamily(3, [bs.full_mask(3), 0])
        assert top.members == (0, 7) and 7 in top and 8 not in top
        with pytest.raises(ValueError, match=r"^mask 0x8 has elements outside 1\.\.3$"):
            SetFamily(3, [bs.full_mask(3) + 1, 0])
        with pytest.raises(ValueError, match=r"^ground size must be an integer in 1\.\.16, got 0$"):
            SetFamily(0, [])
        with pytest.raises(dataclasses.FrozenInstanceError):
            top.members = ()
        assert not hasattr(top, "__dict__")

    def test_bit_decode_matches_a_scan_of_every_position(self):
        rng = random.Random(16)
        for n in range(1, 17):
            width = 1 << n
            for mask in (0, (1 << width) - 1, 1 << (width - 1), rng.getrandbits(width)):
                assert separation._bits(mask) == [b for b in range(width) if mask >> b & 1], (n, hex(mask))


class TestSeparationRows:
    def test_rows_match_scalar_predicates(self):
        for n in range(1, 8):
            for relation, rel in oracles.SEPARATED.items():
                for a in range(1 << n):
                    row = separation_row(a, n, relation)
                    assert row >> (1 << n) == 0
                    for b in range(1 << n):
                        assert (row >> b & 1) == rel(a, b)

    @pytest.mark.parametrize("n", [10, 12, 16])
    def test_seeded_rows_match_scalar_predicates(self, n):
        rng = random.Random(n)
        for a in [0, bs.full_mask(n)] + [rng.randrange(1 << n) for _ in range(2)]:
            # `test_predicates_match_their_definitions` holds these scalars
            for relation, rel in (("weak", weakly_separated), ("strong", strongly_separated)):
                want = sum(1 << b for b in range(1 << n) if rel(a, b))
                assert separation_row(a, n, relation) == want, (a, relation)

    def test_cold_maximality_check_calls_no_scalar_predicate(self, monkeypatch):
        calls = []

        def counted(fn):
            def call(*args):
                calls.append(fn.__name__)
                return fn(*args)
            return call

        for name, fn in list(separation._RELATION_FUNC.items()):
            monkeypatch.setitem(separation._RELATION_FUNC, name, counted(fn))
            monkeypatch.setattr(separation, fn.__name__, counted(fn))
        separation._rows.cache_clear()
        assert is_maximal_separated(interval_collection(16), "weak")
        # a fresh memo keeps each row it builds: 137 builds, one per member
        assert len(separation._rows(16, "weak")) == 137
        assert calls == []

    def test_row_memo_drops_its_earliest_row_past_the_bound(self, monkeypatch):
        # the memo of one (n, relation) keeps at most ROW_CACHE_SIZE rows,
        # dropping the one kept earliest; a dropped row is built again, the
        # same, and a mask out of range raises each time and is never kept
        monkeypatch.setattr(separation, "ROW_CACHE_SIZE", 3)
        memo = separation._rows(3, "weak")
        memo.clear()
        masks = [0, M([1]), M([2]), M([1, 2])]
        rows = [memo[a] for a in masks]
        assert list(memo) == masks[1:]
        assert memo[masks[0]] == rows[0] and list(memo) == masks[2:] + masks[:1]
        for _ in range(2):
            with pytest.raises(ValueError, match="^mask 0x8 has elements outside 1..3$"):
                memo[M([4])]
        assert list(memo) == masks[2:] + masks[:1]
        weak = oracles.SEPARATED["weak"]
        assert rows == [sum(1 << b for b in range(8) if weak(a, b)) for a in masks]
        memo.clear()

    def test_row_rejects_bad_input(self):
        with pytest.raises(ValueError):
            separation_row(M([4]), 3, "weak")
        with pytest.raises(ValueError):
            separation_row(0, 3, "medium")
        with pytest.raises(ValueError):
            compatible_row(interval_collection(3).members, 3, "medium")

    def test_maximality_matches_scalar_reference(self):
        n = 4
        cases = []
        for relation in oracles.SEPARATED:
            for fam in enumerate_maximal(hypercube_domain(n), relation).maximal_collections:
                cases.append((fam, relation))
                cases += [(SetFamily(n, set(fam.members) - {m}), relation) for m in fam.members]
            for images in permutations(range(1, n + 1)):
                dom = chamber_domain(Permutation(images))
                for fam in enumerate_maximal(dom, relation).maximal_collections:
                    cases.append((fam, relation))
                    cases += [(SetFamily(n, set(fam.members) - {m}), relation) for m in fam.members[:2]]
                # and one set outside the domain added to a maximal collection,
                # which leaves some of these families not separated
                fam = enumerate_maximal(dom, relation).maximal_collections[0]
                outside = set(range(1 << n)) - set(dom.members)
                cases += [(SetFamily(n, set(fam.members) | {x}), relation) for x in sorted(outside)]
        verdicts = set()
        for fam, relation in cases:
            want = oracles.maximal_reference(set(fam.members), n, relation)
            assert is_maximal_separated(fam, relation) == want, (fam, relation)
            verdicts.add(want)
        assert verdicts == {True, False}

    def test_max_n_must_be_an_integer(self, monkeypatch):
        monkeypatch.setenv("ZONOTILE_MAX_N", "abc")
        with pytest.raises(ValueError, match="ZONOTILE_MAX_N"):
            enumerate_maximal(hypercube_domain(3), "weak")
        monkeypatch.setenv("ZONOTILE_MAX_N", "3")
        assert enumerate_maximal(hypercube_domain(3), "weak").ranks == (7,)

    def test_max_n_is_clamped_to_1_through_16(self, monkeypatch):
        for raw, want in [("-3", 1), ("0", 1), ("1", 1), ("9", 9), ("16", 16), ("17", 16)]:
            monkeypatch.setenv("ZONOTILE_MAX_N", raw)
            assert separation._max_enum_n() == want
        monkeypatch.setenv("ZONOTILE_MAX_N", "0")
        with pytest.raises(ResourceGuardError) as info:
            purity_verdict(hypercube_domain(2), "weak")
        assert str(info.value) == "domain has 4 members, enumeration guard is 2"


class TestEnumeration:
    def test_hypercube_n3(self):
        report = enumerate_maximal(hypercube_domain(3), "weak")
        assert len(report.maximal_collections) == 2
        assert report.ranks == (7,)
        assert report.pure

    def test_hypercube_n4(self):
        report = enumerate_maximal(hypercube_domain(4), "weak")
        assert report.pure and report.ranks == (11,)

    def test_output_budget_is_exact(self, monkeypatch):
        # the weak 4-cube has 10 maximal collections: a budget of 10 holds
        # them, one of 9 stops the search at the tenth; a verdict holds none
        cube = hypercube_domain(4)
        monkeypatch.setattr(separation, "OUTPUT_BUDGET", 10)
        assert len(enumerate_maximal(cube, "weak").maximal_collections) == 10
        monkeypatch.setattr(separation, "OUTPUT_BUDGET", 9)
        with pytest.raises(ResourceGuardError) as info:
            enumerate_maximal(cube, "weak")
        assert str(info.value) == "domain has more than 9 maximal collections, the output budget"
        assert purity_verdict(cube, "weak").count == 10

    def test_strong_counts_match_a006245(self):
        # OEIS A006245 counts the rhombus tilings of the 2n-gon; the
        # collections come straight from the clique search, with no tiling
        # bijection in between.
        for n, want in ((3, 2), (4, 8), (5, 62), (6, 908)):
            report = enumerate_maximal(hypercube_domain(n), "strong")
            assert len(report.maximal_collections) == want
            assert report.pure and report.ranks == (n * (n + 1) // 2 + 1,)

    @pytest.mark.parametrize(
        "n, k, want",
        # k = 2: Catalan(n - 2), the triangulations of an n-gon; (6, 3) and
        # (7, 3) from Scott 2006. Oh-Postnikov-Speyer 2015: every maximal
        # weakly separated collection of k-subsets has k(n - k) + 1 members.
        [(4, 2, 2), (5, 2, 5), (6, 2, 14), (7, 2, 42), (8, 2, 132), (6, 3, 34), (7, 3, 259)],
    )
    def test_hypersimplex_counts_match_known_values(self, n, k, want):
        report = enumerate_maximal(hypersimplex_domain(n, k, k), "weak")
        assert len(report.maximal_collections) == want
        assert report.pure and report.ranks == (k * (n - k) + 1,)

    def test_matches_pairwise_reference(self, small_domains, enumerated):
        doms = [*small_domains["hypersimplex"], *small_domains["chamber"], *small_domains["chamber_pair"]]
        for pat in small_domains["pattern"]:
            doms += [*domains(pat), *strong_domains(pat)]
        rng = random.Random(16)
        doms.append(SetFamily(16, rng.sample(range(1 << 16), 12)))
        doms = {(d.n, d.members): d for d in doms}.values()
        for dom in doms:
            for relation in oracles.SEPARATED:
                want = oracles.clique_collections(dom, relation)
                ranks = tuple(sorted({len(c) for c in want}))
                report = DomainReport(dom, relation, tuple(SetFamily(dom.n, c) for c in want), len(ranks) == 1, ranks)
                assert enumerated(dom, relation) == report, (dom, relation)

    def test_maximal_cliques_match_the_oracle_search(self):
        # the empty graph, three vertices and no edge, and seeded graphs
        rng = random.Random(42)
        graphs = [[], [0, 0, 0]]
        for k in (5, 8, 12):
            edges = [e for e in combinations(range(k), 2) if rng.random() < 0.5]
            graphs.append([sum(1 << u for e in edges if v in e for u in e if u != v) for v in range(k)])
        for adj in graphs:
            k = len(adj)
            want = oracles.maximal_cliques_of({v: {u for u in range(k) if adj[v] >> u & 1} for v in range(k)})
            got = [tuple(u for u in range(k) if c >> u & 1) for c in maximal_cliques(adj, (1 << k) - 1)]
            assert sorted(got) == want, adj

    def test_collections_keep_the_family_contract(self, rank_domains, enumerated):
        # each collection is built unchecked from its clique, so it must be
        # what the checked constructor would build from its members
        rng = random.Random(39)
        subdomains = [SetFamily(n, rng.sample(range(1 << n), k))
                      for n in (3, 4, 5, 8) for k in (3, n + 3, 2 * n + 2)]
        assert any(not enumerated(dom, relation).pure for dom in subdomains for relation in oracles.SEPARATED)
        doms = [hypercube_domain(n) for n in range(1, 7)]
        doms += [dom for kind in rank_domains.values() for dom in kind]
        for dom in doms + subdomains:
            within = dom.as_set()
            for relation in oracles.SEPARATED:
                report = enumerated(dom, relation)
                keys = [fam.members for fam in report.maximal_collections]
                assert keys == sorted(keys), (dom, relation)
                for fam in report.maximal_collections:
                    mem = fam.members
                    # strictly ascending: sorted and free of repeats
                    assert fam.n == dom.n and list(mem) == sorted(set(mem)), (dom, relation, mem)
                    assert within.issuperset(mem), (dom, relation, mem)
                    checked = SetFamily(dom.n, mem)
                    assert checked == fam and hash(checked) == hash(fam), (dom, relation, mem)
                assert report.ranks == tuple(sorted({len(fam) for fam in report.maximal_collections}))
                assert report.pure == (len(report.ranks) == 1)

    def test_rank_only_matches_enumeration(self, small_domains, enumerated):
        counts = {kind: len(doms) for kind, doms in small_domains.items()}
        assert counts == {"hypersimplex": 83, "chamber": 24, "chamber_pair": 151, "pattern": 228}
        empty, impure = SetFamily(4, []), SetFamily(4, [M([2]), M([3]), M([1, 4])])
        doms = [*small_domains["hypersimplex"], *small_domains["chamber"],
                *small_domains["chamber_pair"], empty, impure]
        for pat in small_domains["pattern"]:
            doms += domains(pat)
        for dom in doms:
            for relation in oracles.SEPARATED:
                report = enumerated(dom, relation)
                verdict = purity_verdict(dom, relation)
                got = (verdict.count, verdict.ranks, verdict.pure)
                assert got == (len(report.maximal_collections), report.ranks, report.pure), (dom, relation)
        assert purity_verdict(empty, "weak") == PurityVerdict(count=1, ranks=(0,))
        assert purity_verdict(impure, "weak").ranks == (1, 2)
        assert not purity_verdict(impure, "strong").pure

    def test_clique_search_matches_every_subset(self):
        rng = random.Random(41)
        subdomains = [SetFamily(n, rng.sample(range(1 << n), rng.randint(6, 12)))
                      for n in (4, 5) for _ in range(8)]
        intervals = interval_collection(4)  # pairwise strongly separated
        # {1,3} is separated from neither {2} nor {2,4}, and {3} not from {2,4}
        no_universal = SetFamily(4, [M([1, 3]), M([2]), M([2, 4]), M([3])])
        for relation, rel in oracles.SEPARATED.items():
            assert all(rel(a, b) for a, b in combinations(intervals.members, 2))
            assert not any(all(rel(a, b) for b in no_universal.members if b != a)
                           for a in no_universal.members)
        verdicts = []
        for dom in [*subdomains, intervals, no_universal, SetFamily(3, [])]:
            assert len(dom) <= 12
            for relation in oracles.SEPARATED:
                want = oracles.brute_force_maximal(dom, relation)
                got = enumerate_maximal(dom, relation).maximal_collections
                assert [fam.members for fam in got] == want, (dom, relation)
                verdict = purity_verdict(dom, relation)
                assert verdict == PurityVerdict(len(want), tuple(sorted({len(c) for c in want}))), (dom, relation)
                verdicts.append(verdict)
        assert any(not verdict.pure for verdict in verdicts)
        assert verdicts[-2:] == [PurityVerdict(1, (0,))] * 2
        assert purity_verdict(intervals, "weak") == PurityVerdict(1, (11,))

    def test_unknown_relation(self):
        for dom in (hypercube_domain(3), SetFamily(3, [])):
            with pytest.raises(ValueError, match="relation must be"):
                enumerate_maximal(dom, "medium")
            with pytest.raises(ValueError, match="relation must be"):
                purity_verdict(dom, "medium")

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "n, relation, count, rank",
        # strong: A006245, the rhombus tilings of the 16-gon
        [(7, "weak", 259480, 29), (8, "strong", 1232944, 37)],
    )
    def test_rank_only_counts_past_n6(self, n, relation, count, rank):
        assert purity_verdict(hypercube_domain(n), relation) == PurityVerdict(count, (rank,))

    def test_singleton_domain(self):
        report = enumerate_maximal(SetFamily(3, [0]), "weak")
        assert len(report.maximal_collections) == 1
        assert report.ranks == (1,)

    def test_collections_verified_maximal(self):
        report = enumerate_maximal(hypercube_domain(4), "weak")
        for fam in report.maximal_collections:
            assert is_maximal_separated(fam, "weak")

    def test_complementary_pair_lemma(self):
        # cross-separated split of a pure domain leaves both parts pure
        domain = hypercube_domain(4)
        report = enumerate_maximal(domain, "weak")
        assert report.pure
        left = SetFamily(4, [x for x in domain.members if weakly_separated(x, M([1, 4]))])
        rep_left = enumerate_maximal(left, "weak")
        assert rep_left.pure


class TestDomains:
    def test_chamber_identity(self):
        dom = chamber_domain(Permutation.identity(3))
        assert set(dom.members) == {0, M([1]), M([1, 2]), M([1, 2, 3])}

    def test_chamber_longest_is_hypercube(self):
        dom = chamber_domain(Permutation.longest(3))
        assert len(dom) == 8

    def test_inversions(self):
        assert inversions(Permutation.identity(4)) == frozenset()
        assert inversions(Permutation((3, 2, 4, 1))) == frozenset(
            {(1, 2), (1, 4), (2, 4), (3, 4)}
        )
        assert len(inversions(Permutation.longest(5))) == 10

    def test_chamber_pair_requires_inversion_containment(self):
        with pytest.raises(ValueError):
            chamber_pair_domain(Permutation((2, 1, 3)), Permutation((1, 3, 2)))

    def test_chamber_pair_is_its_definition_on_every_pair_of_s4(self):
        # X holds i when it holds j, for i < j with upper(i) < upper(j), and
        # holds j when it holds i, for each inversion (i, j) of lower
        perms = [Permutation(images) for images in permutations(range(1, 5))]
        raised = 0
        for lower in perms:
            inv = inversions(lower)
            for upper in perms:
                if not inv <= inversions(upper):
                    with pytest.raises(ValueError) as info:
                        chamber_pair_domain(lower, upper)
                    assert str(info.value) == "Inv(lower) must be a subset of Inv(upper)"
                    raised += 1
                    continue
                rules = [(j, i) for i, j in combinations(range(1, 5), 2) if upper(i) < upper(j)]
                rules += inv
                want = [x for x in range(16) if all(x >> (b - 1) & 1 for a, b in rules if x >> (a - 1) & 1)]
                assert chamber_pair_domain(lower, upper).members == tuple(want), (lower, upper)
        assert raised == 24 * 24 - 151

    def test_chamber_pair_requires_one_ground_set(self):
        with pytest.raises(ValueError) as info:
            chamber_pair_domain(Permutation((2, 1)), Permutation((2, 1, 3)))
        assert str(info.value) == "permutations must act on the same ground set"

    def test_permutation_checks_its_images(self):
        for images in ((1, 1), (2, 3), (0, 1, 2)):
            with pytest.raises(ValueError) as info:
                Permutation(images)
            assert str(info.value) == f"{images!r} is not a permutation of 1..{len(images)}"

    def test_hypersimplex(self):
        dom = hypersimplex_domain(4, 2, 2)
        assert len(dom) == 6
        for low, high in ((3, 2), (-1, 2), (2, 5)):
            with pytest.raises(ValueError):
                hypersimplex_domain(4, low, high)

    def test_chamber_rank_formula_n3(self):
        for images in ((1, 2, 3), (2, 1, 3), (3, 2, 1), (1, 3, 2), (2, 3, 1), (3, 1, 2)):
            w = Permutation(images)
            report = enumerate_maximal(chamber_domain(w), "weak")
            assert report.pure
            assert report.ranks == (len(inversions(w)) + 3 + 1,)
