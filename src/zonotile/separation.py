"""Separation relations on subsets of {1..n} and brute-force purity reports.

Subsets are bitmasks (see :mod:`zonotile.bitsets`).  The four base relations
on distinct sets A, B:

  termwise  A precedes B elementwise (|A| <= |B|, sorted terms dominate),
  global    max(A) < min(B), with min/max of the empty set taken as 0,
  cancel    (A - B) globally below (B - A),
  split     A - B nonempty and B - A covered by a low part below min(A - B)
            and a high part above max(A - B), both nonempty.

Strong separation is `cancel` in one of the two directions (or equality);
weak separation additionally admits the split relation from the larger set.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache

from ._value import Value, _set
from .bitsets import (
    MAX_GROUND,
    check_ground,
    check_subset,
    elements_of,
    full_mask,
    max_element,
    min_element,
    size,
)

RELATION_KINDS = ("termwise", "global", "cancel", "split")


class ResourceGuardError(RuntimeError):
    """Raised when an enumeration would exceed the configured desk-scale bounds."""


def _max_enum_n() -> int:
    raw = os.environ.get("ZONOTILE_MAX_N")
    if raw is None:
        return 8
    try:
        return max(1, min(16, int(raw)))
    except ValueError:
        raise ValueError(f"ZONOTILE_MAX_N must be an integer, got {raw!r}") from None


def termwise_below(a: int, b: int) -> bool:
    ea, eb = elements_of(a), elements_of(b)
    return len(ea) <= len(eb) and all(x <= y for x, y in zip(ea, eb))


def globally_below(a: int, b: int) -> bool:
    return max_element(a) < min_element(b)


def cancel_below(a: int, b: int) -> bool:
    return globally_below(a & ~b, b & ~a)


def splits_around(a: int, b: int) -> bool:
    """A splits B: B - A falls apart around A - B (both flanks nonempty)."""
    diff = a & ~b
    if diff == 0:
        return False
    rest = b & ~a
    low = rest & ((1 << (min_element(diff) - 1)) - 1)
    high = rest & ~((1 << max_element(diff)) - 1)
    return low != 0 and high != 0 and (low | high) == rest


def base_relation(kind: str, a: int, b: int, n: int) -> bool:
    check_ground(n)
    check_subset(a, n)
    check_subset(b, n)
    if kind not in RELATION_KINDS:
        raise ValueError(f"unknown relation kind {kind!r}")
    if kind != "global" and a == b:
        raise ValueError(f"relation {kind!r} is defined for distinct sets only")
    if kind == "termwise":
        return termwise_below(a, b)
    if kind == "global":
        return globally_below(a, b)
    if kind == "cancel":
        return cancel_below(a, b)
    return splits_around(a, b)


def strongly_separated(a: int, b: int) -> bool:
    return a == b or cancel_below(a, b) or cancel_below(b, a)


def weakly_separated(a: int, b: int) -> bool:
    if strongly_separated(a, b):
        return True
    if size(a) >= size(b) and splits_around(a, b):
        return True
    return size(b) >= size(a) and splits_around(b, a)


_RELATION_FUNC = {"weak": weakly_separated, "strong": strongly_separated}


def _check_relation(relation: str) -> str:
    if relation not in _RELATION_FUNC:
        raise ValueError(f"relation must be 'weak' or 'strong', got {relation!r}")
    return relation


class SetFamily(Value):
    """A duplicate-free collection of subsets of {1..n}, stored sorted."""

    __slots__ = ("n", "members")

    n: int
    members: tuple[int, ...]

    def __init__(self, n: int, members) -> None:
        check_ground(n)
        mem = tuple(sorted(members))
        # sorted, so the extremes decide the range; the scan only names the
        # first member out of range
        if mem and (mem[0] < 0 or mem[-1] > full_mask(n)):
            for m in mem:
                check_subset(m, n)
        if len(set(mem)) != len(mem):
            raise ValueError("SetFamily members must be duplicate-free")
        self._fill(n, mem)

    @classmethod
    def _trusted(cls, n: int, members: tuple[int, ...]) -> SetFamily:
        """A family on `members` as given, checked by no one here: only for
        a tuple already sorted, free of repeats and in range for n, as a
        `Combi`'s vertex tuple is (`Combi` range-checks it), as a sorted
        maximal clique of `enumerate_maximal` is (its vertices are distinct
        members of a checked domain), and as `patterns.domains`'s sets are
        (one row's bits, ascending, and two subsequences of them)."""
        family = object.__new__(cls)
        _set(family, "n", n)
        _set(family, "members", members)
        return family

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, mask: int) -> bool:
        k = bisect_left(self.members, mask)
        return k < len(self.members) and self.members[k] == mask

    def as_set(self) -> frozenset[int]:
        return frozenset(self.members)


# The most collections `enumerate_maximal` holds: the weak 7-cube's 259,480
# with margin, about 0.4 GB at the 390 B a collection measured there.  Also
# the most legal paths `contraction` lists, about 0.3 GB of them at n = 14.
OUTPUT_BUDGET = 1_000_000

# The most rows the row memo of one (n, relation) holds: 32 MB of them at n=16, where a
# row is 8 KB.  All 32 memos full, those of each n <= 12 with its 2^n rows, hold 125 MB.
ROW_CACHE_SIZE = 4096


@lru_cache(maxsize=MAX_GROUND)
def _row_masks(n: int) -> tuple[int, tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Masks over all 2^n subsets b, built once per n: all of them; for each
    position i, those holding i; for each k, those of size at most k and of
    size at least k."""
    full = (1 << (1 << n)) - 1
    positions = []
    layers = [1]  # layers[k]: the subsets of size k, over the positions so far
    for i in range(n):
        width = 1 << i
        block = ((1 << width) - 1) << width
        positions.append(block * (full // ((1 << (2 * width)) - 1)))
        layers = [x | y << width for x, y in zip(layers + [0], [0] + layers)]
    at_most, at_least, below = [], [], 0
    for layer in layers:
        at_least.append(full ^ below)
        below |= layer
        at_most.append(below)
    return full, tuple(positions), tuple(at_most), tuple(at_least)


def separation_row(a: int, n: int, relation: str) -> int:
    """Bitmask over all 2^n subsets: bit b is set iff `a` and `b` are separated.

    Read from the row memo of (n, relation).  Both relations are reflexive and symmetric, so
    bit `a` is always set and bit b of row a equals bit a of row b.
    """
    check_ground(n)
    check_subset(a, n)
    return _rows(n, relation)[a]


@lru_cache(maxsize=2 * MAX_GROUND)
def _rows(n: int, relation: str) -> _Rows:
    """The row memo of (n, relation), made on first use."""
    memo = _Rows()
    memo.n, memo.weak = check_ground(n), _check_relation(relation) == "weak"
    return memo


class _Rows(dict):
    """memo[a]: row a for the memo's n and relation, kept by `a`, the earliest dropped past
    ROW_CACHE_SIZE; raises ValueError and keeps nothing unless `a` is a subset of {1..n}.

    Built bit-parallel (Baeza-Yates & Gonnet 1992): reading positions 1..n,
    each b steps through an automaton on its differences with `a`, an
    element of a - b (A) or of b - a (B), and each automaton state is held
    as the set of all b in it.  Strong separation is the sequences A*B* and
    B*A*; weak separation adds B+A+B+ when |b| <= |a| and A+B+A+ when
    |b| >= |a|, the split relation from the larger set.  O(n) operations on
    2^n-bit integers: about 0.06 ms a row at n=16.
    """

    __slots__ = ("n", "weak")

    def __missing__(self, a: int) -> int:
        check_subset(a, self.n)
        full, positions, at_most, at_least = _row_masks(self.n)
        start, a_only, b_only, ab, ba, aba, bab = full, 0, 0, 0, 0, 0, 0
        for i, has in enumerate(positions):
            if a >> i & 1:  # step A for the b lacking i; the rest stay
                step, keep = full ^ has, has
                aba |= ab & step
                ab &= keep
                ba |= b_only & step
                b_only &= keep
                a_only |= start & step
                start &= keep
                bab &= keep
            else:  # step B for the b holding i
                step, keep = has, full ^ has
                bab |= ba & step
                ba &= keep
                ab |= a_only & step
                a_only &= keep
                b_only |= start & step
                start &= keep
                aba &= keep
        row = start | a_only | b_only | ab | ba
        if self.weak:
            k = size(a)
            row |= bab & at_most[k] | aba & at_least[k]
        if len(self) >= ROW_CACHE_SIZE:
            del self[next(iter(self))]
        self[a] = row
        return row


def members_mask(members) -> int:
    """The members as one bitmask over all subsets: bit m for member m."""
    out = 0
    for m in members:
        out |= 1 << m
    return out


def compatible_row(members, n: int, relation: str) -> int:
    """The AND of the members' rows: every subset separated from all of them."""
    _check_relation(relation)
    rows = _rows(n, relation)
    common = (1 << (1 << n)) - 1
    for m in members:
        common &= rows[m]
    return common


def _bits(mask: int) -> list[int]:
    """The positions of the set bits, ascending."""
    return [b for b, c in enumerate(bin(mask)[:1:-1]) if c == "1"]


def compatible_sets(members, n: int, relation: str) -> list[int]:
    """All subsets of {1..n} separated from every member, ascending."""
    return _bits(compatible_row(members, n, relation))


def is_maximal_separated(family: SetFamily, relation: str) -> bool:
    """Separated and not extendable by any subset of {1..n}: the sets
    separated from every member are the members themselves."""
    return compatible_row(family.members, family.n, relation) == members_mask(family.members)


@dataclass(frozen=True)
class DomainReport:
    domain: SetFamily
    relation: str
    maximal_collections: tuple[SetFamily, ...]
    pure: bool
    ranks: tuple[int, ...]


class PurityVerdict(Value):
    """How many maximal separated collections a domain has, and their sizes."""

    count: int
    ranks: tuple[int, ...]

    @property
    def pure(self) -> bool:
        return len(self.ranks) == 1


def _bron_kerbosch_pivot(adj, path: list[int], p: int, x: int, emit) -> None:
    """Tomita-Tanaka-Takahashi pivoting: hands every maximal clique extending
    the vertices on `path` to `emit`, one call each, as that list itself;
    `emit` reads it before the search goes on."""
    if p == 0:  # no candidate: the path is maximal unless an excluded vertex extends it
        if x == 0:
            emit(path)
        return
    pool = p | x
    pivot, best = -1, -1
    m = pool
    while m:
        low = m & -m
        v = low.bit_length() - 1
        deg = (p & adj[v]).bit_count()
        if deg > best:
            pivot, best = v, deg
        m ^= low
    cand = p & ~adj[pivot]
    while cand:
        low = cand & -cand
        v = low.bit_length() - 1
        path.append(v)
        _bron_kerbosch_pivot(adj, path, p & adj[v], x & adj[v], emit)
        path.pop()
        p &= ~low
        x |= low
        cand ^= low


def maximal_cliques(adjacency, vertices: int) -> list[int]:
    """All maximal cliques among the `vertices` (a bitmask) of a graph given
    as neighbour bitmasks, `adjacency[v]` for each vertex v."""
    out: list[int] = []
    _bron_kerbosch_pivot(adjacency, [], vertices, 0, lambda path: out.append(members_mask(path)))
    return out


def _clique_search(domain: SetFamily, relation: str, emit) -> None:
    """`_bron_kerbosch_pivot` on the domain's compatibility graph: a vertex
    is a member's own mask, its neighbours its row cut to the domain, itself
    excluded.  Every maximal clique holds each universal member, one whose
    row covers the domain, so these go on the path before the search
    branches, where the pivot rule would spend a level on each."""
    guard = 1 << _max_enum_n()
    if len(domain) > guard:
        raise ResourceGuardError(
            f"domain has {len(domain)} members, enumeration guard is {guard}"
        )
    n = domain.n
    rows = _rows(n, relation)  # checks the relation
    dom = members_mask(domain.members)
    adj = {v: rows[v] & dom & ~(1 << v) for v in domain.members}
    universal = [v for v, row in adj.items() if row | 1 << v == dom]
    _bron_kerbosch_pivot(adj, universal, dom & ~members_mask(universal), 0, emit)


def enumerate_maximal(domain: SetFamily, relation: str) -> DomainReport:
    """Every inclusion-wise maximal separated collection inside the domain.

    Computed as the maximal cliques of the compatibility graph on the domain
    members by `_clique_search`, which is exhaustive by construction.  Each
    maximal clique is kept as its path's sorted member tuple as the search
    reaches it; the tuples are sorted, and each becomes its `SetFamily` with
    no check of its own: the path's vertices are distinct bits of the
    checked domain's member mask, since the universal ones leave the
    candidates and each step takes one candidate, which it drops (a row cut
    to the domain excludes its own vertex).  The ranks are the tuple
    lengths.  Past `OUTPUT_BUDGET` collections it raises `ResourceGuardError`.
    """
    n, cliques, budget, trusted = domain.n, [], OUTPUT_BUDGET, SetFamily._trusted
    add = cliques.append

    def emit(path: list[int]) -> None:
        if len(cliques) == budget:
            raise ResourceGuardError(
                f"domain has more than {budget} maximal collections, the output budget"
            )
        add(tuple(sorted(path)))

    _clique_search(domain, relation, emit)
    cliques.sort()
    ranks = tuple(sorted(set(map(len, cliques))))
    return DomainReport(
        domain=domain,
        relation=relation,
        maximal_collections=tuple([trusted(n, clique) for clique in cliques]),
        pure=len(ranks) == 1,
        ranks=ranks,
    )


def purity_verdict(domain: SetFamily, relation: str) -> PurityVerdict:
    """The count and the sizes of the maximal separated collections inside
    the domain, from the same clique search as `enumerate_maximal`, which
    takes the universal members before it branches.

    Each clique is tallied by its size as the search finds it and then
    dropped, so memory stays that of the rows and the recursion: the strong
    8-cube's 1,232,944 collections are counted without holding one.
    """
    tally = [0] * (len(domain) + 1)

    def emit(path: list[int]) -> None:
        tally[len(path)] += 1

    _clique_search(domain, relation, emit)
    return PurityVerdict(
        count=sum(tally),
        ranks=tuple(size for size, hits in enumerate(tally) if hits),
    )


class Permutation(Value):
    images: tuple[int, ...]

    def __init__(self, images) -> None:
        imgs = tuple(images)
        n = len(imgs)
        check_ground(n)
        if sorted(imgs) != list(range(1, n + 1)):
            raise ValueError(f"{imgs!r} is not a permutation of 1..{n}")
        self._fill(imgs)

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(range(1, n + 1))

    @staticmethod
    def longest(n: int) -> "Permutation":
        return Permutation(range(n, 0, -1))


def inversions(perm: Permutation) -> frozenset[tuple[int, int]]:
    n = perm.n
    return frozenset((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if perm(i) > perm(j))


def chamber_domain(perm: Permutation) -> SetFamily:
    """Sets X with: i < j, perm(i) < perm(j), j in X imply i in X."""
    return chamber_pair_domain(Permutation.identity(perm.n), perm)


def chamber_pair_domain(lower: Permutation, upper: Permutation) -> SetFamily:
    """Chamber sets of `upper` that also respect the inversions of `lower`
    (i in X implies j in X for each); requires Inv(lower) to be contained
    in Inv(upper).  One scan of all subsets, each rule a pair of bits."""
    if lower.n != upper.n:
        raise ValueError("permutations must act on the same ground set")
    n, inv = upper.n, inversions(lower)
    if not all(upper(i) > upper(j) for i, j in inv):
        raise ValueError("Inv(lower) must be a subset of Inv(upper)")
    rules = [(1 << j - 1, 1 << i - 1) for i in range(1, n + 1) for j in range(i + 1, n + 1) if upper(i) < upper(j)]
    rules += [(1 << i - 1, 1 << j - 1) for i, j in inv]
    return SetFamily(n, [x for x in range(1 << n) if all(x & then or not x & when for when, then in rules)])


def hypersimplex_domain(n: int, m_low: int, m_high: int) -> SetFamily:
    check_ground(n)
    if not 0 <= m_low <= m_high <= n:
        raise ValueError(f"need 0 <= m' <= m <= n, got {m_low}, {m_high}, {n}")
    members = [x for x in range(1 << n) if m_low <= x.bit_count() <= m_high]
    return SetFamily(n, members)


def hypercube_domain(n: int) -> SetFamily:
    check_ground(n)
    return SetFamily(n, range(1 << n))


def interval_collection(n: int) -> SetFamily:
    """All intervals [p..q] of {1..n} plus the empty set."""
    members = {0}
    for p in range(1, n + 1):
        for q in range(p, n + 1):
            members.add(((1 << q) - 1) ^ ((1 << (p - 1)) - 1))
    return SetFamily(n, members)


def cointerval_collection(n: int) -> SetFamily:
    full = full_mask(n)
    return SetFamily(n, {full ^ m for m in interval_collection(n).members})
