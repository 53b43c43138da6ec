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


@dataclass(frozen=True)
class SetFamily:
    """A duplicate-free collection of subsets of {1..n}, stored sorted."""

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
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "members", mem)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, mask: int) -> bool:
        k = bisect_left(self.members, mask)
        return k < len(self.members) and self.members[k] == mask

    def as_set(self) -> frozenset[int]:
        return frozenset(self.members)


# At n=16 a row is 8 KB, so a full cache holds at most 32 MB of rows.
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


@lru_cache(maxsize=ROW_CACHE_SIZE)
def separation_row(a: int, n: int, relation: str) -> int:
    """Bitmask over all 2^n subsets: bit b is set iff `a` and `b` are separated.

    Both relations are reflexive and symmetric, so bit `a` is always set and
    bit b of row a equals bit a of row b.

    Built bit-parallel (Baeza-Yates & Gonnet 1992): reading positions 1..n,
    each b steps through an automaton on its differences with `a`, an
    element of a - b (A) or of b - a (B), and each automaton state is held
    as the set of all b in it.  Strong separation is the sequences A*B* and
    B*A*; weak separation adds B+A+B+ when |b| <= |a| and A+B+A+ when
    |b| >= |a|, the split relation from the larger set.  O(n) operations on
    2^n-bit integers: about 0.06 ms a row at n=16.
    """
    check_ground(n)
    check_subset(a, n)
    _check_relation(relation)
    full, positions, at_most, at_least = _row_masks(n)
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
    if relation == "weak":
        k = size(a)
        row |= bab & at_most[k] | aba & at_least[k]
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
    common = (1 << (1 << n)) - 1
    for m in members:
        common &= separation_row(m, n, relation)
    return common


def _bits(mask: int) -> list[int]:
    """The positions of the set bits, ascending."""
    return [b for b, c in enumerate(bin(mask)[:1:-1]) if c == "1"]


def compatible_sets(members, n: int, relation: str) -> list[int]:
    """All subsets of {1..n} separated from every member, ascending."""
    return _bits(compatible_row(members, n, relation))


def is_separated_family(family: SetFamily, relation: str) -> bool:
    fam = members_mask(family.members)
    return compatible_row(family.members, family.n, relation) & fam == fam


def is_maximal_separated(family: SetFamily, relation: str, within: SetFamily | None = None) -> bool:
    """Separated and not extendable by any set of the ambient domain."""
    n = family.n if within is None else max(family.n, within.n)
    fam = members_mask(family.members)
    common = compatible_row(family.members, n, relation)
    if common & fam != fam:
        return False
    if within is None:
        return common == fam
    return common & members_mask(within.members) & ~fam == 0


@dataclass(frozen=True)
class DomainReport:
    domain: SetFamily
    relation: str
    maximal_collections: tuple[SetFamily, ...]
    pure: bool
    ranks: tuple[int, ...]


def _bron_kerbosch_pivot(adj, r: int, p: int, x: int, out: list[int]) -> None:
    if p == 0 and x == 0:
        out.append(r)
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
        _bron_kerbosch_pivot(adj, r | low, p & adj[v], x & adj[v], out)
        p &= ~low
        x |= low
        cand ^= low


def maximal_cliques(adjacency, vertices: int) -> list[int]:
    """All maximal cliques among the `vertices` (a bitmask) of a graph given
    as neighbour bitmasks, `adjacency[v]` for each vertex v."""
    out: list[int] = []
    _bron_kerbosch_pivot(adjacency, 0, vertices, 0, out)
    return out


def enumerate_maximal(domain: SetFamily, relation: str) -> DomainReport:
    """Every inclusion-wise maximal separated collection inside the domain.

    Computed as the maximal cliques of the compatibility graph on the domain
    members, which is exhaustive by construction.  A vertex is the member's
    own mask, and its neighbours are its separation row cut to the domain,
    so a clique's bits are its members.
    """
    guard = 1 << min(_max_enum_n(), 16)
    if len(domain) > guard:
        raise ResourceGuardError(
            f"domain has {len(domain)} members, enumeration guard is {guard}"
        )
    _check_relation(relation)
    n = domain.n
    dom = members_mask(domain.members)
    adj = {v: separation_row(v, n, relation) & dom & ~(1 << v) for v in domain.members}
    collections = [SetFamily(n, _bits(clique)) for clique in maximal_cliques(adj, dom)]
    collections.sort(key=lambda f: f.members)
    ranks = tuple(sorted({len(c) for c in collections}))
    return DomainReport(
        domain=domain,
        relation=relation,
        maximal_collections=tuple(collections),
        pure=len(ranks) == 1,
        ranks=ranks,
    )


@dataclass(frozen=True)
class Permutation:
    images: tuple[int, ...]

    def __init__(self, images) -> None:
        imgs = tuple(images)
        n = len(imgs)
        check_ground(n)
        if sorted(imgs) != list(range(1, n + 1)):
            raise ValueError(f"{imgs!r} is not a permutation of 1..{n}")
        object.__setattr__(self, "images", imgs)

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
    return frozenset(
        (i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if perm(i) > perm(j)
    )


def chamber_domain(perm: Permutation) -> SetFamily:
    """Sets X with: i < j, perm(i) < perm(j), j in X imply i in X."""
    n = perm.n
    pairs = [
        (i, j)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if perm(i) < perm(j)
    ]
    members = [
        x
        for x in range(1 << n)
        if all(not (x >> (j - 1) & 1) or (x >> (i - 1) & 1) for i, j in pairs)
    ]
    return SetFamily(n, members)


def chamber_pair_domain(lower: Permutation, upper: Permutation) -> SetFamily:
    """Chamber sets of `upper` that also respect the inversions of `lower`.

    Requires Inv(lower) to be contained in Inv(upper).
    """
    if lower.n != upper.n:
        raise ValueError("permutations must act on the same ground set")
    if not inversions(lower) <= inversions(upper):
        raise ValueError("Inv(lower) must be a subset of Inv(upper)")
    n = upper.n
    inv_pairs = [(i, j) for (i, j) in inversions(lower)]
    members = [
        x
        for x in chamber_domain(upper).members
        if all(not (x >> (i - 1) & 1) or (x >> (j - 1) & 1) for i, j in inv_pairs)
    ]
    return SetFamily(n, members)


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
