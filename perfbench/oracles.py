"""Independent oracles for the benchmark's output checks.

Nothing here imports zonotile.  Subsets arrive as the program's bitmasks
(bit e-1 stands for element e) and are turned into plain Python sets of
elements before any test, so the predicates share no code with the
program's bitmask relations.  They run only in the checks, outside every
timed section.
"""

from __future__ import annotations

from math import comb

# OEIS A006245: rhombus tilings of the 2n-gon, which are in bijection with
# the maximal strongly separated collections of the n-cube.
A006245 = {3: 2, 4: 8, 5: 62, 6: 908, 7: 24698}

# Maximal weakly separated collections of the 7-cube.  Recomputed by an
# independent route (the contraction bijection: legal paths summed over all
# 6-combis) by `python3 perfbench/recount_weak7.py`; used here only as a
# stored figure.
WEAK_7 = 259480


def elements(mask: int) -> set[int]:
    out, e = set(), 1
    while mask:
        if mask & 1:
            out.add(e)
        mask >>= 1
        e += 1
    return out


def rank(n: int) -> int:
    """Size of every maximal separated collection of the n-cube: C(n+1,2)+1."""
    return comb(n + 1, 2) + 1


def rhombus_count(n: int) -> int:
    """Tiles of any rhombus tiling of the 2n-gon: one per pair of directions."""
    return comb(n, 2)


def strongly_separated(a: int, b: int) -> bool:
    """A - B lies wholly before B - A, or wholly after it (empty sides allowed)."""
    x, y = elements(a) - elements(b), elements(b) - elements(a)
    return not x or not y or max(x) < min(y) or max(y) < min(x)


def _surrounds(outer: set[int], inner: set[int]) -> bool:
    lo, hi = min(inner), max(inner)
    return all(e < lo or e > hi for e in outer)


def weakly_separated(a: int, b: int) -> bool:
    """Strongly separated, or the difference of the larger (or equal) set is
    surrounded by the difference of the other: B - A has no element between
    min(A - B) and max(A - B) when |A| >= |B|, and symmetrically."""
    if strongly_separated(a, b):
        return True
    sa, sb = elements(a), elements(b)
    x, y = sa - sb, sb - sa
    # Not strongly separated, so both differences are nonempty and an outer
    # difference avoiding the inner span has elements on both of its sides.
    return (len(sa) >= len(sb) and _surrounds(y, x)) or (
        len(sb) >= len(sa) and _surrounds(x, y)
    )


RELATIONS = {"weak": weakly_separated, "strong": strongly_separated}


def maximal_in_cube(members, n: int, relation: str) -> str | None:
    """None if `members` is a maximal separated collection of the n-cube,
    otherwise the reason it is not."""
    rel = RELATIONS[relation]
    mem = sorted(set(members))
    if len(mem) != len(members):
        return "repeated member"
    for i, a in enumerate(mem):
        for b in mem[i + 1:]:
            if not rel(a, b):
                return f"members {sorted(elements(a))} and {sorted(elements(b))} are not separated"
    inside = set(mem)
    for cand in range(1 << n):
        if cand not in inside and all(rel(cand, m) for m in mem):
            return f"{sorted(elements(cand))} can be added"
    return None


def interval_collection(n: int) -> frozenset[int]:
    """The empty set and every interval {p..q} of {1..n}, as bitmasks."""
    out = {0}
    for p in range(1, n + 1):
        for q in range(p, n + 1):
            out.add(sum(1 << (e - 1) for e in range(p, q + 1)))
    return frozenset(out)


def cointerval_collection(n: int) -> frozenset[int]:
    full = (1 << n) - 1
    return frozenset(full ^ m for m in interval_collection(n))


def size_sum(members) -> int:
    return sum(len(elements(m)) for m in members)


def zonogon_boundary(n: int) -> frozenset[frozenset[int]]:
    """The 2n boundary edges of the zonogon: the chains of prefixes
    {1..k} and of suffixes {n-k+1..n}, as unordered vertex pairs."""
    prefix = [(1 << k) - 1 for k in range(n + 1)]
    suffix = [((1 << n) - 1) ^ ((1 << (n - k)) - 1) for k in range(n + 1)]
    return frozenset(
        frozenset(pair) for chain in (prefix, suffix) for pair in zip(chain, chain[1:])
    )


def tiled_zonogon(cycles, n: int) -> str | None:
    """None if the tiles, given as vertex cycles, form a disk bounded by the
    zonogon: every edge lies on one or two tiles, the edges on one tile are
    exactly the zonogon boundary, and V - E + F = 1.  Otherwise the reason."""
    verts, on_tiles = set(), {}
    for cyc in cycles:
        verts.update(cyc)
        for k in range(len(cyc)):
            edge = frozenset((cyc[k - 1], cyc[k]))
            on_tiles[edge] = on_tiles.get(edge, 0) + 1
    if any(c > 2 for c in on_tiles.values()):
        return "an edge lies on more than two tiles"
    if {e for e, c in on_tiles.items() if c == 1} != zonogon_boundary(n):
        return "the edges on a single tile are not the zonogon boundary"
    chi = len(verts) - len(on_tiles) + len(cycles)
    return None if chi == 1 else f"V - E + F = {chi}, not 1"
