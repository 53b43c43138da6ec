"""Contraction and expansion between combies on adjacent ground sizes.

A maximal weakly separated collection fixes its combi, which
`from_w_collection` rebuilds and certifies, so both maps, and the mirror,
are rules on vertex sets.  Contracting an n-combi with vertex set S gives
the combi of {X - n : X in S} and a legal path in it through the X without
n that have both X and X+n in S, and, for each lens whose last upper type
is n, through its zigzag upper[0], lower[-1] - n, upper[-2].  Expanding
along a legal path inverts that exactly: its ends and slopes X give X and
X+n, its peaks X and its pits X+n, and every other vertex X enters as
whichever of X and X+n is weakly separated from those.  This gives the bijection
(combi on n-1 ground, legal path)  <->  (combi on n ground).
"""

from __future__ import annotations

from . import bitsets as bs
from ._planar import TilingError
from .combi import Combi, from_w_collection
from .separation import SetFamily, compatible_row


def n_contract(combi: Combi) -> tuple[Combi, tuple[int, ...]]:
    """Contract away element n; returns the smaller combi and the legal path
    that reproduces the input under `n_expand`."""
    n = combi.n
    if n < 2:
        raise ValueError("contraction needs a ground set of size at least 2")
    sn = bs.singleton(n)
    verts = set(combi._vertices)
    smaller = from_w_collection(SetFamily(n - 1, {x & ~sn for x in verts}), check_input=False)
    on_path = {x for x in verts if not x & sn and x | sn in verts}
    for l in combi._lenses:
        if l.upper_types[-1] == n:
            on_path.update((l.upper[0], l.upper[-2], l.lower[-1] ^ sn))
    paths = _walks(smaller, on_path)
    if len(paths) != 1:
        raise TilingError("contract", f"{len(paths)} legal paths visit the strip's image, not 1")
    return smaller, paths[0]


def legal_path_report(combi: Combi, path: tuple[int, ...]) -> tuple[bool, str]:
    """Check (P1) endpoints and vertical steps, (P2) no two consecutive
    backward edges, (P3) zigzags bend to the right; name the first fault of
    (P1), else of (P2), else of (P3)."""
    n = combi.n
    edges = combi.vertical_edges()
    if len(path) < 2:
        return False, "P1: path too short"
    if path[0] != 0 or path[-1] != bs.full_mask(n):
        return False, "P1: path must run from the bottom to the top vertex"
    for a, b in zip(path, path[1:]):
        if (a, b) not in edges and (b, a) not in edges:
            return False, f"P1: {bs.format_subset(a)}->{bs.format_subset(b)} is not a vertical edge"
    turns = [_turn(a, b, c) for a, b, c in zip(path, path[1:], path[2:])]
    faults = [(why[:2], d, why) for d, why in enumerate(turns, 1) if why not in _ROLES]
    if faults:
        _, d, why = min(faults)
        return False, why.format(d)
    return True, ""


_ROLES = ("slope", "pit", "peak")


def _turn(a: int, b: int, c: int) -> str:
    """The role of b between the steps a->b and b->c along vertical edges,
    "slope", "pit" or "peak", or else the rule the turn breaks, with `{}`
    for its position.  A step's type is its one element, so two types
    compare as the one-bit masks the steps differ by: out of a pit a path
    turns right going up by a larger type, at a peak going down by a
    smaller one."""
    sa, sb, sc = a.bit_count(), b.bit_count(), c.bit_count()
    if sa < sb < sc:
        return "slope"
    if sa > sb > sc:
        return "P2: two consecutive backward edges at position {}"
    if a == c:
        return "P3: path doubles back at position {}"
    if sa > sb:
        return "pit" if a ^ b < c ^ b else "P3: pit at position {} bends left"
    return "peak" if a ^ b > c ^ b else "P3: peak at position {} bends left"


def path_vertex_roles(combi: Combi, path) -> list[str]:
    """Classify internal path vertices as slope, peak, or pit."""
    path = tuple(path)
    ok, why = legal_path_report(combi, path)
    if not ok:
        raise ValueError(why)
    return [_turn(a, b, c) for a, b, c in zip(path, path[1:], path[2:])]


def n_expand(combi: Combi, path) -> Combi:
    """Inverse of `n_contract`: insert element n along a legal path."""
    path = tuple(path)
    roles = path_vertex_roles(combi, path)
    n = combi.n + 1
    sn = bs.singleton(n)
    members = set()
    for x, role in zip(path, ["end", *roles, "end"]):
        if role != "pit":
            members.add(x)
        if role != "peak":
            members.add(x | sn)
    row = compatible_row(members, n, "weak")
    for x in sorted(set(combi._vertices).difference(path)):
        low, high = row >> x & 1, row >> (x | sn) & 1
        if low == high:
            which = "both" if low else "neither"
            raise TilingError("expand", f"{which} of {bs.format_subset(x)} and its lift fit the path")
        members.add(x if low else x | sn)
    return from_w_collection(SetFamily(n, members), check_input=False)


def mirror(combi: Combi) -> Combi:
    """Left-right mirror: relabel every element i as n+1-i."""
    n = combi.n
    verts = [bs.reverse_mask(x, n) for x in combi._vertices]
    return from_w_collection(SetFamily(n, verts), check_input=False)


def enumerate_legal_paths(combi: Combi) -> list[tuple[int, ...]]:
    """All legal paths of a combi, by the depth-first search of `_walks`."""
    return _walks(combi)


def _walks(combi: Combi, within: set[int] | None = None) -> list[tuple[int, ...]]:
    """The paths along vertical edges from the bottom to the top vertex
    whose every turn `_turn` allows, by depth-first search (from each vertex
    the up-steps, then the down-steps, each ascending); with `within`, only
    the paths through exactly the vertices of `within`.  None repeats a
    vertex: the largest type stepped between two visits is stepped down
    there, with an up-step by a larger type just before and just after it,
    one of them also between the visits."""
    edges = sorted(combi.vertical_edges())
    if within is not None:
        edges = [(a, b) for a, b in edges if a in within and b in within]
    steps: dict[int, list[int]] = {}
    for a, b in edges:
        steps.setdefault(a, []).append(b)
    for a, b in edges:
        steps.setdefault(b, []).append(a)
    full = bs.full_mask(combi.n)
    out: list[tuple[int, ...]] = []

    def walk(path: list[int]) -> None:
        cur = path[-1]
        if cur == full:
            if within is None or len(path) == len(within):
                out.append(tuple(path))
            return
        for nxt in steps.get(cur, ()):
            if len(path) == 1 or _turn(path[-2], cur, nxt) in _ROLES:
                path.append(nxt)
                walk(path)
                path.pop()

    walk([0])
    return out
