"""A combi's triangle fans and lenses, read by a scan of all its tiles.

The tile surgery kept as a reference in `test_flips.py` (the lowering flip)
and `test_contraction.py` (the strip expansion) looks up the fan at a vertex
and the lens on an edge here.
"""

from zonotile._planar import TilingError


def _fan_path(fan, what: str) -> tuple[int, ...]:
    """The left-to-right base path of the triangles of one fan, () for none."""
    if not fan:
        return ()
    by_left = {t.left: t for t in fan}
    rights = {t.right for t in fan}
    starts = [t.left for t in fan if t.left not in rights]
    if len(starts) != 1:
        raise TilingError("sector", f"{what} fan does not form a single chain")
    path = [starts[0]]
    while path[-1] in by_left:
        path.append(by_left[path[-1]].right)
    return tuple(path)


def nabla_fan(combi, bottom: int) -> tuple[int, ...]:
    return _fan_path([v for v in combi.nablas if v.bottom == bottom], "upper")


def delta_fan(combi, apex: int) -> tuple[int, ...]:
    return _fan_path([d for d in combi.deltas if d.apex == apex], "lower")


def lenses_on(combi, edge: tuple[int, int], side: str) -> list:
    """Every lens with the edge on its `side` ("upper" or "lower") boundary."""
    hosts = []
    for lens in combi.lenses:
        path = lens.upper if side == "upper" else lens.lower
        if any(pair == edge for pair in zip(path, path[1:])):
            hosts.append(lens)
    return hosts
