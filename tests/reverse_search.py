"""Reverse search over a flip graph (Avis & Fukuda 1996).

Every node but the source of the graph has a lowering move, so the node
its least lowering move leads to is its parent, and these parents form a
tree spanning the graph.  The walk goes down that tree from the source by
raising moves and keeps a child only when its least lowering move undoes
the raising move that made it.  It keeps no table of visited nodes and
never runs the clique search, so its counts are independent of it.
"""


def reverse_search_count(root, raises, lowers, flip) -> int:
    """The number of nodes of the flip graph whose only source is `root`.

    `raises(node)` and `lowers(node)` list a node's moves, least first, as
    (base, i, j, k) tuples that name the same hexagon or configuration in
    both directions; `flip(node, move, direction)` makes one move.  Asserts
    that every node's least lowering move leads back to its parent."""
    count, stack = 0, [root]
    while stack:
        node = stack.pop()
        count += 1
        for move in raises(node):
            child = flip(node, move, "raise")
            if lowers(child)[0] == move:
                assert flip(child, move, "lower") == node
                stack.append(child)
    return count
