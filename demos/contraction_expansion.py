"""The bijection between combies on the n-zonogon and pairs
(combi on the (n-1)-zonogon, legal path).

Run:  python demos/contraction_expansion.py
"""

from zonotile import (
    enumerate_legal_paths,
    enumerate_maximal,
    format_subset,
    from_w_collection,
    hypercube_domain,
    n_contract,
    n_expand,
)
from zonotile.contraction import path_vertex_roles

# Pick a combi with a lens so the contraction has something interesting to do.
lensy = next(
    from_w_collection(f)
    for f in enumerate_maximal(hypercube_domain(5), "weak").maximal_collections
    if any(l.upper_types[-1] == 5 for l in from_w_collection(f).lenses)
)

smaller, path = n_contract(lensy)
print("dropping 5 from every vertex leaves a combi on the 4-zonogon.")
print("its vertices found both with and without 5, with the zigzag of the")
print("lens whose last type is 5, make the legal path")
print("  ", " -> ".join(format_subset(v) for v in path))
roles = path_vertex_roles(smaller, path)
print("whose inner vertices are")
print("  ", ", ".join(f"{format_subset(v)} {r}" for v, r in zip(path[1:-1], roles)))
print("and whose backward step remembers the dissolved lens.")

assert n_expand(smaller, path) == lensy
print("\nexpanding along that path rebuilds the original combi exactly: each")
print("slope X comes back as X and X+5, each peak as X, each pit as X+5, and")
print("every other vertex on the side that is separated from those.")

# Counting pairs proves the bijection at desk scale: the number of
# (combi, legal path) pairs at n-1 equals the number of combies at n.
total = 0
for fam in enumerate_maximal(hypercube_domain(4), "weak").maximal_collections:
    combi = from_w_collection(fam)
    total += len(enumerate_legal_paths(combi))
count5 = len(enumerate_maximal(hypercube_domain(5), "weak").maximal_collections)
print(f"\npairs at n=4: {total};  combies at n=5: {count5};  equal: {total == count5}")
