"""Cyclic patterns: regions, complementary domains, and tile exchange.

Run:  python demos/patterns_and_domains.py
Writes pattern_curve.svg next to the script.
"""

import random
from pathlib import Path

from zonotile import (
    CyclicPattern,
    classify_pattern,
    domains,
    enumerate_maximal,
    format_subset,
    from_w_collection,
    grassmann_necklace,
    hypercube_domain,
    interval_necklace,
    merge_repair,
    purity_verdict,
    render_svg,
    spectrum,
    split_quasi,
    verify_complementary,
)
from zonotile.suite import sample_cycle

here = Path(__file__).parent
rng = random.Random(42)

# Sample a cyclic pattern from the graph of a combi on the 4-zonogon,
# small enough to live inside a second combi as well.
pool = [
    from_w_collection(f)
    for f in enumerate_maximal(hypercube_domain(4), "weak").maximal_collections
]
while True:
    combi = rng.choice(pool)
    vert, horiz = combi.vertical_edges(), combi.horizontal_edges()
    cycle = sample_cycle(vert | horiz, rng)
    if cycle is None:
        continue
    if len(cycle) < 5:
        continue
    pattern = CyclicPattern(4, cycle)
    hosts = [k for k in pool if set(pattern.cycle) <= k.vertex_masks()]
    if classify_pattern(pattern) != "self_crossing" and len(hosts) >= 2:
        break
print("pattern:", " -> ".join(format_subset(v) for v in pattern.cycle))
print("class:  ", classify_pattern(pattern))
(here / "pattern_curve.svg").write_text(render_svg(pattern))
print("wrote pattern_curve.svg")

# The sets weakly separated from the pattern split into inside and outside,
# every cross pair is weakly separated, and both sides are pure.
inner, outer = domains(pattern)
print(f"\ninside domain: {len(inner)} sets, outside domain: {len(outer)} sets")
print("complementary pair:", verify_complementary(inner, outer))
print("inside pure:", purity_verdict(inner, "weak").pure, " outside pure:", purity_verdict(outer, "weak").pure)

# The proof is constructive: split two tilings along the curve and swap.
other = next(k for k in hosts if k != combi)
inside, _ = split_quasi(combi, pattern)
_, outside = split_quasi(other, pattern)
merged = merge_repair(inside, outside)
print("\nswapped the inside of one tiling into another:")
print("  merged spectrum size:", len(spectrum(merged)))

# Grassmann necklaces are cyclic patterns inside one size level.
necklace = interval_necklace(5, 2)
pattern5, offset = grassmann_necklace(necklace, 5)
print(f"\ninterval necklace in the 2-subsets of [5] validates (offset {offset})")
inner5, outer5 = domains(pattern5)
print("necklace domains complementary:", verify_complementary(inner5, outer5))
