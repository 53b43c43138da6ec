"""Build tilings, flip them, and draw the results as SVG.

Run:  python demos/tilings_and_flips.py
Writes interval_combi.svg, lens_combi.svg next to the script.
"""

from pathlib import Path

from zonotile import (
    enumerate_maximal,
    find_m_configs,
    find_w_configs,
    from_s_collection,
    from_w_collection,
    hypercube_domain,
    interval_collection,
    lowering_flip,
    minimal_tiling,
    raising_flip,
    render_svg,
    spectrum,
)
from zonotile.flips import descend_to_minimum, flip_graph

here = Path(__file__).parent

# A rhombus tiling is determined by its spectrum (a maximal strongly
# separated collection); the minimal one uses the intervals.
tiling = minimal_tiling(4)
print(f"minimal rhombus tiling of the 4-zonogon: {len(tiling.tiles)} rhombi")
from zonotile import format_subset

print("spectrum:", " ".join(format_subset(m) for m in spectrum(tiling.combi).members))

# Combies do the same for weakly separated collections; some need lenses.
interval = from_w_collection(interval_collection(4))
(here / "interval_combi.svg").write_text(render_svg(interval))
print("wrote interval_combi.svg")

lensy = next(
    from_w_collection(f)
    for f in enumerate_maximal(hypercube_domain(4), "weak").maximal_collections
    if from_w_collection(f).lenses
)
(here / "lens_combi.svg").write_text(render_svg(lensy))
print(f"wrote lens_combi.svg ({len(lensy.lenses)} lens)")

# Raising flips climb from the interval combi to the co-interval combi.
combi = interval
steps = 0
while True:
    configs = find_m_configs(combi)
    if not configs:
        break
    combi = raising_flip(combi, configs[0])
    steps += 1
print(f"{steps} raising flips climb to the co-interval combi")

# ... and descending undoes it all, one unit of the size-sum at a time.
bottom, trace = descend_to_minimum(combi)
print(f"descending takes {len(trace)} lowering flips back to the intervals")

# The flip graph over every maximal w-collection of 2^[4].
graph = flip_graph(4)
print(
    f"flip graph at n=4: {len(graph.nodes)} tilings, {len(graph.arcs)} flips, "
    f"{len(graph.sources())} source, {len(graph.sinks())} sink"
)
