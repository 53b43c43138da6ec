"""Exact combinatorics of separated set-systems and tilings of a zonogon.

Subsets of {1..n} are bitmasks throughout; geometry is exact integer
arithmetic over equal-norm generator vectors.  The package implements the
separation relations and purity reports, rhombus tilings with strong flips,
combined tilings with weak flips, contraction/expansion, and the pattern
domain machinery, each backed by a complete planar-cover validator.
"""

from .bitsets import (
    elements_of,
    format_subset,
    full_mask,
    mask_of,
    parse_subset,
    reverse_mask,
)
from ._planar import TilingError
from .separation import (
    DomainReport,
    Permutation,
    PurityVerdict,
    ResourceGuardError,
    SetFamily,
    base_relation,
    chamber_domain,
    chamber_pair_domain,
    cointerval_collection,
    enumerate_maximal,
    hypercube_domain,
    hypersimplex_domain,
    interval_collection,
    inversions,
    is_maximal_separated,
    purity_verdict,
    separation_row,
    strongly_separated,
    weakly_separated,
)
from .geometry import (
    Generators,
    boundary_vertices,
    default_generators,
    embed,
    embedding_table,
    point_in_closed_polyline,
    segment_contact,
)
from .rhombus import (
    RhombusTiling,
    from_s_collection,
    maximal_tiling,
    minimal_tiling,
    strong_flip,
)
from .combi import (
    Combi,
    Delta,
    Lens,
    MConfig,
    Nabla,
    WConfig,
    find_m_configs,
    find_w_configs,
    from_rhombus,
    from_w_collection,
    spectrum,
    validate_combi,
)
from .flips import (
    FlipGraph,
    complement_combi,
    descend_to_minimum,
    flip_graph,
    interval_combi,
    lowering_flip,
    raising_flip,
    set_flip,
    set_flip_graph,
)
from .contraction import (
    enumerate_legal_paths,
    mirror,
    n_contract,
    n_expand,
)
from .patterns import (
    CyclicPattern,
    GraphPattern,
    QuasiCombi,
    boundary_pattern,
    classify_pattern,
    domains,
    graph_pattern,
    graph_pattern_domains,
    grassmann_necklace,
    interval_necklace,
    merge_repair,
    pattern_faces,
    regions,
    split_quasi,
    strong_domains,
    verify_complementary,
    verify_face_domains,
)
from .render import render_svg

__version__ = "0.1.0"
