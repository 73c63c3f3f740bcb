"""Two-color covering engine for 3-uniform hypergraphs.

Connected-matching covers of dense 2-colored hosts, desk-scale exact search
for disjoint monochromatic tight cycles, loose-cycle extraction, triad
density utilities, and brute-force oracles for all of the above.
"""

from .core import (
    Color,
    Coloring,
    Hypergraph3,
    PseudoPath,
    canon_triple,
    colex_index,
    colex_inverse,
    connected_components,
    connecting_path,
    tight_adjacent,
)
from .cycles import (
    CyclePair,
    LooseCycle,
    SearchOutcome,
    TightCycle,
    loose_from_tight,
    search_cycle_pair,
    verify_loose_cycle,
    verify_tight_cycle,
)
from .matcher import (
    ConnectedMatching,
    CoverResult,
    clean,
    cover,
    delta_of,
    dissolve_matching,
    local_search_matching,
    partition_vertices,
    perfect_matching_dense,
    residual_component,
    verify_cover,
)
from .oracle import (
    OracleReport,
    oracle_cycle_pair,
    oracle_matching_cover,
    oracle_perfect_matching,
)
from .reduced import (
    ReducedHypergraph,
    Triad,
    build_reduced,
    density,
    density_tuple,
    triangles,
)

__version__ = "0.1.0"

__all__ = [
    "Color",
    "Coloring",
    "ConnectedMatching",
    "CoverResult",
    "CyclePair",
    "Hypergraph3",
    "LooseCycle",
    "OracleReport",
    "PseudoPath",
    "ReducedHypergraph",
    "SearchOutcome",
    "TightCycle",
    "Triad",
    "build_reduced",
    "canon_triple",
    "clean",
    "colex_index",
    "colex_inverse",
    "connected_components",
    "connecting_path",
    "cover",
    "delta_of",
    "density",
    "density_tuple",
    "dissolve_matching",
    "local_search_matching",
    "loose_from_tight",
    "oracle_cycle_pair",
    "oracle_matching_cover",
    "oracle_perfect_matching",
    "partition_vertices",
    "perfect_matching_dense",
    "residual_component",
    "search_cycle_pair",
    "tight_adjacent",
    "triangles",
    "verify_cover",
    "verify_loose_cycle",
    "verify_tight_cycle",
]
