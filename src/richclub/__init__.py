"""Rich-club analytics for large graphs.

Rank nodes by degree, grow the induced club one rank at a time, and
measure how influential, stable, dense and connected every club size
is; includes seeded ER / Barabasi-Albert / Affiliation generators and a
CLI (``richclub``) for the full pipeline.
"""

from .axioms import (
    AxiomReport,
    AxiomThresholds,
    VerificationError,
    evaluate_axioms,
    minimal_elite,
)
from .generators import (
    BipartiteAffiliation,
    GeneratorConfig,
    generate,
    generate_affiliation,
    generate_ba,
    generate_er,
    write_bipartite,
)
from .graph import (
    EdgeListError,
    Graph,
    floor_sqrt_edges,
    parse_edge_list,
    underlying_undirected,
    write_edge_list,
)
from .sweep import (
    CSV_COLUMNS,
    DegreeOrder,
    KGrid,
    SweepRow,
    SweepTable,
    degree_order,
    internal_edges_by_k,
    metrics_at_k,
    read_rows_csv,
    run_sweep,
    sociability_profile,
    write_rows_csv,
)

__version__ = "0.1.0"

__all__ = [
    "AxiomReport", "AxiomThresholds", "VerificationError",
    "evaluate_axioms", "minimal_elite",
    "BipartiteAffiliation", "GeneratorConfig", "generate",
    "generate_affiliation", "generate_ba", "generate_er", "write_bipartite",
    "EdgeListError", "Graph", "floor_sqrt_edges", "parse_edge_list",
    "underlying_undirected", "write_edge_list",
    "CSV_COLUMNS", "DegreeOrder", "KGrid", "SweepRow", "SweepTable",
    "degree_order", "internal_edges_by_k", "metrics_at_k",
    "read_rows_csv", "run_sweep", "sociability_profile",
    "write_rows_csv",
]
