"""booktri: exact triangle/book statistics for dense graphs, extremal
constructions at the floor(n^2/4)+1 edge threshold, stability partitions,
and exhaustive/heuristic search over the (max book, triangle count) plane.
"""

from .analytics import (
    analyze_report,
    book_profile,
    book_size,
    codegree,
    find_triangle,
    max_book,
    triangle_count,
)
from .codec import from_edge_list_text, from_graph6, to_edge_list, to_graph6
from .constructions import (
    ConstructionReport,
    edwards_generalized,
    predicted_vs_actual,
    rademacher_extremal,
    strict_book_cap,
    theorem1_sharp,
)
from .errors import (
    BooktriError,
    BoundsError,
    EdgeListParseError,
    ExplosionGuardError,
    Graph6ParseError,
    GraphSizeError,
    LoopError,
    MissingEdgeError,
    NotTriangleFreeError,
    ParameterError,
)
from .graph import MAX_VERTICES, Graph, complete_bipartite, from_edge_list
from .partition import (
    Partition,
    StabilityReport,
    bipartize_rewire,
    local_max_cut,
    stability_partition,
)
from .search import (
    AnnealParams,
    FrontierRecord,
    SweepEntry,
    alpha_sweep,
    anneal_min_triangles,
    extremal_scan,
    sweep_to_csv,
)

__version__ = "0.1.0"

__all__ = [
    "AnnealParams",
    "BooktriError",
    "BoundsError",
    "ConstructionReport",
    "EdgeListParseError",
    "ExplosionGuardError",
    "FrontierRecord",
    "Graph",
    "Graph6ParseError",
    "GraphSizeError",
    "LoopError",
    "MAX_VERTICES",
    "MissingEdgeError",
    "NotTriangleFreeError",
    "ParameterError",
    "Partition",
    "StabilityReport",
    "SweepEntry",
    "alpha_sweep",
    "analyze_report",
    "anneal_min_triangles",
    "bipartize_rewire",
    "book_profile",
    "book_size",
    "codegree",
    "complete_bipartite",
    "edwards_generalized",
    "extremal_scan",
    "find_triangle",
    "from_edge_list",
    "from_edge_list_text",
    "from_graph6",
    "local_max_cut",
    "max_book",
    "predicted_vs_actual",
    "rademacher_extremal",
    "stability_partition",
    "strict_book_cap",
    "sweep_to_csv",
    "theorem1_sharp",
    "to_edge_list",
    "to_graph6",
    "triangle_count",
]
