"""Finite-set geometry on the king-move lattice graph over Z^n.

The package computes the edge boundary two independent ways, by counting
each point's king steps that leave the set, as integer offsets added to
integer point codes (``edge_boundary_count``), and by summing occupied
lines and gaps per direction over the points' tuples
(``edge_boundary_formula``).  It also computes
vertex boundaries, compresses sets to canonical fixed points without
increasing their boundary, and searches the compressed family exhaustively
for minimal-boundary sets.
"""

from .core import (
    Direction,
    LineSection,
    Point,
    PointSet,
    chebyshev_distance,
    delete_coordinate,
    directions,
    insert_coordinate,
    line_base,
    line_sections,
    neighbors,
)
from .boundary import (
    BoundaryBreakdown,
    closed_vertex_boundary,
    edge_boundary_count,
    edge_boundary_formula,
    exterior_vertex_boundary,
    exterior_vertices,
    gap_set,
    line_indices,
    partial_edge_boundary,
    projection_count,
)
from .compression import (
    CompressionStep,
    CompressionTrace,
    canonical_segment,
    central_compress,
    compress_to_fixed_point,
    potential,
)
from .search import (
    EnumerationOverflowError,
    SearchReport,
    WitnessStats,
    count_compressed_sets,
    enumerate_compressed_sets,
    fully_gap_free,
    min_edge_boundary,
    random_point_set,
    survey_gap_free_optima,
)
from .formats import (
    ParseError,
    parse_point_set,
    parse_report,
    render_grid,
    serialize_point_set,
    serialize_report,
)

__version__ = "0.1.0"

__all__ = [
    "Point",
    "Direction",
    "PointSet",
    "LineSection",
    "directions",
    "neighbors",
    "chebyshev_distance",
    "insert_coordinate",
    "delete_coordinate",
    "line_base",
    "line_sections",
    "BoundaryBreakdown",
    "edge_boundary_count",
    "edge_boundary_formula",
    "exterior_vertices",
    "exterior_vertex_boundary",
    "closed_vertex_boundary",
    "projection_count",
    "gap_set",
    "partial_edge_boundary",
    "line_indices",
    "canonical_segment",
    "central_compress",
    "potential",
    "CompressionStep",
    "CompressionTrace",
    "compress_to_fixed_point",
    "EnumerationOverflowError",
    "count_compressed_sets",
    "enumerate_compressed_sets",
    "random_point_set",
    "fully_gap_free",
    "WitnessStats",
    "SearchReport",
    "min_edge_boundary",
    "survey_gap_free_optima",
    "ParseError",
    "parse_point_set",
    "serialize_point_set",
    "serialize_report",
    "parse_report",
    "render_grid",
    "__version__",
]
