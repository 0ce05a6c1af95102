"""Markov partitions for hyperbolic toral automorphisms, exactly.

The package builds, for any hyperbolic element of GL(2, Z) acting on the
2-torus, the explicit two-parallelogram partition and its Markov refinement,
the associated shift of finite type, and the symbolic coding map -- all in
exact arithmetic over the relevant real quadratic field -- together with
independent verifiers for every defining property.
"""

from .coding import (
    BoundaryAmbiguity,
    CodingContext,
    DecodeResult,
    PreimageReport,
    SymbolicWord,
    torus_dist_sq,
)
from .construct import (
    BaseConstruction,
    ConjugationResult,
    CornerPoint,
    MarkovConstruction,
    SignCase,
    build_base_partition,
    build_markov_construction,
    conjugate_nonnegative,
    count_intersections,
)
from .exact import ContinuedFraction, QuadReal, cf_expand
from .multmap import ExpansionAmbiguity, MultiplicationSystem
from .partition import (
    EigenRect,
    InvariantError,
    RefinementCell,
    TorusPartition,
    WordVisitor,
    cylinder_components,
    partition_diam_sq,
    refine,
    refined_partition,
    refinement_cells_depth,
    strip_rect,
    transition_graph,
    verify_areas,
    verify_boundary_alignment,
    verify_generator_decay,
    verify_nfold_range,
    verify_translate_disjoint,
    walk_words,
)
from .render import (
    analyze_report,
    construction_report,
    render_cells_svg,
    render_construction_svg,
)
from .sft import (
    PerronData,
    TransitionGraph,
    char_poly,
    count_blocks,
    count_periodic,
    higher_block_graph,
    perron_data,
    to_dot,
)
from .torus import (
    EigenData,
    EigenFrame,
    Mat2Z,
    NotAutomorphismError,
    NotHyperbolicError,
    count_periodic_points,
    hyperbolic_check,
)

__version__ = "0.1.0"

__all__ = [
    "BaseConstruction",
    "BoundaryAmbiguity",
    "CodingContext",
    "ConjugationResult",
    "ContinuedFraction",
    "CornerPoint",
    "DecodeResult",
    "EigenData",
    "EigenFrame",
    "EigenRect",
    "ExpansionAmbiguity",
    "InvariantError",
    "MarkovConstruction",
    "Mat2Z",
    "MultiplicationSystem",
    "NotAutomorphismError",
    "NotHyperbolicError",
    "PerronData",
    "PreimageReport",
    "QuadReal",
    "RefinementCell",
    "SignCase",
    "SymbolicWord",
    "TorusPartition",
    "TransitionGraph",
    "WordVisitor",
    "analyze_report",
    "build_base_partition",
    "build_markov_construction",
    "cf_expand",
    "char_poly",
    "conjugate_nonnegative",
    "construction_report",
    "count_blocks",
    "count_intersections",
    "count_periodic",
    "count_periodic_points",
    "cylinder_components",
    "higher_block_graph",
    "hyperbolic_check",
    "partition_diam_sq",
    "perron_data",
    "refine",
    "refined_partition",
    "refinement_cells_depth",
    "render_cells_svg",
    "render_construction_svg",
    "strip_rect",
    "to_dot",
    "torus_dist_sq",
    "transition_graph",
    "verify_areas",
    "verify_boundary_alignment",
    "verify_generator_decay",
    "verify_nfold_range",
    "verify_translate_disjoint",
    "walk_words",
    "__version__",
]
