"""Exact boundary calculus for linear subvarieties of strata of differentials.

The library models enhanced level graphs, adapted homology bases with
vanishing-cycle pairings, rref defining-equation systems, period-to-plumbing
binomial conversion, cylinder deformations, and symplectic tangent analyses,
all over exact Gaussian-rational arithmetic, and packages the results as
machine-checkable consistency certificates.
"""

from .equations import (
    ConsistencyCertificate,
    Equation,
    EquationSystem,
    ProportionalityData,
    classify_undegeneration,
    consistency_report,
    cross_equivalence_classes,
    decompose,
    hor_support,
    is_correlated,
    lost_count,
    primitive_sets,
    residue_relation,
    top_level,
)
from .errors import (
    AimError,
    BasisError,
    ConversionError,
    DeformationError,
    DocumentParseError,
    GraphError,
    LimitError,
    PlumbingError,
    StrataError,
    SystemDataError,
    Violation,
)
from .gaussian import GaussianRational, parse_gaussian, parse_rational
from .homology import (
    AdaptedBasis,
    BasisElement,
    Cycle,
    LambdaRelationSet,
    pair,
    picard_lefschetz,
    validate_adapted,
)
from .level_graph import (
    Edge,
    EnhancedLevelGraph,
    LevelPassage,
    Marking,
    Undegeneration,
    Vertex,
    codim,
    enumerate_undegenerations,
    lcm_weight,
    passage_weight,
    passages,
    top_vertices_have_horizontal,
    validate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
