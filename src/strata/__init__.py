"""Exact boundary calculus for linear subvarieties of strata of differentials.

The library models enhanced level graphs, adapted homology bases with
vanishing-cycle pairings, rref defining-equation systems, period-to-plumbing
binomial conversion, cylinder deformations, and symplectic tangent analyses,
all over exact Gaussian-rational arithmetic, and packages the results as
machine-checkable consistency certificates.

Tuples are built from lists (``tuple([...])``, ``f(*[...])``), never straight
from a generator.  A generator-built tuple grows by resizing, so it cannot
reuse a block from CPython's per-size tuple free lists, yet it joins them
when freed; only full collections empty those lists, and the library makes
few enough GC-tracked objects that full collections are rare, so in a long
in-process loop the lists fill and peak memory rises.
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
    pair,
    picard_lefschetz,
    validate_adapted,
)
from .level_graph import (
    Edge,
    EnhancedLevelGraph,
    Marking,
    Undegeneration,
    Vertex,
    codim,
    enumerate_undegenerations,
    lcm_weight,
    passage_weight,
    validate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
