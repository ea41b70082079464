"""Exact classification of left-invariant conformal vector fields and
Yamabe solitons on metric Lie algebras.

The public surface re-exports the main types and operations. Every result
is an exact `fractions.Fraction` value, computed inside on Python ints over
common denominators, so results are exact and reproducible.
"""

from .algebra import LieAlgebra
from .catalog import FamilySpec, ParamSpec, family, instantiate, list_families, verification_targets
from .conformal import (
    ConformalSolutionSpace,
    VerdictReport,
    VerdictStatus,
    conformal_space,
    conformal_system,
    is_conformal_solution,
    killing_space,
    lie_derivative_metric,
    nonkilling_exists,
    verify_bounds_nonunimodular,
    verify_degenerate_restriction,
    verify_lightlike,
    verify_theorem_unimodular,
)
from .documents import Instance, instance_to_document, parse_instance, parse_instance_json
from .errors import (
    ConstraintViolated,
    Degenerate,
    DimensionMismatch,
    DocumentError,
    JacobiViolation,
    LieconfError,
    NotAConformalSolution,
    NotSymmetric,
    SingularMatrix,
    UnknownFamily,
)
from .exact import (
    Inertia,
    Matrix,
    Subspace,
    det,
    frac,
    inverse,
    kernel,
    rank,
    rref,
    signature,
)
from .geometry import (
    CURVATURE_CONVENTION,
    CausalCharacter,
    Connection,
    CurvatureReport,
    PseudoMetric,
    curvature,
    levi_civita,
    lowered_structure,
)
from .report import build_report, render_table
from .yamabe import (
    SolitonClass,
    SolitonReport,
    check_soliton,
    classify_constant,
    soliton_from_conformal,
    verify_corollary_unimodular,
)

__version__ = "0.1.0"

__all__ = [
    "CURVATURE_CONVENTION",
    "CausalCharacter",
    "ConformalSolutionSpace",
    "Connection",
    "ConstraintViolated",
    "CurvatureReport",
    "Degenerate",
    "DimensionMismatch",
    "DocumentError",
    "FamilySpec",
    "Inertia",
    "Instance",
    "JacobiViolation",
    "LieAlgebra",
    "LieconfError",
    "Matrix",
    "NotAConformalSolution",
    "NotSymmetric",
    "ParamSpec",
    "PseudoMetric",
    "SingularMatrix",
    "SolitonClass",
    "SolitonReport",
    "Subspace",
    "UnknownFamily",
    "VerdictReport",
    "VerdictStatus",
    "build_report",
    "check_soliton",
    "classify_constant",
    "conformal_space",
    "conformal_system",
    "curvature",
    "det",
    "family",
    "frac",
    "instance_to_document",
    "instantiate",
    "inverse",
    "is_conformal_solution",
    "kernel",
    "killing_space",
    "levi_civita",
    "lie_derivative_metric",
    "list_families",
    "lowered_structure",
    "nonkilling_exists",
    "parse_instance",
    "parse_instance_json",
    "rank",
    "render_table",
    "rref",
    "signature",
    "soliton_from_conformal",
    "verification_targets",
    "verify_bounds_nonunimodular",
    "verify_corollary_unimodular",
    "verify_degenerate_restriction",
    "verify_lightlike",
    "verify_theorem_unimodular",
]
