"""Exact computations in iterated Ore extension towers.

Build a tower presentation over an exact coefficient field (or a matrix
algebra over one), validate its automorphism / twisted-derivation axioms,
multiply elements in normal form, erase quantised derivations, degenerate
to the associated graded tower, and decide the finite-order polynomial
identity criteria.
"""

from .errors import (
    CompatibilityFailed,
    DivisionByZero,
    FieldMismatch,
    HypothesisViolation,
    NotDiagonal,
    OreError,
    ParseError,
    QEqualsOne,
    ScalarError,
    SupportTooHigh,
    TowerMismatch,
    UnknownVariableReference,
    UnsupportedErasure,
    VerificationFailed,
    ZeroInput,
)
from .scalars import (
    GF,
    QQ,
    CyclotomicField,
    FunctionField,
    Matrix,
    Scalar,
    cyclotomic_polynomial,
    parse_field,
    root_of_unity_order,
)
from .skewpoly import NEG_INF, SkewPoly, apply_level_map, degree_leading, is_central
from .tower import (
    BaseMap,
    BaseRing,
    OreTower,
    TowerLevel,
    ValidationReport,
    check_swap_compatibility,
    map_order,
    validate_tower,
)
from .erase import ErasureResult, ErasureWitness, erase_all, erase_top, swap_adjacent
from .graded import GradedPresentation, associated_graded_tower, rees_closure_check
from .pi import PIReport, centrality_witness, pi_report
from .cli import parse_tower_file, parse_tower_text, render_tower_file, run

__all__ = [
    "GF",
    "QQ",
    "BaseMap",
    "BaseRing",
    "CompatibilityFailed",
    "CyclotomicField",
    "DivisionByZero",
    "ErasureResult",
    "ErasureWitness",
    "FieldMismatch",
    "FunctionField",
    "GradedPresentation",
    "HypothesisViolation",
    "Matrix",
    "NEG_INF",
    "NotDiagonal",
    "OreError",
    "OreTower",
    "PIReport",
    "ParseError",
    "QEqualsOne",
    "Scalar",
    "ScalarError",
    "SkewPoly",
    "SupportTooHigh",
    "TowerLevel",
    "TowerMismatch",
    "UnknownVariableReference",
    "UnsupportedErasure",
    "ValidationReport",
    "VerificationFailed",
    "ZeroInput",
    "apply_level_map",
    "associated_graded_tower",
    "centrality_witness",
    "check_swap_compatibility",
    "cyclotomic_polynomial",
    "degree_leading",
    "erase_all",
    "erase_top",
    "pi_report",
    "is_central",
    "map_order",
    "parse_field",
    "parse_tower_file",
    "parse_tower_text",
    "render_tower_file",
    "rees_closure_check",
    "root_of_unity_order",
    "run",
    "swap_adjacent",
    "validate_tower",
]
