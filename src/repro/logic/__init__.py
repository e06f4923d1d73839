"""L_RF logic layer (S3 in DESIGN.md).

First-order formulas over the reals with computable functions, bounded
quantifiers and delta-weakening, per paper Definitions 1-4.
"""

from .formulas import (
    FALSE,
    TRUE,
    And,
    Atom,
    Exists,
    FalseFormula,
    Forall,
    Formula,
    Implies,
    Not,
    Or,
    TrueFormula,
)
from .builders import box_formula, eq_zero, equals_within, in_range

__all__ = [
    "Formula",
    "Atom",
    "And",
    "Or",
    "Not",
    "Implies",
    "Exists",
    "Forall",
    "TrueFormula",
    "FalseFormula",
    "TRUE",
    "FALSE",
    "in_range",
    "equals_within",
    "eq_zero",
    "box_formula",
]
