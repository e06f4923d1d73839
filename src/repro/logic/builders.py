"""Helper constructors for common constraint shapes.

These express the recurring encodings of the paper's applications:
data-fit bands for calibration (Section IV-A), goal regions for
reachability (Definition 11/13), and equality-as-band atoms.
"""

from __future__ import annotations

from typing import Mapping

from repro.expr import Const, Expr, ExprLike, as_expr
from repro.intervals import Box

from .formulas import And, Atom, Formula

__all__ = [
    "in_range",
    "equals_within",
    "box_formula",
    "eq_zero",
]


def in_range(term: ExprLike, lo: float, hi: float) -> Formula:
    """``lo <= term <= hi`` as a conjunction of weak atoms."""
    term = as_expr(term)
    return And(
        Atom(term - Const(float(lo)), strict=False),
        Atom(Const(float(hi)) - term, strict=False),
    )


def equals_within(term: ExprLike, value: float, tol: float) -> Formula:
    """``|term - value| <= tol`` -- the data-fit band of BioPSy-style
    calibration (each experimental sample becomes one such band)."""
    return in_range(term, value - tol, value + tol)


def eq_zero(term: ExprLike) -> Formula:
    """``term == 0`` as ``term >= 0 /\\ -term >= 0``."""
    term = as_expr(term)
    return And(Atom(term, strict=False), Atom(-term, strict=False))


def box_formula(box: Box | Mapping[str, tuple[float, float]]) -> Formula:
    """Membership constraint for a named box (goal/initial regions)."""
    from repro.expr import var

    if isinstance(box, Box):
        items = [(k, (iv.lo, iv.hi)) for k, iv in box.items()]
    else:
        items = list(box.items())
    parts = [in_range(var(name), lo, hi) for name, (lo, hi) in items]
    return And(*parts)
