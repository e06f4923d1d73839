"""Three-valued interval evaluation of formulas over boxes.

For a box ``B`` and formula ``phi`` we compute one of

* ``CERTAIN_TRUE``  -- every point of ``B`` satisfies ``phi``,
* ``CERTAIN_FALSE`` -- no point of ``B`` satisfies ``phi``,
* ``UNKNOWN``       -- the interval test is inconclusive.

This is the "theory solver" judgment used both for pruning (certainly
false boxes are discarded) and for delta-sat verification: a box on
which the delta-weakening ``phi^delta`` is CERTAIN_TRUE witnesses
delta-satisfiability (paper Theorem 1's delta-sat case).  The solvers
run its batched twin, :meth:`repro.solver.tape.CompiledFormula.judge`;
this scalar form is the reference the twin is tested against.
"""

from __future__ import annotations

import enum

from repro.intervals import Box, Interval
from repro.logic import (
    And,
    Atom,
    Exists,
    FalseFormula,
    Forall,
    Formula,
    Or,
    TrueFormula,
)

__all__ = ["Certainty"]


class Certainty(enum.Enum):
    """Three-valued truth of a formula over a box."""

    CERTAIN_FALSE = -1
    UNKNOWN = 0
    CERTAIN_TRUE = 1


def _eval_atom(atom: Atom, box: Box, delta: float) -> Certainty:
    """Judge ``t > -delta`` / ``t >= -delta`` over the box."""
    iv = atom.term.eval_interval(box)
    if iv.is_empty:
        return Certainty.CERTAIN_FALSE
    threshold = -delta
    if atom.strict:
        if iv.lo > threshold:
            return Certainty.CERTAIN_TRUE
        if iv.hi <= threshold:
            return Certainty.CERTAIN_FALSE
    else:
        if iv.lo >= threshold:
            return Certainty.CERTAIN_TRUE
        if iv.hi < threshold:
            return Certainty.CERTAIN_FALSE
    return Certainty.UNKNOWN


def _eval_formula_impl(phi: Formula, box: Box, delta: float = 0.0) -> Certainty:
    """Scalar three-valued judgment of ``phi^delta`` over ``box``.

    Kept as the single-box AST reference that the tape tests compare
    the compiled judgments against bit for bit; no solver path calls
    it.  Solvers (the ICP epochs and bounded reachability) compile once
    with :func:`repro.solver.tape.compile_formula` and judge whole
    :class:`~repro.intervals.BoxArray` batches instead.

    ``delta=0`` judges the formula itself.  Quantified subformulas are
    judged by extending the box with the quantifier's full domain
    interval: for ``Forall`` this is exact in spirit (true-on-domain =>
    forall true); for ``Exists`` a CERTAIN_TRUE judgment is sound
    (true everywhere => true somewhere) while CERTAIN_FALSE requires the
    body to be false on the whole domain, which is also sound.
    """
    if isinstance(phi, TrueFormula):
        return Certainty.CERTAIN_TRUE
    if isinstance(phi, FalseFormula):
        return Certainty.CERTAIN_FALSE
    if isinstance(phi, Atom):
        return _eval_atom(phi, box, delta)
    if isinstance(phi, And):
        result = Certainty.CERTAIN_TRUE
        for part in phi.parts:
            c = _eval_formula_impl(part, box, delta)
            if c is Certainty.CERTAIN_FALSE:
                return Certainty.CERTAIN_FALSE
            if c is Certainty.UNKNOWN:
                result = Certainty.UNKNOWN
        return result
    if isinstance(phi, Or):
        result = Certainty.CERTAIN_FALSE
        for part in phi.parts:
            c = _eval_formula_impl(part, box, delta)
            if c is Certainty.CERTAIN_TRUE:
                return Certainty.CERTAIN_TRUE
            if c is Certainty.UNKNOWN:
                result = Certainty.UNKNOWN
        return result
    if isinstance(phi, (Forall, Exists)):
        lo_iv = phi.lo.eval_interval(box)
        hi_iv = phi.hi.eval_interval(box)
        if lo_iv.is_empty or hi_iv.is_empty:
            return Certainty.CERTAIN_FALSE
        domain = Interval(lo_iv.lo, hi_iv.hi)
        if domain.is_empty:
            # empty domain: forall vacuously true, exists false
            return (
                Certainty.CERTAIN_TRUE
                if isinstance(phi, Forall)
                else Certainty.CERTAIN_FALSE
            )
        inner = box.merged({phi.name: domain})
        c = _eval_formula_impl(phi.body, inner, delta)
        if c is Certainty.UNKNOWN:
            return Certainty.UNKNOWN
        if isinstance(phi, Forall):
            # body certainly true on whole domain => forall true;
            # body certainly false on whole domain => forall false
            # (domain is nonempty here).
            return c
        # Exists: true-everywhere => true-somewhere; false-everywhere =>
        # false-somewhere-is-impossible, i.e. exists is false.
        return c
    raise TypeError(f"cannot evaluate {type(phi).__name__}")
