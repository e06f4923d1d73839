"""Flat evaluation tapes: compile a formula once, run it over box batches.

Re-walking the expression AST for every box judged or contracted makes
Python call overhead the dominant cost of the delta-decision procedure.
This module compiles each ``L_RF`` formula *once* into

* one flat register **tape** per distinct expression term (a linear
  instruction list over a register file, shared subterms deduplicated),
  and
* a small tree of judgment/contraction **nodes** mirroring the logical
  structure (atoms, and/or, bounded quantifiers),

and then evaluates the whole batch of boxes (a
:class:`~repro.intervals.BoxArray`) in vectorized
:class:`~repro.intervals.IntervalArray` operations:

* :meth:`CompiledFormula.judge` is the batched three-valued interval
  judgment (``-1`` certainly false, ``0`` unknown, ``+1`` certainly
  true, per row), at one ``delta`` or at several from one forward pass;
  each row is bit-identical to the scalar reference
  :func:`repro.solver.eval3._eval_formula_impl`;
* :meth:`CompiledFormula.contract` is one HC4-revise sweep (forward
  enclosures up the tape, the output constraint ``[0, +inf)`` pushed
  back down through per-operator preimages, all rows at once);
* :meth:`CompiledFormula.fixpoint_contract` iterates contraction per
  row until a sweep's relative progress drops below ``tol``.

The ICP epochs (:mod:`repro.solver.shard`) and bounded reachability
(:mod:`repro.bmc.reach`) both judge and contract through this module.

Soundness is inherited row-wise from the vectorized kernel's inclusion
property: judgments are conservative and contraction only removes
points that cannot satisfy the constraint.

The kernel's operations run under the caller's numpy error state, so
every public entry point here (:meth:`ExprTape.forward`,
:meth:`~ExprTape.eval`, :meth:`~ExprTape.hc4`,
:meth:`CompiledFormula.judge`, :meth:`~CompiledFormula.contract` and
:meth:`~CompiledFormula.fixpoint_contract`) enters
``np.errstate(all="ignore")`` once per call: the infinities, ``0 * inf``
and empty-row NaNs of outward rounding raise no warning, and the
caller's error state is restored on return or raise.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np

from repro.expr import Binary, Const, Expr, Unary, Var
from repro.intervals.array import BoxArray, IntervalArray
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

__all__ = ["ExprTape", "CompiledFormula", "compile_formula"]

_INF = math.inf

CERTAIN_FALSE = -1
UNKNOWN = 0
CERTAIN_TRUE = 1


def _quiet(fn):
    """Run ``fn`` under a fresh ``np.errstate(all="ignore")``: the error
    state of one public tape call (see the module docstring)."""

    @functools.wraps(fn)
    def quiet(*args, **kwargs):
        with np.errstate(all="ignore"):
            return fn(*args, **kwargs)

    return quiet


def _inflate(ia: IntervalArray, eps: float) -> IntervalArray:
    lo = np.where(ia.is_empty, ia.lo, ia.lo - eps)
    hi = np.where(ia.is_empty, ia.hi, ia.hi + eps)
    return IntervalArray(lo, hi)


# ----------------------------------------------------------------------
# Expression tapes
# ----------------------------------------------------------------------


class ExprTape:
    """A linear register program computing one expression term.

    Instructions (``dst`` is always a fresh register):

    ``("var", dst, name)``
        load a box column,
    ``("const", dst, value)``
        load a constant,
    ``("un", dst, op, a)``
        unary op on register ``a``,
    ``("bin", dst, op, a, b)``
        binary op,
    ``("pow_const", dst, a, n)``
        power with a compile-time constant exponent.

    Shared sub-expressions (same node object) are emitted once, so the
    tape is the flattened DAG of the term.
    """

    __slots__ = ("instrs", "n_regs", "root")

    def __init__(self, expr: Expr):
        self.instrs: list[tuple] = []
        memo: dict[int, int] = {}
        self.root = self._emit(expr, memo)
        self.n_regs = len(self.instrs)

    def _emit(self, e: Expr, memo: dict[int, int]) -> int:
        key = id(e)
        if key in memo:
            return memo[key]
        if isinstance(e, Var):
            dst = len(self.instrs)
            self.instrs.append(("var", dst, e.name))
        elif isinstance(e, Const):
            dst = len(self.instrs)
            self.instrs.append(("const", dst, float(e.value)))
        elif isinstance(e, Unary):
            a = self._emit(e.arg, memo)
            dst = len(self.instrs)
            self.instrs.append(("un", dst, e.op, a))
        elif isinstance(e, Binary):
            a = self._emit(e.left, memo)
            if e.op == "pow" and isinstance(e.right, Const):
                dst = len(self.instrs)
                self.instrs.append(("pow_const", dst, a, float(e.right.value)))
            else:
                b = self._emit(e.right, memo)
                dst = len(self.instrs)
                self.instrs.append(("bin", dst, e.op, a, b))
        else:
            raise TypeError(f"cannot compile node {type(e).__name__}")
        memo[key] = dst
        return dst

    # ------------------------------------------------------------------
    @_quiet
    def forward(self, boxes: BoxArray) -> list[IntervalArray]:
        """Bottom-up interval enclosures of every register over the batch.

        Registers are never written in place: ``hc4`` reads them as its
        initial targets.
        """
        n = len(boxes)
        regs: list[IntervalArray] = [None] * self.n_regs  # type: ignore[list-item]
        for ins in self.instrs:
            tag, dst = ins[0], ins[1]
            if tag == "var":
                regs[dst] = boxes.column(ins[2])
            elif tag == "const":
                regs[dst] = IntervalArray.constant(ins[2], n)
            elif tag == "un":
                regs[dst] = _UNARY[ins[2]](regs[ins[3]])
            elif tag == "pow_const":
                regs[dst] = regs[ins[2]].pow_scalar(ins[3])
            else:  # bin
                op, a, b = ins[2], ins[3], ins[4]
                regs[dst] = _apply_binary(op, regs[a], regs[b])
        return regs

    def eval(self, boxes: BoxArray) -> IntervalArray:
        """Enclosure of the term over every row of ``boxes``."""
        return self.forward(boxes)[self.root]

    # ------------------------------------------------------------------
    @_quiet
    def hc4(self, boxes: BoxArray, strict: bool) -> BoxArray:
        """Batched HC4-revise of ``term >= 0`` (closure covers strict).

        Returns the contracted batch; rows where the constraint is
        infeasible come back empty.
        """
        fwd = self.forward(boxes)
        n = len(boxes)
        root_iv = fwd[self.root]
        # Output constraint: the term must be able to reach [0, +inf).
        want_root = IntervalArray(np.maximum(root_iv.lo, 0.0), root_iv.hi)
        dead = root_iv.is_empty | want_root.is_empty

        # Per-register accumulated targets, narrowed by every consumer
        # before the register's own instruction is inverted (registers
        # are in topological order, so a reverse sweep visits consumers
        # first: HC4's top-down pass over the term's DAG).
        # Narrowing always builds a new array, so the targets start as
        # the forward registers themselves, uncopied.
        want: list[IntervalArray] = list(fwd)
        want[self.root] = want_root

        new_lo = boxes.lo.copy()
        new_hi = boxes.hi.copy()
        col = boxes._index

        for ins in reversed(self.instrs):
            tag, dst = ins[0], ins[1]
            w = want[dst]
            if tag == "var":
                j = col[ins[2]]
                new_lo[:, j] = np.maximum(new_lo[:, j], w.lo)
                new_hi[:, j] = np.minimum(new_hi[:, j], w.hi)
                dead = dead | (new_lo[:, j] > new_hi[:, j])
            elif tag == "const":
                dead = dead | ~w.contains(ins[2])
            elif tag == "un":
                op, a = ins[2], ins[3]
                inv = _invert_unary(op, w, want[a])
                want[a] = want[a].intersect(inv)
                dead = dead | want[a].is_empty
            elif tag == "pow_const":
                a, nexp = ins[2], ins[3]
                if float(nexp).is_integer():
                    inv = _invert_int_pow(w, want[a], int(nexp))
                else:
                    inv = IntervalArray.entire(n)
                want[a] = want[a].intersect(inv)
                dead = dead | want[a].is_empty
            else:  # bin
                op, a, b = ins[2], ins[3], ins[4]
                inv_a, inv_b = _invert_binary(op, w, want[a], want[b])
                want[a] = want[a].intersect(inv_a)
                want[b] = want[b].intersect(inv_b)
                dead = dead | want[a].is_empty | want[b].is_empty
        if np.count_nonzero(dead):
            new_lo[dead] = _INF
            new_hi[dead] = -_INF
        return BoxArray(boxes.names, new_lo, new_hi)


# ----------------------------------------------------------------------
# Vectorized operator tables (forward)
# ----------------------------------------------------------------------

_UNARY = {
    "neg": IntervalArray.__neg__,
    "abs": IntervalArray.__abs__,
    "sqrt": IntervalArray.sqrt,
    "exp": IntervalArray.exp,
    "log": IntervalArray.log,
    "sin": IntervalArray.sin,
    "cos": IntervalArray.cos,
    "tan": IntervalArray.tan,
    "tanh": IntervalArray.tanh,
    "sigmoid": IntervalArray.sigmoid,
}


def _apply_binary(op: str, a: IntervalArray, b: IntervalArray) -> IntervalArray:
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    if op == "min":
        return a.min_with(b)
    if op == "max":
        return a.max_with(b)
    if op == "pow":
        return _pow_general(a, b)
    raise NotImplementedError(op)


def _pow_general(a: IntervalArray, b: IntervalArray) -> IntervalArray:
    """Runtime-exponent power: exp(b*log a), with the scalar kernel's
    per-row point-exponent specialization grafted back on."""
    out = (a.log() * b).exp()
    point = ~b.is_empty & (b.lo == b.hi)
    if point.any():
        for nval in np.unique(b.lo[point]):
            rows = point & (b.lo == nval)
            fixed = a.take(rows).pow_scalar(float(nval))
            lo, hi = out.lo.copy(), out.hi.copy()
            lo[rows] = fixed.lo
            hi[rows] = fixed.hi
            out = IntervalArray(lo, hi)
    return out._propagate_empty(a, b)


# ----------------------------------------------------------------------
# Vectorized inversion rules (backward)
# ----------------------------------------------------------------------


def _invert_unary(op: str, want: IntervalArray, arg: IntervalArray) -> IntervalArray:
    n = len(want)
    if op == "neg":
        return -want
    if op == "exp":
        return want.log()
    if op == "log":
        return want.exp()
    if op == "sqrt":
        return want.intersect(IntervalArray(np.zeros(n), np.full(n, _INF))).sqr()
    if op == "abs":
        w = want.intersect(IntervalArray(np.zeros(n), np.full(n, _INF)))
        return IntervalArray(-w.hi, w.hi)  # empty w stays empty (-(-inf) > -inf)
    if op == "tanh":
        w = want.intersect(IntervalArray(np.full(n, -1.0), np.full(n, 1.0)))
        lo = np.where(w.lo <= -1.0, -_INF, np.arctanh(w.lo))
        hi = np.where(w.hi >= 1.0, _INF, np.arctanh(w.hi))
        out = _inflate(IntervalArray(lo, hi), 1e-12)
        return out._propagate_empty(w)
    if op == "sigmoid":
        w = want.intersect(IntervalArray(np.zeros(n), np.full(n, 1.0)))
        lo = np.where(w.lo <= 0.0, -_INF, np.log(w.lo / (1.0 - w.lo)))
        hi = np.where(w.hi >= 1.0, _INF, np.log(w.hi / (1.0 - w.hi)))
        out = _inflate(IntervalArray(lo, hi), 1e-12)
        return out._propagate_empty(w)
    # sin / cos / tan: multivalued inverse -- no contraction (sound identity)
    return IntervalArray.entire(n)


def _where_ia(mask: np.ndarray, a: IntervalArray, b: IntervalArray) -> IntervalArray:
    return IntervalArray(np.where(mask, a.lo, b.lo), np.where(mask, a.hi, b.hi))


def _safe_div(num: IntervalArray, den: IntervalArray) -> IntervalArray:
    """num/den rows; the entire line where den spans zero.

    Only rows whose ``den`` excludes zero keep their quotient, and there
    ``inverse`` is ``den.zero_free_inverse()`` -- so that is all this
    computes before overwriting the zero-spanning rows.
    """
    out = num * den.zero_free_inverse()  # fresh arrays, empty where num is empty
    lo, hi = out.lo, out.hi
    whole = (den.lo <= 0.0) & (den.hi >= 0.0)  # spans zero (so non-empty)
    dead = den.lo > den.hi
    if np.count_nonzero(dead):
        lo[dead] = _INF
        hi[dead] = -_INF
    if np.count_nonzero(whole):
        lo[whole] = -_INF
        hi[whole] = _INF
    return out


def _cat(x: IntervalArray, y: IntervalArray) -> IntervalArray:
    """The rows of ``x`` followed by the rows of ``y``."""
    return IntervalArray(np.concatenate((x.lo, y.lo)), np.concatenate((x.hi, y.hi)))


def _halves(out: IntervalArray, n: int) -> tuple[IntervalArray, IntervalArray]:
    """Rows ``[:n]`` and ``[n:]`` of a :func:`_cat`-stacked result, as views."""
    lo, hi = out.lo, out.hi
    return IntervalArray(lo[:n], hi[:n]), IntervalArray(lo[n:], hi[n:])


def _invert_binary(
    op: str, want: IntervalArray, a: IntervalArray, b: IntervalArray
) -> tuple[IntervalArray, IntervalArray]:
    n = len(want)
    # add / sub / mul: both preimages in one kernel call over 2n rows.
    # The kernel is row-wise, so each row runs the same IEEE operations
    # as the per-operand form named beside it.
    if op == "add":  # want - b, want - a
        return _halves(_cat(want, want) - _cat(b, a), n)
    if op == "sub":  # want + b, a - want
        return _halves(_cat(want, a) + _cat(b, -want), n)
    if op == "mul":  # _safe_div(want, b), _safe_div(want, a)
        return _halves(_safe_div(_cat(want, want), _cat(b, a)), n)
    if op == "div":
        # want = a / b  =>  a = want * b, b = a / want
        return want * b, _safe_div(a, want)
    if op == "min":
        bound = IntervalArray(want.lo, np.full(n, _INF))
        return bound, bound
    if op == "max":
        bound = IntervalArray(np.full(n, -_INF), want.hi)
        return bound, bound
    if op == "pow":
        # runtime exponent: no reliable componentwise preimage
        return IntervalArray.entire(n), IntervalArray.entire(n)
    raise NotImplementedError(op)


def _invert_int_pow(want: IntervalArray, base: IntervalArray, n: int) -> IntervalArray:
    rows = len(want)
    if n == 0:
        return _where_ia(
            want.contains(1.0), IntervalArray.entire(rows), IntervalArray.empty(rows)
        )
    if n < 0:
        return _invert_int_pow(want.inverse(), base, -n)
    if n % 2 == 1:
        root_lo = np.where(
            np.isfinite(want.lo),
            np.copysign(np.abs(want.lo) ** (1.0 / n), want.lo),
            want.lo,
        )
        root_hi = np.where(
            np.isfinite(want.hi),
            np.copysign(np.abs(want.hi) ** (1.0 / n), want.hi),
            want.hi,
        )
        return _inflate(IntervalArray(root_lo, root_hi), 1e-12)
    w = want.intersect(IntervalArray(np.zeros(rows), np.full(rows, _INF)))
    hi_root = np.where(np.isfinite(w.hi), w.hi ** (1.0 / n), _INF)
    lo_root = w.lo ** (1.0 / n)
    pos = _inflate(IntervalArray(lo_root, hi_root), 1e-12)
    neg = -pos
    both = neg.hull(pos)
    out = _where_ia(base.lo >= 0.0, pos, _where_ia(base.hi <= 0.0, neg, both))
    return out._propagate_empty(w)


# ----------------------------------------------------------------------
# Formula-level compilation
# ----------------------------------------------------------------------


class _CNode:
    """Base of compiled formula nodes."""

    __slots__ = ()

    def judge(self, boxes: BoxArray, deltas: Sequence[float]) -> np.ndarray:
        """Three-valued judgment of the node's ``phi^delta`` for each
        ``delta`` in ``deltas``: an ``int8`` array of one row per
        threshold and one column per box, from one forward pass."""
        raise NotImplementedError

    def contract(self, boxes: BoxArray) -> BoxArray:
        """Sound contraction of every row (empty rows are infeasible)."""
        raise NotImplementedError


class _CTrue(_CNode):
    __slots__ = ()

    def judge(self, boxes, deltas):
        """Certainly true on every row."""
        return np.full((len(deltas), len(boxes)), CERTAIN_TRUE, dtype=np.int8)

    def contract(self, boxes):
        """Identity: ``true`` removes nothing."""
        return boxes


class _CFalse(_CNode):
    __slots__ = ()

    def judge(self, boxes, deltas):
        """Certainly false on every row."""
        return np.full((len(deltas), len(boxes)), CERTAIN_FALSE, dtype=np.int8)

    def contract(self, boxes):
        """Empty every row: ``false`` has no solutions."""
        lo = np.full_like(boxes.lo, _INF)
        hi = np.full_like(boxes.hi, -_INF)
        return BoxArray(boxes.names, lo, hi)


class _CAtom(_CNode):
    __slots__ = ("tape", "strict")

    def __init__(self, atom: Atom):
        self.tape = ExprTape(atom.term)
        self.strict = atom.strict

    def judge(self, boxes, deltas):
        """Compare the term's one enclosure with each ``-delta``."""
        iv = self.tape.eval(boxes)
        threshold = -np.array(deltas, dtype=float)[:, None]
        out = np.zeros((len(deltas), len(boxes)), dtype=np.int8)
        if self.strict:
            out[iv.lo > threshold] = CERTAIN_TRUE
            out[iv.hi <= threshold] = CERTAIN_FALSE
        else:
            out[iv.lo >= threshold] = CERTAIN_TRUE
            out[iv.hi < threshold] = CERTAIN_FALSE
        out[:, iv.is_empty] = CERTAIN_FALSE
        return out

    def contract(self, boxes):
        """HC4-revise of ``term >= 0`` (``> 0`` if strict)."""
        return self.tape.hc4(boxes, self.strict)


class _CAnd(_CNode):
    __slots__ = ("parts",)

    def __init__(self, parts):
        self.parts = parts

    def judge(self, boxes, deltas):
        """Row-wise minimum of the conjuncts' judgments (the rest are
        skipped once every row of every threshold is certainly false)."""
        out = self.parts[0].judge(boxes, deltas)
        for p in self.parts[1:]:
            if (out == CERTAIN_FALSE).all():
                break
            out = np.minimum(out, p.judge(boxes, deltas))
        return out

    def contract(self, boxes):
        """Contract by each conjunct in turn."""
        for p in self.parts:
            boxes = p.contract(boxes)
            if boxes.is_empty.all():
                return boxes
        return boxes


class _COr(_CNode):
    __slots__ = ("parts",)

    def __init__(self, parts):
        self.parts = parts

    def judge(self, boxes, deltas):
        """Row-wise maximum of the disjuncts' judgments (the rest are
        skipped once every row of every threshold is certainly true)."""
        out = self.parts[0].judge(boxes, deltas)
        for p in self.parts[1:]:
            if (out == CERTAIN_TRUE).all():
                break
            out = np.maximum(out, p.judge(boxes, deltas))
        return out

    def contract(self, boxes):
        """Hull of the rows each disjunct contracts to."""
        hull_lo = np.full_like(boxes.lo, _INF)
        hull_hi = np.full_like(boxes.hi, -_INF)
        for p in self.parts:
            c = p.contract(boxes)
            live = ~c.is_empty
            if live.any():
                hull_lo[live] = np.minimum(hull_lo[live], c.lo[live])
                hull_hi[live] = np.maximum(hull_hi[live], c.hi[live])
        return BoxArray(boxes.names, hull_lo, hull_hi)


class _CQuant(_CNode):
    __slots__ = ("is_forall", "name", "lo_tape", "hi_tape", "body")

    def __init__(self, phi: Exists | Forall, body: _CNode):
        self.is_forall = isinstance(phi, Forall)
        self.name = phi.name
        self.lo_tape = ExprTape(phi.lo)
        self.hi_tape = ExprTape(phi.hi)
        self.body = body

    def judge(self, boxes, deltas):
        """Judge the body over the bound variable's whole domain."""
        lo_iv = self.lo_tape.eval(boxes)
        hi_iv = self.hi_tape.eval(boxes)
        bad = lo_iv.is_empty | hi_iv.is_empty
        domain = IntervalArray(lo_iv.lo, hi_iv.hi)
        vacuous = ~bad & domain.is_empty
        # judge the body on every row; vacuous rows get a dummy domain
        safe = _where_ia(domain.is_empty, IntervalArray.point(np.zeros(len(boxes))), domain)
        inner = boxes.with_column(self.name, safe)
        out = self.body.judge(inner, deltas)
        out = np.where(
            vacuous,
            np.int8(CERTAIN_TRUE if self.is_forall else CERTAIN_FALSE),
            out,
        )
        out = np.where(bad, np.int8(CERTAIN_FALSE), out)
        return out.astype(np.int8, copy=False)

    def contract(self, boxes):
        """Identity (sound): hoisting and verification handle quantifiers."""
        return boxes


def _compile_node(phi: Formula) -> _CNode:
    if isinstance(phi, TrueFormula):
        return _CTrue()
    if isinstance(phi, FalseFormula):
        return _CFalse()
    if isinstance(phi, Atom):
        return _CAtom(phi)
    if isinstance(phi, And):
        return _CAnd([_compile_node(p) for p in phi.parts])
    if isinstance(phi, Or):
        return _COr([_compile_node(p) for p in phi.parts])
    if isinstance(phi, (Exists, Forall)):
        return _CQuant(phi, _compile_node(phi.body))
    raise TypeError(f"cannot compile {type(phi).__name__}")


class CompiledFormula:
    """A formula compiled for batch judgment and contraction."""

    __slots__ = ("formula", "root")

    def __init__(self, phi: Formula):
        self.formula = phi
        self.root = _compile_node(phi)

    # ------------------------------------------------------------------
    @_quiet
    def judge(
        self, boxes: BoxArray, delta: float | Sequence[float] = 0.0
    ) -> np.ndarray:
        """Row-wise three-valued judgment of ``phi^delta``: an ``int8``
        array of ``-1`` (certainly false) / ``0`` / ``+1`` (certainly
        true), matching the scalar reference
        ``repro.solver.eval3._eval_formula_impl``.

        Given a sequence of thresholds, returns one such row per
        threshold (shape ``(len(delta), len(boxes))``) from one forward
        pass of each tape, bit-identical to judging each ``delta`` in a
        separate call.
        """
        if np.ndim(delta):
            return self.root.judge(boxes, delta)
        return self.root.judge(boxes, (delta,))[0]

    @_quiet
    def contract(self, boxes: BoxArray) -> BoxArray:
        """One batched contraction sweep (HC4 through the structure)."""
        return self.root.contract(boxes)

    @_quiet
    def fixpoint_contract(
        self, boxes: BoxArray, tol: float = 1e-3, max_sweeps: int = 30
    ) -> BoxArray:
        """Iterate contraction per row until a sweep removes less than
        ``tol`` of the row's total width (the classic ICP fixed-point
        loop with a progress threshold, applied to every row
        independently); at most ``max_sweeps`` sweeps."""
        out = boxes.copy()
        active = np.arange(len(boxes))
        for _ in range(max_sweeps):
            sub = out.take(active)
            before = sub.total_width()
            contracted = self.root.contract(sub)
            out.lo[active] = contracted.lo
            out.hi[active] = contracted.hi
            after = contracted.total_width()
            keep = (
                ~contracted.is_empty
                & (before > 0.0)
                & ((before - after) >= tol * before)
            )
            active = active[keep]
            if active.size == 0:
                break
        return out


def compile_formula(phi: Formula) -> CompiledFormula:
    """Compile ``phi`` into its batched tape form."""
    return CompiledFormula(phi)
