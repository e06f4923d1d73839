"""Vectorized interval arithmetic: batches of intervals and boxes.

This is the data-parallel twin of :mod:`repro.intervals.interval`: an
:class:`IntervalArray` holds ``n`` independent intervals as ``lo``/``hi``
float64 arrays and applies every operation to the whole batch at once
with NumPy, and a :class:`BoxArray` holds ``n`` boxes over a fixed,
ordered variable tuple as ``(n, dim)`` bound arrays.

The semantics mirror the scalar kernel operation by operation:

* outward rounding is the same one-ulp ``nextafter`` bump, skipped when
  the double result is provably exact (TwoSum residual for addition,
  Dekker two-product residual for multiplication, where every corner
  product reaching a bound must be exact) -- so batched results are
  value-identical to the scalar kernel wherever both are defined; a zero
  bound's sign may differ (``[0, 0.0013] * [-0.047, 0]`` has scalar
  ``hi = -0.0`` and batched ``hi = +0.0``);
* the empty interval is ``lo > hi`` (canonically ``[+inf, -inf]``) and
  propagates through every operation;
* the inclusion property holds row-wise: for any ``x in X[i]``,
  ``y in Y[i]``, ``op(X, Y)[i]`` contains ``op(x, y)``.

The ICP frontier loop and the formula tape evaluator
(:mod:`repro.solver.tape`) run entirely on these arrays, which is what
turns the per-box scalar search into a batch-of-boxes search.

Two contracts keep the per-op cost down to the numpy calls themselves:

* **Error state.**  The operations run under the *caller's* numpy error
  state.  Outward rounding deliberately produces infinities, ``0 * inf``
  and NaNs in empty rows that are masked out afterwards, so a caller
  enters ``np.errstate(all="ignore")`` once around a batch of operations
  (every entry point of :mod:`repro.solver.tape` does this per call)
  rather than each operation entering it again.
* **Trusted construction.**  ``IntervalArray(lo, hi)`` stores the two
  1-D float64 arrays it is given and converts nothing; every operation
  builds its result that way.  Lists, scalars and integer arrays go
  through the converting constructors :meth:`IntervalArray.make`,
  :meth:`~IntervalArray.point`, :meth:`~IntervalArray.constant` and
  :meth:`~IntervalArray.from_intervals`.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .box import Box
from .interval import Interval

__all__ = ["IntervalArray", "BoxArray"]

_INF = math.inf
_FLOAT_MAX = math.nextafter(_INF, 0.0)
_SPLITTER = 134217729.0  # 2**27 + 1, Dekker splitting constant
# Dekker's residual is exact only when no partial product underflows,
# i.e. e_a + e_b >= -970, which |a*b| >= 2**-969 guarantees.
_MUL_TINY = 2.0 ** -969
# (2, 1) columns broadcast over a stacked (lo, hi) pair of bound rows
_OUTWARD = np.array([[-_INF], [_INF]])
_EMPTY_BOUNDS = np.array([[_INF], [-_INF]])


def _down(x: np.ndarray) -> np.ndarray:
    """One ulp toward -inf; ``+inf`` clamps to the largest finite double
    (matching the scalar kernel's overflow-sound lower bounds)."""
    return np.nextafter(x, -_INF)


def _up(x: np.ndarray) -> np.ndarray:
    """One ulp toward +inf."""
    return np.nextafter(x, _INF)


def _mul_exact(f: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Mask of the corners where ``p == a*b`` exactly (Dekker residual),
    for factors stacked as ``a = f[:4]``, ``b = f[4:]`` (one split pass).

    ``p`` must have its ``0 * inf`` NaNs already zeroed: then a non-finite
    ``p`` needs a factor beyond 1e150.  The residual judges a corner only
    while the split cannot overflow (factors up to 1e150) and no partial
    product underflows (``|p| >= _MUL_TINY``); any other corner is exact
    only when a factor is zero.
    """
    c = _SPLITTER * f
    h = c - (c - f)
    t = f - h
    ah, bh, al, bl = h[:4], h[4:], t[:4], t[4:]
    exact = (((ah * bh - p) + ah * bl + al * bh) + al * bl) == 0.0
    big = np.abs(f) > 1e150
    unjudged = big[:4] | big[4:] | (np.abs(p) < _MUL_TINY)
    # count_nonzero is one C call; ndarray.any() detours through Python
    if np.count_nonzero(unjudged):
        a, b = f[:4], f[4:]
        exact = np.where(unjudged, (p == 0.0) & ((a == 0.0) | (b == 0.0)), exact)
    return exact


def _from_stack(out: np.ndarray, x: "IntervalArray", y: "IntervalArray") -> "IntervalArray":
    """The rows of a fresh ``(2, n)`` (lo, hi) stack, emptied wherever an
    operand row is empty (a non-empty pair never yields an empty row)."""
    dead = (x.lo > x.hi) | (y.lo > y.hi)
    if np.count_nonzero(dead):
        out[:, dead] = _EMPTY_BOUNDS
    return IntervalArray(out[0], out[1])


class IntervalArray:
    """A batch of closed intervals ``[lo[i], hi[i]]`` under outward-rounded
    vectorized arithmetic.  Rows with ``lo > hi`` are empty.

    The constructor trusts its arguments: ``lo`` and ``hi`` must be 1-D
    float64 arrays of one length (see the module docstring).
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo: np.ndarray, hi: np.ndarray):
        self.lo = lo
        self.hi = hi

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def make(lo, hi) -> "IntervalArray":
        """Sanitizing constructor: NaN bounds become empty rows."""
        lo = np.asarray(lo, dtype=float).copy()
        hi = np.asarray(hi, dtype=float).copy()
        bad = np.isnan(lo) | np.isnan(hi)
        lo[bad] = _INF
        hi[bad] = -_INF
        return IntervalArray(lo, hi)

    @staticmethod
    def point(x) -> "IntervalArray":
        """Degenerate rows ``[x, x]``; a NaN in ``x`` raises :exc:`ValueError`
        (no interval encloses an undefined value)."""
        x = np.asarray(x, dtype=float)
        nan = np.isnan(x)
        if nan.any():
            raise ValueError(
                f"cannot make a point interval of NaN (row {int(np.flatnonzero(nan)[0])})"
            )
        return IntervalArray(x.copy(), x.copy())

    @staticmethod
    def constant(value: float, n: int) -> "IntervalArray":
        """``n`` degenerate rows ``[value, value]``."""
        return IntervalArray(np.full(n, float(value)), np.full(n, float(value)))

    @staticmethod
    def empty(n: int) -> "IntervalArray":
        """``n`` empty rows (canonically ``[+inf, -inf]``)."""
        return IntervalArray(np.full(n, _INF), np.full(n, -_INF))

    @staticmethod
    def entire(n: int) -> "IntervalArray":
        """``n`` rows of the whole real line ``[-inf, +inf]``."""
        return IntervalArray(np.full(n, -_INF), np.full(n, _INF))

    @staticmethod
    def from_intervals(ivs: Iterable[Interval]) -> "IntervalArray":
        """One row per scalar :class:`Interval`, in order."""
        ivs = list(ivs)
        return IntervalArray(
            np.array([iv.lo for iv in ivs], dtype=float),
            np.array([iv.hi for iv in ivs], dtype=float),
        )

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.lo.shape[0])

    def __getitem__(self, i) -> Interval:
        """Row ``i`` as a scalar :class:`Interval`."""
        return Interval(float(self.lo[i]), float(self.hi[i]))

    def copy(self) -> "IntervalArray":
        """An independent copy of the bound arrays."""
        return IntervalArray(self.lo.copy(), self.hi.copy())

    def take(self, idx) -> "IntervalArray":
        """The rows selected by an index array or boolean mask ``idx``."""
        return IntervalArray(self.lo[idx], self.hi[idx])

    def to_intervals(self) -> list[Interval]:
        """Every row as a scalar :class:`Interval`."""
        return [Interval(float(a), float(b)) for a, b in zip(self.lo, self.hi)]

    # ------------------------------------------------------------------
    # Predicates and measures (per row)
    # ------------------------------------------------------------------
    @property
    def is_empty(self) -> np.ndarray:
        """Boolean mask of the empty rows (``lo > hi``)."""
        return self.lo > self.hi

    def width(self) -> np.ndarray:
        """Per-row width ``hi - lo``; 0 for empty and degenerate rows."""
        # lo == hi covers degenerate infinite rows ([inf, inf] from
        # outward rounding past _FLOAT_MAX), whose ``hi - lo`` would be
        # ``inf - inf = NaN`` -- matching the scalar kernel's width().
        degenerate = self.is_empty | (self.lo == self.hi)
        return np.where(degenerate, 0.0, self.hi - self.lo)

    def contains(self, x) -> np.ndarray:
        """Mask of the non-empty rows that contain ``x`` (scalar or per row)."""
        return ~self.is_empty & (self.lo <= x) & (x <= self.hi)

    # ------------------------------------------------------------------
    # Set operations (per row)
    # ------------------------------------------------------------------
    def intersect(self, other: "IntervalArray") -> "IntervalArray":
        """Row-wise intersection; disjoint rows come out empty."""
        return IntervalArray(
            np.maximum(self.lo, other.lo), np.minimum(self.hi, other.hi)
        )

    def hull(self, other: "IntervalArray") -> "IntervalArray":
        """Row-wise hull; empty rows contribute nothing."""
        lo = np.where(self.is_empty, other.lo, np.where(other.is_empty, self.lo,
                      np.minimum(self.lo, other.lo)))
        hi = np.where(self.is_empty, other.hi, np.where(other.is_empty, self.hi,
                      np.maximum(self.hi, other.hi)))
        return IntervalArray(lo, hi)

    def _propagate_empty(self, *sources: "IntervalArray") -> "IntervalArray":
        dead = self.is_empty
        for s in sources:
            dead = dead | s.is_empty
        if np.count_nonzero(dead):
            lo = np.where(dead, _INF, self.lo)
            hi = np.where(dead, -_INF, self.hi)
            return IntervalArray(lo, hi)
        return self

    # ------------------------------------------------------------------
    # Arithmetic (outward rounded, mirrors the scalar kernel)
    # ------------------------------------------------------------------
    def __add__(self, other: "IntervalArray") -> "IntervalArray":
        # Both bounds in one (2, n) TwoSum pass: a bound stays
        # unrounded where the residual vanishes.  A non-finite sum
        # leaves a NaN residual, so it always moves outward.
        a = np.array((self.lo, self.hi))
        b = np.array((other.lo, other.hi))
        s = a + b
        t = s - a
        exact = (a - (s - t)) + (b - t) == 0.0
        out = np.where(exact, s, np.nextafter(s, _OUTWARD))
        return _from_stack(out, self, other)

    def __neg__(self) -> "IntervalArray":
        return IntervalArray(-self.hi, -self.lo)

    def __sub__(self, other: "IntervalArray") -> "IntervalArray":
        return self + (-other)

    def __mul__(self, other: "IntervalArray") -> "IntervalArray":
        # Rows 0-3 of f are the left and rows 4-7 the right factors of
        # the corners p = (al*bl, ah*bl, al*bh, ah*bh) -- the scalar
        # kernel's corners 0, 2, 1, 3, so each pair of its min/max
        # tree (p0 p1)(p2 p3) sits in matching rows of the two halves.
        al, ah, bl, bh = self.lo, self.hi, other.lo, other.hi
        f = np.array((al, ah, al, ah, bl, bl, bh, bh))
        p = f[:4] * f[4:]
        p[np.isnan(p)] = 0.0  # 0 * inf
        exact = _mul_exact(f, p)
        # The bound values come from that tree: the sign of a zero
        # bound depends on it.
        pair_min = np.minimum(p[:2], p[2:])
        pair_max = np.maximum(p[:2], p[2:])
        ext = np.array((np.minimum(pair_min[0], pair_min[1]),
                        np.maximum(pair_max[0], pair_max[1])))
        # A bound stays unrounded only when every corner reaching it
        # is exact: (reaches > exact) marks a corner that reaches it
        # inexactly, and one such corner rounds the bound outward.
        inexact = ((p == ext[:, None]) > exact).any(axis=1)
        out = np.where(inexact, np.nextafter(ext, _OUTWARD), ext)
        return _from_stack(out, self, other)

    def zero_free_inverse(self) -> "IntervalArray":
        """``[down(1/hi), up(1/lo)]``: row-wise 1/self, valid on the rows
        that are non-empty and exclude zero (:meth:`inverse` does the rest)."""
        return IntervalArray(_down(1.0 / self.hi), _up(1.0 / self.lo))

    def inverse(self) -> "IntervalArray":
        """Row-wise 1/self with the scalar kernel's zero-case analysis."""
        lo, hi = self.lo, self.hi
        recip = self.zero_free_inverse()
        # Fast path: every row is non-empty and excludes zero.
        plain = (lo <= hi) & ((lo > 0.0) | (hi < 0.0))
        if np.count_nonzero(plain) == plain.size:
            return recip
        zero_point = (lo == 0.0) & (hi == 0.0)
        zero_at_lo = (lo == 0.0) & ~zero_point
        zero_at_hi = (hi == 0.0) & ~zero_point
        interior = self.contains(0.0) & ~zero_point & ~zero_at_lo & ~zero_at_hi
        out_hi = np.where(zero_at_lo, _INF, recip.hi)
        out_lo = np.where(zero_at_hi, -_INF, recip.lo)
        out_lo = np.where(interior, -_INF, out_lo)
        out_hi = np.where(interior, _INF, out_hi)
        out_lo = np.where(zero_point, _INF, out_lo)
        out_hi = np.where(zero_point, -_INF, out_hi)
        return IntervalArray(out_lo, out_hi)._propagate_empty(self)

    def __truediv__(self, other: "IntervalArray") -> "IntervalArray":
        return (self * other.inverse())._propagate_empty(self, other)

    def __abs__(self) -> "IntervalArray":
        lo = np.where(self.lo >= 0.0, self.lo,
                      np.where(self.hi <= 0.0, -self.hi, 0.0))
        hi = np.where(self.lo >= 0.0, self.hi,
                      np.where(self.hi <= 0.0, -self.lo,
                               np.maximum(-self.lo, self.hi)))
        return IntervalArray(lo, hi)._propagate_empty(self)

    def sqr(self) -> "IntervalArray":
        """Row-wise square (tighter than ``self * self``)."""
        a = abs(self)
        out = IntervalArray(_down(a.lo * a.lo), _up(a.hi * a.hi))
        return out._propagate_empty(self)

    def pow_int(self, n: int) -> "IntervalArray":
        """Integer power with the scalar kernel's monotonicity analysis."""
        n = int(n)
        if n == 0:
            out = IntervalArray.constant(1.0, len(self))
            return out._propagate_empty(self)
        if n < 0:
            return self.pow_int(-n).inverse()._propagate_empty(self)
        if n % 2 == 0:
            a = abs(self)
            out = IntervalArray(_down(a.lo ** n), _up(a.hi ** n))
        else:
            out = IntervalArray(_down(self.lo ** n), _up(self.hi ** n))
        return out._propagate_empty(self)

    def pow_scalar(self, n: float) -> "IntervalArray":
        """``self ** n`` for a fixed real exponent (the scalar ``pow``)."""
        if float(n).is_integer():
            return self.pow_int(int(n))
        n = float(n)
        base = self.intersect(IntervalArray.constant(0.0, len(self)).replace_hi(_INF))
        # rows with base.lo > 0: exp(n * log(base))
        pos = (base.log() * IntervalArray.constant(n, len(self))).exp()
        if n < 0.0:
            # x**n blows up at 0+: zero-touching rows map to
            # [base.hi**n, +inf) -- flooring the base (the old path)
            # capped the upper bound and violated inclusion.  A base
            # of exactly {0} is outside the domain entirely.
            touch = IntervalArray(
                np.maximum(0.0, _down(np.power(base.hi, n))),
                np.full_like(base.hi, _INF),
            )
            at_zero = base.hi == 0.0
        else:
            # rows touching zero: hull with [0, 0] after flooring the base
            floored = IntervalArray(np.maximum(base.lo, 1e-300), base.hi)
            touch = (floored.log() * IntervalArray.constant(n, len(self))).exp()
            touch = IntervalArray(
                np.minimum(touch.lo, 0.0), np.maximum(touch.hi, 0.0)
            )
            at_zero = np.zeros(len(self), dtype=bool)
        zero_lo = base.lo <= 0.0
        lo = np.where(zero_lo, touch.lo, pos.lo)
        hi = np.where(zero_lo, touch.hi, pos.hi)
        dead = zero_lo & at_zero
        lo = np.where(dead, _INF, lo)
        hi = np.where(dead, -_INF, hi)
        return IntervalArray(lo, hi)._propagate_empty(base)

    def replace_hi(self, hi: float) -> "IntervalArray":
        """The same lower bounds with every upper bound set to ``hi``."""
        return IntervalArray(self.lo, np.full_like(self.hi, hi))

    def sqrt(self) -> "IntervalArray":
        """Row-wise square root over the non-negative part of each row."""
        s = self.intersect(IntervalArray(np.zeros_like(self.lo),
                                         np.full_like(self.hi, _INF)))
        out = IntervalArray(_down(np.sqrt(s.lo)), _up(np.sqrt(s.hi)))
        return out._propagate_empty(s)

    def exp(self) -> "IntervalArray":
        """Row-wise exponential (lower bounds clamp at 0)."""
        out = IntervalArray(
            np.maximum(0.0, _down(np.exp(self.lo))), _up(np.exp(self.hi))
        )
        return out._propagate_empty(self)

    def log(self) -> "IntervalArray":
        """Row-wise natural log over the non-negative part of each row."""
        s = self.intersect(IntervalArray(np.zeros_like(self.lo),
                                         np.full_like(self.hi, _INF)))
        lo = np.where(s.lo == 0.0, -_INF, _down(np.log(s.lo)))
        hi = np.where(s.hi == 0.0, -_INF, _up(np.log(s.hi)))
        return IntervalArray.make(lo, hi)._propagate_empty(s)

    def _trig(self, fn, offset: float) -> "IntervalArray":
        """Shared sin/cos enclosure (vectorized ``_periodic_trig``)."""
        two_pi = 2.0 * math.pi
        wide = (self.width() >= two_pi) | ~np.isfinite(self.lo) | ~np.isfinite(self.hi)
        lo_v, hi_v = fn(self.lo), fn(self.hi)
        lo = np.minimum(lo_v, hi_v)
        hi = np.maximum(lo_v, hi_v)
        k_max = np.ceil((self.lo + offset - math.pi / 2.0) / two_pi)
        hit_max = (math.pi / 2.0 - offset) + k_max * two_pi <= self.hi
        k_min = np.ceil((self.lo + offset + math.pi / 2.0) / two_pi)
        hit_min = (-math.pi / 2.0 - offset) + k_min * two_pi <= self.hi
        hi = np.where(hit_max, 1.0, hi)
        lo = np.where(hit_min, -1.0, lo)
        lo = np.where(wide, -1.0, np.maximum(-1.0, _down(lo)))
        hi = np.where(wide, 1.0, np.minimum(1.0, _up(hi)))
        return IntervalArray(lo, hi)._propagate_empty(self)

    def sin(self) -> "IntervalArray":
        """Row-wise sine."""
        return self._trig(np.sin, offset=0.0)

    def cos(self) -> "IntervalArray":
        """Row-wise cosine."""
        return self._trig(np.cos, offset=math.pi / 2.0)

    def tan(self) -> "IntervalArray":
        """Row-wise tangent; rows that reach a pole are the whole line."""
        k_lo = np.floor((self.lo - math.pi / 2.0) / math.pi)
        k_hi = np.floor((self.hi - math.pi / 2.0) / math.pi)
        # ~isfinite guards degenerate infinite rows: [inf, inf] has
        # width 0 and floor(inf) == floor(inf), so neither clause
        # fires and NaN tan bounds would leak through.
        pole = (
            (self.width() >= math.pi)
            | (k_lo != k_hi)
            | ~np.isfinite(self.lo)
            | ~np.isfinite(self.hi)
        )
        lo = np.where(pole, -_INF, _down(np.tan(self.lo)))
        hi = np.where(pole, _INF, _up(np.tan(self.hi)))
        return IntervalArray(lo, hi)._propagate_empty(self)

    def tanh(self) -> "IntervalArray":
        """Row-wise hyperbolic tangent, clamped to ``[-1, 1]``."""
        out = IntervalArray(
            np.maximum(-1.0, _down(np.tanh(self.lo))),
            np.minimum(1.0, _up(np.tanh(self.hi))),
        )
        return out._propagate_empty(self)

    def sigmoid(self) -> "IntervalArray":
        """Row-wise logistic sigmoid, clamped to ``[0, 1]``."""

        def sig(x: np.ndarray) -> np.ndarray:
            # branch exactly like the scalar kernel so results agree
            e = np.exp(np.where(x >= 0, -x, x))
            return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

        out = IntervalArray(
            np.maximum(0.0, _down(sig(self.lo))),
            np.minimum(1.0, _up(sig(self.hi))),
        )
        return out._propagate_empty(self)

    def min_with(self, other: "IntervalArray") -> "IntervalArray":
        """Row-wise ``min(self, other)``."""
        out = IntervalArray(
            np.minimum(self.lo, other.lo), np.minimum(self.hi, other.hi)
        )
        return out._propagate_empty(self, other)

    def max_with(self, other: "IntervalArray") -> "IntervalArray":
        """Row-wise ``max(self, other)``."""
        out = IntervalArray(
            np.maximum(self.lo, other.lo), np.maximum(self.hi, other.hi)
        )
        return out._propagate_empty(self, other)

    def __repr__(self) -> str:
        return f"IntervalArray(n={len(self)})"


class BoxArray:
    """``n`` boxes over one ordered variable tuple, stored as ``(n, dim)``
    ``lo``/``hi`` arrays.  The frontier state of the batched ICP loop."""

    __slots__ = ("names", "lo", "hi", "_index")

    def __init__(self, names: Sequence[str], lo: np.ndarray, hi: np.ndarray):
        self.names = tuple(names)
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        if self.lo.ndim == 1:
            self.lo = self.lo.reshape(1, -1)
            self.hi = self.hi.reshape(1, -1)
        if self.lo.shape != self.hi.shape or self.lo.shape[1] != len(self.names):
            raise ValueError("bound arrays must be (n, dim) matching names")
        self._index = {n: i for i, n in enumerate(self.names)}

    # ------------------------------------------------------------------
    # Constructors / conversion
    # ------------------------------------------------------------------
    @staticmethod
    def from_boxes(boxes: Sequence[Box], names: Sequence[str] | None = None) -> "BoxArray":
        """One row per :class:`Box`, columns in ``names`` order (default:
        the first box's; an empty list needs ``names``)."""
        if names is None:
            if not boxes:
                raise ValueError("empty box list")
            names = boxes[0].names
        names = tuple(names)
        shape = (len(boxes), len(names))
        lo = np.array([[b[k].lo for k in names] for b in boxes], dtype=float)
        hi = np.array([[b[k].hi for k in names] for b in boxes], dtype=float)
        return BoxArray(names, lo.reshape(shape), hi.reshape(shape))

    @staticmethod
    def from_box(box: Box, names: Sequence[str] | None = None) -> "BoxArray":
        """A one-row batch."""
        return BoxArray.from_boxes([box], names)

    def row(self, i: int) -> Box:
        """Row ``i`` as a scalar :class:`Box`."""
        return Box({k: Interval(a, b) for k, a, b
                    in zip(self.names, self.lo[i].tolist(), self.hi[i].tolist())})

    def to_boxes(self) -> list[Box]:
        """Every row as a scalar :class:`Box`."""
        return [self.row(i) for i in range(len(self))]

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.lo.shape[0])

    @property
    def dim(self) -> int:
        """Number of variables (columns)."""
        return int(self.lo.shape[1])

    def copy(self) -> "BoxArray":
        """An independent copy of the bound arrays."""
        return BoxArray(self.names, self.lo.copy(), self.hi.copy())

    def take(self, idx) -> "BoxArray":
        """The rows selected by an index array or boolean mask ``idx``."""
        return BoxArray(self.names, self.lo[idx], self.hi[idx])

    def column(self, name: str) -> IntervalArray:
        """Variable ``name`` over every row, as views of the bounds."""
        j = self._index[name]
        return IntervalArray(self.lo[:, j], self.hi[:, j])

    def with_column(self, name: str, iv: IntervalArray) -> "BoxArray":
        """New BoxArray with ``name`` set to ``iv`` (replacing the column
        when the name exists, appending it otherwise) -- the batched
        analogue of ``Box.merged({name: domain})`` for quantifiers."""
        if name in self._index:
            j = self._index[name]
            lo, hi = self.lo.copy(), self.hi.copy()
            lo[:, j] = iv.lo
            hi[:, j] = iv.hi
            return BoxArray(self.names, lo, hi)
        return BoxArray(
            self.names + (name,),
            np.column_stack([self.lo, iv.lo]),
            np.column_stack([self.hi, iv.hi]),
        )

    # ------------------------------------------------------------------
    # Measures
    # ------------------------------------------------------------------
    @property
    def is_empty(self) -> np.ndarray:
        """Mask of the rows with at least one empty dimension."""
        return (self.lo > self.hi).any(axis=1)

    def widths(self) -> np.ndarray:
        """``(n, dim)`` widths; 0 on empty rows and degenerate infinities."""
        w = self.hi - self.lo
        w[np.isnan(w)] = 0.0
        return np.where(self.is_empty[:, None], 0.0, w)

    def max_width(self) -> np.ndarray:
        """Per-row width of the widest dimension."""
        if self.dim == 0:
            return np.zeros(len(self))
        return self.widths().max(axis=1)

    def total_width(self) -> np.ndarray:
        """Sum of per-dimension widths, clipped like the scalar fixpoint
        loop's progress measure."""
        if self.dim == 0:
            return np.zeros(len(self))
        return np.minimum(self.widths(), 1e9).sum(axis=1)

    # ------------------------------------------------------------------
    # Branching
    # ------------------------------------------------------------------
    def split_widest(self) -> "BoxArray":
        """Bisect every row along its widest dimension.

        Returns a ``(2n, dim)`` BoxArray: rows ``2i`` and ``2i+1`` are the
        two halves of input row ``i`` (cut at the scalar midpoint rule).
        """
        n, d = self.lo.shape
        j = np.argmax(self.widths(), axis=1)
        rows = np.arange(n)
        lo_j, hi_j = self.lo[rows, j], self.hi[rows, j]
        mid = 0.5 * (lo_j + hi_j)
        # scalar Interval.midpoint fallbacks for unbounded/overflowing rows
        mid = np.where(np.isfinite(mid), mid, lo_j + 0.5 * (hi_j - lo_j))
        mid = np.where(np.isfinite(mid), mid,
                       np.where(np.isfinite(lo_j), lo_j + 1.0,
                                np.where(np.isfinite(hi_j), hi_j - 1.0, 0.0)))
        mid = np.minimum(np.maximum(mid, lo_j), hi_j)
        lo2 = np.repeat(self.lo, 2, axis=0)
        hi2 = np.repeat(self.hi, 2, axis=0)
        lo2[1::2, :][rows, j] = mid  # right halves start at the cut
        hi2[0::2, :][rows, j] = mid  # left halves end at the cut
        return BoxArray(self.names, lo2, hi2)

    def __repr__(self) -> str:
        return f"BoxArray(n={len(self)}, dim={self.dim})"
