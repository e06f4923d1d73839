"""Outward-rounded interval arithmetic.

This module is the numerical foundation of the delta-decision procedure
(paper Section III): every term of an ``L_RF`` formula is evaluated over
interval boxes, and the soundness of the whole solver rests on the
*inclusion property* of the operations implemented here -- for any
intervals ``X``, ``Y`` and any reals ``x in X``, ``y in Y``, the result
``op(X, Y)`` must contain ``op(x, y)``.

Directed rounding is emulated with :func:`math.nextafter` bumps: after
computing each bound in double precision we widen it by one ulp in the
outward direction.  That over-approximates true directed rounding, which
is exactly what soundness requires (the enclosure may only get wider).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

__all__ = ["Interval", "EMPTY"]

_INF = math.inf


_FLOAT_MAX = math.nextafter(_INF, 0.0)  # largest finite double


def _down(x: float) -> float:
    """Round ``x`` one ulp toward -inf.

    A *lower* bound of ``+inf`` can only come from overflow of a finite
    quantity (or from a genuinely unbounded one); in both cases the
    largest finite float is a sound lower bound, so we return that --
    otherwise ``[inf, inf]`` enclosures would drop finite huge values.
    """
    if x == _INF:
        return _FLOAT_MAX
    if x == -_INF:
        return x
    return math.nextafter(x, -_INF)


def _up(x: float) -> float:
    """Round ``x`` one ulp toward +inf (dual of :func:`_down`)."""
    if x == -_INF:
        return -_FLOAT_MAX
    if x == _INF:
        return x
    return math.nextafter(x, _INF)


_SPLITTER = 134217729.0  # 2**27 + 1, Dekker splitting constant
# Dekker's residual is exact only when no partial product underflows,
# i.e. e_a + e_b >= -970, which |a*b| >= 2**-969 guarantees.
_MUL_TINY = 2.0 ** -969


def _pow_bound(x: float, n: int) -> float:
    """``x ** n`` with float overflow mapped to the signed infinity.

    CPython's ``float.__pow__`` raises :exc:`OverflowError` where the
    vectorized kernel's ``np.power`` returns ``inf``; the two kernels
    must agree, and a crash is never a sound enclosure.
    """
    try:
        return x ** n
    except OverflowError:
        return -_INF if (x < 0.0 and n % 2) else _INF


def _mul_exact(a: float, b: float, p: float) -> bool:
    """True when ``p == a*b`` exactly (Dekker two-product residual test).

    Where the residual cannot judge -- a split that may overflow, or a
    partial product that may underflow -- only a zero factor is exact.
    """
    if not math.isfinite(p) or abs(a) > 1e150 or abs(b) > 1e150 or abs(p) < _MUL_TINY:
        return p == 0.0 and (a == 0.0 or b == 0.0)
    ca = _SPLITTER * a
    ah = ca - (ca - a)
    al = a - ah
    cb = _SPLITTER * b
    bh = cb - (cb - b)
    bl = b - bh
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return err == 0.0


@dataclass(frozen=True, slots=True)
class Interval:
    """A closed real interval ``[lo, hi]`` with outward-rounded arithmetic.

    The empty interval is represented by ``lo > hi`` (canonically
    ``[+inf, -inf]``, see :data:`EMPTY`).  All arithmetic operations
    satisfy the inclusion property required by interval constraint
    propagation.
    """

    lo: float
    hi: float

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def point(x: float) -> "Interval":
        """Degenerate interval ``[x, x]``; a NaN ``x`` raises :exc:`ValueError`
        (no interval encloses an undefined value)."""
        x = float(x)
        if x != x:
            raise ValueError(f"cannot make a point interval of NaN ({x!r})")
        return Interval(x, x)

    @staticmethod
    def make(lo: float, hi: float) -> "Interval":
        """Interval ``[lo, hi]``; returns :data:`EMPTY` when ``lo > hi``."""
        lo, hi = float(lo), float(hi)
        if lo > hi or math.isnan(lo) or math.isnan(hi):
            return EMPTY
        return Interval(lo, hi)

    @staticmethod
    def entire() -> "Interval":
        """The whole real line ``[-inf, +inf]``."""
        return Interval(-_INF, _INF)

    @staticmethod
    def hull_of(values: Iterable[float]) -> "Interval":
        """Smallest interval containing every value in ``values``."""
        vals = [float(v) for v in values]
        if not vals:
            return EMPTY
        return Interval(min(vals), max(vals))

    # ------------------------------------------------------------------
    # Predicates and measures
    # ------------------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        """True when ``lo > hi`` (the empty interval)."""
        return self.lo > self.hi

    @property
    def is_point(self) -> bool:
        """True for a degenerate interval ``[x, x]``."""
        return self.lo == self.hi

    @property
    def is_bounded(self) -> bool:
        """True when non-empty with both endpoints finite."""
        return not self.is_empty and math.isfinite(self.lo) and math.isfinite(self.hi)

    def width(self) -> float:
        """Diameter ``hi - lo``; 0 for empty and degenerate intervals.

        Degenerate includes infinite endpoints: ``[inf, inf]`` (produced
        deliberately by outward rounding past ``_FLOAT_MAX``) must have
        width 0, not ``inf - inf = NaN`` -- a NaN width poisons the
        widest-first ordering of the ICP frontier heap.
        """
        if self.is_empty or self.lo == self.hi:
            return 0.0
        return self.hi - self.lo

    def midpoint(self) -> float:
        """A finite representative point (midpoint, clipped for unbounded ends)."""
        if self.is_empty:
            raise ValueError("midpoint of empty interval")
        if self.is_bounded:
            mid = 0.5 * (self.lo + self.hi)
            if math.isfinite(mid):
                return mid
            return self.lo + 0.5 * (self.hi - self.lo)
        if math.isfinite(self.lo):
            return self.lo + 1.0
        if math.isfinite(self.hi):
            return self.hi - 1.0
        return 0.0

    def radius(self) -> float:
        """Half the width."""
        return 0.5 * self.width()

    def magnitude(self) -> float:
        """max(|x| : x in self)."""
        if self.is_empty:
            return 0.0
        return max(abs(self.lo), abs(self.hi))

    def contains(self, x: float) -> bool:
        """True when ``x`` lies in the (non-empty) interval."""
        return (not self.is_empty) and self.lo <= x <= self.hi

    def contains_interval(self, other: "Interval") -> bool:
        """True when ``other`` is a subset (the empty set is in every interval)."""
        if other.is_empty:
            return True
        if self.is_empty:
            return False
        return self.lo <= other.lo and other.hi <= self.hi

    def strictly_positive(self) -> bool:
        """Non-empty and every point ``> 0``."""
        return (not self.is_empty) and self.lo > 0.0

    def strictly_negative(self) -> bool:
        """Non-empty and every point ``< 0``."""
        return (not self.is_empty) and self.hi < 0.0

    def nonnegative(self) -> bool:
        """Non-empty and every point ``>= 0``."""
        return (not self.is_empty) and self.lo >= 0.0

    def nonpositive(self) -> bool:
        """Non-empty and every point ``<= 0``."""
        return (not self.is_empty) and self.hi <= 0.0

    def overlaps(self, other: "Interval") -> bool:
        """True when both are non-empty and share a point."""
        if self.is_empty or other.is_empty:
            return False
        return self.lo <= other.hi and other.lo <= self.hi

    # ------------------------------------------------------------------
    # Set operations
    # ------------------------------------------------------------------
    def intersect(self, other: "Interval") -> "Interval":
        """The common part (empty when disjoint)."""
        if self.is_empty or other.is_empty:
            return EMPTY
        return Interval.make(max(self.lo, other.lo), min(self.hi, other.hi))

    def hull(self, other: "Interval") -> "Interval":
        """The smallest interval containing both (empty sides add nothing)."""
        if self.is_empty:
            return other
        if other.is_empty:
            return self
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def split(self, at: float | None = None) -> tuple["Interval", "Interval"]:
        """Bisect at ``at`` (default midpoint) into two overlapping halves."""
        if self.is_empty:
            return EMPTY, EMPTY
        cut = self.midpoint() if at is None else float(at)
        cut = min(max(cut, self.lo), self.hi)
        return Interval(self.lo, cut), Interval(cut, self.hi)

    def inflate(self, eps: float) -> "Interval":
        """Widen by ``eps`` on both sides."""
        if self.is_empty:
            return EMPTY
        return Interval(self.lo - eps, self.hi + eps)

    def clamp(self, lo: float, hi: float) -> "Interval":
        """Intersection with ``[lo, hi]``."""
        return self.intersect(Interval(lo, hi))

    def sample(self, n: int) -> list[float]:
        """``n`` evenly spaced points including endpoints (midpoint when n==1)."""
        if self.is_empty or n <= 0:
            return []
        if n == 1 or self.is_point:
            return [self.midpoint()]
        step = self.width() / (n - 1)
        return [self.lo + i * step for i in range(n)]

    # ------------------------------------------------------------------
    # Arithmetic (outward rounded)
    # ------------------------------------------------------------------
    def __add__(self, other: "Interval | float") -> "Interval":
        if other.__class__ is not Interval:
            other = _as_interval(other)
        if self.lo > self.hi or other.lo > other.hi:
            return EMPTY
        return _add(self.lo, self.hi, other.lo, other.hi)

    __radd__ = __add__

    def __neg__(self) -> "Interval":
        if self.is_empty:
            return EMPTY
        return Interval(-self.hi, -self.lo)

    def __sub__(self, other: "Interval | float") -> "Interval":
        if other.__class__ is not Interval:
            other = _as_interval(other)
        if self.lo > self.hi or other.lo > other.hi:
            return EMPTY
        return _add(self.lo, self.hi, -other.hi, -other.lo)

    def __rsub__(self, other: float) -> "Interval":
        return _as_interval(other) - self

    def __mul__(self, other: "Interval | float") -> "Interval":
        if other.__class__ is not Interval:
            other = _as_interval(other)
        if self.lo > self.hi or other.lo > other.hi:
            return EMPTY
        return _mul(self.lo, self.hi, other.lo, other.hi)

    __rmul__ = __mul__

    def inverse(self) -> "Interval":
        """1/self; returns the entire line when 0 is interior."""
        if self.is_empty:
            return EMPTY
        if self.lo == 0.0 and self.hi == 0.0:
            return EMPTY
        if self.contains(0.0):
            if self.lo == 0.0:
                return Interval(_down(1.0 / self.hi), _INF)
            if self.hi == 0.0:
                return Interval(-_INF, _up(1.0 / self.lo))
            return Interval.entire()
        return Interval(_down(1.0 / self.hi), _up(1.0 / self.lo))

    def __truediv__(self, other: "Interval | float") -> "Interval":
        if other.__class__ is not Interval:
            other = _as_interval(other)
        b0, b1 = other.lo, other.hi
        if self.lo > self.hi or b0 > b1:
            return EMPTY
        if b0 > 0.0 or b1 < 0.0:  # zero-free divisor: the plain reciprocal
            return _mul(self.lo, self.hi, _down(1.0 / b1), _up(1.0 / b0))
        return self * other.inverse()

    def __rtruediv__(self, other: float) -> "Interval":
        return _as_interval(other) / self

    def __abs__(self) -> "Interval":
        if self.is_empty:
            return EMPTY
        if self.lo >= 0.0:
            return self
        if self.hi <= 0.0:
            return -self
        return Interval(0.0, max(-self.lo, self.hi))

    def sqr(self) -> "Interval":
        """Square (tighter than ``self * self``: never negative)."""
        a = abs(self)
        if a.is_empty:
            return EMPTY
        return Interval(_down(a.lo * a.lo), _up(a.hi * a.hi))

    def pow(self, n: int | float) -> "Interval":
        """``self ** n``.  Integer exponents use exact monotonicity case
        analysis; fractional exponents require a nonnegative base."""
        if self.is_empty:
            return EMPTY
        if isinstance(n, int) or (isinstance(n, float) and n.is_integer()):
            n = int(n)
            if n == 0:
                return Interval.point(1.0)
            if n < 0:
                return self.pow(-n).inverse()
            if n % 2 == 0:
                a = abs(self)
                return Interval(_down(_pow_bound(a.lo, n)), _up(_pow_bound(a.hi, n)))
            return Interval(
                _down(_pow_bound(self.lo, n)), _up(_pow_bound(self.hi, n))
            )
        base = self.intersect(Interval(0.0, _INF))
        if base.is_empty:
            return EMPTY
        if base.lo > 0.0:
            return (base.log() * _as_interval(n)).exp()
        if n < 0.0:
            # x**n blows up at 0+: a zero-touching base maps to
            # [base.hi**n, +inf) -- capping the upper bound (the old
            # log/exp path floored the base at 1e-300, i.e. capped the
            # result near 1e150*|n|) violates inclusion.
            if base.hi == 0.0:
                return EMPTY
            return Interval(max(0.0, _down(math.pow(base.hi, n))), _INF)
        return Interval(0.0, 0.0).hull(
            (Interval(max(base.lo, 1e-300), base.hi).log() * _as_interval(n)).exp()
        )

    def __pow__(self, n: int | float) -> "Interval":
        return self.pow(n)

    def sqrt(self) -> "Interval":
        """Square root over the non-negative part."""
        s = self.intersect(Interval(0.0, _INF))
        if s.is_empty:
            return EMPTY
        return Interval(_down(math.sqrt(s.lo)), _up(math.sqrt(s.hi)))

    def exp(self) -> "Interval":
        """Exponential; an overflowing bound becomes ``+inf``."""
        if self.is_empty:
            return EMPTY
        try:
            lo = math.exp(self.lo)
        except OverflowError:
            lo = _INF
        try:
            hi = math.exp(self.hi)
        except OverflowError:
            hi = _INF
        return Interval(max(0.0, _down(lo)), _up(hi))

    def log(self) -> "Interval":
        """Natural log over the non-negative part (``log 0 = -inf``)."""
        s = self.intersect(Interval(0.0, _INF))
        if s.is_empty:
            return EMPTY
        lo = -_INF if s.lo == 0.0 else _down(math.log(s.lo))
        hi = -_INF if s.hi == 0.0 else _up(math.log(s.hi))
        return Interval.make(lo, hi)

    def sin(self) -> "Interval":
        """Sine, with the extrema the interval crosses."""
        return _periodic_trig(self, math.sin, offset=0.0)

    def cos(self) -> "Interval":
        """Cosine, with the extrema the interval crosses."""
        return _periodic_trig(self, math.cos, offset=math.pi / 2.0)

    def tan(self) -> "Interval":
        """Tangent; the whole line when a pole lies inside."""
        if self.is_empty:
            return EMPTY
        if not self.is_bounded or self.width() >= math.pi:
            return Interval.entire()
        # A pole x = pi/2 + k*pi lies inside?
        k_lo = math.floor((self.lo - math.pi / 2.0) / math.pi)
        k_hi = math.floor((self.hi - math.pi / 2.0) / math.pi)
        if k_lo != k_hi:
            return Interval.entire()
        return Interval(_down(math.tan(self.lo)), _up(math.tan(self.hi)))

    def tanh(self) -> "Interval":
        """Hyperbolic tangent, clamped to ``[-1, 1]``."""
        if self.is_empty:
            return EMPTY
        return Interval(
            max(-1.0, _down(math.tanh(self.lo))),
            min(1.0, _up(math.tanh(self.hi))),
        )

    def sigmoid(self) -> "Interval":
        """Logistic function 1 / (1 + exp(-x)), monotone increasing."""
        if self.is_empty:
            return EMPTY

        def sig(x: float) -> float:
            if x >= 0:
                return 1.0 / (1.0 + math.exp(-x))
            e = math.exp(x)
            return e / (1.0 + e)

        return Interval(max(0.0, _down(sig(self.lo))), min(1.0, _up(sig(self.hi))))

    def min_with(self, other: "Interval | float") -> "Interval":
        """Enclosure of ``min(x, y)`` over both intervals."""
        other = _as_interval(other)
        if self.is_empty or other.is_empty:
            return EMPTY
        return Interval(min(self.lo, other.lo), min(self.hi, other.hi))

    def max_with(self, other: "Interval | float") -> "Interval":
        """Enclosure of ``max(x, y)`` over both intervals."""
        other = _as_interval(other)
        if self.is_empty or other.is_empty:
            return EMPTY
        return Interval(max(self.lo, other.lo), max(self.hi, other.hi))

    # ------------------------------------------------------------------
    # Dunder utilities
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[float]:
        yield self.lo
        yield self.hi

    def __repr__(self) -> str:
        if self.is_empty:
            return "Interval(EMPTY)"
        return f"Interval({self.lo:.6g}, {self.hi:.6g})"


EMPTY = Interval(_INF, -_INF)
"""The canonical empty interval."""


def _as_interval(x: "Interval | float") -> Interval:
    if isinstance(x, Interval):
        return x
    return Interval.point(float(x))


def _add(a0: float, a1: float, b0: float, b1: float) -> Interval:
    """``[a0, a1] + [b0, b1]`` for non-empty operands.

    A bound stays unrounded where the TwoSum residual vanishes (the sum
    is exact) and otherwise moves one ulp outward.  A non-finite sum
    leaves a NaN residual, so it always moves, and ``nextafter`` then
    agrees with :func:`_down` / :func:`_up` (``+inf`` lowers to the
    largest finite double).
    """
    s = a0 + b0
    t = s - a0
    lo = s if (a0 - (s - t)) + (b0 - t) == 0.0 else math.nextafter(s, -_INF)
    s = a1 + b1
    t = s - a1
    hi = s if (a1 - (s - t)) + (b1 - t) == 0.0 else math.nextafter(s, _INF)
    return Interval(lo, hi)


def _mul(a0: float, a1: float, b0: float, b1: float) -> Interval:
    """``[a0, a1] * [b0, b1]`` for non-empty operands.

    Each bound is the *first* corner, in the order ``(a0*b0, a0*b1,
    a1*b0, a1*b1)``, to reach the extreme -- what ``min``/``max`` pick --
    so a zero bound keeps that corner's sign.  A bound stays unrounded
    only when every corner reaching it is exact: an inexact corner that
    rounds onto an exact one's value still hides a true product beyond
    it.  A point factor makes two corners the same product, so they share
    one exactness test, and the ``or`` chains stop at the first inexact
    corner.
    """
    p0 = a0 * b0
    p1 = a0 * b1
    p2 = a1 * b0
    p3 = a1 * b1
    # 0 * inf
    if p0 != p0:
        p0 = 0.0
    if p1 != p1:
        p1 = 0.0
    if p2 != p2:
        p2 = 0.0
    if p3 != p3:
        p3 = 0.0
    lo = hi = p0
    if p1 < lo:
        lo = p1
    elif p1 > hi:
        hi = p1
    if p2 < lo:
        lo = p2
    elif p2 > hi:
        hi = p2
    if p3 < lo:
        lo = p3
    elif p3 > hi:
        hi = p3
    wide_a = a0 != a1
    wide_b = b0 != b1
    wide = wide_a and wide_b
    if (
        (p0 == lo and not _mul_exact(a0, b0, p0))
        or (wide_b and p1 == lo and not _mul_exact(a0, b1, p1))
        or (wide_a and p2 == lo and not _mul_exact(a1, b0, p2))
        or (wide and p3 == lo and not _mul_exact(a1, b1, p3))
    ):
        if lo == hi:  # every corner reaches both bounds
            return Interval(_down(lo), _up(hi))
        lo = _down(lo)
    elif lo == hi:
        return Interval(lo, hi)
    if (
        (p0 == hi and not _mul_exact(a0, b0, p0))
        or (wide_b and p1 == hi and not _mul_exact(a0, b1, p1))
        or (wide_a and p2 == hi and not _mul_exact(a1, b0, p2))
        or (wide and p3 == hi and not _mul_exact(a1, b1, p3))
    ):
        hi = _up(hi)
    return Interval(lo, hi)


def _periodic_trig(iv: Interval, fn, offset: float) -> Interval:
    """Enclosure of sin (offset=0) / cos (offset=pi/2) over ``iv``.

    The extrema of sin occur at pi/2 + k*pi; shifting by ``offset`` maps
    the cos case onto the sin analysis.
    """
    if iv.is_empty:
        return EMPTY
    if iv.width() >= 2.0 * math.pi or not iv.is_bounded:
        return Interval(-1.0, 1.0)
    lo_v, hi_v = fn(iv.lo), fn(iv.hi)
    lo, hi = min(lo_v, hi_v), max(lo_v, hi_v)
    # check whether a max point (x where sin'(x+offset)=0 and value=+1)
    # i.e. x + offset = pi/2 + 2k*pi falls inside iv
    two_pi = 2.0 * math.pi
    k_max = math.ceil((iv.lo + offset - math.pi / 2.0) / two_pi)
    if (math.pi / 2.0 - offset) + k_max * two_pi <= iv.hi:
        hi = 1.0
    k_min = math.ceil((iv.lo + offset + math.pi / 2.0) / two_pi)
    if (-math.pi / 2.0 - offset) + k_min * two_pi <= iv.hi:
        lo = -1.0
    return Interval(max(-1.0, _down(lo)), min(1.0, _up(hi)))
