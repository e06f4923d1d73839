"""Interval edge cases, exercised through BOTH kernels.

Every case is checked against the scalar :class:`Interval` and the
vectorized :class:`IntervalArray`: EMPTY propagation, unbounded (+/-inf)
operands, division through zero, and outward-rounding monotonicity.
"""

import math

import numpy as np
import pytest

from repro.intervals import EMPTY, Interval, IntervalArray

#: ops run under the caller's error state (see conftest.py)
pytestmark = pytest.mark.usefixtures("kernel_errstate")

INF = math.inf


def batch1(iv: Interval) -> IntervalArray:
    return IntervalArray.from_intervals([iv])


def as_interval(ia: IntervalArray, i: int = 0) -> Interval:
    return Interval(float(ia.lo[i]), float(ia.hi[i]))


def both(op_scalar, op_vector, *operands: Interval) -> tuple[Interval, Interval]:
    """Apply an operation through each kernel, returning both results."""
    s = op_scalar(*operands)
    v = as_interval(op_vector(*[batch1(o) for o in operands]))
    return s, v


BINOPS = [
    ("add", lambda a, b: a + b),
    ("sub", lambda a, b: a - b),
    ("mul", lambda a, b: a * b),
    ("div", lambda a, b: a / b),
    ("min", lambda a, b: a.min_with(b)),
    ("max", lambda a, b: a.max_with(b)),
]

UNOPS = [
    ("neg", lambda a: -a),
    ("abs", abs),
    ("sqr", lambda a: a.sqr()),
    ("sqrt", lambda a: a.sqrt()),
    ("exp", lambda a: a.exp()),
    ("log", lambda a: a.log()),
    ("sin", lambda a: a.sin()),
    ("cos", lambda a: a.cos()),
    ("tan", lambda a: a.tan()),
    ("tanh", lambda a: a.tanh()),
    ("sigmoid", lambda a: a.sigmoid()),
    ("inverse", lambda a: a.inverse()),
]


class TestEmptyPropagation:
    @pytest.mark.parametrize("name,op", BINOPS, ids=[n for n, _ in BINOPS])
    def test_binary_empty_operand(self, name, op):
        other = Interval(1.0, 2.0)
        for args in [(EMPTY, other), (other, EMPTY), (EMPTY, EMPTY)]:
            s, v = both(op, op, *args)
            assert s.is_empty, name
            assert v.is_empty, name

    @pytest.mark.parametrize("name,op", UNOPS, ids=[n for n, _ in UNOPS])
    def test_unary_empty_operand(self, name, op):
        s, v = both(op, op, EMPTY)
        assert s.is_empty, name
        assert v.is_empty, name

    def test_pow_empty(self):
        for n in (0, 1, 2, 3, -2):
            assert EMPTY.pow(n).is_empty
            assert bool(batch1(EMPTY).pow_int(n).is_empty[0])

    def test_empty_measures(self):
        assert EMPTY.width() == 0.0
        ia = batch1(EMPTY)
        assert ia.width()[0] == 0.0
        assert not ia.contains(0.0)[0]


class TestUnboundedOperands:
    CASES = [
        (Interval(0.0, INF), Interval(1.0, 2.0)),
        (Interval(-INF, 0.0), Interval(-2.0, 5.0)),
        (Interval(-INF, INF), Interval(0.5, 1.5)),
        (Interval(-INF, INF), Interval(-INF, INF)),
        (Interval(3.0, INF), Interval(-INF, -1.0)),
    ]

    @pytest.mark.parametrize("name,op", BINOPS, ids=[n for n, _ in BINOPS])
    def test_binary_agree(self, name, op):
        for a, b in self.CASES:
            s, v = both(op, op, a, b)
            assert (s.is_empty and v.is_empty) or (s.lo, s.hi) == (v.lo, v.hi), (
                f"{name}({a}, {b}): scalar {s}, vector {v}"
            )

    @pytest.mark.parametrize("name,op", UNOPS, ids=[n for n, _ in UNOPS])
    def test_unary_agree(self, name, op):
        for a, _ in self.CASES:
            s, v = both(op, op, a)
            assert (s.is_empty and v.is_empty) or (s.lo, s.hi) == (v.lo, v.hi), (
                f"{name}({a}): scalar {s}, vector {v}"
            )

    def test_lower_bound_of_overflowed_sum_stays_finite(self):
        # [big, inf] + [big, inf]: the lo bound overflows to inf and must
        # clamp back to the largest finite double in both kernels.
        big = 1.5e308
        a = Interval(big, INF)
        s = a + a
        v = as_interval(batch1(a) + batch1(a))
        assert s.lo == v.lo == math.nextafter(INF, 0.0)
        assert s.hi == v.hi == INF

    def test_entire_line_trig(self):
        e = Interval.entire()
        assert (e.sin().lo, e.sin().hi) == (-1.0, 1.0)
        ve = batch1(e).sin()
        assert (ve.lo[0], ve.hi[0]) == (-1.0, 1.0)


class TestDivisionThroughZero:
    def test_zero_interior_gives_entire(self):
        num, den = Interval(1.0, 2.0), Interval(-1.0, 1.0)
        s = num / den
        v = as_interval(batch1(num) / batch1(den))
        assert (s.lo, s.hi) == (-INF, INF)
        assert (v.lo, v.hi) == (-INF, INF)

    def test_zero_at_lo_gives_half_line(self):
        num, den = Interval(1.0, 2.0), Interval(0.0, 1.0)
        s = num / den
        v = as_interval(batch1(num) / batch1(den))
        assert (s.lo, s.hi) == (v.lo, v.hi)
        assert s.lo == pytest.approx(1.0, abs=1e-12) and s.hi == INF

    def test_zero_at_hi_gives_half_line(self):
        num, den = Interval(1.0, 2.0), Interval(-1.0, 0.0)
        s = num / den
        v = as_interval(batch1(num) / batch1(den))
        assert (s.lo, s.hi) == (v.lo, v.hi)
        assert s.lo == -INF and s.hi == pytest.approx(-1.0, abs=1e-12)

    def test_division_by_zero_point_is_empty(self):
        num, den = Interval(1.0, 2.0), Interval(0.0, 0.0)
        assert (num / den).is_empty
        assert bool((batch1(num) / batch1(den)).is_empty[0])

    def test_zero_over_zero_spanning(self):
        num, den = Interval(0.0, 0.0), Interval(-1.0, 1.0)
        s = num / den
        v = as_interval(batch1(num) / batch1(den))
        assert (s.lo, s.hi) == (v.lo, v.hi) == (0.0, 0.0)


class TestOutwardRoundingMonotonicity:
    """Outward rounding may only widen: results contain the exact value
    and bumped bounds move monotonically outward."""

    def test_bounds_bracket_exact_value(self):
        # 0.1 + 0.2 is inexact in binary; both kernels must bracket it
        a, b = Interval.point(0.1), Interval.point(0.2)
        s = a + b
        v = as_interval(batch1(a) + batch1(b))
        exact = 0.30000000000000001665334536937735  # 0.1+0.2 over the reals
        assert s.lo < exact < s.hi
        assert v.lo < exact < v.hi
        assert (s.lo, s.hi) == (v.lo, v.hi)

    def test_exact_sums_not_widened(self):
        # representable sums stay points in both kernels (TwoSum residual)
        a, b = Interval.point(0.25), Interval.point(0.5)
        s = a + b
        v = as_interval(batch1(a) + batch1(b))
        assert s.lo == s.hi == 0.75
        assert v.lo == v.hi == 0.75

    def test_exact_products_not_widened(self):
        a, b = Interval.point(3.0), Interval.point(0.125)
        s = a * b
        v = as_interval(batch1(a) * batch1(b))
        assert s.lo == s.hi == 0.375
        assert v.lo == v.hi == 0.375

    def test_inexact_products_widened_one_ulp(self):
        a, b = Interval.point(0.1), Interval.point(0.3)
        s = a * b
        v = as_interval(batch1(a) * batch1(b))
        assert (s.lo, s.hi) == (v.lo, v.hi)
        p = 0.1 * 0.3  # inexact: both bounds bump one ulp outward
        assert s.lo == math.nextafter(p, -INF)
        assert s.hi == math.nextafter(p, INF)

    def test_repeated_ops_monotone(self):
        # iterating x -> x + 0.1 can only keep or grow the enclosure width
        s = Interval.point(0.0)
        v = IntervalArray.point(np.zeros(1))
        tenth_s = Interval.point(0.1)
        tenth_v = IntervalArray.point(np.full(1, 0.1))
        w_prev_s = w_prev_v = -1.0
        for _ in range(50):
            s = s + tenth_s
            v = v + tenth_v
            assert s.width() >= w_prev_s >= -1.0
            assert float(v.width()[0]) >= w_prev_v
            w_prev_s, w_prev_v = s.width(), float(v.width()[0])
        assert (s.lo, s.hi) == (float(v.lo[0]), float(v.hi[0]))

    def test_width_never_shrinks_under_rounding(self):
        # lo is rounded down, hi up: op([a,a],[b,b]) width is >= 0 and
        # bounds sandwich the double result
        for (x, y) in [(1e-300, 1e300), (3.3, 7.7), (-2.5, 1e-8)]:
            s = Interval.point(x) * Interval.point(y)
            v = as_interval(batch1(Interval.point(x)) * batch1(Interval.point(y)))
            assert s.lo <= x * y <= s.hi
            assert v.lo <= x * y <= v.hi
            assert s.width() >= 0.0 and v.width() >= 0.0


class TestWidthOrdering:
    """Regression: widths feed the widest-first heaps of the solver, so
    they must be totally ordered floats -- an ``inf - inf = NaN`` width
    (boxes with one endpoint pushed past the float range by outward
    rounding) used to poison every heap comparison after it."""

    def test_doubly_infinite_endpoint_width_is_zero(self):
        # [inf, inf] is a degenerate point at infinity, not a NaN width
        assert Interval(INF, INF).width() == 0.0
        assert Interval(-INF, -INF).width() == 0.0
        assert batch1(Interval(INF, INF)).width()[0] == 0.0

    def test_half_infinite_width_is_inf(self):
        assert Interval(2.0, INF).width() == INF
        assert Interval(-INF, 2.0).width() == INF
        assert Interval(-INF, INF).width() == INF
        assert batch1(Interval(2.0, INF)).width()[0] == INF

    def test_no_nan_widths_in_batch(self):
        ia = IntervalArray.from_intervals([
            Interval(INF, INF), Interval(-INF, -INF), Interval(1.0, INF),
            Interval(-INF, INF), EMPTY, Interval(0.0, 1.0),
        ])
        w = ia.width()
        assert not np.isnan(w).any()
        assert list(w) == [0.0, 0.0, INF, INF, 0.0, 1.0]

    def test_box_max_width_never_nan(self):
        from repro.intervals import BoxArray

        lo = np.array([[0.0, INF], [0.0, 0.0]])
        hi = np.array([[1.0, INF], [2.0, 0.5]])
        boxes = BoxArray(("x", "y"), lo, hi)
        w = boxes.max_width()
        assert not np.isnan(w).any()
        # the [inf, inf] dimension is degenerate: row 0's width is its
        # finite x-extent, so widest-first ordering picks row 1 first
        assert list(w) == [1.0, 2.0]
        assert sorted(range(2), key=lambda i: -w[i]) == [1, 0]

    def test_heap_ordering_is_well_defined(self):
        import heapq

        widths = [
            Interval(INF, INF).width(),
            Interval(0.0, 3.0).width(),
            Interval(-INF, INF).width(),
            Interval(1.0, 1.0).width(),
        ]
        heap = [(-w, i) for i, w in enumerate(widths)]
        heapq.heapify(heap)
        order = [heapq.heappop(heap)[1] for _ in range(len(heap))]
        assert order == [2, 1, 0, 3]  # entire line first, points last


class TestPowDomainEdges:
    """Regression: fractional/integer pow at domain boundaries, checked
    identically through both kernels."""

    @staticmethod
    def _pow_both(iv: Interval, n) -> tuple[Interval, Interval]:
        ia = batch1(iv)
        v = ia.pow_int(n) if isinstance(n, int) else ia.pow_scalar(n)
        return iv.pow(n), as_interval(v)

    def test_zero_pow_zero_is_one(self):
        s, v = self._pow_both(Interval(0.0, 0.0), 0)
        assert (s.lo, s.hi) == (v.lo, v.hi) == (1.0, 1.0)

    def test_negative_base_fractional_exponent_is_empty(self):
        s, v = self._pow_both(Interval(-2.0, -1.0), 0.5)
        assert s.is_empty and v.is_empty

    def test_zero_base_negative_fractional_exponent_is_empty(self):
        s, v = self._pow_both(Interval(0.0, 0.0), -1.5)
        assert s.is_empty and v.is_empty

    def test_zero_crossing_base_clips_to_domain(self):
        # [-1, 4] ** 0.5: the negative part leaves the real domain, the
        # rest must still bracket sqrt on [0, 4]
        s, v = self._pow_both(Interval(-1.0, 4.0), 0.5)
        assert (s.lo, s.hi) == (v.lo, v.hi)
        assert s.lo == 0.0 and s.hi >= 2.0

    def test_zero_touching_negative_exponent_unbounded(self):
        # [0, 4] ** -0.5 blows up at 0: the result must contain every
        # x**-0.5 for x in (0, 4], e.g. 10.0 at x = 0.01
        s, v = self._pow_both(Interval(0.0, 4.0), -0.5)
        assert (s.lo, s.hi) == (v.lo, v.hi)
        assert s.hi == INF and s.lo <= 0.5
        assert s.contains(10.0)

    def test_huge_base_integer_pow_saturates(self):
        # 1e200 ** 3 overflows the double range; the bound must saturate
        # to inf instead of raising OverflowError
        s, v = self._pow_both(Interval(1e200, 1e200), 3)
        assert (s.hi, v.hi) == (INF, INF)
        assert s.lo == v.lo == math.nextafter(INF, 0.0)

    def test_infinite_point_base_even_pow(self):
        s, v = self._pow_both(Interval(INF, INF), 2)
        assert (s.lo, s.hi) == (v.lo, v.hi)
        assert s.hi == INF and not s.is_empty

    def test_inclusion_across_fractional_exponents(self):
        # dense member-point inclusion sweep over the bugfixed branches
        rngs = [(-3.0, 5.0), (0.0, 2.0), (1e-8, 1e8), (-1.0, 0.0)]
        for n in (0.5, 1.5, 2.5, -0.5, -1.5):
            for lo, hi in rngs:
                iv = Interval(lo, hi)
                s, v = self._pow_both(iv, n)
                for x in np.linspace(lo, hi, 25):
                    # only member points inside the real domain of x**n
                    if x < 0 or (x == 0 and n < 0):
                        continue
                    y = x ** n
                    assert s.is_empty or (s.lo <= y <= s.hi), (n, lo, hi, x)
                    assert v.is_empty or (v.lo <= y <= v.hi), (n, lo, hi, x)
