"""Unit tests for repro.intervals.Interval."""

import math
import random
import struct
from fractions import Fraction

import pytest

from repro.expr import Var
from repro.intervals import EMPTY, Interval, IntervalArray


class TestConstruction:
    def test_point(self):
        iv = Interval.point(3.0)
        assert iv.lo == iv.hi == 3.0
        assert iv.is_point

    def test_make_ordered(self):
        iv = Interval.make(1.0, 2.0)
        assert (iv.lo, iv.hi) == (1.0, 2.0)

    def test_make_inverted_is_empty(self):
        assert Interval.make(2.0, 1.0).is_empty

    def test_make_nan_is_empty(self):
        assert Interval.make(math.nan, 1.0).is_empty

    def test_entire(self):
        iv = Interval.entire()
        assert iv.lo == -math.inf and iv.hi == math.inf
        assert not iv.is_bounded

    def test_hull_of(self):
        assert Interval.hull_of([3.0, -1.0, 2.0]) == Interval(-1.0, 3.0)
        assert Interval.hull_of([]).is_empty


class TestPredicates:
    def test_contains(self):
        iv = Interval(1.0, 2.0)
        assert iv.contains(1.0) and iv.contains(2.0) and iv.contains(1.5)
        assert not iv.contains(0.999)

    def test_empty_contains_nothing(self):
        assert not EMPTY.contains(0.0)

    def test_contains_interval(self):
        assert Interval(0, 10).contains_interval(Interval(1, 2))
        assert not Interval(1, 2).contains_interval(Interval(0, 10))
        assert Interval(1, 2).contains_interval(EMPTY)

    def test_sign_predicates(self):
        assert Interval(1, 2).strictly_positive()
        assert Interval(-2, -1).strictly_negative()
        assert Interval(0, 2).nonnegative()
        assert not Interval(0, 2).strictly_positive()
        assert Interval(-2, 0).nonpositive()

    def test_overlaps(self):
        assert Interval(0, 2).overlaps(Interval(1, 3))
        assert Interval(0, 1).overlaps(Interval(1, 2))  # touching counts
        assert not Interval(0, 1).overlaps(Interval(2, 3))


class TestMeasures:
    def test_width_midpoint(self):
        iv = Interval(1.0, 3.0)
        assert iv.width() == 2.0
        assert iv.midpoint() == 2.0

    def test_midpoint_unbounded(self):
        assert Interval(0.0, math.inf).midpoint() == 1.0
        assert Interval(-math.inf, 0.0).midpoint() == -1.0
        assert Interval.entire().midpoint() == 0.0

    def test_midpoint_empty_raises(self):
        with pytest.raises(ValueError):
            EMPTY.midpoint()

    def test_magnitude_mignitude(self):
        assert Interval(-3, 2).magnitude() == 3.0


class TestSetOps:
    def test_intersect(self):
        assert Interval(0, 2).intersect(Interval(1, 3)) == Interval(1, 2)
        assert Interval(0, 1).intersect(Interval(2, 3)).is_empty

    def test_hull(self):
        assert Interval(0, 1).hull(Interval(2, 3)) == Interval(0, 3)
        assert EMPTY.hull(Interval(1, 2)) == Interval(1, 2)

    def test_split(self):
        left, right = Interval(0, 2).split()
        assert left == Interval(0, 1) and right == Interval(1, 2)

    def test_split_at(self):
        left, right = Interval(0, 2).split(at=0.5)
        assert left == Interval(0, 0.5) and right == Interval(0.5, 2)

    def test_split_clamps_cut(self):
        left, right = Interval(0, 2).split(at=5.0)
        assert left == Interval(0, 2) and right == Interval(2, 2)

    def test_inflate(self):
        assert Interval(1, 2).inflate(0.5) == Interval(0.5, 2.5)

    def test_sample(self):
        pts = Interval(0, 1).sample(3)
        assert pts == [0.0, 0.5, 1.0]
        assert Interval(0, 1).sample(1) == [0.5]
        assert EMPTY.sample(5) == []


class TestArithmetic:
    def test_add(self):
        r = Interval(1, 2) + Interval(3, 4)
        assert r.lo <= 4.0 <= 6.0 <= r.hi
        assert r.width() < 3.0 + 1e-9

    def test_add_scalar(self):
        r = Interval(1, 2) + 1.0
        assert r.contains(2.0) and r.contains(3.0)

    def test_sub(self):
        r = Interval(1, 2) - Interval(0.5, 1.0)
        assert r.contains(0.0) and r.contains(1.5)

    def test_neg(self):
        assert -Interval(1, 2) == Interval(-2, -1)

    def test_mul_signs(self):
        assert (Interval(-1, 2) * Interval(3, 4)).contains(-4.0)
        assert (Interval(-1, 2) * Interval(3, 4)).contains(8.0)
        assert (Interval(-2, -1) * Interval(-3, -2)).contains(2.0)

    def test_mul_zero_inf(self):
        r = Interval(0, 0) * Interval.entire()
        assert r.contains(0.0)

    def test_mul_tie_with_inexact_corner_rounds_outward(self):
        # al*bl = 553340066220 is exact; ah*bh = 5533400662200 * 0.1 rounds
        # to the same double but its exact value is ~3e-5 larger.  The
        # first corner reaching the maximum is the exact one, so a rule
        # that tests only that corner returned the bound unrounded.
        X, Y = Interval(-542988, 5533400662200), Interval(-1019065, 0.1)
        corners = [Fraction(a) * Fraction(b) for a in (X.lo, X.hi) for b in (Y.lo, Y.hi)]
        scalar = X * Y
        batched = IntervalArray.from_intervals([X]) * IntervalArray.from_intervals([Y])
        for lo, hi in ((scalar.lo, scalar.hi), (batched.lo[0], batched.hi[0])):
            assert Fraction(float(lo)) <= min(corners)
            assert max(corners) <= Fraction(float(hi))
        assert (batched.lo[0], batched.hi[0]) == (scalar.lo, scalar.hi)

    def test_mul_underflowing_corner_rounds_outward(self):
        # 5e-324 * 0.5 is 2**-1075 exactly but rounds to 0; so does the
        # Dekker residual's ah*bh, which made the zero product look exact.
        X, Y = Interval(5e-324, 5e-324), Interval(0.5, 0.5)
        true = Fraction(5e-324) * Fraction(0.5)
        scalar = X * Y
        batched = IntervalArray.from_intervals([X]) * IntervalArray.from_intervals([Y])
        for lo, hi in ((scalar.lo, scalar.hi), (batched.lo[0], batched.hi[0])):
            assert Fraction(float(lo)) <= true <= Fraction(float(hi))
        assert (batched.lo[0], batched.hi[0]) == (scalar.lo, scalar.hi)

    def test_div(self):
        r = Interval(1, 2) / Interval(2, 4)
        assert r.contains(0.25) and r.contains(1.0)

    def test_div_by_zero_spanning(self):
        r = Interval(1, 2) / Interval(-1, 1)
        assert not r.is_bounded

    def test_inverse_half_lines(self):
        r = Interval(0, 2).inverse()
        assert r.contains(0.5) and r.hi == math.inf
        r2 = Interval(-2, 0).inverse()
        assert r2.contains(-0.5) and r2.lo == -math.inf

    def test_inverse_of_zero_point_is_empty(self):
        assert Interval.point(0.0).inverse().is_empty

    def test_abs(self):
        assert abs(Interval(-3, 2)) == Interval(0, 3)
        assert abs(Interval(1, 2)) == Interval(1, 2)
        assert abs(Interval(-2, -1)) == Interval(1, 2)

    def test_sqr_even_power(self):
        r = Interval(-2, 3).sqr()
        assert r.lo <= 0.0 and r.contains(9.0) and not r.contains(-0.1)

    def test_pow_odd(self):
        r = Interval(-2, 2).pow(3)
        assert r.contains(-8.0) and r.contains(8.0)

    def test_pow_zero(self):
        assert Interval(-5, 5).pow(0) == Interval.point(1.0)

    def test_pow_negative(self):
        r = Interval(2, 4).pow(-1)
        assert r.contains(0.25) and r.contains(0.5)

    def test_pow_fractional(self):
        r = Interval(4, 9).pow(0.5)
        assert r.contains(2.0) and r.contains(3.0)

    def test_sqrt(self):
        r = Interval(4, 9).sqrt()
        assert r.contains(2.0) and r.contains(3.0)
        assert Interval(-4, -1).sqrt().is_empty
        # negative part is clipped
        assert Interval(-1, 4).sqrt().contains(0.0)


class TestTranscendental:
    def test_exp_log_roundtrip(self):
        iv = Interval(0.5, 2.0)
        r = iv.exp().log()
        assert r.contains_interval(Interval(0.5 + 1e-12, 2.0 - 1e-12))

    def test_exp_overflow(self):
        r = Interval(700, 800).exp()
        assert r.hi == math.inf

    def test_log_domain(self):
        assert Interval(-2, -1).log().is_empty
        r = Interval(0, 1).log()
        assert r.lo == -math.inf and r.contains(0.0)

    def test_sin_small(self):
        r = Interval(0.0, 0.1).sin()
        assert r.contains(0.0) and r.contains(math.sin(0.1))

    def test_sin_captures_max(self):
        r = Interval(0.0, math.pi).sin()
        assert r.hi >= 1.0 - 1e-12

    def test_sin_captures_min(self):
        r = Interval(math.pi, 2 * math.pi).sin()
        assert r.lo <= -1.0 + 1e-12

    def test_sin_wide(self):
        assert Interval(0, 100).sin() == Interval(-1, 1)

    def test_cos_captures_extrema(self):
        r = Interval(0.0, math.pi).cos()
        assert r.hi >= 1.0 - 1e-12 and r.lo <= -1.0 + 1e-12

    def test_cos_small(self):
        r = Interval(1.0, 1.5).cos()
        assert r.contains(math.cos(1.2))

    def test_tan_monotone_branch(self):
        r = Interval(-0.5, 0.5).tan()
        assert r.contains(math.tan(0.3)) and r.is_bounded

    def test_tan_pole(self):
        assert not Interval(1.0, 2.0).tan().is_bounded

    def test_tanh(self):
        r = Interval(-1, 1).tanh()
        assert r.contains(math.tanh(-1)) and r.contains(math.tanh(1))
        assert -1.0 <= r.lo and r.hi <= 1.0

    def test_sigmoid(self):
        r = Interval(-100, 100).sigmoid()
        assert 0.0 <= r.lo <= 0.001 and 0.999 <= r.hi <= 1.0
        assert Interval.point(0.0).sigmoid().contains(0.5)

    def test_min_max_with(self):
        assert Interval(0, 2).min_with(Interval(1, 3)) == Interval(0, 2)
        assert Interval(0, 2).max_with(Interval(1, 3)) == Interval(1, 3)


class TestEmptyPropagation:
    @pytest.mark.parametrize(
        "op",
        [
            lambda e: e + Interval(1, 2),
            lambda e: e - Interval(1, 2),
            lambda e: e * Interval(1, 2),
            lambda e: e / Interval(1, 2),
            lambda e: -e,
            lambda e: abs(e),
            lambda e: e.exp(),
            lambda e: e.log(),
            lambda e: e.sin(),
            lambda e: e.cos(),
            lambda e: e.sqrt(),
            lambda e: e.sqr(),
            lambda e: e.tanh(),
        ],
    )
    def test_ops_propagate_empty(self, op):
        assert op(EMPTY).is_empty


class TestNaNPoint:
    """No interval encloses NaN: making a point of one must fail loudly,
    not turn into the near-zero product ``0 * inf`` handling would give."""

    def test_scalar_point_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            Interval.point(math.nan)

    @pytest.mark.parametrize(
        "op",
        [
            lambda x: x * math.nan,
            lambda x: math.nan * x,
            lambda x: x + math.nan,
            lambda x: x - math.nan,
            lambda x: math.nan - x,
            lambda x: x / math.nan,
            lambda x: math.nan / x,
        ],
    )
    def test_scalar_ops_reject_nan_operand(self, op):
        with pytest.raises(ValueError, match="NaN"):
            op(Interval(1, 2))

    def test_var_eval_interval_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            Var("x").eval_interval({"x": math.nan})

    def test_array_point_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN.*row 1"):
            IntervalArray.point([1.0, math.nan, 2.0])
        ok = IntervalArray.point([1.0, -0.0])
        assert ok.lo.tolist() == ok.hi.tolist() == [1.0, -0.0]


# ----------------------------------------------------------------------
# Bit-for-bit pin of the straight-line scalar +, -, * and / against
# frozen copies of the corner-list implementations they replaced.
# ----------------------------------------------------------------------

_INF = math.inf
_REF_EMPTY = (_INF, -_INF)


def _ref_down(x):
    if x == _INF:
        return math.nextafter(_INF, 0.0)
    if x == -_INF:
        return x
    return math.nextafter(x, -_INF)


def _ref_up(x):
    if x == -_INF:
        return -math.nextafter(_INF, 0.0)
    if x == _INF:
        return x
    return math.nextafter(x, _INF)


def _ref_add_bound(a, b, up):
    s = a + b
    if math.isfinite(s):
        bb = s - a
        if (a - (s - bb)) + (b - bb) == 0.0:
            return s
    return _ref_up(s) if up else _ref_down(s)


def _ref_mul_exact(a, b, p):
    if not math.isfinite(p) or abs(a) > 1e150 or abs(b) > 1e150 or abs(p) < 2.0 ** -969:
        return p == 0.0 and (a == 0.0 or b == 0.0)
    split = 134217729.0
    ca = split * a
    ah = ca - (ca - a)
    al = a - ah
    cb = split * b
    bh = cb - (cb - b)
    bl = b - bh
    return ((ah * bh - p) + ah * bl + al * bh) + al * bl == 0.0


def _ref_add(x, y):
    if x[0] > x[1] or y[0] > y[1]:
        return _REF_EMPTY
    return (_ref_add_bound(x[0], y[0], False), _ref_add_bound(x[1], y[1], True))


def _ref_sub(x, y):
    if y[0] > y[1]:
        return _REF_EMPTY
    return _ref_add(x, (-y[1], -y[0]))


def _ref_mul(x, y):
    if x[0] > x[1] or y[0] > y[1]:
        return _REF_EMPTY
    cands = []
    for a in x:
        for b in y:
            p = a * b
            if math.isnan(p):
                p = 0.0
            cands.append((p, a, b))
    plo = min(cands, key=lambda c: c[0])[0]
    phi = max(cands, key=lambda c: c[0])[0]
    lo = plo if all(_ref_mul_exact(a, b, p) for p, a, b in cands if p == plo) else _ref_down(plo)
    hi = phi if all(_ref_mul_exact(a, b, p) for p, a, b in cands if p == phi) else _ref_up(phi)
    return (lo, hi)


def _ref_inverse(y):
    lo, hi = y
    if lo > hi or (lo == 0.0 and hi == 0.0):
        return _REF_EMPTY
    if lo <= 0.0 <= hi:
        if lo == 0.0:
            return (_ref_down(1.0 / hi), _INF)
        if hi == 0.0:
            return (-_INF, _ref_up(1.0 / lo))
        return (-_INF, _INF)
    return (_ref_down(1.0 / hi), _ref_up(1.0 / lo))


def _ref_div(x, y):
    if x[0] > x[1] or y[0] > y[1]:
        return _REF_EMPTY
    return _ref_mul(x, _ref_inverse(y))


_PIN_OPS = [
    ("add", lambda X, Y: X + Y, _ref_add),
    ("sub", lambda X, Y: X - Y, _ref_sub),
    ("mul", lambda X, Y: X * Y, _ref_mul),
    ("div", lambda X, Y: X / Y, _ref_div),
]

_PIN_VALUES = (
    0.0, -0.0, _INF, -_INF,
    5e-324, 2.0 ** -1022, 2.0 ** -1000,  # subnormal, smallest normal
    2.0 ** -969, math.nextafter(2.0 ** -969, 0.0),  # residual underflow edge
    2.0 ** -485, 2.0 ** -484,  # squares straddle the underflow edge
    1e150, math.nextafter(1e150, _INF),  # split-overflow edge
    1e200, math.nextafter(_INF, 0.0),
    1.0, 3.0, 0.1,
)


def _pin_value(rng):
    r = rng.random()
    if r < 0.35:
        return rng.choice(_PIN_VALUES) * rng.choice((1.0, -1.0))
    if r < 0.5:
        return rng.randint(1, 2 ** 52) * 5e-324 * rng.choice((1.0, -1.0))  # subnormal
    if r < 0.7:
        return float(rng.randint(-60, 60))
    return rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-300, 300)


def _pin_interval(rng):
    a, b = sorted((_pin_value(rng), _pin_value(rng)))
    r = rng.random()
    if r < 0.05:
        return (b, a) if a < b else (_INF, -_INF)  # empty
    if r < 0.3:
        return (a, a)  # point
    return (a, b)


def _pin_tie(rng):
    """Corners -u * -v (exact) and w * z (rounded) meeting on one double."""
    u, v = rng.randint(1, 3_000_000), rng.randint(1, 3_000_000)
    z = rng.choice((0.1, 0.3, 0.7, 0.01))
    w = float(round(u * v / z))
    s = rng.choice((-1.0, 1.0))
    return tuple(sorted((-u * s, w * s))), (-float(v), z)


@pytest.fixture(scope="module")
def pin_pairs():
    rng = random.Random(20261017)
    pairs = [
        # the two operands of the tie and underflow cases in TestArithmetic
        ((-542988.0, 5533400662200.0), (-1019065.0, 0.1)),
        ((5e-324, 5e-324), (0.5, 0.5)),
    ]
    for _ in range(20_000):
        pairs.append(_pin_tie(rng) if rng.random() < 0.05 else (_pin_interval(rng), _pin_interval(rng)))
    return pairs


def _bits(lo, hi):
    return struct.pack("<2d", lo, hi)


def test_pin_draw_covers_the_edges(pin_pairs):
    """The draw really holds the operands the pin test is about."""
    ivs = [iv for pair in pin_pairs for iv in pair]
    bounds = [v for iv in ivs for v in iv]
    assert sum(lo > hi for lo, hi in ivs) > 500
    assert sum(lo == hi for lo, hi in ivs) > 5000
    assert sum(x[0] == x[1] and y[0] == y[1] for x, y in pin_pairs) > 1000
    assert any(math.copysign(1.0, v) < 0 and v == 0.0 for v in bounds)
    assert any(0.0 < abs(v) < 2.0 ** -1022 for v in bounds)
    for v in _PIN_VALUES:
        assert any(b == v for b in bounds), v
    assert sum(_zero_times_inf(x, y) for x, y in pin_pairs) > 100
    assert sum(_mixed_tie(x, y) for x, y in pin_pairs) > 100


def _zero_times_inf(x, y):
    return x[0] <= x[1] and y[0] <= y[1] and any(
        math.isnan(a * b) for a in x for b in y
    )


def _mixed_tie(x, y):
    """True when an inexact corner rounds onto an exact one's extreme."""
    if x[0] > x[1] or y[0] > y[1]:
        return False
    products = [(0.0 if math.isnan(a * b) else a * b, a, b) for a in x for b in y]
    corners = [(p, _ref_mul_exact(a, b, p)) for p, a, b in products]
    for ext in (min(p for p, _ in corners), max(p for p, _ in corners)):
        if len({e for p, e in corners if p == ext}) == 2:
            return True
    return False


@pytest.mark.parametrize("name,op,ref", _PIN_OPS, ids=[c[0] for c in _PIN_OPS])
def test_scalar_ops_match_frozen_reference_bits(pin_pairs, name, op, ref):
    bad = []
    for x, y in pin_pairs:
        got = op(Interval(*x), Interval(*y))
        if _bits(got.lo, got.hi) != _bits(*ref(x, y)):
            bad.append((x, y, (got.lo.hex(), got.hi.hex()), tuple(v.hex() for v in ref(x, y))))
    assert not bad, (name, len(bad), bad[:3])


@pytest.mark.parametrize("name,op,ref", _PIN_OPS, ids=[c[0] for c in _PIN_OPS])
def test_scalar_ops_with_float_operand_match_reference_bits(pin_pairs, name, op, ref):
    for x, y in pin_pairs[:5000]:
        v = y[0]
        got = op(Interval(*x), v)
        assert _bits(got.lo, got.hi) == _bits(*ref(x, (v, v))), (name, x, v)
