"""Fuzz the vectorized interval kernel against the scalar one.

Two properties, checked over ~10k seeded random interval pairs (plus a
second, edge-heavy draw for the rational ops):

* **agreement** -- every batched op must reproduce the scalar kernel's
  bounds (bit-identical for the rational operations, which share the
  exactness-aware rounding algorithms; within a couple of ulps for the
  libm-backed transcendentals), and
* **inclusion** -- every op result must contain the pointwise result
  for member points of the operands (the soundness contract the whole
  delta-decision stack rests on).
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from repro.expr import (
    Var,
    abs_,
    cos,
    exp,
    log,
    maximum,
    minimum,
    sigmoid,
    sin,
    sqrt,
    tan,
    tanh,
)
from repro.intervals import EMPTY, BoxArray, Interval, IntervalArray
from repro.logic import And, Atom, Exists
from repro.solver import tape

#: ops run under the caller's error state (see conftest.py)
pytestmark = pytest.mark.usefixtures("kernel_errstate")

N = 10_000
SEED = 20260728


def _random_pairs(rng: random.Random, n: int):
    """n (interval, member, interval, member) tuples over mixed scales."""
    xs, xpts, ys, ypts = [], [], [], []
    for _ in range(n):
        scale = 10.0 ** rng.uniform(-3, 3)
        a, b = sorted(rng.uniform(-scale, scale) for _ in range(2))
        c, d = sorted(rng.uniform(-scale, scale) for _ in range(2))
        xs.append(Interval(a, b))
        ys.append(Interval(c, d))
        xpts.append(min(max(rng.uniform(a, b), a), b))
        ypts.append(min(max(rng.uniform(c, d), c), d))
    return xs, xpts, ys, ypts


@pytest.fixture(scope="module")
def pairs():
    rng = random.Random(SEED)
    xs, xpts, ys, ypts = _random_pairs(rng, N)
    return {
        "X": xs, "xs": np.array(xpts),
        "Y": ys, "ys": np.array(ypts),
        "Xa": IntervalArray.from_intervals(xs),
        "Ya": IntervalArray.from_intervals(ys),
    }


def _assert_agrees(vec: IntervalArray, scal: list[Interval], ulps: int, op: str):
    lo_s = np.array([iv.lo for iv in scal])
    hi_s = np.array([iv.hi for iv in scal])
    lo_v, hi_v = vec.lo, vec.hi
    if ulps == 0:
        # by value: a zero bound's sign may differ between the kernels,
        # and inf - inf style NaN bounds agree with each other
        same_lo = (lo_v == lo_s) | (np.isnan(lo_v) & np.isnan(lo_s))
        same_hi = (hi_v == hi_s) | (np.isnan(hi_v) & np.isnan(hi_s))
        bad = ~(same_lo & same_hi)
    else:
        tol_lo = np.abs(np.spacing(lo_s)) * ulps
        tol_hi = np.abs(np.spacing(hi_s)) * ulps
        bad = (np.abs(lo_v - lo_s) > tol_lo) | (np.abs(hi_v - hi_s) > tol_hi)
        # empty-vs-empty rows agree regardless of canonical bounds
        bad &= ~((lo_v > hi_v) & (lo_s > hi_s))
    assert not bad.any(), (
        f"{op}: {int(bad.sum())} disagreements, first at row "
        f"{int(np.flatnonzero(bad)[0])}"
    )


def _assert_includes(vec: IntervalArray, pts: np.ndarray, op: str):
    ok = np.isnan(pts) | ((vec.lo <= pts) & (pts <= vec.hi))
    assert ok.all(), (
        f"{op}: inclusion violated on {int((~ok).sum())} rows, first at "
        f"{int(np.flatnonzero(~ok)[0])}"
    )


BINARY_CASES = [
    ("add", lambda X, Y: X + Y, lambda x, y: x + y, 0),
    ("sub", lambda X, Y: X - Y, lambda x, y: x - y, 0),
    ("mul", lambda X, Y: X * Y, lambda x, y: x * y, 0),
    ("div", lambda X, Y: X / Y, lambda x, y: x / y if y != 0 else math.nan, 0),
    ("min", lambda X, Y: X.min_with(Y), min, 0),
    ("max", lambda X, Y: X.max_with(Y), max, 0),
]

UNARY_CASES = [
    ("neg", lambda X: -X, lambda x: -x, 0),
    ("abs", abs, abs, 0),
    ("sqr", lambda X: X.sqr(), lambda x: x * x, 0),
    # numpy's pow fast-paths small integer exponents (x*x) while CPython
    # always calls libm pow -- both correctly rounded to within an ulp
    ("pow2", lambda X: X.pow(2) if isinstance(X, Interval) else X.pow_int(2),
     lambda x: x * x, 1),
    ("pow3", lambda X: X.pow(3) if isinstance(X, Interval) else X.pow_int(3),
     lambda x: x ** 3, 1),
    ("pow-1", lambda X: X.pow(-1) if isinstance(X, Interval) else X.pow_int(-1),
     lambda x: 1.0 / x if x != 0 else math.nan, 0),
    # fractional exponents hit the domain-edge branches (negative bases
    # are clipped to the [0, inf) domain, zero bases of negative powers
    # go unbounded) -- the random operands cross zero constantly.  Both
    # kernels compute exp(n*log x), so a one-ulp libm-vs-numpy
    # difference in log amplifies by |n*log x| (~10 over the fuzz
    # domain) before the exp; 32 ulps bounds the stack-up while still
    # catching branch-selection bugs, which are off by whole factors.
    ("pow0.5", lambda X: X.pow(0.5) if isinstance(X, Interval) else X.pow_scalar(0.5),
     lambda x: math.sqrt(x) if x >= 0 else math.nan, 32),
    ("pow1.5", lambda X: X.pow(1.5) if isinstance(X, Interval) else X.pow_scalar(1.5),
     lambda x: x ** 1.5 if x >= 0 else math.nan, 32),
    ("pow-0.5", lambda X: X.pow(-0.5) if isinstance(X, Interval) else X.pow_scalar(-0.5),
     lambda x: x ** -0.5 if x > 0 else math.nan, 32),
    ("inverse", lambda X: X.inverse(), lambda x: 1.0 / x if x != 0 else math.nan, 0),
    ("sqrt", lambda X: X.sqrt(), lambda x: math.sqrt(x) if x >= 0 else math.nan, 2),
    ("exp", lambda X: X.exp(), math.exp, 2),
    ("log", lambda X: X.log(), lambda x: math.log(x) if x > 0 else math.nan, 2),
    ("sin", lambda X: X.sin(), math.sin, 2),
    ("cos", lambda X: X.cos(), math.cos, 2),
    ("tan", lambda X: X.tan(), math.tan, 2),
    ("tanh", lambda X: X.tanh(), math.tanh, 2),
    ("sigmoid", lambda X: X.sigmoid(),
     lambda x: 1.0 / (1.0 + math.exp(-x)) if x >= 0
     else math.exp(x) / (1.0 + math.exp(x)), 2),
]


@pytest.mark.parametrize("name,vop,pop,ulps", BINARY_CASES, ids=[c[0] for c in BINARY_CASES])
def test_binary_agreement_and_inclusion(pairs, name, vop, pop, ulps):
    vec = vop(pairs["Xa"], pairs["Ya"])
    scal = [vop(X, Y) for X, Y in zip(pairs["X"], pairs["Y"])]
    _assert_agrees(vec, scal, ulps, name)
    pts = np.array([pop(x, y) for x, y in zip(pairs["xs"], pairs["ys"])])
    _assert_includes(vec, pts, name)


def _safe(pop, *args) -> float:
    try:
        return pop(*args)
    except OverflowError:
        return math.inf  # true value is huge; only an inf bound contains it


@pytest.mark.parametrize("name,vop,pop,ulps", UNARY_CASES, ids=[c[0] for c in UNARY_CASES])
def test_unary_agreement_and_inclusion(pairs, name, vop, pop, ulps):
    vec = vop(pairs["Xa"])
    scal = [vop(X) for X in pairs["X"]]
    _assert_agrees(vec, scal, ulps, name)
    pts = np.array([_safe(pop, float(x)) for x in pairs["xs"]])
    _assert_includes(vec, pts, name)


def test_set_ops_agree(pairs):
    for name, vop in [
        ("intersect", lambda A, B: A.intersect(B)),
        ("hull", lambda A, B: A.hull(B)),
    ]:
        vec = vop(pairs["Xa"], pairs["Ya"])
        scal = [vop(X, Y) for X, Y in zip(pairs["X"], pairs["Y"])]
        for i, iv in enumerate(scal):
            if iv.is_empty:
                assert vec.lo[i] > vec.hi[i], name
            else:
                assert (vec.lo[i], vec.hi[i]) == (iv.lo, iv.hi), name


def test_roundtrip_conversion(pairs):
    back = pairs["Xa"].to_intervals()
    assert back == pairs["X"]


# ----------------------------------------------------------------------
# Edge-heavy draw: signed zeros, infinities, the smallest subnormal, huge
# magnitudes, point and empty rows, and integer operands whose corners tie
# ----------------------------------------------------------------------

EDGE_SEED = 20261017
EDGE_VALUES = (0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 1e200, -1e200)


def _edge_value(rng: random.Random) -> float:
    r = rng.random()
    if r < 0.4:
        return rng.choice(EDGE_VALUES)
    if r < 0.7:
        return float(rng.randint(-60, 60))
    return rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-6, 6)


def _edge_interval(rng: random.Random) -> Interval:
    r = rng.random()
    if r < 0.06:
        return EMPTY
    a, b = sorted((_edge_value(rng), _edge_value(rng)))
    return Interval(a, a) if r < 0.16 else Interval(a, b)


def _tie_pair(rng: random.Random) -> tuple[Interval, Interval]:
    """Corners -u * -v (exact) and w * z (rounded) meeting on one double."""
    u, v = rng.randint(1, 3_000_000), rng.randint(1, 3_000_000)
    z = rng.choice((0.1, 0.3, 0.7, 0.01))
    w = float(round(u * v / z))
    s = rng.choice((-1.0, 1.0))
    x = sorted((-u * s, w * s))
    return Interval(*x), Interval(-float(v), z)


def _member(rng: random.Random, iv: Interval) -> float:
    if iv.is_empty:
        return math.nan
    lo, hi = max(iv.lo, -1e300), min(iv.hi, 1e300)
    if lo >= hi:  # a point, or [inf, inf] / [-inf, -inf]: no real member
        return iv.lo if math.isfinite(iv.lo) else math.nan
    r = rng.random()
    if r < 0.3:
        return lo if r < 0.15 else hi
    return min(max(rng.uniform(lo, hi), lo), hi)


@pytest.fixture(scope="module")
def edge():
    rng = random.Random(EDGE_SEED)
    X, Y, Z = [], [], []
    for _ in range(N):
        if rng.random() < 0.1:
            x, y = _tie_pair(rng)
        else:
            x, y = _edge_interval(rng), _edge_interval(rng)
        X.append(x)
        Y.append(y)
        Z.append(_edge_interval(rng))
    return {
        "X": X, "xs": np.array([_member(rng, x) for x in X]),
        "Y": Y, "ys": np.array([_member(rng, y) for y in Y]),
        "Z": Z,
        "Xa": IntervalArray.from_intervals(X),
        "Ya": IntervalArray.from_intervals(Y),
        "Za": IntervalArray.from_intervals(Z),
    }


EDGE_CASES = [c for c in BINARY_CASES if c[0] in ("add", "sub", "mul", "div")]


EXACT_OPS = {
    "add": lambda x, y: x + y,
    "sub": lambda x, y: x - y,
    "mul": lambda x, y: x * y,
    "div": lambda x, y: x / y,
}


def _encloses(lo: float, hi: float, r: Fraction) -> bool:
    return (lo == -math.inf or Fraction(lo) <= r) and (hi == math.inf or r <= Fraction(hi))


@pytest.mark.parametrize("name,vop,pop,ulps", EDGE_CASES, ids=[c[0] for c in EDGE_CASES])
def test_edge_binary_agreement_and_inclusion(edge, name, vop, pop, ulps):
    vec = vop(edge["Xa"], edge["Ya"])
    scal = [vop(X, Y) for X, Y in zip(edge["X"], edge["Y"])]
    _assert_agrees(vec, scal, ulps, name)
    # Inclusion on exact rationals: a float result of tiny or tied
    # operands rounds the way the kernel may, so it cannot catch it.
    exact = EXACT_OPS[name]
    for i, (x, y) in enumerate(zip(edge["xs"], edge["ys"])):
        if math.isnan(x) or math.isnan(y) or (name == "div" and y == 0.0):
            continue
        r = exact(Fraction(x), Fraction(y))
        assert _encloses(vec.lo[i], vec.hi[i], r), (name, i, x, y)


def test_edge_mul_encloses_exact_corners(edge):
    vec = edge["Xa"] * edge["Ya"]
    for i, (X, Y) in enumerate(zip(edge["X"], edge["Y"])):
        ends = (X.lo, X.hi, Y.lo, Y.hi)
        if X.is_empty or Y.is_empty or not all(map(math.isfinite, ends)):
            continue
        for a in (X.lo, X.hi):
            for b in (Y.lo, Y.hi):
                assert _encloses(vec.lo[i], vec.hi[i], Fraction(a) * Fraction(b)), (i, a, b)


def test_edge_inverse_agreement_and_inclusion(edge):
    vec = edge["Ya"].inverse()
    _assert_agrees(vec, [Y.inverse() for Y in edge["Y"]], 0, "inverse")
    for i, y in enumerate(edge["ys"]):
        if not math.isnan(y) and y != 0.0:
            assert _encloses(vec.lo[i], vec.hi[i], 1 / Fraction(y)), (i, y)


def test_edge_draw_covers_the_edges(edge):
    """The draw really holds the rows the edge tests are about."""
    Y = edge["Y"]
    assert sum(y.is_empty for y in Y) > 300
    assert sum(y.contains(0.0) for y in Y) > 1000
    assert sum(not y.is_empty and y.lo == y.hi for y in Y) > 300
    for v in EDGE_VALUES:
        assert any(math.copysign(1.0, y.lo) == math.copysign(1.0, v) and y.lo == v for y in Y)


def _assert_rows_match_scalar(vec: IntervalArray, scal: list[Interval], what: str):
    for i, iv in enumerate(scal):
        if iv.is_empty:
            assert vec.lo[i] > vec.hi[i], (what, i)
        else:
            # by value; inf - inf style NaN bounds agree with each other
            for got, want in ((vec.lo[i], iv.lo), (vec.hi[i], iv.hi)):
                assert got == want or (math.isnan(got) and math.isnan(want)), (what, i)


def _scalar_safe_div(num: Interval, den: Interval) -> Interval:
    """The scalar HC4 quotient rule: ``num / den``, or the entire line
    when ``den`` contains 0."""
    return Interval.entire() if den.contains(0.0) else num / den


def _per_operand_preimages(op, want, a, b):
    """The two HC4 preimages of ``want = a op b``, one call per operand:
    over scalar :class:`Interval` rows (the reference rules) or over an
    :class:`IntervalArray` batch (one kernel call each)."""
    safe_div = _scalar_safe_div if isinstance(want, Interval) else tape._safe_div
    if op == "add":
        return want - b, want - a
    if op == "sub":
        return want + b, a - want
    if op == "mul":
        return safe_div(want, b), safe_div(want, a)
    assert op == "div", op
    return want * b, safe_div(a, want)


def test_safe_div_rows(edge):
    X, Y = edge["X"], edge["Y"]
    out = tape._safe_div(edge["Xa"], edge["Ya"])
    for i, (x, y) in enumerate(zip(X, Y)):
        if y.contains(0.0):  # den spans zero: the entire line
            assert (out.lo[i], out.hi[i]) == (-math.inf, math.inf), i
        elif x.is_empty or y.is_empty:
            assert out.lo[i] > out.hi[i], i
    _assert_rows_match_scalar(out, [_scalar_safe_div(x, y) for x, y in zip(X, Y)],
                              "_safe_div")


@pytest.mark.parametrize("op", ["add", "sub", "mul", "div"])
def test_invert_binary_rows(edge, op):
    want, a, b = edge["X"], edge["Y"], edge["Z"]
    inv_a, inv_b = tape._invert_binary(op, edge["Xa"], edge["Ya"], edge["Za"])
    scal = [_per_operand_preimages(op, w, x, y) for w, x, y in zip(want, a, b)]
    _assert_rows_match_scalar(inv_a, [s[0] for s in scal], f"{op} inv_a")
    _assert_rows_match_scalar(inv_b, [s[1] for s in scal], f"{op} inv_b")


def _same_bits(x, y) -> bool:
    """Equal ``lo``/``hi`` bytes (IntervalArray or BoxArray)."""
    return x.lo.tobytes() == y.lo.tobytes() and x.hi.tobytes() == y.hi.tobytes()


@pytest.mark.parametrize("op", ["add", "sub", "mul"])
def test_stacked_preimages_match_per_operand_bits(edge, op):
    """One stacked call over 2n rows gives each row the bits of the
    per-operand formula (``want - b``, ``a - want``, ``_safe_div(want, a)``...)."""
    want, a, b = edge["Xa"], edge["Ya"], edge["Za"]
    got = tape._invert_binary(op, want, a, b)
    ref = _per_operand_preimages(op, want, a, b)
    for side, g, r in zip("ab", got, ref):
        assert len(g) == len(want)
        assert _same_bits(g, r), (op, side)


def _hc4_edge_boxes(rng: random.Random, n: int) -> BoxArray:
    lo, hi = np.empty((n, 2)), np.empty((n, 2))
    for i in range(n):
        for j in range(2):
            iv = _edge_interval(rng)
            lo[i, j], hi[i, j] = iv.lo, iv.hi
    return BoxArray(("x", "y"), lo, hi)


def test_hc4_shared_operands_match_per_operand_bits(monkeypatch):
    """A register feeding both operands (``x*x``, ``x - x``, ``x + x``) is
    narrowed by the two halves in turn, exactly as by two separate calls."""
    x, y = Var("x"), Var("y")
    terms = [x * x - y, (x - x) + y, x + x - y, (x * x) * y, y - x * x]
    boxes = _hc4_edge_boxes(random.Random(EDGE_SEED + 1), 2000)
    for term in terms:
        t = tape.ExprTape(term)
        bins = [ins for ins in t.instrs if ins[0] == "bin"]
        assert any(ins[3] == ins[4] for ins in bins), term
        for strict in (False, True):
            got = t.hc4(boxes, strict)
            with monkeypatch.context() as m:
                m.setattr(tape, "_invert_binary", _per_operand_preimages)
                ref = t.hc4(boxes, strict)
            assert _same_bits(got, ref), (term, strict)


# ----------------------------------------------------------------------
# Trusted construction: ``IntervalArray(lo, hi)`` converts nothing, so
# every constructor and op must hand it 1-D float64 arrays
# ----------------------------------------------------------------------


def _assert_float_rows(iv: IntervalArray, n: int, what: str):
    for bound in (iv.lo, iv.hi):
        assert type(bound) is np.ndarray, what
        assert bound.dtype == np.float64 and bound.shape == (n,), what


def test_init_stores_its_arguments():
    lo, hi = np.array([0.0, 1.0]), np.array([1.0, 2.0])
    iv = IntervalArray(lo, hi)
    assert iv.lo is lo and iv.hi is hi
    raw = [0, 1]
    assert IntervalArray(raw, raw).lo is raw  # no conversion: use make()


@pytest.mark.parametrize("name,build", [
    ("make-list", lambda: IntervalArray.make([0, 1, math.nan], [1, 2, 3])),
    ("make-int-array", lambda: IntervalArray.make(np.arange(3), np.arange(3) + 1)),
    ("point-list", lambda: IntervalArray.point([1, 2, 3])),
    ("point-int-array", lambda: IntervalArray.point(np.arange(3))),
    ("constant-int", lambda: IntervalArray.constant(2, 3)),
    ("empty", lambda: IntervalArray.empty(3)),
    ("entire", lambda: IntervalArray.entire(3)),
    ("from_intervals", lambda: IntervalArray.from_intervals(
        [Interval(0, 1), Interval(1, 2), EMPTY])),
])
def test_converting_constructors(name, build):
    _assert_float_rows(build(), 3, name)


def test_every_op_returns_float64_rows():
    a = IntervalArray.make([-1, 0, 2, 1, 0.5], [1, 0, 3, -1, 4])  # row 3 empty
    b = IntervalArray.make([0.5, -2, 1, 0, 0], [2, 2, 1, 1, 0])
    ops = {
        "add": a + b, "sub": a - b, "neg": -a, "mul": a * b, "div": a / b,
        "inverse": a.inverse(), "zero_free_inverse": b.zero_free_inverse(),
        "abs": abs(a), "sqr": a.sqr(), "pow_int": a.pow_int(3),
        "pow_int_neg": a.pow_int(-2), "pow_int_zero": a.pow_int(0),
        "pow_scalar": a.pow_scalar(0.5), "pow_scalar_neg": a.pow_scalar(-1.5),
        "sqrt": a.sqrt(), "exp": a.exp(), "log": a.log(), "sin": a.sin(),
        "cos": a.cos(), "tan": a.tan(), "tanh": a.tanh(), "sigmoid": a.sigmoid(),
        "min_with": a.min_with(b), "max_with": a.max_with(b),
        "intersect": a.intersect(b), "hull": a.hull(b),
        "replace_hi": a.replace_hi(3.0), "copy": a.copy(),
        "take": a.take(np.array([0, 2, 3, 4, 1])),
        "take_mask": a.take(np.ones(5, dtype=bool)),
    }
    for name, out in ops.items():
        _assert_float_rows(out, 5, name)


def test_tape_builds_only_float64_rows(monkeypatch):
    """Every ``IntervalArray`` the tape builds -- forward, backward and
    judgment, over every operator -- gets 1-D float64 arrays."""
    built = []
    init = IntervalArray.__init__

    def checked(self, lo, hi):
        n = len(lo)
        for bound in (lo, hi):
            assert type(bound) is np.ndarray and bound.dtype == np.float64
            assert bound.shape == (n,)
        built.append(n)
        init(self, lo, hi)

    monkeypatch.setattr(IntervalArray, "__init__", checked)
    x, y = Var("x"), Var("y")
    terms = [
        sin(x) + cos(y) - tan(x * 0.1), exp(x) / (y - 0.5), log(x + 4) * sqrt(y + 4),
        tanh(x) - sigmoid(y), minimum(x, y) + maximum(x, -y), abs_(x) - y,
        x ** 2 + y ** 3 - x ** -1, (x + 4) ** 0.5 - y ** 0, (x + 4) ** y, -x + y,
    ]
    phi = And(*[Atom(t, strict=bool(i % 2)) for i, t in enumerate(terms)])
    phi = And(phi, Exists("z", 0, 1, Atom(x * Var("z") - y, strict=False)))
    boxes = _hc4_edge_boxes(random.Random(EDGE_SEED + 2), 64)
    compiled = tape.compile_formula(phi)
    compiled.fixpoint_contract(boxes)
    compiled.judge(boxes, (0.0, 0.1))
    for t in terms:
        tape.ExprTape(t).hc4(boxes, False)
    assert built
