"""Property tests for representation round-trips.

The native JSON model format stores expressions as ``str(expr)`` and
reloads them with ``parse_expr``; these tests establish that the
round-trip preserves semantics on randomly generated expression trees.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.expr import (
    Binary,
    Const,
    Unary,
    Var,
    parse_expr,
    simplify,
)

NAMES = ("x", "y", "z")


def expr_strategy(max_depth=4):
    leaves = st.one_of(
        st.sampled_from(NAMES).map(Var),
        st.floats(min_value=-5, max_value=5, allow_nan=False).map(
            lambda v: Const(round(v, 3))
        ),
    )

    def extend(children):
        unary = st.tuples(
            st.sampled_from(["neg", "exp", "sin", "cos", "tanh", "abs"]), children
        ).map(lambda t: Unary(t[0], t[1]))
        binary = st.tuples(
            st.sampled_from(["add", "sub", "mul", "div"]), children, children
        ).map(lambda t: Binary(t[0], t[1], t[2]))
        power = st.tuples(
            children, st.integers(min_value=0, max_value=3)
        ).map(lambda t: Binary("pow", t[0], Const(float(t[1]))))
        return st.one_of(unary, binary, power)

    return st.recursive(leaves, extend, max_leaves=12)


ENV = st.fixed_dictionaries(
    {n: st.floats(min_value=-3, max_value=3, allow_nan=False) for n in NAMES}
)


def _safe_eval(e, env):
    try:
        v = e.eval(env)
        return v if math.isfinite(v) else None
    except ArithmeticError:
        return None


@given(expr_strategy(), ENV)
@settings(max_examples=200, deadline=None)
def test_str_parse_roundtrip_semantics(e, env):
    text = str(e)
    back = parse_expr(text)
    v1 = _safe_eval(e, env)
    v2 = _safe_eval(back, env)
    if v1 is None or v2 is None:
        return
    assert v2 == v1 or abs(v2 - v1) <= 1e-9 * max(1.0, abs(v1)), (text, v1, v2)


@given(expr_strategy(), ENV)
@settings(max_examples=200, deadline=None)
def test_simplify_preserves_semantics(e, env):
    s = simplify(e)
    v1 = _safe_eval(e, env)
    v2 = _safe_eval(s, env)
    if v1 is None or v2 is None:
        return
    assert abs(v2 - v1) <= 1e-7 * max(1.0, abs(v1)), (str(e), str(s), v1, v2)


@given(expr_strategy(), ENV)
@settings(max_examples=150, deadline=None)
def test_interval_eval_contains_point_eval(e, env):
    """The inclusion property lifted to whole expression trees."""
    from repro.intervals import Interval

    v = _safe_eval(e, env)
    if v is None:
        return
    iv_env = {k: Interval.point(val) for k, val in env.items()}
    iv = e.eval_interval(iv_env)
    assert iv.contains(v), (str(e), env, v, iv)


@given(expr_strategy(), ENV)
@example(
    Binary("div", Binary("pow", Var("x"), Const(0.0)), Var("x")),
    {"x": 1.7e-81, "y": 0.0, "z": 0.0},
)
@example(Binary("div", Var("y"), Var("x")), {"x": 1.37e-132, "y": 7.5e-223, "z": 0.0})
@example(Binary("div", Var("y"), Var("x")), {"x": 3.08e-117, "y": 3.08e-117, "z": 0.0})
@settings(max_examples=100, deadline=None)
def test_derivative_matches_finite_difference(e, env):
    """Symbolic d/dx agrees with central differences where smooth."""
    h = 1e-6
    try:
        d = e.diff("x")
    except NotImplementedError:
        return
    def stencil(step):
        up = _safe_eval(e, {**env, "x": env["x"] + step})
        dn = _safe_eval(e, {**env, "x": env["x"] - step})
        return None if up is None or dn is None else (up, dn)

    v, fx = _safe_eval(d, env), _safe_eval(e, env)
    full, half = stencil(h), stencil(h / 2)
    if v is None or fx is None or full is None or half is None:
        return
    up, dn = full
    fd, fd_half = (up - dn) / (2 * h), (half[0] - half[1]) / h
    # near a pole (within ~h of it) the central difference itself does
    # not converge: skip draws where halving h moves it beyond tolerance
    if abs(fd - fd_half) > 1e-3 * max(1.0, abs(fd), abs(fd_half)):
        return
    # a pole inside [x - h, x + h] can also make both differences cancel
    # to ~0 alike; then f(x) is far from the mean of its neighbours
    if abs(fx - (up + dn) / 2) > 1e-3 * max(abs(fx), abs(up), abs(dn)):
        return
    # |abs| kinks and steep regions excluded by tolerance scaling
    scale = max(1.0, abs(v), abs(fd))
    if abs(v - fd) > 1e-3 * scale:
        # allow disagreement at non-smooth points of |.|
        assert "abs" in str(e) or "sign" in str(e), (str(e), v, fd)
