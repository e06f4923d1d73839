"""Unit tests for the expression DSL (AST, eval, diff, subs)."""

import math

import pytest

from repro.expr import (
    Binary,
    Const,
    Unary,
    Var,
    abs_,
    as_expr,
    cos,
    exp,
    heaviside_smooth,
    hill,
    log,
    maximum,
    minimum,
    mm,
    sigmoid,
    sin,
    sqrt,
    square,
    tanh,
    var,
    variables,
)
from repro.intervals import Interval

x, y = variables("x y")


class TestConstruction:
    def test_var(self):
        assert var("a").name == "a"
        with pytest.raises(ValueError):
            Var("")

    def test_as_expr(self):
        assert isinstance(as_expr(3), Const)
        assert as_expr(x) is x
        with pytest.raises(TypeError):
            as_expr("nope")

    def test_operators_build_tree(self):
        e = x + y * 2 - 1
        assert isinstance(e, Binary)
        assert e.variables() == {"x", "y"}

    def test_constant_folding(self):
        e = as_expr(2) + as_expr(3)
        assert isinstance(e, Const) and e.value == 5.0

    def test_unknown_ops_rejected(self):
        with pytest.raises(ValueError):
            Unary("bogus", x)
        with pytest.raises(ValueError):
            Binary("bogus", x, y)

    def test_structural_equality(self):
        assert x + 1 == x + 1
        assert x + 1 != x + 2
        assert hash(x * y) == hash(x * y)


class TestEval:
    def test_arith(self):
        e = (x + 2) * y - x / y
        assert e.eval({"x": 1.0, "y": 2.0}) == pytest.approx(5.5)

    def test_pow(self):
        assert (x ** 3).eval({"x": 2.0}) == 8.0
        assert (2 ** x).eval({"x": 3.0}) == 8.0

    def test_unary_functions(self):
        env = {"x": 0.5}
        assert exp(x).eval(env) == pytest.approx(math.exp(0.5))
        assert log(x).eval(env) == pytest.approx(math.log(0.5))
        assert sin(x).eval(env) == pytest.approx(math.sin(0.5))
        assert cos(x).eval(env) == pytest.approx(math.cos(0.5))
        assert tanh(x).eval(env) == pytest.approx(math.tanh(0.5))
        assert sqrt(x).eval(env) == pytest.approx(math.sqrt(0.5))
        assert abs_(-x).eval(env) == pytest.approx(0.5)

    def test_sigmoid_stable(self):
        assert sigmoid(x).eval({"x": 1000.0}) == pytest.approx(1.0)
        assert sigmoid(x).eval({"x": -1000.0}) == pytest.approx(0.0)
        assert sigmoid(x).eval({"x": 0.0}) == pytest.approx(0.5)

    def test_heaviside_smooth_is_a_steep_sigmoid(self):
        h = heaviside_smooth(x - 0.5)
        assert h.eval({"x": 0.5}) == 0.5
        assert h.eval({"x": 0.7}) == sigmoid(50.0 * (x - 0.5)).eval({"x": 0.7})
        assert h.eval({"x": 0.7}) > 0.99 and h.eval({"x": 0.3}) < 0.01
        soft = heaviside_smooth(x, steepness=2.0)
        assert soft.eval({"x": 0.3}) == pytest.approx(1.0 / (1.0 + math.exp(-0.6)))

    def test_min_max(self):
        assert minimum(x, y).eval({"x": 1, "y": 2}) == 1
        assert maximum(x, y).eval({"x": 1, "y": 2}) == 2

    def test_unbound_raises(self):
        with pytest.raises(KeyError, match="not bound"):
            x.eval({})

    def test_division_by_zero_raises(self):
        with pytest.raises(ArithmeticError):
            (x / y).eval({"x": 1.0, "y": 0.0})

    def test_log_domain_raises(self):
        with pytest.raises(ArithmeticError):
            log(x).eval({"x": -1.0})


class TestIntervalEval:
    def test_var_lookup(self):
        env = {"x": Interval(1, 2)}
        assert x.eval_interval(env) == Interval(1, 2)

    def test_arith_enclosure(self):
        e = x * x - 2 * x
        iv = e.eval_interval({"x": Interval(0, 2)})
        # true range over [0,2] is [-1, 0]; enclosure must contain it
        assert iv.contains(-1.0) and iv.contains(0.0)

    def test_pow_point_exponent(self):
        iv = (x ** 2).eval_interval({"x": Interval(-1, 2)})
        assert iv.contains(0.0) and iv.contains(4.0) and not iv.contains(-0.5)

    def test_float_in_env_coerced(self):
        assert x.eval_interval({"x": 1.5}).contains(1.5)


class TestDiff:
    def test_polynomial(self):
        e = x ** 3 + 2 * x
        d = e.diff("x").simplify()
        assert d.eval({"x": 2.0}) == pytest.approx(14.0)

    def test_product_rule(self):
        d = (x * y).diff("x").simplify()
        assert d.eval({"x": 5.0, "y": 3.0}) == pytest.approx(3.0)

    def test_quotient_rule(self):
        d = (x / y).diff("y")
        assert d.eval({"x": 1.0, "y": 2.0}) == pytest.approx(-0.25)

    def test_chain_rule_exp(self):
        d = exp(x * x).diff("x")
        assert d.eval({"x": 1.0}) == pytest.approx(2.0 * math.e)

    @pytest.mark.parametrize(
        "fn,dfn",
        [
            (sin, lambda v: math.cos(v)),
            (cos, lambda v: -math.sin(v)),
            (tanh, lambda v: 1 - math.tanh(v) ** 2),
            (log, lambda v: 1 / v),
            (sqrt, lambda v: 0.5 / math.sqrt(v)),
        ],
    )
    def test_unary_derivatives(self, fn, dfn):
        d = fn(x).diff("x")
        assert d.eval({"x": 0.7}) == pytest.approx(dfn(0.7), rel=1e-10)

    def test_sigmoid_derivative(self):
        d = sigmoid(x).diff("x")
        s = sigmoid(x).eval({"x": 0.3})
        assert d.eval({"x": 0.3}) == pytest.approx(s * (1 - s))

    def test_general_power(self):
        d = (x ** y).diff("x")
        assert d.eval({"x": 2.0, "y": 3.0}) == pytest.approx(12.0)

    def test_gradient(self):
        g = (x * x + y).gradient(["x", "y"])
        assert g["x"].eval({"x": 3.0, "y": 0.0}) == 6.0
        assert g["y"].eval({"x": 3.0, "y": 0.0}) == 1.0

    def test_min_not_differentiable(self):
        with pytest.raises(NotImplementedError):
            minimum(x, y).diff("x")


class TestSubs:
    def test_substitute_value(self):
        e = (x + y).subs({"x": 3})
        assert e.eval({"y": 1.0}) == 4.0

    def test_substitute_expr(self):
        e = (x * x).subs({"x": y + 1})
        assert e.eval({"y": 2.0}) == 9.0

    def test_variables_after_subs(self):
        assert (x + y).subs({"x": 1}).variables() == {"y"}


class TestDomainHelpers:
    def test_hill(self):
        h = hill(x, 2.0, 4)
        assert h.eval({"x": 2.0}) == pytest.approx(0.5)
        assert h.eval({"x": 100.0}) == pytest.approx(1.0, abs=1e-5)

    def test_mm(self):
        r = mm(x, 10.0, 2.0)
        assert r.eval({"x": 2.0}) == pytest.approx(5.0)

    def test_square(self):
        assert square(x).eval({"x": 3.0}) == 9.0

    def test_str_roundtrippable_tokens(self):
        s = str((x + 1) * exp(y))
        assert "x" in s and "exp" in s
