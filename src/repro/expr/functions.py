"""Convenience constructors for the function signature F.

These wrap :class:`~repro.expr.ast.Unary`/:class:`~repro.expr.ast.Binary`
so models can be written in plain mathematical notation::

    from repro.expr import var, exp, hill

    s, k = var("s"), var("k")
    rate = k * s / (1 + s)        # Michaelis-Menten
    gate = sigmoid(10 * (s - 1))  # smooth Heaviside
"""

from __future__ import annotations

from .ast import Binary, Const, Expr, ExprLike, Unary, as_expr

__all__ = [
    "var",
    "const",
    "variables",
    "neg",
    "abs_",
    "sqrt",
    "exp",
    "log",
    "sin",
    "cos",
    "tan",
    "tanh",
    "sigmoid",
    "minimum",
    "maximum",
    "hill",
    "mm",
    "heaviside_smooth",
    "square",
]


def var(name: str):
    """A free variable named ``name``."""
    from .ast import Var

    return Var(name)


def variables(names: str):
    """Several variables from a space-separated string: ``variables("x y z")``."""
    return tuple(var(n) for n in names.split())


def const(value: float) -> Const:
    """A constant node holding ``value``."""
    return Const(value)


def _unary(op: str, x: ExprLike) -> Expr:
    x = as_expr(x)
    if isinstance(x, Const):
        try:
            return Const(Unary(op, x).eval({}))
        except ArithmeticError:
            pass
    return Unary(op, x)


def neg(x: ExprLike) -> Expr:
    """``-x``."""
    return _unary("neg", x)


def abs_(x: ExprLike) -> Expr:
    """``|x|``."""
    return _unary("abs", x)


def sqrt(x: ExprLike) -> Expr:
    """Square root of ``x``."""
    return _unary("sqrt", x)


def exp(x: ExprLike) -> Expr:
    """Exponential of ``x``."""
    return _unary("exp", x)


def log(x: ExprLike) -> Expr:
    """Natural logarithm of ``x``."""
    return _unary("log", x)


def sin(x: ExprLike) -> Expr:
    """Sine of ``x`` (radians)."""
    return _unary("sin", x)


def cos(x: ExprLike) -> Expr:
    """Cosine of ``x`` (radians)."""
    return _unary("cos", x)


def tan(x: ExprLike) -> Expr:
    """Tangent of ``x`` (radians)."""
    return _unary("tan", x)


def tanh(x: ExprLike) -> Expr:
    """Hyperbolic tangent of ``x``."""
    return _unary("tanh", x)


def sigmoid(x: ExprLike) -> Expr:
    """Logistic function ``1 / (1 + exp(-x))``."""
    return _unary("sigmoid", x)


def minimum(a: ExprLike, b: ExprLike) -> Expr:
    """The smaller of ``a`` and ``b``."""
    return Binary("min", as_expr(a), as_expr(b))


def maximum(a: ExprLike, b: ExprLike) -> Expr:
    """The larger of ``a`` and ``b``."""
    return Binary("max", as_expr(a), as_expr(b))


def square(x: ExprLike) -> Expr:
    """``x * x`` (a product, not a power node)."""
    x = as_expr(x)
    return x * x


def hill(x: ExprLike, k: ExprLike, n: float) -> Expr:
    """Hill activation function ``x^n / (k^n + x^n)``.

    The standard sigmoidal response of gene regulation and enzyme
    kinetics; ``n`` is the Hill coefficient.
    """
    x, k = as_expr(x), as_expr(k)
    xn = x ** Const(float(n))
    kn = k ** Const(float(n))
    return xn / (kn + xn)


def mm(x: ExprLike, vmax: ExprLike, km: ExprLike) -> Expr:
    """Michaelis-Menten rate ``vmax * x / (km + x)``."""
    x = as_expr(x)
    return as_expr(vmax) * x / (as_expr(km) + x)


def heaviside_smooth(x: ExprLike, steepness: float = 50.0) -> Expr:
    """Smooth approximation of the Heaviside step via a steep sigmoid,
    ``sigmoid(steepness * x)``.

    Cardiac minimal models (Fenton-Karma, Bueno-Cherry-Fenton) are written
    with Heaviside gates H(u - theta); :mod:`repro.models.cardiac`
    replaces them with mode switching, and this is the smooth stand-in
    for a single-mode rendering of such a gate.
    """
    return sigmoid(as_expr(x) * Const(float(steepness)))
