"""Symbolic expression AST over the reals.

Terms ``t`` of the logic ``L_RF`` (paper Definition 1) are built from
variables, rational constants, and a signature ``F`` of computable
functions.  This module implements that term language with three
interpreters:

* float evaluation (:meth:`Expr.eval`),
* interval evaluation with the inclusion property (:meth:`Expr.eval_interval`),
* vectorised numpy evaluation (:func:`repro.expr.compile.compile_numpy`).

plus symbolic differentiation (:meth:`Expr.diff`) used by the ODE layer
(Jacobians, Lie derivatives for Lyapunov analysis) and structural
simplification.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Mapping, Union

from repro.intervals import EMPTY, Interval

__all__ = [
    "Expr",
    "Var",
    "Const",
    "Unary",
    "Binary",
    "ExprLike",
    "as_expr",
    "UNARY_FLOAT",
    "UNARY_INTERVAL",
]

ExprLike = Union["Expr", float, int]

# ----------------------------------------------------------------------
# Operator tables
# ----------------------------------------------------------------------

UNARY_FLOAT: dict[str, Callable[[float], float]] = {
    "neg": lambda x: -x,
    "abs": abs,
    "sqrt": math.sqrt,
    "exp": math.exp,
    "log": math.log,
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "tanh": math.tanh,
    "sigmoid": lambda x: 1.0 / (1.0 + math.exp(-x)) if x >= 0
    else math.exp(x) / (1.0 + math.exp(x)),
}

UNARY_INTERVAL: dict[str, Callable[[Interval], Interval]] = {
    "neg": lambda iv: -iv,
    "abs": abs,
    "sqrt": Interval.sqrt,
    "exp": Interval.exp,
    "log": Interval.log,
    "sin": Interval.sin,
    "cos": Interval.cos,
    "tan": Interval.tan,
    "tanh": Interval.tanh,
    "sigmoid": Interval.sigmoid,
}

_BINARY_OPS = ("add", "sub", "mul", "div", "pow", "min", "max")


class Expr:
    """Base class for expression nodes.

    Expressions are immutable; Python operators are overloaded so models
    read naturally, e.g. ``k1 * s / (km + s) - d * s``.
    """

    __slots__ = ()

    # -- construction helpers ------------------------------------------
    def __add__(self, other: ExprLike) -> "Expr":
        return _mk_binary("add", self, as_expr(other))

    def __radd__(self, other: ExprLike) -> "Expr":
        return _mk_binary("add", as_expr(other), self)

    def __sub__(self, other: ExprLike) -> "Expr":
        return _mk_binary("sub", self, as_expr(other))

    def __rsub__(self, other: ExprLike) -> "Expr":
        return _mk_binary("sub", as_expr(other), self)

    def __mul__(self, other: ExprLike) -> "Expr":
        return _mk_binary("mul", self, as_expr(other))

    def __rmul__(self, other: ExprLike) -> "Expr":
        return _mk_binary("mul", as_expr(other), self)

    def __truediv__(self, other: ExprLike) -> "Expr":
        return _mk_binary("div", self, as_expr(other))

    def __rtruediv__(self, other: ExprLike) -> "Expr":
        return _mk_binary("div", as_expr(other), self)

    def __pow__(self, other: ExprLike) -> "Expr":
        return _mk_binary("pow", self, as_expr(other))

    def __rpow__(self, other: ExprLike) -> "Expr":
        return _mk_binary("pow", as_expr(other), self)

    def __neg__(self) -> "Expr":
        return Unary("neg", self)

    def __pos__(self) -> "Expr":
        return self

    # comparisons build logic atoms lazily (import cycle avoidance)
    def __gt__(self, other: ExprLike):
        from repro.logic import Atom

        return Atom(self - as_expr(other), strict=True)

    def __ge__(self, other: ExprLike):
        from repro.logic import Atom

        return Atom(self - as_expr(other), strict=False)

    def __lt__(self, other: ExprLike):
        from repro.logic import Atom

        return Atom(as_expr(other) - self, strict=True)

    def __le__(self, other: ExprLike):
        from repro.logic import Atom

        return Atom(as_expr(other) - self, strict=False)

    def eq(self, other: ExprLike):
        """Equality atom ``self == other`` (as two weak inequalities)."""
        from repro.logic import And, Atom

        other = as_expr(other)
        return And(Atom(self - other, strict=False).negate_operand(),
                   Atom(other - self, strict=False).negate_operand())

    # -- interpreters ---------------------------------------------------
    def eval(self, env: Mapping[str, float]) -> float:
        """Evaluate to a float under the variable assignment ``env``."""
        raise NotImplementedError

    def eval_interval(self, env: Mapping[str, Interval]) -> Interval:
        """Evaluate to an interval enclosure under interval assignment."""
        raise NotImplementedError

    def diff(self, var: str) -> "Expr":
        """Symbolic partial derivative with respect to ``var``."""
        raise NotImplementedError

    def subs(self, env: Mapping[str, ExprLike]) -> "Expr":
        """Substitute expressions for variables."""
        raise NotImplementedError

    def variables(self) -> frozenset[str]:
        """Free variables of the expression."""
        raise NotImplementedError

    def children(self) -> tuple["Expr", ...]:
        """Direct subexpressions, left to right (none for a leaf)."""
        return ()

    # -- utilities ------------------------------------------------------
    def simplify(self) -> "Expr":
        """Algebraically simplified copy (see :mod:`repro.expr.simplify`)."""
        from .simplify import simplify

        return simplify(self)

    def gradient(self, names: Iterable[str]) -> dict[str, "Expr"]:
        """Simplified partial derivatives with respect to each of ``names``."""
        return {n: self.diff(n).simplify() for n in names}

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self!s})"

    def __str__(self) -> str:  # overridden below
        raise NotImplementedError

    def __hash__(self) -> int:
        return hash(self._key())

    def __eq__(self, other: object) -> bool:
        # NOTE: structural equality, NOT a logic atom; use .eq() for atoms.
        if not isinstance(other, Expr):
            return NotImplemented
        return self._key() == other._key()

    def _key(self) -> tuple:
        raise NotImplementedError


class Var(Expr):
    """A free real variable, identified by name."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        if not name or not isinstance(name, str):
            raise ValueError(f"invalid variable name: {name!r}")
        self.name = name

    def eval(self, env: Mapping[str, float]) -> float:
        """The bound value of this variable, as a float."""
        try:
            return float(env[self.name])
        except KeyError:
            raise KeyError(f"variable {self.name!r} not bound in environment") from None

    def eval_interval(self, env: Mapping[str, Interval]) -> Interval:
        """The bound interval (a bound number becomes a point interval)."""
        try:
            v = env[self.name]
        except KeyError:
            raise KeyError(f"variable {self.name!r} not bound in environment") from None
        if isinstance(v, Interval):
            return v
        return Interval.point(float(v))

    def diff(self, var: str) -> Expr:
        """1 with respect to itself, else 0."""
        return Const(1.0) if var == self.name else Const(0.0)

    def subs(self, env: Mapping[str, ExprLike]) -> Expr:
        """The expression ``env`` binds to this name, or the variable itself."""
        if self.name in env:
            return as_expr(env[self.name])
        return self

    def variables(self) -> frozenset[str]:
        """The singleton set of this variable's name."""
        return frozenset({self.name})

    def __str__(self) -> str:
        return self.name

    def _key(self) -> tuple:
        return ("var", self.name)


class Const(Expr):
    """A real constant (0-ary function of the signature F)."""

    __slots__ = ("value",)

    def __init__(self, value: float):
        self.value = float(value)

    def eval(self, env: Mapping[str, float]) -> float:
        """The constant's value."""
        return self.value

    def eval_interval(self, env: Mapping[str, Interval]) -> Interval:
        """The point interval at the constant's value."""
        return Interval.point(self.value)

    def diff(self, var: str) -> Expr:
        """Always 0."""
        return Const(0.0)

    def subs(self, env: Mapping[str, ExprLike]) -> Expr:
        """The constant itself."""
        return self

    def variables(self) -> frozenset[str]:
        """The empty set."""
        return frozenset()

    def __str__(self) -> str:
        if self.value == int(self.value) and abs(self.value) < 1e15:
            return str(int(self.value))
        return repr(self.value)

    def _key(self) -> tuple:
        return ("const", self.value)


class Unary(Expr):
    """Application of a unary function from the signature F."""

    __slots__ = ("op", "arg")

    def __init__(self, op: str, arg: Expr):
        if op not in UNARY_FLOAT:
            raise ValueError(f"unknown unary operator {op!r}")
        self.op = op
        self.arg = arg

    def eval(self, env: Mapping[str, float]) -> float:
        """Apply the function to the argument's value; domain and overflow
        errors raise ``ArithmeticError``."""
        x = self.arg.eval(env)
        try:
            return UNARY_FLOAT[self.op](x)
        except (ValueError, OverflowError) as exc:
            raise ArithmeticError(f"{self.op}({x}) failed: {exc}") from None

    def eval_interval(self, env: Mapping[str, Interval]) -> Interval:
        """Interval extension of the function over the argument's enclosure."""
        return UNARY_INTERVAL[self.op](self.arg.eval_interval(env))

    def diff(self, var: str) -> Expr:
        """Chain rule for the function (``abs`` as ``u/|u|``, undefined at 0)."""
        u = self.arg
        du = u.diff(var)
        if self.op == "neg":
            return -du
        if self.op == "exp":
            return Unary("exp", u) * du
        if self.op == "log":
            return du / u
        if self.op == "sqrt":
            return du / (Const(2.0) * Unary("sqrt", u))
        if self.op == "sin":
            return Unary("cos", u) * du
        if self.op == "cos":
            return -Unary("sin", u) * du
        if self.op == "tan":
            return (Const(1.0) + Unary("tan", u) ** Const(2.0)) * du
        if self.op == "tanh":
            return (Const(1.0) - Unary("tanh", u) ** Const(2.0)) * du
        if self.op == "sigmoid":
            s = Unary("sigmoid", u)
            return s * (Const(1.0) - s) * du
        if self.op == "abs":
            # d|u|/dx = sign(u) * du ; encoded as u/|u| (undefined at 0)
            return (u / Unary("abs", u)) * du
        raise NotImplementedError(self.op)

    def subs(self, env: Mapping[str, ExprLike]) -> Expr:
        """The same function of the substituted argument."""
        return Unary(self.op, self.arg.subs(env))

    def variables(self) -> frozenset[str]:
        """The argument's free variables."""
        return self.arg.variables()

    def children(self) -> tuple[Expr, ...]:
        """The one argument."""
        return (self.arg,)

    def __str__(self) -> str:
        if self.op == "neg":
            return f"(-{self.arg})"
        return f"{self.op}({self.arg})"

    def _key(self) -> tuple:
        return ("unary", self.op, self.arg._key())


class Binary(Expr):
    """Application of a binary operation (add/sub/mul/div/pow/min/max)."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr):
        if op not in _BINARY_OPS:
            raise ValueError(f"unknown binary operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def eval(self, env: Mapping[str, float]) -> float:
        """Apply the operation to both values; division by zero and failed
        powers raise ``ArithmeticError``."""
        a = self.left.eval(env)
        b = self.right.eval(env)
        op = self.op
        if op == "add":
            return a + b
        if op == "sub":
            return a - b
        if op == "mul":
            return a * b
        if op == "div":
            if b == 0.0:
                raise ArithmeticError(f"division by zero in {self}")
            return a / b
        if op == "pow":
            try:
                return math.pow(a, b)
            except (ValueError, OverflowError) as exc:
                raise ArithmeticError(f"pow({a}, {b}) failed: {exc}") from None
        if op == "min":
            return min(a, b)
        if op == "max":
            return max(a, b)
        raise NotImplementedError(op)

    def eval_interval(self, env: Mapping[str, Interval]) -> Interval:
        """Interval extension of the operation (empty if either side is empty)."""
        a = self.left.eval_interval(env)
        b = self.right.eval_interval(env)
        if a.is_empty or b.is_empty:
            return EMPTY
        op = self.op
        if op == "add":
            return a + b
        if op == "sub":
            return a - b
        if op == "mul":
            return a * b
        if op == "div":
            return a / b
        if op == "pow":
            if b.is_point:
                return a.pow(b.lo)
            # general interval exponent: via exp(b*log(a)), domain a>0
            return (a.log() * b).exp()
        if op == "min":
            return a.min_with(b)
        if op == "max":
            return a.max_with(b)
        raise NotImplementedError(op)

    def diff(self, var: str) -> Expr:
        """Sum, product, quotient and power rules; ``min``/``max`` are not
        differentiable."""
        u, v = self.left, self.right
        du, dv = u.diff(var), v.diff(var)
        op = self.op
        if op == "add":
            return du + dv
        if op == "sub":
            return du - dv
        if op == "mul":
            return du * v + u * dv
        if op == "div":
            return (du * v - u * dv) / (v * v)
        if op == "pow":
            if isinstance(v, Const):
                n = v.value
                return Const(n) * (u ** Const(n - 1.0)) * du
            # u^v = exp(v log u)
            return (u ** v) * (dv * Unary("log", u) + v * du / u)
        if op in ("min", "max"):
            raise NotImplementedError(f"{op} is not differentiable symbolically")
        raise NotImplementedError(op)

    def subs(self, env: Mapping[str, ExprLike]) -> Expr:
        """The same operation of both substituted operands."""
        return Binary(self.op, self.left.subs(env), self.right.subs(env))

    def variables(self) -> frozenset[str]:
        """Free variables of both operands."""
        return self.left.variables() | self.right.variables()

    def children(self) -> tuple[Expr, ...]:
        """The left and right operands."""
        return (self.left, self.right)

    def __str__(self) -> str:
        sym = {"add": "+", "sub": "-", "mul": "*", "div": "/", "pow": "^"}
        if self.op in sym:
            left = str(self.left)
            # a negative constant base must keep its own parentheses so
            # "(-1) ^ 0" does not re-parse as "-(1 ^ 0)"
            if self.op == "pow" and isinstance(self.left, Const) and self.left.value < 0:
                left = f"({left})"
            return f"({left} {sym[self.op]} {self.right})"
        return f"{self.op}({self.left}, {self.right})"

    def _key(self) -> tuple:
        return ("binary", self.op, self.left._key(), self.right._key())


def as_expr(x: ExprLike) -> Expr:
    """Coerce a float/int into a :class:`Const`; pass expressions through."""
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, float)):
        return Const(float(x))
    raise TypeError(f"cannot convert {type(x).__name__} to Expr")


def _mk_binary(op: str, a: Expr, b: Expr) -> Expr:
    """Binary node with light constant folding at construction."""
    if isinstance(a, Const) and isinstance(b, Const):
        try:
            return Const(Binary(op, a, b).eval({}))
        except ArithmeticError:
            pass
    return Binary(op, a, b)
