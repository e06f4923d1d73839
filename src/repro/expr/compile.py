"""Compilation of expressions into Python functions.

The ODE simulators evaluate vector fields millions of times; walking the
AST per call is too slow.  Each compiler here translates an expression
tree once into the source of one Python function: arithmetic stays
Python operators, and every other function of the signature is a numpy
ufunc, so the same code runs on Python floats, numpy scalars and
arrays, giving ~50x faster evaluation than the AST walk.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .ast import Binary, Const, Expr, Unary, Var

__all__ = ["compile_numpy", "compile_vector_field", "compile_vector_field_batch"]

_UNARY_NP = {
    "neg": "-({0})",
    "abs": "np.abs({0})",
    "sqrt": "np.sqrt({0})",
    "exp": "np.exp({0})",
    "log": "np.log({0})",
    "sin": "np.sin({0})",
    "cos": "np.cos({0})",
    "tan": "np.tan({0})",
    "tanh": "np.tanh({0})",
    "sigmoid": "_sigmoid({0})",
}

_BINARY_NP = {
    "add": "({0}) + ({1})",
    "sub": "({0}) - ({1})",
    "mul": "({0}) * ({1})",
    "div": "({0}) / ({1})",
    "pow": "({0}) ** ({1})",
    "min": "np.minimum({0}, {1})",
    "max": "np.maximum({0}, {1})",
}


def _sigmoid(x):
    # numerically stable logistic for arrays and scalars
    return 0.5 * (1.0 + np.tanh(0.5 * np.asarray(x, dtype=float)))


def _real_pow(base, exponent):
    """``base ** exponent``, refusing the complex result Python's float
    power gives a negative base with a fractional exponent (numpy's
    power gives nan there)."""
    out = base ** exponent
    if type(out) is complex:
        raise ValueError(f"negative base {base!r} to fractional power {exponent!r}")
    return out


def _integral(e: Expr) -> bool:
    """True for a constant whole-number exponent: a real power of any base."""
    return isinstance(e, Const) and float(e.value).is_integer()


def _emit(e: Expr, names: dict[str, str], real_pow: bool = False) -> str:
    """Python source for ``e``; variables are spelled as ``names`` maps them.

    With ``real_pow``, a power whose exponent is not a constant whole
    number is emitted as :func:`_real_pow`, so a scalar field on Python
    floats raises instead of going complex.
    """
    if isinstance(e, Const):
        return repr(e.value)
    if isinstance(e, Var):
        try:
            return names[e.name]
        except KeyError:
            raise KeyError(f"unbound variable {e.name!r} in compiled expression") from None
    if isinstance(e, Unary):
        return _UNARY_NP[e.op].format(_emit(e.arg, names, real_pow))
    if isinstance(e, Binary):
        left = _emit(e.left, names, real_pow)
        right = _emit(e.right, names, real_pow)
        if real_pow and e.op == "pow" and not _integral(e.right):
            return f"_real_pow({left}, {right})"
        return _BINARY_NP[e.op].format(left, right)
    raise TypeError(f"cannot compile node {type(e).__name__}")


def compile_numpy(e: Expr, arg_order: Sequence[str]) -> Callable[..., np.ndarray]:
    """Compile ``e`` into ``f(*args)`` with positional args in ``arg_order``.

    Each argument may be a scalar or a numpy array; broadcasting follows
    numpy rules.  Variables of ``e`` not in ``arg_order`` raise KeyError
    at compile time.
    """
    names = {n: f"_a{i}" for i, n in enumerate(arg_order)}
    body = _emit(e, names)
    src = f"def _compiled({', '.join(names.values())}):\n    return {body}\n"
    scope: dict = {"np": np, "_sigmoid": _sigmoid}
    exec(src, scope)  # noqa: S102 -- code is generated from our own AST only
    fn = scope["_compiled"]
    fn.__doc__ = f"compiled: {e}"
    return fn


def compile_vector_field(
    exprs: Sequence[Expr], state_names: Sequence[str], param_names: Sequence[str] = ()
) -> Callable[..., list]:
    """Compile a list of expressions into ``f(t, y, params) -> list``.

    ``y`` is any indexable sequence of state values in ``state_names``
    order -- a list of Python floats or a float ndarray; ``params`` is a
    dict.  The time variable ``t`` is available to the expressions if
    they use it.  The result holds one value per expression.

    On an ndarray ``y`` every state value is a ``np.float64``, so the
    arithmetic follows numpy's scalar rules: a division by zero, an
    overflow or a fractional power of a negative number gives
    ``inf``/``nan`` (with a ``RuntimeWarning``).  On Python floats the
    same code follows Python's: the bits of every finite result are the
    same, but those cases raise ``ZeroDivisionError``,
    ``OverflowError`` or ``ValueError`` instead, so a caller that wants
    numpy's answer re-runs the call on an ndarray.
    """
    names = {n: f"_y[{i}]" for i, n in enumerate(state_names)}
    names["t"] = "_t"
    for p in param_names:
        names.setdefault(p, f"_p[{p!r}]")
    joined = ", ".join(_emit(e, names, real_pow=True) for e in exprs)
    src = f"def _field(_t, _y, _p):\n    return [{joined}]\n"
    scope: dict = {"np": np, "_sigmoid": _sigmoid, "_real_pow": _real_pow}
    exec(src, scope)  # noqa: S102
    return scope["_field"]


def compile_vector_field_batch(
    exprs: Sequence[Expr], state_names: Sequence[str], param_names: Sequence[str] = ()
) -> Callable[..., np.ndarray]:
    """Compile a vector field over a whole *batch* of states at once.

    The returned ``f(t, Y, params) -> ndarray`` takes ``Y`` of shape
    ``(dim, n)`` -- one column per trajectory/particle -- and returns the
    derivatives in the same shape.  Parameters may be scalars or
    ``(n,)`` arrays (per-particle parameters); both broadcast.  Each
    component is assigned into a preallocated output row, so constant
    derivatives broadcast instead of producing ragged arrays.
    """
    names = {n: f"_Y[{i}]" for i, n in enumerate(state_names)}
    names["t"] = "_t"
    for p in param_names:
        names.setdefault(p, f"_p[{p!r}]")
    lines = ["def _field(_t, _Y, _p):", "    _out = np.empty_like(_Y)"]
    for i, e in enumerate(exprs):
        lines.append(f"    _out[{i}] = {_emit(e, names)}")
    lines.append("    return _out")
    src = "\n".join(lines) + "\n"
    scope: dict = {"np": np, "_sigmoid": _sigmoid}
    exec(src, scope)  # noqa: S102
    return scope["_field"]
