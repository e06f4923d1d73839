"""Symbolic ODE systems.

An :class:`ODESystem` is the single-mode model class of the paper
(Section I: "a standard approach of modeling the dynamics of a
biochemical network is through a system of ordinary differential
equations"): a vector field ``dx/dt = f(x, p, t)`` given symbolically,
so it can be simulated numerically, enclosed with interval arithmetic
(making the flow a *computable function* in the sense of Definition 7),
and differentiated for Jacobians and Lie derivatives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.expr import Expr, ExprLike, as_expr, compile_vector_field
from repro.expr.compile import compile_vector_field_batch
from repro.intervals import Box, Interval

__all__ = ["ODESystem"]


def _exact(key: tuple) -> tuple:
    """``Expr._key()`` with every float replaced by its ``float.hex``."""
    return tuple(
        _exact(k) if isinstance(k, tuple) else k.hex() if isinstance(k, float) else k
        for k in key
    )


@dataclass
class ODESystem:
    """A parameterized system of ODEs ``dx_i/dt = f_i(x, p, t)``.

    Parameters
    ----------
    derivatives:
        Mapping from state-variable name to its time derivative as an
        expression.  Expressions may mention states, parameters and the
        reserved time variable ``t``.
    params:
        Default parameter values.  Every free variable of the
        derivatives that is not a state and not ``t`` must appear here.
    name:
        Optional human-readable model name.
    """

    derivatives: Mapping[str, ExprLike]
    params: Mapping[str, float] = field(default_factory=dict)
    name: str = "ode"

    def __post_init__(self):
        self.derivatives = {k: as_expr(v) for k, v in self.derivatives.items()}
        self.params = dict(self.params)
        free = set().union(*(e.variables() for e in self.derivatives.values())) if self.derivatives else set()
        states = set(self.derivatives)
        unknown = free - states - set(self.params) - {"t"}
        if unknown:
            raise ValueError(
                f"vector field mentions unbound symbols {sorted(unknown)}; "
                "add them to params or states"
            )
        self._compiled: Callable | None = None
        self._compiled_list: Callable | None = None
        self._compiled_batch: Callable | None = None
        self._jacobian: dict[str, dict[str, Expr]] | None = None
        self._param_jacobians: dict[tuple[str, ...], dict[str, dict[str, Expr]]] = {}
        self._fingerprint: tuple | None = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def state_names(self) -> list[str]:
        """State-variable names, in the order of ``derivatives``."""
        return list(self.derivatives)

    @property
    def param_names(self) -> list[str]:
        """Parameter names, in the order of ``params``."""
        return list(self.params)

    @property
    def dim(self) -> int:
        """Number of state variables."""
        return len(self.derivatives)

    def is_autonomous(self) -> bool:
        """True when no derivative mentions the time variable ``t``."""
        return all("t" not in e.variables() for e in self.derivatives.values())

    def fingerprint(self) -> tuple:
        """Bit-exact structural key of the vector field, in state order.

        Constants are keyed by ``float.hex``, so ``Const(-0.0)`` and
        ``Const(0.0)`` differ, where ``Expr`` equality merges them.
        Parameter values are not part of it.  Built once per system: the
        derivatives are fixed after construction.
        """
        if self._fingerprint is None:
            self._fingerprint = tuple(
                (name, _exact(e._key())) for name, e in self.derivatives.items()
            )
        return self._fingerprint

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def rhs(self) -> Callable[[float, np.ndarray, Mapping[str, float]], np.ndarray]:
        """Compiled vector field ``f(t, y, params) -> ndarray``.

        :meth:`rhs_list` wrapped in ``np.array(..., dtype=float)``; on
        an ndarray ``y`` it follows numpy's scalar rules throughout.
        """
        if self._compiled is None:
            body = self.rhs_list()

            def field(t, y, p):
                return np.array(body(t, y, p), dtype=float)

            self._compiled = field
        return self._compiled

    def rhs_list(self) -> Callable[[float, Sequence[float], Mapping[str, float]], list]:
        """Compiled vector field ``f(t, y, params) -> list``.

        Takes the state as a list of Python floats or an ndarray; see
        :func:`~repro.expr.compile.compile_vector_field` for where the
        two differ (only in what raises).  ``rk45`` runs on it.
        """
        if self._compiled_list is None:
            self._compiled_list = compile_vector_field(
                list(self.derivatives.values()),
                self.state_names,
                self.param_names,
            )
        return self._compiled_list

    def rhs_batch(self) -> Callable[[float, np.ndarray, Mapping], np.ndarray]:
        """Compiled batched vector field ``f(t, Y, params) -> ndarray``.

        ``Y`` has shape ``(dim, n)`` -- one column per particle; params
        may be scalars or per-particle ``(n,)`` arrays.
        """
        if self._compiled_batch is None:
            self._compiled_batch = compile_vector_field_batch(
                list(self.derivatives.values()),
                self.state_names,
                self.param_names,
            )
        return self._compiled_batch

    def eval_field(
        self, state: Mapping[str, float], params: Mapping[str, float] | None = None,
        t: float = 0.0,
    ) -> dict[str, float]:
        """Evaluate the vector field at a named state point."""
        env = {**self.params, **(params or {}), **state, "t": t}
        return {k: e.eval(env) for k, e in self.derivatives.items()}

    def eval_field_interval(
        self, box: Box, param_box: Box | None = None, t: Interval | None = None
    ) -> dict[str, Interval]:
        """Interval enclosure of the vector field over a state box."""
        env: dict[str, Interval] = {
            k: Interval.point(v) for k, v in self.params.items()
        }
        if param_box is not None:
            env.update(dict(param_box))
        env.update(dict(box))
        env["t"] = t if t is not None else Interval.point(0.0)
        return {k: e.eval_interval(env) for k, e in self.derivatives.items()}

    # ------------------------------------------------------------------
    # Calculus
    # ------------------------------------------------------------------
    def jacobian(self) -> dict[str, dict[str, Expr]]:
        """Symbolic Jacobian ``J[i][j] = d f_i / d x_j``.

        Built once per system and shared by every caller: do not mutate
        the returned mapping.  It is symbolic in the parameters, so a
        later change of ``params`` values cannot make it stale.  Two
        threads racing on the first call both build equal mappings, so
        the cache needs no lock.
        """
        if self._jacobian is None:
            self._jacobian = {
                i: {j: self.derivatives[i].diff(j).simplify() for j in self.state_names}
                for i in self.state_names
            }
        return self._jacobian

    def param_jacobian(self, names: Sequence[str]) -> dict[str, dict[str, Expr]]:
        """Symbolic parameter Jacobian ``P[i][p] = d f_i / d p`` for ``names``.

        Memoized per tuple of ``names`` and shared like :meth:`jacobian`:
        do not mutate the returned mapping.
        """
        key = tuple(names)
        jac = self._param_jacobians.get(key)
        if jac is None:
            jac = {
                i: {p: self.derivatives[i].diff(p).simplify() for p in key}
                for i in self.state_names
            }
            self._param_jacobians[key] = jac
        return jac

    def lie_derivative(self, v: ExprLike) -> Expr:
        """Lie derivative of scalar field ``v`` along the flow.

        ``dV/dt = sum_i (dV/dx_i) * f_i`` -- the quantity that must be
        negative for a Lyapunov function (paper Section IV-C).
        """
        v = as_expr(v)
        total: Expr = as_expr(0.0)
        for name, f in self.derivatives.items():
            total = total + v.diff(name) * f
        return total.simplify()

    # ------------------------------------------------------------------
    # Transformation
    # ------------------------------------------------------------------
    def with_params(self, **overrides: float) -> "ODESystem":
        """Copy with some default parameters replaced."""
        unknown = set(overrides) - set(self.params)
        if unknown:
            raise KeyError(f"unknown parameters: {sorted(unknown)}")
        return ODESystem(
            self.derivatives, {**self.params, **overrides}, name=self.name
        )

    def substitute_params(self, names: Sequence[str] | None = None) -> "ODESystem":
        """Inline (some) parameter values into the expressions.

        Inlined parameters disappear from ``params``; the remaining ones
        stay symbolic.  Used when synthesizing over a subset of
        parameters: the searched ones stay free variables.
        """
        names = list(self.params) if names is None else list(names)
        env = {n: self.params[n] for n in names}
        remaining = {k: v for k, v in self.params.items() if k not in env}
        return ODESystem(
            {k: e.subs(env) for k, e in self.derivatives.items()},
            remaining,
            name=self.name,
        )

    def equilibria_conditions(self):
        """The formula ``f(x) = 0`` (conjunction of equality bands).

        Solving it with the delta-solver locates steady states.
        """
        from repro.logic import And, eq_zero

        return And(*[eq_zero(e) for e in self.derivatives.values()])

    def __repr__(self) -> str:
        eqs = ", ".join(f"d{k}/dt={e}" for k, e in list(self.derivatives.items())[:3])
        more = "..." if self.dim > 3 else ""
        return f"ODESystem({self.name!r}: {eqs}{more})"
