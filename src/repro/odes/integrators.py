"""Numerical ODE integration: fixed-step RK4 and adaptive Dormand-Prince.

Written from scratch (no scipy dependency in the hot path) because the
hybrid simulator needs dense output and bisection-based event location
under our control, and the SMC layer needs deterministic, seedable,
cheap trajectories.

The integrators return a :class:`Trajectory` supporting interpolation,
which the BLTL monitor (:mod:`repro.smc`) and the feature extractors
(:mod:`repro.models.cardiac`) consume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .system import ODESystem

__all__ = ["Trajectory", "IntegrationError", "rk4", "rk4_batch", "rk45", "simulate"]


class IntegrationError(RuntimeError):
    """Raised when integration fails (blow-up, step underflow)."""


@dataclass
class Trajectory:
    """A sampled solution ``x(t)`` with dense-output access.

    Attributes
    ----------
    times:
        Strictly increasing sample times, shape ``(n,)``.
    states:
        Sampled states, shape ``(n, dim)``.
    names:
        State variable names (column order of ``states``).
    derivs:
        Optional vector-field samples matching ``states``; when present,
        interpolation is cubic Hermite (high-accuracy dense output),
        otherwise linear.
    """

    times: np.ndarray
    states: np.ndarray
    names: list[str]
    derivs: np.ndarray | None = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        if self.states.ndim == 1:
            self.states = self.states.reshape(-1, 1)
        if len(self.times) != len(self.states):
            raise ValueError("times/states length mismatch")
        if self.derivs is not None:
            self.derivs = np.asarray(self.derivs, dtype=float)
            if self.derivs.shape != self.states.shape:
                raise ValueError("derivs/states shape mismatch")

    def _dense(self, t: float) -> list[float]:
        """Dense-output state at ``t`` (Hermite if derivatives stored).

        Only the two bracketing samples leave numpy; the formula runs on
        Python floats in the same association order as the row-wise
        numpy expression, so every component has the same bits.
        """
        n = len(self.times)
        if n == 1:
            return self.states[0].tolist()
        idx = int(self.times.searchsorted(t, "right")) - 1
        idx = min(max(idx, 0), n - 2)
        t0, t1 = self.times[idx : idx + 2].tolist()
        y0, y1 = self.states[idx : idx + 2].tolist()
        h = t1 - t0
        if h <= 0:
            return y0
        s = (t - t0) / h
        if self.derivs is None:
            return [a + s * (b - a) for a, b in zip(y0, y1)]
        d0, d1 = self.derivs[idx : idx + 2].tolist()
        h00 = (1 + 2 * s) * (1 - s) ** 2
        h10h = s * (1 - s) ** 2 * h
        h01 = s * s * (3 - 2 * s)
        h11h = s * s * (s - 1) * h
        return [
            ((h00 * a + h10h * da) + h01 * b) + h11h * db
            for a, b, da, db in zip(y0, y1, d0, d1)
        ]

    @property
    def t0(self) -> float:
        """First sample time."""
        return float(self.times[0])

    @property
    def t_end(self) -> float:
        """Last sample time."""
        return float(self.times[-1])

    def __len__(self) -> int:
        return len(self.times)

    def column(self, name: str) -> np.ndarray:
        """Samples of state ``name``, one per entry of ``times``."""
        return self.states[:, self.names.index(name)]

    def at(self, t: float) -> dict[str, float]:
        """State at time ``t`` by dense-output interpolation."""
        t = float(t)
        lo, hi = self.t0, self.t_end
        if not (lo - 1e-12 <= t <= hi + 1e-12):
            raise ValueError(f"time {t} outside trajectory [{lo}, {hi}]")
        return dict(zip(self.names, self._dense(min(max(t, lo), hi))))

    def at_many(self, ts) -> np.ndarray:
        """States at many times, shape ``(len(ts), dim)`` in ``names`` order.

        Row ``i`` has the bits of ``at(ts[i])``: the same ``±1e-12``
        clamp and range error, and :meth:`_dense`'s formula applied
        elementwise in the same association order.  The Hermite square
        ``(1 - s) ** 2`` is Python's float power per element, as in
        :meth:`_dense`, because numpy's array square differs from it in
        the last bit for a few inputs.
        """
        ts = np.asarray(ts, dtype=float).reshape(-1)
        lo, hi = self.t0, self.t_end
        first, last = (ts.min(), ts.max()) if len(ts) else (lo, hi)
        if not (first >= lo - 1e-12 and last <= hi + 1e-12):
            outside = ~((ts >= lo - 1e-12) & (ts <= hi + 1e-12))
            t = float(ts[outside.argmax()])
            raise ValueError(f"time {t} outside trajectory [{lo}, {hi}]")
        if first < lo or last > hi:
            ts = np.where(lo > ts, lo, ts)
            ts = np.where(hi < ts, hi, ts)
        n = len(self.times)
        if n == 1:
            return np.repeat(self.states[:1], len(ts), axis=0)
        idx = np.minimum(np.maximum(self.times.searchsorted(ts, "right") - 1, 0), n - 2)
        t0, t1 = self.times[idx], self.times[idx + 1]
        y0, y1 = self.states[idx], self.states[idx + 1]
        h = t1 - t0
        flat = h <= 0
        with np.errstate(all="ignore"):
            s = (ts - t0) / h
            if self.derivs is None:
                rows = y0 + s[:, None] * (y1 - y0)
            else:
                d0, d1 = self.derivs[idx], self.derivs[idx + 1]
                u = 1 - s
                sq = np.array([v ** 2 for v in u.tolist()], dtype=float)
                h00 = (1 + 2 * s) * sq
                h10h = s * sq * h
                h01 = s * s * (3 - 2 * s)
                h11h = s * s * (s - 1) * h
                rows = ((h00[:, None] * y0 + h10h[:, None] * d0)
                        + h01[:, None] * y1) + h11h[:, None] * d1
        if np.count_nonzero(flat):
            rows[flat] = y0[flat]
        return rows

    def value(self, name: str, t: float) -> float:
        """Value of state ``name`` at time ``t`` (dense output)."""
        return self.at(t)[name]

    def final(self) -> dict[str, float]:
        """State at the last sample time."""
        return dict(zip(self.names, map(float, self.states[-1])))

    def restricted(self, t_from: float, t_to: float) -> "Trajectory":
        """Sub-trajectory on ``[t_from, t_to]`` (endpoints interpolated)."""
        mask = (self.times > t_from) & (self.times < t_to)
        ts = np.concatenate([[t_from], self.times[mask], [t_to]])
        states = np.vstack([self._dense(t_from), self.states[mask], self._dense(t_to)])
        derivs = None
        if self.derivs is not None:
            # endpoint derivatives approximated by the nearest sample
            i0 = int(np.searchsorted(self.times, t_from))
            i1 = int(np.searchsorted(self.times, t_to)) - 1
            i0 = min(max(i0, 0), len(self.times) - 1)
            i1 = min(max(i1, 0), len(self.times) - 1)
            derivs = np.vstack(
                [self.derivs[i0], self.derivs[mask], self.derivs[i1]]
            )
        return Trajectory(ts, states, list(self.names), derivs)

    def concat(self, other: "Trajectory") -> "Trajectory":
        """Join two trajectories end-to-start (shared sample dropped)."""
        if other.names != self.names:
            raise ValueError("state name mismatch")
        skip = 1 if abs(other.t0 - self.t_end) < 1e-12 else 0
        derivs = None
        if self.derivs is not None and other.derivs is not None:
            derivs = np.vstack([self.derivs, other.derivs[skip:]])
        return Trajectory(
            np.concatenate([self.times, other.times[skip:]]),
            np.vstack([self.states, other.states[skip:]]),
            list(self.names),
            derivs,
        )


# ----------------------------------------------------------------------
# Fixed-step classic RK4
# ----------------------------------------------------------------------


def rk4(
    system: ODESystem,
    x0: Mapping[str, float],
    t_span: tuple[float, float],
    dt: float,
    params: Mapping[str, float] | None = None,
) -> Trajectory:
    """Classic 4th-order Runge-Kutta with fixed step ``dt``."""
    f = system.rhs()
    p = {**system.params, **(params or {})}
    names = system.state_names
    t0, t1 = map(float, t_span)
    if t1 <= t0:
        raise ValueError("t_span must be increasing")
    if dt <= 0:
        raise ValueError("dt must be positive")
    y = np.array([float(x0[n]) for n in names])
    times = [t0]
    rows = [y.copy()]
    derivs = [f(t0, y, p)]
    t = t0
    while t < t1 - 1e-12:
        h = min(dt, t1 - t)
        k1 = derivs[-1]  # f at (t, y), stored by the previous step
        k2 = f(t + 0.5 * h, y + 0.5 * h * k1, p)
        k3 = f(t + 0.5 * h, y + 0.5 * h * k2, p)
        k4 = f(t + h, y + h * k3, p)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.all(np.isfinite(y)):
            raise IntegrationError(f"state blew up at t={t + h:.6g}")
        t += h
        times.append(t)
        rows.append(y.copy())
        derivs.append(f(t, y, p))
    return Trajectory(np.array(times), np.array(rows), names, np.array(derivs))


# ----------------------------------------------------------------------
# Batched fixed-step RK4: all particles advance in lockstep
# ----------------------------------------------------------------------


def rk4_batch(
    system: ODESystem,
    x0s: "list[Mapping[str, float]]",
    t_span: tuple[float, float],
    dt: float,
    params: "list[Mapping[str, float]] | Mapping[str, float] | None" = None,
) -> "list[Trajectory | None]":
    """Classic RK4 over a whole batch of initial conditions at once.

    The state carries a batched axis: integration runs on a ``(dim, n)``
    array, so one vectorized vector-field evaluation advances every
    particle simultaneously -- this is what lets the SMC layer propagate
    whole particle populations instead of simulating trajectories one by
    one.

    ``params`` may be one mapping shared by all particles or a list of
    per-particle mappings (values become ``(n,)`` arrays).

    Returns one :class:`Trajectory` per initial condition, in order.
    Particles whose state leaves the finite range are frozen and
    reported as ``None`` (the batch keeps going for the others), so the
    caller decides whether a blow-up is an error or a failed sample.
    """
    f = system.rhs_batch()
    names = system.state_names
    t0, t1 = map(float, t_span)
    if t1 <= t0:
        raise ValueError("t_span must be increasing")
    if dt <= 0:
        raise ValueError("dt must be positive")
    n = len(x0s)
    if n == 0:
        return []
    Y = np.array([[float(x0[name]) for x0 in x0s] for name in names])
    if params is None or isinstance(params, Mapping):
        overrides = [dict(params or {})] * n
    else:
        overrides = [dict(p) for p in params]
    p: dict[str, np.ndarray | float] = {}
    for pname, default in system.params.items():
        vals = [float(o.get(pname, default)) for o in overrides]
        p[pname] = vals[0] if all(v == vals[0] for v in vals) else np.array(vals)

    alive = np.ones(n, dtype=bool)
    times = [t0]
    with np.errstate(all="ignore"):
        rows = [Y.copy()]
        derivs = [f(t0, Y, p)]
        bad0 = ~np.isfinite(Y).all(axis=0)
        alive &= ~bad0
        t = t0
        while t < t1 - 1e-12:
            h = min(dt, t1 - t)
            k1 = derivs[-1]  # f at (t, Y), stored by the previous step
            k2 = f(t + 0.5 * h, Y + 0.5 * h * k1, p)
            k3 = f(t + 0.5 * h, Y + 0.5 * h * k2, p)
            k4 = f(t + h, Y + h * k3, p)
            Y_new = Y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            bad = ~np.isfinite(Y_new).all(axis=0)
            newly_dead = bad & alive
            if newly_dead.any():
                # freeze blown-up particles at their last finite state
                Y_new[:, newly_dead] = Y[:, newly_dead]
                alive &= ~newly_dead
            t += h
            Y = Y_new
            times.append(t)
            rows.append(Y.copy())
            derivs.append(f(t, Y, p))

    times_arr = np.array(times)
    states = np.array(rows)   # (steps, dim, n)
    dstack = np.array(derivs)
    out: list[Trajectory | None] = []
    for i in range(n):
        if not alive[i]:
            out.append(None)
            continue
        di = dstack[:, :, i]
        if not np.isfinite(di).all():
            di = None  # frozen-neighbour NaNs never leak; drop Hermite data
        out.append(Trajectory(times_arr, states[:, :, i], list(names), di))
    return out


# ----------------------------------------------------------------------
# Adaptive Dormand-Prince RK45
# ----------------------------------------------------------------------

# Butcher tableau of Dormand-Prince 5(4).  The last row of ``_DP_A``
# equals the 5th-order weights, so the seventh stage is evaluated at the
# accepted state itself: its derivative is the next step's first stage
# (first-same-as-last, FSAL).
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0, 0.0],
    [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0, 0.0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0, 0.0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0, 0.0],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0],
])
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)
_DP_E = _DP_B5 - _DP_B4
# (stage index, node c_i, row _DP_A[i, :i]) for stages 2..7
_DP_STAGES = tuple((i, float(_DP_C[i]), _DP_A[i, :i]) for i in range(1, 7))
#: What Python's float arithmetic raises where numpy's scalars give
#: ``inf``/``nan``; see :func:`~repro.expr.compile.compile_vector_field`.
_NUMPY_ONLY = (ZeroDivisionError, OverflowError, ValueError)


def _sum_squares(values: list[float]) -> float:
    """``np.add.reduce`` of the squares of ``values``, bit for bit.

    Below eight terms numpy adds them one by one from ``0.0``; from
    eight on it sums pairwise, and the array call is kept.
    """
    if len(values) < 8:
        total = 0.0
        for v in values:
            total += v * v
        return total
    return float(np.add.reduce(np.square(values)))


def rk45(
    system: ODESystem,
    x0: Mapping[str, float],
    t_span: tuple[float, float],
    params: Mapping[str, float] | None = None,
    rtol: float = 1e-6,
    atol: float = 1e-9,
    max_step: float | None = None,
    first_step: float | None = None,
    max_steps: int = 1_000_000,
    *,
    stop: Callable[[float, list[float]], bool] | None = None,
) -> Trajectory:
    """Adaptive Dormand-Prince 5(4) integration with PI step control.

    Each attempted step costs six vector-field calls: the first stage is
    the previous accepted step's last one (FSAL), and it survives
    rejected steps.  Every stored ``derivs[i]`` is exactly
    ``f(times[i], states[i])``.  ``max_steps`` bounds the attempted
    (accepted plus rejected) steps.

    The state, the stage arguments, the error norm and the step control
    run on Python floats; the result has the bits of the same method on
    numpy arrays.  The stage sums ``a @ ks`` stay numpy matrix products
    (a BLAS call whose summation order no Python sum reproduces), and
    the vector field is :meth:`ODESystem.rhs_list`, whose transcendentals
    are numpy's.  Where Python's arithmetic raises (a division by zero,
    an overflowing power, a fractional power of a negative number), the
    field call is repeated on a ``np.float64`` state and gives numpy's
    ``inf``/``nan``.

    ``stop(t, y)`` is an internal terminal-event hook: it is called with
    the state as a list after each accepted step, and integration ends
    at the first step for which it returns true.  The steps before that
    one are the same as without the hook, so the result is a prefix of
    the full run.
    """
    body = system.rhs_list()
    p = {**system.params, **(params or {})}

    def field(t: float, y: list[float]) -> list:
        try:
            return body(t, y, p)
        except _NUMPY_ONLY:
            return body(t, np.array(y), p)

    names = system.state_names
    t0, t1 = map(float, t_span)
    if t1 <= t0:
        raise ValueError("t_span must be increasing")
    if max_step is not None and max_step <= 0:
        raise ValueError("max_step must be positive")
    if first_step is not None and first_step <= 0:
        raise ValueError("first_step must be positive")
    span = t1 - t0
    hmax = max_step if max_step is not None else span / 10.0
    y = [float(x0[n]) for n in names]
    if not all(map(math.isfinite, y)):
        bad = ", ".join(f"{n}={v}" for n, v in zip(names, y) if not math.isfinite(v))
        raise IntegrationError(f"non-finite initial state: {bad}")
    h = first_step if first_step is not None else min(hmax, span / 100.0)
    dim = len(y)
    # stage derivatives, one row each; row 0 is the FSAL stage
    ks = np.empty((7, dim))
    stages = [(ks[i], c, a, ks[:i]) for i, c, a in _DP_STAGES]
    k = field(t0, y)
    ks[0] = k
    times = [t0]
    rows = [y]
    derivs = [k]
    t = t0
    steps = 0
    while t < t1 - 1e-12:
        if steps >= max_steps:
            raise IntegrationError(f"max step count ({max_steps}) exceeded at t={t:.6g}")
        steps += 1
        h = min(h, t1 - t, hmax)
        if h < 1e-14 * max(1.0, abs(t)):
            raise IntegrationError(f"step size underflow at t={t:.6g}")
        for row, c, a, done in stages:
            yi = [u + h * s for u, s in zip(y, (a @ done).tolist())]
            row[:] = k = field(t + c * h, yi)
        # the stage-7 argument is the 5th-order solution
        if not all(map(math.isfinite, yi)):
            h *= 0.25
            continue
        err = math.sqrt(_sum_squares([
            h * e / (atol + rtol * max(abs(u), abs(v)))
            for e, u, v in zip((_DP_E @ ks).tolist(), y, yi)
        ]) / dim)
        if err <= 1.0:
            t += h
            y = yi
            ks[0] = ks[6]
            times.append(t)
            rows.append(y)
            derivs.append(k)
            if stop is not None and stop(t, y):
                break
        # PI controller
        factor = 0.9 * (err + 1e-16) ** (-0.2)
        h *= min(5.0, max(0.2, factor))
    return Trajectory(
        np.array(times), np.array(rows, dtype=float), names, np.array(derivs, dtype=float)
    )


def simulate(
    system: ODESystem,
    x0: Mapping[str, float],
    t_span: tuple[float, float],
    params: Mapping[str, float] | None = None,
    method: str = "rk45",
    **kwargs,
) -> Trajectory:
    """Front door: ``simulate(system, x0, (0, 10))``."""
    if method == "rk45":
        return rk45(system, x0, t_span, params, **kwargs)
    if method == "rk4":
        dt = kwargs.pop("dt", (t_span[1] - t_span[0]) / 1000.0)
        if kwargs:
            raise TypeError(f"method 'rk4' got unexpected keyword arguments {sorted(kwargs)}")
        return rk4(system, x0, t_span, dt, params)
    raise ValueError(f"unknown method {method!r}")


# ----------------------------------------------------------------------
# Event location
# ----------------------------------------------------------------------


def find_event(
    traj: Trajectory,
    event: Callable[[dict[str, float]], float],
    direction: int = 0,
    refine: Callable[[float], dict[str, float]] | None = None,
    tol: float = 1e-10,
) -> float | None:
    """First time the scalar ``event(state)`` crosses zero.

    ``direction`` restricts to rising (+1), falling (-1) or any (0)
    crossings.  The crossing is located by bisection on the
    (interpolated) trajectory; ``refine`` may supply a more accurate
    state lookup (e.g. a re-integration).
    """
    lookup = refine if refine is not None else traj.at
    values = [event(dict(zip(traj.names, row))) for row in traj.states]
    for i in range(1, len(values)):
        a, b = values[i - 1], values[i]
        if a == 0.0:
            continue
        crossed = (a < 0 <= b) if direction >= 0 else False
        crossed = crossed or ((a > 0 >= b) if direction <= 0 else False)
        if not crossed:
            continue
        lo, hi = float(traj.times[i - 1]), float(traj.times[i])
        flo = a
        while hi - lo > tol * max(1.0, abs(hi)):
            mid = 0.5 * (lo + hi)
            fmid = event(lookup(mid))
            if (flo < 0) == (fmid < 0):
                lo, flo = mid, fmid
            else:
                hi = mid
        return 0.5 * (lo + hi)
    return None
