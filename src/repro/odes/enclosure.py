"""Validated interval enclosures of ODE flows.

This is what makes a Lipschitz ODE flow a *computable function* usable
inside ``L_RF`` formulas (paper Definition 7 and Section III-C): given a
box of initial states and a box of parameters, we compute interval boxes
guaranteed to contain every solution over each time step.

Two methods are provided (``method=`` of :func:`flow_enclosure`):

``"taylor"`` -- classic two-phase validated integration:

1. **A priori enclosure** by Picard-Lindelof iteration: find a box ``B``
   with ``X0 + [0, h] * f(B) subseteq B``; then every solution starting
   in ``X0`` stays in ``B`` for the whole step ``[0, h]``.
2. **Tightening** of the step endpoint with a first- or second-order
   interval Taylor step using the a priori box for the remainder term:
   ``x(h) in X0 + h f(X0) + h^2/2 (Jf . f)(B)``.

``"lognorm"`` (default) -- a Lohner-style center/radius decomposition
that avoids the exponential wrapping of direct interval Taylor on
*stable* dynamics (which all the paper's biology models are):

* the box center is propagated with a narrow interval Taylor enclosure
  (its width is pure integration error), and
* the box radius obeys the differential inequality
  ``rho' <= mu(J) * rho + nu`` where ``mu`` is the logarithmic
  infinity-norm of the interval Jacobian over the a priori box and
  ``nu`` bounds the parameter-uncertainty forcing
  ``|df/dp| * rad(P)``; for contractive dynamics ``mu < 0`` and the
  radius *shrinks* along the flow instead of exploding.

Both are sound; ``taylor`` can be tighter for very short horizons,
``lognorm`` is dramatically tighter for long stable horizons.

A tube is a pure function of its inputs, so :func:`flow_enclosure`
computes each one once per process: successful tubes are kept in a
bounded table keyed by the exact bits of every input (see
:data:`MAX_TUBE_STEPS`).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.expr import Expr
from repro.intervals import Box, Interval

from .system import ODESystem

__all__ = ["TubeStep", "ReachTube", "flow_enclosure", "EnclosureError"]


class EnclosureError(RuntimeError):
    """Raised when no valid a priori enclosure can be established."""


@dataclass(frozen=True)
class TubeStep:
    """One step of a reach tube.

    ``enclosure`` contains x(s) for all s in ``time`` and all initial
    states/parameters; ``end`` contains x(time.hi).
    """

    time: Interval
    enclosure: Box
    end: Box


@dataclass(frozen=True)
class ReachTube:
    """A validated flow pipe: consecutive :class:`TubeStep` segments.

    Immutable, because :func:`flow_enclosure` hands one tube to every
    caller with the same inputs.
    """

    steps: tuple[TubeStep, ...]
    names: tuple[str, ...]

    @property
    def t_end(self) -> float:
        """End time of the last step (0.0 for an empty tube)."""
        return self.steps[-1].time.hi if self.steps else 0.0

    def final(self) -> Box:
        """Enclosure of the states at the end of the tube."""
        return self.steps[-1].end

    def enclosure_over(self, window: Interval) -> Box | None:
        """Hull of step enclosures intersecting the time ``window``."""
        hull: Box | None = None
        for step in self.steps:
            if step.time.overlaps(window):
                hull = step.enclosure if hull is None else hull.hull(step.enclosure)
        return hull

    def whole(self) -> Box:
        """Hull over the entire tube."""
        hull = self.steps[0].enclosure
        for step in self.steps[1:]:
            hull = hull.hull(step.enclosure)
        return hull

    def max_width(self) -> float:
        """Widest dimension over all step endpoints."""
        return max(step.end.max_width() for step in self.steps)


def _a_priori_box(
    system: ODESystem,
    x0: Box,
    h: float,
    param_box: Box | None,
    max_tries: int = 12,
) -> tuple[Box, dict[str, Interval], dict[str, Interval]]:
    """Picard-Lindelof rectangle: B with X0 + [0,h] f(B) inside B.

    Returns ``(B, f(X0), f(B))``: both field enclosures are computed on
    the way, so callers reuse them instead of evaluating them again.
    """
    names = system.state_names
    hs = Interval(0.0, h)
    # initial guess: Euler range, inflated per-dimension proportionally
    # to the local motion scale (absolute inflation would swamp
    # small-magnitude dimensions and ruin guard pruning downstream)
    f0 = system.eval_field_interval(x0, param_box)
    cand = Box(
        {
            n: x0[n].hull(x0[n] + hs * f0[n]).inflate(
                1e-12 + 0.1 * h * max(f0[n].magnitude(), 1e-9)
            )
            for n in names
        }
    )
    for _ in range(max_tries):
        f = system.eval_field_interval(cand, param_box)
        image = Box({n: x0[n].hull(x0[n] + hs * f[n]) for n in names})
        if cand.contains_box(image):
            return cand, f0, f
        # inflate each violated dimension past the image by the
        # overshoot amount (geometric progress toward a fixed point)
        new = {}
        for n in names:
            ci, im = cand[n], image[n]
            overshoot = max(ci.lo - im.lo, im.hi - ci.hi, 0.0)
            new[n] = ci.hull(im).inflate(1e-12 + overshoot)
        cand = Box(new)
    raise EnclosureError(
        f"no a priori enclosure for step h={h:.3g}; reduce the step size"
    )


#: Most tube steps the table holds; the oldest tubes are evicted first.
#: The 18 catalog jobs store 48 tubes of 31 steps on average (80 at
#: most), and a stored step takes about 1 kB: a full table is ~4 MB.
MAX_TUBE_STEPS = 4096

_tubes: dict[tuple, ReachTube] = {}
_tube_steps = 0
_tubes_lock = threading.Lock()


def _bits(x) -> object:
    """Exact key of a number: a float by its ``float.hex`` (``-0.0`` and
    ``0.0`` differ, where ``==`` merges them), anything else by its type
    and ``repr``."""
    return x.hex() if type(x) is float else (type(x).__name__, repr(x))


def _box_bits(box: Box, names) -> tuple:
    return tuple((n, _bits(box[n].lo), _bits(box[n].hi)) for n in names)


def _remember(key: tuple, tube: ReachTube) -> None:
    """Store ``tube`` under ``key``, evicting the oldest tubes over the cap.

    Two threads that race on one key both computed the same bits, so
    the first one stored wins and the other is dropped.
    """
    global _tube_steps
    with _tubes_lock:
        if key in _tubes:
            return
        _tubes[key] = tube
        _tube_steps += len(tube.steps)
        while _tube_steps > MAX_TUBE_STEPS:
            _tube_steps -= len(_tubes.pop(next(iter(_tubes))).steps)


def _clear_tubes() -> None:
    """Empty the tube table (tests that count the work of a cold call)."""
    global _tube_steps
    with _tubes_lock:
        _tubes.clear()
        _tube_steps = 0


def flow_enclosure(
    system: ODESystem,
    x0: Box | Mapping[str, tuple[float, float]],
    duration: float,
    param_box: Box | None = None,
    max_step: float = 0.1,
    order: int = 2,
    max_growth: float = 1e3,
    method: str = "lognorm",
) -> ReachTube:
    """Validated reach tube of ``system`` from the initial box ``x0``.

    A tube is computed once per process and then shared, bit for bit,
    with every later call whose inputs have the same bits: the field's
    structure and constants, the ``params`` values at call time, the
    state bounds, the parameter box and every argument.  Failures
    (:class:`EnclosureError`) are not kept, so a repeat raises again.

    Parameters
    ----------
    duration:
        Total integration time ``T``; the tube covers ``[0, T]``.
    param_box:
        Interval uncertainty for (a subset of) parameters; remaining
        parameters take their default point values.
    max_step:
        Upper bound on the per-step horizon; steps adapt downward when
        the Picard iteration fails.
    order:
        For ``method="taylor"``: 1 = interval Euler endpoint, 2 = adds
        the second-order Taylor term via the symbolic Jacobian.
    max_growth:
        Abort when the tube's widest dimension exceeds this (wrapping
        blow-up guard).
    method:
        ``"lognorm"`` (default, contractive-friendly) or ``"taylor"``
        (see module docstring).
    """
    if not max_step > 0:  # also rejects NaN; zero would never advance t
        raise ValueError("max_step must be positive")
    if method not in ("lognorm", "taylor"):
        raise ValueError(f"unknown enclosure method {method!r}")
    if not isinstance(x0, Box):
        x0 = Box.from_bounds(dict(x0))
    names = system.state_names
    missing = set(names) - set(x0.names)
    if missing:
        raise ValueError(f"initial box misses state dimensions {sorted(missing)}")
    x0 = x0.restrict(names)
    key = (
        system.fingerprint(),
        tuple((k, _bits(v)) for k, v in system.params.items()),
        _box_bits(x0, names),
        _bits(duration),
        None if param_box is None else _box_bits(param_box, param_box),
        _bits(max_step), _bits(order), _bits(max_growth), method,
    )
    tube = _tubes.get(key)
    if tube is None:
        if method == "lognorm":
            tube = _lognorm_tube(system, x0, duration, param_box, max_step, max_growth)
        else:
            tube = _taylor_tube(system, x0, duration, param_box, max_step, order, max_growth)
        if tube.steps:  # an empty tube costs nothing to rebuild
            _remember(key, tube)
    return tube


def _taylor_tube(
    system: ODESystem,
    x0: Box,
    duration: float,
    param_box: Box | None,
    max_step: float,
    order: int,
    max_growth: float,
) -> ReachTube:
    """Picard a priori box plus an interval Taylor endpoint per step."""
    names = system.state_names
    jac: dict[str, dict[str, Expr]] | None = system.jacobian() if order >= 2 else None

    steps: list[TubeStep] = []
    t = 0.0
    current = x0
    h = max_step
    while t < duration - 1e-12:
        h = min(h, duration - t)
        # establish an a priori box, halving h on failure
        while True:
            try:
                apriori, fX, fB = _a_priori_box(system, current, h, param_box)
                break
            except EnclosureError:
                h *= 0.5
                if h < 1e-9:
                    raise
        hs = Interval(0.0, h)
        enclosure = Box({n: current[n].hull(current[n] + hs * fB[n]) for n in names})

        if order >= 2 and jac is not None:
            env: dict[str, Interval] = {
                k: Interval.point(v) for k, v in system.params.items()
            }
            if param_box is not None:
                env.update(dict(param_box))
            env.update(dict(apriori))
            env["t"] = Interval(t, t + h)
            end = {}
            for i in names:
                # second-order remainder: (Jf . f)(B)
                rem = Interval.point(0.0)
                for j in names:
                    rem = rem + jac[i][j].eval_interval(env) * fB[j]
                end[i] = current[i] + Interval.point(h) * fX[i] + (
                    Interval.point(0.5 * h * h) * rem
                )
            endpoint = Box(end)
            # endpoint must stay inside the step enclosure; intersect for safety
            endpoint = endpoint.intersect(enclosure)
        else:
            endpoint = Box({n: current[n] + Interval.point(h) * fB[n] for n in names})
            endpoint = endpoint.intersect(enclosure)

        steps.append(TubeStep(Interval(t, t + h), enclosure, endpoint))
        t += h
        current = endpoint
        if current.max_width() > max_growth:
            raise EnclosureError(
                f"enclosure exceeded width {max_growth} at t={t:.4g} "
                "(wrapping blow-up); reduce duration or initial box width"
            )
        # gentle step growth back toward max_step
        h = min(max_step, h * 1.5)
    return ReachTube(tuple(steps), tuple(names))


# ----------------------------------------------------------------------
# Logarithmic-norm (Lohner-lite) enclosures
# ----------------------------------------------------------------------


def _log_norm_inf(
    jac, env: dict[str, Interval], names: list[str],
    weights: dict[str, float] | None = None,
) -> float:
    """Upper bound on the logarithmic infinity-norm of the Jacobian over
    the environment, in the ``d``-weighted norm ``|x| = max |x_i|/d_i``:

        mu_D = max_i ( J_ii.hi + sum_{j!=i} |J_ij|.mag * d_j / d_i )

    Any positive weight vector yields a valid norm, so the bound stays
    sound regardless of how the weights were chosen.
    """
    mu = -math.inf
    for i in names:
        row = jac[i]
        di = weights[i] if weights else 1.0
        total = row[i].eval_interval(env).hi
        for j in names:
            if j == i:
                continue
            dj = weights[j] if weights else 1.0
            total += row[j].eval_interval(env).magnitude() * (dj / di)
        mu = max(mu, total)
    return mu


def _perron_weights(
    jac, center_env: dict[str, float], names: list[str]
) -> dict[str, float]:
    """Near-optimal norm weights: the Perron-like eigenvector of the
    Metzler comparison matrix ``M_ii = J_ii``, ``M_ij = |J_ij|`` at the
    box center.  For Metzler matrices the optimal diagonal scaling of
    the infinity-log-norm achieves the spectral abscissa, with the
    positive eigenvector as weights.  Heuristic floats only -- soundness
    is independent of the choice (see :func:`_log_norm_inf`).

    A 1-D system gets ``{name: 1.0}`` straight away: every branch below
    gives exactly that for a 1x1 matrix (eigenvector ``[[1.]]`` for a
    finite entry, ``LinAlgError`` -> 1.0 for NaN or inf)."""
    n = len(names)
    if n == 1:
        return {names[0]: 1.0}
    M = np.zeros((n, n))
    for a, i in enumerate(names):
        for b, j in enumerate(names):
            try:
                v = jac[i][j].eval(center_env)
            except (ArithmeticError, KeyError):
                return {k: 1.0 for k in names}
            M[a, b] = v if a == b else abs(v)
    try:
        eigvals, eigvecs = np.linalg.eig(M)
    except np.linalg.LinAlgError:
        return {k: 1.0 for k in names}
    idx = int(np.argmax(eigvals.real))
    vec = np.abs(eigvecs[:, idx].real)
    top = float(vec.max())
    if top <= 0.0 or not np.all(np.isfinite(vec)):
        return {k: 1.0 for k in names}
    floor = 1e-3 * top
    return {k: max(float(v), floor) for k, v in zip(names, vec)}


def _center_step(
    system: ODESystem,
    center: Box,
    h: float,
    param_mid: Box | None,
    jac,
    t: float,
) -> Box:
    """Second-order interval Taylor endpoint for a (near-point) box."""
    names = system.state_names
    apriori, fX, fB = _a_priori_box(system, center, h, param_mid)
    env: dict[str, Interval] = {k: Interval.point(v) for k, v in system.params.items()}
    if param_mid is not None:
        env.update(dict(param_mid))
    env.update(dict(apriori))
    env["t"] = Interval(t, t + h)
    out = {}
    for i in names:
        rem = Interval.point(0.0)
        for j in names:
            rem = rem + jac[i][j].eval_interval(env) * fB[j]
        out[i] = center[i] + Interval.point(h) * fX[i] + Interval.point(0.5 * h * h) * rem
    return Box(out)


def _lognorm_tube(
    system: ODESystem,
    x0: Box,
    duration: float,
    param_box: Box | None,
    max_step: float,
    max_growth: float,
) -> ReachTube:
    """Center/radius enclosure driven by the logarithmic norm bound."""
    names = system.state_names
    jac = system.jacobian()
    param_jac: dict[str, dict[str, Expr]] | None = None
    param_rad: dict[str, float] = {}
    param_mid: Box | None = None
    if param_box is not None and len(param_box):
        pnames = param_box.names
        param_jac = system.param_jacobian(pnames)
        param_rad = {p: param_box[p].radius() for p in pnames}
        param_mid = Box.from_point(param_box.midpoint())

    center = Box.from_point(x0.midpoint())
    radius: dict[str, float] = {n: x0[n].radius() for n in names}

    steps: list[TubeStep] = []
    t = 0.0
    h = max_step
    while t < duration - 1e-12:
        h = min(h, duration - t)
        if max(radius.values()) > max_growth:
            raise EnclosureError(
                f"enclosure radius exceeded {max_growth} at t={t:.4g}; "
                "split the initial/parameter box"
            )
        current = Box({n: center[n].inflate(radius[n]) for n in names})
        # a priori box for the whole current enclosure (halving the step
        # helps only for step-size problems, not radius blow-up: cap it)
        tries = 0
        while True:
            try:
                apriori, _, _ = _a_priori_box(system, current, h, param_box)
                break
            except EnclosureError:
                h *= 0.5
                tries += 1
                if tries > 6 or h < 1e-9:
                    raise
        env: dict[str, Interval] = {
            k: Interval.point(v) for k, v in system.params.items()
        }
        if param_box is not None:
            env.update(dict(param_box))
        env.update(dict(apriori))
        env["t"] = Interval(t, t + h)

        # near-optimal norm weights from the center-point Jacobian
        center_env = {**system.params, **center.midpoint(), "t": t}
        if param_mid is not None:
            center_env.update(param_mid.midpoint())
        d = _perron_weights(jac, center_env, names)
        mu = _log_norm_inf(jac, env, names, d)

        # rho is the radius in the d-weighted norm
        rho = max(radius[n] / d[n] for n in names)
        nu = 0.0
        if param_jac is not None:
            for i in names:
                total = 0.0
                for p, rad in param_rad.items():
                    total += param_jac[i][p].eval_interval(env).magnitude() * rad
                nu = max(nu, total / d[i])

        # radius ODE: rho' <= mu * rho + nu, integrated over [0, h]
        # (outward-rounded exponential via interval arithmetic)
        growth = Interval.point(mu * h).exp().hi
        if abs(mu) > 1e-12:
            forcing = nu * max((growth - 1.0) / mu, h)
        else:
            forcing = nu * h
        # center propagation (narrow box: pure integration error)
        try:
            new_center_enc = _center_step(system, center, h, param_mid, jac, t)
        except EnclosureError:
            h *= 0.5
            if h < 1e-9:
                raise
            continue
        rho_new = growth * rho + forcing
        radius = {
            n: rho_new * d[n] + new_center_enc[n].radius() for n in names
        }
        center = Box.from_point(new_center_enc.midpoint())

        endpoint = Box({n: new_center_enc[n].inflate(radius[n]) for n in names})
        enclosure = apriori.hull(endpoint).restrict(names)
        steps.append(TubeStep(Interval(t, t + h), enclosure, endpoint))
        t += h
        h = min(max_step, h * 1.5)
    return ReachTube(tuple(steps), tuple(names))
