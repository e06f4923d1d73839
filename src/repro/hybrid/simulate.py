"""Concrete (point) simulation of hybrid automata.

Produces hybrid trajectories in the sense of paper Definitions 8-10: a
hybrid time domain of dwell intervals, a labeling of steps to modes, and
a piecewise-continuous state evolution with resets at jumps.

The simulator uses urgent jump semantics by default (a transition fires
as soon as its guard becomes true, located by bisection), which matches
the "molecular signature triggers treatment" reading of the paper's
Fig. 3.  Nondeterminism among simultaneously enabled jumps is resolved
by declaration order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.logic import And, Atom, Exists, FalseFormula, Forall, Formula, Or, TrueFormula
from repro.odes import Trajectory, rk45

from .automaton import HybridAutomaton, Jump

__all__ = ["HybridSegment", "HybridTrajectory", "simulate_hybrid", "formula_margin"]

#: A formula's satisfaction margin as a function of the named state.
Margin = Callable[[dict[str, float]], float]


def formula_margin(phi: Formula, env: Mapping[str, float]) -> float:
    """A continuous satisfaction margin: ``>= 0`` iff ``phi`` holds.

    Atoms map to their term value, conjunction to min, disjunction to
    max -- the standard quantitative semantics used for event location.
    """
    if isinstance(phi, TrueFormula):
        return math.inf
    if isinstance(phi, FalseFormula):
        return -math.inf
    if isinstance(phi, Atom):
        return phi.term.eval(env)
    if isinstance(phi, And):
        return min(formula_margin(p, env) for p in phi.parts)
    if isinstance(phi, Or):
        return max(formula_margin(p, env) for p in phi.parts)
    if isinstance(phi, (Exists, Forall)):
        raise TypeError("quantified guards are not supported in simulation")
    raise TypeError(type(phi).__name__)


@dataclass
class HybridSegment:
    """One continuous dwell: mode name plus the trajectory inside it."""

    mode: str
    trajectory: Trajectory

    @property
    def t0(self) -> float:
        """Time the dwell starts (entry into the mode)."""
        return self.trajectory.t0

    @property
    def t_end(self) -> float:
        """Time the dwell ends (a jump, a stop, or the horizon)."""
        return self.trajectory.t_end


@dataclass
class HybridTrajectory:
    """A trajectory of a hybrid automaton (Definition 10).

    ``segments[i]`` is the i-th continuous flow; consecutive segments
    are linked by jumps (resets may make the state discontinuous).
    """

    segments: list[HybridSegment]
    jumps_taken: list[Jump] = field(default_factory=list)
    stopped_reason: str = "time"  # "time" | "invariant" | "deadlock" | "max_jumps"

    @property
    def t_end(self) -> float:
        """End time of the last segment (0.0 with no segments)."""
        return self.segments[-1].t_end if self.segments else 0.0

    @property
    def t0(self) -> float:
        """Start time of the first segment (0.0 with no segments)."""
        return self.segments[0].t0 if self.segments else 0.0

    def mode_path(self) -> list[str]:
        """The discrete mode sequence (labeling function of Def. 10)."""
        return [seg.mode for seg in self.segments]

    def mode_at(self, t: float) -> str:
        """Mode at time ``t`` (the first segment covering it); raises
        ``ValueError`` outside the trajectory."""
        for seg in self.segments:
            if seg.t0 - 1e-12 <= t <= seg.t_end + 1e-12:
                return seg.mode
        raise ValueError(f"time {t} outside trajectory")

    def at(self, t: float) -> dict[str, float]:
        """Continuous state at time ``t`` (first matching segment)."""
        for seg in self.segments:
            if seg.t0 - 1e-12 <= t <= seg.t_end + 1e-12:
                return seg.trajectory.at(min(max(t, seg.t0), seg.t_end))
        raise ValueError(f"time {t} outside trajectory")

    def value(self, name: str, t: float) -> float:
        """Value of state variable ``name`` at time ``t`` (see :meth:`at`)."""
        return self.at(t)[name]

    def final(self) -> dict[str, float]:
        """Continuous state at the end of the last segment."""
        return self.segments[-1].trajectory.final()

    def dwell_times(self) -> list[float]:
        """Duration of each segment, in order."""
        return [seg.t_end - seg.t0 for seg in self.segments]

    def flatten(self) -> Trajectory:
        """Concatenate segments into one trajectory (resets appear as
        repeated time samples with different states)."""
        names = self.segments[0].trajectory.names
        times: list[float] = []
        rows: list[np.ndarray] = []
        for seg in self.segments:
            times.extend(seg.trajectory.times.tolist())
            rows.extend(list(seg.trajectory.states))
        # enforce strictly increasing times by nudging duplicates
        out_t = np.array(times)
        for i in range(1, len(out_t)):
            if out_t[i] <= out_t[i - 1]:
                out_t[i] = np.nextafter(out_t[i - 1], np.inf)
        return Trajectory(out_t, np.array(rows), names)


def simulate_hybrid(
    automaton: HybridAutomaton,
    x0: Mapping[str, float] | None = None,
    t_final: float = 10.0,
    params: Mapping[str, float] | None = None,
    max_jumps: int = 100,
    jump_policy: str = "urgent",
    rtol: float = 1e-7,
    max_step: float | None = None,
    min_dwell: float = 1e-9,
) -> HybridTrajectory:
    """Simulate ``automaton`` from ``x0`` for ``t_final`` time units.

    Each mode segment is integrated only up to the first step that
    brackets an event; the result is bit-identical to integrating every
    segment to ``t_final`` and clipping it at its first event.

    Parameters
    ----------
    x0:
        Initial continuous state; defaults to the midpoint of the
        initial box.
    jump_policy:
        ``"urgent"``: the earliest enabled jump fires at its guard's
        zero-crossing.  ``"boundary"``: jumps fire only when the mode
        invariant is about to be violated (and some guard is enabled).
    min_dwell:
        Zeno guard -- a fired jump must be preceded by at least this
        much dwell, except immediately after a reset.
    """
    if jump_policy not in ("urgent", "boundary"):
        raise ValueError(f"unknown jump policy {jump_policy!r}")
    p = {**automaton.params, **(params or {})}
    if x0 is None:
        x0 = automaton.initial_box().midpoint()
    state = {k: float(x0[k]) for k in automaton.variables}
    mode_name = automaton.initial_mode

    segments: list[HybridSegment] = []
    jumps_taken: list[Jump] = []
    t = 0.0
    reason = "time"

    while True:
        if t >= t_final - 1e-12:
            break
        system = automaton.mode_system(mode_name)
        invariant = automaton.mode(mode_name).invariant
        inv = None if isinstance(invariant, TrueFormula) else _margin_fn(invariant, p)
        guards = [(j, _margin_fn(j.guard, p)) for j in automaton.jumps_from(mode_name)]
        names = system.state_names
        stop = _crossing_stop(
            names,
            [state[n] for n in names],
            # under "boundary" only an invariant exit is an event
            rising=[g for _, g in guards] if jump_policy == "urgent" else [],
            falling=[inv] if inv is not None else [],
        )
        seg_traj = rk45(
            system,
            state,
            (t, t_final),
            params=p,
            rtol=rtol,
            max_step=max_step if max_step is not None else (t_final - t) / 50.0,
            stop=stop,
        )

        event_t, fired = _first_event(seg_traj, inv, guards, jump_policy)

        if event_t is None:
            segments.append(HybridSegment(mode_name, seg_traj))
            t = seg_traj.t_end
            break

        clipped = seg_traj.restricted(seg_traj.t0, event_t)
        segments.append(HybridSegment(mode_name, clipped))
        state_at_event = clipped.final()

        if fired is None:
            # invariant violated with no enabled jump
            reason = "invariant"
            t = event_t
            break

        if len(jumps_taken) >= max_jumps:
            reason = "max_jumps"
            t = event_t
            break

        state = fired.apply_reset(state_at_event, p)
        jumps_taken.append(fired)
        mode_name = fired.target
        t = event_t
        if event_t - clipped.t0 < min_dwell and len(jumps_taken) > 3:
            reason = "zeno"
            break

    if not segments:
        # degenerate zero-length trajectory
        names = automaton.variables
        seg = Trajectory(
            np.array([t, t]),
            np.array([[state[n] for n in names]] * 2),
            list(names),
        )
        segments.append(HybridSegment(mode_name, seg))

    return HybridTrajectory(segments, jumps_taken, reason)


def _margin_fn(phi: Formula, params: Mapping[str, float]) -> Margin:
    def fn(state: dict[str, float]) -> float:
        return formula_margin(phi, {**params, **state})

    return fn


def _first_event(
    traj: Trajectory,
    inv: Margin | None,
    guards: list[tuple[Jump, Margin]],
    jump_policy: str,
) -> tuple[float | None, Jump | None]:
    """Earliest invariant exit or guard activation along ``traj``.

    ``inv`` is the invariant's margin (None when the mode has none) and
    ``guards`` pairs each outgoing jump with its guard's margin.
    Returns ``(event_time, jump)``; ``jump`` is None for a pure
    invariant violation.  ``(None, None)`` means no event.
    """
    candidates: list[tuple[float, Jump | None]] = []

    if inv is not None:
        t_inv = _first_crossing(traj, inv, falling=True)
        if t_inv is not None:
            candidates.append((t_inv, None))

    if jump_policy == "urgent":
        for j, g in guards:
            t_g = _guard_time(traj, g)
            if t_g is not None:
                candidates.append((t_g, j))
    elif candidates:
        # "boundary": jumps fire only at invariant exit; choose the first
        # enabled one
        t_exit = candidates[0][0]
        st = traj.at(t_exit)
        for j, g in guards:
            if g(st) >= 0.0:
                candidates = [(t_exit, j)]
                break

    if not candidates:
        return None, None
    candidates.sort(key=lambda c: (c[0], c[1] is None))
    return candidates[0]


def _guard_time(traj: Trajectory, fn: Margin) -> float | None:
    """When an urgent guard ``fn >= 0`` first holds along ``traj``: its
    start if already enabled in the first sample, else its first rising
    zero-crossing."""
    if fn(dict(zip(traj.names, traj.states[0]))) >= 0.0:
        return traj.t0
    return _first_crossing(traj, fn, falling=False)


def _crossing_stop(
    names: Sequence[str],
    y0: Sequence[float],
    rising: Sequence[Margin] = (),
    falling: Sequence[Margin] = (),
) -> Callable[[float, np.ndarray], bool] | None:
    """``rk45`` stop hook for the events the locators here return.

    True at the first accepted step whose end sample and the sample
    before it bracket a crossing -- a ``rising`` margin going from
    ``< 0`` to ``>= 0`` or a ``falling`` one from ``> 0`` to ``<= 0``,
    the test of :func:`_first_crossing` -- and at the first step already
    when a ``rising`` margin holds at ``y0`` (the start check of
    :func:`_guard_time`).  No earlier bracket shows a crossing, and the
    locators read nothing past the first crossing bracket, so they find
    the same event on the stopped run as on a run to the end of the
    span.  None when nothing is watched.
    """
    signed = [(-1.0, fn) for fn in falling] + [(1.0, fn) for fn in rising]
    if not signed:
        return None

    def values(y) -> list[float]:
        state = dict(zip(names, y))
        return [sign * fn(state) for sign, fn in signed]

    prev = values(y0)
    if any(v >= 0.0 for v in prev[len(falling):]):
        return lambda t, y: True

    def stop(t: float, y: np.ndarray) -> bool:
        nonlocal prev
        cur = values(y)
        crossed = any(a < 0.0 <= b for a, b in zip(prev, cur))
        prev = cur
        return crossed

    return stop


def _first_crossing(
    traj: Trajectory,
    fn: Margin,
    falling: bool,
    tol: float = 1e-10,
) -> float | None:
    """First time ``fn`` crosses zero (rising by default).

    The first pair of consecutive samples whose signed values go from
    ``< 0`` to ``>= 0`` brackets the crossing, and bisection
    interpolates inside that pair only.
    """
    sign = -1.0 if falling else 1.0
    values = [sign * fn(dict(zip(traj.names, row))) for row in traj.states]
    for i in range(1, len(values)):
        a, b = values[i - 1], values[i]
        if a < 0.0 <= b:
            lo, hi = float(traj.times[i - 1]), float(traj.times[i])
            flo = a
            while hi - lo > tol * max(1.0, abs(hi)):
                mid = 0.5 * (lo + hi)
                fmid = sign * fn(traj.at(mid))
                if (flo < 0.0) == (fmid < 0.0):
                    lo, flo = mid, fmid
                else:
                    hi = mid
            return hi
    return None
