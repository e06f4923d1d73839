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
from typing import Mapping, Sequence

import numpy as np

from repro.logic import (
    TRUE, And, Atom, Exists, FalseFormula, Forall, Formula, Or, TrueFormula,
)
from repro.odes import Trajectory, rk45

from .automaton import HybridAutomaton, Jump

__all__ = [
    "EventWatch", "HybridSegment", "HybridTrajectory", "simulate_hybrid", "formula_margin",
]


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
    stopped_reason: str = "time"  # "time" | "invariant" | "max_jumps" | "zeno"

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
        Zeno guard -- when a jump ends a dwell shorter than this and
        taking it would make more than three jumps, the run stops with
        ``"zeno"`` instead.  Like a ``"max_jumps"`` stop, it ends on the
        segment that jump would have left, so every stop reason leaves
        one jump fewer than segments.
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
        watch = EventWatch(
            system.state_names,
            state,
            p,
            automaton.jumps_from(mode_name),
            automaton.mode(mode_name).invariant,
            # under "boundary" only an invariant exit is an event
            urgent=jump_policy == "urgent",
        )
        seg_traj = rk45(
            system,
            state,
            (t, t_final),
            params=p,
            rtol=rtol,
            max_step=max_step if max_step is not None else (t_final - t) / 50.0,
            stop=watch if watch.margins else None,
        )
        event_t, fired = watch.locate(seg_traj)

        if event_t is None:
            segments.append(HybridSegment(mode_name, seg_traj))
            t = seg_traj.t_end
            break

        clipped = seg_traj.restricted(seg_traj.t0, event_t)
        segments.append(HybridSegment(mode_name, clipped))
        t = event_t
        if fired is None:
            # invariant violated with no enabled jump
            reason = "invariant"
            break
        if len(jumps_taken) >= max_jumps:
            reason = "max_jumps"
            break
        if event_t - clipped.t0 < min_dwell and len(jumps_taken) >= 3:
            reason = "zeno"
            break

        state = fired.apply_reset(clipped.final(), p)
        jumps_taken.append(fired)
        mode_name = fired.target

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


class EventWatch:
    """The first event of one mode's flow: an ``rk45`` stop hook that is
    also its locator.

    The watched margins are the ``invariant`` (falling through zero: an
    exit) and, when ``urgent``, each jump's guard (rising through zero).
    As the hook, the watcher evaluates every watched margin once at
    ``y0`` and once per accepted sample, and stops the run at the first
    step whose bracket shows a margin go from ``< 0`` to ``>= 0`` (sign
    adjusted), or at the first step when a guard already holds at
    ``y0``.  No earlier bracket shows a crossing, so :meth:`locate`
    bisects only the margins that crossed in the last one.

    A watcher serves one ``rk45`` run; ``margins`` is empty when nothing
    is watched (pass ``stop=None`` then).
    """

    def __init__(
        self,
        names: Sequence[str],
        y0: Mapping[str, float],
        params: Mapping[str, float],
        jumps: Sequence[Jump],
        invariant: Formula = TRUE,
        urgent: bool = True,
    ):
        self.names = list(names)
        self.params = params
        self.jumps = list(jumps)
        self.urgent = urgent
        #: (sign, formula, jump) per watched margin; jump None for the invariant
        self.margins: list[tuple[float, Formula, Jump | None]] = (
            [] if isinstance(invariant, TrueFormula) else [(-1.0, invariant, None)]
        )
        if urgent:
            self.margins += [(1.0, j.guard, j) for j in self.jumps]
        self._prev = self._values([y0[n] for n in self.names])
        self._enabled = [
            j for (_, _, j), v in zip(self.margins, self._prev) if j is not None and v >= 0.0
        ]
        self._crossed: list[tuple[int, float]] = []

    def _values(self, y: Sequence[float]) -> list[float]:
        env = {**self.params, **dict(zip(self.names, y))}
        return [sign * formula_margin(phi, env) for sign, phi, _ in self.margins]

    def __call__(self, t: float, y: Sequence[float]) -> bool:
        cur = self._values(y)
        self._crossed = [
            (i, a) for i, (a, b) in enumerate(zip(self._prev, cur)) if a < 0.0 <= b
        ]
        self._prev = cur
        return bool(self._enabled or self._crossed)

    def locate(self, traj: Trajectory) -> tuple[float | None, Jump | None]:
        """The first event along ``traj``, the run this watcher stopped.

        Returns ``(time, jump)``, ``jump`` None for an invariant exit
        with no jump to take, or ``(None, None)`` when nothing happened.
        The earliest time wins; at a tie a jump beats the exit, and jumps
        go in declaration order.  A guard enabled at ``y0`` fires at
        ``traj.t0``.  Without ``urgent``, the exit takes the first jump
        whose guard holds at the exit state.
        """
        events: list[tuple[float, Jump | None]] = [(traj.t0, j) for j in self._enabled]
        for i, flo in self._crossed:
            sign, phi, jump = self.margins[i]
            lo, hi = float(traj.times[-2]), float(traj.times[-1])
            while hi - lo > 1e-10 * max(1.0, abs(hi)):
                mid = 0.5 * (lo + hi)
                fmid = sign * formula_margin(phi, {**self.params, **traj.at(mid)})
                if (flo < 0.0) == (fmid < 0.0):
                    lo, flo = mid, fmid
                else:
                    hi = mid
            events.append((hi, jump))
        if not events:
            return None, None
        t_event, jump = min(events, key=lambda e: (e[0], e[1] is None))
        if jump is None and not self.urgent:
            env = {**self.params, **traj.at(t_event)}
            jump = next((j for j in self.jumps if formula_margin(j.guard, env) >= 0.0), None)
        return t_event, jump
