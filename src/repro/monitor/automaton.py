"""Online (streaming) BLTL monitors with three-valued verdicts.

The batch monitor (:func:`repro.smc.bltl.monitor`) needs the whole
trajectory up front.  This module compiles the same
:class:`~repro.smc.bltl.BLTL` formulas into **online monitors** that
consume one sample at a time and

* report a per-step three-valued verdict (:class:`Verdict`:
  ``TRUE`` / ``FALSE`` / ``UNKNOWN``) that flips to a decided value the
  instant it becomes *irrevocable* -- e.g. ``G(T, phi)`` fails the
  moment any in-window sample falsifies ``phi``, long before the window
  closes -- so a fleet supervisor can stop paying for a stream early;
* track a running robustness interval (:meth:`OnlineMonitor.margin_interval`)
  that tightens as windows fill, collapsing to the exact batch
  robustness when the horizon completes;
* never hold more than one formula-horizon of samples (the episode
  ring), so per-sample cost is independent of how long the stream has
  been running.

Conformance contract
--------------------
The online monitor is *exactly* conformant with the batch semantics: on
a stream that replays a trajectory's samples (with its derivative rows,
when present, so dense output interpolates identically), the final
verdict equals :func:`repro.smc.bltl.monitor` and the final margin
equals :func:`repro.smc.bltl.robustness` -- bit for bit.  This holds by
construction: window discretization is shared
(:func:`repro.smc.bltl.window_times`), and the moment a (sub)window's
horizon is covered by the watermark its value is computed by the batch
evaluator (the array pass behind :func:`repro.smc.bltl.monitor`) over
the buffered prefix.  Early (pre-horizon) decisions use
only samples that are guaranteed to appear in the final window instant
sets, so they are *sound*: a decided verdict never changes when more
samples arrive (the monitor raises ``RuntimeError`` if it ever would --
that is a bug, not a condition to handle).

Early-decision machinery
------------------------
Each temporal node keeps one incremental scan state per pending window
anchored at instant ``u``: a monotone frontier index into the sample
ring plus the running Kleene aggregate, so ``G``/``F`` window checks
are O(1) amortized per sample (the frontier only moves forward) and
``U`` windows run the classic until-automaton over the determined
instant prefix.  Undecided subformula values (windows whose own horizon
is still open) propagate as ``UNKNOWN`` and are revisited when the
watermark reaches them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from repro.logic import Formula
from repro.odes import Trajectory
from repro.smc.bltl import (
    WINDOW_EPS,
    AndOp,
    At,
    BLTL,
    Always,
    Eventually,
    NotOp,
    OrOp,
    Prop,
    Until,
    _as_bltl,
    _margin,
    _truth,
)

__all__ = ["Verdict", "MonitorResult", "OnlineMonitor"]

_INF = float("inf")

#: Horizon slack inherited from the batch monitor: a stream whose last
#: sample falls within this tolerance of the formula horizon still
#: finalizes exactly (window endpoints clamp to the sampled span).
HORIZON_SLACK = 1e-9


class Verdict(enum.Enum):
    """Three-valued satisfaction state of a monitored property."""

    TRUE = "true"
    FALSE = "false"
    UNKNOWN = "unknown"

    @property
    def decided(self) -> bool:
        """Whether the verdict is irrevocably TRUE or FALSE."""
        return self is not Verdict.UNKNOWN

    @classmethod
    def of(cls, sat: bool) -> "Verdict":
        """The decided verdict for a boolean satisfaction value."""
        return cls.TRUE if sat else cls.FALSE

    def __str__(self) -> str:  # noqa: D105
        return self.value


def _k_not(v: Verdict) -> Verdict:
    if v is Verdict.TRUE:
        return Verdict.FALSE
    if v is Verdict.FALSE:
        return Verdict.TRUE
    return Verdict.UNKNOWN


def _k_and(a: Verdict, b: Verdict) -> Verdict:
    if a is Verdict.FALSE or b is Verdict.FALSE:
        return Verdict.FALSE
    if a is Verdict.TRUE and b is Verdict.TRUE:
        return Verdict.TRUE
    return Verdict.UNKNOWN


def _k_or(a: Verdict, b: Verdict) -> Verdict:
    if a is Verdict.TRUE or b is Verdict.TRUE:
        return Verdict.TRUE
    if a is Verdict.FALSE and b is Verdict.FALSE:
        return Verdict.FALSE
    return Verdict.UNKNOWN


# ----------------------------------------------------------------------
# compiled node tree
# ----------------------------------------------------------------------


class _Win:
    """Scan state of one pending F/G window anchored at instant ``u``."""

    __slots__ = ("next_idx",)

    def __init__(self, next_idx: int):
        self.next_idx = next_idx


class _UWin:
    """Scan state of one pending Until window.

    ``stage`` 0: left window endpoint not yet resolvable; 1: the exact
    endpoint instant must be evaluated (no sample covers it); 2: the
    ordered in-window sample scan.
    """

    __slots__ = ("next_idx", "stage")

    def __init__(self):
        self.next_idx = 0
        self.stage = 0


class _Node:
    """One compiled BLTL operator with its incremental window states."""

    __slots__ = ("phi", "kind", "children", "bound", "offset", "horizon",
                 "decided", "margins", "wins")

    def __init__(self, phi: BLTL, kind: str, children: list["_Node"],
                 bound: float = 0.0, offset: float = 0.0):
        self.phi = phi
        self.kind = kind
        self.children = children
        self.bound = bound
        self.offset = offset
        self.horizon = phi.horizon()
        self.decided: dict[float, Verdict] = {}
        self.margins: dict[float, float] = {}
        self.wins: dict[float, Any] = {}


def _compile(phi: BLTL) -> tuple[_Node, list[_Node]]:
    """Build the node tree; returns (root, Prop leaves in syntactic order)."""
    leaves: list[_Node] = []

    def build(p: BLTL) -> _Node:
        if isinstance(p, Prop):
            node = _Node(p, "prop", [])
            leaves.append(node)
            return node
        if isinstance(p, NotOp):
            return _Node(p, "not", [build(p.arg)])
        if isinstance(p, AndOp):
            return _Node(p, "and", [build(p.left), build(p.right)])
        if isinstance(p, OrOp):
            return _Node(p, "or", [build(p.left), build(p.right)])
        if isinstance(p, Eventually):
            return _Node(p, "F", [build(p.arg)], bound=p.bound)
        if isinstance(p, Always):
            return _Node(p, "G", [build(p.arg)], bound=p.bound)
        if isinstance(p, Until):
            return _Node(p, "U", [build(p.left), build(p.right)], bound=p.bound)
        if isinstance(p, At):
            return _Node(p, "at", [build(p.arg)], offset=p.offset)
        raise TypeError(f"cannot compile BLTL node {type(p).__name__}")

    return build(phi), leaves


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------


@dataclass
class MonitorResult:
    """Final state of one monitoring episode.

    Attributes
    ----------
    verdict:
        The three-valued outcome; ``UNKNOWN`` only when the stream
        ended before the horizon was covered *and* no early decision
        was reached.
    margin:
        The exact batch robustness margin, or ``None`` when the episode
        ended before the horizon completed.
    decided_at:
        Stream time at which the verdict became irrevocable (``None``
        if undecided).
    t_start:
        Anchor time of the episode (its first sample).
    samples:
        Samples consumed by the episode.
    complete:
        Whether the formula horizon was fully covered.
    """

    verdict: Verdict
    margin: float | None
    decided_at: float | None
    t_start: float | None
    samples: int
    complete: bool

    def to_dict(self) -> dict[str, Any]:
        """JSON-able projection."""
        return {
            "verdict": self.verdict.value,
            "margin": self.margin,
            "decided_at": self.decided_at,
            "t_start": self.t_start,
            "samples": self.samples,
            "complete": self.complete,
        }


# ----------------------------------------------------------------------
# the monitor
# ----------------------------------------------------------------------


class OnlineMonitor:
    """Incremental three-valued evaluation of one BLTL formula.

    Parameters
    ----------
    phi:
        The property (a :class:`~repro.smc.bltl.BLTL` or a bare
        :class:`~repro.logic.Formula`, which is wrapped into a ``Prop``).
    extra_env:
        Extra constant bindings visible to the state predicates, as in
        the batch monitor.

    The evaluation instant is anchored at the **first sample's time**;
    feed samples in strictly increasing time order via :meth:`step` and
    finish with :meth:`finish`.  The monitor buffers at most one
    formula horizon of samples.
    """

    def __init__(self, phi: BLTL | Formula, extra_env: Mapping[str, float] | None = None):
        self.phi = _as_bltl(phi)
        self.horizon = self.phi.horizon()
        self.extra_env = dict(extra_env or {})
        self._root, self._leaves = _compile(self.phi)
        self._names: list[str] | None = None
        self._times = np.empty(64, dtype=float)
        self._states: np.ndarray | None = None
        self._derivs: np.ndarray | None = None
        self._has_derivs = False
        self._n = 0
        self._traj: Trajectory | None = None
        self.verdict = Verdict.UNKNOWN
        self.decided_at: float | None = None
        self.final_margin: float | None = None
        self.finished = False
        self.ignored = 0

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def n_samples(self) -> int:
        """Samples consumed so far."""
        return self._n

    @property
    def t_start(self) -> float | None:
        """The episode anchor (first sample time), or ``None`` if empty."""
        return float(self._times[0]) if self._n else None

    @property
    def watermark(self) -> float | None:
        """Latest sample time, or ``None`` before the first sample."""
        return float(self._times[self._n - 1]) if self._n else None

    @property
    def decided(self) -> bool:
        """Whether the verdict is irrevocable."""
        return self.verdict.decided

    @property
    def prop_leaves(self) -> list[Formula]:
        """The state-predicate leaves, in syntactic order.

        Index ``i`` addresses leaf ``i`` in :meth:`prime`.
        """
        return [leaf.phi.formula for leaf in self._leaves]

    # ------------------------------------------------------------------
    # feeding
    # ------------------------------------------------------------------
    def step(self, t: float, values: Mapping[str, float],
             derivs: Mapping[str, float] | None = None) -> Verdict:
        """Consume one sample; returns the current three-valued verdict.

        Samples must arrive in strictly increasing time order (the
        stream layer handles reordering).  Samples after the horizon
        completed are counted in :attr:`ignored` and change nothing.
        """
        if self.finished:
            self.ignored += 1
            return self.verdict
        t = float(t)
        if self._n and t <= self._times[self._n - 1]:
            raise ValueError(
                f"monitor samples must be strictly increasing in time: "
                f"got {t} after {self._times[self._n - 1]}"
            )
        self._append(t, values, derivs)
        t0 = float(self._times[0])
        if not self.verdict.decided:
            v = self._eval3(self._root, t0)
            if v.decided:
                self.verdict = v
                self.decided_at = t
        if t >= t0 + self.horizon:
            self._finalize()
        return self.verdict

    def finish(self) -> MonitorResult:
        """Close the episode and return its :class:`MonitorResult`.

        If the stream covered the horizon (within the batch monitor's
        ``1e-9`` slack) the exact batch verdict and margin are
        computed; otherwise the episode stays ``complete=False`` with
        whatever early verdict was reached.
        """
        if not self.finished:
            if self._n and self.watermark + HORIZON_SLACK >= self._times[0] + self.horizon:
                self._finalize()
            else:
                self.finished = True
        return MonitorResult(
            verdict=self.verdict,
            margin=self.final_margin,
            decided_at=self.decided_at,
            t_start=self.t_start,
            samples=self._n,
            complete=self.final_margin is not None,
        )

    def prime(self, t: float, verdicts: Mapping[int, Verdict]) -> None:
        """Pre-load *certain* leaf verdicts for the sample at time ``t``.

        The fleet supervisor evaluates the shared state predicates of a
        whole batch of streams in one vectorized interval pass (the
        PR 3 tape evaluator); predicates the interval judge decides
        with certainty are deposited here so the scalar early path
        skips them.  Values must agree with the exact pointwise
        evaluation -- interval certainty guarantees that.
        """
        t = float(t)
        for idx, v in verdicts.items():
            if v.decided:
                self._leaves[idx].decided.setdefault(t, v)

    # ------------------------------------------------------------------
    # margins
    # ------------------------------------------------------------------
    def margin_interval(self) -> tuple[float, float]:
        """Running robustness bounds ``(lo, hi)`` of the episode.

        The true (batch) robustness of the completed trace is
        guaranteed to lie in the interval; it tightens as windows fill
        and collapses to the exact margin once the horizon completes.
        """
        if self.final_margin is not None:
            return (self.final_margin, self.final_margin)
        if not self._n:
            return (-_INF, _INF)
        return self._m3(self._root, float(self._times[0]))

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _append(self, t: float, values: Mapping[str, float],
                derivs: Mapping[str, float] | None) -> None:
        if self._names is None:
            self._names = list(values)
            self._states = np.empty((64, len(self._names)), dtype=float)
            self._has_derivs = derivs is not None
            if self._has_derivs:
                self._derivs = np.empty_like(self._states)
        if (derivs is not None) != self._has_derivs:
            raise ValueError("all samples of an episode must consistently "
                             "carry (or omit) derivative rows")
        if self._n == len(self._times):
            self._times = np.concatenate([self._times, np.empty_like(self._times)])
            self._states = np.concatenate([self._states, np.empty_like(self._states)])
            if self._derivs is not None:
                self._derivs = np.concatenate([self._derivs, np.empty_like(self._derivs)])
        try:
            row = [float(values[k]) for k in self._names]
        except KeyError as exc:
            raise ValueError(f"sample at t={t} misses variable {exc}") from None
        self._times[self._n] = t
        self._states[self._n] = row
        if self._derivs is not None:
            self._derivs[self._n] = [float(derivs[k]) for k in self._names]
        self._n += 1
        self._traj = None

    def _prefix(self) -> Trajectory:
        """The buffered episode as a dense-output trajectory (a view)."""
        if self._traj is None:
            self._traj = Trajectory(
                self._times[: self._n],
                self._states[: self._n],
                list(self._names),
                self._derivs[: self._n] if self._derivs is not None else None,
            )
        return self._traj

    def _finalize(self) -> None:
        traj = self._prefix()
        t0 = float(self._times[0])
        exact = Verdict.of(bool(_truth(self.phi, traj, [t0], self.extra_env)[0]))
        if self.verdict.decided and exact is not self.verdict:
            raise RuntimeError(
                f"online monitor early verdict {self.verdict} diverged from "
                f"the batch verdict {exact}; this is a monitor bug"
            )
        self.verdict = exact
        if self.decided_at is None:
            self.decided_at = self.watermark
        self.final_margin = float(_margin(self.phi, traj, [t0], self.extra_env)[0])
        self.finished = True

    # -- three-valued early evaluation ---------------------------------
    def _eval3(self, node: _Node, u: float) -> Verdict:
        v = node.decided.get(u)
        if v is not None:
            return v
        wm = self._times[self._n - 1]
        t0 = self._times[0]
        if u + node.horizon <= wm and u >= t0 - WINDOW_EPS:
            # horizon covered: the value is exact and irrevocable
            sat = _truth(node.phi, self._prefix(), [u], self.extra_env)[0]
            v = Verdict.of(bool(sat))
            node.decided[u] = v
            node.wins.pop(u, None)
            return v
        kind = node.kind
        if kind == "prop":
            return Verdict.UNKNOWN  # u beyond the watermark
        if kind == "not":
            return _k_not(self._eval3(node.children[0], u))
        if kind == "and":
            return _k_and(self._eval3(node.children[0], u),
                          self._eval3(node.children[1], u))
        if kind == "or":
            return _k_or(self._eval3(node.children[0], u),
                         self._eval3(node.children[1], u))
        if kind == "at":
            return self._eval3(node.children[0], u + node.offset)
        if kind in ("F", "G"):
            return self._scan_fg(node, u)
        if kind == "U":
            return self._scan_until(node, u)
        raise TypeError(kind)

    def _decide(self, node: _Node, u: float, v: Verdict) -> Verdict:
        node.decided[u] = v
        node.wins.pop(u, None)
        return v

    def _scan_fg(self, node: _Node, u: float) -> Verdict:
        """Early F/G window check over the definite in-window samples.

        Any sample time in ``[u - eps, u + bound + eps]`` is guaranteed
        to be an instant of the final window discretization, so one
        decisive child value there decides the window; the exact
        endpoint instants (inserted only when no sample covers them)
        are left to horizon completion.
        """
        target = Verdict.TRUE if node.kind == "F" else Verdict.FALSE
        win = node.wins.get(u)
        if win is None:
            start = int(np.searchsorted(self._times[: self._n], u - WINDOW_EPS))
            win = node.wins[u] = _Win(start)
        hi_lim = u + node.bound + WINDOW_EPS
        child = node.children[0]
        i = win.next_idx
        # the frontier may have been created before any in-window sample
        # existed; skip samples that arrived before the window start
        while i < self._n and self._times[i] < u - WINDOW_EPS:
            i += 1
            win.next_idx = i
        unknown_seen = False
        while i < self._n and self._times[i] <= hi_lim:
            cv = self._eval3(child, float(self._times[i]))
            if cv is target:
                return self._decide(node, u, target)
            if cv is Verdict.UNKNOWN:
                unknown_seen = True
            elif not unknown_seen:
                win.next_idx = i + 1
            i += 1
        return Verdict.UNKNOWN

    def _scan_until(self, node: _Node, u: float) -> Verdict:
        """Early Until window check: the classic until-automaton.

        Instants are processed strictly in order (the window's instant
        prefix is determined up to the watermark): a right-child success
        with an all-true left prefix decides TRUE; a left-child failure
        before any success decides FALSE; the first undecided subvalue
        stalls the scan until it resolves.
        """
        left, right = node.children
        win = node.wins.get(u)
        if win is None:
            win = node.wins[u] = _UWin()
        wm = self._times[self._n - 1]
        if win.stage == 0:
            start = int(np.searchsorted(self._times[: self._n], u - WINDOW_EPS))
            if start < self._n and self._times[start] <= u + WINDOW_EPS:
                win.next_idx = start
                win.stage = 2  # a sample stands in for the window start
            elif wm > u + WINDOW_EPS:
                win.next_idx = start
                win.stage = 1  # the exact start instant will be inserted
            else:
                return Verdict.UNKNOWN
        if win.stage == 1:
            rv = self._eval3(right, u)
            if rv is Verdict.TRUE:
                return self._decide(node, u, Verdict.TRUE)
            if rv is Verdict.UNKNOWN:
                return Verdict.UNKNOWN
            lv = self._eval3(left, u)
            if lv is Verdict.FALSE:
                return self._decide(node, u, Verdict.FALSE)
            if lv is Verdict.UNKNOWN:
                return Verdict.UNKNOWN
            win.stage = 2
        hi_lim = u + node.bound + WINDOW_EPS
        i = win.next_idx
        while i < self._n and self._times[i] <= hi_lim:
            ti = float(self._times[i])
            rv = self._eval3(right, ti)
            if rv is Verdict.TRUE:
                return self._decide(node, u, Verdict.TRUE)
            if rv is Verdict.UNKNOWN:
                return Verdict.UNKNOWN
            lv = self._eval3(left, ti)
            if lv is Verdict.FALSE:
                return self._decide(node, u, Verdict.FALSE)
            if lv is Verdict.UNKNOWN:
                return Verdict.UNKNOWN
            i += 1
            win.next_idx = i
        return Verdict.UNKNOWN

    # -- running robustness bounds -------------------------------------
    def _m3(self, node: _Node, u: float) -> tuple[float, float]:
        m = node.margins.get(u)
        if m is not None:
            return (m, m)
        wm = self._times[self._n - 1]
        t0 = self._times[0]
        if u + node.horizon <= wm and u >= t0 - WINDOW_EPS:
            m = float(_margin(node.phi, self._prefix(), [u], self.extra_env)[0])
            node.margins[u] = m
            return (m, m)
        kind = node.kind
        if kind == "prop":
            return (-_INF, _INF)
        if kind == "not":
            lo, hi = self._m3(node.children[0], u)
            return (-hi, -lo)
        if kind == "and":
            a, b = (self._m3(c, u) for c in node.children)
            return (min(a[0], b[0]), min(a[1], b[1]))
        if kind == "or":
            a, b = (self._m3(c, u) for c in node.children)
            return (max(a[0], b[0]), max(a[1], b[1]))
        if kind == "at":
            return self._m3(node.children[0], u + node.offset)
        if kind in ("F", "G"):
            child = node.children[0]
            start = int(np.searchsorted(self._times[: self._n], u - WINDOW_EPS))
            hi_lim = u + node.bound + WINDOW_EPS
            best = None
            i = start
            while i < self._n and self._times[i] <= hi_lim:
                lo, hi = self._m3(child, float(self._times[i]))
                if kind == "F":
                    best = lo if best is None else max(best, lo)
                else:
                    best = hi if best is None else min(best, hi)
                i += 1
            if kind == "F":
                # the final max is at least the best lower bound seen
                return (best if best is not None else -_INF, _INF)
            return (-_INF, best if best is not None else _INF)
        # Until: no useful running bound before completion
        return (-_INF, _INF)
