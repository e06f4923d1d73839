"""Bounded reachability checking and parameter synthesis (dReach-style).

This module realizes the paper's central computational object: the
``(k, M)``-reachability encoding of Section III-C, solved per mode path
by an ICP branch-and-prune over

* the unknown parameters ``a`` (Definition 12/13),
* the initial continuous state ``x0``, and
* the dwell times ``t_0 ... t_k`` (each bounded by ``M``),

with the ODE flow constraints discharged by validated interval
enclosures (:mod:`repro.odes.enclosure`) instead of a symbolic ODE
theory -- the same role dReal's ODE solver plays inside dReach [54].
Guards, invariants and the goal are judged and contracted on the same
compiled tapes (:mod:`repro.solver.tape`) as the ICP solver's
constraints, each compiled once per check.

Soundness mirrors Theorem 1's one-sided contract:

* ``UNSAT`` is returned only when every box of every path is pruned by
  certainly-false judgments over *enclosures of all trajectories*, so
  the goal is truly unreachable (within the bounds).
* ``DELTA_SAT`` is returned only when a candidate box is *verified*: the
  delta-weakened guards/invariants/goal are certainly true over the
  enclosures, hence a real trajectory delta-satisfying the encoding
  exists.

A simulation-guided shortcut proposes candidates from concrete runs
before resorting to exhaustive splitting.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.hybrid import HybridAutomaton, formula_margin
from repro.hybrid.simulate import _crossing_stop, _guard_time
from repro.intervals import Box, BoxArray, Interval
from repro.logic import Formula, TrueFormula
from repro.odes import EnclosureError, ReachTube, flow_enclosure, rk45
from repro.solver import Status
from repro.solver.depth_first import Fate, depth_first, relative_split
from repro.solver.icp import check_at_least_one
from repro.solver.tape import (
    CERTAIN_FALSE,
    CERTAIN_TRUE,
    CompiledFormula,
    compile_formula,
)

from .paths import Path, enumerate_paths

__all__ = ["ReachSpec", "BMCOptions", "BMCResult", "BMCChecker"]

#: Width at which a flow enclosure counts as blown up (EnclosureError).
_MAX_GROWTH = 1e4
#: Half-width of each dwell interval in a simulated candidate box.
_SIM_DWELL_HALFWIDTH = 1e-4


@dataclass
class ReachSpec:
    """A bounded reachability question about a hybrid automaton.

    Parameters
    ----------
    goal:
        Formula over the continuous variables (and parameters) that must
        hold at the end of the run -- the set ``U`` of Definition 11.
    goal_mode:
        Mode the run must end in, or None for any mode.
    max_jumps:
        The unrolling depth ``k``.
    time_bound:
        Per-mode dwell bound ``M``.
    min_dwell:
        Optional lower bound on each dwell (0 reproduces the paper's
        encoding; positive values exclude Zeno-ish instant chains).
    """

    goal: Formula
    goal_mode: str | None = None
    max_jumps: int = 3
    time_bound: float = 10.0
    min_dwell: float = 0.0


@dataclass
class BMCOptions:
    """Tuning knobs of the BMC search."""

    delta: float = 0.1
    max_boxes_per_path: int = 400
    enclosure_step: float = 0.05
    use_simulation_guidance: bool = True
    contract_tol: float = 1e-2
    verify_step: float | None = None  # finer step for witness verification

    def __post_init__(self) -> None:
        # "not > 0" also rejects NaN: a zero step never advances time
        if not self.enclosure_step > 0:
            raise ValueError(
                f"enclosure_step must be > 0, got {self.enclosure_step}"
            )
        if self.verify_step is not None and not self.verify_step > 0:
            raise ValueError(f"verify_step must be > 0, got {self.verify_step}")
        check_at_least_one(max_boxes_per_path=self.max_boxes_per_path)


@dataclass
class BMCResult:
    """Outcome of a reachability query."""

    status: Status
    path: Path | None = None
    witness_params: dict[str, float] | None = None
    witness_x0: dict[str, float] | None = None
    witness_dwells: list[float] | None = None
    boxes_processed: int = 0
    paths_explored: int = 0
    wall_time: float = 0.0

    def __bool__(self) -> bool:
        return self.status is Status.DELTA_SAT

    def mode_path(self) -> list[str] | None:
        """Mode names along the witness path, or None without a witness."""
        return self.path.modes if self.path is not None else None

    def __repr__(self) -> str:
        extra = ""
        if self.path is not None:
            extra = f", path={'->'.join(self.path.modes)}"
        return f"BMCResult({self.status.value}{extra})"


def _dwell_name(i: int) -> str:
    return f"__dwell_{i}"


class BMCChecker:
    """Bounded model checker / parameter synthesizer for hybrid automata.

    The ``reach``, ``robustness`` and ``therapy`` tasks of
    :mod:`repro.api` drive it; in-process use::

        checker = BMCChecker(automaton, options)
        result = checker._check_impl(spec, param_ranges={"k1": (0.0, 2.0)})
        if result:                      # delta-sat
            print(result.witness_params, result.mode_path())
    """

    def __init__(self, automaton: HybridAutomaton, options: BMCOptions | None = None):
        self.automaton = automaton
        self.options = options or BMCOptions()
        self._defaults = Box.from_point(dict(automaton.params))
        self._tapes: dict[int, CompiledFormula] = {}

    def _tape(self, phi: Formula) -> CompiledFormula:
        """``phi`` compiled, once per check.  The memo is keyed by
        identity and cleared when a check starts: every formula a check
        judges stays alive until it ends, so no id is reused within it."""
        tape = self._tapes.get(id(phi))
        if tape is None:
            tape = self._tapes[id(phi)] = compile_formula(phi)
        return tape

    def _judge(self, phi: Formula, env: Box) -> np.ndarray:
        """Judgments of ``phi`` over ``env`` at 0 and at delta."""
        rows = self._tape(phi).judge(BoxArray.from_box(env), (0.0, self.options.delta))
        return rows[:, 0]

    def _env(self, box: Box, param_box: Box | None) -> Box:
        """State box extended with parameter values (searched parameter
        intervals override the automaton's point defaults)."""
        env = box.merged(self._defaults) if len(self._defaults) else box
        if param_box is not None:
            env = env.merged(param_box)
        return env

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def _check_impl(
        self,
        spec: ReachSpec,
        param_ranges: Mapping[str, tuple[float, float]] | None = None,
        init_box: Box | None = None,
    ) -> BMCResult:
        """Decide reachability of ``spec`` (Definition 13 when
        ``param_ranges`` is nonempty: parameter synthesis).

        Returns delta-sat with a witness (parameters, initial state,
        dwell schedule, path), unsat, or unknown on budget exhaustion.
        """
        t0 = time.perf_counter()
        self._tapes.clear()
        param_ranges = dict(param_ranges or {})
        unknown = set(param_ranges) - set(self.automaton.params)
        if unknown:
            raise ValueError(f"unknown parameters: {sorted(unknown)}")
        x0_box = init_box if init_box is not None else self.automaton.initial_box()
        x0_box = x0_box.restrict(self.automaton.variables)

        total_boxes = 0
        n_paths = 0
        any_unknown = False
        for path in enumerate_paths(self.automaton, spec.max_jumps, spec.goal_mode):
            n_paths += 1
            outcome = self._solve_path(path, spec, param_ranges, x0_box)
            total_boxes += outcome.boxes_processed
            if outcome:
                outcome.boxes_processed = total_boxes
                outcome.paths_explored = n_paths
                outcome.wall_time = time.perf_counter() - t0
                return outcome
            any_unknown |= outcome.status is Status.UNKNOWN
        status = Status.UNKNOWN if any_unknown else Status.UNSAT
        return BMCResult(
            status,
            boxes_processed=total_boxes,
            paths_explored=n_paths,
            wall_time=time.perf_counter() - t0,
        )

    # ------------------------------------------------------------------
    # Per-path branch and prune
    # ------------------------------------------------------------------
    def _solve_path(
        self,
        path: Path,
        spec: ReachSpec,
        param_ranges: dict[str, tuple[float, float]],
        x0_box: Box,
    ) -> BMCResult:
        """Branch and prune one mode path; its ``boxes_processed``
        counts this path only."""
        opt = self.options
        dims = dict(param_ranges)
        dims.update((v, (x0_box[v].lo, x0_box[v].hi)) for v in self.automaton.variables)
        dims.update(
            (_dwell_name(i), (spec.min_dwell, spec.time_bound))
            for i in range(len(path.modes))
        )
        root = Box.from_bounds(dims)

        # --- simulation-guided candidate, verified on a finer step -----
        if opt.use_simulation_guidance:
            cand = self._simulate_candidate(path, spec, root, param_ranges)
            fine = opt.verify_step or opt.enclosure_step / 5.0
            if cand is not None and self._propagate(
                path, spec, cand, param_ranges, step_override=fine
            )[0] is Fate.VERIFIED:
                return self._result_from_box(path, cand, param_ranges, 1)

        # --- branch and prune ------------------------------------------
        search = depth_first(
            root,
            lambda box: self._propagate(path, spec, box, param_ranges),
            relative_split(root),
            opt.max_boxes_per_path,
            ("bmc", "branch-and-prune"),
        )
        if search.verified:
            return self._result_from_box(
                path, search.verified[0], param_ranges, search.processed
            )
        return BMCResult(search.status, boxes_processed=search.processed)

    # ------------------------------------------------------------------
    # Interval propagation along a path
    # ------------------------------------------------------------------
    def _propagate(
        self,
        path: Path,
        spec: ReachSpec,
        box: Box,
        param_ranges: dict[str, tuple[float, float]],
        step_override: float | None = None,
    ) -> tuple[Fate, Box]:
        opt = self.options
        step = step_override if step_override is not None else opt.enclosure_step
        params = list(param_ranges)
        param_box = box.restrict(params) if params else None
        state_box = box.restrict(self.automaton.variables)
        if state_box.is_empty:
            return Fate.PRUNED, box

        all_delta_ok = True
        current = state_box
        box_out = box

        for i, mode_name in enumerate(path.modes):
            dwell = box_out[_dwell_name(i)]
            if dwell.is_empty:
                return Fate.PRUNED, box_out
            mode = self.automaton.mode(mode_name)
            system = self.automaton.mode_system(mode_name)

            # cheap rejection: the invariant must hold already at entry
            if not isinstance(mode.invariant, TrueFormula):
                at_entry = self._judge(mode.invariant, self._env(current, param_box))
                if at_entry[0] == CERTAIN_FALSE:
                    return Fate.PRUNED, box_out

            try:
                tube_a = self._enclose(system, current, dwell.lo, param_box, step)
                entry = tube_a.final() if tube_a.steps else current
                window = max(dwell.width(), 1e-9)
                step_b = min(step, max(window / 2.0, 1e-9))
                tube_b = flow_enclosure(
                    system, entry, window, param_box,
                    max_step=step_b, max_growth=_MAX_GROWTH,
                )
            except EnclosureError:
                # enclosure blow-up: cannot judge; treat as unknown split
                return Fate.UNKNOWN, box_out

            # invariant along the dwell
            inv = mode.invariant
            if not isinstance(inv, TrueFormula):
                verdicts = self._check_invariant(
                    inv, tube_a, tube_b, dwell, param_box
                )
                if verdicts is Fate.PRUNED:
                    return Fate.PRUNED, box_out
                if verdicts is Fate.UNKNOWN:
                    all_delta_ok = False

            exit_box = tube_b.whole() if tube_b.steps else entry
            exit_env = self._env(exit_box, param_box)

            if i < len(path.jumps):
                jump = path.jumps[i]
                at_zero, at_delta = self._judge(jump.guard, exit_env)
                if at_zero == CERTAIN_FALSE:
                    return Fate.PRUNED, box_out
                if at_delta != CERTAIN_TRUE:
                    all_delta_ok = False
                contracted = self._tape(jump.guard).fixpoint_contract(
                    BoxArray.from_box(exit_env), tol=opt.contract_tol
                ).row(0)
                if contracted.is_empty:
                    return Fate.PRUNED, box_out
                if params:
                    new_params = contracted.restrict(params)
                    box_out = box_out.merged(new_params)
                    param_box = new_params
                post = {}
                reset_env = dict(contracted)
                for v in self.automaton.variables:
                    if v in jump.reset:
                        post[v] = jump.reset[v].eval_interval(reset_env)
                    else:
                        post[v] = contracted[v]
                current = Box(post)
                if current.is_empty:
                    return Fate.PRUNED, box_out
            else:
                at_zero, at_delta = self._judge(spec.goal, exit_env)
                if at_zero == CERTAIN_FALSE:
                    return Fate.PRUNED, box_out
                if at_delta != CERTAIN_TRUE:
                    all_delta_ok = False

        return (Fate.VERIFIED if all_delta_ok else Fate.UNKNOWN), box_out

    def _enclose(
        self, system, start: Box, duration: float, param_box: Box | None,
        step: float | None = None,
    ) -> ReachTube:
        if duration <= 1e-12:
            return ReachTube((), tuple(system.state_names))
        return flow_enclosure(
            system,
            start,
            duration,
            param_box,
            max_step=step if step is not None else self.options.enclosure_step,
            max_growth=_MAX_GROWTH,
        )

    def _check_invariant(
        self,
        inv: Formula,
        tube_a: ReachTube,
        tube_b: ReachTube,
        dwell: Interval,
        param_box: Box | None,
    ) -> Fate:
        """PRUNED if the invariant certainly fails before any feasible
        exit; UNKNOWN if delta-truth cannot be certified; VERIFIED else.

        Every step of both tubes is judged in one batched pass.
        """
        steps = [(0.0, s) for s in tube_a.steps] + [(dwell.lo, s) for s in tube_b.steps]
        if not steps:
            return Fate.VERIFIED
        envs = BoxArray.from_boxes(
            [self._env(s.enclosure, param_box) for _, s in steps]
        )
        at_zero, at_delta = self._tape(inv).judge(envs, (0.0, self.options.delta))
        false_rows = np.flatnonzero(at_zero == CERTAIN_FALSE)
        if false_rows.size:
            # violation starting at absolute time offset + step.time.lo
            offset, step = steps[false_rows[0]]
            if offset + step.time.lo <= dwell.lo + 1e-12:
                return Fate.PRUNED
            # dwell times beyond the violation are infeasible, but the
            # box may still contain feasible shorter dwells
            return Fate.UNKNOWN
        if (at_delta == CERTAIN_TRUE).all():
            return Fate.VERIFIED
        return Fate.UNKNOWN

    # ------------------------------------------------------------------
    # Simulation guidance
    # ------------------------------------------------------------------
    def _simulate_candidate(
        self,
        path: Path,
        spec: ReachSpec,
        root: Box,
        param_ranges: dict[str, tuple[float, float]],
    ) -> Box | None:
        """Concrete run through the path at the box midpoint; on success
        returns a narrow candidate box around the discovered schedule."""
        opt = self.options
        mid = root.midpoint()
        params = {**self.automaton.params, **{p: mid[p] for p in param_ranges}}
        state = {v: mid[v] for v in self.automaton.variables}
        dwells: list[float] = []
        t_accum = 0.0
        for i, mode_name in enumerate(path.modes):
            system = self.automaton.mode_system(mode_name)
            jump = path.jumps[i] if i < len(path.jumps) else None
            stop = None
            if jump is not None:

                def margin(s: dict[str, float]) -> float:
                    return formula_margin(jump.guard, {**params, **s})

                # stop at the guard's crossing; the last mode runs to the
                # bound because its goal scan needs the whole horizon
                names = system.state_names
                stop = _crossing_stop(names, [state[n] for n in names], rising=[margin])
            try:
                traj = rk45(
                    system, state, (0.0, spec.time_bound), params=params,
                    rtol=1e-7, max_step=opt.enclosure_step, stop=stop,
                )
            except Exception:
                return None
            if jump is not None:
                t_cross = _guard_time(traj, margin)
                if t_cross is None or t_cross < spec.min_dwell:
                    return None
                dwells.append(t_cross)
                state = jump.apply_reset(traj.at(t_cross), params)
                t_accum += t_cross
            else:
                # prefer the earliest robust goal hit (short dwells make
                # the verification tube cheap); fall back to max margin
                slack = 2.0 * opt.delta
                best_t, best_m = None, -float("inf")
                chosen = None
                for t in traj.times:
                    if float(t) < spec.min_dwell:
                        continue
                    m = formula_margin(spec.goal, {**params, **traj.at(float(t))})
                    if m > best_m:
                        best_t, best_m = float(t), m
                    if chosen is None and m >= slack:
                        chosen = float(t)
                if chosen is None:
                    if best_t is None or best_m < 0.0:
                        return None
                    chosen = best_t
                dwells.append(chosen)
        # narrow candidate box around the schedule
        h = _SIM_DWELL_HALFWIDTH
        cand = dict(root)
        for p in param_ranges:
            cand[p] = Interval.point(mid[p])
        for v in self.automaton.variables:
            cand[v] = Interval.point(mid[v])
        for i, d in enumerate(dwells):
            lo = max(d - h, 0.0)
            cand[_dwell_name(i)] = Interval(lo, d + h)
        return Box(cand)

    # ------------------------------------------------------------------
    def _result_from_box(
        self, path: Path, box: Box, param_ranges: Mapping, processed: int
    ) -> BMCResult:
        mid = box.midpoint()
        return BMCResult(
            Status.DELTA_SAT,
            path=path,
            witness_params={p: mid[p] for p in param_ranges},
            witness_x0={v: mid[v] for v in self.automaton.variables},
            witness_dwells=[mid[_dwell_name(i)] for i in range(len(path.modes))],
            boxes_processed=processed,
        )
