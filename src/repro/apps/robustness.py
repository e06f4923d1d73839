"""Time-bounded robustness analysis (paper Section IV-C).

"Cardiac cells filter out insignificant stimulations to ensure proper
functioning in noisy environments.  Using the delta-decision procedures
we can verify this by checking if the action potential can be
successfully triggered by a small range of stimulation.  An unsat
answer returned by dReach will guarantee that the model is robust to
the corresponding stimulation amplitude."

:func:`_check_robustness_impl` decides whether a *bad* region is reachable
from a whole box of disturbed initial conditions; UNSAT proves
robustness.  :func:`stimulus_threshold` brackets the excitability
threshold by bisection between a proven-robust amplitude and a
proven-excitable one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.bmc import BMCChecker, BMCOptions, ReachSpec
from repro.hybrid import HybridAutomaton
from repro.intervals import Box
from repro.logic import Formula
from repro.solver import Status

__all__ = ["RobustnessResult", "stimulus_threshold"]


@dataclass
class RobustnessResult:
    """Outcome of a robustness query.

    ``robust=True`` is exact (UNSAT certificate); ``robust=False``
    carries a delta-sat witness disturbance; ``robust=None`` means the
    budget was exhausted.
    """

    robust: bool | None
    witness: dict[str, float] | None = None
    detail: str = ""
    boxes_processed: int = 0

    def __bool__(self) -> bool:
        return self.robust is True


def _check_robustness_impl(
    automaton: HybridAutomaton,
    disturbance: Box | Mapping[str, tuple[float, float]],
    bad: Formula,
    time_bound: float = 50.0,
    max_jumps: int = 2,
    options: BMCOptions | None = None,
) -> RobustnessResult:
    """Is the ``bad`` region unreachable from every initial condition in
    the ``disturbance`` box?

    The disturbance box overrides the automaton's initial set for the
    named dimensions (e.g. the stimulated voltage range); unnamed state
    variables keep their default initial intervals.
    """
    dist_box = disturbance if isinstance(disturbance, Box) else Box.from_bounds(dict(disturbance))
    init = automaton.initial_box().merged(dist_box)
    spec = ReachSpec(goal=bad, max_jumps=max_jumps, time_bound=time_bound)
    res = BMCChecker(automaton, options)._check_impl(spec, init_box=init)
    if res.status is Status.UNSAT:
        return RobustnessResult(
            True, detail="bad region unreachable (unsat)",
            boxes_processed=res.boxes_processed,
        )
    if res.status is Status.DELTA_SAT:
        return RobustnessResult(
            False, witness=res.witness_x0,
            detail=f"disturbance reaching bad region via {'->'.join(res.mode_path())}",
            boxes_processed=res.boxes_processed,
        )
    return RobustnessResult(
        None, detail="budget exhausted (unknown)",
        boxes_processed=res.boxes_processed,
    )


def stimulus_threshold(
    automaton: HybridAutomaton,
    stimulus_var: str,
    bad: Formula,
    lo: float,
    hi: float,
    time_bound: float = 50.0,
    max_jumps: int = 2,
    iterations: int = 6,
    options: BMCOptions | None = None,
) -> tuple[float, float]:
    """Bracket the excitability threshold of ``stimulus_var``.

    Returns ``(robust_below, excitable_above)``: amplitudes up to
    ``robust_below`` provably cannot reach ``bad``; some amplitude below
    ``excitable_above`` provably (delta) can.  Bisection tightens the
    bracket; inconclusive probes widen the unresolved middle gap.
    """
    robust_below = lo
    excitable_above = hi
    for _ in range(iterations):
        mid = 0.5 * (robust_below + excitable_above)
        res = _check_robustness_impl(
            automaton,
            {stimulus_var: (lo, mid)},
            bad,
            time_bound=time_bound,
            max_jumps=max_jumps,
            options=options,
        )
        if res.robust is True:
            robust_below = mid
        elif res.robust is False:
            excitable_above = mid
        else:
            break  # unknown: keep the current bracket
    return robust_below, excitable_above
