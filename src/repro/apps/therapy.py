"""Therapeutic strategy identification (paper Section IV-B, Fig. 3).

"The problem of determining which drug to deliver at what time evolves
into a parameter synthesis problem for hybrid automata."

Two synthesis routes:

* :func:`_synthesize_reach_therapy_impl` -- the BMC route for the TBI model:
  enumerate mode paths shortest-first (minimizing the number of drugs,
  as the paper asks, "to avoid potential side effects") and synthesize
  decision thresholds such that the automaton reaches the recovery goal.
* :func:`_synthesize_threshold_policy_impl` -- the SMC route for safety-style
  objectives (e.g. the IAS model's "CRPC burden stays below a bound for
  the whole horizon"): cross-entropy search over thresholds scored by
  BLTL robustness, followed by a Monte-Carlo confirmation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.bmc import BMCChecker, BMCOptions, ReachSpec
from repro.hybrid import HybridAutomaton, simulate_hybrid
from repro.logic import Formula
from repro.smc import BLTL, InitialDistribution, cross_entropy_search, monitor, smc_objective

__all__ = [
    "TherapyPlan",
    "PolicyResult",
    "evaluate_policy",
]


@dataclass
class TherapyPlan:
    """A synthesized treatment strategy."""

    found: bool
    drug_sequence: list[str] = field(default_factory=list)  # visited drug modes
    thresholds: dict[str, float] = field(default_factory=dict)
    dwell_times: list[float] = field(default_factory=list)
    mode_path: list[str] = field(default_factory=list)
    n_drugs: int = 0
    detail: str = ""
    paths_tried: int = 0
    boxes_processed: int = 0

    def __bool__(self) -> bool:
        return self.found


def _synthesize_reach_therapy_impl(
    automaton: HybridAutomaton,
    goal: Formula,
    threshold_ranges: Mapping[str, tuple[float, float]],
    goal_mode: str = "live",
    max_drugs: int = 3,
    time_bound: float = 60.0,
    options: BMCOptions | None = None,
    forbidden_modes: tuple[str, ...] = ("death",),
) -> TherapyPlan:
    """Find decision thresholds and a shortest drug sequence reaching
    the recovery goal.

    Paths are explored shortest-first, so the returned plan uses the
    minimum number of discrete treatment decisions able to reach the
    goal (paper: "we also aim to minimize the number of drugs used").
    Paths passing through ``forbidden_modes`` are skipped.
    """
    opts = options or BMCOptions()
    checker = BMCChecker(automaton, opts)
    from repro.bmc import enumerate_paths

    paths_tried = 0
    total_boxes = 0
    for k in range(max_drugs + 1):
        for path in enumerate_paths(automaton, k, goal_mode):
            if len(path) != k:
                continue  # handled at its own depth
            if any(m in forbidden_modes for m in path.modes):
                continue
            spec = ReachSpec(
                goal=goal, goal_mode=goal_mode, max_jumps=k, time_bound=time_bound
            )
            outcome = checker._solve_path(
                path, spec, dict(threshold_ranges), automaton.initial_box()
            )
            paths_tried += 1
            total_boxes += outcome.boxes_processed
            if outcome:
                drugs = [m for m in path.modes if m.startswith("drug")]
                return TherapyPlan(
                    True,
                    drug_sequence=drugs,
                    thresholds=outcome.witness_params or {},
                    dwell_times=outcome.witness_dwells or [],
                    mode_path=path.modes,
                    n_drugs=len(set(drugs)),
                    detail=f"path {'->'.join(path.modes)} with {k} decisions",
                    paths_tried=paths_tried,
                    boxes_processed=total_boxes,
                )
    return TherapyPlan(
        False, detail="no feasible strategy within bounds",
        paths_tried=paths_tried, boxes_processed=total_boxes,
    )


# ----------------------------------------------------------------------
# SMC-based policy synthesis (safety objectives)
# ----------------------------------------------------------------------


@dataclass
class PolicyResult:
    """A threshold policy scored by statistical verification."""

    found: bool
    thresholds: dict[str, float] = field(default_factory=dict)
    robustness: float = 0.0
    success_probability: float | None = None
    evaluations: int = 0

    def __bool__(self) -> bool:
        return self.found


def _synthesize_threshold_policy_impl(
    automaton: HybridAutomaton,
    phi: BLTL,
    threshold_ranges: Mapping[str, tuple[float, float]],
    init: InitialDistribution | Mapping,
    horizon: float,
    population: int = 24,
    iterations: int = 12,
    seed: int = 0,
    confirm_samples: int = 40,
    rtol: float = 1e-6,
) -> PolicyResult:
    """Cross-entropy search over treatment thresholds maximizing the
    BLTL robustness of ``phi``; the winner is confirmed by Monte Carlo.
    """
    objective = smc_objective(
        automaton, phi, init, horizon, n_samples=3, seed=seed, rtol=rtol
    )
    res = cross_entropy_search(
        objective, dict(threshold_ranges), population=population,
        iterations=iterations, seed=seed, target=None,
    )
    if res.best_fitness <= 0.0:
        return PolicyResult(
            False, res.best_params, res.best_fitness, evaluations=res.evaluations
        )
    # Monte-Carlo confirmation at the winning thresholds
    import random as _random

    init_d = init if isinstance(init, InitialDistribution) else InitialDistribution(dict(init))
    rng = _random.Random(seed + 1)
    states = list(automaton.variables)
    successes = 0
    for _ in range(confirm_samples):
        draw = init_d.sample(rng)
        x0 = {k: draw[k] for k in states}
        traj = simulate_hybrid(
            automaton, x0, t_final=horizon, params=res.best_params, rtol=rtol
        ).flatten()
        if monitor(phi, traj):
            successes += 1
    return PolicyResult(
        True, res.best_params, res.best_fitness, successes / confirm_samples,
        evaluations=res.evaluations,
    )


def evaluate_policy(
    automaton: HybridAutomaton,
    thresholds: Mapping[str, float],
    x0: Mapping[str, float] | None = None,
    horizon: float = 60.0,
    max_jumps: int = 30,
):
    """Simulate a concrete policy; returns the hybrid trajectory."""
    return simulate_hybrid(
        automaton, x0, t_final=horizon, params=dict(thresholds), max_jumps=max_jumps
    )
