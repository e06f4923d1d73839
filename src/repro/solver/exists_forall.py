"""CEGIS solver for exists-forall formulas over the reals.

Paper Section IV-C(i): Lyapunov function synthesis is encoded as an
``exists p . forall x in X . phi(p, x)`` problem and solved with
delta-decision procedures [57].  We implement the standard
counterexample-guided inductive synthesis (CEGIS) loop:

1. **Propose** a candidate ``p`` consistent with all counterexamples
   collected so far (a delta-SAT query over the parameter box).
2. **Verify** the candidate by searching for a counterexample ``x``
   with ``not phi(p, x)`` (another delta-SAT query over the state box).
   UNSAT here *proves* the forall and the loop returns the candidate.
3. Otherwise add the counterexample and repeat.

The verification step inherits the one-sided delta guarantee: a
returned candidate is certified in the delta-relaxed sense (the
verifier's UNSAT is exact for the delta-strengthened inner formula).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

from repro.intervals import Box
from repro.logic import And, Formula

from .icp import DeltaSolver, Result, Status

__all__ = ["EFResult", "ExistsForallSolver"]


@dataclass
class EFResult:
    """Outcome of an exists-forall synthesis run."""

    status: Status
    candidate: dict[str, float] | None = None
    counterexamples: list[dict[str, float]] = field(default_factory=list)
    iterations: int = 0

    def __bool__(self) -> bool:
        return self.status is Status.DELTA_SAT


@dataclass
class ExistsForallSolver:
    """CEGIS loop solving ``exists p in P . forall x in X . phi(p, x)``.

    Parameters
    ----------
    max_iterations:
        Bound on propose/verify rounds.
    n_seed_samples:
        Random state-space samples used as initial "counterexamples" so
        the first candidate is already plausible.
    seed:
        Seed of the random state-space samples.
    propose_budget, verify_budget:
        ``max_boxes`` of each propose and each verify solve.
    solver:
        The configured inner delta-decision procedure: its ``delta``,
        sharding and paving-store knobs apply to every propose and
        verify solve, whose budgets replace its ``max_boxes``.  A
        paving store pays off here: CEGIS re-verifies near-identical
        queries every round, so stored witnesses and covers
        short-circuit whole solves.
    """

    max_iterations: int = 30
    n_seed_samples: int = 8
    seed: int = 0
    propose_budget: int = 20_000
    verify_budget: int = 50_000
    solver: DeltaSolver = DeltaSolver()

    def solve(self, phi: Formula, param_box: Box, state_box: Box) -> EFResult:
        """Solve ``exists param_box . forall state_box . phi``.

        ``phi``'s free variables must be covered by the two boxes, which
        must be disjoint in names.  A named shard backend starts once
        for the whole loop (:meth:`DeltaSolver.pooled`), so every
        propose/verify solve reuses one worker pool.
        """
        overlap = set(param_box.names) & set(state_box.names)
        if overlap:
            raise ValueError(f"parameter/state boxes share names: {sorted(overlap)}")
        missing = phi.variables() - set(param_box.names) - set(state_box.names)
        if missing:
            raise ValueError(f"unbounded variables: {sorted(missing)}")

        rng = random.Random(self.seed)
        counterexamples: list[dict[str, float]] = [
            state_box.sample_random(rng) for _ in range(self.n_seed_samples)
        ]
        not_phi = phi.negate()
        with self.solver.pooled() as pooled:
            return self._cegis(
                phi, not_phi, param_box, state_box, counterexamples,
                replace(pooled, max_boxes=self.propose_budget),
                replace(pooled, max_boxes=self.verify_budget),
            )

    def _cegis(
        self,
        phi: Formula,
        not_phi: Formula,
        param_box: Box,
        state_box: Box,
        counterexamples: list[dict[str, float]],
        proposer: DeltaSolver,
        verifier: DeltaSolver,
    ) -> EFResult:
        for it in range(1, self.max_iterations + 1):
            # -- propose: parameters satisfying phi at every counterexample
            constraint = And(*[phi.subs(ce) for ce in counterexamples])
            proposal: Result = proposer._solve_impl(constraint, param_box)
            if proposal.status is Status.UNSAT:
                return EFResult(Status.UNSAT, None, counterexamples, it)
            if proposal.status is Status.UNKNOWN:
                return EFResult(Status.UNKNOWN, None, counterexamples, it)
            candidate = {k: proposal.witness[k] for k in param_box.names}

            # -- verify: search for a state falsifying phi at the candidate
            refutation: Result = verifier._solve_impl(not_phi.subs(candidate), state_box)
            if refutation.status is Status.UNSAT:
                return EFResult(Status.DELTA_SAT, candidate, counterexamples, it)
            if refutation.status is Status.UNKNOWN:
                # cannot refute but cannot verify either: treat the
                # unresolved box's midpoint as a soft counterexample
                ce = {k: refutation.witness_box.midpoint()[k] for k in state_box.names}
            else:
                ce = {k: refutation.witness[k] for k in state_box.names}
            counterexamples.append(ce)

        return EFResult(Status.UNKNOWN, None, counterexamples, self.max_iterations)
