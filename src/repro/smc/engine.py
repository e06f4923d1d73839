"""Statistical model checking engine for ODE and hybrid models.

Paper Fig. 2 (left loop) and [11]-[13]: ODE systems with *probabilistic
initial states* (and/or probabilistic parameters) are analyzed by
sampling trajectories and monitoring a BLTL property; satisfaction
probabilities are tested (SPRT) or estimated (Chernoff / Bayesian).
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.hybrid import HybridAutomaton, simulate_hybrid
from repro.odes import ODESystem, rk4_batch, rk45
from repro.progress import emit as _progress

from .bltl import BLTL, monitor
from .stats import (
    BayesianEstimate,
    SPRTResult,
    bayesian_estimate,
    estimate_probability,
    sprt,
)

__all__ = ["InitialDistribution", "StatisticalModelChecker"]


Sampler = Callable[[random.Random], float]


@dataclass
class InitialDistribution:
    """Probabilistic initial states (and optionally parameters).

    Each entry maps a variable/parameter name to either

    * a constant float,
    * a ``(lo, hi)`` tuple -- uniform on the interval, or
    * a callable ``rng -> float`` for arbitrary distributions.
    """

    entries: Mapping[str, float | tuple[float, float] | Sampler] = field(
        default_factory=dict
    )

    def sample(self, rng: random.Random) -> dict[str, float]:
        """One draw of every entry, in entry order, from ``rng``."""
        out: dict[str, float] = {}
        for name, spec in self.entries.items():
            if callable(spec):
                out[name] = float(spec(rng))
            elif isinstance(spec, tuple):
                lo, hi = spec
                out[name] = rng.uniform(float(lo), float(hi))
            else:
                out[name] = float(spec)
        return out


class StatisticalModelChecker:
    """Sampling-based verifier for BLTL properties.

    Parameters
    ----------
    model:
        An :class:`ODESystem` or :class:`HybridAutomaton`.
    init:
        Distribution over initial states (names must cover the model's
        state variables) and, optionally, over parameters.
    horizon:
        Simulation time per sample; must cover the property's horizon.
    seed:
        RNG seed for reproducibility.
    batch_size:
        How many particles are drawn and propagated per vectorized
        integration pass (plain ODE models only; hybrid models simulate
        per sample because mode switching desynchronizes the batch).

    Notes
    -----
    The batched ODE path integrates with *fixed-step* RK4 at
    ``dt = max_step`` (default ``horizon/200``) -- the same step the
    adaptive integrator was previously capped at; ``rtol`` governs the
    adaptive rk45 retry of blown-up particles, hybrid-model sampling,
    and :meth:`sample_trajectory`.  Set ``max_step`` smaller (or
    ``batch_size=1``-equivalent accuracy via a tiny ``max_step``) for
    stiff models where step-size control matters.

    A population's trajectories are buffered and each is monitored only
    when the test draws it, so a sequential test (SPRT) that stops
    after a dozen draws checks a dozen trajectories, not the whole
    population.  The RNG order and the trajectories are those of
    monitoring every particle up front, so results are unchanged; only
    an evaluation error in a draw the test never consumes no longer
    fails the query.  Each check is :func:`repro.smc.bltl.monitor`, one
    bottom-up array pass over the trajectory that gives the verdict of
    the per-instant BLTL semantics bit for bit.
    """

    def __init__(
        self,
        model: ODESystem | HybridAutomaton,
        init: InitialDistribution | Mapping,
        horizon: float,
        seed: int = 0,
        rtol: float = 1e-6,
        max_step: float | None = None,
        batch_size: int = 64,
    ):
        self.model = model
        self.init = (
            init if isinstance(init, InitialDistribution) else InitialDistribution(dict(init))
        )
        self.horizon = float(horizon)
        self.rng = random.Random(seed)
        self.rtol = rtol
        self.max_step = max_step
        self.batch_size = max(1, int(batch_size))
        if isinstance(model, HybridAutomaton):
            self._states = list(model.variables)
            self._params = set(model.params)
        else:
            self._states = list(model.state_names)
            self._params = set(model.params)

    # ------------------------------------------------------------------
    def sample_trajectory(self):
        """One random trajectory (flattened for hybrid models)."""
        draw = self.init.sample(self.rng)
        x0, p = self._split_draw(draw)
        if isinstance(self.model, HybridAutomaton):
            htraj = simulate_hybrid(
                self.model, x0, t_final=self.horizon, params=p, rtol=self.rtol,
                max_step=self.max_step,
            )
            return htraj.flatten()
        return rk45(
            self.model, x0, (0.0, self.horizon), params=p, rtol=self.rtol,
            max_step=self.max_step if self.max_step else self.horizon / 200.0,
        )

    def _split_draw(self, draw: Mapping[str, float]) -> tuple[dict, dict]:
        x0 = {k: v for k, v in draw.items() if k in self._states}
        p = {k: v for k, v in draw.items() if k in self._params}
        missing = set(self._states) - set(x0)
        if missing:
            raise ValueError(f"initial distribution misses states {sorted(missing)}")
        return x0, p

    def _propagate_population(self, n: int) -> list:
        """Draw ``n`` initial conditions and integrate them in one
        batched RK4 pass (the SMC batch axis).

        Particles the fixed-step pass loses to blow-up are retried with
        the adaptive per-sample integrator; if that fails too, the
        failure propagates like a scalar simulation failure would.
        """
        draws = [self.init.sample(self.rng) for _ in range(n)]
        splits = [self._split_draw(d) for d in draws]
        dt = self.max_step if self.max_step else self.horizon / 200.0
        trajs = rk4_batch(
            self.model,
            [x0 for x0, _ in splits],
            (0.0, self.horizon),
            dt=dt,
            params=[p for _, p in splits],
        )
        for i, traj in enumerate(trajs):
            if traj is None:
                x0, p = splits[i]
                trajs[i] = rk45(
                    self.model, x0, (0.0, self.horizon), params=p, rtol=self.rtol,
                    max_step=self.max_step if self.max_step else self.horizon / 200.0,
                )
        return trajs

    def _bernoulli(self, phi: BLTL) -> Callable[[], bool]:
        counter = itertools.count(1)

        if isinstance(self.model, HybridAutomaton):
            def draw() -> bool:
                _progress("smc", "sampling", samples=next(counter))
                traj = self.sample_trajectory()
                return monitor(phi, traj)

            return draw

        buffer: deque = deque()

        def draw_batched() -> bool:
            _progress("smc", "sampling", samples=next(counter))
            if not buffer:
                buffer.extend(self._propagate_population(self.batch_size))
            return monitor(phi, buffer.popleft())

        return draw_batched

    # ------------------------------------------------------------------
    # The three SMC queries
    # ------------------------------------------------------------------
    def probability(
        self, phi: BLTL, epsilon: float = 0.05, alpha: float = 0.05
    ) -> tuple[float, int]:
        """Chernoff-guaranteed estimate of ``P(model |= phi)``."""
        return estimate_probability(self._bernoulli(phi), epsilon, alpha)

    def hypothesis_test(
        self,
        phi: BLTL,
        theta: float,
        alpha: float = 0.05,
        beta: float = 0.05,
        indifference: float = 0.05,
        max_samples: int = 100_000,
    ) -> SPRTResult:
        """SPRT for ``P(model |= phi) >= theta``."""
        return sprt(
            self._bernoulli(phi), theta, alpha, beta, indifference, max_samples
        )

    def bayesian(
        self, phi: BLTL, n: int = 200, credibility: float = 0.95
    ) -> BayesianEstimate:
        """Beta-posterior estimate of ``P(model |= phi)``."""
        return bayesian_estimate(self._bernoulli(phi), n, credibility=credibility)
