"""SMC-based parameter estimation (paper Fig. 2 left loop, [11]-[13]).

When delta-decision calibration rejects a model (or is too expensive),
the paper's framework falls back to statistical search: equip a global
parameter-search algorithm with an SMC/robustness-based fitness.  We
implement two engines used in the cited work:

* **Cross-entropy method**: iteratively refit a Gaussian proposal to the
  elite fraction of sampled parameter vectors.
* **Genetic algorithm**: tournament selection, blend crossover, Gaussian
  mutation.

Fitness is the mean BLTL robustness (or a user objective) over sampled
trajectories, so probabilistic initial states are supported for free.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.intervals import Box
from repro.odes import ODESystem, rk4_batch, rk45
from repro.hybrid import HybridAutomaton, simulate_hybrid
from repro.progress import emit as _progress

from .bltl import BLTL, robustness
from .engine import InitialDistribution

__all__ = ["SearchResult", "smc_objective", "cross_entropy_search", "genetic_search"]


@dataclass
class SearchResult:
    """Outcome of a stochastic parameter search."""

    best_params: dict[str, float]
    best_fitness: float
    history: list[float] = field(default_factory=list)
    evaluations: int = 0

    @property
    def satisfied(self) -> bool:
        """Positive robustness = the property holds for the best params."""
        return self.best_fitness > 0.0


def smc_objective(
    model: ODESystem | HybridAutomaton,
    phi: BLTL,
    init: InitialDistribution | Mapping,
    horizon: float,
    n_samples: int = 4,
    seed: int = 0,
    rtol: float = 1e-6,
) -> Callable[[Mapping[str, float]], float]:
    """Fitness: mean BLTL robustness over sampled initial conditions.

    Returns a function ``params -> fitness`` suitable for the search
    engines below.  Simulation failures score ``-inf``.

    ODE models propagate all ``n_samples`` draws in one batched
    fixed-step RK4 pass (``dt = horizon/400``); ``rtol`` governs the
    per-sample adaptive retry of blown-up particles and hybrid-model
    simulation.
    """
    init = init if isinstance(init, InitialDistribution) else InitialDistribution(dict(init))
    if isinstance(model, HybridAutomaton):
        states = list(model.variables)
    else:
        states = list(model.state_names)

    def fitness(params: Mapping[str, float]) -> float:
        rng = random.Random(seed)  # common random numbers across candidates
        total = 0.0
        if isinstance(model, HybridAutomaton):
            for _ in range(n_samples):
                draw = init.sample(rng)
                x0 = {k: draw[k] for k in states}
                try:
                    traj = simulate_hybrid(
                        model, x0, t_final=horizon, params=dict(params), rtol=rtol
                    ).flatten()
                    total += robustness(phi, traj)
                except Exception:
                    return -math.inf
            return total / n_samples
        # ODE models: draw the whole sample population and propagate it
        # in one batched RK4 pass (per-particle rk45 retry on blow-up).
        draws = [init.sample(rng) for _ in range(n_samples)]
        x0s = [{k: d[k] for k in states} for d in draws]
        try:
            trajs = rk4_batch(
                model, x0s, (0.0, horizon), dt=horizon / 400.0, params=dict(params)
            )
            for x0, traj in zip(x0s, trajs):
                if traj is None:
                    traj = rk45(model, x0, (0.0, horizon), params=dict(params), rtol=rtol)
                total += robustness(phi, traj)
        except Exception:
            return -math.inf
        return total / n_samples

    return fitness


def cross_entropy_search(
    objective: Callable[[Mapping[str, float]], float],
    param_box: Box | Mapping[str, tuple[float, float]],
    population: int = 40,
    elite_frac: float = 0.25,
    iterations: int = 20,
    seed: int = 0,
    smoothing: float = 0.7,
    target: float | None = None,
) -> SearchResult:
    """Cross-entropy method over a bounded parameter box.

    Proposal: independent Gaussians per dimension, clipped to the box;
    refit to the elite samples each iteration with smoothing.  Stops
    early when ``target`` fitness is reached.
    """
    box = param_box if isinstance(param_box, Box) else Box.from_bounds(dict(param_box))
    rng = random.Random(seed)
    names = box.names
    mu = {k: box[k].midpoint() for k in names}
    sigma = {k: max(box[k].width() / 4.0, 1e-12) for k in names}
    n_elite = max(2, int(population * elite_frac))

    best: dict[str, float] | None = None
    best_fit = -math.inf
    history: list[float] = []
    evals = 0

    for it in range(iterations):
        samples: list[tuple[float, dict[str, float]]] = []
        for _ in range(population):
            _progress(
                "search", "cross-entropy",
                iteration=it + 1, evaluations=evals, best=best_fit,
            )
            cand = {
                k: min(max(rng.gauss(mu[k], sigma[k]), box[k].lo), box[k].hi)
                for k in names
            }
            fit = objective(cand)
            evals += 1
            samples.append((fit, cand))
        samples.sort(key=lambda s: s[0], reverse=True)
        if samples[0][0] > best_fit:
            best_fit, best = samples[0]
        history.append(best_fit)
        if target is not None and best_fit >= target:
            break
        elite = [c for _, c in samples[:n_elite]]
        for k in names:
            vals = [e[k] for e in elite]
            m = sum(vals) / len(vals)
            s = math.sqrt(sum((v - m) ** 2 for v in vals) / len(vals)) + 1e-12
            mu[k] = smoothing * m + (1 - smoothing) * mu[k]
            sigma[k] = smoothing * s + (1 - smoothing) * sigma[k]

    assert best is not None
    return SearchResult(best, best_fit, history, evals)


def genetic_search(
    objective: Callable[[Mapping[str, float]], float],
    param_box: Box | Mapping[str, tuple[float, float]],
    population: int = 40,
    generations: int = 20,
    seed: int = 0,
    mutation_rate: float = 0.2,
    tournament: int = 3,
    target: float | None = None,
) -> SearchResult:
    """Simple real-coded genetic algorithm over a bounded parameter box."""
    box = param_box if isinstance(param_box, Box) else Box.from_bounds(dict(param_box))
    rng = random.Random(seed)
    names = box.names

    def clip(k: str, v: float) -> float:
        return min(max(v, box[k].lo), box[k].hi)

    pop = [box.sample_random(rng) for _ in range(population)]
    fits = [objective(ind) for ind in pop]
    evals = population
    history: list[float] = []
    best_idx = max(range(population), key=lambda i: fits[i])
    best, best_fit = dict(pop[best_idx]), fits[best_idx]

    for gen in range(generations):
        _progress(
            "search", "genetic",
            generation=gen + 1, evaluations=evals, best=best_fit,
        )
        new_pop: list[dict[str, float]] = [dict(best)]  # elitism
        while len(new_pop) < population:
            # tournament selection of two parents
            def select() -> dict[str, float]:
                idxs = [rng.randrange(population) for _ in range(tournament)]
                return pop[max(idxs, key=lambda i: fits[i])]

            pa, pb = select(), select()
            alpha = rng.random()
            child = {k: clip(k, alpha * pa[k] + (1 - alpha) * pb[k]) for k in names}
            for k in names:
                if rng.random() < mutation_rate:
                    child[k] = clip(k, child[k] + rng.gauss(0.0, box[k].width() / 10.0))
            new_pop.append(child)
        pop = new_pop
        fits = [objective(ind) for ind in pop]
        evals += population
        gen_best = max(range(population), key=lambda i: fits[i])
        if fits[gen_best] > best_fit:
            best, best_fit = dict(pop[gen_best]), fits[gen_best]
        history.append(best_fit)
        if target is not None and best_fit >= target:
            break

    return SearchResult(best, best_fit, history, evals)
