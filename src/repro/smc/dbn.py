"""Dynamic Bayesian network approximation of ODE dynamics.

The paper's future-work direction (Section V): "to cope with the model
complexity, an idea is to approximate the hybrid system as a multi-mode
network of DBNs by extending the approximation technique we have
developed for a single system of ODEs [5]."  This module implements
that single-system technique as a prototype:

1. discretize each state variable's range into intervals,
2. sample many trajectories from a distribution of initial states,
3. estimate, per variable, the conditional transition probabilities
   ``P(x_i(t+dt) in I' | parents(t) in J)`` where the parents are the
   variables appearing in ``dx_i/dt`` (the network structure is read
   off the vector field — no structure learning needed), and
4. answer probabilistic queries by factored forward filtering
   (a product-of-marginals frontier, the "factored frontier" of [7]).

The result trades exactness for orders-of-magnitude cheaper repeated
queries; probabilities are approximations (both sampling and the
factored frontier introduce error), which matches the published
technique's contract.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.odes import ODESystem, rk4

__all__ = ["Discretization", "DBNApproximation", "build_dbn"]


@dataclass(frozen=True)
class Discretization:
    """Per-variable interval partition of the state space."""

    edges: Mapping[str, tuple[float, ...]]  # sorted inner edges per variable

    def n_levels(self, name: str) -> int:
        """Number of discrete levels of variable ``name``."""
        return len(self.edges[name]) + 1

    def level(self, name: str, value: float) -> int:
        """Index of the interval containing ``value`` (clamped)."""
        return bisect.bisect_right(self.edges[name], value)

    @staticmethod
    def uniform(
        ranges: Mapping[str, tuple[float, float]], levels: int
    ) -> "Discretization":
        """``levels`` equal-width cells per variable over its range."""
        if levels < 2:
            raise ValueError("need at least 2 levels")
        edges = {}
        for name, (lo, hi) in ranges.items():
            if hi <= lo:
                raise ValueError(f"empty range for {name!r}")
            step = (hi - lo) / levels
            edges[name] = tuple(lo + step * i for i in range(1, levels))
        return Discretization(edges)


@dataclass
class DBNApproximation:
    """A learned two-slice DBN over the discretized state space."""

    system: ODESystem
    disc: Discretization
    dt: float
    parents: dict[str, list[str]]
    # cpt[var][parent-level-tuple] = probability vector over var levels
    cpt: dict[str, dict[tuple[int, ...], np.ndarray]] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def marginal_after(
        self,
        initial: Mapping[str, Sequence[float]],
        steps: int,
    ) -> dict[str, np.ndarray]:
        """Factored-frontier filtering: propagate per-variable marginals
        ``steps`` transitions forward from the initial marginals."""
        state = {k: np.asarray(v, dtype=float) for k, v in initial.items()}
        for name, vec in state.items():
            if len(vec) != self.disc.n_levels(name):
                raise ValueError(f"marginal for {name!r} has wrong length")
            total = vec.sum()
            if total <= 0:
                raise ValueError(f"marginal for {name!r} sums to zero")
            state[name] = vec / total
        for _ in range(steps):
            state = self._step(state)
        return state

    def _step(self, marginals: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for name in self.system.state_names:
            parents = self.parents[name]
            n = self.disc.n_levels(name)
            acc = np.zeros(n)
            # enumerate parent joint assignments under the product
            # (factored) approximation
            self._accumulate(name, parents, 0, (), 1.0, marginals, acc)
            total = acc.sum()
            out[name] = acc / total if total > 0 else np.full(n, 1.0 / n)
        return out

    def _accumulate(
        self,
        name: str,
        parents: list[str],
        idx: int,
        levels: tuple[int, ...],
        weight: float,
        marginals: dict[str, np.ndarray],
        acc: np.ndarray,
    ) -> None:
        if weight <= 0.0:
            return
        if idx == len(parents):
            row = self.cpt[name].get(levels)
            if row is None:
                # unseen configuration: keep the variable where it is
                # (self-parent level if available, else uniform)
                if name in parents:
                    stay = levels[parents.index(name)]
                    acc[stay] += weight
                else:
                    acc += weight / len(acc)
                return
            acc += weight * row
            return
        p = parents[idx]
        vec = marginals[p]
        for lvl, prob in enumerate(vec):
            if prob > 0.0:
                self._accumulate(
                    name, parents, idx + 1, levels + (lvl,), weight * prob,
                    marginals, acc,
                )

    # ------------------------------------------------------------------
    def probability(
        self,
        initial: Mapping[str, Sequence[float]],
        variable: str,
        level_range: tuple[int, int],
        steps: int,
    ) -> float:
        """P(variable's level in [lo, hi] after ``steps`` transitions)."""
        marginals = self.marginal_after(initial, steps)
        lo, hi = level_range
        return float(marginals[variable][lo : hi + 1].sum())


def build_dbn(
    system: ODESystem,
    ranges: Mapping[str, tuple[float, float]],
    init_sampler,
    dt: float = 0.1,
    levels: int = 8,
    n_samples: int = 2000,
    horizon_steps: int = 50,
    seed: int = 0,
    dirichlet_prior: float = 0.5,
) -> DBNApproximation:
    """Learn a DBN approximation of ``system`` from sampled trajectories.

    Parameters
    ----------
    ranges:
        State-space box to discretize (values outside are clamped).
    init_sampler:
        ``rng -> dict`` producing initial states (cell-to-cell
        variability; use e.g. ``InitialDistribution(...).sample``).
    dt:
        DBN slice duration (one transition = ``dt`` time units).
    levels:
        Discretization levels per variable.
    n_samples / horizon_steps:
        Trajectories sampled and transitions harvested per trajectory.
    dirichlet_prior:
        Additive smoothing for unseen transitions.
    """
    missing = set(system.state_names) - set(ranges)
    if missing:
        raise ValueError(f"ranges missing for {sorted(missing)}")
    disc = Discretization.uniform(
        {k: ranges[k] for k in system.state_names}, levels
    )
    # network structure from the vector field: parents of x are the
    # state variables its derivative mentions (plus x itself)
    parents: dict[str, list[str]] = {}
    for name in system.state_names:
        used = system.derivatives[name].variables() & set(system.state_names)
        ps = sorted(used | {name})
        parents[name] = ps

    rng = random.Random(seed)
    counts: dict[str, dict[tuple[int, ...], np.ndarray]] = {
        name: {} for name in system.state_names
    }
    n_lv = {name: disc.n_levels(name) for name in system.state_names}

    for _ in range(n_samples):
        x0 = init_sampler(rng)
        traj = rk4(
            system, x0, (0.0, dt * horizon_steps), dt=dt / 4.0
        )
        prev_levels = {
            name: disc.level(name, traj.value(name, 0.0))
            for name in system.state_names
        }
        for step in range(1, horizon_steps + 1):
            t = step * dt
            cur_levels = {
                name: disc.level(name, traj.value(name, t))
                for name in system.state_names
            }
            for name in system.state_names:
                key = tuple(prev_levels[p] for p in parents[name])
                table = counts[name]
                if key not in table:
                    table[key] = np.full(n_lv[name], dirichlet_prior)
                table[key][cur_levels[name]] += 1.0
            prev_levels = cur_levels

    cpt: dict[str, dict[tuple[int, ...], np.ndarray]] = {}
    for name, table in counts.items():
        cpt[name] = {k: v / v.sum() for k, v in table.items()}
    return DBNApproximation(system, disc, dt, parents, cpt)
