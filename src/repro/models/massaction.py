"""Mass-action signaling models for Lyapunov analysis.

Paper Section IV-C cites [60]: Lyapunov-enabled analysis of mass-action
kinetic models, with T-cell kinetic proofreading and ERK signaling as
the canonical examples.  We implement both as symbolic ODE systems and
compute their (unique, positive) equilibria numerically so the
Lyapunov analyzer can be pointed at them directly.
"""

from __future__ import annotations

import numpy as np

from repro.expr import var
from repro.odes import ODESystem

__all__ = [
    "kinetic_proofreading",
    "kinetic_proofreading_ode",
    "erk_cascade",
    "erk_cascade_ode",
    "receptor_ligand",
    "find_equilibrium",
]


def find_equilibrium(
    system: ODESystem,
    guess: dict[str, float],
    tol: float = 1e-12,
) -> dict[str, float]:
    """Solve ``f(x) = 0`` numerically from ``guess`` (scipy fsolve),
    refined so it passes the analyzer's equilibrium check.

    scipy is imported here, on the first call, not with the module:
    only the mass-action models need it, and numpy is the package's
    one declared runtime dependency.
    """
    from scipy.optimize import fsolve

    names = system.state_names
    f = system.rhs()
    p = dict(system.params)

    def fun(vals: np.ndarray) -> np.ndarray:
        return f(0.0, vals, p)

    x0 = np.array([float(guess[n]) for n in names])
    sol, info, ier, msg = fsolve(fun, x0, full_output=True, xtol=tol)
    if ier != 1:
        raise RuntimeError(f"equilibrium search failed: {msg}")
    return dict(zip(names, map(float, sol)))


def receptor_ligand(
    kon: float = 1.0, koff: float = 0.5, r_total: float = 2.0, l_total: float = 3.0
) -> tuple[ODESystem, dict[str, float]]:
    """Reversible binding ``R + L <-> C`` with conservation laws reduced
    out: one state ``c`` with ``R = RT - c``, ``L = LT - c``.

    Returns ``(system, equilibrium)``.  The equilibrium is the unique
    root of a quadratic in ``(0, min(RT, LT))`` and the system is
    globally stable toward it on that interval.
    """
    c = var("c")
    sys_ = ODESystem(
        {"c": var("kon") * (var("RT") - c) * (var("LT") - c) - var("koff") * c},
        {"kon": kon, "koff": koff, "RT": r_total, "LT": l_total},
        name="receptor_ligand",
    )
    eq = find_equilibrium(sys_, {"c": min(r_total, l_total) / 2.0})
    return sys_, eq


def kinetic_proofreading(
    n_steps: int = 3,
    kon: float = 1.0,
    koff: float = 0.3,
    kp: float = 0.5,
    r_total: float = 1.0,
    l_total: float = 2.0,
) -> tuple[ODESystem, dict[str, float]]:
    """McKeithan's T-cell kinetic proofreading chain.

    Ligand L binds receptor R to form C0, which is progressively
    modified ``C0 -> C1 -> ... -> C_{n-1}`` at rate ``kp``; every
    complex can dissociate at ``koff`` back to R + L.  Conservation of
    receptor and ligand eliminates R and L::

        R = RT - sum(Ci),   L = LT - sum(Ci)

    This is the classic example of [60]: the network is complex-balanced
    and globally asymptotically stable, so a Lyapunov certificate must
    exist; we search for a quadratic one near the equilibrium.
    """
    sys_ = kinetic_proofreading_ode(n_steps, kon, koff, kp, r_total, l_total)
    return sys_, find_equilibrium(sys_, dict.fromkeys(sys_.state_names, 0.1))


def kinetic_proofreading_ode(
    n_steps: int = 3,
    kon: float = 1.0,
    koff: float = 0.3,
    kp: float = 0.5,
    r_total: float = 1.0,
    l_total: float = 2.0,
) -> ODESystem:
    """The kinetic-proofreading system alone (no equilibrium tuple).

    A JSON-able model-zoo entry for declarative scenarios: builtin
    factories must return a bare system, and catalog entries bake the
    equilibrium into the query, so this builds the system of
    :func:`kinetic_proofreading` without solving for its equilibrium.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    names = [f"c{i}" for i in range(n_steps)]
    total = None
    for n in names:
        total = var(n) if total is None else total + var(n)
    free_r = var("RT") - total
    free_l = var("LT") - total
    derivs = {}
    for i, n in enumerate(names):
        expr = -var("koff") * var(n)
        if i == 0:
            expr = expr + var("kon") * free_r * free_l
        else:
            expr = expr + var("kp") * var(names[i - 1])
        if i < n_steps - 1:
            expr = expr - var("kp") * var(n)
        derivs[n] = expr
    return ODESystem(
        derivs,
        {"kon": kon, "koff": koff, "kp": kp, "RT": r_total, "LT": l_total},
        name=f"kinetic_proofreading_{n_steps}",
    )


def erk_cascade(
    k1: float = 0.8,
    k2: float = 0.6,
    d1: float = 0.4,
    d2: float = 0.5,
    s: float = 0.5,
    km: float = 1.0,
) -> tuple[ODESystem, dict[str, float]]:
    """A two-tier ERK activation cascade with Michaelis-Menten
    (de)activation.

    ``m`` (active MEK) is produced from the stimulus ``s`` and decays;
    ``e`` (active ERK) is activated by ``m`` with saturating kinetics
    and deactivated linearly::

        dm/dt = k1 * s - d1 * m
        de/dt = k2 * m * (1 - e)/(km + (1 - e))^0 ... simplified:
        de/dt = k2 * m * (1 - e) - d2 * e

    (activation proportional to inactive fraction ``1 - e``).  The
    system has a unique stable equilibrium in the unit box.
    """
    sys_ = erk_cascade_ode(k1, k2, d1, d2, s, km)
    return sys_, find_equilibrium(sys_, {"m": 0.5, "e": 0.5})


def erk_cascade_ode(
    k1: float = 0.8,
    k2: float = 0.6,
    d1: float = 0.4,
    d2: float = 0.5,
    s: float = 0.5,
    km: float = 1.0,
) -> ODESystem:
    """The ERK-cascade system alone (no equilibrium tuple).

    The JSON-able counterpart of :func:`erk_cascade` for declarative
    scenarios, mirroring :func:`kinetic_proofreading_ode`: it builds the
    system without solving for its equilibrium.
    """
    m, e = var("m"), var("e")
    return ODESystem(
        {
            "m": var("k1") * var("s") - var("d1") * m,
            "e": var("k2") * m * (1.0 - e) - var("d2") * e,
        },
        {"k1": k1, "k2": k2, "d1": d1, "d2": d2, "s": s, "km": km},
        name="erk_cascade",
    )
