"""Lyapunov function synthesis and certification with delta-decisions.

Paper Section IV-C: two delta-decision routes to stability analysis.

(i)  **Synthesis** (after [57]): pick a template ``V_c(x)``, then solve

        exists c . forall x in (X minus ball(eq, r)) .
            V_c(x) >= eps_v * |x - eq|^2   and   dV_c/dt(x) <= -eps_dv * |x - eq|^2

     with the CEGIS exists-forall solver.  The epsilon margins make the
     conditions robust (delta-weakening cannot flip them), which is the
     spirit of the numerically-robust induction rules of [58].

(ii) **Certification**: given a concrete ``V``, verify the same
     conditions by delta-deciding their *negation*; UNSAT certifies the
     Lyapunov conditions exactly (one-sided guarantee of Theorem 1).

Also provided: a region-of-attraction estimate by bisection on the
sublevel value ``V <= level`` inside the verified region.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping

from repro.expr import Const, Expr
from repro.expr import var as _var
from repro.intervals import Box
from repro.logic import And, Atom, Formula, Or
from repro.odes import ODESystem
from repro.solver import DeltaSolver, ExistsForallSolver, Status

from .templates import Template, diagonal_template

__all__ = ["LyapunovResult", "LyapunovAnalyzer"]


@dataclass
class LyapunovResult:
    """Outcome of a synthesis or certification run."""

    status: Status
    V: Expr | None = None
    coefficients: dict[str, float] = field(default_factory=dict)
    iterations: int = 0
    counterexample: dict[str, float] | None = None

    def __bool__(self) -> bool:
        return self.status is Status.DELTA_SAT


def _radius_sq(names, equilibrium: Mapping[str, float]) -> Expr:
    total: Expr = Const(0.0)
    for n in names:
        d = _var(n) - Const(float(equilibrium.get(n, 0.0)))
        total = total + d * d
    return total


class LyapunovAnalyzer:
    """Stability analysis of an ODE system around an equilibrium.

    Parameters
    ----------
    system:
        The ODE system (parameters at their default values).
    region:
        Box around the equilibrium on which stability is analyzed.
    equilibrium:
        The equilibrium point (default: origin).  A sanity check
        verifies that the vector field is (nearly) zero there.
    exclusion_radius:
        Radius ``r`` of the ball around the equilibrium excluded from
        the conditions (V and dV/dt both vanish at the equilibrium, so
        strict conditions can only hold outside a neighborhood).
    eps_v, eps_dv:
        Robustness margins: require ``V >= eps_v |x-e|^2`` and
        ``dV/dt <= -eps_dv |x-e|^2`` on the annulus.
    equilibrium_tol:
        Largest ``|f|`` accepted at the equilibrium.
    solver:
        The configured delta-decision procedure behind every query
        (default: ``DeltaSolver()``, delta 1e-3).  Its knobs reach the
        CEGIS loop of :meth:`synthesize` whole; :meth:`certify` and
        :meth:`region_of_attraction` replace only its ``max_boxes``.
    """

    def __init__(
        self,
        system: ODESystem,
        region: Box | Mapping[str, tuple[float, float]],
        equilibrium: Mapping[str, float] | None = None,
        exclusion_radius: float = 0.05,
        eps_v: float = 1e-3,
        eps_dv: float = 1e-4,
        equilibrium_tol: float = 1e-6,
        solver: DeltaSolver | None = None,
    ):
        # inline default parameter values: the exists-forall conditions
        # must mention only states and template coefficients
        self.system = system.substitute_params() if system.params else system
        self.region = region if isinstance(region, Box) else Box.from_bounds(dict(region))
        self.equilibrium = dict(equilibrium or {n: 0.0 for n in system.state_names})
        self.r = float(exclusion_radius)
        self.eps_v = float(eps_v)
        self.eps_dv = float(eps_dv)
        self.solver = solver if solver is not None else DeltaSolver()

        residual = system.eval_field(self.equilibrium)
        worst = max(abs(v) for v in residual.values())
        if worst > equilibrium_tol:
            raise ValueError(
                f"point is not an equilibrium (|f| = {worst:.3g} > {equilibrium_tol})"
            )

    # ------------------------------------------------------------------
    def conditions(self, V: Expr) -> Formula:
        """The robust Lyapunov conditions on the annulus, as a formula
        over the state variables (coefficients may remain free)."""
        names = self.system.state_names
        rsq = _radius_sq(names, self.equilibrium)
        vdot = self.system.lie_derivative(V)
        inside_annulus = Atom(rsq - Const(self.r * self.r), strict=False)
        pos = Atom(V - Const(self.eps_v) * rsq, strict=False)
        dec = Atom(-vdot - Const(self.eps_dv) * rsq, strict=False)
        # (|x-e|^2 >= r^2) -> (pos /\ dec)
        return Or(inside_annulus.negate(), And(pos, dec))

    def violation(self, V: Expr) -> Formula:
        """Negation of :meth:`conditions` (the refutation query)."""
        return self.conditions(V).negate()

    # ------------------------------------------------------------------
    def synthesize(
        self,
        template: Template | None = None,
        coeff_bound: float = 10.0,
        max_iterations: int = 40,
        seed: int = 0,
    ) -> LyapunovResult:
        """CEGIS synthesis of a Lyapunov function from a template.

        Default template: diagonal quadratic with coefficients in
        ``[eps, coeff_bound]`` (positive diagonal is necessary anyway).
        """
        template = template or diagonal_template(
            self.system.state_names, self.equilibrium
        )
        phi = self.conditions(template.expr)
        lo = 1e-2
        param_box = Box.from_bounds({c: (lo, coeff_bound) for c in template.coefficients})
        ef = ExistsForallSolver(
            max_iterations=max_iterations, seed=seed, solver=self.solver
        )
        res = ef.solve(phi, param_box, self.region)
        if res.status is Status.DELTA_SAT:
            coeffs = dict(res.candidate)
            return LyapunovResult(
                Status.DELTA_SAT,
                V=template.instantiate(coeffs),
                coefficients=coeffs,
                iterations=res.iterations,
            )
        return LyapunovResult(res.status, iterations=res.iterations)

    # ------------------------------------------------------------------
    def certify(self, V: Expr, max_boxes: int = 200_000) -> LyapunovResult:
        """Certify a concrete candidate ``V`` by refutation.

        UNSAT of the violation formula proves the robust Lyapunov
        conditions hold everywhere on the annulus (exact, one-sided).
        """
        solver = replace(self.solver, max_boxes=max_boxes)
        res = solver._solve_impl(self.violation(V), self.region)
        if res.status is Status.UNSAT:
            return LyapunovResult(Status.DELTA_SAT, V=V)
        if res.status is Status.DELTA_SAT:
            return LyapunovResult(
                Status.UNSAT, V=V, counterexample=res.witness
            )
        return LyapunovResult(Status.UNKNOWN, V=V)

    # ------------------------------------------------------------------
    def region_of_attraction(
        self,
        V: Expr,
        levels: int = 20,
        max_boxes: int = 30_000,
    ) -> float:
        """Largest verified sublevel value ``c``: the set ``{V <= c}``
        (intersected with the region) is forward-invariant and attracted
        to the equilibrium.

        We bisect on ``c``, checking by refutation that no point of the
        region has ``V(x) <= c`` while violating the Lyapunov conditions
        *or* touching the region boundary (so the sublevel set is
        interior).  Returns 0.0 if nothing could be verified.
        """
        names = self.system.state_names
        # V range over region for the bisection bracket
        v_hi = V.eval_interval(dict(self.region)).hi

        def boundary_touch(c: float) -> Formula:
            # exists x: V(x) <= c and x on the region boundary
            parts = []
            for n in names:
                iv = self.region[n]
                parts.append(Atom(Const(iv.lo) - _var(n), strict=False))
                parts.append(Atom(_var(n) - Const(iv.hi), strict=False))
            return And(Atom(Const(c) - V, strict=False), Or(*parts))

        def violated(c: float) -> bool:
            inside = Atom(Const(c) - V, strict=False)
            bad = And(inside, self.violation(V))
            if solver._solve_impl(bad, self.region).status is not Status.UNSAT:
                return True
            return solver._solve_impl(boundary_touch(c), self.region).status is not Status.UNSAT

        # the bisection makes up to ~2*levels solves: one worker pool
        # serves them all
        with replace(self.solver, max_boxes=max_boxes).pooled() as solver:
            lo_ok, hi_bad = 0.0, float(v_hi)
            if violated(hi_bad):
                # bisection
                for _ in range(levels):
                    mid = 0.5 * (lo_ok + hi_bad)
                    if violated(mid):
                        hi_bad = mid
                    else:
                        lo_ok = mid
                return lo_ok
            return hi_bad
