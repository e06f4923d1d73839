"""E9: characteristics of the delta-decision procedure (paper Sec. III).

Regenerates the solver-behavior series: solve time and work vs the
precision delta, vs problem dimension, and the delta-sat/unsat verdict
boundary.  (The DAC paper describes the procedure; these curves are the
standard way its implementations [52] are characterized.)
"""

import pytest

from repro.expr import exp, sin, variables
from repro.intervals import Box
from repro.logic import And, equals_within, in_range
from repro.solver import DeltaSolver, Status

x, y, z = variables("x y z")


def _transcendental_problem():
    """exp(x) * sin(y) = 0.3 with x + y = 1.5 -- a nonlinear system."""
    return And(
        equals_within(exp(x) * sin(y), 0.3, 1e-4),
        equals_within(x + y, 1.5, 1e-4),
    ), Box.from_bounds({"x": (-2.0, 2.0), "y": (-2.0, 2.0)})


@pytest.mark.parametrize("delta", [1e-1, 1e-2, 1e-3, 1e-4])
def test_delta_sweep(benchmark, delta):
    """Work grows as delta shrinks; verdict stays delta-sat."""
    phi, box = _transcendental_problem()
    solver = DeltaSolver(delta=delta, max_boxes=200_000)
    result = benchmark(lambda: solver._solve_impl(phi, box))
    assert result.status is Status.DELTA_SAT
    w = result.witness
    import math

    assert abs(math.exp(w["x"]) * math.sin(w["y"]) - 0.3) < 0.05


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_dimension_sweep(benchmark, dim):
    """Sphere-shell membership in increasing dimension."""
    names = [f"v{i}" for i in range(dim)]
    from repro.expr import var

    sq = None
    for n in names:
        term = var(n) * var(n)
        sq = term if sq is None else sq + term
    phi = in_range(sq, 0.9, 1.0)
    box = Box.from_bounds({n: (-1.2, 1.2) for n in names})
    solver = DeltaSolver(delta=1e-3)
    result = benchmark(lambda: solver._solve_impl(phi, box))
    assert result.status is Status.DELTA_SAT


def test_unsat_certificate(benchmark):
    """UNSAT requires exhausting the box: the expensive direction."""
    phi = And(
        equals_within(x * x + y * y, 1.0, 1e-3),
        equals_within(x + y, 2.5, 1e-3),  # line misses the circle
    )
    box = Box.from_bounds({"x": (-2, 2), "y": (-2, 2)})
    solver = DeltaSolver(delta=1e-3)
    result = benchmark(lambda: solver._solve_impl(phi, box))
    assert result.status is Status.UNSAT


def test_paving_disc(benchmark):
    """Sat/unsat paving of the unit disc (BioPSy-style partitioning)."""
    solver = DeltaSolver(delta=1e-2)
    phi = 1 - x * x - y * y >= 0
    box = Box.from_bounds({"x": (-1, 1), "y": (-1, 1)})

    def pave():
        return solver.pave(phi, box, min_width=0.05)

    sat, unsat, und = benchmark(pave)
    area = sum(b.volume() for b in sat)
    assert 2.6 < area <= 3.3  # pi ~ 3.14 approximated from inside
