"""Hypothesis property tests for the delta-decision stack.

These check the one-sided soundness contract (Theorem 1) on randomly
generated polynomial problems: UNSAT answers must never contradict a
directly evaluated satisfying point, and delta-sat witnesses must
satisfy the delta-weakened formula.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.expr import Const, var
from repro.intervals import Box, BoxArray
from repro.logic import And, Atom, in_range
from repro.solver import DeltaSolver, Status, compile_formula

x, y = var("x"), var("y")

COEF = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


@st.composite
def quadratic_atom(draw):
    """Random atom a*x^2 + b*x*y + c*y^2 + d*x + e*y + f >= 0."""
    a, b, c, d, e, f = (draw(COEF) for _ in range(6))
    term = (
        Const(a) * x * x + Const(b) * x * y + Const(c) * y * y
        + Const(d) * x + Const(e) * y + Const(f)
    )
    return Atom(term, strict=False)


BOX = Box.from_bounds({"x": (-2.0, 2.0), "y": (-2.0, 2.0)})


@given(quadratic_atom())
@settings(max_examples=60, deadline=None)
def test_hc4_preserves_all_sampled_solutions(atom):
    contracted = compile_formula(atom).contract(BoxArray.from_box(BOX)).row(0)
    # every grid point satisfying the atom must survive contraction
    for pt in BOX.sample_grid(7):
        if atom.eval(pt):
            assert contracted.contains_point(pt), (atom, pt)


@given(quadratic_atom(), quadratic_atom())
@settings(max_examples=40, deadline=None)
def test_unsat_never_contradicts_sampling(a1, a2):
    phi = And(a1, a2)
    solver = DeltaSolver(delta=0.05, max_boxes=4000)
    result = solver._solve_impl(phi, BOX)
    if result.status is Status.UNSAT:
        for pt in BOX.sample_grid(9):
            assert not phi.eval(pt), (phi, pt)


@given(quadratic_atom(), quadratic_atom())
@settings(max_examples=40, deadline=None)
def test_delta_sat_witness_satisfies_weakening(a1, a2):
    phi = And(a1, a2)
    solver = DeltaSolver(delta=0.05, max_boxes=4000)
    result = solver._solve_impl(phi, BOX)
    if result.status is Status.DELTA_SAT:
        # every corner of the witness box delta-satisfies
        weak = phi.delta_weaken(0.05 + 1e-9)
        for pt in result.witness_box.corners():
            assert weak.eval(pt)


@given(
    st.floats(min_value=-1.5, max_value=1.5, allow_nan=False),
    st.floats(min_value=0.05, max_value=0.5, allow_nan=False),
)
@settings(max_examples=40, deadline=None)
def test_feasible_band_always_found(center, half):
    """A nonempty band inside the box must be delta-sat (completeness
    on easy instances)."""
    lo, hi = center - half, center + half
    phi = in_range(x, max(lo, -2.0), min(hi, 2.0))
    result = DeltaSolver(delta=1e-3, max_boxes=20_000)._solve_impl(
        phi, Box.from_bounds({"x": (-2.0, 2.0)})
    )
    assert result.status is Status.DELTA_SAT
    w = result.witness["x"]
    assert max(lo, -2.0) - 0.01 <= w <= min(hi, 2.0) + 0.01


@given(st.floats(min_value=0.1, max_value=2.5, allow_nan=False))
@settings(max_examples=30, deadline=None)
def test_sqrt_root_localization(target):
    """solve(x^2 = t) localizes sqrt(t) within delta tolerance."""
    phi = in_range(x * x, target - 1e-3, target + 1e-3)
    result = DeltaSolver(delta=1e-3, max_boxes=50_000)._solve_impl(
        phi, Box.from_bounds({"x": (0.0, 2.0)})
    )
    if target <= 4.0:
        assert result.status is Status.DELTA_SAT
        assert abs(result.witness["x"] - math.sqrt(target)) < 0.05
