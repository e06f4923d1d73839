"""Tests for the delta-decision procedure: delta-sat/unsat verdicts,
one-sided soundness, witnesses, paving, and exists-forall CEGIS."""

import math

import pytest

from repro.expr import exp, sin, variables
from repro.intervals import Box, BoxArray
from repro.logic import And, Exists, Forall, Or, equals_within, in_range
from repro.solver import (
    Certainty,
    DeltaSolver,
    ExistsForallSolver,
    Status,
    compile_formula,
)
from repro.solver.eval3 import _eval_formula_impl

x, y, p = variables("x y p")


def box(**bounds) -> Box:
    return Box.from_bounds({k: tuple(v) for k, v in bounds.items()})


def tape_judge(phi, b: Box, delta: float = 0.0) -> Certainty:
    """The one-box tape judgment of ``phi^delta`` over ``b``."""
    return Certainty(int(compile_formula(phi).judge(BoxArray.from_box(b), delta)[0]))


class TestEval3:
    """Hand-made three-valued judgments on the tape kernel."""

    @pytest.fixture
    def judge(self):
        return tape_judge

    def test_certainly_true(self, judge):
        assert judge(x >= 0, box(x=(1, 2))) is Certainty.CERTAIN_TRUE

    def test_certainly_false(self, judge):
        assert judge(x > 0, box(x=(-2, -1))) is Certainty.CERTAIN_FALSE

    def test_unknown(self, judge):
        assert judge(x > 0, box(x=(-1, 1))) is Certainty.UNKNOWN

    def test_boundary_strict_vs_weak(self, judge):
        assert judge(x >= 0, box(x=(0, 1))) is Certainty.CERTAIN_TRUE
        assert judge(x > 0, box(x=(0, 1))) is Certainty.UNKNOWN

    def test_delta_relaxation(self, judge):
        # x >= 0 over [-0.05, -0.01] is false, but 0.1-weakened is true
        b = box(x=(-0.05, -0.01))
        assert judge(x >= 0, b) is Certainty.CERTAIN_FALSE
        assert judge(x >= 0, b, delta=0.1) is Certainty.CERTAIN_TRUE

    def test_and_or(self, judge):
        b = box(x=(1, 2), y=(-3, -2))
        assert judge(And(x > 0, y < 0), b) is Certainty.CERTAIN_TRUE
        assert judge(Or(x < 0, y > 0), b) is Certainty.CERTAIN_FALSE

    def test_forall_judgment(self, judge):
        phi = Forall("x", 0, 1, x * (1 - x) + 0.1 >= 0)
        assert judge(phi, Box({})) is Certainty.CERTAIN_TRUE

    def test_forall_false(self, judge):
        phi = Forall("x", 2, 3, 1 - x > 0)
        assert judge(phi, Box({})) is Certainty.CERTAIN_FALSE


class TestEval3Scalar(TestEval3):
    """The same judgments on the scalar AST walk (the reference the tape
    judgment is tested against)."""

    @pytest.fixture
    def judge(self):
        return _eval_formula_impl


class TestDeltaSat:
    def test_simple_sat(self):
        r = DeltaSolver()._solve_impl(x >= 1, box(x=(0, 2)))
        assert r.status is Status.DELTA_SAT
        assert r.witness["x"] >= 1.0 - r.delta

    def test_simple_unsat(self):
        r = DeltaSolver()._solve_impl(x - 10 >= 0, box(x=(0, 2)))
        assert r.status is Status.UNSAT

    def test_delta_solver_rejects_bad_knobs(self):
        with pytest.raises(ValueError, match="frontier_size must be >= 1, got 0"):
            DeltaSolver(frontier_size=0)
        with pytest.raises(ValueError, match="shards must be >= 1, got 0"):
            DeltaSolver(shards=0)
        with pytest.raises(ValueError, match="max_boxes must be >= 1, got -5"):
            DeltaSolver(max_boxes=-5)
        # such a delta used to spend the whole budget, then answer UNKNOWN
        for delta in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="delta must be finite and >= 0"):
                DeltaSolver(delta=delta)

    def test_circle_intersection_sat(self):
        phi = And(
            equals_within(x ** 2 + y ** 2, 1.0, 1e-3),
            equals_within(x - y, 0.0, 1e-3),
        )
        r = DeltaSolver(delta=1e-3)._solve_impl(phi, box(x=(-2, 2), y=(-2, 2)))
        assert r.status is Status.DELTA_SAT
        w = r.witness
        s = 1.0 / math.sqrt(2.0)
        assert abs(abs(w["x"]) - s) < 0.05 and abs(w["x"] - w["y"]) < 0.05

    def test_circle_line_unsat(self):
        # unit circle does not meet x + y = 10
        phi = And(
            equals_within(x ** 2 + y ** 2, 1.0, 1e-4),
            equals_within(x + y, 10.0, 1e-4),
        )
        r = DeltaSolver(delta=1e-4)._solve_impl(phi, box(x=(-3, 3), y=(-3, 3)))
        assert r.status is Status.UNSAT

    def test_transcendental_root(self):
        # exp(x) = 2  ->  x = ln 2
        phi = equals_within(exp(x), 2.0, 1e-4)
        r = DeltaSolver(delta=1e-4)._solve_impl(phi, box(x=(0, 2)))
        assert r.status is Status.DELTA_SAT
        assert r.witness["x"] == pytest.approx(math.log(2), abs=1e-2)

    def test_sin_root(self):
        phi = And(equals_within(sin(x), 0.0, 1e-4), x >= 1)
        r = DeltaSolver(delta=1e-4)._solve_impl(phi, box(x=(1, 4)))
        assert r.status is Status.DELTA_SAT
        assert r.witness["x"] == pytest.approx(math.pi, abs=0.05)

    def test_disjunction(self):
        phi = Or(
            And(in_range(x, 0.4, 0.6), x >= 10),  # infeasible conjunct
            in_range(x, 0.1, 0.2),
        )
        r = DeltaSolver()._solve_impl(phi, box(x=(0, 1)))
        assert r.status is Status.DELTA_SAT
        assert 0.1 - 0.01 <= r.witness["x"] <= 0.2 + 0.01

    def test_witness_box_entirely_delta_sat(self):
        phi = in_range(x * x, 0.25, 0.5)
        r = DeltaSolver(delta=1e-3)._solve_impl(phi, box(x=(0, 2)))
        assert r.status is Status.DELTA_SAT
        # every corner of the witness box satisfies the weakened formula
        for pt in r.witness_box.corners():
            assert phi.delta_weaken(r.delta).eval(pt)

    def test_unbounded_variable_raises(self):
        with pytest.raises(ValueError, match="free variables"):
            DeltaSolver()._solve_impl(x + y >= 0, box(x=(0, 1)))

    def test_budget_exhaustion_unknown(self):
        # a hard equality with tiny delta and tiny budget
        phi = equals_within(sin(x) * exp(x) + x ** 3, 0.3333, 1e-9)
        r = DeltaSolver(delta=1e-9, max_boxes=5)._solve_impl(phi, box(x=(-2, 2)))
        assert r.status is Status.UNKNOWN
        assert r.witness_box is not None


class TestOneSidedGuarantees:
    """Randomized checks of Theorem 1's one-sided error contract."""

    def test_unsat_implies_truly_empty(self):
        import random

        rng = random.Random(7)
        # polynomial with no roots in the box
        phi = equals_within(x ** 2 + 1, 0.0, 1e-3)
        r = DeltaSolver(delta=1e-3)._solve_impl(phi, box(x=(-3, 3)))
        assert r.status is Status.UNSAT
        for _ in range(200):
            v = rng.uniform(-3, 3)
            assert not phi.eval({"x": v})

    def test_delta_sat_witness_satisfies_weakening(self):
        phi = And(
            in_range(x ** 3 - y, -0.001, 0.001),
            in_range(x + y, 0.9, 1.1),
        )
        r = DeltaSolver(delta=0.01)._solve_impl(phi, box(x=(-2, 2), y=(-2, 2)))
        assert r.status is Status.DELTA_SAT
        assert phi.delta_weaken(0.011).eval(r.witness)


class TestExistentialHoisting:
    def test_exists_hoisted(self):
        phi = Exists("y", 0, 1, And(equals_within(x - y, 0.0, 1e-3), x >= 0.5))
        r = DeltaSolver()._solve_impl(phi, box(x=(0, 1)))
        assert r.status is Status.DELTA_SAT
        assert r.witness["x"] >= 0.45

    def test_exists_name_clash_freshened(self):
        phi = Exists("x", 0.8, 1.0, x >= 0.9)  # inner x shadows outer
        r = DeltaSolver()._solve_impl(And(in_range(x, 0.0, 0.1), phi), box(x=(0, 1)))
        # outer x in [0, 0.1] and inner (renamed) x in [0.9, 1.0]
        assert r.status is Status.DELTA_SAT
        assert r.witness["x"] <= 0.11


class TestPaving:
    def test_pave_partitions_interval(self):
        solver = DeltaSolver(delta=1e-3)
        sat, unsat, undecided = solver.pave(
            in_range(x, 0.25, 0.75), box(x=(0, 1)), min_width=1e-3
        )
        assert sat, "expected green boxes"
        # all sat boxes inside [0.25 - delta, 0.75 + delta]
        for b in sat:
            assert b["x"].lo >= 0.25 - 0.01 and b["x"].hi <= 0.75 + 0.01
        # sat volume close to 0.5
        vol = sum(b["x"].width() for b in sat)
        assert vol == pytest.approx(0.5, abs=0.05)

    def test_pave_unsat_only(self):
        solver = DeltaSolver(delta=1e-3)
        sat, unsat, und = solver.pave(x - 5 >= 0, box(x=(0, 1)), min_width=1e-2)
        assert not sat
        assert unsat

    def test_pave_2d_disc(self):
        solver = DeltaSolver(delta=1e-2)
        phi = 1 - x ** 2 - y ** 2 >= 0
        sat, unsat, und = solver.pave(phi, box(x=(-1, 1), y=(-1, 1)), min_width=0.1)
        area = sum(b.volume() for b in sat)
        # disc area pi ~ 3.14 inside square of area 4
        assert 2.2 < area <= 3.5


class TestExistsForall:
    def test_linear_bound_synthesis(self):
        # exists p in [0,4]: forall x in [0,1]: p - x^2 >= 0   (any p >= 1)
        phi = p - x ** 2 >= 0
        ef = ExistsForallSolver(max_iterations=20, solver=DeltaSolver(delta=1e-3))
        res = ef.solve(phi, box(p=(0, 4)), box(x=(0, 1)))
        assert res.status is Status.DELTA_SAT
        assert res.candidate["p"] >= 1.0 - 0.05

    def test_unsat_when_impossible(self):
        # exists p in [0, 0.5]: forall x in [0,1]: p - x >= 0  (needs p >= 1)
        phi = p - x >= 0
        ef = ExistsForallSolver(max_iterations=20, solver=DeltaSolver(delta=1e-3))
        res = ef.solve(phi, box(p=(0, 0.5)), box(x=(0, 1)))
        assert res.status in (Status.UNSAT, Status.UNKNOWN)
        assert res.status is Status.UNSAT

    def test_quadratic_lyapunov_style(self):
        # exists c in [0.1, 10]: forall x in [-1,1]: c*x^2 - x^4 + 0.01 >= 0
        c = variables("c")[0]
        phi = c * x ** 2 - x ** 4 + 0.01 >= 0
        ef = ExistsForallSolver(max_iterations=25, solver=DeltaSolver(delta=1e-3))
        res = ef.solve(phi, box(c=(0.1, 10)), box(x=(-1, 1)))
        assert res.status is Status.DELTA_SAT
        # any c >= 1 works; candidate must be >= ~0.9
        assert res.candidate["c"] >= 0.8

    def test_shared_names_rejected(self):
        with pytest.raises(ValueError):
            ExistsForallSolver().solve(x >= 0, box(x=(0, 1)), box(x=(0, 1)))
