"""Tests for HC4-revise and formula-level contraction on compiled tapes.

Each check contracts a one-row batch through
:meth:`~repro.solver.tape.CompiledFormula.contract` (one sweep; on an
atom, one HC4-revise) or :meth:`~repro.solver.tape.CompiledFormula.fixpoint_contract`.
"""

import pytest

from repro.expr import abs_, exp, log, parse_expr, sigmoid, sqrt, tanh, variables
from repro.intervals import Box, BoxArray
from repro.logic import And, Atom, Or, in_range
from repro.solver import compile_formula

x, y = variables("x y")


def box(**bounds) -> Box:
    return Box.from_bounds({k: tuple(v) for k, v in bounds.items()})


def contract(phi, b: Box) -> Box:
    """One contraction sweep of ``b`` with respect to ``phi``."""
    return compile_formula(phi).contract(BoxArray.from_box(b)).row(0)


def fixpoint(phi, b: Box, **kwargs) -> Box:
    """Contraction of ``b`` iterated to the progress threshold."""
    return compile_formula(phi).fixpoint_contract(BoxArray.from_box(b), **kwargs).row(0)


class TestHC4Atoms:
    def test_linear(self):
        # x - 3 >= 0 over x in [0, 10] -> x in [3, 10]
        b = contract(Atom(x - 3, strict=False), box(x=(0, 10)))
        assert b["x"].lo == pytest.approx(3.0, abs=1e-9)
        assert b["x"].hi == 10.0

    def test_upper_bound(self):
        # 5 - x >= 0 -> x <= 5
        b = contract(Atom(5 - x, strict=False), box(x=(0, 10)))
        assert b["x"].hi == pytest.approx(5.0, abs=1e-9)

    def test_infeasible_gives_empty(self):
        b = contract(Atom(x - 20, strict=False), box(x=(0, 10)))
        assert b.is_empty

    def test_two_variables(self):
        # x + y - 10 >= 0 with x in [0,3] -> y >= 7
        b = contract(Atom(x + y - 10, strict=False), box(x=(0, 3), y=(0, 100)))
        assert b["y"].lo == pytest.approx(7.0, abs=1e-6)

    def test_multiplication(self):
        # x * y - 10 >= 0, x in [1,2] -> y >= 5
        b = contract(Atom(x * y - 10, strict=False), box(x=(1, 2), y=(0, 100)))
        assert b["y"].lo == pytest.approx(5.0, rel=1e-6)

    def test_division(self):
        # x / y - 2 >= 0 with y in [1,2], x in [0,10] -> x >= 2
        b = contract(Atom(x / y - 2, strict=False), box(x=(0, 10), y=(1, 2)))
        assert b["x"].lo == pytest.approx(2.0, rel=1e-6)

    def test_even_power(self):
        # x^2 - 4 <= 0 -> -2 <= x <= 2 encoded as 4 - x^2 >= 0
        b = contract(Atom(4 - x ** 2, strict=False), box(x=(-10, 10)))
        assert b["x"].lo == pytest.approx(-2.0, abs=1e-6)
        assert b["x"].hi == pytest.approx(2.0, abs=1e-6)

    def test_even_power_sign_restricted(self):
        b = contract(Atom(4 - x ** 2, strict=False), box(x=(0, 10)))
        assert b["x"].hi == pytest.approx(2.0, abs=1e-6)
        assert b["x"].lo == 0.0

    def test_odd_power(self):
        # x^3 - 8 >= 0 -> x >= 2
        b = contract(Atom(x ** 3 - 8, strict=False), box(x=(-10, 10)))
        assert b["x"].lo == pytest.approx(2.0, rel=1e-6)

    def test_exp(self):
        import math

        # exp(x) - 10 >= 0 -> x >= ln 10
        b = contract(Atom(exp(x) - 10, strict=False), box(x=(-10, 10)))
        assert b["x"].lo == pytest.approx(math.log(10), rel=1e-6)

    def test_log(self):
        import math

        # 1 - log(x) >= 0 -> x <= e
        b = contract(Atom(1 - log(x), strict=False), box(x=(0.1, 100)))
        assert b["x"].hi == pytest.approx(math.e, rel=1e-6)

    def test_sqrt(self):
        # sqrt(x) - 2 >= 0 -> x >= 4
        b = contract(Atom(sqrt(x) - 2, strict=False), box(x=(0, 100)))
        assert b["x"].lo == pytest.approx(4.0, rel=1e-6)

    def test_abs(self):
        # 1 - |x| >= 0 -> x in [-1, 1]
        b = contract(Atom(1 - abs_(x), strict=False), box(x=(-10, 10)))
        assert b["x"].lo == pytest.approx(-1.0, abs=1e-6)
        assert b["x"].hi == pytest.approx(1.0, abs=1e-6)

    def test_tanh(self):
        import math

        # tanh(x) - 0.5 >= 0 -> x >= atanh(0.5)
        b = contract(Atom(tanh(x) - 0.5, strict=False), box(x=(-5, 5)))
        assert b["x"].lo == pytest.approx(math.atanh(0.5), abs=1e-6)

    def test_sigmoid(self):
        # sigmoid(x) - 0.5 >= 0 -> x >= 0
        b = contract(Atom(sigmoid(x) - 0.5, strict=False), box(x=(-5, 5)))
        assert b["x"].lo == pytest.approx(0.0, abs=1e-6)

    def test_neg(self):
        # -x >= 0 -> x <= 0
        b = contract(Atom(-x, strict=False), box(x=(-5, 5)))
        assert b["x"].hi == pytest.approx(0.0, abs=1e-12)

    def test_sin_no_contraction_but_sound(self):
        from repro.expr import sin

        b = contract(Atom(sin(x), strict=False), box(x=(-5, 5)))
        assert not b.is_empty
        assert b["x"].contains(0.5)  # a true solution survives


class TestSoundness:
    """Contraction must never remove true solutions."""

    @pytest.mark.parametrize(
        "text,sol",
        [
            ("x^2 + y^2 - 1", {"x": 1.0, "y": 1.0}),
            ("x * y - 1", {"x": 2.0, "y": 0.5}),
            ("exp(x) - y", {"x": 0.0, "y": 0.5}),
            ("y - x^3", {"x": 1.0, "y": 2.0}),
            ("x / y - 0.5", {"x": 1.0, "y": 2.0}),
        ],
    )
    def test_solution_preserved(self, text, sol):
        atom = Atom(parse_expr(text), strict=False)
        assert atom.eval(sol)  # sanity: it is a solution
        b = box(x=(-5, 5), y=(0.1, 5))
        contracted = contract(atom, b)
        assert contracted.contains_point(sol)

    def test_fixpoint_preserves_solution(self):
        phi = And(
            Atom(parse_expr("y - x^2"), strict=False),
            Atom(parse_expr("x - y + 0.25"), strict=False),
        )
        sol = {"x": 0.5, "y": 0.25 + 0.5}  # y >= x^2 and y <= x + 0.25
        # actually pick the solution y = x^2 = 0.25, x=0.5: y-x^2=0 ok, x-y+0.25=0.5 ok
        sol = {"x": 0.5, "y": 0.25}
        assert phi.eval(sol)
        contracted = fixpoint(phi, box(x=(-2, 2), y=(-2, 2)))
        assert contracted.contains_point(sol)


class TestFormulaContraction:
    def test_conjunction_narrows_both(self):
        phi = And(Atom(x - 2, strict=False), Atom(8 - x, strict=False))
        b = contract(phi, box(x=(0, 10)))
        assert b["x"].lo == pytest.approx(2.0, abs=1e-6)
        assert b["x"].hi == pytest.approx(8.0, abs=1e-6)

    def test_disjunction_hull(self):
        phi = Or(
            And(Atom(x - 1, strict=False), Atom(2 - x, strict=False)),  # [1,2]
            And(Atom(x - 7, strict=False), Atom(9 - x, strict=False)),  # [7,9]
        )
        b = contract(phi, box(x=(0, 10)))
        assert b["x"].lo == pytest.approx(1.0, abs=1e-6)
        assert b["x"].hi == pytest.approx(9.0, abs=1e-6)

    def test_disjunction_one_branch_infeasible(self):
        phi = Or(
            Atom(x - 100, strict=False),  # infeasible in box
            And(Atom(x - 1, strict=False), Atom(2 - x, strict=False)),
        )
        b = contract(phi, box(x=(0, 10)))
        assert b["x"].hi == pytest.approx(2.0, abs=1e-6)

    def test_all_branches_infeasible(self):
        phi = Or(Atom(x - 100, strict=False), Atom(-x - 100, strict=False))
        b = contract(phi, box(x=(0, 10)))
        assert b.is_empty

    def test_in_range_contraction(self):
        b = contract(in_range(x, 3.0, 4.0), box(x=(0, 10)))
        assert b["x"].lo == pytest.approx(3.0, abs=1e-6)
        assert b["x"].hi == pytest.approx(4.0, abs=1e-6)

    def test_fixpoint_converges(self):
        # x = y and y = x/2 over positive box forces both toward 0
        phi = And(
            Atom(x - y, strict=False),
            Atom(y - x, strict=False),
            Atom(y - 2 * x, strict=False),
            Atom(2 * x - y, strict=False),
        )
        b = fixpoint(phi, box(x=(0.0, 8.0), y=(0.0, 8.0)), tol=1e-6, max_sweeps=200)
        # only solution is x=y=0
        assert b["x"].hi < 1.0
