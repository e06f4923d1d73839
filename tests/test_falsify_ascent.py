"""Tests for barrier falsification (_falsify_ascent_impl)."""

import pytest

from repro.apps.falsification import _falsify_ascent_impl
from repro.expr import var
from repro.odes import ODESystem
from repro.solver import DeltaSolver

#: the delta and box budget every barrier query here runs with
SOLVER = DeltaSolver(delta=1e-4, max_boxes=200_000)

x, y = var("x"), var("y")


@pytest.fixture
def decay():
    return ODESystem({"x": -var("k") * x}, {"k": 1.0})


class TestAscentBarrier:
    def test_pure_decay_cannot_ascend(self, decay):
        v = _falsify_ascent_impl(
            decay, "x", 0.2, 0.5, {"x": (0.0, 1.0)}, {"k": (0.5, 2.0)}, solver=SOLVER
        )
        assert v.rejected and v.conclusive

    def test_growth_can_ascend(self):
        sys_ = ODESystem({"x": var("r") * x}, {"r": 1.0})
        v = _falsify_ascent_impl(
            sys_, "x", 0.2, 0.5, {"x": (0.0, 1.0)}, {"r": (0.5, 2.0)}, solver=SOLVER
        )
        assert not v.rejected and v.conclusive
        assert v.witness_params is not None

    def test_descent_direction(self, decay):
        # decay certainly CAN descend
        v = _falsify_ascent_impl(
            decay, "x", 0.5, 0.2, {"x": (0.0, 1.0)}, {"k": (0.5, 2.0)}, solver=SOLVER
        )
        assert not v.rejected

    def test_growth_cannot_descend(self):
        sys_ = ODESystem({"x": var("r") * x}, {"r": 1.0})
        v = _falsify_ascent_impl(
            sys_, "x", 0.5, 0.2, {"x": (0.1, 1.0)}, {"r": (0.5, 2.0)}, solver=SOLVER
        )
        assert v.rejected

    def test_coupled_state_bounds_matter(self):
        # dx/dt = y - x: ascent through [0.4, 0.6] possible iff y can
        # exceed x there
        sys_ = ODESystem({"x": y - x, "y": -y})
        blocked = _falsify_ascent_impl(
            sys_, "x", 0.4, 0.6, {"x": (0, 1), "y": (0.0, 0.3)}, solver=SOLVER
        )
        assert blocked.rejected
        open_ = _falsify_ascent_impl(
            sys_, "x", 0.4, 0.6, {"x": (0, 1), "y": (0.0, 2.0)}, solver=SOLVER
        )
        assert not open_.rejected

    def test_no_params_allowed(self):
        sys_ = ODESystem({"x": -x})
        v = _falsify_ascent_impl(sys_, "x", 0.2, 0.5, {"x": (0.0, 1.0)}, solver=SOLVER)
        assert v.rejected
        assert v.witness_params is None or v.witness_params == {}

    def test_validation_errors(self, decay):
        with pytest.raises(ValueError, match="unknown state"):
            _falsify_ascent_impl(decay, "zz", 0, 1, {"x": (0, 1)}, solver=SOLVER)
        with pytest.raises(ValueError, match="unknown parameters"):
            _falsify_ascent_impl(
                decay, "x", 0, 1, {"x": (0, 1)}, {"zz": (0, 1)}, solver=SOLVER
            )
        with pytest.raises(ValueError, match="bounds missing"):
            _falsify_ascent_impl(
                ODESystem({"x": y - x, "y": -y}), "x", 0, 1, {"x": (0, 1)},
                solver=SOLVER,
            )


class TestCardiacHeadline:
    def test_fk_dome_barrier_unsat(self):
        """The paper's Section IV-A falsification in its barrier form."""
        from repro.models import fenton_karma_hybrid

        fk_excited = fenton_karma_hybrid().mode_system("excited")
        v = _falsify_ascent_impl(
            fk_excited, "u", 0.75, 0.85,
            {"u": (0.0, 1.2), "v": (0.0, 0.01), "w": (0.0, 1.0)},
            {"tau_r": (10.0, 38.0), "tau_si": (28.0, 130.0)},
            solver=SOLVER,
        )
        assert v.rejected and v.conclusive

    def test_fk_dome_possible_with_recovered_gate(self):
        """Sanity check on the encoding: if the fast gate were allowed
        to recover (v up to 1), the ascent WOULD be possible -- the
        falsification hinges on the gate invariant, as it should."""
        from repro.models import fenton_karma_hybrid

        fk_excited = fenton_karma_hybrid().mode_system("excited")
        v = _falsify_ascent_impl(
            fk_excited, "u", 0.75, 0.85,
            {"u": (0.0, 1.2), "v": (0.0, 1.0), "w": (0.0, 1.0)},
            {"tau_r": (10.0, 38.0), "tau_si": (28.0, 130.0)},
            solver=SOLVER,
        )
        assert not v.rejected

    def test_bcf_dome_barrier_sat(self):
        from repro.models import bcf_hybrid

        bcf_m4 = bcf_hybrid().mode_system("m4")
        v = _falsify_ascent_impl(
            bcf_m4, "u", 1.0, 1.2,
            {"u": (0.0, 1.6), "v": (0.0, 1.0), "w": (0.0, 1.0), "s": (0.0, 1.0)},
            {"tau_so1": (25.0, 35.0)},
            solver=SOLVER,
        )
        assert not v.rejected and v.conclusive
