"""Edge-case coverage across modules: quantifier judgments, enclosure
method agreement, BMC witness replay, and hybrid trajectory utilities."""

import math

import numpy as np
import pytest

from repro.expr import var, variables
from repro.hybrid import HybridAutomaton, Jump, Mode, simulate_hybrid
from repro.intervals import Box, BoxArray, Interval
from repro.logic import Exists, Forall
from repro.odes import ODESystem, flow_enclosure
from repro.solver import Certainty, compile_formula
from repro.solver.eval3 import _eval_formula_impl

x, y = variables("x y")


def tape_judge(phi, b: Box, delta: float = 0.0) -> Certainty:
    """The one-box tape judgment of ``phi^delta`` over ``b``."""
    return Certainty(int(compile_formula(phi).judge(BoxArray.from_box(b), delta)[0]))


class TestQuantifierJudgments:
    """Quantifier judgments on the tape kernel."""

    @pytest.fixture
    def judge(self):
        return tape_judge

    def test_exists_true_everywhere_is_true(self, judge):
        phi = Exists("y", 0, 1, x + y >= 0)
        assert judge(phi, Box.from_bounds({"x": (5, 6)})) is Certainty.CERTAIN_TRUE

    def test_exists_false_everywhere_is_false(self, judge):
        phi = Exists("y", 0, 1, x + y >= 100)
        assert judge(phi, Box.from_bounds({"x": (0, 1)})) is Certainty.CERTAIN_FALSE

    def test_empty_domain_semantics(self, judge):
        # forall over empty domain: vacuously true; exists: false
        f_all = Forall("y", 1, 0, x >= 100)
        f_ex = Exists("y", 1, 0, x >= -100)
        box = Box.from_bounds({"x": (0, 1)})
        assert judge(f_all, box) is Certainty.CERTAIN_TRUE
        assert judge(f_ex, box) is Certainty.CERTAIN_FALSE

    def test_unknown_propagates(self, judge):
        phi = Forall("y", 0, 1, x - y >= 0)
        assert judge(phi, Box.from_bounds({"x": (0.5, 1.5)})) is Certainty.UNKNOWN

    def test_nested_quantifiers(self, judge):
        inner = Forall("y", 0, 1, x + y >= 0)
        assert judge(inner, Box.from_bounds({"x": (1, 2)})) is Certainty.CERTAIN_TRUE


class TestQuantifierJudgmentsScalar(TestQuantifierJudgments):
    """The same judgments on the scalar AST walk (the reference the tape
    judgment is tested against)."""

    @pytest.fixture
    def judge(self):
        return _eval_formula_impl


class TestEnclosureMethods:
    @pytest.fixture
    def decay(self):
        return ODESystem({"x": -var("x")})

    def test_methods_agree_on_inclusion(self, decay):
        start = Box.from_bounds({"x": (0.9, 1.1)})
        truth = [v * math.exp(-0.5) for v in (0.9, 1.0, 1.1)]
        for method in ("lognorm", "taylor"):
            tube = flow_enclosure(decay, start, 0.5, max_step=0.05, method=method)
            for t in truth:
                assert tube.final()["x"].contains(t), method

    def test_lognorm_contracts_on_stable(self, decay):
        start = Box.from_bounds({"x": (0.5, 1.5)})
        tube = flow_enclosure(decay, start, 3.0, max_step=0.1, method="lognorm")
        assert tube.final()["x"].width() < start["x"].width()

    def test_unknown_method_rejected(self, decay):
        with pytest.raises(ValueError, match="unknown enclosure method"):
            flow_enclosure(decay, Box.from_point({"x": 1.0}), 1.0, method="magic")

    def test_param_uncertainty_both_methods(self):
        sys_ = ODESystem({"x": -var("k") * var("x")}, {"k": 1.0})
        pb = Box.from_bounds({"k": (0.8, 1.2)})
        for method in ("lognorm", "taylor"):
            tube = flow_enclosure(
                sys_, Box.from_point({"x": 1.0}), 1.0, pb,
                max_step=0.05, method=method,
            )
            for k in (0.8, 1.0, 1.2):
                assert tube.final()["x"].contains(math.exp(-k)), method

    def test_tube_step_times_contiguous(self, decay):
        tube = flow_enclosure(decay, Box.from_point({"x": 1.0}), 1.0, max_step=0.3)
        for a, b in zip(tube.steps, tube.steps[1:]):
            assert a.time.hi == pytest.approx(b.time.lo)
        assert tube.steps[0].time.lo == 0.0
        assert tube.t_end == pytest.approx(1.0)


class TestBMCWitnessReplay:
    def test_witness_schedule_replays(self):
        """A delta-sat witness must be realizable by concrete simulation
        following the same mode path."""
        from repro.bmc import BMCChecker, BMCOptions, ReachSpec
        from repro.logic import in_range

        h = HybridAutomaton(
            ["x"],
            [Mode("a", {"x": -x}), Mode("b", {"x": x})],
            [Jump("a", "b", guard=(x <= 0.5))],
            "a",
            Box.from_bounds({"x": (1.0, 1.0)}),
        )
        spec = ReachSpec(goal=in_range(x, 0.8, 1.2), goal_mode="b",
                         max_jumps=1, time_bound=3.0)
        res = BMCChecker(h, BMCOptions(enclosure_step=0.1))._check_impl(spec)
        assert res
        traj = simulate_hybrid(h, res.witness_x0, t_final=sum(res.witness_dwells) + 0.5)
        assert traj.mode_path() == res.mode_path()
        # goal realized near the witness end time
        t_end = sum(res.witness_dwells)
        v = traj.value("x", min(t_end, traj.t_end))
        assert 0.7 <= v <= 1.3


class TestHybridTrajectoryUtilities:
    @pytest.fixture
    def traj(self):
        h = HybridAutomaton(
            ["x"],
            [Mode("a", {"x": -x}), Mode("b", {"x": 0.0 * x})],
            [Jump("a", "b", guard=(x <= 0.5), reset={"x": 2.0})],
            "a",
            Box.from_bounds({"x": (1.0, 1.0)}),
        )
        return simulate_hybrid(h, {"x": 1.0}, t_final=3.0)

    def test_dwell_times_sum(self, traj):
        assert sum(traj.dwell_times()) == pytest.approx(traj.t_end - traj.t0)

    def test_mode_at_boundaries(self, traj):
        t_switch = traj.segments[0].t_end
        assert traj.mode_at(t_switch - 1e-6) == "a"
        assert traj.mode_at(traj.t_end) == "b"

    def test_reset_discontinuity_preserved_in_flatten(self, traj):
        flat = traj.flatten()
        xs = flat.column("x")
        # the reset to 2.0 appears
        assert xs.max() == pytest.approx(2.0, abs=1e-6)
        assert np.all(np.diff(flat.times) > 0)

    def test_out_of_range_queries(self, traj):
        with pytest.raises(ValueError):
            traj.at(traj.t_end + 1.0)
        with pytest.raises(ValueError):
            traj.mode_at(-1.0)


class TestIntervalMiscellany:
    def test_interval_iteration(self):
        lo, hi = Interval(1.0, 2.0)
        assert (lo, hi) == (1.0, 2.0)

    def test_repr_forms(self):
        assert "EMPTY" in repr(Interval.make(2, 1))
        assert "Interval" in repr(Interval(0, 1))
        assert "Box" in repr(Box.from_bounds({"x": (0, 1)}))

    def test_box_without_everything(self):
        b = Box.from_bounds({"x": (0, 1), "y": (0, 1)})
        assert len(b.without("x", "y")) == 0

    def test_clamp(self):
        assert Interval(-5, 5).clamp(0, 1) == Interval(0, 1)
