"""Tests for the therapy synthesis, robustness and pipeline apps."""

import pytest

from repro.apps import (
    AnalysisPipeline,
    TimeSeriesData,
    evaluate_policy,
    stimulus_threshold,
)
from repro.apps.robustness import _check_robustness_impl
from repro.apps.therapy import (
    _synthesize_reach_therapy_impl,
    _synthesize_threshold_policy_impl,
)
from repro.bmc import BMCOptions
from repro.expr import var
from repro.hybrid import HybridAutomaton, Jump, Mode
from repro.intervals import Box
from repro.logic import And, in_range
from repro.models import ias_model, tbi_model
from repro.odes import ODESystem
from repro.smc import G

x = var("x")


def small_therapy_automaton() -> HybridAutomaton:
    """A miniature treat/no-treat automaton: damage x grows untreated,
    decays under drug; therapy threshold theta is synthesizable.  The
    live/drug invariants force the death jump at x = 2 (may-jump
    semantics would otherwise let runs simply ignore it)."""
    theta = var("theta")
    alive = x <= 2.0 + 1e-9
    return HybridAutomaton(
        variables=["x"],
        modes=[
            Mode("live", {"x": 0.5 * x}, invariant=alive),
            Mode("drug_A", {"x": -1.0 * x}, invariant=alive),
            Mode("death", {"x": 0.0 * x}),
        ],
        jumps=[
            Jump("live", "drug_A", guard=(x >= theta)),
            Jump("live", "death", guard=(x >= 2.0)),
            Jump("drug_A", "death", guard=(x >= 2.0)),
            Jump("drug_A", "live", guard=(x <= 0.2)),
        ],
        initial_mode="live",
        init=Box.from_bounds({"x": (0.5, 0.5)}),
        params={"theta": 1.0},
        name="mini_therapy",
    )


class TestReachTherapy:
    def test_mini_therapy_synthesized(self):
        h = small_therapy_automaton()
        plan = _synthesize_reach_therapy_impl(
            h,
            goal=in_range(x, 0.0, 0.25),
            threshold_ranges={"theta": (0.6, 1.9)},
            goal_mode="live",
            max_drugs=2,
            time_bound=6.0,
            options=BMCOptions(enclosure_step=0.1, max_boxes_per_path=60),
        )
        assert plan.found
        assert plan.mode_path == ["live", "drug_A", "live"]
        assert plan.n_drugs == 1
        assert 0.6 <= plan.thresholds["theta"] <= 1.9

    def test_infeasible_when_threshold_too_high(self):
        h = small_therapy_automaton()
        # theta >= 2.0 can never fire before death at x = 2.0 kills first;
        # restrict the range to a region where the guard x >= theta fires
        # after the death guard -> no live recovery
        plan = _synthesize_reach_therapy_impl(
            h,
            goal=in_range(x, 0.0, 0.25),
            threshold_ranges={"theta": (2.5, 3.0)},
            goal_mode="live",
            max_drugs=2,
            time_bound=4.0,
            options=BMCOptions(enclosure_step=0.1, max_boxes_per_path=40),
        )
        assert not plan.found

    def test_tbi_threshold_synthesis_small(self):
        """TBI with a single drug available: synthesize theta_A."""
        h = tbi_model(dose=0.55, drugs=("drug_A",))
        goal = And(
            var("clox") <= 0.9, var("rip3") <= 0.9, var("peox") <= 0.9,
            var("il") <= 0.9, var("nad") >= 0.25,
        )
        plan = _synthesize_reach_therapy_impl(
            h,
            goal=goal,
            threshold_ranges={"theta_A": (0.2, 0.8)},
            goal_mode="drug_A",
            max_drugs=1,
            time_bound=30.0,
            options=BMCOptions(
                enclosure_step=0.5, max_boxes_per_path=40, verify_step=0.25,
                delta=0.2,
            ),
        )
        assert plan.found
        assert plan.mode_path == ["live", "drug_A"]


class TestThresholdPolicy:
    def test_ias_policy_search(self):
        h = ias_model("patient_A")
        # objective: keep total burden below 40 for 500 days
        phi = G(500.0, (var("x") + var("y")) <= 40.0)
        res = _synthesize_threshold_policy_impl(
            h,
            phi,
            {"r0": (1.0, 8.0), "r1": (8.5, 20.0)},
            init={"x": 15.0, "y": 0.01, "z": 12.0},
            horizon=510.0,
            population=8,
            iterations=4,
            seed=0,
            confirm_samples=5,
        )
        assert res.found
        assert res.success_probability == 1.0

    def test_evaluate_policy(self):
        h = small_therapy_automaton()
        traj = evaluate_policy(h, {"theta": 1.0}, horizon=6.0)
        assert "drug_A" in traj.mode_path()


class TestRobustnessApp:
    @pytest.fixture
    def excitable(self):
        """1D excitable toy: u decays below 0.2, fires toward 1 above."""
        u = var("u")
        return HybridAutomaton(
            ["u"],
            [
                Mode("rest", {"u": -u}, invariant=(u <= 0.2 + 1e-6)),
                Mode("fire", {"u": 3.0 * (1.0 - u)}, invariant=(u >= 0.2 - 1e-6)),
            ],
            [
                Jump("rest", "fire", guard=(u >= 0.2)),
                Jump("fire", "rest", guard=(u <= 0.2)),
            ],
            "rest",
            Box.from_bounds({"u": (0.0, 0.1)}),
            name="excitable_toy",
        )

    def test_subthreshold_robust(self, excitable):
        res = _check_robustness_impl(
            excitable, {"u": (0.0, 0.1)}, bad=(var("u") >= 0.8),
            time_bound=10.0, max_jumps=2,
            options=BMCOptions(enclosure_step=0.2, max_boxes_per_path=60),
        )
        assert res.robust is True

    def test_suprathreshold_excitable(self, excitable):
        h2 = HybridAutomaton(
            excitable.variables, excitable.modes, excitable.jumps, "fire",
            Box.from_bounds({"u": (0.25, 0.35)}), name="excitable_hi",
        )
        res = _check_robustness_impl(
            h2, {"u": (0.25, 0.35)}, bad=(var("u") >= 0.8),
            time_bound=10.0, max_jumps=2,
            options=BMCOptions(enclosure_step=0.1, max_boxes_per_path=60,
                               verify_step=0.02, delta=0.1),
        )
        assert res.robust is False
        assert res.witness is not None

    def test_stimulus_threshold_bracket(self, excitable):
        lo, hi = stimulus_threshold(
            excitable, "u", bad=(var("u") >= 0.8), lo=0.0, hi=0.19,
            time_bound=10.0, max_jumps=2, iterations=3,
            options=BMCOptions(enclosure_step=0.2, max_boxes_per_path=60),
        )
        # everything below 0.19 stays in rest mode: fully robust
        assert lo >= 0.15


class TestPipeline:
    def _make_data(self, k_true, times, tol):
        import math

        samples = [(t, {"x": math.exp(-k_true * t)}) for t in times]
        return TimeSeriesData.from_samples(samples, tolerance=tol)

    def test_validated_path(self):
        sys_ = ODESystem({"x": -var("k") * x}, {"k": 1.0})
        train = self._make_data(1.3, (0.5, 1.0), 0.03)
        test = self._make_data(1.3, (1.5, 2.0), 0.05)
        report = AnalysisPipeline(
            sys_, train, test, {"k": (0.5, 2.5)}, {"x": 1.0}, delta=0.03
        )._run_impl()
        assert report.validated
        assert report.calibrated_params["k"] == pytest.approx(1.3, abs=0.1)

    def test_falsified_path(self):
        sys_ = ODESystem({"x": -var("k") * x}, {"k": 1.0})
        # training data that decays then grows: impossible for pure decay
        train = TimeSeriesData.from_samples(
            [(1.0, {"x": 0.5}), (2.0, {"x": 0.9})], tolerance=0.02
        )
        report = AnalysisPipeline(
            sys_, train, train, {"k": (0.05, 3.0)}, {"x": 1.0},
            delta=0.02, max_boxes=600,
        )._run_impl()
        assert report.falsified

    def test_refine_path_with_smc(self):
        import math

        sys_ = ODESystem({"x": -var("k") * x}, {"k": 1.0})
        train = self._make_data(1.0, (0.5,), 0.05)
        # test data from a *different* k: calibrated model misses it
        test = TimeSeriesData.from_samples(
            [(2.0, {"x": math.exp(-2.0 * 2.0)})], tolerance=0.01
        )
        report = AnalysisPipeline(
            sys_, train, test, {"k": (0.8, 1.2)}, {"x": 1.0}, delta=0.05
        )._run_impl(smc_samples_epsilon=0.25)
        assert report.stage == "refine"
        assert report.validation_errors
        assert report.smc_probability is not None
        assert report.smc_probability < 0.5
