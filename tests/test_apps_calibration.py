"""Tests for SMT calibration, paving, and falsification apps."""

import math

import pytest

from repro.apps import (
    Checkpoint,
    SMTCalibrator,
    TimeSeriesData,
)
from repro.apps.falsification import _falsify_with_data_impl
from repro.expr import var
from repro.intervals import Box
from repro.models import logistic
from repro.odes import ODESystem, rk45
from repro.solver import Status


def decay_system():
    return ODESystem({"x": -var("k") * var("x")}, {"k": 1.0}, name="decay")


def decay_data(k_true=1.5, times=(0.5, 1.0, 2.0), tol=0.02):
    samples = [(t, {"x": math.exp(-k_true * t)}) for t in times]
    return TimeSeriesData.from_samples(samples, tolerance=tol)


class TestTimeSeriesData:
    def test_from_samples_absolute(self):
        d = TimeSeriesData.from_samples([(1.0, {"x": 2.0})], tolerance=0.1)
        assert d.checkpoints[0].bands["x"] == (1.9, 2.1)

    def test_from_samples_relative(self):
        d = TimeSeriesData.from_samples([(1.0, {"x": 2.0})], tolerance=0.1, relative=True)
        assert d.checkpoints[0].bands["x"] == pytest.approx((1.8, 2.2))

    def test_sorted_by_time(self):
        d = TimeSeriesData([Checkpoint(2.0, {"x": (0, 1)}), Checkpoint(1.0, {"x": (0, 1)})])
        assert [c.t for c in d.checkpoints] == [1.0, 2.0]

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            TimeSeriesData([Checkpoint(-1.0, {"x": (0, 1)})])

    def test_horizon(self):
        assert decay_data().horizon == 2.0

    def test_per_variable_tolerance(self):
        d = TimeSeriesData.from_samples(
            [(1.0, {"x": 1.0, "y": 1.0})], tolerance={"x": 0.1, "y": 0.5}
        )
        assert d.checkpoints[0].bands["x"] == (0.9, 1.1)
        assert d.checkpoints[0].bands["y"] == (0.5, 1.5)


class TestCalibration:
    def test_rejects_non_positive_enclosure_step(self):
        for step in (0.0, -0.05, float("nan")):
            with pytest.raises(ValueError, match="enclosure_step must be > 0"):
                SMTCalibrator(
                    decay_system(), decay_data(), {"k": (0.1, 3.0)},
                    {"x": 1.0}, enclosure_step=step,
                )

    def test_recovers_true_parameter(self):
        calib = SMTCalibrator(
            decay_system(), decay_data(k_true=1.5), {"k": (0.1, 3.0)},
            {"x": 1.0}, delta=0.02,
        )
        res = calib._calibrate_impl()
        assert res.status is Status.DELTA_SAT
        assert res.params["k"] == pytest.approx(1.5, abs=0.1)

    def test_calibrated_params_reproduce_data(self):
        data = decay_data(k_true=0.7, tol=0.01)
        calib = SMTCalibrator(
            decay_system(), data, {"k": (0.1, 3.0)}, {"x": 1.0}, delta=0.01
        )
        res = calib._calibrate_impl()
        assert res
        traj = rk45(decay_system(), {"x": 1.0}, (0.0, 2.0), params=res.params)
        for cp in data.checkpoints:
            v = traj.value("x", cp.t)
            lo, hi = cp.bands["x"]
            assert lo - 0.02 <= v <= hi + 0.02

    def test_unsat_when_data_inconsistent(self):
        # x(1) = 0.9 and x(2) = 0.1 cannot both hold for any single k:
        # exp(-k) = 0.9 => k = 0.105; then x(2) = 0.81 != 0.1
        data = TimeSeriesData.from_samples(
            [(1.0, {"x": 0.9}), (2.0, {"x": 0.1})], tolerance=0.02
        )
        calib = SMTCalibrator(
            decay_system(), data, {"k": (0.01, 5.0)}, {"x": 1.0},
            delta=0.01, max_boxes=800,
        )
        res = calib._calibrate_impl()
        assert res.status is Status.UNSAT

    def test_logistic_two_parameters(self):
        sys_ = logistic()
        true = {"r": 0.8, "K": 8.0}
        traj = rk45(sys_, {"x": 0.5}, (0.0, 10.0), params=true)
        samples = [(t, {"x": traj.value("x", t)}) for t in (2.0, 5.0, 10.0)]
        data = TimeSeriesData.from_samples(samples, tolerance=0.05)
        calib = SMTCalibrator(
            sys_, data, {"r": (0.2, 2.0), "K": (4.0, 12.0)}, {"x": 0.5},
            delta=0.05, enclosure_step=0.1,
        )
        res = calib._calibrate_impl()
        assert res.status is Status.DELTA_SAT
        assert res.params["K"] == pytest.approx(8.0, abs=0.8)

    def test_uncertain_initial_condition(self):
        data = decay_data(k_true=1.0, times=(1.0,), tol=0.05)
        calib = SMTCalibrator(
            decay_system(), data, {"k": (0.5, 2.0)},
            Box.from_bounds({"x": (0.99, 1.01)}), delta=0.05,
        )
        res = calib._calibrate_impl()
        assert res.status is Status.DELTA_SAT

    def test_unknown_param_rejected(self):
        with pytest.raises(ValueError, match="unknown parameters"):
            SMTCalibrator(decay_system(), decay_data(), {"zz": (0, 1)}, {"x": 1.0})

    def test_nonstate_band_rejected(self):
        data = TimeSeriesData([Checkpoint(1.0, {"bogus": (0, 1)})])
        with pytest.raises(ValueError, match="non-states"):
            SMTCalibrator(decay_system(), data, {"k": (0, 1)}, {"x": 1.0})

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError, match="no checkpoints"):
            SMTCalibrator(decay_system(), TimeSeriesData([]), {"k": (0, 1)}, {"x": 1.0})

    def test_each_midpoint_simulated_once(self):
        # the root midpoint fails before the loop; the loop must not
        # simulate it again when the root box comes out undecided
        calib = SMTCalibrator(
            decay_system(), decay_data(k_true=0.7, tol=0.01), {"k": (0.1, 3.0)},
            {"x": 1.0}, delta=0.01,
        )
        simulated = []
        fits = calib._simulate_fits
        calib._simulate_fits = lambda params, x0: simulated.append(params["k"]) or fits(params, x0)
        assert calib._calibrate_impl()
        assert simulated[0] == 1.55
        assert len(simulated) == len(set(simulated)) > 1

    def test_non_positive_budget_rejected(self):
        for budget in (0, -3):
            with pytest.raises(ValueError, match=f"max_boxes must be >= 1, got {budget}"):
                SMTCalibrator(
                    decay_system(), decay_data(), {"k": (0.1, 3.0)}, {"x": 1.0},
                    max_boxes=budget,
                )

    def test_no_parameters_undecided_root_is_unknown(self):
        # nothing to split: the root is an undecided leaf (this used to
        # raise "max() arg is an empty sequence")
        data = TimeSeriesData([Checkpoint(2.0, {"x": (2.7, 2.9)})])
        calib = SMTCalibrator(
            logistic(), data, {}, Box.from_bounds({"x": (0.4, 0.6)}),
            delta=0.0, use_simulation_guidance=False,
        )
        res = calib._calibrate_impl()
        assert res.status is Status.UNKNOWN
        assert res.boxes_processed == 1

    @pytest.mark.parametrize("guided", [False, True])
    def test_no_parameters_through_engine(self, guided):
        from repro.api import Engine

        # the band's lower edge sits on the trajectory, so the root's
        # enclosure straddles it and the root stays undecided
        x2 = rk45(logistic(), {"x": 0.5}, (0.0, 2.0)).value("x", 2.0)
        spec = {
            "task": "calibrate", "model": {"builtin": "logistic"},
            "query": {
                "data": {"samples": [[2.0, {"x": x2 + 0.1}]], "tolerance": 0.1},
                "param_ranges": {}, "x0": {"x": 0.5},
            },
            "solver": {"delta": 0.0, "use_simulation_guidance": guided},
        }
        with Engine(seed=0) as engine:
            report = engine.run(spec)
        assert report.status == "unknown", report.detail
        assert report.stats["boxes_processed"] == 1.0


class TestPaving:
    def test_region_synthesis_brackets_truth(self):
        # x(1) in [exp(-1.6), exp(-1.4)] <=> k in [1.4, 1.6]
        data = TimeSeriesData(
            [Checkpoint(1.0, {"x": (math.exp(-1.6), math.exp(-1.4))})]
        )
        calib = SMTCalibrator(
            decay_system(), data, {"k": (0.5, 2.5)}, {"x": 1.0},
            delta=0.005, max_boxes=400,
        )
        sat, unsat, und = calib.synthesize_region(min_width=0.01)
        assert sat, "expected inner boxes"
        for b in sat:
            assert 1.35 <= b["k"].lo and b["k"].hi <= 1.65
        sat_width = sum(b["k"].width() for b in sat)
        assert sat_width > 0.1  # most of [1.4, 1.6] certified
        # unsat boxes cover the far ends
        assert any(b["k"].hi <= 1.4 for b in unsat)
        assert any(b["k"].lo >= 1.6 for b in unsat)

    def test_all_unsat_region(self):
        data = TimeSeriesData([Checkpoint(1.0, {"x": (0.9, 0.95)})])
        calib = SMTCalibrator(
            decay_system(), data, {"k": (1.0, 3.0)}, {"x": 1.0}, delta=0.01
        )
        sat, unsat, und = calib.synthesize_region(min_width=0.05)
        assert not sat
        assert unsat


class TestFalsification:
    def test_consistent_model_survives(self):
        verdict = _falsify_with_data_impl(
            decay_system(), decay_data(k_true=1.0), {"k": (0.5, 2.0)}, {"x": 1.0}
        )
        assert not verdict.rejected
        assert verdict.conclusive
        assert verdict.witness_params is not None

    def test_inconsistent_model_rejected(self):
        # ask decay model to *grow*: x(1) = 2.0 from x(0) = 1 with k > 0
        data = TimeSeriesData.from_samples([(1.0, {"x": 2.0})], tolerance=0.1)
        verdict = _falsify_with_data_impl(
            decay_system(), data, {"k": (0.01, 5.0)}, {"x": 1.0}, max_boxes=400
        )
        assert verdict.rejected
        assert verdict.conclusive
