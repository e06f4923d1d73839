"""JSON round-trips of specs, reports and the query value codecs."""

import json

import pytest

from repro.api import AnalysisReport, AnalysisStatus, Model, SimOptions, SolverOptions, TaskSpec
from repro.api.serialize import (
    bltl_from_value,
    bltl_to_value,
    bounds_from_value,
    formula_from_value,
    formula_to_value,
    timeseries_from_value,
    timeseries_to_value,
)
from repro.bmc import BMCOptions
from repro.smc import Always, At, Eventually, Prop
from repro.solver.icp import check_search_knobs


class TestTaskSpecRoundTrip:
    def spec(self):
        return TaskSpec(
            task="calibrate",
            model=Model.builtin("logistic", r=0.7),
            query={
                "data": {"samples": [[2.0, {"x": 1.45}]], "tolerance": 0.2},
                "param_ranges": {"r": [0.1, 2.0]},
                "x0": {"x": 0.5},
            },
            solver=SolverOptions(delta=0.01, max_boxes=123),
            sim=SimOptions(rtol=1e-7),
            seed=42,
            name="roundtrip",
        )

    def test_json_round_trip(self):
        spec = self.spec()
        back = TaskSpec.from_json(spec.to_json())
        assert back.to_dict() == spec.to_dict()
        assert back.task == "calibrate"
        assert back.name == "roundtrip"
        assert back.seed == 42
        assert back.solver.delta == 0.01
        assert back.solver.max_boxes == 123
        assert back.sim.rtol == 1e-7
        assert back.model.system.params == {"r": 0.7, "K": 10.0}

    def test_builtin_model_survives(self):
        back = TaskSpec.from_json(self.spec().to_json())
        assert back.model.to_dict() == {"builtin": "logistic", "args": {"r": 0.7}}

    def test_inline_model_survives(self):
        spec = self.spec()
        spec.model = Model.from_dict(
            {"type": "ode", "name": "lin", "derivatives": {"x": "-x"}, "params": {}}
        )
        back = TaskSpec.from_json(spec.to_json())
        assert back.model.name == "lin"
        assert back.model.system.state_names == ["x"]

    def test_unknown_solver_option_rejected(self):
        for solver in ({"typo": 1}, {"kernel": "numpy"}, {"enclosure_order": 2}):
            with pytest.raises(ValueError, match="unknown solver options"):
                TaskSpec.from_dict(
                    {"task": "calibrate", "model": {"builtin": "logistic"},
                     "solver": solver}
                )

    def test_bad_delta_rejected(self):
        for delta in (-1.0, float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match="delta must be finite and >= 0"):
                check_search_knobs(delta, 600, 64, 1)
            with pytest.raises(ValueError, match="delta must be finite and >= 0"):
                TaskSpec.from_dict(
                    {"task": "calibrate", "model": {"builtin": "logistic"},
                     "solver": {"delta": delta}}
                )
        check_search_knobs(0.0, 1, 1, 1)  # an exact (zero) delta is allowed

    @pytest.mark.parametrize("task,query", [
        ("calibrate", {}),
        ("falsify", {}),
        ("falsify", {"method": "data"}),
        ("pipeline", {}),
    ])
    def test_interval_x0_rejected_with_task_and_field(self, task, query):
        # a [lo, hi] start used to reach the calibrator's float() and end
        # as an error report; now it is refused when the spec is built
        spec = {"task": task, "model": {"builtin": "logistic"},
                "query": {**query, "x0": {"x": [0.4, 0.6]}}}
        with pytest.raises(ValueError, match=f"task '{task}' query field 'x0' needs "
                           "a number for 'x', got \\[0.4, 0.6\\]"):
            TaskSpec.from_dict(spec)
        with pytest.raises(ValueError, match="'x0' must map state names to numbers"):
            TaskSpec.from_dict({**spec, "query": {**query, "x0": [0.5]}})
        spec["query"]["x0"] = {"x": 0.5}
        assert TaskSpec.from_dict(spec).query["x0"] == {"x": 0.5}

    def test_x0_of_other_tasks_and_methods_not_checked(self):
        # reach-style falsification and the other tasks read no point x0
        for task, query in (("falsify", {"method": "reach"}), ("smc", {})):
            spec = {"task": task, "model": {"builtin": "logistic"},
                    "query": {**query, "x0": {"x": [0.4, 0.6]}}}
            assert TaskSpec.from_dict(spec).query["x0"] == {"x": [0.4, 0.6]}

    def test_solver_options_reject_bad_knobs(self):
        with pytest.raises(ValueError, match="frontier_size must be >= 1, got 0"):
            SolverOptions(frontier_size=0)
        with pytest.raises(ValueError, match="shards must be >= 1, got -2"):
            SolverOptions(shards=-2)
        # a search with no box budget does no work: it used to answer
        # UNKNOWN with the root box after 0 boxes
        for budget in (0, -5):
            with pytest.raises(ValueError, match=f"max_boxes must be >= 1, got {budget}"):
                SolverOptions(max_boxes=budget)
        # the serve/CLI door builds options through from_dict: same message
        with pytest.raises(ValueError, match="frontier_size must be >= 1"):
            SolverOptions.from_dict({"frontier_size": 0})
        # a non-positive (or NaN) step would never advance the enclosure
        for step in (0.0, -0.05, float("nan")):
            with pytest.raises(ValueError, match="enclosure_step must be > 0"):
                SolverOptions(enclosure_step=step)
            with pytest.raises(ValueError, match="verify_step must be > 0"):
                SolverOptions(verify_step=step)
            # in-process BMC callers bypass SolverOptions: same checks
            with pytest.raises(ValueError, match="enclosure_step must be > 0"):
                BMCOptions(enclosure_step=step)
            with pytest.raises(ValueError, match="verify_step must be > 0"):
                BMCOptions(verify_step=step)
        with pytest.raises(ValueError, match="enclosure_step must be > 0"):
            SolverOptions.from_dict({"enclosure_step": 0})

    def test_missing_fields_rejected(self):
        with pytest.raises(ValueError, match="task"):
            TaskSpec.from_dict({"model": {"builtin": "logistic"}})
        with pytest.raises(ValueError, match="model"):
            TaskSpec.from_dict({"task": "calibrate"})


class TestReportRoundTrip:
    def test_json_round_trip(self):
        report = AnalysisReport(
            task="reach",
            status=AnalysisStatus.DELTA_SAT,
            witness={"k": 1.5},
            witness_box={"k": (1.4, 1.6)},
            metrics={"probability": 0.75},
            stats={"boxes_processed": 42.0},
            wall_time=0.5,
            seed=7,
            detail="found",
            payload={"mode_path": ["a", "b"]},
            name="scenario-1",
        )
        back = AnalysisReport.from_json(report.to_json())
        assert back == report
        assert back.status is AnalysisStatus.DELTA_SAT
        assert isinstance(json.loads(report.to_json())["status"], str)

    def test_status_string_coercion(self):
        report = AnalysisReport(task="smc", status="estimated")
        assert report.status is AnalysisStatus.ESTIMATED

    def test_truthiness(self):
        assert AnalysisReport("t", AnalysisStatus.DELTA_SAT)
        assert AnalysisReport("t", AnalysisStatus.VALIDATED)
        assert not AnalysisReport("t", AnalysisStatus.UNSAT)
        assert not AnalysisReport("t", AnalysisStatus.ERROR)
        assert AnalysisReport("t", AnalysisStatus.UNKNOWN).ok
        assert not AnalysisReport("t", AnalysisStatus.ERROR).ok

    def test_falsify_truthiness_matches_legacy_verdict(self):
        # FalsificationVerdict.__bool__ is True when the model IS
        # rejected; ported `if result:` code must keep its meaning
        assert AnalysisReport("falsify", AnalysisStatus.FALSIFIED)
        assert not AnalysisReport("falsify", AnalysisStatus.DELTA_SAT)
        assert not AnalysisReport("falsify", AnalysisStatus.UNKNOWN)


class TestQueryCodecs:
    def test_formula_string_forms(self):
        phi = formula_from_value("x >= 0.5")
        assert phi.eval({"x": 0.6}) and not phi.eval({"x": 0.4})
        phi = formula_from_value("x - y < 2")
        assert phi.eval({"x": 1.0, "y": 0.0}) and not phi.eval({"x": 3.0, "y": 0.0})

    def test_formula_conjunction_list(self):
        phi = formula_from_value(["x >= 0.0", "x <= 1.0"])
        assert phi.eval({"x": 0.5}) and not phi.eval({"x": 2.0})

    def test_formula_dict_round_trip(self):
        phi = formula_from_value("x >= 0.5")
        back = formula_from_value(formula_to_value(phi))
        assert back.eval({"x": 0.6}) and not back.eval({"x": 0.4})

    def test_formula_bad_string(self):
        with pytest.raises(ValueError, match="cannot parse formula"):
            formula_from_value("x ~ 1")

    def test_bltl_round_trip(self):
        phi = Always(5.0, Eventually(1.0, Prop(formula_from_value("x >= 1.0"))))
        back = bltl_from_value(bltl_to_value(phi))
        assert back == phi
        at = At(2.0, Prop(formula_from_value("x <= 3.0")))
        assert bltl_from_value(bltl_to_value(at)) == at

    def test_bltl_string_shorthand(self):
        phi = bltl_from_value("x >= 1.0")
        assert isinstance(phi, Prop)

    def test_timeseries_round_trip(self):
        data = timeseries_from_value(
            {"samples": [[1.0, {"x": 2.0}], [3.0, {"x": 4.0}]], "tolerance": 0.5}
        )
        assert data.horizon == 3.0
        back = timeseries_from_value(timeseries_to_value(data))
        assert back.checkpoints == data.checkpoints

    def test_bounds(self):
        assert bounds_from_value({"x": [1, 2]}) == {"x": (1.0, 2.0)}

    def test_bounds_scalar_is_point_interval(self):
        assert bounds_from_value({"x": 0.99}) == {"x": (0.99, 0.99)}

    def test_bounds_bad_value_names_the_field(self):
        with pytest.raises(ValueError, match="'x'"):
            bounds_from_value({"x": "wide"})
