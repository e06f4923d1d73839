"""The facade's shared enums and its warning-free entry path."""

import pytest

from repro.apps import PipelineStage
from repro.status import AnalysisStatus


class TestPipelineStageEnum:
    def test_stage_is_shared_with_analysis_status(self):
        assert PipelineStage is AnalysisStatus

    def test_string_comparisons_still_work(self):
        from repro.apps.pipeline import PipelineReport

        report = PipelineReport(PipelineStage.REFINE)
        assert report.stage == "refine"
        assert report.stage is PipelineStage.REFINE

    def test_string_coercion_in_constructor(self):
        from repro.apps.pipeline import PipelineReport

        report = PipelineReport("validated")
        assert report.stage is PipelineStage.VALIDATED
        assert report.validated

    def test_bad_stage_rejected(self):
        from repro.apps.pipeline import PipelineReport

        with pytest.raises(ValueError):
            PipelineReport("not-a-stage")


class TestNoWarningsThroughFacade:
    def test_engine_path_is_warning_free(self, recwarn):
        import warnings

        from repro.api import run

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            report = run({
                "task": "falsify",
                "model": {"builtin": "logistic"},
                "query": {
                    "method": "data",
                    "data": {
                        "samples": [[1.0, {"x": 5.0}], [2.0, {"x": 0.2}]],
                        "tolerance": 0.1,
                    },
                    "param_ranges": {"r": [0.1, 2.0]},
                    "x0": {"x": 0.5},
                },
            })
        assert report.status.value == "falsified"


def test_module_run_batch_matches_engine():
    """``repro.run_batch`` is ``Engine(workers, seed).run_batch``."""
    import repro
    from repro.api import Engine

    specs = [
        {
            "task": "calibrate",
            "name": f"probe-{target}",
            "model": {"builtin": "logistic"},
            "query": {
                "data": {"samples": [[2.0, {"x": target}]], "tolerance": 0.2},
                "param_ranges": {"r": [0.1, 2.0]},
                "x0": {"x": 0.5},
            },
            "solver": {"delta": 0.05, "max_boxes": 400},
        }
        for target in (1.45, 9.0)
    ]
    with Engine(seed=0) as engine:
        want = [r.to_dict() for r in engine.run_batch(specs)]
    got = [r.to_dict() for r in repro.run_batch(specs, workers=1)]
    for d in want + got:
        d.pop("wall_time")
    assert got == want
    assert [d["name"] for d in got] == ["probe-1.45", "probe-9.0"]
