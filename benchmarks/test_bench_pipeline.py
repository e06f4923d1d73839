"""E1: the Fig. 2 end-to-end workflow.

"These tasks can be assembled as a unified workflow for understanding
the mechanism of diseases and identifying therapeutic options."

Reproduction of the three workflow exits: validated (delta-sat
calibration + test-data reproduction), falsified (unsat -> reject
hypothesis), and refine (validation miss -> SMC quantification).
"""

import math

import pytest

from repro.apps import AnalysisPipeline, TimeSeriesData
from repro.expr import var
from repro.odes import ODESystem


def _decay():
    return ODESystem({"x": -var("k") * var("x")}, {"k": 1.0}, name="decay")


def _decay_data(k_true, times, tol):
    return TimeSeriesData.from_samples(
        [(t, {"x": math.exp(-k_true * t)}) for t in times], tolerance=tol
    )


def test_validated_exit(once):
    pipeline = AnalysisPipeline(
        _decay(),
        _decay_data(1.3, (0.5, 1.0), 0.03),
        _decay_data(1.3, (1.5, 2.0), 0.05),
        {"k": (0.5, 2.5)},
        {"x": 1.0},
        delta=0.03,
    )
    report = once(pipeline._run_impl)
    assert report.validated
    assert report.calibrated_params["k"] == pytest.approx(1.3, abs=0.1)


def test_falsified_exit(once):
    impossible = TimeSeriesData.from_samples(
        [(1.0, {"x": 0.5}), (2.0, {"x": 0.9})], tolerance=0.02
    )
    pipeline = AnalysisPipeline(
        _decay(), impossible, impossible, {"k": (0.05, 3.0)}, {"x": 1.0},
        delta=0.02, max_boxes=600,
    )
    report = once(pipeline._run_impl)
    assert report.falsified


def test_refine_exit_with_smc(once):
    pipeline = AnalysisPipeline(
        _decay(),
        _decay_data(1.0, (0.5,), 0.05),
        # test data generated by a different mechanism: validation misses
        TimeSeriesData.from_samples(
            [(2.0, {"x": math.exp(-4.0)})], tolerance=0.01
        ),
        {"k": (0.8, 1.2)},
        {"x": 1.0},
        delta=0.05,
    )
    report = once(pipeline._run_impl, 0.25)
    assert report.stage == "refine"
    assert report.smc_probability is not None and report.smc_probability < 0.5
