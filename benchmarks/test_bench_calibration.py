"""E11: BioPSy-style guaranteed parameter-set synthesis (Sec. IV-A, [53]).

"Parameter estimation of single-mode ODE models can be encoded as SMT
formulas by BioPSy and solved by dReal."

Reproduction: point calibration (delta-sat with a correct witness),
rejection of inconsistent data (unsat), and the paving mode partitioning
the parameter box into guaranteed-sat / guaranteed-unsat / undecided
regions whose inner volume matches the analytic answer.
"""

import math

import pytest

from repro.apps import (
    Checkpoint,
    SMTCalibrator,
    TimeSeriesData,
)
from repro.expr import var
from repro.models import logistic
from repro.odes import ODESystem, rk45
from repro.solver import Status


def _decay():
    return ODESystem({"x": -var("k") * var("x")}, {"k": 1.0}, name="decay")


def test_point_calibration(once):
    k_true = 1.5
    data = TimeSeriesData.from_samples(
        [(t, {"x": math.exp(-k_true * t)}) for t in (0.5, 1.0, 2.0)],
        tolerance=0.02,
    )
    calib = SMTCalibrator(_decay(), data, {"k": (0.1, 3.0)}, {"x": 1.0}, delta=0.02)
    res = once(calib._calibrate_impl)
    assert res.status is Status.DELTA_SAT
    assert res.params["k"] == pytest.approx(k_true, abs=0.1)


def test_two_parameter_logistic(once):
    sys_ = logistic()
    true = {"r": 0.8, "K": 8.0}
    traj = rk45(sys_, {"x": 0.5}, (0.0, 10.0), params=true)
    data = TimeSeriesData.from_samples(
        [(t, {"x": traj.value("x", t)}) for t in (2.0, 5.0, 10.0)],
        tolerance=0.05,
    )
    calib = SMTCalibrator(
        sys_, data, {"r": (0.2, 2.0), "K": (4.0, 12.0)}, {"x": 0.5},
        delta=0.05, enclosure_step=0.1,
    )
    res = once(calib._calibrate_impl)
    assert res.status is Status.DELTA_SAT
    assert res.params["K"] == pytest.approx(8.0, abs=0.8)


def test_inconsistent_data_unsat(once):
    data = TimeSeriesData.from_samples(
        [(1.0, {"x": 0.9}), (2.0, {"x": 0.1})], tolerance=0.02
    )
    calib = SMTCalibrator(
        _decay(), data, {"k": (0.01, 5.0)}, {"x": 1.0},
        delta=0.01, max_boxes=1500,
    )
    res = once(calib._calibrate_impl)
    assert res.status is Status.UNSAT


def test_region_synthesis_volume(once):
    """Paving: x(1) in [e^-1.6, e^-1.4] <=> k in [1.4, 1.6]; the inner
    (guaranteed) boxes must cover most of that interval and nothing
    outside it."""
    data = TimeSeriesData([Checkpoint(1.0, {"x": (math.exp(-1.6), math.exp(-1.4))})])
    calib = SMTCalibrator(
        _decay(), data, {"k": (0.5, 2.5)}, {"x": 1.0},
        delta=0.005, max_boxes=400,
    )
    sat, unsat, und = once(calib.synthesize_region, 0.01)
    assert sat
    for b in sat:
        assert 1.35 <= b["k"].lo and b["k"].hi <= 1.65
    inner_width = sum(b["k"].width() for b in sat)
    assert inner_width == pytest.approx(0.2, abs=0.06)
    outer_width = sum(b["k"].width() for b in unsat)
    assert outer_width > 1.5  # most of [0.5, 2.5] proven infeasible
