"""Pinned bits of calibration and parameter paving.

Every digest below was taken before the calibrator's two box loops were
moved onto the shared depth-first driver
(:mod:`repro.solver.depth_first`), so that move -- or any later edit of
the driver, the relative split or the simulation guidance -- cannot
shift a verdict, a witness bit, a witness box, a box count, or a
paving leaf or its position in the sat / unsat / undecided lists.
"""

import hashlib
import math

import pytest

from repro.apps import SMTCalibrator, TimeSeriesData
from repro.apps.calibration import Checkpoint
from repro.expr import var
from repro.intervals import Box
from repro.models import logistic
from repro.odes import ODESystem, rk45


def _decay():
    return ODESystem({"x": -var("k") * var("x")}, {"k": 1.0}, name="decay")


def _decay_data(k_true=1.5, times=(0.5, 1.0, 2.0), tol=0.02):
    samples = [(t, {"x": math.exp(-k_true * t)}) for t in times]
    return TimeSeriesData.from_samples(samples, tolerance=tol)


def _logistic_data():
    traj = rk45(logistic(), {"x": 0.5}, (0.0, 10.0), params={"r": 0.8, "K": 8.0})
    samples = [(t, {"x": traj.value("x", t)}) for t in (2.0, 5.0, 10.0)]
    return TimeSeriesData.from_samples(samples, tolerance=0.05)


def _logistic(**kw):
    return SMTCalibrator(
        logistic(), _logistic_data(), {"r": (0.2, 2.0), "K": (4.0, 12.0)},
        {"x": 0.5}, **{"delta": 0.05, "enclosure_step": 0.1, **kw},
    )


def _band():
    # x(1) in [exp(-1.6), exp(-1.4)] <=> k in [1.4, 1.6]
    return TimeSeriesData([Checkpoint(1.0, {"x": (math.exp(-1.6), math.exp(-1.4))})])


#: id -> thunk returning a CalibrationResult
SOLVES = {
    # root-midpoint simulation verifies before any box is judged
    "decay-guided": lambda: SMTCalibrator(
        _decay(), _decay_data(), {"k": (0.1, 3.0)}, {"x": 1.0}, delta=0.02,
    )._calibrate_impl(),
    # a degenerate (point) parameter range
    "decay-point": lambda: SMTCalibrator(
        _decay(), _decay_data(), {"k": (1.5, 1.5)}, {"x": 1.0}, delta=0.02,
        use_simulation_guidance=False,
    )._calibrate_impl(),
    "logistic-two-params": lambda: _logistic()._calibrate_impl(),
    "logistic-budget-unknown": lambda: _logistic(
        use_simulation_guidance=False, max_boxes=5,
    )._calibrate_impl(),
    "decay-unsat": lambda: SMTCalibrator(
        _decay(),
        TimeSeriesData.from_samples([(1.0, {"x": 0.9}), (2.0, {"x": 0.1})], tolerance=0.02),
        {"k": (0.01, 5.0)}, {"x": 1.0}, delta=0.01, max_boxes=800,
    )._calibrate_impl(),
    "decay-unguided": lambda: SMTCalibrator(
        _decay(), _decay_data(k_true=0.7, tol=0.01), {"k": (0.1, 3.0)}, {"x": 1.0},
        delta=0.01, use_simulation_guidance=False,
    )._calibrate_impl(),
    "decay-uncertain-x0": lambda: SMTCalibrator(
        _decay(), _decay_data(k_true=1.0, times=(1.0,), tol=0.05), {"k": (0.5, 2.0)},
        Box.from_bounds({"x": (0.99, 1.01)}), delta=0.05,
    )._calibrate_impl(),
}

#: id -> thunk returning (sat, unsat, undecided)
PAVINGS = {
    "decay-band": lambda: SMTCalibrator(
        _decay(), _band(), {"k": (0.5, 2.5)}, {"x": 1.0}, delta=0.005, max_boxes=400,
    ).synthesize_region(min_width=0.01),
    # budget-bound: leftovers join the undecided list in stack order
    "decay-band-budget": lambda: SMTCalibrator(
        _decay(), _band(), {"k": (0.5, 2.5)}, {"x": 1.0}, delta=0.005, max_boxes=25,
    ).synthesize_region(min_width=0.01),
    "logistic-two-params": lambda: _logistic(max_boxes=60).synthesize_region(min_width=0.5),
}


def _box_bits(box):
    if box is None:
        return "None"
    return ";".join(f"{k}:{box[k].lo.hex()},{box[k].hi.hex()}" for k in box.names)


def _solve_text(res) -> str:
    params = (
        "None" if res.params is None
        else ";".join(f"{k}:{float(v).hex()}" for k, v in res.params.items())
    )
    return "|".join([
        res.status.value, params, _box_bits(res.param_box), str(res.boxes_processed),
    ])


def _paving_text(paving) -> str:
    return "|".join(
        f"{label}[{len(boxes)}]" + "/".join(_box_bits(b) for b in boxes)
        for label, boxes in zip(("sat", "unsat", "undecided"), paving)
    )


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


PINNED_SOLVES = {
    "decay-guided":
        "90c4d5941ac57693632505d650edef7923a1745f431d7ba7a5cdb0a47e8a8ae2",
    "decay-point":
        "8e8679dd2f8ba82e9a7f9b1ef60b50e10532af0d6b53b60640648c5b86df4425",
    "logistic-two-params":
        "841b05e19d5a6fe6dc9e18b7f9425ead65fccfab45f59850de18ca4ae0d97655",
    "logistic-budget-unknown":
        "43f393e48742715388aa6a71c0580b9e5490131203a7be75745a3be182ffd2e3",
    "decay-unsat":
        "703e115b3600b7ccba04cfe4cc19d77132969a827db99cb2ca91f41232d9db0a",
    "decay-unguided":
        "8bec81ba7b8932ea29695ff816f4dc38c7939d7ea50a3722c154849db034f916",
    "decay-uncertain-x0":
        "750c4da8580038b2e39b6b73172767b0ee37dd45acad94110ec1b2513fae73a0",
}

PINNED_PAVINGS = {
    "decay-band":
        "8fb7f253a006331733a90dfb7a431a69dc7f1f65c9596fe28e26fe11480d905a",
    "decay-band-budget":
        "451354eda1f05fe0b5893b4cc38525173bc28f183c1fa64c2460c63f3a9148ce",
    "logistic-two-params":
        "3d9d432932817ca204bf151fcf1ef027249c46294c0719e8f817cae60c5f74fa",
}


@pytest.mark.parametrize("run_id", list(SOLVES))
def test_pinned_calibration(run_id):
    assert _digest(_solve_text(SOLVES[run_id]())) == PINNED_SOLVES[run_id]


@pytest.mark.parametrize("run_id", list(PAVINGS))
def test_pinned_paving(run_id):
    assert _digest(_paving_text(PAVINGS[run_id]())) == PINNED_PAVINGS[run_id]
