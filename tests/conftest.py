"""Fixtures shared by the test modules: the job service's and the
interval kernel's."""

import threading
import time

import numpy as np
import pytest

import repro.api.engine as engine_mod
from repro.api.report import AnalysisReport
from repro.progress import emit
from repro.status import AnalysisStatus


class _RunningExecute:
    """A patched ``_execute`` that keeps its job running until released.

    It emits a progress event every few milliseconds, so a job is
    provably mid-run when a cancel lands, and the cancel stops it at
    the next event.  ``ticks`` counts the events that returned normally.
    """

    def __init__(self):
        self.ticks = 0
        self.started = threading.Event()
        self.release = threading.Event()

    def __call__(self, spec, seed_default):
        while not self.release.is_set():
            emit("probe", "running", ticks=self.ticks)  # raises once cancelled
            self.ticks += 1
            self.started.set()
            time.sleep(0.005)
        return AnalysisReport(
            spec.task, AnalysisStatus.DELTA_SAT, name=spec.name, seed=spec.seed
        )


@pytest.fixture
def running_execute(monkeypatch):
    """Route every in-process job through a :class:`_RunningExecute`."""
    gate = _RunningExecute()
    monkeypatch.setattr(engine_mod, "_execute", gate)
    yield gate
    gate.release.set()


@pytest.fixture(scope="module")
def kernel_errstate():
    """The error state a caller of the interval kernel enters: its ops run
    under the caller's numpy error state, which ``repro.solver.tape``
    sets to ``all="ignore"`` once per call.  A module that calls
    ``IntervalArray`` ops (or the tape's private helpers) directly
    enters it through this fixture."""
    with np.errstate(all="ignore"):
        yield
