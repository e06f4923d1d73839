"""The end-to-end analysis workflow of paper Fig. 2.

    delta-decision based parameter synthesis
        |-- delta-SAT --> calibrated model --> model validation
        |                     |-- validated --> stability / therapy
        |                     `-- falsified --> SMC analysis --> refine
        `-- UNSAT --> model falsification (reject hypothesis)

:class:`AnalysisPipeline` wires the application layers together: SMT
calibration on training data, validation against held-out test data,
and -- on validation failure -- an SMC probability estimate that
quantifies how far the model is from the desired behavior (the "new
hypotheses" signal of the figure).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.odes import ODESystem, rk45
from repro.progress import emit as _progress
from repro.smc import InitialDistribution, StatisticalModelChecker, prop
from repro.solver import Status
from repro.status import PipelineStage

from .calibration import SMTCalibrator, TimeSeriesData

__all__ = ["PipelineStage", "PipelineReport", "AnalysisPipeline"]


@dataclass
class PipelineReport:
    """What happened at each stage of the Fig. 2 workflow.

    ``stage`` is a :class:`PipelineStage` member (FALSIFIED, CALIBRATED,
    VALIDATED or REFINE); being a ``str``-mixin enum, it still compares
    equal to the historical string literals (``stage == "validated"``).
    """

    stage: PipelineStage
    calibrated_params: dict[str, float] | None = None
    validation_errors: dict[float, dict[str, float]] = field(default_factory=dict)
    smc_probability: float | None = None
    detail: str = ""
    calibration_boxes: int = 0

    def __post_init__(self):
        if not isinstance(self.stage, PipelineStage):
            self.stage = PipelineStage(self.stage)

    @property
    def validated(self) -> bool:
        """True when the calibrated model also fits the test data."""
        return self.stage is PipelineStage.VALIDATED

    @property
    def falsified(self) -> bool:
        """True when no parameters reproduce the training data."""
        return self.stage is PipelineStage.FALSIFIED


class AnalysisPipeline:
    """Fig. 2 workflow driver for single-mode ODE models.

    Parameters
    ----------
    system:
        The model hypothesis.
    train_data / test_data:
        Checkpoint bands for calibration and for held-out validation.
    param_ranges:
        Biologically plausible bounds for the unknown parameters.
    x0:
        Initial state.
    seed:
        RNG seed for the SMC refinement stage, so full pipeline runs
        are reproducible end to end (previously hard-wired to 0).
    """

    def __init__(
        self,
        system: ODESystem,
        train_data: TimeSeriesData,
        test_data: TimeSeriesData,
        param_ranges: Mapping[str, tuple[float, float]],
        x0: Mapping[str, float],
        delta: float = 0.05,
        max_boxes: int = 400,
        enclosure_step: float = 0.05,
        seed: int = 0,
    ):
        self.system = system
        self.train_data = train_data
        self.test_data = test_data
        self.param_ranges = dict(param_ranges)
        self.x0 = dict(x0)
        self.delta = delta
        self.max_boxes = max_boxes
        self.enclosure_step = enclosure_step
        self.seed = seed

    # ------------------------------------------------------------------
    def _run_impl(self, smc_samples_epsilon: float = 0.1) -> PipelineReport:
        """Execute calibrate -> validate -> (analyze | SMC-refine)."""
        _progress("pipeline", "calibrate", step=1)
        calib = SMTCalibrator(
            self.system, self.train_data, self.param_ranges, self.x0,
            delta=self.delta, max_boxes=self.max_boxes,
            enclosure_step=self.enclosure_step,
        )
        res = calib._calibrate_impl()
        if res.status is Status.UNSAT:
            return PipelineReport(
                PipelineStage.FALSIFIED,
                detail="no parameters reproduce the training data; reject hypothesis",
                calibration_boxes=res.boxes_processed,
            )
        if res.status is Status.UNKNOWN:
            return PipelineReport(
                PipelineStage.REFINE, detail="calibration inconclusive (budget)",
                calibration_boxes=res.boxes_processed,
            )

        params = res.params
        _progress(
            "pipeline", "validate", step=2, calibration_boxes=res.boxes_processed
        )
        errors = self._validate(params)
        if not errors:
            return PipelineReport(
                PipelineStage.VALIDATED, calibrated_params=params,
                detail="test data reproduced; model ready for stability/therapy analysis",
                calibration_boxes=res.boxes_processed,
            )

        # validation failed: quantify with SMC under parameter jitter
        _progress(
            "pipeline", "smc-refine", step=3, misses=len(errors)
        )
        prob = self._smc_probability(params, smc_samples_epsilon)
        return PipelineReport(
            PipelineStage.REFINE,
            calibrated_params=params,
            validation_errors=errors,
            smc_probability=prob,
            detail="test data missed; SMC estimate quantifies the discrepancy",
            calibration_boxes=res.boxes_processed,
        )

    # ------------------------------------------------------------------
    def _validate(self, params: dict[str, float]) -> dict[float, dict[str, float]]:
        """Simulate at the calibrated parameters and collect band misses."""
        traj = rk45(
            self.system, self.x0, (0.0, self.test_data.horizon + 1e-9),
            params=params, rtol=1e-8,
        )
        errors: dict[float, dict[str, float]] = {}
        for cp in self.test_data.checkpoints:
            state = traj.at(cp.t)
            for name, (lo, hi) in cp.bands.items():
                v = state[name]
                if not (lo <= v <= hi):
                    miss = lo - v if v < lo else v - hi
                    errors.setdefault(cp.t, {})[name] = miss
        return errors

    def _smc_probability(
        self, params: dict[str, float], epsilon: float
    ) -> float:
        """P(model threads the test bands) under 5% parameter jitter."""
        jitter = {
            k: (v * 0.95, v * 1.05) if v != 0 else (-(0.05), 0.05)
            for k, v in params.items()
        }
        init = InitialDistribution({**self.x0, **jitter})
        checker = StatisticalModelChecker(
            self.system, init, horizon=self.test_data.horizon + 1e-9, seed=self.seed
        )
        phi = self._bands_bltl()
        p, _n = checker.probability(phi, epsilon=epsilon, alpha=0.1)
        return p

    def _bands_bltl(self):
        """The test bands as a conjunction of time-anchored checks."""
        from repro.expr import var
        from repro.logic import And
        from repro.smc import BLTL, at_time

        parts: list[BLTL] = []
        for cp in self.test_data.checkpoints:
            band = And(
                *[
                    (var(n) >= lo) & (var(n) <= hi)
                    for n, (lo, hi) in cp.bands.items()
                ]
            )
            parts.append(at_time(cp.t, prop(band)))
        phi: BLTL = parts[0]
        for p in parts[1:]:
            phi = phi & p
        return phi
