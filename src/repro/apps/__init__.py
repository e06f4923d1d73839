"""Application layer (S11 in DESIGN.md): the paper's analysis tasks.

Model calibration and falsification (Section IV-A), therapeutic
strategy identification (IV-B), robustness checking (IV-C), and the
end-to-end Fig. 2 workflow.
"""

from .calibration import (
    CalibrationResult,
    Checkpoint,
    SMTCalibrator,
    TimeSeriesData,
)
from .falsification import (
    FalsificationVerdict,
)
from .therapy import (
    PolicyResult,
    TherapyPlan,
    evaluate_policy,
)
from .robustness import RobustnessResult, stimulus_threshold
from .pipeline import AnalysisPipeline, PipelineReport, PipelineStage

__all__ = [
    "Checkpoint",
    "TimeSeriesData",
    "SMTCalibrator",
    "CalibrationResult",
    "FalsificationVerdict",
    "TherapyPlan",
    "PolicyResult",
    "evaluate_policy",
    "RobustnessResult",
    "stimulus_threshold",
    "AnalysisPipeline",
    "PipelineReport",
    "PipelineStage",
]
