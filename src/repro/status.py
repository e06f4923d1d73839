"""The shared outcome vocabulary of the analysis framework.

The delta-decision searches -- the ICP solver, calibration and BMC --
answer in one three-valued enum, :class:`repro.solver.Status`.  The
unified API (:mod:`repro.api`) maps it, the Fig. 2 workflow stages and
the statistical and infrastructure outcomes onto one report enum, so
reports from any task are comparable, serializable and switchable-on.

``AnalysisStatus`` mixes in :class:`str`, so comparisons against the
historical string literals (``report.stage == "validated"``) keep
working for code written against the old stringly-typed pipeline.
"""

from __future__ import annotations

import enum

__all__ = ["AnalysisStatus", "PipelineStage"]


class AnalysisStatus(str, enum.Enum):
    """Outcome of an analysis task.

    The first three members mirror the delta-decision verdicts (paper
    Theorem 1); the middle four are the Fig. 2 workflow stages; the
    remaining members cover statistical estimates and batch-execution
    failures.
    """

    # delta-decision verdicts
    DELTA_SAT = "delta-sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"

    # Fig. 2 workflow stages (also used standalone by property checks:
    # VALIDATED = property proven, FALSIFIED = counterexample found)
    FALSIFIED = "falsified"
    CALIBRATED = "calibrated"
    VALIDATED = "validated"
    REFINE = "refine"

    # quantitative outcomes and infrastructure
    ESTIMATED = "estimated"
    ERROR = "error"
    CANCELLED = "cancelled"  # job interrupted at a progress checkpoint

    def __str__(self) -> str:  # repr-friendly: print the value, not the member
        return self.value

    @property
    def conclusive(self) -> bool:
        """Whether the analysis reached a definite verdict."""
        return self not in (
            AnalysisStatus.UNKNOWN,
            AnalysisStatus.ERROR,
            AnalysisStatus.CANCELLED,
        )


#: The Fig. 2 workflow states, shared with :class:`AnalysisStatus` so a
#: pipeline stage *is* a report status (no mapping layer needed).
PipelineStage = AnalysisStatus
