"""Hybrid automata (S6 in DESIGN.md).

The multi-mode model class of paper Section III-B: modes with nonlinear
ODE flows, guarded jumps with resets, invariants, parameterization, and
a concrete simulator producing hybrid trajectories (Definitions 8-10).
"""

from .automaton import HybridAutomaton, Jump, Mode
from .simulate import (
    EventWatch,
    HybridSegment,
    HybridTrajectory,
    formula_margin,
    simulate_hybrid,
)

__all__ = [
    "HybridAutomaton",
    "Mode",
    "Jump",
    "EventWatch",
    "HybridSegment",
    "HybridTrajectory",
    "simulate_hybrid",
    "formula_margin",
]
