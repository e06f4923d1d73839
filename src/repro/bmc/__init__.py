"""Bounded model checking for hybrid automata (S7 in DESIGN.md).

dReach-style ``(k, M)``-reachability (paper Section III-C): mode-path
enumeration plus ICP branch-and-prune over parameters, initial states
and dwell times, with flows discharged by validated enclosures.
"""

from .paths import Path, enumerate_paths
from .reach import BMCChecker, BMCOptions, BMCResult, ReachSpec

__all__ = [
    "Path",
    "enumerate_paths",
    "BMCChecker",
    "BMCOptions",
    "BMCResult",
    "ReachSpec",
]
