"""ODE substrate (S5 in DESIGN.md).

Symbolic vector fields, numerical integrators (RK4, Dormand-Prince
RK45) with dense output and a terminal stop hook, and validated interval
enclosures that realize ODE flows as computable functions (paper
Definition 7).
"""

from .system import ODESystem
from .integrators import (
    IntegrationError,
    Trajectory,
    rk4,
    rk4_batch,
    rk45,
    simulate,
)
from .enclosure import EnclosureError, ReachTube, TubeStep, flow_enclosure

__all__ = [
    "ODESystem",
    "Trajectory",
    "IntegrationError",
    "rk4",
    "rk4_batch",
    "rk45",
    "simulate",
    "ReachTube",
    "TubeStep",
    "flow_enclosure",
    "EnclosureError",
]
