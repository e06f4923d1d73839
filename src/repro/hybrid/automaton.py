"""Hybrid automata with L_RF-representable components.

Implements the model class of paper Section III-B: a hybrid automaton
``H = <X, Q, flow, jump, inv, init>`` (Definition 6) where each mode's
flow is a symbolic ODE system, and guards, invariants, resets and
initial conditions are L_RF formulas/expressions over the continuous
variables and parameters.  Parameterization (Definition 12) falls out
naturally: parameters are free symbols shared by all components, and
the synthesis layers search over them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.expr import ExprLike, as_expr
from repro.intervals import Box
from repro.logic import TRUE, Formula
from repro.odes import ODESystem

__all__ = ["Mode", "Jump", "HybridAutomaton"]


@dataclass
class Mode:
    """A discrete control mode with its continuous dynamics.

    Parameters
    ----------
    name:
        Mode identifier (element of Q).
    derivatives:
        Vector field of the mode, mapping each state variable to its
        time derivative (the mode's ``flow`` predicate).
    invariant:
        Formula over states/parameters that must hold while the system
        dwells in this mode (``inv``); default unconstrained.
    """

    name: str
    derivatives: Mapping[str, ExprLike]
    invariant: Formula = TRUE

    def __post_init__(self):
        self.derivatives = {k: as_expr(v) for k, v in self.derivatives.items()}


@dataclass
class Jump:
    """A discrete transition (element of the ``jump`` relation).

    Parameters
    ----------
    source, target:
        Mode names.
    guard:
        Enabling condition over states/parameters; the transition may
        (urgent semantics: must) fire when it becomes true.
    reset:
        Mapping from state name to its post-jump value as an expression
        over the pre-jump states; unmentioned states are unchanged.
    """

    source: str
    target: str
    guard: Formula = TRUE
    reset: Mapping[str, ExprLike] = field(default_factory=dict)

    def __post_init__(self):
        self.reset = {k: as_expr(v) for k, v in self.reset.items()}

    def apply_reset(
        self, state: Mapping[str, float], params: Mapping[str, float]
    ) -> dict[str, float]:
        """Post-jump state: each reset expression evaluated on the
        pre-jump ``state`` and ``params``; other states are copied."""
        env = {**params, **state}
        out = dict(state)
        for k, e in self.reset.items():
            out[k] = e.eval(env)
        return out

    def __repr__(self) -> str:
        return f"Jump({self.source} -> {self.target}, guard={self.guard})"


@dataclass
class HybridAutomaton:
    """``H = <X, Q, flow, jump, inv, init>`` with symbolic components.

    Parameters
    ----------
    variables:
        Names of the continuous state variables (dimension of X).
    modes:
        The discrete modes Q with their flows and invariants.
    jumps:
        The discrete transitions.
    initial_mode:
        q0 (the paper assumes a unique initial mode).
    init:
        Either a :class:`Box` over the state variables or a
        :class:`Formula`; describes ``init_q0``.
    params:
        Default values of the shared parameters; synthesis layers
        treat a chosen subset as unknowns.
    name:
        Human-readable model name.
    """

    variables: list[str]
    modes: list[Mode]
    jumps: list[Jump]
    initial_mode: str
    init: Box | Formula
    params: Mapping[str, float] = field(default_factory=dict)
    name: str = "hybrid"

    def __post_init__(self):
        self.params = dict(self.params)
        self._mode_map = {m.name: m for m in self.modes}
        self._systems: dict[str, ODESystem] = {}
        if len(self._mode_map) != len(self.modes):
            raise ValueError("duplicate mode names")
        if self.initial_mode not in self._mode_map:
            raise ValueError(f"unknown initial mode {self.initial_mode!r}")
        states = set(self.variables)
        clash = states & set(self.params)
        if clash:
            raise ValueError(f"names used as both state and parameter: {sorted(clash)}")
        for m in self.modes:
            if set(m.derivatives) != states:
                raise ValueError(
                    f"mode {m.name!r} derivatives cover {sorted(m.derivatives)}, "
                    f"expected {sorted(states)}"
                )
            self._check_symbols(m.invariant.variables(), f"invariant of {m.name!r}")
            for k, e in m.derivatives.items():
                self._check_symbols(e.variables(), f"flow of {m.name!r}.{k}")
        for j in self.jumps:
            if j.source not in self._mode_map or j.target not in self._mode_map:
                raise ValueError(f"jump references unknown mode: {j}")
            self._check_symbols(j.guard.variables(), f"guard {j.source}->{j.target}")
            for k, e in j.reset.items():
                if k not in states:
                    raise ValueError(f"reset of unknown variable {k!r}")
                self._check_symbols(e.variables(), f"reset {j.source}->{j.target}.{k}")

    def _check_symbols(self, symbols: frozenset[str], where: str) -> None:
        unknown = symbols - set(self.variables) - set(self.params) - {"t"}
        if unknown:
            raise ValueError(f"{where} mentions unbound symbols {sorted(unknown)}")

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def mode(self, name: str) -> Mode:
        """The mode called ``name``; raises ``KeyError`` if there is none."""
        return self._mode_map[name]

    @property
    def mode_names(self) -> list[str]:
        """Mode names, in declaration order."""
        return [m.name for m in self.modes]

    def jumps_from(self, mode_name: str) -> list[Jump]:
        """The jumps whose source is ``mode_name``, in declaration order."""
        return [j for j in self.jumps if j.source == mode_name]

    def mode_system(self, mode_name: str) -> ODESystem:
        """The mode's flow as an :class:`ODESystem` (params inherited).

        One system per mode is kept, so its vector field compiles once
        per automaton; its ``params`` are refreshed in place to the
        automaton's current ones on every call.  Code that caches work
        per system must therefore read ``params`` at use time, as
        :func:`repro.odes.flow_enclosure` keys its tube table by them.
        """
        system = self._systems.get(mode_name)
        if system is None:
            m = self._mode_map[mode_name]
            system = ODESystem(m.derivatives, self.params, name=f"{self.name}.{mode_name}")
            self._systems[mode_name] = system
        elif system.params != self.params:
            system.params = dict(self.params)
        return system

    def initial_box(self) -> Box:
        """The initial set as a box (requires ``init`` to be a Box)."""
        if isinstance(self.init, Box):
            return self.init
        raise TypeError("init is a formula; use init_formula() instead")

    def init_formula(self) -> Formula:
        """The initial set as a formula over the state variables."""
        if isinstance(self.init, Box):
            from repro.logic import box_formula

            return box_formula(self.init)
        return self.init

    # ------------------------------------------------------------------
    # Transformation
    # ------------------------------------------------------------------
    def with_params(self, **overrides: float) -> "HybridAutomaton":
        """Copy with some default parameters replaced; an unknown name
        raises ``KeyError``."""
        unknown = set(overrides) - set(self.params)
        if unknown:
            raise KeyError(f"unknown parameters: {sorted(unknown)}")
        return HybridAutomaton(
            list(self.variables),
            self.modes,
            self.jumps,
            self.initial_mode,
            self.init,
            {**self.params, **overrides},
            name=self.name,
        )

    def single_mode(self) -> ODESystem | None:
        """If |Q| == 1, the automaton degenerates to a plain ODE system."""
        if len(self.modes) == 1:
            return self.mode_system(self.modes[0].name)
        return None

    def __getstate__(self) -> dict:
        # compiled vector fields do not pickle; copies recompile on demand
        return {**self.__dict__, "_systems": {}}

    def __repr__(self) -> str:
        return (
            f"HybridAutomaton({self.name!r}, |Q|={len(self.modes)}, "
            f"dim={len(self.variables)}, jumps={len(self.jumps)})"
        )
