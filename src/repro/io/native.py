"""Native JSON serialization for ODE systems and hybrid automata.

A plain-text interchange format so models can be versioned, shared and
loaded without executing Python: expressions are stored as infix
strings (round-tripped through :func:`repro.expr.parse_expr`), formulas
as ``{"op": ..., ...}`` trees.
"""

from __future__ import annotations

import json
from typing import Any

from repro.expr import Expr, parse_expr
from repro.hybrid import HybridAutomaton, Jump, Mode
from repro.intervals import Box
from repro.logic import (
    FALSE,
    TRUE,
    And,
    Atom,
    FalseFormula,
    Formula,
    Or,
    TrueFormula,
)
from repro.odes import ODESystem

__all__ = [
    "formula_to_dict",
    "formula_from_dict",
    "ode_to_dict",
    "ode_from_dict",
    "hybrid_to_dict",
    "hybrid_from_dict",
    "dump_model",
    "load_model",
]


# ----------------------------------------------------------------------
# Formula <-> dict
# ----------------------------------------------------------------------


def formula_to_dict(phi: Formula) -> dict[str, Any]:
    """A quantifier-free formula as a JSON-ready dict (atoms as text)."""
    if isinstance(phi, TrueFormula):
        return {"op": "true"}
    if isinstance(phi, FalseFormula):
        return {"op": "false"}
    if isinstance(phi, Atom):
        return {"op": "atom", "term": str(phi.term), "strict": phi.strict}
    if isinstance(phi, And):
        return {"op": "and", "parts": [formula_to_dict(p) for p in phi.parts]}
    if isinstance(phi, Or):
        return {"op": "or", "parts": [formula_to_dict(p) for p in phi.parts]}
    raise TypeError(f"cannot serialize formula {type(phi).__name__}")


def formula_from_dict(d: dict[str, Any]) -> Formula:
    """The formula :func:`formula_to_dict` serialized."""
    op = d["op"]
    if op == "true":
        return TRUE
    if op == "false":
        return FALSE
    if op == "atom":
        return Atom(_parse(d["term"]), strict=bool(d["strict"]))
    if op == "and":
        return And(*[formula_from_dict(p) for p in d["parts"]])
    if op == "or":
        return Or(*[formula_from_dict(p) for p in d["parts"]])
    raise ValueError(f"unknown formula op {op!r}")


def _parse(text: str) -> Expr:
    # str(Expr) uses ^ for pow, which parse_expr accepts
    return parse_expr(text)


# ----------------------------------------------------------------------
# ODESystem <-> dict
# ----------------------------------------------------------------------


def ode_to_dict(system: ODESystem) -> dict[str, Any]:
    """An ODE system as a JSON-ready dict (right-hand sides as text)."""
    return {
        "type": "ode",
        "name": system.name,
        "derivatives": {k: str(e) for k, e in system.derivatives.items()},
        "params": dict(system.params),
    }


def ode_from_dict(d: dict[str, Any]) -> ODESystem:
    """The ODE system :func:`ode_to_dict` serialized."""
    if d.get("type") != "ode":
        raise ValueError(f"expected type 'ode', got {d.get('type')!r}")
    return ODESystem(
        {k: _parse(v) for k, v in d["derivatives"].items()},
        dict(d.get("params", {})),
        name=d.get("name", "ode"),
    )


# ----------------------------------------------------------------------
# HybridAutomaton <-> dict
# ----------------------------------------------------------------------


def hybrid_to_dict(automaton: HybridAutomaton) -> dict[str, Any]:
    """A hybrid automaton with a :class:`Box` initial set as a JSON-ready
    dict: modes, jumps, guards, resets and invariants."""
    if not isinstance(automaton.init, Box):
        raise TypeError("only Box initial sets are serializable")
    return {
        "type": "hybrid",
        "name": automaton.name,
        "variables": list(automaton.variables),
        "params": dict(automaton.params),
        "initial_mode": automaton.initial_mode,
        "init": {k: [iv.lo, iv.hi] for k, iv in automaton.init.items()},
        "modes": [
            {
                "name": m.name,
                "derivatives": {k: str(e) for k, e in m.derivatives.items()},
                "invariant": formula_to_dict(m.invariant),
            }
            for m in automaton.modes
        ],
        "jumps": [
            {
                "source": j.source,
                "target": j.target,
                "guard": formula_to_dict(j.guard),
                "reset": {k: str(e) for k, e in j.reset.items()},
            }
            for j in automaton.jumps
        ],
    }


def hybrid_from_dict(d: dict[str, Any]) -> HybridAutomaton:
    """The hybrid automaton :func:`hybrid_to_dict` serialized."""
    if d.get("type") != "hybrid":
        raise ValueError(f"expected type 'hybrid', got {d.get('type')!r}")
    modes = [
        Mode(
            m["name"],
            {k: _parse(v) for k, v in m["derivatives"].items()},
            invariant=formula_from_dict(m.get("invariant", {"op": "true"})),
        )
        for m in d["modes"]
    ]
    jumps = [
        Jump(
            j["source"],
            j["target"],
            guard=formula_from_dict(j.get("guard", {"op": "true"})),
            reset={k: _parse(v) for k, v in j.get("reset", {}).items()},
        )
        for j in d.get("jumps", [])
    ]
    init = Box.from_bounds({k: tuple(v) for k, v in d["init"].items()})
    return HybridAutomaton(
        list(d["variables"]),
        modes,
        jumps,
        d["initial_mode"],
        init,
        dict(d.get("params", {})),
        name=d.get("name", "hybrid"),
    )


# ----------------------------------------------------------------------
# File front door
# ----------------------------------------------------------------------


def dump_model(model: ODESystem | HybridAutomaton, path: str) -> None:
    """Write a model as JSON."""
    if isinstance(model, ODESystem):
        payload = ode_to_dict(model)
    elif isinstance(model, HybridAutomaton):
        payload = hybrid_to_dict(model)
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)


def load_model(path: str) -> ODESystem | HybridAutomaton:
    """Load a model written by :func:`dump_model`."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("type") == "ode":
        return ode_from_dict(payload)
    if payload.get("type") == "hybrid":
        return hybrid_from_dict(payload)
    raise ValueError(f"unknown model type {payload.get('type')!r}")
