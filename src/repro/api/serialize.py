"""Declarative query codec: JSON values <-> domain objects.

Task queries are plain dicts so scenarios can live in version-controlled
JSON files.  This module converts the recurring value shapes:

* **formulas** -- either the native ``{"op": ...}`` tree of
  :mod:`repro.io.native`, a comparison string (``"x >= 0.5"``,
  ``"x - y < 2"``), or a list of either (conjunction);
* **BLTL properties** -- ``{"op": "G"|"F"|"U"|"at"|"prop"|...}`` trees
  over formula leaves;
* **time-series data** -- ``{"samples": ...}`` or ``{"checkpoints":
  ...}`` for the calibration/pipeline tasks;
* **bounds** -- ``{"x": [lo, hi]}`` dicts for parameter ranges,
  regions and disturbances.
"""

from __future__ import annotations

import re
from typing import Any, Mapping, Sequence

from repro.apps import Checkpoint, TimeSeriesData
from repro.expr import parse_expr
from repro.io import formula_from_dict, formula_to_dict
from repro.logic import And, Atom, Formula
from repro.smc import (
    BLTL,
    Always,
    AndOp,
    At,
    Eventually,
    NotOp,
    OrOp,
    Prop,
    Until,
)

__all__ = [
    "formula_from_value",
    "formula_to_value",
    "bltl_from_value",
    "bltl_to_value",
    "timeseries_from_value",
    "timeseries_to_value",
    "bounds_from_value",
]


# ----------------------------------------------------------------------
# formulas
# ----------------------------------------------------------------------

_COMPARISON = re.compile(r"(.+?)(<=|>=|<|>)(.+)")


def _formula_from_str(text: str) -> Formula:
    """Parse ``"lhs OP rhs"`` into an L_RF atom (``t >= 0`` form)."""
    m = _COMPARISON.fullmatch(text.strip())
    if not m:
        raise ValueError(
            f"cannot parse formula string {text!r}; expected 'lhs <op> rhs' "
            "with <op> one of <=, >=, <, >"
        )
    lhs, op, rhs = (parse_expr(m.group(1)), m.group(2), parse_expr(m.group(3)))
    term = lhs - rhs if op in (">", ">=") else rhs - lhs
    return Atom(term, strict=op in ("<", ">"))


def formula_from_value(value: Any) -> Formula:
    """Build a formula from a dict tree, comparison string or list."""
    if isinstance(value, Formula):
        return value
    if isinstance(value, str):
        return _formula_from_str(value)
    if isinstance(value, Mapping):
        return formula_from_dict(dict(value))
    if isinstance(value, Sequence):
        return And(*[formula_from_value(v) for v in value])
    raise TypeError(f"cannot interpret {value!r} as a formula")


def formula_to_value(phi: Formula) -> dict[str, Any]:
    """Serialize a formula to its native dict tree."""
    return formula_to_dict(phi)


# ----------------------------------------------------------------------
# BLTL
# ----------------------------------------------------------------------


def bltl_from_value(value: Any) -> BLTL:
    """Build a BLTL property from its dict tree (formula leaves accept
    every form of :func:`formula_from_value`)."""
    if isinstance(value, BLTL):
        return value
    if isinstance(value, (str, list)):
        return Prop(formula_from_value(value))
    if not isinstance(value, Mapping):
        raise TypeError(f"cannot interpret {value!r} as a BLTL property")
    op = str(value.get("op", "")).lower()
    if op == "prop":
        return Prop(formula_from_value(value["formula"]))
    if op == "not":
        return NotOp(bltl_from_value(value["arg"]))
    if op == "and":
        left, right = value["args"]
        return AndOp(bltl_from_value(left), bltl_from_value(right))
    if op == "or":
        left, right = value["args"]
        return OrOp(bltl_from_value(left), bltl_from_value(right))
    if op in ("f", "eventually"):
        return Eventually(float(value["bound"]), bltl_from_value(value["arg"]))
    if op in ("g", "always"):
        return Always(float(value["bound"]), bltl_from_value(value["arg"]))
    if op in ("u", "until"):
        left, right = value["args"]
        return Until(
            float(value["bound"]), bltl_from_value(left), bltl_from_value(right)
        )
    if op == "at":
        return At(float(value["offset"]), bltl_from_value(value["arg"]))
    raise ValueError(f"unknown BLTL op {value.get('op')!r}")


def bltl_to_value(phi: BLTL) -> dict[str, Any]:
    """Serialize a BLTL property to its dict tree."""
    if isinstance(phi, Prop):
        return {"op": "prop", "formula": formula_to_value(phi.formula)}
    if isinstance(phi, NotOp):
        return {"op": "not", "arg": bltl_to_value(phi.arg)}
    if isinstance(phi, AndOp):
        return {"op": "and", "args": [bltl_to_value(phi.left), bltl_to_value(phi.right)]}
    if isinstance(phi, OrOp):
        return {"op": "or", "args": [bltl_to_value(phi.left), bltl_to_value(phi.right)]}
    if isinstance(phi, Eventually):
        return {"op": "F", "bound": phi.bound, "arg": bltl_to_value(phi.arg)}
    if isinstance(phi, Always):
        return {"op": "G", "bound": phi.bound, "arg": bltl_to_value(phi.arg)}
    if isinstance(phi, Until):
        return {
            "op": "U",
            "bound": phi.bound,
            "args": [bltl_to_value(phi.left), bltl_to_value(phi.right)],
        }
    if isinstance(phi, At):
        return {"op": "at", "offset": phi.offset, "arg": bltl_to_value(phi.arg)}
    raise TypeError(f"cannot serialize BLTL node {type(phi).__name__}")


# ----------------------------------------------------------------------
# time series
# ----------------------------------------------------------------------


def timeseries_from_value(value: Any) -> TimeSeriesData:
    """``{"samples": [[t, {var: val}], ...], "tolerance": ..}`` or
    ``{"checkpoints": [{"t": .., "bands": {var: [lo, hi]}}, ...]}``."""
    if isinstance(value, TimeSeriesData):
        return value
    if not isinstance(value, Mapping):
        raise TypeError(f"cannot interpret {value!r} as time-series data")
    if "samples" in value:
        samples = [(float(t), dict(vals)) for t, vals in value["samples"]]
        tol = value.get("tolerance", 0.1)
        tol = dict(tol) if isinstance(tol, Mapping) else float(tol)
        return TimeSeriesData.from_samples(
            samples, tolerance=tol, relative=bool(value.get("relative", False))
        )
    if "checkpoints" in value:
        return TimeSeriesData(
            [
                Checkpoint(
                    float(cp["t"]),
                    {k: (float(lo), float(hi)) for k, (lo, hi) in cp["bands"].items()},
                )
                for cp in value["checkpoints"]
            ]
        )
    raise ValueError("time-series value needs 'samples' or 'checkpoints'")


def timeseries_to_value(data: TimeSeriesData) -> dict[str, Any]:
    """Serialize time-series data to its checkpoint-band dict form."""
    return {
        "checkpoints": [
            {"t": cp.t, "bands": {k: [lo, hi] for k, (lo, hi) in cp.bands.items()}}
            for cp in data.checkpoints
        ]
    }


# ----------------------------------------------------------------------
# bounds
# ----------------------------------------------------------------------


def bounds_from_value(value: Any) -> dict[str, tuple[float, float]]:
    """``{"x": [lo, hi]}`` -> ``{"x": (lo, hi)}``; a bare number is a
    degenerate (point) interval."""
    if not isinstance(value, Mapping):
        raise TypeError(f"cannot interpret {value!r} as bounds")
    out: dict[str, tuple[float, float]] = {}
    for name, pair in value.items():
        if isinstance(pair, (int, float)):
            out[str(name)] = (float(pair), float(pair))
            continue
        try:
            lo, hi = pair
        except (TypeError, ValueError):
            raise ValueError(
                f"bound for {name!r} must be a number or a [lo, hi] pair, "
                f"got {pair!r}"
            ) from None
        out[str(name)] = (float(lo), float(hi))
    return out
