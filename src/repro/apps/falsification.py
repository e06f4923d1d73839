"""Model falsification (paper Section IV-A, the "unsat branch").

"If unsat is returned, the model is unfeasible, which means that the
model is unable to satisfy a desired behavior no matter which parameter
values are used.  This can be used to reject model hypotheses."

Three encodings, each behind a method of the ``falsify`` task of
:mod:`repro.api`:

* :func:`_falsify_with_data_impl` -- the calibration encoding: the
  model is rejected when *no* parameters in the given ranges thread the
  data bands (this is how the paper shows Fenton-Karma cannot reproduce
  the epicardial spike-and-dome morphology).
* :func:`_falsify_reachability_impl` -- the BMC encoding: the model is
  rejected when a behavioral goal region is unreachable for all
  parameter values within bounds.
* :func:`_falsify_ascent_impl` -- the barrier encoding: the model is
  rejected when no state in a level window can move in the required
  direction, so no trajectory crosses the window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from repro.bmc import BMCChecker, BMCOptions, ReachSpec
from repro.expr import var
from repro.hybrid import HybridAutomaton
from repro.intervals import Box
from repro.logic import Atom
from repro.odes import ODESystem
from repro.solver import DeltaSolver, Status

from .calibration import SMTCalibrator, TimeSeriesData

__all__ = ["FalsificationVerdict"]


@dataclass
class FalsificationVerdict:
    """Outcome of a falsification attempt.

    ``rejected=True`` carries the full one-sided guarantee: the desired
    behavior is infeasible for every parameter value in the ranges.
    ``rejected=False`` with a witness means the behavior was realized
    (model survives); ``rejected=False`` without a witness means the
    budget ran out (inconclusive).
    """

    rejected: bool
    conclusive: bool
    witness_params: dict[str, float] | None = None
    detail: str = ""
    boxes_processed: int = 0

    def __bool__(self) -> bool:
        return self.rejected


def _verdict(
    status: Status,
    boxes_processed: int,
    rejected: str,
    realized: Callable[[], tuple[dict[str, float] | None, str]],
) -> FalsificationVerdict:
    """The verdict on a search answer: UNSAT rejects the model (detail
    ``rejected``); DELTA_SAT keeps it, with the witness parameters and
    detail that ``realized()`` gives; UNKNOWN is inconclusive."""
    if status is Status.UNSAT:
        return FalsificationVerdict(True, True, None, rejected, boxes_processed)
    sat = status is Status.DELTA_SAT
    witness, detail = realized() if sat else (None, "budget exhausted (unknown)")
    return FalsificationVerdict(False, sat, witness, detail, boxes_processed)


def _falsify_with_data_impl(
    system: ODESystem,
    data: TimeSeriesData,
    param_ranges: Mapping[str, tuple[float, float]],
    x0: Mapping[str, float] | Box,
    delta: float = 0.05,
    max_boxes: int = 600,
    enclosure_step: float = 0.05,
) -> FalsificationVerdict:
    """Reject ``system`` if no parameters can reproduce ``data``."""
    calib = SMTCalibrator(
        system, data, param_ranges, x0,
        delta=delta, max_boxes=max_boxes, enclosure_step=enclosure_step,
    )
    res = calib._calibrate_impl()
    return _verdict(
        res.status, res.boxes_processed, "no parameter value fits the data bands",
        lambda: (res.params, "model reproduces the data (delta-sat witness found)"),
    )


def _falsify_reachability_impl(
    automaton: HybridAutomaton,
    spec: ReachSpec,
    param_ranges: Mapping[str, tuple[float, float]] | None = None,
    options: BMCOptions | None = None,
) -> FalsificationVerdict:
    """Reject ``automaton`` if the behavioral goal of ``spec`` is
    unreachable for every parameter value in ``param_ranges``.
    """
    res = BMCChecker(automaton, options)._check_impl(spec, param_ranges)
    return _verdict(
        res.status, res.boxes_processed,
        f"goal unreachable within k={spec.max_jumps}, M={spec.time_bound}",
        lambda: (res.witness_params, f"goal reached via {'->'.join(res.mode_path())}"),
    )


def _falsify_ascent_impl(
    system: ODESystem,
    variable: str,
    from_level: float,
    to_level: float,
    state_bounds: Mapping[str, tuple[float, float]],
    param_ranges: Mapping[str, tuple[float, float]] | None = None,
    *,
    solver: DeltaSolver,
) -> FalsificationVerdict:
    """Barrier falsification: can ``variable`` ever climb from
    ``from_level`` to ``to_level``?

    By the mean value theorem, a continuous trajectory ascending from
    ``variable <= from_level`` to ``variable >= to_level`` must pass
    through the region ``from_level <= variable <= to_level`` with a
    nonnegative derivative; the other states are constrained only by
    their physical bounds (e.g. gating variables in [0, 1]).  We ask the
    delta-decision procedure for such a point::

        exists x in bounds, p in ranges :
            from_level <= x_var <= to_level  and  f_var(x, p) >= 0

    **unsat** proves the ascent impossible for *every* parameter value
    -- a rigorous morphology falsification that needs no flow
    enclosures.  This is the encoding behind the paper's Fenton-Karma
    spike-and-dome result (Section IV-A): the FK voltage cannot re-rise
    through the dome window, for any parameters in physiological
    ranges.  ``delta-sat`` returns a state/parameter witness where the
    ascent is (delta-)possible.

    ``to_level < from_level`` checks the symmetric descent barrier.
    """
    if variable not in system.state_names:
        raise ValueError(f"unknown state variable {variable!r}")
    unknown = set(param_ranges or {}) - set(system.params)
    if unknown:
        raise ValueError(f"unknown parameters: {sorted(unknown)}")
    missing = set(system.state_names) - set(state_bounds)
    if missing:
        raise ValueError(f"state bounds missing for {sorted(missing)}")

    # inline parameters that are not searched
    searched = dict(param_ranges or {})
    fixed = [p for p in system.params if p not in searched]
    inlined = system.substitute_params(fixed) if fixed else system

    field = inlined.derivatives[variable]
    lo, hi = (from_level, to_level) if to_level >= from_level else (to_level, from_level)
    rate_atom = Atom(field, strict=False) if to_level >= from_level else Atom(-field, strict=False)
    passage = (var(variable) >= lo) & (var(variable) <= hi)
    query = passage & rate_atom

    dims = {k: tuple(v) for k, v in state_bounds.items()}
    dims[variable] = (lo, hi)
    dims.update(searched)
    box = Box.from_bounds(dims)

    result = solver._solve_impl(query, box)
    direction = "ascent" if to_level >= from_level else "descent"
    w = result.witness
    return _verdict(
        result.status, result.stats.boxes_processed,
        f"{direction} of {variable} from {from_level} to {to_level} "
        "is impossible for all parameters (barrier unsat)",
        lambda: (
            {p: w[p] for p in searched} or None,
            f"{direction} is delta-possible at {w}",
        ),
    )
