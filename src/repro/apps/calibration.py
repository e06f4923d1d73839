"""Model calibration from time-series data (paper Section IV-A).

Parameter estimation of single-mode ODE models is encoded as an SMT
problem "in the style of BioPSy [53]": each experimental sample becomes
a band constraint ``x(t_i) in [lo_i, hi_i]``, and the delta-decision
procedure searches the parameter box for values under which the model
threads every band.

* ``delta-sat``: a parameter witness (the calibrated model) plus a box
  of parameters around it;
* ``unsat``: *no* parameter value in the box fits the data -- the model
  hypothesis is rejected (falsification, Section IV-A's FK result);
* paving mode returns the guaranteed parameter-set synthesis of BioPSy:
  inner (all-sat) boxes, outer (no-sat) boxes, and an undecided rest.

The flow constraints are discharged by validated enclosures, checkpoint
to checkpoint, exactly like the BMC layer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.intervals import Box, Interval
from repro.odes import EnclosureError, ODESystem, flow_enclosure, rk45
from repro.solver import Status
from repro.solver.depth_first import Fate, Search, depth_first, relative_split
from repro.solver.icp import check_at_least_one

__all__ = [
    "Checkpoint",
    "TimeSeriesData",
    "CalibrationResult",
    "SMTCalibrator",
]


@dataclass(frozen=True)
class Checkpoint:
    """A data band: at time ``t``, each named variable must lie in its
    interval."""

    t: float
    bands: Mapping[str, tuple[float, float]]


@dataclass
class TimeSeriesData:
    """Sorted checkpoint bands built from experimental samples."""

    checkpoints: list[Checkpoint]

    def __post_init__(self):
        self.checkpoints = sorted(self.checkpoints, key=lambda c: c.t)
        if self.checkpoints and self.checkpoints[0].t < 0:
            raise ValueError("checkpoint times must be nonnegative")

    @staticmethod
    def from_samples(
        samples: Sequence[tuple[float, Mapping[str, float]]],
        tolerance: float | Mapping[str, float] = 0.1,
        relative: bool = False,
    ) -> "TimeSeriesData":
        """Build bands from point samples with +/- tolerance.

        ``relative=True`` scales the tolerance by ``|value|``.
        """
        cps = []
        for t, values in samples:
            bands = {}
            for name, v in values.items():
                tol = tolerance[name] if isinstance(tolerance, Mapping) else tolerance
                half = abs(v) * tol if relative else tol
                bands[name] = (v - half, v + half)
            cps.append(Checkpoint(float(t), bands))
        return TimeSeriesData(cps)

    @property
    def horizon(self) -> float:
        """Time of the last checkpoint (0 without checkpoints)."""
        return self.checkpoints[-1].t if self.checkpoints else 0.0


@dataclass
class CalibrationResult:
    """Outcome of a calibration query.

    A delta-sat result carries a data-consistent valuation ``params``
    and the verified ``param_box`` around it; ``boxes_processed`` and
    ``wall_time`` describe the search.
    """

    status: Status
    params: dict[str, float] | None = None
    param_box: Box | None = None
    boxes_processed: int = 0
    wall_time: float = 0.0

    def __bool__(self) -> bool:
        return self.status is Status.DELTA_SAT


@dataclass
class SMTCalibrator:
    """SMT-style calibrator for single-mode ODE models.

    Parameters
    ----------
    system:
        The ODE model; parameters not in ``param_ranges`` stay at their
        defaults.
    data:
        The checkpoint bands.
    param_ranges:
        Search box over the unknown parameters.
    x0:
        Initial state (a point dict or a Box for uncertain initial
        conditions, which become search dimensions too).
    delta:
        Bands are delta-widened for the sat verification (one-sided
        guarantee as in Theorem 1).
    """

    system: ODESystem
    data: TimeSeriesData
    param_ranges: Mapping[str, tuple[float, float]]
    x0: Mapping[str, float] | Box = field(default_factory=dict)
    delta: float = 0.05
    max_boxes: int = 600
    enclosure_step: float = 0.05
    use_simulation_guidance: bool = True

    def __post_init__(self):
        unknown = set(self.param_ranges) - set(self.system.params)
        if unknown:
            raise ValueError(f"unknown parameters: {sorted(unknown)}")
        if not self.data.checkpoints:
            raise ValueError("no checkpoints")
        for cp in self.data.checkpoints:
            bad = set(cp.bands) - set(self.system.state_names)
            if bad:
                raise ValueError(f"checkpoint at t={cp.t} names non-states {sorted(bad)}")
        # "not > 0" also rejects NaN: a zero step never advances time
        if not self.enclosure_step > 0:
            raise ValueError(
                f"enclosure_step must be > 0, got {self.enclosure_step}"
            )
        check_at_least_one(max_boxes=self.max_boxes)

    # ------------------------------------------------------------------
    def _initial_state_box(self) -> Box:
        if isinstance(self.x0, Box):
            return self.x0.restrict(self.system.state_names)
        return Box.from_point({k: float(self.x0[k]) for k in self.system.state_names})

    def _propagate(self, param_box: Box, state_box: Box) -> Fate:
        """Enclosure propagation through all checkpoints."""
        t_prev = 0.0
        current = state_box
        all_ok = True
        pbox = param_box if len(param_box) else None
        for cp in self.data.checkpoints:
            duration = cp.t - t_prev
            tube = None
            if duration > 1e-12:
                try:
                    tube = flow_enclosure(
                        self.system, current, duration, pbox,
                        max_step=self.enclosure_step,
                    )
                    start = current
                    current = tube.final()
                except EnclosureError:
                    return Fate.UNKNOWN
            # band intersection (contraction) and judgment
            for name, (lo, hi) in cp.bands.items():
                iv = current[name]
                band = Interval(lo, hi)
                if not iv.overlaps(band):
                    return Fate.PRUNED
                if tube is not None and self._barrier_blocks(
                    name, start, band, tube, pbox
                ):
                    return Fate.PRUNED
                wide = Interval(lo - self.delta, hi + self.delta)
                if not wide.contains_interval(iv):
                    all_ok = False
                current = current.with_interval(name, iv.intersect(band))
            t_prev = cp.t
        return Fate.VERIFIED if all_ok else Fate.UNKNOWN

    def _barrier_blocks(
        self,
        name: str,
        start: Box,
        band: Interval,
        tube,
        param_box: Box | None,
    ) -> bool:
        """Monotonicity barrier: reaching the band requires crossing a
        level region with the right derivative sign.

        To climb from ``x <= a`` (the start hull) to ``x >= band.lo > a``
        a continuous trajectory must, at some time, have ``x in [a,
        band.lo]`` with ``dx/dt >= 0`` -- during which the other states
        lie inside the tube hull.  If the vector-field component is
        certainly negative on that region, the band is unreachable
        (symmetrically for descents).  This recovers the pruning power
        that scalar radius bounds lose on expanding modes.
        """
        hull = tube.whole()
        a_hi = start[name].hi
        a_lo = start[name].lo
        if band.lo > a_hi:  # ascent needed
            region = hull.with_interval(name, Interval(a_hi, band.lo))
            rate = self.system.eval_field_interval(region, param_box)[name]
            return rate.hi < 0.0
        if band.hi < a_lo:  # descent needed
            region = hull.with_interval(name, Interval(band.hi, a_lo))
            rate = self.system.eval_field_interval(region, param_box)[name]
            return rate.lo > 0.0
        return False

    def _simulate_fits(self, params: Mapping[str, float], x0: Mapping[str, float]) -> bool:
        """Concrete run: does the midpoint candidate thread all bands?"""
        try:
            traj = rk45(
                self.system, x0, (0.0, self.data.horizon + 1e-9),
                params=dict(params), rtol=1e-8, max_step=self.enclosure_step,
            )
        except Exception:
            return False
        for cp in self.data.checkpoints:
            state = traj.at(cp.t)
            for name, (lo, hi) in cp.bands.items():
                if not (lo <= state[name] <= hi):
                    return False
        return True

    # ------------------------------------------------------------------
    def _simulate_candidate(self, param_box: Box, x0: Mapping[str, float]) -> Box | None:
        """The point box at ``param_box``'s midpoint if a concrete run
        from ``x0`` threads every band and its enclosure verifies."""
        mid = param_box.midpoint()
        if not self._simulate_fits(mid, x0):
            return None
        cand = Box.from_point(mid)
        if self._propagate(cand, Box.from_point(x0)) is Fate.VERIFIED:
            return cand
        return None

    def _calibrate_impl(self) -> CalibrationResult:
        """Search the parameter box for a data-consistent valuation."""
        t0 = time.perf_counter()
        root = Box.from_bounds(dict(self.param_ranges))
        state_box = self._initial_state_box()
        x0 = state_box.midpoint()
        guided = self.use_simulation_guidance
        # the root midpoint is tried before the search, and only there
        pretried = guided and bool(root.names)

        def judge(pbox: Box) -> tuple[Fate, Box]:
            fate = self._propagate(pbox, state_box)
            if fate is Fate.UNKNOWN and guided and not (pretried and pbox is root):
                # try the box midpoint concretely before splitting
                cand = self._simulate_candidate(pbox, x0)
                if cand is not None:
                    return Fate.VERIFIED, cand
            return fate, pbox

        cand = self._simulate_candidate(root, x0) if pretried else None
        if cand is not None:
            search = Search(1, [cand], [], [])
        else:
            search = depth_first(
                root, judge, relative_split(root), self.max_boxes,
                ("calibrate", "branch-and-prune"),
            )
        box = search.verified[0] if search.verified else None
        mid = None if box is None else box.midpoint()
        return CalibrationResult(
            search.status, mid, box, search.processed, time.perf_counter() - t0
        )

    # ------------------------------------------------------------------
    def synthesize_region(
        self, min_width: float = 0.05
    ) -> tuple[list[Box], list[Box], list[Box]]:
        """BioPSy-style guaranteed parameter-set synthesis.

        Returns ``(sat_boxes, unsat_boxes, undecided)``: every point of
        a sat box delta-fits the data; no point of an unsat box fits.
        Boxes no wider than ``min_width`` stay undecided.
        """
        state_box = self._initial_state_box()
        search = depth_first(
            Box.from_bounds(dict(self.param_ranges)),
            lambda pbox: (self._propagate(pbox, state_box), pbox),
            lambda pbox: None if pbox.max_width() <= min_width else pbox.split(),
            self.max_boxes,
            ("calibrate", "paving"),
            pave=True,
        )
        return search.verified, search.pruned, search.undecided
