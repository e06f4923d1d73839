"""Ablation benchmarks for the design choices called out in DESIGN.md.

* enclosure method: logarithmic-norm (our default) vs direct interval
  Taylor -- the substitution that makes long-horizon biology models
  tractable;
* simulation guidance in the BMC search: on vs off;
* contraction in the solver: HC4 fixed-point vs pure bisection.
"""

import pytest

from repro.bmc import BMCChecker, BMCOptions, ReachSpec
from repro.expr import exp, var, variables
from repro.intervals import Box
from repro.logic import And, equals_within, in_range
from repro.models import logistic
from repro.odes import EnclosureError, flow_enclosure
from repro.solver import DeltaSolver, Status

x, y = variables("x y")


class TestEnclosureMethodAblation:
    """Lognorm vs Taylor on a stable long-horizon flow."""

    @pytest.mark.parametrize("method", ["lognorm", "taylor"])
    def test_logistic_horizon(self, benchmark, method):
        sys_ = logistic(r=0.8, K=8.0)

        def run():
            try:
                tube = flow_enclosure(
                    sys_, Box.from_point({"x": 0.5}), 10.0,
                    max_step=0.1, method=method, max_growth=1e6,
                )
                return tube.final()["x"].width()
            except EnclosureError:
                return float("inf")

        width = benchmark(run)
        if method == "lognorm":
            # contracts to a tight endpoint
            assert width < 0.1
        else:
            # direct Taylor wraps catastrophically on this horizon
            assert width > 1.0

    def test_taylor_wins_short_horizon_box(self, benchmark):
        """For wide boxes over short horizons, Taylor's per-dim boxes
        can beat the norm-ball representation."""
        sys_ = logistic(r=0.8, K=8.0)
        start = Box.from_bounds({"x": (0.4, 0.6)})

        def run():
            w_t = flow_enclosure(sys_, start, 0.3, max_step=0.05,
                                 method="taylor").final()["x"].width()
            w_l = flow_enclosure(sys_, start, 0.3, max_step=0.05,
                                 method="lognorm").final()["x"].width()
            return w_t, w_l

        w_t, w_l = benchmark(run)
        # both stay sound and within 3x of each other here
        assert w_t < 3 * w_l and w_l < 3 * w_t


class TestSimulationGuidanceAblation:
    @pytest.mark.parametrize("guided", [True, False])
    def test_bmc_sat_instance(self, benchmark, guided):
        from repro.models import thermostat

        h = thermostat()
        spec = ReachSpec(goal=in_range(var("x"), 18.5, 21.5), goal_mode="on",
                         max_jumps=1, time_bound=3.0)
        opt = BMCOptions(
            enclosure_step=0.1, max_boxes_per_path=400,
            use_simulation_guidance=guided,
        )
        res = benchmark(lambda: BMCChecker(h, opt)._check_impl(spec))
        assert res.status is Status.DELTA_SAT
        if guided:
            assert res.boxes_processed <= 5  # candidate verified directly


class TestContractionAblation:
    @pytest.mark.parametrize("tol", [1e-2, 0.5])
    def test_contraction_strength(self, benchmark, tol):
        """Weak contraction (high tol) forces more splitting."""
        phi = And(
            equals_within(exp(x) - y, 0.0, 1e-3),
            equals_within(x + y, 2.0, 1e-3),
        )
        box = Box.from_bounds({"x": (-2, 2), "y": (0, 8)})
        solver = DeltaSolver(delta=1e-3, contract_tol=tol)
        res = benchmark(lambda: solver._solve_impl(phi, box))
        assert res.status is Status.DELTA_SAT
