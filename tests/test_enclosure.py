"""Tests for validated flow enclosures (Picard + interval Taylor)."""

import math

import pytest

from repro.expr import var
from repro.intervals import Box, Interval
from repro.odes import EnclosureError, ODESystem, flow_enclosure, rk45


@pytest.fixture
def decay():
    return ODESystem({"x": -var("x")}, name="decay")


@pytest.fixture
def logistic():
    r, K = var("r"), var("K")
    xx = var("x")
    return ODESystem({"x": r * xx * (1 - xx / K)}, {"r": 1.0, "K": 2.0})


class TestBasicSoundness:
    def test_contains_true_solution_decay(self, decay):
        tube = flow_enclosure(decay, {"x": (1.0, 1.0)}, duration=1.0, max_step=0.05)
        final = tube.final()
        assert final["x"].contains(math.exp(-1.0))

    def test_contains_solutions_from_box(self, decay):
        tube = flow_enclosure(decay, {"x": (0.8, 1.2)}, duration=1.0, max_step=0.05)
        final = tube.final()
        for x0 in (0.8, 1.0, 1.2):
            assert final["x"].contains(x0 * math.exp(-1.0))

    def test_whole_tube_contains_trajectory(self, logistic):
        tube = flow_enclosure(logistic, {"x": (0.5, 0.5)}, duration=2.0, max_step=0.05)
        traj = rk45(logistic, {"x": 0.5}, (0.0, 2.0), rtol=1e-10)
        for step in tube.steps:
            mid_t = step.time.midpoint()
            assert step.enclosure["x"].contains(traj.value("x", mid_t))

    def test_param_box_uncertainty(self, decay):
        # make the decay rate symbolic via a parameterized copy
        k = var("k")
        sys_ = ODESystem({"x": -k * var("x")}, {"k": 1.0})
        tube = flow_enclosure(
            sys_,
            {"x": (1.0, 1.0)},
            duration=1.0,
            param_box=Box.from_bounds({"k": (0.5, 1.5)}),
            max_step=0.05,
        )
        final = tube.final()
        for kv in (0.5, 1.0, 1.5):
            assert final["x"].contains(math.exp(-kv))

    def test_oscillator_both_orders(self):
        sys_ = ODESystem({"x": var("v"), "v": -var("x")})
        for order in (1, 2):
            tube = flow_enclosure(
                sys_, {"x": (1.0, 1.0), "v": (0.0, 0.0)}, duration=1.0,
                max_step=0.02, order=order,
            )
            final = tube.final()
            assert final["x"].contains(math.cos(1.0))
            assert final["v"].contains(-math.sin(1.0))

    def test_second_order_tighter(self, decay):
        t1 = flow_enclosure(decay, {"x": (1.0, 1.0)}, duration=0.5, max_step=0.05, order=1)
        t2 = flow_enclosure(decay, {"x": (1.0, 1.0)}, duration=0.5, max_step=0.05, order=2)
        assert t2.final()["x"].width() <= t1.final()["x"].width()


class TestTubeQueries:
    def test_enclosure_over_window(self, decay):
        tube = flow_enclosure(decay, {"x": (1.0, 1.0)}, duration=1.0, max_step=0.1)
        mid = tube.enclosure_over(Interval(0.4, 0.6))
        assert mid is not None
        assert mid["x"].contains(math.exp(-0.5))

    def test_enclosure_over_disjoint_window(self, decay):
        tube = flow_enclosure(decay, {"x": (1.0, 1.0)}, duration=1.0, max_step=0.1)
        assert tube.enclosure_over(Interval(5.0, 6.0)) is None

    def test_t_end(self, decay):
        tube = flow_enclosure(decay, {"x": (1.0, 1.0)}, duration=0.7, max_step=0.1)
        assert tube.t_end == pytest.approx(0.7)

    def test_whole_hull(self, decay):
        tube = flow_enclosure(decay, {"x": (1.0, 1.0)}, duration=1.0, max_step=0.1)
        whole = tube.whole()
        assert whole["x"].contains(1.0) and whole["x"].contains(math.exp(-1.0))


class TestFailureModes:
    def test_missing_dimension_rejected(self, decay):
        with pytest.raises(ValueError, match="misses state"):
            flow_enclosure(decay, Box.from_bounds({"y": (0, 1)}), duration=1.0)

    def test_blowup_guard(self):
        # x' = x^2 from x=5 blows up at t = 0.2
        sys_ = ODESystem({"x": var("x") * var("x")})
        with pytest.raises(EnclosureError):
            flow_enclosure(sys_, {"x": (5.0, 5.0)}, duration=1.0, max_step=0.05,
                           max_growth=100.0)

    @pytest.mark.parametrize("method", ["lognorm", "taylor"])
    @pytest.mark.parametrize("step", [0.0, -0.05, float("nan")])
    def test_non_positive_max_step_rejected(self, decay, method, step):
        # a zero step never advances t: both loops would spin forever
        with pytest.raises(ValueError, match="max_step must be positive"):
            flow_enclosure(decay, {"x": (1.0, 1.0)}, duration=1.0,
                           max_step=step, method=method)

    def test_extra_dimensions_ignored(self, decay):
        tube = flow_enclosure(
            decay, Box.from_bounds({"x": (1.0, 1.0), "unused": (0, 1)}), duration=0.2
        )
        assert tube.names == ["x"]
