"""Tests for bounded reachability checking and parameter synthesis."""

import math

import pytest

from repro.bmc import BMCChecker, BMCOptions, BMCStatus, Path, ReachSpec, enumerate_paths
from repro.expr import var
from repro.hybrid import HybridAutomaton, Jump, Mode
from repro.intervals import Box
from repro.logic import And, in_range

x = var("x")
v = var("v")


def decay_automaton(k=1.0) -> HybridAutomaton:
    """Single mode: dx/dt = -k x from x(0) = 1."""
    return HybridAutomaton(
        ["x"],
        [Mode("m", {"x": -var("k") * x})],
        [],
        "m",
        Box.from_bounds({"x": (1.0, 1.0)}),
        params={"k": k},
    )


def two_mode_switch() -> HybridAutomaton:
    """Mode a: x decays; jump to b when x <= 0.5; mode b: x grows."""
    return HybridAutomaton(
        ["x"],
        [
            Mode("a", {"x": -x}),
            Mode("b", {"x": x}),
        ],
        [Jump("a", "b", guard=(x <= 0.5))],
        "a",
        Box.from_bounds({"x": (1.0, 1.0)}),
    )


class TestPathEnumeration:
    def test_single_mode(self):
        paths = list(enumerate_paths(decay_automaton(), max_jumps=3))
        assert len(paths) == 1
        assert paths[0].modes == ["m"]

    def test_two_mode(self):
        paths = list(enumerate_paths(two_mode_switch(), max_jumps=2))
        assert [p.modes for p in paths] == [["a"], ["a", "b"]]

    def test_goal_mode_filter(self):
        paths = list(enumerate_paths(two_mode_switch(), max_jumps=2, goal_mode="b"))
        assert [p.modes for p in paths] == [["a", "b"]]

    def test_shortest_first(self):
        h = HybridAutomaton(
            ["x"],
            [Mode("a", {"x": -x}), Mode("b", {"x": x})],
            [Jump("a", "b"), Jump("b", "a")],
            "a",
            Box.from_bounds({"x": (0, 1)}),
        )
        paths = list(enumerate_paths(h, max_jumps=4, goal_mode="a"))
        lengths = [len(p) for p in paths]
        assert lengths == sorted(lengths)

    def test_unknown_goal_mode(self):
        with pytest.raises(ValueError):
            list(enumerate_paths(decay_automaton(), 1, goal_mode="zz"))

    def test_bad_chain_rejected(self):
        h = two_mode_switch()
        with pytest.raises(ValueError, match="chain"):
            Path("b", [h.jumps[0]])

    def test_self_loop_control(self):
        h = HybridAutomaton(
            ["x"],
            [Mode("a", {"x": -x})],
            [Jump("a", "a")],
            "a",
            Box.from_bounds({"x": (0, 1)}),
        )
        with_loops = list(enumerate_paths(h, 2))
        without = list(enumerate_paths(h, 2, allow_self_loops=False))
        assert len(with_loops) == 3 and len(without) == 1


class TestSingleModeReachability:
    def test_reachable_level(self):
        h = decay_automaton()
        spec = ReachSpec(goal=in_range(x, 0.35, 0.40), max_jumps=0, time_bound=3.0)
        res = BMCChecker(h)._check_impl(spec)
        assert res.status is BMCStatus.DELTA_SAT
        # decay reaches 0.375 at t = ln(1/0.375) ~ 0.98
        assert res.witness_dwells[0] == pytest.approx(math.log(1 / 0.375), abs=0.1)

    def test_unreachable_level(self):
        h = decay_automaton()
        # x only decays from 1; it can never exceed 1.5
        spec = ReachSpec(goal=(x >= 1.5), max_jumps=0, time_bound=2.0)
        res = BMCChecker(h)._check_impl(spec)
        assert res.status is BMCStatus.UNSAT

    def test_unreachable_within_time_bound(self):
        h = decay_automaton()
        # x(t) = e^-t >= 0.1 requires t ~ 2.3 > bound 1.0
        spec = ReachSpec(goal=(0.05 - x >= 0), max_jumps=0, time_bound=1.0)
        res = BMCChecker(h)._check_impl(spec)
        assert res.status is BMCStatus.UNSAT

    def test_parameter_synthesis(self):
        h = decay_automaton()
        # find k such that x(1.0) ~ 0.2 => k = ln 5 ~ 1.609
        spec = ReachSpec(
            goal=And(in_range(x, 0.19, 0.21), in_range(var("t_marker") * 0 + x, 0.0, 1.0)),
            max_jumps=0,
            time_bound=1.0,
        )
        # simpler: x in [0.19, 0.21] reachable within t <= 1 requires k >= ln(1/0.21)
        spec = ReachSpec(goal=in_range(x, 0.19, 0.21), max_jumps=0, time_bound=1.0)
        res = BMCChecker(h)._check_impl(spec, param_ranges={"k": (0.1, 3.0)})
        assert res.status is BMCStatus.DELTA_SAT
        k = res.witness_params["k"]
        assert k >= math.log(1 / 0.21) - 0.1

    def test_parameter_synthesis_unsat(self):
        h = decay_automaton()
        # k in [0.1, 0.5]: x(t) >= e^{-0.5 * 1} ~ 0.606 for t <= 1;
        # asking for x <= 0.3 within 1 time unit is infeasible
        spec = ReachSpec(goal=(0.3 - x >= 0), max_jumps=0, time_bound=1.0)
        res = BMCChecker(h)._check_impl(spec, param_ranges={"k": (0.1, 0.5)})
        assert res.status is BMCStatus.UNSAT

    def test_unknown_param_rejected(self):
        h = decay_automaton()
        with pytest.raises(ValueError):
            BMCChecker(h)._check_impl(
                ReachSpec(goal=(x >= 0), max_jumps=0), param_ranges={"zz": (0, 1)}
            )


class TestMultiModeReachability:
    def test_two_mode_path_found(self):
        h = two_mode_switch()
        # after switching at x=0.5, growth can reach 0.8 again
        spec = ReachSpec(goal=(x >= 0.8), goal_mode="b", max_jumps=1, time_bound=3.0)
        res = BMCChecker(h)._check_impl(spec)
        assert res.status is BMCStatus.DELTA_SAT
        assert res.mode_path() == ["a", "b"]
        # dwell in mode a until x = 0.5: t = ln 2
        assert res.witness_dwells[0] >= math.log(2.0) - 0.05

    def test_goal_in_initial_mode_unreachable(self):
        h = two_mode_switch()
        # in mode a alone, x never grows above 1
        spec = ReachSpec(goal=(x >= 1.2), goal_mode="a", max_jumps=0, time_bound=3.0)
        res = BMCChecker(h)._check_impl(spec)
        assert res.status is BMCStatus.UNSAT

    def test_guard_blocks_path(self):
        # jump requires x >= 2 which decay never reaches
        h = HybridAutomaton(
            ["x"],
            [Mode("a", {"x": -x}), Mode("b", {"x": x})],
            [Jump("a", "b", guard=(x >= 2.0))],
            "a",
            Box.from_bounds({"x": (1.0, 1.0)}),
        )
        spec = ReachSpec(goal=(x >= 0.0), goal_mode="b", max_jumps=1, time_bound=3.0)
        res = BMCChecker(h)._check_impl(spec)
        assert res.status is BMCStatus.UNSAT

    def test_reset_applied(self):
        h = HybridAutomaton(
            ["x"],
            [Mode("a", {"x": -x}), Mode("b", {"x": 0.0 * x})],
            [Jump("a", "b", guard=(x <= 0.5), reset={"x": x + 10.0})],
            "a",
            Box.from_bounds({"x": (1.0, 1.0)}),
        )
        spec = ReachSpec(goal=(x >= 10.0), goal_mode="b", max_jumps=1, time_bound=3.0)
        res = BMCChecker(h)._check_impl(spec)
        assert res.status is BMCStatus.DELTA_SAT

    def test_invariant_prunes(self):
        # mode a has invariant x >= 0.8, guard needs x <= 0.5: unreachable
        h = HybridAutomaton(
            ["x"],
            [
                Mode("a", {"x": -x}, invariant=(x >= 0.8)),
                Mode("b", {"x": x}),
            ],
            [Jump("a", "b", guard=(x <= 0.5))],
            "a",
            Box.from_bounds({"x": (1.0, 1.0)}),
        )
        spec = ReachSpec(goal=(x >= 0.0), goal_mode="b", max_jumps=1, time_bound=3.0)
        res = BMCChecker(h)._check_impl(spec)
        assert res.status is BMCStatus.UNSAT

    def test_min_dwell_excludes_instant_jump(self):
        h = HybridAutomaton(
            ["x"],
            [Mode("a", {"x": -x}), Mode("b", {"x": x})],
            [Jump("a", "b", guard=(x <= 2.0))],  # enabled immediately
            "a",
            Box.from_bounds({"x": (1.0, 1.0)}),
        )
        spec = ReachSpec(goal=(x >= 0.9), goal_mode="b", max_jumps=1,
                         time_bound=2.0, min_dwell=0.0)
        res = BMCChecker(h)._check_impl(spec)
        assert res.status is BMCStatus.DELTA_SAT


class TestInitialStateSearch:
    def test_searches_initial_box(self):
        h = HybridAutomaton(
            ["x"],
            [Mode("m", {"x": -x})],
            [],
            "m",
            Box.from_bounds({"x": (0.5, 2.0)}),
        )
        # only initial states >= ~1.8 reach x >= 1.8 (at t=0)
        spec = ReachSpec(goal=(x >= 1.8), max_jumps=0, time_bound=1.0)
        res = BMCChecker(h)._check_impl(spec)
        assert res.status is BMCStatus.DELTA_SAT
        assert res.witness_x0["x"] >= 1.7

    def test_custom_init_box_overrides(self):
        h = decay_automaton()
        spec = ReachSpec(goal=(x >= 4.5), max_jumps=0, time_bound=1.0)
        res = BMCChecker(h)._check_impl(spec, init_box=Box.from_bounds({"x": (4.0, 5.0)}))
        assert res.status is BMCStatus.DELTA_SAT


class TestOptions:
    def test_without_simulation_guidance(self):
        h = decay_automaton()
        spec = ReachSpec(goal=in_range(x, 0.3, 0.5), max_jumps=0, time_bound=3.0)
        opt = BMCOptions(use_simulation_guidance=False, max_boxes_per_path=2000)
        res = BMCChecker(h, opt)._check_impl(spec)
        assert res.status is BMCStatus.DELTA_SAT

    def test_budget_exhaustion_unknown(self):
        h = decay_automaton()
        spec = ReachSpec(goal=in_range(x, 0.35, 0.351), max_jumps=0, time_bound=3.0)
        opt = BMCOptions(
            use_simulation_guidance=False, max_boxes_per_path=2, delta=1e-6,
        )
        res = BMCChecker(h, opt)._check_impl(spec)
        assert res.status in (BMCStatus.UNKNOWN, BMCStatus.DELTA_SAT)
