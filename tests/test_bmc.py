"""Tests for bounded reachability checking and parameter synthesis."""

import dataclasses
import hashlib
import json
import math
import threading

import pytest

from repro.bmc import BMCChecker, BMCOptions, Path, ReachSpec, enumerate_paths
from repro.expr import var
from repro.hybrid import HybridAutomaton, Jump, Mode
from repro.intervals import Box, Interval
from repro.logic import And, in_range
from repro.odes import flow_enclosure
from repro.progress import JobCancelled, progress_scope
from repro.solver import Certainty, Status
from repro.solver.depth_first import Fate
from repro.solver.eval3 import _eval_formula_impl

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
        assert res.status is Status.DELTA_SAT
        # decay reaches 0.375 at t = ln(1/0.375) ~ 0.98
        assert res.witness_dwells[0] == pytest.approx(math.log(1 / 0.375), abs=0.1)

    def test_unreachable_level(self):
        h = decay_automaton()
        # x only decays from 1; it can never exceed 1.5
        spec = ReachSpec(goal=(x >= 1.5), max_jumps=0, time_bound=2.0)
        res = BMCChecker(h)._check_impl(spec)
        assert res.status is Status.UNSAT

    def test_unreachable_within_time_bound(self):
        h = decay_automaton()
        # x(t) = e^-t >= 0.1 requires t ~ 2.3 > bound 1.0
        spec = ReachSpec(goal=(0.05 - x >= 0), max_jumps=0, time_bound=1.0)
        res = BMCChecker(h)._check_impl(spec)
        assert res.status is Status.UNSAT

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
        assert res.status is Status.DELTA_SAT
        k = res.witness_params["k"]
        assert k >= math.log(1 / 0.21) - 0.1

    def test_parameter_synthesis_unsat(self):
        h = decay_automaton()
        # k in [0.1, 0.5]: x(t) >= e^{-0.5 * 1} ~ 0.606 for t <= 1;
        # asking for x <= 0.3 within 1 time unit is infeasible
        spec = ReachSpec(goal=(0.3 - x >= 0), max_jumps=0, time_bound=1.0)
        res = BMCChecker(h)._check_impl(spec, param_ranges={"k": (0.1, 0.5)})
        assert res.status is Status.UNSAT

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
        assert res.status is Status.DELTA_SAT
        assert res.mode_path() == ["a", "b"]
        # dwell in mode a until x = 0.5: t = ln 2
        assert res.witness_dwells[0] >= math.log(2.0) - 0.05

    def test_goal_in_initial_mode_unreachable(self):
        h = two_mode_switch()
        # in mode a alone, x never grows above 1
        spec = ReachSpec(goal=(x >= 1.2), goal_mode="a", max_jumps=0, time_bound=3.0)
        res = BMCChecker(h)._check_impl(spec)
        assert res.status is Status.UNSAT

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
        assert res.status is Status.UNSAT

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
        assert res.status is Status.DELTA_SAT

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
        assert res.status is Status.UNSAT

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
        assert res.status is Status.DELTA_SAT


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
        assert res.status is Status.DELTA_SAT
        assert res.witness_x0["x"] >= 1.7

    def test_custom_init_box_overrides(self):
        h = decay_automaton()
        spec = ReachSpec(goal=(x >= 4.5), max_jumps=0, time_bound=1.0)
        res = BMCChecker(h)._check_impl(spec, init_box=Box.from_bounds({"x": (4.0, 5.0)}))
        assert res.status is Status.DELTA_SAT


class TestOptions:
    def test_without_simulation_guidance(self):
        h = decay_automaton()
        spec = ReachSpec(goal=in_range(x, 0.3, 0.5), max_jumps=0, time_bound=3.0)
        opt = BMCOptions(use_simulation_guidance=False, max_boxes_per_path=2000)
        res = BMCChecker(h, opt)._check_impl(spec)
        assert res.status is Status.DELTA_SAT

    def test_budget_exhaustion_unknown(self):
        h = decay_automaton()
        spec = ReachSpec(goal=in_range(x, 0.35, 0.351), max_jumps=0, time_bound=3.0)
        opt = BMCOptions(
            use_simulation_guidance=False, max_boxes_per_path=2, delta=1e-6,
        )
        res = BMCChecker(h, opt)._check_impl(spec)
        assert res.status in (Status.UNKNOWN, Status.DELTA_SAT)

    def test_non_positive_budget_rejected(self):
        for budget in (0, -1):
            with pytest.raises(
                ValueError, match=f"max_boxes_per_path must be >= 1, got {budget}"
            ):
                BMCOptions(max_boxes_per_path=budget)

    def test_path_search_cancels_at_first_box(self):
        # the path search passes the ("bmc", "branch-and-prune")
        # checkpoint before judging each box
        checker = BMCChecker(decay_automaton(), BMCOptions(use_simulation_guidance=False))
        judged = []
        checker._propagate = lambda *args, **kw: judged.append(args)
        cancel = threading.Event()
        cancel.set()
        spec = ReachSpec(goal=in_range(x, 0.3, 0.5), max_jumps=0, time_bound=3.0)
        with progress_scope(cancel=cancel):
            with pytest.raises(JobCancelled, match="bmc/branch-and-prune"):
                checker._check_impl(spec)
        assert judged == []


# ----------------------------------------------------------------------
# Pinned results: digests taken before BMC moved onto compiled tapes
# ----------------------------------------------------------------------


def _report_digest(report) -> str:
    """sha256 of an engine report's ``to_dict()`` without ``wall_time``."""
    d = report.to_dict()
    d.pop("wall_time")
    blob = json.dumps(d, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _result_digest(res) -> str:
    """sha256 of a :class:`BMCResult` without ``wall_time``."""
    d = {
        "status": res.status.value,
        "path": res.mode_path(),
        "params": res.witness_params,
        "x0": res.witness_x0,
        "dwells": res.witness_dwells,
        "boxes": res.boxes_processed,
        "paths": res.paths_explored,
    }
    blob = json.dumps(d, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


#: (scenario, use_simulation_guidance) -> report digest.  Without
#: guidance the reach scenarios run branch and prune (guard contraction,
#: splitting) instead of verifying one simulated candidate.
PINNED_SCENARIOS = {
    ("thermostat-reach", True):
        "ea8f6f568931d9ce49cb2584c6591d98bcc98ee41902cd89ff6e0d48fba3f4f0",
    ("tbi-plan", True):
        "f3ca411271f8b1035e114445da6e8e0c24398cdc0b135c61c467fdb75c676c5d",
    ("cardiac-subthreshold-robustness", True):
        "add8f15012f2c642ba471151a0001fb8ae1a7b4e5e65eb2c50409b2bc5b24969",
    ("sw-s2020-00-reach", True):
        "84fb26c9ddb2ea1af62e769e2597c07ac0d15c9453900fb42403a0e816dd81ea",
    ("sw-s2020-01-safe", True):
        "448290faeaf336a6088594842bc5dd57c4666b4566f1493061640de39b819590",
    ("thermostat-reach", False):
        "a5fb7e58b744517496028045b7d8db731489ffd4f5b3f5df1fd031bc98194314",
    ("sw-s2020-00-reach", False):
        "5b0702f352dda2ed009f94c2d2c0afa9b0d398cedd81a040fca733268a207de8",
}


@pytest.mark.parametrize(
    "name,guided", list(PINNED_SCENARIOS),
    ids=[f"{n}-{'guided' if g else 'split'}" for n, g in PINNED_SCENARIOS],
)
def test_pinned_scenario_reports(name, guided):
    from repro.api import Engine
    from repro.scenarios import get_scenario

    spec = get_scenario(name).spec()
    if not guided:
        spec = spec.replace(solver=dataclasses.replace(
            spec.solver, use_simulation_guidance=False, max_boxes=60,
        ))
    with Engine(seed=0) as engine:
        digest = _report_digest(engine.run(spec))
    assert digest == PINNED_SCENARIOS[(name, guided)]


def _leaky_tank() -> HybridAutomaton:
    """x drains in mode a (invariant x >= c_inv) and refills in mode b
    once the parametric guard x <= c fires."""
    c = var("c")
    return HybridAutomaton(
        ["x"],
        [
            Mode("a", {"x": -x}, invariant=(x - var("c_inv") >= 0)),
            Mode("b", {"x": 0.5 * x}),
        ],
        [Jump("a", "b", guard=(c - x >= 0), reset={"x": x + 0.1})],
        "a",
        Box.from_bounds({"x": (0.9, 1.0)}),
        params={"c": 0.5, "c_inv": 0.3},
    )


def _pinned_toy_runs():
    """(id, thunk) pairs of unguided BMC runs on small automata."""
    no_sim = dict(use_simulation_guidance=False)
    yield "decay-window", lambda: BMCChecker(
        decay_automaton(), BMCOptions(max_boxes_per_path=2000, **no_sim)
    )._check_impl(ReachSpec(goal=in_range(x, 0.3, 0.5), max_jumps=0, time_bound=3.0))
    yield "decay-synthesis", lambda: BMCChecker(
        decay_automaton(), BMCOptions(**no_sim)
    )._check_impl(
        ReachSpec(goal=in_range(x, 0.19, 0.21), max_jumps=0, time_bound=1.0),
        param_ranges={"k": (0.1, 3.0)},
    )
    yield "decay-synthesis-unsat", lambda: BMCChecker(
        decay_automaton(), BMCOptions(**no_sim)
    )._check_impl(
        ReachSpec(goal=(0.3 - x >= 0), max_jumps=0, time_bound=1.0),
        param_ranges={"k": (0.1, 0.5)},
    )
    yield "two-mode", lambda: BMCChecker(
        two_mode_switch(), BMCOptions(**no_sim)
    )._check_impl(ReachSpec(goal=(x >= 0.8), goal_mode="b", max_jumps=1, time_bound=3.0))
    yield "tank-guard-synthesis", lambda: BMCChecker(
        _leaky_tank(), BMCOptions(max_boxes_per_path=150, **no_sim)
    )._check_impl(
        ReachSpec(goal=(x >= 0.7), goal_mode="b", max_jumps=1, time_bound=2.0),
        param_ranges={"c": (0.2, 0.8)},
    )
    yield "tank-invariant-blocks", lambda: BMCChecker(
        _leaky_tank(), BMCOptions(max_boxes_per_path=150, **no_sim)
    )._check_impl(
        ReachSpec(goal=(x >= 0.7), goal_mode="b", max_jumps=1, time_bound=2.0),
        param_ranges={"c": (0.05, 0.25)},
    )
    yield "tank-guided", lambda: BMCChecker(_leaky_tank())._check_impl(
        ReachSpec(goal=(x >= 0.7), goal_mode="b", max_jumps=1, time_bound=2.0),
        param_ranges={"c": (0.2, 0.8)},
    )


PINNED_TOY_RUNS = {
    "decay-window":
        "29db066064ff6f5e5c88e2f4bd0a6571673048aaa240de5f3a5fe24b09228186",
    "decay-synthesis":
        "28606e23374756a5efefe99f3e21f657711ae22bdf394f85f3a94921310475ff",
    "decay-synthesis-unsat":
        "71ef53778bfacb6cb3423fbdf545c5788c4350b6afa93145b594975d753991b5",
    "two-mode":
        "14b72c975b89ac34ec0db13f78f35d9b32af1dc7061ccd3a549afb51d1e5e3a9",
    "tank-guard-synthesis":
        "c2547597c7da873d6457db504a25ac1b9fcf78943c93e5e7430f442adcf619a2",
    "tank-invariant-blocks":
        "2a19d3a030daf15d7501e5d1561cdcbb2fdea0c6d12997d3a1b5d44ebed5307d",
    "tank-guided":
        "2caf83253189d3c2b0ab60eda2b408224c2c5fd91099f51b94f50d868b0e2e18",
}


@pytest.mark.parametrize("run_id", list(PINNED_TOY_RUNS))
def test_pinned_toy_runs(run_id):
    run = dict(_pinned_toy_runs())[run_id]
    assert _result_digest(run()) == PINNED_TOY_RUNS[run_id]


class TestBatchedInvariant:
    """``_check_invariant`` judges the steps of both tubes in one batched
    pass; it must agree with the per-step scalar loop it replaced."""

    @staticmethod
    def _per_step(checker, inv, tube_a, tube_b, dwell, param_box) -> Fate:
        delta_ok = True
        for tube, offset in ((tube_a, 0.0), (tube_b, dwell.lo)):
            for step in tube.steps:
                env = checker._env(step.enclosure, param_box)
                if _eval_formula_impl(inv, env) is Certainty.CERTAIN_FALSE:
                    t_violate = offset + step.time.lo
                    if t_violate <= dwell.lo + 1e-12:
                        return Fate.PRUNED
                    return Fate.UNKNOWN
                c = _eval_formula_impl(inv, env, checker.options.delta)
                if c is not Certainty.CERTAIN_TRUE:
                    delta_ok = False
        return Fate.VERIFIED if delta_ok else Fate.UNKNOWN

    @staticmethod
    def _tubes(checker, dwell, param_box):
        system = checker.automaton.mode_system("m")
        start = checker.automaton.initial_box()
        tube_a = checker._enclose(system, start, dwell.lo, param_box)
        entry = tube_a.final() if tube_a.steps else start
        tube_b = flow_enclosure(
            system, entry, max(dwell.width(), 1e-9), param_box,
            max_step=checker.options.enclosure_step, max_growth=1e4,
        )
        return tube_a, tube_b

    @staticmethod
    def _case_id(val):
        # Keeps the case names these tests had when the verdict enum was
        # private to reach.py, so a case's history stays under one name.
        if isinstance(val, Fate):
            return f"_Judgment.{val.name}"
        return None

    @pytest.mark.parametrize(
        "inv,dwell,params,expected",
        [
            # certainly false before the earliest exit
            (x >= 0.8, (1.0, 2.0), None, Fate.PRUNED),
            # certainly false only after some feasible exits
            (x >= 0.8, (0.0, 2.0), None, Fate.UNKNOWN),
            (x >= 0.4, (0.3, 2.0), None, Fate.UNKNOWN),
            # never false, but not delta-true on any step / on the late steps
            (x >= 0.7, (0.0, 0.2), None, Fate.UNKNOWN),
            (x >= 0.45, (0.2, 0.6), None, Fate.UNKNOWN),
            (x >= 0.01, (0.5, 1.0), None, Fate.VERIFIED),
            (x >= 0.01, (0.0, 0.0), None, Fate.VERIFIED),
            (x - 0.2 * var("k") >= 0, (0.2, 0.6), (0.9, 1.1), Fate.VERIFIED),
            (x - 0.6 * var("k") >= 0, (1.0, 1.5), (0.9, 1.1), Fate.PRUNED),
        ],
        ids=_case_id,
    )
    def test_matches_per_step_loop(self, inv, dwell, params, expected):
        h = HybridAutomaton(
            ["x"], [Mode("m", {"x": -var("k") * x}, invariant=inv)], [], "m",
            Box.from_bounds({"x": (0.5, 1.0)}), params={"k": 1.0},
        )
        checker = BMCChecker(h)
        dwell = Interval(*dwell)
        param_box = None if params is None else Box.from_bounds({"k": params})
        tube_a, tube_b = self._tubes(checker, dwell, param_box)
        got = checker._check_invariant(inv, tube_a, tube_b, dwell, param_box)
        assert got is self._per_step(checker, inv, tube_a, tube_b, dwell, param_box)
        assert got is expected


def _box_digest(box) -> str:
    """sha256 of a candidate box's bounds as ``float.hex`` (``None``
    for no candidate)."""
    if box is None:
        blob = "None"
    else:
        blob = repr(sorted((n, iv.lo.hex(), iv.hi.hex()) for n, iv in box.items()))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


#: scenario -> (mode path, candidate box digest) of every simulation
#: guidance call, taken before the guard's stop hook and its locator
#: became one object.
PINNED_CANDIDATES = {
    "thermostat-reach": [[
        "off->on", "916b5921fae30c43ae2be31662737a199b4b5255e76136a10df8db3b8c427658",
    ]],
    "tbi-plan": [[
        "live->drug_A", "e6f51b2e687dbfda73fee22eef6836b085136b6caaad2b5c097fd708c23349fe",
    ]],
}


@pytest.mark.parametrize("name", list(PINNED_CANDIDATES))
def test_pinned_simulation_candidates(monkeypatch, name):
    from repro.api import Engine
    from repro.scenarios import get_scenario

    simulate = BMCChecker._simulate_candidate
    seen = []

    def recorded(self, path, *args):
        box = simulate(self, path, *args)
        seen.append(["->".join(path.modes), _box_digest(box)])
        return box

    monkeypatch.setattr(BMCChecker, "_simulate_candidate", recorded)
    with Engine(seed=0) as engine:
        engine.run(get_scenario(name).spec())
    assert seen == PINNED_CANDIDATES[name]


#: ``falsify`` method=reach on ``thermostat-reach``'s query: report
#: digest taken before the guard's stop hook and its locator became one
#: object.
PINNED_FALSIFY_REACH = (
    "2379a50beeecb28b7dd6107b8dc0f50ca7ae691d452349db1b9cc0c26a3097a4"
)


def test_falsify_reach_report():
    from repro.api import Engine
    from repro.scenarios import get_scenario

    spec = get_scenario("thermostat-reach").spec()
    spec = spec.replace(task="falsify", query={**spec.query, "method": "reach"})
    with Engine(seed=0) as engine:
        report = engine.run(spec)
    assert report.payload["method"] == "reach"
    assert _report_digest(report) == PINNED_FALSIFY_REACH
