"""Tests for hybrid automata: construction, validation, and simulation
(thermostat and bouncing-ball classics)."""

import hashlib
import math
import pickle
from collections import Counter

import pytest

import repro.hybrid.simulate as hybrid_simulate
import repro.odes.system as ode_system
from repro.expr import var
from repro.hybrid import (
    HybridAutomaton,
    Jump,
    Mode,
    formula_margin,
    simulate_hybrid,
)
from repro.intervals import Box
from repro.logic import And, Or, TrueFormula
from repro.models.prostate import ias_model
from repro.odes import Trajectory

x = var("x")
v = var("v")


def thermostat(theta_on=18.0, theta_off=22.0) -> HybridAutomaton:
    """Two-mode heater: dx/dt = -x (off), dx/dt = 30 - x (on)."""
    return HybridAutomaton(
        variables=["x"],
        modes=[
            Mode("off", {"x": -x}, invariant=(x >= theta_on - 5.0)),
            Mode("on", {"x": 30.0 - x}, invariant=(x <= theta_off + 5.0)),
        ],
        jumps=[
            Jump("off", "on", guard=(x <= theta_on)),
            Jump("on", "off", guard=(x >= theta_off)),
        ],
        initial_mode="off",
        init=Box.from_bounds({"x": (20.0, 21.0)}),
        params={},
        name="thermostat",
    )


def bouncing_ball(c=0.8) -> HybridAutomaton:
    g = 9.81
    return HybridAutomaton(
        variables=["x", "v"],
        modes=[Mode("fall", {"x": v, "v": -g}, invariant=(x >= -1e-6))],
        jumps=[
            Jump("fall", "fall", guard=And(x <= 0.0, v <= 0.0),
                 reset={"v": -c * v, "x": 1e-9})
        ],
        initial_mode="fall",
        init=Box.from_bounds({"x": (1.0, 1.0), "v": (0.0, 0.0)}),
        params={},
        name="ball",
    )


class TestConstruction:
    def test_valid(self):
        h = thermostat()
        assert h.mode_names == ["off", "on"]
        assert len(h.jumps_from("off")) == 1

    def test_duplicate_modes_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            HybridAutomaton(
                ["x"],
                [Mode("a", {"x": x}), Mode("a", {"x": -x})],
                [],
                "a",
                Box.from_bounds({"x": (0, 1)}),
            )

    def test_unknown_initial_mode(self):
        with pytest.raises(ValueError, match="initial mode"):
            HybridAutomaton(["x"], [Mode("a", {"x": x})], [], "b",
                            Box.from_bounds({"x": (0, 1)}))

    def test_incomplete_derivatives(self):
        with pytest.raises(ValueError, match="derivatives cover"):
            HybridAutomaton(["x", "v"], [Mode("a", {"x": x})], [], "a",
                            Box.from_bounds({"x": (0, 1), "v": (0, 1)}))

    def test_unbound_symbol_in_guard(self):
        with pytest.raises(ValueError, match="unbound"):
            HybridAutomaton(
                ["x"],
                [Mode("a", {"x": -x})],
                [Jump("a", "a", guard=(var("mystery") > 0))],
                "a",
                Box.from_bounds({"x": (0, 1)}),
            )

    def test_unknown_jump_mode(self):
        with pytest.raises(ValueError, match="unknown mode"):
            HybridAutomaton(
                ["x"],
                [Mode("a", {"x": -x})],
                [Jump("a", "zz")],
                "a",
                Box.from_bounds({"x": (0, 1)}),
            )

    def test_reset_unknown_variable(self):
        with pytest.raises(ValueError, match="reset of unknown"):
            HybridAutomaton(
                ["x"],
                [Mode("a", {"x": -x})],
                [Jump("a", "a", reset={"zz": 0.0})],
                "a",
                Box.from_bounds({"x": (0, 1)}),
            )

    def test_mode_system(self):
        h = thermostat()
        sys_ = h.mode_system("on")
        assert sys_.eval_field({"x": 10.0}) == {"x": 20.0}

    def test_with_params(self):
        h = HybridAutomaton(
            ["x"],
            [Mode("a", {"x": -var("k") * x})],
            [],
            "a",
            Box.from_bounds({"x": (1, 1)}),
            params={"k": 1.0},
        )
        h2 = h.with_params(k=3.0)
        assert h2.params["k"] == 3.0

    def test_single_mode(self):
        h = thermostat()
        assert h.single_mode() is None
        h1 = HybridAutomaton(["x"], [Mode("a", {"x": -x})], [], "a",
                             Box.from_bounds({"x": (1, 1)}))
        assert h1.single_mode() is not None

    def test_init_formula(self):
        h = thermostat()
        f = h.init_formula()
        assert f.eval({"x": 20.5})
        assert not f.eval({"x": 25.0})


class TestFormulaMargin:
    def test_atom(self):
        assert formula_margin(x >= 2, {"x": 5.0}) == pytest.approx(3.0)
        assert formula_margin(x >= 2, {"x": 1.0}) == pytest.approx(-1.0)

    def test_and_min(self):
        phi = And(x >= 1, x <= 3)
        assert formula_margin(phi, {"x": 2.0}) == pytest.approx(1.0)
        assert formula_margin(phi, {"x": 0.0}) == pytest.approx(-1.0)

    def test_or_max(self):
        phi = Or(x >= 10, x <= 1)
        assert formula_margin(phi, {"x": 0.5}) > 0
        assert formula_margin(phi, {"x": 5.0}) < 0

    def test_sign_iff_satisfaction(self):
        import random

        rng = random.Random(3)
        phi = Or(And(x >= 1, x <= 2), x >= 4)
        for _ in range(100):
            val = rng.uniform(-1, 6)
            sat = phi.eval({"x": val})
            margin = formula_margin(phi, {"x": val})
            if margin > 1e-9:
                assert sat
            if margin < -1e-9:
                assert not sat


class TestThermostatSimulation:
    def test_oscillates_between_thresholds(self):
        h = thermostat()
        traj = simulate_hybrid(h, {"x": 21.0}, t_final=20.0)
        assert len(traj.segments) >= 3
        path = traj.mode_path()
        assert path[0] == "off"
        assert "on" in path
        # temperature stays within the hysteresis band (plus overshoot slack)
        for seg in traj.segments[1:]:
            temps = seg.trajectory.column("x")
            assert temps.min() > 17.5 and temps.max() < 22.5

    def test_jump_times_at_thresholds(self):
        h = thermostat()
        traj = simulate_hybrid(h, {"x": 21.0}, t_final=10.0)
        first = traj.segments[0]
        # off-mode decay from 21 to 18: t = ln(21/18)
        assert first.t_end == pytest.approx(math.log(21.0 / 18.0), abs=1e-5)
        assert first.trajectory.final()["x"] == pytest.approx(18.0, abs=1e-6)

    def test_mode_at_and_value(self):
        h = thermostat()
        traj = simulate_hybrid(h, {"x": 21.0}, t_final=5.0)
        assert traj.mode_at(0.0) == "off"
        assert traj.value("x", 0.0) == pytest.approx(21.0)

    def test_flatten_monotone_times(self):
        h = thermostat()
        traj = simulate_hybrid(h, {"x": 21.0}, t_final=10.0)
        flat = traj.flatten()
        import numpy as np

        assert np.all(np.diff(flat.times) > 0)

    def test_max_jumps_respected(self):
        h = thermostat()
        traj = simulate_hybrid(h, {"x": 21.0}, t_final=1000.0, max_jumps=4)
        assert len(traj.jumps_taken) <= 4


class TestModeSystemCache:
    @staticmethod
    def _count_compiles(monkeypatch):
        compiles = []
        real = ode_system.compile_vector_field

        def counted(*args, **kwargs):
            compiles.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(ode_system, "compile_vector_field", counted)
        return compiles

    @staticmethod
    def _heated_thermostat() -> HybridAutomaton:
        base = thermostat()
        on, off = base.modes[1], base.modes[0]
        heated = Mode("on", {"x": var("heat") - x}, invariant=on.invariant)
        return HybridAutomaton(
            base.variables, [off, heated], base.jumps, base.initial_mode,
            base.init, params={"heat": 30.0}, name="heated",
        )

    def test_one_compile_per_visited_mode(self, monkeypatch):
        compiles = self._count_compiles(monkeypatch)
        h = thermostat()
        traj = simulate_hybrid(h, {"x": 21.0}, t_final=20.0)
        assert len(traj.segments) > 2
        assert len(compiles) == len(set(traj.mode_path())) == 2
        for m in h.mode_names:
            assert h.mode_system(m) is h.mode_system(m)
        simulate_hybrid(h, {"x": 21.0}, t_final=20.0)
        assert len(compiles) == 2
        copy = pickle.loads(pickle.dumps(h))
        again = simulate_hybrid(copy, {"x": 21.0}, t_final=20.0)
        assert again.mode_path() == traj.mode_path()
        assert len(compiles) == 4

    def test_systems_follow_params(self, monkeypatch):
        compiles = self._count_compiles(monkeypatch)
        h = self._heated_thermostat()
        simulate_hybrid(h, {"x": 21.0}, t_final=5.0)
        assert len(compiles) == 2
        warm = h.with_params(heat=40.0)
        assert warm.mode_system("on") is not h.mode_system("on")
        assert warm.mode_system("on").params == {"heat": 40.0}
        assert h.mode_system("on").params == {"heat": 30.0}
        simulate_hybrid(warm, {"x": 21.0}, t_final=5.0)
        assert len(compiles) == 4
        system = h.mode_system("on")
        h.params["heat"] = 25.0
        assert h.mode_system("on") is system
        assert system.params == {"heat": 25.0}
        assert len(compiles) == 4


class TestBouncingBall:
    def test_bounces_decay(self):
        h = bouncing_ball(c=0.8)
        traj = simulate_hybrid(h, t_final=3.0, max_jumps=20)
        assert len(traj.jumps_taken) >= 2
        # peak height after first bounce ~ c^2 * h0
        seg2 = traj.segments[1]
        peak = seg2.trajectory.column("x").max()
        assert peak == pytest.approx(0.64, abs=0.05)

    def test_first_impact_time(self):
        h = bouncing_ball()
        traj = simulate_hybrid(h, t_final=2.0)
        t_impact = traj.segments[0].t_end
        assert t_impact == pytest.approx(math.sqrt(2 * 1.0 / 9.81), abs=1e-4)

    def test_reset_applied(self):
        h = bouncing_ball(c=0.5)
        traj = simulate_hybrid(h, t_final=2.0, max_jumps=3)
        v_before = traj.segments[0].trajectory.final()["v"]
        v_after = traj.segments[1].trajectory.at(traj.segments[1].t0)["v"]
        assert v_after == pytest.approx(-0.5 * v_before, rel=1e-3)


class TestDefaultsAndEdgeCases:
    def test_default_x0_from_init_box(self):
        h = thermostat()
        traj = simulate_hybrid(h, t_final=1.0)
        assert traj.value("x", 0.0) == pytest.approx(20.5)

    def test_no_jump_single_mode(self):
        h = HybridAutomaton(["x"], [Mode("a", {"x": -x})], [], "a",
                            Box.from_bounds({"x": (1, 1)}))
        traj = simulate_hybrid(h, t_final=2.0)
        assert traj.mode_path() == ["a"]
        assert traj.value("x", 2.0) == pytest.approx(math.exp(-2.0), rel=1e-4)

    def test_invariant_violation_stops(self):
        # invariant x >= 0.5 but dynamics decay through it, no enabled jump
        h = HybridAutomaton(
            ["x"],
            [Mode("a", {"x": -x}, invariant=(x >= 0.5))],
            [],
            "a",
            Box.from_bounds({"x": (1, 1)}),
        )
        traj = simulate_hybrid(h, t_final=5.0)
        assert traj.stopped_reason == "invariant"
        assert traj.t_end == pytest.approx(math.log(2.0), abs=1e-4)

    def test_guard_enabled_at_start_fires_immediately(self):
        h = HybridAutomaton(
            ["x"],
            [Mode("a", {"x": -x}), Mode("b", {"x": 0.0 * x})],
            [Jump("a", "b", guard=(x >= 0.5))],
            "a",
            Box.from_bounds({"x": (1, 1)}),
        )
        traj = simulate_hybrid(h, {"x": 1.0}, t_final=2.0)
        assert traj.mode_path()[:2] == ["a", "b"]
        assert traj.segments[0].t_end == pytest.approx(0.0, abs=1e-9)

    def test_param_dependent_guard(self):
        th = var("theta")
        h = HybridAutomaton(
            ["x"],
            [Mode("a", {"x": -x}), Mode("b", {"x": 0.0 * x})],
            [Jump("a", "b", guard=(th - x >= 0))],
            "a",
            Box.from_bounds({"x": (1, 1)}),
            params={"theta": 0.5},
        )
        traj = simulate_hybrid(h, {"x": 1.0}, t_final=5.0)
        assert traj.segments[0].t_end == pytest.approx(math.log(2.0), abs=1e-4)
        traj2 = simulate_hybrid(h, {"x": 1.0}, t_final=5.0, params={"theta": 0.25})
        assert traj2.segments[0].t_end == pytest.approx(math.log(4.0), abs=1e-4)

    def test_unknown_jump_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown jump policy"):
            simulate_hybrid(thermostat(), {"x": 21.0}, jump_policy="eager")


def invariant_exit() -> HybridAutomaton:
    """x decays through its invariant x >= 0.5 with no jump to take."""
    return HybridAutomaton(
        ["x"], [Mode("a", {"x": -x}, invariant=(x >= 0.5))], [], "a",
        Box.from_bounds({"x": (1, 1)}),
    )


def enabled_at_start() -> HybridAutomaton:
    """The only guard already holds at x(0) = 1."""
    return HybridAutomaton(
        ["x"],
        [Mode("a", {"x": -x}), Mode("b", {"x": 0.0 * x})],
        [Jump("a", "b", guard=(x >= 0.5))],
        "a",
        Box.from_bounds({"x": (1, 1)}),
    )


#: case -> (automaton factory, x0, simulate_hybrid keyword arguments)
EVENT_CASES = {
    "thermostat": (thermostat, {"x": 21.0}, {"t_final": 20.0}),
    "bouncing-ball": (bouncing_ball, None, {"t_final": 3.0, "max_jumps": 20}),
    "invariant-only": (invariant_exit, None, {"t_final": 5.0}),
    "guard-at-t0": (enabled_at_start, {"x": 1.0}, {"t_final": 2.0}),
    "boundary-policy": (
        thermostat, {"x": 21.0}, {"t_final": 20.0, "jump_policy": "boundary"}
    ),
    "ias-patient_A": (lambda: ias_model("patient_A"), None, {"t_final": 610.0}),
    "ias-patient_C": (lambda: ias_model("patient_C"), None, {"t_final": 610.0}),
}


class TestEventStoppedSegments:
    """A segment's integration ends at the step bracketing its first
    event, bit-identically to integrating it to t_final, replaying the
    stop hook over that run's samples and clipping at its event."""

    @pytest.mark.parametrize("case", sorted(EVENT_CASES))
    def test_matches_integrate_then_clip(self, monkeypatch, case):
        make, x0, kwargs = EVENT_CASES[case]
        automaton = make()
        rk45 = hybrid_simulate.rk45
        steps = {"stopped": 0, "full": 0}

        def counted(key, honour_stop):
            def run(*args, stop=None, **kw):
                traj = rk45(*args, stop=stop if honour_stop else None, **kw)
                steps[key] += len(traj) - 1
                if stop is not None and not honour_stop:
                    # the hook sees each accepted sample as rk45 would;
                    # its locator reads the prefix up to where it stops
                    n = next(
                        (i + 1 for i in range(1, len(traj))
                         if stop(float(traj.times[i]), traj.states[i].tolist())),
                        len(traj),
                    )
                    traj = Trajectory(
                        traj.times[:n], traj.states[:n], traj.names, traj.derivs[:n]
                    )
                return traj

            return run

        monkeypatch.setattr(hybrid_simulate, "rk45", counted("stopped", True))
        stopped = simulate_hybrid(automaton, x0, **kwargs)
        monkeypatch.setattr(hybrid_simulate, "rk45", counted("full", False))
        full = simulate_hybrid(automaton, x0, **kwargs)

        assert stopped.stopped_reason == full.stopped_reason
        assert stopped.mode_path() == full.mode_path()
        assert len(stopped.jumps_taken) == len(full.jumps_taken)
        assert all(a is b for a, b in zip(stopped.jumps_taken, full.jumps_taken))
        for a, b in zip(stopped.segments, full.segments):
            for attr in ("times", "states", "derivs"):
                assert (
                    getattr(a.trajectory, attr).tobytes()
                    == getattr(b.trajectory, attr).tobytes()
                ), attr
        # every case has an event before t_final, so the tail is skipped
        assert steps["stopped"] < steps["full"]


def _simulation_digest(automaton, traj) -> str:
    """sha256 over every bit of a :func:`simulate_hybrid` result: each
    segment's mode, ``times``, ``states`` and ``derivs``, the index in
    ``automaton.jumps`` of every jump taken, and the stop reason."""
    h = hashlib.sha256()
    for seg in traj.segments:
        h.update(seg.mode.encode())
        for attr in ("times", "states", "derivs"):
            h.update(getattr(seg.trajectory, attr).tobytes())
    taken = [
        next(i for i, j in enumerate(automaton.jumps) if j is k)
        for k in traj.jumps_taken
    ]
    h.update(repr(taken).encode())
    h.update(traj.stopped_reason.encode())
    return h.hexdigest()


#: case -> digest of its :func:`simulate_hybrid` result, taken before the
#: stop hook and the event locator became one object.
PINNED_EVENT_CASES = {
    "bouncing-ball":
        "c070819cade328444e863bfe7782f7d83a6ef7ce2ed9a6bff052b7010696c277",
    "boundary-policy":
        "494e713e59c4e82015d70f2e1174f0bef043a11649e047e5c707b1574df8eae9",
    "guard-at-t0":
        "1dac21e26c9fc66ab20399b734980c6fd345b5821815d9785f7aa9fce4236324",
    "ias-patient_A":
        "6b74cfa60100907daed357bb84cf0a421676bcfbedeada0f9da159d257fd987a",
    "ias-patient_C":
        "1f9956185e76f14fd980243bb9b4cf58f41df2d610d140a9f8583325c7d0a2ed",
    "invariant-only":
        "84c620a47114dfefa195d99a22bc9f22abda2385bd3ddb6a329bb6922088c652",
    "thermostat":
        "5a39c3ae729062899d94086434540f2807c3b11c3ee6d9843c4bd33c349ee854",
}


@pytest.mark.parametrize("case", sorted(EVENT_CASES))
def test_pinned_event_cases(case):
    make, x0, kwargs = EVENT_CASES[case]
    automaton = make()
    traj = simulate_hybrid(automaton, x0, **kwargs)
    assert _simulation_digest(automaton, traj) == PINNED_EVENT_CASES[case]


class TestEventMarginCalls:
    """Each watched margin is evaluated once per accepted sample of a
    segment (its first sample included); every other evaluation is a
    locator probe at a dense-output state."""

    @pytest.mark.parametrize("case", sorted(EVENT_CASES))
    def test_once_per_sample(self, monkeypatch, case):
        make, x0, kwargs = EVENT_CASES[case]
        automaton = make()
        names = automaton.variables
        rk45, at, margin = hybrid_simulate.rk45, Trajectory.at, formula_margin
        runs, probes, calls = [], [], Counter()
        depth = [0]

        def recorded_rk45(*args, **kw):
            runs.append(rk45(*args, **kw))
            return runs[-1]

        def recorded_at(self, t):
            probes.append(at(self, t))
            return probes[-1]

        def counted(phi, env):
            if depth[0] == 0:
                calls[id(phi), tuple(float(env[n]) for n in names)] += 1
            depth[0] += 1
            try:
                return margin(phi, env)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(hybrid_simulate, "rk45", recorded_rk45)
        monkeypatch.setattr(Trajectory, "at", recorded_at)
        monkeypatch.setattr(hybrid_simulate, "formula_margin", counted)
        traj = simulate_hybrid(automaton, x0, **kwargs)

        urgent = kwargs.get("jump_policy", "urgent") == "urgent"
        expected = Counter()
        for seg, run in zip(traj.segments, runs):
            invariant = automaton.mode(seg.mode).invariant
            watched = [] if isinstance(invariant, TrueFormula) else [invariant]
            if urgent:
                watched += [j.guard for j in automaton.jumps_from(seg.mode)]
            for row in run.states.tolist():
                for phi in watched:
                    expected[id(phi), tuple(row)] += 1
        samples = Counter({k: n for k, n in calls.items() if k in expected})
        assert samples == expected
        others = sum(n for k, n in calls.items() if k not in expected)
        assert others == len(probes)


def test_zeno_stop_takes_no_jump():
    """The Zeno check runs before a jump is taken, as the ``max_jumps``
    one does: a Zeno stop ends on the segment whose short dwell
    triggered it, with one jump fewer than segments."""
    ball = bouncing_ball(0.5)
    zeno = simulate_hybrid(ball, t_final=10.0, max_jumps=1000, min_dwell=1e-3)
    capped = simulate_hybrid(ball, t_final=10.0, max_jumps=10, min_dwell=0.0)
    assert zeno.stopped_reason == "zeno"
    assert capped.stopped_reason == "max_jumps"
    for traj in (zeno, capped):
        assert len(traj.jumps_taken) == len(traj.segments) - 1 == 10
    # the eleventh dwell is the first short one after three jumps
    assert zeno.dwell_times()[-1] < 1e-3 <= min(zeno.dwell_times()[3:-1])
    for a, b in zip(zeno.segments, capped.segments, strict=True):
        for attr in ("times", "states", "derivs"):
            assert getattr(a.trajectory, attr).tobytes() == getattr(b.trajectory, attr).tobytes()
