"""Online/batch conformance of the streaming monitor stack.

The contract under test: feeding a trajectory's samples one at a time
through :class:`repro.monitor.OnlineMonitor` yields **exactly** the
batch verdict (:func:`repro.smc.bltl.monitor`) and robustness margin
(:func:`repro.smc.bltl.robustness`) -- and any verdict reported *before*
the horizon completes is irrevocable under every possible continuation
of the stream.  Plus the stream/store/supervisor layers on top:
out-of-order admission, episode punctuation, per-stream SPRTs,
journal replay recovery, and the vectorized predicate pre-screen.
"""

import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.expr import parse_expr
from repro.logic import Atom
from repro.monitor import (
    EventStore,
    FleetSupervisor,
    MonitorResult,
    OnlineMonitor,
    StreamState,
    Verdict,
    replay_source,
    scenario_property,
    stream_scenario,
    tail_source,
)
from repro.odes import Trajectory
from repro.smc.bltl import F, G, U, at_time, monitor, prop, robustness, _as_bltl
import repro.scenarios.library  # noqa: F401  (register the catalog)
from repro.scenarios import all_scenarios


def atom(text, strict=False):
    return Atom(parse_expr(text), strict)


FORMULAS = [
    prop(atom("x - 1")),
    prop(atom("x + y", True)),
    F(3.0, atom("x")),
    G(2.5, atom("y - 0.5", True)),
    U(4.0, atom("x + 2"), atom("y - 1")),
    F(2.0, G(1.5, atom("x + y"))),
    G(2.0, F(1.5, atom("x - y"))),
    ~G(3.0, atom("x")) & F(1.0, atom("y")),
    at_time(2.0, F(1.0, atom("x - y"))),
    G(2.0, F(1.0, atom("x"))) | U(1.0, atom("y"), atom("x - 3", True)),
    U(3.0, F(0.5, atom("x")), G(0.5, atom("y"))),
]


def random_trajectory(rng, n=40, span=10.0):
    ts = np.sort(rng.uniform(0.0, span, n))
    ts[0] = 0.0
    ts = np.unique(ts)
    xs = rng.normal(0.0, 1.0, (len(ts), 2)).cumsum(axis=0)
    return Trajectory(ts, xs, ["x", "y"])


def feed(om, traj):
    """Stream a trajectory into an online monitor, checking invariants."""
    prev = Verdict.UNKNOWN
    for i, t in enumerate(traj.times):
        values = dict(zip(traj.names, map(float, traj.states[i])))
        derivs = (dict(zip(traj.names, map(float, traj.derivs[i])))
                  if traj.derivs is not None else None)
        v = om.step(float(t), values, derivs)
        assert not (prev.decided and v is not prev), "decided verdict flipped"
        prev = v
    return om.finish()


class TestOnlineBatchConformance:
    """Exact agreement with the batch semantics, formula by formula."""

    @pytest.mark.parametrize("idx", range(len(FORMULAS)))
    def test_final_verdict_and_margin_exact(self, idx):
        phi = FORMULAS[idx]
        rng = np.random.default_rng(idx)
        checked = 0
        while checked < 25:
            traj = random_trajectory(rng)
            if _as_bltl(phi).horizon() > traj.t_end - traj.t0:
                continue
            want_sat = monitor(phi, traj, float(traj.t0))
            want_rob = robustness(phi, traj, float(traj.t0))
            result = feed(OnlineMonitor(phi), traj)
            assert result.complete
            assert result.verdict is Verdict.of(want_sat)
            assert result.margin == want_rob  # bit-exact, not approx
            checked += 1

    def test_margin_interval_always_brackets_batch_margin(self):
        rng = np.random.default_rng(7)
        for idx, phi in enumerate(FORMULAS):
            traj = random_trajectory(rng, n=60, span=12.0)
            want = robustness(phi, traj, float(traj.t0))
            om = OnlineMonitor(phi)
            for i, t in enumerate(traj.times):
                om.step(float(t), dict(zip(traj.names, map(float, traj.states[i]))))
                lo, hi = om.margin_interval()
                assert lo <= want <= hi
            lo, hi = om.margin_interval()
            assert lo == want == hi  # collapsed after completion

    def test_extra_env_constants(self):
        phi = G(2.0, atom("x - thresh"))
        rng = np.random.default_rng(3)
        traj = random_trajectory(rng)
        env = {"thresh": 0.25}
        om = OnlineMonitor(phi, extra_env=env)
        result = feed(om, traj)
        assert result.verdict is Verdict.of(monitor(phi, traj, float(traj.t0), env))
        assert result.margin == robustness(phi, traj, float(traj.t0), env)

    def test_interpolated_endpoints_match(self):
        # a window endpoint falling between samples exercises the
        # inserted-instant (dense output) path on both sides
        phi = F(1.7, atom("x - 0.3"))
        ts = np.array([0.0, 0.6, 1.3, 2.1, 2.9, 3.5])
        xs = np.array([[0.0, 0.0], [1.0, 0.1], [-0.4, 0.2], [0.8, 0.3],
                       [0.2, 0.4], [-0.9, 0.5]])
        ds = np.array([[1.5, 0.1]] * 6)
        traj = Trajectory(ts, xs, ["x", "y"], ds)
        result = feed(OnlineMonitor(phi), traj)
        assert result.verdict is Verdict.of(monitor(phi, traj, 0.0))
        assert result.margin == robustness(phi, traj, 0.0)

    def test_partial_stream_stays_unknown_or_sound(self):
        phi = G(5.0, atom("x"))
        om = OnlineMonitor(phi)
        om.step(0.0, {"x": 1.0})
        om.step(1.0, {"x": 2.0})
        result = om.finish()
        assert not result.complete and result.margin is None
        assert result.verdict is Verdict.UNKNOWN

    def test_early_false_of_always_is_immediate(self):
        phi = G(100.0, atom("x"))
        om = OnlineMonitor(phi)
        assert om.step(0.0, {"x": 1.0}) is Verdict.UNKNOWN
        assert om.step(1.0, {"x": -1.0}) is Verdict.FALSE
        assert om.decided_at == 1.0
        assert not om.finished  # horizon not covered; verdict still final

    def test_monotone_time_enforced(self):
        om = OnlineMonitor(G(5.0, atom("x")))
        om.step(1.0, {"x": 1.0})
        with pytest.raises(ValueError, match="strictly increasing"):
            om.step(1.0, {"x": 1.0})


# ----------------------------------------------------------------------
# Hypothesis: random formulas, random traces
# ----------------------------------------------------------------------

_atoms = st.builds(
    atom,
    st.sampled_from(["x", "y", "x + y", "x - y", "2*x - 1", "y + 0.5", "x*y"]),
    st.booleans(),
)


def _formulas(max_bound=3.0):
    bounds = st.floats(0.25, max_bound)
    return st.recursive(
        st.builds(prop, _atoms),
        lambda kids: st.one_of(
            st.builds(lambda a: ~a, kids),
            st.builds(lambda a, b: a & b, kids, kids),
            st.builds(lambda a, b: a | b, kids, kids),
            st.builds(F, bounds, kids),
            st.builds(G, bounds, kids),
            st.builds(U, bounds, kids, kids),
            st.builds(at_time, st.floats(0.0, 1.5), kids),
        ),
        max_leaves=5,
    ).filter(lambda f: f.horizon() <= 8.0)


_traces = st.integers(0, 2**32 - 1).map(
    lambda s: random_trajectory(np.random.default_rng(s), n=30, span=12.0)
)


class TestHypothesisConformance:
    @settings(max_examples=60, deadline=None)
    @given(phi=_formulas(), traj=_traces)
    def test_random_formula_random_trace(self, phi, traj):
        if phi.horizon() > traj.t_end - traj.t0:
            return
        result = feed(OnlineMonitor(phi), traj)
        assert result.verdict is Verdict.of(monitor(phi, traj, float(traj.t0)))
        assert result.margin == robustness(phi, traj, float(traj.t0))

    @settings(max_examples=60, deadline=None)
    @given(
        phi=_formulas(max_bound=2.0),
        seed=st.integers(0, 2**32 - 1),
        cut=st.integers(3, 27),
    )
    def test_early_termination_is_irrevocable(self, phi, seed, cut):
        """A pre-horizon verdict must hold under EVERY continuation.

        Stream a prefix; the moment the monitor decides early, splice an
        adversarial continuation (drawn from a different distribution)
        after the decision point and check the batch verdict over the
        spliced trajectory agrees.
        """
        rng = np.random.default_rng(seed)
        traj = random_trajectory(rng, n=30, span=12.0)
        om = OnlineMonitor(phi)
        decided_idx = None
        for i, t in enumerate(traj.times[:cut]):
            v = om.step(float(t), dict(zip(traj.names, map(float, traj.states[i]))))
            if v.decided and not om.finished:
                decided_idx = i
                break
        if decided_idx is None:
            return
        early = om.verdict
        horizon = phi.horizon()
        t_dec = float(traj.times[decided_idx])
        # adversarial continuations: huge positive, huge negative, wild
        for mode, scale in (("pos", 50.0), ("neg", -50.0), ("wild", None)):
            n_ext = 25
            ext_ts = np.linspace(t_dec + 1e-3, traj.t0 + horizon + 1.0, n_ext)
            if scale is None:
                ext_xs = np.random.default_rng(seed ^ 0xBEEF).normal(
                    0.0, 30.0, (n_ext, 2))
            else:
                ext_xs = np.full((n_ext, 2), scale)
            full = Trajectory(
                np.concatenate([traj.times[: decided_idx + 1], ext_ts]),
                np.concatenate([traj.states[: decided_idx + 1], ext_xs]),
                list(traj.names),
            )
            assert monitor(phi, full, float(full.t0)) == (early is Verdict.TRUE), (
                f"early verdict {early} refuted by {mode} continuation"
            )


# ----------------------------------------------------------------------
# the scenario catalog
# ----------------------------------------------------------------------

# core entries only: the generated corpus families reuse the same
# model shapes, and their SMC probes are conformance-checked in
# tests/test_corpus_conformance.py
_SMC_SCENARIOS = [s.name for s in all_scenarios() if s.query.get("phi")
                  and s.task == "smc" and not s.family]


class TestCatalogConformance:
    @pytest.mark.parametrize("name", _SMC_SCENARIOS)
    def test_smc_scenario_online_equals_batch(self, name):
        phi, horizon, checker, _theta = scenario_property(name, seed=11)
        for _ in range(2):
            traj = checker.sample_trajectory()
            result = feed(OnlineMonitor(phi), traj)
            assert result.complete
            assert result.verdict is Verdict.of(monitor(phi, traj, float(traj.t0)))
            assert result.margin == robustness(phi, traj, float(traj.t0))

    @pytest.mark.slow
    def test_whole_catalog_trajectories_conform(self):
        """Every catalog scenario's dynamics, monitored online vs batch.

        Scenarios without a BLTL query are monitored with synthetic
        formulas over their own state variables, so all 18 entries
        exercise the monitor on their trajectory shapes.
        """
        from repro.odes import ODESystem, rk45
        from repro.hybrid import HybridAutomaton, simulate_hybrid

        covered = 0
        for sc in all_scenarios():
            if sc.name == "ias-policy":
                continue  # the slow therapy pipeline; dynamics covered by ias-cohort
            if sc.family:
                continue  # corpus entries reuse core dynamics shapes
            spec = sc.spec()
            x0 = dict(spec.query.get("x0") or spec.model.initial or {})
            system = spec.model.system
            if not x0:
                if not isinstance(system, ODESystem):
                    continue
                x0 = {n: 1.0 for n in system.state_names}
            try:
                if isinstance(system, HybridAutomaton):
                    traj = simulate_hybrid(system, x0, t_final=5.0).flatten()
                else:
                    traj = rk45(system, x0, (0.0, 5.0))
            except (ValueError, RuntimeError):
                continue
            span = float(traj.t_end - traj.t0)
            names = list(traj.names)
            mid = {
                n: float(np.median(traj.states[:, i]))
                for i, n in enumerate(names)
            }
            v = names[0]
            probes = [
                G(0.4 * span, atom(f"{v} - {mid[v]:.6g}")),
                F(0.6 * span, atom(f"{mid[v]:.6g} - {v}", True)),
                U(0.5 * span, atom(f"{v} - {mid[v]:.6g}"),
                  atom(f"{mid[v]:.6g} - {v}")),
            ]
            for phi in probes:
                if phi.horizon() > span:
                    continue
                result = feed(OnlineMonitor(phi), traj)
                assert result.verdict is Verdict.of(
                    monitor(phi, traj, float(traj.t0)))
                assert result.margin == robustness(phi, traj, float(traj.t0))
            covered += 1
        assert covered >= 12  # nearly the whole catalog must participate


# ----------------------------------------------------------------------
# streams: reordering, episodes, SPRT
# ----------------------------------------------------------------------


class TestStreamState:
    def test_out_of_order_within_window_matches_in_order(self):
        phi = G(2.0, atom("x"))
        rng = np.random.default_rng(5)
        traj = random_trajectory(rng, n=50, span=9.0)
        samples = [
            (float(t), dict(zip(traj.names, map(float, traj.states[i]))))
            for i, t in enumerate(traj.times)
        ]

        ordered = StreamState("a", phi, reorder_window=0.0, early_stop=False)
        events_a = []
        for t, v in samples:
            events_a.extend(ordered.push(t, v))
        events_a.extend(ordered.close())

        shuffled = samples[:]
        # swap neighbours within the tolerance window
        for i in range(0, len(shuffled) - 1, 2):
            shuffled[i], shuffled[i + 1] = shuffled[i + 1], shuffled[i]
        window = max(
            b[0] - a[0] for a, b in zip(samples, samples[1:])
        ) * 2.01
        scrambled = StreamState("a", phi, reorder_window=window, early_stop=False)
        events_b = []
        for t, v in shuffled:
            events_b.extend(scrambled.push(t, v))
        events_b.extend(scrambled.close())

        key = [(e.kind, e.episode, e.verdict) for e in events_a if e.kind != "sample"]
        key_b = [(e.kind, e.episode, e.verdict) for e in events_b if e.kind != "sample"]
        assert key == key_b
        assert scrambled.late_dropped == 0

    def test_late_samples_are_counted_not_silent(self):
        s = StreamState("a", prop(atom("x")), reorder_window=0.0)
        s.push(1.0, {"x": 1.0})
        s.push(2.0, {"x": 1.0})
        s.push(1.5, {"x": 1.0})  # older than the released watermark
        assert s.late_dropped == 1

    def test_episode_rollover_and_sprt_decision(self):
        phi = G(1.0, atom("x"))
        s = StreamState("a", phi, theta=0.5, early_stop=False)
        t = 0.0
        while not s.done:
            for dt in (0.0, 0.5, 1.0):  # one full horizon per episode
                s.push(t + dt, {"x": 1.0})
            s.end_episode()
            t += 2.0
        assert s.sprt.decided and s.sprt.result.accept  # all-true => H0
        assert s.episodes_done == s.sprt.result.samples_used

    def test_early_stop_frees_stream_before_horizon(self):
        phi = G(50.0, atom("x"))
        s = StreamState("a", phi, early_stop=True)
        s.push(0.0, {"x": 1.0})
        events = s.push(1.0, {"x": -2.0})
        kinds = [e.kind for e in events]
        assert "episode" in kinds
        assert s.last_result.verdict is Verdict.FALSE
        assert not s.last_result.complete

    def test_closed_stream_drops_stragglers(self):
        s = StreamState("a", prop(atom("x")))
        s.push(0.0, {"x": 1.0})
        s.close()
        assert s.push(5.0, {"x": 1.0}) == []
        assert s.ignored_done == 1


# ----------------------------------------------------------------------
# store: journal, torn tail, replay recovery
# ----------------------------------------------------------------------


class TestStoreRecovery:
    def _run_fleet(self, path, seed=3):
        store = EventStore(path)
        sup = FleetSupervisor(store=store)
        stream_scenario(sup, "logistic-growth-smc", streams=3, episodes=3,
                        seed=seed, theta=0.5)
        sup.close_all()
        store.close()
        return sup

    def test_kill_and_restart_reproduces_transitions(self, tmp_path):
        path = tmp_path / "events.jsonl"
        self._run_fleet(path)
        store = EventStore(path)
        original = [
            (e.stream, e.kind, e.episode, e.verdict) for e in store.transitions()
        ]
        assert original, "fleet journaled no transitions"

        phi, _h, _c, theta = scenario_property("logistic-growth-smc", seed=3)
        sup2 = FleetSupervisor()
        for sid in store.streams():
            sup2.add_stream(sid, phi, theta=0.5)
        regen = sup2.restore(store)
        sup2.close_all()
        regenerated = [
            (e.stream, e.kind, e.episode, e.verdict)
            for e in regen if e.kind != "sample"
        ]

        def per_stream(rows):
            out = {}
            for r in rows:
                out.setdefault(r[0], []).append(r[1:])
            return out

        assert per_stream(original) == per_stream(regenerated)

    def test_torn_tail_is_recoverable(self, tmp_path):
        path = tmp_path / "events.jsonl"
        self._run_fleet(path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"kind": "verdict", "stream": "x", "tru')  # killed mid-write
        store = EventStore(path)
        events = list(store.replay())
        assert events  # parsed everything before the torn line
        assert all(e.kind != "verdict" or e.stream != "x" for e in events)

    def test_corrupt_middle_line_raises(self, tmp_path):
        path = tmp_path / "events.jsonl"
        store = EventStore(path)
        from repro.monitor import MonitorEvent
        store.append(MonitorEvent("start", "a", 0.0, 0))
        store.close()
        with open(path, "r+", encoding="utf-8") as fh:
            content = fh.read()
            fh.seek(0)
            fh.write("garbage\n" + content)
        with pytest.raises(ValueError, match="corrupt journal"):
            list(EventStore(path).replay())

    def test_replay_source_preserves_interleaving(self, tmp_path):
        path = tmp_path / "events.jsonl"
        self._run_fleet(path)
        store = EventStore(path)
        samples = list(replay_source(store))
        assert samples
        per_stream_times = {}
        for sid, t, _values, _derivs in samples:
            per_stream_times.setdefault(sid, []).append(t)
        for times in per_stream_times.values():
            assert times == sorted(times)


# ----------------------------------------------------------------------
# supervisor: priming conformance, progress, cancellation
# ----------------------------------------------------------------------


class TestSupervisor:
    def test_tape_priming_does_not_change_any_event(self):
        runs = []
        for batching in (True, False):
            sup = FleetSupervisor(batch_predicates=batching)
            events = []
            sup.on_event = events.append
            stream_scenario(sup, "sir-outbreak", streams=3, episodes=2, seed=9,
                            theta=0.5)
            sup.close_all()
            runs.append([(e.stream, e.kind, e.episode, e.verdict) for e in events])
        assert runs[0] == runs[1]

    def test_progress_events_scoped_and_unscoped(self):
        from repro import progress

        # scoped: flips surface through the active progress scope
        seen = []
        with progress.progress_scope(sink=seen.append):
            sup = FleetSupervisor()
            sup.add_stream("s", G(1.0, atom("x")))
            sup.push("s", 0.0, {"x": 1.0})
            sup.push("s", 0.5, {"x": -1.0})  # early FALSE -> verdict event
        assert any(e.source == "monitor" and e.stage == "verdict" for e in seen)

        # unscoped: the process-wide default sink catches the same flip
        seen2 = []
        previous = progress.set_default_sink(seen2.append)
        try:
            sup = FleetSupervisor()
            sup.add_stream("s", G(1.0, atom("x")))
            sup.push("s", 0.0, {"x": 1.0})
            sup.push("s", 0.5, {"x": -1.0})
        finally:
            progress.set_default_sink(previous)
        assert any(e.source == "monitor" and e.stage == "verdict" for e in seen2)

    def test_cooperative_cancellation(self):
        import threading

        from repro import progress

        cancel = threading.Event()
        cancel.set()
        sup = FleetSupervisor()
        sup.add_stream("s", G(10.0, atom("x")))
        source = (("s", float(t), {"x": 1.0}) for t in range(100))
        with progress.progress_scope(cancel=cancel):
            with pytest.raises(progress.JobCancelled):
                sup.run(source, checkpoint_every=1)

    def test_fleet_summary_counts(self):
        sup = FleetSupervisor()
        sup.add_stream("t", G(1.0, atom("x")))
        sup.add_stream("f", G(1.0, atom("x")))
        for t in (0.0, 0.5, 1.0):
            sup.push("t", t, {"x": 1.0})
            sup.push("f", t, {"x": -1.0 if t else 1.0})
        s = sup.summary()
        assert s["streams"] == 2
        assert s["true"] == 1 and s["false"] == 1
        assert s["samples"] == 6

    def test_ring_is_bounded_by_episode_not_history(self):
        """Per-sample cost must not grow with stream lifetime: the
        episode ring resets at every rollover."""
        phi = G(1.0, atom("x"))
        s = StreamState("a", phi, early_stop=False)
        t = 0.0
        for _ in range(50):  # 50 episodes
            for dt in (0.0, 0.5, 1.0):
                s.push(t + dt, {"x": 1.0})
            s.end_episode()
            t += 2.0
        assert s.episodes_done == 50
        # a fresh episode's monitor holds only its own samples
        s.push(t, {"x": 1.0})
        assert s.monitor.n_samples == 1


# ----------------------------------------------------------------------
# file sources
# ----------------------------------------------------------------------


class TestTailSource:
    def test_jsonl_flat_and_nested(self, tmp_path):
        import json as _json

        p = tmp_path / "x.jsonl"
        rows = [
            {"stream": "a", "t": 0.0, "x": 1.0},
            {"stream": "a", "time": 1.0, "values": {"x": 2.0}},
            {"t": 2.0, "x": 3.0},  # stream defaults to the file stem
        ]
        p.write_text("\n".join(_json.dumps(r) for r in rows) + "\n")
        out = list(tail_source(p))
        assert [(s, t, v["x"]) for s, t, v, _ in out] == [
            ("a", 0.0, 1.0), ("a", 1.0, 2.0), ("x", 2.0, 3.0)
        ]

    def test_csv(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("t,stream,x,y\n0.0,s1,1.0,2.0\n0.5,s1,1.5,2.5\n")
        out = list(tail_source(p))
        assert len(out) == 2
        assert out[1] == ("s1", 0.5, {"x": 1.5, "y": 2.5}, None)

    def test_monitoring_a_file_end_to_end(self, tmp_path):
        import json as _json

        p = tmp_path / "feed.jsonl"
        with open(p, "w", encoding="utf-8") as fh:
            for i in range(30):
                fh.write(_json.dumps({"stream": "s", "t": i * 0.25,
                                      "x": 1.0 if i < 20 else -1.0}) + "\n")
        sup = FleetSupervisor()
        sup.add_stream("s", G(2.0, atom("x")), early_stop=False)
        sup.run(iter(tail_source(p)))
        sup.close_all()
        assert sup.streams["s"].episodes_done >= 2
        verdicts = {r for r in (sup.streams["s"].last_result.verdict,)}
        assert verdicts <= {Verdict.TRUE, Verdict.FALSE, Verdict.UNKNOWN}
