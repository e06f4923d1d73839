"""Tests for validated flow enclosures (Picard + interval Taylor)."""

import dataclasses
import hashlib
import math
import sys
import threading

import numpy as np
import pytest

from repro.expr import Binary, Const, Unary, var
from repro.hybrid import HybridAutomaton, Mode
from repro.intervals import Box, Interval
from repro.models import fenton_karma_hybrid, fenton_karma_mode
from repro.odes import EnclosureError, ODESystem, flow_enclosure, rk45
from repro.odes import enclosure as enclosure_module


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
        assert tube.names == ("x",)


# ----------------------------------------------------------------------
# Pinned bits and work: the enclosure reuses the field values, Jacobians
# and norm weights it already has, and every bound stays bit-identical
# ----------------------------------------------------------------------


def _tube_1d_param_box():
    k = var("k")
    system = ODESystem({"x": -k * var("x")}, {"k": 1.0})
    return flow_enclosure(
        system, {"x": (0.9, 1.1)}, duration=1.0,
        param_box=Box.from_bounds({"k": (0.5, 1.5)}), max_step=0.1,
    )


def _tube_fk_lognorm():
    return flow_enclosure(
        fenton_karma_mode("excited"),
        {"u": (0.9, 0.92), "v": (0.0, 0.01), "w": (0.9, 0.91)},
        duration=1.0, max_step=0.05,
    )


def _tube_taylor2():
    r, K, x = var("r"), var("K"), var("x")
    system = ODESystem({"x": r * x * (1 - x / K)}, {"r": 1.0, "K": 2.0})
    return flow_enclosure(
        system, {"x": (0.4, 0.6)}, duration=1.0, max_step=0.1,
        method="taylor", order=2,
    )


def _tube_digest(tube):
    """sha256 over ``float.hex`` of every step's time and box bounds."""
    h = hashlib.sha256()
    for step in tube.steps:
        bounds = [step.time.lo, step.time.hi]
        for box in (step.enclosure, step.end):
            for n in tube.names:
                bounds += [box[n].lo, box[n].hi]
        h.update(" ".join(float(b).hex() for b in bounds).encode() + b"\n")
    return h.hexdigest()


#: (tube function, steps, digest, eval_field_interval calls, eig calls).  The
#: digests were taken before the enclosure reused its field values, so
#: they pin that the reuse changed no bit.  The call counts pin the
#: work: lognorm does 4 field evaluations per step (a priori of the
#: whole box + of the center, each f(X0) and one f(B) when the first
#: candidate holds), taylor order 2 does 2, and a 1-D system never
#: calls eig.
TUBE_CASES = {
    "1d-param-box": (
        _tube_1d_param_box, 10,
        "9362dc62563a50260577923a571f64640b32823d450dcf954b1069deaef627fc", 42, 0,
    ),
    "fk-excited-lognorm": (
        _tube_fk_lognorm, 20,
        "2004b4968158767d7ac8790daf269926a4414c351e18157e8b7be312976be25c", 82, 20,
    ),
    "taylor-order-2": (
        _tube_taylor2, 10,
        "bf6dcde6cb1672ef8eee4daac72ef29dc648e5d95e5150fc42d295ab7007eb13", 20, 0,
    ),
}


def _count_field_calls(monkeypatch):
    """Count ``eval_field_interval`` calls: zero means a table hit."""
    calls = {"field": 0}
    field = ODESystem.eval_field_interval

    def counted_field(self, *args, **kwargs):
        calls["field"] += 1
        return field(self, *args, **kwargs)

    monkeypatch.setattr(ODESystem, "eval_field_interval", counted_field)
    return calls


class TestPinnedTubes:
    @pytest.fixture(autouse=True)
    def cold_table(self):
        # the work counts below measure a computation, not a table hit
        enclosure_module._clear_tubes()

    @pytest.mark.parametrize("case", sorted(TUBE_CASES))
    def test_tube_bits(self, case):
        build, steps, digest, _, _ = TUBE_CASES[case]
        tube = build()
        assert len(tube.steps) == steps
        assert _tube_digest(tube) == digest

    @pytest.mark.parametrize("case", sorted(TUBE_CASES))
    def test_tube_work(self, case, monkeypatch):
        build, _, _, want_field, want_eig = TUBE_CASES[case]
        calls = {"field": 0, "eig": 0}
        field, eig = ODESystem.eval_field_interval, np.linalg.eig

        def counted_field(self, *args, **kwargs):
            calls["field"] += 1
            return field(self, *args, **kwargs)

        def counted_eig(*args, **kwargs):
            calls["eig"] += 1
            return eig(*args, **kwargs)

        monkeypatch.setattr(ODESystem, "eval_field_interval", counted_field)
        monkeypatch.setattr(np.linalg, "eig", counted_eig)
        build()
        assert calls == {"field": want_field, "eig": want_eig}


class TestMemoizedJacobians:
    def test_jacobian_survives_params_refresh(self):
        automaton = fenton_karma_hybrid()
        system = automaton.mode_system("excited")
        jac = system.jacobian()
        before = {i: {j: str(e) for j, e in row.items()} for i, row in jac.items()}
        automaton.params["tau_d"] = 2.0 * automaton.params["tau_d"]
        assert automaton.mode_system("excited") is system
        assert system.params["tau_d"] == automaton.params["tau_d"]
        assert system.jacobian() is jac
        fresh = ODESystem(system.derivatives, system.params).jacobian()
        assert before == {i: {j: str(e) for j, e in row.items()} for i, row in fresh.items()}

    def test_param_jacobian_keyed_by_names(self):
        k, c = var("k"), var("c")
        system = ODESystem({"x": -k * var("x") + c}, {"k": 1.0, "c": 0.5})
        pk = system.param_jacobian(["k"])
        assert system.param_jacobian(("k",)) is pk
        assert sorted(pk["x"]) == ["k"]
        both = system.param_jacobian(["k", "c"])
        assert both is not pk and sorted(both["x"]) == ["c", "k"]
        assert both["x"]["c"].eval({}) == 1.0


# ----------------------------------------------------------------------
# The tube table: one computation per exact input, bounded, immutable
# ----------------------------------------------------------------------


def _up(v):
    """The next float above ``v``: the smallest change of a key bit."""
    return math.nextafter(v, math.inf)


def _memo_automaton(cx=0.125, cy=0.25):
    """One-mode automaton whose ``mode_system`` refreshes params in place."""
    x, y = var("x"), var("y")
    mode = Mode("m", {"x": -var("k") * x + var("c") * y + cx, "y": x - y + cy})
    return HybridAutomaton(
        ["x", "y"], [mode], [], "m",
        Box.from_bounds({"x": (0.0, 1.0), "y": (0.0, 1.0)}),
        {"k": 1.0, "c": 0.5},
    )


def _memo_call(automaton=None, **overrides):
    automaton = automaton or _memo_automaton()
    kwargs = {
        "x0": {"x": (0.9, 1.1), "y": (0.4, 0.5)},
        "duration": 0.5,
        "param_box": Box.from_bounds({"k": (0.9, 1.1)}),
        "max_step": 0.1,
        "order": 2,
        "max_growth": 1e3,
        "method": "lognorm",
        **overrides,
    }
    return flow_enclosure(automaton.mode_system("m"), **kwargs)


def _refresh(name):
    def call():
        automaton = _memo_automaton()
        system = automaton.mode_system("m")
        automaton.params[name] = _up(automaton.params[name])
        assert automaton.mode_system("m") is system  # refreshed in place
        return _memo_call(automaton)
    return call


#: One variant per key component; each differs from the base call in
#: exactly one input, by one ulp where the input is a float.
KEY_VARIANTS = {
    "derivative-x": lambda: _memo_call(_memo_automaton(cx=_up(0.125))),
    "derivative-y": lambda: _memo_call(_memo_automaton(cy=_up(0.25))),
    "param-k": _refresh("k"),
    "param-c": _refresh("c"),
    "x0-x-lo": lambda: _memo_call(x0={"x": (_up(0.9), 1.1), "y": (0.4, 0.5)}),
    "x0-x-hi": lambda: _memo_call(x0={"x": (0.9, _up(1.1)), "y": (0.4, 0.5)}),
    "x0-y-lo": lambda: _memo_call(x0={"x": (0.9, 1.1), "y": (_up(0.4), 0.5)}),
    "x0-y-hi": lambda: _memo_call(x0={"x": (0.9, 1.1), "y": (0.4, _up(0.5))}),
    "param-box-lo": lambda: _memo_call(param_box=Box.from_bounds({"k": (_up(0.9), 1.1)})),
    "param-box-hi": lambda: _memo_call(param_box=Box.from_bounds({"k": (0.9, _up(1.1))})),
    "param-box-name": lambda: _memo_call(param_box=Box.from_bounds({"c": (0.9, 1.1)})),
    "param-box-none": lambda: _memo_call(param_box=None),
    "duration": lambda: _memo_call(duration=_up(0.5)),
    "max_step": lambda: _memo_call(max_step=_up(0.1)),
    "order": lambda: _memo_call(order=1),
    "max_growth": lambda: _memo_call(max_growth=_up(1e3)),
    "method": lambda: _memo_call(method="taylor"),
}


class TestTubeTable:
    @pytest.fixture(autouse=True)
    def cold_table(self):
        enclosure_module._clear_tubes()
        yield
        enclosure_module._clear_tubes()

    def test_warm_call_does_no_field_work_and_keeps_the_bits(self, monkeypatch):
        cold = _memo_call()
        calls = _count_field_calls(monkeypatch)
        warm = _memo_call(_memo_automaton())  # a fresh, equal system
        assert calls["field"] == 0
        assert warm is cold and _tube_digest(warm) == _tube_digest(cold)

    def test_table_hit_matches_a_cold_computation(self):
        warm_twice = (_memo_call(), _memo_call())
        enclosure_module._clear_tubes()
        assert _tube_digest(_memo_call()) == _tube_digest(warm_twice[1])

    @pytest.mark.parametrize("variant", sorted(KEY_VARIANTS))
    def test_each_key_component_misses(self, variant, monkeypatch):
        _memo_call()
        calls = _count_field_calls(monkeypatch)
        KEY_VARIANTS[variant]()
        assert calls["field"] > 0, f"{variant} hit the base call's tube"
        calls["field"] = 0
        _memo_call()  # the base tube is still there
        assert calls["field"] == 0

    def test_signed_zeros_do_not_collide(self, monkeypatch):
        x = var("x")
        pos = ODESystem({"x": Binary("add", Unary("neg", x), Const(0.0))})
        neg = ODESystem({"x": Binary("add", Unary("neg", x), Const(-0.0))})
        assert pos.derivatives == neg.derivatives  # Expr equality merges them
        assert pos.fingerprint() != neg.fingerprint()
        cases = [
            (pos, {"x": (0.5, 1.0)}), (neg, {"x": (0.5, 1.0)}),
            (ODESystem({"x": -x + var("c")}, {"c": 0.0}), {"x": (0.5, 1.0)}),
            (ODESystem({"x": -x + var("c")}, {"c": -0.0}), {"x": (0.5, 1.0)}),
            (ODESystem({"x": -x}), {"x": (0.0, 1.0)}),
            (ODESystem({"x": -x}), {"x": (-0.0, 1.0)}),
        ]
        calls = _count_field_calls(monkeypatch)
        tubes = []
        for system, x0 in cases:
            calls["field"] = 0
            tubes.append(flow_enclosure(system, x0, duration=0.3, max_step=0.1))
            assert calls["field"] > 0, f"{system!r} from {x0} hit another tube"
        assert len({id(t) for t in tubes}) == len(cases)

    def test_failure_is_not_kept(self, monkeypatch):
        system = ODESystem({"x": var("x") * var("x")})
        calls = _count_field_calls(monkeypatch)
        for _ in range(2):
            calls["field"] = 0
            with pytest.raises(EnclosureError):
                flow_enclosure(system, {"x": (5.0, 5.0)}, duration=1.0,
                               max_step=0.05, max_growth=100.0)
            assert calls["field"] > 0
        assert enclosure_module._tube_steps == 0

    def test_eviction_keeps_the_total_under_the_cap(self, monkeypatch):
        monkeypatch.setattr(enclosure_module, "MAX_TUBE_STEPS", 25)
        decay = ODESystem({"x": -var("x")})

        def tube(i):
            return flow_enclosure(decay, {"x": (1.0 + i, 1.0 + i)}, duration=1.0,
                                  max_step=0.1)

        for i in range(4):
            assert len(tube(i).steps) == 10
            assert enclosure_module._tube_steps <= 25
            assert enclosure_module._tube_steps == sum(
                len(t.steps) for t in enclosure_module._tubes.values()
            )
        calls = _count_field_calls(monkeypatch)
        tube(3)
        tube(2)
        assert calls["field"] == 0  # the two newest are kept
        tube(0)
        assert calls["field"] > 0  # the oldest went first

    def test_threads_keep_the_step_count_exact(self, monkeypatch):
        # 8 threads on 6 keys under a cap of 3 tubes: every put races
        # with a hit or an eviction, and a lost update of the step
        # count would break the invariant
        monkeypatch.setattr(enclosure_module, "MAX_TUBE_STEPS", 15)
        decay = ODESystem({"x": -var("x")})
        digests = {}

        def work(t):
            for i in range(12):
                k = (t + i) % 6
                tube = flow_enclosure(decay, {"x": (1.0 + k, 1.0 + k)}, duration=0.5,
                                      max_step=0.1)
                digests.setdefault(k, set()).add(_tube_digest(tube))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work, args=(t,)) for t in range(8)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(w.is_alive() for w in workers)
        assert sorted(digests) == list(range(6))
        assert all(len(d) == 1 for d in digests.values())  # one set of bits per key
        assert enclosure_module._tube_steps == sum(
            len(t.steps) for t in enclosure_module._tubes.values()
        ) <= 15

    def test_tubes_reject_mutation(self):
        tube = _memo_call()
        assert isinstance(tube.steps, tuple) and isinstance(tube.names, tuple)
        with pytest.raises(dataclasses.FrozenInstanceError):
            tube.steps = ()
        with pytest.raises(dataclasses.FrozenInstanceError):
            tube.names = ("x",)
        with pytest.raises(dataclasses.FrozenInstanceError):
            tube.steps[0].end = tube.steps[0].enclosure
        with pytest.raises(AttributeError):
            tube.steps.append(tube.steps[0])
