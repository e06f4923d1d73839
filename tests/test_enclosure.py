"""Tests for validated flow enclosures (Picard + interval Taylor)."""

import hashlib
import math

import numpy as np
import pytest

from repro.expr import var
from repro.intervals import Box, Interval
from repro.models import fenton_karma_hybrid, fenton_karma_mode
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


class TestPinnedTubes:
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
