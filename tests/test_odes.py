"""Tests for ODESystem, integrators and event location."""

import hashlib
import math
import warnings

import numpy as np
import pytest

from repro.expr import exp, minimum, sin, var, variables
from repro.odes import (
    IntegrationError,
    ODESystem,
    Trajectory,
    rk4,
    rk45,
    simulate,
)

x, y = variables("x y")


@pytest.fixture
def decay():
    """dx/dt = -k x, solution x0 * exp(-k t)."""
    return ODESystem({"x": -var("k") * var("x")}, {"k": 1.0}, name="decay")


@pytest.fixture
def oscillator():
    """Harmonic oscillator: x'' = -x as first-order system."""
    return ODESystem({"x": var("v"), "v": -var("x")}, name="oscillator")


class TestODESystem:
    def test_properties(self, decay):
        assert decay.state_names == ["x"]
        assert decay.param_names == ["k"]
        assert decay.dim == 1
        assert decay.is_autonomous()

    def test_unbound_symbol_rejected(self):
        with pytest.raises(ValueError, match="unbound"):
            ODESystem({"x": var("x") * var("mystery")})

    def test_time_dependence_allowed(self):
        from repro.expr import sin

        sys_ = ODESystem({"x": sin(var("t"))})
        assert not sys_.is_autonomous()

    def test_eval_field(self, oscillator):
        f = oscillator.eval_field({"x": 1.0, "v": 2.0})
        assert f == {"x": 2.0, "v": -1.0}

    def test_eval_field_interval(self, decay):
        from repro.intervals import Box

        f = decay.eval_field_interval(Box.from_bounds({"x": (1, 2)}))
        assert f["x"].contains(-1.5)

    def test_jacobian(self, oscillator):
        J = oscillator.jacobian()
        assert J["x"]["v"].eval({}) == 1.0
        assert J["v"]["x"].eval({}) == -1.0
        assert J["x"]["x"].eval({}) == 0.0

    def test_lie_derivative(self, oscillator):
        # V = x^2 + v^2 is conserved: dV/dt = 0
        v = var("x") ** 2 + var("v") ** 2
        lie = oscillator.lie_derivative(v)
        assert lie.eval({"x": 0.3, "v": -1.2}) == pytest.approx(0.0, abs=1e-12)

    def test_with_params(self, decay):
        d2 = decay.with_params(k=2.0)
        assert d2.params["k"] == 2.0
        assert decay.params["k"] == 1.0
        with pytest.raises(KeyError):
            decay.with_params(nope=1.0)

    def test_substitute_params(self, decay):
        inlined = decay.substitute_params()
        assert inlined.params == {}
        assert inlined.eval_field({"x": 2.0}) == {"x": -2.0}

    def test_equilibria_conditions(self, decay):
        phi = decay.equilibria_conditions()
        assert phi.eval({"x": 0.0, "k": 1.0})
        assert not phi.eval({"x": 1.0, "k": 1.0})


class TestRK4:
    def test_exponential_decay(self, decay):
        traj = rk4(decay, {"x": 1.0}, (0.0, 2.0), dt=0.01)
        assert traj.value("x", 2.0) == pytest.approx(math.exp(-2.0), rel=1e-6)

    def test_convergence_order(self, decay):
        """Halving dt must reduce error ~16x for a 4th-order method."""
        errs = []
        for dt in (0.2, 0.1, 0.05):
            traj = rk4(decay, {"x": 1.0}, (0.0, 1.0), dt=dt)
            errs.append(abs(traj.value("x", 1.0) - math.exp(-1.0)))
        assert errs[0] / errs[1] > 12.0
        assert errs[1] / errs[2] > 12.0

    def test_param_override(self, decay):
        traj = rk4(decay, {"x": 1.0}, (0.0, 1.0), dt=0.01, params={"k": 2.0})
        assert traj.value("x", 1.0) == pytest.approx(math.exp(-2.0), rel=1e-5)

    def test_invalid_args(self, decay):
        with pytest.raises(ValueError):
            rk4(decay, {"x": 1.0}, (1.0, 0.0), dt=0.1)
        with pytest.raises(ValueError):
            rk4(decay, {"x": 1.0}, (0.0, 1.0), dt=-0.1)

    def test_blowup_detected(self):
        sys_ = ODESystem({"x": var("x") * var("x")})
        with pytest.raises(IntegrationError):
            rk4(sys_, {"x": 3.0}, (0.0, 5.0), dt=0.05)


class TestRK45:
    def test_oscillator_period(self, oscillator):
        traj = rk45(oscillator, {"x": 1.0, "v": 0.0}, (0.0, 2 * math.pi), rtol=1e-9)
        final = traj.final()
        assert final["x"] == pytest.approx(1.0, abs=1e-6)
        assert final["v"] == pytest.approx(0.0, abs=1e-6)

    def test_energy_conservation(self, oscillator):
        traj = rk45(oscillator, {"x": 0.0, "v": 1.0}, (0.0, 20.0), rtol=1e-9)
        e = traj.column("x") ** 2 + traj.column("v") ** 2
        assert np.max(np.abs(e - 1.0)) < 1e-5

    def test_adaptive_beats_tolerance(self, decay):
        traj = rk45(decay, {"x": 1.0}, (0.0, 3.0), rtol=1e-8, atol=1e-10)
        for t in np.linspace(0.1, 3.0, 7):
            assert traj.value("x", t) == pytest.approx(math.exp(-t), rel=1e-6)

    def test_stiff_ish_system(self):
        sys_ = ODESystem({"x": -50.0 * var("x")})
        traj = rk45(sys_, {"x": 1.0}, (0.0, 1.0), rtol=1e-6)
        assert traj.value("x", 1.0) == pytest.approx(math.exp(-50.0), abs=1e-8)

    def test_simulate_front_door(self, decay):
        t1 = simulate(decay, {"x": 1.0}, (0.0, 1.0))
        t2 = simulate(decay, {"x": 1.0}, (0.0, 1.0), method="rk4", dt=0.001)
        assert t1.value("x", 1.0) == pytest.approx(t2.value("x", 1.0), rel=1e-5)
        with pytest.raises(ValueError):
            simulate(decay, {"x": 1.0}, (0.0, 1.0), method="euler")

    def test_simulate_rk4_rejects_rk45_options(self, decay):
        with pytest.raises(TypeError, match=r"\['max_step', 'rtol'\]"):
            simulate(decay, {"x": 1.0}, (0.0, 1.0), method="rk4", rtol=1e-9, max_step=0.1)

    @pytest.mark.parametrize("arg", ["first_step", "max_step"])
    @pytest.mark.parametrize("value", [0.0, -0.1])
    def test_rk45_rejects_non_positive_steps(self, decay, arg, value):
        with pytest.raises(ValueError, match=f"{arg} must be positive"):
            rk45(decay, {"x": 1.0}, (0.0, 1.0), **{arg: value})


class TestTrajectory:
    def test_at_interpolates(self, decay):
        traj = rk45(decay, {"x": 1.0}, (0.0, 1.0))
        st = traj.at(0.5)
        assert st["x"] == pytest.approx(math.exp(-0.5), rel=1e-3)

    def test_at_out_of_range(self, decay):
        traj = rk45(decay, {"x": 1.0}, (0.0, 1.0))
        with pytest.raises(ValueError):
            traj.at(2.0)

    def test_restricted(self, decay):
        traj = rk45(decay, {"x": 1.0}, (0.0, 2.0))
        sub = traj.restricted(0.5, 1.5)
        assert sub.t0 == pytest.approx(0.5)
        assert sub.t_end == pytest.approx(1.5)
        assert sub.value("x", 1.0) == pytest.approx(math.exp(-1.0), rel=1e-3)

    def test_concat(self, decay):
        a = rk45(decay, {"x": 1.0}, (0.0, 1.0))
        b = rk45(decay, a.final(), (1.0, 2.0))
        joined = a.concat(b)
        assert joined.t_end == pytest.approx(2.0)
        assert joined.value("x", 2.0) == pytest.approx(math.exp(-2.0), rel=1e-4)

    def test_concat_name_mismatch(self, decay, oscillator):
        a = rk45(decay, {"x": 1.0}, (0.0, 1.0))
        b = rk45(oscillator, {"x": 1.0, "v": 0.0}, (1.0, 2.0))
        with pytest.raises(ValueError):
            a.concat(b)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 1.0]), np.zeros((3, 1)), ["x"])


def _reference_row(traj, t):
    """The dense-output formulas as whole-row numpy expressions."""
    times, states, derivs = traj.times, traj.states, traj.derivs
    if len(times) == 1:
        return states[0]
    idx = min(max(int(np.searchsorted(times, t, side="right")) - 1, 0), len(times) - 2)
    t0, t1 = times[idx], times[idx + 1]
    h = t1 - t0
    y0, y1 = states[idx], states[idx + 1]
    if h <= 0:
        return y0
    s = (t - t0) / h
    if derivs is None:
        return y0 + s * (y1 - y0)
    d0, d1 = derivs[idx], derivs[idx + 1]
    h00 = (1 + 2 * s) * (1 - s) ** 2
    h10 = s * (1 - s) ** 2
    h01 = s * s * (3 - 2 * s)
    h11 = s * s * (s - 1)
    return h00 * y0 + h10 * h * d0 + h01 * y1 + h11 * h * d1


def _bits(values):
    return [np.float64(v).tobytes() for v in values]


class TestDenseOutputBits:
    """``at`` and ``restricted`` match the numpy formulas bit for bit."""

    @staticmethod
    def _trajectories(rng):
        for n in (1, 2, 3, 7, 30):
            for dim in (1, 2, 5):
                for scale in (1e-8, 1.0, 1e8):
                    times = np.sort(rng.uniform(0.0, 10.0, n))
                    states = rng.normal(size=(n, dim)) * scale
                    derivs = rng.normal(size=(n, dim)) * scale
                    names = [f"v{i}" for i in range(dim)]
                    yield Trajectory(times, states, names, derivs)
                    yield Trajectory(times, states, names)
        # repeated sample times: zero-width brackets (h <= 0)
        times = np.array([0.0, 1.0, 1.0, 2.0, 2.0, 3.0])
        states = rng.normal(size=(6, 2))
        yield Trajectory(times, states, ["a", "b"], rng.normal(size=(6, 2)))
        yield Trajectory(times, states, ["a", "b"])

    def test_at_matches_reference(self):
        rng = np.random.default_rng(7)
        for traj in self._trajectories(rng):
            queries = [*rng.uniform(traj.t0, traj.t_end, 200), *traj.times]
            for t in queries:
                ref = _reference_row(traj, float(t))
                assert _bits(traj.at(t).values()) == _bits(ref)

    def test_endpoint_slack_and_range_error(self):
        rng = np.random.default_rng(8)
        for traj in self._trajectories(rng):
            lo, hi = traj.t0, traj.t_end
            for t, clamped in ((lo - 1e-12, lo), (hi + 1e-12, hi), (lo, lo), (hi, hi)):
                assert _bits(traj.at(t).values()) == _bits(_reference_row(traj, clamped))
            for t in (lo - 1e-9, hi + 1e-9):
                with pytest.raises(ValueError, match="outside trajectory"):
                    traj.at(t)

    def test_at_many_matches_reference(self):
        rng = np.random.default_rng(10)
        for traj in self._trajectories(rng):
            lo, hi = traj.t0, traj.t_end
            queries = np.array([
                *rng.uniform(lo, hi, 200), *traj.times, *traj.times[::-1],
                lo - 1e-12, hi + 1e-12,
            ])
            rows = traj.at_many(queries)
            assert rows.shape == (len(queries), traj.states.shape[1])
            for t, row in zip(queries, rows):
                clamped = min(max(float(t), lo), hi)
                assert _bits(row) == _bits(_reference_row(traj, clamped))
            assert traj.at_many([]).shape == (0, traj.states.shape[1])

    def test_at_many_range_error(self):
        rng = np.random.default_rng(11)
        for traj in self._trajectories(rng):
            lo, hi = traj.t0, traj.t_end
            for bad in (lo - 1e-9, hi + 1e-9):
                with pytest.raises(ValueError, match="outside trajectory") as exc:
                    traj.at_many([lo, bad, hi])
                with pytest.raises(ValueError) as want:
                    traj.at(bad)
                assert str(exc.value) == str(want.value)

    def test_restricted_matches_reference(self):
        rng = np.random.default_rng(9)
        for traj in self._trajectories(rng):
            if len(traj) < 2:
                continue
            cuts = sorted(rng.uniform(traj.t0, traj.t_end, 2))
            for a, b in (cuts, (traj.t0, traj.t_end), (traj.times[0], traj.times[1])):
                sub = traj.restricted(a, b)
                inner = traj.states[(traj.times > a) & (traj.times < b)]
                ref = np.vstack([_reference_row(traj, a), inner, _reference_row(traj, b)])
                assert sub.states.tobytes() == ref.tobytes()


def _count_field_calls(system):
    """Swap ``system``'s compiled vector-field body -- the callable
    ``rk45`` evaluates, and the one ``rhs()`` wraps for ``rk4`` -- for a
    counting wrapper; returns the list of call times and the unwrapped
    ndarray field."""
    field, body = system.rhs(), system.rhs_list()
    calls = []

    def counted(t, y, p):
        calls.append(t)
        return body(t, y, p)

    system._compiled_list = counted
    system._compiled = None
    return calls, field


def _stage_system(case):
    """A forced oscillator (time- and parameter-dependent) or a stiff
    decay (many rejected steps): system, x0, parameter overrides."""
    if case == "stiff":
        return ODESystem({"x": -50.0 * var("x")}), {"x": 1.0}, {}
    forced = ODESystem(
        {"x": var("v"), "v": -var("k") * var("x") + sin(var("t"))}, {"k": 2.0}
    )
    return forced, {"x": 1.0, "v": 0.0}, {"k": 3.0}


class TestStageReuse:
    def test_rk4_reuses_stored_derivative(self, decay):
        """Four field calls per step, bit-identical to recomputing k1."""
        calls, field = _count_field_calls(decay)
        traj = rk4(decay, {"x": 1.0}, (0.0, 1.0), dt=0.1)
        assert len(calls) == 1 + 4 * (len(traj) - 1)
        p, t, y = decay.params, 0.0, np.array([1.0])
        rows = [y]
        while t < 1.0 - 1e-12:
            h = min(0.1, 1.0 - t)
            k1 = field(t, y, p)
            k2 = field(t + 0.5 * h, y + 0.5 * h * k1, p)
            k3 = field(t + 0.5 * h, y + 0.5 * h * k2, p)
            k4 = field(t + h, y + h * k3, p)
            y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            t += h
            rows.append(y)
        assert np.array(rows).tobytes() == traj.states.tobytes()

    @pytest.mark.parametrize("case", ["forced", "stiff"])
    def test_rk45_six_calls_per_attempt(self, case):
        """1 + 6 x attempts field calls (the first stage is the previous
        step's last, also after a rejected step); ``max_steps`` caps the
        attempts exactly."""
        system, x0, params = _stage_system(case)
        calls, _ = _count_field_calls(system)
        traj = rk45(system, x0, (0.0, 5.0), params=params)
        attempts, rest = divmod(len(calls) - 1, 6)
        assert rest == 0 and attempts >= len(traj) - 1
        if case == "stiff":
            assert attempts > len(traj) - 1
        again = rk45(system, x0, (0.0, 5.0), params=params, max_steps=attempts)
        assert again.states.tobytes() == traj.states.tobytes()
        with pytest.raises(IntegrationError, match="max step count"):
            rk45(system, x0, (0.0, 5.0), params=params, max_steps=attempts - 1)

    @pytest.mark.parametrize("case", ["forced", "stiff"])
    def test_rk45_stored_derivs_are_exact(self, case):
        system, x0, params = _stage_system(case)
        traj = rk45(system, x0, (0.0, 5.0), params=params)
        field, p = system.rhs(), {**system.params, **params}
        for t, row, d in zip(traj.times, traj.states, traj.derivs):
            assert field(t, row, p).tobytes() == d.tobytes()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rk45_rejects_non_finite_initial_state(self, oscillator, bad):
        with pytest.raises(IntegrationError, match="non-finite initial state: v="):
            rk45(oscillator, {"x": 1.0, "v": bad}, (0.0, 1.0))

    def test_rk45_stop_hook_returns_a_prefix(self, decay):
        full = rk45(decay, {"x": 1.0}, (0.0, 3.0))
        cut = rk45(decay, {"x": 1.0}, (0.0, 3.0), stop=lambda t, y: y[0] < 0.5)
        n = len(cut)
        assert 1 < n < len(full)
        assert cut.states[-1, 0] < 0.5 <= cut.states[-2, 0]
        for attr in ("times", "states", "derivs"):
            assert getattr(cut, attr).tobytes() == getattr(full, attr)[:n].tobytes()


def _ias_mode_run():
    """The IAS on-treatment mode up to its first guard crossing, stopped
    by the hybrid simulator's own :class:`EventWatch` hook."""
    from repro.hybrid import EventWatch
    from repro.models.prostate import ias_model

    h = ias_model("patient_A")
    system, p = h.mode_system("on"), dict(h.params)
    state = {"x": 15.0, "y": 0.01, "z": 12.0}
    stop = EventWatch(system.state_names, state, p, h.jumps_from("on"))
    return rk45(system, state, (0.0, 1000.0), params=p, max_step=20.0, stop=stop)


def _proofreading_run(n_steps):
    from repro.models.massaction import kinetic_proofreading_ode

    system = kinetic_proofreading_ode(n_steps=n_steps)
    return rk45(system, dict.fromkeys(system.state_names, 0.0), (0.0, 20.0))


#: name -> (run, sha256 of times/states/derivs bytes, numpy warning text
#: that shows the step went through numpy's scalar semantics, or None)
_PINNED_RUNS = {
    "decay": (
        lambda: rk45(ODESystem({"x": -var("k") * x}, {"k": 1.0}), {"x": 1.0}, (0.0, 3.0)),
        "0ce844c8ee699faf33562955075617857f33b4ee8a4c6ee714e89b5211360626", None,
    ),
    "forced": (
        lambda: rk45(*_stage_system("forced")[:2], (0.0, 5.0), params={"k": 3.0}),
        "a9c585e10701c820a679890c499bc0a2b729b14ed3e2f3d35bbf2e634eb093c2", None,
    ),
    "stiff": (
        lambda: rk45(*_stage_system("stiff")[:2], (0.0, 5.0)),
        "6e54a875265ac52074d40b3f5b5551d82c942bcdc2384bff70fa00b40b9ab252", None,
    ),
    "ias-mode-stopped": (
        _ias_mode_run,
        "3df389183943c7085027a9b3f9477b250c4aa47aa04ac882a9e467896045c0ba", None,
    ),
    "proofreading-8d": (
        lambda: _proofreading_run(8),
        "61432503633abf57f938a6aeb5c1d7ec0fb966931a48a86b1aa4f79df3302cd8", None,
    ),
    "proofreading-12d": (
        lambda: _proofreading_run(12),
        "c988cc8ddc5e388c6e8ee60f238169b89fb5714b1245b96cf1e2b2870a5ef691", None,
    ),
    # x * x underflows to 0.0 mid-run: 1 / 0.0 is inf, clipped by min
    "divide-by-zero": (
        lambda: rk45(
            ODESystem({"x": -x, "y": minimum(1.0 / (x * x), 3.0)}),
            {"x": 1e-161, "y": 0.0}, (0.0, 3.0),
        ),
        "6d60976f2d53822205636aab8dc197db9ecf080fd86b3e787b2038d018a6ea25",
        "divide by zero",
    ),
    "exp-overflow": (
        lambda: rk45(
            ODESystem({"x": 300.0 + 0.0 * x, "y": minimum(exp(x), 2.0)}),
            {"x": 0.0, "y": 0.0}, (0.0, 5.0),
        ),
        "378e3c6935a6a1f3c9c1770f2da2baee65cd433528e50cd1b2108ab3c95d7adb",
        "overflow encountered in exp",
    ),
    "pow-overflow": (
        lambda: rk45(
            ODESystem({"x": x, "y": minimum(x ** 3.0, 4.0)}),
            {"x": 1e100, "y": 0.0}, (0.0, 20.0),
        ),
        "bee8fe2f4333d5c8fbe233d4430633c3fbc2d867d1c6256759b8da81b72bfb29",
        "overflow encountered in scalar power",
    ),
    # stiff trial stages overshoot below zero: x ** 0.5 is nan there and
    # the attempt is rejected
    "negative-base-pow": (
        lambda: rk45(
            ODESystem({"x": -50.0 * x, "y": x ** 0.5}), {"x": 1.0, "y": 0.0}, (0.0, 1.0)
        ),
        "b7e80cf7b7fef0cee25d31ea740284eca2b5f2dd993f954002dce3b611bd14e7",
        "invalid value encountered in scalar power",
    ),
}


class TestPinnedTrajectories:
    """``rk45`` output bits, pinned: sha256 over the ``tobytes()`` of
    ``times``, ``states`` and ``derivs``.  A change to the integrator,
    the compiled vector field or the scalar semantics of a field that
    divides by zero, overflows or takes a fractional power of a
    negative base moves one of these digests."""

    @pytest.mark.parametrize("name", list(_PINNED_RUNS))
    def test_digest(self, name):
        run, want, warning = _PINNED_RUNS[name]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            traj = run()
        digest = hashlib.sha256()
        for arr in (traj.times, traj.states, traj.derivs):
            digest.update(arr.tobytes())
        assert digest.hexdigest() == want
        if warning is not None:
            assert any(warning in str(w.message) for w in caught)

    def test_parameter_only_negative_fractional_power_raises(self):
        # no state value enters the power, so numpy's rules never apply:
        # the compiled guard names it instead of returning a complex
        system = ODESystem({"x": var("a") ** 0.5 + 0.0 * x}, {"a": -1.0})
        for run in (
            lambda: rk45(system, {"x": 1.0}, (0.0, 1.0)),
            lambda: system.rhs()(0.0, np.array([1.0]), system.params),
        ):
            with pytest.raises(ValueError, match="negative base -1.0 to fractional power 0.5"):
                run()

    def test_parameter_only_division_by_zero_raises(self):
        system = ODESystem({"x": var("a") / var("b") + 0.0 * x}, {"a": 1.0, "b": 0.0})
        with pytest.raises(ZeroDivisionError):
            rk45(system, {"x": 1.0}, (0.0, 1.0))
