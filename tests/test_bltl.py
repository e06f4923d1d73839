"""Tests for BLTL syntax, boolean monitoring and robustness semantics."""

import math
import random

import numpy as np
import pytest

from repro.expr import Binary, Const, Unary, var
from repro.hybrid import formula_margin
from repro.logic import And, Atom, Exists, Forall, Or
from repro.odes import ODESystem, Trajectory, rk45
from repro.smc import F, G, U, at_time, monitor, prop, robustness, window_times
from repro.smc.bltl import (
    Always,
    AndOp,
    At,
    Eventually,
    NotOp,
    OrOp,
    Prop,
    Until,
    _margin,
    _truth,
)

x = var("x")


def make_traj(fn, t_end=10.0, n=501):
    ts = np.linspace(0.0, t_end, n)
    return Trajectory(ts, np.array([[fn(t)] for t in ts]), ["x"])


@pytest.fixture
def decay_traj():
    sys_ = ODESystem({"x": -x})
    return rk45(sys_, {"x": 1.0}, (0.0, 10.0), max_step=0.05)


class TestSyntax:
    def test_horizon(self):
        phi = F(5.0, G(2.0, x >= 0))
        assert phi.horizon() == pytest.approx(7.0)

    def test_connective_horizon(self):
        phi = F(3.0, x >= 0) & G(4.0, x >= 0)
        assert phi.horizon() == pytest.approx(4.0)

    def test_operators_build(self):
        phi = ~prop(x >= 0) | prop(x <= 1)
        assert phi.horizon() == 0.0

    def test_until_horizon(self):
        phi = U(2.0, x >= 0, F(1.0, x >= 1))
        assert phi.horizon() == pytest.approx(3.0)

    def test_formula_coerced(self):
        # passing a raw L_RF formula wraps it into a Prop
        assert monitor(F(1.0, x >= 0), make_traj(lambda t: 1.0))

    def test_bad_type_rejected(self):
        with pytest.raises(TypeError):
            F(1.0, "x > 0")


class TestMonitor:
    def test_eventually_true(self, decay_traj):
        # x decays below 0.5 at t = ln 2 < 1
        assert monitor(F(1.0, 0.5 - x >= 0), decay_traj)

    def test_eventually_false_window_too_short(self, decay_traj):
        # below 0.1 needs t = ln 10 ~ 2.3 > 1
        assert not monitor(F(1.0, 0.1 - x >= 0), decay_traj)

    def test_always(self, decay_traj):
        assert monitor(G(5.0, x >= 0), decay_traj)
        assert not monitor(G(5.0, x >= 0.5), decay_traj)

    def test_nested(self, decay_traj):
        # eventually (within 3) it's always (for 2) below 0.2
        phi = F(3.0, G(2.0, 0.2 - x >= 0))
        assert monitor(phi, decay_traj)

    def test_until(self):
        # x(t) = t: (x <= 5) U (x >= 3) within 10
        traj = make_traj(lambda t: t)
        assert monitor(U(10.0, 5.0 - x >= 0, x - 3 >= 0), traj)
        # (x <= 1) U (x >= 3): left fails before right becomes true
        assert not monitor(U(10.0, 1.0 - x >= 0, x - 3 >= 0), traj)

    def test_until_right_immediately(self):
        traj = make_traj(lambda t: t)
        # right true at t=0: left irrelevant
        assert monitor(U(5.0, x >= 100, x >= 0), traj)

    def test_not_and_or(self, decay_traj):
        assert monitor(~F(1.0, x >= 2.0), decay_traj)
        assert monitor(F(1.0, x >= 0.9) & G(1.0, x >= 0.3), decay_traj)
        assert monitor(F(1.0, x >= 2.0) | G(1.0, x >= 0.1), decay_traj)

    def test_horizon_exceeds_trajectory(self, decay_traj):
        with pytest.raises(ValueError, match="horizon"):
            monitor(F(100.0, x >= 0), decay_traj)

    def test_t_start_offset(self):
        traj = make_traj(lambda t: t)
        assert monitor(G(1.0, x >= 4.9), traj, t_start=5.0)
        assert not monitor(G(1.0, x >= 4.9), traj, t_start=0.0)

    def test_extra_env(self):
        traj = make_traj(lambda t: t)
        thr = var("thr")
        assert monitor(F(10.0, x >= thr), traj, extra_env={"thr": 8.0})
        assert not monitor(F(10.0, x >= thr), traj, extra_env={"thr": 100.0})


class TestRobustness:
    def test_sign_matches_monitor(self, decay_traj):
        cases = [
            F(1.0, 0.5 - x >= 0),
            F(1.0, 0.1 - x >= 0),
            G(5.0, x >= 0),
            G(5.0, x >= 0.5),
            F(3.0, G(2.0, 0.2 - x >= 0)),
        ]
        for phi in cases:
            sat = monitor(phi, decay_traj)
            rob = robustness(phi, decay_traj)
            if rob > 1e-9:
                assert sat, f"{phi} rob={rob}"
            if rob < -1e-9:
                assert not sat, f"{phi} rob={rob}"

    def test_eventually_is_max(self):
        traj = make_traj(lambda t: math.sin(t))
        rob = robustness(F(10.0, x >= 0.5), traj)
        # max margin = max sin - 0.5 = 0.5
        assert rob == pytest.approx(0.5, abs=1e-3)

    def test_always_is_min(self):
        traj = make_traj(lambda t: math.sin(t))
        rob = robustness(G(10.0, x >= -2.0), traj)
        assert rob == pytest.approx(1.0, abs=1e-3)  # min sin + 2 = 1

    def test_negation_flips(self):
        traj = make_traj(lambda t: 1.0)
        assert robustness(~prop(x >= 0), traj) == pytest.approx(-1.0)

    def test_until_robustness(self):
        traj = make_traj(lambda t: t)
        rob = robustness(U(10.0, 20.0 - x >= 0, x - 3 >= 0), traj)
        assert rob > 0


class TestRobustnessHorizon:
    def test_window_past_the_trajectory_raises(self):
        # the trajectory ends at t=5, the window needs t=10: no margin
        # for a window the trajectory never saw
        traj = make_traj(lambda t: 1.0, t_end=5.0, n=51)
        with pytest.raises(ValueError, match="horizon"):
            robustness(G(10.0, x - 0.1 >= 0), traj)
        with pytest.raises(ValueError, match="horizon"):
            monitor(G(10.0, x - 0.1 >= 0), traj)

    def test_horizon_slack_matches_monitor(self):
        traj = make_traj(lambda t: 1.0, t_end=5.0, n=51)
        phi = G(5.0 + 5e-10, x - 0.1 >= 0)
        assert monitor(phi, traj)
        assert robustness(phi, traj) == pytest.approx(0.9)


# ----------------------------------------------------------------------
# Differential suite: the array pass against the per-instant recursion
# ----------------------------------------------------------------------
#
# ``_ref_sat`` / ``_ref_rob`` are the recursive walk the library used
# before the one-pass evaluator: one ``Trajectory.at`` and one
# ``Formula.eval`` (or ``formula_margin``) per instant.  They are the
# semantics the array pass must reproduce bit for bit, including which
# evaluation error is raised first.


def _times_in(traj, lo, hi):
    return window_times(traj.times, lo, hi, traj.t0, traj.t_end)


def _ref_sat(phi, traj, t, env):
    if isinstance(phi, Prop):
        return phi.formula.eval({**env, **traj.at(t)})
    if isinstance(phi, NotOp):
        return not _ref_sat(phi.arg, traj, t, env)
    if isinstance(phi, AndOp):
        return _ref_sat(phi.left, traj, t, env) and _ref_sat(phi.right, traj, t, env)
    if isinstance(phi, OrOp):
        return _ref_sat(phi.left, traj, t, env) or _ref_sat(phi.right, traj, t, env)
    if isinstance(phi, Eventually):
        return any(_ref_sat(phi.arg, traj, u, env)
                   for u in _times_in(traj, t, t + phi.bound))
    if isinstance(phi, Always):
        return all(_ref_sat(phi.arg, traj, u, env)
                   for u in _times_in(traj, t, t + phi.bound))
    if isinstance(phi, Until):
        times = _times_in(traj, t, t + phi.bound)
        for i, u in enumerate(times):
            if _ref_sat(phi.right, traj, u, env):
                return all(_ref_sat(phi.left, traj, w, env) for w in times[:i])
        return False
    if isinstance(phi, At):
        return _ref_sat(phi.arg, traj, t + phi.offset, env)
    raise TypeError(type(phi).__name__)


def _ref_rob(phi, traj, t, env):
    if isinstance(phi, Prop):
        return formula_margin(phi.formula, {**env, **traj.at(t)})
    if isinstance(phi, NotOp):
        return -_ref_rob(phi.arg, traj, t, env)
    if isinstance(phi, AndOp):
        return min(_ref_rob(phi.left, traj, t, env), _ref_rob(phi.right, traj, t, env))
    if isinstance(phi, OrOp):
        return max(_ref_rob(phi.left, traj, t, env), _ref_rob(phi.right, traj, t, env))
    if isinstance(phi, Eventually):
        return max(_ref_rob(phi.arg, traj, u, env)
                   for u in _times_in(traj, t, t + phi.bound))
    if isinstance(phi, Always):
        return min(_ref_rob(phi.arg, traj, u, env)
                   for u in _times_in(traj, t, t + phi.bound))
    if isinstance(phi, Until):
        times = _times_in(traj, t, t + phi.bound)
        best = -math.inf
        for i, u in enumerate(times):
            r_right = _ref_rob(phi.right, traj, u, env)
            r_left = min((_ref_rob(phi.left, traj, w, env) for w in times[:i]),
                         default=math.inf)
            best = max(best, min(r_right, r_left))
        return best
    if isinstance(phi, At):
        return _ref_rob(phi.arg, traj, t + phi.offset, env)
    raise TypeError(type(phi).__name__)


def _outcome(fn):
    """The value, or the exception type and message, of ``fn()``."""
    try:
        return ("ok", fn())
    except Exception as exc:  # noqa: BLE001 -- compared, not handled
        return ("raise", type(exc).__name__, str(exc))


def _both(phi, traj, t, env):
    """(reference, array pass) outcomes for the verdict and the margin."""
    want = (
        _outcome(lambda: bool(_ref_sat(phi, traj, t, dict(env)))),
        _outcome(lambda: float(_ref_rob(phi, traj, t, dict(env))).hex()),
    )
    got = (
        _outcome(lambda: bool(_truth(phi, traj, [t], env)[0])),
        _outcome(lambda: float(_margin(phi, traj, [t], env)[0]).hex()),
    )
    return want, got


y, k = var("y"), var("k")
_CONSTS = (0.0, -0.0, 0.5, -1.0, 2.0, math.nan)
_UNARY = ("neg", "abs", "sqrt", "exp", "log", "sin", "cos", "tan", "tanh", "sigmoid")
_BINARY = ("add", "sub", "mul", "div", "pow", "min", "max")


def _random_term(rng, depth=0):
    roll = rng.random()
    if depth > 2 or roll < 0.3:
        return rng.choice([x, y, k, Const(rng.choice(_CONSTS))])
    if roll < 0.45:
        return Unary(rng.choice(_UNARY), _random_term(rng, depth + 1))
    return Binary(rng.choice(_BINARY), _random_term(rng, depth + 1),
                  _random_term(rng, depth + 1))


def _random_state_formula(rng, depth=0):
    roll = rng.random()
    if depth > 1 or roll < 0.6:
        return Atom(_random_term(rng), rng.random() < 0.5)
    parts = [_random_state_formula(rng, depth + 1) for _ in range(rng.randint(2, 3))]
    return And(*parts) if roll < 0.8 else Or(*parts)


def _random_bltl(rng, depth=0):
    if depth > 2 or rng.random() < 0.3:
        return Prop(_random_state_formula(rng))
    bound = rng.choice([0.0, 0.3, 1.0, 2.5, 7.0])
    kind = rng.randrange(7)
    if kind == 0:
        return NotOp(_random_bltl(rng, depth + 1))
    if kind == 1:
        return AndOp(_random_bltl(rng, depth + 1), _random_bltl(rng, depth + 1))
    if kind == 2:
        return OrOp(_random_bltl(rng, depth + 1), _random_bltl(rng, depth + 1))
    if kind == 3:
        return Eventually(bound, _random_bltl(rng, depth + 1))
    if kind == 4:
        return Always(bound, _random_bltl(rng, depth + 1))
    if kind == 5:
        return Until(bound, _random_bltl(rng, depth + 1), _random_bltl(rng, depth + 1))
    # offsets past t_end reach times outside the trajectory
    return At(rng.choice([0.0, 0.5, 1.3, 20.0]), _random_bltl(rng, depth + 1))


def _random_traj(rng, nrng):
    n = rng.choice([1, 2, 5, 20, 60])
    t0 = rng.choice([0.0, 1.0])
    times = np.unique(nrng.uniform(t0, t0 + 10.0, n))
    times[0] = t0
    states = nrng.normal(size=(len(times), 2))
    if rng.random() < 0.3:
        states[nrng.random(states.shape) < 0.2] = 0.0
    if rng.random() < 0.2:
        states[nrng.random(states.shape) < 0.1] = -0.0
    if rng.random() < 0.5:
        return Trajectory(times, states, ["x", "y"], nrng.normal(size=states.shape))
    return Trajectory(times, states, ["x", "y"])


class TestArrayPassDifferential:
    """Random nested formulas: verdicts equal, margins equal as ``float.hex``,
    and the same exception (type and message) wherever the walk raises."""

    @pytest.mark.parametrize("seed", range(4))
    def test_random_formulas(self, seed):
        rng = random.Random(seed)
        nrng = np.random.default_rng(seed)
        for _ in range(400):
            phi = _random_bltl(rng)
            traj = _random_traj(rng, nrng)
            env = {"k": rng.choice([0.0, -0.0, 1.0])} if rng.random() < 0.8 else {}
            # windows that run past t_end, and t_start > t0
            t = float(rng.choice([traj.t0, traj.t0 + 0.7, traj.t0 + 3.0]))
            want, got = _both(phi, traj, t, env)
            assert got == want, f"{phi} at t={t}"

    def test_many_instants_at_once(self):
        # the online monitor's path: one pass over several anchors
        rng = random.Random(11)
        nrng = np.random.default_rng(11)
        for _ in range(80):
            phi = _random_bltl(rng)
            traj = _random_traj(rng, nrng)
            ts = sorted(float(u) for u in nrng.uniform(traj.t0, traj.t_end, 4))
            want = [_outcome(lambda u=u: bool(_ref_sat(phi, traj, u, {"k": 1.0})))
                    for u in ts]
            if all(w[0] == "ok" for w in want):
                got = _truth(phi, traj, ts, {"k": 1.0}).tolist()
                assert got == [w[1] for w in want]
            else:
                first = next(w for w in want if w[0] == "raise")
                assert _outcome(lambda: _truth(phi, traj, ts, {"k": 1.0})) == first

    def test_public_entry_points(self, decay_traj):
        cases = [
            F(3.0, G(2.0, 0.2 - x >= 0)),
            U(4.0, x >= 0.1, F(1.0, 0.3 - x >= 0)),
            G(1.0, at_time(0.5, x >= 0.2)) | ~F(2.0, x >= 0.9),
        ]
        for phi in cases:
            for t in (0.0, 1.3):
                assert monitor(phi, decay_traj, t) == _ref_sat(phi, decay_traj, t, {})
                assert (robustness(phi, decay_traj, t).hex()
                        == _ref_rob(phi, decay_traj, t, {}).hex())


def _linear(values, names=("x",)):
    """A linear-interpolation trajectory sampled at t = 0, 1, 2, ..."""
    values = np.asarray(values, dtype=float).reshape(len(values), -1)
    return Trajectory(np.arange(len(values), dtype=float), values, list(names))


class TestArrayPassPinned:
    def test_nan_margins(self):
        nan = math.nan
        for values in ([nan, 1.0, 2.0], [1.0, nan, 2.0], [1.0, 2.0, nan], [nan, nan]):
            traj = _linear(values)
            for phi in (F(2.0, x >= 0), G(2.0, x >= 0), U(2.0, x >= 0, x >= 1.5),
                        ~G(2.0, x - 1.5 >= 0)):
                want, got = _both(phi, traj, 0.0, {})
                assert got == want, f"{phi} over {values}"

    def test_signed_zeros(self):
        for values in ([-0.0, 0.0, -1.0], [0.0, -0.0, -1.0], [-1.0, -0.0, 0.0],
                       [1.0, -0.0, 0.0], [-0.0, -0.0]):
            traj = _linear(values)
            for phi in (F(2.0, x >= 0), G(2.0, x >= 0), U(2.0, x >= 0, x >= 0),
                        F(2.0, prop(x >= 0) & prop(-x >= 0))):
                want, got = _both(phi, traj, 0.0, {})
                assert got == want, f"{phi} over {values}"

    def test_division_by_zero_after_first_satisfying_instant(self):
        # 1/x >= 0.9 holds at t=0, so F stops before x = 0 at t=2
        traj = _linear([1.0, 2.0, 0.0, 3.0])
        phi = F(3.0, 1.0 / x - 0.9 >= 0)
        assert monitor(phi, traj) is True
        want, got = _both(phi, traj, 0.0, {})
        assert got == want
        # the margin is a max over every instant, so it raises
        with pytest.raises(ArithmeticError, match="division by zero"):
            robustness(phi, traj)

    def test_division_by_zero_before_first_satisfying_instant(self):
        traj = _linear([0.0, 1.0, 2.0, 3.0])
        phi = F(3.0, 1.0 / x - 0.9 >= 0)
        with pytest.raises(ArithmeticError, match="division by zero"):
            monitor(phi, traj)
        want, got = _both(phi, traj, 0.0, {})
        assert got == want

    def test_unbound_variable_raises_key_error(self):
        traj = _linear([1.0, 2.0])
        with pytest.raises(KeyError, match="not bound"):
            monitor(F(1.0, x + var("missing") >= 0), traj)

    def test_columns_override_extra_env(self):
        traj = _linear([1.0, 2.0])
        assert monitor(G(1.0, x >= 1.0), traj, extra_env={"x": -5.0})

    def test_quantified_predicate(self):
        # no column rule: evaluated per instant, errors as the walk has them
        traj = _linear([0.2, 0.6, 1.0])
        z = var("z")
        for phi in (F(2.0, Exists("z", 0.0, 1.0, z - x >= 0) & (x >= 0.5)),
                    G(2.0, Forall("z", 0.0, x, x - z >= 0)),
                    F(2.0, Exists("z", 0.0, 1.0, z / (x - 0.2) >= 0))):
            want, got = _both(phi, traj, 0.0, {})
            assert got == want, f"{phi}"
