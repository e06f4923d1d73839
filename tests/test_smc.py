"""Tests for SMC statistics, the engine, and parameter search."""

import math
import random

import pytest

from repro.expr import var
from repro.hybrid import HybridAutomaton, Jump, Mode
from repro.intervals import Box
from repro.odes import ODESystem
from repro.smc import (
    F,
    G,
    InitialDistribution,
    StatisticalModelChecker,
    bayesian_estimate,
    chernoff_sample_size,
    cross_entropy_search,
    estimate_probability,
    genetic_search,
    smc_objective,
    sprt,
)

x = var("x")


def coin(p, seed=0):
    rng = random.Random(seed)
    return lambda: rng.random() < p


class TestSPRT:
    def test_clear_accept(self):
        res = sprt(coin(0.9), theta=0.5)
        assert res.accept and res.decision == "H0"

    def test_clear_reject(self):
        res = sprt(coin(0.1), theta=0.5)
        assert not res.accept and res.decision == "H1"

    def test_sequential_efficiency(self):
        # easy decisions need few samples
        res = sprt(coin(0.95), theta=0.5)
        assert res.samples_used < 50

    def test_iterator_sampler(self):
        res = sprt(iter([True] * 1000), theta=0.5)
        assert res.accept

    def test_budget_fallback(self):
        res = sprt(coin(0.5), theta=0.5, indifference=0.01, max_samples=50)
        assert res.samples_used == 50

    def test_collapsed_indifference_rejected(self):
        with pytest.raises(ValueError):
            sprt(coin(0.5), theta=0.0, indifference=0.0)

    def test_error_rate_empirical(self):
        # true p = 0.8 >> theta 0.5: H0 should be accepted nearly always
        accepts = sum(
            1 for i in range(50) if sprt(coin(0.8, seed=i), theta=0.5).accept
        )
        assert accepts >= 48


class TestChernoff:
    def test_sample_size_formula(self):
        n = chernoff_sample_size(0.05, 0.05)
        assert n == math.ceil(math.log(40.0) / (2 * 0.0025))

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            chernoff_sample_size(0.0, 0.05)
        with pytest.raises(ValueError):
            chernoff_sample_size(0.1, 1.5)

    def test_estimate_within_epsilon(self):
        p_hat, n = estimate_probability(coin(0.3), epsilon=0.05, alpha=0.01)
        assert abs(p_hat - 0.3) < 0.05
        assert n == chernoff_sample_size(0.05, 0.01)


class TestBayesian:
    def test_posterior_concentrates(self):
        est = bayesian_estimate(coin(0.7), n=500)
        assert est.ci_low < 0.7 < est.ci_high
        assert est.ci_high - est.ci_low < 0.15
        assert est.n == 500

    def test_prior_influence_small_n(self):
        est = bayesian_estimate(coin(1.0), n=3, prior_a=1, prior_b=1)
        assert est.mean == pytest.approx(4 / 5)


class TestEngine:
    @pytest.fixture
    def checker(self):
        sys_ = ODESystem({"x": -var("k") * x}, {"k": 1.0})
        init = InitialDistribution({"x": (0.8, 1.2)})
        return StatisticalModelChecker(sys_, init, horizon=3.0, seed=42)

    def test_sample_trajectory(self, checker):
        traj = checker.sample_trajectory()
        assert 0.8 <= traj.value("x", 0.0) <= 1.2
        assert traj.t_end == pytest.approx(3.0)

    def test_probability_certain_property(self, checker):
        p, n = checker.probability(G(2.0, x >= 0.0), epsilon=0.2, alpha=0.1)
        assert p == 1.0

    def test_probability_impossible_property(self, checker):
        p, _n = checker.probability(F(2.0, x >= 5.0), epsilon=0.2, alpha=0.1)
        assert p == 0.0

    def test_probability_intermediate(self):
        # x0 ~ U(0, 1); property x0 >= 0.5 at t=0 has p = 0.5
        sys_ = ODESystem({"x": 0.0 * x})
        init = InitialDistribution({"x": (0.0, 1.0)})
        checker = StatisticalModelChecker(sys_, init, horizon=1.0, seed=7)
        p, _ = checker.probability(G(0.0, x >= 0.5), epsilon=0.1, alpha=0.05)
        assert 0.35 < p < 0.65

    def test_hypothesis_test(self, checker):
        res = checker.hypothesis_test(G(2.0, x >= 0.0), theta=0.9)
        assert res.accept

    def test_bayesian(self, checker):
        est = checker.bayesian(G(2.0, x >= 0.0), n=40)
        assert est.mean > 0.9

    def test_probabilistic_parameters(self):
        sys_ = ODESystem({"x": -var("k") * x}, {"k": 1.0})
        init = InitialDistribution({"x": 1.0, "k": (0.1, 3.0)})
        checker = StatisticalModelChecker(sys_, init, horizon=2.0, seed=3)
        # x(1) = e^-k: below 0.2 iff k > ln 5 ~ 1.61; p ~ (3-1.61)/2.9 ~ 0.48
        p, _ = checker.probability(F(1.5, 0.2 - x >= 0), epsilon=0.12, alpha=0.1)
        assert 0.25 < p < 0.75

    def test_missing_state_rejected(self):
        sys_ = ODESystem({"x": -x})
        checker = StatisticalModelChecker(
            sys_, InitialDistribution({}), horizon=1.0
        )
        with pytest.raises(ValueError, match="misses states"):
            checker.sample_trajectory()

    def test_hybrid_model(self):
        h = HybridAutomaton(
            ["x"],
            [Mode("a", {"x": -x}), Mode("b", {"x": x})],
            [Jump("a", "b", guard=(x <= 0.5))],
            "a",
            Box.from_bounds({"x": (0.9, 1.1)}),
        )
        checker = StatisticalModelChecker(
            h, InitialDistribution({"x": (0.9, 1.1)}), horizon=3.0, seed=1
        )
        p, _ = checker.probability(F(3.0, x >= 0.8), epsilon=0.2, alpha=0.1)
        assert p > 0.9  # after the switch, x grows back above 0.8

    def test_callable_sampler(self):
        sys_ = ODESystem({"x": 0.0 * x})
        init = InitialDistribution({"x": lambda rng: rng.gauss(5.0, 0.1)})
        checker = StatisticalModelChecker(sys_, init, horizon=1.0, seed=0)
        traj = checker.sample_trajectory()
        assert 4.0 < traj.value("x", 0.0) < 6.0

    def test_monitors_only_consumed_draws(self, monkeypatch):
        import repro.smc.engine as smc_engine

        sys_ = ODESystem({"x": -var("k") * x}, {"k": 1.0})
        init = InitialDistribution({"x": (0.8, 1.2)})
        phi = G(2.0, x >= 0.0)

        # the previous rule: monitor the whole population when it is drawn
        eager = StatisticalModelChecker(sys_, init, horizon=3.0, seed=42)
        verdicts: list[bool] = []

        def eager_draw():
            if not verdicts:
                trajs = eager._propagate_population(eager.batch_size)
                verdicts.extend(smc_engine.monitor(phi, t) for t in trajs)
            return verdicts.pop(0)

        want = sprt(eager_draw, theta=0.9)

        calls = []
        real = smc_engine.monitor
        monkeypatch.setattr(
            smc_engine, "monitor", lambda *a, **kw: calls.append(1) or real(*a, **kw)
        )
        checker = StatisticalModelChecker(sys_, init, horizon=3.0, seed=42)
        got = checker.hypothesis_test(phi, theta=0.9)
        assert got == want
        assert got.samples_used < checker.batch_size
        assert len(calls) == got.samples_used

    def test_unconsumed_draw_error_does_not_fail(self, monkeypatch):
        import repro.smc.engine as smc_engine

        sys_ = ODESystem({"x": -var("k") * x}, {"k": 1.0})
        checker = StatisticalModelChecker(
            sys_, InitialDistribution({"x": (0.8, 1.2)}), horizon=3.0, seed=42
        )
        real = smc_engine.monitor
        seen = []

        def fails_after_first(phi, traj):
            seen.append(traj)
            if len(seen) > 1:
                raise ArithmeticError("a draw the test never consumes")
            return real(phi, traj)

        monkeypatch.setattr(smc_engine, "monitor", fails_after_first)
        draw = checker._bernoulli(G(2.0, x >= 0.0))
        assert draw() is True
        with pytest.raises(ArithmeticError):
            draw()

    def test_reproducible_with_seed(self):
        sys_ = ODESystem({"x": -x})
        init = InitialDistribution({"x": (0.0, 1.0)})
        a = StatisticalModelChecker(sys_, init, horizon=1.0, seed=9).sample_trajectory()
        b = StatisticalModelChecker(sys_, init, horizon=1.0, seed=9).sample_trajectory()
        assert a.value("x", 0.0) == b.value("x", 0.0)


class TestParameterSearch:
    @pytest.fixture
    def objective(self):
        """Recover k such that decay x(1) ~ e^-2 (i.e. k ~ 2)."""
        sys_ = ODESystem({"x": -var("k") * x}, {"k": 1.0})
        target = math.exp(-2.0)
        band = G(0.0, (x - (target - 0.02) >= 0) & ((target + 0.02) - x >= 0))
        from repro.smc import BLTL, prop  # noqa: F401

        # robustness of hitting the band at t=1: use F with tiny window at 1
        phi = F(0.05, band)

        def fit(params):
            from repro.odes import rk45

            traj = rk45(sys_, {"x": 1.0}, (0.0, 1.05), params=dict(params))
            from repro.smc import robustness

            return robustness(phi, traj, t_start=1.0 - 0.05)

        return fit

    def test_cross_entropy_recovers_k(self, objective):
        res = cross_entropy_search(
            objective, {"k": (0.1, 5.0)}, population=30, iterations=15, seed=0
        )
        assert res.satisfied
        assert res.best_params["k"] == pytest.approx(2.0, abs=0.15)

    def test_genetic_recovers_k(self, objective):
        res = genetic_search(
            objective, {"k": (0.1, 5.0)}, population=30, generations=15, seed=0
        )
        assert res.satisfied
        assert res.best_params["k"] == pytest.approx(2.0, abs=0.2)

    def test_history_monotone(self, objective):
        res = cross_entropy_search(
            objective, {"k": (0.1, 5.0)}, population=20, iterations=8, seed=1
        )
        assert all(b >= a - 1e-12 for a, b in zip(res.history, res.history[1:]))

    def test_early_stop_on_target(self, objective):
        res = cross_entropy_search(
            objective, {"k": (0.1, 5.0)}, population=30, iterations=50,
            seed=0, target=0.0,
        )
        assert len(res.history) < 50

    def test_smc_objective_wrapper(self):
        sys_ = ODESystem({"x": -var("k") * x}, {"k": 1.0})
        phi = F(2.0, 0.2 - x >= 0)
        fit = smc_objective(sys_, phi, {"x": (0.9, 1.1)}, horizon=2.0, n_samples=3)
        # k=2 decays fast enough; k=0.1 does not
        assert fit({"k": 2.0}) > 0
        assert fit({"k": 0.1}) < 0

    def test_smc_objective_failure_scores_neg_inf(self):
        sys_ = ODESystem({"x": var("k") * x * x}, {"k": 1.0})
        phi = G(1.0, x >= 0)
        fit = smc_objective(sys_, phi, {"x": (5.0, 6.0)}, horizon=5.0, n_samples=2)
        assert fit({"k": 10.0}) == -math.inf
