"""Statistical machinery for SMC: SPRT, Chernoff bounds, Bayesian estimation.

These are the standard ingredients of statistical model checking as used
by the paper's SMC framework [11]-[13]: Wald's sequential probability
ratio test for hypothesis testing ``P(phi) >= theta``, the
Okamoto/Chernoff fixed-sample bound for probability estimation, and a
Beta-posterior Bayesian estimator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

__all__ = [
    "SPRTResult",
    "SPRTState",
    "sprt",
    "chernoff_sample_size",
    "estimate_probability",
    "BayesianEstimate",
    "bayesian_estimate",
]


@dataclass
class SPRTResult:
    """Outcome of a sequential probability ratio test."""

    accept: bool  # True: H0 (p >= p0) accepted, False: H1 (p <= p1) accepted
    samples_used: int
    successes: int

    @property
    def decision(self) -> str:
        """``"H0"`` when the test accepted ``p >= p0``, else ``"H1"``."""
        return "H0" if self.accept else "H1"


@dataclass
class SPRTState:
    """Incremental Wald SPRT for ``H0: p >= theta + indifference`` vs
    ``H1: p <= theta - indifference``.

    Observations are fed **one at a time** via :meth:`update`, which
    returns the :class:`SPRTResult` the moment the log-likelihood ratio
    crosses a decision threshold and ``None`` while the test is still
    undecided.  The batch :func:`sprt` entry point is a thin driver
    around this state, so both paths share one likelihood accumulator --
    the online monitoring layer (:mod:`repro.monitor`) keeps one
    ``SPRTState`` per telemetry stream and concludes hypothesis tests
    as verdicts arrive, without buffering outcomes.

    Error bounds: P(accept H1 | H0) <= alpha, P(accept H0 | H1) <= beta.
    If ``max_samples`` observations arrive without a crossing, the
    decision falls back to the empirical mean (best effort), exactly as
    the batch call always did.
    """

    theta: float
    alpha: float = 0.05
    beta: float = 0.05
    indifference: float = 0.05
    max_samples: int = 100_000

    def __post_init__(self):
        p0 = min(self.theta + self.indifference, 1.0 - 1e-9)
        p1 = max(self.theta - self.indifference, 1e-9)
        if p1 >= p0:
            raise ValueError("indifference region collapsed; reduce indifference")
        self._accept_h0_at = math.log(self.beta / (1.0 - self.alpha))
        self._accept_h1_at = math.log((1.0 - self.beta) / self.alpha)
        self._succ_inc = math.log(p1 / p0)
        self._fail_inc = math.log((1.0 - p1) / (1.0 - p0))
        self._llr = 0.0
        self._n = 0
        self._k = 0
        self._result: SPRTResult | None = None

    # ------------------------------------------------------------------
    @property
    def samples(self) -> int:
        """Observations consumed so far."""
        return self._n

    @property
    def successes(self) -> int:
        """Successful observations so far."""
        return self._k

    @property
    def result(self) -> SPRTResult | None:
        """The decision, or ``None`` while the test is running."""
        return self._result

    @property
    def decided(self) -> bool:
        """Whether the test has concluded."""
        return self._result is not None

    def describe(self) -> str:
        """Short status string (``H0``/``H1``/``n=k/N``) for tables."""
        if self._result is not None:
            return self._result.decision
        return f"{self._k}/{self._n}"

    # ------------------------------------------------------------------
    def update(self, success: bool) -> SPRTResult | None:
        """Consume one Bernoulli observation.

        Returns the decision the moment it is reached (and keeps
        returning it for any further -- ignored -- observations), or
        ``None`` while undecided.
        """
        if self._result is not None:
            return self._result
        self._n += 1
        if success:
            self._k += 1
            self._llr += self._succ_inc
        else:
            self._llr += self._fail_inc
        if self._llr <= self._accept_h0_at:
            self._result = SPRTResult(True, self._n, self._k)
        elif self._llr >= self._accept_h1_at:
            self._result = SPRTResult(False, self._n, self._k)
        elif self._n >= self.max_samples:
            self._result = self.conclude()
        return self._result

    def conclude(self) -> SPRTResult:
        """Force a best-effort decision by the empirical mean.

        Used when the observation budget runs out (batch path) or a
        stream closes before the likelihood ratio crosses a threshold.
        """
        if self._result is not None:
            return self._result
        accept = (self._k / max(self._n, 1)) >= self.theta
        return SPRTResult(accept=accept, samples_used=self._n, successes=self._k)


def sprt(
    sampler: Callable[[], bool] | Iterator[bool],
    theta: float,
    alpha: float = 0.05,
    beta: float = 0.05,
    indifference: float = 0.05,
    max_samples: int = 100_000,
) -> SPRTResult:
    """Wald's SPRT for ``H0: p >= theta + indifference`` vs
    ``H1: p <= theta - indifference``.

    ``sampler`` produces i.i.d. Bernoulli observations (one simulation =
    one sample).  Error bounds: P(accept H1 | H0) <= alpha,
    P(accept H0 | H1) <= beta.  If the budget runs out, the decision is
    by the empirical mean (best effort).

    This is a batch driver over :class:`SPRTState`; feeding the same
    outcomes one-by-one through :meth:`SPRTState.update` reaches the
    identical decision after the identical number of samples.
    """
    state = SPRTState(theta, alpha, beta, indifference, max_samples)
    draw = sampler if callable(sampler) else lambda it=iter(sampler): next(it)
    while state.samples < max_samples:
        result = state.update(bool(draw()))
        if result is not None:
            return result
    return state.conclude()


def chernoff_sample_size(epsilon: float, alpha: float) -> int:
    """Okamoto/Chernoff bound: samples needed so that
    ``P(|p_hat - p| >= epsilon) <= alpha``."""
    if not (0 < epsilon < 1) or not (0 < alpha < 1):
        raise ValueError("epsilon and alpha must be in (0, 1)")
    return math.ceil(math.log(2.0 / alpha) / (2.0 * epsilon * epsilon))


def estimate_probability(
    sampler: Callable[[], bool],
    epsilon: float = 0.05,
    alpha: float = 0.05,
) -> tuple[float, int]:
    """Fixed-size estimation: returns ``(p_hat, n)`` with the Chernoff
    guarantee ``P(|p_hat - p| >= epsilon) <= alpha``."""
    n = chernoff_sample_size(epsilon, alpha)
    k = sum(1 for _ in range(n) if sampler())
    return k / n, n


@dataclass
class BayesianEstimate:
    """Beta-posterior summary of a Bernoulli probability."""

    mean: float
    ci_low: float
    ci_high: float
    n: int
    successes: int


def bayesian_estimate(
    sampler: Callable[[], bool],
    n: int,
    prior_a: float = 1.0,
    prior_b: float = 1.0,
    credibility: float = 0.95,
) -> BayesianEstimate:
    """Draw ``n`` samples and summarize the Beta posterior.

    The credible interval uses the Beta quantile function (via scipy).
    """
    from scipy.stats import beta as beta_dist

    k = sum(1 for _ in range(n) if sampler())
    a = prior_a + k
    b = prior_b + (n - k)
    lo = (1.0 - credibility) / 2.0
    return BayesianEstimate(
        mean=a / (a + b),
        ci_low=float(beta_dist.ppf(lo, a, b)),
        ci_high=float(beta_dist.ppf(1.0 - lo, a, b)),
        n=n,
        successes=k,
    )
