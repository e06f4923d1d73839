"""E3: BCF parameter synthesis for cardiac disorders (Sec. IV-A, [37]).

"Using the Bueno-Cherry-Fenton model, we have identified critical
parameter ranges that can cause cardiac disorders such as tachycardia
and fibrillation."

Reproduction:

* the APD90-vs-tau_so1 response (the figure-series of the companion
  study): small tau_so1 collapses the APD (tachycardia-inducing),
  large tau_so1 blocks repolarization within the window;
* delta-sat synthesis of a *tachycardic* tau_so1 (the AP repolarizes
  abnormally fast), and UNSAT of the same fast-repolarization query
  restricted to the normal range -- the who-wins boundary.
"""

from repro.apps import Checkpoint, TimeSeriesData
from repro.apps.falsification import _falsify_with_data_impl
from repro.models import (
    action_potential,
    ap_features,
    bcf_hybrid,
    bueno_cherry_fenton,
)

#: post-spike state of the EPI action potential (see E2)
X0 = {"u": 1.2827, "v": 0.0682, "w": 0.9807, "s": 0.1813}

#: abnormally fast early repolarization -- the voltage has already
#: dropped below 0.95 two milliseconds after the spike (at the normal
#: tau_so1 it is still at ~1.15); checked on the m4-regime dynamics
#: where the validated enclosures are tight
TACHY_BANDS = TimeSeriesData([Checkpoint(2.0, {"u": (0.2, 0.95)})])


def test_apd_vs_tau_so1_series(once):
    """The APD response curve: strictly increasing in tau_so1."""

    def sweep():
        out = []
        for tau in (5.0, 10.0, 20.0, 30.0181, 45.0, 60.0):
            traj = action_potential(
                bueno_cherry_fenton({"tau_so1": tau}), u0=0.4, t_final=900.0
            )
            f = ap_features(traj)
            out.append((tau, f.apd90 if f.repolarized else float("inf")))
        return out

    series = once(sweep)
    apds = [a for _t, a in series]
    assert all(a < b for a, b in zip(apds, apds[1:])), series
    # tachycardia-like regime at the small end
    assert apds[0] < 30.0
    # normal epicardial value near the published parameter
    normal = dict(series)[30.0181]
    assert 200 < normal < 350


def test_synthesize_tachycardic_tau(once):
    """delta-sat: some tau_so1 in (3, 12) produces fast repolarization."""
    verdict = once(
        _falsify_with_data_impl,
        bcf_hybrid().mode_system("m4"),
        TACHY_BANDS,
        {"tau_so1": (3.0, 12.0)},
        X0,
        delta=0.1,
        max_boxes=200,
        enclosure_step=0.05,
    )
    assert not verdict.rejected  # behavior realizable
    assert verdict.witness_params is not None
    assert verdict.witness_params["tau_so1"] < 12.0


def test_normal_range_cannot_tachycardia(once):
    """UNSAT: in the normal range (25, 40) the early repolarization is
    provably too slow -- the disorder needs the parameter excursion."""
    verdict = once(
        _falsify_with_data_impl,
        bcf_hybrid().mode_system("m4"),
        TACHY_BANDS,
        {"tau_so1": (25.0, 40.0)},
        X0,
        delta=0.02,
        max_boxes=300,
        enclosure_step=0.05,
    )
    assert verdict.rejected
    assert verdict.conclusive


def test_repolarization_failure_regime(benchmark):
    """Large tau_so1: no repolarization within 400 ms (fibrillation-
    prone prolongation), by simulation."""

    def check():
        traj = action_potential(
            bueno_cherry_fenton({"tau_so1": 200.0}), u0=0.4, t_final=400.0
        )
        return ap_features(traj)

    f = benchmark(check)
    assert not f.repolarized
