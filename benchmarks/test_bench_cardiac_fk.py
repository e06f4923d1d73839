"""E2: Fenton-Karma spike-and-dome falsification (paper Sec. IV-A, [37]).

The paper's claim: "the Fenton-Karma model of cardiac cells is unable
to reproduce the 'spike-and-dome' morphology of action potential which
has been observed in epicardial cells."

Reproduction: dome morphology encoded as data bands (notch at u <= 0.75
followed by a re-rise to u >= 0.85); delta-decision calibration over
the FK current time scales returns UNSAT -> hypothesis rejected.  The
same query on BCF (epicardial) is delta-sat.
"""

from repro.apps.falsification import _falsify_ascent_impl
from repro.models import (
    action_potential,
    ap_features,
    bcf_hybrid,
    bueno_cherry_fenton,
    fenton_karma,
    fenton_karma_hybrid,
)
from repro.solver import DeltaSolver

#: physiological ranges around the Beeler-Reuter fit of [55]
FK_RANGES = {"tau_r": (10.0, 38.0), "tau_si": (28.0, 130.0)}
#: gate invariants at the notch: in the excited regime dv/dt < 0, so
#: v has decayed below 0.01 by the time the notch forms
FK_STATE_BOUNDS = {"u": (0.0, 1.2), "v": (0.0, 0.01), "w": (0.0, 1.0)}
#: the delta and box budget of both barrier queries
SOLVER = DeltaSolver(delta=1e-4, max_boxes=200_000)


def test_fk_dome_rejected(once):
    """The headline unsat: the FK voltage cannot re-rise through the
    dome window [0.75, 0.85] for any physiological parameters."""
    fk_excited = fenton_karma_hybrid().mode_system("excited")
    verdict = once(
        _falsify_ascent_impl,
        fk_excited,
        "u",
        0.75,
        0.85,
        FK_STATE_BOUNDS,
        FK_RANGES,
        solver=SOLVER,
    )
    assert verdict.rejected
    assert verdict.conclusive


def test_bcf_dome_realizable(once):
    """Control: the BCF dynamics can ascend through its dome window --
    the same barrier query is delta-sat with a witness."""
    bcf_m4 = bcf_hybrid().mode_system("m4")
    verdict = once(
        _falsify_ascent_impl,
        bcf_m4,
        "u",
        1.0,
        1.2,
        {"u": (0.0, 1.6), "v": (0.0, 1.0), "w": (0.0, 1.0), "s": (0.0, 1.0)},
        {"tau_so1": (25.0, 35.0)},
        solver=SOLVER,
    )
    assert not verdict.rejected
    assert verdict.conclusive
    assert verdict.witness_params is not None


def test_simulated_morphology(benchmark):
    """Simulation-level confirmation of the same claim (figure data)."""

    def features():
        fk = ap_features(action_potential(fenton_karma(), u0=0.4, t_final=500.0))
        bcf = ap_features(
            action_potential(bueno_cherry_fenton(), u0=0.4, t_final=500.0)
        )
        return fk, bcf

    fk, bcf = benchmark(features)
    assert not fk.has_dome
    assert bcf.has_dome
    assert bcf.apd90 is not None and 200 < bcf.apd90 < 350
