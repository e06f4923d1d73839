"""E6: time-bounded robustness of cardiac excitation (paper Sec. IV-C).

"Cardiac cells filter out insignificant stimulations ... we can verify
this by checking if the action potential can be successfully triggered
by a small range of stimulation.  An unsat answer returned by dReach
will guarantee that the model is robust to the corresponding
stimulation amplitude."

Reproduction on the FK hybrid automaton: sub-threshold stimulation is
*proven* unable to trigger an AP (UNSAT); supra-threshold stimulation
yields a delta-sat excitation witness; bisection brackets the
excitability threshold.
"""

from repro.apps import stimulus_threshold
from repro.apps.robustness import _check_robustness_impl
from repro.bmc import BMCOptions
from repro.expr import var
from repro.intervals import Box
from repro.models import fenton_karma_hybrid

u = var("u")
AP_FIRED = u >= 0.8  # reaching 80% depolarization counts as an AP


def _rest_model(u_hi: float):
    return fenton_karma_hybrid(
        initial_mode="rest",
        init=Box.from_bounds({"u": (0.0, u_hi), "v": (1.0, 1.0), "w": (1.0, 1.0)}),
    )


def test_subthreshold_robust(once):
    """Stimuli up to u = 0.03 provably cannot trigger an AP."""
    h = _rest_model(0.03)
    res = once(
        _check_robustness_impl,
        h,
        {"u": (0.0, 0.03)},
        AP_FIRED,
        time_bound=30.0,
        max_jumps=2,
        options=BMCOptions(enclosure_step=0.5, max_boxes_per_path=80),
    )
    assert res.robust is True


def test_suprathreshold_excitable(once):
    """Stimuli in [0.3, 0.5] provably (delta) trigger an AP."""
    h = fenton_karma_hybrid(
        initial_mode="excited",
        init=Box.from_bounds({"u": (0.3, 0.5), "v": (1.0, 1.0), "w": (1.0, 1.0)}),
    )
    res = once(
        _check_robustness_impl,
        h,
        {"u": (0.3, 0.5)},
        AP_FIRED,
        time_bound=30.0,
        max_jumps=2,
        options=BMCOptions(
            enclosure_step=0.5, max_boxes_per_path=40, delta=0.1, verify_step=0.005
        ),
    )
    assert res.robust is False
    assert res.witness is not None


def test_threshold_bracket(once):
    """Bisection brackets the excitability threshold from the robust
    side (all stimuli in the rest region are provably safe)."""
    h = _rest_model(0.039)
    lo, hi = once(
        stimulus_threshold,
        h,
        "u",
        AP_FIRED,
        0.0,
        0.039,
        time_bound=30.0,
        max_jumps=2,
        iterations=4,
        options=BMCOptions(enclosure_step=0.5, max_boxes_per_path=80),
    )
    # the whole sub-u_v rest region is robust
    assert lo >= 0.03
