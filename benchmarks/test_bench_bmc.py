"""E10: BMC scaling (paper Sec. III-C).

Reach-check cost vs unrolling depth k and vs the per-mode time bound M
on the thermostat, plus parameter synthesis over a jump threshold --
the shape dReach exhibits on multi-mode models [54].
"""

import pytest

from repro.bmc import BMCChecker, BMCOptions, ReachSpec
from repro.expr import var
from repro.logic import in_range
from repro.models import thermostat
from repro.solver import Status

x = var("x")

_OPTS = BMCOptions(enclosure_step=0.1, max_boxes_per_path=120)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_depth_sweep(benchmark, k):
    """The heater band [18, 22] needs k >= 1 jumps to revisit 'on'."""
    h = thermostat()
    spec = ReachSpec(
        goal=in_range(x, 18.5, 21.5), goal_mode="on", max_jumps=k, time_bound=3.0
    )
    checker = BMCChecker(h, _OPTS)
    result = benchmark(lambda: checker._check_impl(spec))
    if k == 0:
        assert result.status is Status.UNSAT  # no path ends in "on"
    else:
        assert result.status is Status.DELTA_SAT


@pytest.mark.parametrize("M", [0.5, 1.0, 2.0, 4.0])
def test_time_bound_sweep(benchmark, M):
    """Cooling from 20.5 to 18 takes t = ln(20.5/18) ~ 0.13; reaching
    x <= 18.05 in mode 'off' is feasible for every M here, with work
    growing in the dwell-search window M."""
    h = thermostat()
    spec = ReachSpec(goal=(18.05 - x >= 0), goal_mode="off", max_jumps=0, time_bound=M)
    checker = BMCChecker(h, _OPTS)
    result = benchmark(lambda: checker._check_impl(spec))
    assert result.status is Status.DELTA_SAT


def test_threshold_synthesis(benchmark):
    """Parameter synthesis over the switch-on threshold (Def. 13): the
    checker must return a valid threshold witness together with a dwell
    schedule realizing the goal."""
    h = thermostat()
    spec = ReachSpec(goal=(x >= 19.0), goal_mode="on", max_jumps=1, time_bound=3.0)
    checker = BMCChecker(h, _OPTS)
    result = benchmark(
        lambda: checker._check_impl(spec, param_ranges={"theta_on": (15.0, 21.0)})
    )
    assert result.status is Status.DELTA_SAT
    theta = result.witness_params["theta_on"]
    assert 15.0 <= theta <= 21.0
    # replay the witness: simulate with the synthesized threshold and
    # confirm the goal is realized on the returned mode path
    from repro.hybrid import simulate_hybrid

    traj = simulate_hybrid(
        h, result.witness_x0, t_final=6.0, params={"theta_on": theta}
    )
    assert "on" in traj.mode_path()
    assert traj.flatten().column("x").max() >= 19.0


def test_unreachable_band(benchmark):
    """x can never exceed the initial hull + heater ceiling: unsat."""
    h = thermostat()
    spec = ReachSpec(goal=(x >= 31.0), max_jumps=2, time_bound=3.0)
    checker = BMCChecker(h, _OPTS)
    result = benchmark(lambda: checker._check_impl(spec))
    assert result.status is Status.UNSAT
