"""Cross-module integration tests: the full stacks wired together."""

import math

import pytest

from repro.apps import SMTCalibrator, TimeSeriesData
from repro.apps.robustness import _check_robustness_impl
from repro.bmc import BMCChecker, BMCOptions, ReachSpec
from repro.expr import parse_expr, var
from repro.hybrid import simulate_hybrid
from repro.intervals import Box
from repro.io import hybrid_from_dict, hybrid_to_dict, ode_from_dict, ode_to_dict, parse_sbml
from repro.logic import in_range
from repro.models import thermostat
from repro.odes import ODESystem, flow_enclosure, rk45
from repro.smc import F, InitialDistribution, StatisticalModelChecker
from repro.solver import DeltaSolver, Status


class TestSBMLToAnalysis:
    """An SBML model flows through calibration and SMC untouched."""

    SBML = """<?xml version="1.0"?>
    <sbml xmlns="http://www.sbml.org/sbml/level2/version4" level="2" version="4">
      <model id="deg">
        <listOfCompartments><compartment id="c" size="1"/></listOfCompartments>
        <listOfSpecies><species id="A" compartment="c" initialConcentration="1"/></listOfSpecies>
        <listOfParameters><parameter id="k" value="1.0"/></listOfParameters>
        <listOfReactions>
          <reaction id="r"><listOfReactants><speciesReference species="A"/></listOfReactants>
            <kineticLaw><math xmlns="http://www.w3.org/1998/Math/MathML">
              <apply><times/><ci>k</ci><ci>A</ci></apply>
            </math></kineticLaw></reaction>
        </listOfReactions>
      </model>
    </sbml>"""

    def test_sbml_calibration(self):
        model = parse_sbml(self.SBML)
        k_true = 0.8
        data = TimeSeriesData.from_samples(
            [(1.0, {"A": math.exp(-k_true)}), (2.0, {"A": math.exp(-2 * k_true)})],
            tolerance=0.02,
        )
        calib = SMTCalibrator(
            model.system, data, {"k": (0.2, 2.0)}, model.initial, delta=0.02
        )
        res = calib._calibrate_impl()
        assert res.params["k"] == pytest.approx(k_true, abs=0.1)

    def test_sbml_smc(self):
        model = parse_sbml(self.SBML)
        checker = StatisticalModelChecker(
            model.system,
            InitialDistribution({"A": (0.9, 1.1)}),
            horizon=3.0,
            seed=0,
        )
        p, _ = checker.probability(F(3.0, var("A") <= 0.2), epsilon=0.2, alpha=0.1)
        assert p == 1.0


class TestJSONRoundtripAnalysis:
    """Serialized models keep their analysis behavior."""

    def test_ode_roundtrip_preserves_enclosures(self):
        sys_ = ODESystem({"x": -var("k") * var("x")}, {"k": 1.0})
        back = ode_from_dict(ode_to_dict(sys_))
        t1 = flow_enclosure(sys_, Box.from_point({"x": 1.0}), 1.0, max_step=0.1)
        t2 = flow_enclosure(back, Box.from_point({"x": 1.0}), 1.0, max_step=0.1)
        assert t1.final()["x"].lo == pytest.approx(t2.final()["x"].lo, rel=1e-9)

    def test_hybrid_roundtrip_preserves_bmc_verdict(self):
        h = thermostat()
        back = hybrid_from_dict(hybrid_to_dict(h))
        spec = ReachSpec(goal=(var("x") >= 31.0), max_jumps=1, time_bound=2.0)
        opt = BMCOptions(enclosure_step=0.2, max_boxes_per_path=50)
        r1 = BMCChecker(h, opt)._check_impl(spec)
        r2 = BMCChecker(back, opt)._check_impl(spec)
        assert r1.status == r2.status == Status.UNSAT


class TestSolverOdeCoupling:
    def test_equilibrium_via_solver_matches_simulation(self):
        """Solve f(x)=0 with the delta-solver; verify the point is an
        attractor by simulating toward it."""
        sys_ = ODESystem({"x": var("r") * var("x") * (1 - var("x") / 10.0)}, {"r": 1.0})
        phi = sys_.equilibria_conditions().subs({"r": 1.0}) & (var("x") >= 5.0)
        res = DeltaSolver(delta=1e-4)._solve_impl(phi, Box.from_bounds({"x": (0.5, 20.0)}))
        assert res.status is Status.DELTA_SAT
        eq = res.witness["x"]
        assert eq == pytest.approx(10.0, abs=0.1)
        traj = rk45(sys_, {"x": 3.0}, (0.0, 50.0))
        assert traj.final()["x"] == pytest.approx(10.0, rel=1e-4)


class TestHybridSmcBmcAgreement:
    def test_simulation_and_bmc_agree_on_reachability(self):
        """What concrete simulation reaches, BMC must find (delta-sat);
        what BMC proves unreachable, simulation must never reach."""
        h = thermostat()
        traj = simulate_hybrid(h, {"x": 20.5}, t_final=5.0)
        reached_on = "on" in traj.mode_path()
        assert reached_on

        spec_sat = ReachSpec(
            goal=in_range(var("x"), 17.9, 18.5), goal_mode="on",
            max_jumps=1, time_bound=2.0,
        )
        opt = BMCOptions(enclosure_step=0.1, max_boxes_per_path=100)
        res = BMCChecker(h, opt)._check_impl(spec_sat)
        assert res.status is Status.DELTA_SAT

        spec_unsat = ReachSpec(goal=(var("x") >= 35.0), max_jumps=3, time_bound=3.0)
        res2 = BMCChecker(h, opt)._check_impl(spec_unsat)
        assert res2.status is Status.UNSAT
        temps = traj.flatten().column("x")
        assert temps.max() < 35.0

    def test_smc_confirms_robustness_verdict(self):
        """An UNSAT robustness certificate implies SMC estimates
        probability ~0 for the same bad event."""
        u = var("u")
        from repro.hybrid import HybridAutomaton, Jump, Mode

        h = HybridAutomaton(
            ["u"],
            [
                Mode("rest", {"u": -u}, invariant=(u <= 0.2 + 1e-6)),
                Mode("fire", {"u": 3.0 * (1.0 - u)}, invariant=(u >= 0.2 - 1e-6)),
            ],
            [
                Jump("rest", "fire", guard=(u >= 0.2)),
                Jump("fire", "rest", guard=(u <= 0.2)),
            ],
            "rest",
            Box.from_bounds({"u": (0.0, 0.1)}),
        )
        cert = _check_robustness_impl(
            h, {"u": (0.0, 0.1)}, bad=(u >= 0.8), time_bound=10.0, max_jumps=2,
            options=BMCOptions(enclosure_step=0.2, max_boxes_per_path=60),
        )
        assert cert.robust is True
        checker = StatisticalModelChecker(
            h, InitialDistribution({"u": (0.0, 0.1)}), horizon=10.0, seed=0
        )
        p, _ = checker.probability(F(10.0, u >= 0.8), epsilon=0.2, alpha=0.1)
        assert p == 0.0


class TestParserToSolver:
    def test_parsed_constraint_solved(self):
        phi_expr = parse_expr("x^3 - 2*x - 5")
        phi = in_range(phi_expr, -1e-3, 1e-3)
        res = DeltaSolver(delta=1e-4)._solve_impl(phi, Box.from_bounds({"x": (0.0, 3.0)}))
        assert res.status is Status.DELTA_SAT
        # classic Wallis cubic root ~ 2.0946
        assert res.witness["x"] == pytest.approx(2.0946, abs=0.01)
