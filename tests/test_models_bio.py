"""Tests for prostate IAS, TBI radiation, mass-action and toy models."""

import pytest

from repro.hybrid import simulate_hybrid
from repro.models import (
    PATIENT_PROFILES,
    bouncing_ball,
    damped_oscillator,
    erk_cascade,
    find_equilibrium,
    ias_model,
    ias_on_treatment_ode,
    kinetic_proofreading,
    logistic,
    lotka_volterra,
    psa,
    receptor_ligand,
    sir,
    tbi_model,
    thermostat,
    van_der_pol,
)
from repro.odes import rk45, simulate


class TestProstateIAS:
    def test_responder_cycles_and_stays_controlled(self):
        traj = simulate_hybrid(ias_model("patient_A"), t_final=2000.0, max_jumps=60)
        assert len(traj.segments) >= 6  # several on/off cycles
        final = traj.final()
        assert psa(final) < 50.0
        assert final["y"] < 1.0  # resistant clone controlled

    def test_nonresponder_relapses(self):
        traj = simulate_hybrid(ias_model("patient_C"), t_final=2000.0, max_jumps=60)
        assert traj.final()["y"] > 100.0  # CRPC takes over

    def test_psa_decreases_on_treatment(self):
        traj = simulate_hybrid(ias_model("patient_A"), t_final=100.0, max_jumps=2)
        p0 = psa(traj.at(0.0))
        p1 = psa(traj.at(100.0))
        assert p1 < p0

    def test_androgen_recovers_off_treatment(self):
        traj = simulate_hybrid(ias_model("patient_A"), t_final=2000.0, max_jumps=60)
        # find an off segment and check z rises there
        for seg in traj.segments:
            if seg.mode == "off" and seg.t_end - seg.t0 > 20:
                zs = seg.trajectory.column("z")
                assert zs[-1] > zs[0]
                break
        else:
            pytest.fail("no substantial off-treatment segment found")

    def test_unknown_patient_rejected(self):
        with pytest.raises(KeyError, match="unknown patient"):
            ias_model("patient_Z")

    def test_override_dict(self):
        h = ias_model({"d": 2.0})
        assert h.params["d"] == 2.0

    def test_continuous_therapy_ode(self):
        sys_ = ias_on_treatment_ode("patient_C")
        traj = rk45(sys_, {"x": 15.0, "y": 0.01, "z": 12.0}, (0.0, 1500.0))
        # continuous androgen suppression cannot stop CRPC for d<1 patients
        assert traj.final()["y"] > 1.0

    def test_profiles_cover_regimes(self):
        ds = [PATIENT_PROFILES[p]["d"] for p in ("patient_A", "patient_B", "patient_C")]
        assert ds[0] > 1.0 and ds[2] < 1.0


class TestTBIModel:
    def test_untreated_high_dose_dies(self):
        h = tbi_model(
            {"theta_A": 10, "theta_B": 10, "theta_C": 10, "theta_D": 10, "theta_E": -1},
            dose=1.0,
        )
        traj = simulate_hybrid(h, t_final=120.0, max_jumps=10)
        assert traj.mode_path()[-1] == "death"

    def test_untreated_low_dose_survives(self):
        h = tbi_model(
            {"theta_A": 10, "theta_B": 10, "theta_C": 10, "theta_D": 10, "theta_E": -1},
            dose=0.3,
        )
        traj = simulate_hybrid(h, t_final=120.0, max_jumps=10)
        assert traj.mode_path() == ["live"]

    def test_treatment_rescues_intermediate_dose(self):
        h = tbi_model(dose=0.8)
        traj = simulate_hybrid(h, t_final=120.0, max_jumps=25)
        assert traj.mode_path()[-1] != "death"
        assert len(traj.jumps_taken) >= 1  # at least one drug delivered

    def test_threshold_choice_changes_outcome(self):
        """The therapy-synthesis phenomenon: at dose 1.1, early
        intervention (theta=0.3) survives, late (theta=0.5) dies."""
        base = {"theta_E": 0.5}
        early = {**base, **{f"theta_{X}": 0.3 for X in "ABCD"}}
        late = {**base, **{f"theta_{X}": 0.5 for X in "ABCD"}}
        t_early = simulate_hybrid(tbi_model(early, dose=1.1), t_final=120.0, max_jumps=25)
        t_late = simulate_hybrid(tbi_model(late, dose=1.1), t_final=120.0, max_jumps=25)
        assert t_early.mode_path()[-1] != "death"
        assert t_late.mode_path()[-1] == "death"

    def test_death_is_absorbing(self):
        h = tbi_model(
            {"theta_A": 10, "theta_B": 10, "theta_C": 10, "theta_D": 10, "theta_E": -1},
            dose=2.0,
        )
        traj = simulate_hybrid(h, t_final=200.0, max_jumps=10)
        path = traj.mode_path()
        assert path[-1] == "death"
        assert path.count("death") == 1  # never leaves

    def test_restricted_drug_set(self):
        h = tbi_model(drugs=("drug_A", "drug_B"))
        assert set(h.mode_names) == {"live", "death", "drug_A", "drug_B"}
        with pytest.raises(ValueError, match="unknown drug"):
            tbi_model(drugs=("drug_Z",))

    def test_signature_dynamics_drug_effect(self):
        """In drug_A, CLox production is suppressed relative to live."""
        h = tbi_model(dose=1.0)
        state = {"dmg": 1.0, "clox": 0.5, "rip3": 0.2, "peox": 0.1, "il": 0.1, "nad": 0.9}
        live_rate = h.mode_system("live").eval_field(state)["clox"]
        drug_rate = h.mode_system("drug_A").eval_field(state)["clox"]
        assert drug_rate < live_rate


class TestMassAction:
    def test_receptor_ligand_equilibrium(self):
        sys_, eq = receptor_ligand()
        res = sys_.eval_field(eq)
        assert abs(res["c"]) < 1e-9
        assert 0 < eq["c"] < 2.0

    def test_receptor_ligand_converges_to_equilibrium(self):
        sys_, eq = receptor_ligand()
        traj = rk45(sys_, {"c": 0.0}, (0.0, 50.0))
        assert traj.final()["c"] == pytest.approx(eq["c"], abs=1e-6)

    def test_kinetic_proofreading_equilibrium(self):
        sys_, eq = kinetic_proofreading(n_steps=3)
        res = sys_.eval_field(eq)
        assert max(abs(v) for v in res.values()) < 1e-9
        assert all(v > 0 for v in eq.values())

    def test_proofreading_chain_attenuates(self):
        """Later complexes have lower steady-state levels: the
        proofreading ladder discards weak signals."""
        _sys, eq = kinetic_proofreading(n_steps=4, koff=1.0, kp=0.3)
        levels = [eq[f"c{i}"] for i in range(4)]
        assert all(a > b for a, b in zip(levels, levels[1:]))

    def test_proofreading_convergence(self):
        sys_, eq = kinetic_proofreading(n_steps=2)
        traj = rk45(sys_, {"c0": 0.0, "c1": 0.0}, (0.0, 100.0))
        for k, v in eq.items():
            assert traj.final()[k] == pytest.approx(v, abs=1e-5)

    def test_erk_equilibrium(self):
        sys_, eq = erk_cascade()
        res = sys_.eval_field(eq)
        assert max(abs(v) for v in res.values()) < 1e-9
        assert 0 < eq["e"] < 1

    def test_bad_equilibrium_guess_raises(self):
        sys_ = logistic()
        # fsolve from 0 converges to the unstable equilibrium 0 -- fine;
        # check that the function at least returns a true root
        eq = find_equilibrium(sys_, {"x": 8.0})
        assert abs(sys_.eval_field(eq)["x"]) < 1e-9

    def test_invalid_steps(self):
        with pytest.raises(ValueError):
            kinetic_proofreading(n_steps=0)


class TestToys:
    def test_logistic_carrying_capacity(self):
        traj = simulate(logistic(r=1.0, K=10.0), {"x": 0.5}, (0.0, 30.0))
        assert traj.final()["x"] == pytest.approx(10.0, rel=1e-3)

    def test_lotka_volterra_oscillates(self):
        traj = simulate(lotka_volterra(), {"x": 2.0, "y": 1.0}, (0.0, 40.0))
        xs = traj.column("x")
        assert xs.max() > 2.5 and xs.min() < 2.0

    def test_sir_epidemic_peaks(self):
        traj = simulate(sir(beta=0.5, gamma=0.1), {"s": 0.99, "i": 0.01, "r": 0.0},
                        (0.0, 100.0))
        infected = traj.column("i")
        assert infected.max() > 0.3
        assert traj.final()["i"] < 0.05

    def test_sir_conserves_population(self):
        import numpy as np

        traj = simulate(sir(), {"s": 0.99, "i": 0.01, "r": 0.0}, (0.0, 50.0))
        total = traj.column("s") + traj.column("i") + traj.column("r")
        assert np.allclose(total, 1.0, atol=1e-6)

    def test_van_der_pol_limit_cycle(self):
        traj = simulate(van_der_pol(mu=1.0), {"x": 0.1, "v": 0.0}, (0.0, 60.0))
        xs = traj.column("x")
        assert xs[-500:].max() > 1.5  # reached the limit cycle

    def test_damped_oscillator_decays(self):
        traj = simulate(damped_oscillator(), {"x": 1.0, "v": 0.0}, (0.0, 30.0))
        assert abs(traj.final()["x"]) < 0.01

    def test_thermostat_parametric_thresholds(self):
        h = thermostat(theta_on=15.0, theta_off=25.0)
        traj = simulate_hybrid(h, {"x": 20.0}, t_final=10.0)
        temps = traj.flatten().column("x")
        assert temps.min() > 14.0

    def test_bouncing_ball_loses_energy(self):
        h = bouncing_ball(c=0.5)
        traj = simulate_hybrid(h, t_final=3.0, max_jumps=10)
        assert len(traj.jumps_taken) >= 2


_NO_SCIPY = """
import sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
import repro.api, repro.scenarios, repro.models
from repro.models import erk_cascade_ode, ias_model, kinetic_proofreading_ode, logistic
from repro.odes import rk45

h = ias_model("patient_A")
traj = rk45(logistic(), {"x": 0.5}, (0.0, 1.0))
# the scenario builtins build the mass-action systems without solving
# for an equilibrium, so they need no scipy either
kp, erk = kinetic_proofreading_ode(3), erk_cascade_ode()
print(h.name, len(traj) > 1, kp.dim, erk.dim)
"""


def test_imports_and_models_work_without_scipy():
    """numpy is the one declared runtime dependency: importing the
    package and building a model needs no scipy (``find_equilibrium``
    imports it on its first call)."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    src_dir = str(Path(repro.__file__).parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src_dir, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ias", "True", "3", "2"]
