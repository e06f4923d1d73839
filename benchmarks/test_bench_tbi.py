"""E5: TBI combination-therapy synthesis (paper Sec. IV-B, Fig. 3).

"The mode path 0 -> A -> B -> 0 suggests a successful treatment scheme
defined by a set of jump conditions. ... the problem of determining
which drug to deliver at what time evolves into a parameter synthesis
problem for hybrid automata."

Reproduction: the dose-response structure (therapeutic window), a
minimum-drug BMC plan with synthesized decision threshold, and the
threshold-dependence of survival at high dose.
"""

from repro.apps.therapy import _synthesize_reach_therapy_impl
from repro.bmc import BMCOptions
from repro.expr import var
from repro.hybrid import simulate_hybrid
from repro.logic import And
from repro.models import tbi_model

NO_TREATMENT = {f"theta_{X}": 10.0 for X in "ABCD"} | {"theta_E": -1.0}

RECOVERY_GOAL = And(
    var("clox") <= 0.9, var("rip3") <= 0.9, var("peox") <= 0.9,
    var("il") <= 0.9, var("nad") >= 0.25,
)


def test_dose_response_table(once):
    """Fig. 3's premise: untreated cells die above a dose threshold;
    the default policy opens a therapeutic window."""

    def table():
        rows = []
        for dose in (0.3, 0.5, 0.7, 0.9, 1.1):
            un = simulate_hybrid(
                tbi_model(NO_TREATMENT, dose=dose), t_final=120.0, max_jumps=10
            ).mode_path()[-1]
            tr = simulate_hybrid(
                tbi_model(dose=dose), t_final=120.0, max_jumps=25
            ).mode_path()[-1]
            rows.append((dose, un, tr))
        return rows

    rows = once(table)
    outcome = {dose: (un, tr) for dose, un, tr in rows}
    assert outcome[0.3] == ("live", "live")        # below injury threshold
    assert outcome[0.7][0] == "death"              # untreated dies
    assert outcome[0.7][1] != "death"              # therapy rescues
    assert outcome[0.9][0] == "death" and outcome[0.9][1] != "death"
    assert outcome[1.1] == ("death", "death")      # default policy fails


def test_minimum_drug_plan(once):
    """BMC threshold synthesis: one drug decision reaches recovery."""
    h = tbi_model(dose=0.55, drugs=("drug_A",))
    plan = once(
        _synthesize_reach_therapy_impl,
        h,
        RECOVERY_GOAL,
        {"theta_A": (0.2, 0.8)},
        goal_mode="drug_A",
        max_drugs=1,
        time_bound=30.0,
        options=BMCOptions(
            enclosure_step=0.5, max_boxes_per_path=40, verify_step=0.25, delta=0.2
        ),
    )
    assert plan.found
    assert plan.mode_path == ["live", "drug_A"]
    assert plan.n_drugs == 1
    assert 0.2 <= plan.thresholds["theta_A"] <= 0.8


def test_threshold_dependence_at_high_dose(once):
    """At dose 1.1 only early intervention survives: the jump-condition
    synthesis problem has a nontrivial feasible region."""

    def scan():
        out = {}
        for th in (0.3, 0.5):
            params = {f"theta_{X}": th for X in "ABCD"} | {"theta_E": 0.5}
            traj = simulate_hybrid(
                tbi_model(params, dose=1.1), t_final=120.0, max_jumps=25
            )
            out[th] = traj.mode_path()[-1]
        return out

    out = once(scan)
    assert out[0.3] != "death"   # early intervention survives
    assert out[0.5] == "death"   # late intervention dies


def test_sequential_therapy_path(benchmark):
    """The paper's 0 -> A -> B -> ... -> 0 pattern appears in the
    simulated treated trajectory at intermediate dose."""

    def run():
        return simulate_hybrid(tbi_model(dose=0.7), t_final=120.0, max_jumps=25)

    traj = benchmark(run)
    path = traj.mode_path()
    assert path[0] == "live"
    assert any(m.startswith("drug") for m in path)
    assert path[-1] == "live"  # recovered
