"""Workload definitions: the job lists, the service request stream, checks.

Everything here is a pure function of the workload seed; the program
under test only ever receives the generated specs.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import random
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: The cheap core specs the service stream draws from (10-110 ms each).
SERVICE_SCENARIOS = (
    "logistic-falsify",
    "cardiac-fk-dome",
    "thermostat-reach",
    "tbi-plan",
    "sir-outbreak-sprt",
    "decay-pipeline",
    "cardiac-bcf-dome",
)

FK_BUDGET = 20000


def catalog_jobs():
    """The 18 core catalog scenarios at their own seeds."""
    from repro.scenarios import core_scenario_names, get_scenario

    return [get_scenario(name).spec() for name in core_scenario_names()]


def solver_jobs():
    """Three ICP-bound jobs, each a control for a different change."""
    from repro.scenarios import get_scenario

    def fk(name, to_level, delta, max_boxes, v=None):
        base = get_scenario("cardiac-fk-dome").spec()
        query = copy.deepcopy(base.query)
        query["to_level"] = to_level
        if v is not None:
            query["state_bounds"]["v"] = list(v)
        solver = dataclasses.replace(base.solver, delta=delta, max_boxes=max_boxes)
        return base.replace(query=query, solver=solver, name=name)

    return [
        fk("fk-dome-budget", 0.88, 1e-6, FK_BUDGET),
        fk("fk-dome-gated", 0.82, 1e-4, 50000, v=(0.0, 0.05)),
        get_scenario("oscillator-lyapunov").spec(),
    ]


JOB_LISTS = {"catalog": catalog_jobs, "solver": solver_jobs}


def golden(name: str) -> dict:
    """The committed golden snapshot of a catalog scenario (read per run,
    so a deliberate golden regeneration is picked up)."""
    path = ROOT / "tests" / "golden" / f"{name}.json"
    return json.loads(path.read_text(encoding="utf-8"))


def check_inline(report) -> str | None:
    """``None`` when a catalog/solver report is right, else the reason."""
    from repro.tools.golden import project_report, projection_digest

    name = report.name
    if report.status.value == "error":
        return f"{name}: error report: {report.detail}"
    if name == "fk-dome-budget":
        boxes = report.stats.get("boxes_processed")
        if report.status.value != "unknown" or boxes != FK_BUDGET:
            return f"{name}: want unknown after {FK_BUDGET} boxes, got {report.status.value} after {boxes}"
        return None
    if name == "fk-dome-gated":
        if report.status.value != "delta-sat":
            return f"{name}: want delta-sat, got {report.status.value}"
        return None
    want = golden(name)["digest"]
    got = projection_digest(project_report(report))
    if got != want:
        return f"{name}: projection digest {got[:12]} != golden {want[:12]}"
    return None


def service_stream(seed: int, blocks: int) -> list[dict]:
    """The request stream: ``blocks`` x (each scenario once fresh, once repeated).

    A *fresh* request is the scenario under a new seed (a cache miss and
    a cache write; for solver-backed tasks a paving-store write the first
    time, a replay after).  A *repeat* is a verbatim copy of an earlier
    spec of the same scenario (a cache read).  Each block holds every
    scenario once of each kind, shuffled, so half of all requests are
    repeats and every seed sees the same mix.
    """
    from repro.scenarios import get_scenario

    rng = random.Random(seed)
    used: set[int] = set()
    history: dict[str, list[dict]] = {name: [] for name in SERVICE_SCENARIOS}
    out = []
    for _ in range(blocks):
        block = [(name, kind) for name in SERVICE_SCENARIOS for kind in ("fresh", "repeat")]
        rng.shuffle(block)
        # a scenario with nothing to repeat yet goes fresh first, then repeats
        first_time = {name for name in SERVICE_SCENARIOS if not history[name]}
        seen: set[str] = set()
        for name, kind in block:
            if name in first_time:
                kind = "repeat" if name in seen else "fresh"
            seen.add(name)
            if kind == "fresh":
                s = rng.randrange(1, 2**31)
                while s in used:
                    s = rng.randrange(1, 2**31)
                used.add(s)
                spec = get_scenario(name).spec(seed=s).to_dict()
                history[name].append(spec)
            else:
                spec = rng.choice(history[name])
            out.append({
                "scenario": name,
                "kind": kind,
                "spec": spec,
                "expected": get_scenario(name).expected,
            })
    return out
