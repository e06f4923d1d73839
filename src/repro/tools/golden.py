"""Golden-verdict conformance corpus: digests guarding every solver path.

The corpus (``tests/golden/``) pins, for every catalog scenario at its
fixed seed, the verdict the framework must produce -- and it must
produce the *same* verdict through every execution path of the
delta-decision machinery:

``serial``
    one box per pass of the ICP loop (``frontier_size=1``),
``vectorized``
    the scenario's own frontier width (its solver defaults),
``sharded``
    the work-stealing parallel driver (``shards=2``).

A snapshot stores the mode-invariant *projection* of the report (task,
name, status, rounded metrics, witness variable names) plus its SHA-256
digest.  Mode-dependent fields (wall time, boxes processed, exact
witness coordinates -- searches with different frontier widths may
certify different boxes of equal validity) are deliberately excluded, so a
digest mismatch always means a real verdict regression.

Alongside the scenario snapshots, ``paving-*.json`` entries pin the
**byte-exact** paving digests of dedicated synthesis problems: for
pavings the serial, vectorized and sharded kernels classify the very
same sub-boxes bound-for-bound, and the corpus proves it stays that
way.

Regenerate with ``python -m repro.tools.regen_golden`` after an
intentional behavior change; CI fails on stale snapshots.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace as _dataclass_replace
from pathlib import Path
from typing import Any, Mapping

__all__ = [
    "MODES",
    "PAVING_PROBLEMS",
    "PROMOTED_SCENARIOS",
    "golden_dir",
    "golden_scenario_names",
    "project_report",
    "projection_digest",
    "scenario_projection",
    "paving_digest",
]

#: Solver-option overrides selecting each conformance execution path.
#: ``None`` keeps the scenario's own default for that field.
MODES: dict[str, dict[str, Any]] = {
    "serial": {"frontier_size": 1, "shards": 1},
    "vectorized": {"shards": 1},
    "sharded": {"shards": 2, "shard_backend": "thread"},
}


#: Corpus discoveries promoted into the golden set: ingested/generated
#: entries whose verdicts sit close to the machinery's edges and are
#: cheap enough to pin on every solver path alongside the hand-written
#: core.  Highlights: ``fk-s2020-03-dome`` is a perturbed Fenton-Karma
#: barrier whose 10% jitter *flips* the paper's structural ``falsified``
#: verdict to ``delta-sat`` (a near-delta-boundary disagreement
#: candidate), and the ``unknown`` entries pin budget-bound paving
#: exhaustion identically across paths.
PROMOTED_SCENARIOS: tuple[str, ...] = (
    "ma-s2020-00-drain",      # cycle network, budget-bound unknown
    "ma-s2020-02-drain",      # cycle network, delta-sat ascent witness
    "ma-s2020-05-drain",      # chain network, head provably drains
    "sbml-net00-rise",        # ingested SBML, unknown at corpus budget
    "sbml-enzyme00-settle",   # boundary-species MM import, falsified
    "fk-s2020-03-dome",       # perturbation flips the FK dome verdict
    "sw-s2020-01-safe",       # generated hybrid robustness, validated
    "ias-s2020-00-burden",    # perturbed IAS cohort SMC, estimated
)


def golden_scenario_names() -> list[str]:
    """The golden-pinned scenario set: hand-written core + promoted.

    The full corpus is conformance-checked by
    ``tests/test_corpus_conformance.py``; the golden snapshots pin the
    core catalog plus :data:`PROMOTED_SCENARIOS` byte-for-byte.
    """
    from repro.scenarios import core_scenario_names, scenario_names

    names = set(core_scenario_names())
    registered = set(scenario_names())
    names.update(p for p in PROMOTED_SCENARIOS if p in registered)
    return sorted(names)


def golden_dir(start: Path | None = None) -> Path:
    """The ``tests/golden`` directory of the repository checkout."""
    here = Path(start or __file__).resolve()
    for parent in here.parents:
        candidate = parent / "tests" / "golden"
        if (parent / "pyproject.toml").exists():
            return candidate
    raise FileNotFoundError("cannot locate the repository root (pyproject.toml)")


# ----------------------------------------------------------------------
# Report projection
# ----------------------------------------------------------------------


def project_report(report) -> dict[str, Any]:
    """The mode-invariant projection of an :class:`AnalysisReport`.

    Everything here must agree across the serial, vectorized and
    sharded solver paths; volatile fields (timings, box counts, exact
    witness coordinates) are excluded by construction.
    """
    return {
        "task": report.task,
        "name": report.name,
        "status": report.status.value,
        "witness_vars": (
            None if report.witness is None else sorted(report.witness)
        ),
        "metrics": {
            k: round(float(v), 9) for k, v in sorted(report.metrics.items())
        },
    }


def projection_digest(projection: Mapping[str, Any]) -> str:
    """Canonical SHA-256 of a projection (sorted keys, no whitespace)."""
    blob = json.dumps(projection, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _mode_spec(spec, mode: str, overrides: Mapping[str, Any] | None = None):
    merged = dict(MODES[mode])
    if overrides:
        merged.update(overrides)
    return spec.replace(solver=_dataclass_replace(spec.solver, **merged))


def scenario_projection(
    name: str, mode: str, overrides: Mapping[str, Any] | None = None
) -> dict[str, Any]:
    """Run one catalog scenario through one solver path and project it.

    ``overrides`` layers extra solver-option replacements on top of the
    mode's own -- the cluster conformance tests use it to swap
    ``shard_backend`` for a live
    :class:`~repro.cluster.backend.ClusterBackend` while keeping every
    other knob identical to the golden ``sharded`` path.
    """
    from repro.api import Engine
    from repro.scenarios import get_scenario

    spec = _mode_spec(get_scenario(name).spec(), mode, overrides)
    with Engine(seed=0) as engine:
        return project_report(engine.run(spec))


# ----------------------------------------------------------------------
# Byte-exact paving conformance
# ----------------------------------------------------------------------


def _annulus():
    from repro.expr import sin, variables
    from repro.intervals import Box
    from repro.logic import And, in_range

    x, y = variables("x y")
    phi = And(
        in_range(x ** 2 + y ** 2 + 0.3 * sin(3 * x) * sin(3 * y), 0.55, 0.95),
        in_range(x * y, -0.2, 0.6),
    )
    return phi, Box.from_bounds({"x": (-1.5, 1.5), "y": (-1.5, 1.5)})


def _cubic_band():
    from repro.expr import var
    from repro.intervals import Box
    from repro.logic import in_range

    x = var("x")
    phi = in_range(x * x * x - x, -0.1, 0.1)
    return phi, Box.from_bounds({"x": (-2.0, 2.0)})


def _bilinear_wedge():
    from repro.expr import variables
    from repro.intervals import Box
    from repro.logic import And

    x, y = variables("x y")
    phi = And(x * y - 0.25 >= 0, x + y <= 1.6)
    return phi, Box.from_bounds({"x": (0.0, 2.0), "y": (0.0, 2.0)})


#: name -> (problem factory, min_width): the dedicated paving workloads
#: whose partitions must be byte-identical across every solver path.
PAVING_PROBLEMS = {
    "annulus": (_annulus, 0.05),
    "cubic-band": (_cubic_band, 0.01),
    "bilinear-wedge": (_bilinear_wedge, 0.05),
}


def paving_digest(
    problem: str, mode: str, overrides: Mapping[str, Any] | None = None
) -> dict[str, Any]:
    """Pave one conformance problem through one solver path.

    Returns the box counts plus a SHA-256 over the bounds of every
    classified box, in the solver's deterministic lexicographic output
    order.  Bounds are hashed at 10 significant digits: the digest pins
    the partition, not last-ulp rounding of the contraction kernel.
    ``overrides`` layers extra solver
    fields on top of the mode's (the cluster conformance tests pass
    a live ``shard_backend`` here); a misspelled field raises
    ``TypeError`` and an invalid value ``ValueError``.
    """
    from repro.solver import DeltaSolver

    factory, min_width = PAVING_PROBLEMS[problem]
    phi, box = factory()
    merged = dict(MODES[mode])
    if overrides:
        merged.update(overrides)
    solver = _dataclass_replace(
        DeltaSolver(delta=1e-3, max_boxes=1_000_000), **merged
    )
    sat, unsat, undecided = solver.pave(phi, box, min_width=min_width)
    h = hashlib.sha256()
    for part in (sat, unsat, undecided):
        h.update(b"|")
        for b in part:
            for name in b.names:
                iv = b[name]
                # + 0.0 canonicalizes the sign of IEEE negative zeros, so
                # the digest never depends on the sign of a zero bound
                h.update(f"{name}:{iv.lo + 0.0:.10g}:{iv.hi + 0.0:.10g};".encode())
    return {
        "counts": [len(sat), len(unsat), len(undecided)],
        "digest": h.hexdigest(),
    }
