"""Whole-corpus differential conformance: every entry, every path.

The golden corpus (``tests/test_golden_corpus.py``) pins the core
catalog plus a handful of promoted corpus entries byte-for-byte; this
module covers the *rest* of the 150+ entry corpus differentially: for
every ingested/generated entry the serial, vectorized and sharded
solver paths must produce identical verdict projections, a
store-assisted warm re-solve must project exactly like a cold solve,
and the verdict must match the pre-triaged ``expected`` committed in
``data/corpus.json``.

PRs run a fast deterministic subset (the first ``FAST_PER_FAMILY``
sorted entries of each family); the remaining entries carry
``@pytest.mark.slow`` and run only in the full (non-PR) workflow.
"""

import dataclasses

import pytest

from repro.api import Engine
from repro.scenarios import corpus_families, find_scenarios, get_scenario
from repro.tools.golden import MODES, project_report, scenario_projection

#: Entries per family in the fast (PR) subset.
FAST_PER_FAMILY = 2


def _family_members(family):
    """Sorted entry names of one corpus family."""
    return sorted(s.name for s in find_scenarios(family=family))


def _fast_names():
    """The deterministic PR subset: first N sorted names per family."""
    names = []
    for family in sorted(corpus_families()):
        names.extend(_family_members(family)[:FAST_PER_FAMILY])
    return names


def _corpus_params():
    """One param per corpus entry; non-subset entries are slow-marked."""
    fast = set(_fast_names())
    for family in sorted(corpus_families()):
        for name in _family_members(family):
            marks = [] if name in fast else [pytest.mark.slow]
            yield pytest.param(name, marks=marks, id=name)


def test_corpus_is_at_scale():
    """The registered corpus holds 150+ entries and 4+ families."""
    families = corpus_families()
    assert sum(families.values()) >= 132
    assert len(families) >= 4
    total = len(find_scenarios(family="")) + sum(families.values())
    assert total >= 150


@pytest.mark.parametrize("name", _corpus_params())
def test_modes_agree_and_match_triage(name):
    """Serial, vectorized and sharded projections are identical and
    reproduce the committed triage verdict."""
    entry = get_scenario(name)
    projections = {mode: scenario_projection(name, mode) for mode in MODES}
    baseline = projections["vectorized"]
    for mode, projection in projections.items():
        assert projection == baseline, (
            f"{name}: the {mode} path diverges from the vectorized path"
        )
    assert baseline["status"] == entry.expected, (
        f"{name}: solved verdict {baseline['status']!r} no longer matches "
        f"the triaged expected verdict {entry.expected!r}; regenerate "
        "data/corpus.json with `python -m repro.tools.regen_corpus`"
    )


@pytest.mark.parametrize("name", _corpus_params())
def test_warm_resolve_matches_cold(name, tmp_path):
    """A paving-store warm re-solve projects exactly like a cold solve."""
    spec = get_scenario(name).spec()
    store = str(tmp_path / "store")
    warmed = spec.replace(
        solver=dataclasses.replace(spec.solver, paving_store=store)
    )
    with Engine(seed=0) as engine:
        engine.run(warmed)  # populate the store
        warm = project_report(engine.run(warmed))
        cold = project_report(engine.run(spec))
    assert warm == cold, (
        f"{name}: warm-started projection diverged from cold"
    )
