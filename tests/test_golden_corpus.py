"""Golden-verdict conformance: every solver path reproduces the corpus.

``tests/golden/`` pins the verdict projection of the golden scenario
set — the hand-written core catalog plus the promoted corpus
discoveries (``repro.tools.golden.PROMOTED_SCENARIOS``; the rest of
the 150+ entry corpus is covered by ``tests/test_corpus_conformance``)
— and the byte-level paving digests of the dedicated conformance
problems.  Each entry is asserted against three execution paths of the
delta-decision machinery -- the legacy scalar loop, the vectorized
frontier loop, and the sharded work-stealing driver -- so any verdict
regression in any path (or a stale snapshot after an intentional
change) fails here.  Regenerate with::

    python -m repro.tools.regen_golden
"""

import json

import pytest

from repro.tools.golden import (
    MODES,
    PAVING_PROBLEMS,
    golden_dir,
    golden_scenario_names,
    paving_digest,
    projection_digest,
    scenario_projection,
)

GOLDEN = golden_dir()

#: Scenarios whose three-path run is expensive (policy search over SMC
#: scoring); exercised only in the full (non-PR) workflow.
SLOW_SCENARIOS = {"ias-policy"}


def _load(stem: str) -> dict:
    path = GOLDEN / f"{stem}.json"
    assert path.exists(), (
        f"missing golden snapshot {path.name}; regenerate the corpus with "
        "`python -m repro.tools.regen_golden`"
    )
    return json.loads(path.read_text())


def test_corpus_is_complete():
    """Exactly one snapshot per golden-set scenario and paving problem.

    A core scenario or promoted corpus entry added without regenerating
    the snapshots (or a stale snapshot for a removed one) fails here
    before any solver runs.
    """
    committed = {p.stem for p in GOLDEN.glob("*.json")}
    expected = set(golden_scenario_names()) | {
        f"paving-{p}" for p in PAVING_PROBLEMS
    }
    assert committed == expected, (
        "golden corpus out of sync with the golden scenario set; "
        "regenerate with `python -m repro.tools.regen_golden`"
    )


# Test ids keep the "-numpy" suffix they carried while a second tape
# kernel existed, so per-test history stays continuous across that change.


def _scenario_params():
    for name in golden_scenario_names():
        for mode in MODES:
            marks = [pytest.mark.slow] if name in SLOW_SCENARIOS else []
            yield pytest.param(name, mode, marks=marks, id=f"{name}-{mode}-numpy")


@pytest.mark.parametrize("name,mode", _scenario_params())
def test_scenario_verdict_conformance(name, mode):
    golden = _load(name)
    projection = scenario_projection(name, mode)
    assert projection == golden["projection"], (
        f"{name} via the {mode} solver path diverges from the golden "
        f"verdict {golden['status']!r}"
    )
    assert projection_digest(projection) == golden["digest"]


def _paving_params():
    for problem in sorted(PAVING_PROBLEMS):
        for mode in sorted(MODES):
            yield pytest.param(problem, mode, id=f"{problem}-{mode}-numpy")


@pytest.mark.parametrize("problem,mode", _paving_params())
def test_paving_conformance(problem, mode):
    """Every solver path classifies byte-identical boxes."""
    golden = _load(f"paving-{problem}")
    result = paving_digest(problem, mode)
    assert result["counts"] == golden["counts"]
    assert result["digest"] == golden["digest"], (
        f"paving of {problem!r} via the {mode} path classified different "
        "boxes than the golden partition"
    )
