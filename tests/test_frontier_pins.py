"""Pinned bits of the whole frontier driver: solve, pave and progress.

``tests/test_shard.py::TestPinnedSolverPath`` pins the epoch passes; this
module pins what the driver around them makes of those passes.  Every
digest below was taken before the solve and pave drivers were merged
into one frontier loop, so the merge (or any later refactor of the
loop) cannot move a verdict, a witness bit, a counter, a paving leaf,
a stored artifact or a single progress event.

The grid: three formulas (delta-sat, UNSAT, narrow-unresolved) x shards
1/2/3 on the inline backend x ``max_boxes`` 7/40/100,000 x
``frontier_size`` 1/8/64, each run once as ``DeltaSolver._solve_impl``
and once as ``DeltaSolver.pave`` with ``anytime`` on, recording every
event's source, stage, message and counters.  A second group runs
through a :class:`~repro.solver.incremental.PavingStore`: the recorded
artifacts, and a warm pave resumed from stored leaves (the ``seeds``
path of the driver).
"""

import dataclasses
import hashlib

import pytest

from repro.expr import variables
from repro.intervals import Box
from repro.logic import And, Or, in_range
from repro.progress import progress_scope
from repro.solver import DeltaSolver
from repro.solver.incremental import PavingStore, formula_fingerprint

x, y = variables("x y")

#: name -> (formula, box, solver delta, solver min_width, paving min_width)
FORMULAS = {
    "annulus": (
        And(in_range(x ** 2 + y ** 2, 0.55, 0.95), in_range(x * y, -0.2, 0.6)),
        Box.from_bounds({"x": (-1.5, 1.5), "y": (-1.5, 1.5)}),
        1e-3, 1e-12, 0.1,
    ),
    # x*y >= 0.3 forces x^2 + y^2 >= 0.6: UNSAT, but only after splitting
    "disk-hyperbola": (
        And(x * x + y * y <= 0.5, x * y >= 0.3),
        Box.from_bounds({"x": (-1.0, 1.0), "y": (-1.0, 1.0)}),
        1e-3, 1e-12, 0.05,
    ),
    # intervals cannot refute x - x >= 1e-20: every leaf ends narrow
    "narrow": (
        Or(
            And(x <= 0.25, x - x >= 1e-20),
            And(in_range(x, 0.9, 0.90001), x - x >= 1e-20),
        ),
        Box.from_bounds({"x": (0.0, 1.0)}),
        1e-6, 1e-3, 0.02,
    ),
}

GRID = [
    (shards, max_boxes, frontier)
    for shards in (1, 2, 3)
    for max_boxes in (7, 40, 100_000)
    for frontier in (1, 8, 64)
]


def _bits(obj, out):
    """Append a canonical text of ``obj`` with every float as ``float.hex``."""
    if isinstance(obj, dict):
        for k in sorted(obj):
            out.append(f"{k}:")
            _bits(obj[k], out)
    elif isinstance(obj, (list, tuple)):
        out.append(f"[{len(obj)}")
        for v in obj:
            _bits(v, out)
        out.append("]")
    elif isinstance(obj, float):
        out.append(obj.hex())
    else:
        out.append(repr(obj))


def _digest(records) -> str:
    out: list[str] = []
    _bits(records, out)
    return hashlib.sha256(" ".join(out).encode()).hexdigest()


def _box(b):
    return None if b is None else [(k, b[k].lo, b[k].hi) for k in b.names]


def _event(e):
    return (e.source, e.stage, e.message, dict(e.counters))


def _solve_record(solver, phi, box):
    events = []
    with progress_scope(sink=events.append):
        r = solver._solve_impl(phi, box)
    s = r.stats
    return [
        r.status.value, _box(r.witness_box),
        s.boxes_processed, s.boxes_pruned, s.splits, s.max_depth,
        [_event(e) for e in events],
    ]


def _pave_record(solver, phi, box, min_width):
    events = []
    with progress_scope(sink=events.append):
        parts = solver.pave(phi, box, min_width=min_width)
    return [[_box(b) for b in part] for part in parts] + [
        [_event(e) for e in events]
    ]


def _solver(shards, max_boxes, frontier, **kw):
    return DeltaSolver(
        max_boxes=max_boxes, frontier_size=frontier, shards=shards,
        shard_backend="inline", anytime=True, **kw,
    )


def grid_records(name: str, kind: str) -> list:
    """One record per grid point of formula ``name`` (``solve``/``pave``)."""
    phi, box, delta, min_width, pave_width = FORMULAS[name]
    records = []
    for shards, max_boxes, frontier in GRID:
        solver = _solver(shards, max_boxes, frontier,
                         delta=delta, min_width=min_width)
        if kind == "solve":
            rec = _solve_record(solver, phi, box)
        else:
            rec = _pave_record(solver, phi, box, pave_width)
        records.append([shards, max_boxes, frontier, rec])
    return records


def store_records(root) -> list:
    """Solve and pave through a paving store: each stored artifact, and
    warm paves that resume from the stored leaves under a tighter leaf
    width, then under a tighter delta too, for every shard count."""
    records = []
    for shards in (1, 2, 3):
        store = PavingStore(root / f"s{shards}")
        for name, (phi, box, delta, min_width, pave_width) in FORMULAS.items():
            solver = _solver(shards, 100_000, 8, delta=delta,
                             min_width=min_width, paving_store=store)
            records.append(_solve_record(solver, phi, box))
            loose = dataclasses.replace(solver, delta=1e-2)
            records.append(_pave_record(loose, phi, box, 2 * pave_width))
            records.append(_pave_record(loose, phi, box, pave_width))
            records.append(_pave_record(solver, phi, box, pave_width))
            fp = formula_fingerprint(phi)
            for kind in ("solve", "pave"):
                arts = store.candidates(kind, fp.skeleton, tuple(box.names))
                records.append(sorted(
                    (sorted(a.items()) for a in arts), key=repr
                ))
        records.append(store.stats())
    return records


#: sha256 of :func:`grid_records` per (formula, kind).
GRID_DIGESTS = {
    ("annulus", "solve"): "2033c76062eb9c41077204a52d05e220866d733e4acc40511b4fa0e41425d5d2",
    ("annulus", "pave"): "a2498db7946819fe9069337b53dbee2c0a03c8048a43319b3ebf4248bbf453ea",
    ("disk-hyperbola", "solve"): "f0c69918cd221dc1920f64dbe7a56f1e99c0fa01855bad1e649cf008aedb77b3",
    ("disk-hyperbola", "pave"): "8cfc5c6083e2399e9857fff7d74ef637c1891ffcda33b2a7fdcf2a59628bb5a5",
    ("narrow", "solve"): "fa773a6852501b93efc722b2221f3b018f9334cf7b9b04215e01cd9aa8d05fd3",
    ("narrow", "pave"): "c782d63632cd3f8e6a8ec2e38185d0fd19dbdff26746ba3dc77c0423226b42aa",
}

#: sha256 of :func:`store_records`.
STORE_DIGEST = "42acfb0069e22c2b2000ed2917adbc12dfcafb5a11668724a774441150a1b7eb"


class TestPinnedFrontierDriver:
    @pytest.mark.parametrize("kind", ["solve", "pave"])
    @pytest.mark.parametrize("name", sorted(FORMULAS))
    def test_grid_bits(self, name, kind):
        assert _digest(grid_records(name, kind)) == GRID_DIGESTS[(name, kind)]

    def test_store_and_warm_resume_bits(self, tmp_path):
        records = store_records(tmp_path)
        assert records[-1]["partial"] >= 1  # the seeds path ran
        assert _digest(records) == STORE_DIGEST


if __name__ == "__main__":  # print the digests of the current code
    import pathlib
    import tempfile

    for name in sorted(FORMULAS):
        for kind in ("solve", "pave"):
            print(f"({name!r}, {kind!r}): {_digest(grid_records(name, kind))!r},")
    with tempfile.TemporaryDirectory() as tmp:
        print(repr(_digest(store_records(pathlib.Path(tmp)))))
