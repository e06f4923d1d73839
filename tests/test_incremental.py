"""Incremental solving: warm-started re-solves must equal cold solves.

The :mod:`repro.solver.incremental` contract is *mandatory-safe* reuse:
whatever the :class:`PavingStore` warm-start planner returns must be
byte-identical to what the cold solver would have produced for the same
query -- across the one-box-frontier, vectorized and sharded execution
paths, for
exact replays, tightened deltas, tightened ``min_width``, perturbed
constants and shrunk boxes alike.  These tests pin that contract at
three levels: unit (fingerprints, covers, the store), solver
(warm-vs-cold verdicts and pavings, property-based), and system (the
full scenario catalog through the engine, the CLI flags, the service
counters).
"""

import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.expr import Const, sin, var
from repro.intervals import Box
from repro.logic import And, Atom, in_range
from repro.progress import progress_scope
from repro.solver import incremental
from repro.solver import DeltaSolver, Status
from repro.solver.incremental import (
    CoverRecorder,
    PavingStore,
    formula_fingerprint,
    get_store,
    shell_slabs,
)

x, y = var("x"), var("y")


def annulus():
    phi = And(
        in_range(x ** 2 + y ** 2 + 0.3 * sin(3 * x) * sin(3 * y), 0.55, 0.95),
        in_range(x * y, -0.2, 0.6),
    )
    return phi, Box.from_bounds({"x": (-1.5, 1.5), "y": (-1.5, 1.5)})


def ring(lo=1.0, hi=2.0):
    return And(x * x + y * y >= lo, x * x + y * y <= hi)


BOX2 = Box.from_bounds({"x": (-2.0, 2.0), "y": (-2.0, 2.0)})


def paving_key(parts):
    """Byte-exact identity of a paving (tuple of bound tuples per class)."""
    return tuple(
        tuple(tuple((n, b[n].lo, b[n].hi) for n in b.names) for b in part)
        for part in parts
    )


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------


class TestFingerprint:
    def test_same_skeleton_different_constants(self):
        a = formula_fingerprint(ring(1.0, 2.0))
        b = formula_fingerprint(ring(1.0, 2.5))
        assert a.skeleton == b.skeleton
        assert a.constants != b.constants
        assert a.constants == (1.0, 2.0) and b.constants == (1.0, 2.5)

    def test_structure_changes_skeleton(self):
        a = formula_fingerprint(Atom(x * x - Const(1.0), strict=False))
        b = formula_fingerprint(Atom(x + x - Const(1.0), strict=False))
        c = formula_fingerprint(Atom(y * y - Const(1.0), strict=False))
        assert len({a.skeleton, b.skeleton, c.skeleton}) == 3

    def test_identical_formula_identical_fingerprint(self):
        assert formula_fingerprint(ring()) == formula_fingerprint(ring())


# ----------------------------------------------------------------------
# Covers
# ----------------------------------------------------------------------


class TestCover:
    def test_shell_slabs_cover_the_difference(self):
        b_lo, b_hi = np.array([0.0, 0.0]), np.array([4.0, 4.0])
        c_lo, c_hi = np.array([1.0, 0.5]), np.array([3.0, 4.0])
        slabs = shell_slabs(b_lo, b_hi, c_lo, c_hi)
        # every sampled point of B is in C or in some slab
        for px in np.linspace(0.0, 4.0, 17):
            for py in np.linspace(0.0, 4.0, 17):
                in_c = c_lo[0] <= px <= c_hi[0] and c_lo[1] <= py <= c_hi[1]
                in_slab = any(
                    lo[0] <= px <= hi[0] and lo[1] <= py <= hi[1]
                    for lo, hi in slabs
                )
                assert in_c or in_slab, (px, py)

    def test_shell_slabs_empty_when_contraction_is_identity(self):
        lo, hi = np.array([0.0]), np.array([1.0])
        assert shell_slabs(lo, hi, lo, hi) == []

    def test_recorder_overflow_disables_cover(self):
        rec = CoverRecorder(cap=3)
        rec.extend_pairs(
            [(np.array([float(i)]), np.array([float(i) + 1.0])) for i in range(3)]
        )
        assert not rec.overflow and len(rec) == 3
        rec.extend_pairs([(np.array([3.0]), np.array([4.0]))])
        assert rec.overflow and rec.arrays() is None
        rec.extend_pairs([(np.array([5.0]), np.array([6.0]))])
        assert len(rec) == 0 and rec.arrays() is None

    def test_recorder_extend_pairs_copies_in_order(self):
        rec = CoverRecorder()
        lo0, hi0 = np.array([0.0, 1.0]), np.array([2.0, 3.0])
        rec.extend_pairs([(lo0, hi0), (np.array([5.0, 6.0]), np.array([7.0, 8.0]))])
        lo0[0] = hi0[0] = 99.0  # the recorder keeps its own copies
        lo, hi = rec.arrays()
        assert lo.tolist() == [[0.0, 1.0], [5.0, 6.0]]
        assert hi.tolist() == [[2.0, 3.0], [7.0, 8.0]]


# ----------------------------------------------------------------------
# Solve reuse rules
# ----------------------------------------------------------------------


class TestWarmSolve:
    def test_exact_hit_returns_stored_verdict(self, tmp_path):
        store = PavingStore(tmp_path)
        phi, box = annulus()
        mk = lambda: DeltaSolver(delta=1e-3, paving_store=store)  # noqa: E731
        cold = mk()._solve_impl(phi, box)
        warm = mk()._solve_impl(phi, box)
        assert warm.status is cold.status is Status.DELTA_SAT
        assert warm.witness_box == cold.witness_box
        assert warm.witness == cold.witness
        assert warm.stats.boxes_processed == 0  # no search happened
        s = store.stats()
        assert s["hits"] == 1 and s["misses"] == 1 and s["stores"] == 1

    def test_delta_tightened_unsat_replays_instantly(self, tmp_path):
        store = PavingStore(tmp_path)
        phi = Atom(x * x + y * y - Const(9.0), strict=False)  # >= 9: empty
        mk = lambda d: DeltaSolver(delta=d, paving_store=store)  # noqa: E731
        assert mk(1e-3)._solve_impl(phi, BOX2).status is Status.UNSAT
        warm = mk(5e-4)._solve_impl(phi, BOX2)
        assert warm.status is Status.UNSAT
        assert warm.stats.boxes_processed == 0
        assert store.stats()["partial"] == 1
        # tightened delta must equal the cold verdict too
        assert DeltaSolver(delta=5e-4)._solve_impl(phi, BOX2).status is Status.UNSAT

    def test_perturbed_constant_rejudges_cover(self, tmp_path):
        store = PavingStore(tmp_path)
        mk = lambda c: Atom(x * x + y * y - Const(c), strict=False)  # noqa: E731
        sv = lambda: DeltaSolver(delta=1e-3, paving_store=store)  # noqa: E731
        assert sv()._solve_impl(mk(9.0), BOX2).status is Status.UNSAT
        warm = sv()._solve_impl(mk(8.9), BOX2)  # still infeasible: reuse
        assert warm.status is Status.UNSAT
        assert warm.stats.boxes_processed == 0
        assert store.stats()["partial"] == 1
        assert DeltaSolver(delta=1e-3)._solve_impl(mk(8.9), BOX2).status is Status.UNSAT
        # flipping the verdict must fall back cold, not claim UNSAT
        flipped = sv()._solve_impl(mk(7.9), BOX2)
        assert flipped.status is Status.DELTA_SAT
        assert flipped.stats.boxes_processed > 0

    def test_shrunk_box_reuses_unsat_cover(self, tmp_path):
        store = PavingStore(tmp_path)
        phi = Atom(x * x + y * y - Const(9.0), strict=False)
        sv = lambda: DeltaSolver(delta=1e-3, paving_store=store)  # noqa: E731
        assert sv()._solve_impl(phi, BOX2).status is Status.UNSAT
        inner = Box.from_bounds({"x": (-1.0, 1.5), "y": (-0.5, 2.0)})
        warm = sv()._solve_impl(phi, inner)
        assert warm.status is Status.UNSAT and warm.stats.boxes_processed == 0

    def test_witness_carries_over_to_perturbed_bound(self, tmp_path):
        store = PavingStore(tmp_path)
        mk = lambda c: Atom(Const(c) - x * x - y * y, strict=False)  # noqa: E731
        sv = lambda: DeltaSolver(delta=1e-3, paving_store=store)  # noqa: E731
        cold = sv()._solve_impl(mk(1.0), BOX2)
        assert cold.status is Status.DELTA_SAT
        warm = sv()._solve_impl(mk(1.001), BOX2)  # looser bound: witness survives
        assert warm.status is Status.DELTA_SAT
        assert warm.witness_box == cold.witness_box
        assert warm.stats.boxes_processed == 0

    def test_cold_flag_skips_reuse_but_still_records(self, tmp_path):
        store = PavingStore(tmp_path)
        phi, box = annulus()
        mk = lambda: DeltaSolver(  # noqa: E731
            delta=1e-3, paving_store=store, warm_start=False
        )
        mk()._solve_impl(phi, box)
        again = mk()._solve_impl(phi, box)
        assert again.stats.boxes_processed > 0  # really solved cold
        s = store.stats()
        assert s["hits"] == 0 and s["stores"] == 2

    def test_budget_bound_artifacts_never_reused(self, tmp_path):
        store = PavingStore(tmp_path)
        phi, box = annulus()
        tiny = DeltaSolver(delta=1e-3, max_boxes=2, paving_store=store)
        assert tiny._solve_impl(phi, box).status is Status.UNKNOWN
        # UNKNOWN is never stored, so the warm pass has nothing to reuse
        warm = DeltaSolver(delta=1e-3, paving_store=store)._solve_impl(phi, box)
        assert warm.status is Status.DELTA_SAT
        assert warm.stats.boxes_processed > 0
        assert store.stats()["hits"] == 0


# ----------------------------------------------------------------------
# Pave reuse
# ----------------------------------------------------------------------


MODE_KW = {
    "serial": {"frontier_size": 1},
    "vectorized": {},
    "sharded": {"shards": 2, "shard_backend": "thread"},
}


class TestWarmPave:
    @pytest.mark.parametrize("mode", sorted(MODE_KW))
    def test_exact_hit_is_byte_identical(self, tmp_path, mode):
        store = PavingStore(tmp_path)
        phi, box = annulus()
        mk = lambda: DeltaSolver(  # noqa: E731
            delta=1e-3, max_boxes=1_000_000, paving_store=store, **MODE_KW[mode]
        )
        cold = mk().pave(phi, box, min_width=0.1)
        warm = mk().pave(phi, box, min_width=0.1)
        assert paving_key(warm) == paving_key(cold)
        assert store.stats()["hits"] == 1

    @pytest.mark.parametrize("mode", sorted(MODE_KW))
    def test_tightened_delta_resume_equals_cold(self, tmp_path, mode):
        store = PavingStore(tmp_path)
        phi, box = annulus()
        mk = lambda d, s: DeltaSolver(  # noqa: E731
            delta=d, max_boxes=1_000_000, paving_store=s, **MODE_KW[mode]
        )
        mk(1e-2, store).pave(phi, box, min_width=0.1)
        warm = mk(1e-3, store).pave(phi, box, min_width=0.1)
        cold = mk(1e-3, None).pave(phi, box, min_width=0.1)
        assert paving_key(warm) == paving_key(cold)
        assert store.stats()["partial"] >= 1

    def test_tightened_min_width_resume_equals_cold(self, tmp_path):
        store = PavingStore(tmp_path)
        phi, box = annulus()
        mk = lambda w, s: DeltaSolver(  # noqa: E731
            delta=1e-3, max_boxes=1_000_000, paving_store=s
        ).pave(phi, box, min_width=w)
        mk(0.1, store)
        store_warm = PavingStore(tmp_path)  # fresh counters, same disk
        warm = DeltaSolver(
            delta=1e-3, max_boxes=1_000_000, paving_store=store_warm
        ).pave(phi, box, min_width=0.05)
        cold = DeltaSolver(delta=1e-3, max_boxes=1_000_000).pave(
            phi, box, min_width=0.05
        )
        assert paving_key(warm) == paving_key(cold)

    def test_sharded_artifact_warms_one_box_frontier(self, tmp_path):
        """A sharded run's artifact warm-starts a ``frontier_size=1`` solver."""
        store = PavingStore(tmp_path)
        phi, box = annulus()
        DeltaSolver(
            delta=1e-3, max_boxes=1_000_000, paving_store=store,
            shards=2, shard_backend="thread",
        ).pave(phi, box, min_width=0.1)
        warm = DeltaSolver(
            delta=1e-3, max_boxes=1_000_000, paving_store=store,
            frontier_size=1,
        ).pave(phi, box, min_width=0.1)
        cold = DeltaSolver(
            delta=1e-3, max_boxes=1_000_000, frontier_size=1
        ).pave(phi, box, min_width=0.1)
        assert paving_key(warm) == paving_key(cold)


# ----------------------------------------------------------------------
# Property: warm always equals cold
# ----------------------------------------------------------------------


COEF = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


@st.composite
def conic(draw):
    a, b, c = draw(COEF), draw(COEF), draw(COEF)
    return in_range(
        Const(a) * x * x + Const(b) * y * y + Const(c) * x * y, -0.5, 0.5
    )


@given(conic(), st.floats(min_value=0.3, max_value=0.9))
@settings(max_examples=25, deadline=None)
def test_warm_pave_equals_cold_pave(tmp_path_factory, phi, scale):
    """Recording then re-paving at a tighter delta/width matches cold."""
    root = tmp_path_factory.mktemp("store")
    store = PavingStore(root)
    box = Box.from_bounds({"x": (-1.5, 1.5), "y": (-1.5, 1.5)})
    DeltaSolver(delta=1e-2, max_boxes=50_000, paving_store=store).pave(
        phi, box, min_width=0.4
    )
    d, w = 1e-2 * scale, 0.4 * scale
    warm = DeltaSolver(delta=d, max_boxes=50_000, paving_store=store).pave(
        phi, box, min_width=w
    )
    cold = DeltaSolver(delta=d, max_boxes=50_000).pave(phi, box, min_width=w)
    assert paving_key(warm) == paving_key(cold)


@given(conic())
@settings(max_examples=25, deadline=None)
def test_warm_solve_agrees_with_cold_solve(tmp_path_factory, phi):
    """A verdict served from the store matches a from-scratch solve."""
    root = tmp_path_factory.mktemp("store")
    store = PavingStore(root)
    box = Box.from_bounds({"x": (-1.5, 1.5), "y": (-1.5, 1.5)})
    DeltaSolver(delta=1e-2, max_boxes=20_000, paving_store=store)._solve_impl(phi, box)
    warm = DeltaSolver(delta=1e-2, max_boxes=20_000, paving_store=store)._solve_impl(
        phi, box
    )
    cold = DeltaSolver(delta=1e-2, max_boxes=20_000)._solve_impl(phi, box)
    assert warm.status is cold.status
    if warm.status is Status.DELTA_SAT:
        assert not math.isnan(sum(warm.witness.values()))


# ----------------------------------------------------------------------
# Store robustness
# ----------------------------------------------------------------------


class TestStoreRobustness:
    def _artifact_paths(self, root):
        return [
            os.path.join(dirpath, f)
            for dirpath, _, files in os.walk(root)
            for f in files
            if f.endswith(".json")
        ]

    def test_corrupt_artifact_quarantined_and_solved_cold(self, tmp_path):
        store = PavingStore(tmp_path)
        phi, box = annulus()
        mk = lambda: DeltaSolver(delta=1e-3, paving_store=store)  # noqa: E731
        cold = mk()._solve_impl(phi, box)
        (path,) = self._artifact_paths(tmp_path)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"version": 1, "kind": "solve", "names"')  # torn write
        warm = mk()._solve_impl(phi, box)
        assert warm.status is cold.status
        assert warm.stats.boxes_processed > 0  # fell back cold
        assert store.stats()["quarantined"] == 1
        assert any(
            f.endswith(".corrupt")
            for _, _, files in os.walk(tmp_path)
            for f in files
        )

    def test_schema_version_mismatch_quarantined(self, tmp_path):
        store = PavingStore(tmp_path)
        phi, box = annulus()
        DeltaSolver(delta=1e-3, paving_store=store)._solve_impl(phi, box)
        (path,) = self._artifact_paths(tmp_path)
        payload = json.loads(open(path, encoding="utf-8").read())
        payload["version"] = 999
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        fp = formula_fingerprint(phi)
        assert store.candidates("solve", fp.skeleton, tuple(box.names)) == []
        assert store.stats()["quarantined"] == 1

    def test_group_prune_keeps_newest(self, tmp_path, monkeypatch):
        monkeypatch.setattr(incremental, "MAX_GROUP_ENTRIES", 2)
        store = PavingStore(tmp_path)
        for i in range(4):
            store.put(
                "solve", "skel", ("x",), [i],
                {"version": 1, "kind": "solve", "names": ["x"], "i": i},
            )
        assert len(self._artifact_paths(tmp_path)) == 2

    def test_get_store_is_per_path_singleton(self, tmp_path):
        a = get_store(tmp_path / "s")
        b = get_store(os.path.join(str(tmp_path), "s"))
        assert a is b
        assert get_store(a) is a
        assert get_store(tmp_path / "other") is not a


# ----------------------------------------------------------------------
# Anytime reporting
# ----------------------------------------------------------------------


class TestAnytime:
    def test_solve_stream_is_monotone(self):
        phi, box = annulus()
        events = []
        with progress_scope(sink=events.append):
            DeltaSolver(delta=1e-3, anytime=True)._solve_impl(phi, box)
        stream = [e for e in events if e.stage == "anytime"]
        assert len(stream) >= 2
        # first snapshot arrives before any box is settled
        assert stream[0].message == Status.UNKNOWN.value
        assert stream[0].counters["settled"] == 0
        # verdict moves unknown -> terminal exactly once, at the end
        messages = [e.message for e in stream]
        assert messages[-1] == Status.DELTA_SAT.value
        assert set(messages[:-1]) == {Status.UNKNOWN.value}
        assert stream[-1].counters["final"] == 1
        assert all(e.counters["final"] == 0 for e in stream[:-1])
        # settled/pruned counters never decrease
        for prev, cur in zip(stream, stream[1:]):
            assert cur.counters["settled"] >= prev.counters["settled"]
            assert cur.counters["pruned"] >= prev.counters["pruned"]

    @pytest.mark.parametrize("mode", sorted(MODE_KW))
    def test_pave_stream_is_monotone(self, mode):
        phi, box = annulus()
        events = []
        with progress_scope(sink=events.append):
            DeltaSolver(delta=1e-3, anytime=True, **MODE_KW[mode]).pave(
                phi, box, min_width=0.1
            )
        stream = [e for e in events if e.stage == "anytime"]
        assert stream[0].message == "paving"
        assert stream[-1].message == "paved"
        assert stream[-1].counters["final"] == 1
        for prev, cur in zip(stream[1:], stream[2:]):
            for k in ("sat", "unsat"):
                if k in prev.counters and k in cur.counters:
                    assert cur.counters[k] >= prev.counters[k]

    def test_warm_hit_still_reports_terminal_snapshot(self, tmp_path):
        store = PavingStore(tmp_path)
        phi, box = annulus()
        DeltaSolver(delta=1e-3, paving_store=store)._solve_impl(phi, box)
        events = []
        with progress_scope(sink=events.append):
            DeltaSolver(delta=1e-3, paving_store=store, anytime=True)._solve_impl(
                phi, box
            )
        stream = [e for e in events if e.stage == "anytime"]
        assert stream[-1].message == Status.DELTA_SAT.value
        assert stream[-1].counters["final"] == 1

    def test_anytime_off_emits_nothing(self):
        phi, box = annulus()
        events = []
        with progress_scope(sink=events.append):
            DeltaSolver(delta=1e-3)._solve_impl(phi, box)
        assert not [e for e in events if e.stage == "anytime"]


# ----------------------------------------------------------------------
# Uncacheable-spec warning (service/cache.py regression)
# ----------------------------------------------------------------------


class TestSpecKeyWarning:
    def test_non_jsonable_spec_warns_once_per_task(self):
        import repro.service.cache as cache_mod
        from repro.api.spec import TaskSpec

        spec = TaskSpec(
            task="falsify", model={"builtin": "logistic"},
            query={"live": object()},  # not JSON-able
        )
        cache_mod._UNCACHEABLE_WARNED.discard("falsify")
        with pytest.warns(RuntimeWarning, match="not JSON-serializable"):
            assert cache_mod.spec_key(spec) is None
        # second offense of the same task kind stays silent
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            assert cache_mod.spec_key(spec) is None

    def test_jsonable_spec_still_hashes(self):
        from repro.api.spec import TaskSpec
        from repro.service.cache import spec_key

        spec = TaskSpec(task="falsify", model={"builtin": "logistic"})
        key = spec_key(spec)
        assert key is not None and len(key) == 64
