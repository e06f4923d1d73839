"""The job-oriented service layer: submit/poll/cancel, progress events,
the content-addressed result cache, and executor backends."""

import math
import threading

import pytest

import repro.service.cache as cache_mod
from repro.api import Engine, JobState, ResultCache, TaskSpec
from repro.progress import JobCancelled, ProgressEvent, emit, progress_scope
from repro.service import make_backend, spec_key
from repro.status import AnalysisStatus


def smc_spec(name="smc", epsilon=0.25, seed=None):
    spec = {
        "task": "smc",
        "name": name,
        "model": {"builtin": "logistic"},
        "query": {
            "phi": {"op": "F", "bound": 6.0, "arg": "x >= 5.0"},
            "init": {"x": [0.3, 0.7]},
            "horizon": 6.0,
            "method": "probability",
            "epsilon": epsilon,
            "alpha": 0.2,
        },
    }
    if seed is not None:
        spec["seed"] = seed
    return spec


@pytest.fixture
def engine():
    eng = Engine(seed=0)
    yield eng
    eng.close()


# ----------------------------------------------------------------------
# progress / cancellation primitives
# ----------------------------------------------------------------------


class TestProgressPrimitives:
    def test_emit_is_noop_without_scope(self):
        emit("icp", "branch-and-prune", boxes=1)  # must not raise

    def test_scope_delivers_ordered_events(self):
        seen = []
        with progress_scope(sink=seen.append):
            for i in range(3):
                emit("smc", "sampling", samples=i)
        assert [e.counters["samples"] for e in seen] == [0.0, 1.0, 2.0]
        assert all(e.source == "smc" for e in seen)

    def test_cancel_event_raises_at_checkpoint(self):
        cancel = threading.Event()
        cancel.set()
        with progress_scope(cancel=cancel):
            with pytest.raises(JobCancelled):
                emit("icp", "branch-and-prune", boxes=1)

    def test_interval_rate_limits_but_still_cancels(self):
        seen = []
        cancel = threading.Event()
        with progress_scope(sink=seen.append, cancel=cancel, interval=3600.0):
            for i in range(10):
                emit("smc", "sampling", samples=i)
            assert len(seen) == 1  # rate-limited to the first
            cancel.set()
            with pytest.raises(JobCancelled):
                emit("smc", "sampling", samples=99)

    def test_cancellation_mid_icp_stops_iteration(self):
        """The ICP loop must stop within one progress event of cancel."""
        from repro.intervals import Box
        from repro.logic import eq_zero
        from repro.expr import var
        from repro.solver.icp import DeltaSolver

        x, y = var("x"), var("y")
        # inconsistent by a hair: forces deep splitting before any verdict
        phi = eq_zero(y - x * x) & eq_zero(x * x + 1e-12 - y)
        box = Box.from_bounds({"x": (-10.0, 10.0), "y": (-5.0, 100.0)})
        solver = DeltaSolver(delta=1e-12, max_boxes=1_000_000)

        cancel = threading.Event()
        boxes_seen = []

        def sink(event):
            boxes_seen.append(event.counters["boxes"])
            if len(boxes_seen) >= 3:
                cancel.set()

        with progress_scope(sink=sink, cancel=cancel):
            with pytest.raises(JobCancelled):
                solver._solve_impl(phi, box)
        # stopped right after the cancel flag was observed (one progress
        # event per popped frontier; the frontier doubles while the heap
        # is smaller than K, so the first events count 1, 3, 7, 15 boxes)
        assert 3 <= len(boxes_seen) <= 4
        assert max(boxes_seen) <= 15


# ----------------------------------------------------------------------
# job lifecycle
# ----------------------------------------------------------------------


class TestJobLifecycle:
    def test_submit_poll_result(self, engine):
        job = engine.submit(smc_spec(), backend="thread")
        assert job.id.startswith("j")
        report = job.result(timeout=60.0)
        assert job.status is JobState.DONE
        assert job.done()
        assert report.status is AnalysisStatus.ESTIMATED
        assert report.metrics["probability"] == pytest.approx(1.0, abs=0.05)
        # the ordered event stream saw the SMC sampling loop
        events = job.events()
        assert events, "no progress events recorded"
        assert [e.seq for e in events] == list(range(len(events)))
        assert all(e.job_id == job.id for e in events)
        assert any(e.source == "smc" and e.stage == "sampling" for e in events)

    def test_submit_matches_run(self, engine):
        sync = engine.run(smc_spec())
        job = engine.submit(smc_spec(), backend="thread")
        r = job.result(timeout=60.0)
        sync_d, r_d = sync.to_dict(), r.to_dict()
        sync_d["wall_time"] = r_d["wall_time"] = 0.0
        assert sync_d == r_d

    def test_result_timeout(self, engine, running_execute):
        job = engine.submit(smc_spec("gated"), backend="thread")
        with pytest.raises(TimeoutError):
            job.result(timeout=0.05)
        assert job.cancel()
        report = job.result(timeout=30.0)
        assert report.status is AnalysisStatus.CANCELLED

    def test_cancel_running_job_stops_within_one_event(self, engine, running_execute):
        job = engine.submit(smc_spec("gated"), backend="thread")
        assert job.wait_event(1, timeout=30.0), "job never emitted progress"
        assert job.status is JobState.RUNNING
        assert job.cancel()
        # read after cancel(): only an emit already past its cancel check
        # may still return; every later one raises
        ticks = running_execute.ticks
        report = job.result(timeout=30.0)
        assert job.status is JobState.CANCELLED
        assert report.status is AnalysisStatus.CANCELLED
        assert not report.ok
        assert running_execute.ticks <= ticks + 1

    def test_cancel_after_done_returns_false(self, engine):
        job = engine.submit(smc_spec(), backend="inline")
        assert job.done()
        assert job.cancel() is False
        assert job.status is JobState.DONE

    def test_sync_wrappers_do_not_retain_jobs(self, engine):
        engine.run(smc_spec("sync-one"))
        engine.run_batch([smc_spec("sync-a"), smc_spec("sync-b")])
        assert engine.jobs() == []  # no memory growth for run()-loop callers
        job = engine.submit(smc_spec("async"), backend="inline")
        assert engine.jobs() == [job]  # async submissions stay pollable

    def test_jobs_table_and_lookup(self, engine):
        job = engine.submit(smc_spec("tracked"), backend="inline")
        assert engine.job(job.id) is job
        assert engine.job("nope") is None
        assert job in engine.jobs()
        summary = job.summary()
        assert summary["id"] == job.id
        assert summary["name"] == "tracked"
        assert summary["state"] == "done"
        assert summary["status"] == "estimated"

    def test_engine_level_progress_sink(self):
        seen = []
        eng = Engine(seed=0, progress=lambda job, ev: seen.append((job.id, ev)))
        try:
            job = eng.submit(smc_spec(), backend="inline")
            job.result(timeout=60.0)
        finally:
            eng.close()
        assert seen
        assert all(jid == job.id for jid, _ in seen)
        assert all(isinstance(ev, ProgressEvent) for _, ev in seen)


# ----------------------------------------------------------------------
# result cache
# ----------------------------------------------------------------------


class TestResultCache:
    def test_spec_key_canonical_and_seed_sensitive(self):
        a = TaskSpec.from_dict(smc_spec(seed=1))
        b = TaskSpec.from_dict(smc_spec(seed=1))
        c = TaskSpec.from_dict(smc_spec(seed=2))
        assert spec_key(a) == spec_key(b)
        assert spec_key(a) != spec_key(c)

    def test_spec_key_none_for_live_objects(self):
        from repro.api.serialize import bltl_from_value

        ts = TaskSpec.from_dict(smc_spec())
        ts.query["phi"] = bltl_from_value(ts.query["phi"])
        assert spec_key(ts) is None

    def test_cache_hit_returns_identical_report_without_rerun(self):
        eng = Engine(seed=0, cache=True)
        try:
            first = eng.run(smc_spec())
            assert eng.cache.stats()["misses"] == 1
            job = eng.submit(smc_spec(), backend="thread")
            second = job.result(timeout=60.0)
            assert job.from_cache
            assert job.status is JobState.DONE
            assert eng.cache.stats()["hits"] == 1
            # byte-identical, including the original wall time
            assert second.to_json() == first.to_json()
            # served from cache: no task-level progress events were emitted
            assert all(e.source == "engine" for e in job.events())
        finally:
            eng.close()

    def test_error_reports_are_not_cached(self):
        eng = Engine(seed=0, cache=True)
        try:
            bad = {"task": "nope", "model": {"builtin": "logistic"}}
            assert eng.run(bad).status is AnalysisStatus.ERROR
            assert eng.run(bad).status is AnalysisStatus.ERROR
            assert eng.cache.stats()["stores"] == 0
            assert eng.cache.stats()["hits"] == 0
        finally:
            eng.close()

    def test_disk_store_survives_engine_restart(self, tmp_path):
        cache_dir = str(tmp_path / "rcache")
        eng1 = Engine(seed=0, cache=cache_dir)
        first = eng1.run(smc_spec())
        eng1.close()

        eng2 = Engine(seed=0, cache=cache_dir)
        try:
            job = eng2.submit(smc_spec(), backend="inline")
            assert job.from_cache
            assert job.result(timeout=10.0).to_json() == first.to_json()
            assert eng2.cache.stats()["hits"] == 1
        finally:
            eng2.close()

    def test_corrupt_disk_entry_is_a_miss_not_a_crash(self, tmp_path):
        import pathlib

        cache_dir = str(tmp_path / "c")
        eng1 = Engine(seed=0, cache=cache_dir)
        first = eng1.run(smc_spec())
        eng1.close()
        (entry,) = pathlib.Path(cache_dir).glob("*.json")
        entry.write_text(first.to_json()[:20])  # truncated: partial write

        eng2 = Engine(seed=0, cache=cache_dir)
        try:
            job = eng2.submit(smc_spec(), backend="inline")
            report = job.result(timeout=60.0)
            assert not job.from_cache  # re-ran instead of crashing
            assert report.metrics == first.metrics
            assert eng2.cache.stats()["misses"] == 1
            assert eng2.cache.stats()["stores"] == 1  # entry repaired
        finally:
            eng2.close()

    def test_lru_eviction(self, monkeypatch):
        monkeypatch.setattr(cache_mod, "MAX_ENTRIES", 2)
        cache = ResultCache()
        from repro.api.report import AnalysisReport

        for i in range(3):
            cache.put(f"k{i}", AnalysisReport("smc", AnalysisStatus.ESTIMATED))
        assert len(cache) == 2
        assert cache.get("k0") is None  # evicted
        assert cache.get("k2") is not None


# ----------------------------------------------------------------------
# backends and batches
# ----------------------------------------------------------------------


def _logistic_truth(t, r=0.65, K=10.0, x0=0.5):
    return K / (1.0 + (K / x0 - 1.0) * math.exp(-r * t))


def four_scenarios():
    cal = {
        "task": "calibrate",
        "name": "cal",
        "model": {"builtin": "logistic"},
        "query": {
            "data": {
                "samples": [[t, {"x": _logistic_truth(t)}] for t in (2.0, 4.0)],
                "tolerance": 0.2,
            },
            "param_ranges": {"r": [0.1, 2.0]},
            "x0": {"x": 0.5},
        },
        "solver": {"delta": 0.05, "max_boxes": 400},
    }
    return [
        smc_spec("s1"),
        smc_spec("s2", epsilon=0.3),
        smc_spec("s3", seed=7),
        cal,
    ]


class TestBackendsAndBatches:
    def test_make_backend_unknown_name(self):
        with pytest.raises(ValueError, match="unknown backend"):
            make_backend("gpu")

    @pytest.mark.parametrize("backend", ["inline", "thread", "process"])
    def test_every_backend_same_results(self, backend, engine):
        reports = engine.run_batch(four_scenarios(), workers=2, backend=backend)
        assert [r.name for r in reports] == ["s1", "s2", "s3", "cal"]
        assert all(r.ok for r in reports)

    def test_parallel_equals_serial_equals_cached(self):
        """The acceptance batch: 4 scenarios, process backend, twice.

        serial == parallel (modulo wall time), and the second parallel
        submission is served byte-identically from the cache.
        """
        specs = four_scenarios()
        serial_eng = Engine(seed=0)
        par_eng = Engine(workers=2, seed=0, cache=True)
        try:
            serial = serial_eng.run_batch(specs, workers=1)

            first = par_eng.run_batch(specs, backend="process")
            assert par_eng.cache.stats() == {
                "hits": 0, "misses": 4, "stores": 4, "entries": 4,
                "quarantined": 0,
            }

            handles = par_eng.submit_batch(specs, backend="process")
            second = [h.result(timeout=120.0) for h in handles]
            assert all(h.from_cache for h in handles)
            assert par_eng.cache.stats()["hits"] == 4

            # cached == parallel, byte for byte
            assert [r.to_json() for r in second] == [r.to_json() for r in first]
            # parallel == serial once timing is masked
            for s, p in zip(serial, first):
                sd, pd = s.to_dict(), p.to_dict()
                sd["wall_time"] = pd["wall_time"] = 0.0
                assert sd == pd
        finally:
            serial_eng.close()
            par_eng.close()

    def test_run_batch_order_and_compat(self, engine):
        """The historical surface is unchanged: workers>1 parallelizes,
        order follows submission."""
        reports = engine.run_batch(four_scenarios(), workers=2)
        assert [r.name for r in reports] == ["s1", "s2", "s3", "cal"]

    def test_non_picklable_spec_warns_and_runs_inline(self, engine):
        from repro.api.serialize import bltl_from_value

        live = TaskSpec.from_dict(smc_spec("live"))
        live.query["phi"] = bltl_from_value(live.query["phi"])
        with pytest.warns(RuntimeWarning, match="live.*non-serializable"):
            handles = engine.submit_batch(
                [live, smc_spec("plain")], workers=2, backend="process"
            )
        reports = [h.result(timeout=120.0) for h in handles]
        assert [r.name for r in reports] == ["live", "plain"]
        assert handles[0].backend_name == "inline"
        assert handles[1].backend_name == "process"
        assert reports[0].metrics == reports[1].metrics

    def test_taskspec_replace(self):
        ts = TaskSpec.from_dict(smc_spec("orig", seed=3))
        swapped = ts.replace(seed=9, name="copy")
        assert swapped.seed == 9 and swapped.name == "copy"
        assert swapped.task == ts.task and swapped.query == ts.query
        assert ts.seed == 3 and ts.name == "orig"  # original untouched

    def test_engine_context_manager_closes_pools(self):
        with Engine(seed=0) as eng:
            report = eng.run(smc_spec())
            assert report.ok
        assert eng._backends == {}
