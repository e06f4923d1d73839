"""HTTP-level cluster behavior: dedup races, cancel races, tenant
quotas, graceful drain, and restart durability of ``repro serve``.

The engine's ``_execute`` is patched with a gated probe so the races
are deterministic: a "block-*" spec parks inside the solve until the
test releases it, which holds jobs in exactly the in-flight window the
race needs (identical concurrent submissions, cancel-vs-finish,
wait-timeouts, drain with queued work).
"""

import contextlib
import json
import os
import signal
import threading
import time
from urllib.error import HTTPError
from urllib.request import Request, urlopen

import pytest

import repro.api.engine as engine_mod
from repro.api import Engine, ServiceServer
from repro.api.report import AnalysisReport
from repro.cluster import JobStore, TenantPolicy, TenantScheduler
from repro.status import AnalysisStatus


def spec(name="http-probe"):
    return {
        "task": "smc",
        "name": name,
        "model": {"builtin": "logistic"},
        "query": {
            "phi": {"op": "F", "bound": 6.0, "arg": "x >= 5.0"},
            "init": {"x": [0.3, 0.7]},
            "horizon": 6.0,
            "method": "probability",
            "epsilon": 0.25,
            "alpha": 0.2,
        },
    }


def _get(url, timeout=30.0):
    with urlopen(url, timeout=timeout) as resp:
        return resp.status, json.load(resp)


def _post(url, payload, headers=None, timeout=30.0):
    req = Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json", **(headers or {})},
        method="POST",
    )
    try:
        with urlopen(req, timeout=timeout) as resp:
            return resp.status, json.load(resp), resp.headers
    except HTTPError as exc:
        return exc.code, json.loads(exc.read() or b"{}"), exc.headers


class _Gate:
    """Patched ``_execute``: records calls; ``block-*`` specs park."""

    def __init__(self):
        self.calls = []
        self.started = threading.Event()
        self.release = threading.Event()
        self._lock = threading.Lock()

    def __call__(self, task_spec, seed_default):
        from repro.progress import emit

        with self._lock:
            self.calls.append(task_spec.name)
        emit("probe", "start")
        if (task_spec.name or "").startswith("block"):
            self.started.set()
            self.release.wait(timeout=30.0)
            emit("probe", "finish")  # cancellation checkpoint after release
        return AnalysisReport(
            task_spec.task,
            AnalysisStatus.DELTA_SAT,
            name=task_spec.name,
            seed=task_spec.seed,
        )


@pytest.fixture
def gate(monkeypatch):
    g = _Gate()
    monkeypatch.setattr(engine_mod, "_execute", g)
    return g


@contextlib.contextmanager
def serve(engine, **kwargs):
    server = ServiceServer(engine, port=0, **kwargs).start()
    try:
        yield server
    finally:
        with contextlib.suppress(OSError):
            server.shutdown()
        engine.close(wait=False)


# ----------------------------------------------------------------------
# Single-flight over HTTP
# ----------------------------------------------------------------------


class TestHttpDedup:
    def test_concurrent_identical_posts_one_compute(self, gate):
        with serve(Engine(seed=0, dedup=True)) as server:
            results = []

            def submit():
                results.append(_post(f"{server.url}/run", spec("block-same")))

            threads = [threading.Thread(target=submit) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert [code for code, _, _ in results] == [202] * 8
            assert gate.started.wait(timeout=10)

            _, cluster = _get(f"{server.url}/cluster")
            assert cluster["dedup"] == {
                "leaders": 1, "followers": 7, "in_flight": 1
            }
            gate.release.set()
            reports = []
            for _, sub, _ in results:
                _, job = _get(f"{server.url}/jobs/{sub['job']}?wait=30")
                assert job["state"] == "done"
                reports.append(job["report"])
            assert gate.calls == ["block-same"]  # exactly one solve
            assert all(r == reports[0] for r in reports)  # equal reports

    def test_cluster_route_shape_without_store(self, gate):
        with serve(Engine(seed=0, dedup=True)) as server:
            _, cluster = _get(f"{server.url}/cluster")
            assert cluster["draining"] is False
            assert cluster["store"] is None and cluster["pool"] is None
            assert "counters" in cluster["scheduler"]


# ----------------------------------------------------------------------
# Cancel-vs-finish races and bounded waits
# ----------------------------------------------------------------------


class TestHttpRaces:
    def test_cancel_beats_finish(self, gate):
        with serve(Engine(seed=0)) as server:
            _, sub, _ = _post(f"{server.url}/run", spec("block-cancel"))
            assert gate.started.wait(timeout=10)
            code, summary, _ = _post(
                f"{server.url}/jobs/{sub['job']}/cancel", {}
            )
            assert code == 200
            gate.release.set()  # the probe now hits its cancel checkpoint
            _, job = _get(f"{server.url}/jobs/{sub['job']}?wait=30")
            assert job["state"] == "cancelled"
            assert job["status"] == "cancelled"

    def test_cancel_after_finish_is_a_noop(self, gate):
        gate.release.set()
        with serve(Engine(seed=0)) as server:
            _, sub, _ = _post(f"{server.url}/run", spec("fast-finish"))
            _, done = _get(f"{server.url}/jobs/{sub['job']}?wait=30")
            assert done["state"] == "done"
            code, summary, _ = _post(
                f"{server.url}/jobs/{sub['job']}/cancel", {}
            )
            assert code == 200
            assert summary["state"] == "done"  # finish won; report kept
            _, again = _get(f"{server.url}/jobs/{sub['job']}?wait=5")
            assert again["state"] == "done" and "report" in again

    def test_cancel_queued_job_never_dispatches(self, gate):
        scheduler = TenantScheduler(max_running=1)
        with serve(Engine(seed=0), scheduler=scheduler) as server:
            _, head, _ = _post(f"{server.url}/run", spec("block-head"))
            assert gate.started.wait(timeout=10)
            _, queued, _ = _post(f"{server.url}/run", spec("starved"))
            code, summary, _ = _post(
                f"{server.url}/jobs/{queued['job']}/cancel", {}
            )
            assert code == 200 and summary["state"] == "cancelled"
            gate.release.set()
            _, job = _get(f"{server.url}/jobs/{head['job']}?wait=30")
            assert job["state"] == "done"
            assert "starved" not in gate.calls  # retired without compute

    def test_wait_times_out_on_a_running_job(self, gate):
        with serve(Engine(seed=0)) as server:
            _, sub, _ = _post(f"{server.url}/run", spec("block-wait"))
            assert gate.started.wait(timeout=10)
            t0 = time.monotonic()
            _, job = _get(f"{server.url}/jobs/{sub['job']}?wait=0.2")
            assert time.monotonic() - t0 < 10.0
            assert job["state"] == "running"  # timeout, not an error
            gate.release.set()
            _, job = _get(f"{server.url}/jobs/{sub['job']}?wait=30")
            assert job["state"] == "done"


# ----------------------------------------------------------------------
# Scheduler pump resilience
# ----------------------------------------------------------------------


class TestPumpResilience:
    def test_undispatchable_job_fails_without_wedging_the_pump(self, gate):
        gate.release.set()
        with serve(Engine(seed=0)) as server:
            # bypass the door validation: simulate a dispatch blowing up
            # inside the pump loop itself (the review's wedge scenario)
            job = server.engine.submit_deferred(spec("bad-backend"))
            job._backend_args = ("gpu", None)
            server._offer(job)
            report = job.result(timeout=10)
            assert report.status is AnalysisStatus.ERROR
            assert "gpu" in report.detail
            # the pump survived: a normal submission still dispatches
            _, sub, _ = _post(f"{server.url}/run", spec("after-bad"))
            _, done = _get(f"{server.url}/jobs/{sub['job']}?wait=30")
            assert done["state"] == "done"


# ----------------------------------------------------------------------
# Tenant quotas over HTTP
# ----------------------------------------------------------------------


class TestHttpQuotas:
    def test_over_rate_tenant_gets_429_with_retry_after(self, gate):
        gate.release.set()
        scheduler = TenantScheduler(
            policies={"ratty": TenantPolicy(rate=0.1, burst=1.0)}
        )
        with serve(Engine(seed=0), scheduler=scheduler) as server:
            code, first, _ = _post(
                f"{server.url}/run", spec("quota-a"),
                headers={"X-Tenant": "ratty"},
            )
            assert code == 202
            code, body, headers = _post(
                f"{server.url}/run", spec("quota-b"),
                headers={"X-Tenant": "ratty"},
            )
            assert code == 429
            assert body["retry_after"] > 0.0
            assert int(headers["Retry-After"]) >= 1
            # other tenants are unaffected by ratty's bucket
            code, _, _ = _post(
                f"{server.url}/run", spec("quota-c"),
                headers={"X-Tenant": "calm"},
            )
            assert code == 202
            _, snap = _get(f"{server.url}/cluster")
            assert snap["scheduler"]["counters"]["throttled"] == 1
            # tenants are attributed on the job summaries
            _, job = _get(f"{server.url}/jobs/{first['job']}?wait=30")
            assert job["tenant"] == "ratty"


# ----------------------------------------------------------------------
# Graceful shutdown + restart durability
# ----------------------------------------------------------------------


class TestDurability:
    def test_sigterm_drains_gracefully(self, gate):
        gate.release.set()
        engine = Engine(seed=0)
        server = ServiceServer(engine, port=0).start()
        old_term = signal.getsignal(signal.SIGTERM)
        old_int = signal.getsignal(signal.SIGINT)
        try:
            server.install_signal_handlers()
            _, sub, _ = _post(f"{server.url}/run", spec("pre-drain"))
            _, job = _get(f"{server.url}/jobs/{sub['job']}?wait=30")
            assert job["state"] == "done"
            os.kill(os.getpid(), signal.SIGTERM)
            assert server._drained.wait(timeout=15)
        finally:
            signal.signal(signal.SIGTERM, old_term)
            signal.signal(signal.SIGINT, old_int)
            engine.close(wait=False)

    def test_restart_recovers_interrupted_and_queued_jobs(self, gate, tmp_path):
        store_path = str(tmp_path / "jobs.jsonl")
        engine1 = Engine(seed=0)
        server1 = ServiceServer(
            engine1,
            port=0,
            job_store=store_path,
            scheduler=TenantScheduler(max_running=1),
        ).start()

        # one job completes before the crash...
        gate.release.set()
        _, done_sub, _ = _post(f"{server1.url}/run", spec("done-before"))
        _, done_job = _get(f"{server1.url}/jobs/{done_sub['job']}?wait=30")
        assert done_job["state"] == "done"

        # ...one is mid-solve and one is still queued when SIGTERM lands
        gate.release.clear()
        gate.started.clear()
        _, run_sub, _ = _post(
            f"{server1.url}/run", spec("block-interrupted"),
            headers={"X-Tenant": "acme"},
        )
        assert gate.started.wait(timeout=10)
        _, queued_sub, _ = _post(f"{server1.url}/run", spec("tail-queued"))
        assert "tail-queued" not in gate.calls
        server1.graceful_shutdown(timeout=0.3)

        # the journal marks both unfinished jobs as interrupted (re-run),
        # not cancelled (terminal) -- the drain is no fault of the work
        recovered = JobStore(store_path).recover()
        assert recovered[done_sub["job"]]["state"] == "done"
        assert recovered[done_sub["job"]]["report"] is not None
        assert recovered[run_sub["job"]]["state"] == "interrupted"
        assert recovered[run_sub["job"]]["tenant"] == "acme"
        assert recovered[queued_sub["job"]]["state"] == "interrupted"

        # let the parked solve observe its cancellation and settle
        gate.release.set()
        leftover = engine1.job(run_sub["job"])
        assert leftover is not None
        assert leftover.result(timeout=10).status is AnalysisStatus.CANCELLED
        engine1.close(wait=False)

        # a replica restarting on the same journal re-runs both under
        # their original ids and serves the finished one read-only
        engine2 = Engine(seed=0)
        with serve(engine2, job_store=store_path) as server2:
            for sub in (run_sub, queued_sub):
                _, job = _get(f"{server2.url}/jobs/{sub['job']}?wait=30")
                assert job["state"] == "done"
                assert job["status"] == "delta-sat"
            _, old = _get(f"{server2.url}/jobs/{done_sub['job']}")
            assert old["recovered"] is True
            assert old["state"] == "done" and old["backend"] == "journal"
            assert old["report"]["status"] == "delta-sat"
            _, cluster = _get(f"{server2.url}/cluster")
            assert cluster["store"]["path"] == store_path
        # the queued job never computed in the first server's life
        assert gate.calls.count("tail-queued") == 1
        assert gate.calls.count("block-interrupted") == 2

    def test_recovery_is_scoped_to_this_replicas_prefix(self, gate, tmp_path):
        gate.release.set()
        store_path = str(tmp_path / "shared.jsonl")
        with JobStore(store_path) as store:
            # replica b is still alive and holds b-j000001; only this
            # replica's own unfinished job may re-run here
            store.record_submit("b-j000001", spec("foreign-live"))
            store.record_submit("a-j000001", spec("mine-unfinished"))
        engine = Engine(seed=0, job_prefix="a-j")
        with serve(engine, job_store=store_path) as server:
            _, mine = _get(f"{server.url}/jobs/a-j000001?wait=30")
            assert mine["state"] == "done"
            _, foreign = _get(f"{server.url}/jobs/b-j000001")
            assert foreign["recovered"] is True
            assert foreign["state"] == "queued"  # readable, never re-run
        assert "mine-unfinished" in gate.calls
        assert "foreign-live" not in gate.calls  # no duplicate execution

    def test_journal_with_retired_solver_options_is_rerun(self, gate, tmp_path):
        from repro.api import TaskSpec

        gate.release.set()
        store_path = str(tmp_path / "jobs.jsonl")
        # a submit record as older builds wrote it: to_dict() of a spec
        # whose SolverOptions still held kernel and enclosure_order
        old = TaskSpec.from_dict(spec("older-build")).to_dict()
        old["solver"].update(kernel="numpy", enclosure_order=3)
        with JobStore(store_path) as store:
            store.record_submit("j000001", old)
        with serve(Engine(seed=0), job_store=store_path) as server:
            _, job = _get(f"{server.url}/jobs/j000001?wait=30")
            assert job["state"] == "done"
            assert job["status"] == "delta-sat"
        assert gate.calls == ["older-build"]

    def test_unparseable_journaled_spec_fails_durably(self, gate, tmp_path):
        gate.release.set()
        store_path = str(tmp_path / "jobs.jsonl")
        bad = dict(spec("bad-knob"), solver={"no_such_knob": 1})
        with JobStore(store_path) as store:
            store.record_submit("j000001", bad)
        for _ in range(2):  # the second restart reads the journaled failure
            with serve(Engine(seed=0), job_store=store_path) as server:
                _, job = _get(f"{server.url}/jobs/j000001")
                assert job["recovered"] is True
                assert job["state"] == "failed"
                assert job["status"] == "error"
                assert "no_such_knob" in job["detail"]
        assert gate.calls == []
        assert JobStore(store_path).recover()["j000001"]["state"] == "failed"


# ----------------------------------------------------------------------
# Client-side retries: repro jobs --retry
# ----------------------------------------------------------------------


class TestJobsRetry:
    def test_retries_until_the_server_comes_up(self, gate):
        from socket import socket

        from repro.api.cli import _fetch_with_retry

        with socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]

        engine = Engine(seed=0)
        server_box = {}

        def come_up_late():
            time.sleep(0.6)
            server_box["server"] = ServiceServer(engine, port=port).start()

        starter = threading.Thread(target=come_up_late, daemon=True)
        starter.start()
        try:
            # first attempts hit a closed port (URLError) and back off;
            # a later one lands once the server binds
            payload = _fetch_with_retry(
                f"http://127.0.0.1:{port}/jobs", retries=8, timeout=5.0
            )
            assert payload["jobs"] == []
        finally:
            starter.join(timeout=10.0)
            with contextlib.suppress(OSError):
                server_box["server"].shutdown()
            engine.close(wait=False)

    def test_http_errors_are_never_retried(self, gate):
        from repro.api.cli import _fetch_with_retry

        engine = Engine(seed=0)
        with serve(engine) as server:
            t0 = time.monotonic()
            with pytest.raises(HTTPError) as excinfo:
                _fetch_with_retry(
                    f"{server.url}/jobs/no-such-job", retries=8, timeout=5.0
                )
            assert excinfo.value.code == 404
            # 8 retries would back off for seconds; a 404 fails at once
            assert time.monotonic() - t0 < 2.0

    def test_exhausted_retries_raise_the_connection_error(self):
        from urllib.error import URLError

        from repro.api.cli import _fetch_with_retry

        from socket import socket

        with socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        with pytest.raises((URLError, OSError)):
            _fetch_with_retry(
                f"http://127.0.0.1:{port}/jobs", retries=1, timeout=1.0
            )
