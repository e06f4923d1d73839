"""The first network-facing surface: a stdlib-only job service.

``python -m repro serve`` starts a :class:`ServiceServer`, a thin
``http.server`` wrapper around one :class:`~repro.api.Engine`:

=======  ====================  =========================================
method   path                  meaning
=======  ====================  =========================================
POST     ``/run``              submit a spec; returns ``{"job": id}``
GET      ``/jobs``             jobs table + cache counters
GET      ``/jobs/<id>``        one job: state, events, report when done
POST     ``/jobs/<id>/cancel`` request cooperative cancellation
GET      ``/cluster``          dedup / scheduler / store / pool status
GET      ``/health``           liveness + registered task kinds
=======  ====================  =========================================

The POST body of ``/run`` is either a bare spec dict (the same JSON a
scenario file holds) or ``{"spec": {...}, "backend": "thread"}``.
Submission is asynchronous -- the response carries the job id, and
clients poll ``GET /jobs/<id>`` (or a ``wait`` query parameter blocks
server-side for a bounded time).  Everything is JSON over
``ThreadingHTTPServer``; no third-party dependencies.

Service-grade features, all optional:

Tenancy
    Requests carry an ``X-Tenant`` header (absent = the default
    tenant).  A :class:`~repro.cluster.quota.TenantScheduler` applies
    token-bucket admission (over-rate submissions get 429 +
    ``Retry-After``) and weighted fair dequeue under a global
    ``max_running`` concurrency cap.
Durability
    A :class:`~repro.cluster.jobstore.JobStore` journals every
    accepted spec and every terminal report.  A restarting server
    recovers the journal: jobs that never finished (queued, running,
    or drain-``interrupted``) are re-submitted under their original
    ids; completed jobs stay readable at ``GET /jobs/<id>``.  On a
    journal shared by N replicas, recovery only re-runs jobs minted
    under this replica's own job-id prefix -- another replica's
    unfinished jobs are (most likely) still live over there.
Graceful shutdown
    :meth:`graceful_shutdown` (wired to SIGTERM/SIGINT by
    :meth:`serve_until_shutdown`) stops accepting, journals live jobs
    as ``interrupted``, cooperatively cancels them, closes the store,
    and returns within a bounded drain timeout.
Dedup
    The default engine enables single-flight dedup: concurrent
    identical specs collapse onto one solve (see
    :mod:`repro.cluster.singleflight`).
"""

from __future__ import annotations

import json
import math
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING, Any

from repro.service.backends import validate_backend_name

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.jobstore import JobStore
    from repro.cluster.quota import TenantScheduler

__all__ = ["ServiceServer"]

#: Solver options older builds wrote into every journaled spec.  Neither
#: ever changed a result, so recovery drops them instead of failing.
_RETIRED_SOLVER_OPTIONS = ("kernel", "enclosure_order")


class ServiceServer:
    """A job service bound to one engine.

    Parameters
    ----------
    engine:
        The engine jobs are submitted to; by default a fresh
        ``Engine(cache=True, dedup=True)`` so repeated scenarios are
        served from the result cache and concurrent identical specs
        collapse to one solve.
    host / port:
        Bind address; ``port=0`` picks an ephemeral port (exposed as
        :attr:`port` after construction).
    backend:
        Default executor backend for submitted jobs (overridable per
        request).
    job_store:
        Optional :class:`~repro.cluster.jobstore.JobStore` (or a path
        string) journaling submissions and terminal reports; on
        construction the journal is recovered -- unfinished jobs
        re-submit under their original ids.
    scheduler:
        Optional :class:`~repro.cluster.quota.TenantScheduler`; by
        default an unbounded one (no admission limits, no concurrency
        cap) so tenancy accounting is always available.
    drain_timeout:
        Bound (seconds) on how long :meth:`graceful_shutdown` waits
        for cancelled jobs to reach a terminal state.
    """

    def __init__(
        self,
        engine=None,
        host: str = "127.0.0.1",
        port: int = 8080,
        backend: str = "thread",
        *,
        job_store: "JobStore | str | None" = None,
        scheduler: "TenantScheduler | None" = None,
        drain_timeout: float = 10.0,
    ):
        if engine is None:
            from repro.api.engine import Engine  # deferred: api imports service

            # rate-limit recorded events: a serve engine handles many
            # concurrent jobs, and per-sample recording is hot-loop cost
            engine = Engine(cache=True, progress_interval=0.5, dedup=True)
        self.engine = engine
        self.backend = backend
        self.drain_timeout = float(drain_timeout)

        if isinstance(job_store, str):
            from repro.cluster.jobstore import JobStore as _JobStore

            job_store = _JobStore(job_store)
        self.job_store = job_store
        if scheduler is None:
            from repro.cluster.quota import TenantScheduler as _TenantScheduler

            scheduler = _TenantScheduler()
        self.scheduler = scheduler

        self._draining = False
        self._drained = threading.Event()
        self._drain_lock = threading.Lock()
        self._pump_mutex = threading.Lock()
        self._pump_active = False
        self._pump_pending = False
        #: terminal jobs recovered from the journal (readable by id)
        self._recovered: dict[str, dict] = {}

        # chain the terminal hook: release scheduler slots, journal the
        # report, then whatever hook the caller had installed
        self._prev_done_hook = getattr(engine, "on_job_done", None)
        engine.on_job_done = self._job_done

        service = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            # TCP_NODELAY: a reply goes out as a header write and a body
            # write; with Nagle on, the body waits for the client's
            # delayed ACK of the headers (~40 ms per reply)
            disable_nagle_algorithm = True

            def log_message(self, fmt: str, *args: Any) -> None:
                pass  # keep the server quiet; clients see JSON errors

            def _reply(
                self, code: int, payload: dict, headers: dict | None = None
            ) -> None:
                body = json.dumps(payload).encode("utf-8")
                self.send_response(code)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                for key, value in (headers or {}).items():
                    self.send_header(key, value)
                self.end_headers()
                self.wfile.write(body)

            def _error(self, code: int, message: str) -> None:
                self._reply(code, {"error": message})

            # ---------------------------------------------------------
            def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
                try:
                    service._get(self)
                except Exception as exc:  # one request must not kill the server
                    self._error(500, f"{type(exc).__name__}: {exc}")

            def do_POST(self) -> None:  # noqa: N802
                try:
                    service._post(self)
                except Exception as exc:
                    self._error(500, f"{type(exc).__name__}: {exc}")

        self.httpd = ThreadingHTTPServer((host, port), Handler)
        self.httpd.daemon_threads = True
        self.host, self.port = self.httpd.server_address[:2]
        self._thread: threading.Thread | None = None

        if self.job_store is not None:
            self._recover()

    # -- lifecycle ------------------------------------------------------
    @property
    def url(self) -> str:
        """Base URL of the bound address, e.g. ``http://127.0.0.1:8080``."""
        return f"http://{self.host}:{self.port}"

    def serve_forever(self) -> None:
        """Serve in this thread until :meth:`shutdown` (no signal handling)."""
        self.httpd.serve_forever()

    def serve_until_shutdown(self) -> None:
        """Serve in this thread until SIGTERM/SIGINT, then drain and return."""
        self.install_signal_handlers()
        try:
            self.httpd.serve_forever()
        except KeyboardInterrupt:
            pass
        self.graceful_shutdown()

    def install_signal_handlers(self) -> None:
        """Route SIGTERM/SIGINT into :meth:`graceful_shutdown`.

        Must run in the main thread (a CPython signal constraint); the
        handler only nudges a drain thread, so it is safe inside the
        signal context.
        """
        import signal

        def _handle(signum: int, frame: Any) -> None:
            threading.Thread(
                target=self.graceful_shutdown,
                name="repro-serve-drain",
                daemon=True,
            ).start()

        signal.signal(signal.SIGTERM, _handle)
        signal.signal(signal.SIGINT, _handle)

    def start(self) -> "ServiceServer":
        """Serve on a background thread (for tests and embedding)."""
        self._thread = threading.Thread(
            target=self.httpd.serve_forever, name="repro-serve", daemon=True
        )
        self._thread.start()
        return self

    def shutdown(self) -> None:
        """Stop serving immediately (no drain; tests and embedding)."""
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def graceful_shutdown(self, timeout: float | None = None) -> None:
        """Drain and stop: the SIGTERM path.  Idempotent and blocking.

        Stops accepting requests, journals every unfinished job as
        ``interrupted`` (so a restart re-runs it), requests cooperative
        cancellation, waits up to ``timeout`` (default
        ``drain_timeout``) for the jobs to settle, closes the job
        store, and shuts the engine's pools down.  Concurrent
        callers block until the first caller finishes the drain.
        """
        timeout = self.drain_timeout if timeout is None else float(timeout)
        with self._drain_lock:
            if self._draining:
                drain_leader = False
            else:
                self._draining = True
                drain_leader = True
        if not drain_leader:
            self._drained.wait(timeout=timeout + 10.0)
            return

        self.httpd.shutdown()  # stop accepting; in-flight handlers finish

        live = [j for j in self.engine.jobs() if not j.done()]
        if self.job_store is not None:
            for job in live:
                if self.job_store.knows(job.id):
                    # journal FIRST: "interrupted" must beat the hook's
                    # "cancelled" (record_done is first-write-wins), so a
                    # restart re-runs drained work instead of dropping it
                    self.job_store.record_done(job.id, "interrupted")
        for job in live:
            if not self.scheduler.remove(job):
                job.cancel()
                continue
            # still queued: retire it without ever dispatching
            self.engine.cancel_undispatched(job)

        deadline = time.monotonic() + timeout
        for job in live:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            try:
                job.result(timeout=remaining)
            except TimeoutError:
                pass  # bounded drain: a stuck job must not block exit

        if self.job_store is not None:
            self.job_store.close()
        self.engine.close(wait=False)
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self._drained.set()

    def __enter__(self) -> "ServiceServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()

    # -- scheduling -----------------------------------------------------
    def _offer(self, job: Any) -> None:
        """Queue one accepted job and pump the scheduler."""
        self.scheduler.enqueue(job)
        self._pump()

    def _pump(self) -> None:
        """Dispatch released jobs until the scheduler withholds.

        Re-entrancy-safe without recursion: a dispatch that completes
        synchronously (cache hit, inline backend) fires the done-hook,
        which calls ``_pump`` again -- the nested call just flags more
        work for the active loop instead of growing the stack.
        """
        with self._pump_mutex:
            self._pump_pending = True
            if self._pump_active:
                return
            self._pump_active = True
        while True:
            with self._pump_mutex:
                if not self._pump_pending:
                    self._pump_active = False
                    return
                self._pump_pending = False
            while True:
                job = self.scheduler.next_job()
                if job is None:
                    break
                try:
                    self.engine.dispatch(job, *job._backend_args)
                except Exception as exc:
                    # Engine.dispatch never raises by contract; if that
                    # contract ever breaks, the job must still reach a
                    # terminal state (its done-hook frees the scheduler
                    # slot) or _pump_active stays True forever and the
                    # server stops dispatching for every tenant.
                    self.engine.fail_dispatch(job, exc)

    def _job_done(self, job: Any) -> None:
        """Engine terminal hook: free the slot, journal, chain."""
        released = self.scheduler.release(job)
        if self.job_store is not None and self.job_store.knows(job.id):
            self.job_store.record_job(job)
        if released and not self._draining:
            self._pump()
        if self._prev_done_hook is not None:
            self._prev_done_hook(job)

    def _recover(self) -> None:
        """Replay the job store: re-submit unfinished work, index the rest.

        Recovery is scoped to this replica's job-id prefix: with N
        replicas sharing one journal, an unfinished job whose id was
        minted by another replica is very likely still queued/running
        over there -- re-submitting it here would duplicate-execute it.
        Foreign records (finished or not) stay readable by id.
        """
        from repro.api.report import AnalysisReport  # deferred: api imports service
        from repro.cluster.jobstore import RERUN_STATES
        from repro.status import AnalysisStatus

        prefix = getattr(self.engine, "job_prefix", "")
        for job_id, record in self.job_store.recover().items():
            if record["state"] in RERUN_STATES and job_id.startswith(prefix):
                solver = record["spec"].get("solver")
                if isinstance(solver, dict):
                    for key in _RETIRED_SOLVER_OPTIONS:
                        solver.pop(key, None)
                try:
                    job = self.engine.submit_deferred(
                        record["spec"], job_id=job_id
                    )
                except (ValueError, KeyError, TypeError, AttributeError) as exc:
                    # a spec this build cannot parse: fail it durably so
                    # GET /jobs/<id> says why and no restart retries it
                    report = AnalysisReport(
                        str(record["spec"].get("task", "")),
                        AnalysisStatus.ERROR,
                        detail=f"journaled spec no longer parses: {exc}",
                        name=str(record["spec"].get("name", "")),
                    ).to_dict()
                    self.job_store.record_done(job_id, "failed", report)
                    self._recovered[job_id] = {
                        **record, "state": "failed", "report": report
                    }
                    continue
                job.tenant = record["tenant"]
                job._backend_args = (self.backend, None)
                # re-journal so THIS process's done-hook owns the id
                self.job_store.record_submit(
                    job.id, record["spec"], record["tenant"]
                )
                self._offer(job)
            else:
                self._recovered[job_id] = record

    # -- request handling ----------------------------------------------
    def _get(self, req: Any) -> None:
        path, _, query = req.path.partition("?")
        parts = [p for p in path.split("/") if p]
        if parts == ["health"]:
            from repro.api.tasks import task_names  # deferred: api imports service

            req._reply(200, {"ok": True, "tasks": task_names(),
                             "draining": self._draining})
            return
        if parts == ["jobs"]:
            req._reply(
                200,
                {
                    "jobs": [j.summary() for j in self.engine.jobs()],
                    "cache": self.engine.cache.stats() if self.engine.cache else None,
                },
            )
            return
        if parts == ["cluster"]:
            req._reply(200, self.cluster_status())
            return
        if len(parts) == 2 and parts[0] == "jobs":
            job = self.engine.job(parts[1])
            if job is None:
                record = self._recovered.get(parts[1])
                if record is not None:
                    req._reply(200, _recovered_summary(parts[1], record))
                    return
                req._error(404, f"no such job: {parts[1]}")
                return
            wait = _query_float(query, "wait")
            if wait is not None and math.isnan(wait):
                # min(nan, 60.0) is nan, and a NaN timeout waits forever
                req._error(400, "wait must be a number")
                return
            if wait is not None:
                try:
                    job.result(timeout=min(wait, 60.0))
                except TimeoutError:
                    pass
            req._reply(200, job.summary(with_report=True, recent_events=10))
            return
        req._error(404, f"no such resource: {path}")

    def _post(self, req: Any) -> None:
        # always drain the body first: unread bytes would be parsed as
        # the next request line on an HTTP/1.1 keep-alive connection
        try:
            length = int(req.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if length < 0:
            # read(-1) would wait for EOF; with no usable length the body
            # cannot be drained either, so the connection closes
            req._reply(400, {"error": "Content-Length must be a non-negative integer"},
                       headers={"Connection": "close"})
            return
        body = req.rfile.read(length) if length else b""
        parts = [p for p in req.path.split("/") if p]
        if parts == ["run"]:
            if self._draining:
                req._error(503, "server is draining")
                return
            try:
                payload = json.loads(body or b"{}")
            except json.JSONDecodeError as exc:
                req._error(400, f"invalid JSON body: {exc}")
                return
            if not isinstance(payload, dict):
                req._error(400, "body must be a spec object")
                return
            spec = payload.get("spec", payload)
            if not isinstance(spec, dict):
                # a string spec would hit TaskSpec.from_file -- network
                # clients must not be able to read server-local paths
                req._error(400, "spec must be a JSON object, not a path")
                return
            backend = str(payload.get("backend") or self.backend)
            try:
                # reject a bad backend name at the door (and before
                # admission, so it never burns quota): once enqueued,
                # dispatch happens long after this response is gone
                validate_backend_name(backend)
            except ValueError as exc:
                req._error(400, f"bad backend: {exc}")
                return
            tenant = str(req.headers.get("X-Tenant") or "")
            retry_after = self.scheduler.admit(tenant)
            if retry_after > 0.0:
                req._reply(
                    429,
                    {"error": f"tenant {tenant or 'default'!r} over rate limit",
                     "retry_after": round(retry_after, 3)},
                    headers={"Retry-After": str(max(1, int(retry_after + 0.999)))},
                )
                return
            try:
                job = self.engine.submit_deferred(spec)
            except (ValueError, KeyError, TypeError) as exc:
                req._error(400, f"bad spec: {exc}")
                return
            job.tenant = tenant
            job._backend_args = (backend, None)
            if self.job_store is not None:
                self.job_store.record_submit(
                    job.id, job.spec.to_dict(), tenant
                )
            self._offer(job)
            req._reply(202, {"job": job.id, "state": job.status.value})
            return
        if len(parts) == 3 and parts[0] == "jobs" and parts[2] == "cancel":
            job = self.engine.job(parts[1])
            if job is None:
                req._error(404, f"no such job: {parts[1]}")
                return
            if self.scheduler.remove(job):
                # never dispatched: retire it here (no backend will)
                self.engine.cancel_undispatched(job)
            else:
                job.cancel()
            req._reply(200, job.summary())
            return
        req._error(404, f"no such resource: {req.path}")

    # ------------------------------------------------------------------
    def cluster_status(self) -> dict[str, Any]:
        """The ``GET /cluster`` payload: every scale-out subsystem at once."""
        status: dict[str, Any] = {
            "draining": self._draining,
            "dedup": self.engine.dedup_stats(),
            "paving_store": self.engine.paving_store_stats(),
            "scheduler": self.scheduler.snapshot(),
            "store": None,
            "pool": None,
        }
        if self.job_store is not None:
            status["store"] = {
                "path": self.job_store.path,
                "appended": self.job_store.appended,
                "recovered_terminal": len(self._recovered),
            }
        for backend in list(getattr(self.engine, "_backends", {}).values()):
            if backend.name == "cluster":
                try:
                    status["pool"] = backend.status()
                except Exception:  # pool may be mid-shutdown
                    pass
        return status


def _recovered_summary(job_id: str, record: dict) -> dict:
    """A ``GET /jobs/<id>`` payload for a journal-recovered job."""
    report = record.get("report")
    d: dict[str, Any] = {
        "id": job_id,
        "name": (record.get("spec") or {}).get("name"),
        "task": (record.get("spec") or {}).get("task"),
        "state": record["state"],
        "backend": "journal",
        "from_cache": False,
        "events": 0,
        "recovered": True,
    }
    if record.get("tenant"):
        d["tenant"] = record["tenant"]
    if report is not None:
        d["status"] = report.get("status")
        d["detail"] = report.get("detail")
        d["wall_time"] = report.get("wall_time")
        d["report"] = report
    return d


def _query_float(query: str, name: str) -> float | None:
    for part in query.split("&"):
        key, _, value = part.partition("=")
        if key == name and value:
            try:
                return float(value)
            except ValueError:
                return None
    return None
