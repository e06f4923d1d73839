"""Job handles: the asynchronous unit of work of the service layer.

A :class:`JobHandle` is what :meth:`repro.api.Engine.submit` returns:
a thread-safe view of one analysis in flight.  Callers poll
:attr:`status`, block on :meth:`result`, request cooperative
cancellation with :meth:`cancel`, and read the ordered
:class:`~repro.progress.ProgressEvent` stream with :meth:`events` /
:meth:`wait_event`.

The handle itself never runs anything -- the engine's backend workers
drive it through the internal ``_mark_running`` / ``_record`` /
``_finish`` transitions.
"""

from __future__ import annotations

import enum
import threading
import time
from collections import deque
from typing import TYPE_CHECKING, Any

from repro.progress import ProgressEvent

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an api import
    from repro.api.report import AnalysisReport
    from repro.api.spec import TaskSpec

__all__ = ["JobState", "JobHandle"]


class JobState(str, enum.Enum):
    """Lifecycle of a submitted job."""

    PENDING = "pending"      # queued, not yet picked up by a worker
    RUNNING = "running"      # executing (or dispatched to a process worker)
    DONE = "done"            # finished with a report (possibly an ERROR report)
    CANCELLED = "cancelled"  # stopped at a progress checkpoint / before start
    FAILED = "failed"        # the backend itself broke (infrastructure error)

    def __str__(self) -> str:
        return self.value


_TERMINAL = frozenset((JobState.DONE, JobState.CANCELLED, JobState.FAILED))


class JobHandle:
    """One submitted analysis: poll it, await it, cancel it, watch it.

    Parameters
    ----------
    job_id:
        Engine-assigned identifier (stable across the engine's jobs
        table and the HTTP surface).
    spec:
        The resolved :class:`~repro.api.spec.TaskSpec` (seed already
        applied), kept for bookkeeping and cancelled-report synthesis.
    max_events:
        Bound on the retained event window; older events are dropped
        (``event_count`` keeps the true total).
    """

    def __init__(self, job_id: str, spec: "TaskSpec", max_events: int = 512):
        self.id = job_id
        self.spec = spec
        self.created = time.time()
        self.from_cache = False
        self.backend_name = ""
        self.tenant = ""  # X-Tenant attribution (service layer)
        self._cond = threading.Condition()
        self._state = JobState.PENDING
        self._report: "AnalysisReport | None" = None
        self._cancel = threading.Event()
        self._events: deque[ProgressEvent] = deque(maxlen=max_events)
        self._event_count = 0
        self._future: Any = None  # set by the engine for pooled backends
        self._cache_key: str | None = None  # content address (engine-set)
        self._backend_args: tuple = ("thread", None)  # re-dispatch info
        self._on_cancel: Any = None  # engine callback (single-flight detach)

    # -- public surface -------------------------------------------------
    @property
    def status(self) -> JobState:
        """Current lifecycle state."""
        with self._cond:
            return self._state

    def done(self) -> bool:
        """True once the job reached a terminal state."""
        with self._cond:
            return self._state in _TERMINAL

    @property
    def cancel_requested(self) -> bool:
        """True once :meth:`cancel` was called (the job may still be running)."""
        return self._cancel.is_set()

    def cancel(self) -> bool:
        """Request cooperative cancellation.

        Returns ``True`` if the job had not already finished.  A pending
        job on a pooled backend is cancelled immediately when the pool
        allows it; a running job on the ``inline``/``thread`` backends
        stops at its next progress checkpoint.  A job already running in
        a *process* worker cannot be interrupted mid-task (documented
        limitation) but its result is discarded as cancelled.
        """
        with self._cond:
            if self._state in _TERMINAL:
                return False
            self._cancel.set()
            future = self._future
            on_cancel = self._on_cancel
        if future is not None:
            future.cancel()  # only succeeds while still queued
        if on_cancel is not None:
            on_cancel()  # outside the lock: may take engine-level locks
        return True

    def result(self, timeout: float | None = None) -> "AnalysisReport":
        """Block until the job finishes and return its report.

        Raises :class:`TimeoutError` if ``timeout`` elapses first.
        """
        with self._cond:
            if not self._cond.wait_for(
                lambda: self._state in _TERMINAL, timeout=timeout
            ):
                raise TimeoutError(
                    f"job {self.id} still {self._state.value} after {timeout}s"
                )
            assert self._report is not None
            return self._report

    def events(self) -> list[ProgressEvent]:
        """Snapshot of the retained (ordered) event window."""
        with self._cond:
            return list(self._events)

    @property
    def event_count(self) -> int:
        """Total events emitted by this job (including dropped ones)."""
        with self._cond:
            return self._event_count

    def wait_event(self, min_count: int = 1, timeout: float | None = None) -> bool:
        """Block until at least ``min_count`` events arrived (or the job
        finished).  Returns whether the count was reached."""
        with self._cond:
            self._cond.wait_for(
                lambda: self._event_count >= min_count or self._state in _TERMINAL,
                timeout=timeout,
            )
            return self._event_count >= min_count

    def summary(self, with_report: bool = False, recent_events: int = 0) -> dict:
        """JSON-able description for jobs tables and the HTTP surface."""
        with self._cond:
            d: dict[str, Any] = {
                "id": self.id,
                "name": self.spec.name,
                "task": self.spec.task,
                "state": self._state.value,
                "backend": self.backend_name,
                "from_cache": self.from_cache,
                "events": self._event_count,
                "created": self.created,
            }
            if self.tenant:
                d["tenant"] = self.tenant
            report = self._report
            events = list(self._events)[-recent_events:] if recent_events else []
        if report is not None:
            d["status"] = report.status.value
            d["detail"] = report.detail
            d["wall_time"] = report.wall_time
            if with_report:
                d["report"] = report.to_dict()
        if events:
            d["recent_events"] = [e.to_dict() for e in events]
        return d

    def __repr__(self) -> str:
        return (
            f"JobHandle({self.id!r}, task={self.spec.task!r}, "
            f"state={self.status.value!r})"
        )

    # -- engine-side transitions ---------------------------------------
    def _mark_running(self) -> None:
        with self._cond:
            if self._state is JobState.PENDING:
                self._state = JobState.RUNNING
                self._cond.notify_all()

    def _record(self, event: ProgressEvent) -> None:
        """Append one event to the ordered per-job stream."""
        with self._cond:
            event.job_id = self.id
            event.seq = self._event_count
            self._event_count += 1
            self._events.append(event)
            self._cond.notify_all()

    def _finish(self, report: "AnalysisReport", state: JobState) -> bool:
        """Terminal transition; idempotent (first finisher wins)."""
        with self._cond:
            if self._state in _TERMINAL:
                return False
            self._state = state
            self._report = report
            self._cond.notify_all()
            return True
