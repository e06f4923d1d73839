"""Persistent job journal: ``repro serve`` survives restarts.

The :class:`JobStore` is a :class:`repro.store.JsonLog` -- one record
per line, never rewritten, torn final line (a crash mid-append) skipped
on replay and cut on reopen, corruption *elsewhere* refused.  Two
record kinds:

``submit``
    A job entered the service: id, spec dict, tenant, timestamp.
``done``
    The job reached a terminal state: id, state, and (for completed
    work) the full report dict.  The special state ``"interrupted"``
    marks a graceful drain -- the work was cut short through no fault
    of its own and must re-run on recovery, unlike a user
    ``"cancelled"`` which is final.

Recovery (:meth:`recover`) folds the journal into one record per job:
a ``submit`` without a terminal ``done`` means the server died with the
job queued or running, so a restarting server re-submits it.  The
journal is shared-safe for N replicas: every record is one
``O_APPEND`` write, and replicas use distinct job-id prefixes so ids
never collide (see ``Engine(job_prefix=...)``).  The prefixes also
scope recovery -- a restarting replica re-runs only *its own*
unfinished jobs, never work still queued or running on a live sibling
(:meth:`repro.service.server.ServiceServer._recover` filters on the
engine's prefix).
"""

from __future__ import annotations

import os
import time
from typing import TYPE_CHECKING, Any

from repro.store import JsonLog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.jobs import JobHandle

__all__ = ["JobStore", "RERUN_STATES"]

#: Recovered states that mean "the work never finished: run it again".
RERUN_STATES = frozenset({"queued", "interrupted"})


class JobStore(JsonLog):
    """Append-only JSONL journal of job submissions and terminal reports.

    Reopening an existing journal (see :class:`JsonLog`) is the recovery
    path, not an error.
    """

    def __init__(self, path: str | os.PathLike):
        super().__init__(path)
        # in-memory membership: which ids this PROCESS journaled, so the
        # engine's done-hook can distinguish service jobs (journal them)
        # from jobs the store never saw (engine-internal, skip)
        self._submitted: set[str] = set()
        self._finished: set[str] = set()

    # ------------------------------------------------------------------
    def record_submit(
        self, job_id: str, spec_dict: dict, tenant: str = ""
    ) -> None:
        """Journal one accepted job (before any backend sees it)."""
        self.write(
            {
                "kind": "submit",
                "id": job_id,
                "spec": spec_dict,
                "tenant": tenant,
                "t": time.time(),
            }
        )
        with self._lock:
            self._submitted.add(job_id)

    def record_done(
        self, job_id: str, state: str, report_dict: dict | None = None
    ) -> bool:
        """Journal a terminal transition; idempotent per process.

        Returns ``False`` (and writes nothing) if this process already
        journaled a terminal record for ``job_id`` -- the done-hook and
        the drain path can race without double-writing.
        """
        with self._lock:
            if job_id in self._finished:
                return False
            self._finished.add(job_id)
        record: dict[str, Any] = {
            "kind": "done",
            "id": job_id,
            "state": state,
            "t": time.time(),
        }
        if report_dict is not None:
            record["report"] = report_dict
        self.write(record)
        return True

    def knows(self, job_id: str) -> bool:
        """Whether this process journaled a ``submit`` for ``job_id``."""
        with self._lock:
            return job_id in self._submitted

    # ------------------------------------------------------------------
    def recover(self) -> dict[str, dict]:
        """Fold the journal into one record per job, submission order.

        Returns ``{job_id: {"spec": dict, "tenant": str, "state": str,
        "report": dict | None}}`` where ``state`` is ``"queued"`` for
        jobs with no terminal record (the server died holding them) and
        the journaled terminal state otherwise.  States in
        :data:`RERUN_STATES` are the ones a restarting server must
        re-submit.

        A torn final line is skipped (crash mid-append); a corrupt line
        anywhere else raises ``ValueError`` -- that is damage, not an
        interrupted write.
        """
        jobs: dict[str, dict] = {}
        for record in self.records():
            job_id = record.get("id")
            kind = record.get("kind")
            if kind == "submit":
                jobs[job_id] = {
                    "spec": record.get("spec", {}),
                    "tenant": record.get("tenant", ""),
                    "state": "queued",
                    "report": None,
                }
            elif kind == "done" and job_id in jobs:
                jobs[job_id]["state"] = record.get("state", "done")
                jobs[job_id]["report"] = record.get("report")
        return jobs

    def record_job(self, job: "JobHandle") -> None:
        """Convenience: journal a :class:`JobHandle`'s terminal state."""
        summary = job.summary(with_report=True)
        self.record_done(
            job.id, summary.get("state", "done"), summary.get("report")
        )
