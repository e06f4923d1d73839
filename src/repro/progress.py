"""Progress events and cooperative cancellation for long-running analyses.

The solvers of this framework (ICP branch-and-prune, SMC sampling,
stochastic parameter search, the Fig. 2 pipeline) are deep loops that
used to run to completion silently.  This module gives them one cheap
hookpoint::

    from repro.progress import emit

    for n, box in enumerate(boxes, 1):
        emit("icp", "branch-and-prune", boxes=n)
        ...

``emit`` is a no-op unless a *progress scope* is active, so the hot
loops pay one context-variable read when nobody is listening.  The
service layer (:mod:`repro.service`) opens a scope around each job::

    with progress_scope(sink=record, cancel=job_cancel_event):
        run_the_task()

Inside a scope every ``emit`` call

* delivers a :class:`ProgressEvent` to the sink (subject to an optional
  per-(source, stage) rate limit), and
* doubles as the cooperative **cancellation checkpoint**: when the
  scope's cancel event is set, ``emit`` raises :class:`JobCancelled`,
  unwinding the solver within one progress-event interval.

The scope lives in a :mod:`contextvars` variable, so concurrently
running jobs in one process (thread-backend workers) each see their own
sink and cancel flag.
"""

from __future__ import annotations

import contextvars
import math
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Iterator

__all__ = [
    "ProgressEvent",
    "JobCancelled",
    "progress_scope",
    "emit",
    "active",
    "set_default_sink",
]


class JobCancelled(Exception):
    """The surrounding job was cancelled; raised at a progress checkpoint.

    Deliberately *not* converted to an error report by the engine's
    exception fence -- it unwinds to the service layer, which marks the
    job as cancelled.
    """


@dataclass
class ProgressEvent:
    """One observation from inside a running analysis.

    Attributes
    ----------
    source:
        The emitting subsystem (``"icp"``, ``"calibrate"``, ``"bmc"``,
        ``"smc"``, ``"search"``, ``"pipeline"``, ``"engine"``).
    stage:
        The phase within that subsystem (``"branch-and-prune"``,
        ``"sampling"``, ``"validate"``, ...).
    counters:
        Numeric progress indicators: iteration counts, queue depths,
        sample counts, best fitness so far.
    message:
        Optional human-readable note.
    job_id / seq:
        Filled in by the service layer when the event is recorded on a
        :class:`~repro.service.jobs.JobHandle` (ordered per job).
    time:
        Unix timestamp of emission.
    """

    source: str
    stage: str
    counters: dict[str, float] = field(default_factory=dict)
    message: str = ""
    job_id: str = ""
    seq: int = 0
    time: float = 0.0

    def to_dict(self) -> dict[str, Any]:
        """Every field as a JSON-ready dict."""
        return asdict(self)

    def describe(self) -> str:
        """One human-readable line: ``source/stage [counters] message``."""
        parts = ", ".join(f"{k}={v:g}" for k, v in self.counters.items())
        text = f"{self.source}/{self.stage}"
        if parts:
            text += f" [{parts}]"
        if self.message:
            text += f" {self.message}"
        return text


@dataclass
class _Scope:
    sink: Callable[[ProgressEvent], None] | None
    cancel: threading.Event | None
    interval: float
    last_emit: dict[tuple[str, str], float] = field(default_factory=dict)


_SCOPE: contextvars.ContextVar[_Scope | None] = contextvars.ContextVar(
    "repro_progress_scope", default=None
)

#: Process-wide fallback sink: receives events emitted outside any
#: progress scope (and inside cancel-only scopes that carry no sink).
_DEFAULT_SINK: Callable[[ProgressEvent], None] | None = None


def active() -> bool:
    """Whether a progress scope is currently listening."""
    return _SCOPE.get() is not None


def set_default_sink(
    sink: Callable[[ProgressEvent], None] | None,
) -> Callable[[ProgressEvent], None] | None:
    """Install a process-wide fallback sink; returns the previous one.

    Historically ``emit`` silently dropped its counters whenever no
    progress scope was active, which made long-lived emitters (the
    :mod:`repro.monitor` fleet supervisor, ad-hoc scripts) invisible
    unless they ran under the service layer.  With a default sink set,
    unscoped emissions -- and emissions inside a cancel-only scope
    whose ``sink`` is ``None`` -- are delivered there instead of being
    discarded.  Scoped sinks always take precedence, and cancellation
    semantics are unchanged.  Pass ``None`` to uninstall.
    """
    global _DEFAULT_SINK
    previous = _DEFAULT_SINK
    _DEFAULT_SINK = sink
    return previous


@contextmanager
def progress_scope(
    sink: Callable[[ProgressEvent], None] | None = None,
    cancel: threading.Event | None = None,
    interval: float = 0.0,
) -> Iterator[None]:
    """Activate progress delivery (and cancellation) for the block.

    Parameters
    ----------
    sink:
        Receives every (rate-limited) :class:`ProgressEvent`.
    cancel:
        A :class:`threading.Event`; once set, the next ``emit`` inside
        the block raises :class:`JobCancelled`.  Cancellation is checked
        on *every* emit call, before rate limiting.
    interval:
        Minimum seconds between delivered events per (source, stage)
        pair; ``0`` delivers everything.
    """
    token = _SCOPE.set(_Scope(sink, cancel, interval))
    try:
        yield
    finally:
        _SCOPE.reset(token)


def emit(source: str, stage: str, message: str = "", **counters: float) -> None:
    """Progress checkpoint: report counters and honor cancellation.

    No-op without an active scope unless a process-wide fallback sink
    is installed (:func:`set_default_sink`).  Raises
    :class:`JobCancelled` when the active scope's cancel event is set.
    """
    scope = _SCOPE.get()
    if scope is None:
        if _DEFAULT_SINK is None:
            return
        sink = _DEFAULT_SINK
    else:
        if scope.cancel is not None and scope.cancel.is_set():
            raise JobCancelled(f"cancelled during {source}/{stage}")
        sink = scope.sink if scope.sink is not None else _DEFAULT_SINK
        if sink is None:
            return
        if scope.interval > 0.0:
            key = (source, stage)
            now = time.monotonic()
            last = scope.last_emit.get(key)
            if last is not None and now - last < scope.interval:
                return
            scope.last_emit[key] = now
    sink(
        ProgressEvent(
            source,
            stage,
            # drop non-finite values (e.g. a -inf best-so-far): counter
            # dicts end up in strict-JSON HTTP responses
            {
                k: float(v)
                for k, v in counters.items()
                if math.isfinite(float(v))
            },
            message,
            time=time.time(),
        )
    )
