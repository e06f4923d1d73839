"""Pluggable executor backends: where a job's work function runs.

The :class:`~repro.api.Engine` hands each job to an
:class:`ExecutorBackend` and gets a :class:`concurrent.futures.Future`
back; everything else (cache, events, job-state transitions) lives
above this layer, so backends stay tiny:

``inline``
    Runs the work in the submitting thread, returning an
    already-completed future.  Serial, zero overhead -- the default for
    ``Engine.run`` and single-worker batches, and the fallback for
    specs that cannot travel to a process worker.
``thread``
    A shared :class:`ThreadPoolExecutor`.  Concurrency for
    I/O-light/numpy-heavy work *with* live progress events and
    checkpoint cancellation (workers share the process, so the
    progress scope is active).
``process``
    A shared :class:`ProcessPoolExecutor` -- today's ``run_batch``
    parallelism.  True CPU parallelism; work functions and arguments
    must be picklable, and a task already running in a worker cannot
    be interrupted mid-run (cancellation drops the result instead).
``cluster``
    The distributed worker pool of :mod:`repro.cluster`: a lease
    coordinator plus ``repro worker`` processes, possibly on other
    machines.  ``"cluster"`` spawns a local pool of ``workers``
    subprocesses; ``"cluster:HOST:PORT"`` binds that address and waits
    for external workers to join.  Imported lazily so the service
    layer has no hard dependency on the cluster stack.
"""

from __future__ import annotations

import os
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Callable

__all__ = [
    "ExecutorBackend",
    "InlineBackend",
    "ThreadBackend",
    "ProcessBackend",
    "make_backend",
    "validate_backend_name",
    "BACKEND_NAMES",
]


class ExecutorBackend:
    """Protocol: submit a callable, get a future; shut down when done.

    ``distributed`` tells the engine whether work leaves the current
    process (so progress scopes cannot follow and arguments must be
    picklable).
    """

    name: str = ""
    distributed: bool = False

    def submit(self, fn: Callable[..., Any], /, *args: Any) -> Future:
        """Schedule ``fn(*args)``; its result or exception lands on the future."""
        raise NotImplementedError

    def shutdown(self, wait: bool = True) -> None:
        """Release pool resources (no-op for poolless backends)."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class InlineBackend(ExecutorBackend):
    """Run the work immediately in the calling thread."""

    name = "inline"

    def submit(self, fn: Callable[..., Any], /, *args: Any) -> Future:
        """Run ``fn(*args)`` now; return an already-completed future."""
        future: Future = Future()
        future.set_running_or_notify_cancel()
        try:
            future.set_result(fn(*args))
        except BaseException as exc:  # the future is the error channel
            future.set_exception(exc)
        return future


class _PooledBackend(ExecutorBackend):
    """Shared lazy pool; created on first submit, reusable after shutdown."""

    _pool_cls: type

    def __init__(self, workers: int | None = None):
        self.workers = workers or (os.cpu_count() or 2)
        self._pool = None

    def _ensure(self):
        if self._pool is None:
            self._pool = self._pool_cls(max_workers=self.workers)
        return self._pool

    def submit(self, fn: Callable[..., Any], /, *args: Any) -> Future:
        """Hand ``fn(*args)`` to the pool, creating the pool on first use."""
        return self._ensure().submit(fn, *args)

    def shutdown(self, wait: bool = True) -> None:
        """Shut the pool down; the next :meth:`submit` makes a fresh one."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(workers={self.workers})"


class ThreadBackend(_PooledBackend):
    """In-process worker threads: progress + cancellation fully live."""

    name = "thread"
    _pool_cls = ThreadPoolExecutor


class ProcessBackend(_PooledBackend):
    """Worker processes: CPU parallelism, pickle transport."""

    name = "process"
    distributed = True
    _pool_cls = ProcessPoolExecutor


_BACKENDS: dict[str, type[ExecutorBackend]] = {
    "inline": InlineBackend,
    "thread": ThreadBackend,
    "process": ProcessBackend,
}

BACKEND_NAMES = tuple(sorted(_BACKENDS)) + ("cluster",)


def validate_backend_name(name: str) -> None:
    """Raise ``ValueError`` unless ``name`` names a dispatchable backend.

    Cheap (no pools, no sockets, no imports beyond address parsing), so
    callers that accept backend names from untrusted input -- the HTTP
    ``/run`` handler foremost -- can reject a bad name at the door
    instead of discovering it when a scheduler releases the job.
    """
    if name == "cluster":
        return
    if name.startswith("cluster:"):
        from repro.cluster.protocol import parse_address

        parse_address(name[len("cluster:"):])  # ValueError on a bad address
        return
    if name not in _BACKENDS:
        raise ValueError(
            f"unknown backend {name!r}; available: {', '.join(BACKEND_NAMES)}"
        )


def make_backend(name: str, workers: int | None = None) -> ExecutorBackend:
    """Instantiate a backend by name (``inline`` ignores ``workers``).

    ``"cluster"`` builds a local worker pool; ``"cluster:HOST:PORT"``
    binds the given address for external ``repro worker`` joins (and
    spawns no local workers unless ``workers`` says otherwise).
    """
    validate_backend_name(name)
    if name == "cluster" or name.startswith("cluster:"):
        from repro.cluster.backend import ClusterBackend
        from repro.cluster.protocol import parse_address

        if name == "cluster":
            return ClusterBackend(workers)
        host, port = parse_address(name[len("cluster:"):])
        return ClusterBackend(0 if workers is None else workers, host=host, port=port)
    cls = _BACKENDS[name]
    if cls is InlineBackend:
        return cls()
    return cls(workers)
