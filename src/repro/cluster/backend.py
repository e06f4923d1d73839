"""`ClusterBackend`: the worker pool as an `ExecutorBackend`.

The backend owns the submitting side of the pool: it starts (or binds)
a :class:`~repro.cluster.coordinator.ClusterCoordinator` in-process and
forwards ``submit(fn, *args)`` to it.  Because it satisfies the same
:class:`~repro.service.backends.ExecutorBackend` protocol as the
thread/process backends, everything above it -- the engine's job
dispatch and, crucially, :mod:`repro.solver.shard`'s lock-step epoch
loop -- runs across machines *unchanged*.  Byte-identical golden
verdicts through the cluster path follow directly: the epoch driver
merges shard results in lexicographic order no matter which worker
returned them, or how many times a unit was re-leased.

Two modes:

``ClusterBackend(workers=N)``
    Self-contained local pool: binds an ephemeral loopback port and
    spawns ``N`` ``repro worker`` subprocesses.  The distributed
    analogue of ``ProcessBackend(workers=N)``.
``ClusterBackend(host=..., port=..., workers=0)``
    Open pool: binds the given address and waits for external
    ``repro worker HOST:PORT`` processes to join (what
    ``--backend cluster:HOST:PORT`` constructs).
"""

from __future__ import annotations

import subprocess
import time
from concurrent.futures import Future
from typing import Any, Callable

from repro.service.backends import ExecutorBackend

from .coordinator import ClusterCoordinator
from .worker import spawn_local_workers, stop_local_workers

__all__ = ["ClusterBackend"]


class ClusterBackend(ExecutorBackend):
    """Distributed worker-pool backend over a lease coordinator.

    Lazy like the pooled backends: the coordinator binds and local
    workers spawn on first :meth:`submit`, and the backend is reusable
    after :meth:`shutdown` (a fresh pool is built on the next submit).
    """

    name = "cluster"
    distributed = True

    def __init__(
        self,
        workers: int | None = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        token: str | None = None,
        lease_ttl: float = 10.0,
        max_attempts: int = 5,
    ):
        self.workers = 2 if workers is None else int(workers)
        self.host = host
        self.port = port
        self.token = token
        self.lease_ttl = lease_ttl
        self.max_attempts = max_attempts
        self._coordinator: ClusterCoordinator | None = None
        self._procs: list[subprocess.Popen] = []

    # ------------------------------------------------------------------
    @property
    def coordinator(self) -> ClusterCoordinator:
        """The live coordinator (starting the pool if needed)."""
        return self._ensure()

    @property
    def procs(self) -> list[subprocess.Popen]:
        """Local worker subprocesses (tests kill one to exercise leases)."""
        return self._procs

    def _ensure(self) -> ClusterCoordinator:
        if self._coordinator is None:
            self._coordinator = ClusterCoordinator(
                self.host,
                self.port,
                token=self.token,
                lease_ttl=self.lease_ttl,
                max_attempts=self.max_attempts,
            )
            if self.workers > 0:
                self._procs = spawn_local_workers(
                    self._coordinator.address, self.workers, token=self.token
                )
        return self._coordinator

    def submit(self, fn: Callable[..., Any], /, *args: Any) -> Future:
        """Lease ``fn(*args)`` to a cluster worker (starting the
        coordinator on first use); the future resolves with its result."""
        return self._ensure().submit(fn, *args)

    def status(self) -> dict[str, Any]:
        """Coordinator status plus local-subprocess liveness."""
        status = self._ensure().status()
        status["local_workers"] = {
            "spawned": len(self._procs),
            "alive": sum(1 for p in self._procs if p.poll() is None),
        }
        return status

    def wait_for_workers(self, n: int, timeout: float = 30.0) -> None:
        """Block until ``n`` workers have said hello (tests/CI helper)."""
        coordinator = self._ensure()
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if len(coordinator.status()["workers"]) >= n:
                return
            time.sleep(0.05)
        raise TimeoutError(f"fewer than {n} workers joined within {timeout}s")

    def shutdown(self, wait: bool = True) -> None:
        """Stop the coordinator and any locally spawned workers
        (idempotent); ``wait=False`` gives the workers less time to exit."""
        coordinator, self._coordinator = self._coordinator, None
        procs, self._procs = self._procs, []
        if coordinator is not None:
            coordinator.stop()
        if procs:
            stop_local_workers(procs, timeout=5.0 if wait else 0.5)

    def __repr__(self) -> str:
        return (
            f"ClusterBackend(workers={self.workers}, "
            f"host={self.host!r}, port={self.port})"
        )
