"""Content-addressed result cache: canonical spec hash -> report.

Every task of this framework is deterministic given its resolved spec
(model recipe, query, options, seed), so identical scenarios submitted
under load can be served from cache instead of re-running minutes of
branch-and-prune.  The key is the SHA-256 of the spec's canonical JSON
(sorted keys, no whitespace) *after* engine-level seed resolution; specs
whose query holds live domain objects simply are not cacheable
(:func:`spec_key` returns ``None``) and run every time.

Reports are stored as their serialized JSON text, so a cache hit
deserializes a fresh object -- byte-identical ``to_json()`` output,
no aliasing between callers.  An optional on-disk store (one
``<hash>.json`` per report under ``cache_dir``) persists results across
processes and services; the in-memory LRU fronts it.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import threading
import warnings
from collections import OrderedDict
from typing import TYPE_CHECKING

from repro.api.report import AnalysisReport
from repro.store import PARSE_ERRORS, read_or_quarantine, write_atomic

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.spec import TaskSpec

__all__ = ["spec_key", "ResultCache"]


#: Task kinds already warned about for non-JSON-able specs (once each:
#: a sweep of a thousand uncacheable specs should not emit a thousand
#: warnings).
_UNCACHEABLE_WARNED: set[str] = set()
_WARNED_LOCK = threading.Lock()

#: In-memory LRU capacity of a :class:`ResultCache`, in reports.
MAX_ENTRIES = 256


def spec_key(spec: "TaskSpec") -> str | None:
    """The content hash of a spec, or ``None`` if it is not JSON-able.

    A ``None`` key silently disabled caching *and* single-flight dedup
    for the spec; that is sometimes intended (live domain objects in the
    query) but more often an accidentally non-serializable value, so the
    first occurrence per task kind raises a :class:`RuntimeWarning`.
    """
    try:
        text = json.dumps(spec.to_dict(), sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError):
        task = getattr(spec, "task", "<unknown>")
        with _WARNED_LOCK:
            first = task not in _UNCACHEABLE_WARNED
            if first:
                _UNCACHEABLE_WARNED.add(task)
        if first:
            warnings.warn(
                f"spec for task {task!r} is not JSON-serializable; result "
                "caching and single-flight dedup are disabled for it "
                "(pass JSON-able values in the query to re-enable)",
                RuntimeWarning,
                stacklevel=2,
            )
        return None
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class ResultCache:
    """Thread-safe LRU of report JSON, optionally backed by a directory.

    The in-memory LRU holds at most :data:`MAX_ENTRIES` reports
    (eviction does not touch the disk store).

    Parameters
    ----------
    cache_dir:
        Optional directory for the persistent JSON store; created on
        first write.
    """

    def __init__(self, cache_dir: str | os.PathLike | None = None):
        self.cache_dir = os.fspath(cache_dir) if cache_dir is not None else None
        self._mem: OrderedDict[str, str] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.quarantined = 0

    # ------------------------------------------------------------------
    def get(self, key: str) -> AnalysisReport | None:
        """Look up a report; counts a hit or a miss.

        A corrupt or schema-incompatible stored entry (truncated disk
        file from a writer killed mid-``os.replace`` on a non-atomic
        filesystem, a hand-edited file, a report shape from an older
        version) counts as a miss -- the analysis re-runs and
        overwrites it -- instead of poisoning every future submission
        of that spec.  A corrupt *disk* file is additionally
        quarantined to ``<key>.corrupt`` so the evidence survives for
        inspection and the next ``put`` starts clean.
        """
        with self._lock:
            text = self._mem.get(key)
        report = None
        moved = False
        if text is not None:
            with contextlib.suppress(*PARSE_ERRORS):
                report = AnalysisReport.from_json(text)
        elif self.cache_dir is not None:
            loaded, moved = read_or_quarantine(
                self._path(key), lambda t: (t, AnalysisReport.from_json(t))
            )
            if loaded is not None:
                text, report = loaded
        with self._lock:
            self.quarantined += moved
            if report is None:
                self._mem.pop(key, None)
                self.misses += 1
            else:
                self._remember(key, text)  # (re-)insert and bump to MRU
                self.hits += 1
        return report

    def put(self, key: str, report: AnalysisReport) -> None:
        """Store a report under its spec hash (memory + disk)."""
        text = report.to_json()
        with self._lock:
            self._remember(key, text)
            self.stores += 1
        if self.cache_dir is not None:
            write_atomic(self._path(key), text)

    def stats(self) -> dict[str, float]:
        """Hit/miss/store counters plus current occupancy."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "stores": self.stores,
                "quarantined": self.quarantined,
                "entries": len(self._mem),
            }

    def clear(self) -> None:
        """Drop the in-memory LRU (the disk store is left alone)."""
        with self._lock:
            self._mem.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._mem)

    # ------------------------------------------------------------------
    def _remember(self, key: str, text: str) -> None:
        # caller holds the lock
        self._mem[key] = text
        self._mem.move_to_end(key)
        while len(self._mem) > MAX_ENTRIES:
            self._mem.popitem(last=False)

    def _path(self, key: str) -> str:
        assert self.cache_dir is not None
        return os.path.join(self.cache_dir, f"{key}.json")
