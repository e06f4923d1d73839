"""Durable-store primitives: one append-only JSONL log, one atomic blob.

The job journal, the monitor event log, the result cache and the paving
store keep their crash-safety rules here, once.  :class:`JsonLog` writes
each record as one ``os.write`` on an ``O_APPEND`` descriptor, skips a
torn final line on replay and cuts it on reopen and before each append.
:func:`write_atomic` renames a private tmp file into place, and
:func:`read_or_quarantine` moves a blob that fails to parse to
``<name>.corrupt``.
"""

from __future__ import annotations

import contextlib
import fcntl
import json
import mmap
import os
import threading
from typing import Any, Callable, Iterator

__all__ = ["JsonLog", "PARSE_ERRORS", "write_atomic", "read_or_quarantine"]

#: What a blob parser raises on damage: bad JSON, a missing or odd field.
PARSE_ERRORS = (ValueError, KeyError, TypeError, AttributeError)


class JsonLog:
    """Append-only JSONL file, shared safely by threads and processes.

    ``path`` is created (with parents) if missing and appended to if
    present.  Opening and every append hold an exclusive ``flock`` and
    first cut a torn final line (a crash mid-append) back to the last
    newline, so no record is glued onto a fragment and none is cut
    while a live sibling is still writing it.  Usable as a context
    manager; :meth:`close` is idempotent.
    """

    def __init__(self, path: str | os.PathLike):
        self.path = os.fspath(path)
        os.makedirs(os.path.dirname(os.path.abspath(self.path)), exist_ok=True)
        self._fd: int | None = os.open(
            self.path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644
        )
        self._lock = threading.Lock()
        self.appended = 0
        try:
            fcntl.flock(self._fd, fcntl.LOCK_EX)
            _cut_torn_tail(self._fd)
            fcntl.flock(self._fd, fcntl.LOCK_UN)
        except BaseException:
            self.close()
            raise

    def write(self, record: dict) -> None:
        """Append one record as one line; raises ``ValueError`` once closed.

        A short write (a full disk) leaves a fragment, so it closes the
        log; the next open, or a sibling's next append, cuts it.
        """
        line = json.dumps(record, separators=(",", ":"), sort_keys=True) + "\n"
        data = line.encode("utf-8")
        # the thread lock also stops one thread's LOCK_UN from dropping
        # the flock that another thread's append still needs
        with self._lock:
            if self._fd is None:
                raise ValueError(f"{self.path}: log is closed")
            fcntl.flock(self._fd, fcntl.LOCK_EX)
            try:
                _cut_torn_tail(self._fd)  # a crashed sibling's fragment
                written = os.write(self._fd, data)
            finally:
                fcntl.flock(self._fd, fcntl.LOCK_UN)
            if written < len(data):
                os.close(self._fd)
                self._fd = None
                raise OSError(f"{self.path}: short write, log closed")
            self.appended += 1

    def records(self) -> Iterator[dict]:
        """Iterate the records in append order.

        A bad final line (a crash mid-append) is skipped; a bad line
        anywhere else raises ``ValueError`` naming it.
        """
        with open(self.path, "rb") as fh:
            bad = 0
            for lineno, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                if bad:
                    raise ValueError(f"{self.path}: corrupt journal line {bad}")
                try:
                    record = json.loads(line)
                except ValueError:
                    bad = lineno
                else:
                    yield record

    def close(self) -> None:
        """Close the log (idempotent); later appends raise."""
        with self._lock:
            if self._fd is not None:
                os.close(self._fd)
                self._fd = None

    def __enter__(self):
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def _cut_torn_tail(fd: int) -> None:
    """Cut a final line with no newline back to the last newline; the
    caller holds an exclusive ``flock``."""
    size = os.fstat(fd).st_size
    if size and os.pread(fd, 1, size - 1) != b"\n":
        with mmap.mmap(fd, size, access=mmap.ACCESS_READ) as m:
            os.ftruncate(fd, m.rfind(b"\n") + 1)


def write_atomic(path: str, text: str) -> None:
    """Write ``text`` to ``path`` (parents created) through a tmp file
    and a rename: readers see the old or the new blob, never a mix."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def read_or_quarantine(path: str, parse: Callable[[str], Any]) -> tuple[Any, bool]:
    """``(parse(text), False)``, or ``(None, moved)`` on a miss.

    A missing or unreadable file is a plain miss.  A file that ``parse``
    rejects with one of :data:`PARSE_ERRORS` is renamed to
    ``<name>.corrupt`` (``path`` without its extension); ``moved`` says
    whether this call renamed it, so a reader that lost the race to
    another reader, or to a writer that replaced the file, counts nothing.
    """
    try:
        with open(path, "rb") as fh:
            inode = os.fstat(fh.fileno()).st_ino
            data = fh.read()
    except OSError:
        return None, False
    try:
        return parse(data.decode("utf-8")), False
    except PARSE_ERRORS:
        pass
    try:
        if os.stat(path).st_ino != inode:
            return None, False  # replaced by a writer: not the bad blob
        os.replace(path, os.path.splitext(path)[0] + ".corrupt")
    except OSError:
        return None, False  # moved or removed by someone else first
    return None, True
