"""Append-only JSONL journal of monitor events, with crash recovery.

The store is deliberately primitive: one :class:`~repro.monitor.stream.MonitorEvent`
per line, appended in emission order, never rewritten.  That buys the
two properties the monitoring service needs:

* **Durability without coordination** -- a :class:`repro.store.JsonLog`
  writes each event unbuffered, so a crash loses at most the event being
  written; a torn final line is ignored on read and cut on reopen.
* **Replayability** -- released samples are journaled as ``"sample"``
  events, so :meth:`EventStore.samples` can re-feed a fresh
  :class:`~repro.monitor.stream.StreamState` and regenerate the exact
  verdict-transition sequence.  The conformance suite asserts the
  regenerated transitions are identical to the journaled ones; the
  supervisor uses the same path to warm-start after a restart
  (*backfill*), then continues with live data.
"""

from __future__ import annotations

from typing import Iterator

from repro.store import JsonLog

from .stream import MonitorEvent

__all__ = ["EventStore", "TRANSITION_KINDS"]

#: Event kinds that constitute the verdict-transition record of a
#: stream (everything except the high-volume ``"sample"`` journal).
TRANSITION_KINDS = frozenset({"start", "verdict", "episode", "decision", "closed"})


class EventStore(JsonLog):
    """Append-only JSONL store for monitor events (see :class:`JsonLog`)."""

    def append(self, event: MonitorEvent) -> None:
        """Append one event to the journal."""
        self.write(event.to_dict())

    def replay(self, stream: str | None = None,
               kinds: frozenset[str] | None = None) -> Iterator[MonitorEvent]:
        """Iterate journaled events in append order.

        Filters by ``stream`` id and/or event ``kinds`` when given.  A
        torn final line (from a crash mid-append) is skipped; a corrupt
        line *elsewhere* raises ``ValueError``, since that indicates
        real damage rather than an interrupted write.
        """
        for d in self.records():
            ev = MonitorEvent.from_dict(d)
            if stream is not None and ev.stream != stream:
                continue
            if kinds is not None and ev.kind not in kinds:
                continue
            yield ev

    def streams(self) -> list[str]:
        """Distinct stream ids present in the journal, in first-seen order."""
        seen: dict[str, None] = {}
        for ev in self.replay():
            seen.setdefault(ev.stream, None)
        return list(seen)

    def transitions(self, stream: str | None = None) -> list[MonitorEvent]:
        """The verdict-transition record (everything but ``"sample"``)."""
        return list(self.replay(stream=stream, kinds=TRANSITION_KINDS))

    def samples(self, stream: str) -> Iterator[tuple[float, dict, dict | None]]:
        """The released samples of one stream, in release (time) order.

        Yields ``(t, values, derivs)`` triples ready to re-feed through
        :meth:`~repro.monitor.stream.StreamState.push` for backfill.
        """
        for ev in self.replay(stream=stream, kinds=frozenset({"sample"})):
            yield ev.time, ev.payload["values"], ev.payload.get("derivs")
