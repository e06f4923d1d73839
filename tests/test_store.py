"""Crash-safety suite of :mod:`repro.store` and the four stores built on it.

The job journal and the monitor event log share :class:`JsonLog`; the
result cache and the paving store share :func:`write_atomic` and
:func:`read_or_quarantine`.  Store-specific behaviour (recovery
folding, counters, schema checks) stays in each store's own test file.
"""

import errno
import fcntl
import json
import os
import sys
import threading

import pytest

from repro.cluster import JobStore
from repro.monitor import EventStore, MonitorEvent
from repro.store import JsonLog, read_or_quarantine, write_atomic

TORN = '{"kind": "submit", "id": "torn", "sp'  # a crash mid-append


def _job_append(store, i):
    store.record_submit(f"j{i}", {"task": "smc", "i": i})


def _job_read(store):
    return list(store.recover())


def _event_append(store, i):
    store.append(MonitorEvent("start", "s", float(i), i))


def _event_read(store):
    return [f"j{int(ev.time)}" for ev in store.replay()]


@pytest.mark.parametrize(
    "factory, append, read",
    [(JobStore, _job_append, _job_read), (EventStore, _event_append, _event_read)],
    ids=["JobStore", "EventStore"],
)
def test_torn_tail_then_two_restarts_keeps_every_record(tmp_path, factory, append, read):
    path = tmp_path / "log.jsonl"
    with factory(path) as store:
        append(store, 0)
        append(store, 1)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(TORN)
    for i in (2, 3):  # each restart journals one more record
        with factory(path) as store:
            append(store, i)
    assert read(factory(path)) == ["j0", "j1", "j2", "j3"]


def test_live_append_cuts_a_crashed_siblings_fragment_first(tmp_path):
    # replica b dies mid-append while replica a keeps journaling: a's
    # next record must not be glued onto b's fragment
    path = tmp_path / "jobs.jsonl"
    with JobStore(path) as a:
        a.record_submit("a-1", {"task": "smc"})
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"kind":"submit","id":"b-1","sp')
        a.record_submit("a-2", {"task": "smc"})
        assert list(a.recover()) == ["a-1", "a-2"]
        a.record_submit("a-3", {"task": "smc"})
        assert list(a.recover()) == ["a-1", "a-2", "a-3"]


def test_reopen_leaves_a_whole_log_byte_identical(tmp_path):
    # lines as an older writer left them: insertion-ordered keys
    path = tmp_path / "events.jsonl"
    lines = (
        '{"kind":"start","stream":"a","time":0.0,"episode":0,'
        '"verdict":"","payload":{"values":{"y":1.0,"x":2.0}},"seq":0}\n'
    )
    path.write_text(lines * 2, encoding="utf-8")
    store = EventStore(path)
    assert path.read_text(encoding="utf-8") == lines * 2
    events = list(store.replay())
    assert [ev.stream for ev in events] == ["a", "a"]
    assert events[0].payload == {"values": {"y": 1.0, "x": 2.0}}


def test_closed_log_refuses_appends(tmp_path):
    log = JsonLog(tmp_path / "log.jsonl")
    log.close()
    log.close()  # idempotent
    with pytest.raises(ValueError, match="closed"):
        log.write({"a": 1})
    assert log.appended == 0


def _disk_fills_after(log, nbytes, monkeypatch):
    """Make ``log``'s next append write ``nbytes`` bytes at most."""
    real_write = os.write

    def write(fd, data):
        if fd != log._fd:
            return real_write(fd, data)
        if not nbytes:
            raise OSError(errno.ENOSPC, "No space left on device")
        return real_write(fd, data[:nbytes])

    monkeypatch.setattr(os, "write", write)


def test_partial_append_closes_the_log(tmp_path, monkeypatch):
    path = tmp_path / "log.jsonl"
    log = JsonLog(path)
    log.write({"n": 0})
    with monkeypatch.context() as m:
        _disk_fills_after(log, 5, m)
        with pytest.raises(OSError, match="short write"):
            log.write({"n": 1})
    with pytest.raises(ValueError, match="closed"):
        log.write({"n": 2})  # would glue onto the fragment
    assert log.appended == 1
    with JsonLog(path) as reopened:  # cuts the fragment
        reopened.write({"n": 3})
        assert list(reopened.records()) == [{"n": 0}, {"n": 3}]


def test_append_failing_before_any_byte_keeps_the_log_open(tmp_path, monkeypatch):
    log = JsonLog(tmp_path / "log.jsonl")
    with monkeypatch.context() as m:
        _disk_fills_after(log, 0, m)
        with pytest.raises(OSError):
            log.write({"n": 0})
    log.write({"n": 1})
    assert list(log.records()) == [{"n": 1}]


def test_reopen_waits_for_a_sibling_mid_append(tmp_path):
    path = tmp_path / "log.jsonl"
    sibling = JsonLog(path)
    sibling.write({"n": 0})
    fd = sibling._fd
    fcntl.flock(fd, fcntl.LOCK_SH)  # the sibling is inside its append...
    os.write(fd, b'{"n":')  # ...and has written half a record
    opened = []
    reopen = threading.Thread(target=lambda: opened.append(JsonLog(path)))
    reopen.start()
    reopen.join(timeout=0.3)
    assert reopen.is_alive(), "reopen cut the tail while a sibling held LOCK_SH"
    os.write(fd, b"1}\n")
    fcntl.flock(fd, fcntl.LOCK_UN)
    reopen.join(timeout=10)
    assert not reopen.is_alive() and opened
    opened[0].write({"n": 2})
    assert list(sibling.records()) == [{"n": 0}, {"n": 1}, {"n": 2}]


def test_concurrent_appenders_never_interleave(tmp_path):
    path = tmp_path / "log.jsonl"
    logs = [JsonLog(path), JsonLog(path)]  # two descriptors, like two replicas
    per_thread, threads = 200, 8
    pad = "x" * 5000  # records larger than a pipe buffer or a page

    def work(t):
        log = logs[t % 2]
        for i in range(per_thread):
            log.write({"t": t, "i": i, "pad": pad})

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work, args=(t,)) for t in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(w.is_alive() for w in workers)
    records = list(logs[0].records())
    assert len(records) == per_thread * threads == sum(g.appended for g in logs)
    for t in range(threads):
        assert [r["i"] for r in records if r["t"] == t] == list(range(per_thread))


def test_write_atomic_leaves_no_tmp_file(tmp_path):
    path = str(tmp_path / "sub" / "blob.json")
    write_atomic(path, '{"a": 1}')
    write_atomic(path, '{"a": 2}')
    os.mkdir(tmp_path / "dir.json")
    with pytest.raises(OSError):  # the rename onto a directory fails
        write_atomic(str(tmp_path / "dir.json"), "{}")
    leftovers = [p.name for p in tmp_path.rglob("*") if ".tmp." in p.name]
    assert leftovers == []
    assert (tmp_path / "sub" / "blob.json").read_text(encoding="utf-8") == '{"a": 2}'


def _parse(text):
    return json.loads(text)["value"]


def test_read_or_quarantine_hit_miss_and_quarantine(tmp_path):
    path = str(tmp_path / "k.json")
    assert read_or_quarantine(path, _parse) == (None, False)  # missing
    write_atomic(path, '{"value": 7}')
    assert read_or_quarantine(path, _parse) == (7, False)
    write_atomic(path, '{"value": ')
    assert read_or_quarantine(path, _parse) == (None, True)
    assert not os.path.exists(path)
    assert (tmp_path / "k.corrupt").read_text(encoding="utf-8") == '{"value": '


def test_quarantine_race_with_another_reader_counts_once(tmp_path):
    path = str(tmp_path / "k.json")
    write_atomic(path, "garbage")
    inner = []

    def parse_while_another_reader_quarantines(text):
        inner.append(read_or_quarantine(path, _parse))
        return _parse(text)

    outer = read_or_quarantine(path, parse_while_another_reader_quarantines)
    assert inner == [(None, True)] and outer == (None, False)
    assert os.path.exists(tmp_path / "k.corrupt")


def test_quarantine_race_with_a_writer_keeps_the_new_blob(tmp_path):
    path = str(tmp_path / "k.json")
    write_atomic(path, "garbage")

    def parse_while_a_writer_repairs(text):
        write_atomic(path, '{"value": 1}')
        return _parse(text)

    assert read_or_quarantine(path, parse_while_a_writer_repairs) == (None, False)
    assert read_or_quarantine(path, _parse) == (1, False)
    assert not os.path.exists(tmp_path / "k.corrupt")
