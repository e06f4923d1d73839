"""Cluster worker pool: protocol/lease units + golden conformance.

The first half unit-tests the moving parts of :mod:`repro.cluster` --
the framed-pickle protocol guards, the coordinator's lease lifecycle
(expiry, re-queue at the front, stale-result rejection, poisoned-unit
give-up), token auth, and backend reuse after shutdown.

The second half is the distributed arm of the golden-verdict corpus:
every catalog scenario and every paving problem must be byte-identical
through a live :class:`~repro.cluster.backend.ClusterBackend` (one and
two subprocess workers), including after a worker is killed mid-run
and its lease is re-queued onto the survivor.
"""

import json
import pickle
import socket
import threading
import time

import pytest

from repro.cluster import ClusterBackend, ClusterCoordinator, ClusterError
from repro.cluster._work import add, boom, echo
from repro.cluster.protocol import (
    _LEN,
    _MAC_LEN,
    AuthError,
    fn_ref,
    parse_address,
    recv_msg,
    request,
    resolve_fn,
    send_msg,
)
from repro.cluster.worker import run_worker
from repro.service.backends import BACKEND_NAMES, make_backend
from repro.tools.golden import (
    PAVING_PROBLEMS,
    golden_dir,
    golden_scenario_names,
    paving_digest,
    projection_digest,
    scenario_projection,
)

GOLDEN = golden_dir()

#: Mirrors test_golden_corpus.SLOW_SCENARIOS: the policy-search scenario
#: is expensive on every path; exercised only in the full CI workflow.
SLOW_SCENARIOS = {"ias-policy"}


def _load(stem: str) -> dict:
    return json.loads((GOLDEN / f"{stem}.json").read_text())


def _poll(coord, worker, hold=0.0):
    return request(
        coord.address, {"op": "poll", "worker": worker, "hold": hold}
    )


def _wait_until(predicate, timeout=10.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


#: Set by :func:`_trip` -- proof a hostile pickle reached the deserializer.
TRIPPED = []


def _trip():
    TRIPPED.append(True)
    return {"op": "pwn"}


class _Canary:
    """Pickles to a call of :func:`_trip` on deserialization."""

    def __reduce__(self):
        return (_trip, ())


# ----------------------------------------------------------------------
# Protocol guards
# ----------------------------------------------------------------------


class TestProtocol:
    def test_parse_address(self):
        assert parse_address("127.0.0.1:9999") == ("127.0.0.1", 9999)
        assert parse_address("node-3.local:80") == ("node-3.local", 80)
        for bad in ("", "hostonly", ":80", "host:", "host:eighty"):
            with pytest.raises(ValueError):
                parse_address(bad)

    def test_fn_ref_round_trip(self):
        ref = fn_ref(echo)
        assert ref == "repro.cluster._work:echo"
        assert resolve_fn(ref) is echo

    def test_fn_ref_rejects_foreign_and_nested(self):
        with pytest.raises(ClusterError):
            fn_ref(json.dumps)  # outside the repro package
        with pytest.raises(ClusterError):
            fn_ref(lambda: None)  # <lambda> qualname
        with pytest.raises(ClusterError):
            fn_ref(ClusterCoordinator.submit)  # nested qualname

    def test_resolve_fn_refuses_escapes(self):
        for ref in ("os:system", "subprocess:run", "repro.cluster._work",
                    "repro.cluster._work:does_not_exist",
                    "repro.cluster._work:MAX_FRAME"):
            with pytest.raises(ClusterError):
                resolve_fn(ref)

    def test_hmac_frames_round_trip(self):
        a, b = socket.socketpair()
        try:
            send_msg(a, {"op": "ok", "n": 1}, token="s3cret")
            assert recv_msg(b, token="s3cret")["n"] == 1
            send_msg(a, {"op": "ok"})  # tokenless pools use the empty key
            assert recv_msg(b)["op"] == "ok"
            send_msg(a, {"op": "ok"}, token="left")
            with pytest.raises(AuthError):
                recv_msg(b, token="right")
        finally:
            a.close()
            b.close()

    def test_bad_mac_is_rejected_before_unpickling(self):
        # a crafted pickle from a peer without the token must never
        # reach pickle.loads -- the MAC check is the pre-auth gate
        TRIPPED.clear()
        blob = pickle.dumps(_Canary())
        a, b = socket.socketpair()
        try:
            a.sendall(_LEN.pack(len(blob)) + bytes(_MAC_LEN) + blob)
            with pytest.raises(AuthError):
                recv_msg(b, token="s3cret")
        finally:
            a.close()
            b.close()
        assert TRIPPED == []  # payload discarded undeserialized


# ----------------------------------------------------------------------
# Coordinator lease lifecycle
# ----------------------------------------------------------------------


class TestCoordinator:
    def test_round_trip_with_inline_worker(self):
        with ClusterCoordinator() as coord:
            future = coord.submit(add, 2, 3)
            executed = run_worker(coord.address, once=True, poll_hold=2.0)
            assert executed == 1
            assert future.result(timeout=10) == 5
            status = coord.status()
            assert status["counters"]["completed"] == 1
            assert status["pending"] == 0 and status["leased"] == 0

    def test_worker_failure_propagates(self):
        with ClusterCoordinator() as coord:
            future = coord.submit(boom, "kaput")
            run_worker(coord.address, once=True)
            with pytest.raises(ClusterError, match="ValueError: kaput"):
                future.result(timeout=10)
            assert coord.status()["counters"]["failed"] == 1

    def test_token_auth(self):
        with ClusterCoordinator(token="sesame") as coord:
            with pytest.raises(AuthError):
                request(coord.address, {"op": "status"})
            reply = request(
                coord.address, {"op": "status", "token": "sesame"}
            )
            assert reply["op"] == "status"
            with pytest.raises(AuthError):
                run_worker(coord.address, token="wrong", once=True)

    def test_lease_expiry_requeues_then_stale_result_is_ignored(self):
        with ClusterCoordinator(lease_ttl=0.3) as coord:
            f1 = coord.submit(echo, "first")
            coord.submit(echo, "second")
            # w1 takes the lease and never heartbeats (a dead worker)
            lease = _poll(coord, "w1")
            assert lease["op"] == "work"
            unit = lease["unit"]
            assert _wait_until(
                lambda: coord.counters["requeued"] >= 1, timeout=5.0
            ), "janitor never re-queued the expired lease"
            # the abandoned worker's heartbeat now reports a lost lease
            beat = request(
                coord.address,
                {"op": "heartbeat", "worker": "w1", "unit": unit},
            )
            assert beat["known"] is False
            # recovered work goes to the FRONT: w2 gets the same unit
            release = _poll(coord, "w2", hold=2.0)
            assert release["op"] == "work" and release["unit"] == unit
            done = request(
                coord.address,
                {"op": "result", "worker": "w2", "unit": unit,
                 "ok": True, "payload": ("first",)},
            )
            assert done["stale"] is False
            assert f1.result(timeout=10) == ("first",)
            # w1 rises from the dead and reports the same unit: stale
            late = request(
                coord.address,
                {"op": "result", "worker": "w1", "unit": unit,
                 "ok": True, "payload": ("zombie",)},
            )
            assert late["stale"] is True
            assert f1.result() == ("first",)  # exactly-once completion
            assert coord.counters["stale_results"] == 1

    def test_poisoned_unit_gives_up_after_max_attempts(self):
        with ClusterCoordinator(lease_ttl=0.25, max_attempts=2) as coord:
            future = coord.submit(echo, "cursed")
            for attempt in range(2):
                lease = None

                def leased():
                    nonlocal lease
                    reply = _poll(coord, f"victim{attempt}")
                    if reply["op"] == "work":
                        lease = reply
                    return lease is not None

                assert _wait_until(leased, timeout=5.0)
            with pytest.raises(ClusterError, match="lost 2 leases"):
                future.result(timeout=10)
            assert coord.counters["failed"] == 1

    def test_cancelled_future_is_never_leased(self):
        with ClusterCoordinator() as coord:
            f1 = coord.submit(echo, "a")
            coord.submit(echo, "b")
            assert f1.cancel()
            lease = _poll(coord, "w1")
            assert lease["op"] == "work"
            assert request(
                coord.address,
                {"op": "result", "worker": "w1", "unit": lease["unit"],
                 "ok": True, "payload": ("b",)},
            )["stale"] is False
            assert coord.status()["pending"] == 0

    def test_stop_fails_outstanding_and_is_idempotent(self):
        coord = ClusterCoordinator()
        future = coord.submit(echo, "never")
        coord.stop()
        coord.stop()
        with pytest.raises(ClusterError, match="shut down"):
            future.result(timeout=5)
        with pytest.raises(ClusterError):
            coord.submit(echo, "late")

    def test_partial_frame_times_out_without_pinning_the_pool(self):
        with ClusterCoordinator(io_timeout=0.3) as coord:
            with socket.create_connection(coord.address, timeout=5) as sock:
                sock.sendall(b"\x00\x00")  # half a length prefix, then stall
                sock.settimeout(5.0)
                try:
                    leftovers = sock.recv(1)
                except OSError:
                    leftovers = b""
                assert leftovers == b""  # coordinator dropped the connection
            # the handler thread was freed, not pinned: the pool still works
            future = coord.submit(add, 1, 1)
            assert run_worker(coord.address, once=True, poll_hold=2.0) == 1
            assert future.result(timeout=10) == 2

    def test_worker_survives_error_reply_on_result_delivery(self, monkeypatch):
        from repro.cluster import worker as worker_mod

        with ClusterCoordinator(lease_ttl=0.3) as coord:
            future = coord.submit(add, 2, 2)
            real_request = worker_mod.request
            rejected = []

            def flaky(address, msg, timeout=30.0, token=None):
                if msg.get("op") == "result" and not rejected:
                    rejected.append(msg["unit"])
                    raise ClusterError("transient dispatch failure")
                return real_request(address, msg, timeout=timeout, token=token)

            monkeypatch.setattr(worker_mod, "request", flaky)
            # pre-fix the ClusterError propagated out of run_worker and
            # silently killed the worker process
            assert run_worker(coord.address, once=True, poll_hold=2.0) == 1
            assert rejected and not future.done()  # result lost, worker alive
            # the abandoned lease expires; the janitor re-queues the unit
            assert _wait_until(
                lambda: coord.counters["requeued"] >= 1, timeout=5.0
            )
            assert run_worker(coord.address, once=True, poll_hold=2.0) == 1
            assert future.result(timeout=10) == 4


# ----------------------------------------------------------------------
# Backend plumbing
# ----------------------------------------------------------------------


class TestBackend:
    def test_backend_names_include_cluster(self):
        assert "cluster" in BACKEND_NAMES

    def test_make_backend_parses_addressed_form(self):
        backend = make_backend("cluster:127.0.0.1:7345", None)
        assert isinstance(backend, ClusterBackend)
        assert (backend.host, backend.port) == ("127.0.0.1", 7345)
        assert backend.workers == 0  # open pool: external workers join

    def test_backend_is_reusable_after_shutdown(self):
        backend = ClusterBackend(workers=1)
        try:
            assert backend.submit(add, 1, 2).result(timeout=60) == 3
            backend.shutdown()
            assert backend._coordinator is None and backend.procs == []
            assert backend.submit(add, 30, 4).result(timeout=60) == 34
        finally:
            backend.shutdown()


# ----------------------------------------------------------------------
# Golden conformance through the cluster path
# ----------------------------------------------------------------------


@pytest.fixture(scope="module", params=[1, 2], ids=["1worker", "2workers"])
def pool(request):
    """A live local pool shared by the conformance sweep."""
    backend = ClusterBackend(workers=request.param)
    backend.wait_for_workers(request.param, timeout=60.0)
    yield backend
    backend.shutdown()


def _scenario_params():
    # the golden set (core + promoted corpus entries); the full corpus
    # is conformance-checked in tests/test_corpus_conformance.py
    for name in golden_scenario_names():
        marks = [pytest.mark.slow] if name in SLOW_SCENARIOS else []
        yield pytest.param(name, marks=marks, id=name)


@pytest.mark.parametrize("name", _scenario_params())
def test_scenario_verdict_conformance_cluster(name, pool):
    """Every catalog scenario reproduces its golden verdict via the pool."""
    golden = _load(name)
    projection = scenario_projection(
        name, "sharded", overrides={"shard_backend": pool}
    )
    assert projection == golden["projection"], (
        f"{name} via the cluster backend ({pool.workers} workers) diverges "
        f"from the golden verdict {golden['status']!r}"
    )
    assert projection_digest(projection) == golden["digest"]


@pytest.mark.parametrize("problem", sorted(PAVING_PROBLEMS))
def test_paving_conformance_cluster(problem, pool):
    """Cluster pavings classify byte-identical boxes to the golden partition."""
    golden = _load(f"paving-{problem}")
    result = paving_digest(
        problem, "sharded", overrides={"shard_backend": pool}
    )
    assert result["counts"] == golden["counts"]
    assert result["digest"] == golden["digest"], (
        f"paving of {problem!r} through the cluster backend classified "
        "different boxes than the golden partition"
    )


def test_paving_survives_worker_death():
    """Killing a worker mid-run re-queues its lease; the digest still matches.

    A short ``lease_ttl`` keeps the janitor's recovery inside the test
    budget.  The kill lands while epochs are in flight, so the dead
    worker's leased units expire and re-run on the survivor -- and the
    lock-step epoch merge above must produce the exact golden bytes
    regardless.
    """
    backend = ClusterBackend(workers=2, lease_ttl=1.5)
    try:
        backend.wait_for_workers(2, timeout=60.0)
        killed = threading.Event()

        def assassinate():
            # let the first epochs get leased before striking
            time.sleep(0.3)
            backend.procs[0].kill()
            # reap it: SIGKILL lands asynchronously, and a paving that
            # already finished would read the status before it does
            backend.procs[0].wait(timeout=10)
            killed.set()

        hitman = threading.Thread(target=assassinate, daemon=True)
        hitman.start()
        result = paving_digest(
            "annulus", "sharded", overrides={"shard_backend": backend}
        )
        hitman.join(timeout=10)
        assert killed.is_set()
        golden = _load("paving-annulus")
        assert result["counts"] == golden["counts"]
        assert result["digest"] == golden["digest"]
        assert backend.status()["local_workers"]["alive"] == 1
    finally:
        backend.shutdown()
