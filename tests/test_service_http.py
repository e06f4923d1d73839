"""HTTP round-trips against the ``repro serve`` job service, bound to
an ephemeral port."""

import http.client
import json
import socket
from urllib.error import HTTPError
from urllib.request import Request, urlopen

import pytest

from repro.api import Engine, ServiceServer
from repro.cluster.quota import TenantPolicy, TenantScheduler


def smc_spec(name="http-smc"):
    return {
        "task": "smc",
        "name": name,
        "model": {"builtin": "logistic"},
        "query": {
            "phi": {"op": "F", "bound": 6.0, "arg": "x >= 5.0"},
            "init": {"x": [0.3, 0.7]},
            "horizon": 6.0,
            "method": "probability",
            "epsilon": 0.25,
            "alpha": 0.2,
        },
    }


def _get(url, timeout=30.0):
    with urlopen(url, timeout=timeout) as resp:
        return resp.status, json.load(resp)


def _post(url, payload, timeout=30.0):
    req = Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urlopen(req, timeout=timeout) as resp:
        return resp.status, json.load(resp)


@pytest.fixture(scope="module")
def server():
    engine = Engine(seed=0, cache=True)
    with ServiceServer(engine, port=0) as srv:  # port 0 -> ephemeral
        yield srv
    engine.close()


class TestServe:
    def test_health(self, server):
        status, payload = _get(f"{server.url}/health")
        assert status == 200
        assert payload["ok"] is True
        assert "calibrate" in payload["tasks"]

    def test_submit_poll_report_roundtrip(self, server):
        status, sub = _post(f"{server.url}/run", smc_spec("roundtrip"))
        assert status == 202
        job_id = sub["job"]

        # ?wait= blocks server-side until the job is done
        status, job = _get(f"{server.url}/jobs/{job_id}?wait=60")
        assert status == 200
        assert job["state"] == "done"
        assert job["status"] == "estimated"
        assert job["report"]["metrics"]["probability"] == pytest.approx(1.0, abs=0.05)
        assert job["events"] > 0

        # identical resubmission is served from the result cache
        _, sub2 = _post(f"{server.url}/run", smc_spec("roundtrip"))
        _, job2 = _get(f"{server.url}/jobs/{sub2['job']}?wait=60")
        assert job2["from_cache"] is True
        assert job2["report"] == job["report"]

    def test_jobs_table_lists_submissions(self, server):
        _post(f"{server.url}/run", smc_spec("listed"))
        status, payload = _get(f"{server.url}/jobs")
        assert status == 200
        names = [j["name"] for j in payload["jobs"]]
        assert "listed" in names
        assert payload["cache"] is not None

    def test_cancel_endpoint(self, server, running_execute):
        _, sub = _post(f"{server.url}/run", smc_spec("http-gated"))
        assert running_execute.started.wait(timeout=30.0)
        status, cancelled = _post(f"{server.url}/jobs/{sub['job']}/cancel", {})
        assert status == 200
        _, job = _get(f"{server.url}/jobs/{sub['job']}?wait=30")
        assert job["state"] == "cancelled"
        assert job["status"] == "cancelled"

    def test_unknown_job_404(self, server):
        with pytest.raises(HTTPError) as err:
            _get(f"{server.url}/jobs/j999999")
        assert err.value.code == 404

    def test_bad_spec_400(self, server):
        with pytest.raises(HTTPError) as err:
            _post(f"{server.url}/run", {"model": {"builtin": "logistic"}})
        assert err.value.code == 400

    def test_meaningless_delta_400(self, server):
        spec = {
            "task": "calibrate", "model": {"builtin": "logistic"},
            "query": {"data": {"samples": [[2.0, {"x": 1.45}]], "tolerance": 0.2},
                      "param_ranges": {"r": [0.1, 2.0]}, "x0": {"x": 0.5}},
        }
        for delta in (-1.0, float("nan")):
            with pytest.raises(HTTPError) as err:
                _post(f"{server.url}/run", {**spec, "solver": {"delta": delta}})
            assert err.value.code == 400
            assert "delta must be finite" in json.loads(err.value.read())["error"]

    def test_zero_budget_400(self, server):
        spec = {
            "task": "calibrate", "model": {"builtin": "logistic"},
            "query": {"data": {"samples": [[2.0, {"x": 1.45}]], "tolerance": 0.2},
                      "param_ranges": {"r": [0.1, 2.0]}, "x0": {"x": 0.5}},
            "solver": {"max_boxes": 0},
        }
        with pytest.raises(HTTPError) as err:
            _post(f"{server.url}/run", spec)
        assert err.value.code == 400
        assert "max_boxes must be >= 1, got 0" in json.loads(err.value.read())["error"]

    def test_interval_x0_400(self, server):
        spec = {
            "task": "calibrate", "model": {"builtin": "logistic"},
            "query": {"data": {"samples": [[2.0, {"x": 1.45}]], "tolerance": 0.2},
                      "param_ranges": {"r": [0.1, 2.0]}, "x0": {"x": [0.4, 0.6]}},
        }
        with pytest.raises(HTTPError) as err:
            _post(f"{server.url}/run", spec)
        assert err.value.code == 400
        error = json.loads(err.value.read())["error"]
        assert "task 'calibrate' query field 'x0' needs a number for 'x'" in error

    def test_string_spec_rejected_not_read_as_path(self, server):
        # a path-string spec must never reach TaskSpec.from_file: that
        # would let network clients read/execute server-local files
        with pytest.raises(HTTPError) as err:
            _post(f"{server.url}/run", {"spec": "/etc/hostname"})
        assert err.value.code == 400
        assert "path" in json.loads(err.value.read())["error"]

    def test_unknown_backend_rejected_at_the_door(self, server):
        # must 400 at submit time: pre-validation the bad name raised
        # later inside the scheduler pump and wedged dispatching
        with pytest.raises(HTTPError) as err:
            _post(
                f"{server.url}/run",
                {"spec": smc_spec("gpu-job"), "backend": "gpu"},
            )
        assert err.value.code == 400
        assert "backend" in json.loads(err.value.read())["error"]
        with pytest.raises(HTTPError) as err:
            _post(
                f"{server.url}/run",
                {"spec": smc_spec("bad-addr"), "backend": "cluster:nope"},
            )
        assert err.value.code == 400
        # the service still dispatches afterwards
        _, sub = _post(f"{server.url}/run", smc_spec("after-bad-backend"))
        _, job = _get(f"{server.url}/jobs/{sub['job']}?wait=60")
        assert job["state"] == "done"

    def test_backend_override_per_request(self, server):
        _, sub = _post(
            f"{server.url}/run",
            {"spec": smc_spec("inline-job"), "backend": "inline"},
        )
        _, job = _get(f"{server.url}/jobs/{sub['job']}")
        assert job["state"] in ("done",)  # inline finishes before the response

    def test_cli_jobs_command(self, server, capsys):
        from repro.api.cli import main

        assert main(["jobs", server.url]) == 0
        out = capsys.readouterr().out
        assert "id" in out and "state" in out


class TestReplyPath:
    """The transport under the JSON: socket options and keep-alive framing."""

    def test_accepted_connection_sets_tcp_nodelay(self, server, monkeypatch):
        # a header write then a body write with Nagle on stalls each
        # reply on the client's delayed ACK; the option must be set
        handler = server.httpd.RequestHandlerClass
        seen = []
        setup = handler.setup

        def recording_setup(self):
            setup(self)
            seen.append(
                self.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            )

        monkeypatch.setattr(handler, "setup", recording_setup)
        status, _ = _get(f"{server.url}/health")
        assert status == 200
        assert seen and all(flag != 0 for flag in seen)

    def test_keep_alive_replies_frame_correctly(self):
        scheduler = TenantScheduler(
            policies={"metered": TenantPolicy(rate=1e-3, burst=1.0)}
        )
        engine = Engine(seed=0, cache=True)
        with ServiceServer(engine, port=0, scheduler=scheduler) as srv:
            conn = http.client.HTTPConnection(srv.host, srv.port, timeout=60)
            try:
                conn.connect()
                sock = conn.sock

                def call(method, path, payload=None, headers=None):
                    body = None if payload is None else json.dumps(payload)
                    conn.request(method, path, body=body, headers=headers or {})
                    resp = conn.getresponse()
                    raw = resp.read()
                    assert int(resp.getheader("Content-Length")) == len(raw)
                    assert conn.sock is sock  # still the one connection
                    return resp, json.loads(raw)

                for k in range(10):
                    resp, sub = call("POST", "/run", smc_spec(f"keep-alive-{k % 3}"))
                    assert resp.status == 202
                    resp, job = call("GET", f"/jobs/{sub['job']}?wait=60")
                    assert resp.status == 200 and job["state"] == "done"
                resp, err = call("GET", "/jobs/j999999")
                assert resp.status == 404 and "no such job" in err["error"]
                headers = {"X-Tenant": "metered"}
                resp, _ = call("POST", "/run", smc_spec("metered-0"), headers)
                assert resp.status == 202
                resp, err = call("POST", "/run", smc_spec("metered-1"), headers)
                assert resp.status == 429
                assert int(resp.getheader("Retry-After")) >= 1
                assert err["retry_after"] > 0
                resp, health = call("GET", "/health")
                assert resp.status == 200 and health["ok"] is True
            finally:
                conn.close()
        engine.close()


class TestWaitParameter:
    def test_nan_wait_is_rejected_at_once(self, running_execute):
        # a NaN timeout would block the handler thread until the job
        # ends; this job cannot end during the test: it is queued
        # behind the only slot, which a gated job holds
        engine = Engine(seed=0)
        scheduler = TenantScheduler(max_running=1)
        with ServiceServer(engine, port=0, scheduler=scheduler) as srv:
            _, holder = _post(f"{srv.url}/run", smc_spec("slot-holder"))
            assert running_execute.started.wait(timeout=30.0)
            _, queued = _post(f"{srv.url}/run", smc_spec("queued"))
            assert queued["state"] == "pending"
            for wait in ("nan", "NaN", "-nan"):
                with pytest.raises(HTTPError) as err:
                    _get(f"{srv.url}/jobs/{queued['job']}?wait={wait}", timeout=10.0)
                assert err.value.code == 400
                assert json.loads(err.value.read())["error"] == "wait must be a number"
            # a negative wait does not wait at all
            status, job = _get(f"{srv.url}/jobs/{queued['job']}?wait=-5", timeout=10.0)
            assert status == 200 and job["state"] == "pending"
            running_execute.release.set()
            _, done = _get(f"{srv.url}/jobs/{holder['job']}?wait=60")
            assert done["state"] == "done"
        engine.close()


class TestContentLength:
    @pytest.mark.parametrize("length", ["-1", "abc", "1.5"])
    def test_bad_length_gets_400_at_once(self, server, length):
        # read(-1) would hold the handler thread until the client hangs up
        with socket.create_connection((server.host, server.port), timeout=5.0) as sock:
            sock.sendall(
                b"POST /run HTTP/1.1\r\nHost: test\r\nContent-Type: application/json\r\n"
                b"Content-Length: " + length.encode() + b"\r\n\r\n{}"
            )
            raw = b""
            while chunk := sock.recv(4096):  # the server closes the connection
                raw += chunk
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert json.loads(body)["error"] == "Content-Length must be a non-negative integer"
