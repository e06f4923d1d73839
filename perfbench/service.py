"""The ``service`` workload: a ``repro serve`` subprocess under HTTP load.

Load is a closed loop of :data:`CONNECTIONS` keep-alive HTTP/1.1
connections in this process, one thread each.  A request is
``POST /run`` followed by ``GET /jobs/<id>?wait=60``; its latency runs
from sending the POST to receiving the terminal report.  Requests for
one scenario are issued in stream order -- a request waits until the
previous request of its scenario has returned -- so every repeat is a
cache read and every cache and paving-store outcome is a function of
the seed alone.
"""

from __future__ import annotations

import http.client
import json
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

CONNECTIONS = 2
REQUEST_TIMEOUT = 120.0


class Server:
    """One ``repro serve`` process with a fresh cache and paving store."""

    def __init__(self, run_dir: Path, env: dict, trace_files: tuple[Path, Path] | None = None):
        run_dir.mkdir(parents=True, exist_ok=True)
        serve_args = [
            "--host", "127.0.0.1", "--port", "0",
            "--cache-dir", str(run_dir / "cache"),
            "--paving-store", str(run_dir / "store"),
        ]
        if trace_files is None:
            cmd = [sys.executable, "-m", "repro", "serve", *serve_args]
        else:
            launcher = Path(__file__).resolve().parent / "serve_launcher.py"
            cmd = [sys.executable, str(launcher), *map(str, trace_files), *serve_args]
        self._stderr = open(run_dir / "server.log", "wb")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, env=env, stdout=subprocess.PIPE, stderr=self._stderr,
            stdin=subprocess.DEVNULL,
        )
        try:
            line = self.proc.stdout.readline().decode("utf-8", "replace")
            if "http://" not in line:
                raise RuntimeError(f"server did not start: {line.strip()!r}")
            address = line.split("http://", 1)[1].split()[0]
            self.host, port = address.rsplit(":", 1)
            self.port = int(port)
            status, _ = request(self.connect(), "GET", "/health")
            if status != 200:
                raise RuntimeError(f"/health answered {status}")
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - t0

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=REQUEST_TIMEOUT)

    def peak_rss_mb(self) -> float:
        """VmHWM of the server process (read before stopping it)."""
        with open(f"/proc/{self.proc.pid}/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not reported")

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._stderr.close()


def request(conn, method, path, body=None):
    """One request on a keep-alive connection: (status, parsed JSON)."""
    data = None if body is None else json.dumps(body).encode("utf-8")
    headers = {"Content-Type": "application/json"} if data is not None else {}
    conn.request(method, path, body=data, headers=headers)
    resp = conn.getresponse()
    payload = resp.read()
    return resp.status, json.loads(payload) if payload else None


def run_load(server: Server, stream: list[dict]) -> tuple[float, list[dict]]:
    """Drive ``stream`` through the server: (wall seconds, per-request records)."""
    n = len(stream)
    done = [threading.Event() for _ in range(n)]
    previous: list[int | None] = []
    last: dict[str, int] = {}
    for i, item in enumerate(stream):
        previous.append(last.get(item["scenario"]))
        last[item["scenario"]] = i
    records: list[dict | None] = [None] * n
    next_index = iter(range(n))
    lock = threading.Lock()

    def client() -> None:
        conn = server.connect()
        try:
            while True:
                with lock:
                    i = next(next_index, None)
                if i is None:
                    return
                if previous[i] is not None:
                    done[previous[i]].wait(timeout=REQUEST_TIMEOUT)
                try:
                    records[i] = _one(conn, stream[i])
                except (OSError, http.client.HTTPException, ValueError) as exc:
                    records[i] = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
                    conn.close()
                    conn = server.connect()
                done[i].set()
        finally:
            conn.close()

    threads = [threading.Thread(target=client) for _ in range(CONNECTIONS)]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0
    return wall, [r or {"ok": False, "error": "not sent"} for r in records]


def _one(conn, item: dict) -> dict:
    t0 = time.perf_counter()
    status, reply = request(conn, "POST", "/run", item["spec"])
    post_s = time.perf_counter() - t0
    if status != 202:
        return {"ok": False, "error": f"POST /run answered {status}: {reply}"}
    job = reply["job"]
    while True:
        status, summary = request(conn, "GET", f"/jobs/{job}?wait=60")
        if status != 200:
            return {"ok": False, "error": f"GET /jobs answered {status}"}
        if summary["state"] in ("done", "failed", "cancelled"):
            break
        if time.perf_counter() - t0 > REQUEST_TIMEOUT:
            return {"ok": False, "error": "timed out"}
    latency = time.perf_counter() - t0
    got = summary.get("status")
    ok = got == item["expected"]
    return {
        "ok": ok,
        "error": None if ok else f"{item['scenario']}: want {item['expected']}, got {got}: {summary.get('detail')}",
        "latency": latency,
        "post_s": post_s,
        "hit": bool(summary.get("from_cache")),
        "server_wall": summary.get("wall_time") or 0.0,
    }


def counters(server: Server) -> dict:
    """Result-cache and paving-store counters from ``/jobs`` and ``/cluster``."""
    conn = server.connect()
    try:
        _, jobs = request(conn, "GET", "/jobs")
        _, cluster = request(conn, "GET", "/cluster")
    finally:
        conn.close()
    return {"cache": jobs.get("cache") or {}, "store": cluster.get("paving_store") or {}}
