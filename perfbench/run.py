"""The repository benchmark: ``python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1``.

Workloads (see ``README.md`` for why each exists):

``catalog``
    the 18 core catalog scenarios, serially through ``Engine.run``;
``solver``
    three ICP-bound jobs through ``Engine.run``;
``service``
    a ``repro serve`` subprocess under a two-connection HTTP load.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the layer-traced variant and prints the per-layer
metrics.  Every output is checked; the last stdout line is the JSON
result, and any failed check makes the exit code 1.  Run it from the
root of a source checkout; it builds nothing and writes only under
``.perfbench/`` there.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import importlib.util
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

#: BLAS/OpenMP pools pinned to one thread in every benchmark process.
THREAD_PINS = {
    var: "1"
    for var in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMBA_NUM_THREADS",
    )
}
WORKLOADS = ("catalog", "solver", "service")
#: Set-up samples per run (the reported ``setup_s`` is their median).
SETUP_SAMPLES = 3
#: Service requests per second of ``--seconds`` (a fixed list per seed).
SERVICE_REQUESTS_PER_S = 18
#: Hard cap on one worker process, inside the 180 s run limit.
WORKER_TIMEOUT = 160.0


def child_env(run_dir: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONUNBUFFERED"] = "1"
    tmp = run_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


def median(values):
    return float(statistics.median(values)) if values else 0.0


def p95(values):
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return float(statistics.quantiles(values, n=100, method="inclusive")[94])


# ----------------------------------------------------------------------
# catalog / solver: a worker process running the job list inline
# ----------------------------------------------------------------------


def start_worker(cmd, env) -> tuple[subprocess.Popen, float, float]:
    """Spawn a worker; return it with its normalised and raw time to ``READY``."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL)
    for line in proc.stdout:
        if line.startswith(b"READY "):
            raw = time.perf_counter() - t0
            scale, busy = map(float, line.split()[1:])
            return proc, (raw - busy) * scale, raw
    proc.wait()
    raise RuntimeError(f"worker exited with {proc.returncode} before READY")


def run_inline(args, run_dir: Path, env: dict) -> dict:
    base = [
        sys.executable, str(HERE / "inline_worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    setups, raw_setups = [], []
    out = run_dir / "worker.json"
    spans = WORK / f"spans-{args.workload}.npz"
    main_cmd = base + ["--out", str(out), "--spans", str(spans)]
    for cmd in [base + ["--setup-only"]] * (SETUP_SAMPLES - 1) + [main_cmd]:
        proc, setup, raw = start_worker(cmd, env)
        try:
            proc.communicate(timeout=WORKER_TIMEOUT)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with {proc.returncode}")
        setups.append(setup)
        raw_setups.append(raw)
    res = json.loads(out.read_text(encoding="utf-8"))

    wall = median(res["walls"])
    jobs = res["attempted"] / len(res["walls"])
    result = {
        "attempted": res["attempted"],
        "failures": res["failures"],
        "raw": {"setup_s": median(raw_setups), "wall_s": median(res["raw_walls"])},
        "e2e": {
            "setup_s": median(setups),
            "wall_s": wall,
            "jobs_per_s": jobs / wall,
            "latency_p50_s": median(res["latencies"]),
            "peak_rss_mb": res["peak_rss_mb"],
        },
    }
    if args.trace:
        layers = dict(res["layers"])
        layers["trace.overhead_frac"] = res["trace_overhead_frac"]
        result.update(
            layers=layers,
            unhooked=res["unhooked"],
            unrepeated=res["unrepeated"],
            zero_home=res["zero_home"],
        )
    return result


# ----------------------------------------------------------------------
# service: a repro serve subprocess under HTTP load
# ----------------------------------------------------------------------


def _client_metrics(records) -> dict:
    ok = [r for r in records if "latency" in r]
    misses = [r for r in ok if not r["hit"]]
    return {
        "latency_p50_s": median([r["latency"] for r in ok]),
        "latency_p95_s": p95([r["latency"] for r in ok]),
        "hit_latency_p50_s": median([r["latency"] for r in ok if r["hit"]]),
        "miss_latency_p50_s": median([r["latency"] for r in misses]),
        "http.post_s": median([r["post_s"] for r in ok]),
        # server-side compute is known only for computed requests; a
        # hit carries the wall time of the solve it replays
        "http.overhead_s": median([r["latency"] - r["server_wall"] for r in misses]),
    }


def _counter_metrics(counts) -> dict:
    cache, store = counts["cache"], counts["store"]
    lookups = store.get("hits", 0) + store.get("partial", 0) + store.get("misses", 0)
    gets = cache.get("hits", 0) + cache.get("misses", 0)
    return {
        "cache.hit_ratio": cache.get("hits", 0) / gets if gets else 0.0,
        "store.hit_ratio": (store.get("hits", 0) + store.get("partial", 0)) / lookups if lookups else 0.0,
    }


def run_service(args, run_dir: Path, env: dict) -> dict:
    """Times here are raw: request latency mixes server CPU with socket
    round trips and delayed-ACK timers, which do not scale with core
    speed, so the probe normalisation of the inline workloads does not
    apply (it made the spread worse)."""
    sys.path.insert(0, str(SRC))
    import service
    import workloads

    blocks = max(2, round(args.seconds * SERVICE_REQUESTS_PER_S / (2 * len(workloads.SERVICE_SCENARIOS))))
    stream = workloads.service_stream(args.seed, blocks)
    servers = itertools.count()

    def start(trace_files=None):
        return service.Server(run_dir / f"server-{next(servers)}", env, trace_files)

    def serve_once(trace_files=None):
        srv = start(trace_files)
        try:
            wall, records = service.run_load(srv, stream)
            counts = service.counters(srv)
            rss = srv.peak_rss_mb()
        finally:
            srv.stop()
        if srv.proc.returncode != 0:
            raise RuntimeError(f"server exited with {srv.proc.returncode}")
        failures.extend(r["error"] for r in records if not r["ok"])
        return srv.setup_s, wall, records, counts, rss

    failures: list[str] = []
    result = {"attempted": 0, "failures": failures}
    if not args.trace:
        setups = []
        for _ in range(SETUP_SAMPLES - 1):
            srv = start()
            srv.stop()
            setups.append(srv.setup_s)
        setup, wall, records, _, rss = serve_once()
        setups.append(setup)
        result.update(
            attempted=len(records),
            e2e={
                "setup_s": median(setups),
                "wall_s": wall,
                "jobs_per_s": len(records) / wall,
                "latency_p50_s": _client_metrics(records)["latency_p50_s"],
                "peak_rss_mb": rss,
            },
        )
        return result

    # traced: one untraced server for the client-side figures and the
    # overhead baseline, then two traced servers whose counts must agree
    _, wall0, records, _, _ = serve_once()
    layers = _client_metrics(records)
    traced = []
    for k in range(2):
        summary_path = run_dir / f"layers-{k}.json"
        _, wall, _, counts, _ = serve_once((summary_path, WORK / "spans-service.npz"))
        summary = json.loads(summary_path.read_text(encoding="utf-8"))
        summary["layers"].update(_counter_metrics(counts))
        traced.append((wall, summary))
    (wall_a, sum_a), (wall_b, sum_b) = traced
    import tracing

    layers.update(sum_b["layers"])
    layers["trace.overhead_frac"] = ((wall_a + wall_b) / 2 - wall0) / wall0
    result.update(
        attempted=3 * len(stream),
        layers=layers,
        unhooked=sorted(set(sum_a["unhooked"]) | set(sum_b["unhooked"])),
        unrepeated=tracing.unrepeated_counts(sum_a["layers"], sum_b["layers"]),
        zero_home=tracing.zero_home_metrics("service", layers),
    )
    return result


# ----------------------------------------------------------------------
# provenance and output
# ----------------------------------------------------------------------


def provenance() -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        ).stdout.strip() or "unavailable (not a git checkout)"
    except (OSError, subprocess.SubprocessError):
        sha = "unavailable (git not found)"
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    if importlib.util.find_spec("numba") is None:
        numba = "unavailable"
    else:
        numba = importlib.metadata.version("numba")
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "numba": numba,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in sorted(THREAD_PINS)},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # before anything imports numpy here or in a child
    os.environ.update(THREAD_PINS)

    if not (SRC / "repro" / "__init__.py").is_file() or not (ROOT / "tests" / "golden").is_dir():
        print(f"error: {ROOT} is not a source checkout (needs src/repro and tests/golden)",
              file=sys.stderr)
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    section = contract["per_layer" if args.trace else "end_to_end"]

    run_dir = WORK / f"run-{args.workload}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        env = child_env(run_dir)
        if args.workload == "service":
            res = run_service(args, run_dir, env)
        else:
            res = run_inline(args, run_dir, env)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    values = res["layers"] if args.trace else res["e2e"]
    metrics = {}
    for m in section:
        metrics[m["name"]] = {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}

    failures = list(res["failures"])
    problems = []
    if args.trace:
        problems += [f"call site not hooked: {s}" for s in res["unhooked"]]
        problems += [f"count did not repeat between traced passes: {k}" for k in res["unrepeated"]]
        problems += [f"home-layer metric reads zero: {k}" for k in res["zero_home"]]
    attempted = res["attempted"]
    failed = len(failures)

    print(json.dumps({"provenance": provenance()}))
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={attempted} failed={failed} failed_frac={failed / attempted:.6g}")
    for name, m in metrics.items():
        raw = res.get("raw", {}).get(name)
        note = "" if raw is None else f"   (raw {raw:.6g} {m['unit']} before host-speed normalisation)"
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}{note}")
    for line in failures + problems:
        print(f"FAIL {line}")
    correct = not failures and not problems
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
