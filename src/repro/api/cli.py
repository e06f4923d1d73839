"""``python -m repro`` -- the command-line front door.

Subcommands
-----------
``run <scenario.json> [--shards N]``
    Execute one scenario file (a single spec dict) and print its report;
    ``--shards`` paves box searches across N worker processes (honored
    by barrier falsification and lyapunov/exists-forall solves).
``batch <scenarios.json ...> [--workers N] [--backend B] [--progress]
[--cache-dir DIR] [--out reports.json]``
    Execute a sweep: each file holds either one spec dict, a list of
    spec dicts, or ``{"scenarios": [...]}``.  Reports print in order;
    ``--progress`` streams live progress events (and a final jobs
    table) to stderr, ``--cache-dir`` serves repeated scenarios from
    the persistent result cache.
``serve [--host H] [--port P] [--backend B] [--workers N] [--cache-dir DIR]
[--job-store PATH] [--replica NAME] [--max-running N] [--quota-rate R]
[--quota-burst B] [--tenants JSON] [--drain-timeout S]``
    Start the HTTP job service: ``POST /run``, ``GET /jobs``,
    ``GET /jobs/<id>``, ``POST /jobs/<id>/cancel``, ``GET /cluster``.
    ``--job-store`` makes jobs survive restarts; ``--max-running`` /
    ``--quota-*`` / ``--tenants`` apply per-tenant (``X-Tenant``
    header) admission control and weighted fair scheduling; SIGTERM
    drains gracefully within ``--drain-timeout``.
``jobs <url> [--retry N] [--timeout S]``
    Render the jobs table of a running ``repro serve`` instance;
    ``--retry`` backs off exponentially on connection errors.
``worker <host:port> [--token T]``
    Join a cluster worker pool: long-poll the coordinator for leased
    work units, execute them, heartbeat while running.
``cluster status <host:port> [--token T] [--json]``
    Show a coordinator's queue depth, workers, and counters.
``list-tasks``
    Show the registered task kinds.
``scenarios list [--tag T] [--task T] [--format table|json|markdown]``
    Enumerate the declarative scenario catalog (the markdown format is
    the autogenerated ``docs/scenarios.md`` gallery page).
``scenarios show <name>``
    Catalog metadata plus the default-bound spec JSON for one entry.
``scenarios run <name> [-p k=v ...] [--seed N] [--check] [--json]``
    Bind parameters and execute one catalog entry; ``--check`` fails
    the exit code when the verdict differs from the entry's ``expected``.
``scenarios sweep <name> [--set k=v1,v2 ...] [--random k=lo:hi
--samples N] [--cohort ...] [--seeds ...] [--workers N] [--cache-dir
DIR] [--dry-run]``
    Expand a grid / seeded-random / cohort sweep over one entry into an
    engine batch (cache-friendly specs: resubmitting an identical sweep
    is served from the result cache).
``scenarios ingest <dir> [--triage] [--out FILE] [--json]``
    Bulk-import a directory of SBML files into catalog entries (bounds
    inference + task templates); malformed files are reported as
    skip-with-reason rows, ``--triage`` pins expected verdicts with a
    budget-bound solve.
``scenarios generate <family> [--seed N] [--count K] [--out FILE]
[--json] | scenarios generate --list``
    Emit one procedural scenario family deterministically (JSON-able,
    byte-stable under a fixed seed).
``scenarios coverage [--format table|json] [--check] [--out FILE]``
    Cross-tabulate the registered corpus (task kind x model class x
    verdict x solve path); ``--check`` fails when a supported cell is
    empty.
``monitor run [--scenario NAME | --source FILE --spec SPEC]
[--streams N] [--episodes N] [--theta X] [--store PATH] [--restore]``
    Headless online monitoring: stream a synthetic catalog-scenario
    fleet (or a CSV/JSONL sample file) through incremental BLTL
    monitors with per-stream SPRTs; ``--store`` journals every event
    for replay, ``--restore`` warm-starts from an existing journal.
``watch [same sources as monitor run] [--plain] [--refresh S]``
    The same fleet, rendered live: a Textual DataTable dashboard when
    the optional ``[monitor]`` extra is installed, a plain verdict
    ticker otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Sequence

from repro.service import BACKEND_NAMES, ResultCache, ServiceServer

from .engine import Engine
from .report import AnalysisReport
from .spec import TaskSpec
from .tasks import task_table

__all__ = ["main"]


def _apply_solver_overrides(
    specs: list[TaskSpec],
    shards: int | None,
    shard_backend: str | None = None,
    paving_store: str | None = None,
    cold: bool = False,
) -> list[TaskSpec]:
    """Override solver options of every spec from CLI flags
    (``--shards``/``--shard-backend``/``--paving-store``/``--cold``)."""
    overrides: dict[str, Any] = {}
    if shards is not None:
        overrides["shards"] = int(shards)
    if shard_backend is not None:
        overrides["shard_backend"] = shard_backend
    if paving_store is not None:
        overrides["paving_store"] = paving_store
    if cold:
        overrides["warm_start"] = False
    if not overrides:
        return specs
    from dataclasses import replace as _replace

    return [s.replace(solver=_replace(s.solver, **overrides)) for s in specs]


def _load_scenarios(path: str) -> list[TaskSpec]:
    with open(path, "r", encoding="utf-8") as fh:
        payload: Any = json.load(fh)
    if isinstance(payload, dict) and "scenarios" in payload:
        payload = payload["scenarios"]
    if isinstance(payload, dict):
        payload = [payload]
    if not isinstance(payload, list):
        raise ValueError(f"{path}: expected a spec dict or a list of specs")
    return [TaskSpec.from_dict(d) for d in payload]


def _emit(reports: Sequence[AnalysisReport], as_json: bool, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump([r.to_dict() for r in reports], fh, indent=2)
        print(f"wrote {len(reports)} report(s) to {out}")
        return
    if as_json:
        if len(reports) == 1:
            print(reports[0].to_json(indent=2))
        else:
            print(json.dumps([r.to_dict() for r in reports], indent=2))
        return
    for r in reports:
        print(r.summary())


def _print_progress(job, event) -> None:
    print(f"[{job.id} {job.spec.name or job.spec.task}] {event.describe()}",
          file=sys.stderr)


def _jobs_table(rows: Sequence[dict], cache: dict | None = None) -> str:
    """``repro jobs``-style status rendering of job summaries."""
    headers = ("id", "name", "task", "state", "backend", "events", "time")
    table = [headers]
    for d in rows:
        wall = d.get("wall_time")
        table.append((
            str(d.get("id", "")),
            str(d.get("name", "")) or "-",
            str(d.get("task", "")),
            str(d.get("state", "")) + ("*" if d.get("from_cache") else ""),
            str(d.get("backend", "") or "-"),
            str(d.get("events", 0)),
            f"{wall:.3f}s" if isinstance(wall, (int, float)) else "-",
        ))
    widths = [max(len(row[i]) for row in table) for i in range(len(headers))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in table]
    if any(d.get("from_cache") for d in rows):
        lines.append("(* = served from the result cache)")
    if cache:
        lines.append(
            "cache: {hits:g} hit(s), {misses:g} miss(es), "
            "{entries:g} entr(ies)".format(**cache)
        )
    return "\n".join(lines)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Unified task-oriented analysis API (Liu, DAC 2020 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one scenario file")
    p_run.add_argument("scenario", help="path to a scenario JSON file")
    p_run.add_argument("--seed", type=int, default=0, help="default RNG seed")
    p_run.add_argument(
        "--shards", type=int, default=None,
        help="parallel paving shards (overrides the spec's solver.shards; "
             "honored by barrier falsification and lyapunov/exists-forall "
             "solves, ignored by tasks that do not pave boxes)",
    )
    p_run.add_argument(
        "--shard-backend", default=None, metavar="B",
        help="where paving shards run: thread, process, or "
             "cluster[:HOST:PORT] (overrides the spec's solver.shard_backend)",
    )
    p_run.add_argument(
        "--paving-store", default=None, metavar="DIR",
        help="persist solve/pave artifacts here and warm-start re-solves "
             "of near-identical specs from them",
    )
    p_run.add_argument(
        "--cold", action="store_true",
        help="bypass warm-starting (still records artifacts when "
             "--paving-store is set)",
    )
    p_run.add_argument("--json", action="store_true", help="print the raw report JSON")

    p_batch = sub.add_parser("batch", help="execute a scenario sweep")
    p_batch.add_argument("scenarios", nargs="+", help="scenario JSON file(s)")
    p_batch.add_argument("--workers", type=int, default=1, help="worker-pool size")
    p_batch.add_argument(
        "--backend", choices=("auto",) + BACKEND_NAMES, default="auto",
        help="executor backend (auto: process pool when --workers > 1)",
    )
    p_batch.add_argument(
        "--progress", action="store_true",
        help="stream progress events and a jobs table to stderr",
    )
    p_batch.add_argument(
        "--cache-dir", default=None,
        help="persistent result cache; repeated scenarios are not re-run",
    )
    p_batch.add_argument("--seed", type=int, default=0, help="default RNG seed")
    p_batch.add_argument(
        "--shards", type=int, default=None,
        help="parallel paving shards (see `repro run --help`)",
    )
    p_batch.add_argument(
        "--shard-backend", default=None, metavar="B",
        help="where paving shards run (see `repro run --help`)",
    )
    p_batch.add_argument(
        "--paving-store", default=None, metavar="DIR",
        help="persist solve/pave artifacts and warm-start re-solves "
             "(see `repro run --help`)",
    )
    p_batch.add_argument(
        "--cold", action="store_true",
        help="bypass warm-starting (see `repro run --help`)",
    )
    p_batch.add_argument("--json", action="store_true", help="print raw report JSON")
    p_batch.add_argument("--out", default=None, help="write reports to a JSON file")

    p_serve = sub.add_parser("serve", help="start the HTTP job service")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8080)
    p_serve.add_argument(
        "--backend", default="thread", metavar="B",
        help="default executor backend for submitted jobs: "
             f"{', '.join(BACKEND_NAMES)}, or cluster:HOST:PORT to bind a "
             "pool address external `repro worker` processes join",
    )
    p_serve.add_argument("--workers", type=int, default=None, help="worker-pool size")
    p_serve.add_argument("--cache-dir", default=None, help="persistent result cache")
    p_serve.add_argument(
        "--paving-store", default=None, metavar="DIR",
        help="persistent paving-artifact store: near-identical specs "
             "warm-start from stored pavings even when the result cache "
             "misses (reuse counters on GET /cluster)",
    )
    p_serve.add_argument("--seed", type=int, default=0, help="default RNG seed")
    p_serve.add_argument(
        "--job-store", default=None, metavar="PATH",
        help="persistent job journal; restarting against the same store "
             "recovers queued/interrupted jobs",
    )
    p_serve.add_argument(
        "--replica", default=None, metavar="NAME",
        help="replica name; prefixes job ids so N replicas can share one "
             "job store without collisions",
    )
    p_serve.add_argument(
        "--max-running", type=int, default=None, metavar="N",
        help="global concurrency cap; excess jobs queue for weighted "
             "fair dispatch (default: dispatch immediately)",
    )
    p_serve.add_argument(
        "--quota-rate", type=float, default=None, metavar="R",
        help="default per-tenant admission rate (submissions/second; "
             "over-rate requests get 429 + Retry-After)",
    )
    p_serve.add_argument(
        "--quota-burst", type=float, default=None, metavar="B",
        help="default per-tenant burst size (defaults to the rate)",
    )
    p_serve.add_argument(
        "--tenants", default=None, metavar="JSON",
        help="per-tenant policies: a JSON file or inline JSON mapping "
             'tenant -> {"weight": W, "rate": R, "burst": B, '
             '"max_running": N}',
    )
    p_serve.add_argument(
        "--drain-timeout", type=float, default=10.0,
        help="graceful-shutdown bound (seconds) on waiting for "
             "cancelled jobs to settle",
    )

    p_jobs = sub.add_parser("jobs", help="list jobs of a running serve instance")
    p_jobs.add_argument("url", help="service base URL, e.g. http://127.0.0.1:8080")
    p_jobs.add_argument(
        "--retry", type=int, default=0, metavar="N",
        help="retry up to N times with exponential backoff when the "
             "server is unreachable (default: fail immediately)",
    )
    p_jobs.add_argument(
        "--timeout", type=float, default=10.0,
        help="per-request timeout in seconds",
    )

    p_worker = sub.add_parser("worker", help="join a cluster worker pool")
    p_worker.add_argument("address", help="coordinator address HOST:PORT")
    p_worker.add_argument("--token", default=None, help="pool shared secret")
    p_worker.add_argument(
        "--poll-hold", type=float, default=2.0,
        help="long-poll hold time in seconds",
    )
    p_worker.add_argument(
        "--max-retries", type=int, default=30,
        help="consecutive connection failures before the worker exits",
    )

    p_cluster = sub.add_parser("cluster", help="cluster pool utilities")
    cl_sub = p_cluster.add_subparsers(dest="cluster_command", required=True)
    cl_status = cl_sub.add_parser("status", help="show coordinator status")
    cl_status.add_argument("address", help="coordinator address HOST:PORT")
    cl_status.add_argument("--token", default=None, help="pool shared secret")
    cl_status.add_argument(
        "--json", action="store_true", help="print the raw status JSON"
    )

    sub.add_parser("list-tasks", help="show the registered task kinds")

    p_sc = sub.add_parser("scenarios", help="the declarative scenario catalog")
    sc_sub = p_sc.add_subparsers(dest="scenario_command", required=True)

    sc_list = sc_sub.add_parser("list", help="enumerate the catalog")
    sc_list.add_argument("--tag", default=None, help="filter by tag")
    sc_list.add_argument("--task", default=None, help="filter by task kind")
    sc_list.add_argument(
        "--format", choices=("table", "json", "markdown"), default="table",
        help="markdown renders the docs/scenarios.md gallery page",
    )

    sc_show = sc_sub.add_parser("show", help="one entry in detail")
    sc_show.add_argument("name", help="catalog entry name")
    sc_show.add_argument(
        "--json", action="store_true", help="print the raw catalog entry JSON"
    )

    sc_run = sc_sub.add_parser("run", help="execute one catalog entry")
    sc_run.add_argument("name", help="catalog entry name")
    sc_run.add_argument(
        "-p", "--param", action="append", default=[], metavar="K=V",
        help="parameter override (JSON value or bare string; repeatable)",
    )
    sc_run.add_argument("--seed", type=int, default=None, help="override the entry seed")
    sc_run.add_argument(
        "--shards", type=int, default=None,
        help="parallel paving shards (overrides the entry's solver defaults)",
    )
    sc_run.add_argument(
        "--shard-backend", default=None, metavar="B",
        help="where paving shards run (see `repro run --help`)",
    )
    sc_run.add_argument(
        "--paving-store", default=None, metavar="DIR",
        help="persist solve/pave artifacts and warm-start re-solves "
             "(see `repro run --help`)",
    )
    sc_run.add_argument(
        "--cold", action="store_true",
        help="bypass warm-starting (see `repro run --help`)",
    )
    sc_run.add_argument(
        "--check", action="store_true",
        help="fail unless the verdict matches the entry's expected status "
             "(defaults only; incompatible with -p overrides)",
    )
    sc_run.add_argument("--json", action="store_true", help="print raw report JSON")

    sc_sweep = sc_sub.add_parser("sweep", help="expand and run a parameter sweep")
    sc_sweep.add_argument(
        "name", help="catalog entry name, or a sweep JSON file path"
    )
    sc_sweep.add_argument(
        "--set", action="append", default=[], metavar="K=V1,V2,...",
        dest="grid", help="grid axis: comma-separated values (repeatable)",
    )
    sc_sweep.add_argument(
        "--random", action="append", default=[], metavar="K=LO:HI",
        help="random axis: uniform range (repeatable; needs --samples)",
    )
    sc_sweep.add_argument(
        "--samples", type=int, default=None, help="random draws"
    )
    sc_sweep.add_argument(
        "--sweep-seed", type=int, default=None,
        help="RNG seed of the random draws",
    )
    sc_sweep.add_argument(
        "--cohort", default=None, metavar="NAMES",
        help="cohort values (comma-separated), or 'patients' for the IAS profiles",
    )
    sc_sweep.add_argument(
        "--cohort-param", default="patient", help="parameter the cohort binds"
    )
    sc_sweep.add_argument(
        "--seeds", default=None, metavar="S1,S2,...",
        help="replication axis: run every point once per spec seed",
    )
    sc_sweep.add_argument("--workers", type=int, default=1, help="worker-pool size")
    sc_sweep.add_argument(
        "--backend", choices=("auto",) + BACKEND_NAMES, default="auto",
        help="executor backend (auto: process pool when --workers > 1)",
    )
    sc_sweep.add_argument(
        "--cache-dir", default=None,
        help="persistent result cache; repeated sweeps are not re-run",
    )
    sc_sweep.add_argument(
        "--progress", action="store_true",
        help="stream progress events and a jobs table to stderr",
    )
    sc_sweep.add_argument(
        "--paving-store", default=None, metavar="DIR",
        help="persist solve/pave artifacts and warm-start the sweep's "
             "near-identical re-solves from them (see `repro run --help`)",
    )
    sc_sweep.add_argument(
        "--cold", action="store_true",
        help="bypass warm-starting (see `repro run --help`)",
    )
    sc_sweep.add_argument(
        "--dry-run", action="store_true",
        help="print the expanded spec JSON instead of running",
    )
    sc_sweep.add_argument("--json", action="store_true", help="print raw report JSON")
    sc_sweep.add_argument("--out", default=None, help="write reports to a JSON file")

    sc_ingest = sc_sub.add_parser(
        "ingest", help="bulk-import a directory of SBML files"
    )
    sc_ingest.add_argument("dir", help="directory of .xml/.sbml files")
    sc_ingest.add_argument(
        "--triage", action="store_true",
        help="pin each entry's expected verdict with a budget-bound solve",
    )
    sc_ingest.add_argument(
        "--out", default=None, metavar="FILE",
        help="write the entries as a JSON array to FILE",
    )
    sc_ingest.add_argument(
        "--json", action="store_true",
        help="print the full ingest result (entries + skips) as JSON",
    )

    sc_gen = sc_sub.add_parser(
        "generate", help="emit a procedural scenario family"
    )
    sc_gen.add_argument(
        "family", nargs="?", default=None,
        help="family name (see --list)",
    )
    sc_gen.add_argument("--seed", type=int, default=None, help="corpus seed")
    sc_gen.add_argument(
        "--count", type=int, default=None,
        help="number of entries (default: the family's standard size)",
    )
    sc_gen.add_argument(
        "--out", default=None, metavar="FILE",
        help="write the entries as a JSON array to FILE",
    )
    sc_gen.add_argument(
        "--json", action="store_true", help="print the entries as JSON"
    )
    sc_gen.add_argument(
        "--list", action="store_true", dest="list_families",
        help="list the available families and exit",
    )

    sc_cov = sc_sub.add_parser(
        "coverage", help="corpus coverage report (task x class x verdict)"
    )
    sc_cov.add_argument(
        "--format", choices=("table", "json"), default="table",
        help="output format",
    )
    sc_cov.add_argument(
        "--check", action="store_true",
        help="exit nonzero when a supported task/model-class cell is empty",
    )
    sc_cov.add_argument(
        "--out", default=None, metavar="FILE",
        help="also write the JSON report to FILE",
    )

    p_mon = sub.add_parser("monitor", help="online streaming verification")
    mon_sub = p_mon.add_subparsers(dest="monitor_command", required=True)
    mon_run = mon_sub.add_parser(
        "run", help="headless monitoring run (no UI; summary to stdout)"
    )
    _add_monitor_source_args(mon_run)
    mon_run.add_argument("--json", action="store_true",
                         help="print the summary and per-stream results as JSON")
    mon_run.add_argument("--quiet", action="store_true",
                         help="suppress the verdict ticker, print only the summary")

    p_watch = sub.add_parser("watch", help="live monitoring dashboard")
    _add_monitor_source_args(p_watch)
    p_watch.add_argument("--plain", action="store_true",
                         help="force the plain ticker (skip the Textual TUI)")
    p_watch.add_argument("--refresh", type=float, default=0.5,
                         help="TUI refresh interval in seconds")
    return parser


def _add_monitor_source_args(p: argparse.ArgumentParser) -> None:
    """The shared source/fleet flags of ``monitor run`` and ``watch``."""
    p.add_argument("--scenario", default=None,
                   help="stream a synthetic fleet of this catalog entry "
                        "(smc scenarios: the entry must declare a phi)")
    p.add_argument("--source", default=None,
                   help="stream samples from a CSV or JSONL file instead")
    p.add_argument("--spec", default=None,
                   help="monitor spec for --source: a JSON file or inline "
                        "JSON -- either a BLTL value or {phi, theta, "
                        "extra_env, reorder_window}")
    p.add_argument("--streams", type=int, default=8,
                   help="synthetic fleet size (with --scenario)")
    p.add_argument("--episodes", type=int, default=5,
                   help="max monitoring episodes per synthetic stream")
    p.add_argument("--seed", type=int, default=0, help="fleet RNG seed")
    p.add_argument("-p", "--param", action="append", default=[], metavar="K=V",
                   help="scenario parameter override (repeatable)")
    p.add_argument("--theta", type=float, default=None,
                   help="SPRT threshold P(phi) >= theta (default: the "
                        "scenario's own, or no SPRT)")
    p.add_argument("--thin", type=int, default=1,
                   help="keep every N-th synthetic sample")
    p.add_argument("--follow", action="store_true",
                   help="tail --source as it grows")
    p.add_argument("--poll", type=float, default=0.2,
                   help="--follow poll interval in seconds")
    p.add_argument("--idle-timeout", type=float, default=None,
                   help="stop --follow after this many idle seconds")
    p.add_argument("--reorder", type=float, default=0.0,
                   help="out-of-order tolerance (stream-time units) for "
                        "--source streams")
    p.add_argument("--store", default=None,
                   help="journal every event to this JSONL file")
    p.add_argument("--restore", action="store_true",
                   help="replay an existing --store journal into the fleet "
                        "before ingesting live data")


def _parse_value(text: str) -> Any:
    """A CLI parameter value: JSON if it parses, bare string otherwise."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _parse_kv(item: str, flag: str) -> tuple[str, str]:
    """Split one ``K=V`` CLI argument, with a helpful error."""
    key, sep, value = item.partition("=")
    if not sep or not key:
        raise ValueError(f"{flag} expects K=V, got {item!r}")
    return key, value


def _cmd_scenarios_list(args: argparse.Namespace) -> int:
    """``repro scenarios list``: table / JSON / markdown gallery."""
    from repro.scenarios import find_scenarios, gallery_markdown, list_table
    from repro.scenarios import scenarios_json

    entries = find_scenarios(tag=args.tag, task=args.task)
    if not entries:
        print("no scenarios match", file=sys.stderr)
        return 1
    if args.format == "json":
        print(scenarios_json(entries))
    elif args.format == "markdown":
        print(gallery_markdown(entries), end="")
    else:
        print(list_table(entries))
    return 0


def _cmd_scenarios_show(args: argparse.Namespace) -> int:
    """``repro scenarios show``: metadata + the default-bound spec."""
    from repro.scenarios import get_scenario

    s = get_scenario(args.name)
    if args.json:
        print(s.to_json(indent=2))
        return 0
    print(f"{s.name}: {s.summary}")
    print(f"  task:     {s.task}")
    print(f"  tags:     {', '.join(s.tags) or '-'}")
    print(f"  paper:    {s.paper_section or '-'}")
    print(f"  expected: {s.expected or '-'}")
    if s.params:
        pairs = ", ".join(f"{k}={v!r}" for k, v in sorted(s.params.items()))
        print(f"  params:   {pairs}")
    if s.description:
        print(f"  {s.description}")
    print("  spec (defaults bound):")
    print("    " + s.spec().to_json(indent=2).replace("\n", "\n    "))
    return 0


def _cmd_scenarios_run(args: argparse.Namespace) -> int:
    """``repro scenarios run``: bind parameters and execute one entry."""
    from repro.scenarios import get_scenario

    s = get_scenario(args.name)
    overrides = dict(
        (k, _parse_value(v))
        for k, v in (_parse_kv(item, "--param") for item in args.param)
    )
    if args.check and overrides:
        # the expected verdict is recorded for the DEFAULT parameters;
        # silently skipping the check would be a false green
        raise ValueError(
            "--check verifies the default parameterization and cannot be "
            "combined with -p/--param overrides"
        )
    spec = _apply_solver_overrides(
        [s.spec(seed=args.seed, **overrides)], args.shards, args.shard_backend,
        args.paving_store, args.cold,
    )[0]
    report = Engine(seed=0).run(spec)
    _emit([report], args.json, None)
    if args.check and s.expected is not None:
        if report.status.value != s.expected:
            print(
                f"check failed: {s.name} reported {report.status.value!r}, "
                f"expected {s.expected!r}",
                file=sys.stderr,
            )
            return 1
    return 0 if report.ok else 1


def _build_sweep(args: argparse.Namespace):
    """Assemble a :class:`ScenarioSweep` from CLI flags or a JSON file."""
    import os

    from repro.scenarios import ScenarioSweep

    if os.path.exists(args.name):
        with open(args.name, "r", encoding="utf-8") as fh:
            sweep = ScenarioSweep.from_json(fh.read())
    else:
        sweep = ScenarioSweep(args.name)
    for item in args.grid:
        key, value = _parse_kv(item, "--set")
        sweep.grid[key] = [_parse_value(v) for v in value.split(",")]
    for item in args.random:
        key, value = _parse_kv(item, "--random")
        lo, sep, hi = value.partition(":")
        if not sep:
            raise ValueError(f"--random expects K=LO:HI, got {item!r}")
        sweep.random[key] = (float(lo), float(hi))
    if args.samples is not None:
        sweep.samples = args.samples
    if args.sweep_seed is not None:
        sweep.seed = args.sweep_seed
    if args.cohort is not None:
        sweep.cohort = (
            "patients" if args.cohort == "patients"
            else [_parse_value(v) for v in args.cohort.split(",")]
        )
        sweep.cohort_param = args.cohort_param
    if args.seeds is not None:
        sweep.seeds = [int(v) for v in args.seeds.split(",")]
    return sweep


def _cmd_scenarios_sweep(args: argparse.Namespace) -> int:
    """``repro scenarios sweep``: expand and run an engine batch."""
    sweep = _build_sweep(args)
    specs = sweep.expand()
    if not specs:
        print("error: sweep expands to no scenarios", file=sys.stderr)
        return 2
    if args.dry_run:
        print(json.dumps([spec.to_dict() for spec in specs], indent=2))
        return 0
    specs = _apply_solver_overrides(
        specs, None, None, args.paving_store, args.cold
    )
    engine = Engine(
        workers=args.workers,
        seed=0,
        cache=args.cache_dir,
        progress=_print_progress if args.progress else None,
        progress_interval=0.5 if args.progress else 0.0,
    )
    backend = None if args.backend == "auto" else args.backend
    handles = engine.submit_batch(specs, backend=backend)
    reports = [h.result() for h in handles]
    if args.progress:
        print(_jobs_table(
            [h.summary() for h in handles],
            engine.cache.stats() if engine.cache else None,
        ), file=sys.stderr)
    _emit(reports, args.json, args.out)
    engine.close()
    return 0 if all(r.ok for r in reports) else 1


def _cmd_scenarios_ingest(args: argparse.Namespace) -> int:
    """``repro scenarios ingest``: bulk-import a directory of SBML files."""
    from repro.scenarios.ingest import entries_json, ingest_dir, triage

    result = ingest_dir(args.dir)
    entries = result.entries
    if args.triage and entries:
        entries = triage(entries)
    if args.json:
        payload = result.to_dict()
        payload["entries"] = [s.to_dict() for s in entries]
        print(json.dumps(payload, indent=2))
    else:
        print(result.summary())
        for name, reason in result.skipped:
            print(f"  skipped {name}: {reason}", file=sys.stderr)
        for s in entries:
            verdict = f" -> {s.expected}" if s.expected else ""
            print(f"  {s.name} [{s.task}]{verdict}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(entries_json(entries))
    return 0 if entries else 1


def _cmd_scenarios_generate(args: argparse.Namespace) -> int:
    """``repro scenarios generate``: emit one procedural family."""
    from repro.scenarios.generate import (
        DEFAULT_SEED, FAMILIES, family_names, generate_family,
    )
    from repro.scenarios.ingest import entries_json

    if args.list_families:
        for name in family_names():
            _, count, desc = FAMILIES[name]
            print(f"{name:<20} {count:>4} entries  {desc}")
        return 0
    if not args.family:
        print("error: a family name (or --list) is required", file=sys.stderr)
        return 2
    seed = DEFAULT_SEED if args.seed is None else args.seed
    entries = generate_family(args.family, seed=seed, count=args.count)
    if args.json:
        print(entries_json(entries), end="")
    else:
        print(f"{len(entries)} entries of family {args.family!r} (seed {seed})")
        for s in entries:
            print(f"  {s.name} [{s.task}] {s.summary}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(entries_json(entries))
    return 0


def _cmd_scenarios_coverage(args: argparse.Namespace) -> int:
    """``repro scenarios coverage``: the corpus coverage report."""
    from repro.scenarios.coverage import (
        check_coverage, coverage_json, coverage_report, render_table,
    )

    report = coverage_report()
    if args.format == "json":
        print(coverage_json(report), end="")
    else:
        print(render_table(report))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(coverage_json(report))
    if args.check:
        missing = check_coverage(report)
        if missing:
            print(
                "coverage check failed; empty supported cells: "
                + ", ".join(missing),
                file=sys.stderr,
            )
            return 1
    return 0


_SCENARIO_COMMANDS = {
    "list": _cmd_scenarios_list,
    "show": _cmd_scenarios_show,
    "run": _cmd_scenarios_run,
    "sweep": _cmd_scenarios_sweep,
    "ingest": _cmd_scenarios_ingest,
    "generate": _cmd_scenarios_generate,
    "coverage": _cmd_scenarios_coverage,
}


def _cmd_serve(args: argparse.Namespace) -> int:
    import os

    from repro.cluster.quota import TenantPolicy, TenantScheduler

    cache = ResultCache(cache_dir=args.cache_dir) if args.cache_dir else True
    engine = Engine(
        workers=args.workers, seed=args.seed, cache=cache,
        progress_interval=0.5,  # bound per-sample event overhead under load
        dedup=True,  # concurrent identical specs collapse to one solve
        job_prefix=f"{args.replica}-j" if args.replica else "j",
        paving_store=args.paving_store,
    )
    policies: dict[str, TenantPolicy] = {}
    if args.tenants:
        if os.path.exists(args.tenants):
            with open(args.tenants, "r", encoding="utf-8") as fh:
                table = json.load(fh)
        else:
            table = json.loads(args.tenants)
        policies = {name: TenantPolicy(**d) for name, d in table.items()}
    default = TenantPolicy(
        rate=args.quota_rate,
        burst=(args.quota_burst if args.quota_burst is not None
               else (args.quota_rate or 1.0)),
    )
    scheduler = TenantScheduler(
        max_running=args.max_running, default=default, policies=policies
    )
    server = ServiceServer(
        engine, host=args.host, port=args.port, backend=args.backend,
        job_store=args.job_store, scheduler=scheduler,
        drain_timeout=args.drain_timeout,
    )
    print(f"serving analysis jobs on {server.url} "
          f"(backend={args.backend}, POST /run, GET /jobs)"
          + (f" [job store: {args.job_store}]" if args.job_store else ""))
    server.serve_until_shutdown()
    print("drained; bye")
    return 0


def _fetch_with_retry(url: str, retries: int, timeout: float) -> Any:
    """GET + parse JSON, retrying connection errors with backoff.

    HTTP-level errors (a live server answering 4xx/5xx) are not
    retried -- only a server that cannot be reached at all, which is
    the transient condition backoff helps with.
    """
    import time as _time
    from urllib.error import HTTPError, URLError
    from urllib.request import urlopen

    attempt = 0
    while True:
        try:
            with urlopen(url, timeout=timeout) as resp:
                return json.load(resp)
        except HTTPError:
            raise
        except (URLError, OSError) as exc:
            if attempt >= retries:
                raise
            delay = min(0.25 * (2 ** attempt), 5.0)
            print(
                f"connection failed ({exc}); retry {attempt + 1}/{retries} "
                f"in {delay:.2g}s",
                file=sys.stderr,
            )
            _time.sleep(delay)
            attempt += 1


def _cmd_jobs(args: argparse.Namespace) -> int:
    from urllib.error import URLError

    url = args.url.rstrip("/") + "/jobs"
    try:
        payload = _fetch_with_retry(url, args.retry, args.timeout)
    except (URLError, OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read {url}: {exc}", file=sys.stderr)
        return 2
    jobs = payload.get("jobs", [])
    if not jobs:
        print("no jobs")
        return 0
    print(_jobs_table(jobs, payload.get("cache")))
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.cluster.protocol import AuthError, parse_address
    from repro.cluster.worker import run_worker

    address = parse_address(args.address)
    try:
        executed = run_worker(
            address,
            token=args.token,
            poll_hold=args.poll_hold,
            max_retries=args.max_retries,
        )
    except KeyboardInterrupt:
        return 0
    except AuthError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"worker exiting after {executed} unit(s)", file=sys.stderr)
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    from repro.cluster.protocol import ClusterError, parse_address, request

    try:
        address = parse_address(args.address)
        reply = request(address, {"op": "status", "token": args.token})
    except (OSError, ClusterError, ValueError) as exc:
        print(f"error: cannot reach coordinator at {args.address}: {exc}",
              file=sys.stderr)
        return 2
    status = reply.get("status", {})
    if args.json:
        print(json.dumps(status, indent=2))
        return 0
    counters = status.get("counters", {})
    print(f"coordinator {status.get('address', args.address)}")
    print(f"  pending: {status.get('pending', 0)}   "
          f"leased: {status.get('leased', 0)}   "
          f"lease ttl: {status.get('lease_ttl', 0)}s")
    print("  counters: " + ", ".join(
        f"{k}={v}" for k, v in sorted(counters.items())) if counters else "")
    workers = status.get("workers", {})
    if not workers:
        print("  no workers have joined")
    for wid, w in sorted(workers.items()):
        print(f"  worker {wid}: {w.get('done', 0)} unit(s) done, "
              f"seen {w.get('last_seen', 0):.1f}s ago")
    return 0


def _load_monitor_spec(text: str):
    """``--spec``: a JSON file path or inline JSON.

    Accepts either a bare BLTL value or a
    ``{phi, theta, extra_env, reorder_window}`` object; returns the
    tuple ``(phi, theta, extra_env, reorder_window)`` with ``None`` for
    unspecified fields.
    """
    import os

    from .serialize import bltl_from_value

    if os.path.exists(text):
        with open(text, "r", encoding="utf-8") as fh:
            value = json.load(fh)
    else:
        value = json.loads(text)
    if isinstance(value, dict) and "phi" in value:
        theta = value.get("theta")
        return (
            bltl_from_value(value["phi"]),
            float(theta) if theta is not None else None,
            value.get("extra_env"),
            value.get("reorder_window"),
        )
    return bltl_from_value(value), None, None, None


def _cmd_monitor(args: argparse.Namespace, ui: str) -> int:
    """``repro monitor run`` (ui='run') and ``repro watch`` (ui='watch')."""
    from repro.monitor import (
        EventStore,
        FleetSupervisor,
        plain_watch,
        stream_scenario,
        tail_source,
        watch,
    )
    from repro.monitor.tui import _drive

    if bool(args.scenario) == bool(args.source):
        raise ValueError("exactly one of --scenario or --source is required")
    store = EventStore(args.store) if args.store else None
    sup = FleetSupervisor(store=store)
    params = dict(
        (k, _parse_value(v))
        for k, v in (_parse_kv(item, "--param") for item in args.param)
    )

    if args.scenario:
        from repro.monitor import scenario_property

        phi, _horizon, _checker, sc_theta = scenario_property(
            args.scenario, params, args.seed
        )
        theta = args.theta if args.theta is not None else sc_theta
        if args.restore and store is not None:
            for sid in store.streams():
                if sid not in sup.streams:
                    sup.add_stream(sid, phi, theta=theta)
            sup.restore(store)

        def source():
            stream_scenario(
                sup, args.scenario, streams=args.streams,
                episodes=args.episodes, seed=args.seed, params=params,
                theta=args.theta, thin=args.thin,
            )
    else:
        if not args.spec:
            raise ValueError("--source needs --spec (the property to monitor)")
        phi, theta, extra_env, reorder = _load_monitor_spec(args.spec)
        if args.theta is not None:
            theta = args.theta
        if reorder is None:
            reorder = args.reorder

        def register(sid: str) -> None:
            if sid not in sup.streams:
                sup.add_stream(sid, phi, theta=theta, extra_env=extra_env,
                               reorder_window=float(reorder))

        if args.restore and store is not None:
            for sid in store.streams():
                register(sid)
            sup.restore(store)

        def source():
            def feed():
                for sample in tail_source(args.source, follow=args.follow,
                                          poll=args.poll,
                                          idle_timeout=args.idle_timeout):
                    register(sample[0])
                    yield sample
            sup.run(feed())

    try:
        if ui == "watch":
            watch(sup, source, plain=args.plain, refresh=args.refresh)
        elif args.json:
            _drive(sup, source)
            payload = {
                "summary": sup.summary(),
                "streams": {
                    sid: {
                        "verdict": s.verdict.value,
                        "episodes": s.episodes_done,
                        "samples": s.samples_seen,
                        "late_dropped": s.late_dropped,
                        "sprt": s.sprt.describe() if s.sprt is not None else None,
                        "last": s.last_result.to_dict() if s.last_result else None,
                    }
                    for sid, s in sorted(sup.streams.items())
                },
            }
            print(json.dumps(payload, indent=2))
        else:
            plain_watch(sup, source, quiet=args.quiet)
    finally:
        if store is not None:
            store.close()
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """The ``repro`` / ``python -m repro`` entry point."""
    args = _build_parser().parse_args(argv)

    if args.command == "list-tasks":
        rows = task_table()
        width = max(len(name) for name, _ in rows)
        for name, summary in rows:
            print(f"{name:<{width}}  {summary}")
        return 0

    if args.command == "scenarios":
        try:
            return _SCENARIO_COMMANDS[args.scenario_command](args)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "jobs":
        return _cmd_jobs(args)
    if args.command == "worker":
        return _cmd_worker(args)
    if args.command == "cluster":
        return _cmd_cluster(args)
    if args.command in ("monitor", "watch"):
        try:
            return _cmd_monitor(args, "watch" if args.command == "watch" else "run")
        except (OSError, ValueError, KeyError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    try:
        if args.command == "run":
            specs = _load_scenarios(args.scenario)
        else:
            specs = [s for path in args.scenarios for s in _load_scenarios(path)]
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not specs:
        print("error: no scenarios to run", file=sys.stderr)
        return 2
    specs = _apply_solver_overrides(
        specs, args.shards, args.shard_backend, args.paving_store, args.cold
    )

    if args.command == "run":
        engine = Engine(seed=args.seed)
        reports = engine.run_batch(specs) if len(specs) > 1 else [engine.run(specs[0])]
        _emit(reports, args.json, None)
        return 0 if all(r.ok for r in reports) else 1

    engine = Engine(
        workers=args.workers,
        seed=args.seed,
        cache=args.cache_dir,
        progress=_print_progress if args.progress else None,
        progress_interval=0.5 if args.progress else 0.0,
    )
    backend = None if args.backend == "auto" else args.backend
    effective = backend or ("process" if args.workers > 1 and len(specs) > 1 else "inline")
    if args.progress and effective == "process":
        print(
            "note: the process backend cannot stream solver-level progress "
            "events (workers run out-of-process); use --backend thread for "
            "live per-iteration progress",
            file=sys.stderr,
        )
    handles = engine.submit_batch(specs, backend=backend)
    reports = [h.result() for h in handles]
    if args.progress:
        print(_jobs_table(
            [h.summary() for h in handles],
            engine.cache.stats() if engine.cache else None,
        ), file=sys.stderr)
    _emit(reports, args.json, args.out)
    engine.close()
    return 0 if all(r.ok for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
