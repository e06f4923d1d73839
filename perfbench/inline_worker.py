"""Run the ``catalog`` or ``solver`` job list in this process.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  Prints ``READY`` once the first job is submittable (imports,
scenario registry, job list, engine), then runs whole passes of the job
list -- one, and more while they fit in ``--seconds`` -- through one
``Engine(seed=0)`` (inline, no result cache, no paving store), and
writes a JSON result to ``--out``.  A :class:`speed.Sampler` probes the
core while each job runs and its time is normalised to the nominal host
speed; raw times are kept alongside.

With ``--trace 1`` it runs one untraced pass, installs the layer
wrappers, and runs two traced passes: the per-layer metrics come from
the second, the exact counts must agree between both, and
``trace.overhead_frac`` compares their wall time with the untraced one.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time

import speed
import workloads


def run_pass(engine, jobs, rng, sampler) -> dict:
    """One pass over the shuffled job list."""
    order = list(jobs)
    rng.shuffle(order)
    out = {"wall": 0.0, "raw_wall": 0.0, "jobs": {}, "failures": []}
    for spec in order:
        report, job, raw = sampler.timed(engine.run, spec)
        out["wall"] += job
        out["raw_wall"] += raw
        out["jobs"][spec.name] = job
        problem = workloads.check_inline(report)
        if problem is not None:
            out["failures"].append(problem)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(workloads.JOB_LISTS), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out")
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    with speed.Sampler() as sampler:
        from repro.api import Engine

        jobs = workloads.JOB_LISTS[args.workload]()
        engine = Engine(seed=0)
        sampler.sample()
        # the parent times READY; it removes the probes' own time and
        # normalises set-up with the probes taken during it
        print(f"READY {speed.factor(sampler.probes)!r} {sampler.busy!r}", flush=True)
        if args.setup_only:
            return 0
        result = measure(args, engine, jobs, sampler)

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def measure(args, engine, jobs, sampler) -> dict:
    """Whole passes of the job list (plus the traced passes with ``--trace 1``)."""
    rng = random.Random(args.seed)
    result = {"walls": [], "raw_walls": [], "latencies": [], "failures": [], "attempted": 0}

    def one_pass() -> float:
        p = run_pass(engine, jobs, rng, sampler)
        result["walls"].append(p["wall"])
        result["raw_walls"].append(p["raw_wall"])
        result["latencies"].extend(p["jobs"].values())
        result["failures"].extend(p["failures"])
        result["attempted"] += len(p["jobs"])
        return p["wall"]

    start = time.perf_counter()
    wall = one_pass()
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        result["unhooked"] = tracing.check_call_sites()
        traced = []
        for _ in range(2):
            tracer.reset()
            traced.append((one_pass(), tracer.summary()))
        (wall_a, layers_a), (wall_b, layers_b) = traced
        result["layers"] = layers_b
        result["unrepeated"] = tracing.unrepeated_counts(layers_a, layers_b)
        result["zero_home"] = tracing.zero_home_metrics(args.workload, layers_b)
        result["trace_overhead_frac"] = ((wall_a + wall_b) / 2 - wall) / wall
        if args.spans:
            tracer.dump(args.spans)
    else:
        # whole passes only, stopping before one would overrun the budget
        last = time.perf_counter() - start
        while time.perf_counter() - start + last <= args.seconds:
            t = time.perf_counter()
            one_pass()
            last = time.perf_counter() - t
    return result


if __name__ == "__main__":
    sys.exit(main())
