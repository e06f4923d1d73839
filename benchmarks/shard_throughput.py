"""Sharded vs. single-core ICP throughput on the cardiac FK falsification.

Runs the ``cardiac-fk-dome`` barrier falsification at benchmark
resolution -- the dome window widened to the hard edge of the
excitable regime, where the paving must grind through the full box
budget -- once on one core (``shards=1``, every epoch in-process) and
once sharded across worker processes, and reports boxes/sec
for each plus the parallel speedup.  Both runs must return identical
verdicts (the sharded driver's conformance contract).

CI runs this in ``--quick`` mode and uploads the JSON as the
``BENCH_shard_throughput.json`` artifact::

    python benchmarks/shard_throughput.py --quick --out BENCH_shard_throughput.json

The >= 2.5x speedup floor is enforced in full mode on machines with at
least 4 CPUs (process-level parallelism cannot beat the core count).
"""

from __future__ import annotations

import argparse
import json
import os
import time

#: Parallel speedup floor at --shards 4, enforced in full mode.
SPEEDUP_FLOOR = 2.5


def benchmark_spec(max_boxes: int):
    """The cardiac FK falsification scenario at benchmark resolution."""
    from dataclasses import replace

    from repro.scenarios import get_scenario

    spec = get_scenario("cardiac-fk-dome").spec()
    # widen the dome window to the hard edge of the excitable regime:
    # the barrier query then exhausts the whole box budget, so both
    # runs do exactly max_boxes of work and boxes/sec is comparable
    spec.query["to_level"] = 0.88
    return spec.replace(
        solver=replace(
            spec.solver, delta=1e-6, max_boxes=max_boxes, shards=1
        ),
        name="cardiac-fk-dome[bench]",
    )


def run_once(spec, shards: int) -> dict:
    from dataclasses import replace

    from repro.api import Engine

    spec = spec.replace(solver=replace(spec.solver, shards=shards))
    t0 = time.perf_counter()
    with Engine(seed=0) as engine:
        report = engine.run(spec)
    seconds = time.perf_counter() - t0
    boxes = int(report.stats.get("boxes_processed", 0))
    return {
        "shards": shards,
        "status": report.status.value,
        "seconds": round(seconds, 4),
        "boxes": boxes,
        "boxes_per_s": round(boxes / seconds, 1),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="smaller box budget (CI smoke mode)")
    parser.add_argument("--shards", type=int, default=4,
                        help="shard count of the parallel run")
    parser.add_argument("--max-boxes", type=int, default=None,
                        help="box budget (default 40000, quick: 6000)")
    parser.add_argument("--out", default="BENCH_shard_throughput.json")
    args = parser.parse_args(argv)

    max_boxes = args.max_boxes or (6_000 if args.quick else 40_000)
    spec = benchmark_spec(max_boxes)
    single = run_once(spec, shards=1)
    sharded = run_once(spec, shards=args.shards)

    cpus = os.cpu_count() or 1
    result = {
        "benchmark": "shard_throughput",
        "mode": "quick" if args.quick else "full",
        "scenario": "cardiac-fk-dome",
        "max_boxes": max_boxes,
        "cpus": cpus,
        "single": single,
        "sharded": sharded,
        "speedup": round(sharded["boxes_per_s"] / single["boxes_per_s"], 2),
        "verdicts_identical": single["status"] == sharded["status"],
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
    print(json.dumps(result, indent=2))

    if not result["verdicts_identical"]:
        print("FAIL: sharded run returned a different verdict")
        return 1
    if not args.quick:
        if cpus < 4:
            print(f"note: only {cpus} CPU(s); the {SPEEDUP_FLOOR}x floor "
                  "needs >= 4 cores and is not enforced here")
        elif result["speedup"] < SPEEDUP_FLOOR:
            print(f"FAIL: sharded ICP below the {SPEEDUP_FLOOR}x "
                  "throughput target")
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
