"""One-box vs. wide-frontier ICP throughput on a fixed synthesis problem.

Runs the same BioPSy-style parameter-set paving twice through one
:class:`~repro.solver.DeltaSolver` -- once as the ``baseline`` row, one
box per tape pass (``frontier_size=1``), and once as the ``vectorized``
row, ``--frontier`` boxes per pass -- and reports boxes/sec for each,
plus the speedup and a partition identity check proving both frontier
widths classified the exact same sub-boxes.  A ``kernel_ops`` block adds
the layer below: best-of-5 microseconds per call of the hot interval ops
(``*``, ``inverse``, ``/``, the tape's ``_safe_div``, ``+``) at 1 and 64
rows.  It has no floor; it is there to be compared across commits.

CI runs this in ``--quick`` mode and uploads the JSON as the
``BENCH_icp_throughput.json`` artifact::

    python benchmarks/icp_throughput.py --quick --out BENCH_icp_throughput.json
"""

from __future__ import annotations

import argparse
import json
import time
import timeit


def problem():
    """A warped annulus with a bilinear side constraint: enough curvature
    that the paving needs thousands of boxes, so the frontier fills up."""
    from repro.expr import sin, variables
    from repro.intervals import Box
    from repro.logic import And, in_range

    x, y = variables("x y")
    phi = And(
        in_range(x ** 2 + y ** 2 + 0.3 * sin(3 * x) * sin(3 * y), 0.55, 0.95),
        in_range(x * y, -0.2, 0.6),
    )
    box = Box.from_bounds({"x": (-1.5, 1.5), "y": (-1.5, 1.5)})
    return phi, box


def run_paving(frontier_size: int, min_width: float) -> dict:
    from repro.solver import DeltaSolver

    phi, box = problem()
    solver = DeltaSolver(
        delta=1e-3, frontier_size=frontier_size, max_boxes=1_000_000
    )
    t0 = time.perf_counter()
    sat, unsat, undecided = solver.pave(phi, box, min_width=min_width)
    seconds = time.perf_counter() - t0
    # every classified leaf was popped, contracted and judged once; the
    # boxes/sec metric counts those leaves
    leaves = len(sat) + len(unsat) + len(undecided)
    return {
        "frontier_size": frontier_size,
        "seconds": round(seconds, 4),
        "leaves": leaves,
        "sat_boxes": len(sat),
        "unsat_boxes": len(unsat),
        "undecided_boxes": len(undecided),
        "boxes_per_s": round(leaves / seconds, 1),
        "_partition": sorted(
            (name, iv.lo, iv.hi)
            for b in sat + unsat + undecided
            for name, iv in b.items()
        ),
    }


def kernel_ops(calls: int = 200) -> dict:
    """Best-of-5 microseconds per call of the hot interval ops.

    Operands have bounds drawn uniformly from [-3, 3] (seed 0), so about
    half the denominator rows span zero at 64 rows.  The ops run under
    one ``np.errstate(all="ignore")``, the state a tape call enters once
    for all of its ops.
    """
    import numpy as np

    from repro.intervals import IntervalArray
    from repro.solver.tape import _safe_div

    rng = np.random.default_rng(0)
    ops: dict[str, dict[str, float]] = {}
    for rows in (1, 64):
        x, y = (IntervalArray(*np.sort(rng.uniform(-3.0, 3.0, (2, rows)), axis=0))
                for _ in range(2))
        for name, op in (
            ("mul", lambda: x * y),
            ("inverse", lambda: y.inverse()),
            ("div", lambda: x / y),
            ("safe_div", lambda: _safe_div(x, y)),
            ("add", lambda: x + y),
        ):
            with np.errstate(all="ignore"):
                best = min(timeit.repeat(op, number=calls, repeat=5)) / calls
            ops.setdefault(name, {})[f"rows_{rows}"] = round(best * 1e6, 2)
    return {"unit": "us_per_call", "best_of": 5, "calls": calls, "ops": ops}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="coarser paving (CI smoke mode)")
    parser.add_argument("--frontier", type=int, default=1024,
                        help="frontier size K of the vectorized run")
    parser.add_argument("--min-width", type=float, default=None,
                        help="paving resolution (default 0.005, quick: 0.01)")
    parser.add_argument("--out", default="BENCH_icp_throughput.json")
    args = parser.parse_args(argv)

    min_width = args.min_width or (0.01 if args.quick else 0.005)
    baseline = run_paving(frontier_size=1, min_width=min_width)
    vectorized = run_paving(frontier_size=args.frontier, min_width=min_width)
    ps, pv = baseline.pop("_partition"), vectorized.pop("_partition")
    # bound-for-bound agreement up to single-ulp contraction differences
    same_partition = len(ps) == len(pv) and all(
        a[0] == b[0] and abs(a[1] - b[1]) <= 1e-9 and abs(a[2] - b[2]) <= 1e-9
        for a, b in zip(ps, pv)
    )

    result = {
        "benchmark": "icp_throughput",
        "mode": "quick" if args.quick else "full",
        "min_width": min_width,
        "baseline": baseline,
        "vectorized": vectorized,
        "speedup": round(vectorized["boxes_per_s"] / baseline["boxes_per_s"], 2),
        "partitions_identical": same_partition,
        "kernel_ops": kernel_ops(),
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
    print(json.dumps(result, indent=2))

    if not same_partition:
        print("FAIL: vectorized paving classified different boxes")
        return 1
    if not args.quick and result["speedup"] < 5.0:
        print("FAIL: vectorized ICP below the 5x throughput target")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
