"""The ICP branch-and-prune driver: one loop for every shard count.

Every solve and paving of :class:`~repro.solver.icp.DeltaSolver` runs
through one frontier loop, :func:`_frontier`.  The search is a
widest-first frontier over pending boxes; each **epoch** takes up to
``frontier_size`` of a shard's widest pending boxes and runs one
vectorized contract/judge/certify/split pass of the compiled tape over
the whole chunk.  The loop owns the bootstrap, the deal, the budgeted
epochs, the progress checkpoints, the rebalance and the plan shutdown;
:func:`solve_sharded` and :func:`pave_sharded` are thin callers that
supply their epoch pass (:func:`_solve_epoch` / :func:`_pave_epoch`),
absorb its classified rows, and turn the pending queues into a
verdict or a paving.  With ``shards=1`` (the default) the single
shard's pass runs in-process, with no executor backend, and each epoch
emits the ``icp/branch-and-prune`` (or ``icp/paving``) progress event.

The ICP search is embarrassingly shardable -- disjoint sub-boxes can be
paved independently and merged -- *provided* the merge is
verdict-exact and deterministic.  For ``shards > 1`` the driver
guarantees both:

* the initial box is expanded in-coordinator through the *same*
  contract-and-split tree the one-shard loop walks, until there are
  at least ``shards`` disjoint pending sub-boxes; those are dealt to
  the shard queues (widest first, lexicographic ties, round-robin), so
  the sharded search explores the identical box tree -- an exhaustive
  paving therefore classifies the identical leaves for *every* shard
  count, and a solve with budget to spare keeps the identical verdict
  (the certified witness box may differ between shard counts; under a
  binding ``max_boxes`` budget the exploration order differs, so a
  budget-bound verdict can too -- both answers stay sound);
* every epoch each shard's chunk is shipped to a worker through the
  pluggable :class:`~repro.service.backends.ExecutorBackend` protocol
  (``process`` for true parallelism, ``thread``/``inline`` for tests,
  ``cluster``/``cluster:HOST:PORT`` to lease epochs to ``repro worker``
  processes on other machines -- see :mod:`repro.cluster`);
* epochs are **lock-step**: the coordinator waits for every in-flight
  chunk before acting on any result, so all scheduling decisions are
  pure functions of epoch-complete state and two sharded runs are
  byte-identical regardless of backend, worker count or OS scheduling;
* after each epoch the coordinator **rebalances** by stealing the widest
  pending boxes from overloaded shards through a shared steal queue and
  dealing them to starved shards (deterministically, in shard order);
* ordering decisions use the *total* lexicographic box order of
  :func:`lex_key` -- ties between equal-width boxes never depend on
  arrival order; :meth:`~repro.solver.icp.DeltaSolver.pave` sorts a
  finished paving in that order.

Formula compilation is cached per process keyed on the pickled formula,
so each process compiles each formula once no matter how many epochs it
serves.  Cooperative cancellation rides on the normal progress
checkpoints: the coordinator emits one progress event per shard per
epoch, and a cancel request unwinds the driver, which drains and shuts
down its worker pool before re-raising (no orphaned processes).
"""

from __future__ import annotations

import heapq
import itertools
import pickle
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.intervals import Box, BoxArray
from repro.logic import Formula
from repro.progress import emit as _progress
from repro.service.backends import ExecutorBackend, make_backend

from .incremental import shell_slabs
from .tape import CERTAIN_FALSE, CERTAIN_TRUE, CompiledFormula, _quiet, compile_formula

if TYPE_CHECKING:
    from .icp import DeltaSolver

__all__ = ["ShardPlan", "lex_key", "solve_sharded", "pave_sharded"]


# ----------------------------------------------------------------------
# Deterministic ordering helpers
# ----------------------------------------------------------------------


def lex_key(lo, hi) -> tuple:
    """Total lexicographic order on box bounds (all lows, then all highs).

    This is the tie-breaker that makes every ordering decision of the
    sharded search -- heap ties, witness selection among simultaneous
    certifications, merged paving order -- independent of arrival order.
    Bound arrays convert with one ``tolist()`` each: the same Python
    floats as a per-element ``float()``, ``-0.0`` included.
    """
    if isinstance(lo, np.ndarray):
        return tuple(lo.tolist()) + tuple(hi.tolist())
    return tuple(map(float, lo)) + tuple(map(float, hi))


def box_sort_key(box: Box) -> tuple:
    """:func:`lex_key` of a :class:`Box` in its own name order."""
    return lex_key([box[k].lo for k in box.names], [box[k].hi for k in box.names])


# ----------------------------------------------------------------------
# Worker side: one vectorized epoch pass per chunk
# ----------------------------------------------------------------------

#: Per-process compiled-tape cache, keyed on the pickled formula so one
#: worker process compiles each formula exactly once across epochs.
_TAPE_CACHE: dict[bytes, CompiledFormula] = {}


def _compiled(phi_blob: bytes) -> CompiledFormula:
    tape = _TAPE_CACHE.get(phi_blob)
    if tape is None:
        if len(_TAPE_CACHE) >= 32:
            _TAPE_CACHE.clear()
        tape = compile_formula(pickle.loads(phi_blob))
        _TAPE_CACHE[phi_blob] = tape
    return tape


@_quiet
def _solve_epoch(
    phi_blob: bytes,
    names: tuple[str, ...],
    lo: np.ndarray,
    hi: np.ndarray,
    depths: np.ndarray,
    delta: float,
    contract_tol: float,
    min_width: float,
    record_cover: bool = False,
) -> dict:
    """One branch-and-prune pass over a chunk of a shard's frontier.

    Returns certified witness rows, too-narrow unresolved rows, the
    split children that go back on the shard's queue, and counters.
    Pure function of its arguments -- the coordinator's determinism
    rests on that.  The contraction fixpoint runs first, then one
    judgment pass decides every row at both thresholds: ``0`` prunes,
    ``delta`` certifies.

    With ``record_cover`` the chunk's contribution to the UNSAT cover
    (:mod:`repro.solver.incremental`) ships back too: pruned boxes plus
    the shells contraction peeled off pruned and split nodes.
    """
    compiled = _compiled(phi_blob)
    frontier = BoxArray(names, lo, hi)
    contracted = compiled.fixpoint_contract(frontier, tol=contract_tol)
    judgment, at_delta = compiled.judge(contracted, (0.0, delta))
    dead = contracted.is_empty | (judgment == CERTAIN_FALSE)
    cover: list | None = [] if record_cover else None
    if record_cover:
        for i in np.flatnonzero(dead):
            if contracted.is_empty[i]:
                cover.append((lo[i].copy(), hi[i].copy()))
            else:
                cover.append((contracted.lo[i].copy(), contracted.hi[i].copy()))
                cover.extend(
                    shell_slabs(lo[i], hi[i], contracted.lo[i], contracted.hi[i])
                )
    out = {
        "processed": int(len(frontier)),
        "pruned": int(dead.sum()),
        "splits": 0,
        "witnesses": [],
        "unresolved": [],
        "children": None,
        "max_depth": int(depths.max(initial=0)),
        "cover": cover,
    }
    live_idx = np.flatnonzero(~dead)
    if not live_idx.size:
        return out
    live = contracted.take(live_idx)
    certified = at_delta[live_idx] == CERTAIN_TRUE
    for i in np.flatnonzero(certified):
        out["witnesses"].append((live.lo[i].copy(), live.hi[i].copy()))
    if certified.any():
        return out  # this chunk is done: a witness ends the whole search
    narrow = live.max_width() <= min_width
    for i in np.flatnonzero(narrow):
        out["unresolved"].append((live.lo[i].copy(), live.hi[i].copy()))
    splittable = np.flatnonzero(~narrow)
    if splittable.size:
        if record_cover:
            for j in splittable:
                g = int(live_idx[j])
                cover.extend(
                    shell_slabs(lo[g], hi[g], contracted.lo[g], contracted.hi[g])
                )
        parents = live.take(splittable)
        children = parents.split_widest()
        out["splits"] = int(splittable.size)
        out["children"] = (
            children.lo,
            children.hi,
            np.repeat(depths[live_idx[splittable]] + 1, 2),
        )
    return out


@_quiet
def _pave_epoch(
    phi_blob: bytes,
    names: tuple[str, ...],
    lo: np.ndarray,
    hi: np.ndarray,
    delta: float,
    contract_tol: float,
    min_width: float,
) -> dict:
    """One paving pass over a chunk: classify rows or split them
    (contraction fixpoint, then one judgment pass at ``0`` and ``delta``)."""
    compiled = _compiled(phi_blob)
    frontier = BoxArray(names, lo, hi)
    contracted = compiled.fixpoint_contract(frontier, tol=contract_tol)
    judgment, at_delta = compiled.judge(contracted, (0.0, delta))
    certified = at_delta == CERTAIN_TRUE
    widths = contracted.max_width()
    empty = contracted.is_empty
    sat, unsat, undecided = [], [], []
    splittable: list[int] = []
    for i in range(len(frontier)):
        if empty[i] or judgment[i] == CERTAIN_FALSE:
            unsat.append((lo[i].copy(), hi[i].copy()))  # the original box
        elif certified[i]:
            # the pruned-away shell contains no solutions
            sat.append((contracted.lo[i].copy(), contracted.hi[i].copy()))
        elif widths[i] <= min_width:
            undecided.append((contracted.lo[i].copy(), contracted.hi[i].copy()))
        else:
            splittable.append(i)
    out = {
        "processed": int(len(frontier)),
        "sat": sat,
        "unsat": unsat,
        "undecided": undecided,
        "children": None,
        "splits": len(splittable),
    }
    if splittable:
        children = contracted.take(np.array(splittable)).split_widest()
        out["children"] = (children.lo, children.hi)
    return out


# ----------------------------------------------------------------------
# Coordinator side
# ----------------------------------------------------------------------


class _ShardQueue:
    """Pending boxes of one shard: a widest-first heap with lex ties.

    Entries are ``(-width, lex_key, tie, lo, hi, depth)``; the counter
    (shared between the queues of one driver run, so stolen entries
    keep their identity) only shields the ndarray payload from tuple
    comparison -- equal ``lex_key`` already implies identical bounds.
    """

    __slots__ = ("entries", "_tie")

    def __init__(self, tie: "itertools.count | None" = None):
        self.entries: list[tuple] = []
        self._tie = tie if tie is not None else itertools.count()

    def push(self, lo: np.ndarray, hi: np.ndarray, depth: int) -> None:
        """Push one box given by its ``(dim,)`` bound arrays."""
        self.push_rows(lo[None, :], hi[None, :], (depth,))

    def push_rows(self, lo: np.ndarray, hi: np.ndarray, depths=None) -> None:
        """Push the rows of ``(n, dim)`` bound arrays (depth 0 by default)."""
        # NaN-safe width: a degenerate infinite dimension ([inf, inf])
        # would make ``hi - lo`` NaN and the heap ordering ill-defined
        # (matches Interval.width / BoxArray.widths).
        with np.errstate(invalid="ignore"):
            w = hi - lo
        widths = np.where(np.isnan(w), 0.0, w).max(axis=1, initial=0.0)
        # one tolist() per array for the whole chunk, not per row
        depths = itertools.repeat(0) if depths is None else np.asarray(depths).tolist()
        rows = zip(widths.tolist(), lo.tolist(), hi.tolist(), depths)
        for j, (width, lo_j, hi_j, depth) in enumerate(rows):
            heapq.heappush(
                self.entries,
                (-width, lex_key(lo_j, hi_j), next(self._tie), lo[j], hi[j], depth),
            )

    def __len__(self) -> int:
        return len(self.entries)

    def take_chunk(self, k: int) -> list[tuple]:
        """Remove and return the ``k`` widest entries (deterministic)."""
        return [heapq.heappop(self.entries)
                for _ in range(min(k, len(self.entries)))]

    def steal(self, k: int) -> list[tuple]:
        """Give away the ``k`` widest entries to the shared steal queue."""
        return self.take_chunk(k)

    def receive(self, entries: list[tuple]) -> None:
        """Push entries taken from another queue, identity intact."""
        for entry in entries:
            heapq.heappush(self.entries, entry)


def _chunk_bounds(chunk: list[tuple]) -> tuple[np.ndarray, np.ndarray]:
    """The ``(k, dim)`` lower and upper bound arrays of queue entries."""
    return np.array([e[3] for e in chunk]), np.array([e[4] for e in chunk])


def _deal(boot: _ShardQueue, shards: int) -> list[_ShardQueue]:
    """Deal bootstrapped pending boxes to shard queues, widest first.

    The queues share the boot queue's tie counter so stolen entries
    keep globally-unique ties.
    """
    queues = [_ShardQueue(boot._tie) for _ in range(shards)]
    entries = sorted(boot.entries, key=lambda e: (e[0], e[1]))
    for i, entry in enumerate(entries):
        queues[i % shards].receive([entry])
    return queues


@dataclass
class ShardPlan:
    """Resolved sharding configuration of one driver run.

    ``backend`` is ``None`` for a single shard: its epochs run
    in-process and no executor is created.
    """

    shards: int
    backend: ExecutorBackend | None
    owns_backend: bool

    def shutdown(self) -> None:
        """Release the worker pool if this run created it (idempotent).

        Backends the driver instantiated from a name are drained and
        shut down; a caller-injected :class:`ExecutorBackend` instance
        is left running (it may be serving other work), and its
        lifecycle stays with the caller.
        """
        if self.owns_backend:
            self.backend.shutdown(wait=True)

    def run_epoch(self, fn, calls: list[tuple]) -> list[dict]:
        """Run ``fn(*args)`` for every chunk of one epoch, in order.

        A single shard runs in-process; otherwise every chunk goes to
        the backend and the lock-step barrier collects them all.
        """
        if self.backend is None:
            return [fn(*args) for args in calls]
        return _wait_all([self.backend.submit(fn, *args) for args in calls])


def _resolve_plan(
    shards: int, backend: str | ExecutorBackend, workers: int | None
) -> ShardPlan:
    if shards == 1:
        return ShardPlan(1, None, owns_backend=False)
    if isinstance(backend, ExecutorBackend):
        return ShardPlan(shards, backend, owns_backend=False)
    return ShardPlan(
        shards, make_backend(backend, workers or shards), owns_backend=True
    )


def _wait_all(futures: list) -> list:
    """Lock-step barrier: collect every chunk result (or raise the first
    worker failure after draining, so no future is left running)."""
    results, first_error = [], None
    for f in futures:
        try:
            results.append(f.result())
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            if first_error is None:
                first_error = exc
    if first_error is not None:
        raise first_error
    return results


def _rebalance(queues: list[_ShardQueue]) -> int:
    """Work stealing: move widest boxes from overloaded to starved shards.

    Shards above the mean load surrender their widest pending boxes to a
    shared steal queue; shards below the mean take from it (widest first,
    dealt in shard order).  Runs between lock-step epochs, so the
    outcome is deterministic.  Returns the number of boxes stolen.
    """
    total = sum(len(q) for q in queues)
    if total == 0:
        return 0
    target = -(-total // len(queues))  # ceil
    pool: list[tuple] = []
    for q in queues:
        if len(q) > target:
            pool.extend(q.steal(len(q) - target))
    if not pool:
        return 0
    pool.sort(key=lambda e: (e[0], e[1]))
    stolen = len(pool)
    for q in queues:
        if not pool:
            break
        if len(q) < target:
            take = min(target - len(q), len(pool))
            q.receive(pool[:take])
            del pool[:take]
    if pool:  # everyone at target: deal the remainder round-robin
        for i, entry in enumerate(pool):
            queues[i % len(queues)].receive([entry])
    return stolen




def _frontier(
    solver: DeltaSolver,
    roots: BoxArray,
    *,
    epoch_fn,
    epoch_args,
    absorb,
    stage: str,
    snapshot,
    pass_counters,
    shard_counters=dict,
) -> tuple[list[tuple], int]:
    """The frontier loop of every solve and paving.

    Pushes ``roots``, bootstraps in-coordinator until every shard can
    be given work, deals the pending boxes, then runs lock-step epochs
    of ``epoch_fn`` under the ``max_boxes`` budget, rebalancing between
    epochs, and shuts the plan down.  ``epoch_args(chunk)`` gives the
    arguments of one chunk's epoch call.  The loop counts the processed
    boxes and queues the split children of each result; ``absorb(res)``
    takes the rest of it and returns true to stop the search once the
    whole epoch is absorbed.

    Progress checkpoints, all fired before the epoch is submitted:
    ``snapshot(processed)`` gives the message and counters of the
    ``anytime`` event, ``pass_counters(chunk)`` the extra counters of
    the one-shard ``icp/<stage>`` event and ``shard_counters()`` those
    of each ``shard/<stage>`` event.

    Returns the queue entries still pending (the budget ran out, or
    ``absorb`` stopped the search) and the processed-box count.
    """
    shards, max_boxes = solver.shards, solver.max_boxes
    frontier_size = solver.frontier_size
    processed = 0

    def absorb_all(results: list[tuple[dict, _ShardQueue]]) -> bool:
        nonlocal processed
        stop = False
        for res, queue in results:
            processed += res["processed"]
            if res["children"] is not None:
                queue.push_rows(*res["children"])
            stop = absorb(res) or stop
        return stop

    # Bootstrap in-coordinator: walk the same contract-and-split tree
    # the one-shard loop walks until every shard can be given work, so
    # sharding never changes *which* boxes get classified.
    boot = _ShardQueue()
    boot.push_rows(roots.lo, roots.hi)
    while boot and len(boot) < shards and processed < max_boxes:
        chunk = boot.take_chunk(min(frontier_size, max_boxes - processed))
        _progress(
            "shard", "bootstrap",
            pending=len(boot), boxes=processed, shards=shards,
        )
        if absorb_all([(epoch_fn(*epoch_args(chunk)), boot)]):
            return boot.entries, processed
    queues = _deal(boot, shards)

    plan = _resolve_plan(shards, solver.shard_backend, solver.shard_workers)
    epoch = steals = 0
    try:
        while any(queues) and processed < max_boxes:
            budget = max_boxes - processed
            epoch += 1
            chunks: list[tuple[int, list[tuple]]] = []
            for i, q in enumerate(queues):
                if not q or budget <= 0:
                    continue
                k = min(frontier_size, len(q), budget)
                budget -= k
                chunks.append((i, q.take_chunk(k)))

            # progress checkpoints fire BEFORE any submit: a cancel can
            # then only unwind between epochs, with no future in flight
            if solver.anytime:
                message, counters = snapshot(processed)
                _progress("icp", "anytime", message=message, **counters, final=0)
            if shards == 1:
                (_, chunk), = chunks
                _progress(
                    "icp", stage,
                    boxes=processed + len(chunk), queue=len(queues[0]),
                    **pass_counters(chunk),
                )
            else:
                for i, chunk in chunks:
                    _progress(
                        "shard", stage,
                        shard=i, epoch=epoch, chunk=len(chunk),
                        pending=len(queues[i]), boxes=processed,
                        **shard_counters(), steals=steals,
                    )
            results = plan.run_epoch(
                epoch_fn, [epoch_args(chunk) for _, chunk in chunks]
            )
            # lock-step determinism: every chunk of this epoch is
            # absorbed before the search may stop
            if absorb_all([(res, queues[i]) for (i, _), res in zip(chunks, results)]):
                break
            if shards > 1:
                steals += _rebalance(queues)
    finally:
        plan.shutdown()
    return [e for q in queues for e in q.entries], processed


def _boxes(names: tuple[str, ...], rows: list[tuple]) -> list[Box]:
    """Scalar boxes of the ``(lo, hi)`` bound rows an epoch ships back."""
    if not rows:
        return []
    lo, hi = zip(*rows)
    return BoxArray(names, np.array(lo), np.array(hi)).to_boxes()


def _lex_least(rows: list[tuple]) -> tuple:
    """The ``(lo, hi)`` row first in the total :func:`lex_key` order."""
    return min(rows, key=lambda row: lex_key(*row))


def solve_sharded(phi: Formula, box: Box, solver: DeltaSolver, recorder=None):
    """Decide ``exists box . phi`` over ``solver.shards`` paving shards.

    Same verdict contract as :meth:`DeltaSolver._solve_impl`, whose search
    knobs (``delta``, ``max_boxes``, ``contract_tol``, ``min_width``,
    ``frontier_size``, ``shards``, ``shard_backend``, ``shard_workers``,
    ``anytime``) it reads; the run is a pure function of the arguments
    (byte-identical results regardless of backend or scheduling).
    ``phi`` must already be existential-hoisted (the
    :class:`~repro.solver.icp.DeltaSolver` entry point does this).  A
    certified witness ends the search after its epoch: the lex-least
    one of that epoch is returned.  An ``UNKNOWN`` result carries the
    lex-least too-narrow unresolved box, or -- when the budget ran out
    first -- the widest pending box.

    ``recorder`` (a :class:`~repro.solver.incremental.CoverRecorder`)
    collects the UNSAT cover shipped back from the epochs;
    ``solver.anytime`` streams per-epoch verdict-so-far snapshots.
    """
    from .icp import Result, SolverStats, Status  # local: avoid import cycle

    t0 = time.perf_counter()
    stats = SolverStats()
    names = tuple(box.names)
    phi_blob = pickle.dumps(phi)
    knobs = (solver.delta, solver.contract_tol, solver.min_width, recorder is not None)
    witnesses: list[tuple] = []
    unresolved: list[tuple] = []

    def absorb(res: dict) -> bool:
        stats.boxes_pruned += res["pruned"]
        stats.splits += res["splits"]
        stats.max_depth = max(stats.max_depth, res["max_depth"])
        if recorder is not None and res["cover"]:
            recorder.extend_pairs(res["cover"])
        unresolved.extend(res["unresolved"])
        witnesses.extend(res["witnesses"])
        return bool(res["witnesses"])

    pending, stats.boxes_processed = _frontier(
        solver, BoxArray.from_box(box, names),
        epoch_fn=_solve_epoch,
        epoch_args=lambda chunk: (
            phi_blob, names, *_chunk_bounds(chunk),
            np.array([e[5] for e in chunk], dtype=int), *knobs,
        ),
        absorb=absorb,
        stage="branch-and-prune",
        snapshot=lambda processed: (
            Status.UNKNOWN.value,
            {"settled": processed, "pruned": stats.boxes_pruned},
        ),
        pass_counters=lambda chunk: {
            "depth": max(e[5] for e in chunk), "splits": stats.splits,
            "frontier": len(chunk),
        },
    )
    if witnesses:
        status, row = Status.DELTA_SAT, _lex_least(witnesses)
    elif unresolved:
        status, row = Status.UNKNOWN, _lex_least(unresolved)
    elif pending:
        # deterministic fallback: the widest pending box, lex ties
        best = min(pending, key=lambda e: (e[0], e[1]))
        status, row = Status.UNKNOWN, (best[3], best[4])
    else:
        status, row = Status.UNSAT, None
    witness = None if row is None else BoxArray(names, *row).row(0)
    stats.wall_time = time.perf_counter() - t0
    return Result(status, witness, solver.delta, stats)


def pave_sharded(
    phi: Formula,
    box: Box,
    solver: DeltaSolver,
    min_width: float,
    seeds: list[Box] | None = None,
) -> tuple[list[Box], list[Box], list[Box], int, bool]:
    """Partition ``box`` into (delta-sat, unsat, undecided) sub-boxes
    over ``solver.shards`` paving shards.

    The search knobs come from ``solver`` as in :func:`solve_sharded`,
    except ``min_width``: a paving's leaf width is its own argument
    (:meth:`DeltaSolver.pave`, which also sorts the three lists into
    the total lexicographic box order).  Pending boxes are taken widest
    first, so a binding ``max_boxes`` budget leaves the narrowest
    pending boxes undecided.

    ``seeds`` replaces the root box with an explicit frontier (the
    warm-start resume path of :mod:`repro.solver.incremental` paves only
    the boxes whose stored classification can flip).  Also returns the
    processed-box count and whether the ``max_boxes`` budget truncated
    the paving.
    """
    names = tuple(box.names)
    phi_blob = pickle.dumps(phi)
    knobs = (solver.delta, solver.contract_tol, min_width)
    sat: list[Box] = []
    unsat: list[Box] = []
    undecided: list[Box] = []

    def absorb(res: dict) -> bool:
        sat.extend(_boxes(names, res["sat"]))
        unsat.extend(_boxes(names, res["unsat"]))
        undecided.extend(_boxes(names, res["undecided"]))
        return False

    def counters() -> dict:
        return {"sat": len(sat), "unsat": len(unsat)}

    pending, processed = _frontier(
        solver, BoxArray.from_boxes([box] if seeds is None else seeds, names),
        epoch_fn=_pave_epoch,
        epoch_args=lambda chunk: (phi_blob, names, *_chunk_bounds(chunk), *knobs),
        absorb=absorb,
        stage="paving",
        snapshot=lambda processed: (
            "paving", {**counters(), "undecided": len(undecided)}
        ),
        pass_counters=lambda chunk: counters(),
        shard_counters=counters,
    )
    undecided.extend(_boxes(names, [(e[3], e[4]) for e in pending]))
    return sat, unsat, undecided, processed, bool(pending)
