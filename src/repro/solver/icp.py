"""The delta-complete decision procedure (ICP branch-and-prune).

Implements the algorithm behind paper Theorem 1 for bounded ``L_RF``
sentences: given a quantifier-free (or existentially quantified) formula
``phi`` and an initial bounding box, answer

* ``UNSAT``     -- ``phi`` has no solution in the box (exact, one-sided), or
* ``DELTA_SAT`` -- the delta-weakening ``phi^delta`` is satisfiable, with a
  witness box every point of which satisfies ``phi^delta``.

The loop alternates HC4 fixed-point contraction (pruning) with bisection
(branching), exactly the DPLL(T)+ICP combination the paper cites as a
delta-complete procedure [52].  Soundness of UNSAT follows from
contractor soundness; soundness of DELTA_SAT from the certain-truth
verification of the weakened formula over the candidate box.

The search is *breadth-wise*: the formula is compiled once into a flat
evaluation tape (:mod:`repro.solver.tape`) and each iteration pops a
frontier of up to ``frontier_size`` of the widest pending boxes,
contracting, judging, certifying and splitting all of them in
vectorized array passes.  That loop lives in :mod:`repro.solver.shard`
(one driver for solves and pavings); an unsharded search is its
one-shard case, run in-process.  This module adds the entry points
around it: knob validation, existential hoisting, warm starts from the
paving store, the one lexicographic sort of a paving (after a cold
paving or a warm-resume merge, before the artifact is recorded), and
anytime snapshots.
"""

from __future__ import annotations

import enum
import itertools
import math
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

from repro.expr import var as _var
from repro.intervals import Box
from repro.logic import And, Exists, Formula, Or
from repro.progress import emit as _progress

from .incremental import (
    CoverRecorder,
    formula_fingerprint,
    get_store,
    record_pave,
    record_solve,
    try_warm_pave,
    try_warm_solve,
)
from .shard import _resolve_plan, box_sort_key, pave_sharded, solve_sharded

__all__ = ["Status", "Result", "SolverStats", "DeltaSolver",
           "check_at_least_one", "check_search_knobs"]


class Status(enum.Enum):
    """Verdict of a delta-decision query."""

    DELTA_SAT = "delta-sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"  # budget exhausted before a verdict


@dataclass
class SolverStats:
    """Counters describing a solver run."""

    boxes_processed: int = 0
    boxes_pruned: int = 0
    splits: int = 0
    max_depth: int = 0
    wall_time: float = 0.0


@dataclass
class Result:
    """Outcome of a delta-decision query."""

    status: Status
    witness_box: Box | None = None
    delta: float = 0.0
    stats: SolverStats = field(default_factory=SolverStats)

    @property
    def witness(self) -> dict[str, float] | None:
        """A point witness (midpoint of the witness box), if delta-sat."""
        if self.witness_box is None:
            return None
        return self.witness_box.midpoint()

    def __bool__(self) -> bool:
        return self.status is Status.DELTA_SAT

    def __repr__(self) -> str:
        w = f", witness={self.witness}" if self.witness_box is not None else ""
        return f"Result({self.status.value}{w})"


def _hoist_existentials(phi: Formula, box: Box) -> tuple[Formula, Box]:
    """Pull bounded existentials into the search box.

    Existential variables are just extra search dimensions for ICP.  We
    hoist ``Exists`` nodes occurring positively outside any ``Forall``;
    names are freshened on clashes.  Remaining quantifiers are handled
    by interval judgment inside the tape evaluator.
    """
    counter = itertools.count()
    new_dims: dict[str, tuple[float, float]] = {}

    def fresh(name: str) -> str:
        while True:
            cand = f"{name}#{next(counter)}"
            if cand not in box and cand not in new_dims:
                return cand

    def walk(f: Formula) -> Formula:
        if isinstance(f, Exists):
            lo_iv = f.lo.eval_interval(box)
            hi_iv = f.hi.eval_interval(box)
            name = f.name
            if name in box or name in new_dims:
                name2 = fresh(name)
                body = f.body.subs({name: _var(name2)})
                name = name2
            else:
                body = f.body
            new_dims[name] = (lo_iv.lo, hi_iv.hi)
            return walk(body)
        if isinstance(f, And):
            return And(*[walk(p) for p in f.parts])
        if isinstance(f, Or):
            return Or(*[walk(p) for p in f.parts])
        return f

    phi2 = walk(phi)
    if new_dims:
        box = box.merged(Box.from_bounds(new_dims))
    return phi2, box


def check_at_least_one(**knobs: int) -> None:
    """Reject a count knob (a box budget, a batch or shard count) below
    1, naming the field: a search with none of them does no work."""
    for name, value in knobs.items():
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")


def check_search_knobs(
    delta: float, max_boxes: int, frontier_size: int, shards: int
) -> None:
    """Reject search knobs no ICP search can honour, naming the field.

    A NaN, negative or infinite ``delta`` weakens no formula in any
    usable way: the search spends its whole budget and answers
    ``UNKNOWN``.  Shared by :class:`DeltaSolver` and
    :class:`~repro.api.spec.SolverOptions`.
    """
    if not 0.0 <= delta < math.inf:
        raise ValueError(f"delta must be finite and >= 0, got {delta}")
    check_at_least_one(max_boxes=max_boxes, frontier_size=frontier_size, shards=shards)


@dataclass(frozen=True)
class DeltaSolver:
    """A delta-complete decision procedure for bounded L_RF sentences.

    One frozen value holds every knob of the ICP search, and consumers
    pass it whole: the exists-forall CEGIS loop, the Lyapunov analyzer
    and barrier falsification each take a configured solver rather than
    re-declaring its fields, and the shard driver reads its knobs from
    it.  Derive a variant with :func:`dataclasses.replace` (e.g. a
    different ``max_boxes`` budget); :meth:`pooled` starts a named
    ``shard_backend`` once for a run of many solves.

    Parameters
    ----------
    delta:
        The perturbation bound of Definition 4.  Smaller deltas give
        sharper answers but more search work.
    max_boxes:
        Branch-and-prune budget (>= 1); exceeding it yields ``Status.UNKNOWN``
        together with the most promising unresolved box.
    contract_tol:
        Progress threshold of the fixed-point contraction loop.
    min_width:
        Boxes narrower than this in every dimension are submitted to
        delta-verification even if interval judgment is still UNKNOWN
        (they then count as unresolved if verification fails).
    frontier_size:
        Width ``K`` of the breadth-wise search frontier: how many boxes
        are popped, contracted and judged per vectorized tape pass.
    shards:
        Number of parallel paving shards (:mod:`repro.solver.shard`).
        ``1`` (the default) runs every pass in-process; ``> 1`` splits
        the initial box into that many disjoint sub-boxes and paves them
        in lock-step epochs on ``shard_backend`` workers, with
        work-stealing rebalancing and a deterministic merge.
    shard_backend:
        Executor backend of the sharded driver (unused at
        ``shards=1``): a backend name
        (``"process"``, ``"thread"``, ``"inline"``) or a live
        :class:`~repro.service.backends.ExecutorBackend` instance.
        Named backends are instantiated per call and shut down on exit
        (including cancellation); an injected instance is left running
        for reuse -- its lifecycle stays with the caller (see
        :meth:`pooled`).
    shard_workers:
        Worker-pool size of the sharded driver (default: ``shards``).
    paving_store:
        Where completed solve/pave artifacts persist for warm-started
        re-solves (:mod:`repro.solver.incremental`): a directory path
        (one shared :class:`~repro.solver.incremental.PavingStore` per
        path per process) or a live store instance.  ``None`` (the
        default) disables artifact recording and reuse entirely.
    warm_start:
        Whether to *consult* the paving store before searching.  With a
        store configured and ``warm_start=False`` the solver still
        records artifacts but always solves cold (the CLI ``--cold``
        flag; useful for repopulating a store or benchmarking).
    anytime:
        Stream coarse verdict-so-far snapshots through the
        :mod:`repro.progress` hookpoint (``stage="anytime"``): one event
        immediately on entry, one per frontier iteration, and a final
        event carrying the terminal verdict.  Snapshots are monotone --
        settled-box counters never decrease and the verdict only moves
        from ``unknown`` to a terminal answer.
    """

    delta: float = 1e-3
    max_boxes: int = 100_000
    contract_tol: float = 1e-2
    min_width: float = 1e-12
    frontier_size: int = 64
    shards: int = 1
    shard_backend: object = "process"
    shard_workers: int | None = None
    paving_store: object = None
    warm_start: bool = True
    anytime: bool = False

    def __post_init__(self) -> None:
        check_search_knobs(self.delta, self.max_boxes, self.frontier_size, self.shards)

    @contextmanager
    def pooled(self) -> Iterator[DeltaSolver]:
        """Start a named ``shard_backend`` once for many solves.

        Yields a copy whose ``shard_backend`` is a live backend instance
        (the sharded driver leaves injected instances running, so every
        solve of the copy reuses one worker pool) and shuts that backend
        down on exit.  With ``shards == 1`` or an injected
        :class:`~repro.service.backends.ExecutorBackend`, yields
        ``self`` untouched.
        """
        plan = _resolve_plan(self.shards, self.shard_backend, self.shard_workers)
        try:
            if plan.owns_backend:
                yield replace(self, shard_backend=plan.backend)
            else:
                yield self
        finally:
            plan.shutdown()

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def _resolved_store(self):
        if self.paving_store is None:
            return None
        return get_store(self.paving_store)

    def _solve_impl(self, phi: Formula, box: Box) -> Result:
        """Decide ``exists box. phi`` in the delta-relaxed sense."""
        phi, box = _hoist_existentials(phi, box)
        missing = phi.variables() - set(box.names)
        if missing:
            raise ValueError(f"free variables without bounds: {sorted(missing)}")
        if self.anytime:
            # first coarse snapshot before any search work
            _progress("icp", "anytime", message=Status.UNKNOWN.value,
                      settled=0, pruned=0, final=0)
        store = self._resolved_store()
        recorder = None
        if store is not None:
            fp = formula_fingerprint(phi)
            if self.warm_start:
                reused = try_warm_solve(
                    store, phi, fp, box,
                    delta=self.delta, contract_tol=self.contract_tol,
                    min_width=self.min_width, max_boxes=self.max_boxes,
                )
                if reused is not None:
                    return self._finish_solve(reused)
            recorder = CoverRecorder()
        result = solve_sharded(phi, box, self, recorder)
        if store is not None:
            record_solve(
                store, fp, box,
                delta=self.delta, contract_tol=self.contract_tol,
                min_width=self.min_width, max_boxes=self.max_boxes,
                result=result, recorder=recorder,
            )
        return self._finish_solve(result)

    def _finish_solve(self, result: Result) -> Result:
        if self.anytime:
            _progress(
                "icp", "anytime", message=result.status.value,
                settled=result.stats.boxes_processed,
                pruned=result.stats.boxes_pruned, final=1,
            )
        return result

    def pave(
        self, phi: Formula, box: Box, min_width: float = 1e-2
    ) -> tuple[list[Box], list[Box], list[Box]]:
        """Partition ``box`` into (delta-sat, unsat, undecided) sub-boxes.

        This is the guaranteed parameter-set synthesis of BioPSy [53]:
        green boxes consist entirely of delta-solutions, red boxes contain
        no solutions, yellow boxes are smaller than ``min_width`` and
        remain undecided.

        Each returned list is sorted by the total lexicographic box
        order, so pavings are byte-identical across ``frontier_size``
        and ``shards`` settings of equal classification.

        With a ``paving_store`` configured, completed pavings persist as
        reusable artifacts and a re-pave under an equal or tightened
        ``delta`` / ``min_width`` resumes from the stored leaves instead
        of re-paving from scratch (unsat leaves carry over verbatim;
        stored sat/undecided leaves are re-judged or width-checked and
        only the boxes whose classification can flip re-enter the
        frontier).
        """
        if self.anytime:
            _progress("icp", "anytime", message="paving",
                      sat=0, unsat=0, undecided=0, final=0)
        store = self._resolved_store()
        plan = None
        if store is not None:
            fp = formula_fingerprint(phi)
            if self.warm_start:
                plan = try_warm_pave(
                    store, phi, fp, box,
                    delta=self.delta, contract_tol=self.contract_tol,
                    min_width=min_width, max_boxes=self.max_boxes,
                )
        if plan is None:
            *parts, processed, truncated = pave_sharded(phi, box, self, min_width)
        else:
            parts = [plan.sat, plan.unsat, plan.undecided]
            if plan.seeds:
                resumed = pave_sharded(phi, box, self, min_width, plan.seeds)
                parts = [kept + new for kept, new in zip(parts, resumed[:3])]
        # the one sort of a paving: shard count, frontier size and the
        # warm-resume merge do not show in the result
        sat, unsat, und = (sorted(part, key=box_sort_key) for part in parts)
        if store is not None and plan is None:
            record_pave(
                store, fp, box,
                delta=self.delta, contract_tol=self.contract_tol,
                min_width=min_width, max_boxes=self.max_boxes,
                paving=(sat, unsat, und), processed=processed,
                truncated=truncated,
            )
        return self._finish_pave(sat, unsat, und)

    def _finish_pave(
        self, sat: list[Box], unsat: list[Box], undecided: list[Box]
    ) -> tuple[list[Box], list[Box], list[Box]]:
        if self.anytime:
            _progress(
                "icp", "anytime", message="paved",
                sat=len(sat), unsat=len(unsat), undecided=len(undecided),
                final=1,
            )
        return sat, unsat, undecided

