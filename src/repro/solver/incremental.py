"""Incremental solving: reusable paving artifacts and warm-started re-solves.

The delta-decision procedures of :mod:`repro.solver.icp` re-pave the
search box from scratch on every query, yet the hottest callers --
cohort sweeps, the EF-CEGIS propose/verify loop, the service's
per-tenant job stream -- solve *near-identical* specs back to back.
The :class:`~repro.service.cache.ResultCache` only hits on
byte-identical specs, so a one-coefficient perturbation or a delta
tightening pays full price.

This module closes that gap with a content-addressed, on-disk
**PavingStore** (atomic writes and corrupt-file quarantine from
:mod:`repro.store`, as in ``service/cache.py``) that persists the
*final frontier* of every completed solve and paving, keyed by the
formula's structural **fingerprint**:

``formula_fingerprint(phi)``
    splits a formula into its constant-free *skeleton* (the compiled
    tape's shape: operators, variables, comparison senses) and the
    ordered tuple of its numeric constants.  Two queries that differ
    only in a bound or coefficient share a skeleton -- exactly the
    "tape-level sensitivity" unit at which stored boxes can be
    re-checked under the new constants.

On a re-solve the warm-start planner classifies the stored artifact by
*what changed* and reuses only what provably survives:

solve artifacts
    * **exact** config -- the stored verdict is returned verbatim.
    * **delta tightened** (same constants/box/tolerance, stored
      ``UNSAT``) -- UNSAT pruning judges at delta ``0`` and is
      delta-independent, and certification at a tighter delta implies
      certification at the looser one, so the cold re-solve replays the
      identical tree: UNSAT is returned with zero search work.
    * **perturbed constants / shrunk box** (stored ``UNSAT`` with a
      recorded :class:`cover <CoverRecorder>`) -- one vectorized judge
      pass of the stored cover under the *new* tape; if every cover box
      is certainly false at the new delta, no delta-solutions exist and
      the verdict is UNSAT.
    * **stored ``DELTA_SAT``** -- the stored witness box is re-judged
      at delta ``0`` under the new tape; certain truth means real
      solutions exist, so UNSAT is impossible and the witness carries
      over.
pave artifacts
    * **exact** config -- the stored partition is returned verbatim.
    * **delta / min_width tightened** -- unsat leaves are
      delta-independent and kept; stored sat/undecided leaves are
      *resumed* (re-judged at the new delta, width-checked, split)
      without re-contracting, seeding the normal frontier loop with
      only the boxes whose classification can flip.

Everything else falls back to a cold solve -- reuse is mandatory-safe,
never heuristic.  Reused verdicts and resumed pavings are byte-identical
to cold solves whenever the cold run's budget does not bind (artifacts
from budget-bound runs are never reused).
"""

from __future__ import annotations

import base64
import functools
import hashlib
import json
import os
import threading
from dataclasses import dataclass

import numpy as np

from repro.expr import Binary, Const, Expr, Unary, Var
from repro.intervals import Box, BoxArray
from repro.logic import (
    And,
    Atom,
    Exists,
    FalseFormula,
    Forall,
    Formula,
    Or,
    TrueFormula,
)
from repro.store import read_or_quarantine, write_atomic

from .tape import CERTAIN_FALSE, CERTAIN_TRUE, compile_formula

__all__ = [
    "Fingerprint",
    "formula_fingerprint",
    "CoverRecorder",
    "shell_slabs",
    "PavingStore",
    "get_store",
    "try_warm_solve",
    "record_solve",
    "try_warm_pave",
    "record_pave",
]

#: Artifact schema version; bump on incompatible layout changes (old
#: entries are then quarantined like any other unreadable artifact).
ARTIFACT_VERSION = 1

#: Cover boxes retained per solve artifact before recording gives up
#: (an overflowing cover disables perturbed-constant reuse for that
#: artifact, never correctness).
COVER_CAP = 100_000

#: Cover boxes judged per vectorized chunk during reuse checks.
_JUDGE_CHUNK = 50_000

#: Artifacts kept per store group (:meth:`PavingStore.put` drops the oldest).
MAX_GROUP_ENTRIES = 64


# ----------------------------------------------------------------------
# Formula fingerprinting (skeleton vs. constants)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Fingerprint:
    """A formula split into structure and numbers.

    ``skeleton`` is the SHA-256 of the constant-free structural form
    (operators, variable names, comparison senses, quantifier shapes);
    ``constants`` is the tuple of numeric constants in deterministic
    preorder.  Same skeleton + same constants == structurally identical
    formula.
    """

    skeleton: str
    constants: tuple[float, ...]


def _fp_expr(e: Expr, out: list[str], consts: list[float]) -> None:
    if isinstance(e, Const):
        out.append(f"c{len(consts)}")
        consts.append(float(e.value))
    elif isinstance(e, Var):
        out.append(f"v:{e.name}")
    elif isinstance(e, Unary):
        out.append(f"u:{e.op}(")
        _fp_expr(e.arg, out, consts)
        out.append(")")
    elif isinstance(e, Binary):
        out.append(f"b:{e.op}(")
        _fp_expr(e.left, out, consts)
        out.append(",")
        _fp_expr(e.right, out, consts)
        out.append(")")
    else:
        raise TypeError(f"cannot fingerprint expression node {type(e).__name__}")


def _fp_formula(phi: Formula, out: list[str], consts: list[float]) -> None:
    if isinstance(phi, TrueFormula):
        out.append("T")
    elif isinstance(phi, FalseFormula):
        out.append("F")
    elif isinstance(phi, Atom):
        out.append(f"A{int(phi.strict)}(")
        _fp_expr(phi.term, out, consts)
        out.append(")")
    elif isinstance(phi, (And, Or)):
        out.append("&(" if isinstance(phi, And) else "|(")
        for p in phi.parts:
            _fp_formula(p, out, consts)
            out.append(",")
        out.append(")")
    elif isinstance(phi, (Exists, Forall)):
        out.append(("E" if isinstance(phi, Exists) else "L") + f":{phi.name}[")
        _fp_expr(phi.lo, out, consts)
        out.append(",")
        _fp_expr(phi.hi, out, consts)
        out.append("](")
        _fp_formula(phi.body, out, consts)
        out.append(")")
    else:
        raise TypeError(f"cannot fingerprint formula node {type(phi).__name__}")


def formula_fingerprint(phi: Formula) -> Fingerprint:
    """Split ``phi`` into its structural skeleton digest and constants."""
    out: list[str] = []
    consts: list[float] = []
    _fp_formula(phi, out, consts)
    digest = hashlib.sha256("".join(out).encode("utf-8")).hexdigest()
    return Fingerprint(digest, tuple(consts))


# ----------------------------------------------------------------------
# UNSAT covers
# ----------------------------------------------------------------------


def shell_slabs(
    b_lo: np.ndarray, b_hi: np.ndarray, c_lo: np.ndarray, c_hi: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Decompose ``B \\ C`` (C contracted inside B) into closed slabs.

    Peels one pair of slabs per dimension where contraction shrank the
    box; the returned slabs together with ``C`` cover ``B``.  Sound for
    covers (overlapping closed boundaries are fine), and empty when the
    contraction did not move (the common case).
    """
    slabs: list[tuple[np.ndarray, np.ndarray]] = []
    cur_lo, cur_hi = b_lo.astype(float).copy(), b_hi.astype(float).copy()
    for d in range(len(cur_lo)):
        if c_lo[d] > cur_lo[d]:
            s_lo, s_hi = cur_lo.copy(), cur_hi.copy()
            s_hi[d] = c_lo[d]
            slabs.append((s_lo, s_hi))
            cur_lo[d] = c_lo[d]
        if c_hi[d] < cur_hi[d]:
            s_lo, s_hi = cur_lo.copy(), cur_hi.copy()
            s_lo[d] = c_hi[d]
            slabs.append((s_lo, s_hi))
            cur_hi[d] = c_hi[d]
    return slabs


class CoverRecorder:
    """Accumulates the UNSAT cover of one cold solve.

    The cover consists of (a) every pruned box -- the contracted box
    for judge-pruned nodes (plus the contraction shell peeled off as
    slabs), the pre-contraction box for contraction-empty nodes -- and
    (b) the contraction shells of every split node.  By induction over
    the branch-and-prune tree the recorded boxes cover the root box of
    a completed UNSAT run, so a later re-solve under perturbed
    constants can prove UNSAT with a single vectorized judge pass over
    the cover instead of a full search.
    """

    __slots__ = ("lo", "hi", "overflow", "cap")

    def __init__(self, cap: int = COVER_CAP):
        self.lo: list[np.ndarray] = []
        self.hi: list[np.ndarray] = []
        self.overflow = False
        self.cap = cap

    def __len__(self) -> int:
        return len(self.lo)

    def add(self, lo: np.ndarray, hi: np.ndarray) -> None:
        """Record one cover box (bounds copied)."""
        if self.overflow:
            return
        if len(self.lo) >= self.cap:
            self.overflow = True
            self.lo.clear()
            self.hi.clear()
            return
        self.lo.append(np.asarray(lo, dtype=float).copy())
        self.hi.append(np.asarray(hi, dtype=float).copy())

    def extend_pairs(self, pairs: list[tuple[np.ndarray, np.ndarray]]) -> None:
        """Absorb cover pieces shipped back from a shard epoch."""
        for lo, hi in pairs:
            self.add(lo, hi)

    def arrays(self) -> tuple[np.ndarray, np.ndarray] | None:
        """The cover as ``(n, dim)`` arrays, or ``None`` on overflow."""
        if self.overflow:
            return None
        if not self.lo:
            return np.empty((0, 0)), np.empty((0, 0))
        return np.array(self.lo), np.array(self.hi)


# ----------------------------------------------------------------------
# Packing helpers (exact float64 round-trips, compact on disk)
# ----------------------------------------------------------------------


def _pack_rows(lo: np.ndarray, hi: np.ndarray) -> dict:
    """Pack box rows as base64 little-endian float64 (bit-exact)."""
    lo = np.ascontiguousarray(lo, dtype="<f8")
    hi = np.ascontiguousarray(hi, dtype="<f8")
    return {
        "n": int(lo.shape[0]),
        "lo": base64.b64encode(lo.tobytes()).decode("ascii"),
        "hi": base64.b64encode(hi.tobytes()).decode("ascii"),
    }


def _unpack_rows(payload: dict, dim: int) -> tuple[np.ndarray, np.ndarray]:
    n = int(payload["n"])
    lo = np.frombuffer(base64.b64decode(payload["lo"]), dtype="<f8")
    hi = np.frombuffer(base64.b64decode(payload["hi"]), dtype="<f8")
    if lo.size != n * dim or hi.size != n * dim:
        raise ValueError("packed box payload has the wrong size")
    return lo.reshape(n, dim).astype(float), hi.reshape(n, dim).astype(float)


def _pack_boxes(boxes: list[Box], names: tuple[str, ...]) -> dict:
    rows = BoxArray.from_boxes(boxes, names)
    return _pack_rows(rows.lo, rows.hi)


def _unpack_boxes(payload: dict, names: tuple[str, ...]) -> list[Box]:
    return BoxArray(names, *_unpack_rows(payload, len(names))).to_boxes()


# ----------------------------------------------------------------------
# The on-disk store
# ----------------------------------------------------------------------


class PavingStore:
    """Content-addressed, on-disk paving artifacts with reuse counters.

    Layout: ``<root>/<group>/<ident>.json`` where ``group`` hashes the
    invariant identity ``(kind, skeleton, variable names)`` -- every
    artifact a warm-start could possibly reuse for a query lives in one
    directory -- and ``ident`` hashes the exact solve configuration
    (constants, box, delta, min_width, contract_tol), so re-solving the
    identical problem overwrites in place.  Writes are atomic and
    unreadable or schema-incompatible artifacts are quarantined to
    ``<ident>.corrupt``, through the same :mod:`repro.store` helpers as
    :class:`~repro.service.cache.ResultCache` entries.  Each group keeps
    at most :data:`MAX_GROUP_ENTRIES` artifacts.

    Counters (:meth:`stats`): ``hits`` (exact-config reuse),
    ``partial`` (delta-tightened / cover-rejudge / witness-recheck /
    paving-resume reuse), ``misses`` (cold fall-back), ``stores``,
    ``quarantined``.
    """

    def __init__(self, root: str | os.PathLike):
        self.root = os.fspath(root)
        self._lock = threading.Lock()
        self.hits = 0
        self.partial = 0
        self.misses = 0
        self.stores = 0
        self.quarantined = 0

    # -- counters ------------------------------------------------------
    def stats(self) -> dict[str, float]:
        """Reuse counters of this store instance."""
        with self._lock:
            return {
                "hits": self.hits,
                "partial": self.partial,
                "misses": self.misses,
                "stores": self.stores,
                "quarantined": self.quarantined,
            }

    def count(self, outcome: str) -> None:
        """Bump one reuse counter (``hit`` / ``partial`` / ``miss``)."""
        with self._lock:
            if outcome == "hit":
                self.hits += 1
            elif outcome == "partial":
                self.partial += 1
            else:
                self.misses += 1

    # -- addressing ----------------------------------------------------
    def _group_dir(self, kind: str, skeleton: str, names: tuple[str, ...]) -> str:
        blob = json.dumps([kind, skeleton, list(names)], separators=(",", ":"))
        return os.path.join(
            self.root, hashlib.sha256(blob.encode("utf-8")).hexdigest()[:40]
        )

    @staticmethod
    def _ident(payload_identity: list) -> str:
        blob = json.dumps(payload_identity, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:40]

    # -- read ----------------------------------------------------------
    def candidates(
        self, kind: str, skeleton: str, names: tuple[str, ...]
    ) -> list[dict]:
        """Load every readable artifact of one (kind, skeleton, names)
        group, newest first; unreadable entries are quarantined."""
        group = self._group_dir(kind, skeleton, names)
        try:
            entries = [e for e in os.scandir(group) if e.name.endswith(".json")]
        except OSError:
            return []
        entries.sort(key=lambda e: (-self._mtime(e), e.name))

        def parse(text: str) -> dict:
            payload = json.loads(text)
            if (
                payload.get("version") != ARTIFACT_VERSION
                or payload.get("kind") != kind
                or tuple(payload.get("names", ())) != names
            ):
                raise ValueError("artifact schema mismatch")
            return payload

        out: list[dict] = []
        for entry in entries:
            payload, moved = read_or_quarantine(entry.path, parse)
            if moved:
                with self._lock:
                    self.quarantined += 1
            if payload is not None:
                out.append(payload)
        return out

    @staticmethod
    def _mtime(entry: os.DirEntry) -> float:
        try:
            return entry.stat().st_mtime
        except OSError:
            return 0.0

    # -- write ---------------------------------------------------------
    def put(
        self,
        kind: str,
        skeleton: str,
        names: tuple[str, ...],
        identity: list,
        payload: dict,
    ) -> None:
        """Atomically store one artifact under its exact-config address."""
        group = self._group_dir(kind, skeleton, names)
        write_atomic(
            os.path.join(group, f"{self._ident(identity)}.json"),
            json.dumps(payload, separators=(",", ":")),
        )
        with self._lock:
            self.stores += 1
        self._prune(group)

    def _prune(self, group: str) -> None:
        """Keep each group bounded: drop the oldest artifacts."""
        try:
            entries = [e for e in os.scandir(group) if e.name.endswith(".json")]
        except OSError:
            return
        excess = len(entries) - MAX_GROUP_ENTRIES
        if excess <= 0:
            return
        entries.sort(key=lambda e: (self._mtime(e), e.name))
        for entry in entries[:excess]:
            try:
                os.remove(entry.path)
            except OSError:
                pass


#: One shared store instance per canonical path per process, so every
#: engine/solver in a serving process aggregates into one counter set
#: (GET /cluster reports these).
_STORES: dict[str, PavingStore] = {}
_STORES_LOCK = threading.Lock()


def get_store(path: str | os.PathLike | PavingStore) -> PavingStore:
    """The process-wide :class:`PavingStore` for ``path`` (one per path)."""
    if isinstance(path, PavingStore):
        return path
    canonical = os.path.abspath(os.fspath(path))
    with _STORES_LOCK:
        store = _STORES.get(canonical)
        if store is None:
            store = PavingStore(canonical)
            _STORES[canonical] = store
        return store


# ----------------------------------------------------------------------
# Solve artifacts: record + warm-start planning
# ----------------------------------------------------------------------


def _problem(fp: Fingerprint, box: Box, contract_tol: float) -> list:
    """What makes two solves or pavings the same problem up to ``delta``
    and ``min_width``: constants, box bounds and ``contract_tol``."""
    root = BoxArray.from_box(box)
    return [list(fp.constants), root.lo[0].tolist(), root.hi[0].tolist(),
            float(contract_tol)]


def _same_problem(art: dict, problem: list, max_boxes: int) -> bool:
    """Whether stored artifact ``art`` answers ``problem`` (up to ``delta``
    and ``min_width``) within a budget of ``max_boxes``."""
    stored = [art["constants"], art["box_lo"], art["box_hi"], art["contract_tol"]]
    return stored == problem and max_boxes >= art["processed"]


def _record(
    store: PavingStore, kind: str, fp: Fingerprint, box: Box, *,
    delta: float, contract_tol: float, min_width: float,
    processed: int, budget_bound: bool, **body,
) -> None:
    """Store one artifact: the header every artifact carries, then
    ``body``, under the address of its exact configuration."""
    names = tuple(box.names)
    constants, box_lo, box_hi, contract_tol = _problem(fp, box, contract_tol)
    payload = {
        "version": ARTIFACT_VERSION,
        "kind": kind,
        "skeleton": fp.skeleton,
        "constants": constants,
        "names": list(names),
        "box_lo": box_lo,
        "box_hi": box_hi,
        "delta": float(delta),
        "contract_tol": contract_tol,
        "min_width": float(min_width),
        "processed": int(processed),
        "budget_bound": bool(budget_bound),
        **body,
    }
    identity = [constants, box_lo, box_hi, float(delta), contract_tol,
                float(min_width)]
    store.put(kind, fp.skeleton, names, identity, payload)


def record_solve(
    store: PavingStore,
    fp: Fingerprint,
    box: Box,
    *,
    delta: float,
    contract_tol: float,
    min_width: float,
    max_boxes: int,
    result,
    recorder: CoverRecorder | None,
) -> None:
    """Persist a completed solve (UNSAT cover / DELTA_SAT witness).

    ``UNKNOWN`` results are never stored: a budget-starved verdict
    certifies nothing a re-solve could reuse.
    """
    from .icp import Status  # local: avoid import cycle

    if result.status is Status.UNKNOWN:
        return
    processed = int(result.stats.boxes_processed)
    witness = cover = None
    if result.witness_box is not None:
        w = BoxArray.from_box(result.witness_box, box.names)
        witness = {"lo": w.lo[0].tolist(), "hi": w.hi[0].tolist()}
    if result.status is Status.UNSAT and recorder is not None:
        arrays = recorder.arrays()
        if arrays is not None:
            cover = _pack_rows(*arrays)
    _record(
        store, "solve", fp, box,
        delta=delta, contract_tol=contract_tol, min_width=min_width,
        processed=processed, budget_bound=processed >= int(max_boxes),
        status=result.status.value, witness=witness, cover=cover,
    )


def _judge_all_false(compiled, names, lo: np.ndarray, hi: np.ndarray,
                     delta: float) -> bool:
    """One chunked vectorized judge pass: every row certainly false?"""
    for start in range(0, lo.shape[0], _JUDGE_CHUNK):
        chunk = BoxArray(names, lo[start:start + _JUDGE_CHUNK],
                         hi[start:start + _JUDGE_CHUNK])
        if not (compiled.judge(chunk, delta) == CERTAIN_FALSE).all():
            return False
    return True


def try_warm_solve(
    store: PavingStore,
    phi: Formula,
    fp: Fingerprint,
    box: Box,
    *,
    delta: float,
    contract_tol: float,
    min_width: float,
    max_boxes: int,
):
    """Plan a warm-started solve; ``None`` means fall back cold.

    Applies the reuse rules documented in the module docstring, in
    priority order (exact > delta-tightened > cover-rejudge >
    witness-recheck).  Counts a ``hit`` / ``partial`` / ``miss`` on the
    store either way.
    """
    from .icp import Result, SolverStats, Status  # local: avoid import cycle

    names = tuple(box.names)
    problem = _problem(fp, box, contract_tol)
    _, box_lo, box_hi, _ = problem
    candidates = [
        a for a in store.candidates("solve", fp.skeleton, names)
        if not a.get("budget_bound")
        and a.get("status") in (Status.UNSAT.value, Status.DELTA_SAT.value)
    ]
    same = [a for a in candidates if _same_problem(a, problem, max_boxes)]
    compiled = functools.cache(lambda: compile_formula(phi))

    def finish(status, witness_box, outcome: str) -> Result:
        store.count(outcome)
        return Result(status, witness_box, delta, SolverStats())

    # Rule 1: exact configuration -- the stored verdict, verbatim.
    for art in same:
        if art["delta"] == delta and art["min_width"] == min_width:
            witness = None
            if art["witness"] is not None:
                w = art["witness"]
                witness = BoxArray(names, w["lo"], w["hi"]).row(0)
            return finish(Status(art["status"]), witness, "hit")

    # Rule 2: delta/min_width tightened, stored UNSAT -- pruning judges
    # at delta 0 (delta-independent) and tighter-delta certification
    # implies looser-delta certification, so the cold tree replays
    # identically: UNSAT with zero search work.
    for art in same:
        if (
            art["status"] == Status.UNSAT.value
            and delta <= art["delta"]
            and min_width <= art["min_width"]
        ):
            return finish(Status.UNSAT, None, "partial")

    # Rule 3: stored UNSAT cover, new box inside the stored box --
    # re-judge the cover under the NEW tape (perturbed constants /
    # changed delta / changed tolerance all allowed).  All certainly
    # false at the new delta => no delta-solutions anywhere => UNSAT.
    for art in candidates:
        if art["status"] != Status.UNSAT.value or art["cover"] is None:
            continue
        if not _bounds_within(box_lo, box_hi, art["box_lo"], art["box_hi"]):
            continue
        try:
            cover_lo, cover_hi = _unpack_rows(art["cover"], len(names))
        except (ValueError, KeyError, TypeError):
            continue
        if _judge_all_false(compiled(), names, cover_lo, cover_hi, delta):
            return finish(Status.UNSAT, None, "partial")

    # Rule 4: stored DELTA_SAT witness inside the new box, certainly
    # true at delta 0 under the NEW tape -- real solutions exist, UNSAT
    # is impossible, and the witness satisfies the new delta-weakening.
    for art in candidates:
        if art["status"] != Status.DELTA_SAT.value or art["witness"] is None:
            continue
        w_lo, w_hi = art["witness"]["lo"], art["witness"]["hi"]
        if not _bounds_within(w_lo, w_hi, box_lo, box_hi):
            continue
        witness = BoxArray(names, w_lo, w_hi)
        if (compiled().judge(witness, 0.0) == CERTAIN_TRUE).all():
            return finish(Status.DELTA_SAT, witness.row(0), "partial")

    store.count("miss")
    return None


def _bounds_within(lo, hi, outer_lo, outer_hi) -> bool:
    return all(float(a) >= float(oa) for a, oa in zip(lo, outer_lo)) and all(
        float(b) <= float(ob) for b, ob in zip(hi, outer_hi)
    )


# ----------------------------------------------------------------------
# Pave artifacts: record + warm-start planning
# ----------------------------------------------------------------------


def record_pave(
    store: PavingStore,
    fp: Fingerprint,
    box: Box,
    *,
    delta: float,
    contract_tol: float,
    min_width: float,
    max_boxes: int,
    paving: tuple[list[Box], list[Box], list[Box]],
    processed: int,
    truncated: bool,
) -> None:
    """Persist one completed paving (its three classified leaf lists)."""
    names = tuple(box.names)
    sat, unsat, undecided = (_pack_boxes(part, names) for part in paving)
    _record(
        store, "pave", fp, box,
        delta=delta, contract_tol=contract_tol, min_width=min_width,
        processed=processed,
        budget_bound=truncated or int(processed) >= int(max_boxes),
        sat=sat, unsat=unsat, undecided=undecided,
    )


@dataclass
class PaveResume:
    """A planned warm paving.

    ``seeds`` empty means the stored partition carries over whole (a
    full hit); otherwise the kept lists are final and ``seeds`` must be
    run through the normal frontier loop (they are the split children
    of stored leaves whose classification could flip under the new
    delta / min_width).
    """

    sat: list[Box]
    unsat: list[Box]
    undecided: list[Box]
    seeds: list[Box]
    outcome: str  # "hit" | "partial"


def try_warm_pave(
    store: PavingStore,
    phi: Formula,
    fp: Fingerprint,
    box: Box,
    *,
    delta: float,
    contract_tol: float,
    min_width: float,
    max_boxes: int,
) -> PaveResume | None:
    """Plan a warm paving; ``None`` means fall back cold.

    Reusable deltas: exact config (full hit), or delta and/or
    ``min_width`` tightened with everything else identical (resume).
    Unsat leaves are judge-at-0 / contraction facts and carry over
    verbatim; stored sat leaves are re-judged at the new delta and kept,
    demoted to undecided, or split into seeds; stored undecided leaves
    are width-checked against the new ``min_width``.  The stored leaves
    are already post-contraction, so the resume pass performs *no*
    re-contraction -- exactly the classification steps the cold tree
    would replay at those nodes.
    """
    names = tuple(box.names)
    problem = _problem(fp, box, contract_tol)
    art = next(
        (
            cand for cand in store.candidates("pave", fp.skeleton, names)
            if not cand.get("budget_bound")
            and _same_problem(cand, problem, max_boxes)
            and delta <= cand["delta"]
            and min_width <= cand["min_width"]
        ),
        None,
    )
    if art is None:
        store.count("miss")
        return None

    try:
        sat = _unpack_boxes(art["sat"], names)
        unsat = _unpack_boxes(art["unsat"], names)
        undecided = _unpack_boxes(art["undecided"], names)
    except (ValueError, KeyError, TypeError):
        store.count("miss")
        return None

    if art["delta"] == delta and art["min_width"] == min_width:
        store.count("hit")
        return PaveResume(sat, unsat, undecided, [], "hit")

    keep_sat: list[Box] = []
    keep_und: list[Box] = []
    seeds: list[Box] = []

    # Stored sat leaves: still certified at the tighter delta?  (Their
    # judge-at-0 value cannot be FALSE -- the recording run checked.)
    if sat:
        batch = BoxArray.from_boxes(sat, names)
        still = compile_formula(phi).judge(batch, delta) == CERTAIN_TRUE
        for keep, b in zip(still, sat):
            if keep:
                keep_sat.append(b)
            elif b.max_width() <= min_width:
                keep_und.append(b)
            else:
                seeds.extend(b.split())

    # Stored undecided leaves: certification at a tighter delta is
    # impossible (they failed at the looser one), so only the width
    # check can change.
    if min_width == art["min_width"]:
        keep_und.extend(undecided)
    else:
        for b in undecided:
            if b.max_width() <= min_width:
                keep_und.append(b)
            else:
                seeds.extend(b.split())

    store.count("hit" if not seeds else "partial")
    return PaveResume(
        keep_sat, unsat, keep_und, seeds, "hit" if not seeds else "partial"
    )
