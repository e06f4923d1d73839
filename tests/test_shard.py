"""Unit tests of the sharded work-stealing ICP driver."""

import hashlib
import pickle

import numpy as np
import pytest

from repro.expr import var, variables
from repro.intervals import Box
from repro.logic import And, Atom, Or, in_range
from repro.models import fenton_karma_mode
from repro.progress import progress_scope
from repro.service.backends import ExecutorBackend, ThreadBackend
from repro.solver import DeltaSolver, Status
from repro.solver.shard import (
    ShardPlan,
    _pave_epoch,
    _rebalance,
    _ShardQueue,
    _solve_epoch,
    lex_key,
    solve_sharded,
)

x, y = variables("x y")


def box2(xb=(-1.5, 1.5), yb=(-1.5, 1.5)) -> Box:
    return Box.from_bounds({"x": xb, "y": yb})


def annulus():
    phi = And(in_range(x ** 2 + y ** 2, 0.55, 0.95), in_range(x * y, -0.2, 0.6))
    return phi, box2()


def paving_tuples(parts):
    return [
        [tuple((k, b[k].lo, b[k].hi) for k in b.names) for b in part]
        for part in parts
    ]


class TestLexTieBreak:
    """Regression: result ordering must not depend on heap pop order."""

    def test_paving_order_identical_across_frontier_sizes(self):
        # before the total tie-break + sorted outputs, the serialized
        # paving order depended on how many boxes each pass popped
        phi, b = annulus()
        pavings = [
            paving_tuples(
                DeltaSolver(
                    delta=1e-3, frontier_size=k, max_boxes=200_000,
                    shards=n, shard_backend="inline",
                ).pave(phi, b, min_width=0.1)
            )
            for k, n in ((1, 1), (8, 1), (64, 1), (1, 2))
        ]
        assert pavings[0] == pavings[1] == pavings[2] == pavings[3]

    def test_witness_independent_of_disjunct_order(self):
        # two symmetric certifiable cells: the lex-least certified box
        # must win no matter how the formula lists them
        cells = [in_range(x, 0.5, 0.9), in_range(x, -0.9, -0.5)]
        b = Box.from_bounds({"x": (-1.0, 1.0)})
        r1 = DeltaSolver(delta=0.01)._solve_impl(Or(*cells), b)
        r2 = DeltaSolver(delta=0.01)._solve_impl(Or(*reversed(cells)), b)
        assert r1.status is r2.status is Status.DELTA_SAT
        assert r1.witness_box == r2.witness_box

    def test_lex_key_totality(self):
        assert lex_key([0.0, 1.0], [1.0, 2.0]) < lex_key([0.0, 1.5], [1.0, 2.0])
        assert lex_key([0.0], [1.0]) < lex_key([0.0], [2.0])


class TestShardedConformance:
    @pytest.mark.parametrize("shards", [2, 3, 5])
    def test_paving_identical_to_serial(self, shards):
        phi, b = annulus()
        base = DeltaSolver(delta=1e-3, max_boxes=200_000)
        sharded = DeltaSolver(
            delta=1e-3, max_boxes=200_000, shards=shards, shard_backend="inline"
        )
        assert paving_tuples(base.pave(phi, b, min_width=0.1)) == paving_tuples(
            sharded.pave(phi, b, min_width=0.1)
        )

    @pytest.mark.parametrize("backend", ["inline", "thread"])
    def test_backend_does_not_change_results(self, backend):
        phi, b = annulus()
        solver = DeltaSolver(
            delta=1e-3, max_boxes=200_000, shards=3, shard_backend=backend
        )
        ref = DeltaSolver(
            delta=1e-3, max_boxes=200_000, shards=3, shard_backend="inline"
        )
        assert paving_tuples(solver.pave(phi, b, min_width=0.1)) == paving_tuples(
            ref.pave(phi, b, min_width=0.1)
        )
        r1 = solver._solve_impl(phi, b)
        r2 = ref._solve_impl(phi, b)
        assert r1.status is r2.status
        assert r1.witness_box == r2.witness_box

    @pytest.mark.slow
    def test_process_backend_round_trip(self):
        # formulas and box chunks must pickle to worker processes and
        # classify identically there
        phi, b = annulus()
        serial = DeltaSolver(delta=1e-3, max_boxes=200_000)
        sharded = DeltaSolver(
            delta=1e-3, max_boxes=200_000, shards=2, shard_backend="process"
        )
        assert paving_tuples(serial.pave(phi, b, min_width=0.1)) == paving_tuples(
            sharded.pave(phi, b, min_width=0.1)
        )

    def test_sharded_verdicts(self):
        b = Box.from_bounds({"x": (-2.0, 2.0)})
        sat = in_range(var("x") * var("x"), 0.5, 1.0)
        unsat = And(var("x") >= 1.5, var("x") * var("x") <= 1.0)
        for phi, expected in ((sat, Status.DELTA_SAT), (unsat, Status.UNSAT)):
            res = DeltaSolver(
                delta=1e-3, shards=3, shard_backend="inline"
            )._solve_impl(phi, b)
            assert res.status is expected

    def test_budget_exhaustion_returns_unknown_with_box(self):
        phi, b = annulus()
        res = DeltaSolver(
            delta=1e-9, max_boxes=12, shards=3, shard_backend="inline"
        )._solve_impl(phi, b)
        assert res.status is Status.UNKNOWN
        assert res.witness_box is not None
        assert res.stats.boxes_processed <= 12 + 3  # one epoch of slack

    def test_sharded_run_is_reproducible(self):
        phi, b = annulus()
        solver = DeltaSolver(
            delta=1e-3, max_boxes=200_000, shards=4, shard_backend="thread"
        )
        first = paving_tuples(solver.pave(phi, b, min_width=0.1))
        second = paving_tuples(solver.pave(phi, b, min_width=0.1))
        assert first == second


class TestWorkStealing:
    @staticmethod
    def _queue_with(widths):
        q = _ShardQueue()
        for i, w in enumerate(widths):
            q.push(np.array([float(i)]), np.array([float(i) + w]), 0)
        return q

    def test_rebalance_moves_widest_to_starved(self):
        rich = self._queue_with([8.0, 4.0, 2.0, 1.0, 0.5, 0.25])
        poor = _ShardQueue()
        moved = _rebalance([rich, poor])
        assert moved == 3
        assert len(rich) == 3 and len(poor) == 3
        # the starved shard received the widest pending boxes
        widths = sorted(-e[0] for e in poor.entries)
        assert widths == [2.0, 4.0, 8.0]

    def test_rebalance_noop_when_balanced(self):
        a = self._queue_with([1.0, 2.0])
        b = self._queue_with([1.5, 2.5])
        assert _rebalance([a, b]) == 0
        assert len(a) == len(b) == 2

    def test_rebalance_empty(self):
        assert _rebalance([_ShardQueue(), _ShardQueue()]) == 0

    def test_take_chunk_orders_widest_then_lex(self):
        q = _ShardQueue()
        q.push(np.array([1.0]), np.array([2.0]), 0)   # width 1, lex later
        q.push(np.array([0.0]), np.array([1.0]), 0)   # width 1, lex first
        q.push(np.array([0.0]), np.array([3.0]), 0)   # width 3
        chunk = q.take_chunk(3)
        assert [float(e[4][0] - e[3][0]) for e in chunk] == [3.0, 1.0, 1.0]
        assert float(chunk[1][3][0]) == 0.0  # lex tie-break among width-1


class _RefusingBackend(ExecutorBackend):
    def submit(self, fn, /, *args):
        raise AssertionError("a one-shard run must not use the backend")


class TestOneShard:
    """``shards=1`` is the one-shard case of the epoch driver."""

    def test_never_touches_the_backend(self):
        phi, b = annulus()
        solver = DeltaSolver(delta=1e-3, shards=1, shard_backend=_RefusingBackend())
        assert solver._solve_impl(phi, b).status is Status.DELTA_SAT
        sat, _, _ = solver.pave(phi, b, min_width=0.1)
        assert sat

    def test_unknown_box_independent_of_shard_count(self):
        # intervals cannot refute x - x >= 1e-20, so every leaf ends
        # narrow and unresolved; the right-hand cell turns narrow first
        phi = Or(
            And(x <= 0.25, x - x >= 1e-20),
            And(in_range(x, 0.9, 0.90001), x - x >= 1e-20),
        )
        b = Box.from_bounds({"x": (0.0, 1.0)})
        results = [
            DeltaSolver(
                delta=1e-6, min_width=1e-3, frontier_size=k,
                shards=n, shard_backend="inline",
            )._solve_impl(phi, b)
            for k, n in ((64, 1), (1, 1), (64, 2))
        ]
        assert all(r.status is Status.UNKNOWN for r in results)
        # the lex-least unresolved box, not the first one found
        assert results[0].witness_box["x"].hi < 0.25
        assert results[0].witness_box == results[1].witness_box
        assert results[0].witness_box == results[2].witness_box

    def test_emits_one_icp_event_per_pass(self):
        phi, b = annulus()
        solver = DeltaSolver(delta=1e-3, frontier_size=8, max_boxes=40)
        events = []
        with progress_scope(sink=events.append):
            r = solver._solve_impl(phi, b)
            solver.pave(phi, b, min_width=0.3)
        assert not [e for e in events if e.source == "shard"]
        solve_ev = [e for e in events if e.stage == "branch-and-prune"]
        pave_ev = [e for e in events if e.stage == "paving"]
        assert [e.source for e in solve_ev + pave_ev] == ["icp"] * len(
            solve_ev + pave_ev
        )
        assert solve_ev[-1].counters["boxes"] == r.stats.boxes_processed
        assert all("queue" in e.counters for e in solve_ev + pave_ev)
        assert pave_ev[-1].counters["boxes"] == 40


class TestShardPlan:
    def test_injected_backend_survives_for_reuse(self):
        # a caller-provided pool is NOT torn down between calls: the
        # CEGIS loop reuses one pool across its propose/verify solves
        phi, b = annulus()
        backend = ThreadBackend(workers=2)
        solver = DeltaSolver(
            delta=1e-3, max_boxes=50_000, shards=2, shard_backend=backend
        )
        first = paving_tuples(solver.pave(phi, b, min_width=0.3))
        assert backend._pool is not None  # still warm
        second = paving_tuples(solver.pave(phi, b, min_width=0.3))
        assert first == second
        backend.shutdown()

    def test_named_backend_is_owned_and_released(self):
        import repro.solver.shard as shard_mod

        created = []
        original = shard_mod.make_backend

        def recording(name, workers=None):
            backend = original(name, workers)
            created.append(backend)
            return backend

        phi, b = annulus()
        shard_mod.make_backend = recording
        try:
            DeltaSolver(
                delta=1e-3, max_boxes=50_000, shards=2, shard_backend="thread"
            ).pave(phi, b, min_width=0.3)
        finally:
            shard_mod.make_backend = original
        assert len(created) == 1
        assert created[0]._pool is None  # shutdown() ran inside the call

    def test_plan_shutdown_respects_ownership(self):
        backend = ThreadBackend(workers=1)
        backend.submit(lambda: None).result()
        ShardPlan(1, backend, owns_backend=False).shutdown()
        assert backend._pool is not None  # caller-owned: left running
        owned = ShardPlan(1, backend, owns_backend=True)
        owned.shutdown()
        owned.shutdown()  # idempotent
        assert backend._pool is None


# ----------------------------------------------------------------------
# Pinned bits of the solver path: the epoch passes and a budget-bound
# search over the Fenton-Karma dome query (the ``solver`` benchmark's
# fk-dome jobs), so a change to the epoch's work cannot move a bit
# ----------------------------------------------------------------------

_FK_PARAMS = {"tau_r": (10.0, 38.0), "tau_si": (28.0, 130.0)}


def _fk_dome(to_level, v):
    """The falsify-ascent barrier query of ``cardiac-fk-dome`` and its box."""
    system = fenton_karma_mode("excited")
    fixed = [p for p in system.params if p not in _FK_PARAMS]
    field = system.substitute_params(fixed).derivatives["u"]
    phi = (var("u") >= 0.75) & (var("u") <= to_level) & Atom(field, strict=False)
    box = Box.from_bounds(
        {"u": (0.75, to_level), "v": v, "w": (0.0, 1.0), **_FK_PARAMS}
    )
    return phi, box


def _seeded_frontier(box, n, seed):
    """``n`` sub-boxes of ``box``: per dimension a width of 1/64 to all
    of the range, half of them flush with the upper bound (where the
    dome query's solutions sit)."""
    rng = np.random.default_rng(seed)
    names = tuple(box.names)
    lo0 = np.array([box[k].lo for k in names])
    hi0 = np.array([box[k].hi for k in names])
    frac = rng.choice([1 / 64, 1 / 8, 1 / 2, 1.0], size=(n, len(names)))
    start = rng.random((n, len(names))) * (1 - frac)
    start = np.where(rng.random((n, len(names))) < 0.5, 1 - frac, start)
    lo = lo0 + start * (hi0 - lo0)
    return names, lo, np.minimum(lo + frac * (hi0 - lo0), hi0)


def _bits(obj, out):
    """Append a canonical text of ``obj`` with every float as ``float.hex``."""
    if isinstance(obj, dict):
        for k in sorted(obj):
            out.append(f"{k}:")
            _bits(obj[k], out)
    elif isinstance(obj, (list, tuple)):
        out.append(f"[{len(obj)}")
        for v in obj:
            _bits(v, out)
        out.append("]")
    elif isinstance(obj, np.ndarray):
        out.append(f"{obj.dtype.kind}{obj.shape}")
        out.extend(
            float(v).hex() if obj.dtype.kind == "f" else str(int(v))
            for v in obj.ravel().tolist()
        )
    elif isinstance(obj, float):
        out.append(obj.hex())
    else:
        out.append(repr(obj))


def _digest(obj) -> str:
    out: list[str] = []
    _bits(obj, out)
    return hashlib.sha256(" ".join(out).encode()).hexdigest()


#: (to_level, v bounds, delta, min_width): the budget job's query, whose
#: frontier splits; the same with leaves wider than tau_r's smallest
#: pieces, so rows end unresolved; and the gated job's query.
EPOCH_CASES = {
    "budget": (0.88, (0.0, 0.01), 1e-6, 1e-12),
    "budget-wide-leaves": (0.88, (0.0, 0.01), 1e-6, 5.0),
    "gated": (0.82, (0.0, 0.05), 1e-4, 1e-12),
}

#: sha256 of the ``_solve_epoch`` (with its UNSAT cover) and
#: ``_pave_epoch`` outputs over a 64-row seeded frontier, taken before
#: the epoch judged both thresholds in one pass.
EPOCH_DIGESTS = {
    "budget": (
        "9b013d090bc52922aef920a1526de5a05938a3af8e663203655dd724f99c398f",
        "82decb3df76f2b4cc4743e2a9b6d73bb9cc08daa0628c6f50925266193a13b81",
    ),
    "budget-wide-leaves": (
        "1b10329b215cbf01b0529d3597dc9c95d35594c93534c313a34e114a7264d161",
        "78933e6e5e9bd1b934bff6573ca177b581eea5c25910e8e792539b387197c9d0",
    ),
    "gated": (
        "05735f22dbd73fd80ab0d361ca0f91f432ab09a611445a7b8d6e7f1e24e46d66",
        "62a4443ea77b657d12bbaf531317b8a446c93d24f84a46958ddf3c06f7840c82",
    ),
}

#: Taken with EPOCH_DIGESTS: the certifying epoch over a frontier near
#: the gated job's witness, and the fk-dome-budget search at
#: ``max_boxes=2000`` (its fallback box bits and counters).
GATED_LOCAL_DIGESTS = (
    "17629f41e3cb95ef289a6d0e6652f2a7d466bfbee1addd7078bcdbbdba1ddfe2",
    "ffb0f07727806b277fadbe6d15998e50b8d6918c7506a39e4df193bf38be53d0",
)
BUDGET_COUNTERS = (2000, 1, 1999)
BUDGET_DIGEST = "00d947792b89696d4c7c97c8a2441f8ca0192e8398339cc340332938495ee7a0"


class TestPinnedSolverPath:
    @pytest.mark.parametrize("case", sorted(EPOCH_CASES))
    def test_epoch_bits(self, case):
        to_level, v, delta, min_width = EPOCH_CASES[case]
        phi, box = _fk_dome(to_level, v)
        names, lo, hi = _seeded_frontier(box, 64, seed=0)
        blob = pickle.dumps(phi)
        depths = np.arange(64) % 5
        solved = _solve_epoch(blob, names, lo, hi, depths, delta, 1e-2, min_width, True)
        paved = _pave_epoch(blob, names, lo, hi, delta, 1e-2, min_width)
        assert (_digest(solved), _digest(paved)) == EPOCH_DIGESTS[case]

    def test_gated_frontier_certifies(self):
        # a frontier near the gated job's witness: the early-exit path
        phi, _ = _fk_dome(0.82, (0.0, 0.05))
        local = Box.from_bounds({
            "u": (0.75, 0.76), "v": (0.045, 0.05), "w": (0.45, 0.55),
            "tau_r": (30.0, 33.0), "tau_si": (115.0, 125.0),
        })
        names, lo, hi = _seeded_frontier(local, 64, seed=1)
        blob = pickle.dumps(phi)
        solved = _solve_epoch(
            blob, names, lo, hi, np.zeros(64, dtype=int), 1e-4, 1e-2, 1e-12, True
        )
        paved = _pave_epoch(blob, names, lo, hi, 1e-4, 1e-2, 1e-12)
        assert solved["witnesses"] and solved["children"] is None
        assert paved["sat"]
        assert (_digest(solved), _digest(paved)) == GATED_LOCAL_DIGESTS

    def test_budget_search_bits(self):
        phi, box = _fk_dome(0.88, (0.0, 0.01))
        r = solve_sharded(phi, box, DeltaSolver(delta=1e-6, max_boxes=2000))
        s = r.stats
        got = (
            r.status.value,
            [(k, r.witness_box[k].lo, r.witness_box[k].hi) for k in box.names],
            s.boxes_processed, s.boxes_pruned, s.splits,
        )
        assert got[0] == "unknown" and got[2:] == BUDGET_COUNTERS
        assert _digest(got) == BUDGET_DIGEST
