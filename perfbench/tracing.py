"""Layer tracing for the benchmark: wrappers installed from outside ``src/``.

:func:`install` wraps the public entry point of every layer named in
``README.md`` (interval kernel, tape, ICP, ODEs, hybrid simulation,
SMC, Lyapunov/BMC, tasks, engine, result cache, paving store).  Each
wrapped call records one span -- name, start, end, parent span, job --
into per-thread column buffers kept in memory; :meth:`Tracer.summary`
folds them into the per-layer metrics and :meth:`Tracer.dump` writes the
raw spans out when the benchmark ends.

Module-level functions are patched wherever a caller looks them up:
``from repro.odes import rk45`` binds a copy in the importing module, so
every loaded ``repro`` module that holds the original object gets the
wrapper.  :func:`check_call_sites` proves the known call sites were
reached.  Nothing here is imported by an untraced run.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from array import array

import numpy as np

#: Interval methods traced as ``intervals.<op>`` (the arithmetic and
#: elementary functions the tape calls; lattice ops stay in the caller).
INTERVAL_OPS = (
    "__add__", "__sub__", "__neg__", "__mul__", "inverse", "__truediv__",
    "__abs__", "sqr", "pow_int", "pow_scalar", "sqrt", "exp", "log",
    "sin", "cos", "tan", "tanh", "sigmoid", "min_with", "max_with",
)

#: ns/row groups: a span counts toward its group only when its parent
#: is outside the group, so nested calls (pow_scalar -> exp) count once.
#: (No workload's formula reaches the array pow/exp/log kernels, so
#: those ops are traced but get no ns/row metric.)
INTERVAL_GROUPS = {
    "mul": ("__mul__",),
    "div": ("__truediv__",),
    "inverse": ("inverse",),
    "add": ("__add__",),
    "tanh": ("tanh",),
}

TASK_KINDS = (
    "calibrate", "falsify", "smc", "therapy", "reach", "robustness",
    "pipeline", "lyapunov",
)

#: (module, name) pairs that bind a copy of a wrapped function and must
#: see the wrapper after :func:`install`.
CALL_SITES = (
    ("repro.hybrid.simulate", "rk45"),
    ("repro.smc.engine", "rk45"),
    ("repro.smc.engine", "rk4_batch"),
    ("repro.smc.engine", "simulate_hybrid"),
    ("repro.smc.engine", "monitor"),
    ("repro.smc.search", "rk45"),
    ("repro.smc.search", "rk4_batch"),
    ("repro.smc.search", "simulate_hybrid"),
    ("repro.apps.calibration", "rk45"),
    ("repro.apps.calibration", "flow_enclosure"),
    ("repro.apps.pipeline", "rk45"),
    ("repro.bmc.reach", "rk45"),
    ("repro.bmc.reach", "flow_enclosure"),
    ("repro.apps.therapy", "simulate_hybrid"),
    ("repro.apps.therapy", "cross_entropy_search"),
    ("repro.apps.therapy", "monitor"),
)

#: Counts that must repeat exactly between two traced passes at one seed.
EXACT_COUNTS = ("icp.boxes", "odes.rk45.steps", "intervals.rows", "cache.hit_ratio")

#: Metrics that must be non-zero on their home workload.
HOME_METRICS = {
    "catalog": ("odes.",),
    "solver": ("tape.", "icp."),
    "service": ("cache.", "store."),
}


#: Span columns: name id, span id, parent span id (-1: root), start,
#: end, job id, work units.
_COLUMNS = {
    "name": ("i", np.int32), "sid": ("q", np.int64), "parent": ("q", np.int64),
    "t0": ("d", np.float64), "t1": ("d", np.float64), "job": ("i", np.int32),
    "units": ("d", np.float64),
}


class _ThreadState:
    """One thread's span columns, open-span stack and counters."""

    def __init__(self):
        self.stack: list[int] = []
        self.current_job = 0
        self.fix_root = None
        for col, (code, _) in _COLUMNS.items():
            setattr(self, col, array(code))
        self.counts: dict[str, float] = {}

    def count(self, key: str, value: float = 1.0) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value


class Tracer:
    """Span recorder shared by every wrapper of one process."""

    def __init__(self):
        self._tls = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.jobs: list[str] = ["-"]
        self._job_ids: dict[str, int] = {"-": 0}

    # -- recording -----------------------------------------------------
    def state(self) -> _ThreadState:
        try:
            return self._tls.st
        except AttributeError:
            st = _ThreadState()
            self._tls.st = st
            with self._lock:
                self._states.append(st)
            return st

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def job_id(self, label: str) -> int:
        with self._lock:
            jid = self._job_ids.get(label)
            if jid is None:
                jid = self._job_ids[label] = len(self.jobs)
                self.jobs.append(label)
            return jid

    def wrap(self, name, fn, units=None, hook=None, job_of=None):
        """Return ``fn`` recording one ``name`` span per call.

        ``units(args, result)`` gives the span's work count (rows,
        steps, ...); ``hook(state, args, result)`` adds counters;
        ``job_of(args)`` labels the job when the span is a thread's root.
        """
        nid = self.name_id(name)
        ids = self._ids
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer.state()
            stack = st.stack
            sid = next(ids)
            if stack:
                parent = stack[-1]
            else:
                parent = -1
                if job_of is not None:
                    st.current_job = tracer.job_id(job_of(args))
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                _record(st, nid, sid, parent, t0, clock(), 0.0)
                raise
            t1 = clock()
            stack.pop()
            _record(st, nid, sid, parent, t0, t1, units(args, result) if units else 0.0)
            if hook is not None:
                hook(st, args, result)
            return result

        wrapper.__wrapped_by_perfbench__ = True
        return wrapper

    def reset(self) -> None:
        """Drop every recorded span and counter (between passes)."""
        with self._lock:
            states = list(self._states)
        for st in states:
            for col in _COLUMNS:
                del getattr(st, col)[:]
            st.counts.clear()

    # -- read-out ------------------------------------------------------
    def columns(self) -> dict[str, np.ndarray]:
        """All spans of all threads, sorted by span id."""
        with self._lock:
            states = list(self._states)
        out = {}
        for col, (_, dtype) in _COLUMNS.items():
            parts = [np.frombuffer(getattr(st, col), dtype=dtype).copy() for st in states]
            out[col] = np.concatenate(parts) if parts else np.zeros(0, dtype=dtype)
        order = np.argsort(out["sid"], kind="stable")
        return {k: v[order] for k, v in out.items()}

    def counters(self) -> dict[str, float]:
        with self._lock:
            states = list(self._states)
        total: dict[str, float] = {}
        for st in states:
            for k, v in list(st.counts.items()):
                total[k] = total.get(k, 0.0) + v
        return total

    def dump(self, path: str) -> None:
        """Write the raw spans (one row per span) as a compressed npz."""
        cols = self.columns()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            jobs=np.array(self.jobs),
            **cols,
        )

    def summary(self) -> dict[str, float]:
        """The per-layer metrics of everything recorded so far."""
        return layer_metrics(self.columns(), self.names, self.counters())


def _record(st, nid, sid, parent, t0, t1, units):
    st.name.append(nid)
    st.sid.append(sid)
    st.parent.append(parent)
    st.t0.append(t0)
    st.t1.append(t1)
    st.job.append(st.current_job)
    st.units.append(units)


# ----------------------------------------------------------------------
# Per-layer metrics from span columns
# ----------------------------------------------------------------------


def layer_metrics(cols, names, counters) -> dict[str, float]:
    """Fold span columns and counters into the named per-layer metrics."""
    n = len(cols["sid"])
    name_col = cols["name"].astype(np.int64)
    dur = cols["t1"] - cols["t0"]
    units = cols["units"]
    # index of each span's parent in the sorted columns (-1: root)
    pidx = np.full(n, -1, dtype=np.int64)
    has_parent = cols["parent"] >= 0
    if n:
        pidx[has_parent] = np.searchsorted(cols["sid"], cols["parent"][has_parent])
    child = np.zeros(n)
    if has_parent.any():
        np.add.at(child, pidx[has_parent], dur[has_parent])
    self_t = dur - child
    parent_name = np.where(pidx >= 0, name_col[np.maximum(pidx, 0)], -1)

    ids = {nm: i for i, nm in enumerate(names)}

    def mask(*span_names):
        m = np.zeros(n, dtype=bool)
        for nm in span_names:
            if nm in ids:
                m |= name_col == ids[nm]
        return m

    def outermost(*span_names):
        m = mask(*span_names)
        group = [ids[nm] for nm in span_names if nm in ids]
        return m & ~np.isin(parent_name, group)

    def ratio(a, b):
        return float(a) / float(b) if b else 0.0

    def p50(m):
        return float(np.median(dur[m])) if m.any() else 0.0

    c = counters.get
    out: dict[str, float] = {}

    iv_names = [f"intervals.{op}" for op in INTERVAL_OPS]
    iv = mask(*iv_names)
    out["intervals.ops"] = float(iv.sum())
    out["intervals.rows"] = float(units[iv].sum())
    out["intervals.self_s"] = float(self_t[iv].sum())
    for group, ops in INTERVAL_GROUPS.items():
        m = outermost(*[f"intervals.{op}" for op in ops])
        out[f"intervals.{group}.ns_per_row"] = ratio(dur[m].sum() * 1e9, units[m].sum())

    for kind in ("forward", "hc4"):
        m = mask(f"tape.{kind}")
        outer = outermost("tape.forward", "tape.hc4") & m
        out[f"tape.{kind}.rows_per_s"] = ratio(units[outer].sum(), dur[outer].sum())
        out[f"tape.{kind}.self_s"] = float(self_t[m].sum())
    out["tape.judge.self_s"] = float(self_t[mask("tape.judge")].sum())
    out["tape.fixpoint.sweeps_per_call"] = ratio(
        c("tape.fixpoint.sweeps", 0.0), mask("tape.fixpoint").sum()
    )

    icp = mask("icp.solve")
    out["icp.solves"] = float(icp.sum())
    out["icp.boxes"] = float(units[icp].sum())
    out["icp.boxes_per_s"] = ratio(units[icp].sum(), dur[icp].sum())
    out["icp.self_s"] = float(self_t[icp].sum())
    out["icp.boxes_to_witness"] = ratio(c("icp.witness_boxes", 0.0), c("icp.witness_solves", 0.0))
    out["icp.pruned_frac"] = ratio(c("icp.pruned", 0.0), units[icp].sum())

    rk45 = mask("odes.rk45")
    out["odes.rk45.calls"] = float(rk45.sum())
    out["odes.rk45.steps"] = float(units[rk45].sum())
    out["odes.rk45.us_per_step"] = ratio(dur[rk45].sum() * 1e6, units[rk45].sum())
    out["odes.rk45.self_s"] = float(self_t[rk45].sum())
    batch = mask("odes.rk4_batch")
    out["odes.rk4_batch.particle_steps_per_s"] = ratio(units[batch].sum(), dur[batch].sum())
    enc = mask("odes.enclosure")
    out["odes.enclosure.calls"] = float(enc.sum())
    out["odes.enclosure.self_s"] = float(self_t[enc].sum())

    hyb = mask("hybrid.simulate")
    out["hybrid.segments"] = float(units[hyb].sum())
    out["hybrid.self_s"] = float(self_t[hyb].sum())

    out["smc.samples"] = float(units[mask("smc.checker")].sum())
    bltl = mask("smc.bltl")
    out["smc.bltl.calls"] = float(bltl.sum())
    out["smc.bltl.self_s"] = float(self_t[bltl].sum())
    out["smc.search.self_s"] = float(self_t[mask("smc.search")].sum())

    lyap = mask("lyapunov")
    out["lyapunov.solves"] = float(_under(icp, lyap, pidx).sum())
    out["lyapunov.self_s"] = float(self_t[lyap].sum())
    out["bmc.self_s"] = float(self_t[mask("bmc.check")].sum())

    for kind in TASK_KINDS:
        out[f"task.{kind}_s"] = float(dur[mask(f"task.{kind}")].sum())

    eng = mask("engine.run", "engine.submit", "engine.dispatch")
    out["engine.jobs"] = float(mask("engine.run", "engine.submit").sum())
    out["engine.overhead_s"] = float(self_t[eng].sum())

    out["cache.get_us"] = p50(mask("cache.get")) * 1e6
    out["cache.put_us"] = p50(mask("cache.put")) * 1e6
    out["store.lookup_us"] = p50(mask("store.lookup")) * 1e6
    out["store.record_us"] = p50(mask("store.record")) * 1e6
    return out


def _under(m, ancestor_mask, pidx) -> np.ndarray:
    """Spans in ``m`` that have an ancestor in ``ancestor_mask``."""
    hit = np.zeros(len(m), dtype=bool)
    for i in np.flatnonzero(m):
        j = pidx[i]
        while j >= 0:
            if ancestor_mask[j]:
                hit[i] = True
                break
            j = pidx[j]
    return hit


# ----------------------------------------------------------------------
# Installing the wrappers
# ----------------------------------------------------------------------


def _rows(args, result):
    return args[0].lo.shape[0]


def _boxes_rows(args, result):
    return args[1].lo.shape[0]


def _traj_steps(args, result):
    return len(result.times) - 1


def _batch_steps(args, result):
    for traj in result:
        if traj is not None:
            return len(args[1]) * (len(traj.times) - 1)
    return 0.0


def _segments(args, result):
    return len(result.segments)


def _smc_samples(args, result):
    if isinstance(result, tuple):  # probability -> (p, n)
        return result[1]
    return getattr(result, "samples_used", None) or getattr(result, "n", 0)


def _icp_boxes(args, result):
    return result.stats.boxes_processed


def _icp_hook(st, args, result):
    st.count("icp.pruned", result.stats.boxes_pruned)
    if result.status.value == "delta-sat":
        st.count("icp.witness_solves")
        st.count("icp.witness_boxes", result.stats.boxes_processed)


def _spec_label(spec):
    get = spec.get if isinstance(spec, dict) else lambda key: getattr(spec, key, None)
    return f"{get('name') or get('task')}@{get('seed')}"


#: Module-level functions: (defining module, name, span, work units).
_FUNCTIONS = (
    ("repro.odes.integrators", "rk45", "odes.rk45", _traj_steps),
    ("repro.odes.integrators", "rk4_batch", "odes.rk4_batch", _batch_steps),
    ("repro.odes.enclosure", "flow_enclosure", "odes.enclosure", None),
    ("repro.hybrid.simulate", "simulate_hybrid", "hybrid.simulate", _segments),
    ("repro.smc.search", "cross_entropy_search", "smc.search", None),
    ("repro.smc.bltl", "monitor", "smc.bltl", None),
)


def _patch_function(module_name, attr, wrapper):
    """Replace ``module.attr`` and every loaded ``repro`` copy of it."""
    module = sys.modules[module_name]
    original = getattr(module, attr)
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)
    return original


def install(tracer: Tracer) -> None:
    """Wrap every layer's entry point; call once per process."""
    # every module that defines or binds a copy of a wrapped function is
    # loaded first, so the patch below reaches its copy
    for module_name in {m for m, _ in CALL_SITES} | {f[0] for f in _FUNCTIONS}:
        importlib.import_module(module_name)
    import repro.solver.tape as tape
    from repro.api.engine import Engine
    from repro.api.tasks import get_task
    from repro.bmc.reach import BMCChecker
    from repro.intervals.array import IntervalArray
    from repro.lyapunov.synthesis import LyapunovAnalyzer
    from repro.service.cache import ResultCache
    from repro.smc.engine import StatisticalModelChecker
    from repro.solver.icp import DeltaSolver
    from repro.solver.incremental import PavingStore

    w = tracer.wrap

    # interval kernel: class methods, plus the tape's unary op table,
    # which bound the unwrapped functions at import
    originals = {op: getattr(IntervalArray, op) for op in INTERVAL_OPS}
    for op, fn in originals.items():
        setattr(IntervalArray, op, w(f"intervals.{op}", fn, units=_rows))
    for key, fn in list(tape._UNARY.items()):
        for op, orig in originals.items():
            if fn is orig:
                tape._UNARY[key] = getattr(IntervalArray, op)

    # tape
    tape.ExprTape.forward = w("tape.forward", tape.ExprTape.forward, units=_boxes_rows)
    tape.ExprTape.hc4 = w("tape.hc4", tape.ExprTape.hc4, units=_boxes_rows)
    CF = tape.CompiledFormula
    CF.judge = w("tape.judge", CF.judge, units=_boxes_rows)
    CF.contract = w("tape.contract", CF.contract, units=_boxes_rows)
    fixpoint = CF.fixpoint_contract

    def fixpoint_contract(self, *args, **kwargs):
        st = tracer.state()
        outer, st.fix_root = st.fix_root, self.root
        try:
            return fixpoint(self, *args, **kwargs)
        finally:
            st.fix_root = outer

    CF.fixpoint_contract = w("tape.fixpoint", fixpoint_contract, units=_boxes_rows)
    for node_cls in (tape._CTrue, tape._CFalse, tape._CAtom, tape._CAnd, tape._COr, tape._CQuant):
        node_cls.contract = _sweep_counter(tracer, node_cls.contract)

    # ICP
    DeltaSolver._solve_impl = w(
        "icp.solve", DeltaSolver._solve_impl, units=_icp_boxes, hook=_icp_hook
    )

    # ODEs, hybrid simulation, SMC search and BLTL monitoring
    for module_name, attr, span, units in _FUNCTIONS:
        original = getattr(sys.modules[module_name], attr)
        _patch_function(module_name, attr, w(span, original, units=units))

    for meth in ("probability", "hypothesis_test", "bayesian"):
        fn = getattr(StatisticalModelChecker, meth)
        setattr(StatisticalModelChecker, meth, w("smc.checker", fn, units=_smc_samples))

    LyapunovAnalyzer.synthesize = w("lyapunov", LyapunovAnalyzer.synthesize)
    LyapunovAnalyzer.certify = w("lyapunov", LyapunovAnalyzer.certify)
    BMCChecker._check_impl = w("bmc.check", BMCChecker._check_impl)

    # tasks and engine (job roots)
    for kind in TASK_KINDS:
        cls = type(get_task(kind))
        cls.run = w(f"task.{kind}", cls.run, job_of=lambda a: _spec_label(a[1]))
    Engine.run = w("engine.run", Engine.run, job_of=lambda a: _spec_label(a[1]))
    Engine.submit_deferred = w(
        "engine.submit", Engine.submit_deferred, job_of=lambda a: _spec_label(a[1])
    )
    Engine.dispatch = w(
        "engine.dispatch", Engine.dispatch, job_of=lambda a: _spec_label(a[1].spec)
    )

    # result cache and paving store
    ResultCache.get = w("cache.get", ResultCache.get)
    ResultCache.put = w("cache.put", ResultCache.put)
    PavingStore.candidates = w("store.lookup", PavingStore.candidates)
    PavingStore.put = w("store.record", PavingStore.put)


def _sweep_counter(tracer, contract):
    """Count the root contractions a fixpoint loop runs (its sweeps)."""

    @functools.wraps(contract)
    def counted(self, boxes):
        st = tracer.state()
        if self is st.fix_root:
            st.count("tape.fixpoint.sweeps")
        return contract(self, boxes)

    return counted


def check_call_sites() -> list[str]:
    """Call sites still holding an unwrapped function (empty: all hooked)."""
    missing = []
    for module_name, attr in CALL_SITES:
        module = sys.modules.get(module_name)
        fn = getattr(module, attr, None) if module is not None else None
        if not getattr(fn, "__wrapped_by_perfbench__", False):
            missing.append(f"{module_name}.{attr}")
    return missing


def zero_home_metrics(workload: str, metrics: dict[str, float]) -> list[str]:
    """Per-layer metrics of the workload's home layers that read zero."""
    prefixes = HOME_METRICS.get(workload, ())
    return sorted(
        k for k, v in metrics.items()
        if k.startswith(prefixes) and not v
    )


def unrepeated_counts(a: dict[str, float], b: dict[str, float]) -> list[str]:
    """Exact counts that differ between two traced passes."""
    return [k for k in EXACT_COUNTS if a.get(k) != b.get(k)]
