"""The task registry: every analysis of the framework behind one shape.

A *task* adapts one subsystem (delta-decision calibration, dReach-style
BMC, SMC, Lyapunov synthesis, ...) to the uniform contract

    ``Task.run(spec) -> AnalysisReport``

where ``spec`` is a declarative :class:`~repro.api.spec.TaskSpec`.
Tasks register themselves with :func:`register_task`; the
:class:`~repro.api.engine.Engine` dispatches by ``spec.task`` and
``python -m repro list-tasks`` renders the registry.

Query field reference (all values JSON-able; formula/BLTL/time-series
shapes are documented in :mod:`repro.api.serialize`):

========== ==========================================================
task       query fields
========== ==========================================================
calibrate  data, param_ranges, x0 [, paving, min_width]
falsify    method=data|reach|ascent + the method's fields
reach      goal [, goal_mode, max_jumps, time_bound, min_dwell,
           param_ranges, init]
smc        phi, init, horizon [, method=probability|hypothesis|
           bayesian, epsilon, alpha, beta, theta, indifference, n,
           credibility, max_samples]
lyapunov   region [, mode=synthesize|certify, equilibrium, V,
           coeff_bound, max_iterations, exclusion_radius, eps_v,
           eps_dv]
therapy    method=reach|policy + the method's fields
robustness bad, disturbance [, time_bound, max_jumps] or
           method=threshold with stimulus_var, lo, hi
pipeline   train, test, param_ranges, x0 [, smc_epsilon]
========== ==========================================================
"""

from __future__ import annotations

from typing import Any, Mapping, Type

from repro.apps.calibration import SMTCalibrator
from repro.apps.falsification import (
    FalsificationVerdict,
    _falsify_ascent_impl,
    _falsify_reachability_impl,
    _falsify_with_data_impl,
)
from repro.apps.pipeline import AnalysisPipeline
from repro.apps.robustness import _check_robustness_impl, stimulus_threshold
from repro.apps.therapy import (
    _synthesize_reach_therapy_impl,
    _synthesize_threshold_policy_impl,
)
from repro.bmc import BMCChecker, BMCOptions, ReachSpec
from repro.expr import parse_expr
from repro.lyapunov import LyapunovAnalyzer
from repro.smc import InitialDistribution, StatisticalModelChecker
from repro.solver import DeltaSolver, Status
from repro.status import AnalysisStatus

from .report import AnalysisReport
from .serialize import (
    bltl_from_value,
    bounds_from_value,
    formula_from_value,
    timeseries_from_value,
)
from .spec import SolverOptions, TaskSpec

__all__ = ["Task", "register_task", "get_task", "task_names", "task_table"]

_REGISTRY: dict[str, Type["Task"]] = {}


def register_task(cls: Type["Task"]) -> Type["Task"]:
    """Class decorator: add a :class:`Task` subclass to the registry."""
    if not cls.name:
        raise ValueError(f"{cls.__name__} must set a nonempty 'name'")
    if cls.name in _REGISTRY:
        raise ValueError(f"task {cls.name!r} is already registered")
    _REGISTRY[cls.name] = cls
    return cls


def get_task(name: str) -> "Task":
    """Instantiate the registered task class for ``name``."""
    try:
        return _REGISTRY[name]()
    except KeyError:
        raise ValueError(
            f"unknown task {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


def task_names() -> list[str]:
    """All registered task kinds, sorted."""
    return sorted(_REGISTRY)


def task_table() -> list[tuple[str, str]]:
    """``(name, one-line summary)`` rows for the CLI."""
    return [(n, _REGISTRY[n].summary) for n in sorted(_REGISTRY)]


class Task:
    """Base class of registered analysis tasks."""

    name: str = ""
    summary: str = ""

    def run(self, spec: TaskSpec) -> AnalysisReport:
        """Execute one declarative spec and return the shared envelope."""
        raise NotImplementedError

    # -- shared helpers -------------------------------------------------
    @staticmethod
    def _seed(spec: TaskSpec) -> int:
        return 0 if spec.seed is None else int(spec.seed)

    @staticmethod
    def _q(spec: TaskSpec, key: str) -> Any:
        try:
            return spec.query[key]
        except KeyError:
            raise ValueError(f"task {spec.task!r} needs query field {key!r}") from None


_STATUS = {
    Status.DELTA_SAT: AnalysisStatus.DELTA_SAT,
    Status.UNSAT: AnalysisStatus.UNSAT,
    Status.UNKNOWN: AnalysisStatus.UNKNOWN,
}


def _box_bounds(box) -> dict[str, tuple[float, float]] | None:
    if box is None:
        return None
    return {k: (box[k].lo, box[k].hi) for k in box.names}


def _verdict_report(task: str, v: FalsificationVerdict) -> AnalysisReport:
    if v.rejected:
        status = AnalysisStatus.FALSIFIED
    elif v.conclusive:
        status = AnalysisStatus.DELTA_SAT
    else:
        status = AnalysisStatus.UNKNOWN
    return AnalysisReport(
        task,
        status,
        witness=v.witness_params,
        stats={"boxes_processed": float(v.boxes_processed)},
        detail=v.detail,
        payload={"rejected": v.rejected, "conclusive": v.conclusive},
    )


# ----------------------------------------------------------------------
# delta-decision tasks
# ----------------------------------------------------------------------


@register_task
class CalibrateTask(Task):
    """SMT-style parameter calibration from time-series bands (IV-A)."""

    name = "calibrate"
    summary = "fit parameters to time-series bands via delta-decisions"

    def run(self, spec: TaskSpec) -> AnalysisReport:
        """Calibrate (or pave) parameters against time-series bands."""
        o = spec.solver
        calib = SMTCalibrator(
            spec.model.ode,
            timeseries_from_value(self._q(spec, "data")),
            bounds_from_value(self._q(spec, "param_ranges")),
            dict(spec.query.get("x0") or spec.model.initial),
            delta=o.delta,
            max_boxes=o.max_boxes,
            enclosure_step=o.enclosure_step,
            use_simulation_guidance=o.use_simulation_guidance,
        )
        if spec.query.get("paving"):
            sat, unsat, undecided = calib.synthesize_region(
                min_width=float(spec.query.get("min_width", 0.05))
            )
            status = (
                AnalysisStatus.DELTA_SAT if sat
                else AnalysisStatus.UNSAT if not undecided
                else AnalysisStatus.UNKNOWN
            )
            return AnalysisReport(
                self.name,
                status,
                witness=sat[0].midpoint() if sat else None,
                metrics={
                    "sat_boxes": float(len(sat)),
                    "unsat_boxes": float(len(unsat)),
                    "undecided_boxes": float(len(undecided)),
                },
                detail="guaranteed parameter-set synthesis (BioPSy-style paving)",
                payload={
                    "sat": [_box_bounds(b) for b in sat],
                    "undecided": [_box_bounds(b) for b in undecided],
                },
            )
        res = calib._calibrate_impl()
        return AnalysisReport(
            self.name,
            _STATUS[res.status],
            witness=res.params,
            witness_box=_box_bounds(res.param_box),
            stats={"boxes_processed": float(res.boxes_processed)},
            detail=f"calibration {res.status.value}",
        )


@register_task
class FalsifyTask(Task):
    """Model falsification: reject hypotheses that cannot produce the
    desired behavior for any parameters (IV-A, unsat branch)."""

    name = "falsify"
    summary = "reject model hypotheses (data bands, reachability, barrier)"

    def run(self, spec: TaskSpec) -> AnalysisReport:
        """Dispatch to the requested falsification method."""
        o = spec.solver
        method = str(spec.query.get("method", "data"))
        if method == "data":
            v = _falsify_with_data_impl(
                spec.model.ode,
                timeseries_from_value(self._q(spec, "data")),
                bounds_from_value(self._q(spec, "param_ranges")),
                dict(spec.query.get("x0") or spec.model.initial),
                delta=o.delta,
                max_boxes=o.max_boxes,
                enclosure_step=o.enclosure_step,
            )
        elif method == "reach":
            v = _falsify_reachability_impl(
                spec.model.automaton,
                _reach_spec(spec.query),
                param_ranges=(
                    bounds_from_value(spec.query["param_ranges"])
                    if spec.query.get("param_ranges")
                    else None
                ),
                options=_bmc_options(o),
            )
        elif method == "ascent":
            v = _falsify_ascent_impl(
                spec.model.ode,
                str(self._q(spec, "variable")),
                float(self._q(spec, "from_level")),
                float(self._q(spec, "to_level")),
                bounds_from_value(self._q(spec, "state_bounds")),
                param_ranges=(
                    bounds_from_value(spec.query["param_ranges"])
                    if spec.query.get("param_ranges")
                    else None
                ),
                solver=_delta_solver(o),
            )
        else:
            raise ValueError(f"unknown falsify method {method!r}")
        report = _verdict_report(self.name, v)
        report.payload["method"] = method
        return report


def _delta_solver(o: SolverOptions) -> DeltaSolver:
    """Map shared :class:`SolverOptions` onto the ICP search configuration."""
    return DeltaSolver(
        delta=o.delta,
        max_boxes=o.max_boxes,
        contract_tol=o.contract_tol,
        frontier_size=o.frontier_size,
        shards=o.shards,
        shard_backend=o.shard_backend,
        paving_store=o.paving_store,
        warm_start=o.warm_start,
        anytime=o.anytime,
    )


def _bmc_options(o: SolverOptions) -> BMCOptions:
    """Map shared :class:`SolverOptions` onto the BMC option group."""
    return BMCOptions(
        delta=o.delta,
        max_boxes_per_path=o.max_boxes,
        enclosure_step=o.enclosure_step,
        contract_tol=o.contract_tol,
        use_simulation_guidance=o.use_simulation_guidance,
        verify_step=o.verify_step,
    )


def _reach_spec(query: Mapping[str, Any]) -> ReachSpec:
    if "goal" not in query:
        raise ValueError("reachability query needs a 'goal' formula")
    return ReachSpec(
        goal=formula_from_value(query["goal"]),
        goal_mode=query.get("goal_mode"),
        max_jumps=int(query.get("max_jumps", 3)),
        time_bound=float(query.get("time_bound", 10.0)),
        min_dwell=float(query.get("min_dwell", 0.0)),
    )


@register_task
class ReachTask(Task):
    """dReach-style bounded reachability / parameter synthesis for
    hybrid automata (Section III-C)."""

    name = "reach"
    summary = "bounded reachability and parameter synthesis (dReach-style BMC)"

    def run(self, spec: TaskSpec) -> AnalysisReport:
        """Run a bounded reachability / parameter-synthesis query."""
        checker = BMCChecker(spec.model.automaton, _bmc_options(spec.solver))
        init_box = None
        if spec.query.get("init"):
            from repro.intervals import Box

            init_box = spec.model.automaton.initial_box().merged(
                Box.from_bounds(bounds_from_value(spec.query["init"]))
            )
        res = checker._check_impl(
            _reach_spec(spec.query),
            param_ranges=(
                bounds_from_value(spec.query["param_ranges"])
                if spec.query.get("param_ranges")
                else None
            ),
            init_box=init_box,
        )
        payload: dict[str, Any] = {}
        if res.path is not None:
            payload["mode_path"] = res.mode_path()
        if res.witness_dwells is not None:
            payload["dwells"] = list(res.witness_dwells)
        if res.witness_x0 is not None:
            payload["x0"] = dict(res.witness_x0)
        witness = dict(res.witness_params or {}) or (
            dict(res.witness_x0) if res.witness_x0 else None
        )
        return AnalysisReport(
            self.name,
            _STATUS[res.status],
            witness=witness,
            stats={
                "boxes_processed": float(res.boxes_processed),
                "paths_explored": float(res.paths_explored),
            },
            detail=f"reachability {res.status.value}",
            payload=payload,
        )


# ----------------------------------------------------------------------
# statistical tasks
# ----------------------------------------------------------------------


def _init_distribution(value: Any) -> InitialDistribution:
    if isinstance(value, InitialDistribution):
        return value
    entries: dict[str, Any] = {}
    for name, v in dict(value).items():
        entries[name] = (float(v[0]), float(v[1])) if isinstance(v, (list, tuple)) else float(v)
    return InitialDistribution(entries)


@register_task
class SMCTask(Task):
    """Statistical model checking of a BLTL property (Fig. 2 left loop)."""

    name = "smc"
    summary = "statistical model checking: estimate/test P(model |= phi)"

    def run(self, spec: TaskSpec) -> AnalysisReport:
        """Estimate or test P(model |= phi) with the requested method."""
        q = spec.query
        phi = bltl_from_value(self._q(spec, "phi"))
        horizon = float(q.get("horizon") or phi.horizon() + 1e-9)
        checker = StatisticalModelChecker(
            spec.model.system,
            _init_distribution(self._q(spec, "init")),
            horizon=horizon,
            seed=self._seed(spec),
            rtol=spec.sim.rtol,
            max_step=spec.sim.max_step,
        )
        method = str(q.get("method", "probability"))
        if method == "probability":
            p, n = checker.probability(
                phi,
                epsilon=float(q.get("epsilon", 0.05)),
                alpha=float(q.get("alpha", 0.05)),
            )
            return AnalysisReport(
                self.name,
                AnalysisStatus.ESTIMATED,
                metrics={"probability": p, "samples": float(n)},
                stats={"samples": float(n)},
                detail=f"P(model |= phi) ~ {p:.4f} ({n} samples, Chernoff bound)",
            )
        if method == "hypothesis":
            res = checker.hypothesis_test(
                phi,
                theta=float(self._q(spec, "theta")),
                alpha=float(q.get("alpha", 0.05)),
                beta=float(q.get("beta", 0.05)),
                indifference=float(q.get("indifference", 0.05)),
                max_samples=int(q.get("max_samples", 100_000)),
            )
            status = AnalysisStatus.VALIDATED if res.accept else AnalysisStatus.FALSIFIED
            return AnalysisReport(
                self.name,
                status,
                metrics={
                    "samples": float(res.samples_used),
                    "successes": float(res.successes),
                },
                stats={"samples": float(res.samples_used)},
                detail=f"SPRT {res.decision}: P >= theta {'accepted' if res.accept else 'rejected'}",
                payload={"decision": res.decision},
            )
        if method == "bayesian":
            est = checker.bayesian(
                phi,
                n=int(q.get("n", 200)),
                credibility=float(q.get("credibility", 0.95)),
            )
            return AnalysisReport(
                self.name,
                AnalysisStatus.ESTIMATED,
                metrics={
                    "probability": est.mean,
                    "ci_low": est.ci_low,
                    "ci_high": est.ci_high,
                    "samples": float(est.n),
                },
                stats={"samples": float(est.n)},
                detail=f"posterior mean {est.mean:.4f} in [{est.ci_low:.4f}, {est.ci_high:.4f}]",
            )
        raise ValueError(f"unknown smc method {method!r}")


# ----------------------------------------------------------------------
# stability
# ----------------------------------------------------------------------


@register_task
class LyapunovTask(Task):
    """Lyapunov stability: CEGIS synthesis or refutation-based
    certification of a candidate function (IV-C)."""

    name = "lyapunov"
    summary = "Lyapunov function synthesis / certification"

    def run(self, spec: TaskSpec) -> AnalysisReport:
        """Synthesize or certify a Lyapunov function."""
        q = spec.query
        analyzer = LyapunovAnalyzer(
            spec.model.ode,
            bounds_from_value(self._q(spec, "region")),
            equilibrium=q.get("equilibrium"),
            exclusion_radius=float(q.get("exclusion_radius", 0.05)),
            eps_v=float(q.get("eps_v", 1e-3)),
            eps_dv=float(q.get("eps_dv", 1e-4)),
            solver=_delta_solver(spec.solver),
        )
        mode = str(q.get("mode", "synthesize"))
        if mode == "synthesize":
            res = analyzer.synthesize(
                coeff_bound=float(q.get("coeff_bound", 10.0)),
                max_iterations=int(q.get("max_iterations", 40)),
                seed=self._seed(spec),
            )
        elif mode == "certify":
            V = parse_expr(str(self._q(spec, "V")))
            res = analyzer.certify(V, max_boxes=spec.solver.max_boxes)
        else:
            raise ValueError(f"unknown lyapunov mode {mode!r}")
        payload: dict[str, Any] = {"mode": mode}
        if res.V is not None:
            payload["V"] = str(res.V)
        if res.counterexample:
            payload["counterexample"] = dict(res.counterexample)
        return AnalysisReport(
            self.name,
            _STATUS[res.status],
            witness=dict(res.coefficients) or None,
            stats={"iterations": float(res.iterations)},
            detail=(
                "Lyapunov conditions certified"
                if res.status is Status.DELTA_SAT
                else f"lyapunov {mode} {res.status.value}"
            ),
            payload=payload,
        )


# ----------------------------------------------------------------------
# therapy / robustness
# ----------------------------------------------------------------------


@register_task
class TherapyTask(Task):
    """Therapeutic strategy identification (IV-B): shortest drug
    sequence via BMC, or SMC-scored threshold policy search."""

    name = "therapy"
    summary = "synthesize treatment strategies (BMC reach / SMC policy)"

    def run(self, spec: TaskSpec) -> AnalysisReport:
        """Synthesize a treatment strategy (BMC reach or SMC policy)."""
        q = spec.query
        method = str(q.get("method", "reach"))
        if method == "reach":
            plan = _synthesize_reach_therapy_impl(
                spec.model.automaton,
                formula_from_value(self._q(spec, "goal")),
                bounds_from_value(self._q(spec, "threshold_ranges")),
                goal_mode=str(q.get("goal_mode", "live")),
                max_drugs=int(q.get("max_drugs", 3)),
                time_bound=float(q.get("time_bound", 60.0)),
                options=_bmc_options(spec.solver),
                forbidden_modes=tuple(q.get("forbidden_modes", ("death",))),
            )
            status = AnalysisStatus.DELTA_SAT if plan.found else AnalysisStatus.UNSAT
            return AnalysisReport(
                self.name,
                status,
                witness=dict(plan.thresholds) or None,
                metrics={"n_drugs": float(plan.n_drugs)},
                stats={
                    "paths_tried": float(plan.paths_tried),
                    "boxes_processed": float(plan.boxes_processed),
                },
                detail=plan.detail,
                payload={
                    "method": method,
                    "drug_sequence": list(plan.drug_sequence),
                    "mode_path": list(plan.mode_path),
                    "dwell_times": list(plan.dwell_times),
                },
            )
        if method == "policy":
            res = _synthesize_threshold_policy_impl(
                spec.model.automaton,
                bltl_from_value(self._q(spec, "phi")),
                bounds_from_value(self._q(spec, "threshold_ranges")),
                _init_distribution(self._q(spec, "init")),
                float(self._q(spec, "horizon")),
                population=int(q.get("population", 24)),
                iterations=int(q.get("iterations", 12)),
                seed=self._seed(spec),
                confirm_samples=int(q.get("confirm_samples", 40)),
                rtol=spec.sim.rtol,
            )
            status = AnalysisStatus.DELTA_SAT if res.found else AnalysisStatus.UNSAT
            metrics = {"robustness": res.robustness}
            if res.success_probability is not None:
                metrics["success_probability"] = res.success_probability
            return AnalysisReport(
                self.name,
                status,
                witness=dict(res.thresholds) or None,
                metrics=metrics,
                stats={"evaluations": float(res.evaluations)},
                detail=(
                    "policy found and Monte-Carlo confirmed"
                    if res.found
                    else "no positive-robustness policy found"
                ),
                payload={"method": method},
            )
        raise ValueError(f"unknown therapy method {method!r}")


@register_task
class RobustnessTask(Task):
    """Time-bounded robustness: is a bad region unreachable from a whole
    disturbance box of initial conditions (IV-C)?"""

    name = "robustness"
    summary = "prove robustness to disturbance boxes / bracket thresholds"

    def run(self, spec: TaskSpec) -> AnalysisReport:
        """Prove robustness to a disturbance box or bracket a threshold."""
        q = spec.query
        if str(q.get("method", "check")) == "threshold":
            lo, hi = stimulus_threshold(
                spec.model.automaton,
                str(self._q(spec, "stimulus_var")),
                formula_from_value(self._q(spec, "bad")),
                float(self._q(spec, "lo")),
                float(self._q(spec, "hi")),
                time_bound=float(q.get("time_bound", 50.0)),
                max_jumps=int(q.get("max_jumps", 2)),
                iterations=int(q.get("iterations", 6)),
                options=_bmc_options(spec.solver),
            )
            return AnalysisReport(
                self.name,
                AnalysisStatus.ESTIMATED,
                metrics={"robust_below": lo, "excitable_above": hi},
                stats={"iterations": float(q.get("iterations", 6))},
                detail=f"threshold bracketed in [{lo:.6g}, {hi:.6g}]",
                payload={"method": "threshold"},
            )
        res = _check_robustness_impl(
            spec.model.automaton,
            bounds_from_value(self._q(spec, "disturbance")),
            formula_from_value(self._q(spec, "bad")),
            time_bound=float(q.get("time_bound", 50.0)),
            max_jumps=int(q.get("max_jumps", 2)),
            options=_bmc_options(spec.solver),
        )
        if res.robust is True:
            status = AnalysisStatus.VALIDATED
        elif res.robust is False:
            status = AnalysisStatus.FALSIFIED
        else:
            status = AnalysisStatus.UNKNOWN
        return AnalysisReport(
            self.name,
            status,
            witness=res.witness,
            stats={"boxes_processed": float(res.boxes_processed)},
            detail=res.detail,
            payload={"method": "check"},
        )


# ----------------------------------------------------------------------
# the Fig. 2 workflow
# ----------------------------------------------------------------------


@register_task
class PipelineTask(Task):
    """The end-to-end Fig. 2 workflow: calibrate -> validate ->
    (analyze | SMC-refine)."""

    name = "pipeline"
    summary = "full Fig. 2 workflow: calibrate, validate, SMC-refine"

    def run(self, spec: TaskSpec) -> AnalysisReport:
        """Run calibrate -> validate -> (analyze | SMC-refine)."""
        o = spec.solver
        pipeline = AnalysisPipeline(
            spec.model.ode,
            timeseries_from_value(self._q(spec, "train")),
            timeseries_from_value(self._q(spec, "test")),
            bounds_from_value(self._q(spec, "param_ranges")),
            dict(spec.query.get("x0") or spec.model.initial),
            delta=o.delta,
            max_boxes=o.max_boxes,
            enclosure_step=o.enclosure_step,
            seed=self._seed(spec),
        )
        report = pipeline._run_impl(
            smc_samples_epsilon=float(spec.query.get("smc_epsilon", 0.1))
        )
        metrics: dict[str, float] = {}
        if report.smc_probability is not None:
            metrics["smc_probability"] = report.smc_probability
        return AnalysisReport(
            self.name,
            report.stage,  # PipelineStage IS an AnalysisStatus
            witness=report.calibrated_params,
            metrics=metrics,
            stats={"calibration_boxes": float(report.calibration_boxes)},
            detail=report.detail,
            payload={
                "stage": report.stage.value,
                "validation_errors": {
                    str(t): dict(errs) for t, errs in report.validation_errors.items()
                },
            },
        )
