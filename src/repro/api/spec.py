"""Declarative analysis requests: :class:`TaskSpec` plus the shared
option dataclasses.

A spec is the unit of work of the :class:`~repro.api.engine.Engine`:
*which* task to run, on *which* model, with *what* query, under shared
solver/simulation options and one RNG seed.  Specs are plain data --
they serialize to JSON, travel to worker processes, and live in
scenario files executed by ``python -m repro run``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from dataclasses import replace as _dataclass_replace
from typing import Any, Mapping

from repro.solver.icp import check_search_knobs

from .model import Model

__all__ = ["SolverOptions", "SimOptions", "TaskSpec"]


def _check_point_x0(task: str, query: Mapping[str, Any]) -> None:
    """Reject a ``query["x0"]`` that is not one number per state.

    calibrate, falsify method=data and pipeline start from a point
    initial state; an interval such as ``[0.4, 0.6]`` is refused here,
    with the task and the field named, instead of failing mid-run.
    """
    if task == "falsify" and query.get("method", "data") != "data":
        return
    x0 = query.get("x0") if task in ("calibrate", "falsify", "pipeline") else None
    if x0 is None:
        return
    if not isinstance(x0, Mapping):
        raise ValueError(
            f"task {task!r} query field 'x0' must map state names to numbers, "
            f"got {type(x0).__name__}"
        )
    for name, value in x0.items():
        try:
            float(value)
        except (TypeError, ValueError):
            raise ValueError(
                f"task {task!r} query field 'x0' needs a number for {name!r}, "
                f"got {value!r} (an uncertain initial state is not supported)"
            ) from None


def _options_from_dict(cls, d: Mapping[str, Any] | None, label: str):
    d = dict(d or {})
    unknown = set(d) - {f.name for f in fields(cls)}
    if unknown:
        raise ValueError(f"unknown {label} options: {sorted(unknown)}")
    return cls(**d)


@dataclass
class SolverOptions:
    """Knobs of the delta-decision machinery, shared by every task that
    searches boxes (calibrate, falsify, reach, lyapunov, robustness)."""

    delta: float = 0.05
    max_boxes: int = 600
    enclosure_step: float = 0.05
    contract_tol: float = 1e-2
    use_simulation_guidance: bool = True
    # Width K of the breadth-wise ICP frontier: how many boxes each
    # vectorized tape pass contracts/judges at once (1 = one box per pass).
    frontier_size: int = 64
    # Number of parallel paving shards (1 = in-process search): the
    # initial box splits into this many disjoint sub-boxes paved in
    # lock-step epochs on shard_backend workers with work stealing and
    # a deterministic merge (repro.solver.shard).
    shards: int = 1
    # Executor backend of the sharded driver ("process", "thread",
    # "inline"); processes give true CPU parallelism.
    shard_backend: str = "process"
    # Finer enclosure step for BMC witness verification (None: reuse
    # enclosure_step); lets reach/therapy scenarios search coarsely but
    # confirm witnesses precisely.
    verify_step: float | None = None
    # Directory of persistent solve/pave artifacts for warm-started
    # re-solves (repro.solver.incremental); None disables recording and
    # reuse.  Engines inject their own store here when the spec leaves
    # it unset.
    paving_store: str | None = None
    # Consult the paving store before searching; False still records
    # artifacts but always solves cold (the CLI --cold flag).
    warm_start: bool = True
    # Stream coarse verdict-so-far snapshots through the ProgressEvent
    # hookpoint (stage "anytime"): first answer in milliseconds,
    # monotone refinements after.
    anytime: bool = False

    def __post_init__(self) -> None:
        check_search_knobs(self.delta, self.max_boxes, self.frontier_size, self.shards)
        # "not > 0" also rejects NaN: a zero step never advances time
        if not self.enclosure_step > 0:
            raise ValueError(
                f"enclosure_step must be > 0, got {self.enclosure_step}"
            )
        if self.verify_step is not None and not self.verify_step > 0:
            raise ValueError(f"verify_step must be > 0, got {self.verify_step}")

    @classmethod
    def from_dict(cls, d: Mapping[str, Any] | None) -> "SolverOptions":
        """Build options from a (possibly partial) dict; rejects unknown keys."""
        return _options_from_dict(cls, d, "solver")


@dataclass
class SimOptions:
    """Numerical-simulation knobs of the sampling-based tasks (smc,
    therapy policy search).  The pipeline task keeps its own fixed
    validation tolerances."""

    rtol: float = 1e-6
    max_step: float | None = None

    @classmethod
    def from_dict(cls, d: Mapping[str, Any] | None) -> "SimOptions":
        """Build options from a (possibly partial) dict; rejects unknown keys."""
        return _options_from_dict(cls, d, "sim")


@dataclass
class TaskSpec:
    """One declarative analysis request.

    Attributes
    ----------
    task:
        A registered task kind (see ``python -m repro list-tasks``).
    model:
        A :class:`Model` handle (anything :meth:`Model.from_dict`
        accepts coerces automatically: inline dicts, ``{"file": ...}``,
        ``{"builtin": ...}``, or raw systems).
    query:
        Task-specific request body (see each task's docstring).
    solver / sim:
        Shared option groups.
    seed:
        RNG seed for every stochastic component of the task; ``None``
        defers to the engine's default so one engine-level seed makes a
        whole batch reproducible.
    name:
        Scenario label, copied onto the report.
    """

    task: str
    model: Model
    query: dict[str, Any] = field(default_factory=dict)
    solver: SolverOptions = field(default_factory=SolverOptions)
    sim: SimOptions = field(default_factory=SimOptions)
    seed: int | None = None
    name: str = ""

    def __post_init__(self):
        if not isinstance(self.model, Model):
            self.model = (
                Model.of(self.model)
                if not isinstance(self.model, Mapping)
                else Model.from_dict(self.model)
            )
        if isinstance(self.solver, Mapping):
            self.solver = SolverOptions.from_dict(self.solver)
        if isinstance(self.sim, Mapping):
            self.sim = SimOptions.from_dict(self.sim)
        _check_point_x0(self.task, self.query)

    # ------------------------------------------------------------------
    def replace(self, **kwargs: Any) -> "TaskSpec":
        """A copy with the given fields swapped out.

        Future fields survive automatically (``dataclasses.replace``
        under the hood), unlike a hand-rolled field-by-field copy.
        """
        return _dataclass_replace(self, **kwargs)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """The JSON-able spec form (inverse of :meth:`from_dict`)."""
        return {
            "task": self.task,
            "name": self.name,
            "model": self.model.to_dict(),
            "query": dict(self.query),
            "solver": asdict(self.solver),
            "sim": asdict(self.sim),
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "TaskSpec":
        """Rebuild a spec from its :meth:`to_dict` form."""
        if "task" not in d:
            raise ValueError("spec needs a 'task' field")
        if "model" not in d:
            raise ValueError("spec needs a 'model' field")
        return cls(
            task=str(d["task"]),
            model=Model.from_dict(d["model"]),
            query=dict(d.get("query", {})),
            solver=SolverOptions.from_dict(d.get("solver")),
            sim=SimOptions.from_dict(d.get("sim")),
            seed=None if d.get("seed") is None else int(d["seed"]),
            name=str(d.get("name", "")),
        )

    def to_json(self, indent: int | None = None) -> str:
        """Serialize the spec to JSON text."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "TaskSpec":
        """Parse a spec from JSON text."""
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_file(cls, path: str) -> "TaskSpec":
        """Load a spec from a scenario JSON file."""
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))
