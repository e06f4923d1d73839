"""One solver configuration, passed whole.

A spec's ``SolverOptions`` maps onto one frozen ``DeltaSolver`` (and the
BMC option group), and every consumer -- barrier falsification, the
Lyapunov analyzer, the exists-forall CEGIS loop, the shard driver --
receives that configuration intact instead of re-declaring its knobs.
"""

import dataclasses

import pytest

from repro.api import Engine
from repro.api.spec import SolverOptions
from repro.api.tasks import _bmc_options, _delta_solver
from repro.bmc import BMCOptions
from repro.expr import variables
from repro.intervals import Box
from repro.lyapunov import LyapunovAnalyzer
from repro.odes import ODESystem
from repro.service.backends import ThreadBackend
from repro.solver import DeltaSolver, Status
from repro.tools.golden import paving_digest

x, y = variables("x y")

LYAPUNOV_CERTIFY = {
    "task": "lyapunov",
    "name": "knobs-lyapunov",
    "model": {
        "type": "ode",
        "name": "stable_linear",
        "derivatives": {"x": "-x", "y": "-2*y"},
        "params": {},
    },
    "query": {
        "region": {"x": [-1.0, 1.0], "y": [-1.0, 1.0]},
        "mode": "certify",
        "V": "x^2 + y^2",
    },
}

FALSIFY_ASCENT = {
    "task": "falsify",
    "name": "knobs-ascent",
    "model": {"builtin": "logistic"},
    "query": {
        "method": "ascent", "variable": "x",
        "from_level": 2.0, "to_level": 4.0,
        "state_bounds": {"x": [0.0, 12.0]},
        "param_ranges": {"r": [0.1, 2.0]},
    },
}


class TestSpecKnobsReachTheSolver:
    """Every ICP solve of a task runs with the spec's own knobs."""

    @pytest.mark.parametrize("spec", [LYAPUNOV_CERTIFY, FALSIFY_ASCENT],
                             ids=["lyapunov", "falsify-ascent"])
    def test_contract_tol_and_anytime_arrive(self, spec, monkeypatch):
        seen = []
        original = DeltaSolver._solve_impl

        def recording(self, phi, box):
            seen.append((self.contract_tol, self.anytime))
            return original(self, phi, box)

        monkeypatch.setattr(DeltaSolver, "_solve_impl", recording)
        events = []
        engine = Engine(
            seed=0, progress=lambda job, event: events.append(event),
            progress_interval=0.0,
        )
        spec = dict(spec, solver={
            "delta": 1e-3, "max_boxes": 50_000,
            "contract_tol": 0.5, "anytime": True,
        })
        report = engine.run(spec)
        assert report.ok
        assert seen
        assert set(seen) == {(0.5, True)}
        anytime = [e for e in events if e.stage == "anytime"]
        assert anytime and anytime[-1].counters["final"] == 1


class TestNoSolverOptionIsDropped:
    """A knob added to the spec but mapped nowhere fails here."""

    # every SolverOptions field at a non-default value
    NON_DEFAULT = {
        "delta": 0.125,
        "max_boxes": 777,
        "enclosure_step": 0.07,
        "contract_tol": 0.3,
        "use_simulation_guidance": False,
        "frontier_size": 5,
        "shards": 3,
        "shard_backend": "thread",
        "verify_step": 0.01,
        "paving_store": "artifact-dir",
        "warm_start": False,
        "anytime": True,
    }
    RENAMED = {("max_boxes", BMCOptions): "max_boxes_per_path"}

    def test_table_sets_every_field_off_default(self):
        o = SolverOptions(**self.NON_DEFAULT)
        for f in dataclasses.fields(SolverOptions):
            assert getattr(o, f.name) != f.default, f.name

    def test_every_field_survives_the_mapping(self):
        o = SolverOptions(**self.NON_DEFAULT)
        targets = [
            (DeltaSolver, _delta_solver(o)),
            (BMCOptions, _bmc_options(o)),
        ]
        for f in dataclasses.fields(SolverOptions):
            carried = 0
            for cls, mapped in targets:
                name = self.RENAMED.get((f.name, cls), f.name)
                if name in {g.name for g in dataclasses.fields(cls)}:
                    assert getattr(mapped, name) == getattr(o, f.name), (
                        f"{f.name} -> {cls.__name__}.{name}"
                    )
                    carried += 1
            assert carried, f"SolverOptions.{f.name} reaches no solver"


class _CountingThreadBackend(ThreadBackend):
    def __init__(self, workers=None):
        super().__init__(workers)
        self.submits = 0
        self.shutdowns = 0

    def submit(self, fn, /, *args):
        self.submits += 1
        return super().submit(fn, *args)

    def shutdown(self, wait=True):
        self.shutdowns += 1
        super().shutdown(wait)


@pytest.fixture
def created_backends(monkeypatch):
    import repro.solver.shard as shard_mod

    created = []

    def recording(name, workers=None):
        assert name == "thread"
        backend = _CountingThreadBackend(workers)
        created.append(backend)
        return backend

    monkeypatch.setattr(shard_mod, "make_backend", recording)
    return created


def _stable_analyzer(solver):
    system = ODESystem({"x": -x, "y": -2.0 * y})
    region = Box.from_bounds({"x": (-1, 1), "y": (-1, 1)})
    return LyapunovAnalyzer(system, region, solver=solver)


class TestOnePoolPerRun:
    """A named backend starts once per CEGIS run / ROA bisection."""

    def test_synthesize_creates_and_releases_one_pool(self, created_backends):
        an = _stable_analyzer(DeltaSolver(shards=2, shard_backend="thread"))
        assert an.synthesize(seed=1).status is Status.DELTA_SAT
        (backend,) = created_backends
        assert backend.submits > 0
        assert backend.shutdowns == 1 and backend._pool is None

    def test_region_of_attraction_creates_and_releases_one_pool(
        self, created_backends
    ):
        an = _stable_analyzer(DeltaSolver(shards=2, shard_backend="thread"))
        assert an.region_of_attraction(x * x + y * y, levels=3) > 0.0
        (backend,) = created_backends
        assert backend.submits > 0
        assert backend.shutdowns == 1 and backend._pool is None

    def test_injected_backend_is_left_running(self, created_backends):
        backend = _CountingThreadBackend(workers=2)
        an = _stable_analyzer(DeltaSolver(shards=2, shard_backend=backend))
        assert an.synthesize(seed=1).status is Status.DELTA_SAT
        assert an.region_of_attraction(x * x + y * y, levels=3) > 0.0
        assert not created_backends
        assert backend.submits > 0
        assert backend.shutdowns == 0 and backend._pool is not None
        backend.shutdown()

    def test_pooled_passes_unpooled_solvers_through(self, created_backends):
        backend = ThreadBackend(workers=1)
        for solver in (
            DeltaSolver(),
            DeltaSolver(shards=2, shard_backend=backend),
        ):
            with solver.pooled() as pooled:
                assert pooled is solver
        assert not created_backends


class TestFrozenSolver:
    def test_fields_cannot_be_reassigned(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            DeltaSolver().max_boxes = 5

    def test_paving_digest_rejects_a_misspelled_override(self):
        with pytest.raises(TypeError):
            paving_digest("cubic-band", "serial", {"frontier_sise": 2})

    def test_paving_digest_validates_overrides(self):
        with pytest.raises(ValueError, match="frontier_size"):
            paving_digest("cubic-band", "serial", {"frontier_size": 0})
