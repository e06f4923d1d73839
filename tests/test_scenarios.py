"""The declarative scenario catalog: registry, sweeps, CLI, caching."""

import json

import pytest

from repro.api import Engine, TaskSpec
from repro.api.cli import main
from repro.api.tasks import task_names
from repro.models import PATIENT_PROFILES
from repro.scenarios import (
    Scenario,
    ScenarioSweep,
    all_scenarios,
    family_specs,
    find_scenarios,
    gallery_markdown,
    get_scenario,
    register_scenario,
    scenario_names,
)
from repro.scenarios.catalog import _REGISTRY, _substitute
from repro.status import AnalysisStatus

FAST_ENTRIES = (
    "logistic-falsify",
    "decay-pipeline",
    "thermostat-reach",
    "tbi-plan",
)


# ----------------------------------------------------------------------
# registry and entry integrity
# ----------------------------------------------------------------------


class TestCatalogIntegrity:
    def test_catalog_is_populated(self):
        assert len(scenario_names()) >= 12

    def test_every_entry_is_well_formed(self):
        statuses = {s.value for s in AnalysisStatus}
        kinds = set(task_names())
        for s in all_scenarios():
            assert s.task in kinds
            assert s.summary and s.description and s.tags
            assert s.expected in statuses
            spec = s.spec()  # binds defaults, builds the Model
            assert isinstance(spec, TaskSpec)
            assert spec.name == s.name
            spec.to_json()  # must be JSON-able (cache-friendly)

    def test_round_trip_json_identical(self):
        for s in all_scenarios():
            clone = Scenario.from_json(s.to_json())
            assert clone.to_dict() == s.to_dict()
            assert clone.to_json() == s.to_json()
            # the bound specs agree too
            assert clone.spec().to_dict() == s.spec().to_dict()

    def test_get_scenario_unknown(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            get_scenario("no-such-entry")

    def test_find_scenarios_filters(self):
        cardiac = find_scenarios(tag="cardiac")
        assert {s.name for s in cardiac} >= {"cardiac-fk-dome", "cardiac-bcf-dome"}
        smc = find_scenarios(task="smc")
        assert all(s.task == "smc" for s in smc) and smc

    def test_register_rejects_duplicates_and_junk(self):
        with pytest.raises(ValueError, match="already registered"):
            register_scenario(get_scenario("sir-outbreak"))
        with pytest.raises(TypeError):
            register_scenario({"name": "not-a-scenario"})

    def test_register_decorator_form(self):
        @register_scenario
        def _entry():
            return Scenario(
                name="test-decorated-entry",
                summary="registered via the decorator form",
                task="smc",
                model={"builtin": "sir"},
            )

        try:
            assert get_scenario("test-decorated-entry").task == "smc"
        finally:
            del _REGISTRY["test-decorated-entry"]


class TestParameterBinding:
    def test_placeholder_substitution(self):
        bound = _substitute(
            {"a": {"$param": "x"}, "b": ["$x", "keep"], "c": {"n": 1}},
            {"x": 0.5},
        )
        assert bound == {"a": 0.5, "b": [0.5, "keep"], "c": {"n": 1}}

    def test_unknown_placeholder_raises(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            _substitute({"a": {"$param": "nope"}}, {"x": 1})

    def test_override_changes_query_and_name(self):
        s = get_scenario("sir-outbreak")
        spec = s.spec(epsilon=0.3)
        assert spec.query["epsilon"] == 0.3
        assert spec.name == "sir-outbreak[epsilon=0.3]"
        # defaults leave the plain name
        assert s.spec().name == "sir-outbreak"
        assert s.spec().query["epsilon"] == 0.1

    def test_unknown_override_rejected(self):
        with pytest.raises(ValueError, match="no parameter"):
            get_scenario("sir-outbreak").spec(bogus=1)

    def test_seed_override(self):
        s = get_scenario("sir-outbreak")
        assert s.spec().seed == 4
        assert s.spec(seed=11).seed == 11


# ----------------------------------------------------------------------
# running entries
# ----------------------------------------------------------------------


class TestRunEntries:
    @pytest.mark.parametrize("name", FAST_ENTRIES)
    def test_fast_entries_report_expected_verdict(self, name):
        s = get_scenario(name)
        report = Engine(seed=0).run(s.spec())
        assert report.status.value == s.expected
        assert report.name == s.name


# ----------------------------------------------------------------------
# sweeps
# ----------------------------------------------------------------------


class TestSweepExpansion:
    def test_grid_expansion_order_and_names(self):
        sweep = ScenarioSweep("sir-outbreak", grid={"epsilon": [0.3, 0.2]})
        specs = sweep.expand()
        assert [s.name for s in specs] == [
            "sir-outbreak[epsilon=0.3]", "sir-outbreak[epsilon=0.2]",
        ]
        assert [s.query["epsilon"] for s in specs] == [0.3, 0.2]

    def test_cohort_patients(self):
        sweep = ScenarioSweep("ias-cohort-burden", cohort="patients")
        specs = sweep.expand()
        assert len(specs) == len(PATIENT_PROFILES)
        patients = [s.model.to_dict()["args"]["patient"] for s in specs]
        assert patients == sorted(PATIENT_PROFILES)

    def test_unknown_symbolic_cohort(self):
        with pytest.raises(ValueError, match="symbolic cohort"):
            ScenarioSweep("ias-cohort-burden", cohort="aliens").expand()

    def test_seeds_axis(self):
        sweep = ScenarioSweep("sir-outbreak", seeds=[0, 1])
        specs = sweep.expand()
        assert [s.seed for s in specs] == [0, 1]
        assert [s.name for s in specs] == ["sir-outbreak#s0", "sir-outbreak#s1"]

    def test_family_specs_expands_a_corpus_family(self):
        entries = find_scenarios(family="ias-perturbed")
        specs = family_specs("ias-perturbed")
        assert [s.to_dict() for s in specs] == [e.spec().to_dict() for e in entries]
        seeded = family_specs("ias-perturbed", seeds=[0, 3])
        assert [s.name for s in seeded[:2]] == [
            f"{entries[0].name}#s0", f"{entries[0].name}#s3",
        ]
        assert [s.seed for s in seeded[:2]] == [0, 3]
        with pytest.raises(ValueError, match="no registered scenarios"):
            family_specs("no-such-family")

    def test_random_needs_samples(self):
        sweep = ScenarioSweep("sir-outbreak", random={"epsilon": (0.1, 0.3)})
        with pytest.raises(ValueError, match="samples"):
            sweep.expand()

    def test_random_is_deterministic_under_seed(self):
        def draws(seed):
            sweep = ScenarioSweep(
                "sir-outbreak", random={"epsilon": (0.1, 0.3)},
                samples=4, seed=seed,
            )
            return [s.query["epsilon"] for s in sweep.expand()]

        assert draws(7) == draws(7)
        assert draws(7) != draws(8)
        assert all(0.1 <= e <= 0.3 for e in draws(7))

    def test_grid_times_random(self):
        sweep = ScenarioSweep(
            "ias-policy",
            grid={"patient": ["patient_A", "patient_B"]},
            random={"population": (6.0, 12.0)},
            samples=3,
            seed=1,
        )
        specs = sweep.expand()
        assert len(specs) == 6
        # each grid point gets the SAME draws (cache-friendly pairing)
        pops = [s.query["population"] for s in specs]
        assert pops[:3] == pops[3:]

    def test_sweep_json_round_trip(self):
        sweep = ScenarioSweep(
            "sir-outbreak",
            grid={"epsilon": [0.1, 0.2]},
            random={"n": (10, 20)},
            samples=2,
            seed=3,
            cohort=["a", "b"],
            cohort_param="who",
            seeds=[0, 1],
        )
        clone = ScenarioSweep.from_json(sweep.to_json())
        assert clone.to_dict() == sweep.to_dict()

    def test_empty_grid_axis_rejected(self):
        with pytest.raises(ValueError, match="no values"):
            ScenarioSweep("sir-outbreak", grid={"epsilon": []}).expand()


class TestSweepCaching:
    def test_ias_cohort_cached_runs_byte_identical(self):
        """The acceptance check: per-patient reports are byte-identical
        between the uncached and the cache-served sweep submission."""
        sweep = ScenarioSweep("ias-cohort-burden", cohort="patients")
        with Engine(seed=0, cache=True) as engine:
            first = [h.result() for h in sweep.submit(engine)]
            second = [h.result() for h in sweep.submit(engine)]
            stats = engine.cache.stats()
        assert [r.to_json() for r in first] == [r.to_json() for r in second]
        assert stats["hits"] == len(PATIENT_PROFILES)
        assert stats["misses"] == len(PATIENT_PROFILES)
        # the responder/relapse split of the paper's cohort
        by_name = {r.name: r.metrics["probability"] for r in first}
        assert by_name["ias-cohort-burden[patient=patient_A]"] > 0.9
        assert by_name["ias-cohort-burden[patient=patient_C]"] < 0.1

    def test_random_sweep_resubmission_hits_cache(self):
        sweep = ScenarioSweep(
            "logistic-growth-smc", random={"epsilon": (0.2, 0.4)},
            samples=2, seed=5,
        )
        with Engine(seed=0, cache=True) as engine:
            first = [h.result() for h in sweep.submit(engine)]
            again = [h.result() for h in sweep.submit(engine)]
            assert engine.cache.stats()["hits"] == 2
        assert [r.to_json() for r in first] == [r.to_json() for r in again]


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


class TestScenariosCLI:
    def test_list_table(self, capsys):
        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        for name in scenario_names():
            assert name in out

    def test_list_json_and_filters(self, capsys):
        assert main(["scenarios", "list", "--tag", "cardiac",
                     "--format", "json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert {e["name"] for e in entries} == {
            s.name for s in find_scenarios(tag="cardiac")
        }

    def test_list_markdown_matches_renderer(self, capsys):
        assert main(["scenarios", "list", "--format", "markdown"]) == 0
        assert capsys.readouterr().out == gallery_markdown()

    def test_list_no_match(self, capsys):
        assert main(["scenarios", "list", "--tag", "nope"]) == 1

    def test_show(self, capsys):
        assert main(["scenarios", "show", "sir-outbreak"]) == 0
        out = capsys.readouterr().out
        assert "sir-outbreak" in out and "epsilon" in out and '"task"' in out

    def test_show_unknown_exits_2(self, capsys):
        assert main(["scenarios", "show", "nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_run_with_check_and_json(self, capsys):
        assert main(["scenarios", "run", "logistic-falsify",
                     "--check", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "falsified"
        assert report["name"] == "logistic-falsify"

    def test_run_with_param_override(self, capsys):
        assert main(["scenarios", "run", "logistic-growth-smc",
                     "-p", "epsilon=0.3", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["name"] == "logistic-growth-smc[epsilon=0.3]"

    def test_run_bad_param_exits_2(self, capsys):
        assert main(["scenarios", "run", "logistic-growth-smc",
                     "-p", "bogus=1"]) == 2
        assert "no parameter" in capsys.readouterr().err

    def test_run_check_rejects_param_overrides(self, capsys):
        # expected verdicts are recorded for the defaults: --check with
        # -p must refuse rather than silently pass (even when the
        # override equals the default)
        assert main(["scenarios", "run", "logistic-growth-smc",
                     "-p", "epsilon=0.2", "--check"]) == 2
        assert "--check" in capsys.readouterr().err

    def test_sweep_seed_zero_overrides_file(self, tmp_path, capsys):
        sweep_file = tmp_path / "sweep.json"
        sweep_file.write_text(ScenarioSweep(
            "logistic-growth-smc", random={"epsilon": (0.2, 0.4)},
            samples=2, seed=3,
        ).to_json())
        def epsilons(extra):
            assert main(["scenarios", "sweep", str(sweep_file),
                         "--dry-run", *extra]) == 0
            return [s["query"]["epsilon"]
                    for s in json.loads(capsys.readouterr().out)]
        assert epsilons(["--sweep-seed", "0"]) != epsilons([])  # 0 is not "unset"
        assert epsilons([]) == [
            s.query["epsilon"]
            for s in ScenarioSweep.from_json(sweep_file.read_text()).expand()
        ]

    def test_sweep_dry_run(self, capsys):
        assert main(["scenarios", "sweep", "sir-outbreak",
                     "--set", "epsilon=0.2,0.3", "--dry-run"]) == 0
        specs = json.loads(capsys.readouterr().out)
        assert [s["name"] for s in specs] == [
            "sir-outbreak[epsilon=0.2]", "sir-outbreak[epsilon=0.3]",
        ]

    def test_sweep_from_file_with_cache(self, tmp_path, capsys):
        sweep_file = tmp_path / "sweep.json"
        sweep_file.write_text(ScenarioSweep(
            "logistic-growth-smc", grid={"epsilon": [0.3, 0.4]},
        ).to_json())
        cache_dir = str(tmp_path / "rcache")
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        assert main(["scenarios", "sweep", str(sweep_file),
                     "--cache-dir", cache_dir, "--out", str(out1)]) == 0
        assert main(["scenarios", "sweep", str(sweep_file),
                     "--cache-dir", cache_dir, "--out", str(out2)]) == 0
        capsys.readouterr()
        assert json.loads(out1.read_text()) == json.loads(out2.read_text())

    def test_sweep_cohort_cli_expansion(self, capsys):
        assert main(["scenarios", "sweep", "ias-cohort-burden",
                     "--cohort", "patients", "--dry-run"]) == 0
        specs = json.loads(capsys.readouterr().out)
        assert len(specs) == len(PATIENT_PROFILES)


# ----------------------------------------------------------------------
# docs gallery staleness (the local mirror of the CI check)
# ----------------------------------------------------------------------


def test_committed_gallery_page_is_current():
    import pathlib

    page = pathlib.Path(__file__).resolve().parent.parent / "docs" / "scenarios.md"
    assert page.exists(), "docs/scenarios.md is missing"
    assert page.read_text() == gallery_markdown(), (
        "docs/scenarios.md is stale; regenerate with: "
        "python -m repro scenarios list --format markdown > docs/scenarios.md"
    )
