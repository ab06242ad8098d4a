"""Tests for the declarative scenario engine (spec, catalog, runner, CLI)."""

from __future__ import annotations

import ast
import dataclasses
import functools
import json
from pathlib import Path

import pytest

from repro.cli.scenario import _force_observability
from repro.cluster.topology import ClusterSpec, NodeClass
from repro.energy import PowerManagerConfig
from repro.hierarchy import HierarchyConfig, SystemSpec
from repro.network import NetworkConfig
from repro.obs import ObservabilityConfig
from repro.policies import UtilizationThresholds
from repro.scenarios import (
    ScenarioRunner,
    ScenarioSpec,
    TimelineEvent,
    WorkloadPhase,
    get_scenario,
    iter_scenarios,
    run_scenario,
    scenario_names,
)
from repro.cli.main import main
from repro.sweeps import iter_sweeps
from tests import test_paper_claims as paper_claims
from tests.golden import regenerate as golden


def _small_churn_spec(**overrides) -> ScenarioSpec:
    """A fast-running churn scenario used by several tests."""
    base = dict(
        name="test-churn",
        description="small churn scenario for tests",
        duration=600.0,
        local_controllers=4,
        group_managers=2,
        phases=[
            WorkloadPhase(
                name="churn",
                vm_count=12,
                arrival={"kind": "poisson", "rate_per_hour": 360.0},
                demand={"kind": "uniform", "low": 0.1, "high": 0.3},
                trace={"kind": "constant", "level": 0.6},
                lifetime={"kind": "exponential", "mean": 120.0, "minimum": 30.0},
            )
        ],
    )
    base.update(overrides)
    return ScenarioSpec(**base)


class TestScenarioSpec:
    def test_round_trip_through_dict(self):
        spec = _small_churn_spec(
            node_classes=[NodeClass(name="std", count=4, capacity=(1.0, 1.0, 1.0))],
            timeline=[TimelineEvent(at=300.0, action="kill_leader")],
            config={"monitoring_interval": 5.0},
        )
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_round_trip_through_json(self):
        spec = _small_churn_spec()
        decoded = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert decoded == spec

    def test_node_classes_force_local_controller_count(self):
        spec = _small_churn_spec(
            local_controllers=99,
            node_classes=[
                NodeClass(name="a", count=2, capacity=(1.0, 1.0, 1.0)),
                NodeClass(name="b", count=3, capacity=(2.0, 1.0, 1.0)),
            ],
        )
        assert spec.local_controllers == 5

    def test_unknown_config_override_rejected(self):
        # Besides a made-up key: a second hot path or a second spelling of a
        # policy selection must not come back as a silently accepted override.
        for override in (
            {"not_a_knob": 1},
            {"telemetry": "objects"},
            {"coalesce_events": False},
            {"placement_policy": "best-fit"},
        ):
            with pytest.raises(ValueError, match=r"unknown HierarchyConfig key\(s\)"):
                _small_churn_spec(config=override)

    def test_seed_config_override_rejected(self):
        with pytest.raises(ValueError, match="'seed' cannot be a config override"):
            _small_churn_spec(config={"seed": 99})

    def test_invalid_phase_parameters_fail_at_construction(self):
        with pytest.raises(ValueError, match="lifetime seconds must be positive"):
            WorkloadPhase(name="bad", vm_count=1, lifetime={"kind": "fixed", "seconds": -1})
        with pytest.raises(ValueError, match="window must be positive"):
            WorkloadPhase(name="bad", vm_count=1, arrival={"kind": "uniform", "window": -5})

    def test_unknown_workload_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown arrival process"):
            WorkloadPhase(name="bad", vm_count=1, arrival={"kind": "fibonacci"})
        with pytest.raises(ValueError, match="unknown lifetime distribution"):
            WorkloadPhase(name="bad", vm_count=1, lifetime={"kind": "bogus"})

    def test_unknown_timeline_action_rejected(self):
        with pytest.raises(ValueError, match="unknown timeline action"):
            TimelineEvent(at=0.0, action="reboot_universe")

    def test_timeline_event_beyond_duration_rejected(self):
        with pytest.raises(ValueError, match="beyond duration"):
            _small_churn_spec(timeline=[TimelineEvent(at=1e9, action="kill_leader")])

    def test_config_overrides_reach_hierarchy_config(self):
        spec = _small_churn_spec(
            config={
                "monitoring_interval": 5.0,
                "thresholds": {"underload": 0.3, "overload": 0.7},
                "power_manager": {"enabled": True, "check_interval": 60.0},
            }
        )
        config = spec.hierarchy_config(seed=42)
        assert config.seed == 42
        assert config.monitoring_interval == 5.0
        assert config.thresholds.overload == 0.7
        assert config.power_manager.enabled is True


class TestCatalog:
    def test_catalog_has_at_least_six_scenarios(self):
        assert len(scenario_names()) >= 6

    def test_every_entry_round_trips(self):
        for spec in iter_scenarios():
            assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_get_scenario_returns_fresh_specs(self):
        first = get_scenario("steady-churn")
        first.duration = 1.0
        assert get_scenario("steady-churn").duration != 1.0

    def test_unknown_name_lists_alternatives(self):
        with pytest.raises(KeyError, match="steady-churn"):
            get_scenario("no-such-scenario")

    def test_catalog_covers_churn_failures_and_heterogeneity(self):
        specs = {spec.name: spec for spec in iter_scenarios()}
        assert any(
            phase.lifetime["kind"] != "infinite"
            for spec in specs.values()
            for phase in spec.phases
        )
        assert any(spec.timeline for spec in specs.values())
        assert any(spec.node_classes for spec in specs.values())


class TestGoldenCatalogFixtures:
    """Every catalog scenario reproduces its committed golden fixture.

    This is both the determinism sweep the sweep engine's jobs-independence
    contract builds on (a nondeterministic scenario could not match a fixed
    byte string) and the safety net for hot-path refactors: array-backed
    telemetry, coalesced events and any future optimization must leave every
    fixture byte-identical -- and every ``transport_counts.json`` entry equal.
    Regenerate intentionally via
    ``PYTHONPATH=src python -m tests.golden.regenerate``.
    """

    @pytest.mark.parametrize("name", scenario_names())
    def test_catalog_scenario_matches_golden_fixture(self, name):
        path = golden.fixture_path(name)
        assert path.exists(), (
            f"missing golden fixture {path}; run "
            "PYTHONPATH=src python -m tests.golden.regenerate"
        )
        content, counts = golden.golden_run(name)
        assert content == path.read_text()
        # Same run, what no result field carries: events retired and messages
        # sent / delivered / dropped.  A kernel or transport change that merged,
        # skipped or re-ordered work would move these first.
        assert counts == golden.committed_transport_counts()[name]

    def test_transport_counts_cover_the_whole_catalog(self):
        assert sorted(golden.committed_transport_counts()) == sorted(scenario_names())

    def test_perf_section_is_zeroed_in_goldens_but_measured_in_results(self):
        result = run_scenario(_small_churn_spec(), seed=0)
        assert result.perf["wall_clock_seconds"] > 0.0
        assert result.perf["events_per_second"] > 0.0
        zeroed = json.loads(result.canonical_json())["perf"]
        assert zeroed == {"wall_clock_seconds": 0.0, "events_per_second": 0.0}


class TestScenarioRunner:
    def test_churn_departures_observable_in_result(self):
        result = run_scenario(_small_churn_spec(), seed=1)
        assert result.submissions["placed"] > 0
        assert result.churn["departed"] > 0
        assert result.churn["departure_events"] == result.churn["departed"]

    def test_same_spec_and_seed_is_byte_identical(self):
        spec = _small_churn_spec()
        first = run_scenario(spec, seed=3).canonical_json()
        second = run_scenario(_small_churn_spec(), seed=3).canonical_json()
        assert first == second

    def test_different_seeds_differ(self):
        spec = _small_churn_spec()
        assert (
            run_scenario(spec, seed=0).canonical_json()
            != run_scenario(spec, seed=99).canonical_json()
        )

    def test_timeline_failure_and_recovery_applied(self):
        spec = _small_churn_spec(
            timeline=[
                TimelineEvent(at=120.0, action="kill_lc", params={"name": "lc-001"}),
                TimelineEvent(at=360.0, action="recover", params={"name": "lc-001"}),
            ]
        )
        result = run_scenario(spec, seed=2)
        assert result.availability["failures_injected"] == 1
        assert result.availability["recoveries"] == 1
        assert result.availability["local_controllers_assigned"] == 4

    def test_set_thresholds_event_reaches_config(self):
        spec = _small_churn_spec(
            timeline=[
                TimelineEvent(
                    at=60.0, action="set_thresholds", params={"underload": 0.35, "overload": 0.75}
                )
            ]
        )
        runner = ScenarioRunner(spec, seed=0)
        runner.run()
        assert runner.system.config.thresholds.overload == 0.75
        for gm in runner.system.group_managers.values():
            assert gm.overload_policy.thresholds.overload == 0.75
        assert runner.system.event_log.count("thresholds_changed") == 1

    def test_heterogeneous_fleet_builds_distinct_capacities(self):
        spec = _small_churn_spec(
            node_classes=[
                NodeClass(name="big", count=2, capacity=(2.0, 2.0, 1.0)),
                NodeClass(name="small", count=2, capacity=(0.5, 0.5, 1.0)),
            ]
        )
        runner = ScenarioRunner(spec, seed=0)
        system = runner.build_system()
        capacities = sorted(node.capacity.values[0] for node in system.topology)
        assert capacities == [0.5, 0.5, 2.0, 2.0]
        classes = [node.node_class for node in system.topology]
        assert classes == ["big", "big", "small", "small"]

    def test_duration_override_shortens_run(self):
        result = run_scenario(_small_churn_spec(), seed=0, duration=120.0)
        assert result.duration == 120.0

    def test_duration_override_may_not_drop_timeline_events(self):
        spec = _small_churn_spec(
            timeline=[TimelineEvent(at=500.0, action="kill_leader")]
        )
        with pytest.raises(ValueError, match="drop 1 timeline event"):
            ScenarioRunner(spec, seed=0, duration=100.0)


class TestScenarioCli:
    def test_list_prints_catalog(self, capsys):
        assert main(["scenario", "list"]) == 0
        output = capsys.readouterr().out
        for name in scenario_names():
            assert name in output

    def test_list_json(self, capsys):
        assert main(["scenario", "list", "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert {entry["name"] for entry in entries} == set(scenario_names())

    def test_describe_round_trips(self, capsys):
        assert main(["scenario", "describe", "steady-churn"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert ScenarioSpec.from_dict(data) == get_scenario("steady-churn")

    def test_run_json_reports_churn(self, capsys):
        assert (
            main(["scenario", "run", "steady-churn", "--seed", "0", "--duration", "600", "--json"])
            == 0
        )
        result = json.loads(capsys.readouterr().out)
        assert result["scenario"] == "steady-churn"
        assert result["churn"]["departed"] > 0

    def test_run_table_output(self, capsys):
        assert main(["scenario", "run", "flash-crowd", "--seed", "0", "--duration", "300"]) == 0
        output = capsys.readouterr().out
        assert "Scenario: flash-crowd" in output
        assert "infrastructure_kwh" in output

    def test_unknown_scenario_fails_cleanly(self, capsys):
        assert main(["scenario", "run", "nope"]) == 1
        assert "unknown scenario" in capsys.readouterr().err

    def test_run_without_name_errors(self):
        with pytest.raises(SystemExit):
            main(["scenario", "run"])


# ------------------------------------------------------------- config census
#: Every type a deployment is configured through.
CONFIG_TYPES = (
    HierarchyConfig,
    NetworkConfig,
    PowerManagerConfig,
    UtilizationThresholds,
    ObservabilityConfig,
    SystemSpec,
    ClusterSpec,
    ScenarioSpec,
)
CONFIG_FIELDS = [
    f"{config_type.__name__}.{field.name}"
    for config_type in CONFIG_TYPES
    for field in dataclasses.fields(config_type)
]

#: The CLI flags that write a config field, each applied as ``scenario run``
#: applies it; the result is the deployment's configuration.
CLI_FLAG_WRITES = {
    "--seed": lambda spec: spec.hierarchy_config(seed=1),
    "--trace": lambda spec: _force_observability(spec, True, False).hierarchy_config(seed=0),
    "--metrics-out": lambda spec: _force_observability(spec, False, True).hierarchy_config(seed=0),
}

#: The files of the two product callers outside ``src`` that write config
#: fields: the benchmark's workloads and the reach tool.
ROOT = Path(__file__).resolve().parent.parent
BENCH_WORKLOADS = ROOT / "bench" / "workloads.py"
REACH_TOOL = ROOT / "tests" / "reach.py"


def literal_settings(path: Path, key: str) -> list:
    """Every literal value ``path`` gives ``key``, as a keyword argument or a
    dict entry (the form both callers write config in)."""
    values = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.keyword) and node.arg == key:
            nodes = [node.value]
        elif isinstance(node, ast.Dict):
            nodes = [
                v
                for k, v in zip(node.keys, node.values)
                if isinstance(k, ast.Constant) and k.value == key
            ]
        else:
            continue
        values.extend(node.value for node in nodes if isinstance(node, ast.Constant))
    return values


def _e8_configs():
    """E8's configurations, one per heartbeat setting."""
    return [paper_claims._heartbeat_config(i) for _, i in paper_claims.E8_SETTINGS]


#: Fields no catalog scenario, sweep cell or CLI flag varies, each with the
#: caller outside those paths that sets another value: ``Type.field ->
#: (caller, the configs that caller builds)``.
REASONS = {
    "HierarchyConfig.gl_heartbeat_interval": ("E8 sweeps the heartbeat interval", _e8_configs),
    "HierarchyConfig.gm_heartbeat_interval": ("E8 sweeps the heartbeat interval", _e8_configs),
    "HierarchyConfig.lc_heartbeat_interval": ("E8 sweeps the heartbeat interval", _e8_configs),
    "HierarchyConfig.heartbeat_timeout": ("E8 scales it with the heartbeat interval", _e8_configs),
    "HierarchyConfig.session_timeout": ("E8 scales it with the heartbeat interval", _e8_configs),
    "HierarchyConfig.relocation_enabled": (
        "E6 runs with relocation off and on",
        lambda: [paper_claims._relocation_config(on) for on in (False, True)],
    ),
    "SystemSpec.entry_points": ("E4 runs two Entry Points", lambda: [paper_claims.E4_SIZING]),
    "NetworkConfig.loss_probability": (
        "the reach tool's lossy spec-file run",
        lambda: [
            NetworkConfig(loss_probability=value)
            for value in literal_settings(REACH_TOOL, "loss_probability")
        ],
    ),
    "ObservabilityConfig.metrics": (
        "the benchmark's fleet-steady observability-off run",
        lambda: [
            ObservabilityConfig(metrics=value)
            for value in literal_settings(BENCH_WORKLOADS, "metrics")
        ],
    ),
    "ObservabilityConfig.profiling": (
        "the benchmark's traced runs switch the profiler on",
        lambda: [
            ObservabilityConfig(profiling=value)
            for value in literal_settings(BENCH_WORKLOADS, "profiling")
        ],
    ),
}

#: Fields no path varies that the benchmark's churn fleet
#: (``bench/workloads.py::fleet_spec``) names at the value every product path
#: gives them. The benchmark's files change only together with the benchmark;
#: until its fleet stops naming them, removing either field would make every
#: ``fleet-steady`` run fail. Then both become constants.
NAMED_BY_THE_BENCHMARK = {
    "NetworkConfig.base_latency": "base_latency",
    "ScenarioSpec.record_interval": "record_interval",
}


def _census_instances():
    """Every config object the product paths build: the catalog scenarios,
    every cell of every catalog sweep, and the CLI flag writes."""
    specs = list(iter_scenarios())
    cells = [run for sweep in iter_sweeps() for run in sweep.expand()]
    for spec in specs:
        yield from (spec, spec.hierarchy_config(seed=0), spec.system_spec(), spec.cluster_spec())
        yield from (write(spec) for write in CLI_FLAG_WRITES.values())
    for run in cells:
        spec = run.build_scenario_spec()
        yield from (spec, spec.hierarchy_config(seed=run.seed), spec.system_spec())


@functools.lru_cache(maxsize=None)
def config_census():
    """``Type.field`` -> the distinct values the product paths give it."""
    values = {name: set() for name in CONFIG_FIELDS}
    pending = list(_census_instances())
    while pending:
        instance = pending.pop()
        for field in dataclasses.fields(instance):
            value = getattr(instance, field.name)
            if isinstance(value, CONFIG_TYPES):
                pending.append(value)
            name = f"{type(instance).__name__}.{field.name}"
            values[name].add(_census_key(value))
    return values


def _census_key(value) -> str:
    """``value`` as the census compares it."""
    plain = dataclasses.asdict(value) if dataclasses.is_dataclass(value) else value
    return json.dumps(plain, sort_keys=True, default=repr)


class TestEveryConfigFieldIsVaried:
    """A config field earns its place by taking two values on a product path,
    or by a named caller that needs another value; otherwise it is a constant
    in the module that reads it."""

    @pytest.mark.parametrize("name", CONFIG_FIELDS)
    def test_field_is_varied_or_has_a_reason(self, name):
        values = config_census()[name]
        assert len(values) >= 2 or name in REASONS or name in NAMED_BY_THE_BENCHMARK, (
            f"{name} is {sorted(values)} on every product path; make it a constant "
            "in the module that reads it, or name the caller that varies it in REASONS"
        )

    @pytest.mark.parametrize("name", sorted(REASONS))
    def test_every_reason_is_needed_and_names_its_caller(self, name):
        assert name in CONFIG_FIELDS, f"{name} is no config field; drop its REASONS entry"
        census = config_census()[name]
        assert len(census) == 1, f"a product path varies {name}; drop its entry"
        caller, build = REASONS[name]
        field_name = name.split(".")[1]
        values = {_census_key(getattr(config, field_name)) for config in build()}
        assert values - census, (
            f"{caller} gives {name} only {sorted(values)}, which every product path "
            f"gives it already; make it a constant"
        )

    @pytest.mark.parametrize("name", sorted(NAMED_BY_THE_BENCHMARK))
    def test_benchmark_names_the_fields_it_keeps(self, name):
        assert name in CONFIG_FIELDS and len(config_census()[name]) == 1, name
        settings = literal_settings(BENCH_WORKLOADS, NAMED_BY_THE_BENCHMARK[name])
        assert settings, f"the benchmark no longer names {name}; make it a constant"
        assert {_census_key(value) for value in settings} == config_census()[name]
