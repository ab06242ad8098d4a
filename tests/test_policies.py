"""Tests for the unified policy subsystem: registry, ClusterView, decisions,
declarative selection through HierarchyConfig / ScenarioSpec / CLI."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli.main import main
from repro.cluster.node import NodeState
from repro.core.aco import ACOConsolidation
from repro.hierarchy.config import DEFAULT_POLICIES, HierarchyConfig
from repro.policies import (
    AssignmentPolicy,
    BestFitPlacement,
    ClusterView,
    DispatchingPolicy,
    FirstFitPlacement,
    LeastLoadedDispatching,
    MigrationPlan,
    OverloadRelocationPolicy,
    PlacementPolicy,
    ReconfigurationPolicy,
    RoundRobinAssignment,
    UnderloadRelocationPolicy,
    UtilizationThresholds,
    WorstFitPlacement,
    get_policy_spec,
    iter_policy_specs,
    make_policy,
    policy_kinds,
    policy_names,
    register_policy,
)
from repro.policies.registry import validate_policy_selection
from repro.scenarios import (
    ScenarioSpec,
    WorkloadPhase,
    get_scenario,
    iter_scenarios,
    run_scenario,
)
from repro.sweeps import iter_sweeps

from tests.conftest import join_view, make_node, make_vm

EXPECTED_KINDS = {
    "assignment",
    "dispatching",
    "overload-relocation",
    "placement",
    "reconfiguration",
    "underload-relocation",
}

#: Registered policies that no catalog path selects, each with the reason it
#: stays in ``src``.  Every other policy must be selected by the deployment
#: defaults, a catalog scenario or a catalog sweep, or leave the registry.
KEPT_WITHOUT_CATALOG = {
    ("placement", "round-robin"): (
        'the paper names it (Section II.C: "placement ... e.g. round robin or first-fit")'
    ),
    ("placement", "worst-fit"): "the sweep-fleet bench workload selects it",
    ("dispatching", "least-loaded"): "the policies.dispatch_us-least-loaded bench probe selects it",
}


def catalog_selections() -> set:
    """``(kind, name)`` of every policy the defaults, the scenarios or the sweeps select.

    ``policy-matrix`` does not count: it crosses the whole registry, so it
    selects every policy by construction.  A scenario selects its autoscaling
    policy in its traffic section.
    """
    selected = set(DEFAULT_POLICIES.items())
    blocks = []
    for scenario in iter_scenarios():
        blocks.append(scenario.policies)
        if scenario.traffic is not None:
            selected |= {
                ("autoscaling", service.autoscaling["name"])
                for service in scenario.traffic.services
                if service.autoscaling is not None
            }
    for sweep in iter_sweeps():
        if sweep.name != "policy-matrix":
            blocks.extend(sweep.policies)
    for block in blocks:
        selected |= {(kind, entry["name"]) for kind, entry in block.items()}
    return selected


class TestEveryPolicyIsSelected:
    def test_every_registered_policy_has_a_selector(self):
        selected = catalog_selections() | set(KEPT_WITHOUT_CATALOG)
        unselected = [
            f"{spec.kind} {spec.name}"
            for spec in iter_policy_specs()
            if (spec.kind, spec.name) not in selected
        ]
        assert not unselected, (
            f"registered but selected by no default, catalog scenario or sweep: {unselected}"
        )

    def test_every_named_exception_is_registered_and_needed(self):
        registered = {(spec.kind, spec.name) for spec in iter_policy_specs()}
        catalog = catalog_selections()
        for key in KEPT_WITHOUT_CATALOG:
            assert key in registered, f"{key} left the registry; drop its entry"
            assert key not in catalog, f"{key} is selected by the catalog; drop its entry"


class TestRegistry:
    def test_all_kinds_registered(self):
        assert EXPECTED_KINDS <= set(policy_kinds())

    def test_every_policy_constructs_from_spec_defaults(self):
        for spec in iter_policy_specs():
            policy = make_policy(spec.kind, spec.name, **spec.defaults())
            assert policy is not None
            # And again with no parameters at all: every registered policy
            # must be constructible out of the box.
            assert make_policy(spec.kind, spec.name) is not None

    def test_registry_backs_the_cli_with_no_hand_maintained_tables(self):
        assert set(policy_names("placement")) == {
            "first-fit",
            "best-fit",
            "worst-fit",
            "round-robin",
        }
        assert policy_names("reconfiguration") == ["aco"]

    def test_unknown_name_lists_alternatives(self):
        with pytest.raises(ValueError, match=r"best-fit.*first-fit"):
            make_policy("placement", "nope")
        # Removed spellings fail like any other unknown name / parameter.
        for removed in ("aco-vectorized", "distributed-aco", "ffd", "bfd", "wfd"):
            with pytest.raises(ValueError, match=r"choose from \['aco'\]"):
                make_policy("reconfiguration", removed)
        with pytest.raises(ValueError, match="n_ants"):
            make_policy("reconfiguration", "aco", vectorized=True)

    def test_unknown_kind_lists_kinds(self):
        with pytest.raises(ValueError, match="placement"):
            make_policy("teleportation", "magic")

    def test_unknown_parameter_rejected_with_schema(self):
        with pytest.raises(ValueError, match="n_ants"):
            make_policy("reconfiguration", "aco", colony_size=3)

    def test_unknown_name_lists_alternatives_for_every_kind(self):
        for kind in policy_kinds():
            with pytest.raises(ValueError) as excinfo:
                make_policy(kind, "nope")
            for name in policy_names(kind):
                assert name in str(excinfo.value)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):

            @register_policy("placement", name="first-fit")
            class Impostor:
                name = "first-fit"

    def test_validate_selection(self):
        spec = validate_policy_selection("placement", {"name": "best-fit"})
        assert spec.name == "best-fit"
        with pytest.raises(ValueError, match="dictionary"):
            validate_policy_selection("placement", "best-fit")
        with pytest.raises(ValueError, match="choose from"):
            validate_policy_selection("placement", {"name": "bogus"})


class TestClusterView:
    def make_cluster(self):
        nodes = [make_node(f"node-{i}") for i in range(4)]
        nodes[0].place_vm(make_vm(0.5, 0.5, 0.5))
        nodes[1].place_vm(make_vm(0.8, 0.8, 0.8))
        nodes[3].state = NodeState.SUSPENDED
        return nodes

    def test_view_is_sorted_by_node_id(self):
        nodes = self.make_cluster()
        view = ClusterView.from_nodes(reversed(nodes))
        assert list(view.node_ids) == sorted(node.node_id for node in nodes)

    def test_feasible_mask_excludes_full_and_suspended(self):
        view = ClusterView.from_nodes(self.make_cluster())
        mask = view.feasible_mask(np.array([0.3, 0.3, 0.3]))
        assert list(mask) == [True, False, True, False]

    def test_reserved_and_used_match_nodes(self):
        nodes = self.make_cluster()
        view = ClusterView.from_nodes(nodes)
        for node in nodes:
            index = view.index_of(node.node_id)
            assert np.allclose(view.reserved[index], node.reserved().values)
            assert np.allclose(view.capacities[index], node.capacity.values)

    def test_node_lookup(self):
        nodes = self.make_cluster()
        view = ClusterView.from_nodes(nodes)
        assert view.node_by_id("node-2") is nodes[2]
        assert view.node_by_id("missing") is None
        assert view.index_of("missing") is None

    def test_empty_view(self):
        view = ClusterView.from_nodes([])
        assert len(view) == 0
        assert view.feasible_mask(np.array([0.1, 0.1, 0.1])).size == 0

    def test_zero_capacity_dimension_yields_finite_scores(self):
        """Regression: a node advertising 0 capacity in some dimension (e.g. a
        diskless or NIC-less tier) used to make ``residual_after`` and
        ``headroom_fractions`` divide by zero and poison best/worst-fit scoring
        with NaN/inf.  Zero-capacity dimensions now contribute 0 headroom."""
        nodes = [make_node("node-0"), make_node("node-1", network=0.0)]
        nodes[0].place_vm(make_vm(0.4, 0.4, 0.1))
        view = ClusterView.from_nodes(nodes)
        residual = view.residual_after(np.array([0.2, 0.2, 0.0]))
        headroom = view.headroom_fractions()
        assert np.all(np.isfinite(residual))
        assert np.all(np.isfinite(headroom))
        # The degenerate dimension contributes nothing, the others still count.
        index = view.index_of("node-1")
        assert headroom[index] == pytest.approx(2.0)


def _reference_select(policy_name, vm, nodes):
    """The historical pure-Python policy semantics, as a parity oracle."""
    feasible = [n for n in nodes if n.is_available_for_placement and n.fits(vm)]
    if not feasible:
        return None
    if policy_name == "first-fit":
        return min(feasible, key=lambda n: n.node_id)
    if policy_name == "best-fit":
        def residual_after(n):
            return float(np.sum((n.available().values - vm.requested.values) / n.capacity.values))

        return min(feasible, key=lambda n: (residual_after(n), n.node_id))
    if policy_name == "worst-fit":
        def residual(n):
            return float(np.sum(n.available().values / n.capacity.values))

        return max(feasible, key=lambda n: (residual(n), n.node_id))
    raise AssertionError(policy_name)


class TestVectorizedPlacementParity:
    @pytest.mark.parametrize("policy_name", ["first-fit", "best-fit", "worst-fit"])
    def test_matches_reference_on_random_clusters(self, policy_name):
        rng = np.random.default_rng(42)
        policy = make_policy("placement", policy_name)
        for _ in range(25):
            nodes = [make_node(f"node-{i:02d}") for i in range(8)]
            for node in nodes:
                for _ in range(int(rng.integers(0, 4))):
                    size = float(rng.uniform(0.05, 0.3))
                    node.place_vm(make_vm(size, size, size))
                if rng.random() < 0.2:
                    node.state = NodeState.SUSPENDED
            size = float(rng.uniform(0.05, 0.6))
            vm = make_vm(size, size, size)
            expected = _reference_select(policy_name, vm, nodes)
            view = ClusterView.from_nodes(nodes)
            decision = policy.decide(vm, view)
            if expected is None:
                assert not decision.placed
            else:
                assert view.node_by_id(decision.node_id) is expected

    def test_decision_object_carries_reason_when_nothing_fits(self):
        node = make_node("full")
        node.place_vm(make_vm(0.9, 0.9, 0.9))
        view = ClusterView.from_nodes([node])
        decision = BestFitPlacement().decide(make_vm(0.5, 0.5, 0.5), view)
        assert not decision.placed
        assert decision.reason


class TestDecisionVocabulary:
    def test_relocation_and_reconfiguration_share_migration_plan(self):
        nodes = [make_node("node-0"), make_node("node-1")]
        nodes[0].place_vm(make_vm(0.2, 0.2, 0.2))
        assert isinstance(OverloadRelocationPolicy().decide(nodes[0], nodes), MigrationPlan)
        assert isinstance(UnderloadRelocationPolicy().decide(nodes[0], nodes), MigrationPlan)
        reconfiguration = make_policy("reconfiguration", "aco", n_ants=2, n_cycles=2)
        assert isinstance(reconfiguration.plan(join_view(nodes)), MigrationPlan)

    def test_migration_plan_defaults(self):
        plan = MigrationPlan()
        assert plan.empty
        assert plan.hosts_saved == 0
        assert len(plan) == 0


class TestAssignmentPolicies:
    def test_round_robin_rotates(self):
        policy = RoundRobinAssignment()
        gm_ids = ["gm-00", "gm-01", "gm-02"]
        chosen = [policy.choose(gm_ids, {}) for _ in range(3)]
        assert chosen == gm_ids

    def test_empty_gm_list(self):
        assert RoundRobinAssignment().choose([], {}) is None


class TestAcoReconfigurationFactory:
    """``aco``, the one registered reconfiguration policy, built by name."""

    def busy_nodes(self):
        nodes = [make_node(f"node-{i}") for i in range(5)]
        for node in nodes[:4]:
            vm = make_vm(0.3, 0.3, 0.1)
            node.place_vm(vm)
            vm.update_usage(0.0)
        return nodes

    def test_colony_parameters_reach_the_algorithm(self):
        policy = make_policy(
            "reconfiguration", "aco", n_ants=3, n_cycles=5, n_colonies=2, jobs=1
        )
        assert isinstance(policy, ReconfigurationPolicy)
        assert isinstance(policy.algorithm, ACOConsolidation)
        assert (policy.algorithm.parameters.n_ants, policy.algorithm.parameters.n_cycles) == (3, 5)
        assert (policy.algorithm.n_colonies, policy.algorithm.jobs) == (2, 1)

    def test_defaults_warm_start_over_every_eligible_node(self):
        policy = make_policy("reconfiguration", "aco")
        assert policy.warm_start and not policy.incremental
        assert policy.max_migrations is None and not policy.include_overloaded
        assert policy.thresholds == UtilizationThresholds()

    def test_switches_caps_and_thresholds_are_forwarded(self):
        thresholds = UtilizationThresholds(underload=0.1, overload=0.7)
        policy = make_policy(
            "reconfiguration",
            "aco",
            warm_start=False,
            incremental=True,
            max_migrations=2,
            include_overloaded=True,
            thresholds=thresholds,
        )
        assert not policy.warm_start and policy.incremental
        assert policy.max_migrations == 2 and policy.include_overloaded
        assert policy.thresholds is thresholds

    def test_same_rng_seed_plans_the_same_moves(self):
        def moves(seed):
            nodes = self.busy_nodes()
            policy = make_policy(
                "reconfiguration", "aco", n_ants=4, n_cycles=8, rng=np.random.default_rng(seed)
            )
            plan = policy.plan(join_view(nodes))
            assert plan.hosts_after < plan.hosts_before
            return [(source.node_id, target.node_id) for _vm, source, target in plan.moves]

        assert moves(11) == moves(11)


class TestHierarchyConfigPolicies:
    def test_policy_block_drives_resolved_selection(self):
        authored = {
            "placement": {"name": "best-fit"},
            "dispatching": {"name": "least-loaded"},
        }
        config = HierarchyConfig(policies=authored)
        resolved = config.resolved_policies()
        assert resolved["placement"] == {"name": "best-fit"}
        assert resolved["dispatching"] == {"name": "least-loaded"}
        assert resolved["reconfiguration"] == {"name": "aco"}
        # The authored block stays as written (no defaults folded in), so
        # replace() and serialization carry intent, not derived state.
        assert config.policies == authored

    def test_flat_policy_string_fields_are_gone(self):
        for field_name in (
            "dispatching_policy",
            "placement_policy",
            "assignment_policy",
            "reconfiguration_algorithm",
        ):
            with pytest.raises(TypeError, match=field_name):
                HierarchyConfig(**{field_name: "first-fit"})
            assert not hasattr(HierarchyConfig(), field_name)

    def test_unknown_policy_name_rejected_at_construction(self):
        with pytest.raises(ValueError, match="choose from"):
            HierarchyConfig(policies={"placement": {"name": "bogus"}})
        with pytest.raises(ValueError, match="choose from"):
            HierarchyConfig(policies={"reconfiguration": {"name": "simulated-annealing"}})
        with pytest.raises(ValueError, match="dictionary"):
            HierarchyConfig(policies={"placement": "best-fit"})

    def test_build_policy_returns_registered_instances(self):
        config = HierarchyConfig(
            policies={
                "placement": {"name": "worst-fit"},
                "reconfiguration": {"name": "aco", "n_ants": 3},
            }
        )
        assert isinstance(config.build_policy("placement"), WorstFitPlacement)
        reconfiguration = config.build_policy("reconfiguration")
        assert isinstance(reconfiguration, ReconfigurationPolicy)
        assert reconfiguration.algorithm.parameters.n_ants == 3

    def test_build_policy_entry_params_override_runtime_extras(self):
        config = HierarchyConfig(
            policies={"reconfiguration": {"name": "aco", "n_cycles": 3}},
            max_migrations_per_round=2,
        )
        policy = config.build_policy(
            "reconfiguration", max_migrations=config.max_migrations_per_round
        )
        assert policy.max_migrations == 2
        assert policy.algorithm.parameters.n_cycles == 3

    def test_invalid_block_mutation_after_construction_fails_at_build(self):
        config = HierarchyConfig()
        config.policies["placement"] = {"name": "bogus"}
        with pytest.raises(ValueError, match="choose from"):
            config.build_policy("placement")
        with pytest.raises(ValueError, match="unknown policy kind"):
            config.policy_name("teleportation")

    def test_dataclasses_replace_carries_the_policy_block(self):
        import dataclasses

        replaced = dataclasses.replace(
            HierarchyConfig(), policies={"placement": {"name": "best-fit"}}
        )
        assert replaced.policy_name("placement") == "best-fit"
        again = dataclasses.replace(replaced, estimator="max")
        assert again.policies == {"placement": {"name": "best-fit"}}

    def test_policy_block_mutation_after_construction_is_honored(self):
        config = HierarchyConfig()
        config.policies["placement"] = {"name": "best-fit"}
        assert config.policy_name("placement") == "best-fit"
        assert isinstance(config.build_policy("placement"), BestFitPlacement)

    def test_defaults_are_backward_compatible(self):
        assert set(DEFAULT_POLICIES) == EXPECTED_KINDS
        config = HierarchyConfig()
        assert config.policy_name("placement") == "first-fit"
        assert config.policy_name("dispatching") == "first-fit"
        assert config.policy_name("assignment") == "round-robin"
        assert config.policy_name("reconfiguration") == "aco"
        assert config.policy_name("overload-relocation") == "greedy"
        assert config.policy_name("underload-relocation") == "all-or-nothing"


def _policy_spec(**overrides) -> ScenarioSpec:
    base = dict(
        name="policy-test",
        duration=600.0,
        local_controllers=4,
        group_managers=2,
        config={"reconfiguration_interval": 300.0},
        policies={
            "placement": {"name": "best-fit"},
            "reconfiguration": {"name": "aco", "n_ants": 4, "n_cycles": 5},
        },
        phases=[
            WorkloadPhase(
                name="churn",
                vm_count=12,
                arrival={"kind": "poisson", "rate_per_hour": 360.0},
                demand={"kind": "uniform", "low": 0.1, "high": 0.3},
                trace={"kind": "constant", "level": 0.6},
                lifetime={"kind": "exponential", "mean": 200.0, "minimum": 30.0},
            )
        ],
    )
    base.update(overrides)
    return ScenarioSpec(**base)


class TestScenarioPolicies:
    def test_round_trip_through_json(self):
        spec = _policy_spec()
        decoded = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert decoded == spec
        assert decoded.policies["reconfiguration"]["n_ants"] == 4

    def test_every_registered_policy_round_trips_through_scenario_json(self):
        for registered in iter_policy_specs():
            spec = _policy_spec(policies={registered.kind: {"name": registered.name}})
            decoded = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
            assert decoded == spec
            assert decoded.policies[registered.kind]["name"] == registered.name

    def test_unknown_policy_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown policy kind"):
            _policy_spec(policies={"teleportation": {"name": "magic"}})

    def test_unknown_policy_name_rejected(self):
        with pytest.raises(ValueError, match="choose from"):
            _policy_spec(policies={"placement": {"name": "bogus"}})

    def test_unknown_policy_parameter_rejected(self):
        with pytest.raises(ValueError, match="colony_size"):
            _policy_spec(policies={"reconfiguration": {"name": "aco", "colony_size": 9}})

    def test_runtime_parameters_rejected_declaratively(self):
        # thresholds/rng carry live runtime objects; JSON cannot express them.
        with pytest.raises(ValueError, match="runtime"):
            _policy_spec(policies={"reconfiguration": {"name": "aco", "rng": 7}})
        with pytest.raises(ValueError, match="runtime"):
            _policy_spec(
                policies={
                    "overload-relocation": {"name": "greedy", "thresholds": {"overload": 0.9}}
                }
            )
        with pytest.raises(ValueError, match="runtime"):
            HierarchyConfig(
                policies={"underload-relocation": {"name": "all-or-nothing", "thresholds": {}}}
            )

    def test_policies_not_allowed_inside_config_block(self):
        with pytest.raises(ValueError, match="top-level 'policies' section"):
            _policy_spec(config={"policies": {"placement": {"name": "best-fit"}}})

    def test_policies_reach_hierarchy_config(self):
        config = _policy_spec().hierarchy_config(seed=5)
        assert config.policy_name("placement") == "best-fit"
        assert config.policy_name("reconfiguration") == "aco"

    def test_same_seed_runs_with_policy_block_are_byte_identical(self):
        first = run_scenario(_policy_spec(), seed=11).canonical_json()
        second = run_scenario(_policy_spec(), seed=11).canonical_json()
        assert first == second
        decoded = json.loads(first)
        assert decoded["policies"]["placement"] == "best-fit"
        assert decoded["policies"]["reconfiguration"] == "aco"

    def test_every_placement_policy_serves_the_same_catalog_workload(self):
        base = get_scenario("steady-churn")
        results = [
            run_scenario(
                ScenarioSpec.from_dict(
                    {
                        **base.to_dict(),
                        "duration": 600.0,
                        "policies": {**base.policies, "placement": {"name": name}},
                    }
                ),
                seed=2012,
            )
            for name in policy_names("placement")
        ]
        assert len(results) >= 4
        assert len({result.submissions["placed"] for result in results}) == 1
        assert all(result.packing["mean_active_hosts"] > 0 for result in results)

    def test_scenario_without_policy_block_runs_the_defaults(self):
        config = _policy_spec(policies={}).hierarchy_config(seed=0)
        assert config.policies == {}
        assert {
            kind: entry["name"] for kind, entry in config.resolved_policies().items()
        } == DEFAULT_POLICIES


class TestPolicyCli:
    def test_policy_list_enumerates_the_whole_registry(self, capsys):
        assert main(["policy", "list"]) == 0
        output = capsys.readouterr().out
        for spec in iter_policy_specs():
            assert spec.name in output
            assert spec.kind in output

    def test_policy_list_shows_what_the_catalog_selects(self, capsys):
        assert main(["policy", "list", "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        names = {}
        for entry in entries:
            names.setdefault(entry["kind"], set()).add(entry["name"])
        assert names["placement"] == {"best-fit", "first-fit", "round-robin", "worst-fit"}
        assert names["dispatching"] == {"first-fit", "least-loaded"}
        assert names["assignment"] == {"round-robin"}
        assert names["reconfiguration"] == {"aco"}

    def test_policy_list_kind_filter(self, capsys):
        assert main(["policy", "list", "placement", "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert {e["kind"] for e in entries} == {"placement"}
        assert main(["policy", "list", "teleportation"]) == 1
        assert "unknown policy kind" in capsys.readouterr().err

    def test_policy_list_json(self, capsys):
        assert main(["policy", "list", "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert {(e["kind"], e["name"]) for e in entries} == {
            (s.kind, s.name) for s in iter_policy_specs()
        }

    def test_policy_describe_json_matches_registry(self, capsys):
        assert main(["policy", "describe", "reconfiguration", "aco", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data == get_policy_spec("reconfiguration", "aco").describe()

    def test_policy_describe_table_without_json(self, capsys):
        assert main(["policy", "describe", "reconfiguration", "aco"]) == 0
        output = capsys.readouterr().out
        assert "reconfiguration / aco" in output
        assert "n_ants" in output

    def test_policy_list_rejects_trailing_name(self):
        with pytest.raises(SystemExit):
            main(["policy", "list", "placement", "best-fit"])

    def test_policy_describe_unknown_fails_cleanly(self, capsys):
        assert main(["policy", "describe", "placement", "bogus"]) == 1
        assert "choose from" in capsys.readouterr().err

    def test_scenario_run_with_policy_override(self, capsys):
        assert (
            main(
                [
                    "scenario",
                    "run",
                    "steady-churn",
                    "--seed",
                    "0",
                    "--duration",
                    "300",
                    "--policy",
                    "placement=worst-fit",
                    "--json",
                ]
            )
            == 0
        )
        result = json.loads(capsys.readouterr().out)
        assert result["policies"]["placement"] == "worst-fit"

    def test_same_name_override_preserves_tuned_parameters(self):
        from repro.cli.scenario import _apply_policy_overrides
        from repro.scenarios import get_scenario

        spec = get_scenario("aco-consolidation-cycle")
        same = _apply_policy_overrides(spec, {"reconfiguration": {"name": "aco"}})
        assert same.policies["reconfiguration"]["n_cycles"] == 12
        retuned = {"name": "aco", "n_cycles": 3}
        different = _apply_policy_overrides(spec, {"reconfiguration": retuned})
        assert different.policies["reconfiguration"] == retuned
        assert different.policies["placement"] == {"name": "best-fit"}

    def test_scenario_describe_previews_policy_overrides(self, capsys):
        assert (
            main(["scenario", "describe", "steady-churn", "--policy", "placement=best-fit"])
            == 0
        )
        data = json.loads(capsys.readouterr().out)
        assert data["policies"]["placement"] == {"name": "best-fit"}
        assert main(["scenario", "describe", "steady-churn", "--policy", "placement=bogus"]) == 1
        assert "choose from" in capsys.readouterr().err

    def test_scenario_list_rejects_policy_overrides(self):
        with pytest.raises(SystemExit):
            main(["scenario", "list", "--policy", "placement=best-fit"])

    def test_scenario_run_with_bad_policy_override_fails_cleanly(self, capsys):
        assert (
            main(["scenario", "run", "steady-churn", "--policy", "placement=bogus"]) == 1
        )
        assert "choose from" in capsys.readouterr().err
        assert (
            main(["scenario", "run", "steady-churn", "--policy", "malformed"]) == 1
        )
        assert "KIND=NAME" in capsys.readouterr().err


class TestNoStringComparisonOutsidePolicies:
    def test_base_classes_expose_kind(self):
        assert PlacementPolicy.kind == "placement"
        assert DispatchingPolicy.kind == "dispatching"
        assert AssignmentPolicy.kind == "assignment"

    def test_group_manager_uses_registered_policies(self):
        from repro.hierarchy.system import SnoozeSystem, SystemSpec

        system = SnoozeSystem(
            SystemSpec(local_controllers=2, group_managers=1),
            config=HierarchyConfig(policies={"dispatching": {"name": "least-loaded"}}),
        )
        gm = next(iter(system.group_managers.values()))
        assert isinstance(gm.dispatching_policy, LeastLoadedDispatching)
        assert isinstance(gm.assignment_policy, RoundRobinAssignment)
        assert isinstance(gm.placement_policy, FirstFitPlacement)
