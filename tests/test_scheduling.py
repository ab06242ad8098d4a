"""Tests for the two-level scheduling policies: thresholds, dispatching, placement,
relocation and reconfiguration."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.resources import ResourceVector
from repro.core.aco import ACOConsolidation, ACOParameters
from repro.core.base import ConsolidationAlgorithm
from repro.core.ffd import FirstFitDecreasing
from repro.core.placement import PlacementError
from repro.monitoring.summary import GroupManagerSummary
from repro.policies import (
    BestFitPlacement,
    ClusterView,
    FirstFitDispatching,
    FirstFitPlacement,
    LeastLoadedDispatching,
    OverloadRelocationPolicy,
    ReconfigurationPolicy,
    RoundRobinPlacement,
    UnderloadRelocationPolicy,
    UtilizationThresholds,
    WorstFitPlacement,
    make_policy,
)
from repro.workloads.traces import ConstantTrace

from tests.conftest import join_view, make_node, make_vm


class TestThresholds:
    def test_classification(self):
        thresholds = UtilizationThresholds(underload=0.2, overload=0.8)
        assert thresholds.is_underloaded(0.1) and not thresholds.is_overloaded(0.1)
        assert not thresholds.is_underloaded(0.5) and not thresholds.is_overloaded(0.5)
        assert thresholds.is_overloaded(0.9) and not thresholds.is_underloaded(0.9)

    def test_boundaries_are_moderate(self):
        thresholds = UtilizationThresholds(underload=0.2, overload=0.8)
        assert not thresholds.is_underloaded(0.2)
        assert not thresholds.is_overloaded(0.8)

    def test_invalid_thresholds_rejected(self):
        with pytest.raises(ValueError):
            UtilizationThresholds(underload=0.9, overload=0.8)
        with pytest.raises(ValueError):
            UtilizationThresholds(underload=-0.1, overload=0.8)


def summary_for(gm_id, reserved_fraction, lc_count=4):
    capacity = ResourceVector([float(lc_count)] * 3)
    reserved = capacity * reserved_fraction
    return GroupManagerSummary(
        gm_id=gm_id,
        timestamp=0.0,
        total_capacity=capacity,
        reserved=reserved,
        used=reserved,
        local_controller_count=lc_count,
        active_vm_count=lc_count,
        largest_free_slot=ResourceVector([1.0 - reserved_fraction] * 3),
    )


class TestDispatching:
    DEMAND = ResourceVector([0.3, 0.3, 0.3])

    def test_least_loaded_prefers_emptiest_gm(self):
        policy = LeastLoadedDispatching()
        summaries = {
            "gm-0": summary_for("gm-0", 0.7),
            "gm-1": summary_for("gm-1", 0.1),
            "gm-2": summary_for("gm-2", 0.4),
        }
        assert policy.decide(self.DEMAND, summaries).candidates[0] == "gm-1"

    def test_first_fit_is_id_ordered(self):
        policy = FirstFitDispatching()
        summaries = {
            "gm-2": summary_for("gm-2", 0.1),
            "gm-0": summary_for("gm-0", 0.6),
            "gm-1": summary_for("gm-1", 0.3),
        }
        assert policy.decide(self.DEMAND, summaries).candidates == ["gm-0", "gm-1", "gm-2"]

    def test_implausible_gms_filtered_but_fallback_to_all(self):
        policy = FirstFitDispatching()
        # Both GMs too full for the VM -> fallback returns all of them.
        summaries = {
            "gm-0": summary_for("gm-0", 0.95),
            "gm-1": summary_for("gm-1", 0.99),
        }
        big_demand = ResourceVector([0.9, 0.9, 0.9])
        assert sorted(policy.decide(big_demand, summaries).candidates) == ["gm-0", "gm-1"]

    def test_factory(self):
        assert isinstance(make_policy("dispatching", "first-fit"), FirstFitDispatching)
        assert isinstance(make_policy("dispatching", "least-loaded"), LeastLoadedDispatching)
        with pytest.raises(ValueError, match=r"choose from \['first-fit', 'least-loaded'\]"):
            make_policy("dispatching", "nope")

    def test_empty_summaries(self):
        decision = FirstFitDispatching().decide(self.DEMAND, {})
        assert decision.empty
        assert decision.candidates == []


def placed_on(policy, vm, nodes):
    """The node id ``policy`` decides on for ``vm`` over a fresh snapshot of ``nodes``."""
    return policy.decide(vm, ClusterView.from_nodes(nodes)).node_id


class TestPlacementPolicies:
    def make_nodes(self):
        nodes = [make_node(f"node-{i}") for i in range(3)]
        # node-0 half full, node-1 nearly full, node-2 empty.
        nodes[0].place_vm(make_vm(0.5, 0.5, 0.5))
        nodes[1].place_vm(make_vm(0.8, 0.8, 0.8))
        return nodes

    def test_first_fit_picks_lowest_id_that_fits(self):
        nodes = self.make_nodes()
        assert placed_on(FirstFitPlacement(), make_vm(0.3, 0.3, 0.3), nodes) == "node-0"

    def test_best_fit_picks_fullest_feasible_node(self):
        nodes = self.make_nodes()
        assert placed_on(BestFitPlacement(), make_vm(0.1, 0.1, 0.1), nodes) == "node-1"

    def test_worst_fit_picks_emptiest_node(self):
        nodes = self.make_nodes()
        assert placed_on(WorstFitPlacement(), make_vm(0.1, 0.1, 0.1), nodes) == "node-2"

    def test_round_robin_cycles_through_feasible_nodes(self):
        nodes = [make_node(f"node-{i}") for i in range(3)]
        policy = RoundRobinPlacement()
        chosen = [placed_on(policy, make_vm(0.1, 0.1, 0.1), nodes) for _ in range(3)]
        assert len(set(chosen)) == 3

    def test_none_when_nothing_fits(self):
        nodes = [make_node("node-0")]
        nodes[0].place_vm(make_vm(0.9, 0.9, 0.9))
        decision = FirstFitPlacement().decide(
            make_vm(0.5, 0.5, 0.5), ClusterView.from_nodes(nodes)
        )
        assert not decision.placed
        assert decision.node_id is None

    def test_suspended_nodes_excluded(self):
        from repro.cluster.node import NodeState

        nodes = [make_node("node-0"), make_node("node-1")]
        nodes[0].state = NodeState.SUSPENDED
        assert placed_on(FirstFitPlacement(), make_vm(), nodes) == "node-1"

    def test_decide_breaks_ties_by_node_id_whatever_the_input_order(self):
        """Equal candidates: first/best-fit take the smallest id, worst-fit the
        largest, round-robin walks ids upward -- independent of list order."""
        nodes = [make_node(f"node-{i}") for i in (2, 0, 3, 1)]
        vm = make_vm(0.1, 0.1, 0.1)
        assert placed_on(FirstFitPlacement(), vm, nodes) == "node-0"
        assert placed_on(BestFitPlacement(), vm, nodes) == "node-0"
        assert placed_on(WorstFitPlacement(), vm, nodes) == "node-3"
        rotation = RoundRobinPlacement()
        assert [placed_on(rotation, vm, nodes) for _ in range(5)] == [
            "node-0",
            "node-1",
            "node-2",
            "node-3",
            "node-0",
        ]
        # The decision names a node of the snapshot it was taken over.
        view = ClusterView.from_nodes(nodes)
        chosen = view.node_by_id(WorstFitPlacement().decide(vm, view).node_id)
        assert chosen is nodes[2]

    def test_factory(self):
        assert isinstance(make_policy("placement", "best-fit"), BestFitPlacement)
        with pytest.raises(ValueError, match=r"round-robin.*worst-fit"):
            make_policy("placement", "nope")


class TestOverloadRelocation:
    def overloaded_setup(self):
        source = make_node("hot")
        for _ in range(3):
            vm = make_vm(cpu=0.32, memory=0.2, network=0.1, trace=ConstantTrace(1.0))
            source.place_vm(vm)
            vm.update_usage(0.0)
        destinations = [make_node("cold-0"), make_node("cold-1")]
        return source, destinations

    def test_moves_enough_vms_to_clear_overload(self):
        source, destinations = self.overloaded_setup()
        policy = OverloadRelocationPolicy(UtilizationThresholds(overload=0.8))
        decision = policy.decide(source, destinations + [source])
        assert not decision.empty
        moved_cpu = sum(vm.used["cpu"] for vm, _, _ in decision.moves)
        assert source.used()["cpu"] - moved_cpu <= 0.8 + 1e-9

    def test_no_moves_when_not_overloaded(self):
        source = make_node("ok")
        vm = make_vm(cpu=0.3, trace=ConstantTrace(1.0))
        source.place_vm(vm)
        vm.update_usage(0.0)
        decision = OverloadRelocationPolicy().decide(source, [make_node("other")])
        assert decision.empty
        assert "not overloaded" in decision.reason

    def test_no_moves_without_feasible_destination(self):
        source, _ = self.overloaded_setup()
        full = make_node("full")
        full.place_vm(make_vm(0.95, 0.9, 0.9))
        decision = OverloadRelocationPolicy().decide(source, [full])
        assert decision.empty

    def test_destinations_not_pushed_over_threshold(self):
        source, destinations = self.overloaded_setup()
        policy = OverloadRelocationPolicy(UtilizationThresholds(overload=0.8))
        decision = policy.decide(source, destinations)
        added = {}
        for vm, _, destination in decision.moves:
            added[destination.node_id] = added.get(destination.node_id, 0.0) + vm.used["cpu"]
        for destination in destinations:
            assert destination.used()["cpu"] + added.get(destination.node_id, 0.0) <= 0.8 + 1e-9


class TestUnderloadRelocation:
    def test_evacuates_underloaded_host_entirely(self):
        source = make_node("light")
        vm = make_vm(cpu=0.1, memory=0.1, network=0.05, trace=ConstantTrace(1.0))
        source.place_vm(vm)
        vm.update_usage(0.0)
        busy = make_node("busy")
        busy_vm = make_vm(cpu=0.5, memory=0.3, network=0.1, trace=ConstantTrace(1.0))
        busy.place_vm(busy_vm)
        busy_vm.update_usage(0.0)
        decision = UnderloadRelocationPolicy().decide(source, [busy])
        assert len(decision.moves) == 1
        assert decision.moves[0][2].node_id == "busy"

    def test_all_or_nothing(self):
        source = make_node("light")
        for _ in range(2):
            vm = make_vm(cpu=0.08, memory=0.45, network=0.05, trace=ConstantTrace(1.0))
            source.place_vm(vm)
            vm.update_usage(0.0)
        # Destination can fit only one of the two VMs (memory bound).
        busy = make_node("busy")
        filler = make_vm(cpu=0.3, memory=0.5, network=0.1, trace=ConstantTrace(1.0))
        busy.place_vm(filler)
        filler.update_usage(0.0)
        decision = UnderloadRelocationPolicy().decide(source, [busy])
        assert decision.empty
        assert "aborting evacuation" in decision.reason

    def test_empty_hosts_not_used_as_destinations(self):
        source = make_node("light")
        vm = make_vm(cpu=0.1, trace=ConstantTrace(1.0))
        source.place_vm(vm)
        vm.update_usage(0.0)
        empty = make_node("empty")
        decision = UnderloadRelocationPolicy().decide(source, [empty])
        assert decision.empty

    def test_not_underloaded_means_no_moves(self):
        source = make_node("mid")
        vm = make_vm(cpu=0.5, trace=ConstantTrace(1.0))
        source.place_vm(vm)
        vm.update_usage(0.0)
        decision = UnderloadRelocationPolicy().decide(source, [make_node("busy")])
        assert decision.empty


class TestReconfiguration:
    def spread_out_cluster(self, vms_per_node=1, node_count=6):
        nodes = [make_node(f"node-{i}") for i in range(node_count)]
        for node in nodes[:4]:
            for _ in range(vms_per_node):
                vm = make_vm(cpu=0.3, memory=0.3, network=0.1, trace=ConstantTrace(1.0))
                node.place_vm(vm)
                vm.update_usage(0.0)
        return nodes

    def test_consolidation_reduces_hosts(self):
        nodes = self.spread_out_cluster()
        policy = ReconfigurationPolicy(algorithm=FirstFitDecreasing())
        plan = policy.plan(join_view(nodes))
        assert plan.hosts_before == 4
        assert plan.hosts_after < plan.hosts_before
        assert plan.hosts_saved >= 1
        assert not plan.empty

    def test_released_nodes_are_reported(self):
        nodes = self.spread_out_cluster()
        plan = ReconfigurationPolicy(algorithm=FirstFitDecreasing()).plan(join_view(nodes))
        assert len(plan.released_nodes) >= 1
        for released in plan.released_nodes:
            assert released.vm_count > 0  # currently busy, would be emptied by the plan

    def test_aco_reconfiguration_also_works(self):
        nodes = self.spread_out_cluster()
        policy = ReconfigurationPolicy(
            algorithm=ACOConsolidation(ACOParameters(n_ants=4, n_cycles=10), rng=np.random.default_rng(0))
        )
        plan = policy.plan(join_view(nodes))
        assert plan.hosts_after <= plan.hosts_before

    def test_no_placement_found_keeps_the_current_one(self):
        """A search that ends with no complete assignment is a fail-safe empty
        plan, not an exception out of the caller's timer."""

        class NoPlacement(ConsolidationAlgorithm):
            name = "no-placement"

            def solve(self, demands, capacities):
                raise PlacementError("no ant completed an assignment")

        nodes = join_view(self.spread_out_cluster())
        plan = ReconfigurationPolicy(algorithm=NoPlacement()).plan(nodes)
        assert plan.empty and not plan.released_nodes
        assert plan.hosts_after == plan.hosts_before == 4
        assert plan.reason.endswith("keeping current placement")

    def test_max_migrations_cap(self):
        nodes = self.spread_out_cluster(vms_per_node=2)
        policy = ReconfigurationPolicy(algorithm=FirstFitDecreasing(), max_migrations=1)
        plan = policy.plan(join_view(nodes))
        assert len(plan.moves) <= 1

    def test_overloaded_hosts_excluded_by_default(self):
        nodes = [make_node(f"node-{i}") for i in range(3)]
        hot_vm = make_vm(cpu=0.95, trace=ConstantTrace(1.0))
        nodes[0].place_vm(hot_vm)
        hot_vm.update_usage(0.0)
        policy = ReconfigurationPolicy(algorithm=FirstFitDecreasing())
        eligible = policy._eligible_nodes(join_view(nodes))
        assert nodes[0] not in eligible

    def test_include_overloaded_lets_hot_hosts_participate(self):
        nodes = [make_node(f"node-{i}") for i in range(3)]
        hot_vm = make_vm(cpu=0.95, trace=ConstantTrace(1.0))
        nodes[0].place_vm(hot_vm)
        hot_vm.update_usage(0.0)
        policy = ReconfigurationPolicy(algorithm=FirstFitDecreasing(), include_overloaded=True)
        assert nodes[0] in policy._eligible_nodes(join_view(nodes))

    def test_suspended_hosts_do_not_participate(self):
        from repro.cluster.node import NodeState

        nodes = self.spread_out_cluster()
        nodes[5].state = NodeState.SUSPENDED
        eligible = ReconfigurationPolicy(algorithm=FirstFitDecreasing())._eligible_nodes(
            join_view(nodes)
        )
        assert [node.node_id for node in eligible] == [f"node-{i}" for i in range(5)]

    def test_released_nodes_are_sources_never_destinations(self):
        nodes = self.spread_out_cluster()
        plan = ReconfigurationPolicy(algorithm=FirstFitDecreasing()).plan(join_view(nodes))
        sources = {source.node_id for _vm, source, _target in plan.moves}
        destinations = {target.node_id for _vm, _source, target in plan.moves}
        released = {node.node_id for node in plan.released_nodes}
        assert released and released <= sources
        assert not released & destinations

    def test_no_plan_for_fewer_than_two_nodes(self):
        node = make_node()
        vm = make_vm()
        node.place_vm(vm)
        plan = ReconfigurationPolicy(algorithm=FirstFitDecreasing()).plan(join_view([node]))
        assert plan.empty

    def test_consolidation_summary_recorded(self):
        nodes = self.spread_out_cluster()
        plan = ReconfigurationPolicy(algorithm=FirstFitDecreasing()).plan(join_view(nodes))
        assert plan.consolidation_summary.get("algorithm") == "ffd"
        assert "runtime_seconds" in plan.consolidation_summary


class TestWarmStartReconfiguration:
    def busy_cluster(self, node_count=6, loaded=4):
        nodes = [make_node(f"node-{i}") for i in range(node_count)]
        for node in nodes[:loaded]:
            vm = make_vm(cpu=0.3, memory=0.3, network=0.1, trace=ConstantTrace(1.0))
            node.place_vm(vm)
            vm.update_usage(0.0)
        return nodes

    def make_policy(self, **kwargs):
        return ReconfigurationPolicy(
            algorithm=ACOConsolidation(
                ACOParameters(n_ants=4, n_cycles=8), rng=np.random.default_rng(0)
            ),
            **kwargs,
        )

    def test_warm_start_persists_target_pairs(self):
        nodes = self.busy_cluster()
        policy = self.make_policy(warm_start=True)
        plan = policy.plan(join_view(nodes))
        assert plan.hosts_after <= plan.hosts_before
        # Every participating VM's target host is remembered by id.
        vm_ids = {vm.vm_id for node in nodes for vm in node.vms}
        assert set(policy._summary.pairs) == vm_ids
        node_ids = {node.node_id for node in nodes}
        assert set(policy._summary.pairs.values()) <= node_ids

    def test_warm_started_round_plans_no_worse(self):
        nodes = self.busy_cluster()
        policy = self.make_policy(warm_start=True)
        first = policy.plan(join_view(nodes))
        # Same cluster state again: the warm trail reproduces (or improves on)
        # the previous target via the greedy anchor.
        second = policy.plan(join_view(nodes))
        assert second.hosts_after <= first.hosts_after

    def test_warm_start_ignored_by_algorithms_without_support(self):
        nodes = self.busy_cluster()
        policy = ReconfigurationPolicy(algorithm=FirstFitDecreasing(), warm_start=True)
        policy.plan(join_view(nodes))
        assert policy._summary.pairs == {}

    def test_incremental_round_skips_clean_nodes(self):
        nodes = self.busy_cluster()
        policy = self.make_policy(incremental=True)
        first = policy.plan(join_view(nodes))
        assert not first.empty
        # Nothing changed since the snapshot: no node is dirty, so the next
        # round has fewer than two participants and produces no plan.
        second = policy.plan(join_view(nodes))
        assert second.empty

    def test_incremental_round_repacks_dirty_nodes(self):
        nodes = self.busy_cluster()
        policy = self.make_policy(incremental=True)
        policy.plan(join_view(nodes))
        # Touch two nodes: both become dirty and participate again.
        for node in nodes[:2]:
            vm = make_vm(cpu=0.2, memory=0.2, network=0.1, trace=ConstantTrace(1.0))
            node.place_vm(vm)
            vm.update_usage(0.0)
        participants = policy._participants(policy._eligible_nodes(join_view(nodes)))
        assert {node.node_id for node in participants} == {"node-0", "node-1"}
