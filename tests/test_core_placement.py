"""Tests for the Placement solution model and the migration planner."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.base import lower_bound_hosts, validate_instance
from repro.core.migration_plan import plan_migrations
from repro.core.placement import Placement, PlacementError, placement_from_view
from repro.policies.view import ClusterView

from tests.conftest import make_node, make_vm


def simple_instance():
    demands = np.array([[0.5, 0.5], [0.4, 0.4], [0.3, 0.3], [0.2, 0.2]])
    capacities = np.tile([1.0, 1.0], (4, 1))
    return demands, capacities


class TestPlacement:
    def test_empty_placement(self):
        demands, capacities = simple_instance()
        placement = Placement(demands, capacities)
        assert placement.hosts_used() == 0
        assert not placement.fully_assigned
        assert placement.is_feasible()

    def test_assign_and_loads(self):
        demands, capacities = simple_instance()
        placement = Placement(demands, capacities)
        placement.assign(0, 0)
        placement.assign(1, 0)
        placement.assign(2, 1)
        loads = placement.host_loads()
        assert loads[0, 0] == pytest.approx(0.9)
        assert loads[1, 0] == pytest.approx(0.3)
        assert placement.hosts_used() == 2

    def test_assign_overflow_rejected_with_check(self):
        demands, capacities = simple_instance()
        placement = Placement(demands, capacities)
        placement.assign(0, 0)
        placement.assign(1, 0)
        with pytest.raises(PlacementError):
            placement.assign(2, 0)

    def test_assign_overflow_allowed_without_check_but_flagged(self):
        demands, capacities = simple_instance()
        placement = Placement(demands, capacities)
        for vm in range(4):
            placement.assign(vm, 0, check=False)
        assert not placement.is_feasible()

    def test_average_utilization_over_used_hosts_only(self):
        demands, capacities = simple_instance()
        placement = Placement(demands, capacities)
        placement.assign(0, 0)  # 0.5 utilization on host 0 only
        assert placement.average_utilization() == pytest.approx(0.5)
        per_dim = placement.average_utilization(per_dimension=True)
        assert per_dim.shape == (2,)

    def test_copy_is_independent(self):
        demands, capacities = simple_instance()
        placement = Placement(demands, capacities)
        placement.assign(0, 0)
        clone = placement.copy()
        clone.assign(1, 1)
        assert placement.assignment[1] == -1

    def test_invalid_construction(self):
        demands, capacities = simple_instance()
        with pytest.raises(PlacementError):
            Placement(demands, capacities, assignment=[0, 0, 0])  # wrong length
        with pytest.raises(PlacementError):
            Placement(demands, capacities, assignment=[9, 0, 0, 0])  # out of range
        with pytest.raises(PlacementError):
            Placement(demands[:, :1], capacities)  # dimension mismatch
        with pytest.raises(PlacementError):
            Placement(-demands, capacities)  # negative demand

    def test_repr(self):
        demands, capacities = simple_instance()
        placement = Placement(demands, capacities, assignment=[0, 0, 1, 1])
        assert repr(placement) == "<Placement vms=4 hosts=4 used=2 feasible=True>"

    def test_placement_from_nodes(self):
        nodes = [make_node("a"), make_node("b")]
        vms = [make_vm(0.3, 0.3, 0.1), make_vm(0.2, 0.2, 0.1)]
        nodes[0].place_vm(vms[0])
        nodes[1].place_vm(vms[1])
        view = ClusterView.from_nodes(nodes, sort_by_id=False)
        placement, vm_list, node_list = placement_from_view(view, vms)
        assert placement.fully_assigned
        assert placement.hosts_used() == 2
        assert vm_list == vms
        assert node_list == nodes

    def test_placement_from_nodes_requires_nodes(self):
        with pytest.raises(PlacementError):
            placement_from_view(ClusterView.from_nodes([], sort_by_id=False), [])


class TestInstanceValidation:
    def test_validate_rejects_oversized_vm(self):
        demands = np.array([[2.0, 0.5]])
        capacities = np.array([[1.0, 1.0]])
        with pytest.raises(PlacementError):
            validate_instance(demands, capacities)

    def test_validate_rejects_empty_hosts(self):
        with pytest.raises(PlacementError):
            validate_instance(np.empty((0, 2)), np.empty((0, 2)))

    def test_validate_accepts_empty_vms(self):
        demands, capacities = validate_instance(np.empty((0, 2)), np.array([[1.0, 1.0]]))
        assert demands.shape == (0, 2)

    def test_lower_bound_simple(self):
        demands = np.array([[0.6, 0.1], [0.6, 0.1], [0.6, 0.1]])
        capacities = np.tile([1.0, 1.0], (5, 1))
        # CPU total 1.8 -> ceil = 2 (the bound; true optimum is 3 but bounds may be loose).
        assert lower_bound_hosts(demands, capacities) == 2

    def test_lower_bound_zero_for_empty(self):
        assert lower_bound_hosts(np.empty((0, 2)), np.array([[1.0, 1.0]])) == 0

    def test_lower_bound_uses_binding_dimension(self):
        demands = np.array([[0.1, 0.9], [0.1, 0.9], [0.1, 0.9]])
        capacities = np.tile([1.0, 1.0], (5, 1))
        assert lower_bound_hosts(demands, capacities) == 3


class TestMigrationPlanning:
    def test_plan_moves_only_differences(self):
        demands = np.array([[0.4, 0.4], [0.4, 0.4], [0.4, 0.4]])
        capacities = np.tile([1.0, 1.0], (3, 1))
        current = Placement(demands, capacities, assignment=[0, 1, 2])
        target = Placement(demands, capacities, assignment=[0, 0, 2])
        assert plan_migrations(current, target) == [(1, 1, 0)]

    def test_plan_orders_chained_moves(self):
        # VM1 must leave host1 before VM0 can move in (capacity 1.0 each dimension).
        demands = np.array([[0.8, 0.1], [0.8, 0.1]])
        capacities = np.tile([1.0, 1.0], (3, 1))
        current = Placement(demands, capacities, assignment=[0, 1])
        target = Placement(demands, capacities, assignment=[1, 2])
        assert plan_migrations(current, target) == [(1, 1, 2), (0, 0, 1)]

    def test_cyclic_swap_is_deferred_not_violated(self):
        demands = np.array([[0.9, 0.1], [0.9, 0.1]])
        capacities = np.tile([1.0, 1.0], (2, 1))
        current = Placement(demands, capacities, assignment=[0, 1])
        target = Placement(demands, capacities, assignment=[1, 0])
        # Both VMs are deferred: neither appears among the moves.
        assert plan_migrations(current, target) == []

    def test_max_migrations_cap(self):
        demands = np.tile([0.2, 0.2], (6, 1))
        capacities = np.tile([1.0, 1.0], (6, 1))
        current = Placement(demands, capacities, assignment=[0, 1, 2, 3, 4, 5])
        target = Placement(demands, capacities, assignment=[0, 0, 0, 0, 0, 0])
        moves = plan_migrations(current, target, max_migrations=2)
        assert len(moves) == 2
        # VM 0 already sits on host 0; of the five that should move, the
        # three over the cap are deferred and absent from the moves.
        moved = [vm for vm, _, _ in moves]
        assert all(target_host == 0 for _, _, target_host in moves)
        assert len(set(range(1, 6)) - set(moved)) == 3

    def test_mismatched_instances_rejected(self):
        demands = np.array([[0.4, 0.4]])
        capacities = np.tile([1.0, 1.0], (2, 1))
        current = Placement(demands, capacities, assignment=[0])
        other = Placement(np.array([[0.5, 0.5]]), capacities, assignment=[1])
        with pytest.raises(PlacementError):
            plan_migrations(current, other)

    def test_moves_that_empty_hosts_go_first(self):
        # Host 2 is emptied by the target; its VM's move should be planned first.
        demands = np.array([[0.3, 0.3], [0.3, 0.3], [0.3, 0.3]])
        capacities = np.tile([1.0, 1.0], (3, 1))
        current = Placement(demands, capacities, assignment=[0, 1, 2])
        target = Placement(demands, capacities, assignment=[1, 1, 0])
        assert plan_migrations(current, target)[0][0] in (0, 2)
