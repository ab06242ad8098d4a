"""Tests for the resident DecisionPlane and the view-backed hot paths.

The plane must be indistinguishable from rebuilding ``ClusterView.from_nodes``
per event -- parity is asserted against the snapshot path for values, ordering,
exclusion masking (every registered placement policy), the join-order view
consumed by reconfiguration, and the ``placement_from_view`` bridge into the
consolidation kernels.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.node import NodeState
from repro.core.aco import ACOConsolidation, ACOParameters
from repro.core.placement import placement_from_view
from repro.policies.placement import (
    BestFitPlacement,
    FirstFitPlacement,
    RoundRobinPlacement,
    WorstFitPlacement,
)
from repro.policies.plane import DecisionPlane
from repro.policies.reconfiguration import ReconfigurationPolicy
from repro.policies.view import ClusterView

from tests.conftest import make_node, make_vm
from tests.per_node_placement import placement_from_nodes


def build_plane(n=6):
    """A plane over ``n`` nodes joined in a deliberately non-sorted order."""
    plane = DecisionPlane()
    # Join order differs from node-id order to exercise both orderings.
    order = list(reversed(range(n)))
    nodes = {}
    for i in order:
        node = make_node(f"node-{i:02d}")
        nodes[f"lc-{i:02d}"] = node
        plane.add(f"lc-{i:02d}", node)
    return plane, nodes


def assert_views_equal(actual: ClusterView, expected: ClusterView):
    assert list(actual.node_ids) == list(expected.node_ids)
    np.testing.assert_array_equal(actual.capacities, expected.capacities)
    np.testing.assert_array_equal(actual.reserved, expected.reserved)
    np.testing.assert_array_equal(actual.used, expected.used)
    np.testing.assert_array_equal(actual.placeable, expected.placeable)
    np.testing.assert_array_equal(actual.vm_counts, expected.vm_counts)
    assert actual.cpu_index == expected.cpu_index
    for node_id in actual.node_ids:
        assert actual.index_of(node_id) == expected.index_of(node_id)


class TestDecisionPlaneParity:
    def test_view_matches_from_nodes(self):
        plane, nodes = build_plane()
        nodes["lc-02"].place_vm(make_vm(0.4, 0.3, 0.2))
        nodes["lc-04"].place_vm(make_vm(0.2, 0.2, 0.1))
        assert_views_equal(plane.view(), ClusterView.from_nodes(list(nodes.values())))

    def test_incremental_updates_track_vm_lifecycle(self):
        plane, nodes = build_plane()
        plane.view()  # materialize the resident arrays first
        vm = make_vm(0.5, 0.4, 0.3)
        nodes["lc-03"].place_vm(vm)
        assert_views_equal(plane.view(), ClusterView.from_nodes(list(nodes.values())))
        nodes["lc-03"].remove_vm(vm)
        assert_views_equal(plane.view(), ClusterView.from_nodes(list(nodes.values())))

    def test_incremental_updates_track_usage_writes(self):
        plane, nodes = build_plane()
        vm = make_vm(0.5, 0.4, 0.3)
        nodes["lc-01"].place_vm(vm)
        plane.view()
        vm.used = vm.requested * 0.5  # a monitoring write on a hosted VM
        assert_views_equal(plane.view(), ClusterView.from_nodes(list(nodes.values())))

    def test_incremental_updates_track_power_state(self):
        plane, nodes = build_plane()
        plane.view()
        nodes["lc-05"].state = NodeState.SUSPENDED
        view = plane.view()
        assert_views_equal(view, ClusterView.from_nodes(list(nodes.values())))
        assert not view.placeable[view.index_of("node-05")]
        nodes["lc-05"].state = NodeState.ON
        assert_views_equal(plane.view(), ClusterView.from_nodes(list(nodes.values())))

    def test_membership_changes_rebuild(self):
        plane, nodes = build_plane()
        plane.view()
        plane.remove("lc-02")
        survivors = [node for lc, node in nodes.items() if lc != "lc-02"]
        assert_views_equal(plane.view(), ClusterView.from_nodes(survivors))
        # Changes on a removed node must not leak back into the plane.
        nodes["lc-02"].place_vm(make_vm())
        assert_views_equal(plane.view(), ClusterView.from_nodes(survivors))
        late = make_node("node-99")
        plane.add("lc-99", late)
        assert_views_equal(plane.view(), ClusterView.from_nodes(survivors + [late]))

    def test_join_order_view_matches_unsorted_from_nodes(self):
        plane, nodes = build_plane()
        nodes["lc-00"].place_vm(make_vm(0.3, 0.3, 0.1))
        join_order = plane.nodes_in_join_order()
        assert [n.node_id for n in join_order] == [
            f"node-{i:02d}" for i in reversed(range(6))
        ]
        assert_views_equal(
            plane.join_order_view(),
            ClusterView.from_nodes(join_order, sort_by_id=False),
        )


class TestExclusionMaskingParity:
    """Masked ``placeable`` rows must yield the exact decisions of removal."""

    POLICIES = [FirstFitPlacement, RoundRobinPlacement, BestFitPlacement, WorstFitPlacement]

    @pytest.mark.parametrize("policy_cls", POLICIES, ids=lambda cls: cls.name)
    def test_exclusion_equals_removal(self, policy_cls):
        plane, nodes = build_plane(8)
        rng = np.random.default_rng(42)
        # Uneven pre-load so best/worst-fit have real gradients to rank.
        for lc_name in ("lc-01", "lc-03", "lc-04", "lc-06"):
            nodes[lc_name].place_vm(make_vm(*rng.uniform(0.1, 0.6, 3)))
        excluded = {"lc-02", "lc-04"}
        survivors = [node for lc, node in nodes.items() if lc not in excluded]
        masked_policy, removed_policy = policy_cls(), policy_cls()
        for _ in range(10):
            vm = make_vm(*rng.uniform(0.05, 0.5, 3))
            masked = masked_policy.decide(vm, plane.view(exclude_lcs=excluded))
            removed = removed_policy.decide(vm, ClusterView.from_nodes(survivors))
            assert masked.placed == removed.placed
            assert masked.node_id == removed.node_id
            assert masked.node_id not in ("node-02", "node-04")

    def test_exclusion_copy_does_not_corrupt_resident_arrays(self):
        plane, nodes = build_plane(4)
        plane.view(exclude_lcs={"lc-01"})
        view = plane.view()
        assert view.placeable[view.index_of("node-01")]


class TestLcIndex:
    """Satellite 1: the node -> LC index across failure and rejoin."""

    def test_lc_of_resolves_and_identity_checks(self):
        plane, nodes = build_plane(3)
        assert plane.lc_of(nodes["lc-01"]) == "lc-01"
        impostor = make_node("node-01")  # same id, different object
        assert plane.lc_of(impostor) is None

    def test_lc_of_across_failure_and_rejoin(self):
        plane, nodes = build_plane(3)
        node = nodes["lc-01"]
        plane.remove("lc-01")
        assert plane.lc_of(node) is None
        plane.add("lc-01", node)  # the LC recovered and rejoined
        assert plane.lc_of(node) == "lc-01"
        # Rejoin lands at the back of the join order, like dict reinsertion.
        assert plane.nodes_in_join_order()[-1] is node


class TestPlacementFromView:
    """Satellite 4: consolidation instances built off resident arrays."""

    def _loaded_nodes(self):
        rng = np.random.default_rng(7)
        nodes = [make_node(f"node-{i:02d}") for i in range(5)]
        vms = []
        for i, node in enumerate(nodes[:4]):
            for _ in range(i % 3 + 1):
                vm = make_vm(*rng.uniform(0.05, 0.3, 3))
                vm.used = vm.requested * float(rng.uniform(0.3, 0.9))
                node.place_vm(vm)
                vms.append(vm)
        return nodes, vms

    def test_parity_with_placement_from_nodes(self):
        nodes, vms = self._loaded_nodes()
        view = ClusterView.from_nodes(nodes, sort_by_id=False)
        expected, evms, enodes = placement_from_nodes(nodes, vms)
        actual, avms, anodes = placement_from_view(view, vms)
        assert avms == evms and anodes == enodes
        np.testing.assert_array_equal(actual.capacities, expected.capacities)
        np.testing.assert_array_equal(actual.demands, expected.demands)
        np.testing.assert_array_equal(actual.assignment, expected.assignment)

    def test_row_subset_gather(self):
        nodes, vms = self._loaded_nodes()
        view = ClusterView.from_nodes(nodes)
        subset = [nodes[3], nodes[1]]
        subset_vms = [vm for node in subset for vm in node.vms]
        rows = [view.index_of(node.node_id) for node in subset]
        expected, _, _ = placement_from_nodes(subset, subset_vms)
        actual, _, anodes = placement_from_view(view, subset_vms, rows=rows)
        assert anodes == subset
        np.testing.assert_array_equal(actual.capacities, expected.capacities)
        np.testing.assert_array_equal(actual.assignment, expected.assignment)

    def test_reconfiguration_plan_parity_on_identical_seeds(self):
        """The view-backed ACO path plans the same moves as the copying path."""

        nodes, _ = self._loaded_nodes()

        def make_policy():
            return ReconfigurationPolicy(
                algorithm=ACOConsolidation(
                    ACOParameters(n_ants=4, n_cycles=6),
                    rng=np.random.default_rng(123),
                )
            )

        # plan() only computes, never executes
        copying = make_policy().plan(ClusterView.from_nodes(nodes, sort_by_id=False))
        plane = DecisionPlane()
        for i, node in enumerate(nodes):
            plane.add(f"lc-{i:02d}", node)
        resident = make_policy().plan(plane.join_order_view())
        assert copying.hosts_before == resident.hosts_before
        assert copying.hosts_after == resident.hosts_after
        assert [
            (vm.vm_id, src.node_id, dst.node_id) for vm, src, dst in copying.moves
        ] == [(vm.vm_id, src.node_id, dst.node_id) for vm, src, dst in resident.moves]
