"""Tests for the data-center model: resources, VMs, nodes, power, topology."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.node import NodeState, PhysicalNode
from repro.cluster.power import (
    DEFAULT_POWER_STATES,
    LinearPowerModel,
    PowerStateSpec,
)
from repro.cluster.resources import (
    ResourceError,
    ResourceVector,
)
from repro.cluster.topology import ClusterSpec, NodeClass, build_cluster
from repro.cluster.vm import VMState
from repro.workloads.traces import ConstantTrace, SpikeTrace

from tests.conftest import make_node, make_vm


class TestResourceVector:
    def test_construction_from_sequence(self):
        vector = ResourceVector([0.5, 0.25, 0.1])
        assert vector["cpu"] == 0.5
        assert vector["memory"] == 0.25
        assert vector["network"] == 0.1

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ResourceError):
            ResourceVector([1.0, 2.0], dimensions=("cpu", "memory", "network"))

    def test_non_finite_rejected(self):
        with pytest.raises(ResourceError):
            ResourceVector([np.nan, 1.0, 1.0])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("at", [0, 2])
    def test_non_finite_in_an_array_rejected(self, bad, at):
        values = np.array([0.5, 0.25, 0.1])
        values[at] = bad
        with pytest.raises(ResourceError, match="non-finite"):
            ResourceVector(values)

    def test_subtraction(self):
        a = ResourceVector([0.5, 0.5, 0.5])
        b = ResourceVector([0.25, 0.1, 0.0])
        assert (a - b).values.tolist() == pytest.approx([0.25, 0.4, 0.5])

    def test_scalar_multiplication(self):
        vector = 2 * ResourceVector([0.25, 0.25, 0.25])
        assert vector.l1() == pytest.approx(1.5)

    def test_mismatched_dimension_names_rejected(self):
        a = ResourceVector([1.0, 1.0], dimensions=("cpu", "memory"))
        b = ResourceVector([1.0, 1.0], dimensions=("cpu", "disk"))
        with pytest.raises(ResourceError):
            _ = a - b

    def test_l1_norm(self):
        vector = ResourceVector([0.3, -0.4, 0.0])
        assert vector.l1() == pytest.approx(0.7)

    def test_clamp_nonnegative(self):
        vector = ResourceVector([1.0, 1.0, 1.0]) - ResourceVector([2.0, 0.5, 1.0])
        clamped = vector.clamp_nonnegative()
        assert clamped.is_nonnegative()
        assert clamped["memory"] == pytest.approx(0.5)

    def test_equality_and_hash(self):
        a = ResourceVector([0.1, 0.2, 0.3])
        b = ResourceVector([0.1, 0.2, 0.3])
        assert a == b
        assert hash(a) == hash(b)

    def test_values_are_read_only(self):
        vector = ResourceVector([1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            vector.values[0] = 5.0

    def test_construction_from_vector_keeps_dimensions(self):
        source = ResourceVector([2.0, 3.0], dimensions=("cpu", "disk"))
        copy = ResourceVector(source)
        assert copy == source
        assert copy.dimensions == ("cpu", "disk")
        assert copy.values is not source.values

    def test_unknown_dimension_name_raises_key_error(self):
        with pytest.raises(KeyError):
            _ = ResourceVector([0.1, 0.2, 0.3])["disk"]

    def test_subtracting_wrong_length_array_rejected(self):
        with pytest.raises(ResourceError):
            _ = ResourceVector([1.0, 1.0, 1.0]) - [1.0, 1.0]

    def test_is_nonnegative_tolerance(self):
        assert ResourceVector([0.0, -1e-12, 0.5]).is_nonnegative()
        assert not ResourceVector([0.0, -1e-3, 0.5]).is_nonnegative()

    def test_repr_names_each_dimension(self):
        assert repr(ResourceVector([0.5, 0.25, 0.1])) == (
            "ResourceVector(cpu=0.5, memory=0.25, network=0.1)"
        )


class TestVirtualMachine:
    def test_initial_state_is_pending(self):
        vm = make_vm()
        assert vm.state is VMState.PENDING
        assert vm.host_id is None
        assert not vm.is_active

    def test_lifecycle_transitions(self):
        vm = make_vm()
        vm.mark_submitted(1.0)
        vm.mark_started(2.0, "node-1")
        assert vm.state is VMState.RUNNING
        assert vm.is_active
        vm.mark_finished(10.0)
        assert vm.state is VMState.FINISHED
        assert vm.host_id is None
        assert vm.finish_time == 10.0

    def test_failure_marks_failed(self):
        vm = make_vm()
        vm.mark_started(0.0, "node-1")
        vm.mark_failed(5.0)
        assert vm.state is VMState.FAILED

    def test_update_usage_follows_trace(self):
        vm = make_vm(cpu=0.8, trace=SpikeTrace(before=0.25, after=1.0, at=100.0))
        before = vm.update_usage(0.0)
        after = vm.update_usage(200.0)
        assert before["cpu"] == pytest.approx(0.2)
        assert after["cpu"] == pytest.approx(0.8)
        # Memory stays at the reservation.
        assert after["memory"] == pytest.approx(vm.requested["memory"])

    def test_update_usage_without_trace_keeps_reservation(self):
        vm = make_vm(cpu=0.5)
        assert vm.update_usage(100.0) == vm.requested

    def test_unique_ids_and_names(self):
        a, b = make_vm(), make_vm()
        assert a.vm_id != b.vm_id
        assert a.name != b.name

    def test_default_memory_footprint_positive(self):
        vm = make_vm(memory=0.5)
        assert vm.memory_mb > 0


class TestPowerModels:
    def test_linear_model_endpoints(self):
        model = LinearPowerModel(p_idle=100.0, p_max=200.0)
        assert model.power(0.0) == pytest.approx(100.0)
        assert model.power(1.0) == pytest.approx(200.0)
        assert model.power(0.5) == pytest.approx(150.0)

    def test_linear_model_clips_utilization(self):
        model = LinearPowerModel()
        assert model.power(2.0) == model.max_power()
        assert model.power(-1.0) == model.idle_power()

    def test_invalid_linear_model_rejected(self):
        with pytest.raises(ValueError):
            LinearPowerModel(p_idle=300.0, p_max=200.0)

    def test_power_state_round_trip_energy(self):
        spec = PowerStateSpec(suspend_energy=100.0, wakeup_energy=300.0)
        assert spec.round_trip_energy() == 400.0

    def test_break_even_seconds(self):
        spec = PowerStateSpec(sleep_power=10.0, suspend_energy=500.0, wakeup_energy=2000.0)
        model = LinearPowerModel(p_idle=110.0, p_max=200.0)
        assert spec.break_even_seconds(model) == pytest.approx(25.0)

    def test_break_even_infinite_when_sleep_draws_more(self):
        spec = PowerStateSpec(sleep_power=500.0)
        model = LinearPowerModel(p_idle=100.0, p_max=200.0)
        assert spec.break_even_seconds(model) == float("inf")

    def test_default_power_states_exist(self):
        assert "suspend" in DEFAULT_POWER_STATES
        assert "shutdown" in DEFAULT_POWER_STATES
        assert DEFAULT_POWER_STATES["shutdown"].sleep_power < DEFAULT_POWER_STATES["suspend"].sleep_power


class TestPhysicalNode:
    def test_place_and_remove_vm(self):
        node = make_node()
        vm = make_vm(0.5, 0.5, 0.5)
        node.place_vm(vm, now=1.0)
        assert node.vm_count == 1
        assert vm.state is VMState.RUNNING
        assert vm.host_id == node.node_id
        assert not node.is_idle
        node.remove_vm(vm, now=2.0)
        assert node.vm_count == 0
        assert node.is_idle
        assert node.idle_since == 2.0

    def test_placement_respects_capacity(self):
        node = make_node()
        node.place_vm(make_vm(0.7, 0.2, 0.2))
        with pytest.raises(ResourceError):
            node.place_vm(make_vm(0.5, 0.2, 0.2))

    def test_fits_is_reservation_based(self):
        node = make_node()
        big = make_vm(0.9, 0.1, 0.1)
        node.place_vm(big)
        assert not node.fits(make_vm(0.2, 0.1, 0.1))
        assert node.fits(make_vm(0.05, 0.1, 0.1))

    def test_double_placement_rejected(self):
        node = make_node()
        vm = make_vm()
        node.place_vm(vm)
        with pytest.raises(ResourceError):
            node.place_vm(vm)

    def test_cannot_place_on_suspended_node(self):
        node = make_node()
        node.state = NodeState.SUSPENDED
        with pytest.raises(ResourceError):
            node.place_vm(make_vm())

    def test_utilization_reflects_usage(self):
        node = make_node()
        vm = make_vm(cpu=0.6, trace=ConstantTrace(0.5))
        node.place_vm(vm)
        vm.update_usage(0.0)
        assert node.utilization() == pytest.approx(0.3)

    def test_available_capacity(self):
        node = make_node()
        vm = make_vm(0.25, 0.5, 0.25)
        node.place_vm(vm)
        assert (node.capacity.values - node.reserved_values()).tolist() == pytest.approx([0.75, 0.5, 0.75])
        node.remove_vm(vm)
        assert (node.capacity.values - node.reserved_values()).tolist() == pytest.approx([1.0, 1.0, 1.0])

    def test_reserved_values_sum_requests(self):
        node = make_node()
        node.place_vm(make_vm(0.25, 0.25, 0.25))
        node.place_vm(make_vm(0.5, 0.125, 0.0))
        assert node.reserved_values().tolist() == pytest.approx([0.75, 0.375, 0.25])

    def test_current_power_by_state(self):
        node = make_node()
        on_power = node.current_power()
        node.state = NodeState.SUSPENDED
        assert node.current_power(sleep_power=5.0) == 5.0
        node.state = NodeState.FAILED
        assert node.current_power() == 0.0
        node.state = NodeState.WAKING
        assert node.current_power() == node.power_model.max_power()
        assert on_power >= node.power_model.idle_power()

    def test_idle_duration(self):
        node = make_node()
        assert node.idle_duration(50.0) == 50.0
        node.place_vm(make_vm())
        assert node.idle_duration(60.0) == 0.0

    def test_evict_all_returns_vms(self):
        node = make_node()
        vms = [make_vm(0.2, 0.2, 0.1) for _ in range(3)]
        for vm in vms:
            node.place_vm(vm)
        evicted = node.evict_all(now=5.0)
        assert len(evicted) == 3
        assert node.vm_count == 0

    def test_zero_capacity_rejected(self):
        with pytest.raises(ResourceError):
            PhysicalNode("bad", capacity=ResourceVector([0.0, 0.0, 0.0]))


class TestClusterTopology:
    def test_build_cluster_counts_and_lookup(self):
        topology = build_cluster(ClusterSpec(node_count=10, nodes_per_rack=4))
        assert len(topology) == 10
        assert len({node.node_id for node in topology}) == 10
        node = topology.nodes[3]
        assert topology.rack_of(node.node_id) == 0
        with pytest.raises(KeyError):
            topology.rack_of("no-such-node")

    def test_node_classes_set_capacity_and_power(self):
        spec = ClusterSpec(
            node_count=1,
            node_classes=[
                NodeClass(name="big", count=2, capacity=(2.0, 2.0, 1.0), p_idle=200.0, p_max=400.0),
                NodeClass(name="small", count=1, capacity=(0.5, 0.5, 1.0)),
            ],
        )
        topology = build_cluster(spec)
        assert len(topology) == 3
        assert [node.node_class for node in topology] == ["big", "big", "small"]
        big, _, small = topology.nodes
        assert big.capacity.values.tolist() == [2.0, 2.0, 1.0]
        assert small.capacity.values.tolist() == [0.5, 0.5, 1.0]
        assert big.power_model.power(1.0) == pytest.approx(400.0)
        assert small.power_model.power(0.0) == pytest.approx(170.0)

    def test_rack_assignment_and_bandwidth(self):
        topology = build_cluster(ClusterSpec(node_count=10, nodes_per_rack=4))
        ids = [node.node_id for node in topology.nodes]
        assert topology.rack_of(ids[0]) == 0
        assert topology.rack_of(ids[5]) == 1
        intra = topology.bandwidth_mbps(ids[0], ids[1])
        inter = topology.bandwidth_mbps(ids[0], ids[5])
        assert intra == topology.spec.intra_rack_bandwidth_mbps
        assert inter == topology.spec.inter_rack_bandwidth_mbps
        assert topology.bandwidth_mbps(ids[0], ids[0]) == float("inf")

    def test_heterogeneous_cluster_requires_rng(self):
        with pytest.raises(ValueError):
            build_cluster(ClusterSpec(node_count=4, heterogeneity=0.2))

    def test_heterogeneous_cluster_varies_capacity(self, rng):
        topology = build_cluster(ClusterSpec(node_count=8, heterogeneity=0.3), rng=rng)
        cpus = {round(node.capacity["cpu"], 6) for node in topology}
        assert len(cpus) > 1

    def test_active_node_count(self):
        topology = build_cluster(ClusterSpec(node_count=3))
        assert topology.active_node_count() == 0
        topology.nodes[0].place_vm(make_vm())
        assert topology.active_node_count() == 1

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            ClusterSpec(node_count=0)
        with pytest.raises(ValueError):
            ClusterSpec(node_count=4, heterogeneity=1.5)
