"""Integration tests for the Snooze hierarchy: self-organization, submission path,
scheduling behaviour and energy management inside a full deployment."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.node import NodeState
from repro.cluster.resources import ResourceVector
from repro.cluster.vm import VirtualMachine, VMState
from repro.energy.power_manager import PowerManagerConfig
from repro.hierarchy import HierarchyConfig, SnoozeSystem, SystemSpec
from repro.workloads import (
    BatchArrival,
    ConstantTrace,
    PoissonArrival,
    SpikeTrace,
    UniformDemandDistribution,
    WorkloadGenerator,
)

from tests.conftest import make_vm


class TestSelfOrganization:
    def test_leader_elected_and_lcs_assigned(self, small_system):
        assert small_system.current_leader() is not None
        assert small_system.assigned_lc_count() == 6

    def test_lcs_distributed_across_gms(self, small_system):
        per_gm = [
            len(gm.local_controllers)
            for gm in small_system.group_managers.values()
            if gm.is_running
        ]
        assert sum(per_gm) == 6
        assert all(count > 0 for count in per_gm)

    def test_entry_points_know_the_leader(self, small_system):
        for entry_point in small_system.entry_points.values():
            assert entry_point.current_gl == small_system.current_leader()

    def test_hierarchy_snapshot_structure(self, small_system):
        snapshot = small_system.hierarchy_snapshot()
        assert snapshot["leader"] in snapshot["group_managers"]
        assert (
            sum(len(info.get("local_controllers", [])) for info in snapshot["group_managers"].values())
            == 6
        )

    def test_stats_shape(self, small_system):
        stats = small_system.stats()
        for key in ("leader", "running_vms", "active_hosts", "placed", "network"):
            assert key in stats

    def test_mismatched_cluster_spec_rejected(self):
        from repro.cluster.topology import ClusterSpec

        with pytest.raises(ValueError):
            SnoozeSystem(
                SystemSpec(local_controllers=4, cluster=ClusterSpec(node_count=8)),
            )


class TestSubmissionPath:
    def test_batch_submission_places_all_vms(self, small_system):
        generator = WorkloadGenerator(UniformDemandDistribution(0.1, 0.3), BatchArrival(0.0))
        requests = generator.generate(12, np.random.default_rng(0))
        small_system.submit_requests(requests)
        small_system.run(60.0)
        assert small_system.client.placed_count() == 12
        assert small_system.running_vm_count() == 12
        assert small_system.client.pending_count() == 0

    def test_submission_latency_is_small_and_positive(self, small_system):
        generator = WorkloadGenerator(UniformDemandDistribution(0.05, 0.15), BatchArrival(0.0))
        small_system.submit_requests(generator.generate(6, np.random.default_rng(1)))
        small_system.run(30.0)
        latencies = small_system.client.latencies()
        assert len(latencies) == 6
        assert all(0.0 < latency < 1.0 for latency in latencies)

    def test_poisson_arrivals_processed_over_time(self, small_system):
        generator = WorkloadGenerator(
            UniformDemandDistribution(0.1, 0.2),
            PoissonArrival(rate_per_hour=600.0),
        )
        small_system.submit_requests(generator.generate(10, np.random.default_rng(2)))
        small_system.run(300.0)
        assert small_system.client.placed_count() == 10

    def test_oversized_cluster_rejects_excess_vms(self):
        system = SnoozeSystem(
            SystemSpec(local_controllers=2, group_managers=1),
            config=HierarchyConfig(seed=3),
            seed=3,
        )
        system.start()
        # Each VM needs 0.6 CPU: only 2 fit (one per host).
        vms = [make_vm(0.6, 0.3, 0.1) for _ in range(4)]
        for vm in vms:
            system.client.submit(vm)
        system.run(120.0)
        assert system.client.placed_count() == 2
        assert system.client.rejected_count() == 2

    def test_finished_vms_release_capacity(self):
        system = SnoozeSystem(
            SystemSpec(local_controllers=2, group_managers=1),
            config=HierarchyConfig(seed=4),
            seed=4,
        )
        system.start()
        vm = make_vm(0.5, 0.3, 0.1, runtime=30.0)
        system.client.submit(vm)
        system.run(120.0)
        assert vm.state is VMState.FINISHED
        assert system.running_vm_count() == 0

    def test_vm_placement_respects_capacity_everywhere(self, small_system):
        generator = WorkloadGenerator(UniformDemandDistribution(0.2, 0.5), BatchArrival(0.0))
        small_system.submit_requests(generator.generate(15, np.random.default_rng(5)))
        small_system.run(120.0)
        for node in small_system.topology:
            assert np.all(node.reserved_values() <= node.capacity.values + 1e-9)


class TestRelocationBehaviour:
    def test_overload_triggers_migration(self):
        config = HierarchyConfig(seed=9, monitoring_interval=5.0)
        system = SnoozeSystem(
            SystemSpec(local_controllers=4, group_managers=1), config=config, seed=9
        )
        system.start()
        # Three VMs that will spike to near-full CPU usage on the same host.
        vms = []
        for _ in range(3):
            vm = VirtualMachine(
                ResourceVector([0.32, 0.2, 0.1]),
                trace=SpikeTrace(before=0.3, after=1.0, at=60.0),
            )
            vms.append(vm)
        # Force them all onto the first LC by submitting while others are excluded:
        # easier: place them via the client (first-fit packs them together).
        for vm in vms:
            system.client.submit(vm)
        system.run(50.0)
        host_ids = {vm.host_id for vm in vms}
        assert len(host_ids) == 1  # packed on one host
        system.run(300.0)
        # After the spike the overload relocation should have spread them out.
        assert system.migration_executor.stats.completed >= 1
        host_ids_after = {vm.host_id for vm in vms if vm.host_id is not None}
        assert len(host_ids_after) > 1

    def test_relocation_can_be_disabled(self):
        config = HierarchyConfig(seed=9, monitoring_interval=5.0, relocation_enabled=False)
        system = SnoozeSystem(
            SystemSpec(local_controllers=4, group_managers=1), config=config, seed=9
        )
        system.start()
        for _ in range(3):
            system.client.submit(
                VirtualMachine(
                    ResourceVector([0.32, 0.2, 0.1]),
                    trace=SpikeTrace(before=0.3, after=1.0, at=60.0),
                )
            )
        system.run(300.0)
        assert system.migration_executor.stats.completed == 0


class TestReconfiguration:
    def test_periodic_consolidation_frees_hosts(self):
        config = HierarchyConfig(
            seed=21,
            monitoring_interval=10.0,
            relocation_enabled=False,
            reconfiguration_interval=200.0,
            policies={
                "reconfiguration": {"name": "aco", "n_ants": 4, "n_cycles": 8},
                # spread VMs so consolidation has work to do
                "placement": {"name": "round-robin"},
            },
        )
        system = SnoozeSystem(
            SystemSpec(local_controllers=6, group_managers=1), config=config, seed=21
        )
        system.start()
        generator = WorkloadGenerator(UniformDemandDistribution(0.15, 0.25), BatchArrival(0.0))
        system.submit_requests(generator.generate(6, np.random.default_rng(0)))
        system.run(60.0)
        hosts_before = system.active_host_count()
        system.run(400.0)
        hosts_after = system.active_host_count()
        assert hosts_before == 6
        assert hosts_after < hosts_before
        assert system.migration_executor.stats.completed >= 1
        leader = system.leader()
        assert leader.reconfiguration_rounds >= 1


    def test_tight_group_keeps_its_placement(self):
        """Six full hosts that only re-pack as {.5,.5} + 5 x {.4,.3,.3}: the one
        ant of the one cycle runs out of hosts (it pairs the .4s), so the round
        ends with the fail-safe plan instead of PlacementError escaping the
        Group Manager's reconfiguration timer and killing the run."""
        config = HierarchyConfig(
            seed=2,
            monitoring_interval=10.0,
            relocation_enabled=False,
            reconfiguration_interval=100.0,
            policies={
                "placement": {"name": "first-fit"},
                "reconfiguration": {
                    "name": "aco",
                    "n_ants": 1,
                    "n_cycles": 1,
                    "include_overloaded": True,
                },
            },
        )
        system = SnoozeSystem(
            SystemSpec(local_controllers=6, group_managers=1), config=config, seed=2
        )
        system.start()
        vms = []
        for size in [0.5, 0.5] + [0.4, 0.3, 0.3] * 5:
            vm = VirtualMachine(ResourceVector([size, size, size]), trace=ConstantTrace(1.0))
            vms.append(vm)
            system.client.submit(vm)
            system.run(5.0)  # one at a time: first-fit fills the hosts in order
        system.run(30.0)
        before = {vm.vm_id: vm.host_id for vm in vms}
        assert None not in before.values() and system.active_host_count() == 6

        (manager,) = system.group_managers.values()
        plans = []
        plan = manager.reconfiguration_policy.plan

        def recording_plan(view):
            plans.append(plan(view))
            return plans[-1]

        manager.reconfiguration_policy.plan = recording_plan
        system.run(400.0)
        assert manager.reconfiguration_rounds >= 2
        assert plans and all(
            p.empty and p.reason.endswith("keeping current placement") for p in plans
        )
        assert {vm.vm_id: vm.host_id for vm in vms} == before
        assert system.migration_executor.stats.completed == 0


class TestEnergyManagement:
    def test_idle_hosts_suspended_and_woken_on_demand(self):
        config = HierarchyConfig(
            seed=13,
            power_manager=PowerManagerConfig(
                enabled=True,
                idle_time_threshold=60.0,
                check_interval=30.0,
                min_powered_on_hosts=1,
            ),
        )
        system = SnoozeSystem(
            SystemSpec(local_controllers=4, group_managers=1), config=config, seed=13
        )
        system.start()
        system.run(300.0)
        assert system.powered_on_count() < 4  # idle hosts went to sleep
        suspended_before = sum(
            1 for node in system.topology if node.state is NodeState.SUSPENDED
        )
        assert suspended_before >= 1
        # A burst of submissions requires waking hosts up.
        generator = WorkloadGenerator(UniformDemandDistribution(0.4, 0.6), BatchArrival(0.0))
        system.submit_requests(generator.generate(4, np.random.default_rng(1)))
        system.run(300.0)
        assert system.client.placed_count() >= 3

    def test_energy_report_accumulates(self, small_system):
        small_system.run(600.0)
        report = small_system.energy_report()
        assert report.total_energy_joules > 0
        assert report.horizon_seconds >= 600.0

    def test_power_management_saves_energy_on_idle_cluster(self):
        def build(enabled: bool) -> float:
            config = HierarchyConfig(
                seed=2,
                power_manager=PowerManagerConfig(
                    enabled=enabled,
                    idle_time_threshold=60.0,
                    check_interval=30.0,
                    min_powered_on_hosts=1,
                ),
            )
            system = SnoozeSystem(
                SystemSpec(local_controllers=6, group_managers=1), config=config, seed=2
            )
            system.start()
            system.run(2 * 3600.0)
            return system.energy_report().total_energy_joules

        assert build(True) < 0.75 * build(False)


class TestRecording:
    def test_enable_recording_probes(self, small_system):
        recorder = small_system.enable_recording(interval=30.0)
        small_system.run(120.0)
        series = recorder.series("powered_on_hosts")
        assert len(series) >= 4
        assert series.values[-1] == 6.0
