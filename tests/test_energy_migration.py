"""Tests for energy accounting, the power-state manager and the live-migration model."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.node import NodeState, PhysicalNode
from repro.cluster.power import LinearPowerModel, PowerStateSpec
from repro.cluster.resources import ResourceVector
from repro.energy.accounting import EnergyMeter, static_placement_energy
from repro.energy.power_manager import PowerManagerConfig, PowerStateManager
from repro.migration.model import MigrationCostModel, MigrationExecutor
from repro.simulation.engine import Simulator
from repro.simulation.timers import PeriodicTimer
from repro.workloads.traces import ConstantTrace

from tests.conftest import make_node, make_vm


class ScalarMeter:
    """The per-node integrator ``EnergyMeter`` used to be, kept as its oracle."""

    def __init__(self, sim, nodes, sample_interval, sleep_power=10.0):
        self.sim = sim
        self.nodes = list(nodes)
        self.sleep_power = sleep_power
        self.energy = {node.node_id: 0.0 for node in self.nodes}
        self.last_power = {node.node_id: node.current_power(sleep_power) for node in self.nodes}
        self.last_time = sim.now
        PeriodicTimer(sim, sample_interval, self.update)

    def update(self):
        now = self.sim.now
        elapsed = now - self.last_time
        if elapsed > 0:
            for node in self.nodes:
                self.energy[node.node_id] += self.last_power[node.node_id] * elapsed
        for node in self.nodes:
            self.last_power[node.node_id] = node.current_power(self.sleep_power)
        self.last_time = now


#: One step: (seconds to advance first, action, node index, a fraction for the action).
_meter_steps = st.lists(
    st.tuples(
        st.floats(0.0, 25.0),
        st.sampled_from(
            ["place", "remove", "usage", "suspend", "wake", "fail", "update", "report"]
        ),
        st.integers(0, 4),
        st.floats(0.0, 1.0),
    ),
    min_size=1,
    max_size=40,
)


class TestEnergyMeterAgainstScalarIntegrator:
    @settings(max_examples=60, deadline=None)
    @given(steps=_meter_steps)
    def test_per_node_joules_are_bit_equal(self, steps):
        """Dirty-node power refresh + one array integration == the per-node loops.

        Random place / remove / usage-write / suspend / wake / fail sequences
        with ``update()`` and ``report()`` at arbitrary points between the
        periodic samples, linear power models with different constants mixed.
        """
        sim = Simulator()
        models = [LinearPowerModel(), LinearPowerModel(120.0, 180.0), LinearPowerModel(90.0, 310.0)]
        nodes = [
            PhysicalNode(f"node-{index}", power_model=models[index % len(models)])
            for index in range(5)
        ]
        meter = EnergyMeter(sim, nodes, sample_interval=10.0)
        oracle = ScalarMeter(sim, nodes, sample_interval=10.0)
        for advance, action, index, fraction in steps:
            sim.run(until=sim.now + advance)
            node = nodes[index]
            if action == "place" and node.state is NodeState.ON:
                vm = make_vm(cpu=0.05 + 0.2 * fraction)
                if node.fits(vm):
                    node.place_vm(vm, now=sim.now)
            elif action == "remove" and node.vms:
                node.remove_vm(node.vms[0], sim.now)
            elif action == "usage" and node.vms:
                vm = node.vms[-1]
                vm.used = ResourceVector(vm.requested.values * fraction, vm.requested.dimensions)
            elif action == "suspend" and node.state is NodeState.ON:
                node.state = NodeState.SUSPENDING if fraction < 0.5 else NodeState.SUSPENDED
            elif action == "wake" and node.state in (NodeState.SUSPENDING, NodeState.SUSPENDED):
                node.state = NodeState.WAKING if fraction < 0.5 else NodeState.ON
            elif action == "fail":
                node.state = NodeState.FAILED
                node.evict_all(sim.now)
            elif action == "update":
                meter.update()
                oracle.update()
            elif action == "report":
                oracle.update()
                assert meter.report().node_energy_joules == oracle.energy
        oracle.update()
        assert meter.report().node_energy_joules == oracle.energy


class TestEnergyMeter:
    def test_idle_node_energy_integration(self, sim):
        node = make_node()
        meter = EnergyMeter(sim, [node], sample_interval=10.0)
        sim.run(until=100.0)
        report = meter.report()
        expected = node.power_model.idle_power() * 100.0
        assert report.node_energy_joules[node.node_id] == pytest.approx(expected, rel=1e-6)
        assert report.horizon_seconds == pytest.approx(100.0)

    def test_busy_node_draws_more_than_idle(self, sim):
        idle_node = make_node("idle")
        busy_node = make_node("busy")
        vm = make_vm(cpu=0.8, trace=ConstantTrace(1.0))
        busy_node.place_vm(vm)
        vm.update_usage(0.0)
        meter = EnergyMeter(sim, [idle_node, busy_node], sample_interval=10.0)
        sim.run(until=100.0)
        report = meter.report()
        assert report.node_energy_joules["busy"] > report.node_energy_joules["idle"]

    def test_power_change_mid_run_is_captured(self, sim):
        node = make_node()
        meter = EnergyMeter(sim, [node], sample_interval=1000.0)

        def load_node():
            vm = make_vm(cpu=1.0, trace=ConstantTrace(1.0))
            node.place_vm(vm, now=sim.now)
            vm.update_usage(sim.now)
            meter.update()  # explicit update at the discontinuity

        sim.schedule(50.0, load_node)
        sim.run(until=100.0)
        report = meter.report()
        expected = node.power_model.idle_power() * 50.0 + node.power_model.max_power() * 50.0
        assert report.node_energy_joules[node.node_id] == pytest.approx(expected, rel=1e-3)

    def test_transition_and_computation_energy_buckets(self, sim):
        node = make_node()
        meter = EnergyMeter(sim, [node], sample_interval=10.0, computation_power_watts=100.0)
        meter.add_transition_energy(500.0)
        joules = meter.charge_computation_runtime(2.0)
        assert joules == pytest.approx(200.0)
        report = meter.report()
        assert report.transition_energy_joules == pytest.approx(500.0)
        assert report.computation_energy_joules == pytest.approx(200.0)
        assert report.total_energy_joules > report.infrastructure_energy_joules

    def test_negative_values_rejected(self, sim):
        meter = EnergyMeter(sim, [make_node()], sample_interval=10.0)
        with pytest.raises(ValueError):
            meter.add_transition_energy(-1.0)
        with pytest.raises(ValueError):
            meter.charge_computation_runtime(-1.0)

    def test_kwh_conversion(self, sim):
        meter = EnergyMeter(sim, [], sample_interval=10.0)
        meter.charge_computation_runtime(3.6e6 / meter.computation_power_watts)
        assert meter.report().total_energy_kwh == pytest.approx(1.0)

    def test_static_placement_energy(self):
        energy = static_placement_energy(10, 0.5, 3600.0, p_idle=100.0, p_max=200.0)
        assert energy == pytest.approx(10 * 150.0 * 3600.0)
        with pytest.raises(ValueError):
            static_placement_energy(-1, 0.5, 10.0)
        with pytest.raises(ValueError):
            static_placement_energy(1, 1.5, 10.0)


class TestPowerStateManager:
    def make_manager(self, sim, node_count=3, **config_kwargs):
        nodes = [make_node(f"node-{i}") for i in range(node_count)]
        settings = {
            "enabled": True,
            "idle_time_threshold": 60.0,
            "check_interval": 30.0,
            "min_powered_on_hosts": 1,
        }
        settings.update(config_kwargs)
        manager = PowerStateManager(sim, nodes, config=PowerManagerConfig(**settings))
        return manager, nodes

    def test_idle_hosts_suspended_after_threshold(self, sim):
        manager, nodes = self.make_manager(sim)
        sim.run(until=300.0)
        suspended = [node for node in nodes if node.state is NodeState.SUSPENDED]
        powered_on = [node for node in nodes if node.state is NodeState.ON]
        assert len(suspended) == 2  # one host kept as reserve
        assert len(powered_on) == 1
        assert manager.suspend_count == 2

    def test_busy_hosts_never_suspended(self, sim):
        manager, nodes = self.make_manager(sim)
        vm = make_vm()
        nodes[0].place_vm(vm)
        sim.run(until=300.0)
        assert nodes[0].state is NodeState.ON

    def test_reserve_hosts_respected(self, sim):
        manager, nodes = self.make_manager(sim, min_powered_on_hosts=3)
        sim.run(until=300.0)
        assert all(node.state is NodeState.ON for node in nodes)

    def test_wakeup_brings_host_back(self, sim):
        manager, nodes = self.make_manager(sim)
        sim.run(until=300.0)
        victim = next(node for node in nodes if node.state is NodeState.SUSPENDED)
        ready = []
        manager.wakeup(victim, on_ready=lambda node: ready.append(node.node_id))
        sim.run(until=400.0)
        assert victim.state is NodeState.ON
        assert ready == [victim.node_id]
        assert manager.wakeup_count == 1

    def test_transition_energy_charged_to_meter(self, sim):
        nodes = [make_node(f"node-{i}") for i in range(2)]
        meter = EnergyMeter(sim, nodes, sample_interval=10.0)
        config = PowerManagerConfig(enabled=True, idle_time_threshold=10.0, check_interval=10.0, min_powered_on_hosts=0)
        PowerStateManager(sim, nodes, config=config, energy_meter=meter)
        sim.run(until=100.0)
        assert meter.report().transition_energy_joules == pytest.approx(2 * PowerStateSpec().suspend_energy)

    def test_disabled_manager_does_nothing(self, sim):
        nodes = [make_node()]
        manager = PowerStateManager(sim, nodes, config=PowerManagerConfig(enabled=False))
        sim.run(until=500.0)
        assert nodes[0].state is NodeState.ON
        assert manager.check_idle_hosts() == []

    def test_suspended_hosts_save_energy(self, sim):
        # Two identical idle clusters, one with power management.
        plain = [make_node(f"plain-{i}") for i in range(4)]
        managed = [make_node(f"managed-{i}") for i in range(4)]
        meter_plain = EnergyMeter(sim, plain, sample_interval=60.0)
        meter_managed = EnergyMeter(sim, managed, sample_interval=60.0)
        config = PowerManagerConfig(enabled=True, idle_time_threshold=60.0, check_interval=30.0, min_powered_on_hosts=0)
        PowerStateManager(sim, managed, config=config, energy_meter=meter_managed)
        sim.run(until=4 * 3600.0)
        assert meter_managed.report().total_energy_joules < 0.5 * meter_plain.report().total_energy_joules

    def test_callbacks_invoked(self, sim):
        events = []
        nodes = [make_node(f"node-{i}") for i in range(2)]
        config = PowerManagerConfig(enabled=True, idle_time_threshold=10.0, check_interval=10.0, min_powered_on_hosts=0)
        manager = PowerStateManager(
            sim,
            nodes,
            config=config,
            on_suspend=lambda node: events.append(("suspend", node.node_id)),
            on_wakeup=lambda node: events.append(("wakeup", node.node_id)),
        )
        sim.run(until=100.0)
        manager.wakeup(nodes[0])
        sim.run(until=200.0)
        kinds = [kind for kind, _ in events]
        assert "suspend" in kinds and "wakeup" in kinds

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PowerManagerConfig(idle_time_threshold=-1.0)
        with pytest.raises(ValueError):
            PowerManagerConfig(check_interval=0.0)


class TestMigrationModel:
    def test_duration_scales_with_memory(self):
        model = MigrationCostModel()
        small = model.duration_seconds(memory_mb=512.0, bandwidth_mbps=1000.0)
        large = model.duration_seconds(memory_mb=4096.0, bandwidth_mbps=1000.0)
        assert large > small

    def test_duration_decreases_with_bandwidth(self):
        model = MigrationCostModel()
        slow = model.duration_seconds(memory_mb=1024.0, bandwidth_mbps=100.0)
        fast = model.duration_seconds(memory_mb=1024.0, bandwidth_mbps=1000.0)
        assert fast < slow

    def test_transferred_exceeds_memory_due_to_dirtying(self):
        model = MigrationCostModel(dirty_rate_mbps=100.0)
        assert model.transferred_mb(1024.0, 1000.0) > 1024.0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            MigrationCostModel(downtime_seconds=-1.0)
        with pytest.raises(ValueError):
            MigrationCostModel().duration_seconds(1024.0, 0.0)

    def test_successful_migration_moves_vm(self, sim):
        source, destination = make_node("src"), make_node("dst")
        vm = make_vm(0.4, 0.4, 0.2)
        source.place_vm(vm)
        executor = MigrationExecutor(sim)
        completions = []
        assert executor.migrate(vm, source, destination, on_complete=lambda v: completions.append(v))
        # During migration the VM is reserved on both hosts.
        assert source.hosts_vm(vm) and destination.hosts_vm(vm)
        assert executor.is_migrating(vm)
        sim.run()
        assert not source.hosts_vm(vm)
        assert destination.hosts_vm(vm)
        assert vm.host_id == "dst"
        assert vm.migrations == 1
        assert completions == [vm]
        assert executor.stats.completed == 1

    def test_migration_rejected_if_destination_full(self, sim):
        source, destination = make_node("src"), make_node("dst")
        destination.place_vm(make_vm(0.9, 0.9, 0.9))
        vm = make_vm(0.4, 0.4, 0.2)
        source.place_vm(vm)
        failures = []
        executor = MigrationExecutor(sim)
        assert not executor.migrate(vm, source, destination, on_failed=lambda v, r: failures.append(r))
        assert failures and "destination" in failures[0]

    def test_migration_rejected_if_vm_not_on_source(self, sim):
        executor = MigrationExecutor(sim)
        vm = make_vm()
        assert not executor.migrate(vm, make_node("a"), make_node("b"))

    def test_double_migration_rejected(self, sim):
        source, destination = make_node("src"), make_node("dst")
        vm = make_vm(0.2, 0.2, 0.2)
        source.place_vm(vm)
        executor = MigrationExecutor(sim)
        assert executor.migrate(vm, source, destination)
        assert not executor.migrate(vm, source, destination)

    def test_source_failure_during_migration_aborts_it(self, sim):
        source, destination = make_node("src"), make_node("dst")
        vm = make_vm(0.2, 0.2, 0.2)
        source.place_vm(vm)
        executor = MigrationExecutor(sim)
        failures = []
        executor.migrate(vm, source, destination, on_failed=lambda v, r: failures.append(r))
        # The source host crashes mid-migration, killing the VM.
        def crash():
            source.evict_all(sim.now)
            vm.mark_failed(sim.now)

        sim.schedule(0.5, crash)
        sim.run()
        assert executor.stats.failed == 1
        assert not destination.hosts_vm(vm)
        assert failures

    def test_bandwidth_lookup_used(self, sim):
        lookups = []

        def lookup(src, dst):
            lookups.append((src, dst))
            return 500.0

        executor = MigrationExecutor(sim, bandwidth_lookup=lookup)
        source, destination = make_node("src"), make_node("dst")
        vm = make_vm(0.2, 0.2, 0.2)
        source.place_vm(vm)
        executor.migrate(vm, source, destination)
        assert lookups == [("src", "dst")]
