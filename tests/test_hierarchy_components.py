"""Component-level tests for the hierarchy: config validation, Component base
behaviour, Entry Points, clients and the GM/LC protocol details."""

from __future__ import annotations

import numpy as np
import pytest

from repro.hierarchy import HierarchyConfig, SnoozeSystem, SystemSpec
from repro.hierarchy.common import Component, ComponentState
from repro.hierarchy.config import HierarchyConfig as ConfigClass
from repro.network.message import Message, MessageType
from repro.network.multicast import MulticastRegistry
from repro.network.transport import Network
from repro.scenarios import ScenarioSpec
from repro.workloads import BatchArrival, UniformDemandDistribution, WorkloadGenerator

from tests.conftest import make_vm


class TestHierarchyConfig:
    def test_defaults_are_valid(self):
        config = HierarchyConfig()
        assert config.heartbeat_timeout > config.gl_heartbeat_interval

    def test_heartbeat_timeout_must_exceed_intervals(self):
        with pytest.raises(ValueError):
            HierarchyConfig(gl_heartbeat_interval=5.0, heartbeat_timeout=4.0)

    def test_session_timeout_must_exceed_gm_heartbeat_interval(self):
        # A session that expires before the first keep-alive leaves the
        # election empty: after a leader crash no GM is ever promoted.
        for session_timeout in (1.5, 2.0):
            with pytest.raises(ValueError, match="session_timeout must exceed"):
                HierarchyConfig(session_timeout=session_timeout)
        assert HierarchyConfig(session_timeout=2.5).session_timeout == 2.5

    def test_scenario_config_override_with_short_session_is_rejected(self):
        with pytest.raises(ValueError, match="session_timeout must exceed"):
            ScenarioSpec(
                name="short-session", local_controllers=6, group_managers=3,
                config={"session_timeout": 1.5},
            ).hierarchy_config(seed=1)

    @pytest.mark.parametrize("key", ["estimator", "estimation_window", "rpc_timeout", "placement_timeout"])
    def test_constants_are_not_settings(self, key):
        with pytest.raises(ValueError, match=rf"unknown HierarchyConfig key\(s\) \['{key}'\]"):
            HierarchyConfig.from_dict({key: 1})

    def test_negative_migration_cap_rejected_naming_the_field(self):
        with pytest.raises(ValueError, match=r"^max_migrations_per_round must be non-negative or None \(got -1\)$"):
            HierarchyConfig(max_migrations_per_round=-1)
        assert HierarchyConfig(max_migrations_per_round=0).max_migrations_per_round == 0

    def test_negative_intervals_rejected(self):
        with pytest.raises(ValueError):
            HierarchyConfig(monitoring_interval=0.0)
        with pytest.raises(ValueError):
            HierarchyConfig(reconfiguration_interval=-1.0)

    def test_entry_points_is_not_a_config_override(self):
        # Entry Points are deployment sizing (SystemSpec.entry_points); a
        # config override used to be accepted and silently build one EP.
        with pytest.raises(ValueError, match="entry_points"):
            ScenarioSpec(name="eps", config={"entry_points": 3})

    def test_config_is_shared_not_copied(self):
        config = ConfigClass(seed=5)
        system = SnoozeSystem(SystemSpec(local_controllers=2, group_managers=1), config=config)
        assert system.config is config


class TestComponentBase:
    def make_component(self, sim):
        network = Network(sim)
        MulticastRegistry(network)
        return Component("comp-0", sim, network), network

    def test_start_fail_recover_cycle(self, sim):
        component, network = self.make_component(sim)
        assert component.state is ComponentState.CREATED
        component.start()
        assert component.is_running
        component.fail()
        assert component.state is ComponentState.FAILED
        assert not network.endpoint("comp-0").connected
        component.recover()
        assert component.is_running
        assert network.endpoint("comp-0").connected

    def test_fail_stops_timers(self, sim):
        component, _ = self.make_component(sim)
        component.start()
        hits = []
        component.add_timer(1.0, lambda: hits.append(sim.now))
        sim.run(until=3.0)
        component.fail()
        sim.run(until=10.0)
        assert len(hits) == 3

    def test_failed_component_ignores_messages(self, sim):
        component, network = self.make_component(sim)
        received = []
        component.handle_message = received.append  # type: ignore[assignment]
        component.start()
        component.fail()
        network.reconnect("comp-0")  # even if traffic reaches it...
        network.send(Message(MessageType.VM_SUBMIT, sender="x", recipient="comp-0"))
        sim.run()
        assert received == []

    def test_stop_is_terminal_for_timers(self, sim):
        component, _ = self.make_component(sim)
        component.start()
        hits = []
        component.add_timer(1.0, lambda: hits.append(1))
        component.stop()
        sim.run(until=5.0)
        assert hits == []
        assert component.state is ComponentState.STOPPED

    def test_double_start_is_idempotent(self, sim):
        component, _ = self.make_component(sim)
        component.start()
        component.start()
        assert component.is_running

    def test_log_event_goes_to_event_log(self, sim):
        component, _ = self.make_component(sim)
        component.start()
        component.log_event("custom", detail=1)
        assert component.event_log.count("custom") == 1


class TestEntryPoint:
    def test_submission_without_leader_is_rejected(self, sim):
        from repro.hierarchy.entry_point import EntryPoint
        from repro.network.rpc import RpcChannel

        network = Network(sim)
        MulticastRegistry(network)
        entry_point = EntryPoint("ep-x", sim, network)
        entry_point.start()
        caller = RpcChannel(network, "tester")
        network.register("tester", caller.handle_message)
        outcomes = []
        caller.call("ep-x", "submit_vm", kwargs={"vm": make_vm()}, on_reply=outcomes.append)
        sim.run(until=5.0)
        assert outcomes and outcomes[0]["placed"] is False

    def test_failed_entry_point_does_not_break_client(self, small_system):
        # Two entry points are not configured here (only ep-00); the client
        # retries through the same list and eventually reports failure instead
        # of hanging.
        small_system.entry_points["ep-00"].fail()
        record = small_system.client.submit(make_vm(0.1, 0.1, 0.1))
        small_system.run(200.0)
        assert not record.pending
        assert not record.placed


class TestClientWithMultipleEntryPoints:
    def test_client_fails_over_to_second_entry_point(self):
        system = SnoozeSystem(
            SystemSpec(local_controllers=4, group_managers=2, entry_points=2),
            config=HierarchyConfig(seed=17),
            seed=17,
        )
        system.start()
        system.entry_points["ep-00"].fail()
        generator = WorkloadGenerator(UniformDemandDistribution(0.1, 0.2), BatchArrival(0.0))
        system.submit_requests(generator.generate(4, np.random.default_rng(0)))
        system.run(240.0)
        assert system.client.placed_count() == 4

    def test_client_requires_entry_points(self, small_system):
        from repro.hierarchy.client import SnoozeClient

        with pytest.raises(ValueError):
            SnoozeClient("c", small_system.sim, small_system.network, entry_points=[])


class TestGroupManagerProtocol:
    def test_leader_tracks_gm_summaries(self, small_system):
        small_system.run(30.0)
        leader = small_system.leader()
        assert set(leader.gm_summaries) == {
            name for name, gm in small_system.group_managers.items() if gm.is_running
        }

    def test_gm_summary_reflects_lc_count(self, small_system):
        small_system.run(30.0)
        leader = small_system.leader()
        total_lcs = sum(
            summary.local_controller_count for summary in leader.gm_summaries.values()
        )
        assert total_lcs == 6

    def test_hierarchy_snapshot(self, small_system):
        leader = small_system.leader()
        snapshot = small_system.hierarchy_snapshot()
        assert snapshot["group_managers"][leader.name]["is_leader"] is True
        lc = next(iter(small_system.local_controllers.values()))
        assert lc.assigned_gm in small_system.group_managers

    def test_non_leader_rejects_submission(self, small_system):
        non_leader = next(
            gm for gm in small_system.group_managers.values() if gm.is_running and not gm.is_leader
        )
        reply_event = non_leader._op_submit_vm(make_vm())
        small_system.run(1.0)
        assert reply_event.fired
        assert reply_event.value["placed"] is False

    def test_assign_lc_round_robin_rotates(self, small_system):
        leader = small_system.leader()
        assignments = [leader._op_assign_lc(lc_name=f"fake-{i}")["gm"] for i in range(4)]
        assert len(set(assignments)) == 2  # alternates between the two GMs

    def test_unknown_reconfiguration_algorithm_rejected(self):
        with pytest.raises(ValueError):
            SnoozeSystem(
                SystemSpec(local_controllers=2, group_managers=1),
                config=HierarchyConfig(policies={"reconfiguration": {"name": "bogus"}}),
            )


class TestLocalControllerProtocol:
    def test_start_vm_rejected_when_full(self, small_system):
        lc = next(iter(small_system.local_controllers.values()))
        big = make_vm(0.9, 0.9, 0.9)
        assert lc._op_start_vm(big)["accepted"] is True
        second = make_vm(0.5, 0.5, 0.5)
        result = lc._op_start_vm(second)
        assert result["accepted"] is False

    def test_terminate_vm_by_id(self, small_system):
        lc = next(iter(small_system.local_controllers.values()))
        vm = make_vm(0.2, 0.2, 0.1)
        lc._op_start_vm(vm)
        assert lc._op_terminate_vm(vm.vm_id)["terminated"] is True
        assert lc._op_terminate_vm(vm.vm_id)["terminated"] is False
        assert lc.node.vm_count == 0

    def test_migrate_vm_unknown_destination(self, small_system):
        lc = next(iter(small_system.local_controllers.values()))
        vm = make_vm(0.2, 0.2, 0.1)
        lc._op_start_vm(vm)
        result = lc._op_migrate_vm(vm.vm_id, "no-such-node")
        assert result["started"] is False

    def test_migrate_vm_to_peer(self, small_system):
        lcs = list(small_system.local_controllers.values())
        source, destination = lcs[0], lcs[1]
        vm = make_vm(0.2, 0.2, 0.1)
        source._op_start_vm(vm)
        result = source._op_migrate_vm(vm.vm_id, destination.node.node_id)
        assert result["started"] is True
        small_system.run(120.0)
        assert destination.node.hosts_vm(vm)
        assert not source.node.hosts_vm(vm)
