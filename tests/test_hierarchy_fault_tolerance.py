"""Fault-tolerance tests: the paper's Section II.E failure scenarios.

"When a GL fails ... the leader election procedure is restarted by one of the
GMs. ... When a GM fails ... the managed LCs rejoin the hierarchy. ... When a
LC fails ... the GM in charge invalidates its contact information ... VMs are
also terminated."
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.vm import VMState
from repro.hierarchy import HierarchyConfig, SnoozeSystem, SystemSpec
from repro.workloads import BatchArrival, UniformDemandDistribution, WorkloadGenerator


@pytest.fixture
def loaded_system() -> SnoozeSystem:
    """A 9-LC / 3-GM system with VMs already placed."""
    system = SnoozeSystem(
        SystemSpec(local_controllers=9, group_managers=3, entry_points=2),
        config=HierarchyConfig(seed=31),
        seed=31,
    )
    system.start()
    generator = WorkloadGenerator(UniformDemandDistribution(0.1, 0.25), BatchArrival(0.0))
    system.submit_requests(generator.generate(18, np.random.default_rng(4)))
    system.run(60.0)
    assert system.client.placed_count() == 18
    return system


class TestGroupLeaderFailure:
    def test_new_leader_elected_after_gl_crash(self, loaded_system):
        old_leader = loaded_system.kill_group_leader()
        assert old_leader is not None
        healed = loaded_system.run_until(
            lambda: loaded_system.current_leader() not in (None, old_leader),
            timeout=120.0,
        )
        assert healed
        assert loaded_system.current_leader() != old_leader

    def test_leader_with_closed_session_steps_down(self):
        """Regression: the GL read a leadership flag cached at election time,
        so a leader whose election node vanished with its session stayed in
        office beside the newly elected one (two GLs, no step-down)."""
        config = HierarchyConfig(seed=3)
        system = SnoozeSystem(
            SystemSpec(local_controllers=4, group_managers=2), config=config, seed=3
        )
        system.start()
        system.run(30.0)
        old_leader = system.leader()
        assert old_leader._gm_timeouts
        system.coordination.close_session(old_leader.election.session)
        system.run(config.gl_heartbeat_interval + config.network.base_latency)
        leaders = [gm for gm in system.group_managers.values() if gm.is_running and gm.is_leader]
        assert len(leaders) == 1 and leaders[0] is not old_leader
        assert system.event_log.count("stepped_down_as_leader") == 1
        assert not old_leader._gm_timeouts and not old_leader.gm_summaries

    def test_running_vms_unaffected_by_gl_failure(self, loaded_system):
        running_before = loaded_system.running_vm_count()
        loaded_system.kill_group_leader()
        loaded_system.run(120.0)
        assert loaded_system.running_vm_count() == running_before

    def test_lcs_rejoin_after_gl_failure(self, loaded_system):
        loaded_system.kill_group_leader()
        rejoined = loaded_system.run_until(
            lambda: loaded_system.assigned_lc_count() == 9, timeout=240.0
        )
        assert rejoined

    def test_submissions_work_after_failover(self, loaded_system):
        loaded_system.kill_group_leader()
        loaded_system.run_until(lambda: loaded_system.assigned_lc_count() == 9, timeout=240.0)
        placed_before = loaded_system.client.placed_count()
        generator = WorkloadGenerator(UniformDemandDistribution(0.05, 0.15), BatchArrival(0.0))
        loaded_system.submit_requests(generator.generate(4, np.random.default_rng(7)))
        loaded_system.run(60.0)
        assert loaded_system.client.placed_count() == placed_before + 4

    def test_entry_points_learn_new_leader(self, loaded_system):
        old_leader = loaded_system.kill_group_leader()
        loaded_system.run(120.0)
        new_leader = loaded_system.current_leader()
        assert new_leader != old_leader
        for entry_point in loaded_system.entry_points.values():
            assert entry_point.current_gl == new_leader

    def test_recovered_gl_rejoins_as_plain_gm(self, loaded_system):
        old_leader = loaded_system.kill_group_leader()
        loaded_system.run(120.0)
        loaded_system.recover_component(old_leader)
        loaded_system.run(60.0)
        recovered = loaded_system.group_managers[old_leader]
        assert recovered.is_running
        assert not recovered.is_leader
        assert loaded_system.current_leader() != old_leader


class TestGroupManagerFailure:
    def _pick_victim(self, system):
        return next(
            name
            for name, gm in system.group_managers.items()
            if gm.is_running and not gm.is_leader and len(gm.local_controllers) > 0
        )

    def test_orphaned_lcs_rejoin_other_gms(self, loaded_system):
        victim = self._pick_victim(loaded_system)
        orphaned = len(loaded_system.group_managers[victim].local_controllers)
        assert orphaned > 0
        loaded_system.kill_group_manager(victim)
        rejoined = loaded_system.run_until(
            lambda: loaded_system.assigned_lc_count() == 9, timeout=240.0
        )
        assert rejoined
        # The failed GM no longer manages anything.
        assert len(loaded_system.group_managers[victim].local_controllers) == 0

    def test_gl_removes_failed_gm_from_dispatching(self, loaded_system):
        victim = self._pick_victim(loaded_system)
        loaded_system.kill_group_manager(victim)
        loaded_system.run(5 * loaded_system.config.heartbeat_timeout)
        leader = loaded_system.leader()
        assert victim not in leader.known_gms
        assert victim not in leader.gm_summaries

    def test_vms_keep_running_through_gm_failure(self, loaded_system):
        victim = self._pick_victim(loaded_system)
        running_before = loaded_system.running_vm_count()
        loaded_system.kill_group_manager(victim)
        loaded_system.run(180.0)
        assert loaded_system.running_vm_count() == running_before


class TestLocalControllerFailure:
    def test_lc_failure_loses_its_vms_only(self, loaded_system):
        victim_name = next(
            name
            for name, lc in loaded_system.local_controllers.items()
            if lc.is_running and lc.node.vm_count > 0
        )
        victim = loaded_system.local_controllers[victim_name]
        lost = victim.node.vm_count
        running_before = loaded_system.running_vm_count()
        loaded_system.kill_local_controller(victim_name)
        loaded_system.run(120.0)
        assert loaded_system.running_vm_count() == running_before - lost
        failed_vms = [r.vm for r in loaded_system.client.records if r.vm.state is VMState.FAILED]
        assert len(failed_vms) == lost

    def test_gm_invalidates_failed_lc(self, loaded_system):
        victim_name = next(
            name for name, lc in loaded_system.local_controllers.items() if lc.is_running
        )
        owner = loaded_system.local_controllers[victim_name].assigned_gm
        loaded_system.kill_local_controller(victim_name)
        loaded_system.run(4 * loaded_system.config.heartbeat_timeout)
        owning_gm = loaded_system.group_managers[owner]
        if owning_gm.is_running:
            assert victim_name not in owning_gm.local_controllers

    def test_recovered_lc_rejoins_empty(self, loaded_system):
        victim_name = next(
            name
            for name, lc in loaded_system.local_controllers.items()
            if lc.is_running and lc.node.vm_count > 0
        )
        loaded_system.kill_local_controller(victim_name)
        loaded_system.run(60.0)
        loaded_system.recover_component(victim_name)
        rejoined = loaded_system.run_until(
            lambda: loaded_system.local_controllers[victim_name].is_assigned, timeout=120.0
        )
        assert rejoined
        assert loaded_system.local_controllers[victim_name].node.vm_count == 0

    def test_unknown_component_recovery_raises(self, loaded_system):
        with pytest.raises(KeyError):
            loaded_system.recover_component("does-not-exist")


class TestCascadingFailures:
    def test_sequential_gl_failures_until_one_gm_left(self, loaded_system):
        killed = []
        for _ in range(2):
            victim = loaded_system.kill_group_leader()
            killed.append(victim)
            loaded_system.run_until(
                lambda: loaded_system.current_leader() is not None
                and loaded_system.current_leader() not in killed,
                timeout=240.0,
            )
        survivor = loaded_system.current_leader()
        assert survivor is not None
        assert survivor not in killed
        # The survivor eventually manages all LCs.
        loaded_system.run_until(lambda: loaded_system.assigned_lc_count() == 9, timeout=300.0)
        assert loaded_system.assigned_lc_count() == 9

    def test_failure_events_logged(self, loaded_system):
        loaded_system.kill_group_leader()
        loaded_system.run(60.0)
        assert loaded_system.event_log.count("failure_injected") == 1
        assert loaded_system.event_log.count("elected_group_leader") >= 2

    def test_discarded_failure_detectors_are_not_retained(self, loaded_system):
        """Regression: ``discard_timeout`` released a detector's table entry but
        left the dead handle in the owner's ``_timeouts``, so every LC rejoin
        and every GM-side LC/GM removal pinned one more handle until the
        component stopped."""
        system = loaded_system
        for _ in range(3):
            # A non-leader GM crash: its LCs rejoin elsewhere (LC-side discard)
            # and the leader forgets it (GL-side discard).
            victim = next(
                name
                for name, gm in system.group_managers.items()
                if gm.is_running and not gm.is_leader
            )
            system.kill_group_manager(victim)
            system.run(30.0)
            assert system.run_until(lambda: system.assigned_lc_count() == 9, timeout=240.0)
            system.recover_component(victim)
            system.run(30.0)
            # An LC crash: its GM invalidates it (GM-side discard); it rejoins.
            system.kill_local_controller("lc-000")
            system.run(30.0)
            system.recover_component("lc-000")
            assert system.run_until(lambda: system.assigned_lc_count() == 9, timeout=240.0)
        assert system.event_log.count("gm_lost") >= 3
        assert system.event_log.count("lc_removed") >= 3
        assert system.event_log.count("gm_removed") == 3
        for lc in system.local_controllers.values():
            assert len(lc._timeouts) == 1  # its assigned GM's detector, nothing else
        for gm in system.group_managers.values():
            assert len(gm._timeouts) == len(gm.local_controllers) + len(gm._gm_timeouts)
