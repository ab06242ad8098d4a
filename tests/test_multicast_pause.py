"""Heartbeats that are not messages on a deterministic network.

An assigned Local Controller only consults the Group Leader channel while
rejoining, so on deterministic networks it *pauses* its subscription (keeping
its fan-out slot) and recovers the missed heartbeat value from the channel
latch when its GM fails.  GM <-> LC heartbeats, whose only effect is
restarting a failure detector, are heartbeat leases
(:class:`~repro.hierarchy.common.LeaseSet`).  These tests pin both contracts:

* paused members receive nothing, and the latch replays exactly what the last
  delivered publish would have said;
* resuming restores the member's original fan-out position, so same-instant
  delivery order is indistinguishable from an uninterrupted subscription;
* the LC rejoin path survives a leader change that happened while paused;
* a renewed lease re-arms to delivery time + timeout in grant order, skips a
  disconnected end, is granted only where skipping the message cannot be
  observed, and ends with the LC.
"""

from __future__ import annotations

import pytest

from repro.hierarchy import SnoozeSystem
from repro.hierarchy.config import HierarchyConfig
from repro.hierarchy.common import LeaseSet
from repro.hierarchy.group_manager import GroupManager
from repro.hierarchy.local_controller import (
    GL_HEARTBEAT_GROUP,
    LocalController,
    gm_heartbeat_group,
)
from repro.hierarchy.system import SystemSpec
from repro.network.message import MessageType
from repro.network.multicast import MulticastRegistry
from repro.network.transport import Network, NetworkConfig
from repro.simulation.batch import DeadlineTable
from repro.simulation.engine import Simulator


@pytest.fixture()
def det_system() -> SnoozeSystem:
    """A started deployment on a deterministic (zero jitter/loss) network."""
    system = SnoozeSystem(
        SystemSpec(local_controllers=6, group_managers=2, entry_points=1),
        config=HierarchyConfig(
            seed=7, network=NetworkConfig(base_latency=0.001, jitter=0.0)
        ),
        seed=7,
    )
    system.start()
    return system


class TestGroupPauseResume:
    def _channel(self):
        sim = Simulator()
        network = Network(sim, NetworkConfig(base_latency=0.001, jitter=0.0))
        registry = MulticastRegistry(network)
        group = registry.group("chan")
        received = []
        for name in ("a", "b", "c"):
            network.register(name, lambda m, n=name: received.append((n, m.payload)))
            group.subscribe(name)
        return sim, group, received

    def test_paused_member_receives_nothing(self):
        sim, group, received = self._channel()
        group.pause("b")
        group.publish("a", MessageType.GL_HEARTBEAT, payload={"gl": "a"})
        sim.run(1.0)
        assert {n for n, _ in received} == {"c"}  # sender excluded, b paused

    def test_resume_restores_original_fanout_position(self):
        sim, group, received = self._channel()
        group.pause("a")
        group.publish("c", MessageType.GL_HEARTBEAT, payload=1)
        group.resume("a")
        group.publish("c", MessageType.GL_HEARTBEAT, payload=2)
        sim.run(1.0)
        # "a" resumed into its original slot: it precedes "b" again.
        assert [n for n, _ in received] == ["b", "a", "b"]

    def test_unsubscribe_clears_pause(self):
        _, group, _ = self._channel()
        group.pause("b")
        group.unsubscribe("b")
        assert not group.is_paused("b")
        group.subscribe("b")
        assert not group.is_paused("b")

    def test_pause_ignores_non_members(self):
        _, group, _ = self._channel()
        group.pause("ghost")
        assert not group.is_paused("ghost")

    def test_latch_replays_only_delivered_publishes(self):
        sim, group, _ = self._channel()
        group.publish("a", MessageType.GL_HEARTBEAT, payload={"gl": "old"})
        sim.run(0.5)
        group.publish("a", MessageType.GL_HEARTBEAT, payload={"gl": "new"})
        # The second publish has not been delivered yet (latency 1 ms), so a
        # catch-up read at this instant must still see the first value --
        # exactly what a subscribed member's handler would have seen.
        sender, payload = group.last_delivered(sim.now, 0.001)
        assert payload == {"gl": "old"}
        sim.run(0.6)  # run() takes an absolute time: past the second delivery
        sender, payload = group.last_delivered(sim.now, 0.001)
        assert payload == {"gl": "new"}

    def test_latch_empty_before_any_publish(self):
        _, group, _ = self._channel()
        assert group.last_delivered(10.0, 0.001) is None


class TestAssignedLcPausesGlChannel:
    def test_assigned_lcs_are_paused_on_deterministic_network(self, det_system):
        group = det_system.multicast.group(GL_HEARTBEAT_GROUP)
        assigned = [
            name
            for name, lc in det_system.local_controllers.items()
            if lc.assigned_gm is not None
        ]
        assert assigned, "expected LCs to be assigned after start"
        for name in assigned:
            assert group.is_paused(name)
            assert name in group  # still a member: fan-out slot retained

    def test_jittery_network_keeps_full_subscription(self, small_system):
        group = small_system.multicast.group(GL_HEARTBEAT_GROUP)
        for name, lc in small_system.local_controllers.items():
            if lc.assigned_gm is not None:
                assert not group.is_paused(name)

    def test_rejoin_after_leader_change_while_paused(self):
        """A GM dies after a leader change: the latch hands the LC the new GL."""
        system = SnoozeSystem(
            SystemSpec(local_controllers=9, group_managers=3, entry_points=1),
            config=HierarchyConfig(
                seed=11, network=NetworkConfig(base_latency=0.001, jitter=0.0)
            ),
            seed=11,
        )
        system.start()
        system.run(30.0)
        old_leader = system.current_leader()
        system.kill_group_leader()
        system.run(120.0)
        new_leader = system.current_leader()
        assert new_leader is not None and new_leader != old_leader
        # Kill a surviving *non-leader* GM that manages some LC, forcing that
        # LC through the latch catch-up path while a leader change already
        # happened during its pause.
        victim_gm = next(
            name
            for name, gm in system.group_managers.items()
            if gm.is_running and name != new_leader and gm.local_controllers
        )
        victim_lc = next(iter(system.group_managers[victim_gm].local_controllers))
        lc = system.local_controllers[victim_lc]
        assert system.multicast.group(GL_HEARTBEAT_GROUP).is_paused(victim_lc)
        system.kill_group_manager(victim_gm)
        rejoined = system.run_until(
            lambda: lc.assigned_gm is not None and lc.assigned_gm != victim_gm,
            timeout=240.0,
        )
        assert rejoined
        # The latch catch-up gave the LC a leader that actually exists now.
        assert lc.current_gl == system.current_leader()


class TestHeartbeatLeases:
    """Heartbeats as vectorized detector restarts (no per-heartbeat messages)."""

    def _leases(self, **network):
        sim = Simulator()
        net = Network(sim, NetworkConfig(base_latency=0.001, jitter=0.0, **network))
        for name in ("gm", "lc"):
            net.register(name, lambda m: None)
        return sim, net, LeaseSet(sim, net), DeadlineTable(sim)

    def test_renew_rearms_to_delivery_time_deadline(self):
        sim, _, leases, table = self._leases()
        fired = []
        handle = table.arm(8.0, lambda: fired.append(sim.now))
        assert leases.grant("lc", "gm", handle, timeout=8.0, interval=2.0)
        sim.run(until=2.0)
        leases.renew("gm")
        sim.run(until=9.9)
        # Re-armed to renew (2.0) + latency (0.001) + timeout (8.0) = 10.001.
        assert fired == []
        sim.run(until=10.001)
        assert fired == [10.001]

    def test_disconnected_end_is_skipped_like_its_dropped_delivery(self):
        for partitioned in ("lc", "gm"):
            sim, network, leases, table = self._leases()
            fired = []
            handle = table.arm(8.0, lambda: fired.append(sim.now))
            leases.grant("lc", "gm", handle, timeout=8.0, interval=2.0)
            network.disconnect(partitioned)
            sim.run(until=2.0)
            leases.renew("gm")
            sim.run(until=20.0)
            # The original deadline (armed at 0.0) fired untouched at 8.0.
            assert fired == [8.0]

    def test_renew_keeps_grant_order_as_restart_order(self):
        sim, network, leases, table = self._leases()
        fired = []
        network.register("lc2", lambda m: None)
        first = table.arm(8.0, lambda: fired.append("lc2"))
        second = table.arm(8.0, lambda: fired.append("lc"))
        leases.grant("lc", "gm", second, timeout=8.0, interval=2.0)
        leases.grant("lc2", "gm", first, timeout=8.0, interval=2.0)
        leases.renew("gm")
        sim.run(until=20.0)
        assert fired == ["lc", "lc2"]

    @pytest.mark.parametrize(
        "network, timeout",
        [({"loss_probability": 0.01}, 8.0), ({}, 2.001)],
    )
    def test_no_lease_where_the_skip_could_be_observed(self, network, timeout):
        _, _, leases, table = self._leases(**network)
        handle = table.arm(timeout, lambda: None)
        assert not leases.grant("lc", "gm", handle, timeout=timeout, interval=2.0)
        assert leases.get("lc", "gm") is None

    def test_assigned_lc_leases_both_directions_and_sends_no_heartbeats(
        self, det_system, monkeypatch
    ):
        heard = []
        monkeypatch.setattr(GroupManager, "_on_lc_heartbeat", lambda _s, m: heard.append(m))
        monkeypatch.setattr(LocalController, "_on_gm_heartbeat", lambda _s, m: heard.append(m))
        lc = next(
            lc
            for lc in det_system.local_controllers.values()
            if lc.assigned_gm is not None
        )
        leases = LeaseSet.shared(det_system.sim, det_system.network)
        handle = leases.get(lc.assigned_gm, lc.name)
        assert handle is not None
        assert leases.get(lc.name, lc.assigned_gm) is lc._gm_timeout
        # A leased LC does not hear its GM's heartbeat group at all.
        assert lc.name not in det_system.multicast.group(gm_heartbeat_group(lc.assigned_gm))
        gm = det_system.group_managers[lc.assigned_gm]
        # Advance far beyond the heartbeat timeout: both detectors are
        # re-armed by leases, so the LC stays a member on both sides without
        # a single GM <-> LC heartbeat reaching a handler.
        det_system.run(60.0)
        assert lc.name in gm.local_controllers
        assert handle.armed and lc._gm_timeout.armed
        assert [m for m in heard if lc.name in (m.sender, m.recipient)] == []

    def test_lease_stops_with_the_lc_so_the_gm_detects_the_failure(self, det_system):
        lc = next(
            lc
            for lc in det_system.local_controllers.values()
            if lc.assigned_gm is not None
        )
        gm_name = lc.assigned_gm
        det_system.kill_local_controller(lc.name)
        leases = LeaseSet.shared(det_system.sim, det_system.network)
        assert leases.get(gm_name, lc.name) is None
        assert leases.get(lc.name, gm_name) is None
        det_system.run(3 * det_system.config.heartbeat_timeout)
        gm = det_system.group_managers[gm_name]
        assert lc.name not in gm.local_controllers  # failure detected
