"""The Local Controller fleet's structural contracts.

Behavioural equivalence with the per-LC tick is ``tests/test_fleet_oracle.py``;
here: what shares a tick, what reaches a handler, and when cached index arrays
are rebuilt.
"""

from __future__ import annotations

from contextlib import nullcontext

import pytest

from repro.hierarchy import HierarchyConfig, SnoozeSystem, SystemSpec
from repro.hierarchy.fleet import HeartbeatRows, LocalControllerFleet, MonitoringRows
from repro.hierarchy.group_manager import GroupManager
from repro.monitoring.arrays import TelemetryPlane
from repro.network.fanout import FanOut
from repro.network.transport import NetworkConfig
from repro.simulation.batch import CoalescedTicker

from tests.lease_off import leases_off


def build(network: NetworkConfig, lcs: int = 12, gms: int = 3, **config) -> SnoozeSystem:
    system = SnoozeSystem(
        SystemSpec(local_controllers=lcs, group_managers=gms, entry_points=1),
        config=HierarchyConfig(seed=3, network=network, **config),
        seed=3,
    )
    system.start()
    return system


@pytest.fixture
def det_system() -> SnoozeSystem:
    return build(NetworkConfig(base_latency=0.001, jitter=0.0))


def spy_on_reports(monkeypatch):
    """Record ``(gm, time, reporting LC names)`` of every monitoring delivery."""
    seen = []
    original = GroupManager._on_lc_monitoring

    def spy(self, message):
        seen.append((self.name, self.sim.now, tuple(message.payload[0].names)))
        original(self, message)

    monkeypatch.setattr(GroupManager, "_on_lc_monitoring", spy)
    return seen


class TestTickGroups:
    def test_a_fleet_is_two_ticker_members_whatever_its_size(self, det_system):
        # One monitoring and one heartbeat member for all twelve LCs.
        assert CoalescedTicker.shared(det_system.sim).member_count() == 2

    def test_a_recovered_lc_ticks_on_its_own_grid_and_an_emptied_group_stops(self, det_system):
        ticker = CoalescedTicker.shared(det_system.sim)
        det_system.run(3.0)
        det_system.kill_local_controller("lc-004")
        assert ticker.member_count() == 2
        det_system.run(1.5)
        det_system.recover_component("lc-004")
        assert ticker.member_count() == 4
        det_system.run(30.0)
        det_system.kill_local_controller("lc-004")
        assert ticker.member_count() == 2
        fleet = LocalControllerFleet.shared(det_system.sim, det_system.network)
        assert sorted(len(group.lcs) for group in fleet._groups.values()) == [11, 11]

    def test_every_lc_samples_into_the_simulations_one_plane(self):
        system = build(NetworkConfig(), lcs=4, gms=2)
        plane = TelemetryPlane.shared(system.sim)
        assert all(lc.monitor.plane is plane for lc in system.local_controllers.values())


class TestDeliveryContract:
    def test_deterministic_network_one_frame_per_gm_per_tick(self, det_system, monkeypatch):
        # The fixture has settled (t=12); the next monitoring tick is at t=20.
        seen = spy_on_reports(monkeypatch)
        network = det_system.network
        det_system.sim.run(until=19.9995)
        before = network.stats()
        det_system.sim.run(until=20.0005)  # the tick has run, nothing is delivered yet
        ticked = network.stats()
        det_system.sim.run(until=20.5)
        # One handler call per GM carrying all of its LCs, in start order ...
        assert [time for _, time, _ in seen] == [pytest.approx(20.001)] * 3
        assert {gm: sorted(names) for gm, _, names in seen} == {
            name: sorted(gm.local_controllers) for name, gm in det_system.group_managers.items()
        }
        assert all(list(names) == sorted(names) for _, _, names in seen)
        # ... accounted as one 1024-byte message per LC, in one delivery event
        # shared with whatever else was sent at t=20.
        assert ticked["messages_sent"] - before["messages_sent"] >= 12
        assert ticked["bytes_sent"] - before["bytes_sent"] >= 12 * 1024
        assert network.stats()["messages_dropped"] == before["messages_dropped"]

    def test_a_gm_down_at_delivery_drops_its_frame_as_a_block(self, det_system, monkeypatch):
        seen = spy_on_reports(monkeypatch)
        victim = next(
            name for name, gm in det_system.group_managers.items() if not gm.is_leader
        )
        rows = len(det_system.group_managers[victim].local_controllers)
        det_system.sim.run(until=20.0005)
        dropped = det_system.network.messages_dropped
        det_system.network.disconnect(victim)
        det_system.sim.run(until=20.002)
        assert det_system.network.messages_dropped - dropped >= rows
        assert victim not in {gm for gm, _, _ in seen}

    def test_jittery_network_one_send_per_report(self, monkeypatch):
        system = build(NetworkConfig())
        seen = spy_on_reports(monkeypatch)
        system.sim.run(until=20.5)
        assert len(seen) == 12
        assert all(len(names) == 1 for _, _, names in seen)

    def test_reports_reach_the_summary(self, det_system):
        det_system.run(25.0)
        for gm in det_system.group_managers.values():
            assert gm._reports._reported[: len(gm.local_controllers)].all()
            assert gm._build_summary().local_controller_count == len(gm.local_controllers)


class TestCachedPlans:
    def test_steady_state_rebuilds_nothing(self, det_system, monkeypatch):
        plans = []
        for kind in (FanOut, MonitoringRows):
            original = kind._plan
            monkeypatch.setattr(
                kind, "_plan", lambda self, *rows, o=original: (plans.append(self), o(self, *rows))
            )
        det_system.run(20.0)
        plans.clear()
        det_system.run(120.0)  # 60 heartbeat and 12 monitoring ticks, GM publishes included
        assert plans == []
        det_system.network.disconnect("lc-003")
        det_system.run(4.0)
        fleet = LocalControllerFleet.shared(det_system.sim, det_system.network)
        heartbeats = [g.fan_out for g in fleet._groups.values() if isinstance(g, HeartbeatRows)]
        assert len(heartbeats) == 1
        # Two heartbeat ticks, one rebuild; the multicast groups' plans are
        # rebuilt too, as their connectivity moved.
        assert [plan for plan in plans if not isinstance(plan, FanOut)] == []
        assert [plan for plan in plans if plan in heartbeats] == heartbeats

    def test_partitioned_lc_stops_re_arming_its_lease(self, det_system):
        lc = det_system.local_controllers["lc-003"]
        gm = det_system.group_managers[lc.assigned_gm]
        det_system.run(10.0)
        det_system.network.disconnect("lc-003")
        det_system.run(3 * det_system.config.heartbeat_timeout)
        assert "lc-003" not in gm.local_controllers

    @pytest.mark.parametrize("network", [NetworkConfig(jitter=0.0), NetworkConfig()],
                             ids=["deterministic", "jittery"])
    def test_a_gm_partitioned_during_the_heartbeat_tick_keeps_its_deadlines(
        self, network, monkeypatch
    ):
        ticks = []
        step = HeartbeatRows.step
        monkeypatch.setattr(HeartbeatRows, "step", lambda self: (ticks.append(self.sim.now),
                                                                 step(self)))
        removed = {}
        for leased in (True, False):
            with nullcontext() if leased else leases_off():
                system = build(network)
                system.run(20.0)
                victim = next(
                    name
                    for name, gm in system.group_managers.items()
                    if not gm.is_leader and gm.local_controllers
                )
                # The next tick's heartbeats to the victim are in flight.
                system.sim.run(until=ticks[-1] + system.config.lc_heartbeat_interval + 0.0002)
                system.network.disconnect(victim)
                system.run(20.0)
            removed[leased] = [
                (record.timestamp, record.details["lc"])
                for record in system.event_log.events("lc_removed")
                if record.details["component"] == victim
            ]
        # Each detector expires one timeout after the last heartbeat that
        # reached the GM, not after the ones the partition dropped.
        assert removed[True] and removed[True] == removed[False]

    def test_partitioned_gm_starves_both_lease_directions(self, det_system):
        det_system.run(10.0)
        victim = next(
            name
            for name, gm in det_system.group_managers.items()
            if not gm.is_leader and gm.local_controllers
        )
        gm = det_system.group_managers[victim]
        managed = sorted(gm.local_controllers)
        config = det_system.config
        cut = det_system.sim.now
        det_system.network.disconnect(victim)
        det_system.run(config.heartbeat_timeout + config.gm_heartbeat_interval)
        # The GM's tick stops re-arming its LCs' leases, and theirs stop
        # re-arming its detectors: both sides notice within one timeout.
        lost = {
            record.details["component"]
            for record in det_system.event_log.events("gm_lost")
            if record.timestamp > cut and record.details["gm"] == victim
        }
        assert lost == set(managed)
        assert gm.local_controllers == {}
        det_system.network.reconnect(victim)
        det_system.run(30.0)
        for name in managed:
            lc = det_system.local_controllers[name]
            assert lc.assigned_gm is not None
            assert name in det_system.group_managers[lc.assigned_gm].local_controllers
