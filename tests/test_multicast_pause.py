"""Heartbeats that are drawn and counted but not delivered, on every network.

An assigned Local Controller only consults the Group Leader channel while
rejoining, so it *pauses* its subscription (keeping its fan-out slot): each
heartbeat's arrival goes to the member's own latch, read when its GM fails.
GM <-> LC heartbeats, whose only effect is restarting a failure detector, are
heartbeat leases (:class:`~repro.network.fanout.LeaseSet`): the heartbeat
re-arms the detector to its arrival instead of being delivered.  These tests
pin both contracts:

* paused members receive nothing, and the latch replays exactly what the last
  delivered publish would have said; resuming delivers what is still in flight;
* resuming restores the member's original fan-out position, so same-instant
  delivery order is indistinguishable from an uninterrupted subscription;
* the LC rejoin path survives a leader change that happened while paused;
* a leased heartbeat re-arms to arrival + timeout in fan-out order, skips a
  disconnected end, is granted only where every heartbeat arrives before the
  detector could expire, and ends with the LC;
* every edge of the lease path matches the lease-off path (every heartbeat a
  message): a detector due before the arrival, a watcher crashing with a
  heartbeat in flight, arrivals that reorder, equal deadlines under loss, a
  paused heartbeat in flight across a GM loss -- and a whole deployment on
  each network kind reports the same ``Network.stats()`` either way.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np
import pytest

from repro.hierarchy import SnoozeSystem
from repro.hierarchy.config import HierarchyConfig
from repro.network.fanout import LeaseSet
from repro.hierarchy.group_manager import GroupManager
from repro.hierarchy.local_controller import (
    GL_HEARTBEAT_GROUP,
    LocalController,
    gm_heartbeat_group,
)
from repro.hierarchy.system import SystemSpec
from repro.network.fanout import LeaseSet
from repro.network.message import MessageType
from repro.network.multicast import MulticastRegistry
from repro.network.transport import Network, NetworkConfig
from repro.simulation.batch import DeadlineTable
from repro.simulation.engine import Simulator

from tests.lease_off import leases_off


NETWORKS = {
    "deterministic": NetworkConfig(base_latency=0.001, jitter=0.0),
    "jittery": NetworkConfig(),
    "lossy": NetworkConfig(loss_probability=0.05),
    "lossy-zero-jitter": NetworkConfig(jitter=0.0, loss_probability=0.05),
}


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
        sim.run(0.5)
        group.resume("a")
        group.publish("c", MessageType.GL_HEARTBEAT, payload=2)
        sim.run(1.0)
        # "a" resumed into its original slot: it precedes "b" again.
        assert [n for n, _ in received] == ["b", "a", "b"]

    @pytest.mark.parametrize("network", ["jittery", "deterministic"])
    def test_resume_delivers_a_latched_publish_still_in_flight(self, network):
        received = {}
        for paused in (True, False):
            sim = Simulator()
            net = Network(sim, NETWORKS[network], rng=np.random.default_rng(2))
            group = MulticastRegistry(net).group("chan")
            log = received[paused] = []
            for name in ("a", "b", "c"):
                net.register(
                    name,
                    lambda m, n=name, log=log: log.append((n, m.payload, m.sent_at, sim.now)),
                )
                group.subscribe(name)
            sim.run(until=0.25)
            if paused:
                group.pause("a")
            group.publish("c", MessageType.GL_HEARTBEAT, payload=1)
            sim.run(until=0.2502)
            group.resume("a")  # the publish is still in flight
            sim.run(1.0)
            assert net.stats()["messages_delivered"] == 2
        if network == "deterministic":
            # Same arrival instant: the released message is delivered after
            # the instant's batch, not at its subscriber position in it.
            assert sorted(received[True]) == sorted(received[False])
        else:
            assert received[True] == received[False]

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
        sim, group, received = self._channel()
        group.pause("b")
        group.publish("a", MessageType.GL_HEARTBEAT, payload={"gl": "old"})
        sim.run(0.5)
        group.publish("a", MessageType.GL_HEARTBEAT, payload={"gl": "new"})
        # The second publish has not been delivered yet (latency 1 ms), so a
        # catch-up read at this instant must still see the first value --
        # exactly what a subscribed member's handler would have seen.
        assert group.last_delivered("b", sim.now) == ("a", {"gl": "old"})
        sim.run(0.6)  # run() takes an absolute time: past the second delivery
        assert group.last_delivered("b", sim.now) == ("a", {"gl": "new"})
        assert [n for n, _ in received] == ["c", "c"]
        # Latched messages are counted as the deliveries they stand for.
        assert group.network.stats()["messages_delivered"] == 4

    def test_latch_empty_before_any_publish(self):
        _, group, _ = self._channel()
        group.pause("b")
        assert group.last_delivered("b", 10.0) is None

    def test_latch_keeps_the_latest_arrival_when_arrivals_reorder(self):
        """3 s of jitter at one publish a second: the latch answers with the latest *arrival*."""
        config = NetworkConfig(base_latency=0.001, jitter=3.0)
        channels = []
        for _ in range(2):
            sim = Simulator()
            network = Network(sim, config, rng=np.random.default_rng(4))
            group = MulticastRegistry(network).group("chan")
            arrivals = []
            network.register("gl", lambda m: None)
            network.register(
                "lc", lambda m, sim=sim, log=arrivals: log.append((sim.now, m.payload))
            )
            group.subscribe("lc")
            channels.append((sim, group, arrivals))
        (sim, paused, _), (twin, subscribed, arrivals) = channels
        paused.pause("lc")
        for payload in range(12):
            for clock, group in ((sim, paused), (twin, subscribed)):
                clock.run(until=float(payload))
                group.publish("gl", MessageType.GL_HEARTBEAT, payload=payload)
        for probe in np.arange(0.5, 16.0, 0.5):
            sim.run(until=float(probe))
            twin.run(until=float(probe))
            expected = ("gl", arrivals[-1][1]) if arrivals else None
            assert paused.last_delivered("lc", sim.now) == expected
        assert [p for _, p in arrivals] != sorted(p for _, p in arrivals)  # they did reorder
        assert paused.network.stats() == subscribed.network.stats()


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

    def test_jittery_network_pauses_them_too(self, small_system):
        group = small_system.multicast.group(GL_HEARTBEAT_GROUP)
        assigned = [n for n, lc in small_system.local_controllers.items() if lc.assigned_gm]
        assert assigned
        assert all(group.is_paused(name) for name in assigned)

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
        config = {"base_latency": 0.001, "jitter": 0.0, **network}
        net = Network(sim, NetworkConfig(**config))
        for name in ("gm", "lc"):
            net.register(name, lambda m: None)
        return sim, net, LeaseSet(sim, net), DeadlineTable(sim)

    @staticmethod
    def _heartbeat(network, leases, members=("lc",)):
        """The GM's heartbeat to its group, leases applied."""
        group = MulticastRegistry(network).group("gm-group")
        for member in members:
            group.subscribe(member)
        group.publish("gm", MessageType.GM_HEARTBEAT, leases=leases)

    def test_renew_rearms_to_delivery_time_deadline(self):
        sim, network, leases, table = self._leases()
        fired = []
        handle = table.arm(8.0, lambda: fired.append(sim.now))
        assert leases.grant("lc", "gm", handle, timeout=8.0, interval=2.0)
        sim.run(until=2.0)
        self._heartbeat(network, leases)
        sim.run(until=9.9)
        # Re-armed to publish (2.0) + latency (0.001) + timeout (8.0) = 10.001.
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
            self._heartbeat(network, leases)
            sim.run(until=20.0)
            # The original deadline (armed at 0.0) fired untouched at 8.0.
            assert fired == [8.0]
            assert network.messages_dropped == 1

    def test_renew_keeps_fan_out_order_as_restart_order(self):
        sim, network, leases, table = self._leases()
        fired = []
        network.register("lc2", lambda m: None)
        first = table.arm(8.0, lambda: fired.append("lc2"))
        second = table.arm(8.0, lambda: fired.append("lc"))
        # Granted in the other order: the deliveries would restart in
        # subscriber order, and so do the leases.
        leases.grant("lc2", "gm", first, timeout=8.0, interval=2.0)
        leases.grant("lc", "gm", second, timeout=8.0, interval=2.0)
        self._heartbeat(network, leases, members=("lc", "lc2"))
        sim.run(until=20.0)
        assert fired == ["lc", "lc2"]

    @pytest.mark.parametrize(
        "network, timeout",
        [({}, 2.001), ({"jitter": 0.5}, 2.5), ({"jitter": 0.5, "loss_probability": 0.1}, 2.5)],
    )
    def test_no_lease_where_a_heartbeat_could_arrive_after_the_expiry(self, network, timeout):
        _, _, leases, table = self._leases(**network)
        handle = table.arm(timeout, lambda: None)
        assert not leases.grant("lc", "gm", handle, timeout=timeout, interval=2.0)
        assert leases.get("lc", "gm") is None

    @pytest.mark.parametrize("network", [{"jitter": 0.5}, {"loss_probability": 0.5}])
    def test_jitter_and_loss_do_not_prevent_a_lease(self, network):
        _, _, leases, table = self._leases(**network)
        handle = table.arm(8.0, lambda: None)
        assert leases.grant("lc", "gm", handle, timeout=8.0, interval=2.0)
        assert leases.get("lc", "gm").handle is handle

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
        handle = leases.get(lc.assigned_gm, lc.name).handle
        assert leases.get(lc.name, lc.assigned_gm).handle is lc._gm_timeout
        # A leased LC keeps its slot in its GM's heartbeat group ...
        assert lc.name in det_system.multicast.group(gm_heartbeat_group(lc.assigned_gm))
        gm = det_system.group_managers[lc.assigned_gm]
        # ... but advance far beyond the heartbeat timeout: both detectors are
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


def event_log(system):
    return [(e.timestamp, e.category, sorted(e.details.items())) for e in system.event_log.events()]


class Harness:
    """One sender heart-beating ``watchers`` through a group, each watcher's detector leased or not.

    A watcher's handler does what a Local Controller's does with its GM's
    heartbeat: restart the detector while it is armed.  An expired detector
    ends the lease, as ``LocalController._gm_lost`` does; a crash disconnects
    the watcher and releases its detector, as ``Component.fail`` does.
    """

    def __init__(self, config, leased, watchers=1, timeout=8.0, interval=2.0, seed=0):
        self.sim = sim = Simulator()
        self.network = Network(sim, config, rng=np.random.default_rng(seed))
        self.group = MulticastRegistry(self.network).group("hb")
        self.leases = LeaseSet(sim, self.network)
        self.table = DeadlineTable(sim)
        self.fired, self.arrivals = [], []
        self.network.register("gm", lambda m: None)
        self.handles = {}
        for index in range(watchers):
            name = f"lc-{index}"
            handle = self.handles[name] = self.table.arm(timeout, self._expired, name)
            self.network.register(name, lambda m, n=name, h=handle: self._heard(n, h, m))
            self.group.subscribe(name)
            if leased:
                assert self.leases.grant(name, "gm", handle, timeout, interval)

    def _expired(self, name):
        self.fired.append((name, self.sim.now))
        self.leases.revoke(name, "gm")

    def _heard(self, name, handle, message):
        self.arrivals.append((name, message.sent_at, self.sim.now))
        if handle.armed:
            handle.restart()

    def crash(self, name):
        self.network.disconnect(name)
        self.handles[name].release()
        self.leases.revoke(name, "gm")

    def publish_at(self, *times):
        for time in times:
            self.sim.run(until=time)
            self.group.publish("gm", MessageType.GM_HEARTBEAT, leases=self.leases)

    def observed(self):
        self.sim.run(until=self.sim.now + 60.0)
        return self.fired, self.network.stats()


class TestLeaseEdges:
    """Every edge of the lease path matches the lease-off path."""

    @staticmethod
    def both(config, drive, **kwargs):
        arms = {}
        for leased in (True, False):
            harness = Harness(config, leased, **kwargs)
            drive(harness)
            arms[leased] = harness
        on, off = arms[True], arms[False]
        assert on.observed() == off.observed()
        return on, off

    @pytest.mark.parametrize("network", ["jittery", "deterministic"])
    def test_a_detector_due_before_the_arrival_gets_the_real_message(self, network):
        on, _ = self.both(NETWORKS[network], lambda h: h.publish_at(7.9995))
        assert on.fired == [("lc-0", 8.0)]
        assert [name for name, _, _ in on.arrivals] == ["lc-0"]  # delivered after the expiry
        assert on.network.stats()["messages_delivered"] == 1

    @pytest.mark.parametrize("network", ["jittery", "deterministic"])
    def test_a_watcher_crashing_before_the_arrival_drops_it(self, network):
        def drive(h):
            h.publish_at(1.0)
            h.sim.run(until=1.0005)
            h.crash("lc-0")
            h.crash("lc-1")
            h.sim.run(until=1.0006)
            h.network.reconnect("lc-1")  # back before the arrival: delivered

        on, _ = self.both(NETWORKS[network], drive, watchers=3)
        stats = on.network.stats()
        assert (stats["messages_delivered"], stats["messages_dropped"]) == (2, 1)
        assert [name for name, _, _ in on.arrivals] == ["lc-1"]  # the others were absorbed
        assert [name for name, _ in on.fired] == ["lc-2"]  # crashed detectors are released

    @pytest.mark.parametrize("back", [False, True], ids=["partitioned", "back-in-time"])
    @pytest.mark.parametrize("network", ["jittery", "deterministic"])
    def test_a_watcher_partitioned_before_the_arrival_keeps_its_deadline(self, network, back):
        def drive(h):
            h.publish_at(2.0)
            h.sim.run(until=2.0002)
            h.network.disconnect("lc-0")  # partitioned, still running: the detector stays
            if back:
                h.sim.run(until=2.0004)
                h.network.reconnect("lc-0")  # back before the arrival: delivered

        on, off = self.both(NETWORKS[network], drive)
        if back:
            assert on.fired == [("lc-0", off.arrivals[0][2] + 8.0)]
        else:
            # The dropped heartbeat never restarted the detector armed at 0.0.
            assert on.fired == [("lc-0", 8.0)]
            stats = on.network.stats()
            assert (stats["messages_delivered"], stats["messages_dropped"]) == (0, 1)

    def test_reordered_arrivals_leave_the_latest_arrival_plus_timeout(self):
        config = NetworkConfig(base_latency=0.001, jitter=5.0)
        times = [2.0 * k for k in range(1, 21)]
        on, off = self.both(config, lambda h: h.publish_at(*times), seed=5)
        sent = [sent_at for _, sent_at, _ in off.arrivals]
        assert sent != sorted(sent)  # the case must reorder
        assert on.fired == [("lc-0", off.arrivals[-1][2] + 8.0)]
        assert on.arrivals == []

    def test_equal_deadlines_expire_in_the_same_order_under_loss(self):
        times = [2.0 * k for k in range(1, 16)]
        on, _ = self.both(
            NetworkConfig(jitter=0.0, loss_probability=0.4),
            lambda h: h.publish_at(*times),
            watchers=8,
            seed=9,
        )
        deadlines = [time for _, time in on.fired]
        assert len(on.fired) == 8 and len(set(deadlines)) < len(deadlines)  # ties happened

    def test_a_paused_gl_heartbeat_in_flight_across_gm_loss_is_delivered(self, monkeypatch):
        heard, runs = [], {}
        original = LocalController._on_gl_heartbeat

        def spy(lc, message):
            heard.append((lc.name, lc.sim.now))
            original(lc, message)

        monkeypatch.setattr(LocalController, "_on_gl_heartbeat", spy)
        for leased in (True, False):
            heard.clear()
            with leases_off() if not leased else nullcontext():
                system = SnoozeSystem(
                    SystemSpec(local_controllers=6, group_managers=2, entry_points=1),
                    config=HierarchyConfig(seed=5, network=NetworkConfig()),
                    seed=5,
                )
                system.start()
                system.run(40.0)
                system.sim.run(until=system.sim.now + 0.7)  # off the GL heartbeat grid
                lc = next(lc for lc in system.local_controllers.values() if lc.assigned_gm)
                leader = system.group_managers[system.current_leader()]
                leader._gl_heartbeat_tick()  # in flight for ~1 ms ...
                published = system.sim.now
                lc._gm_lost()  # ... when the LC loses its GM
                assert not system.multicast.group(GL_HEARTBEAT_GROUP).is_paused(lc.name)
                system.run(120.0)
            late = [t for name, t in heard if name == lc.name and published < t < published + 0.01]
            runs[leased] = (late, event_log(system), system.network.stats())
        assert len(runs[True][0]) == 1
        assert runs[True] == runs[False]


@pytest.mark.parametrize("network", sorted(NETWORKS))
def test_a_deployment_reports_the_same_stats_with_leases_on_and_off(network):
    """Leased and latched heartbeats are counted as the messages they stand for."""
    runs = {}
    for leased in (True, False):
        with leases_off() if not leased else nullcontext():
            system = SnoozeSystem(
                SystemSpec(local_controllers=8, group_managers=3, entry_points=1),
                config=HierarchyConfig(seed=2, network=NETWORKS[network]),
                seed=2,
            )
            system.start()
            system.run(30.0)
            system.kill_local_controller("lc-002")
            system.run(60.0)
            system.kill_group_manager(
                next(name for name, gm in system.group_managers.items() if not gm.is_leader)
            )
            system.run(150.0)
        runs[leased] = (system.network.stats(), event_log(system), system.sim.processed_events)
    assert runs[True][0] == runs[False][0]
    if network != "deterministic":
        # On a deterministic network two detector tables expiring at the
        # same instant fire in the order their sweeps were scheduled, which
        # re-arming at send time moves; the lease-off arm differs there.
        assert runs[True][1] == runs[False][1]
        assert runs[True][2] < runs[False][2]
