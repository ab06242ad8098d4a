"""The Local Controller fleet: one array step per tick, not one callback per LC.

Paper Sections II.B-E have every Local Controller sample its VMs, report to
its Group Manager and heart-beat every interval.  Simulating that as one
callback per LC per tick makes the interpreter, not the model, the cost of a
large fleet.  :class:`LocalControllerFleet` is the per-simulation service that
owns those two periodic duties for every running LC: it registers **one**
:class:`~repro.simulation.batch.CoalescedTicker` member per group of LCs that
tick together and runs each tick as array steps over the group's rows.

Heartbeat tick (:class:`HeartbeatRows`)
    one row per assigned LC -- its endpoint, its GM, its heartbeat payload and
    the lease it holds on its GM's failure detector
    (:class:`~repro.network.fanout.LeaseSet`) -- sent through the heartbeat
    fan-out the multicast groups use (:class:`~repro.network.fanout.FanOut`):
    each heartbeat is counted and drawn in row order, then re-arms its lease
    or goes out as a message, with one indexed write per GM table on a
    deterministic network.

Monitoring tick (:class:`MonitoringRows`)
    lifetime check -> bulk sample write -> estimate kernel -> per-host fold ->
    utilization / threshold / cool-down masks
    (:class:`~repro.monitoring.arrays.HostRows`), then the report rows go out.
    Python runs per row only where something happened: the VM set changed or
    a lifetime ran out (the LC's ``_depart_vm`` and a monitor reconcile), or
    an anomaly is due (the LC's ``_report_anomaly``).

Determinism rule: rows are the group's LCs in start order -- the order their
own timers would have fired in -- and every side effect that is visible
outside the step (event-log entries, sends and the random draws a jittery
network makes per message, leased heartbeats included, restart stamps of
re-armed detectors) happens in row order.  The network decides only
*delivery*: on a deterministic network a tick's reports travel as one frame
per Group Manager (:meth:`~repro.network.transport.Network.send_frame`);
otherwise each LC's report is its own send, followed by that LC's anomaly
message.  Cached plans are rebuilt only when
:attr:`LocalControllerFleet.epoch` (an LC started, stopped, joined or lost its
GM) or the network's ``connectivity_epoch`` moved, and the heartbeat plan also
when the lease set's ``epoch`` did.

LCs built with different :class:`~repro.hierarchy.config.HierarchyConfig`
objects tick in separate groups (thresholds, telemetry plane and timeouts are
read once per group), each keeping its rows in start order.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.monitoring.arrays import HostRows, report_columns
from repro.monitoring.summary import ReportRoute
from repro.network.fanout import FanOut, LeaseSet
from repro.network.message import Message, MessageType
from repro.network.transport import Network
from repro.simulation.batch import CoalescedTicker
from repro.simulation.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hierarchy.local_controller import LocalController


class _TickRows:
    """The LCs that share one tick (same interval, grid and config), in start order."""

    def __init__(self, fleet: "LocalControllerFleet", interval: float, name: str) -> None:
        self.fleet = fleet
        self.sim = fleet.sim
        self.network = fleet.network
        self.lcs: List["LocalController"] = []
        self.handle = CoalescedTicker.shared(self.sim).register(interval, self.step, name=name)

    def add(self, lc: "LocalController") -> None:
        self.lcs.append(lc)

    def remove(self, lc: "LocalController") -> None:
        self.lcs.remove(lc)


class HeartbeatRows(_TickRows):
    """One heartbeat tick for a group of LCs: every assigned LC's heartbeat to its GM."""

    def __init__(self, fleet: "LocalControllerFleet", interval: float, name: str) -> None:
        super().__init__(fleet, interval, name)
        self.fan_out = FanOut(self.network)

    def _rows(self) -> List[tuple]:
        leases = self.fleet.leases
        return [
            (lc.endpoint, lc.assigned_gm, lc._heartbeat_payload,
             leases.get(lc.assigned_gm, lc.name), False)
            for lc in self.lcs
            if lc.assigned_gm is not None
        ]

    def step(self) -> None:
        self.fan_out.plan((self.fleet.epoch, self.fleet.leases.epoch), self._rows)
        self.fan_out.send(MessageType.LC_HEARTBEAT, 128)


class MonitoringRows(_TickRows):
    """One monitoring tick for a group of LCs (sharing one telemetry plane)."""

    def __init__(self, fleet: "LocalControllerFleet", interval: float, name: str) -> None:
        super().__init__(fleet, interval, name)
        #: ``(fleet, connectivity)`` epochs the cached plan was built under.
        self._planned: Tuple[int, int] = (-1, -1)
        #: Nodes touched since the last tick (VM placed / removed / tracked /
        #: untracked, usage written, power state changed): their rows take
        #: the scalar path.
        self._dirty: set = set()
        #: The monitoring kernel over the rows (rebuilt after a membership change).
        self._hosts: Optional[HostRows] = None
        self._row_of_node: Dict[object, int] = {}

    def add(self, lc: "LocalController") -> None:
        super().add(lc)
        lc.node.watch(self._dirty.add)
        lc.monitor.touched = self._dirty
        self._dirty.add(lc.node)  # whatever it already hosts is not tracked yet
        self._hosts = None

    def remove(self, lc: "LocalController") -> None:
        super().remove(lc)
        lc.node.unwatch(self._dirty.add)
        lc.monitor.touched = None
        self._dirty.discard(lc.node)
        self._hosts = None

    def _plan(self) -> None:
        lcs = self.lcs
        if self._hosts is None:
            self._hosts = HostRows(lcs[0].monitor.plane, [lc.monitor for lc in lcs])
            self._row_of_node = {lc.node: row for row, lc in enumerate(lcs)}
        self._assigned = np.array([lc.assigned_gm is not None for lc in lcs], dtype=bool)
        self._last_overload = np.array([lc._last_overload_report for lc in lcs], dtype=float)
        self._last_underload = np.array([lc._last_underload_report for lc in lcs], dtype=float)
        self._cooldown = np.array([lc.anomaly_cooldown for lc in lcs], dtype=float)
        #: Deterministic network: ``(gm, route, sender endpoints)`` per GM.
        self._frames: List[tuple] = []
        #: Every other report: ``(row, lc, one-row route)`` in row order.
        self._singles: List[tuple] = []
        by_gm: Dict[str, List[int]] = {}
        deterministic = self.network.deterministic
        for row, lc in enumerate(lcs):
            if lc.assigned_gm is None:
                continue
            if deterministic and lc.endpoint.connected:
                by_gm.setdefault(lc.assigned_gm, []).append(row)
            else:
                self._singles.append((row, lc, ReportRoute([lc.name], [row])))
        for gm, rows in by_gm.items():
            route = ReportRoute([lcs[row].name for row in rows], rows)
            self._frames.append((gm, route, [lcs[row].endpoint for row in rows]))

    def step(self) -> None:
        epochs = (self.fleet.epoch, self.network.connectivity_epoch)
        if epochs != self._planned:
            self._planned = epochs
            self._plan()
        lcs, hosts, now = self.lcs, self._hosts, self.sim.now
        # Rows whose VM set moved since the last tick, or that track a VM
        # whose lifetime ran out, take the per-LC path: the departure backstop
        # (``_depart_vm`` re-checks every condition itself) over the node's
        # VMs, then a reconcile of the monitor with what is left.
        touched = set(hosts.due(now))
        touched.update(self._row_of_node[node] for node in self._dirty)
        for row in sorted(touched):
            lc = lcs[row]
            for vm in lc.node.vms:
                lc._depart_vm(vm)
            lc.monitor.reconcile()
        hosts.refresh(touched)
        table, utilization = hosts.sample(now)
        # Sampling wrote VM usage (marking nodes); no VM set moved meanwhile.
        self._dirty.clear()

        thresholds = lcs[0].config.thresholds
        overload = (utilization > thresholds.overload) & (
            now - self._last_overload >= self._cooldown
        )
        underload = (
            (report_columns(table)[3] > 0)
            & (utilization < thresholds.underload)
            & (now - self._last_underload >= self._cooldown)
        )
        anomalies = np.flatnonzero((overload | underload) & self._assigned).tolist()

        network = self.network
        for gm, route, senders in self._frames:
            network.send_frame(
                Message(
                    msg_type=MessageType.LC_MONITORING,
                    sender=LocalControllerFleet.SERVICE_NAME,
                    recipient=gm,
                    payload=(route, table),
                ),
                senders,
                size_bytes=1024,
            )
        pending = iter(anomalies)
        anomaly = next(pending, -1)
        for row, lc, route in self._singles:
            while -1 < anomaly < row:
                self._report_anomaly(anomaly, overload, utilization)
                anomaly = next(pending, -1)
            network.send(
                Message(
                    msg_type=MessageType.LC_MONITORING,
                    sender=lc.name,
                    recipient=lc.assigned_gm,
                    payload=(route, table),
                ),
                size_bytes=1024,
                sender=lc.endpoint,
            )
        while anomaly > -1:
            self._report_anomaly(anomaly, overload, utilization)
            anomaly = next(pending, -1)

    def _report_anomaly(self, row: int, overload: np.ndarray, utilization: np.ndarray) -> None:
        overloaded = bool(overload[row])
        self.lcs[row]._report_anomaly(overloaded, float(utilization[row]))
        (self._last_overload if overloaded else self._last_underload)[row] = self.sim.now


class LocalControllerFleet:
    """Per-simulation owner of every running LC's monitoring and heartbeat ticks."""

    SERVICE_NAME = "lc-fleet"

    def __init__(self, sim: Simulator, network: Network) -> None:
        self.sim = sim
        self.network = network
        self.leases = LeaseSet.shared(sim, network)
        #: Moves whenever an LC starts, stops, joins or loses its GM: every
        #: cached per-group index array is rebuilt at the next tick.
        self.epoch = 0
        self._groups: Dict[tuple, _TickRows] = {}
        #: lc name -> the group keys it is enrolled under.
        self._enrolled: Dict[str, List[tuple]] = {}

    @classmethod
    def shared(cls, sim: Simulator, network: Network) -> "LocalControllerFleet":
        """The per-simulation fleet (created on first use)."""
        if sim.has_service(cls.SERVICE_NAME):
            return sim.get_service(cls.SERVICE_NAME)
        fleet = cls(sim, network)
        sim.register_service(cls.SERVICE_NAME, fleet)
        return fleet

    def enroll(self, lc: "LocalController") -> None:
        """Start ticking ``lc``: first ticks one interval from now.

        LCs enrolled at the same instant with the same config share a group
        (one simulator event per tick) and keep their enrollment order.
        """
        config = lc.config
        keys = []
        for kind, interval in (
            (MonitoringRows, config.monitoring_interval),
            (HeartbeatRows, config.lc_heartbeat_interval),
        ):
            key = (kind, float(interval), self.sim.now + float(interval), id(config))
            group = self._groups.get(key)
            if group is None:
                group = self._groups[key] = kind(self, interval, f"lc-fleet:{kind.__name__}")
            group.add(lc)
            keys.append(key)
        self._enrolled[lc.name] = keys
        self.epoch += 1

    def withdraw(self, lc: "LocalController") -> None:
        """Stop ticking ``lc`` (idempotent); an emptied group stops its tick."""
        for key in self._enrolled.pop(lc.name, ()):
            group = self._groups[key]
            group.remove(lc)
            if not group.lcs:
                group.handle.stop()
                del self._groups[key]
            self.epoch += 1
