"""Per-LC tick oracle: one phased callback per Local Controller per tick.

Until the Local Controller fleet (:mod:`repro.hierarchy.fleet`) every LC
registered its own members with the :class:`CoalescedTicker` -- a two-phase
monitoring tick (every LC samples, then every LC reports) and a heartbeat --
and every host monitor swept its own VMs in Python.  Those bodies live on here
(moved verbatim from ``LocalController`` / ``ArrayHostMonitor``) as the oracle
the array step is compared against in ``tests/test_fleet_oracle.py``: same
event log, same network counters, same canonical result.

Two adaptations to what changed around them: the report is handed to the
Group Manager in the row layout ``GroupReports`` stores (the never-read
``vm_usage`` / ``node_id`` / ``timestamp`` fields have no column), and the
lease heartbeat reads its lease from the deployment's ``LeaseSet``, makes the
message's draws and applies the lease per heartbeat, as the fleet's rows do.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from repro.cluster.vm import VMState
from repro.hierarchy import system as system_module
from repro.hierarchy.local_controller import GL_HEARTBEAT_GROUP, LocalController
from repro.monitoring.arrays import ArrayHostMonitor
from repro.monitoring.summary import ReportRoute
from repro.network.message import Message, MessageType
from repro.simulation.batch import CoalescedTicker


# ------------------------------------------------- the per-host monitor sweep
def refresh(monitor: ArrayHostMonitor, now: float) -> None:
    """Reconcile with the node's VM list and append one sample per VM."""
    hosted_ids = {vm.vm_id for vm in monitor.node.vms}
    for vm in monitor.node.vms:
        monitor.track_vm(vm)
    for vm_id in list(monitor._slots):
        if vm_id not in hosted_ids:
            monitor.untrack_vm(monitor._tracked[vm_id])
    for vm_id, slot in monitor._slots.items():
        usage = monitor._tracked[vm_id].update_usage(now)
        monitor.plane.record(slot, usage.values)


def _fold_rows(monitor: ArrayHostMonitor, rows: np.ndarray) -> np.ndarray:
    """Sum estimate rows sequentially in tracking order (scalar-loop bits)."""
    total = np.zeros(len(monitor.node.capacity))
    for row in rows:
        total += row
    return total


def _cpu_utilization_of(monitor: ArrayHostMonitor, total: np.ndarray) -> float:
    """Scalar CPU utilization in [0, 1] for a summed demand vector."""
    dims = monitor.node.capacity.dimensions
    cpu_index = dims.index("cpu") if "cpu" in dims else 0
    capacity = monitor.node.capacity.values[cpu_index]
    if capacity <= 0:
        return 0.0
    return float(min(total[cpu_index] / capacity, 1.0))


def build_report(monitor: ArrayHostMonitor, now: float) -> dict:
    """The LC's monitoring payload, from the current sample windows."""
    rows = monitor.plane.estimates(list(monitor._slots.values()))
    total = _fold_rows(monitor, rows)
    utilization = _cpu_utilization_of(monitor, total)
    return {
        "node_id": monitor.node.node_id,
        "timestamp": now,
        "capacity": monitor.node.capacity.values.tolist(),
        "used": total.tolist(),
        "reserved": monitor.node.reserved_values().tolist(),
        "vm_count": monitor.node.vm_count,
        "utilization": utilization,
    }


# ------------------------------------------------------ the per-LC tick bodies
class PerLcTickController(LocalController):
    """A Local Controller that ticks itself, one callback per phase per tick."""

    def on_start(self) -> None:
        self.assigned_gm = None
        self._joining = False
        self.multicast.group(GL_HEARTBEAT_GROUP).subscribe(self.name)
        # One simulator event per interval group for the whole fleet: LCs
        # registering at the same instant share a tick chain and fire in
        # registration order -- the order dedicated timers would have.
        # The monitoring tick is phased so every LC samples before any LC
        # reports.
        ticker = CoalescedTicker.shared(self.sim)
        self._timers.append(
            ticker.register(
                self.config.monitoring_interval,
                self._monitoring_prepare,
                self._monitoring_emit,
                name=f"{self.name}:monitoring",
            )
        )
        self._timers.append(
            ticker.register(
                self.config.lc_heartbeat_interval,
                self._send_heartbeat,
                name=f"{self.name}:heartbeat",
            )
        )

    # ------------------------------------------------------------- heartbeats
    def _send_heartbeat(self) -> None:
        if self.assigned_gm is None:
            return
        gm, network = self.assigned_gm, self.network
        lease = self.leases.get(gm, self.name)
        message = Message(
            msg_type=MessageType.LC_HEARTBEAT,
            sender=self.name,
            recipient=gm,
            payload=self._heartbeat_payload,
        )
        if lease is None:
            network.send(message, size_bytes=128, sender=self.endpoint)
            return
        # Leased: counted and drawn like the message, then re-arming the GM's
        # detector to the arrival instead (the message goes out if it cannot).
        network.messages_sent += 1
        network.bytes_sent += 128
        if not self.endpoint.connected:
            network.messages_dropped += 1
            return
        latency = network.draw_latency()
        if latency < 0:
            return
        arrival = self.sim.now + latency
        if lease.apply(arrival):
            network.absorb(
                [gm], [arrival], MessageType.LC_HEARTBEAT, [self.name], [self._heartbeat_payload]
            )
        else:
            network.dispatch(message, latency)

    # ------------------------------------------------------------- monitoring
    def _monitoring_prepare(self) -> None:
        """Tick phase 1: reap expired VMs and append fresh usage samples."""
        self._reap_finished_vms()
        refresh(self.monitor, self.sim.now)

    def _monitoring_emit(self) -> None:
        """Tick phase 2: build the report from current samples, send, detect anomalies."""
        report = build_report(self.monitor, self.sim.now)
        if self.assigned_gm is not None:
            table = np.array(
                [report["capacity"] + report["reserved"] + report["used"] + [report["vm_count"]]],
                dtype=float,
            )
            self.network.send(
                Message(
                    msg_type=MessageType.LC_MONITORING,
                    sender=self.name,
                    recipient=self.assigned_gm,
                    payload=(ReportRoute([self.name], [0]), table),
                ),
                size_bytes=1024,
                sender=self.endpoint,
            )
        self._detect_anomalies(report)

    def _reap_finished_vms(self) -> None:
        """Backstop sweep for expired VMs the departure timer missed.

        The precise per-VM timer scheduled at start covers the common case;
        this sweep catches VMs that migrated onto this node (their timer lives
        on the source LC and no-ops there once the VM has left).
        """
        for vm in self.node.vms:
            if (
                vm.runtime is not None
                and vm.start_time is not None
                and self.sim.now - vm.start_time >= vm.runtime
                and vm.state is VMState.RUNNING
            ):
                self._depart_vm(vm)

    def _detect_anomalies(self, report: dict) -> None:
        if self.assigned_gm is None:
            return
        utilization = report["utilization"]
        thresholds = self.config.thresholds
        now = self.sim.now
        if utilization > thresholds.overload and now - self._last_overload_report >= self.anomaly_cooldown:
            self._last_overload_report = now
            self.network.send(
                Message(
                    msg_type=MessageType.OVERLOAD_EVENT,
                    sender=self.name,
                    recipient=self.assigned_gm,
                    payload={"node_id": self.node.node_id, "utilization": utilization},
                )
            )
            self.log_event("overload_detected", utilization=utilization)
        elif (
            self.node.vm_count > 0
            and utilization < thresholds.underload
            and now - self._last_underload_report >= self.anomaly_cooldown
        ):
            self._last_underload_report = now
            self.network.send(
                Message(
                    msg_type=MessageType.UNDERLOAD_EVENT,
                    sender=self.name,
                    recipient=self.assigned_gm,
                    payload={"node_id": self.node.node_id, "utilization": utilization},
                )
            )
            self.log_event("underload_detected", utilization=utilization)


@contextmanager
def per_lc_ticks():
    """Deployments built inside the block use :class:`PerLcTickController`."""
    original = system_module.LocalController
    system_module.LocalController = PerLcTickController
    try:
        yield
    finally:
        system_module.LocalController = original
