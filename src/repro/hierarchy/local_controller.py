"""Local Controller: the per-node Snooze agent.

Paper Section II.A: "each node is controlled by a so-called Local Controller
(LC). ... LCs enforce VM and host management commands coming from the GM.
Moreover, they detect local overload/underload anomaly situations and report
them to the assigned GM."

Responsibilities implemented here:

* **Self-organization** (Section II.D): listen for Group Leader heartbeats,
  ask the GL for a Group Manager assignment, join that GM and start
  exchanging heartbeats with it; rejoin from scratch whenever the GM's
  heartbeats stop.
* **Monitoring** (Section II.B): sample hosted VMs periodically and send the
  aggregated report to the GM.
* **Anomaly detection** (Section II.C): raise overload / underload events
  with a cool-down so a sustained condition does not flood the GM.
* **Command enforcement**: start/terminate VMs, execute live migrations.
* **Failure semantics** (Section II.E): when the LC crashes its VMs are
  terminated; when it recovers it rejoins the hierarchy empty.

The periodic duties (monitoring tick, heartbeat) of all running LCs are
stepped together, as array rows, by the deployment's
:class:`~repro.hierarchy.fleet.LocalControllerFleet`; this class keeps the
per-LC handlers a row falls back to when something happened on it
(:meth:`LocalController._depart_vm`, :meth:`LocalController._report_anomaly`).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.cluster.node import NodeState, PhysicalNode
from repro.cluster.vm import VirtualMachine, VMState
from repro.hierarchy.common import Component
from repro.hierarchy.config import HierarchyConfig
from repro.hierarchy.fleet import LocalControllerFleet
from repro.metrics.recorder import EventLog
from repro.migration.model import MigrationExecutor
from repro.monitoring.arrays import ArrayHostMonitor, TelemetryPlane
from repro.network.message import Message, MessageType
from repro.network.transport import Network
from repro.simulation.batch import DeadlineTable
from repro.simulation.engine import Simulator

#: Name of the shared node registry service (node_id -> PhysicalNode).
NODE_REGISTRY_SERVICE = "node_registry"
#: Name of the shared migration executor service.
MIGRATION_SERVICE = "migration"
#: Multicast group on which the Group Leader announces itself.
GL_HEARTBEAT_GROUP = "gl-heartbeat"


def gm_heartbeat_group(gm_name: str) -> str:
    """Name of the per-Group-Manager heartbeat multicast group."""
    return f"gm-heartbeat:{gm_name}"


class LocalController(Component):
    """The agent controlling one physical node."""

    def __init__(
        self,
        name: str,
        node: PhysicalNode,
        sim: Simulator,
        network: Network,
        config: Optional[HierarchyConfig] = None,
        event_log: Optional[EventLog] = None,
    ) -> None:
        super().__init__(name, sim, network, event_log)
        self.node = node
        self.config = config or HierarchyConfig()
        #: The deployment-wide service that steps this LC's periodic duties.
        self._fleet = LocalControllerFleet.shared(sim, network)
        # Sample windows and demand estimates live in the deployment-wide
        # TelemetryPlane, computed in fleet-sized numpy batches.
        self.monitor = ArrayHostMonitor(node, TelemetryPlane.shared(sim))
        self.assigned_gm: Optional[str] = None
        self.current_gl: Optional[str] = None
        #: GM heartbeat failure detector (a DeadlineTable handle).
        self._gm_timeout = None
        self._joining = False
        self._last_overload_report = -float("inf")
        self._last_underload_report = -float("inf")
        #: Heartbeat payload (content is constant; reused across sends).
        self._heartbeat_payload = {"node_id": self.node.node_id}
        #: Seconds between repeated anomaly reports for a persisting condition
        #: (read when the LC starts, joins or loses a GM).
        self.anomaly_cooldown = 3 * self.config.monitoring_interval
        #: Open "lc_rejoin" trace span (failure detected -> rejoined), if any.
        self._rejoin_span = None
        self.rpc.register_operation("start_vm", self._op_start_vm)
        self.rpc.register_operation("terminate_vm", self._op_terminate_vm)
        self.rpc.register_operation("migrate_vm", self._op_migrate_vm)

    # ---------------------------------------------------------------- startup
    def on_start(self) -> None:
        self.assigned_gm = None
        self._joining = False
        self.multicast.group(GL_HEARTBEAT_GROUP).subscribe(self.name)
        # One simulator event per interval for the whole fleet: LCs starting
        # at the same instant share a tick and are stepped as array rows, in
        # start order -- the order dedicated timers would have fired in.
        self._fleet.enroll(self)

    def _stop_all_timers(self) -> None:
        super()._stop_all_timers()
        self._fleet.withdraw(self)

    def on_fail(self) -> None:
        """A crashed LC loses its VMs (paper: 'in the event of a LC failure, VMs are also terminated')."""
        self.node.state = NodeState.FAILED
        for vm in self.node.evict_all(self.sim.now):
            vm.mark_failed(self.sim.now)
            # Release the telemetry state immediately: a permanently failed
            # LC never ticks again, so its monitor would otherwise pin the
            # lost VMs (and their plane slots) for the rest of the run.
            self.monitor.untrack_vm(vm)
            self.log_event("vm_failed", vm=vm.name, reason="lc_failure")
        self.multicast.group(GL_HEARTBEAT_GROUP).unsubscribe(self.name)
        if self.assigned_gm is not None:
            self._leave_gm()
        self.assigned_gm = None

    def recover(self) -> None:  # noqa: D102 - documented on Component
        self.node.state = NodeState.ON
        self.node.idle_since = self.sim.now
        super().recover()

    # ------------------------------------------------------------- membership
    @property
    def is_assigned(self) -> bool:
        """True once the LC has joined a Group Manager."""
        return self.assigned_gm is not None

    def handle_message(self, message: Message) -> None:
        if message.msg_type is MessageType.GL_HEARTBEAT:
            self._on_gl_heartbeat(message)
        elif message.msg_type is MessageType.GM_HEARTBEAT:
            self._on_gm_heartbeat(message)

    def _on_gl_heartbeat(self, message: Message) -> None:
        self.current_gl = message.payload.get("gl") if message.payload else message.sender
        if self.assigned_gm is None and not self._joining:
            # Small grace period before asking for an assignment: a freshly
            # elected Group Leader needs one heartbeat round to learn which
            # other Group Managers exist, otherwise every LC would be assigned
            # to the leader itself.
            self._joining = True
            self.sim.schedule(0.5 * self.config.lc_heartbeat_interval, self._request_assignment)

    def _request_assignment(self) -> None:
        """Ask the current GL for a Group Manager to join (Section II.D)."""
        if not self.is_running or self.assigned_gm is not None or self.current_gl is None:
            self._joining = False
            return
        self._joining = True
        self.rpc.call(
            self.current_gl,
            "assign_lc",
            kwargs={"lc_name": self.name},
            on_reply=self._on_assignment,
            on_error=lambda _err: self._join_failed(),
            on_timeout=self._join_failed,
        )

    def _on_assignment(self, result) -> None:
        gm_name = result.get("gm") if isinstance(result, dict) else None
        if gm_name is None:
            self._join_failed()
            return
        self.rpc.call(
            gm_name,
            "join_lc",
            kwargs={"lc_name": self.name, "node_id": self.node.node_id},
            on_reply=lambda _ack, gm=gm_name: self._joined(gm),
            on_error=lambda _err: self._join_failed(),
            on_timeout=self._join_failed,
        )

    def _joined(self, gm_name: str) -> None:
        self._joining = False
        self.assigned_gm = gm_name
        self._fleet.epoch += 1
        # An assigned LC only consults the Group Leader channel while
        # rejoining, yet every interval its delivery would refresh a field
        # nobody reads.  Pause the subscription (keeping the fan-out slot):
        # the channel latches what it would have delivered, and the LC reads
        # the latch when it loses its GM.
        self.multicast.group(GL_HEARTBEAT_GROUP).pause(self.name)
        if self._gm_timeout is not None:
            # The old detector is never restarted again: release its entry.
            self.discard_timeout(self._gm_timeout)
        # All LC-side GM failure detectors share one deadline array (and one
        # pending simulator event).
        timeout = self.config.heartbeat_timeout
        self._gm_timeout = self.add_deadline(
            DeadlineTable.shared(self.sim, "lc-gm-heartbeats"), timeout, self._gm_lost
        )
        # The GM heartbeat handler does exactly one thing: restart this
        # detector.  Leased, the GM's heartbeat to this member of its group
        # re-arms it to the arrival time instead of being delivered.
        self.leases.grant(
            self.name, gm_name, self._gm_timeout, timeout, self.config.gm_heartbeat_interval
        )
        self.multicast.group(gm_heartbeat_group(gm_name)).subscribe(self.name)
        if self._rejoin_span is not None:
            self._rejoin_span.attrs["gm"] = gm_name
            self.tracer.end(self._rejoin_span)
            self._rejoin_span = None
        self.log_event("lc_joined", gm=gm_name)

    def _join_failed(self) -> None:
        self._joining = False

    def _leave_gm(self) -> None:
        """Stop heart-beating with the assigned GM, in both directions."""
        gm = self.assigned_gm
        self.leases.revoke(self.name, gm)
        self.leases.revoke(gm, self.name)
        self.multicast.group(gm_heartbeat_group(gm)).unsubscribe(self.name)

    def _gm_lost(self) -> None:
        """The assigned GM's heartbeats stopped: rejoin the hierarchy (Section II.E)."""
        self._fleet.epoch += 1
        gl_group = self.multicast.group(GL_HEARTBEAT_GROUP)
        if gl_group.is_paused(self.name):
            # Catch up on the Group Leader heartbeats latched while paused:
            # the latch yields exactly the (sender, payload) the last
            # delivered heartbeat would have carried, so ``current_gl`` is
            # byte-for-byte what an uninterrupted subscription would hold.
            # Resuming delivers the ones still in flight.
            latched = gl_group.last_delivered(self.name, self.sim.now)
            if latched is not None:
                sender, payload = latched
                self.current_gl = payload.get("gl") if payload else sender
            gl_group.resume(self.name)
        if self.assigned_gm is not None:
            self.log_event("gm_lost", gm=self.assigned_gm)
            if self.tracer is not None:
                if self._rejoin_span is not None:  # stale: previous rejoin never completed
                    self.tracer.end(self._rejoin_span)
                self._rejoin_span = self.tracer.begin(
                    "lc_rejoin", self.name, root=True, lost_gm=self.assigned_gm
                )
            self._leave_gm()
        self.assigned_gm = None
        if self.current_gl is not None and not self._joining:
            self._joining = True
            self.sim.schedule(0.5 * self.config.lc_heartbeat_interval, self._request_assignment)

    def _on_gm_heartbeat(self, message: Message) -> None:
        if self.assigned_gm is not None and message.sender == self.assigned_gm:
            if self._gm_timeout is not None:
                self._gm_timeout.restart()

    # ------------------------------------------------------------- monitoring
    def _depart_vm(self, vm: VirtualMachine) -> None:
        """Release a VM whose lifetime expired: free resources, emit the event.

        Called by the exact-expiry timer set when the VM starts and, as a
        backstop, by the fleet's monitoring tick for every VM on a node that
        tracks an expired one -- which catches VMs that migrated onto this
        node (their timer lives on the source LC and no-ops there once the VM
        has left).  No-ops unless the VM is still running here (it may have
        migrated away, been terminated, or been lost to an LC failure in the
        meantime) and its lifetime is over.
        """
        if not self.is_running or not self.node.hosts_vm(vm) or vm.state is not VMState.RUNNING:
            return
        if vm.runtime is None or vm.start_time is None or self.sim.now - vm.start_time < vm.runtime:
            return
        self.node.remove_vm(vm, self.sim.now)
        vm.mark_finished(self.sim.now)
        self.monitor.untrack_vm(vm)
        self.log_event(
            "vm_departed",
            vm=vm.name,
            node_id=self.node.node_id,
            lifetime=vm.runtime,
        )

    def _report_anomaly(self, overloaded: bool, utilization: float) -> None:
        """Tell the GM this host crossed a threshold (its cool-down has passed)."""
        if overloaded:
            self._last_overload_report = self.sim.now
            msg_type, category = MessageType.OVERLOAD_EVENT, "overload_detected"
        else:
            self._last_underload_report = self.sim.now
            msg_type, category = MessageType.UNDERLOAD_EVENT, "underload_detected"
        self.network.send(
            Message(
                msg_type=msg_type,
                sender=self.name,
                recipient=self.assigned_gm,
                payload={"node_id": self.node.node_id, "utilization": utilization},
            ),
            sender=self.endpoint,
        )
        self.log_event(category, utilization=utilization)

    # ----------------------------------------------------------- RPC commands
    def _op_start_vm(self, vm: VirtualMachine) -> dict:
        """Enforce a VM start command from the GM."""
        if self.node.state is not NodeState.ON or not self.node.fits(vm):
            return {"accepted": False, "reason": "insufficient capacity"}
        if self.tracer is not None:
            with self.tracer.span("vm_boot", self.name, vm=vm.vm_id):
                return self._start_vm(vm)
        return self._start_vm(vm)

    def _start_vm(self, vm: VirtualMachine) -> dict:
        self.node.place_vm(vm, now=self.sim.now)
        self.monitor.track_vm(vm)
        if vm.runtime is not None:
            # Exact-expiry departure so churn does not quantize to the
            # monitoring interval (remaining = runtime minus time already run,
            # e.g. zero remaining after a failed-then-recovered placement).
            # Departures pool into a shared deadline table: one pending
            # simulator event instead of one heap entry per running VM (a
            # churny fleet otherwise drags thousands of pending departures
            # through every heap operation), and ``release_on_fire`` recycles
            # each entry the moment it fires since nobody holds the handle.
            elapsed = self.sim.now - vm.start_time if vm.start_time is not None else 0.0
            remaining = max(vm.runtime - elapsed, 0.0)
            if remaining > 0:
                DeadlineTable.shared(self.sim, "vm-departures").arm(
                    remaining, self._depart_vm, vm, release_on_fire=True
                )
            else:
                self.sim.schedule(0.0, self._depart_vm, vm)
        self.log_event("vm_started", vm=vm.name)
        return {"accepted": True, "node_id": self.node.node_id}

    def _op_terminate_vm(self, vm_id: int) -> dict:
        """Terminate a hosted VM by id."""
        for vm in self.node.vms:
            if vm.vm_id == vm_id:
                self.node.remove_vm(vm, self.sim.now)
                vm.mark_finished(self.sim.now)
                self.monitor.untrack_vm(vm)
                self.log_event("vm_terminated", vm=vm.name)
                return {"terminated": True}
        return {"terminated": False, "reason": "vm not found"}

    def _op_migrate_vm(self, vm_id: int, destination_node_id: str) -> dict:
        """Live-migrate a hosted VM to another node (GM-initiated)."""
        vm = next((candidate for candidate in self.node.vms if candidate.vm_id == vm_id), None)
        if vm is None:
            return {"started": False, "reason": "vm not found"}
        registry: Dict[str, PhysicalNode] = self.sim.get_service(NODE_REGISTRY_SERVICE)
        destination = registry.get(destination_node_id)
        if destination is None:
            return {"started": False, "reason": "unknown destination"}
        executor: MigrationExecutor = self.sim.get_service(MIGRATION_SERVICE)
        started = executor.migrate(
            vm,
            self.node,
            destination,
            on_complete=lambda migrated: self.log_event(
                "migration_completed", vm=migrated.name, destination=destination_node_id
            ),
            on_failed=lambda failed, reason: self.log_event(
                "migration_failed", vm=failed.name, reason=reason
            ),
        )
        if started:
            self.monitor.untrack_vm(vm)
        return {"started": started}
