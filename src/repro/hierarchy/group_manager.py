"""Group Manager (and, when elected, Group Leader).

Paper Section II.A: "Each GM manages a subset of LCs and is in charge of the
following tasks: (1) VM monitoring data reception from LCs, (2) Resource
demand estimation and VM scheduling, (3) energy management, and (4) sending
resource management commands to the LCs."

Section II.D: "When a GM first attempts to join the system, a leader election
algorithm is triggered ... If a leader exists, the GM joins it and starts
sending GM heartbeats. Otherwise, it becomes the new GL."  The reproduction
follows that design literally: every :class:`GroupManager` is an election
candidate; the elected one additionally activates the Group Leader role
(dispatching, LC-to-GM assignment, GM failure detection, GL heartbeats) while
continuing to manage its own Local Controllers.  This dual role is a small,
documented deviation from the original deployment practice (where the GL's
LCs would rejoin other GMs) that keeps single-GM deployments functional.

Failure model (Section II.E): killing a GM stops its timers, so its
coordination session expires (triggering a new election if it was the leader)
and its heartbeats stop (so its LCs rejoin through the GL and the GL removes
it from dispatching).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.cluster.node import PhysicalNode
from repro.cluster.vm import VirtualMachine
from repro.coordination.election import LeaderElection
from repro.coordination.znodes import CoordinationService
from repro.energy.accounting import EnergyMeter
from repro.energy.power_manager import PowerStateManager
from repro.hierarchy.common import PLACEMENT_TIMEOUT, Component
from repro.hierarchy.config import HierarchyConfig
from repro.hierarchy.local_controller import (
    GL_HEARTBEAT_GROUP,
    NODE_REGISTRY_SERVICE,
    gm_heartbeat_group,
)
from repro.metrics.recorder import EventLog
from repro.monitoring.summary import GroupManagerSummary, GroupReports
from repro.network.message import Message, MessageType
from repro.network.transport import Network
from repro.policies import DecisionPlane
from repro.policies.registry import instrument_policy
from repro.simulation.batch import DeadlineHandle, DeadlineTable
from repro.simulation.engine import Event, Simulator
from repro.simulation.timers import PeriodicTimer


class GroupManager(Component):
    """One Group Manager; activates the Group Leader role when elected."""

    def __init__(
        self,
        name: str,
        sim: Simulator,
        network: Network,
        coordination: CoordinationService,
        config: Optional[HierarchyConfig] = None,
        event_log: Optional[EventLog] = None,
        consolidation_rng=None,
    ) -> None:
        super().__init__(name, sim, network, event_log)
        self.config = config or HierarchyConfig()
        self.coordination = coordination
        self._consolidation_rng = consolidation_rng

        # --- GM state: the Local Controllers this GM manages.
        #: lc_name -> {"node": PhysicalNode, "timeout": DeadlineHandle}, in join order.
        self.local_controllers: Dict[str, dict] = {}
        #: The latest monitoring report of each of them, as resident array
        #: rows the summary sums directly.
        self._reports = GroupReports()
        #: Resident decision arrays over this GM's LC nodes: placement views,
        #: the node->LC index and the join-ordered node list all come from
        #: here instead of per-event rebuilds (ROADMAP item 2).
        self.plane = DecisionPlane()
        #: Cached own-group summary, reused between summary ticks by the
        #: leader's dispatching path; invalidated on LC join/removal.
        self._summary_cache: Optional[GroupManagerSummary] = None
        #: Number of full summary builds (regression-tested: dispatching a
        #: burst of submissions must not rebuild per submission).
        self.summary_rebuilds = 0
        # Coalesced failure detection: all of this GM's per-LC (and, as
        # leader, per-GM) heartbeat deadlines live in two deadline arrays with
        # one pending simulator event each.
        self._lc_deadlines = DeadlineTable(sim, name=f"{name}:lc-heartbeats")
        self._gm_deadlines = DeadlineTable(sim, name=f"{name}:gm-heartbeats")
        self.current_gl: Optional[str] = None
        # Every decision point is a registered policy, built through the one
        # registry path (HierarchyConfig.build_policy -> repro.policies).
        self.placement_policy = self.config.build_policy("placement")
        self.overload_policy = self.config.build_policy(
            "overload-relocation", thresholds=self.config.thresholds
        )
        self.underload_policy = self.config.build_policy(
            "underload-relocation", thresholds=self.config.thresholds
        )
        self.reconfiguration_policy = self.config.build_policy(
            "reconfiguration",
            thresholds=self.config.thresholds,
            max_migrations=self.config.max_migrations_per_round,
            rng=self._consolidation_rng,
        )
        self.power_manager: Optional[PowerStateManager] = None
        #: Reconfiguration rounds this Group Manager has run.
        self.reconfiguration_rounds = 0

        # --- GL state (only used while this GM is the elected leader).
        self.is_leader = False
        self.gm_summaries: Dict[str, GroupManagerSummary] = {}
        #: GMs known to the leader (from their heartbeats), used for LC assignment.
        self.known_gms: set = set()
        self._gm_timeouts: Dict[str, DeadlineHandle] = {}
        self.dispatching_policy = self.config.build_policy("dispatching")
        self.assignment_policy = self.config.build_policy("assignment")
        self._gl_heartbeat_timer: Optional[PeriodicTimer] = None
        self.submissions_dispatched = 0

        # Decision-latency metrics: every policy decision call is timed into
        # the ``policy_decision_seconds`` histogram, labeled by kind and
        # component (instance-level shadowing -- ``policy.thresholds``
        # mutation by runtime control keeps working).
        if self.obs is not None and self.obs.registry is not None:
            for kind, policy in (
                ("placement", self.placement_policy),
                ("overload-relocation", self.overload_policy),
                ("underload-relocation", self.underload_policy),
                ("reconfiguration", self.reconfiguration_policy),
                ("dispatching", self.dispatching_policy),
                ("assignment", self.assignment_policy),
            ):
                instrument_policy(policy, self.obs.decision_observer(kind, self.name))

        # --- Election.
        self.election: Optional[LeaderElection] = None

        # --- RPC surface.
        self.rpc.register_operation("join_lc", self._op_join_lc)
        self.rpc.register_operation("place_vm", self._op_place_vm)
        self.rpc.register_operation("assign_lc", self._op_assign_lc)
        self.rpc.register_operation("submit_vm", self._op_submit_vm)

    # ------------------------------------------------------------------ setup
    def on_start(self) -> None:
        # Join (or re-join) the leader election.
        self.election = LeaderElection(
            self.coordination,
            candidate_id=self.name,
            session_timeout=self.config.session_timeout,
            on_elected=self._become_leader,
            on_leader_changed=self._leader_changed,
        )
        self.election.join()
        self.multicast.group(GL_HEARTBEAT_GROUP).subscribe(self.name)
        self.add_timer(self.config.gm_heartbeat_interval, self._heartbeat_tick)
        self.add_timer(self.config.summary_interval, self._summary_tick)
        if self.config.reconfiguration_interval is not None:
            self.add_timer(self.config.reconfiguration_interval, self._reconfiguration_tick)
        if self.config.power_manager.enabled:
            energy_meter = (
                self.sim.get_service(EnergyMeter.SERVICE_NAME)
                if self.sim.has_service(EnergyMeter.SERVICE_NAME)
                else None
            )
            self.power_manager = PowerStateManager(
                self.sim,
                nodes=[],
                config=self.config.power_manager,
                energy_meter=energy_meter,
            )

    def on_fail(self) -> None:
        # The coordination session is simply no longer refreshed; it will
        # expire on its own, removing the ephemeral election node (and the
        # leadership, if held).  Heartbeats stop because timers are stopped.
        self.is_leader = False
        if self._gl_heartbeat_timer is not None:
            self._gl_heartbeat_timer.stop()
            self._gl_heartbeat_timer = None
        if self.power_manager is not None:
            self.power_manager.stop()
            self.power_manager = None
        for record in self.local_controllers.values():
            self.discard_timeout(record["timeout"])
        self.local_controllers.clear()
        self._reports.clear()
        self.plane.clear()
        self._summary_cache = None
        for timeout in self._gm_timeouts.values():
            self.discard_timeout(timeout)
        self._gm_timeouts.clear()
        self.gm_summaries.clear()
        self.known_gms.clear()
        self.multicast.group(GL_HEARTBEAT_GROUP).unsubscribe(self.name)

    # --------------------------------------------------------------- election
    def _become_leader(self) -> None:
        """Switch to Group Leader mode (paper Section II.E: 'switches to GL mode')."""
        self.is_leader = True
        self.current_gl = self.name
        self.log_event("elected_group_leader")
        if self.tracer is not None:
            self.tracer.instant("elected_group_leader", self.name)
        if self.name not in self.gm_summaries:
            self.gm_summaries[self.name] = self._own_summary()
        if self._gl_heartbeat_timer is None:
            self._gl_heartbeat_timer = self.add_timer(
                self.config.gl_heartbeat_interval, self._gl_heartbeat_tick, start_immediately=True
            )

    def _leader_changed(self, leader: str) -> None:
        leader_changed = leader != self.current_gl
        self.current_gl = leader
        if leader_changed and leader != self.name and not self.is_leader:
            self._announce_to_leader(leader)

    def _announce_to_leader(self, leader: str) -> None:
        """Immediately introduce this GM (heartbeat + summary) to a newly discovered leader.

        Without this, a freshly elected Group Leader would not know which GMs
        exist until their next periodic heartbeat, and would assign every
        joining LC to itself in the meantime.
        """
        self.network.send(
            Message(
                msg_type=MessageType.GM_HEARTBEAT,
                sender=self.name,
                recipient=leader,
                payload={"gm": self.name},
            ),
            size_bytes=128,
        )
        self.network.send(
            Message(
                msg_type=MessageType.GM_SUMMARY,
                sender=self.name,
                recipient=leader,
                payload=self._build_summary().to_payload(),
            ),
            size_bytes=512,
        )

    # -------------------------------------------------------------- heartbeats
    def _heartbeat_tick(self) -> None:
        """GM heartbeat: keep the election session alive, announce to LCs and the GL."""
        if self.election is not None:
            self.election.keep_alive()
        # Heartbeat to this GM's Local Controllers: the leased ones have their
        # detector re-armed to the arrival instead of a delivery.
        self.multicast.group(gm_heartbeat_group(self.name)).publish(
            self.name, MessageType.GM_HEARTBEAT, payload={"gm": self.name}, leases=self.leases
        )
        # Heartbeat to the Group Leader (unless we are the leader).
        if not self.is_leader and self.current_gl is not None:
            self.network.send(
                Message(
                    msg_type=MessageType.GM_HEARTBEAT,
                    sender=self.name,
                    recipient=self.current_gl,
                    payload={"gm": self.name},
                ),
                size_bytes=128,
            )

    def _gl_heartbeat_tick(self) -> None:
        """GL heartbeat: announce leadership to GMs, LCs and Entry Points."""
        if not self.is_leader:
            return
        self.multicast.group(GL_HEARTBEAT_GROUP).publish(
            self.name, MessageType.GL_HEARTBEAT, payload={"gl": self.name}
        )

    # --------------------------------------------------------------- messages
    def handle_message(self, message: Message) -> None:
        if message.msg_type is MessageType.LC_HEARTBEAT:
            self._on_lc_heartbeat(message)
        elif message.msg_type is MessageType.LC_MONITORING:
            self._on_lc_monitoring(message)
        elif message.msg_type is MessageType.OVERLOAD_EVENT:
            self._on_overload(message)
        elif message.msg_type is MessageType.UNDERLOAD_EVENT:
            self._on_underload(message)
        elif message.msg_type is MessageType.GL_HEARTBEAT:
            self._on_gl_heartbeat(message)
        elif message.msg_type is MessageType.GM_HEARTBEAT:
            self._on_gm_heartbeat(message)
        elif message.msg_type is MessageType.GM_SUMMARY:
            self._on_gm_summary(message)

    def _on_gl_heartbeat(self, message: Message) -> None:
        leader = message.payload.get("gl") if message.payload else message.sender
        if leader != self.name:
            leader_changed = leader != self.current_gl
            self.current_gl = leader
            if leader_changed and not self.is_leader:
                self._announce_to_leader(leader)
            if self.is_leader:
                # Another leader exists (e.g. we were partitioned and a new one
                # was elected).  Defer to the election outcome: if our election
                # node is gone, step down.
                if self.election is None or not self.election.is_leader:
                    self._step_down()

    def _step_down(self) -> None:
        self.is_leader = False
        if self._gl_heartbeat_timer is not None:
            self._gl_heartbeat_timer.stop()
            self._gl_heartbeat_timer = None
        for timeout in self._gm_timeouts.values():
            self.discard_timeout(timeout)
        self._gm_timeouts.clear()
        self.gm_summaries.clear()
        self.known_gms.clear()
        self.log_event("stepped_down_as_leader")

    # ----------------------------------------------------- GL: GM supervision
    def _on_gm_heartbeat(self, message: Message) -> None:
        if not self.is_leader:
            return
        gm_name = message.payload.get("gm", message.sender)
        self.known_gms.add(gm_name)
        if gm_name not in self._gm_timeouts:
            self._gm_timeouts[gm_name] = self.add_deadline(
                self._gm_deadlines, self.config.heartbeat_timeout, self._gm_failed, gm_name
            )
        else:
            self._gm_timeouts[gm_name].restart()

    def _gm_failed(self, gm_name: str) -> None:
        """A managed GM stopped heart-beating: remove it from dispatching (Section II.E)."""
        if not self.is_leader:
            return
        self.gm_summaries.pop(gm_name, None)
        self.known_gms.discard(gm_name)
        timeout = self._gm_timeouts.pop(gm_name, None)
        if timeout is not None:
            self.discard_timeout(timeout)
        self.log_event("gm_removed", gm=gm_name)
        if self.tracer is not None:
            self.tracer.instant("gm_failure_detected", self.name, gm=gm_name)

    def _on_gm_summary(self, message: Message) -> None:
        if not self.is_leader:
            return
        summary = GroupManagerSummary.from_payload(message.payload)
        self.gm_summaries[summary.gm_id] = summary
        self.known_gms.add(summary.gm_id)

    # --------------------------------------------------------- LC supervision
    def _op_join_lc(self, lc_name: str, node_id: str) -> dict:
        """An LC joins this GM (Section II.D, last step of LC self-organization)."""
        registry: Dict[str, PhysicalNode] = self.sim.get_service(NODE_REGISTRY_SERVICE)
        node = registry.get(node_id)
        if node is None:
            return {"joined": False, "reason": f"unknown node {node_id}"}
        config = self.config
        if lc_name in self.local_controllers:
            timeout = self.local_controllers[lc_name]["timeout"]
            timeout.restart()
        else:
            timeout = self.add_deadline(
                self._lc_deadlines, config.heartbeat_timeout, self._lc_failed, lc_name
            )
            self.local_controllers[lc_name] = {"node": node, "timeout": timeout}
            self._reports.add(lc_name, node)
            self.plane.add(lc_name, node)
            self._summary_cache = None
            if self.power_manager is not None:
                self.power_manager.nodes.append(node)
            self.log_event("lc_joined_gm", lc=lc_name, node=node_id)
        # The LC's heartbeats then re-arm this detector instead of arriving.
        self.leases.grant(
            self.name, lc_name, timeout, config.heartbeat_timeout, config.lc_heartbeat_interval
        )
        return {"joined": True, "gm": self.name}

    def _lc_failed(self, lc_name: str) -> None:
        """An LC stopped heart-beating: invalidate its contact information (Section II.E)."""
        record = self.local_controllers.pop(lc_name, None)
        if record is None:
            return
        self._reports.remove(lc_name)
        self.plane.remove(lc_name)
        self._summary_cache = None
        self.discard_timeout(record["timeout"])
        if self.power_manager is not None and record["node"] in self.power_manager.nodes:
            self.power_manager.nodes.remove(record["node"])
        self.log_event("lc_removed", lc=lc_name)
        if self.tracer is not None:
            self.tracer.instant("lc_failure_detected", self.name, lc=lc_name)

    def _on_lc_heartbeat(self, message: Message) -> None:
        record = self.local_controllers.get(message.sender)
        if record is not None:
            record["timeout"].restart()

    def _on_lc_monitoring(self, message: Message) -> None:
        # One message carries the report rows of one LC (jittery network) or
        # of every LC of a tick group (a frame); senders this GM no longer
        # manages are skipped.
        self._reports.store(*message.payload)

    # ------------------------------------------------------------ GM: summary
    def managed_nodes(self) -> List[PhysicalNode]:
        """The physical nodes of this GM's joined Local Controllers (join order).

        The list is the decision plane's resident join-ordered list -- no
        per-event rebuild; callers must not mutate it.
        """
        return self.plane.nodes_in_join_order()

    def _build_summary(self) -> GroupManagerSummary:
        summary = self._reports.summarize(self.name, self.sim.now)
        self.summary_rebuilds += 1
        self._summary_cache = summary
        return summary

    def _own_summary(self) -> GroupManagerSummary:
        """This GM's summary, reusing the last build when still valid.

        The cache is refreshed by every :meth:`_build_summary` call (summary
        ticks, leader announcements) and invalidated on LC join/removal, so a
        burst of dispatched submissions reads one summary instead of
        re-aggregating every LC record per submission.
        """
        if self._summary_cache is None:
            return self._build_summary()
        return self._summary_cache

    def _summary_tick(self) -> None:
        summary = self._build_summary()
        if self.is_leader:
            self.gm_summaries[self.name] = summary
        elif self.current_gl is not None:
            self.network.send(
                Message(
                    msg_type=MessageType.GM_SUMMARY,
                    sender=self.name,
                    recipient=self.current_gl,
                    payload=summary.to_payload(),
                ),
                size_bytes=512,
            )

    # --------------------------------------------------- GL: LC assignment
    def _op_assign_lc(self, lc_name: str) -> dict:
        """Assign a joining LC to a GM via the registered ``assignment`` policy (Section II.D)."""
        if not self.is_leader:
            return {"gm": None, "reason": "not the group leader"}
        known_gms = sorted(self.known_gms | set(self.gm_summaries) | {self.name})
        return {"gm": self.assignment_policy.choose(known_gms)}

    # -------------------------------------------------- GL: VM dispatching
    def _op_submit_vm(self, vm: VirtualMachine) -> Event:
        """Dispatch a submitted VM to a GM (candidate list + linear search, Section II.C)."""
        reply = self.sim.event()
        ctx = None
        if self.tracer is not None:
            span = self.tracer.begin("vm_dispatch", self.name, vm=vm.vm_id)
            self.tracer.end_on(span, reply)
            ctx = span.ctx
        if not self.is_leader:
            self.sim.trigger(reply, {"placed": False, "reason": "not the group leader"})
            return reply
        self.submissions_dispatched += 1
        summaries = dict(self.gm_summaries)
        if self.name not in summaries:
            # ``setdefault`` would rebuild the summary eagerly per submission
            # only to discard it; the cached one serves the rare miss.
            summaries[self.name] = self._own_summary()
        decision = self.dispatching_policy.decide(vm.requested, summaries)
        if decision.empty:
            self.sim.trigger(
                reply, {"placed": False, "reason": decision.reason or "no group managers"}
            )
            return reply
        self._probe_candidates(vm, decision.candidates, 0, reply, ctx)
        return reply

    def _probe_candidates(
        self, vm: VirtualMachine, candidates: List[str], index: int, reply: Event, ctx=None
    ) -> None:
        if index >= len(candidates):
            self.sim.trigger(reply, {"placed": False, "reason": "all group managers rejected the VM"})
            return
        gm_name = candidates[index]
        self.rpc.call(
            gm_name,
            "place_vm",
            kwargs={"vm": vm},
            on_reply=lambda result: self._on_probe_reply(vm, candidates, index, reply, result, ctx),
            on_error=lambda _err: self._probe_candidates(vm, candidates, index + 1, reply, ctx),
            on_timeout=lambda: self._probe_candidates(vm, candidates, index + 1, reply, ctx),
            timeout=PLACEMENT_TIMEOUT,
            trace_ctx=ctx,
        )

    def _on_probe_reply(
        self, vm: VirtualMachine, candidates: List[str], index: int, reply: Event, result, ctx=None
    ) -> None:
        if isinstance(result, dict) and result.get("placed"):
            result = dict(result)
            result.setdefault("gm", candidates[index])
            self.sim.trigger(reply, result)
        else:
            self._probe_candidates(vm, candidates, index + 1, reply, ctx)

    # ------------------------------------------------------- GM: VM placement
    def _op_place_vm(self, vm: VirtualMachine) -> Event:
        """Place a VM on one of this GM's Local Controllers (Section II.C)."""
        reply = self.sim.event()
        ctx = None
        if self.tracer is not None:
            span = self.tracer.begin("vm_placement", self.name, vm=vm.vm_id)
            self.tracer.end_on(span, reply)
            ctx = span.ctx
        self._attempt_placement(vm, reply, allow_wakeup=True, ctx=ctx)
        return reply

    def _attempt_placement(
        self,
        vm: VirtualMachine,
        reply: Event,
        allow_wakeup: bool,
        exclude: Optional[set] = None,
        ctx=None,
    ) -> None:
        exclude = exclude or set()
        # Resident arrays instead of a per-attempt ``ClusterView.from_nodes``
        # rebuild; excluded LCs are masked unplaceable, which yields the same
        # feasible set (and thus the same decision) as omitting their rows.
        view = self.plane.view(exclude_lcs=exclude)
        decision = self.placement_policy.decide(vm, view)
        chosen = view.node_by_id(decision.node_id) if decision.placed else None
        if chosen is None:
            # Not enough powered-on capacity: wake a suspended host (Section III)
            # and retry when it is up, once.
            if allow_wakeup and self.power_manager is not None:
                woken = self.power_manager.wake_one(
                    on_ready=lambda _node: self._attempt_placement(
                        vm, reply, allow_wakeup=True, exclude=exclude, ctx=ctx
                    )
                )
                if woken:
                    return
            self.sim.trigger(reply, {"placed": False, "reason": "no local controller fits the VM"})
            return
        lc_name = self._lc_of_node(chosen)
        if lc_name is None:
            self.sim.trigger(reply, {"placed": False, "reason": "chosen node has no local controller"})
            return
        self.rpc.call(
            lc_name,
            "start_vm",
            kwargs={"vm": vm},
            on_reply=lambda result: self._on_start_reply(vm, lc_name, reply, result, exclude, ctx),
            on_error=lambda _err: self._retry_placement(vm, reply, exclude, lc_name, ctx),
            on_timeout=lambda: self._retry_placement(vm, reply, exclude, lc_name, ctx),
            trace_ctx=ctx,
        )

    def _on_start_reply(
        self, vm: VirtualMachine, lc_name: str, reply: Event, result, exclude: set, ctx=None
    ) -> None:
        if isinstance(result, dict) and result.get("accepted"):
            self.sim.trigger(
                reply,
                {"placed": True, "gm": self.name, "lc": lc_name, "node_id": result.get("node_id")},
            )
        else:
            self._retry_placement(vm, reply, exclude, lc_name, ctx)

    def _retry_placement(
        self, vm: VirtualMachine, reply: Event, exclude: set, failed_lc: str, ctx=None
    ) -> None:
        # The rejected LC is excluded; wake-ups stay allowed so a burst of
        # submissions larger than the powered-on capacity fans out over
        # additional hosts (each failed attempt wakes at most one more host,
        # and the suspended pool is finite, so this terminates).
        exclude = set(exclude) | {failed_lc}
        self._attempt_placement(vm, reply, allow_wakeup=True, exclude=exclude, ctx=ctx)

    def _lc_of_node(self, node: PhysicalNode) -> Optional[str]:
        """The LC managing ``node`` via the plane's resident index (was an O(n) scan)."""
        return self.plane.lc_of(node)

    # --------------------------------------------------------- GM: relocation
    def _on_overload(self, message: Message) -> None:
        self._on_anomaly(message, self.overload_policy, "overload")

    def _on_underload(self, message: Message) -> None:
        self._on_anomaly(message, self.underload_policy, "underload")

    def _on_anomaly(self, message: Message, policy, reason: str) -> None:
        """Shared overload/underload handling: decide moves and execute them."""
        if not self.config.relocation_enabled:
            return
        record = self.local_controllers.get(message.sender)
        if record is None:
            return
        source: PhysicalNode = record["node"]
        if self.tracer is None:
            decision = policy.decide(source, self.managed_nodes())
            self._execute_moves(decision.moves, reason=reason)
            return
        with self.tracer.span(f"{reason}_relocation", self.name, node=source.node_id):
            decision = policy.decide(source, self.managed_nodes())
            self._execute_moves(decision.moves, reason=reason)

    def _execute_moves(self, moves, reason: str) -> int:
        """Send migrate commands to the source LCs for each planned move."""
        executed = 0
        for vm, source, destination in moves:
            source_lc = self._lc_of_node(source)
            if source_lc is None:
                continue
            self.rpc.call(
                source_lc,
                "migrate_vm",
                kwargs={"vm_id": vm.vm_id, "destination_node_id": destination.node_id},
            )
            executed += 1
        if executed:
            self.log_event("relocation", reason=reason, migrations=executed)
        return executed

    # ---------------------------------------------------- GM: reconfiguration
    def _reconfiguration_tick(self) -> None:
        """Periodic consolidation of this GM's moderately loaded hosts (Section II.C)."""
        if self.tracer is None:
            self._run_reconfiguration()
            return
        # ACO cycle phases as nested spans: the cycle root, the planning phase
        # and (when the plan is non-empty) the execution phase with the
        # migrate RPCs causally attached via the active context.
        with self.tracer.span("reconfiguration_cycle", self.name):
            self._run_reconfiguration()

    def _run_reconfiguration(self) -> None:
        nodes = self.managed_nodes()
        if len(nodes) < 2:
            return
        view = self.plane.join_order_view()
        tracer = self.tracer
        if tracer is None:
            plan = self.reconfiguration_policy.plan(view)
        else:
            with tracer.span("reconfiguration_plan", self.name, nodes=len(nodes)):
                plan = self.reconfiguration_policy.plan(view)
        self.reconfiguration_rounds += 1
        if self.sim.has_service(EnergyMeter.SERVICE_NAME):
            runtime = plan.consolidation_summary.get("runtime_seconds", 0.0)
            self.sim.get_service(EnergyMeter.SERVICE_NAME).charge_computation_runtime(runtime)
        if plan.empty:
            return
        if tracer is None:
            executed = self._execute_moves(plan.moves, reason="reconfiguration")
        else:
            with tracer.span("reconfiguration_execute", self.name, moves=len(plan.moves)):
                executed = self._execute_moves(plan.moves, reason="reconfiguration")
        self.log_event(
            "reconfiguration",
            migrations=executed,
            hosts_before=plan.hosts_before,
            hosts_after=plan.hosts_after,
        )
