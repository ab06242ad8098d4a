"""Entry Points: the replicated client layer.

Paper Section II.A: "A client layer provides the user interface which is
implemented by a predefined number of replicated Entry Points (EPs) and
queried by the clients to discover the current GL."

An Entry Point subscribes to the Group Leader heartbeat group, remembers the
most recent leader and offers one RPC operation to clients, ``submit_vm``: it
forwards a VM submission to the current leader and relays the (deferred)
outcome back to the client, so clients never need to know which GM currently
leads.
"""

from __future__ import annotations

from typing import Optional

from repro.cluster.vm import VirtualMachine
from repro.hierarchy.common import PLACEMENT_TIMEOUT, Component
from repro.hierarchy.config import HierarchyConfig
from repro.hierarchy.local_controller import GL_HEARTBEAT_GROUP
from repro.metrics.recorder import EventLog
from repro.network.message import Message, MessageType
from repro.network.rpc import RPC_TIMEOUT
from repro.network.transport import Network
from repro.simulation.engine import Event, Simulator


class EntryPoint(Component):
    """One replicated Entry Point."""

    def __init__(
        self,
        name: str,
        sim: Simulator,
        network: Network,
        config: Optional[HierarchyConfig] = None,
        event_log: Optional[EventLog] = None,
    ) -> None:
        super().__init__(name, sim, network, event_log)
        self.config = config or HierarchyConfig()
        self.current_gl: Optional[str] = None
        self.forwarded_submissions = 0
        self.rpc.register_operation("submit_vm", self._op_submit_vm)

    def on_start(self) -> None:
        self.multicast.group(GL_HEARTBEAT_GROUP).subscribe(self.name)

    def on_fail(self) -> None:
        self.multicast.group(GL_HEARTBEAT_GROUP).unsubscribe(self.name)

    # --------------------------------------------------------------- messages
    def handle_message(self, message: Message) -> None:
        if message.msg_type is MessageType.GL_HEARTBEAT:
            leader = message.payload.get("gl") if message.payload else message.sender
            if leader != self.current_gl:
                self.log_event("leader_discovered", leader=leader)
            self.current_gl = leader

    # ------------------------------------------------------------------- RPC
    def _op_submit_vm(self, vm: VirtualMachine) -> Event:
        """Forward a VM submission to the current Group Leader."""
        reply = self.sim.event()
        if self.current_gl is None:
            self.sim.trigger(reply, {"placed": False, "reason": "no group leader known"})
            return reply
        self.forwarded_submissions += 1
        ctx = None
        if self.tracer is not None:
            span = self.tracer.begin("submit_forward", self.name, vm=vm.vm_id, gl=self.current_gl)
            self.tracer.end_on(span, reply)
            ctx = span.ctx
        self.rpc.call(
            self.current_gl,
            "submit_vm",
            kwargs={"vm": vm},
            trace_ctx=ctx,
            on_reply=lambda result: self.sim.trigger(reply, result),
            on_error=lambda error: self.sim.trigger(reply, {"placed": False, "reason": error}),
            on_timeout=lambda: self.sim.trigger(
                reply, {"placed": False, "reason": "group leader timeout"}
            ),
            timeout=PLACEMENT_TIMEOUT + 2 * RPC_TIMEOUT,
        )
        return reply
