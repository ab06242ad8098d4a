"""Message types exchanged by Snooze components.

Messages carry a :class:`MessageType` tag so receiving components can route
them without inspecting payload structure.  The set of types mirrors the
interactions described in Section II of the paper: heartbeats at every level,
monitoring summaries flowing upward, management commands flowing downward, and
the client-facing VM submission path (Entry Point -> Group Leader -> Group
Manager -> Local Controller).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Optional


class MessageType(enum.Enum):
    """Tags for every message exchanged in the Snooze hierarchy."""

    # Heartbeats (paper Section II.D: multicast heartbeat protocols at all levels).
    GL_HEARTBEAT = "gl_heartbeat"
    GM_HEARTBEAT = "gm_heartbeat"
    LC_HEARTBEAT = "lc_heartbeat"

    # Join / self-organization.
    GM_JOIN_REQUEST = "gm_join_request"
    GM_JOIN_ACK = "gm_join_ack"
    LC_ASSIGNMENT_REQUEST = "lc_assignment_request"
    LC_ASSIGNMENT_REPLY = "lc_assignment_reply"
    LC_JOIN_REQUEST = "lc_join_request"
    LC_JOIN_ACK = "lc_join_ack"

    # Monitoring (Section II.B).
    LC_MONITORING = "lc_monitoring"
    GM_SUMMARY = "gm_summary"

    # VM life cycle / client path (Section II.C).
    VM_SUBMIT = "vm_submit"
    VM_SUBMIT_REPLY = "vm_submit_reply"
    VM_DISPATCH = "vm_dispatch"
    VM_PLACEMENT_REQUEST = "vm_placement_request"
    VM_PLACEMENT_REPLY = "vm_placement_reply"
    VM_START = "vm_start"
    VM_START_ACK = "vm_start_ack"
    VM_TERMINATE = "vm_terminate"
    VM_MIGRATE = "vm_migrate"
    VM_MIGRATE_DONE = "vm_migrate_done"

    # Anomaly events (Section II.C: overload / underload relocation).
    OVERLOAD_EVENT = "overload_event"
    UNDERLOAD_EVENT = "underload_event"

    # Energy management (Section III).
    SUSPEND_HOST = "suspend_host"
    WAKEUP_HOST = "wakeup_host"
    HOST_POWER_STATE = "host_power_state"

    # Entry point discovery (client layer).
    GL_DISCOVER = "gl_discover"
    GL_DISCOVER_REPLY = "gl_discover_reply"

    # Generic RPC plumbing.
    RPC_REQUEST = "rpc_request"
    RPC_REPLY = "rpc_reply"


_message_counter = itertools.count()


@dataclass(slots=True)
class Message:
    """An addressed, typed payload travelling through the simulated network.

    ``slots=True``: hundreds of thousands of messages exist per simulated
    minute at fleet scale, so the per-instance ``__dict__`` is worth dropping.
    """

    msg_type: MessageType
    sender: str
    recipient: str
    payload: Any = None
    #: Correlation id for request/response matching (set by the RPC layer).
    correlation_id: Optional[int] = None
    #: Unique id assigned at construction (useful for tracing/debugging).
    msg_id: int = field(default_factory=lambda: next(_message_counter))
    #: Simulated send time, stamped by the transport.
    sent_at: Optional[float] = None
    #: Simulated delivery time, stamped by the transport.
    delivered_at: Optional[float] = None
    #: Causal trace context ``(trace_id, span_id)``.  Stamped by the transport
    #: from the tracer's active context when tracing is enabled (or set
    #: explicitly, e.g. by the RPC layer); the transport re-activates it
    #: around delivery so receiving handlers inherit the sender's causality.
    trace_ctx: Optional[tuple] = None
    #: Number of same-instant unicast messages this one stands for: a *frame*
    #: (see ``Network.send_frame``) carries many senders' payload rows to one
    #: recipient and is accounted in every counter as that many messages.
    count: int = 1

    def reply(self, msg_type: MessageType, payload: Any = None) -> "Message":
        """Build a response addressed back to the sender, preserving correlation."""
        return Message(
            msg_type=msg_type,
            sender=self.recipient,
            recipient=self.sender,
            payload=payload,
            correlation_id=self.correlation_id,
        )

    def __repr__(self) -> str:
        return (
            f"<Message #{self.msg_id} {self.msg_type.value} {self.sender} -> {self.recipient}>"
        )
