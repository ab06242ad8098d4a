"""Multicast groups for heartbeat dissemination.

The paper: "To support failure detection and self-organization, multicast-
based heartbeat protocols are implemented at all levels of the hierarchy."
A :class:`MulticastGroup` fans one published message out to every current
subscriber through the unicast transport, so per-subscriber latency, loss and
disconnection still apply (a crashed listener simply stops receiving).

Snooze uses two well-known groups: the Group Leader heartbeat group (joined by
Group Managers, Entry Points and unassigned Local Controllers waiting to
discover the leader) and one heartbeat group per Group Manager (joined by its
Local Controllers).  On a deterministic network a GM heartbeat's only effect
is restarting a failure detector, so leased LCs do not join their GM's group
at all (see :class:`~repro.hierarchy.common.LeaseSet`); pausing here only
spares assigned LCs the Group Leader fan-out they read while rejoining.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, List, Optional, Tuple

from repro.network.message import Message, MessageType
from repro.network.transport import Network


class MulticastGroup:
    """A named publish/subscribe channel built on the unicast transport."""

    def __init__(self, network: Network, group_name: str) -> None:
        self.network = network
        self.group_name = group_name
        #: Subscription order drives fan-out order (and therefore delivery
        #: order among same-instant sends), so the list is authoritative; the
        #: set exists purely for O(1) membership at fleet scale.
        self._subscribers: List[str] = []
        self._subscriber_set: set = set()
        #: Number of publish calls (for overhead accounting).
        self.publish_count = 0
        self._publish_metric = None
        #: Members with delivery paused (see :meth:`pause`); they keep their
        #: slot in ``_subscribers`` so resuming restores the exact fan-out
        #: order a continuously subscribed member would have had.
        self._paused: set = set()
        #: Recent publishes ``(time, sender, payload)`` -- the latch a paused
        #: member reads to observe exactly what a delivery would have told it.
        self._latch: deque = deque(maxlen=8)

    # ---------------------------------------------------------- subscription
    def subscribe(self, endpoint_name: str) -> None:
        """Add an endpoint to the group (idempotent)."""
        if endpoint_name not in self._subscriber_set:
            self._subscriber_set.add(endpoint_name)
            self._subscribers.append(endpoint_name)

    def unsubscribe(self, endpoint_name: str) -> None:
        """Remove an endpoint from the group (idempotent)."""
        if endpoint_name in self._subscriber_set:
            self._subscriber_set.discard(endpoint_name)
            self._subscribers.remove(endpoint_name)
            self._paused.discard(endpoint_name)

    # --------------------------------------------------------- paused members
    def pause(self, endpoint_name: str) -> None:
        """Stop delivering to a member without giving up its fan-out slot.

        A paused member stays in the subscriber list (so :meth:`resume`
        restores the exact same-instant delivery order an uninterrupted
        subscription would have produced) but receives no messages; it can
        observe missed publishes through :meth:`last_delivered`.  The steady
        state of a fleet-scale deployment is thousands of Local Controllers
        subscribed to a Group Leader channel they only consult while
        *rejoining* -- pausing them removes that entire fan-out from the per-
        heartbeat hot path without changing what any component ever reads.
        """
        if endpoint_name in self._subscriber_set:
            self._paused.add(endpoint_name)

    def resume(self, endpoint_name: str) -> None:
        """Resume deliveries to a paused member (idempotent)."""
        self._paused.discard(endpoint_name)

    def is_paused(self, endpoint_name: str) -> bool:
        """True if the member is subscribed but currently paused."""
        return endpoint_name in self._paused

    def last_delivered(self, now: float, latency: float) -> Optional[Tuple[str, Any]]:
        """``(sender, payload)`` of the latest publish already delivered.

        "Delivered" means ``publish_time + latency <= now`` -- on a
        deterministic network that is precisely the publish whose message a
        subscribed member would have processed last (same-instant deliveries
        run at high priority, before any equal-time timer/deadline event).
        Returns None when nothing qualifies.
        """
        for time, sender, payload in reversed(self._latch):
            if time + latency <= now:
                return sender, payload
        return None

    @property
    def subscribers(self) -> List[str]:
        """Snapshot of current subscriber endpoint names."""
        return list(self._subscribers)

    def __contains__(self, endpoint_name: str) -> bool:
        return endpoint_name in self._subscriber_set

    def __len__(self) -> int:
        return len(self._subscribers)

    # ---------------------------------------------------------------- publish
    def publish(self, sender: str, msg_type: MessageType, payload=None, size_bytes: int = 256) -> int:
        """Send ``payload`` to every subscriber except the sender; returns fan-out size.

        On a deterministic network (no jitter/loss) the transport coalesces
        the whole fan-out into a single delivery event (see
        :attr:`~repro.network.transport.Network.deterministic`), so a
        heartbeat to thousands of Local Controllers costs one simulator event
        instead of one per subscriber.
        """
        self.publish_count += 1
        if self._publish_metric is None:
            obs = self.network.obs
            if obs is not None and obs.registry is not None:
                self._publish_metric = obs.registry.counter(
                    "multicast_publishes_total",
                    help="Publish calls per multicast group.",
                ).labels(group=self.group_name)
        if self._publish_metric is not None:
            self._publish_metric.inc()
        self._latch.append((self.network.sim.now, sender, payload))
        paused = self._paused
        if paused:
            messages = [
                Message(msg_type=msg_type, sender=sender, recipient=subscriber, payload=payload)
                for subscriber in self._subscribers
                if subscriber != sender and subscriber not in paused
            ]
        else:
            messages = [
                Message(msg_type=msg_type, sender=sender, recipient=subscriber, payload=payload)
                for subscriber in self._subscribers
                if subscriber != sender
            ]
        self.network.send_many(sender, messages, size_bytes=size_bytes)
        return len(messages)

    def __repr__(self) -> str:
        return f"<MulticastGroup {self.group_name} subscribers={len(self._subscribers)}>"


class MulticastRegistry:
    """Registry of named multicast groups shared by all components."""

    SERVICE_NAME = "multicast"

    def __init__(self, network: Network) -> None:
        self.network = network
        self._groups: Dict[str, MulticastGroup] = {}
        sim = network.sim
        if not sim.has_service(self.SERVICE_NAME):
            sim.register_service(self.SERVICE_NAME, self)

    def group(self, name: str) -> MulticastGroup:
        """Return the group ``name``, creating it on first use."""
        if name not in self._groups:
            self._groups[name] = MulticastGroup(self.network, name)
        return self._groups[name]

    def groups(self) -> Dict[str, MulticastGroup]:
        """All groups created so far."""
        return dict(self._groups)
