"""Multicast groups for heartbeat dissemination.

The paper: "To support failure detection and self-organization, multicast-
based heartbeat protocols are implemented at all levels of the hierarchy."
A :class:`MulticastGroup` fans one published message out to every current
subscriber through the unicast transport, so per-subscriber latency, loss and
disconnection still apply (a crashed listener simply stops receiving).

Snooze uses two well-known groups: the Group Leader heartbeat group (joined by
Group Managers, Entry Points and Local Controllers, which read it while they
look for a Group Manager) and one heartbeat group per Group Manager (joined by
its Local Controllers).  Two kinds of member need not hear a heartbeat to
observe it, yet keep their fan-out slot, so every member's message still makes
its loss and jitter draws in subscriber order and is still counted:

* a *paused* member (an assigned Local Controller on the Group Leader
  channel) has its arrivals latched: it reads its latest one when it looks
  for a Group Manager again (:meth:`MulticastGroup.last_delivered`), and
  resuming delivers those still in flight;
* a member whose failure detector the publisher holds a heartbeat lease on
  (:class:`~repro.network.fanout.LeaseSet`) has it re-armed instead.

A publish is one send of the heartbeat fan-out the Local Controller fleet
also uses (:class:`~repro.network.fanout.FanOut`); the group keeps the latch.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Tuple

from repro.network.fanout import FanOut
from repro.network.message import MessageType
from repro.network.transport import Absorbed, Endpoint, Network


class MulticastGroup:
    """A named publish/subscribe channel built on the unicast transport."""

    def __init__(self, network: Network, group_name: str) -> None:
        self.network = network
        self.group_name = group_name
        #: Subscription order drives fan-out order (and therefore draw and
        #: delivery order), so the list is authoritative; the set exists
        #: purely for O(1) membership at fleet scale.
        self._subscribers: List[str] = []
        self._subscriber_set: set = set()
        self._publish_metric = None
        #: Paused member -> its endpoint.
        self._paused: Dict[str, Endpoint] = {}
        #: Moves on every (un)subscribe, pause and resume; with the sender
        #: and the lease epoch it keys the plan of :attr:`_fan_out`.
        self._version = 0
        self._fan_out = FanOut(network)
        #: The latch: absorbed records of paused members' publishes with a
        #: message still in flight, in publish order, and per paused member
        #: ``(arrival, sender, payload)`` of its latest arrival among the rest.
        self._latched: List[Absorbed] = []
        self._arrived: Dict[str, tuple] = {}
        #: The latest arrival folded into ``_arrived`` so far.
        self._folded_to = -math.inf

    # ---------------------------------------------------------- subscription
    def subscribe(self, endpoint_name: str) -> None:
        """Add an endpoint to the group (idempotent)."""
        if endpoint_name not in self._subscriber_set:
            self._subscriber_set.add(endpoint_name)
            self._subscribers.append(endpoint_name)
            self._version += 1

    def unsubscribe(self, endpoint_name: str) -> None:
        """Remove an endpoint from the group (idempotent); a paused one resumes first."""
        if endpoint_name in self._subscriber_set:
            self.resume(endpoint_name)
            self._subscriber_set.discard(endpoint_name)
            self._subscribers.remove(endpoint_name)
            self._version += 1

    # --------------------------------------------------------- paused members
    def pause(self, endpoint_name: str) -> None:
        """Latch a member's publishes instead of delivering them, keeping its fan-out slot.

        The steady state of a deployment is Local Controllers subscribed to a
        Group Leader channel they only consult while looking for a Group
        Manager: pausing them removes the deliveries from the per-heartbeat
        hot path without changing what any component ever reads.  The
        member's messages are still drawn, in the order an uninterrupted
        subscription would draw them, and counted.
        """
        endpoint = self.network.endpoint(endpoint_name)
        if (
            endpoint is not None
            and endpoint_name in self._subscriber_set
            and endpoint_name not in self._paused
        ):
            self._paused[endpoint_name] = endpoint
            self._arrived.pop(endpoint_name, None)
            self._version += 1

    def resume(self, endpoint_name: str) -> None:
        """Deliver to a paused member again (idempotent).

        Latched publishes still in flight are delivered at their arrival
        times, as they would have been.
        """
        if self._paused.pop(endpoint_name, None) is not None:
            self._version += 1
            self._arrived.pop(endpoint_name, None)
            for record in self._latched:
                self.network.redeliver(record, endpoint_name)

    def is_paused(self, endpoint_name: str) -> bool:
        """True if the member is subscribed but currently paused."""
        return endpoint_name in self._paused

    def last_delivered(self, endpoint_name: str, now: float) -> Optional[Tuple[str, Any]]:
        """``(sender, payload)`` of the paused member's latest latched publish arrived by ``now``.

        That is the publish whose message the member would have processed
        last (deliveries run at high priority, so one arriving exactly at
        ``now`` precedes any timer or deadline event at ``now``).  Returns
        None when nothing has arrived since the member paused.
        """
        self._fold(now)
        best = self._arrived.get(endpoint_name)
        for record in self._latched:
            for member, arrival, sender, payload in record.messages():
                if member == endpoint_name and arrival <= now:
                    if best is None or arrival >= best[0]:
                        best = (arrival, sender, payload)
        return None if best is None else best[1:]

    def _fold(self, now: float) -> None:
        """Move latched records whose messages have all arrived into ``_arrived``."""
        latched, arrived = self._latched, self._arrived
        while latched and latched[0].last <= now:
            record = latched.pop(0)
            if record.arrivals and min(record.arrivals) >= self._folded_to:
                # Later than everything folded before: every arrival is its
                # member's latest.
                arrived.update(
                    zip(record.recipients, zip(record.arrivals, record.senders, record.payloads))
                )
            else:
                for member, arrival, sender, payload in record.messages():
                    latest = arrived.get(member)
                    if latest is None or arrival >= latest[0]:
                        arrived[member] = (arrival, sender, payload)
            self._folded_to = max(self._folded_to, record.last)

    def __contains__(self, endpoint_name: str) -> bool:
        return endpoint_name in self._subscriber_set

    def __len__(self) -> int:
        return len(self._subscribers)

    # ---------------------------------------------------------------- publish
    def _rows(self, sender: str, leases) -> List[tuple]:
        """The :class:`~repro.network.fanout.FanOut` rows of a publish: every other subscriber."""
        endpoint = self.network.endpoint(sender) or Endpoint(sender, None)
        paused = self._paused
        return [
            (endpoint, member, None, leases and leases.get(member, sender),
             member in paused and paused[member].connected)
            for member in self._subscribers
            if member != sender
        ]

    def publish(
        self,
        sender: str,
        msg_type: MessageType,
        payload=None,
        size_bytes: int = 256,
        leases=None,
    ) -> int:
        """Send ``payload`` to every subscriber except the sender; returns the fan-out size.

        Members are the fan-out's rows in subscriber order; ``leases`` (a
        :class:`~repro.network.fanout.LeaseSet`) holds those whose detector
        ``sender`` may re-arm instead of delivering.
        """
        network = self.network
        if self._publish_metric is None:
            obs = network.obs
            if obs is not None and obs.registry is not None:
                self._publish_metric = obs.registry.counter(
                    "multicast_publishes_total",
                    help="Publish calls per multicast group.",
                ).labels(group=self.group_name)
        if self._publish_metric is not None:
            self._publish_metric.inc()
        fan_out = self._fan_out
        key = (sender, self._version, None if leases is None else leases.epoch)
        fan_out.plan(key, self._rows, sender, leases)
        self._fold(network.sim.now)
        latched = fan_out.send(msg_type, size_bytes, payload)
        if latched is not None:
            self._latched.append(latched)
        return len(fan_out.rows)

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
