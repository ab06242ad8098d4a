"""Simulated unicast transport with latency, jitter, loss and partitions.

Components register an :class:`Endpoint` (a named message handler).  Sending
schedules delivery after a sampled latency; disconnected endpoints silently
drop traffic, which is exactly how the failure-injection experiments model a
crashed Group Leader / Group Manager / Local Controller (the paper's Section
II.E failure scenarios are all "heartbeats are lost").

Loss and jitter samples come from the generator the :class:`Network` was
given, one uniform per decision (loss first, then jitter), in send order --
but the network *owns* that generator and draws from it a block ahead.  A
``Generator`` passed as ``Network(rng=...)`` must therefore not be shared
with another consumer (``SnoozeSystem`` hands it the dedicated ``"network"``
stream).  A delivery is one handle-less heap entry
(:meth:`~repro.simulation.engine.Simulator.post`), not an ``Event``.

Every message takes its draws through :meth:`Network.draw_latency`, whatever
happens to it next.  A publisher that knows a message's whole effect (a
heartbeat re-arming a leased failure detector, a paused multicast member's
latch) may then *absorb* it (:meth:`Network.absorb`) instead of delivering
it: the message is counted sent, and delivered or dropped, exactly as its
delivery would have been -- an absorbed message still in flight when its
recipient disconnects is turned back into a real delivery, and the failure
detector it re-armed gets its previous deadline back.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.network.message import Message
from repro.simulation.engine import Event, Simulator


@dataclass
class NetworkConfig:
    """Latency/loss characteristics of the simulated management network."""

    #: Mean one-way latency in seconds (LAN-scale by default).
    base_latency: float = 0.001
    #: Uniform jitter added on top of the base latency (seconds).
    jitter: float = 0.0005
    #: Probability that a message is silently dropped.
    loss_probability: float = 0.0

    def __post_init__(self) -> None:
        if self.base_latency < 0 or self.jitter < 0:
            raise ValueError("latency and jitter must be non-negative")
        if not (0.0 <= self.loss_probability < 1.0):
            raise ValueError("loss_probability must be in [0, 1)")


class Endpoint:
    """A registered network participant: a name plus a message handler."""

    def __init__(self, name: str, handler: Callable[[Message], None]) -> None:
        self.name = name
        self.handler = handler
        self.connected = True

    def __repr__(self) -> str:
        state = "up" if self.connected else "down"
        return f"<Endpoint {self.name} {state}>"


class Network:
    """The shared simulated network all hierarchy components attach to."""

    SERVICE_NAME = "network"
    #: Uniform samples drawn from :attr:`rng` per refill.
    DRAW_BLOCK = 1024

    def __init__(
        self,
        sim: Simulator,
        config: Optional[NetworkConfig] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.sim = sim
        self.config = config or NetworkConfig()
        #: Owned by the network (see the module header): read through :meth:`_draw`.
        self.rng = rng or np.random.default_rng(0)
        self._draws: List[float] = []
        self._draw_index = 0
        self._endpoints: Dict[str, Endpoint] = {}
        #: Moves whenever an endpoint is registered, removed, disconnected or
        #: reconnected.  Callers that cache per-endpoint connectivity (the LC
        #: fleet's report and heartbeat plans, the heartbeat lease set) rebuild when it
        #: differs from the value they cached under.
        self.connectivity_epoch = 0
        #: Aggregate counters used by the management-overhead experiment (E3/E8).
        self.messages_sent = 0
        self._delivered = 0
        self.messages_dropped = 0
        self.bytes_sent = 0
        #: Absorbed records (:meth:`absorb`), roughly in arrival order, kept
        #: until all their messages have arrived.
        self._absorbed: deque = deque()
        #: Same-instant deliveries of a :attr:`deterministic` network, coalesced
        #: into one simulator event.  Behaviour-neutral: batched messages
        #: arrive at the same simulated time, in the same order, as
        #: individually scheduled ones -- only the event count drops.
        self._open_batch: Optional[List[Message]] = None
        self._open_batch_time = -1.0
        self._open_batch_event: Optional[Event] = None
        #: Observability plane + tracer (None when the plane is not built).
        self.obs = None
        self._tracer = None
        if not sim.has_service(self.SERVICE_NAME):
            sim.register_service(self.SERVICE_NAME, self)
        if sim.has_service("observability"):
            self.use_observability(sim.get_service("observability"))

    @property
    def messages_delivered(self) -> int:
        """Messages delivered so far, absorbed ones included once they have arrived."""
        return self._delivered - self._in_flight()

    @property
    def deterministic(self) -> bool:
        """True when the network has neither jitter nor loss.

        Delivery time is then a pure function of send time and no message
        consumes a random draw, so every message sent in one instant arrives
        together: they share one delivery event here (and a frame,
        :meth:`send_frame`), and a heartbeat publisher whose leases can all
        apply re-arms their detectors in one array write.  Heartbeat leases
        and paused multicast members do not depend on it: with jitter or loss
        each absorbed message still makes its own draws.
        """
        config = self.config
        return config.jitter == 0 and config.loss_probability == 0

    def use_observability(self, plane) -> None:
        """Attach an observability plane.

        Tracing hooks the per-message path (context stamping / activation);
        metrics are mirrored through a registry *collector* that copies
        :meth:`stats` at exposition time, so the send/deliver hot path carries
        no metric writes at all.
        """
        self.obs = plane
        self._tracer = plane.tracer
        if plane.registry is not None:
            plane.watch_network(self)

    # -------------------------------------------------------------- endpoints
    def register(self, name: str, handler: Callable[[Message], None]) -> Endpoint:
        """Attach a named endpoint; re-registering a name replaces the handler.

        Re-registration is deliberate: a rejoining component (e.g. a Group
        Manager restarting after a failure) reuses its address.
        """
        endpoint = Endpoint(name, handler)
        self._endpoints[name] = endpoint
        self.connectivity_epoch += 1
        return endpoint

    def endpoint(self, name: str) -> Optional[Endpoint]:
        """Look up an endpoint by name."""
        return self._endpoints.get(name)

    # -------------------------------------------------------- failure control
    def disconnect(self, name: str) -> None:
        """Cut an endpoint off the network (crash injection): traffic to/from it is dropped."""
        endpoint = self._endpoints.get(name)
        if endpoint is not None:
            endpoint.connected = False
            self.connectivity_epoch += 1
            self._release_absorbed(name)

    def reconnect(self, name: str) -> None:
        """Restore a previously disconnected endpoint."""
        endpoint = self._endpoints.get(name)
        if endpoint is not None:
            endpoint.connected = True
            self.connectivity_epoch += 1

    # ------------------------------------------------------------------ send
    def _draw(self) -> float:
        """The next uniform [0, 1) sample of :attr:`rng`, drawn a block ahead."""
        index = self._draw_index
        if index == len(self._draws):
            self._draws = self.rng.random(self.DRAW_BLOCK).tolist()
            index = 0
        self._draw_index = index + 1
        return self._draws[index]

    def draw_latency(self) -> float:
        """One message's loss draw, then its jitter draw: its latency, or -1.0 if lost.

        The one draw-and-count step of every message (the caller has counted
        it sent): a lost message is counted dropped here.
        """
        config = self.config
        loss, jitter = config.loss_probability, config.jitter
        if loss > 0 and self._draw() < loss:
            self.messages_dropped += 1
            return -1.0
        if jitter == 0:
            return config.base_latency
        index = self._draw_index  # _draw(), inlined: every jittery message takes one
        if index == len(self._draws):
            self._draws = self.rng.random(self.DRAW_BLOCK).tolist()
            index = 0
        self._draw_index = index + 1
        return config.base_latency + jitter * self._draws[index]

    def dispatch(self, message: Message, latency: float) -> None:
        """Put a counted, drawn message on the wire, to arrive ``latency`` from now."""
        tracer = self._tracer
        if tracer is not None and message.trace_ctx is None:
            message.trace_ctx = tracer.current
        sim = self.sim
        message.sent_at = sim.now
        config = self.config
        if config.jitter == 0 and config.loss_probability == 0:
            self._enqueue((message,))
        else:
            sim.post(latency, self._deliver, message, Simulator.PRIORITY_HIGH)

    def send(
        self,
        message: Message,
        size_bytes: int = 512,
        sender: Optional[Endpoint] = None,
    ) -> bool:
        """Send a unicast message; returns False if it was dropped immediately.

        Immediate drops happen when the sender is disconnected or the message
        is lost; an existing-but-disconnected *recipient* is only discovered at
        delivery time (the sender cannot know), matching real UDP/TCP-on-LAN
        behaviour closely enough for the protocols involved.

        ``sender`` lets a component pass its own registered :class:`Endpoint`
        and skip the directory probe -- at fleet scale the directory holds
        thousands of entries and the per-send hash probe stops being
        cache-resident, so the highest-rate senders (heartbeats, monitoring
        reports) resolve themselves once at registration instead.
        """
        self.messages_sent += 1
        self.bytes_sent += int(size_bytes)
        tracer = self._tracer
        if tracer is not None and message.trace_ctx is None:
            message.trace_ctx = tracer.current
        if sender is None:
            sender = self._endpoints.get(message.sender)
        if sender is not None and not sender.connected:
            self.messages_dropped += 1
            return False
        latency = self.draw_latency()
        if latency < 0:
            return False
        self.dispatch(message, latency)
        return True

    def send_frame(
        self, message: Message, senders: Sequence[Endpoint], size_bytes: int = 512
    ) -> None:
        """Send one *frame*: ``len(senders)`` same-instant messages to one recipient.

        Only on a :attr:`deterministic` network, where those messages would
        share a delivery batch anyway: ``message`` (its payload holding one
        row per sender) is enqueued once and accounted -- in the transport and
        as one ``size_bytes`` message per sender; a recipient that is down at
        delivery drops the frame as a block.  Senders must be connected (a
        disconnected sender's message goes through :meth:`send`, which drops
        it).
        """
        if not self.deterministic:
            raise ValueError("frames need a deterministic network; send per message instead")
        n = len(senders)
        message.count = n
        self.messages_sent += n
        self.bytes_sent += int(size_bytes) * n
        tracer = self._tracer
        if tracer is not None and message.trace_ctx is None:
            message.trace_ctx = tracer.current
        message.sent_at = self.sim.now
        self._enqueue((message,))

    def _enqueue(self, messages: Sequence[Message]) -> None:
        """Append to this instant's delivery batch (deterministic network).

        Every message sent this instant arrives at the same time in send
        order, so one event carries them all.
        """
        now = self.sim.now
        if (
            self._open_batch is not None
            and self._open_batch_time == now
            and self._open_batch_event is not None
            and self._open_batch_event.pending
        ):
            self._open_batch.extend(messages)
            return
        batch: List[Message] = list(messages)
        self._open_batch = batch
        self._open_batch_time = now
        self._open_batch_event = self.sim.schedule(
            self.config.base_latency, self._deliver_batch, batch, priority=Simulator.PRIORITY_HIGH
        )

    def _deliver_batch(self, batch: List[Message]) -> None:
        # Batch-local recipient memo: a same-instant batch at fleet scale
        # carries thousands of messages to a few dozen recipients (every LC's
        # heartbeat to its GM, say), and each probe of the full endpoint
        # directory walks a dictionary too large to stay cache-resident.
        # Connectivity is still read per message from the endpoint object, so
        # a handler disconnecting an endpoint mid-batch drops the rest of its
        # traffic exactly as per-message resolution did.
        resolved: Dict[str, Optional[Endpoint]] = {}
        endpoints_get = self._endpoints.get
        resolved_get = resolved.get
        for message in batch:
            name = message.recipient
            recipient = resolved_get(name)
            if recipient is None and name not in resolved:
                recipient = endpoints_get(name)
                resolved[name] = recipient
            self._deliver(message, recipient)

    def _deliver(self, message: Message, recipient: Optional[Endpoint] = None) -> None:
        if recipient is None:
            recipient = self._endpoints.get(message.recipient)
        if recipient is None or not recipient.connected:
            self.messages_dropped += message.count
            return
        message.delivered_at = self.sim.now
        self._delivered += message.count
        tracer = self._tracer
        if tracer is None:
            recipient.handler(message)
            return
        # Activate the sender's causal context for the handler and restore it
        # afterwards, so batched same-instant deliveries cannot leak context
        # from one message's handler into the next.
        previous = tracer.activate(message.trace_ctx)
        try:
            recipient.handler(message)
        finally:
            tracer.restore(previous)

    # -------------------------------------------------------------- absorbed
    def absorb(
        self, recipients: Sequence[str], arrivals: Sequence[float], msg_type, senders: Sequence,
        payloads: Sequence, rearms: Optional[Sequence] = None,
    ) -> "Absorbed":
        """Account counted, drawn messages whose effect their publisher applied itself.

        One message per entry of the parallel columns; ``rearms`` are the
        columns ``(leases, deadlines, stamps)`` of leased heartbeats
        (:meth:`~repro.network.fanout.Lease.apply`).  A message
        counts as delivered once its arrival has passed; if its recipient
        disconnects before then, it becomes a real delivery at that arrival
        (dropped unless the recipient is back by then) and its re-arm is
        undone.  Returns the record :meth:`redeliver` takes; the columns are
        never changed in place.
        """
        self._settle()
        tracer = self._tracer
        record = Absorbed(
            recipients,
            arrivals,
            msg_type,
            senders,
            payloads,
            rearms,
            self.sim.now,
            None if tracer is None else tracer.current,
        )
        self._absorbed.append(record)
        self._delivered += len(recipients)
        return record

    def redeliver(self, record: "Absorbed", recipient: str) -> list:
        """Deliver ``recipient``'s absorbed messages of ``record`` after all, if still in flight.

        Returns the ``(lease, deadline, stamp, arrival)`` of every re-arm
        those messages made.
        """
        now = self.sim.now
        released = record.release(recipient, now) if record.last > now else []
        for message, arrival, _ in released:
            self._delivered -= 1
            self.sim.schedule_at(arrival, self._deliver, message, priority=Simulator.PRIORITY_HIGH)
        return [(*rearm, arrival) for _, arrival, rearm in released if rearm is not None]

    def _settle(self) -> None:
        """Forget the absorbed records whose messages have all arrived (counted delivered)."""
        now = self.sim.now
        absorbed = self._absorbed
        while absorbed and absorbed[0].last <= now:
            absorbed.popleft()

    def _in_flight(self) -> int:
        """Absorbed messages not yet arrived (counted delivered ahead of time)."""
        now = self.sim.now
        return sum(record.in_flight(now) for record in self._absorbed)

    def _release_absorbed(self, name: str) -> None:
        """``name`` went away: its absorbed messages in flight become real deliveries.

        The detectors their leases re-armed get their previous deadlines
        back, latest re-arm first: the dropped messages never restarted them.
        """
        self._settle()
        rearms = [rearm for record in self._absorbed for rearm in self.redeliver(record, name)]
        for lease, deadline, stamp, arrival in reversed(rearms):
            lease.restore(deadline, stamp, arrival)

    # ---------------------------------------------------------------- metrics
    def stats(self) -> dict:
        """Counters snapshot for reports."""
        return {
            "messages_sent": self.messages_sent,
            "messages_delivered": self.messages_delivered,
            "messages_dropped": self.messages_dropped,
            "bytes_sent": self.bytes_sent,
            "endpoints": len(self._endpoints),
        }


class Absorbed:
    """The absorbed messages of one publish (:meth:`Network.absorb`), one per recipient.

    Parallel columns -- ``recipients``, ``arrivals``, ``senders``,
    ``payloads`` and, for leased heartbeats, the ``rearms`` columns -- plus
    what every message of the publish shares: its type, send time and causal
    context.  A recipient may appear more than once (the LC fleet's tick
    absorbs many heartbeats to one Group Manager).
    """

    __slots__ = ("recipients", "arrivals", "msg_type", "senders", "payloads", "rearms",
                 "sent_at", "trace_ctx", "last")

    def __init__(self, recipients, arrivals, msg_type, senders, payloads, rearms, sent_at,
                 trace_ctx):
        self.recipients: Sequence[str] = recipients
        self.arrivals: Sequence[float] = arrivals
        self.msg_type = msg_type
        self.senders: Sequence = senders
        self.payloads: Sequence = payloads
        self.rearms: Optional[Sequence] = rearms
        self.sent_at: float = sent_at
        self.trace_ctx = trace_ctx
        #: The latest arrival: every message has arrived once it has passed.
        self.last: float = max(arrivals)

    def messages(self):
        """``(recipient, arrival, sender, payload)`` of every message, in absorb order."""
        return zip(self.recipients, self.arrivals, self.senders, self.payloads)

    def in_flight(self, now: float) -> int:
        """How many of the messages arrive after ``now``."""
        if self.last <= now:
            return 0
        return sum(1 for arrival in self.arrivals if arrival > now)

    def release(self, name: str, now: float) -> List[tuple]:
        """Take ``name``'s messages arriving after ``now`` out of the record.

        Returns each as ``(message, arrival, rearm)``: the message it stands
        for, with its send time and causal context, and the ``(lease,
        deadline, stamp)`` of its re-arm (None if it made none).
        """
        if name not in self.recipients:
            return []
        columns = (self.recipients, self.arrivals, self.senders, self.payloads,
                   *(self.rearms or ()))
        taken = {
            index
            for index, (recipient, arrival) in enumerate(zip(self.recipients, self.arrivals))
            if recipient == name and arrival > now
        }
        released = [
            (
                Message(self.msg_type, self.senders[index], name, self.payloads[index],
                        sent_at=self.sent_at, trace_ctx=self.trace_ctx),
                self.arrivals[index],
                tuple(column[index] for column in self.rearms) if self.rearms else None,
            )
            for index in sorted(taken)
        ]
        kept = [index for index in range(len(self.recipients)) if index not in taken]
        self.recipients, self.arrivals, self.senders, self.payloads, *rearms = (
            [column[index] for index in kept] for column in columns
        )
        self.rearms = rearms or None
        return released
