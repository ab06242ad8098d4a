"""The leased heartbeat fan-out: one routine for every level of the hierarchy.

The paper: "multicast-based heartbeat protocols are implemented at all levels
of the hierarchy".  A multicast publish (a Group Manager to its Local
Controllers, the Group Leader to everyone:
:class:`~repro.network.multicast.MulticastGroup`) and the Local Controller
fleet's heartbeat tick (every LC to its Group Manager: :mod:`repro.hierarchy.fleet`)
both send through a :class:`FanOut`, a cached plan of rows ``(sender endpoint,
recipient, payload, lease, paused)`` in draw order.

Each row's message is counted and, unless its sender is down, makes its loss
and jitter draws in row order; then a paused recipient latches it, a
:class:`Lease` re-arms the watcher's failure detector to the arrival, or it is
dispatched.  The transport absorbs latched and leased messages
(:meth:`~repro.network.transport.Network.absorb`) and undoes a re-arm whose
watcher is partitioned before the arrival.  On a deterministic network every
message of a send arrives one base latency from now and draws nothing, so
when every lease can apply they re-arm with one indexed write per detector
table (:meth:`~repro.simulation.batch.DeadlineTable.rearm_all_at`).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

from repro.network.message import Message
from repro.network.transport import Absorbed, Network
from repro.simulation.batch import DeadlineHandle, DeadlineTable
from repro.simulation.engine import Simulator


class Lease:
    """A sender's lease on one watcher's failure detector."""

    __slots__ = ("handle", "watcher", "table", "index", "generation")

    def __init__(self, handle: DeadlineHandle, watcher) -> None:
        self.handle = handle
        #: The watcher's :class:`~repro.network.transport.Endpoint`.
        self.watcher = watcher
        self.table, self.index, self.generation = handle.table, handle.index, handle.generation

    def apply(self, arrival: float) -> Optional[tuple]:
        """A leased heartbeat arriving at ``arrival``: re-arm, or None to deliver it instead.

        Returns what :meth:`restore` takes (see
        :meth:`~repro.simulation.batch.DeadlineTable.rearm_at`).
        """
        if not self.watcher.connected:
            return None
        return self.table.rearm_at(self.index, self.generation, arrival)

    def restore(self, deadline: float, stamp: int, arrival: float) -> None:
        """Undo :meth:`apply`: its heartbeat was dropped after all."""
        self.table.restore(self.index, self.generation, deadline, stamp, arrival)


class LeaseSet:
    """Heartbeat leases: ``(watcher, sender) ->`` the watcher's detector handle.

    A GM <-> LC heartbeat's whole effect is restarting its watcher's failure
    detector at delivery time, so the watcher leases that detector to the
    sender: the heartbeat, still counted and drawn in its message's order,
    re-arms it to arrival + timeout instead of being delivered
    (:class:`FanOut`).  A lease that cannot apply -- the detector falls due
    before the arrival, was released, or its watcher is down -- sends the
    message it already drew.

    A lease is granted only when ``timeout > interval + base latency +
    jitter``: a heartbeat then always arrives before the detector it follows
    could expire.  An LC leaving its GM revokes both of the pair's leases; a
    released detector leaves its lease inert (generation-checked).  A watcher
    partitioned while a leased heartbeat to it is in flight gets the
    detector's previous deadline back; a crashed one releases its detectors
    before it disconnects.
    """

    SERVICE_NAME = "heartbeat-leases"

    def __init__(self, sim: Simulator, network: Network) -> None:
        self.sim = sim
        self.network = network
        #: Moves on every grant and revoke: callers caching leases rebuild.
        self.epoch = 0
        #: ``sender -> {watcher: lease}``, in grant order.
        self._by_sender: Dict[str, Dict[str, Lease]] = {}

    @classmethod
    def shared(cls, sim: Simulator, network: Network) -> "LeaseSet":
        """The per-simulation lease set (created on first use)."""
        if not sim.has_service(cls.SERVICE_NAME):
            sim.register_service(cls.SERVICE_NAME, cls(sim, network))
        return sim.get_service(cls.SERVICE_NAME)

    def grant(
        self, watcher: str, sender: str, handle: DeadlineHandle, timeout: float, interval: float
    ) -> bool:
        """Lease ``handle`` to ``sender`` if every heartbeat arrives before the detector expires."""
        config = self.network.config
        if timeout <= interval + config.base_latency + config.jitter:
            return False
        lease = Lease(handle, self.network.endpoint(watcher))
        self._by_sender.setdefault(sender, {})[watcher] = lease
        self.epoch += 1
        return True

    def revoke(self, watcher: str, sender: str) -> None:
        """End the lease (idempotent)."""
        if self._by_sender.get(sender, {}).pop(watcher, None) is not None:
            self.epoch += 1

    def get(self, watcher: str, sender: str) -> Optional[Lease]:
        """The lease ``sender`` holds on ``watcher``'s detector, if any."""
        return self._by_sender.get(sender, {}).get(watcher)


class FanOut:
    """A cached plan of heartbeat rows and the one routine that sends them."""

    def __init__(self, network: Network) -> None:
        self.network = network
        #: ``(sender endpoint, recipient, payload, lease or None, paused)`` per
        #: row, in draw order; ``paused`` holds only for a connected recipient
        #: and a lease only for a connected watcher that is not paused.
        self.rows: List[tuple] = []
        self._key: object = None
        self._epoch = -1
        #: For a deterministic network: the number of rows whose sender is
        #: down; the other rows' leased and latched messages as columns
        #: (:func:`_columns`); the rest; and the leases' re-arm blocks
        #: ``(table, indices, generations, positions in the leased columns)``.
        self._down = 0
        self._leased = self._latched = _columns([])
        self._others: List[tuple] = []
        self._tables: List[tuple] = []

    def plan(self, key, rows: Callable[..., List[tuple]], *args) -> None:
        """Rebuild the plan from ``rows(*args)`` unless ``key`` and the network's connectivity held."""
        epoch = self.network.connectivity_epoch
        if key != self._key or epoch != self._epoch:
            self._key, self._epoch = key, epoch
            self._plan(rows(*args))

    def _plan(self, rows: List[tuple]) -> None:
        self.rows, self._down, self._others = [], 0, []
        leased, latched = [], []
        for sender, recipient, payload, lease, paused in rows:
            if paused or lease is None or not lease.watcher.connected:
                lease = None
            row = (sender, recipient, payload, lease, paused)
            self.rows.append(row)
            if not sender.connected:
                self._down += 1
            else:
                (latched if paused else self._others if lease is None else leased).append(row)
        self._leased, self._latched = _columns(leased), _columns(latched)
        blocks: Dict[DeadlineTable, list] = {}
        for position, (_, _, _, lease, _) in enumerate(leased):
            blocks.setdefault(lease.table, []).append((lease.index, lease.generation, position))
        self._tables = [
            (table, *np.array(block, dtype=np.int64).T.copy()) for table, block in blocks.items()
        ]

    def send(self, msg_type, size_bytes: int, payload=None) -> Optional[Absorbed]:
        """Send every row's heartbeat; returns the absorbed record of the latched ones, if any.

        ``payload``, when given, is every row's (a multicast publish has one).
        """
        network = self.network
        network.messages_sent += len(self.rows)
        network.bytes_sent += int(size_bytes) * len(self.rows)
        now = network.sim.now
        if network.deterministic:
            latency = network.config.base_latency
            arrival = now + latency
            recipients, senders, payloads, leases = self._leased
            rearmed = DeadlineTable.rearm_all_at(self._tables, arrival, len(leases))
            if rearmed is not None:
                network.messages_dropped += self._down
                for sender, recipient, row_payload, _, _ in self._others:
                    network.dispatch(
                        Message(msg_type, sender.name, recipient,
                                row_payload if payload is None else payload),
                        latency,
                    )
                arrivals = [arrival] * len(recipients)
                self._absorb(msg_type, payload, recipients, arrivals, senders, payloads, leases,
                             *rearmed)
                recipients, senders, payloads, _ = self._latched
                arrivals = [arrival] * len(recipients)
                return self._absorb(msg_type, payload, recipients, arrivals, senders, payloads)
        # Row order: each message is counted and drawn, then latched, re-arms
        # its lease or goes out as the message it stands for.
        draw_latency, dispatch = network.draw_latency, network.dispatch
        leased, latched = [], []
        for sender, recipient, row_payload, lease, paused in self.rows:
            if not sender.connected:
                network.messages_dropped += 1
                continue
            latency = draw_latency()
            if latency < 0:
                continue
            arrival = now + latency
            if paused:
                latched.append((recipient, arrival, sender.name, row_payload))
                continue
            if lease is not None:
                rearm = lease.apply(arrival)
                if rearm is not None:
                    deadline, stamp = rearm
                    leased.append((recipient, arrival, sender.name, row_payload, lease, deadline,
                                   stamp))
                    continue
            dispatch(
                Message(msg_type, sender.name, recipient,
                        row_payload if payload is None else payload),
                latency,
            )
        if leased:
            self._absorb(msg_type, payload, *zip(*leased))
        return self._absorb(msg_type, payload, *zip(*latched)) if latched else None

    def _absorb(self, msg_type, payload, recipients, arrivals, senders, payloads, *rearms):
        """Absorb one send's leased or latched messages, given as columns."""
        if not recipients:
            return None
        if payload is not None:
            payloads = [payload] * len(recipients)
        return self.network.absorb(
            recipients, arrivals, msg_type, senders, payloads, rearms or None
        )


def _columns(rows: List[tuple]) -> tuple:
    """``(recipients, sender names, payloads, leases)`` of plan rows."""
    return (
        [row[1] for row in rows],
        [row[0].name for row in rows],
        [row[2] for row in rows],
        [row[3] for row in rows],
    )
