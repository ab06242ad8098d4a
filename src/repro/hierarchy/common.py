"""Common machinery shared by all hierarchy components.

Every Snooze component (Entry Point, Group Manager, Local Controller) is an
actor attached to the simulated network: it owns an endpoint, an RPC channel
and a set of timers.  :class:`Component` centralizes that plumbing plus the
failure-injection hooks used by the fault-tolerance experiments:

* :meth:`Component.fail` -- crash the component: disconnect it from the
  network and stop all of its timers (heartbeats stop, exactly the paper's
  failure model);
* :meth:`Component.recover` -- restart it: reconnect and re-run its
  :meth:`Component.on_start` logic (components re-join the hierarchy through
  the normal self-organization protocol, nothing is restored magically).

:class:`LeaseSet` is the one way a heartbeat skips its delivery: the watcher
leases its failure detector to the sender, whose heartbeat -- still drawn and
counted like any message -- then re-arms it to the arrival time instead.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional

from repro.metrics.recorder import EventLog
from repro.network.message import Message, MessageType
from repro.network.multicast import MulticastRegistry
from repro.network.rpc import RpcChannel
from repro.network.transport import Network
from repro.obs import OBSERVABILITY_SERVICE
from repro.simulation.batch import DeadlineHandle
from repro.simulation.engine import Simulator
from repro.simulation.timers import PeriodicTimer

#: End-to-end timeout of a placement probe (GL -> GM).  Generous enough to
#: cover a host wake-up when energy management is enabled (Section III: hosts
#: are woken on demand for incoming placements).
PLACEMENT_TIMEOUT = 90.0


class Lease:
    """A sender's lease on one watcher's failure detector."""

    __slots__ = ("handle", "watcher", "table", "index", "generation")

    def __init__(self, handle: DeadlineHandle, watcher) -> None:
        self.handle = handle
        #: The watcher's :class:`~repro.network.transport.Endpoint`.
        self.watcher = watcher
        self.table, self.index, self.generation = handle.table, handle.index, handle.generation

    def apply(self, arrival: float) -> bool:
        """A leased heartbeat arriving at ``arrival``: re-arm, or False to deliver it instead."""
        return self.watcher.connected and self.table.rearm_at(self.index, self.generation, arrival)


class LeaseSet:
    """Heartbeat leases: ``(watcher, sender) ->`` the watcher's detector handle.

    A GM <-> LC heartbeat's whole effect is restarting its watcher's failure
    detector at delivery time.  The watcher grants the sender a lease on that
    detector.  The sender's heartbeat is still counted and still makes its
    loss and jitter draws, in the order its message would have; then, if it
    is not lost, it re-arms the detector to arrival + timeout
    (:meth:`~repro.simulation.batch.DeadlineTable.rearm_at`) and the
    transport absorbs the message instead of delivering it: the GM's tick
    through its heartbeat group
    (:meth:`~repro.network.multicast.MulticastGroup.publish`), the LC fleet's
    heartbeat tick over its rows.  A lease that cannot apply -- the detector
    falls due before the arrival (earlier heartbeats were lost), was released,
    or its watcher is disconnected -- sends the message it already drew.

    A lease is granted only when ``timeout > interval + base latency +
    jitter``: a heartbeat then always arrives before the detector it follows
    could expire.  An LC leaving its GM revokes both of the pair's leases; a
    watcher forgetting a peer releases the detector, which leaves its lease
    inert (generation-checked).  A crashed watcher's detectors are released
    with it; only a watcher partitioned (disconnected, still running) while a
    leased heartbeat to it is in flight keeps that heartbeat's re-arm, which
    its dropped message would not have made.
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

    def held_by(self, sender: str) -> Dict[str, Lease]:
        """``watcher -> lease`` of every lease ``sender`` holds, in grant order."""
        return self._by_sender.get(sender, {})


class ComponentState(enum.Enum):
    """Lifecycle of a hierarchy component."""

    CREATED = "created"
    RUNNING = "running"
    FAILED = "failed"
    STOPPED = "stopped"


class Component:
    """Base class for hierarchy actors."""

    def __init__(self, name: str, sim: Simulator, network: Network, event_log: Optional[EventLog] = None) -> None:
        self.name = name
        self.sim = sim
        self.network = network
        self.event_log = event_log if event_log is not None else EventLog()
        self.state = ComponentState.CREATED
        self.endpoint = network.register(name, self._on_message)
        self.rpc = RpcChannel(network, name)
        self._timers: List[PeriodicTimer] = []
        #: Live failure detectors armed through :meth:`add_deadline`.
        self._timeouts: List[DeadlineHandle] = []
        #: The deployment's observability plane and tracer (None when the
        #: plane is not built / the tracing pillar is off), discovered once at
        #: construction so per-message paths pay a plain attribute read.
        self.obs = (
            sim.get_service(OBSERVABILITY_SERVICE)
            if sim.has_service(OBSERVABILITY_SERVICE)
            else None
        )
        self.tracer = self.obs.tracer if self.obs is not None else None

    # ------------------------------------------------------------- lifecycle
    def start(self) -> None:
        """Bring the component up (idempotent)."""
        if self.state is ComponentState.RUNNING:
            return
        self.state = ComponentState.RUNNING
        self.network.reconnect(self.name)
        self.on_start()

    def on_start(self) -> None:
        """Subclass hook: create timers, join the hierarchy."""

    def fail(self) -> None:
        """Crash the component (failure injection)."""
        if self.state is not ComponentState.RUNNING:
            return
        self.state = ComponentState.FAILED
        self.network.disconnect(self.name)
        self._stop_all_timers()
        self.rpc.cancel_all()
        self.on_fail()
        self.event_log.record(self.sim.now, "component_failed", component=self.name)

    def on_fail(self) -> None:
        """Subclass hook: extra crash semantics (e.g. an LC loses its VMs)."""

    def recover(self) -> None:
        """Restart a failed component; it re-joins through the normal protocol."""
        if self.state is not ComponentState.FAILED:
            return
        self.network.reconnect(self.name)
        self.state = ComponentState.RUNNING
        self.on_start()
        self.event_log.record(self.sim.now, "component_recovered", component=self.name)

    def stop(self) -> None:
        """Cleanly stop the component at the end of an experiment."""
        if self.state is ComponentState.STOPPED:
            return
        self.state = ComponentState.STOPPED
        self._stop_all_timers()
        self.rpc.cancel_all()
        self.network.disconnect(self.name)

    @property
    def is_running(self) -> bool:
        """True while the component is alive and connected."""
        return self.state is ComponentState.RUNNING

    # ----------------------------------------------------------------- timers
    def add_timer(
        self, interval: float, callback, *args, start_immediately: bool = False
    ) -> PeriodicTimer:
        """Create a periodic timer owned by (and stopped with) this component."""
        timer = PeriodicTimer(
            self.sim,
            interval,
            callback,
            *args,
            start_immediately=start_immediately,
            name=f"{self.name}:{getattr(callback, '__name__', 'timer')}",
        )
        self._timers.append(timer)
        return timer

    def add_deadline(self, table, duration: float, callback, *args) -> DeadlineHandle:
        """Arm a failure detector in a :class:`~repro.simulation.batch.DeadlineTable`.

        The returned handle is owned by (and released with) this component.
        """
        handle = table.arm(duration, callback, *args)
        self._timeouts.append(handle)
        return handle

    def discard_timeout(self, handle: DeadlineHandle) -> None:
        """Permanently discard a failure detector: release it and drop ownership.

        The handle's entry returns to its table's free pool.  Use this -- not
        bare ``cancel()`` -- whenever the detector will never be restarted.
        Handles already released by a crash (:meth:`fail`) are tolerated.
        """
        handle.release()
        if handle in self._timeouts:
            self._timeouts.remove(handle)

    def _stop_all_timers(self) -> None:
        for timer in self._timers:
            timer.stop()
        self._timers.clear()
        for handle in self._timeouts:
            handle.release()
        self._timeouts.clear()

    # --------------------------------------------------------------- services
    @property
    def multicast(self) -> MulticastRegistry:
        """The shared multicast registry service."""
        return self.sim.get_service(MulticastRegistry.SERVICE_NAME)

    @property
    def leases(self) -> LeaseSet:
        """The shared heartbeat lease set."""
        return LeaseSet.shared(self.sim, self.network)

    # --------------------------------------------------------------- messages
    def _on_message(self, message: Message) -> None:
        if self.state is not ComponentState.RUNNING:
            return
        # Inline RPC triage: heartbeats outnumber RPC traffic by orders of
        # magnitude at fleet scale, so the common case skips a call.
        msg_type = message.msg_type
        if msg_type is MessageType.RPC_REQUEST or msg_type is MessageType.RPC_REPLY:
            self.rpc.handle_message(message)
            return
        self.handle_message(message)

    def handle_message(self, message: Message) -> None:
        """Subclass hook for non-RPC protocol messages (heartbeats, events)."""

    def log_event(self, category: str, **details) -> None:
        """Record a discrete event in the shared event log."""
        self.event_log.record(self.sim.now, category, component=self.name, **details)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name} {self.state.value}>"
