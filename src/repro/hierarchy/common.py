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

A crash releases the component's failure detectors before its endpoint
disconnects, so the heartbeat leases on them
(:class:`~repro.network.fanout.LeaseSet`) have nothing to restore.
"""

from __future__ import annotations

import enum
from typing import List, Optional

from repro.metrics.recorder import EventLog
from repro.network.fanout import LeaseSet
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
        self._stop_all_timers()
        self.network.disconnect(self.name)
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
