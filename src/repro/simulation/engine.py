"""The discrete-event simulation engine.

The engine is deliberately small and deterministic:

* Events are ordered by ``(time, priority, sequence)``.  The monotonically
  increasing sequence number guarantees FIFO ordering among events scheduled
  for the same instant with the same priority, which keeps runs reproducible
  regardless of heap tie-breaking.
* Heap entries are tuples ``(time, priority, seq, call, arg)``: ``heapq``
  orders them in C and -- sequence numbers being unique -- never looks past
  the key.  An :class:`Event` is the caller's handle (cancel, listeners,
  value), not the sort key: it defines no ordering and rides in ``arg``, or
  is absent altogether for a call nobody holds a handle to
  (:meth:`Simulator.post`: every network delivery).
* Callbacks run synchronously; anything they schedule is processed in the
  same :meth:`Simulator.run` loop.
* Cancelling an event is O(1): the event is flagged and skipped when popped
  (the standard "lazy deletion" technique for binary-heap schedulers).

The engine knows nothing about VMs or clouds -- higher layers (network,
hierarchy, energy accounting) are built on top of it.
"""

from __future__ import annotations

import itertools
import math
from heapq import heappop, heappush
from time import perf_counter
from typing import Any, Callable, Optional


class SimulationError(RuntimeError):
    """Raised for invalid interactions with the simulator (e.g. scheduling in the past)."""


class Event:
    """A callback scheduled at a point in simulated time.

    Events support *listeners*: other parties (RPC deferred replies, trace
    spans ending on an event) may register a callable invoked when the event
    fires or is cancelled.
    """

    __slots__ = (
        "time",
        "priority",
        "seq",
        "callback",
        "args",
        "kwargs",
        "cancelled",
        "fired",
        "value",
        "_listeners",
    )

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        callback: Optional[Callable[..., Any]],
        args: tuple = (),
        kwargs: Optional[dict] = None,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.args = args
        #: Keyword arguments of the callback; None when there are none.
        self.kwargs = kwargs or None
        self.cancelled = False
        self.fired = False
        #: Value produced by the callback (or delivered by :meth:`Simulator.trigger`).
        self.value: Any = None
        #: Allocated by the first :meth:`add_listener`; most events have none.
        self._listeners: Optional[list] = None

    def cancel(self) -> None:
        """Cancel the event.  A cancelled event never runs its callback.

        Listeners are notified with ``ok=False`` so that waiters learn of the
        cancellation instead of hanging forever.
        """
        if self.fired:
            return
        self.cancelled = True
        self._notify(False)

    def add_listener(self, listener: Callable[["Event", bool], None]) -> None:
        """Register ``listener(event, ok)`` called on fire (ok=True) or cancel (ok=False)."""
        if self.fired:
            listener(self, True)
        elif self.cancelled:
            listener(self, False)
        elif self._listeners is None:
            self._listeners = [listener]
        else:
            self._listeners.append(listener)

    @property
    def pending(self) -> bool:
        """True while the event has neither fired nor been cancelled."""
        return not (self.fired or self.cancelled)

    # Internal -------------------------------------------------------------
    def _fire(self) -> None:
        self.fired = True
        callback = self.callback
        if callback is not None:
            kwargs = self.kwargs
            self.value = callback(*self.args, **kwargs) if kwargs else callback(*self.args)
        if self._listeners is not None:
            self._notify(True)

    def _notify(self, ok: bool) -> None:
        listeners, self._listeners = self._listeners, None
        for listener in listeners or ():
            listener(self, ok)


#: A heap entry fires as ``call(arg)``: ``(_FIRE, event)`` for an
#: :class:`Event` handle, the posted callback and its argument otherwise.
_FIRE = Event._fire


def _handle(entry: tuple) -> Event:
    """The :class:`Event` of a heap entry (a stand-in for a posted call)."""
    time, priority, seq, call, arg = entry
    return arg if call is _FIRE else Event(time, priority, seq, call, (arg,))


class Simulator:
    """The event loop: a priority queue of :class:`Event` plus a clock.

    Typical use::

        sim = Simulator()
        sim.schedule(5.0, print, "hello at t=5")
        sim.run(until=10.0)

    The simulator also carries a registry of named *services* so that loosely
    coupled subsystems (network, energy accounting, metrics) can find each
    other without global state.
    """

    #: Default priority for ordinary events.
    PRIORITY_NORMAL = 0
    #: Priority used by the network layer so message deliveries at time t
    #: precede timers scheduled for the same instant.
    PRIORITY_HIGH = -10
    #: Priority for bookkeeping that should run after everything else at t.
    PRIORITY_LOW = 10

    def __init__(self, start_time: float = 0.0) -> None:
        #: Current simulated time -- a plain attribute (read on every hot-path
        #: operation; property dispatch is measurable at fleet scale).
        self.now = float(start_time)
        self._queue: list[tuple] = []
        self._seq = itertools.count()
        self._services: dict[str, Any] = {}
        self._running = False
        self._processed = 0
        #: Optional :class:`~repro.obs.profiling.EventLoopProfiler`.  When set
        #: (before the first run), every handler invocation is timed with
        #: ``perf_counter``; when None the loop pays one predicate per event.
        self.profiler = None

    # ------------------------------------------------------------------ time
    @property
    def processed_events(self) -> int:
        """Number of events executed so far (useful for overhead metrics)."""
        return self._processed

    # ------------------------------------------------------------- scheduling
    def schedule(
        self,
        delay: float,
        callback: Optional[Callable[..., Any]] = None,
        *args: Any,
        priority: int = PRIORITY_NORMAL,
        **kwargs: Any,
    ) -> Event:
        """Schedule ``callback(*args, **kwargs)`` ``delay`` seconds from now."""
        if not delay >= 0:
            raise SimulationError(f"cannot schedule with negative/NaN delay {delay!r}")
        event = Event(float(self.now + delay), priority, next(self._seq), callback, args, kwargs)
        return self._push(event)

    def schedule_at(
        self,
        time: float,
        callback: Optional[Callable[..., Any]] = None,
        *args: Any,
        priority: int = PRIORITY_NORMAL,
        **kwargs: Any,
    ) -> Event:
        """Schedule ``callback`` at absolute simulated time ``time``."""
        if not time >= self.now:
            raise SimulationError(
                f"cannot schedule event in the past or at NaN time (t={time}, now={self.now})"
            )
        return self._push(Event(float(time), priority, next(self._seq), callback, args, kwargs))

    def post(
        self,
        delay: float,
        callback: Callable[[Any], Any],
        arg: Any,
        priority: int = PRIORITY_NORMAL,
    ) -> None:
        """Schedule ``callback(arg)`` ``delay`` seconds from now, returning no handle.

        For callers that never cancel, listen to or read the value of what
        they schedule: the heap entry carries the call itself and no
        :class:`Event` is built.  Ordering, sequence numbers,
        ``processed_events`` and profiling are those of :meth:`schedule`.
        """
        if not delay >= 0:
            raise SimulationError(f"cannot schedule with negative/NaN delay {delay!r}")
        heappush(self._queue, (float(self.now + delay), priority, next(self._seq), callback, arg))

    def create_at(
        self,
        time: float,
        callback: Optional[Callable[..., Any]] = None,
        *args: Any,
        priority: int = PRIORITY_NORMAL,
        **kwargs: Any,
    ) -> Event:
        """Build an event -- drawing its sequence number now -- without queueing it.

        Paired with :meth:`enqueue`.  Callers that know a whole series of
        future events up front (a scenario's arrival list, say) can draw the
        tie-breaking sequence numbers immediately, preserving the exact firing
        order that pre-scheduling every event would give, while keeping only
        O(1) of them in the heap at a time.
        """
        if math.isnan(time):
            raise SimulationError("cannot create an event at NaN time")
        return Event(float(time), priority, next(self._seq), callback, args, kwargs)

    def enqueue(self, event: Event) -> Event:
        """Queue an event previously built with :meth:`create_at`."""
        if not event.time >= self.now:
            raise SimulationError(
                f"cannot enqueue event in the past or at NaN time (t={event.time}, now={self.now})"
            )
        return self._push(event)

    def _push(self, event: Event) -> Event:
        heappush(self._queue, (event.time, event.priority, event.seq, _FIRE, event))
        return event

    def event(self) -> Event:
        """Create an unscheduled event that fires only when :meth:`trigger` is called.

        Used as a one-shot signal / future: listeners can subscribe to it and
        any code can later complete it with a value.
        """
        return Event(math.inf, self.PRIORITY_NORMAL, next(self._seq), None)

    def trigger(self, event: Event, value: Any = None) -> None:
        """Complete an unscheduled event *now*, delivering ``value`` to waiters."""
        if not event.pending:
            raise SimulationError("event already fired or cancelled")
        event.time = self.now
        event.value = value
        event.fired = True
        event._notify(True)

    # ---------------------------------------------------------------- running
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run until the queue drains, ``until`` is reached, or ``max_events`` processed.

        Returns the simulation time at which the run stopped.  When ``until``
        is given, the clock is advanced to exactly ``until`` even if the last
        event fired earlier (so that energy integration over a fixed horizon
        is exact).
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run() call)")
        self._running = True
        profiler = self.profiler  # hoisted: attach before the first run
        queue = self._queue
        horizon = math.inf if until is None else until
        limit = math.inf if max_events is None else self._processed + max_events
        try:
            while queue:
                time, _, _, call, arg = queue[0]
                if call is _FIRE and arg.cancelled:
                    heappop(queue)
                    continue
                if time > horizon or self._processed >= limit:
                    break
                heappop(queue)
                self.now = time
                if profiler is None:
                    call(arg)
                else:
                    begin = perf_counter()
                    call(arg)
                    elapsed = perf_counter() - begin
                    profiler.record(arg.callback if call is _FIRE else call, elapsed)
                self._processed += 1
        finally:
            self._running = False
        if until is not None and self.now < until:
            self.now = float(until)
        return self.now

    def step(self) -> Optional[Event]:
        """Execute the single next pending event; return it (or None if queue empty)."""
        queue = self._queue
        while queue and queue[0][3] is _FIRE and queue[0][4].cancelled:
            heappop(queue)
        if not queue:
            return None
        event = _handle(heappop(queue))
        self.now = event.time
        begin = perf_counter()
        event._fire()
        if self.profiler is not None:
            self.profiler.record(event.callback, perf_counter() - begin)
        self._processed += 1
        return event

    def __len__(self) -> int:
        return sum(1 for event in map(_handle, self._queue) if not event.cancelled)

    # --------------------------------------------------------------- services
    def register_service(self, name: str, service: Any) -> None:
        """Expose a shared subsystem (network, energy meter, metrics) under ``name``."""
        if name in self._services:
            raise SimulationError(f"service {name!r} already registered")
        self._services[name] = service

    def get_service(self, name: str) -> Any:
        """Fetch a previously registered service; raises ``KeyError`` if missing."""
        return self._services[name]

    def has_service(self, name: str) -> bool:
        """True if a service was registered under ``name``."""
        return name in self._services

def schedule_series(
    sim: Simulator,
    items: "list[tuple[float, Any]]",
    action: Callable[[Any], Any],
) -> None:
    """Fire ``action(payload)`` at each ``(time, payload)``, one heap entry at a time.

    Drop-in replacement for scheduling every item with :meth:`Simulator.schedule_at`
    up front: each item's event (and its tie-breaking sequence number) is created
    immediately, in list order, so firing order -- including order among
    same-instant items and against unrelated events -- is identical.  But only
    the next pending item sits in the event heap; each firing enqueues its
    successor.  A fleet-scale scenario pre-scheduling thousands of VM arrivals
    otherwise keeps the heap large for the whole run, and every unrelated heap
    operation pays the extra ``log n``.
    """
    events = [sim.create_at(time, None) for time, _ in items]
    payloads = [payload for _, payload in items]
    order = sorted(range(len(events)), key=lambda i: (events[i].time, events[i].seq))

    def _fire(rank: int) -> None:
        if rank + 1 < len(order):
            sim.enqueue(events[order[rank + 1]])
        action(payloads[order[rank]])

    for rank, index in enumerate(order):
        event = events[index]
        event.callback = _fire
        event.args = (rank,)
    if order:
        sim.enqueue(events[order[0]])
