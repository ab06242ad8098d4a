"""Batched periodic events and coalesced failure-detection deadlines.

At fleet scale the simulator's event queue would be dominated by two
per-component patterns:

* a :class:`~repro.simulation.timers.PeriodicTimer` per component per periodic
  duty -- thousands of heap events per interval that all fire at the same
  instants;
* a failure detector built as one heap event per deadline (the per-entry
  ``Timeout`` kept as the oracle in ``tests/scalar_timeout.py``) is
  *restarted* by every heartbeat (cancel + push), so a healthy fleet churns
  the heap at heartbeat rate for deadlines that almost never expire.

This module replaces both patterns without changing observable behaviour:

:class:`CoalescedTicker`
    groups periodic registrations that share an ``(interval, next-fire-time)``
    grid into **one** self-rescheduling event per group.  Members fire in
    registration order -- exactly the order per-component timers created at
    the same instants would have fired -- and may register *phased* callback
    tuples (all members run phase 0, then all run phase 1, ...).  A member
    need not be one component: the Local Controller fleet
    (:mod:`repro.hierarchy.fleet`) registers one member per group of LCs and
    steps the whole group as array rows inside it.

:class:`DeadlineTable`
    a liveness bitmap plus a float64 deadline array with **one** pending
    simulator event at the earliest armed deadline.  Restarting a deadline is
    an O(1) array write -- and a whole batch of them one indexed write
    (:meth:`DeadlineTable.rearm`, from index arrays the caller keeps while
    membership holds); expiries fire at exactly the same simulated time a
    per-entry ``Timeout`` would have fired, tie-broken by restart order.
    A restart may be taken ahead of time, for a future base
    (:meth:`DeadlineTable.rearm_at`: a heartbeat re-arming its detector to
    its arrival when it is sent), for one entry or -- all or nothing, when
    every entry shares the base -- for a heartbeat fan-out's leases
    (:meth:`DeadlineTable.rearm_all_at`, :mod:`repro.network.fanout`); a
    plain restart before that base does not move the deadline earlier, and
    :meth:`DeadlineTable.restore` takes one back if its heartbeat is dropped.
    Deadline *extensions* are lazy: the pending event fires, finds nothing
    due, and re-arms at the new minimum.

Both are life-cycle citizens of :class:`~repro.hierarchy.common.Component`:
tick handles expose ``stop()`` like the timers they replace, deadline handles
``restart()`` / ``cancel()`` / ``release()``, and teardown stops or releases
whatever the component registered.
"""

from __future__ import annotations

import math
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.simulation.engine import Event, SimulationError, Simulator

#: Initial entry capacity of a deadline table (grown geometrically).
_INITIAL_DEADLINES = 32


class TickHandle:
    """One member of a coalesced tick group (quacks like a PeriodicTimer)."""

    __slots__ = ("callbacks", "name", "fired_count", "_running")

    def __init__(self, callbacks: Tuple[Callable[[], Any], ...], name: str) -> None:
        self.callbacks = callbacks
        self.name = name
        self.fired_count = 0
        self._running = True

    @property
    def running(self) -> bool:
        """True until :meth:`stop` is called."""
        return self._running

    def stop(self) -> None:
        """Stop firing; the group drops the member at its next tick."""
        self._running = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "running" if self._running else "stopped"
        return f"<TickHandle {self.name} {state}>"


class _TickGroup:
    """One event chain firing every member sharing an (interval, grid) pair."""

    def __init__(self, ticker: "CoalescedTicker", interval: float, first_fire: float) -> None:
        self.ticker = ticker
        self.interval = float(interval)
        self.next_fire = float(first_fire)
        self.members: List[TickHandle] = []
        self._pending: Optional[Event] = None
        self._pending = ticker.sim.schedule_at(first_fire, self._tick)

    def _tick(self) -> None:
        self.members = [member for member in self.members if member._running]
        if not self.members:
            self.ticker._drop_group(self)
            self._pending = None
            return
        phases = max(len(member.callbacks) for member in self.members)
        profiler = self.ticker.profiler
        for phase in range(phases):
            for member in self.members:
                if member._running and phase < len(member.callbacks):
                    if phase == 0:
                        member.fired_count += 1
                    if profiler is None:
                        member.callbacks[phase]()
                    else:
                        # Coalesced members share one kernel event; attribute
                        # wall clock to each member callback individually.
                        begin = perf_counter()
                        member.callbacks[phase]()
                        profiler.record(member.callbacks[phase], perf_counter() - begin)
        self.next_fire = self.ticker.sim.now + self.interval
        self._pending = self.ticker.sim.schedule_at(self.next_fire, self._tick)

    def cancel(self) -> None:
        if self._pending is not None and self._pending.pending:
            self._pending.cancel()
        self._pending = None


class CoalescedTicker:
    """Registry of coalesced periodic tick groups for one simulator."""

    SERVICE_NAME = "coalesced-ticker"

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._groups: Dict[Tuple[float, float], _TickGroup] = {}
        #: Optional :class:`~repro.obs.profiling.EventLoopProfiler` timing
        #: each member callback (a group tick is one kernel event).
        self.profiler = None

    @classmethod
    def shared(cls, sim: Simulator) -> "CoalescedTicker":
        """The per-simulation shared ticker (created on first use)."""
        if sim.has_service(cls.SERVICE_NAME):
            return sim.get_service(cls.SERVICE_NAME)
        ticker = cls(sim)
        sim.register_service(cls.SERVICE_NAME, ticker)
        return ticker

    def register(
        self,
        interval: float,
        *callbacks: Callable[[], Any],
        name: Optional[str] = None,
    ) -> TickHandle:
        """Join (or create) the group firing every ``interval`` seconds from now.

        ``callbacks`` are the member's phases; with several, phase ``k`` of
        every member runs before phase ``k + 1`` of any member.  The first
        fire is ``interval`` seconds from now -- registrations made at the
        same instant with the same interval share one group and fire in
        registration order, matching the order dedicated per-member timers
        created back-to-back would have fired.
        """
        if interval <= 0:
            raise SimulationError(f"tick interval must be positive, got {interval}")
        if not callbacks:
            raise SimulationError("a tick registration needs at least one callback")
        first_fire = self.sim.now + float(interval)
        key = (float(interval), first_fire)
        group = self._groups.get(key)
        if group is None or group.next_fire != first_fire:
            group = _TickGroup(self, interval, first_fire)
            self._groups[key] = group
        handle = TickHandle(
            tuple(callbacks), name or getattr(callbacks[0], "__name__", "tick")
        )
        group.members.append(handle)
        return handle

    def _drop_group(self, group: _TickGroup) -> None:
        for key, candidate in list(self._groups.items()):
            if candidate is group:
                del self._groups[key]

    def group_count(self) -> int:
        """Number of live tick groups (diagnostics)."""
        return len(self._groups)

    def member_count(self) -> int:
        """Number of registered running members across groups (diagnostics)."""
        return sum(
            sum(1 for member in group.members if member._running)
            for group in self._groups.values()
        )


class DeadlineHandle:
    """A restartable deadline inside a :class:`DeadlineTable` (quacks like the per-entry ``Timeout`` oracle)."""

    __slots__ = ("table", "index", "generation")

    def __init__(self, table: "DeadlineTable", index: int, generation: int) -> None:
        self.table = table
        self.index = index
        self.generation = generation

    def _valid(self) -> bool:
        return self.table._generations[self.index] == self.generation

    @property
    def armed(self) -> bool:
        """True while the deadline is counting down."""
        return self._valid() and bool(self.table._active[self.index])

    @property
    def expired(self) -> bool:
        """True once the deadline fired (and was not re-armed since)."""
        return self._valid() and bool(self.table._expired[self.index])

    def restart(self, duration: Optional[float] = None) -> None:
        """(Re-)arm the deadline ``duration`` (default: current duration) from now."""
        if not self._valid():
            raise SimulationError("deadline handle was released")
        self.table._restart(self.index, duration)

    def cancel(self) -> None:
        """Disarm without firing (idempotent; the entry stays claimable via restart)."""
        if self._valid():
            self.table._deactivate(self.index)

    def release(self) -> None:
        """Disarm and return the entry to the table's free pool (handle goes inert).

        Discard path for detectors that will never be restarted (a removed
        peer, a component tearing down) so long-running churny deployments do
        not grow the deadline arrays monotonically.
        """
        self.table.release(self)


class DeadlineTable:
    """Vectorized pool of failure-detection deadlines with one pending event.

    State is columnar: a float64 deadline per entry, a liveness bitmap, and a
    restart stamp for deterministic tie-breaking.  The table keeps at most one
    scheduled simulator event -- at the earliest armed deadline -- and re-arms
    lazily, so the steady-state cost of a fleet of constantly-refreshed
    failure detectors is an array write per heartbeat instead of a heap
    cancel + push per heartbeat.
    """

    @classmethod
    def shared(cls, sim: Simulator, name: str) -> "DeadlineTable":
        """A named per-simulation shared table (created on first use)."""
        service = f"deadline-table:{name}"
        if sim.has_service(service):
            return sim.get_service(service)
        table = cls(sim, name=name)
        sim.register_service(service, table)
        return table

    def __init__(self, sim: Simulator, name: str = "deadlines") -> None:
        self.sim = sim
        self.name = name
        self._deadlines = np.full(0, math.inf, dtype=float)
        self._active = np.zeros(0, dtype=bool)
        self._expired = np.zeros(0, dtype=bool)
        self._order = np.zeros(0, dtype=np.int64)
        self._generations = np.zeros(0, dtype=np.int64)
        self._durations = np.zeros(0, dtype=float)
        self._callbacks: List[Optional[Tuple[Callable[..., Any], tuple]]] = []
        self._release_on_fire: List[bool] = []
        self._free: List[int] = []
        self._stamp = 0
        self._pending: Optional[Event] = None
        self._pending_time = math.inf

    # ---------------------------------------------------------------- entries
    def __len__(self) -> int:
        return int(self._active.sum())

    def _grow(self) -> None:
        old = len(self._durations)
        new = max(_INITIAL_DEADLINES, 2 * old)
        for attr, fill, dtype in (
            ("_deadlines", math.inf, float),
            ("_active", False, bool),
            ("_expired", False, bool),
            ("_order", 0, np.int64),
            ("_generations", 0, np.int64),
            ("_durations", 0.0, float),
        ):
            fresh = np.full(new, fill, dtype=dtype)
            fresh[:old] = getattr(self, attr)
            setattr(self, attr, fresh)
        self._callbacks.extend([None] * (new - old))
        self._release_on_fire.extend([False] * (new - old))
        self._free.extend(range(new - 1, old - 1, -1))

    def arm(
        self,
        duration: float,
        callback: Callable[..., Any],
        *args: Any,
        release_on_fire: bool = False,
    ) -> DeadlineHandle:
        """Claim an entry and arm it ``duration`` seconds from now.

        ``release_on_fire=True`` recycles the entry into the free pool as soon
        as the deadline fires -- for fire-and-forget one-shots (a VM's exact
        lifetime expiry, say) whose callers never hold the handle, so a churny
        run does not grow the table by one dead entry per event.
        """
        if duration <= 0:
            raise SimulationError(f"deadline duration must be positive, got {duration}")
        if not self._free:
            self._grow()
        index = self._free.pop()
        self._generations[index] += 1
        self._durations[index] = float(duration)
        self._callbacks[index] = (callback, args)
        self._release_on_fire[index] = bool(release_on_fire)
        handle = DeadlineHandle(self, index, int(self._generations[index]))
        self._restart(index, None)
        return handle

    def release(self, handle: DeadlineHandle) -> None:
        """Disarm and recycle an entry (its handle becomes inert)."""
        if handle._valid():
            self._deactivate(handle.index)
            self._generations[handle.index] += 1
            self._callbacks[handle.index] = None
            self._free.append(handle.index)

    # ----------------------------------------------------------------- arming
    def restart_handles(self, handles: Sequence[DeadlineHandle], base: float) -> None:
        """:meth:`rearm` for a sequence of this table's handles (in sequence order)."""
        n = len(handles)
        if n:
            self.rearm(
                np.fromiter((h.index for h in handles), dtype=np.int64, count=n),
                np.fromiter((h.generation for h in handles), dtype=np.int64, count=n),
                base,
            )

    def rearm(self, indices: np.ndarray, generations: np.ndarray, base: float) -> None:
        """Re-arm the entries ``indices`` to ``base + duration`` each, in array order.

        The vectorized twin of calling :meth:`rearm_at` on every entry with
        one ``base``: one numpy write re-arms the batch, restart-order stamps
        are assigned in array order (the tie-break per-entry restarts would
        have produced), and entries whose generation no longer matches
        ``generations`` (released or recycled since the caller cached them)
        are silently skipped -- exactly as the deliveries that would have
        restarted them would have had nothing to restart.  The caller
        guarantees no entry is due before ``base`` or was re-armed for a later
        one (every re-arm of these entries shares one latency).
        """
        valid = self._generations[indices] == generations
        if not valid.all():
            indices = indices[valid]
        n = indices.size
        if n == 0:
            return
        deadlines = float(base) + self._durations[indices]
        self._deadlines[indices] = deadlines
        self._active[indices] = True
        self._expired[indices] = False
        self._order[indices] = np.arange(self._stamp + 1, self._stamp + n + 1, dtype=np.int64)
        self._stamp += n
        earliest = float(deadlines.min())
        if earliest < self._pending_time:
            self._schedule(earliest)

    @staticmethod
    def rearm_all_at(blocks: List[tuple], base: float, count: int) -> Optional[tuple]:
        """:meth:`rearm_at` at one ``base`` for every entry of ``blocks``, all or nothing.

        ``blocks`` holds ``(table, indices, generations, positions)`` per
        table, ``positions`` placing its entries among ``count``.  When every
        entry would move to ``base + duration`` (valid, armed, not due before
        ``base``, not re-armed for a later one), one indexed write per table
        does it, stamping in array order, and what :meth:`rearm_at` returns
        per entry comes back as two arrays by position; otherwise nothing
        changes and None is returned.
        """
        before = np.empty(count)
        stamps = np.empty(count, dtype=np.int64)
        moves = []
        for table, indices, generations, positions in blocks:
            deadlines = table._deadlines[indices]
            moved = base + table._durations[indices]
            valid = table._generations[indices] == generations
            if not (valid & (deadlines >= base) & (deadlines <= moved)).all():
                return None
            before[positions] = deadlines
            moves.append(moved)
        for (table, indices, _, positions), moved in zip(blocks, moves):
            stamps[positions] = table._order[indices]
            table._deadlines[indices] = moved
            n = indices.size
            table._order[indices] = np.arange(table._stamp + 1, table._stamp + n + 1)
            table._stamp += n
        return before, stamps

    def rearm_at(self, index: int, generation: int, base: float) -> Optional[tuple]:
        """Re-arm one entry now as a :meth:`~DeadlineHandle.restart` at ``base`` would.

        ``base`` may lie in the future: a heartbeat publisher restarts its
        listener's detector at the heartbeat's *arrival* time without
        posting the delivery.  The deadline becomes ``base + duration`` and
        the restart stamp is taken now; an entry already re-armed for a later
        ``base`` keeps that one (arrivals may reorder), and a plain restart
        before ``base`` does not move it earlier.  Returns the entry's
        previous deadline and restart stamp, which :meth:`restore` takes; or
        None -- the caller must deliver the message instead -- when
        the entry was released, is not armed, or falls due before ``base``
        (its expiry would precede the arrival).
        """
        if self._generations[index] != generation:
            return None
        deadline = self._deadlines[index]  # inf when not armed
        if deadline < base or deadline == math.inf:
            return None
        stamp = self._order[index]
        later = base + self._durations[index]
        if later >= deadline:
            self._deadlines[index] = later
            self._stamp += 1
            self._order[index] = self._stamp
        return deadline, stamp

    def restore(
        self, index: int, generation: int, deadline: float, stamp: int, base: float
    ) -> None:
        """Undo a :meth:`rearm_at` at ``base`` whose heartbeat was dropped after all.

        The entry gets its previous ``deadline`` and restart ``stamp`` back
        unless it was released, cancelled or moved since (it is no longer due
        at ``base + duration``); the pending sweep moves earlier with it.
        """
        valid = self._generations[index] == generation and self._active[index]
        if valid and self._deadlines[index] == base + self._durations[index]:
            self._deadlines[index] = deadline
            self._order[index] = stamp
            if deadline < self._pending_time:
                self._schedule(deadline)

    def _restart(self, index: int, duration: Optional[float]) -> None:
        if duration is not None:
            if duration <= 0:
                raise SimulationError("deadline duration must be positive")
            self._durations[index] = float(duration)
        deadline = self.sim.now + float(self._durations[index])
        if duration is None and deadline < self._deadlines[index] < math.inf:
            # A heartbeat re-armed this entry for a later arrival; that
            # delivery would restart it after this restart does.
            return
        self._deadlines[index] = deadline
        self._active[index] = True
        self._expired[index] = False
        self._stamp += 1
        self._order[index] = self._stamp
        if deadline < self._pending_time:
            self._schedule(deadline)

    def _deactivate(self, index: int) -> None:
        self._active[index] = False
        self._deadlines[index] = math.inf

    def _schedule(self, time: float) -> None:
        if self._pending is not None and self._pending.pending:
            self._pending.cancel()
        self._pending = self.sim.schedule_at(time, self._sweep)
        self._pending_time = time

    # ------------------------------------------------------------------ sweep
    def _sweep(self) -> None:
        self._pending = None
        self._pending_time = math.inf
        now = self.sim.now
        due = np.flatnonzero(self._active & (self._deadlines <= now))
        if due.size:
            # Equal deadlines fire in restart order -- the order their
            # per-entry Timeout events would have been heap-ordered by.
            for index in sorted(due.tolist(), key=lambda i: int(self._order[i])):
                if not self._active[index] or self._deadlines[index] > now:
                    continue  # re-armed or cancelled by an earlier expiry callback
                self._deactivate(index)
                self._expired[index] = True
                callback, args = self._callbacks[index]
                if self._release_on_fire[index]:
                    self._generations[index] += 1
                    self._callbacks[index] = None
                    self._free.append(index)
                callback(*args)
        if self._active.any():
            earliest = float(self._deadlines[self._active].min())
            if earliest < self._pending_time:
                self._schedule(earliest)

    def next_deadline(self) -> float:
        """Earliest armed deadline (``inf`` when nothing is armed)."""
        return float(self._deadlines[self._active].min()) if self._active.any() else math.inf

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<DeadlineTable {self.name} armed={len(self)}>"
