"""Periodic timers.

Heartbeats, monitoring intervals and reconfiguration periods reduce to one
primitive, :class:`PeriodicTimer`: fire a callback every ``interval`` seconds
until stopped.  Restartable failure-detection deadlines live in
:class:`~repro.simulation.batch.DeadlineTable`.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.simulation.engine import Event, SimulationError, Simulator


class PeriodicTimer:
    """Repeatedly invoke ``callback`` every ``interval`` simulated seconds."""

    def __init__(
        self,
        sim: Simulator,
        interval: float,
        callback: Callable[..., Any],
        *args: Any,
        start_immediately: bool = False,
        name: Optional[str] = None,
    ) -> None:
        if interval <= 0:
            raise SimulationError(f"timer interval must be positive, got {interval}")
        self.sim = sim
        self.interval = float(interval)
        self.callback = callback
        self.args = args
        self.name = name or getattr(callback, "__name__", "timer")
        self.fired_count = 0
        self._running = True
        self._pending: Optional[Event] = sim.schedule(
            0.0 if start_immediately else self.interval, self._tick
        )

    def _tick(self) -> None:
        if not self._running:
            return
        self.fired_count += 1
        self.callback(*self.args)
        if self._running:
            self._pending = self.sim.schedule(self.interval, self._tick)

    @property
    def running(self) -> bool:
        """True until :meth:`stop` is called."""
        return self._running

    def stop(self) -> None:
        """Stop the timer; no further callbacks fire."""
        self._running = False
        if self._pending is not None and self._pending.pending:
            self._pending.cancel()
        self._pending = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "running" if self._running else "stopped"
        return f"<PeriodicTimer {self.name} every {self.interval}s {state}>"
