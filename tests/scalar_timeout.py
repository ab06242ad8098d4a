"""Per-entry restartable deadline: the oracle ``DeadlineTable`` is tested against.

One heap event per armed deadline, cancelled and re-scheduled on every
restart -- the straightforward failure detector.
``repro.simulation.batch.DeadlineTable`` must fire the same callbacks at the
same instants in the same order (``tests/test_batch.py``); nothing in ``src``
uses this class.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.simulation.engine import Event, SimulationError, Simulator


class Timeout:
    """A restartable deadline used for failure detection.

    ``Timeout(sim, 5.0, on_expire)`` arms a 5 second deadline.  Calling
    :meth:`restart` (e.g. whenever a heartbeat is received) pushes the
    deadline back; if it is ever allowed to elapse, ``on_expire`` runs once.
    """

    def __init__(
        self,
        sim: Simulator,
        duration: float,
        callback: Callable[..., Any],
        *args: Any,
        auto_start: bool = True,
    ) -> None:
        if duration <= 0:
            raise SimulationError(f"timeout duration must be positive, got {duration}")
        self.sim = sim
        self.duration = float(duration)
        self.callback = callback
        self.args = args
        self.expired = False
        self._pending: Optional[Event] = None
        if auto_start:
            self.restart()

    @property
    def armed(self) -> bool:
        """True if the deadline is currently counting down."""
        return self._pending is not None and self._pending.pending

    def restart(self, duration: Optional[float] = None) -> None:
        """(Re-)arm the deadline ``duration`` (default: original duration) from now."""
        if duration is not None:
            if duration <= 0:
                raise SimulationError("timeout duration must be positive")
            self.duration = float(duration)
        self.cancel()
        self.expired = False
        self._pending = self.sim.schedule(self.duration, self._expire)

    def cancel(self) -> None:
        """Disarm without firing."""
        if self._pending is not None and self._pending.pending:
            self._pending.cancel()
        self._pending = None

    def _expire(self) -> None:
        self.expired = True
        self._pending = None
        self.callback(*self.args)
