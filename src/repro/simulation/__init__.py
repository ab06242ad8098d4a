"""Discrete-event simulation kernel.

This package provides the substrate on which the whole reproduction runs:

* :class:`~repro.simulation.engine.Simulator` -- the event loop and clock.
* :class:`~repro.simulation.engine.Event` -- a scheduled callback.
* :class:`~repro.simulation.process.Process` -- generator-based cooperative
  processes (``yield`` a delay to sleep, ``yield`` an event to wait on it).
* :class:`~repro.simulation.timers.PeriodicTimer` -- repeating callbacks used
  for heartbeats, monitoring intervals and reconfiguration periods.
* :class:`~repro.simulation.randomness.RandomRouter` -- named, reproducible
  random streams derived from a single seed.

The paper's evaluation was performed on a real testbed (Grid'5000); this
kernel is the substitution that lets the same management-layer protocols run
on a laptop.
"""

from repro.simulation.engine import Event, EventCancelled, Simulator, SimulationError
from repro.simulation.process import Process, ProcessKilled, sleep, wait
from repro.simulation.timers import PeriodicTimer
from repro.simulation.randomness import RandomRouter

__all__ = [
    "Event",
    "EventCancelled",
    "Simulator",
    "SimulationError",
    "Process",
    "ProcessKilled",
    "sleep",
    "wait",
    "PeriodicTimer",
    "RandomRouter",
]
