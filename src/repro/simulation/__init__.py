"""Discrete-event simulation kernel.

This package provides the substrate on which the whole reproduction runs:

* :class:`~repro.simulation.engine.Simulator` -- the event loop and clock.
* :class:`~repro.simulation.engine.Event` -- a scheduled callback, or a
  one-shot signal completed later (``sim.event()`` / ``sim.trigger()``) that
  listeners subscribe to: RPC deferred replies and trace span ends use it.
* :class:`~repro.simulation.timers.PeriodicTimer` -- repeating callbacks used
  for heartbeats, monitoring intervals and reconfiguration periods.
* :class:`~repro.simulation.randomness.RandomRouter` -- named, reproducible
  random streams derived from a single seed.

The paper's evaluation was performed on a real testbed (Grid'5000); this
kernel is the substitution that lets the same management-layer protocols run
on a laptop.
"""

from repro.simulation.engine import Event, Simulator, SimulationError
from repro.simulation.timers import PeriodicTimer
from repro.simulation.randomness import RandomRouter

__all__ = [
    "Event",
    "Simulator",
    "SimulationError",
    "PeriodicTimer",
    "RandomRouter",
]
