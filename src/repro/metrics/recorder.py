"""Time-series recording and event logging inside simulations."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.simulation.engine import Simulator
from repro.simulation.timers import PeriodicTimer


@dataclass(frozen=True)
class EventRecord:
    """One discrete event: a timestamp, a category and free-form details."""

    timestamp: float
    category: str
    details: dict


class EventLog:
    """Append-only log of discrete events (failures, elections, migrations...).

    Counts and per-category filtering are indexed at record time, so
    :meth:`count` is O(1) and :meth:`events` with a category copies only that
    category's records -- result collection calls both once per category, which
    used to scan the full log each time.
    """

    def __init__(self) -> None:
        self._records: List[EventRecord] = []
        self._counts: Counter = Counter()
        self._by_category: Dict[str, List[EventRecord]] = {}
        self._metric_family = None
        self._metric_handles: Dict[str, object] = {}

    def bind_metrics(self, registry) -> None:
        """Mirror the log into an ``events_total{category=...}`` counter family.

        Every :meth:`record` call feeds both the log and the registry, so the
        two event paths cannot drift.  Events recorded before binding are
        backfilled from the per-category counts.
        """
        self._metric_family = registry.counter(
            "events_total", help="Discrete events recorded in the event log."
        )
        for category, count in self._counts.items():
            self._metric_family.labels(category=category).inc(count)

    def record(self, timestamp: float, category: str, **details) -> EventRecord:
        """Append an event and return it."""
        record = EventRecord(timestamp=timestamp, category=category, details=details)
        self._records.append(record)
        self._counts[category] += 1
        index = self._by_category.get(category)
        if index is None:
            index = self._by_category[category] = []
        index.append(record)
        if self._metric_family is not None:
            handle = self._metric_handles.get(category)
            if handle is None:
                handle = self._metric_handles[category] = self._metric_family.labels(
                    category=category
                )
            handle.inc()
        return record

    def events(self, category: Optional[str] = None) -> List[EventRecord]:
        """All events, optionally filtered by category."""
        if category is None:
            return list(self._records)
        return list(self._by_category.get(category, ()))

    def count(self, category: Optional[str] = None) -> int:
        """Number of events (optionally of one category); O(1) either way."""
        if category is None:
            return len(self._records)
        return self._counts.get(category, 0)

    def categories(self) -> List[str]:
        """Distinct categories seen so far."""
        return sorted(self._counts)

    def __len__(self) -> int:
        return len(self._records)


class TimeSeries:
    """A named sequence of ``(time, value)`` samples with summary statistics."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._times: List[float] = []
        self._values: List[float] = []

    def append(self, time: float, value: float) -> None:
        """Add one sample; times must be non-decreasing."""
        if self._times and time < self._times[-1]:
            raise ValueError(f"non-monotonic time in series {self.name!r}")
        self._times.append(float(time))
        self._values.append(float(value))

    @property
    def times(self) -> np.ndarray:
        """Sample times as an array."""
        return np.asarray(self._times)

    @property
    def values(self) -> np.ndarray:
        """Sample values as an array."""
        return np.asarray(self._values)

    def __len__(self) -> int:
        return len(self._times)

    def latest(self) -> Optional[float]:
        """Most recent value, or None if empty."""
        return self._values[-1] if self._values else None

    def mean(self) -> float:
        """Arithmetic mean of the values (0 if empty)."""
        return float(np.mean(self._values)) if self._values else 0.0

    def min(self) -> float:
        """Minimum value (0 if empty)."""
        return float(np.min(self._values)) if self._values else 0.0

    def max(self) -> float:
        """Maximum value (0 if empty)."""
        return float(np.max(self._values)) if self._values else 0.0

    def time_weighted_mean(self) -> float:
        """Mean weighted by the duration each value was in force (piecewise constant)."""
        if len(self._times) < 2:
            return self.mean()
        times = np.asarray(self._times)
        values = np.asarray(self._values)
        durations = np.diff(times)
        if durations.sum() <= 0:
            return self.mean()
        return float(np.sum(values[:-1] * durations) / durations.sum())


class TimeSeriesRecorder:
    """Samples a set of named probes periodically inside a simulation."""

    def __init__(self, sim: Simulator, interval: float = 60.0) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.sim = sim
        self.interval = float(interval)
        self._probes: Dict[str, Callable[[], float]] = {}
        self._series: Dict[str, TimeSeries] = {}
        self._timer = PeriodicTimer(sim, interval, self.sample_all, name="ts-recorder")

    def add_probe(self, name: str, probe: Callable[[], float]) -> TimeSeries:
        """Register a probe callable sampled every interval; returns its series."""
        if name in self._probes:
            raise ValueError(f"probe {name!r} already registered")
        self._probes[name] = probe
        self._series[name] = TimeSeries(name)
        return self._series[name]

    def sample_all(self) -> None:
        """Sample every probe now (also called automatically by the timer)."""
        now = self.sim.now
        for name, probe in self._probes.items():
            self._series[name].append(now, float(probe()))

    def series(self, name: str) -> TimeSeries:
        """Retrieve a series by name."""
        return self._series[name]

    def stop(self) -> None:
        """Stop periodic sampling."""
        self._timer.stop()
