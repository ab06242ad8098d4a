"""CPU-utilization traces.

A trace is a callable ``trace(t) -> utilization fraction in [0, 1]`` attached
to a :class:`~repro.cluster.vm.VirtualMachine`.  Local Controllers sample it
when monitoring; the energy experiments (E5) need diurnal shapes, the
relocation experiments (E6) need bursts and spikes, and the consolidation
experiments use constant traces (demands equal to reservations), mirroring the
static bin-packing setting of the GRID'11 paper.

All traces are deterministic functions of time once constructed: stochastic
shapes pre-draw their randomness at construction so that re-evaluating
``trace(t)`` is pure (required because monitoring may sample the same instant
more than once, e.g. before and after a migration).
"""

from __future__ import annotations

import abc
from typing import Optional, Sequence

import numpy as np


class UtilizationTrace(abc.ABC):
    """Base class: a pure function from simulated time to utilization."""

    @abc.abstractmethod
    def __call__(self, t: float) -> float:
        """Utilization fraction in [0, 1] at simulated time ``t`` (seconds)."""


class ConstantTrace(UtilizationTrace):
    """Flat utilization -- the static-demand setting of the consolidation study."""

    def __init__(self, level: float = 1.0) -> None:
        if not (0.0 <= level <= 1.0):
            raise ValueError("level must be in [0, 1]")
        self.level = float(level)

    def __call__(self, t: float) -> float:  # noqa: ARG002 - time-invariant
        return self.level


class DiurnalTrace(UtilizationTrace):
    """Day/night sinusoidal load with configurable peak hour -- the E5 shape."""

    def __init__(
        self,
        base: float = 0.2,
        peak: float = 0.9,
        period: float = 86_400.0,
        peak_time: float = 14.0 * 3600.0,
        noise_std: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if not (0.0 <= base <= peak <= 1.0):
            raise ValueError("require 0 <= base <= peak <= 1")
        if period <= 0:
            raise ValueError("period must be positive")
        if noise_std > 0 and rng is None:
            raise ValueError("noise requires an rng")
        self.base = float(base)
        self.peak = float(peak)
        self.period = float(period)
        self.peak_time = float(peak_time)
        self.noise_std = float(noise_std)
        # Pre-draw one period of noise on a 5-minute grid for purity.
        if noise_std > 0:
            self._noise = rng.normal(0.0, noise_std, size=int(self.period // 300) + 1)
        else:
            self._noise = np.zeros(1)

    def __call__(self, t: float) -> float:
        phase = 2.0 * np.pi * ((t - self.peak_time) % self.period) / self.period
        level = self.base + (self.peak - self.base) * 0.5 * (1.0 + np.cos(phase))
        if self.noise_std > 0:
            index = int((t % self.period) // 300) % len(self._noise)
            level += self._noise[index]
        return float(np.clip(level, 0.0, 1.0))


class BurstyTrace(UtilizationTrace):
    """Low baseline with randomly placed high-utilization bursts (E6 overloads)."""

    def __init__(
        self,
        rng: np.random.Generator,
        baseline: float = 0.2,
        burst_level: float = 0.95,
        burst_rate_per_hour: float = 1.0,
        burst_duration: float = 300.0,
        horizon: float = 86_400.0,
    ) -> None:
        if not (0.0 <= baseline <= burst_level <= 1.0):
            raise ValueError("require 0 <= baseline <= burst_level <= 1")
        if burst_rate_per_hour < 0 or burst_duration <= 0 or horizon <= 0:
            raise ValueError("invalid burst parameters")
        self.baseline = float(baseline)
        self.burst_level = float(burst_level)
        self.burst_duration = float(burst_duration)
        expected_bursts = burst_rate_per_hour * horizon / 3600.0
        count = int(rng.poisson(expected_bursts)) if expected_bursts > 0 else 0
        self._burst_starts = np.sort(rng.uniform(0.0, horizon, size=count)) if count else np.empty(0)

    def __call__(self, t: float) -> float:
        if self._burst_starts.size:
            index = np.searchsorted(self._burst_starts, t, side="right") - 1
            if index >= 0 and t - self._burst_starts[index] <= self.burst_duration:
                return self.burst_level
        return self.baseline


class SpikeTrace(UtilizationTrace):
    """A single step from ``before`` to ``after`` at time ``at`` -- for targeted tests."""

    def __init__(self, before: float = 0.2, after: float = 0.95, at: float = 600.0) -> None:
        for value in (before, after):
            if not (0.0 <= value <= 1.0):
                raise ValueError("utilization levels must be in [0, 1]")
        self.before = float(before)
        self.after = float(after)
        self.at = float(at)

    def __call__(self, t: float) -> float:
        return self.after if t >= self.at else self.before


class TraceReplay(UtilizationTrace):
    """Replay an explicit ``(times, values)`` series with step interpolation.

    This is the hook for plugging in real traces (e.g. PlanetLab / Google CPU
    samples) when they are available; the reproduction ships synthetic series.
    """

    def __init__(self, times: Sequence[float], values: Sequence[float], loop: bool = False) -> None:
        times_arr = np.asarray(times, dtype=float)
        values_arr = np.asarray(values, dtype=float)
        if times_arr.ndim != 1 or times_arr.shape != values_arr.shape or times_arr.size == 0:
            raise ValueError("times and values must be equal-length non-empty 1-D sequences")
        if np.any(np.diff(times_arr) <= 0):
            raise ValueError("times must be strictly increasing")
        if np.any((values_arr < 0) | (values_arr > 1)):
            raise ValueError("values must be within [0, 1]")
        self.times = times_arr
        self.values = values_arr
        self.loop = bool(loop)

    def __call__(self, t: float) -> float:
        if self.loop:
            span = self.times[-1] - self.times[0]
            if span > 0:
                t = self.times[0] + ((t - self.times[0]) % span)
        index = int(np.searchsorted(self.times, t, side="right") - 1)
        index = int(np.clip(index, 0, len(self.values) - 1))
        return float(self.values[index])


#: Trace kind -> ``build(rng, **params)``; stochastic kinds (``bursty``, noisy
#: ``diurnal``) draw from the per-VM rng, deterministic ones ignore it.
_TRACE_KINDS: dict = {
    "bursty": BurstyTrace,
    "constant": lambda rng, **params: ConstantTrace(**params),
    "diurnal": lambda rng, **params: DiurnalTrace(rng=rng, **params),
    "replay": lambda rng, **params: TraceReplay(**params),
    "spike": lambda rng, **params: SpikeTrace(**params),
}


def make_trace_factory(kind: str, **params):
    """Build a ``factory(rng) -> UtilizationTrace`` from a trace kind and parameters.

    This is the declarative entry point the scenario engine uses; the kinds are
    the keys of ``_TRACE_KINDS`` (``bursty``, ``constant``, ``diurnal``,
    ``replay``, ``spike``).
    """
    try:
        build = _TRACE_KINDS[kind.lower()]
    except KeyError as exc:
        raise ValueError(
            f"unknown trace kind {kind!r}; available: {', '.join(sorted(_TRACE_KINDS))}"
        ) from exc
    return lambda rng: build(rng, **params)
