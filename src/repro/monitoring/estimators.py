"""Resource-demand estimators.

A Group Manager receives a history of utilization samples per VM and must
produce a single demand vector to schedule on ("Resource (i.e. CPU, memory and
network utilization) demand estimation", paper Section II.A).  The estimator
choice trades packing density against overload risk:

* :class:`MaxEstimator` is conservative (no overload from estimation error,
  poorest packing),
* :class:`MeanEstimator` is aggressive,
* :class:`EwmaEstimator` tracks recent behaviour (the default, matching the
  sliding estimation window of the Snooze implementation),
* :class:`PercentileEstimator` gives an explicit knob (e.g. p95).

Each estimator is one array kernel, :meth:`DemandEstimator.estimate_windows`:
it reduces a ``(m, n, d)`` block of ``m`` equal-length sample windows to ``m``
demand rows at once.  The scalar per-window forms live in
``tests/scalar_monitor.py``, the oracle the kernels are tested against.
"""

from __future__ import annotations

import abc
import numpy as np


class DemandEstimator(abc.ABC):
    """Base class mapping sample windows to demand estimates."""

    name: str = "base"

    @abc.abstractmethod
    def estimate_windows(self, windows: np.ndarray) -> np.ndarray:
        """Reduce a ``(m, n, d)`` block of equal-length windows (``n >= 1``) to ``(m, d)``."""


class MeanEstimator(DemandEstimator):
    """Arithmetic mean of the sample window."""

    name = "mean"

    def estimate_windows(self, windows: np.ndarray) -> np.ndarray:
        return windows.mean(axis=1)


class MaxEstimator(DemandEstimator):
    """Per-dimension maximum -- the most conservative estimate."""

    name = "max"

    def estimate_windows(self, windows: np.ndarray) -> np.ndarray:
        return windows.max(axis=1)


class EwmaEstimator(DemandEstimator):
    """Exponentially weighted moving average over the window (newest weighs most)."""

    name = "ewma"

    def __init__(self, alpha: float = 0.3) -> None:
        if not (0.0 < alpha <= 1.0):
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = float(alpha)

    def estimate_windows(self, windows: np.ndarray) -> np.ndarray:
        alpha = self.alpha
        estimate = windows[:, 0].copy()
        for position in range(1, windows.shape[1]):
            estimate = alpha * windows[:, position] + (1.0 - alpha) * estimate
        return estimate


class PercentileEstimator(DemandEstimator):
    """Per-dimension percentile of the window (p95 by default)."""

    name = "percentile"

    def __init__(self, percentile: float = 95.0) -> None:
        if not (0.0 < percentile <= 100.0):
            raise ValueError("percentile must be in (0, 100]")
        self.percentile = float(percentile)

    def estimate_windows(self, windows: np.ndarray) -> np.ndarray:
        return np.percentile(windows, self.percentile, axis=1)


def make_estimator(name: str, **kwargs) -> DemandEstimator:
    """Factory keyed by estimator name (used by configuration and the CLI)."""
    registry = {
        "mean": MeanEstimator,
        "max": MaxEstimator,
        "ewma": EwmaEstimator,
        "percentile": PercentileEstimator,
    }
    try:
        cls = registry[name.lower()]
    except KeyError as exc:
        raise ValueError(f"unknown estimator {name!r}; choose from {sorted(registry)}") from exc
    return cls(**kwargs)
