"""Resource-demand estimation.

A Group Manager receives a history of utilization samples per VM and must
produce a single demand vector to schedule on ("Resource (i.e. CPU, memory and
network utilization) demand estimation", paper Section II.A).  Every
deployment uses :class:`EwmaEstimator`, an exponentially weighted moving
average that tracks recent behaviour over the sliding estimation window of the
Snooze implementation.

The estimator is one array kernel, :meth:`EwmaEstimator.estimate_windows`: it
reduces a ``(m, n, d)`` block of ``m`` equal-length sample windows to ``m``
demand rows at once.  The scalar per-window form lives in
``tests/scalar_monitor.py``, the oracle the kernel is tested against.
"""

from __future__ import annotations

import numpy as np


#: Weight of the newest sample in each EWMA step.
EWMA_WEIGHT = 0.3


class EwmaEstimator:
    """Exponentially weighted moving average over the window (newest weighs most)."""

    def estimate_windows(self, windows: np.ndarray) -> np.ndarray:
        """Reduce a ``(m, n, d)`` block of equal-length windows (``n >= 1``) to ``(m, d)``."""
        weight = EWMA_WEIGHT
        estimate = windows[:, 0].copy()
        for position in range(1, windows.shape[1]):
            estimate = weight * windows[:, position] + (1.0 - weight) * estimate
        return estimate


def make_estimator(name: str) -> EwmaEstimator:
    """The estimator called ``name``; ``"ewma"`` is the only one."""
    if name.lower() != "ewma":
        raise ValueError(f"unknown estimator {name!r}; choose from ['ewma']")
    return EwmaEstimator()
