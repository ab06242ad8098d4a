"""Arrival-rate profiles: request rates composed from workload traces.

A service's offered traffic is a rate function ``rate(t) -> requests/second``.
Rather than invent a second shape vocabulary, a profile *reuses* the
utilization-trace kinds of :mod:`repro.workloads.traces` (``constant``,
``diurnal``, ``bursty``, ``spike``, ``replay``) as a
normalized shape in [0, 1] and scales it by ``peak_rps``:

* ``{"kind": "diurnal", "peak_rps": 400, "base": 0.2, "peak": 1.0, ...}`` --
  day/night user traffic;
* ``{"kind": "spike", "peak_rps": 900, "before": 0.1, "after": 1.0,
  "at": 600}`` -- a flash crowd;
* ``{"kind": "replay", "peak_rps": 250, "times": [...], "values": [...]}`` --
  trace-driven rates from recorded series.

Stochastic shapes pre-draw their randomness from the run's named stream at
construction (the trace-purity contract), so ``rate(t)`` is a pure function
of time and profiles stay byte-identical per seed.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.workloads.traces import UtilizationTrace, make_trace_factory


class RateProfile:
    """A request-rate function: a [0, 1] shape trace scaled by ``peak_rps``."""

    def __init__(self, shape: UtilizationTrace, peak_rps: float) -> None:
        if peak_rps < 0:
            raise ValueError("peak_rps must be non-negative")
        self.shape = shape
        self.peak_rps = float(peak_rps)

    def rate(self, t: float) -> float:
        """Offered arrival rate in requests/second at simulated time ``t``."""
        return self.peak_rps * float(self.shape(t))

    def __call__(self, t: float) -> float:
        return self.rate(t)


def compile_profile(params: Dict[str, object], rng: np.random.Generator) -> RateProfile:
    """Build a :class:`RateProfile` from a ``{"kind": ..., "peak_rps": ...}`` dict.

    All keys besides ``peak_rps`` pass through to
    :func:`~repro.workloads.traces.make_trace_factory`, so every registered
    trace kind (and its validation errors) works unchanged.
    """
    if "kind" not in params:
        raise ValueError(f"traffic profile needs a 'kind' key, got {params!r}")
    if "peak_rps" not in params:
        raise ValueError(f"traffic profile needs a 'peak_rps' key, got {params!r}")
    shape_params = {
        key: value for key, value in params.items() if key not in ("kind", "peak_rps")
    }
    factory = make_trace_factory(str(params["kind"]), **shape_params)
    return RateProfile(factory(rng), float(params["peak_rps"]))
