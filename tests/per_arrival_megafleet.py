"""One-arrival-at-a-time megafleet loops: the oracles the batched code is tested against.

``first_fit_per_arrival`` is the group's placement loop as the engine ran it
before placement became one :func:`repro.core.placement.first_fit` call per
group and epoch (six numpy calls per arrival); ``dispatch_per_arrival`` is the
coordinator's least-loaded loop before it became a heap
(:func:`repro.megafleet.engine.least_loaded`, one ``np.argmax`` over every
group per arrival).  ``tests/test_first_fit_kernel.py`` requires the batched
forms to give bit-for-bit the same answers; nothing in ``src`` uses this
module.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.placement import FIT_TOLERANCE


def first_fit_per_arrival(
    arrivals_req: np.ndarray,
    reserved: np.ndarray,
    capacities: np.ndarray,
    placeable: Optional[np.ndarray] = None,
) -> Tuple[List[int], np.ndarray]:
    """The row each arrival lands on (-1: rejected) and the reservations after."""
    reserved = reserved.copy()
    hits = []
    limit = capacities + FIT_TOLERANCE
    for row in range(arrivals_req.shape[0]):
        demand = arrivals_req[row]
        fits = (reserved + demand <= limit).all(axis=1)
        if placeable is not None:
            fits &= placeable
        hit = int(np.argmax(fits)) if fits.any() else -1
        hits.append(hit)
        if hit < 0:
            continue
        reserved[hit] += demand
    return hits, reserved


def dispatch_per_arrival(
    free_cpu: Sequence[float], cpu_demands: Sequence[float]
) -> Tuple[np.ndarray, np.ndarray]:
    """The group each demand is dispatched to (-1: refused) and the projected free CPU."""
    projected_free = np.asarray(free_cpu, dtype=float).copy()
    targets = np.full(len(cpu_demands), -1, dtype=np.int64)
    for row, cpu_demand in enumerate(cpu_demands):
        target = int(np.argmax(projected_free))
        if projected_free[target] < cpu_demand:
            continue
        projected_free[target] -= cpu_demand
        targets[row] = target
    return targets, projected_free
