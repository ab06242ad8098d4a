"""The numpy first-fit loop: the oracle of the compiled step in ``ffd_step.c``.

:func:`first_fit_loop` is the packing loop ``repro.core.ffd.FirstFit`` ran
before the step moved to C, kept verbatim: one vectorized fit test over the
open hosts per VM, then one over the never-opened hosts.  The classes below
are the solvers with that loop in place of the kernel; the kernel must return
identical assignments and raise the same ``PlacementError`` text
(``tests/test_ffd_kernel.py``).  Nothing in ``src`` uses this module.
"""

from __future__ import annotations

import numpy as np

from repro.core.ffd import FirstFit, FirstFitDecreasing
from repro.core.placement import Placement, PlacementError


def first_fit_loop(demands: np.ndarray, capacities: np.ndarray, order: np.ndarray) -> Placement:
    placement = Placement(demands, capacities)
    residual = capacities.copy()
    # Hosts already holding at least one VM, in open order, and as a mask.
    opened = np.empty(capacities.shape[0], dtype=np.int64)
    is_open = np.zeros(capacities.shape[0], dtype=bool)
    n_open = 0
    for vm_index in order:
        demand = demands[vm_index]
        # First try hosts already in use (vectorized feasibility test).
        open_idx = opened[:n_open]
        hits = np.flatnonzero(np.all(residual[open_idx] >= demand - 1e-9, axis=1))
        if hits.size:
            host = int(open_idx[hits[0]])
        else:
            # Open the first still-empty host that fits.
            hits = np.flatnonzero(~is_open & np.all(residual >= demand - 1e-9, axis=1))
            if not hits.size:
                raise PlacementError(
                    f"first-fit could not place VM {int(vm_index)}: not enough hosts"
                )
            host = int(hits[0])
            opened[n_open] = host
            is_open[host] = True
            n_open += 1
        placement.assign(int(vm_index), host, check=False)
        residual[host] -= demand
    return placement


class ScalarFirstFit(FirstFit):
    """:class:`FirstFit` packing through :func:`first_fit_loop`."""

    _place = staticmethod(first_fit_loop)


class ScalarFirstFitDecreasing(FirstFitDecreasing):
    """:class:`FirstFitDecreasing` packing through :func:`first_fit_loop`."""

    _place = staticmethod(first_fit_loop)
