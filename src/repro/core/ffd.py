"""Greedy bin-packing baselines: First-Fit and the FFD family.

The paper criticizes consolidation approaches that "adopt simple greedy
algorithms such as variants of the First-Fit Decreasing (FFD) heuristic, which
tend to waste a lot of resources by presorting the VMs according to a single
dimension (e.g. CPU)".  To reproduce the comparison faithfully we implement
the single-dimension FFD the criticism targets *and* the stronger multi-
dimensional presorting variants (L1, L2, product), plus Best-Fit decreasing.
E1/E2 report the single-dimension CPU variant as "FFD" (the paper's baseline)
and the others as sensitivity rows.
"""

from __future__ import annotations

import ctypes
import enum
import functools
from pathlib import Path
from typing import Callable

import numpy as np

from repro import native
from repro.core.base import ConsolidationAlgorithm, ConsolidationResult, validate_instance
from repro.core.placement import FIT_TOLERANCE, Placement, PlacementError


class SortKey(enum.Enum):
    """How FFD presorts VMs before packing."""

    #: Sort by a single dimension (index 0 = CPU by convention) -- the paper's baseline.
    SINGLE_DIMENSION = "single"
    #: Sort by the sum of demand components.
    L1 = "l1"
    #: Sort by the Euclidean norm of the demand vector.
    L2 = "l2"
    #: Sort by the product of demand components (volume).
    PRODUCT = "product"
    #: Sort by the maximum component (bottleneck dimension).
    MAX = "max"


def _sort_order(demands: np.ndarray, key: SortKey, dimension: int) -> np.ndarray:
    """Indices of VMs in decreasing order of the chosen size measure."""
    if demands.shape[0] == 0:
        return np.empty(0, dtype=np.int64)
    if key is SortKey.SINGLE_DIMENSION:
        sizes = demands[:, dimension]
    elif key is SortKey.L1:
        sizes = demands.sum(axis=1)
    elif key is SortKey.L2:
        sizes = np.linalg.norm(demands, axis=1)
    elif key is SortKey.PRODUCT:
        sizes = np.prod(np.maximum(demands, 1e-12), axis=1)
    elif key is SortKey.MAX:
        sizes = demands.max(axis=1)
    else:  # pragma: no cover - exhaustive enum
        raise ValueError(f"unknown sort key {key}")
    # Stable sort keeps ties in input order => deterministic results.
    return np.argsort(-sizes, kind="stable")


@functools.cache
def _first_fit_step() -> Callable[..., int]:
    """``first_fit`` from ``ffd_step.c``, compiled on first use by :func:`repro.native.load`."""
    step = native.load(Path(__file__).with_name("ffd_step.c")).first_fit
    step.restype = ctypes.c_long
    pointers = [ctypes.c_void_p] * 3
    step.argtypes = [ctypes.c_long] * 3 + pointers + [ctypes.c_double] + pointers
    return step


def _first_fit(demands: np.ndarray, capacities: np.ndarray, order: np.ndarray) -> Placement:
    """First fit in open order: each VM of ``order`` on the first open host (in
    the order hosts were opened) with ``residual >= demand - FIT_TOLERANCE``
    in every dimension, else on the lowest never-opened host that fits.

    One call into ``ffd_step.c``; ``tests/scalar_ffd.py`` holds the numpy loop
    it replaced as the oracle.
    """
    n_vms, n_hosts = demands.shape[0], capacities.shape[0]
    order = np.ascontiguousarray(order, dtype=np.int64)
    rows = np.ascontiguousarray(demands)
    residual = np.array(capacities, order="C")
    opened = np.empty(n_hosts, dtype=np.int64)
    is_open = np.zeros(n_hosts, dtype=np.int8)
    assignment = np.full(n_vms, -1, dtype=np.int64)
    done = _first_fit_step()(
        n_vms, n_hosts, demands.shape[1], order.ctypes.data, rows.ctypes.data,
        residual.ctypes.data, FIT_TOLERANCE, opened.ctypes.data, is_open.ctypes.data,
        assignment.ctypes.data,
    )
    if done < 0:
        raise PlacementError(f"first-fit could not place VM {-1 - done}: not enough hosts")
    return Placement(demands, capacities, assignment)


class FirstFit(ConsolidationAlgorithm):
    """Plain First-Fit: place each VM (input order) on the first host that fits.

    This is the event-based placement policy Snooze ships for Group Managers
    (Section II.C "placement ... e.g. round robin or first-fit"); it is also
    the building block of FFD.  Hosts are tried in the order they were opened
    (the first VM placed on them), then the never-opened ones by index.
    """

    name = "first-fit"

    #: The packing step; the oracle in ``tests/scalar_ffd.py`` swaps it.
    _place = staticmethod(_first_fit)

    def solve(self, demands: np.ndarray, capacities: np.ndarray) -> ConsolidationResult:
        demands, capacities = validate_instance(demands, capacities)
        order = self._order(demands)

        def build() -> ConsolidationResult:
            return ConsolidationResult(
                placement=self._place(demands, capacities, order),
                algorithm=self.name,
                iterations=demands.shape[0],
            )

        return self._timed_solve(build, demands, capacities)

    def _order(self, demands: np.ndarray) -> np.ndarray:
        """The VM visiting order: input order."""
        return np.arange(demands.shape[0], dtype=np.int64)


class FirstFitDecreasing(FirstFit):
    """FFD: sort VMs by decreasing size, then First-Fit.

    ``sort_key=SortKey.SINGLE_DIMENSION`` with ``dimension=0`` reproduces the
    CPU-presorted FFD the paper uses as its baseline.
    """

    name = "ffd"

    def __init__(self, sort_key: SortKey = SortKey.SINGLE_DIMENSION, dimension: int = 0) -> None:
        self.sort_key = sort_key
        self.dimension = int(dimension)
        if sort_key is not SortKey.SINGLE_DIMENSION:
            self.name = f"ffd-{sort_key.value}"

    def _order(self, demands: np.ndarray) -> np.ndarray:
        if self.dimension >= demands.shape[1] and demands.shape[0] > 0:
            raise PlacementError(
                f"sort dimension {self.dimension} out of range for d={demands.shape[1]}"
            )
        return _sort_order(demands, self.sort_key, self.dimension)


class BestFitDecreasing(ConsolidationAlgorithm):
    """BFD: sort decreasing, place each VM on the *fullest* host it fits on.

    "Fullest" is measured by the remaining capacity after placement, summed
    over dimensions (smaller residual = better fit).
    """

    name = "bfd"

    def __init__(self, sort_key: SortKey = SortKey.L1) -> None:
        self.sort_key = sort_key

    def solve(self, demands: np.ndarray, capacities: np.ndarray) -> ConsolidationResult:
        demands, capacities = validate_instance(demands, capacities)

        def build() -> ConsolidationResult:
            placement = Placement(demands, capacities)
            residual = capacities.copy()
            used = np.zeros(capacities.shape[0], dtype=bool)
            order = _sort_order(demands, self.sort_key, 0)
            for vm_index in order:
                demand = demands[vm_index]
                fits = np.all(residual >= demand - 1e-9, axis=1)
                if not np.any(fits):
                    raise PlacementError(f"best-fit could not place VM {int(vm_index)}")
                # Residual slack after hypothetical placement, normalized per capacity.
                slack = ((residual - demand) / capacities).sum(axis=1)
                slack = np.where(fits, slack, np.inf)
                # Prefer already-used hosts by penalizing empty ones just enough
                # to break ties toward packing (keeps hosts_used minimal).
                slack = slack + np.where(used, 0.0, 1e-6)
                host = int(np.argmin(slack))
                placement.assign(int(vm_index), host, check=False)
                residual[host] -= demand
                used[host] = True
            return ConsolidationResult(
                placement=placement, algorithm=self.name, iterations=demands.shape[0]
            )

        return self._timed_solve(build, demands, capacities)
