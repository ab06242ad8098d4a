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

import enum
from typing import Optional

import numpy as np

from repro.core.base import ConsolidationAlgorithm, ConsolidationResult, validate_instance
from repro.core.placement import Placement, PlacementError


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


class FirstFit(ConsolidationAlgorithm):
    """Plain First-Fit: place each VM (input order) on the first host that fits.

    This is the event-based placement policy Snooze ships for Group Managers
    (Section II.C "placement ... e.g. round robin or first-fit"); it is also
    the building block of FFD.
    """

    name = "first-fit"

    def __init__(self, order: Optional[np.ndarray] = None) -> None:
        #: Optional explicit VM visiting order (used by the FFD subclasses).
        self._order = order

    def solve(self, demands: np.ndarray, capacities: np.ndarray) -> ConsolidationResult:
        demands, capacities = validate_instance(demands, capacities)

        def build() -> ConsolidationResult:
            placement = Placement(demands, capacities)
            residual = capacities.copy()
            order = (
                self._order
                if self._order is not None
                else np.arange(demands.shape[0], dtype=np.int64)
            )
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
            return ConsolidationResult(
                placement=placement,
                algorithm=self.name,
                iterations=demands.shape[0],
            )

        return self._timed_solve(build, demands, capacities)


class FirstFitDecreasing(FirstFit):
    """FFD: sort VMs by decreasing size, then First-Fit.

    ``sort_key=SortKey.SINGLE_DIMENSION`` with ``dimension=0`` reproduces the
    CPU-presorted FFD the paper uses as its baseline.
    """

    name = "ffd"

    def __init__(self, sort_key: SortKey = SortKey.SINGLE_DIMENSION, dimension: int = 0) -> None:
        super().__init__(order=None)
        self.sort_key = sort_key
        self.dimension = int(dimension)
        if sort_key is not SortKey.SINGLE_DIMENSION:
            self.name = f"ffd-{sort_key.value}"

    def solve(self, demands: np.ndarray, capacities: np.ndarray) -> ConsolidationResult:
        demands_checked, capacities_checked = validate_instance(demands, capacities)
        if self.dimension >= demands_checked.shape[1] and demands_checked.shape[0] > 0:
            raise PlacementError(
                f"sort dimension {self.dimension} out of range for d={demands_checked.shape[1]}"
            )
        self._order = _sort_order(demands_checked, self.sort_key, self.dimension)
        try:
            return super().solve(demands_checked, capacities_checked)
        finally:
            self._order = None


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
