"""Consolidation algorithm interface, result record and shared bounds.

Every algorithm consumes an instance ``(demands, capacities)`` and produces a
:class:`ConsolidationResult` wrapping a :class:`~repro.core.placement.Placement`
plus bookkeeping needed by the experiments: wall-clock runtime (charged as
computation energy in E2), iterations/cycles, and whether the run proved
optimality.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.placement import Placement, PlacementError


def validate_instance(demands: np.ndarray, capacities: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normalize and sanity-check an instance; returns float copies.

    Checks that every VM fits on at least one host *individually* -- the paper
    only considers feasible instances (a VM larger than every host can never
    be placed and would make "hosts used" meaningless).
    """
    demands = np.asarray(demands, dtype=float)
    capacities = np.asarray(capacities, dtype=float)
    if demands.ndim != 2 or capacities.ndim != 2:
        raise PlacementError("demands and capacities must be 2-D")
    if capacities.shape[0] == 0:
        raise PlacementError("need at least one host")
    if demands.shape[0] and demands.shape[1] != capacities.shape[1]:
        raise PlacementError("dimension mismatch between demands and capacities")
    if np.any(demands < 0):
        raise PlacementError("demands must be non-negative")
    if np.any(capacities <= 0):
        raise PlacementError("capacities must be strictly positive")
    if demands.shape[0]:
        # Hosts of one capacity row fit the same VMs: test each distinct row once.
        shapes = np.unique(capacities, axis=0)
        fits_somewhere = (demands[:, None, :] <= shapes[None, :, :] + 1e-9).all(axis=2).any(axis=1)
        if not np.all(fits_somewhere):
            bad = np.flatnonzero(~fits_somewhere)
            raise PlacementError(f"VMs {bad.tolist()} do not fit on any host")
    return demands, capacities


def lower_bound_hosts(demands: np.ndarray, capacities: np.ndarray) -> int:
    """A valid lower bound on the number of hosts any feasible packing needs.

    For homogeneous hosts this is the classic L1 bound per dimension,
    ``ceil(sum(demand_k) / capacity_k)``, maximized over dimensions k.  For
    heterogeneous hosts the bound uses the largest host capacity per
    dimension, which keeps it valid (if looser).
    """
    demands = np.asarray(demands, dtype=float)
    capacities = np.asarray(capacities, dtype=float)
    if demands.size == 0:
        return 0
    per_dimension_totals = demands.sum(axis=0)
    best_capacity = capacities.max(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(best_capacity > 0, per_dimension_totals / best_capacity, 0.0)
    return int(np.max(np.ceil(ratios - 1e-9))) if ratios.size else 0


@dataclass
class ConsolidationResult:
    """Outcome of one consolidation run."""

    placement: Placement
    algorithm: str
    runtime_seconds: float = 0.0
    iterations: int = 0
    #: True when the algorithm proved its solution optimal (only the B&B solver).
    proved_optimal: bool = False
    #: Objective trajectory (best hosts-used per cycle) for convergence plots.
    history: list = field(default_factory=list)
    #: Free-form extras (pheromone stats, nodes explored, ...).
    extra: dict = field(default_factory=dict)

    @property
    def hosts_used(self) -> int:
        """Number of hosts the returned placement uses."""
        return self.placement.hosts_used()

    @property
    def feasible(self) -> bool:
        """Whether the returned placement respects all capacities and places all VMs."""
        return self.placement.fully_assigned and self.placement.is_feasible()

    def summary(self) -> dict:
        """Flat dictionary for report tables."""
        return {
            "algorithm": self.algorithm,
            "hosts_used": self.hosts_used,
            "feasible": self.feasible,
            "runtime_seconds": self.runtime_seconds,
            "iterations": self.iterations,
            "proved_optimal": self.proved_optimal,
            "average_utilization": self.placement.average_utilization(),
        }


class ConsolidationAlgorithm(abc.ABC):
    """Interface every consolidation/placement algorithm implements."""

    #: Human-readable algorithm name used in reports.
    name: str = "base"

    @abc.abstractmethod
    def solve(self, demands: np.ndarray, capacities: np.ndarray) -> ConsolidationResult:
        """Pack all VMs onto hosts, minimizing the number of hosts used."""

    def consolidate(self, placement: Placement) -> ConsolidationResult:
        """Re-pack an existing placement's VMs (the periodic reconfiguration entry point)."""
        return self.solve(placement.demands, placement.capacities)

    def _timed_solve(self, builder, demands: np.ndarray, capacities: np.ndarray) -> ConsolidationResult:
        """Run ``builder()`` under a wall-clock timer and stamp the result."""
        start = time.perf_counter()
        result = builder()
        result.runtime_seconds = time.perf_counter() - start
        result.algorithm = self.name
        return result

    def __repr__(self) -> str:
        return f"<{type(self).__name__} name={self.name!r}>"
