"""Core contribution: VM consolidation as vector bin packing.

The paper's second contribution (Section III) is a nature-inspired VM
consolidation algorithm based on Ant Colony Optimization, evaluated against
the First-Fit-Decreasing heuristic and the exact optimum (CPLEX in the paper,
an exact branch-and-bound solver here).  This package implements:

* :mod:`repro.core.placement` -- the solution representation
  (:class:`Placement`) shared by every algorithm and by the scheduling layer.
* :mod:`repro.core.base` -- the :class:`ConsolidationAlgorithm` interface and
  the :class:`ConsolidationResult` record (hosts used, runtime, iterations).
* :mod:`repro.core.aco` -- the ACO consolidation algorithm (pheromone matrix,
  probabilistic decision rule, cycles of batched ants, evaporation/
  reinforcement, parallel colonies, warm start).
* :mod:`repro.core.ffd` -- greedy baselines: First-Fit, Best-Fit and the FFD
  variants (single-dimension, L1, L2, product presorting), the offline
  comparators of the ACO colony; the live hierarchy consolidates with ACO.
* :mod:`repro.core.optimal` -- exact branch-and-bound vector bin packing with
  lower bounds, the stand-in for CPLEX on small instances.
* :mod:`repro.core.migration_plan` -- derive the ordered live migrations,
  as ``(vm_index, source_host, target_host)`` triples, turning a current
  placement into a target placement.
"""

from repro.core.placement import Placement, PlacementError
from repro.core.base import (
    ConsolidationAlgorithm,
    ConsolidationResult,
    lower_bound_hosts,
    validate_instance,
)
from repro.core.aco import ACOConsolidation, ACOParameters, PheromoneSummary
from repro.core.ffd import (
    BestFitDecreasing,
    FirstFit,
    FirstFitDecreasing,
    SortKey,
)
from repro.core.optimal import BranchAndBoundOptimal, OptimalResult
from repro.core.migration_plan import plan_migrations

#: Old name of :class:`ACOConsolidation`, kept only because ``bench/workloads.py``
#: imports it; goes with the next ``benchmark`` PR (ROADMAP item 2).
VectorizedACOConsolidation = ACOConsolidation

__all__ = [
    "Placement",
    "PlacementError",
    "ConsolidationAlgorithm",
    "ConsolidationResult",
    "lower_bound_hosts",
    "validate_instance",
    "ACOConsolidation",
    "ACOParameters",
    "PheromoneSummary",
    "FirstFit",
    "FirstFitDecreasing",
    "BestFitDecreasing",
    "SortKey",
    "BranchAndBoundOptimal",
    "OptimalResult",
    "plan_migrations",
]
