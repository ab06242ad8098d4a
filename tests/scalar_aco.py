"""Scalar per-ant ACO loop: the quality oracle the colony kernel is tested against.

One Python-level ``_choose_vm`` call per ant and VM -- the straightforward
implementation of the paper's Section III.A description (pheromone on VM-host
pairs, the probabilistic decision rule with a fill heuristic, Max-Min
evaporation/reinforcement).  ``repro.core.aco.ACOConsolidation`` batches the
same algorithm over all ants of a cycle and must pack **no worse** on
identical seeds (``tests/test_core_aco_vectorized.py``); nothing in ``src``
uses this class.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.aco import ACOParameters
from repro.core.base import (
    ConsolidationAlgorithm,
    ConsolidationResult,
    lower_bound_hosts,
    validate_instance,
)
from repro.core.placement import Placement, PlacementError


class ScalarACOConsolidation(ConsolidationAlgorithm):
    """ACO-based VM consolidation (vector bin packing)."""

    name = "aco-scalar"

    def __init__(
        self,
        parameters: Optional[ACOParameters] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.parameters = parameters or ACOParameters()
        self.rng = rng or np.random.default_rng(0)

    # ------------------------------------------------------------------ public
    def solve(self, demands: np.ndarray, capacities: np.ndarray) -> ConsolidationResult:
        demands, capacities = validate_instance(demands, capacities)
        return self._timed_solve(lambda: self._run(demands, capacities), demands, capacities)

    # ----------------------------------------------------------------- private
    def _run(self, demands: np.ndarray, capacities: np.ndarray) -> ConsolidationResult:
        params = self.parameters
        n_vms = demands.shape[0]
        n_hosts = capacities.shape[0]
        if n_vms == 0:
            return ConsolidationResult(
                placement=Placement(demands, capacities), algorithm=self.name
            )

        bound = lower_bound_hosts(demands, capacities)
        # Pheromone on VM-host pairs (the matrix the paper describes).
        pheromone = np.full((n_vms, n_hosts), params.tau_initial, dtype=float)

        best_assignment: Optional[np.ndarray] = None
        best_hosts = np.inf
        best_quality = -np.inf
        history: list[int] = []
        cycles_run = 0
        cycles_without_improvement = 0

        for cycle in range(params.n_cycles):
            cycles_run = cycle + 1
            cycle_best_assignment = None
            cycle_best_hosts = np.inf
            cycle_best_quality = -np.inf

            for _ in range(params.n_ants):
                assignment = self._construct_solution(demands, capacities, pheromone)
                hosts_used, quality = self._evaluate(assignment, demands, capacities)
                if hosts_used < cycle_best_hosts or (
                    hosts_used == cycle_best_hosts and quality > cycle_best_quality
                ):
                    cycle_best_assignment = assignment
                    cycle_best_hosts = hosts_used
                    cycle_best_quality = quality

            improved = cycle_best_hosts < best_hosts or (
                cycle_best_hosts == best_hosts and cycle_best_quality > best_quality
            )
            if improved:
                best_assignment = cycle_best_assignment
                best_hosts = cycle_best_hosts
                best_quality = cycle_best_quality
                cycles_without_improvement = 0
            else:
                cycles_without_improvement += 1

            history.append(int(best_hosts))
            self._update_pheromone(pheromone, best_assignment, best_quality, demands, capacities)

            if params.stop_at_lower_bound and best_hosts <= bound:
                break
            if (
                params.stagnation_cycles is not None
                and cycles_without_improvement >= params.stagnation_cycles
            ):
                break

        if best_assignment is None:  # pragma: no cover - defensive, ants always build something
            raise PlacementError("ACO failed to construct any feasible solution")

        placement = Placement(demands, capacities, best_assignment)
        return ConsolidationResult(
            placement=placement,
            algorithm=self.name,
            iterations=cycles_run,
            proved_optimal=bool(best_hosts <= bound),
            history=history,
            extra={
                "lower_bound": bound,
                "best_quality": float(best_quality),
                "pheromone_mean": float(pheromone.mean()),
                "pheromone_min": float(pheromone.min()),
                "pheromone_max": float(pheromone.max()),
                "cycles_without_improvement": cycles_without_improvement,
            },
        )

    # ------------------------------------------------------- solution building
    def _construct_solution(
        self, demands: np.ndarray, capacities: np.ndarray, pheromone: np.ndarray
    ) -> np.ndarray:
        """One ant builds a complete assignment, filling hosts one at a time."""
        n_vms = demands.shape[0]
        n_hosts = capacities.shape[0]
        assignment = np.full(n_vms, -1, dtype=np.int64)
        unassigned = np.ones(n_vms, dtype=bool)

        host = 0
        residual = capacities[host].copy()
        while unassigned.any():
            candidate_indices = np.flatnonzero(unassigned)
            fits = np.all(demands[candidate_indices] <= residual + 1e-9, axis=1)
            feasible = candidate_indices[fits]
            if feasible.size == 0:
                # Current host cannot take any remaining VM: move to the next host.
                host += 1
                if host >= n_hosts:
                    raise PlacementError(
                        "instance has too few hosts for the remaining VMs (ACO construction)"
                    )
                residual = capacities[host].copy()
                continue

            chosen = self._choose_vm(feasible, host, residual, demands, pheromone, capacities)
            assignment[chosen] = host
            unassigned[chosen] = False
            residual = residual - demands[chosen]
        return assignment

    def _choose_vm(
        self,
        feasible: np.ndarray,
        host: int,
        residual: np.ndarray,
        demands: np.ndarray,
        pheromone: np.ndarray,
        capacities: np.ndarray,
    ) -> int:
        """Apply the probabilistic decision rule over the feasible VM set."""
        params = self.parameters
        tau = pheromone[feasible, host]
        eta = self._heuristic(feasible, residual, demands, capacities[host])
        scores = np.power(tau, params.alpha) * np.power(eta, params.beta)
        # Guard against numerical underflow making every score zero.
        if not np.any(scores > 0):
            scores = np.ones_like(scores)

        if self.rng.random() < params.q0:
            # Exploitation: pick the best-scoring VM deterministically.
            return int(feasible[int(np.argmax(scores))])
        probabilities = scores / scores.sum()
        return int(self.rng.choice(feasible, p=probabilities))

    @staticmethod
    def _heuristic(
        feasible: np.ndarray, residual: np.ndarray, demands: np.ndarray, capacity: np.ndarray
    ) -> np.ndarray:
        """Heuristic information: how well each candidate VM fills the remaining capacity.

        The value is the normalized L1 gap between the host's residual capacity
        and the VM demand, inverted so that a near-perfect fill scores close to
        1 and a tiny VM in an empty host scores low.  This is the "heuristic
        information which guides the ants towards choosing VMs leading to
        better overall host utilization" from the paper.
        """
        gaps = np.sum(np.abs(residual[np.newaxis, :] - demands[feasible]), axis=1)
        normalizer = float(np.sum(capacity))
        if normalizer <= 0:
            return np.ones(feasible.shape[0])
        return 1.0 / (1.0 + gaps / normalizer)

    # ------------------------------------------------------------- evaluation
    def _evaluate(
        self, assignment: np.ndarray, demands: np.ndarray, capacities: np.ndarray
    ) -> tuple[int, float]:
        """Return ``(hosts_used, quality)`` for a complete assignment.

        Quality is the Falkenauer-style packing measure: the mean of per-used-
        host utilizations raised to ``quality_exponent``.  It rewards tightly
        filled hosts and is used for tie-breaking among solutions with equal
        host counts and for sizing the pheromone reinforcement.
        """
        loads = np.zeros_like(capacities)
        np.add.at(loads, assignment, demands)
        used_mask = loads.sum(axis=1) > 0
        hosts_used = int(np.count_nonzero(used_mask))
        if hosts_used == 0:
            return 0, 0.0
        utilization = loads[used_mask] / capacities[used_mask]
        quality = float(np.mean(np.mean(utilization, axis=1) ** self.parameters.quality_exponent))
        return hosts_used, quality

    def _update_pheromone(
        self,
        pheromone: np.ndarray,
        best_assignment: Optional[np.ndarray],
        best_quality: float,
        demands: np.ndarray,
        capacities: np.ndarray,
    ) -> None:
        """Evaporate everywhere, then reinforce the global-best VM-host pairs."""
        params = self.parameters
        pheromone *= 1.0 - params.rho
        if best_assignment is not None:
            hosts_used = int(np.unique(best_assignment[best_assignment >= 0]).size)
            if hosts_used > 0:
                # Deposit proportional to solution quality so better (fuller)
                # solutions leave stronger trails.  The deposit is independent
                # of instance size: quality is already a per-host mean in
                # [0, 1], so the evaporation/deposit equilibrium
                # ``delta / rho = 1 + quality`` stays strictly below
                # ``tau_max`` instead of clipping every reinforced pair to the
                # ceiling on large instances (which degenerated the Max-Min
                # search into a frozen trail).
                delta = params.rho * (1.0 + max(best_quality, 0.0))
                vm_indices = np.arange(best_assignment.shape[0])
                pheromone[vm_indices, best_assignment] += delta
        np.clip(pheromone, params.tau_min, params.tau_max, out=pheromone)
