"""Distributed ACO consolidation (the paper's stated future work).

Section V of the paper: "In the future we plan to integrate the proposed
algorithm in Snooze.  Moreover, a distributed version of the algorithm will be
developed".  This module provides that distributed variant in the form the
Snooze architecture naturally suggests: the cluster is partitioned into groups
(one per Group Manager), each group runs the *centralized* ACO algorithm on
its own VMs and hosts independently (in a real deployment: in parallel on the
GMs), and an optional lightweight **exchange round** then lets adjacent groups
shed their least-utilized host's VMs into another group's spare capacity.

Compared to the centralized algorithm the distributed variant trades packing
quality for scalability:

* each sub-problem is a factor ``n_partitions`` smaller, so construction cost
  per cycle drops roughly quadratically, and
* no global pheromone matrix is required, which is what makes the approach
  feasible across Group Managers that only know their own Local Controllers.

``tests/test_core_distributed_aco.py`` pins the trade-off: a single partition
matches the centralized algorithm, and several stay within a few hosts of FFD.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core.aco import ACOConsolidation, ACOParameters
from repro.core.base import ConsolidationAlgorithm, ConsolidationResult, validate_instance
from repro.core.placement import Placement, PlacementError
from repro.simulation.randomness import spawn_seed_sequences
from repro.workers import Workers


@dataclass(frozen=True)
class PartitionResult:
    """Bookkeeping for one partition's local consolidation run."""

    partition_index: int
    vm_indices: np.ndarray
    host_indices: np.ndarray
    hosts_used: int
    runtime_seconds: float


def solve_partition(payload: Dict[str, object]) -> Dict[str, object]:
    """Run one partition's local colony; module-level so workers can pickle it.

    The per-partition generator is rebuilt from the ``SeedSequence`` child
    identity carried in the payload (entropy + spawn key), so the outcome is
    identical no matter which worker process -- or how many -- runs it.
    """
    parameters = ACOParameters(**payload["parameters"])
    seed = np.random.SeedSequence(
        entropy=payload["seed_entropy"], spawn_key=tuple(payload["seed_spawn_key"])
    )
    result = ACOConsolidation(parameters, rng=np.random.default_rng(seed)).solve(
        np.asarray(payload["demands"], dtype=float),
        np.asarray(payload["capacities"], dtype=float),
    )
    return {
        "assignment": result.placement.assignment,
        "hosts_used": result.hosts_used,
        "runtime_seconds": result.runtime_seconds,
        "iterations": result.iterations,
    }


class DistributedACOConsolidation(ConsolidationAlgorithm):
    """Partitioned ACO: one independent colony per Group Manager.

    Parameters
    ----------
    n_partitions:
        Number of groups to split the instance into (the number of Group
        Managers in the Snooze deployment being modelled).
    parameters:
        ACO parameters used by every partition's local colony.
    exchange_round:
        When True (default), after the local runs each partition offers the
        VMs of its single least-utilized used host to the other partitions'
        residual capacity (first-fit over already-used hosts); a host is only
        emptied if *all* of its VMs can be absorbed elsewhere, mirroring the
        all-or-nothing rule of underload relocation.
    rng:
        Random generator used both for partitioning and for the single entropy
        draw that seeds the per-partition colonies.  Partition generators are
        derived from ``SeedSequence.spawn`` children of that draw (the
        :mod:`repro.simulation.randomness` discipline), so the run is
        deterministic given the generator state, the partition streams are
        statistically independent, and the result does not depend on ``jobs``.
    jobs:
        Worker processes for the partition fan-out (1 = in-process, the
        default); in a real deployment each partition runs on its own Group
        Manager, which this models.
    """

    name = "distributed-aco"

    def __init__(
        self,
        n_partitions: int = 2,
        parameters: Optional[ACOParameters] = None,
        exchange_round: bool = True,
        rng: Optional[np.random.Generator] = None,
        jobs: int = 1,
    ) -> None:
        if n_partitions <= 0:
            raise ValueError("n_partitions must be positive")
        if jobs <= 0:
            raise ValueError("jobs must be positive")
        self.n_partitions = int(n_partitions)
        self.parameters = parameters or ACOParameters()
        self.exchange_round = bool(exchange_round)
        self.rng = rng or np.random.default_rng(0)
        self.jobs = int(jobs)

    # ------------------------------------------------------------------ solve
    def solve(self, demands: np.ndarray, capacities: np.ndarray) -> ConsolidationResult:
        demands, capacities = validate_instance(demands, capacities)
        return self._timed_solve(lambda: self._run(demands, capacities), demands, capacities)

    def _run(self, demands: np.ndarray, capacities: np.ndarray) -> ConsolidationResult:
        n_vms = demands.shape[0]
        n_hosts = capacities.shape[0]
        partitions = min(self.n_partitions, n_hosts)
        if n_vms == 0:
            return ConsolidationResult(placement=Placement(demands, capacities), algorithm=self.name)

        vm_parts, host_parts = self._partition(n_vms, n_hosts, partitions, demands, capacities)
        assignment = np.full(n_vms, -1, dtype=np.int64)
        partition_results: List[PartitionResult] = []
        total_cycles = 0

        # One entropy draw, then one SeedSequence child per partition: the
        # per-partition generators are derived before any fan-out, so the
        # result is deterministic in the incoming generator state, free of
        # the seed-collision hazard of ``default_rng(rng.integers(...))``,
        # and independent of how many worker processes run the partitions.
        entropy = int(self.rng.integers(0, 2**63 - 1))
        seeds = spawn_seed_sequences(entropy, partitions)
        payloads = []
        occupied = []
        for index, (vm_indices, host_indices) in enumerate(zip(vm_parts, host_parts)):
            if vm_indices.size == 0:
                continue
            occupied.append(index)
            payloads.append(
                {
                    "demands": demands[vm_indices],
                    "capacities": capacities[host_indices],
                    "parameters": asdict(self.parameters),
                    "seed_entropy": seeds[index].entropy,
                    "seed_spawn_key": tuple(seeds[index].spawn_key),
                }
            )
        with Workers(self.jobs) as workers:
            outcomes = workers.map(solve_partition, payloads)
        outcome_by_index = dict(zip(occupied, outcomes))

        for index, (vm_indices, host_indices) in enumerate(zip(vm_parts, host_parts)):
            outcome = outcome_by_index.get(index)
            if outcome is None:
                partition_results.append(
                    PartitionResult(index, vm_indices, host_indices, 0, 0.0)
                )
                continue
            total_cycles += outcome["iterations"]
            # Translate local host indices back to the global numbering.
            assignment[vm_indices] = host_indices[outcome["assignment"]]
            partition_results.append(
                PartitionResult(
                    index,
                    vm_indices,
                    host_indices,
                    outcome["hosts_used"],
                    outcome["runtime_seconds"],
                )
            )

        placement = Placement(demands, capacities, assignment)
        exchanged = 0
        if self.exchange_round and partitions > 1:
            exchanged = self._exchange_round(placement)

        return ConsolidationResult(
            placement=placement,
            algorithm=self.name,
            iterations=total_cycles,
            extra={
                "partitions": partitions,
                "partition_hosts_used": [result.hosts_used for result in partition_results],
                "partition_runtimes": [result.runtime_seconds for result in partition_results],
                "exchange_migrations": exchanged,
                "jobs": self.jobs,
            },
        )

    # -------------------------------------------------------------- partition
    def _partition(
        self,
        n_vms: int,
        n_hosts: int,
        partitions: int,
        demands: np.ndarray,
        capacities: np.ndarray,
    ) -> tuple[List[np.ndarray], List[np.ndarray]]:
        """Split VMs and hosts into groups of balanced aggregate size.

        Hosts are dealt round-robin (groups get equal shares of the pool);
        VMs are sorted by decreasing size and dealt to the group with the
        smallest accumulated demand, so no group is asked to pack more than
        its proportional share (which would make its sub-problem infeasible).
        """
        host_parts = [np.arange(part, n_hosts, partitions, dtype=np.int64) for part in range(partitions)]
        vm_order = np.argsort(-demands.sum(axis=1), kind="stable")
        vm_bins: List[list] = [[] for _ in range(partitions)]
        loads = np.zeros(partitions)
        capacity_share = np.array([capacities[part_hosts].sum() for part_hosts in host_parts])
        capacity_share = np.where(capacity_share > 0, capacity_share, 1e-9)
        for vm in vm_order:
            # Relative headroom: pick the partition with the lowest load/capacity ratio.
            target = int(np.argmin(loads / capacity_share))
            vm_bins[target].append(int(vm))
            loads[target] += demands[vm].sum()
        vm_parts = [np.asarray(sorted(bucket), dtype=np.int64) for bucket in vm_bins]
        return vm_parts, host_parts

    # --------------------------------------------------------------- exchange
    def _exchange_round(self, placement: Placement) -> int:
        """Cross-partition host-release pass; returns the number of VMs moved."""
        moved = 0
        residual = placement.residual_capacities()
        used_hosts = placement.used_host_indices()
        if used_hosts.size <= 1:
            return 0
        # Least-utilized used host first (the cheapest host to empty).
        loads = placement.host_loads()
        utilization = (loads[used_hosts] / placement.capacities[used_hosts]).mean(axis=1)
        for host in used_hosts[np.argsort(utilization)]:
            vms = placement.vms_on_host(int(host))
            if vms.size == 0:
                continue
            # Tentatively place every VM of this host somewhere else (first-fit
            # over other used hosts); all-or-nothing.
            staged: List[tuple] = []
            staged_residual = residual.copy()
            feasible = True
            for vm in vms:
                demand = placement.demands[vm]
                candidates = [
                    int(other)
                    for other in placement.used_host_indices()
                    if other != host and np.all(staged_residual[other] >= demand - 1e-9)
                ]
                if not candidates:
                    feasible = False
                    break
                destination = candidates[0]
                staged.append((int(vm), destination))
                staged_residual[destination] -= demand
            if not feasible:
                continue
            for vm, destination in staged:
                placement.assignment[vm] = destination
                moved += 1
            residual = placement.residual_capacities()
        if not placement.is_feasible():  # pragma: no cover - defensive
            raise PlacementError("exchange round produced an infeasible placement")
        return moved
