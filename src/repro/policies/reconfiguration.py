"""Periodic reconfiguration policies (kind ``reconfiguration``).

Paper Section II.C: "reconfiguration policies can be specified which will be
called periodically according to the system administrator specified interval
to further optimize the VM placement of moderately loaded nodes. For example,
a VM consolidation policy can be enabled to weekly optimize the VM placement
by packing VMs on as few nodes as possible."

The :class:`ReconfigurationPolicy` glues three pieces together:

1. select the hosts that may participate (powered-on, not overloaded -- the
   paper restricts reconfiguration to moderately loaded nodes so that hot
   hosts are handled by overload relocation instead);
2. run a consolidation algorithm from :mod:`repro.core` over the
   participating hosts' VMs;
3. translate the new placement into an ordered
   :class:`~repro.policies.decisions.MigrationPlan` and report which hosts the
   plan frees entirely (candidates for suspension).

The **bridge** at the bottom registers the paper's consolidation algorithm,
the ACO colony of :mod:`repro.core.aco`, as the ``aco`` reconfiguration
policy, so scenarios run ACO-driven periodic consolidation inside the live
hierarchy by name.  Any other :class:`~repro.core.base.ConsolidationAlgorithm`
plugs in through ``ReconfigurationPolicy(algorithm=...)``; the greedy FFD and
BFD baselines of :mod:`repro.core.ffd` stay offline comparators.

Two warehouse-scale modes:

* **warm start** (ACO only) -- after every accepted plan the policy distills
  the VM-to-host pairs into a persisted
  :class:`~repro.core.aco.PheromoneSummary`; the next round seeds the
  pheromone matrix from it, so per-cycle re-optimization starts at the
  incumbent placement instead of from scratch.
* **incremental** -- only *dirty* hosts participate: nodes whose VM set or
  measured load changed since the previous plan (plus nodes never seen
  before).  Unchanged corners of the fleet are skipped entirely, which is
  what makes periodic consolidation affordable on warehouse-size groups.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.node import PhysicalNode
from repro.cluster.vm import VirtualMachine
from repro.core.aco import ACOConsolidation, ACOParameters, PheromoneSummary
from repro.core.base import ConsolidationAlgorithm
from repro.core.migration_plan import plan_migrations
from repro.core.placement import PlacementError, placement_from_view
from repro.policies.decisions import MigrationPlan
from repro.policies.registry import register_policy
from repro.policies.thresholds import UtilizationThresholds
from repro.policies.view import ClusterView


class ReconfigurationPolicy:
    """Periodic consolidation driver used by Group Managers."""

    kind = "reconfiguration"
    name = "consolidation"

    def __init__(
        self,
        algorithm: Optional[ConsolidationAlgorithm] = None,
        thresholds: Optional[UtilizationThresholds] = None,
        max_migrations: Optional[int] = None,
        include_overloaded: bool = False,
        warm_start: bool = False,
        incremental: bool = False,
    ) -> None:
        self.algorithm = algorithm or ACOConsolidation()
        self.thresholds = thresholds or UtilizationThresholds()
        self.max_migrations = max_migrations
        self.include_overloaded = include_overloaded
        #: Seed the next round's pheromone matrix from the previous plan
        #: (only :class:`ACOConsolidation` has a pheromone matrix to seed).
        self.warm_start = bool(warm_start) and isinstance(self.algorithm, ACOConsolidation)
        #: Restrict each round to nodes whose VM set or load changed since
        #: the previous round.
        self.incremental = bool(incremental)
        self._summary = PheromoneSummary()
        self._node_signatures: Dict[str, Tuple] = {}

    # ------------------------------------------------------------------ run
    def plan(self, view: ClusterView) -> MigrationPlan:
        """Compute a reconfiguration plan over the Local Controller hosts of ``view``.

        The Group Manager passes its resident decision-plane arrays in LC join
        order: the eligibility screen and the consolidation instance are numpy
        gathers off them.
        """
        eligible = self._eligible_nodes(view)
        plan = MigrationPlan()
        participants = self._participants(eligible)
        vms: List[VirtualMachine] = [vm for node in participants for vm in node.vms]
        if len(participants) < 2 or not vms:
            return plan

        rows = [view.index_of(node.node_id) for node in participants]
        current, vm_list, node_list = placement_from_view(view, vms, rows=rows)
        plan.hosts_before = current.hosts_used()

        # A consolidation that finds no placement, or one that cannot be
        # executed, is discarded; the current placement remains in force
        # (fail-safe behaviour).
        try:
            result = self._consolidate(current, vm_list, node_list)
        except PlacementError:
            plan.hosts_after = plan.hosts_before
            plan.reason = "consolidation found no placement; keeping current placement"
            return plan
        target = result.placement
        plan.consolidation_summary = result.summary()

        if not (target.fully_assigned and target.is_feasible()):
            plan.hosts_after = plan.hosts_before
            plan.reason = "consolidation result infeasible; keeping current placement"
            return plan

        plan.hosts_after = target.hosts_used()
        for vm, source, destination in plan_migrations(
            current, target, max_migrations=self.max_migrations
        ):
            plan.moves.append((vm_list[vm], node_list[source], node_list[destination]))

        if self.warm_start:
            # Persist the *target* pairs: the plan the search converged to is
            # what the next round should resume from, even if execution defers
            # some moves (deferred moves re-surface as dirty nodes).
            for row, vm in enumerate(vm_list):
                self._summary.pairs[vm.vm_id] = node_list[int(target.assignment[row])].node_id

        # Nodes emptied by the executed moves (not merely by the ideal target,
        # which may be partially deferred).
        simulated_population = {node.node_id: node.vm_count for node in participants}
        for _vm, source, destination in plan.moves:
            simulated_population[source.node_id] -= 1
            simulated_population[destination.node_id] += 1
        plan.released_nodes = [
            node
            for node in participants
            if simulated_population[node.node_id] == 0 and node.vm_count > 0
        ]
        return plan

    # ----------------------------------------------------------- incremental
    def _participants(self, eligible: List[PhysicalNode]) -> List[PhysicalNode]:
        """The nodes this round actually consolidates.

        In incremental mode only *dirty* nodes participate: nodes whose VM set
        or measured load changed since the previous round, plus nodes never
        seen before.  The signature snapshot is refreshed every round, so a
        node touched by this round's moves shows up dirty on the next one and
        gets re-packed then.
        """
        if not self.incremental:
            return eligible
        signatures = {node.node_id: self._node_signature(node) for node in eligible}
        if self._node_signatures:
            participants = [
                node
                for node in eligible
                if self._node_signatures.get(node.node_id) != signatures[node.node_id]
            ]
        else:
            participants = eligible
        self._node_signatures = signatures
        return participants

    @staticmethod
    def _node_signature(node: PhysicalNode) -> Tuple:
        """Cheap change-detection key: VM identity set + rounded load vector."""
        return (
            node.vm_count,
            tuple(sorted(vm.vm_id for vm in node.vms)),
            tuple(np.round(np.asarray(node.used_values(), dtype=float), 6).tolist()),
        )

    # ------------------------------------------------------------ warm start
    def _consolidate(self, current, vm_list, node_list):
        """Run the algorithm, warm-started from the persisted summary if possible."""
        if self.warm_start:
            initial = self._summary.matrix(
                [vm.vm_id for vm in vm_list],
                [node.node_id for node in node_list],
                self.algorithm.parameters,
            )
            if initial is not None:
                return self.algorithm.consolidate(current, initial_pheromone=initial)
        return self.algorithm.consolidate(current)

    # -------------------------------------------------------------- selection
    def _eligible_nodes(self, view: ClusterView) -> List[PhysicalNode]:
        """Powered-on hosts of ``view`` allowed to participate in this round.

        Overload screening is vectorized over the view: hosts above the
        overload threshold are left to event-based relocation instead.
        """
        if len(view) == 0:
            return []
        keep = view.placeable.copy()
        if not self.include_overloaded:
            utilization = np.minimum(view.cpu_utilization(), 1.0)
            keep &= utilization <= self.thresholds.overload
        return [node for node, ok in zip(view.nodes, keep) if ok]


# --------------------------------------------------------------------- bridge
@register_policy("reconfiguration", name="aco")
def aco_reconfiguration(
    n_ants: int = 8,
    n_cycles: int = 30,
    n_colonies: int = 1,
    jobs: int = 1,
    warm_start: bool = True,
    incremental: bool = False,
    thresholds: Optional[UtilizationThresholds] = None,
    max_migrations: Optional[int] = None,
    include_overloaded: bool = False,
    rng: Optional[np.random.Generator] = None,
) -> ReconfigurationPolicy:
    """Ant Colony Optimization consolidation (the paper's core algorithm)."""
    algorithm = ACOConsolidation(
        ACOParameters(n_ants=int(n_ants), n_cycles=int(n_cycles)),
        rng=rng,
        n_colonies=int(n_colonies),
        jobs=int(jobs),
    )
    return ReconfigurationPolicy(
        algorithm=algorithm,
        thresholds=thresholds,
        max_migrations=max_migrations,
        include_overloaded=include_overloaded,
        warm_start=bool(warm_start),
        incremental=bool(incremental),
    )
