"""Overload and underload relocation policies (kinds ``overload-relocation`` /
``underload-relocation``).

Paper Section II.C: "relocation policies are called when overload (resp.
underload) events arrive from LCs and aims at moving VMs away from heavily
(resp. lightly loaded) nodes":

* **Overload relocation** moves just enough VMs off the hot host to bring its
  utilization back under the overload threshold, choosing destinations with
  the most headroom so the problem is not simply pushed elsewhere.
* **Underload relocation** tries to move *all* VMs off a lightly loaded host
  onto moderately loaded hosts, so the now-idle host can be suspended by the
  energy manager -- but only if every VM fits elsewhere (otherwise nothing
  moves; partially evacuating a host saves no energy).

Both produce a :class:`~repro.policies.decisions.MigrationPlan`.  Destination
feasibility and scoring are vectorized over all candidate hosts per VM through
a :class:`~repro.policies.view.ClusterView` snapshot (candidate order is
preserved, keeping the historical deterministic tie-breaks).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.cluster.node import PhysicalNode
from repro.policies.decisions import MigrationPlan
from repro.policies.registry import register_policy
from repro.policies.thresholds import UtilizationThresholds
from repro.policies.view import ClusterView


def _cpu_index(node: PhysicalNode) -> int:
    dims = node.capacity.dimensions
    return dims.index("cpu") if "cpu" in dims else 0


def _node_cpu_utilization(node: PhysicalNode) -> float:
    index = _cpu_index(node)
    capacity = node.capacity.values[index]
    if capacity <= 0:
        return 0.0
    return float(node.used().values[index] / capacity)


def _candidate_view(
    source: PhysicalNode,
    destinations: Sequence[PhysicalNode],
    require_busy: bool = False,
) -> ClusterView:
    """Snapshot the eligible destination hosts, preserving input order."""
    candidates = [
        node
        for node in destinations
        if node.node_id != source.node_id
        and node.is_available_for_placement
        and (node.vm_count > 0 if require_busy else True)
    ]
    return ClusterView.from_nodes(candidates, sort_by_id=False)


@register_policy("overload-relocation", name="greedy")
class OverloadRelocationPolicy:
    """Move the smallest sufficient set of VMs off an overloaded host."""

    kind = "overload-relocation"
    name = "greedy"

    def __init__(self, thresholds: Optional[UtilizationThresholds] = None) -> None:
        self.thresholds = thresholds or UtilizationThresholds()

    def decide(
        self, source: PhysicalNode, destinations: Sequence[PhysicalNode]
    ) -> MigrationPlan:
        """Pick VMs to migrate away from ``source`` and their destinations.

        Strategy (matching the "minimize migrations" spirit of the paper's
        relocation description): sort the source's VMs by decreasing CPU usage
        and keep moving the largest one that still has a feasible destination
        until the source drops below the overload threshold.  Destinations are
        chosen worst-fit (most headroom first) among nodes that stay below the
        overload threshold after receiving the VM.
        """
        plan = MigrationPlan()
        cpu = _cpu_index(source)
        source_capacity = source.capacity.values[cpu]
        if source_capacity <= 0:
            plan.reason = "source has no CPU capacity"
            return plan
        current_usage = source.used().values[cpu]
        target_usage = self.thresholds.overload * source_capacity
        if current_usage <= target_usage:
            plan.reason = "source not overloaded"
            return plan

        view = _candidate_view(source, destinations)
        # Hypothetical load added to each destination by earlier moves.
        added = np.zeros_like(view.capacities)
        cpu_cap = view.capacities[:, cpu] if len(view) else np.empty(0)
        vms = sorted(source.vms, key=lambda vm: vm.used.values[cpu], reverse=True)

        for vm in vms:
            if current_usage <= target_usage:
                break
            if len(view) == 0:
                break
            fits = view.feasible_mask(vm.requested.values, extra_load=added)
            usage_after = view.used[:, cpu] + added[:, cpu] + vm.used.values[cpu]
            feasible = fits & (usage_after <= self.thresholds.overload * cpu_cap)
            if not feasible.any():
                continue
            # Worst-fit: most CPU headroom after the hypothetical moves so far
            # (first occurrence wins ties, matching the historical scan order).
            headroom = cpu_cap - view.used[:, cpu] - added[:, cpu]
            choice = int(np.argmax(np.where(feasible, headroom, -np.inf)))
            plan.moves.append((vm, source, view.node_at(choice)))
            added[choice] += vm.requested.values
            current_usage -= vm.used.values[cpu]

        if plan.empty:
            plan.reason = "no feasible destination for any VM"
        return plan


@register_policy("underload-relocation", name="all-or-nothing")
class UnderloadRelocationPolicy:
    """Evacuate an underloaded host entirely (or not at all) to create idle time."""

    kind = "underload-relocation"
    name = "all-or-nothing"

    def __init__(self, thresholds: Optional[UtilizationThresholds] = None) -> None:
        self.thresholds = thresholds or UtilizationThresholds()

    def decide(
        self, source: PhysicalNode, destinations: Sequence[PhysicalNode]
    ) -> MigrationPlan:
        """Move every VM off ``source`` onto moderately loaded destinations, or nothing.

        Destinations must end up *below the overload threshold* and the policy
        deliberately prefers destinations that are already loaded ("move away
        VMs to moderately loaded LCs", Section II.C) so that consolidation
        does not create new lightly-loaded hosts.
        """
        plan = MigrationPlan()
        if source.vm_count == 0:
            plan.reason = "source already idle"
            return plan
        if _node_cpu_utilization(source) >= self.thresholds.underload:
            plan.reason = "source not underloaded"
            return plan

        cpu = _cpu_index(source)
        # Prefer already-busy hosts; empty ones stay suspendable.
        view = _candidate_view(source, destinations, require_busy=True)
        if len(view) == 0:
            plan.reason = "no busy destination hosts available"
            return plan

        added = np.zeros_like(view.capacities)
        cpu_cap = view.capacities[:, cpu]
        tentative: List[tuple] = []
        # Place the biggest VMs first (hardest to fit).
        for vm in sorted(source.vms, key=lambda vm: vm.requested.values[cpu], reverse=True):
            fits = view.feasible_mask(vm.requested.values, extra_load=added)
            usage_after = view.used[:, cpu] + added[:, cpu] + vm.used.values[cpu]
            feasible = fits & (usage_after <= self.thresholds.overload * cpu_cap)
            if not feasible.any():
                plan.reason = f"VM {vm.name} has no feasible destination; aborting evacuation"
                return plan  # all-or-nothing
            # Best-fit: most loaded destination that still fits (packs tightly,
            # first occurrence wins ties, matching the historical scan order).
            load = (view.used[:, cpu] + added[:, cpu]) / cpu_cap
            choice = int(np.argmax(np.where(feasible, load, -np.inf)))
            tentative.append((vm, source, view.node_at(choice)))
            added[choice] += vm.requested.values

        plan.moves = tentative
        return plan
