"""Group Manager placement policies (kind ``placement``).

Paper Section II.C: "At the GM level, the actual VM scheduling decisions are
taken. ... Policies of the former type (e.g. round robin or first-fit) are
triggered event-based to place incoming VMs on LCs."

A placement policy chooses one Local Controller host for one VM from a
:class:`~repro.policies.view.ClusterView` snapshot and returns a
:class:`~repro.policies.decisions.PlacementDecision`.  The scoring math is
vectorized over all nodes at once; the view is sorted by node id, so stable
``argmin``/``argmax`` reproduce the historical deterministic tie-breaks.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.cluster.vm import VirtualMachine
from repro.core.placement import first_fit
from repro.policies.decisions import PlacementDecision
from repro.policies.registry import register_policy
from repro.policies.view import ClusterView


class PlacementPolicy(abc.ABC):
    """Base class: choose a Local Controller host for one VM."""

    kind: str = "placement"
    name: str = "base"

    @abc.abstractmethod
    def decide(self, vm: VirtualMachine, view: ClusterView) -> PlacementDecision:
        """Choose a node from the snapshot for ``vm`` (or explain why none fits)."""

    @staticmethod
    def _no_fit() -> PlacementDecision:
        return PlacementDecision(reason="no powered-on node fits the VM")


@register_policy("placement")
class FirstFitPlacement(PlacementPolicy):
    """First LC (in id order) with room -- packs hosts, leaving later ones idle."""

    name = "first-fit"

    def decide(self, vm: VirtualMachine, view: ClusterView) -> PlacementDecision:
        # The megafleet engine's kernel, with one demand row.
        (hit,) = first_fit(
            vm.requested.values[np.newaxis], view.reserved, view.capacities, view.placeable
        ).tolist()
        if hit < 0:
            return self._no_fit()
        return PlacementDecision(node_id=view.node_ids[hit])


@register_policy("placement")
class RoundRobinPlacement(PlacementPolicy):
    """Rotate across LCs -- spreads load, the paper's other example policy."""

    name = "round-robin"

    def __init__(self) -> None:
        self._next = 0

    def decide(self, vm: VirtualMachine, view: ClusterView) -> PlacementDecision:
        feasible = np.flatnonzero(view.feasible_mask(vm.requested.values))
        if feasible.size == 0:
            return self._no_fit()
        choice = int(feasible[self._next % feasible.size])
        self._next += 1
        return PlacementDecision(node_id=view.node_ids[choice])


@register_policy("placement")
class BestFitPlacement(PlacementPolicy):
    """LC with the least remaining capacity that still fits the VM (dense packing)."""

    name = "best-fit"

    def decide(self, vm: VirtualMachine, view: ClusterView) -> PlacementDecision:
        demand = vm.requested.values
        feasible = view.feasible_mask(demand)
        if not feasible.any():
            return self._no_fit()
        scores = np.where(feasible, view.residual_after(demand), np.inf)
        # First occurrence of the minimum == smallest node id on ties.
        return PlacementDecision(node_id=view.node_ids[int(np.argmin(scores))])


@register_policy("placement")
class WorstFitPlacement(PlacementPolicy):
    """LC with the most remaining capacity (load balancing / overload avoidance)."""

    name = "worst-fit"

    def decide(self, vm: VirtualMachine, view: ClusterView) -> PlacementDecision:
        feasible = view.feasible_mask(vm.requested.values)
        if not feasible.any():
            return self._no_fit()
        scores = np.where(feasible, view.headroom_fractions(), -np.inf)
        # Ties historically break toward the *largest* node id: take the last
        # occurrence of the maximum.
        reversed_argmax = int(np.argmax(scores[::-1]))
        choice = len(view) - 1 - reversed_argmax
        return PlacementDecision(node_id=view.node_ids[choice])
