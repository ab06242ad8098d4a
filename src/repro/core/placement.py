"""Placement: the shared solution representation for consolidation.

A placement maps every VM (row of the demand matrix) to a host (row of the
capacity matrix) or to "unassigned" (-1).  All algorithms produce placements;
all metrics (hosts used, utilization, energy) and the migration planner are
computed from placements, so the comparison between ACO, FFD and the optimum
is guaranteed to use identical accounting.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np


class PlacementError(ValueError):
    """Raised for malformed or infeasible placement manipulations."""


class Placement:
    """An assignment of VMs to hosts over a fixed instance.

    Parameters
    ----------
    demands:
        ``(n_vms, d)`` demand matrix.
    capacities:
        ``(n_hosts, d)`` capacity matrix.
    assignment:
        Optional ``(n_vms,)`` integer vector of host indices; ``-1`` marks an
        unassigned VM.  Defaults to all-unassigned.
    """

    def __init__(
        self,
        demands: np.ndarray,
        capacities: np.ndarray,
        assignment: Optional[Sequence[int]] = None,
    ) -> None:
        demands = np.asarray(demands, dtype=float)
        capacities = np.asarray(capacities, dtype=float)
        if demands.ndim != 2 or capacities.ndim != 2:
            raise PlacementError("demands and capacities must be 2-D matrices")
        if demands.shape[0] and demands.shape[1] != capacities.shape[1]:
            raise PlacementError(
                f"dimension mismatch: demands d={demands.shape[1]}, capacities d={capacities.shape[1]}"
            )
        if np.any(demands < 0) or np.any(capacities <= 0):
            raise PlacementError("demands must be >= 0 and capacities strictly positive")
        self.demands = demands
        self.capacities = capacities
        if assignment is None:
            self.assignment = np.full(demands.shape[0], -1, dtype=np.int64)
        else:
            self.assignment = np.asarray(assignment, dtype=np.int64).copy()
            if self.assignment.shape != (demands.shape[0],):
                raise PlacementError(
                    f"assignment shape {self.assignment.shape} does not match n_vms={demands.shape[0]}"
                )
            if np.any(self.assignment >= capacities.shape[0]):
                raise PlacementError("assignment references a host index out of range")
            if np.any(self.assignment < -1):
                raise PlacementError("assignment entries must be >= -1")

    # ----------------------------------------------------------------- shapes
    @property
    def n_vms(self) -> int:
        """Number of VMs in the instance."""
        return self.demands.shape[0]

    @property
    def n_hosts(self) -> int:
        """Number of hosts in the instance."""
        return self.capacities.shape[0]

    @property
    def n_dimensions(self) -> int:
        """Number of resource dimensions."""
        return self.capacities.shape[1]

    def copy(self) -> "Placement":
        """Deep copy sharing the (read-only treated) instance matrices."""
        return Placement(self.demands, self.capacities, self.assignment.copy())

    # ------------------------------------------------------------------ state
    def is_assigned(self, vm_index: int) -> bool:
        """True if VM ``vm_index`` has a host."""
        return bool(self.assignment[vm_index] >= 0)

    @property
    def fully_assigned(self) -> bool:
        """True when every VM has a host."""
        return bool(np.all(self.assignment >= 0))

    def unassigned_vms(self) -> np.ndarray:
        """Indices of VMs without a host."""
        return np.flatnonzero(self.assignment < 0)

    def vms_on_host(self, host_index: int) -> np.ndarray:
        """Indices of VMs placed on ``host_index``."""
        return np.flatnonzero(self.assignment == host_index)

    def host_loads(self) -> np.ndarray:
        """``(n_hosts, d)`` matrix of summed demands per host (vectorized)."""
        loads = np.zeros_like(self.capacities)
        assigned = self.assignment >= 0
        if np.any(assigned):
            np.add.at(loads, self.assignment[assigned], self.demands[assigned])
        return loads

    def residual_capacities(self) -> np.ndarray:
        """``(n_hosts, d)`` remaining capacity per host."""
        return self.capacities - self.host_loads()

    def hosts_used(self) -> int:
        """Number of hosts with at least one VM -- the objective of consolidation."""
        assigned = self.assignment[self.assignment >= 0]
        return int(np.unique(assigned).size)

    def used_host_indices(self) -> np.ndarray:
        """Sorted indices of hosts with at least one VM."""
        assigned = self.assignment[self.assignment >= 0]
        return np.unique(assigned)

    def is_feasible(self, tolerance: float = 1e-9) -> bool:
        """True if no host exceeds its capacity in any dimension."""
        return bool(np.all(self.host_loads() <= self.capacities + tolerance))

    def violations(self, tolerance: float = 1e-9) -> np.ndarray:
        """Indices of hosts whose load exceeds capacity in some dimension."""
        over = np.any(self.host_loads() > self.capacities + tolerance, axis=1)
        return np.flatnonzero(over)

    # ------------------------------------------------------------- mutation
    def assign(self, vm_index: int, host_index: int, check: bool = True) -> None:
        """Assign a VM to a host, optionally verifying capacity."""
        if not (0 <= host_index < self.n_hosts):
            raise PlacementError(f"host index {host_index} out of range")
        if check:
            load = self.demands[self.assignment == host_index].sum(axis=0)
            if np.any(load + self.demands[vm_index] > self.capacities[host_index] + 1e-9):
                raise PlacementError(
                    f"assigning VM {vm_index} to host {host_index} exceeds capacity"
                )
        self.assignment[vm_index] = host_index

    def unassign(self, vm_index: int) -> None:
        """Remove a VM's host assignment."""
        self.assignment[vm_index] = -1

    # -------------------------------------------------------------- metrics
    def average_utilization(self, per_dimension: bool = False):
        """Mean utilization of the *used* hosts (the paper's "average host utilization").

        Utilization of a used host is its load divided by capacity per
        dimension; the scalar form averages across dimensions as well.
        """
        used = self.used_host_indices()
        if used.size == 0:
            return np.zeros(self.n_dimensions) if per_dimension else 0.0
        ratios = self.host_loads()[used] / self.capacities[used]
        if per_dimension:
            return ratios.mean(axis=0)
        return float(ratios.mean())

    def describe(self) -> dict:
        """Summary dictionary used by reports and the CLI."""
        return {
            "n_vms": self.n_vms,
            "n_hosts": self.n_hosts,
            "hosts_used": self.hosts_used(),
            "fully_assigned": self.fully_assigned,
            "feasible": self.is_feasible(),
            "average_utilization": self.average_utilization(),
        }

    def __repr__(self) -> str:
        return (
            f"<Placement vms={self.n_vms} hosts={self.n_hosts} used={self.hosts_used()} "
            f"feasible={self.is_feasible()}>"
        )


def placement_from_view(view, vms: Iterable, rows=None) -> tuple[Placement, list, list]:
    """Build a :class:`Placement` directly off a ClusterView's resident arrays.

    Returns ``(placement, vm_list, node_list)`` where the lists give the row
    ordering used in the matrices, so callers can translate assignment indices
    back to objects (the reconfiguration scheduler does exactly this).
    VM *used* vectors are taken as demands, which is what consolidation should
    pack on (moderately loaded hosts are packed by actual usage, Section II.C).
    The capacity matrix is taken from ``view.capacities`` (a row gather when
    ``rows`` restricts the instance to a participant subset) instead of
    re-reading ``capacity.values`` node by node, so the consolidation kernels
    run straight off the resident decision-plane arrays.  ``rows`` is a
    sequence of view row indices; ``None`` means every node in view order.
    """
    if rows is None:
        node_list = list(view.nodes)
        capacities = np.asarray(view.capacities, dtype=float)
    else:
        row_index = np.asarray(list(rows), dtype=np.intp)
        node_list = [view.nodes[int(row)] for row in row_index]
        capacities = view.capacities[row_index].astype(float, copy=False)
    vm_list = list(vms)
    if not node_list:
        raise PlacementError("need at least one node to build a placement")
    if vm_list:
        demands = np.vstack([vm.used.values for vm in vm_list]).astype(float)
    else:
        demands = np.empty((0, capacities.shape[1]))
    node_index = {node.node_id: i for i, node in enumerate(node_list)}
    assignment = np.full(len(vm_list), -1, dtype=np.int64)
    for row, vm in enumerate(vm_list):
        if vm.host_id is not None and vm.host_id in node_index:
            assignment[row] = node_index[vm.host_id]
    return Placement(demands, capacities, assignment), vm_list, node_list
