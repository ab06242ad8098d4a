"""Placement: the shared solution representation for consolidation.

A placement maps every VM (row of the demand matrix) to a host (row of the
capacity matrix) or to "unassigned" (-1).  All algorithms produce placements;
all metrics (hosts used, utilization, energy) and the migration planner are
computed from placements, so the comparison between ACO, FFD and the optimum
is guaranteed to use identical accounting.

:func:`first_fit` is the one first-fit placement kernel: the hierarchy's
first-fit policy and the megafleet engine both place through it.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

#: Feasibility tolerance of every fit test: a demand fits when
#: ``reserved + demand <= capacity + FIT_TOLERANCE`` in every dimension.
FIT_TOLERANCE = 1e-9

#: Rows a first-fit step tests at the start of each window; a demand that fits
#: none of them tests the next rows, twice as many each time.
FIT_BLOCK = 32


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

    def copy(self) -> "Placement":
        """Deep copy sharing the (read-only treated) instance matrices."""
        return Placement(self.demands, self.capacities, self.assignment.copy())

    # ------------------------------------------------------------------ state
    @property
    def fully_assigned(self) -> bool:
        """True when every VM has a host."""
        return bool(np.all(self.assignment >= 0))

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


def first_fit(
    demands: np.ndarray,
    reserved: np.ndarray,
    capacities: np.ndarray,
    placeable: Optional[np.ndarray] = None,
    bounds: Optional[np.ndarray] = None,
    counts: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Place ``(k, d)`` demand rows first-fit, in order, each in its group's rows.

    Group ``i`` owns rows ``bounds[i]:bounds[i + 1]`` of the ``(n, d)`` arrays
    ``reserved`` and ``capacities`` and the next ``counts[i]`` rows of
    ``demands``, groups in order; with both omitted, one group owns every row
    and every demand.  A group's demand ``j`` goes to the lowest row of its
    window that is ``placeable`` (every row when ``None``) and fits it on top
    of ``reserved`` plus the group's demands ``0 .. j-1`` placed there.
    Returns the ``(k,)`` row per demand (absolute, not window-local), ``-1``
    when none fits.  ``reserved`` is as it was on return (``np.add.at(reserved,
    hits[ok], demands[ok])`` applies the placements in the same order).

    Groups own disjoint rows, so their demands are independent: the kernel
    places in **rank rounds**, round ``r`` placing every group's ``r``-th
    demand in one array step, then adding the placed demands to ``reserved``
    (each touched row saved at its first touch and restored before return)
    for the next round.  A step tests the first :data:`FIT_BLOCK` rows of each
    window, then, for the demands that fit none of them, the next rows, twice
    as many each time.  The fit test is ``reserved + demand <= capacity +
    FIT_TOLERANCE`` in float64, and a row's reservations grow in dispatch
    order, so the result is bit-for-bit the one-demand-at-a-time loop's.
    """
    demands = np.asarray(demands, dtype=float)
    k, n = demands.shape[0], reserved.shape[0]
    hits = np.full(k, -1, dtype=np.int64)
    if k == 0 or n == 0:
        return hits
    if bounds is None:
        if k == 1:  # the hierarchy's call: one demand, one window
            hits[0] = _first_row(demands[0], reserved, capacities, placeable)
            return hits
        bounds, counts = [0, n], [k]
    bounds, counts = np.asarray(bounds, dtype=np.int64), np.asarray(counts, dtype=np.int64)
    # Groups by falling batch size, so the groups of every round are a prefix.
    order = np.argsort(-counts, kind="stable")
    batch = counts[order]
    first = (np.cumsum(counts) - counts)[order]
    lo, hi = bounds[:-1][order], bounds[1:][order]
    touched, before = [], []
    try:
        for rank in range(int(batch[0])):
            m = int(np.count_nonzero(batch > rank))
            at = first[:m] + rank
            need = demands[at]
            rows = _first_rows(need, lo[:m], hi[:m], reserved, capacities, placeable)
            hits[at] = rows
            # One demand per window, so no row is added to twice in a round.
            more = (rows >= 0) & (batch[:m] > rank + 1)
            if more.any():
                placed = rows[more]
                touched.append(placed)
                before.append(reserved[placed])
                reserved[placed] += need[more]
    finally:
        if touched:
            rows = np.concatenate(touched)
            _, first_touch = np.unique(rows, return_index=True)
            reserved[rows[first_touch]] = np.concatenate(before)[first_touch]
    return hits


def _first_rows(need, lo, hi, reserved, capacities, placeable) -> np.ndarray:
    """The lowest fitting row of ``[lo[i], hi[i])`` for each demand ``need[i]``, or -1."""
    found = np.full(need.shape[0], -1, dtype=np.int64)
    todo = np.arange(need.shape[0])
    start, width, last = 0, FIT_BLOCK, reserved.shape[0] - 1
    while todo.size:
        rows = lo[todo, np.newaxis] + np.arange(start, start + width)
        fits = rows < hi[todo, np.newaxis]
        np.minimum(rows, last, out=rows)  # rows past a window are read, never taken
        want = need[todo]
        # One dimension at a time, gathering rows only: a ``(rows, dim)``
        # gather beats a whole-row one, and ``capacities`` may be a broadcast
        # view.
        for dim in range(need.shape[1]):
            fits &= (
                reserved[rows, dim] + want[:, dim, np.newaxis]
                <= capacities[rows, dim] + FIT_TOLERANCE
            )
        if placeable is not None:
            fits &= placeable[rows]
        col = fits.argmax(axis=1)
        ok = fits[np.arange(todo.size), col]
        found[todo[ok]] = rows[ok, col[ok]]
        start += width
        width = start
        todo = todo[~ok & (lo[todo] + start < hi[todo])]
    return found


def _first_row(need, reserved, capacities, placeable) -> int:
    """:func:`_first_rows` for one demand over every row: its blocks are
    slices, not gathers (a hierarchy decision costs about half as much)."""
    start, width, n = 0, FIT_BLOCK, reserved.shape[0]
    while start < n:
        stop = min(start + width, n)
        fit_by_dim = reserved[start:stop] + need <= capacities[start:stop] + FIT_TOLERANCE
        fits = fit_by_dim[:, 0]
        for dim in range(1, need.shape[0]):
            fits &= fit_by_dim[:, dim]
        if placeable is not None:
            fits &= placeable[start:stop]
        col = int(fits.argmax())
        if fits[col]:
            return start + col
        start, width = stop, stop
    return -1
