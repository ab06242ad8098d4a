"""A shared, numpy-backed snapshot of a set of physical nodes.

Every policy kind used to re-scan ``PhysicalNode`` lists with per-node Python
arithmetic (``node.reserved()`` sums VM vectors, ``node.available()`` builds
fresh ``ResourceVector`` objects, ...).  :class:`ClusterView` gathers that
state **once** into flat arrays so the actual decision math -- feasibility
masks, residual-capacity scores, utilization rankings, victim selection -- is
a handful of vectorized numpy expressions over all nodes at once.

The view is a *snapshot*: it does not track later mutations of the nodes.
Policies receive a fresh view per decision (or build one per relocation /
reconfiguration round) and map chosen indices back to nodes through the
stable ``node_ids`` ordering.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.node import PhysicalNode

#: Feasibility tolerance, matching ``ResourceVector.fits_within``.
FIT_TOLERANCE = 1e-9


class ClusterView:
    """Array view over a node set: capacities, reservations, usage, placeability."""

    __slots__ = (
        "nodes",
        "node_ids",
        "capacities",
        "reserved",
        "used",
        "placeable",
        "vm_counts",
        "cpu_index",
        "_index_by_id",
    )

    def __init__(
        self,
        nodes: Tuple[PhysicalNode, ...],
        node_ids: np.ndarray,
        capacities: np.ndarray,
        reserved: np.ndarray,
        used: np.ndarray,
        placeable: np.ndarray,
        vm_counts: np.ndarray,
        cpu_index: int,
    ) -> None:
        self.nodes = nodes
        #: Node ids aligned with every array row.
        self.node_ids = node_ids
        #: ``(n, d)`` total capacity per node.
        self.capacities = capacities
        #: ``(n, d)`` reserved (admission-control) load per node.
        self.reserved = reserved
        #: ``(n, d)`` used (monitoring) load per node.
        self.used = used
        #: ``(n,)`` bool: node is ON and accepts placements right now.
        self.placeable = placeable
        #: ``(n,)`` number of VMs currently hosted per node.
        self.vm_counts = vm_counts
        #: Index of the CPU dimension (utilization/threshold math).
        self.cpu_index = cpu_index
        self._index_by_id: Dict[str, int] = {
            node_id: index for index, node_id in enumerate(node_ids.tolist())
        }

    # ------------------------------------------------------------ construction
    @classmethod
    def from_nodes(
        cls, nodes: Sequence[PhysicalNode], sort_by_id: bool = True
    ) -> "ClusterView":
        """Snapshot ``nodes`` (sorted by node id by default, for stable tie-breaks)."""
        node_list = list(nodes)
        if sort_by_id:
            node_list.sort(key=lambda node: node.node_id)
        n = len(node_list)
        if n == 0:
            empty2 = np.empty((0, 0), dtype=float)
            return cls(
                nodes=(),
                node_ids=np.empty(0, dtype=object),
                capacities=empty2,
                reserved=empty2,
                used=empty2,
                placeable=np.empty(0, dtype=bool),
                vm_counts=np.empty(0, dtype=np.int64),
                cpu_index=0,
            )
        dims = node_list[0].capacity.dimensions
        d = len(dims)
        cpu_index = dims.index("cpu") if "cpu" in dims else 0
        capacities = np.empty((n, d), dtype=float)
        reserved = np.zeros((n, d), dtype=float)
        used = np.zeros((n, d), dtype=float)
        placeable = np.empty(n, dtype=bool)
        vm_counts = np.empty(n, dtype=np.int64)
        for index, node in enumerate(node_list):
            capacities[index] = node.capacity.values
            # Both aggregates come from the node's caches (the same
            # sequential sums, computed once per change -- VM set changes for
            # reservations, any hosted VM's usage write for usage -- instead
            # of per snapshot).
            reserved[index] = node.reserved_values()
            used[index] = node.used_values()
            placeable[index] = node.is_available_for_placement
            vm_counts[index] = node.vm_count
        return cls(
            nodes=tuple(node_list),
            node_ids=np.array([node.node_id for node in node_list], dtype=object),
            capacities=capacities,
            reserved=reserved,
            used=used,
            placeable=placeable,
            vm_counts=vm_counts,
            cpu_index=cpu_index,
        )

    # -------------------------------------------------------------- inspection
    def __len__(self) -> int:
        return len(self.nodes)

    def index_of(self, node_id: str) -> Optional[int]:
        """Row index of ``node_id`` (None if absent from the snapshot)."""
        return self._index_by_id.get(node_id)

    def node_at(self, index: int) -> PhysicalNode:
        """The node behind row ``index``."""
        return self.nodes[index]

    def node_by_id(self, node_id: str) -> Optional[PhysicalNode]:
        """The node with ``node_id`` (None if absent)."""
        index = self._index_by_id.get(node_id)
        return None if index is None else self.nodes[index]

    # ------------------------------------------------------------ decision math
    def feasible_mask(
        self, demand: np.ndarray, extra_load: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Bool mask of nodes that are placeable and fit ``demand`` on top of reservations.

        ``extra_load`` (``(n, d)``) adds hypothetical load per node -- used by
        relocation policies to account for moves already planned this round.
        """
        if len(self) == 0:
            return np.empty(0, dtype=bool)
        reserved = self.reserved if extra_load is None else self.reserved + extra_load
        fits = np.all(
            reserved + np.asarray(demand, dtype=float) <= self.capacities + FIT_TOLERANCE,
            axis=1,
        )
        return fits & self.placeable

    def residual_after(self, demand: np.ndarray) -> np.ndarray:
        """Per-node normalized residual capacity if ``demand`` were placed there.

        ``sum_k (capacity_k - reserved_k - demand_k) / capacity_k`` -- the
        best-fit score (smaller = tighter packing).  Only meaningful where
        :meth:`feasible_mask` is True.
        """
        remaining = self.capacities - self.reserved - np.asarray(demand, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            fractions = np.where(self.capacities > 0, remaining / self.capacities, 0.0)
        return np.sum(fractions, axis=1)

    def headroom_fractions(self) -> np.ndarray:
        """Per-node normalized free capacity ``sum_k max(0, cap_k - reserved_k) / cap_k``."""
        free = np.clip(self.capacities - self.reserved, 0.0, None)
        with np.errstate(divide="ignore", invalid="ignore"):
            fractions = np.where(self.capacities > 0, free / self.capacities, 0.0)
        return np.sum(fractions, axis=1)

    def cpu_capacity(self) -> np.ndarray:
        """``(n,)`` CPU capacity per node."""
        return self.capacities[:, self.cpu_index]

    def cpu_used(self) -> np.ndarray:
        """``(n,)`` CPU usage per node (monitoring view)."""
        return self.used[:, self.cpu_index]

    def cpu_utilization(self) -> np.ndarray:
        """``(n,)`` CPU utilization fractions (0 where capacity is 0)."""
        capacity = self.cpu_capacity()
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(capacity > 0, self.cpu_used() / capacity, 0.0)
