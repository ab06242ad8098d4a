"""Resident, incrementally maintained decision arrays for one Group Manager.

:class:`~repro.policies.view.ClusterView` is a *snapshot*: every placement
attempt and relocation round used to rebuild it from scratch with a Python
loop over all of a GM's Local Controller nodes (``from_nodes``), which is
exactly the per-event O(group size) work that makes events/sec decay with
fleet size (ROADMAP item 2).  :class:`DecisionPlane` keeps the group's
capacity/reserved/used/placeable arrays **resident** and maintains them
incrementally:

* **Structural changes** (LC join / removal) rebuild the sorted arrays once --
  they are rare (startup, failures) and O(group size) by nature.
* **Row changes** (VM placed/removed, a hosted VM's usage write, a power-state
  transition) are pushed by the :meth:`~repro.cluster.node.PhysicalNode.watch`
  hook into a dirty set and folded into the arrays lazily, so a placement
  decision costs O(changed rows) + the vectorized policy kernel instead of
  O(group size) Python per event.

:meth:`view` hands policies a :class:`ClusterView` that *shares* the resident
arrays (including the ``node_id -> row`` index), so the existing vectorized
placement kernels run unchanged.  Exclusions (retry after an LC rejected a
placement) are expressed by masking the excluded rows' ``placeable`` flags in
a copy of that one column -- the feasible set, and therefore every policy's
choice, is identical to rebuilding the view without those nodes, because all
placement kernels select strictly within the feasible mask and row order is
the same sorted-by-node-id order ``from_nodes`` produces.

The plane also owns the two group-local indexes the hot paths need:
``node_id -> lc_name`` (replacing the O(n) identity scan in ``_lc_of_node``)
and the join-ordered node list (replacing the per-anomaly ``managed_nodes()``
rebuild; relocation semantics depend on join order, so the plane preserves
it).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

import numpy as np

from repro.cluster.node import PhysicalNode
from repro.policies.view import ClusterView


class DecisionPlane:
    """Incrementally maintained :class:`ClusterView` arrays over a GM's LC nodes."""

    def __init__(self) -> None:
        #: lc_name -> node, in join order (insertion-ordered dict).
        self._nodes_by_lc: Dict[str, PhysicalNode] = {}
        #: node_id -> lc_name (satellite index for ``_lc_of_node``).
        self._lc_by_node_id: Dict[str, str] = {}
        #: Join-ordered node list, resident (callers must not mutate).
        self._join_order: List[PhysicalNode] = []
        #: The resident sorted-by-node-id view (rebuilt on structural changes,
        #: its rows refreshed in place).
        self._view = ClusterView.from_nodes(())
        self._row_by_lc: Dict[str, int] = {}
        #: node_ids whose row needs a refresh before the next view.
        self._dirty: Set[str] = set()
        self._structural = False

    # ------------------------------------------------------------- membership
    def __len__(self) -> int:
        return len(self._nodes_by_lc)

    def __contains__(self, lc_name: str) -> bool:
        return lc_name in self._nodes_by_lc

    def add(self, lc_name: str, node: PhysicalNode) -> None:
        """Register a joined LC's node (idempotent for an already-known LC)."""
        if lc_name in self._nodes_by_lc:
            return
        self._nodes_by_lc[lc_name] = node
        self._lc_by_node_id[node.node_id] = lc_name
        self._join_order.append(node)
        node.watch(self._mark_dirty)
        self._structural = True

    def remove(self, lc_name: str) -> None:
        """Drop a removed/failed LC's node (no-op for an unknown LC)."""
        node = self._nodes_by_lc.pop(lc_name, None)
        if node is None:
            return
        if self._lc_by_node_id.get(node.node_id) == lc_name:
            del self._lc_by_node_id[node.node_id]
        self._join_order.remove(node)
        node.unwatch(self._mark_dirty)
        self._structural = True

    def clear(self) -> None:
        """Forget every node (GM failure): unwatch and reset all state."""
        for node in self._nodes_by_lc.values():
            node.unwatch(self._mark_dirty)
        self._nodes_by_lc.clear()
        self._lc_by_node_id.clear()
        self._join_order.clear()
        self._dirty.clear()
        self._structural = True

    # ---------------------------------------------------------------- indexes
    def lc_of(self, node: PhysicalNode) -> Optional[str]:
        """The LC name managing ``node`` (identity-checked, like the old scan)."""
        lc_name = self._lc_by_node_id.get(node.node_id)
        if lc_name is None or self._nodes_by_lc.get(lc_name) is not node:
            return None
        return lc_name

    def nodes_in_join_order(self) -> List[PhysicalNode]:
        """The resident join-ordered node list (read-only; do not mutate)."""
        return self._join_order

    # ------------------------------------------------------------ maintenance
    def _mark_dirty(self, node: PhysicalNode) -> None:
        self._dirty.add(node.node_id)

    def _rebuild(self) -> None:
        self._view = ClusterView.from_nodes(self._nodes_by_lc.values())
        self._row_by_lc = {
            lc_name: self._view._index_by_id[node.node_id]
            for lc_name, node in self._nodes_by_lc.items()
        }
        self._dirty.clear()
        self._structural = False

    def refresh(self) -> None:
        """Fold pending changes into the resident arrays."""
        if self._structural:
            self._rebuild()
            return
        if not self._dirty:
            return
        view = self._view
        for node_id in self._dirty:
            row = view._index_by_id.get(node_id)
            if row is None:  # marked dirty, then removed before the refresh
                continue
            node = view.nodes[row]
            view.reserved[row] = node.reserved_values()
            view.used[row] = node.used_values()
            view.placeable[row] = node.is_available_for_placement
            view.vm_counts[row] = node.vm_count
        self._dirty.clear()

    # ----------------------------------------------------------------- views
    def view(self, exclude_lcs: Optional[Set[str]] = None) -> ClusterView:
        """A :class:`ClusterView` over the resident arrays, sorted by node id.

        Without ``exclude_lcs`` this is the resident view itself.  With it,
        those LCs' rows are masked unplaceable in a copy of the one boolean
        column; all other arrays are shared.  Policies must treat the view as
        read-only, which every registered policy already does.
        """
        self.refresh()
        view = self._view
        if not exclude_lcs:
            return view
        placeable = view.placeable.copy()
        for lc_name in exclude_lcs:
            row = self._row_by_lc.get(lc_name)
            if row is not None:
                placeable[row] = False
        return ClusterView._assemble(
            view.nodes,
            view.node_ids,
            view.capacities,
            view.reserved,
            view.used,
            placeable,
            view.vm_counts,
            view.cpu_index,
            view._index_by_id,
        )

    def join_order_view(self) -> ClusterView:
        """A :class:`ClusterView` in LC *join* order (what relocation and
        reconfiguration historically consumed via ``from_nodes(...,
        sort_by_id=False)``): a numpy row gather of the resident arrays, no
        per-node attribute reads."""
        self.refresh()
        view = self._view
        rows = np.asarray(
            [view._index_by_id[node.node_id] for node in self._join_order], dtype=np.intp
        )
        return ClusterView._assemble(
            tuple(self._join_order),
            view.node_ids[rows],
            view.capacities[rows],
            view.reserved[rows],
            view.used[rows],
            view.placeable[rows],
            view.vm_counts[rows],
            view.cpu_index,
            {node.node_id: row for row, node in enumerate(self._join_order)},
        )
