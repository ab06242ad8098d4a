"""Node-by-node placement builder: the oracle ``placement_from_view`` is tested against.

Re-reads ``capacity.values`` from every live node object instead of gathering
rows off a ``ClusterView``'s resident arrays.
``repro.core.placement.placement_from_view`` must build the same matrices in
the same row order (``tests/test_decision_plane.py``); nothing in ``src`` uses
this function.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.core.placement import Placement, PlacementError


def placement_from_nodes(nodes: Iterable, vms: Iterable) -> tuple[Placement, list, list]:
    """Build a :class:`Placement` from live cluster objects.

    Returns ``(placement, vm_list, node_list)`` where the lists give the row
    ordering used in the matrices.  VM *used* vectors are taken as demands.
    """
    node_list = list(nodes)
    vm_list = list(vms)
    if not node_list:
        raise PlacementError("need at least one node to build a placement")
    capacities = np.vstack([node.capacity.values for node in node_list]).astype(float)
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
