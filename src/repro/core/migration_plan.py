"""Derive live-migration plans from placement changes.

Periodic reconfiguration (paper Section II.C) recomputes a consolidated
placement for the moderately loaded hosts; what the Group Manager actually
*executes* is the set of live migrations turning the current placement into
the new one.  This module computes that set, orders it so that every migration
is feasible when executed (destination has room at execution time).  The
migration executor prices the moves with its ``MigrationCostModel``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.placement import Placement, PlacementError


def plan_migrations(
    current: Placement,
    target: Placement,
    max_migrations: Optional[int] = None,
) -> List[Tuple[int, int, int]]:
    """Compute an executable migration order from ``current`` to ``target``.

    Returns ``(vm_index, source_host, target_host)`` triples (matrix row
    indices) in execution order.  A VM whose move could not be ordered is
    absent: it stays where it is, and a later round retries it.

    The planner repeatedly picks a pending move whose destination currently
    has room, applies it to a working copy and continues -- a topological-ish
    ordering that resolves chains (A->B frees room for C->A).  Cyclic swaps
    that cannot be broken without a spare host are deferred rather than
    violated, mirroring how a real Group Manager would postpone them to the
    next reconfiguration round.

    ``max_migrations`` caps the plan size (administrators bound reconfiguration
    churn); the most "valuable" moves -- those that empty a host -- are kept
    first.
    """
    if current.n_vms != target.n_vms or current.n_hosts != target.n_hosts:
        raise PlacementError("current and target placements cover different instances")
    if not np.allclose(current.demands, target.demands):
        raise PlacementError("current and target placements disagree on VM demands")

    pending = [
        vm
        for vm in range(current.n_vms)
        if current.assignment[vm] >= 0
        and target.assignment[vm] >= 0
        and current.assignment[vm] != target.assignment[vm]
    ]

    # Prioritize moves off hosts the target empties entirely: those are the
    # moves that actually reduce the number of active hosts (energy savings).
    target_used = set(int(h) for h in target.used_host_indices())
    emptied_hosts = {
        int(h) for h in current.used_host_indices() if int(h) not in target_used
    }
    pending.sort(key=lambda vm: (0 if int(current.assignment[vm]) in emptied_hosts else 1, vm))

    working = current.copy()
    residual = working.residual_capacities()
    moves: List[Tuple[int, int, int]] = []
    remaining = list(pending)

    progress = True
    while remaining and progress:
        progress = False
        still_remaining: List[int] = []
        for vm in remaining:
            if max_migrations is not None and len(moves) >= max_migrations:
                still_remaining.append(vm)
                continue
            source = int(working.assignment[vm])
            destination = int(target.assignment[vm])
            demand = working.demands[vm]
            if np.all(demand <= residual[destination] + 1e-9):
                moves.append((vm, source, destination))
                working.assignment[vm] = destination
                residual[source] += demand
                residual[destination] -= demand
                progress = True
            else:
                still_remaining.append(vm)
        remaining = still_remaining
    return moves
