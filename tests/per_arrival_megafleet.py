"""One-at-a-time megafleet loops: the oracles the batched code is tested against.

``first_fit_per_arrival`` is the group's placement loop as the engine ran it
before placement went through :func:`repro.core.placement.first_fit` (six
numpy calls per arrival); ``dispatch_per_arrival`` is the coordinator's
least-loaded loop before it became a heap
(:func:`repro.megafleet.engine.least_loaded`, one ``np.argmax`` over every
group per arrival).  ``tests/test_first_fit_kernel.py`` requires the batched
forms to give bit-for-bit the same answers.

``new_group`` / ``advance_group`` / ``group_summary`` and :class:`PerGroupShard`
are a shard as the engine ran it before its groups became stacked rows: one
dict of small arrays per group, advanced one group and one arrival at a time.
``tests/test_megafleet.py`` requires :class:`repro.megafleet.engine.ShardHost`
to hold bit-for-bit the same state after every epoch.  Nothing in ``src`` uses
this module.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.placement import FIT_TOLERANCE
from repro.megafleet.spec import MegafleetSpec


def first_fit_per_arrival(
    arrivals_req: np.ndarray,
    reserved: np.ndarray,
    capacities: np.ndarray,
    placeable: Optional[np.ndarray] = None,
) -> Tuple[List[int], np.ndarray]:
    """The row each arrival lands on (-1: rejected) and the reservations after."""
    reserved = reserved.copy()
    hits = []
    limit = capacities + FIT_TOLERANCE
    for row in range(arrivals_req.shape[0]):
        demand = arrivals_req[row]
        fits = (reserved + demand <= limit).all(axis=1)
        if placeable is not None:
            fits &= placeable
        hit = int(np.argmax(fits)) if fits.any() else -1
        hits.append(hit)
        if hit < 0:
            continue
        reserved[hit] += demand
    return hits, reserved


def dispatch_per_arrival(
    free_cpu: Sequence[float], cpu_demands: Sequence[float]
) -> Tuple[np.ndarray, np.ndarray]:
    """The group each demand is dispatched to (-1: refused) and the projected free CPU."""
    projected_free = np.asarray(free_cpu, dtype=float).copy()
    targets = np.full(len(cpu_demands), -1, dtype=np.int64)
    for row, cpu_demand in enumerate(cpu_demands):
        target = int(np.argmax(projected_free))
        if projected_free[target] < cpu_demand:
            continue
        projected_free[target] -= cpu_demand
        targets[row] = target
    return targets, projected_free


def new_group(gid: int, n_lcs: int, spec: MegafleetSpec) -> dict:
    """Fresh state for one Group Manager's LC arrays."""
    d = len(spec.dimensions)
    capacity = np.tile(np.asarray(spec.node_capacity, dtype=float), (n_lcs, 1))
    return {
        "gid": int(gid),
        "capacities": capacity,
        "reserved": np.zeros((n_lcs, d), dtype=float),
        "vm_req": np.empty((0, d), dtype=float),
        "vm_host": np.empty(0, dtype=np.int64),
        "vm_depart": np.empty(0, dtype=float),
        "placements": 0,
        "rejections": 0,
        "departures": 0,
    }


def advance_group(
    group: dict,
    arrivals_req: np.ndarray,
    arrivals_life: np.ndarray,
    epoch_end: float,
) -> dict:
    """Advance one group through one epoch (pure function of its inputs).

    Event order inside the epoch is fixed: departures due this epoch free
    capacity first, then arrivals place first-fit in dispatch order.
    """
    reserved = group["reserved"]
    capacities = group["capacities"]
    vm_req, vm_host, vm_depart = group["vm_req"], group["vm_host"], group["vm_depart"]

    # 1. Departures due by the end of this epoch release their reservations.
    departing = vm_depart <= epoch_end
    n_departing = int(np.count_nonzero(departing))
    if n_departing:
        np.add.at(reserved, vm_host[departing], -vm_req[departing])
        np.clip(reserved, 0.0, None, out=reserved)
        keep = ~departing
        vm_req, vm_host, vm_depart = vm_req[keep], vm_host[keep], vm_depart[keep]

    # 2. Arrivals place first-fit (lowest LC row with room) in dispatch order.
    hits = np.array(first_fit_per_arrival(arrivals_req, reserved, capacities)[0], dtype=np.int64)
    placed = hits >= 0
    n_placed = int(np.count_nonzero(placed))
    rejections = hits.shape[0] - n_placed
    if n_placed:
        placed_rows, placed_req = hits[placed], arrivals_req[placed]
        np.add.at(reserved, placed_rows, placed_req)
        vm_req = np.concatenate([vm_req, placed_req])
        vm_host = np.concatenate([vm_host, placed_rows])
        vm_depart = np.concatenate([vm_depart, epoch_end + arrivals_life[placed]])

    group["reserved"] = reserved
    group["vm_req"], group["vm_host"], group["vm_depart"] = vm_req, vm_host, vm_depart
    group["placements"] += n_placed
    group["rejections"] += rejections
    group["departures"] += n_departing
    return group


def group_summary(group: dict) -> dict:
    """The epoch-boundary summary a group sends the coordinator."""
    free = np.clip(group["capacities"] - group["reserved"], 0.0, None)
    return {
        "gid": group["gid"],
        "lcs": int(group["capacities"].shape[0]),
        "vms": int(group["vm_req"].shape[0]),
        "free_cpu": float(free[:, 0].sum()),
    }


class PerGroupShard:
    """One shard as a list of per-group dicts, stepped one group at a time.

    Same constructor and methods as :class:`repro.megafleet.engine.ShardHost`.
    """

    def __init__(self, spec: MegafleetSpec, gids: Sequence[int]) -> None:
        sizes = spec.group_sizes()
        self.groups = [new_group(gid, sizes[gid], spec) for gid in gids]

    def summaries(self) -> List[dict]:
        """The epoch-boundary summaries of this shard's groups, in group order."""
        return [group_summary(group) for group in self.groups]

    def advance(self, epoch: dict) -> List[dict]:
        """Advance every group through one epoch; reply with the summaries.

        ``epoch`` carries the shard's arrivals grouped by target group in
        dispatch order: ``counts[i]`` consecutive rows of ``demands`` /
        ``lifetimes`` belong to the shard's ``i``-th group.
        """
        stops = np.cumsum(epoch["counts"]).tolist()
        for group, start, stop in zip(self.groups, [0] + stops, stops):
            advance_group(
                group,
                epoch["demands"][start:stop],
                epoch["lifetimes"][start:stop],
                epoch["epoch_end"],
            )
        return self.summaries()

    def finish(self) -> List[dict]:
        """Per-group finals: the last summary plus the run's counters."""
        return [
            {
                **group_summary(group),
                "placements": group["placements"],
                "rejections": group["rejections"],
                "departures": group["departures"],
            }
            for group in self.groups
        ]
