"""Sharded lockstep execution of megafleet specs.

The object-level simulator pays Python per event; at 100k Local Controllers
even a flat per-event cost is billions of interpreter operations.  This engine
keeps the Snooze *decision plane* semantics -- per-GM groups placing VMs
locally, a Group-Leader coordinator dispatching arrivals from group summaries
-- but represents each group as resident numpy arrays (the same shape as the
hierarchy's :class:`~repro.policies.plane.DecisionPlane`) and advances the
fleet in **lockstep epochs**:

1. At an epoch boundary the coordinator draws the epoch's VM arrivals from its
   own named stream and dispatches each to a group, least-loaded over the
   latest group summaries with a running pending-demand correction (the same
   thundering-herd fix the live Group Leader applies between summaries),
   from a heap of the groups' projected free CPU (:func:`least_loaded`).
2. Every *shard* (a contiguous slice of groups, one :class:`ShardHost`)
   advances its groups through the epoch independently.  A shard holds its
   groups as **stacked rows** -- one block of LC rows and one VM table for
   all of them -- so departures, placement, counters and summaries are each
   one array step per shard and epoch.  Placement is first-fit in **one
   kernel call per shard and epoch** (:func:`repro.core.placement.first_fit`,
   the kernel the hierarchy's first-fit policy uses), which places every
   group's ``r``-th arrival at once, in rank rounds.
   Shard state is **resident**: a host builds its groups
   from ``(spec, group ids)`` in the process that advances them and
   keeps them there for the whole run
   (:class:`repro.workers.Workers`: in-process objects when
   ``jobs == 1``, otherwise ``jobs`` worker processes started once per run,
   worker *i* hosting shards *i, i + jobs, ...*).
3. What crosses a shard boundary is what a Snooze Group Leader sees: per epoch
   each shard receives its groups' arrivals (demand rows, lifetimes, a count
   per group) and returns its group summaries; at the end it returns the
   per-group counters the result is built from.  No LC or VM array is ever
   shipped, so the exchange does not grow with the fleet
   (``MegafleetResult.perf`` reports its bytes and waits).

Determinism: the coordinator's arrival stream is the only random stream, and
a shard's advance is a pure function of its state and its arrivals (a group's
rows depend only on its own VMs); replies are read in shard order.  Results
are therefore byte-identical for any ``shards`` and ``jobs`` count -- asserted
by the canonical-JSON tests.
"""

from __future__ import annotations

import heapq
import json
import time
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.placement import first_fit
from repro.megafleet.spec import MegafleetSpec, get_megafleet
from repro.simulation.randomness import spawn_generator
from repro.workers import Workers


# ------------------------------------------------------------------- shards
class ShardHost:
    """One shard: a contiguous run of groups, resident where they advance.

    Built from ``(spec, gids)`` inside the worker that hosts it (the
    class is the picklable factory :class:`~repro.workers.Workers` ships), so the
    groups' arrays never leave the process that mutates them.

    The groups are **stacked rows**: the shard's LCs are one block of rows,
    group ``i`` owning rows ``offsets[i]:offsets[i + 1]`` of the ``(rows, d)``
    arrays ``capacities`` (a read-only broadcast of the spec's node capacity)
    and ``reserved``.  Its running VMs are one
    table -- ``vm_req`` ``(vms, d)``, ``vm_row`` (shard row), ``vm_group``
    (shard-local group index) and ``vm_depart`` -- sorted by group and, inside
    a group, by placement order, so every ``np.add.at`` over it adds to a row
    in the order the group placed its VMs.
    """

    def __init__(self, spec: MegafleetSpec, gids: Sequence[int]) -> None:
        sizes = spec.group_sizes()
        self.gids = [int(gid) for gid in gids]
        self.offsets = np.concatenate(([0], np.cumsum([sizes[gid] for gid in self.gids])))
        rows, d = int(self.offsets[-1]), len(spec.dimensions)
        # Every LC has the spec's capacity: one read-only row, broadcast.
        self.capacities = np.broadcast_to(np.asarray(spec.node_capacity, dtype=float), (rows, d))
        self.reserved = np.zeros((rows, d), dtype=float)
        self.vm_req = np.empty((0, d), dtype=float)
        self.vm_row = np.empty(0, dtype=np.int64)
        self.vm_group = np.empty(0, dtype=np.int64)
        self.vm_depart = np.empty(0, dtype=float)
        n = len(self.gids)
        self.placements = np.zeros(n, dtype=np.int64)
        self.rejections = np.zeros(n, dtype=np.int64)
        self.departures = np.zeros(n, dtype=np.int64)

    def summaries(self) -> List[dict]:
        """The epoch-boundary summaries of this shard's groups, in group order."""
        free_cpu = self.capacities[:, 0] - self.reserved[:, 0]
        np.clip(free_cpu, 0.0, None, out=free_cpu)
        bounds = self.offsets.tolist()
        vms = np.bincount(self.vm_group, minlength=len(self.gids)).tolist()
        return [
            {
                "gid": gid,
                "lcs": hi - lo,
                "vms": n_vms,
                "free_cpu": float(free_cpu[lo:hi].sum()),
            }
            for gid, lo, hi, n_vms in zip(self.gids, bounds, bounds[1:], vms)
        ]

    def advance(self, epoch: dict) -> List[dict]:
        """Advance every group through one epoch; reply with the summaries.

        ``epoch`` carries the shard's arrivals grouped by target group in
        dispatch order: ``counts[i]`` consecutive rows of ``demands`` /
        ``lifetimes`` belong to the shard's ``i``-th group.

        Event order inside the epoch is fixed: departures due this epoch free
        capacity first, then arrivals place first-fit in dispatch order, each
        inside its group's rows.  Each phase is one whole-shard array step;
        placement is one :func:`first_fit` call over the shard's groups.
        """
        n = len(self.gids)
        epoch_end = epoch["epoch_end"]
        demands, counts = epoch["demands"], np.asarray(epoch["counts"], dtype=np.int64)
        reserved, offsets = self.reserved, self.offsets

        # 1. Departures due by the end of this epoch release their reservations.
        #    Only a departure can leave a row negative, so clipping every row
        #    leaves the rows of groups without departures as they were.
        departing = self.vm_depart <= epoch_end
        departed = np.bincount(self.vm_group[departing], minlength=n)
        if departed.any():
            np.add.at(reserved, self.vm_row[departing], -self.vm_req[departing])
            np.clip(reserved, 0.0, None, out=reserved)
            keep = ~departing
            self.vm_req, self.vm_row = self.vm_req[keep], self.vm_row[keep]
            self.vm_group, self.vm_depart = self.vm_group[keep], self.vm_depart[keep]

        # 2. Arrivals place first-fit (lowest LC row of their group with room)
        #    in dispatch order: one kernel call for the whole shard, shared
        #    with the hierarchy's FirstFitPlacement.
        hits = first_fit(demands, reserved, self.capacities, bounds=offsets, counts=counts)
        placed = hits >= 0
        new_group = np.repeat(np.arange(n), counts)[placed]
        new_row = hits[placed]
        new_req = demands[placed]
        np.add.at(reserved, new_row, new_req)
        placed_count = np.bincount(new_group, minlength=n)
        # Each group's placements go after its running VMs, in dispatch order.
        at = np.searchsorted(self.vm_group, new_group, side="right")
        self.vm_req = np.insert(self.vm_req, at, new_req, axis=0)
        self.vm_row = np.insert(self.vm_row, at, new_row)
        self.vm_group = np.insert(self.vm_group, at, new_group)
        self.vm_depart = np.insert(self.vm_depart, at, epoch_end + epoch["lifetimes"][placed])

        self.placements += placed_count
        self.rejections += counts - placed_count
        self.departures += departed
        return self.summaries()

    def finish(self) -> List[dict]:
        """Per-group finals: the last summary plus the run's counters."""
        return [
            {
                **summary,
                "placements": placements,
                "rejections": rejections,
                "departures": departures,
            }
            for summary, placements, rejections, departures in zip(
                self.summaries(),
                self.placements.tolist(),
                self.rejections.tolist(),
                self.departures.tolist(),
            )
        ]


def least_loaded(
    free_cpu: Sequence[float], cpu_demands: Sequence[float]
) -> Tuple[List[int], List[float]]:
    """Dispatch CPU demands, in order, each to the group with the most free CPU.

    Ties go to the lowest group id; a demand larger than the chosen group's
    free CPU is refused (target ``-1``).  Each accepted demand is taken off
    its group's projected free CPU before the next is dispatched (the live
    Group Leader's pending-demand correction).  The groups sit in a heap
    keyed ``(-free, gid)``, so a dispatch costs ``O(log groups)``.  Returns
    ``(targets, projected_free)`` as lists.
    """
    projected = [float(free) for free in free_cpu]
    heap = [(-free, gid) for gid, free in enumerate(projected)]
    heapq.heapify(heap)
    targets = []
    for demand in cpu_demands:
        target = heap[0][1]
        if projected[target] < demand:
            targets.append(-1)
            continue
        projected[target] -= demand
        heapq.heapreplace(heap, (-projected[target], target))
        targets.append(target)
    return targets, projected


# ------------------------------------------------------------------- results
class MegafleetResult:
    """Deterministic run outcome plus (excluded) wall-clock measurements."""

    def __init__(
        self,
        spec: MegafleetSpec,
        seed: int,
        totals: dict,
        per_group: List[dict],
        wall_seconds: float,
        perf: Optional[dict] = None,
    ) -> None:
        self.spec = spec
        self.seed = int(seed)
        self.totals = totals
        self.per_group = per_group
        #: Wall-clock of the run; NOT part of the canonical serialization.
        self.wall_seconds = float(wall_seconds)
        #: Where the wall went, like ``wall_seconds`` NOT serialized:
        #: ``workers`` (1 = in the calling process), the coordinator's
        #: ``dispatch_s`` and ``exchange_wait_s`` (blocked on the shards; with
        #: one worker that is their compute), per-shard ``compute_s``, and the
        #: pickled ``bytes_out`` / ``bytes_in`` that crossed process boundaries.
        self.perf = dict(perf or {})

    def to_dict(self) -> dict:
        """The deterministic result payload (identical for any shards/jobs)."""
        return {
            "spec": self.spec.to_dict(),
            "seed": self.seed,
            "totals": dict(self.totals),
            "per_group": [dict(entry) for entry in self.per_group],
        }

    def canonical_json(self) -> str:
        """Byte-stable serialization (the sweeps/scenario discipline)."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @property
    def events(self) -> int:
        """Processed state updates across the run.

        Every VM placement, rejection at a group and departure, plus one
        summary per group and epoch.
        """
        return int(self.totals["events"])

    @property
    def events_per_second(self) -> float:
        """Throughput of the run (processed updates / wall)."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.events / self.wall_seconds


# -------------------------------------------------------------- coordinator
class ShardedFleetSimulator:
    """Lockstep coordinator over sharded per-GM group states."""

    def __init__(self, spec: MegafleetSpec, seed: int = 0) -> None:
        self.spec = spec
        self.seed = int(seed)

    def run(self, shards: int = 1, jobs: int = 1) -> MegafleetResult:
        """Run the fleet; byte-identical for any ``shards``/``jobs`` count."""
        spec = self.spec
        if shards < 1:
            raise ValueError("shards must be >= 1")
        n_groups = spec.group_managers
        shards = min(int(shards), n_groups)
        # Shards are contiguous group slices: shard s owns [edges[s], edges[s+1]).
        shard_gids = [rows.tolist() for rows in np.array_split(np.arange(n_groups), shards)]
        edges = np.cumsum([0] + [len(gids) for gids in shard_gids])
        # Child ``n_groups``, not 0: the arrival draws of every pinned run stay put.
        arrival_rng = spawn_generator(self.seed, n_groups)
        d = len(spec.dimensions)
        node_capacity = np.asarray(spec.node_capacity, dtype=float)
        dispatch_rejections = 0
        dispatch_s = exchange_wait_s = 0.0
        started = time.perf_counter()

        with Workers(jobs, ShardHost, [(spec, gids) for gids in shard_gids]) as hosts:
            # The latest summaries' free CPU, one slot per group.
            free_cpu = [s["free_cpu"] for reply in hosts.call("summaries") for s in reply]
            for epoch_index in range(spec.n_epochs):
                epoch_start = epoch_index * spec.epoch
                epoch_end = epoch_start + spec.epoch

                # --- coordinator: draw and dispatch this epoch's arrivals.
                tick = time.perf_counter()
                n_arrivals = int(arrival_rng.poisson(spec.arrivals_per_epoch))
                demands = (
                    arrival_rng.uniform(spec.vm_demand_low, spec.vm_demand_high, (n_arrivals, d))
                    * node_capacity
                )
                lifetimes = arrival_rng.exponential(spec.vm_lifetime_mean, n_arrivals)
                targets, _ = least_loaded(free_cpu, demands[:, 0].tolist())
                targets = np.asarray(targets, dtype=np.int64)
                # One stable grouping by target keeps dispatch order inside a
                # group; refused arrivals (-1) sort first and are cut off.
                order = np.argsort(targets, kind="stable")
                refused = int(np.count_nonzero(targets < 0))
                dispatch_rejections += refused
                order = order[refused:]
                demands, lifetimes = demands[order], lifetimes[order]
                counts = np.bincount(targets[order], minlength=n_groups)
                starts = np.concatenate(([0], np.cumsum(counts)))
                messages = []
                for shard in range(shards):
                    lo, hi = edges[shard], edges[shard + 1]
                    rows = slice(starts[lo], starts[hi])
                    messages.append(
                        (
                            {
                                "epoch_index": epoch_index,
                                "epoch_start": epoch_start,
                                "epoch_end": epoch_end,
                                "demands": demands[rows],
                                "lifetimes": lifetimes[rows],
                                "counts": counts[lo:hi],
                            },
                        )
                    )
                tock = time.perf_counter()
                dispatch_s += tock - tick

                # --- shards advance in lockstep; only summaries come back.
                replies = hosts.call("advance", messages)
                exchange_wait_s += time.perf_counter() - tock
                for reply in replies:
                    for summary in reply:
                        free_cpu[summary["gid"]] = summary["free_cpu"]

            finals = [final for reply in hosts.call("finish") for final in reply]

        wall = time.perf_counter() - started
        perf = {
            "workers": hosts.workers,
            "dispatch_s": dispatch_s,
            "exchange_wait_s": exchange_wait_s,
            "compute_s": list(hosts.compute_s),
            "bytes_out": hosts.bytes_out,
            "bytes_in": hosts.bytes_in,
        }
        totals = {
            "epochs": spec.n_epochs,
            "placements": int(sum(final["placements"] for final in finals)),
            "rejections": int(sum(final["rejections"] for final in finals)),
            "dispatch_rejections": int(dispatch_rejections),
            "departures": int(sum(final["departures"] for final in finals)),
            "vms_running": int(sum(final["vms"] for final in finals)),
        }
        totals["events"] = (
            totals["placements"] + totals["rejections"] + totals["departures"]
            + n_groups * spec.n_epochs
        )
        return MegafleetResult(spec, self.seed, totals, finals, wall, perf)


def run_megafleet(
    name_or_spec, seed: int = 0, shards: int = 1, jobs: int = 1,
    duration: Optional[float] = None,
) -> MegafleetResult:
    """Run a catalog fleet (or an explicit spec) through the sharded engine."""
    spec = (
        name_or_spec
        if isinstance(name_or_spec, MegafleetSpec)
        else get_megafleet(str(name_or_spec))
    )
    if duration is not None:
        from dataclasses import replace

        spec = replace(spec, duration=float(duration))
    return ShardedFleetSimulator(spec, seed=seed).run(shards=shards, jobs=jobs)
