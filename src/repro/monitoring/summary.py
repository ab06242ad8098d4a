"""Group Manager resource summaries.

Paper Section II.B: "each GM periodically sends aggregated resource monitoring
information to the GL. This information includes the used and total capacity
of the GM".  Section II.C stresses that this summary is deliberately *not*
sufficient for exact placement (the free capacity may be fragmented across
Local Controllers), which is why the Group Leader only produces a candidate
list and the Group Managers do the real placement.  The summary therefore
carries exactly: used, reserved and total capacity, LC count and the largest
single free slot (so the GL can cheaply rule out GMs that obviously cannot
host a VM).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence

import numpy as np

from repro.cluster.node import PhysicalNode
from repro.cluster.resources import DEFAULT_DIMENSIONS, ResourceVector
from repro.monitoring.arrays import report_columns


@dataclass
class GroupManagerSummary:
    """Aggregated capacity view of one Group Manager, as sent to the Group Leader."""

    gm_id: str
    timestamp: float
    total_capacity: ResourceVector
    reserved: ResourceVector
    used: ResourceVector
    local_controller_count: int
    active_vm_count: int
    #: The largest per-dimension free reservation on any single LC: an upper
    #: bound on the biggest VM this GM could host without migrations.
    largest_free_slot: ResourceVector

    # --------------------------------------------------------------- derived
    def free_capacity(self) -> ResourceVector:
        """Total unreserved capacity across the GM's LCs (possibly fragmented).

        Memoized: summaries are immutable snapshots, and Group Leader
        dispatching probes this once per known GM per submission.
        """
        cached = getattr(self, "_free_capacity", None)
        if cached is None:
            cached = (self.total_capacity - self.reserved).clamp_nonnegative()
            self._free_capacity = cached
        return cached

    def utilization(self) -> float:
        """Scalar reserved/total ratio averaged over dimensions (GL load balancing key)."""
        total = self.total_capacity.values
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(total > 0, self.reserved.values / total, 0.0)
        return float(ratios.mean()) if ratios.size else 0.0

    def to_payload(self) -> dict:
        """Serialize for transmission over the simulated network."""
        return {
            "gm_id": self.gm_id,
            "timestamp": self.timestamp,
            "total_capacity": self.total_capacity.values.tolist(),
            "reserved": self.reserved.values.tolist(),
            "used": self.used.values.tolist(),
            "local_controller_count": self.local_controller_count,
            "active_vm_count": self.active_vm_count,
            "largest_free_slot": self.largest_free_slot.values.tolist(),
        }

    @classmethod
    def from_payload(cls, payload: dict, dimensions: Sequence[str] = DEFAULT_DIMENSIONS) -> "GroupManagerSummary":
        """Deserialize a payload produced by :meth:`to_payload`."""
        return cls(
            gm_id=payload["gm_id"],
            timestamp=float(payload["timestamp"]),
            total_capacity=ResourceVector(payload["total_capacity"], dimensions),
            reserved=ResourceVector(payload["reserved"], dimensions),
            used=ResourceVector(payload["used"], dimensions),
            local_controller_count=int(payload["local_controller_count"]),
            active_vm_count=int(payload["active_vm_count"]),
            largest_free_slot=ResourceVector(payload["largest_free_slot"], dimensions),
        )

    @classmethod
    def from_reports(
        cls,
        gm_id: str,
        timestamp: float,
        lc_reports: Iterable[dict],
        dimensions: Sequence[str] = DEFAULT_DIMENSIONS,
    ) -> "GroupManagerSummary":
        """Aggregate the latest LC monitoring reports into a GM summary.

        Vectorized but bit-identical to a sequential per-report fold:
        ``np.add.accumulate`` is left-to-right by construction, and the
        largest free slot is the lexicographic maximum either way.
        """
        reports = list(lc_reports)
        if not reports:
            empty = np.zeros((0, len(dimensions)))
            return cls.from_rows(gm_id, timestamp, empty, empty, empty, 0, dimensions)
        return cls.from_rows(
            gm_id,
            timestamp,
            np.asarray([report["capacity"] for report in reports], dtype=float),
            np.asarray([report["reserved"] for report in reports], dtype=float),
            np.asarray([report["used"] for report in reports], dtype=float),
            sum(int(report.get("vm_count", 0)) for report in reports),
            dimensions,
        )

    @classmethod
    def from_rows(
        cls,
        gm_id: str,
        timestamp: float,
        capacity_rows: np.ndarray,
        reserved_rows: np.ndarray,
        used_rows: np.ndarray,
        vm_count: int,
        dimensions: Sequence[str] = DEFAULT_DIMENSIONS,
    ) -> "GroupManagerSummary":
        """:meth:`from_reports` on ``(n, d)`` report columns (one row per LC)."""
        lc_count = capacity_rows.shape[0]
        if lc_count:
            total = np.add.accumulate(capacity_rows, axis=0)[-1]
            reserved = np.add.accumulate(reserved_rows, axis=0)[-1]
            used = np.add.accumulate(used_rows, axis=0)[-1]
            free_rows = np.maximum(capacity_rows - reserved_rows, 0.0)
            # "largest" judged by the CPU dimension first, then memory: a simple
            # componentwise max would overestimate (mixing slots of different
            # LCs).  Stable lexsort picks the lexicographically largest row;
            # all rows are non-negative, so an all-zero maximum keeps the
            # zero-vector default.
            candidate = free_rows[np.lexsort(free_rows.T[::-1])[-1]]
            largest_slot = candidate if candidate.any() else np.zeros(len(dimensions))
        else:
            total = np.zeros(len(dimensions))
            reserved = np.zeros(len(dimensions))
            used = np.zeros(len(dimensions))
            largest_slot = np.zeros(len(dimensions))
        return cls(
            gm_id=gm_id,
            timestamp=timestamp,
            total_capacity=ResourceVector(total, dimensions),
            reserved=ResourceVector(reserved, dimensions),
            used=ResourceVector(used, dimensions),
            local_controller_count=lc_count,
            active_vm_count=vm_count,
            largest_free_slot=ResourceVector(largest_slot, dimensions),
        )


class ReportRoute:
    """Which rows of a tick's report table go to one Group Manager, from whom.

    Built by the sending side (the Local Controller fleet) and reused tick
    after tick for as long as membership holds, so the receiving
    :class:`GroupReports` can keep what it resolved about the senders on it.
    """

    __slots__ = ("names", "rows", "_slots", "_known", "_epoch")

    def __init__(self, names: Sequence[str], rows: Sequence[int]) -> None:
        #: Reporting LC names, and their row in the report table, in send order.
        self.names = list(names)
        self.rows = np.asarray(rows, dtype=np.int64)
        # Receiver-side cache: resident rows of the known senders, as of ``_epoch``.
        self._slots = self.rows
        self._known = self.rows
        self._epoch = -1


class GroupReports:
    """The latest monitoring report of each of a Group Manager's LCs, as array rows.

    One resident ``[capacity | reserved | used | vm_count]`` row per LC in
    join order -- the layout :class:`~repro.monitoring.arrays.HostRows`
    produces -- so storing a tick's reports is one indexed write and the GM
    summary sums the columns directly.
    """

    def __init__(self) -> None:
        self._row: Dict[str, int] = {}
        self._nodes: List[PhysicalNode] = []
        self._rows = np.zeros((0, 0))
        self._reported = np.zeros(0, dtype=bool)
        #: Moves whenever an LC is added or removed (report routes cache on it).
        self._epoch = 0

    def __len__(self) -> int:
        return len(self._nodes)

    def add(self, lc_name: str, node: PhysicalNode) -> None:
        """Append a joined LC (no report yet: summaries read the node's static state)."""
        n = len(self._nodes)
        if n == self._reported.size:
            width = 3 * len(node.capacity) + 1
            rows = np.zeros((max(16, 2 * n), width))
            if n:
                rows[:n] = self._rows[:n]
            self._rows = rows
            self._reported = np.concatenate([self._reported, np.zeros(len(rows) - n, dtype=bool)])
        self._row[lc_name] = n
        self._nodes.append(node)
        self._reported[n] = False
        self._epoch += 1

    def remove(self, lc_name: str) -> None:
        """Drop a removed LC's row (later rows move up, keeping join order)."""
        row = self._row.pop(lc_name, None)
        if row is None:
            return
        n = len(self._nodes)
        del self._nodes[row]
        self._rows[row : n - 1] = self._rows[row + 1 : n]
        self._reported[row : n - 1] = self._reported[row + 1 : n]
        for name, index in self._row.items():
            if index > row:
                self._row[name] = index - 1
        self._epoch += 1

    def clear(self) -> None:
        """Forget every LC (GM failure)."""
        self._row.clear()
        self._nodes.clear()
        self._epoch += 1

    def store(self, route: ReportRoute, table: np.ndarray) -> None:
        """Keep the routed rows of a tick's report ``table``; unknown senders are skipped."""
        if route._epoch != self._epoch:
            slots = np.array([self._row.get(name, -1) for name in route.names], dtype=np.int64)
            known = slots >= 0
            route._slots, route._known = slots[known], route.rows[known]
            route._epoch = self._epoch
        if route._slots.size:
            self._rows[route._slots] = table[route._known]
            self._reported[route._slots] = True

    def summarize(self, gm_id: str, timestamp: float) -> "GroupManagerSummary":
        """The GM summary over the stored rows, in join order."""
        n = len(self._nodes)
        if n == 0:
            return GroupManagerSummary.from_reports(gm_id, timestamp, [])
        rows = self._rows[:n]
        if not self._reported[:n].all():
            rows = rows.copy()
            for row in np.flatnonzero(~self._reported[:n]).tolist():
                # No monitoring data yet: report the node's static state.
                node = self._nodes[row]
                rows[row] = np.concatenate(
                    [node.capacity.values, node.reserved_values(), node.used_values(), [node.vm_count]]
                )
        capacity, reserved, used, vm_counts = report_columns(rows)
        return GroupManagerSummary.from_rows(
            gm_id, timestamp, capacity, reserved, used, int(vm_counts.sum())
        )
