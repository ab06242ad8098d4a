"""Array-backed telemetry plane: vectorized VM monitoring.

A scalar monitor (kept as the test oracle ``tests/scalar_monitor.py``)
materializes one sample object per VM per monitoring tick and re-runs the
demand estimator from a fresh ``np.vstack`` of the sample window *three times*
per report (once for ``used``, once for ``utilization``, once for
``vm_usage``).  At fleet scale that object churn and the per-VM micro-kernels
dominate the simulation's wall clock.

This module instead keeps a single :class:`TelemetryPlane` shared by all Local
Controllers of a deployment:

* one ``(slots, window, dims)`` float64 ring buffer holds the sample windows
  of every VM in the fleet (a slot per VM, allocated on placement and
  recycled on departure);
* demand estimates are computed **vectorized across all stale slots at
  once** -- one numpy kernel per estimator per distinct window fill level --
  and cached per slot until its next sample write (a stale-slot set), so each
  report reads precomputed rows;
* :class:`ArrayHostMonitor` is the per-host monitor built on the plane.

Bit-identity contract
---------------------
The plane is an *optimization*, not a behaviour change: every estimate it
produces is **bit-identical** to the scalar oracle (``VMMonitor`` /
``HostMonitor`` in ``tests/scalar_monitor.py``) for the same sample stream.  The vectorized kernels mirror
the scalar operation order exactly (elementwise float64 arithmetic is
independent of batch shape; axis reductions over equal-length contiguous
windows share numpy's pairwise tree), host-level aggregation accumulates VM
rows sequentially in tracking order like the scalar loop, and the golden
scenario fixtures plus the hypothesis property suite
(``tests/test_properties_monitoring.py``) pin the equivalence.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.cluster.node import PhysicalNode
from repro.cluster.resources import ResourceVector
from repro.cluster.vm import VirtualMachine
from repro.monitoring.estimators import (
    DemandEstimator,
    EwmaEstimator,
    MaxEstimator,
    MeanEstimator,
    PercentileEstimator,
)

#: Initial slot capacity of a plane (grown geometrically on demand).
_INITIAL_CAPACITY = 64


def estimate_windows(
    estimator: DemandEstimator, windows: np.ndarray
) -> np.ndarray:
    """Apply ``estimator`` to a ``(m, n, d)`` block of equal-length windows.

    Returns the ``(m, d)`` estimates, bit-identical to calling
    ``estimator.estimate`` on each ``(n, d)`` window separately.  The four
    built-in estimators take vectorized fast paths; unknown estimator types
    fall back to the per-window reference implementation.
    """
    windows = np.ascontiguousarray(windows, dtype=float)
    if windows.ndim != 3 or windows.shape[1] == 0:
        raise ValueError("windows must be a non-empty (m, n, d) block")
    kind = type(estimator)
    if kind is MeanEstimator:
        return windows.mean(axis=1)
    if kind is MaxEstimator:
        return windows.max(axis=1)
    if kind is EwmaEstimator:
        alpha = estimator.alpha
        estimate = windows[:, 0].copy()
        for position in range(1, windows.shape[1]):
            estimate = alpha * windows[:, position] + (1.0 - alpha) * estimate
        return estimate
    if kind is PercentileEstimator:
        return np.percentile(windows, estimator.percentile, axis=1)
    # Custom estimator subclass: exactness by construction, no vectorization.
    return np.stack([estimator.estimate(window) for window in windows])


class TelemetryPlane:
    """Fleet-wide ring buffers of VM utilization samples plus cached estimates."""

    SERVICE_NAME = "telemetry-plane"

    def __init__(self, window: int, estimator: DemandEstimator) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = int(window)
        self.estimator = estimator
        self._dims: Optional[int] = None
        self._samples: Optional[np.ndarray] = None  # (cap, window, d)
        self._requested: Optional[np.ndarray] = None  # (cap, d)
        self._estimates: Optional[np.ndarray] = None  # (cap, d) cache rows
        self._pos = np.zeros(0, dtype=np.int64)  # next write index per slot
        self._counts = np.zeros(0, dtype=np.int64)  # samples held per slot
        self._vms: List[Optional[VirtualMachine]] = []
        self._free: List[int] = []
        self._live: set = set()
        #: Slots whose window changed since their estimate row was computed.
        self._stale: set = set()

    # ------------------------------------------------------------------ service
    @classmethod
    def shared(cls, sim, window: int, estimator: DemandEstimator) -> "TelemetryPlane":
        """The per-simulation shared plane (created on first use).

        A deployment whose components disagree on window/estimator settings
        gets a private plane per distinct configuration instead of sharing.
        """
        if sim.has_service(cls.SERVICE_NAME):
            plane = sim.get_service(cls.SERVICE_NAME)
            if plane.window == int(window) and _same_estimator(plane.estimator, estimator):
                return plane
            return cls(window, estimator)
        plane = cls(window, estimator)
        sim.register_service(cls.SERVICE_NAME, plane)
        return plane

    # ------------------------------------------------------------------- slots
    def __len__(self) -> int:
        return len(self._live)

    @property
    def capacity(self) -> int:
        """Allocated slot capacity (monotone, grown geometrically)."""
        return len(self._vms)

    def _grow(self, minimum: int) -> None:
        old = self.capacity
        new = max(_INITIAL_CAPACITY, minimum, 2 * old)
        assert self._dims is not None
        d = self._dims

        def grown(array: Optional[np.ndarray], shape) -> np.ndarray:
            fresh = np.zeros(shape, dtype=float)
            if array is not None and old:
                fresh[:old] = array
            return fresh

        self._samples = grown(self._samples, (new, self.window, d))
        self._requested = grown(self._requested, (new, d))
        self._estimates = grown(self._estimates, (new, d))
        for name in ("_pos", "_counts"):
            fresh = np.zeros(new, dtype=np.int64)
            fresh[:old] = getattr(self, name)
            setattr(self, name, fresh)
        self._vms.extend([None] * (new - old))
        self._free.extend(range(new - 1, old - 1, -1))

    def allocate(self, vm: VirtualMachine) -> int:
        """Claim a slot for ``vm`` (empty window, estimate falls back to the reservation)."""
        requested = np.asarray(vm.requested.values, dtype=float)
        if self._dims is None:
            self._dims = requested.shape[0]
        elif requested.shape[0] != self._dims:
            raise ValueError(
                f"VM {vm.name} has {requested.shape[0]} resource dimensions, "
                f"plane tracks {self._dims}"
            )
        if not self._free:
            self._grow(self.capacity + 1)
        slot = self._free.pop()
        self._vms[slot] = vm
        self._requested[slot] = requested
        self._pos[slot] = 0
        self._counts[slot] = 0
        self._live.add(slot)
        self._stale.add(slot)  # retire any cached estimate of a prior tenant
        return slot

    def release(self, slot: int) -> None:
        """Return a slot to the free pool (its window is discarded)."""
        if slot not in self._live:
            return
        self._live.discard(slot)
        self._stale.discard(slot)
        self._vms[slot] = None
        self._free.append(slot)

    def vm_at(self, slot: int) -> Optional[VirtualMachine]:
        """The VM currently occupying ``slot`` (None if free)."""
        return self._vms[slot]

    # ----------------------------------------------------------------- samples
    def record(self, slot: int, values: np.ndarray) -> None:
        """Append one usage sample to the slot's ring (evicting the oldest when full)."""
        self._samples[slot, self._pos[slot]] = values
        self._pos[slot] = (self._pos[slot] + 1) % self.window
        self._counts[slot] = min(self._counts[slot] + 1, self.window)
        self._stale.add(slot)

    def count(self, slot: int) -> int:
        """Number of samples currently held for ``slot``."""
        return int(self._counts[slot])

    def window_view(self, slot: int) -> np.ndarray:
        """Chronological ``(count, d)`` copy of the slot's sample window."""
        n = int(self._counts[slot])
        if n < self.window:
            return self._samples[slot, :n].copy()
        pos = int(self._pos[slot])
        return np.concatenate([self._samples[slot, pos:], self._samples[slot, :pos]])

    # --------------------------------------------------------------- estimates
    def estimates(self, slots: Sequence[int]) -> np.ndarray:
        """Demand estimate rows for ``slots`` (``(len(slots), d)``).

        Estimates are cached per slot and recomputed only for slots whose
        window changed since they were last estimated.  The recomputation
        batch covers *every* stale live slot -- not just the requested ones --
        so a fleet-wide monitoring sweep vectorizes into one kernel invocation
        per window fill level regardless of how many hosts share the plane.
        """
        if self._dims is None:
            return np.zeros((0, 0), dtype=float)
        if self._stale:
            self._refresh(sorted(self._stale))
            self._stale.clear()
        return self._estimates[np.asarray(list(slots), dtype=np.int64)] if len(slots) else np.zeros(
            (0, self._dims), dtype=float
        )

    def estimate_row(self, slot: int) -> np.ndarray:
        """The cached estimate row of one slot (refreshing if stale)."""
        return self.estimates([slot])[0]

    def _refresh(self, slots: List[int]) -> None:
        by_count: Dict[int, List[int]] = {}
        for slot in slots:
            n = int(self._counts[slot])
            if n == 0:
                # Scalar reference: an empty window falls back to the
                # reservation, uncapped (it *is* the cap).
                self._estimates[slot] = self._requested[slot]
            else:
                by_count.setdefault(n, []).append(slot)
        for n, group in by_count.items():
            index = np.asarray(group, dtype=np.int64)
            if n < self.window:
                block = self._samples[index, :n]
            else:
                order = (self._pos[index][:, None] + np.arange(self.window)[None, :]) % self.window
                block = np.take_along_axis(self._samples[index], order[:, :, None], axis=1)
            estimate = estimate_windows(self.estimator, block)
            # Never estimate above the reservation (scalar VMMonitor contract).
            self._estimates[index] = np.minimum(estimate, self._requested[index])


def _same_estimator(left: DemandEstimator, right: DemandEstimator) -> bool:
    """Structural equality of estimator configurations (type + parameters)."""
    if type(left) is not type(right):
        return False
    if isinstance(left, EwmaEstimator):
        return left.alpha == right.alpha
    if isinstance(left, PercentileEstimator):
        return left.percentile == right.percentile
    return True


class ArrayHostMonitor:
    """The Local Controller's monitor of one physical node, on the plane.

    Tracks the node's VMs, refreshes their usage each monitoring interval and
    produces the LC's report payload; all sample state lives in the shared
    :class:`TelemetryPlane` and every estimate is read from its vectorized
    cache.
    """

    def __init__(self, node: PhysicalNode, plane: TelemetryPlane) -> None:
        self.node = node
        self.plane = plane
        #: vm_id -> plane slot, in first-tracked order (drives aggregation order).
        self._slots: Dict[int, int] = {}
        self._tracked: Dict[int, VirtualMachine] = {}

    @property
    def window(self) -> int:
        """Sample window length (plane-wide setting)."""
        return self.plane.window

    @property
    def estimator(self) -> DemandEstimator:
        """Demand estimator (plane-wide setting)."""
        return self.plane.estimator

    # ----------------------------------------------------------------- per VM
    def track_vm(self, vm: VirtualMachine) -> int:
        """Start (or continue) monitoring a VM placed on this host; returns its slot."""
        if vm.vm_id not in self._slots:
            self._slots[vm.vm_id] = self.plane.allocate(vm)
            self._tracked[vm.vm_id] = vm
        return self._slots[vm.vm_id]

    def untrack_vm(self, vm: VirtualMachine) -> None:
        """Stop monitoring a VM (it left this host)."""
        slot = self._slots.pop(vm.vm_id, None)
        self._tracked.pop(vm.vm_id, None)
        if slot is not None:
            self.plane.release(slot)

    def tracked_vm_ids(self) -> List[int]:
        """Currently tracked VM ids, in tracking order."""
        return list(self._slots)

    def estimate_demand(self, vm: VirtualMachine) -> ResourceVector:
        """Estimated demand vector of one tracked VM (reservation fallback when empty)."""
        slot = self._slots.get(vm.vm_id)
        if slot is None:
            return vm.requested
        return ResourceVector(self.plane.estimate_row(slot).copy(), vm.requested.dimensions)

    # ------------------------------------------------------------------ sweep
    def refresh(self, now: float) -> None:
        """Reconcile with the node's VM list and append one sample per VM."""
        hosted_ids = {vm.vm_id for vm in self.node.vms}
        for vm in self.node.vms:
            self.track_vm(vm)
        for vm_id in list(self._slots):
            if vm_id not in hosted_ids:
                self.untrack_vm(self._tracked[vm_id])
        for vm_id, slot in self._slots.items():
            usage = self._tracked[vm_id].update_usage(now)
            self.plane.record(slot, usage.values)

    def _estimate_rows(self) -> np.ndarray:
        return self.plane.estimates(list(self._slots.values()))

    def _fold_rows(self, rows: np.ndarray) -> np.ndarray:
        """Sum estimate rows sequentially in tracking order (scalar-loop bits)."""
        total = np.zeros(len(self.node.capacity))
        for row in rows:
            total += row
        return total

    def _cpu_utilization_of(self, total: np.ndarray) -> float:
        """Scalar CPU utilization in [0, 1] for a summed demand vector."""
        dims = self.node.capacity.dimensions
        cpu_index = dims.index("cpu") if "cpu" in dims else 0
        capacity = self.node.capacity.values[cpu_index]
        if capacity <= 0:
            return 0.0
        return float(min(total[cpu_index] / capacity, 1.0))

    def estimated_used(self) -> ResourceVector:
        """Sum of estimated VM demands on this host (sequential, tracking order)."""
        return ResourceVector(
            self._fold_rows(self._estimate_rows()), self.node.capacity.dimensions
        )

    def utilization(self) -> float:
        """Scalar CPU utilization estimate in [0, 1]."""
        return self._cpu_utilization_of(self._fold_rows(self._estimate_rows()))

    def build_report(self, now: float) -> dict:
        """The LC's monitoring payload, from the current sample windows.

        Unlike the scalar reference -- which recomputes every VM's estimate
        three times per report -- the estimate rows are computed once and
        every derived quantity reads them.
        """
        rows = self._estimate_rows()
        total = self._fold_rows(rows)
        utilization = self._cpu_utilization_of(total)
        return {
            "node_id": self.node.node_id,
            "timestamp": now,
            "capacity": self.node.capacity.values.tolist(),
            "used": total.tolist(),
            "reserved": self.node.reserved_values().tolist(),
            "vm_count": self.node.vm_count,
            "utilization": utilization,
            "vm_usage": {
                vm_id: rows[index].tolist()
                for index, vm_id in enumerate(self._slots)
            },
        }

    def report(self, now: float) -> dict:
        """Sample every tracked VM and build the report (scalar-API parity)."""
        self.refresh(now)
        return self.build_report(now)
