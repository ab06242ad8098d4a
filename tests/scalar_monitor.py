"""Scalar per-VM monitoring: the oracle the array telemetry plane is tested against.

:func:`scalar_estimate` reduces one ``(n, d)`` sample window the way each
built-in estimator is defined, a row or a column at a time and without calling
any estimator kernel.  One :class:`VMMonitor` per hosted VM (bounded sample
history) and one :class:`HostMonitor` summarizing the host are the
straightforward object implementation of LC-side monitoring.  The estimator
kernels and ``repro.monitoring.arrays`` must stay bit-identical to them
(``tests/test_properties_monitoring.py``); nothing in ``src`` uses them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional

import numpy as np

from repro.cluster.node import PhysicalNode
from repro.cluster.resources import ResourceVector
from repro.cluster.vm import VirtualMachine
from repro.monitoring.estimators import DemandEstimator, EwmaEstimator


def scalar_estimate(estimator: DemandEstimator, samples: np.ndarray) -> np.ndarray:
    """Reduce one non-empty ``(n, d)`` window to the ``(d,)`` estimate ``estimator`` defines.

    Reads only the estimator's name and parameters: mean and max reduce the
    window's rows, EWMA folds the rows oldest first, and the percentile is
    taken per dimension.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[0] == 0:
        raise ValueError("samples must be a non-empty (n, d) array")
    if estimator.name == "mean":
        return samples.mean(axis=0)
    if estimator.name == "max":
        return samples.max(axis=0)
    if estimator.name == "ewma":
        estimate = samples[0].copy()
        for row in samples[1:]:
            estimate = estimator.alpha * row + (1.0 - estimator.alpha) * estimate
        return estimate
    if estimator.name == "percentile":
        return np.percentile(samples, estimator.percentile, axis=0)
    raise ValueError(f"no scalar form for estimator {estimator.name!r}")


@dataclass(frozen=True)
class MonitoringSample:
    """One utilization observation of a VM (or host) at a point in time."""

    timestamp: float
    usage: ResourceVector

    def as_array(self) -> np.ndarray:
        """The usage vector as a plain numpy array."""
        return self.usage.values


class VMMonitor:
    """Bounded history of utilization samples for one VM plus demand estimation."""

    def __init__(
        self,
        vm: VirtualMachine,
        window: int = 20,
        estimator: Optional[DemandEstimator] = None,
    ) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.vm = vm
        self.window = int(window)
        self.estimator = estimator or EwmaEstimator()
        self._samples: Deque[MonitoringSample] = deque(maxlen=self.window)

    def sample(self, now: float) -> MonitoringSample:
        """Refresh the VM's usage from its trace and append a sample."""
        usage = self.vm.update_usage(now)
        record = MonitoringSample(timestamp=now, usage=usage)
        self._samples.append(record)
        return record

    @property
    def samples(self) -> List[MonitoringSample]:
        """Current sample window, oldest first."""
        return list(self._samples)

    def estimate_demand(self) -> ResourceVector:
        """Estimated demand vector; falls back to the reservation when empty."""
        if not self._samples:
            return self.vm.requested
        matrix = np.vstack([sample.as_array() for sample in self._samples])
        estimate = scalar_estimate(self.estimator, matrix)
        # Never estimate above the reservation: the reservation caps what the
        # hypervisor will give the VM.
        capped = np.minimum(estimate, self.vm.requested.values)
        return ResourceVector(capped, self.vm.requested.dimensions)


class HostMonitor:
    """Aggregated view of one physical node and its VM monitors."""

    def __init__(
        self,
        node: PhysicalNode,
        window: int = 20,
        estimator: Optional[DemandEstimator] = None,
    ) -> None:
        self.node = node
        self.window = int(window)
        self.estimator = estimator or EwmaEstimator()
        self._vm_monitors: Dict[int, VMMonitor] = {}

    # ----------------------------------------------------------------- per VM
    def track_vm(self, vm: VirtualMachine) -> VMMonitor:
        """Start (or continue) monitoring a VM placed on this host."""
        if vm.vm_id not in self._vm_monitors:
            self._vm_monitors[vm.vm_id] = VMMonitor(vm, self.window, self.estimator)
        return self._vm_monitors[vm.vm_id]

    def untrack_vm(self, vm: VirtualMachine) -> None:
        """Stop monitoring a VM (it left this host)."""
        self._vm_monitors.pop(vm.vm_id, None)

    def vm_monitor(self, vm: VirtualMachine) -> Optional[VMMonitor]:
        """The monitor of a VM, if tracked."""
        return self._vm_monitors.get(vm.vm_id)

    # ------------------------------------------------------------------ sweep
    def sample_all(self, now: float) -> Dict[int, MonitoringSample]:
        """Sample every tracked VM; also reconciles with the node's VM list."""
        hosted_ids = {vm.vm_id for vm in self.node.vms}
        # Track newly placed VMs and drop ones that left.
        for vm in self.node.vms:
            self.track_vm(vm)
        for vm_id in list(self._vm_monitors):
            if vm_id not in hosted_ids:
                del self._vm_monitors[vm_id]
        return {vm_id: monitor.sample(now) for vm_id, monitor in self._vm_monitors.items()}

    def estimated_used(self) -> ResourceVector:
        """Sum of estimated VM demands on this host."""
        total = np.zeros(len(self.node.capacity))
        for monitor in self._vm_monitors.values():
            total += monitor.estimate_demand().values
        return ResourceVector(total, self.node.capacity.dimensions)

    def utilization(self) -> float:
        """Scalar CPU utilization estimate in [0, 1]."""
        dims = self.node.capacity.dimensions
        cpu_index = dims.index("cpu") if "cpu" in dims else 0
        capacity = self.node.capacity.values[cpu_index]
        if capacity <= 0:
            return 0.0
        return float(min(self.estimated_used().values[cpu_index] / capacity, 1.0))

    def refresh(self, now: float) -> None:
        """Append one sample per tracked VM (reconciling with the node's VM list)."""
        self.sample_all(now)

    def build_report(self, now: float) -> dict:
        """The monitoring payload, from the current sample windows (no resampling)."""
        return {
            "node_id": self.node.node_id,
            "timestamp": now,
            "capacity": self.node.capacity.values.tolist(),
            "used": self.estimated_used().values.tolist(),
            "reserved": self.node.reserved().values.tolist(),
            "vm_count": self.node.vm_count,
            "utilization": self.utilization(),
            "vm_usage": {
                vm_id: monitor.estimate_demand().values.tolist()
                for vm_id, monitor in self._vm_monitors.items()
            },
        }

    def report(self, now: float) -> dict:
        """Sample every tracked VM, then build the LC's monitoring payload."""
        self.refresh(now)
        return self.build_report(now)
