"""Physical node ("Local Controller host") model.

A :class:`PhysicalNode` tracks its capacity, the VMs placed on it, its power
state, and can answer the questions the management layer asks:

* does this VM fit? (reservation-based admission)
* what is my current utilization? (usage-based, for overload/underload
  detection and for the power model)
* am I idle? (for the energy manager's suspend decision)
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional

import numpy as np

from repro.cluster.power import LinearPowerModel
from repro.cluster.resources import DEFAULT_DIMENSIONS, ResourceError, ResourceVector
from repro.cluster.vm import VirtualMachine


class NodeState(enum.Enum):
    """Power / availability state of a physical node."""

    ON = "on"
    SUSPENDING = "suspending"
    SUSPENDED = "suspended"
    WAKING = "waking"
    #: Crashed (failure injection); distinct from SUSPENDED because it is
    #: involuntary and loses the hosted VMs.
    FAILED = "failed"


class PhysicalNode:
    """A host managed by one Snooze Local Controller."""

    def __init__(
        self,
        node_id: str,
        capacity: Optional[ResourceVector] = None,
        power_model: Optional[LinearPowerModel] = None,
    ) -> None:
        self.node_id = str(node_id)
        self.capacity = capacity or ResourceVector([1.0, 1.0, 1.0], DEFAULT_DIMENSIONS)
        if not self.capacity.is_nonnegative() or self.capacity.l1() == 0:
            raise ResourceError(f"node {node_id} capacity must be positive, got {self.capacity}")
        dims = self.capacity.dimensions
        #: Column of the CPU dimension (the utilization the thresholds and the
        #: power model read) and its capacity.
        self.cpu_index = dims.index("cpu") if "cpu" in dims else 0
        self._cpu_capacity = float(self.capacity.values[self.cpu_index])
        self.power_model: LinearPowerModel = power_model or LinearPowerModel()
        #: Hardware class of a heterogeneous fleet (None in homogeneous clusters).
        self.node_class: Optional[str] = None
        #: Change watchers (resident decision-plane rows): callables invoked
        #: with the node whenever its placement-relevant state moves -- VM set
        #: changes, any hosted VM's usage write, or a power-state transition.
        #: A tuple (not a list) so the empty common case costs one truthiness
        #: check per mutation and registration stays copy-on-write.
        self._watchers: tuple = ()
        self._state = NodeState.ON
        self._vms: Dict[int, VirtualMachine] = {}
        #: Cached sum of hosted VM reservations; invalidated whenever the VM
        #: set changes (reservations themselves are immutable after creation).
        self._reserved_cache: Optional[np.ndarray] = None
        #: Cached sum of hosted VM usage vectors; invalidated on VM set
        #: changes and -- via the ``VirtualMachine.used`` setter and the
        #: host-node back-reference -- whenever any hosted VM's usage moves.
        self._used_cache: Optional[np.ndarray] = None
        #: Simulated time at which the node last became idle (no VMs); used by
        #: the energy manager's idle-time threshold.
        self.idle_since: Optional[float] = 0.0
        #: Cumulative bookkeeping for reports.
        self.total_vms_hosted = 0
        self.suspend_count = 0
        self.wakeup_count = 0

    # ------------------------------------------------------------- watchers
    @property
    def state(self) -> NodeState:
        """Power / availability state (watched: transitions notify observers)."""
        return self._state

    @state.setter
    def state(self, value: NodeState) -> None:
        self._state = value
        if self._watchers:
            for watcher in self._watchers:
                watcher(self)

    def watch(self, callback) -> None:
        """Register ``callback(node)`` to run after every placement-relevant change."""
        if callback not in self._watchers:
            self._watchers = (*self._watchers, callback)

    def unwatch(self, callback) -> None:
        """Remove a watcher registered with :meth:`watch` (no-op if absent)."""
        self._watchers = tuple(cb for cb in self._watchers if cb != callback)

    def _notify_watchers(self) -> None:
        if self._watchers:
            for watcher in self._watchers:
                watcher(self)

    # ------------------------------------------------------------------ VMs
    @property
    def vms(self) -> List[VirtualMachine]:
        """VMs currently placed on this node (running or migrating)."""
        return list(self._vms.values())

    @property
    def vm_count(self) -> int:
        """Number of VMs currently placed on the node."""
        return len(self._vms)

    def hosts_vm(self, vm: VirtualMachine) -> bool:
        """True if the VM is currently placed here."""
        return vm.vm_id in self._vms

    def reserved_values(self) -> np.ndarray:
        """Reserved capacity as a raw array (cached; callers must not mutate it)."""
        if self._reserved_cache is None:
            total = np.zeros(len(self.capacity))
            for vm in self._vms.values():
                total += vm.requested.values
            self._reserved_cache = total
        return self._reserved_cache

    def used_values(self) -> np.ndarray:
        """Used capacity as a raw array (cached; callers must not mutate it)."""
        if self._used_cache is None:
            total = np.zeros(len(self.capacity))
            for vm in self._vms.values():
                total += vm.used.values
            self._used_cache = total
        return self._used_cache

    def used(self) -> ResourceVector:
        """Sum of the *used* vectors of hosted VMs (monitoring view)."""
        return ResourceVector(self.used_values().copy(), self.capacity.dimensions)

    def utilization(self) -> float:
        """Scalar CPU utilization in [0, 1] based on current usage."""
        cap = self._cpu_capacity
        if cap <= 0:
            return 0.0
        return float(min(self.used_values()[self.cpu_index] / cap, 1.0))

    def fits(self, vm: VirtualMachine) -> bool:
        """Reservation-based admission check, with a 1e-9 tolerance per dimension."""
        requested = vm.requested
        if requested.dimensions != self.capacity.dimensions:
            raise ResourceError(
                f"dimension mismatch: {self.capacity.dimensions} vs {requested.dimensions}"
            )
        return bool(
            np.all(self.reserved_values() + requested.values <= self.capacity.values + 1e-9)
        )

    def place_vm(self, vm: VirtualMachine, now: float = 0.0) -> None:
        """Place a VM on this node, reserving its requested capacity.

        Raises :class:`ResourceError` if the VM does not fit or the node is
        not powered on -- the scheduler is expected to have checked both.
        """
        if self.state is not NodeState.ON:
            raise ResourceError(f"cannot place VM on node {self.node_id} in state {self.state}")
        if vm.vm_id in self._vms:
            raise ResourceError(f"VM {vm.name} already placed on node {self.node_id}")
        if not self.fits(vm):
            raise ResourceError(
                f"VM {vm.name} ({vm.requested!r}) does not fit on node "
                f"{self.node_id} (available {self.capacity - self.reserved_values()!r})"
            )
        self._vms[vm.vm_id] = vm
        self._reserved_cache = None
        self._used_cache = None
        self._notify_watchers()
        vm._host_nodes = (*vm._host_nodes, self)
        vm.mark_started(now, self.node_id)
        self.total_vms_hosted += 1
        self.idle_since = None

    def remove_vm(self, vm: VirtualMachine, now: float = 0.0) -> None:
        """Remove a VM (it finished, failed over, or is migrating away)."""
        if vm.vm_id not in self._vms:
            raise ResourceError(f"VM {vm.name} is not on node {self.node_id}")
        del self._vms[vm.vm_id]
        self._reserved_cache = None
        self._used_cache = None
        self._notify_watchers()
        vm._host_nodes = tuple(node for node in vm._host_nodes if node is not self)
        if vm.host_id == self.node_id:
            vm.host_id = None
        if not self._vms:
            self.idle_since = now

    def evict_all(self, now: float = 0.0) -> List[VirtualMachine]:
        """Remove and return all VMs (used by failure injection)."""
        vms = list(self._vms.values())
        self._vms.clear()
        self._reserved_cache = None
        self._used_cache = None
        self._notify_watchers()
        for vm in vms:
            vm._host_nodes = tuple(node for node in vm._host_nodes if node is not self)
        self.idle_since = now
        return vms

    # ----------------------------------------------------------------- power
    @property
    def is_idle(self) -> bool:
        """True if ON with no VMs placed."""
        return self.state is NodeState.ON and not self._vms

    @property
    def is_available_for_placement(self) -> bool:
        """True if new VMs may be scheduled here right now (ON and not failed)."""
        return self.state is NodeState.ON

    def idle_duration(self, now: float) -> float:
        """Seconds the node has been idle, or 0 if busy / not ON."""
        if not self.is_idle or self.idle_since is None:
            return 0.0
        return max(0.0, now - self.idle_since)

    def current_power(self, sleep_power: Optional[float] = None) -> float:
        """Instantaneous power draw in Watts given the node's state and utilization."""
        if self.state is NodeState.FAILED:
            return 0.0
        if self.state is NodeState.SUSPENDED:
            return sleep_power if sleep_power is not None else 10.0
        if self.state in (NodeState.SUSPENDING, NodeState.WAKING):
            # Transitions draw roughly full power (disks spinning, devices resuming).
            return self.power_model.max_power()
        return self.power_model.power(self.utilization())

    def __repr__(self) -> str:
        return (
            f"<Node {self.node_id} state={self.state.value} vms={len(self._vms)} "
            f"util={self.utilization():.2f}>"
        )
