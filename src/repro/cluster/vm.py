"""Virtual machine model.

A VM has a *requested* capacity (its reservation, what the client asked for in
the submission request) and a *used* demand (its current estimated resource
usage, driven by a CPU-utilization trace from :mod:`repro.workloads.traces`).
Scheduling placements reserve by request; overload/underload detection and
consolidation look at usage, exactly as in Snooze where Local Controllers
monitor VM utilization and Group Managers estimate demand (paper Section II.B).
"""

from __future__ import annotations

import enum
import itertools
from typing import Optional

from repro.cluster.resources import ResourceVector


class VMState(enum.Enum):
    """Lifecycle of a virtual machine inside the simulation."""

    #: Submitted but not yet placed on any Local Controller.
    PENDING = "pending"
    #: Placed and running on a Local Controller.
    RUNNING = "running"
    #: Currently being live-migrated between Local Controllers.
    MIGRATING = "migrating"
    #: Finished (its requested runtime elapsed) and released its resources.
    FINISHED = "finished"
    #: Lost due to a Local Controller failure (paper Section II.E).
    FAILED = "failed"


_vm_counter = itertools.count()


class VirtualMachine:
    """A virtual machine with static reservation and dynamic usage."""

    __slots__ = (
        "vm_id",
        "name",
        "requested",
        "_used",
        "_host_nodes",
        "state",
        "host_id",
        "submit_time",
        "start_time",
        "finish_time",
        "runtime",
        "memory_mb",
        "trace",
        "migrations",
        "metadata",
        "_last_fraction",
    )

    def __init__(
        self,
        requested: ResourceVector,
        name: Optional[str] = None,
        runtime: Optional[float] = None,
        memory_mb: Optional[float] = None,
        trace=None,
        vm_id: Optional[int] = None,
    ) -> None:
        self.vm_id = next(_vm_counter) if vm_id is None else int(vm_id)
        self.name = name or f"vm-{self.vm_id}"
        self.requested = requested
        #: Nodes currently accounting for this VM (set by PhysicalNode; two
        #: entries during live-migration dual occupancy).  Lets ``used``
        #: writes invalidate every hosting node's cached usage aggregate.
        self._host_nodes: tuple = ()
        #: Current estimated usage; starts at the full reservation which is the
        #: conservative assumption Snooze makes before monitoring data arrives.
        self.used = requested
        self.state = VMState.PENDING
        #: Identifier of the Local Controller currently hosting the VM (or None).
        self.host_id: Optional[str] = None
        self.submit_time: Optional[float] = None
        self.start_time: Optional[float] = None
        self.finish_time: Optional[float] = None
        #: Requested runtime in seconds; ``None`` means "runs until the end of the experiment".
        self.runtime = runtime
        #: Memory footprint in MB, used by the live-migration cost model.
        self.memory_mb = float(memory_mb) if memory_mb is not None else 1024.0 * max(
            self.requested["memory"] if "memory" in self.requested.dimensions else 0.25, 0.05
        )
        #: Optional utilization trace (callable ``trace(t) -> fraction in [0, 1]``).
        self.trace = trace
        #: Number of live migrations this VM has undergone.
        self.migrations = 0
        #: Free-form annotations (owner, application tag, ...).
        self.metadata: dict = {}
        #: Trace fraction behind the current ``used`` vector (memo: ``used``
        #: is a pure function of the fraction, so an unchanged fraction --
        #: ubiquitous with constant traces -- skips rebuilding the vector).
        self._last_fraction: Optional[float] = None

    # ------------------------------------------------------------------ state
    @property
    def used(self) -> ResourceVector:
        """Current estimated usage (driven by the utilization trace)."""
        return self._used

    @used.setter
    def used(self, value: ResourceVector) -> None:
        self._used = value
        for node in self._host_nodes:
            node._used_cache = None
            if node._watchers:
                for watcher in node._watchers:
                    watcher(node)

    @property
    def is_active(self) -> bool:
        """True while the VM occupies resources on a host."""
        return self.state in (VMState.RUNNING, VMState.MIGRATING)

    def update_usage(self, now: float) -> ResourceVector:
        """Refresh :attr:`used` from the utilization trace at simulated time ``now``.

        The trace yields a scalar utilization fraction applied to the CPU
        dimension; other dimensions stay at the reservation (memory is not
        elastic, network follows CPU at a damped factor), matching the demand
        model of the authors' GRID'11 evaluation.
        """
        if self.trace is None:
            return self.used
        fraction = float(self.trace(now))
        fraction = min(max(fraction, 0.0), 1.0)
        if fraction == self._last_fraction:
            return self.used
        self._last_fraction = fraction
        values = self.requested.values.copy()
        dims = self.requested.dimensions
        for i, dim in enumerate(dims):
            if dim == "cpu":
                values[i] = self.requested.values[i] * fraction
            elif dim == "network":
                values[i] = self.requested.values[i] * (0.5 + 0.5 * fraction)
        self.used = ResourceVector(values, dims)
        return self.used

    def mark_submitted(self, now: float) -> None:
        """Record the submission time."""
        self.submit_time = now

    def mark_started(self, now: float, host_id: str) -> None:
        """Transition to RUNNING on ``host_id``."""
        self.state = VMState.RUNNING
        self.host_id = host_id
        if self.start_time is None:
            self.start_time = now

    def mark_finished(self, now: float) -> None:
        """Transition to FINISHED and release the host association."""
        self.state = VMState.FINISHED
        self.finish_time = now
        self.host_id = None

    def mark_failed(self, now: float) -> None:
        """Transition to FAILED (host crashed under it)."""
        self.state = VMState.FAILED
        self.finish_time = now
        self.host_id = None

    def __repr__(self) -> str:
        return (
            f"<VM {self.name} state={self.state.value} host={self.host_id} "
            f"req={self.requested!r}>"
        )
