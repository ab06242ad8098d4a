"""Array-backed telemetry plane: the fleet's monitoring step as array rows.

One :class:`TelemetryPlane` is shared by every Local Controller of a
deployment that uses the same ``(window, estimator)`` settings:

* one ``(slots, window, dims)`` float64 ring buffer holds the sample windows
  of every VM in the fleet (a slot per VM, allocated on placement and
  recycled on departure), next to per-slot columns for the hosting row, the
  tracking order and the VM's start time and runtime;
* demand estimates are computed **vectorized across all stale slots at
  once** -- one numpy kernel per estimator per distinct window fill level --
  and cached per slot until its next sample write;
* :class:`HostRows` is the monitoring kernel over the hosts of one tick
  group: which rows host a VM whose lifetime ran out (one comparison over
  the slot columns), one bulk sample write, the estimate kernel, the per-host
  fold of estimate rows into ``used`` and the utilization column -- returned
  as one ``[capacity | reserved | used | vm_count]`` row per host, the layout
  :class:`~repro.monitoring.summary.GroupReports` stores on the Group Manager
  side.  The Local Controller fleet (:mod:`repro.hierarchy.fleet`) runs it
  once per monitoring tick;
* :class:`ArrayHostMonitor` is one host's handle on the plane (which VMs it
  tracks, in which order).

What stays Python by design is the per-VM ``update_usage`` trace call inside
the sample step: traces are arbitrary callables built on ``math``, and
re-expressing them in numpy would move results by an ulp (``numpy.sin`` vs
``math.sin``).

Bit-identity contract
---------------------
The plane is an *optimization*, not a behaviour change: every number it
produces is **bit-identical** to the scalar oracle (``VMMonitor`` /
``HostMonitor`` in ``tests/scalar_monitor.py``) for the same sample stream.
Every vectorized expression is the scalar one applied elementwise (float64
arithmetic is independent of batch shape; axis reductions over equal-length
contiguous windows share numpy's pairwise tree), and the host fold adds VM
rows one per host per round, in tracking order, like the scalar loop.  The
golden scenario fixtures, ``tests/test_properties_monitoring.py`` and the
per-LC oracle suite (``tests/test_fleet_oracle.py``) pin the equivalence.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.node import PhysicalNode
from repro.cluster.resources import ResourceVector
from repro.cluster.vm import VirtualMachine
from repro.monitoring.estimators import DemandEstimator

#: Initial slot capacity of a plane (grown geometrically on demand).
_INITIAL_CAPACITY = 64


def report_columns(table: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(capacity, reserved, used, vm_count)`` views of ``[... | ... | ... | n]`` report rows.

    The report layout read back: ``d`` columns each of capacity, reservation
    and estimated usage, then the VM count.
    """
    d = (table.shape[-1] - 1) // 3
    return table[..., :d], table[..., d : 2 * d], table[..., 2 * d : 3 * d], table[..., -1]


class TelemetryPlane:
    """Fleet-wide ring buffers of VM utilization samples plus cached estimates."""

    SERVICE_NAME = "telemetry-planes"

    def __init__(self, window: int, estimator: DemandEstimator) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = int(window)
        self.estimator = estimator
        self._dims: Optional[int] = None
        self._samples: Optional[np.ndarray] = None  # (cap, window, d)
        self._requested: Optional[np.ndarray] = None  # (cap, d)
        self._estimates: Optional[np.ndarray] = None  # (cap, d) cache rows
        self._usage: Optional[np.ndarray] = None  # (cap, d) latest usage row
        self._pos = np.zeros(0, dtype=np.int64)  # next write index per slot
        self._counts = np.zeros(0, dtype=np.int64)  # samples held per slot
        self._host = np.zeros(0, dtype=np.int64)  # hosting row (-1: none)
        self._seq = np.zeros(0, dtype=np.int64)  # tracking order stamp
        self._start = np.zeros(0, dtype=float)  # VM start time (inf: not started)
        self._runtime = np.zeros(0, dtype=float)  # VM runtime (inf: unbounded)
        self._live = np.zeros(0, dtype=bool)
        #: Slots whose window changed since their estimate row was computed.
        self._stale = np.zeros(0, dtype=bool)
        self._vms: List[Optional[VirtualMachine]] = []
        #: The ``vm.used`` vector last copied into ``_usage`` (identity-compared).
        self._last_used: List[Optional[ResourceVector]] = []
        self._free: List[int] = []
        self._live_count = 0
        self._next_seq = 0
        #: Number of hosts attached so far (host ids are ``range(hosts)``).
        self.hosts = 0
        #: Moves whenever a slot is allocated or released (fold layouts cache on it).
        self.tracking_epoch = 0

    # ------------------------------------------------------------------ service
    @classmethod
    def shared(cls, sim, window: int, estimator: DemandEstimator) -> "TelemetryPlane":
        """The per-simulation plane for these settings (created on first use).

        Components that agree on ``window`` and on the estimator's type and
        parameters share one plane, so a fleet is sampled and estimated as
        one batch whatever its settings are.
        """
        if sim.has_service(cls.SERVICE_NAME):
            planes = sim.get_service(cls.SERVICE_NAME)
        else:
            planes = {}
            sim.register_service(cls.SERVICE_NAME, planes)
        key = (int(window), type(estimator), tuple(sorted(vars(estimator).items())))
        plane = planes.get(key)
        if plane is None:
            plane = planes[key] = cls(window, estimator)
        return plane

    def attach(self) -> int:
        """Claim the next host id (the row a host's slots are folded into)."""
        self.hosts += 1
        return self.hosts - 1

    # ------------------------------------------------------------------- slots
    def __len__(self) -> int:
        return self._live_count

    @property
    def capacity(self) -> int:
        """Allocated slot capacity (monotone, grown geometrically)."""
        return len(self._vms)

    def _grow(self, minimum: int) -> None:
        old = self.capacity
        new = max(_INITIAL_CAPACITY, minimum, 2 * old)
        assert self._dims is not None
        d = self._dims

        def grown(array: Optional[np.ndarray], shape, fill=0.0, dtype=float) -> np.ndarray:
            fresh = np.full(shape, fill, dtype=dtype)
            if array is not None and old:
                fresh[:old] = array
            return fresh

        self._samples = grown(self._samples, (new, self.window, d))
        for name in ("_requested", "_estimates", "_usage"):
            setattr(self, name, grown(getattr(self, name), (new, d)))
        for name, fill, dtype in (
            ("_pos", 0, np.int64),
            ("_counts", 0, np.int64),
            ("_host", -1, np.int64),
            ("_seq", 0, np.int64),
            ("_start", math.inf, float),
            ("_runtime", math.inf, float),
            ("_live", False, bool),
            ("_stale", False, bool),
        ):
            setattr(self, name, grown(getattr(self, name), new, fill, dtype))
        self._vms.extend([None] * (new - old))
        self._last_used.extend([None] * (new - old))
        self._free.extend(range(new - 1, old - 1, -1))

    def allocate(self, vm: VirtualMachine, host: int = -1) -> int:
        """Claim a slot for ``vm`` (empty window, estimate falls back to the reservation).

        ``host`` is the :meth:`attach` id of the hosting row; slots allocated
        without one are sampled and estimated but never folded.
        """
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
        self._last_used[slot] = None
        self._requested[slot] = requested
        self._pos[slot] = 0
        self._counts[slot] = 0
        self._host[slot] = host
        self._seq[slot] = self._next_seq
        self._next_seq += 1
        self.sync_lifetime(slot)
        self._live[slot] = True
        self._live_count += 1
        self._stale[slot] = True  # retire any cached estimate of a prior tenant
        self.tracking_epoch += 1
        return slot

    def sync_lifetime(self, slot: int) -> None:
        """Re-read the slot's VM start time and runtime (the lifetime check's inputs)."""
        vm = self._vms[slot]
        self._start[slot] = math.inf if vm.start_time is None else vm.start_time
        self._runtime[slot] = math.inf if vm.runtime is None else vm.runtime

    def release(self, slot: int) -> None:
        """Return a slot to the free pool (its window is discarded)."""
        if not self._live[slot]:
            return
        self._live[slot] = False
        self._live_count -= 1
        self._stale[slot] = False
        self._host[slot] = -1
        self._vms[slot] = None
        self._free.append(slot)
        self.tracking_epoch += 1

    # ----------------------------------------------------------------- samples
    def record(self, slot: int, values: np.ndarray) -> None:
        """Append one usage sample to the slot's ring (evicting the oldest when full)."""
        self._samples[slot, self._pos[slot]] = values
        self._pos[slot] = (self._pos[slot] + 1) % self.window
        self._counts[slot] = min(self._counts[slot] + 1, self.window)
        self._stale[slot] = True

    def record_rows(self, slots: np.ndarray, values: np.ndarray) -> None:
        """:meth:`record` one sample row per (distinct) slot in one write."""
        pos = self._pos[slots]
        self._samples[slots, pos] = values
        self._pos[slots] = (pos + 1) % self.window
        self._counts[slots] = np.minimum(self._counts[slots] + 1, self.window)
        self._stale[slots] = True

    def count(self, slot: int) -> int:
        """Number of samples currently held for ``slot``."""
        return int(self._counts[slot])

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
        self._refresh_stale()
        return self._estimates[np.asarray(list(slots), dtype=np.int64).reshape(-1)]

    def estimate_row(self, slot: int) -> np.ndarray:
        """The cached estimate row of one slot (refreshing if stale)."""
        return self.estimates([slot])[0]

    def _refresh_stale(self) -> None:
        stale = np.flatnonzero(self._stale)
        if not stale.size:
            return
        self._stale[stale] = False
        counts = self._counts[stale]
        for n in np.unique(counts).tolist():
            index = stale[counts == n]
            if n == 0:
                # Scalar reference: an empty window falls back to the
                # reservation, uncapped (it *is* the cap).
                self._estimates[index] = self._requested[index]
                continue
            if n < self.window:
                block = self._samples[index, :n]
            else:
                order = (self._pos[index][:, None] + np.arange(self.window)[None, :]) % self.window
                block = np.take_along_axis(self._samples[index], order[:, :, None], axis=1)
            estimate = self.estimator.estimate_windows(block)
            # Never estimate above the reservation (scalar VMMonitor contract).
            self._estimates[index] = np.minimum(estimate, self._requested[index])


class ArrayHostMonitor:
    """One physical node's handle on the plane: which VMs it tracks, in which order.

    All sample state lives in the shared :class:`TelemetryPlane`; the node's
    slots are folded into its row of a :class:`HostRows` kernel.
    """

    def __init__(self, node: PhysicalNode, plane: TelemetryPlane) -> None:
        self.node = node
        self.plane = plane
        #: This host's id on the plane.
        self.host = plane.attach()
        #: vm_id -> plane slot, in first-tracked order (drives aggregation order).
        self._slots: Dict[int, int] = {}
        self._tracked: Dict[int, VirtualMachine] = {}
        #: Where to note that the tracked set moved (the node is added): the
        #: stepping group's set of rows to :meth:`reconcile` at its next tick
        #: -- e.g. a VM untracked when its migration starts stays on the node
        #: until switch-over and is tracked afresh by then.
        self.touched: Optional[set] = None

    # ----------------------------------------------------------------- per VM
    def track_vm(self, vm: VirtualMachine) -> int:
        """Start (or continue) monitoring a VM placed on this host; returns its slot."""
        slot = self._slots.get(vm.vm_id)
        if slot is None:
            slot = self._slots[vm.vm_id] = self.plane.allocate(vm, self.host)
            self._tracked[vm.vm_id] = vm
            if self.touched is not None:
                self.touched.add(self.node)
        else:
            self.plane.sync_lifetime(slot)
        return slot

    def untrack_vm(self, vm: VirtualMachine) -> None:
        """Stop monitoring a VM (it left this host)."""
        slot = self._slots.pop(vm.vm_id, None)
        self._tracked.pop(vm.vm_id, None)
        if slot is not None:
            self.plane.release(slot)
            if self.touched is not None:
                self.touched.add(self.node)

    # ------------------------------------------------------------------ sweep
    def reconcile(self) -> None:
        """Track every VM now on the node, untrack every VM that left it."""
        vms = self.node.vms
        for vm in vms:
            self.track_vm(vm)
        if len(self._slots) != len(vms):
            hosted_ids = {vm.vm_id for vm in vms}
            for vm_id in list(self._slots):
                if vm_id not in hosted_ids:
                    self.untrack_vm(self._tracked[vm_id])


class HostRows:
    """The monitoring kernel over the hosts of one tick group, as array rows.

    Row ``i`` is ``monitors[i]`` (all on one plane, all with the same
    resource dimensions); membership is fixed -- a changed group builds a new
    instance.  Reports are rows of one ``(n, 3d + 1)`` table laid out
    ``[capacity | reserved | used | vm_count]``.
    """

    def __init__(self, plane: TelemetryPlane, monitors: Sequence[ArrayHostMonitor]) -> None:
        self.plane = plane
        self.monitors = list(monitors)
        nodes = [monitor.node for monitor in self.monitors]
        dims = nodes[0].capacity.dimensions
        if any(node.capacity.dimensions != dims for node in nodes):
            raise ValueError("hosts stepped together must share their resource dimensions")
        #: Resident ``[capacity | reserved | 0 | vm_count]`` rows each sample starts from.
        self._rows = np.zeros((len(nodes), 3 * len(dims) + 1))
        capacity = report_columns(self._rows)[0]
        for row, node in enumerate(nodes):
            capacity[row] = node.capacity.values
        self.refresh(range(len(nodes)))
        self._cpu = nodes[0].cpu_index
        cpu_capacity = capacity[:, self._cpu]
        self._no_cpu = cpu_capacity <= 0
        self._cpu_capacity = np.where(self._no_cpu, 1.0, cpu_capacity)
        self._hosts = np.array([monitor.host for monitor in self.monitors], dtype=np.int64)
        self._row_of_host = np.empty(0, dtype=np.int64)
        # Fold layout: the tracked slots ordered by (row, tracking order), the
        # VMs in them, and the ``(rows, slots)`` of every host's k-th tracked
        # VM for k = 0, 1, ... -- as of the plane's ``_layout_epoch``.
        self._slots = np.empty(0, dtype=np.int64)
        self._tracked: List[Tuple[int, VirtualMachine]] = []
        self._rounds: List[Tuple[np.ndarray, np.ndarray]] = []
        self._layout_epoch = -1

    def refresh(self, rows: Iterable[int]) -> None:
        """Re-read the reservation and VM count of rows whose VM set changed."""
        _, reserved, _, vm_count = report_columns(self._rows)
        for row in rows:
            node = self.monitors[row].node
            reserved[row] = node.reserved_values()
            vm_count[row] = node.vm_count

    def _rows_of(self, slots: np.ndarray) -> np.ndarray:
        """The row each slot folds into (-1: a host outside this group, or none)."""
        if self._row_of_host.size != self.plane.hosts + 1:
            # One trailing -1 so that the "no host" id -1 maps to "no row".
            self._row_of_host = np.full(self.plane.hosts + 1, -1, dtype=np.int64)
            self._row_of_host[self._hosts] = np.arange(len(self._hosts))
        return self._row_of_host[self.plane._host[slots]]

    def due(self, now: float) -> List[int]:
        """Rows tracking a VM whose lifetime has run out (``now - start >= runtime``)."""
        plane = self.plane
        slots = np.flatnonzero(plane._live & (now - plane._start >= plane._runtime))
        if not slots.size:
            return []
        rows = self._rows_of(slots)
        return np.unique(rows[rows >= 0]).tolist()

    def _lay_out(self) -> None:
        plane = self.plane
        slots = np.flatnonzero(plane._live)
        rows = self._rows_of(slots)
        mine = rows >= 0
        slots, rows = slots[mine], rows[mine]
        order = np.lexsort((plane._seq[slots], rows))
        slots, rows = slots[order], rows[order]
        self._rounds = []
        if slots.size:
            first = np.empty(slots.size, dtype=bool)
            first[0] = True
            np.not_equal(rows[1:], rows[:-1], out=first[1:])
            rank = np.arange(slots.size) - np.flatnonzero(first)[np.cumsum(first) - 1]
            for k in range(int(rank.max()) + 1):
                kth = rank == k
                self._rounds.append((rows[kth], slots[kth]))
        self._slots = slots
        self._tracked = [(slot, plane._vms[slot]) for slot in slots.tolist()]
        self._layout_epoch = plane.tracking_epoch

    def sample(self, now: float) -> Tuple[np.ndarray, np.ndarray]:
        """Sample every tracked VM once; return ``(report rows, utilization)``.

        One usage sample per tracked VM is appended (one bulk ring write),
        stale estimates are recomputed (one kernel per window fill level),
        and estimate rows are folded into each host's ``used`` columns in
        tracking order.  ``utilization`` is ``min(used[cpu] / capacity[cpu],
        1.0)`` per row (0.0 without CPU capacity).  The returned table is
        fresh (callers may hold on to it).
        """
        plane = self.plane
        if self._layout_epoch != plane.tracking_epoch:
            self._lay_out()
        table = self._rows.copy()
        used = report_columns(table)[2]
        if self._tracked:
            usage, last_used = plane._usage, plane._last_used
            for slot, vm in self._tracked:
                current = vm.update_usage(now)
                if current is not last_used[slot]:
                    last_used[slot] = current
                    usage[slot] = current.values
            plane.record_rows(self._slots, usage[self._slots])
            plane._refresh_stale()
            estimates = plane._estimates
            for rows, slots in self._rounds:
                used[rows] += estimates[slots]
        utilization = np.minimum(used[:, self._cpu] / self._cpu_capacity, 1.0)
        if self._no_cpu.any():
            utilization[self._no_cpu] = 0.0
        return table, utilization
