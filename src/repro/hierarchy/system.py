"""SnoozeSystem: build, run and poke a whole Snooze deployment.

This facade wires all substrates together exactly once so that examples,
tests and benchmarks share the same construction code:

* the simulation kernel, named random streams and the simulated network;
* the coordination service;
* the cluster (physical nodes) plus the shared node registry and the live
  migration executor;
* the cluster-wide energy meter;
* the hierarchy components: Group Managers, Local Controllers, Entry Points
  and a client;
* failure injection helpers (kill/recover the GL, a GM or an LC) used by the
  fault-tolerance experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence

from repro.cluster.node import NodeState, PhysicalNode
from repro.cluster.topology import ClusterSpec, ClusterTopology, build_cluster
from repro.coordination.znodes import CoordinationService
from repro.energy.accounting import EnergyMeter, EnergyReport
from repro.hierarchy.client import SnoozeClient, SubmissionRecord
from repro.hierarchy.config import HierarchyConfig
from repro.hierarchy.entry_point import EntryPoint
from repro.hierarchy.group_manager import GroupManager
from repro.hierarchy.local_controller import (
    MIGRATION_SERVICE,
    NODE_REGISTRY_SERVICE,
    LocalController,
)
from repro.metrics.recorder import EventLog, TimeSeriesRecorder
from repro.migration.model import MigrationCostModel, MigrationExecutor
from repro.network.multicast import MulticastRegistry
from repro.network.transport import Network
from repro.obs import ObservabilityPlane
from repro.policies.thresholds import UtilizationThresholds
from repro.simulation.batch import CoalescedTicker
from repro.simulation.engine import Simulator, schedule_series
from repro.simulation.randomness import RandomRouter
from repro.workloads.generator import VMRequest


@dataclass
class SystemSpec:
    """Sizing of a deployment: how many of each component to build."""

    local_controllers: int = 16
    group_managers: int = 2
    entry_points: int = 1
    cluster: Optional[ClusterSpec] = None

    def __post_init__(self) -> None:
        if self.local_controllers <= 0:
            raise ValueError("need at least one local controller")
        if self.group_managers <= 0:
            raise ValueError("need at least one group manager")
        if self.entry_points <= 0:
            raise ValueError("need at least one entry point")


class SnoozeSystem:
    """A fully wired Snooze deployment inside one simulator."""

    def __init__(
        self,
        spec: Optional[SystemSpec] = None,
        config: Optional[HierarchyConfig] = None,
        seed: Optional[int] = None,
    ) -> None:
        self.spec = spec or SystemSpec()
        self.config = config or HierarchyConfig()
        if seed is not None:
            self.config.seed = seed
        self.random = RandomRouter(self.config.seed)
        self.sim = Simulator()
        self.event_log = EventLog()

        # --- observability plane (registered before the network and the
        # components so both discover it as a service at construction time;
        # None when every pillar is off, which costs nothing anywhere)
        self.obs = ObservabilityPlane.build(self.sim, self.config.observability)
        if self.obs is not None:
            if self.obs.registry is not None:
                self.obs.watch_simulator()
                self.event_log.bind_metrics(self.obs.registry)
            if self.obs.profiler is not None:
                self.sim.profiler = self.obs.profiler
                CoalescedTicker.shared(self.sim).profiler = self.obs.profiler

        # --- network + multicast + coordination
        self.network = Network(self.sim, self.config.network, rng=self.random.stream("network"))
        self.multicast = MulticastRegistry(self.network)
        self.coordination = CoordinationService(
            self.sim, default_session_timeout=self.config.session_timeout
        )

        # --- cluster, node registry, migration, energy
        cluster_spec = self.spec.cluster or ClusterSpec(node_count=self.spec.local_controllers)
        if cluster_spec.node_count != self.spec.local_controllers:
            raise ValueError("cluster spec node_count must match local_controllers")
        self.topology: ClusterTopology = build_cluster(cluster_spec)
        self.node_registry: Dict[str, PhysicalNode] = {
            node.node_id: node for node in self.topology
        }
        self.sim.register_service(NODE_REGISTRY_SERVICE, self.node_registry)
        self.migration_executor = MigrationExecutor(
            self.sim,
            cost_model=MigrationCostModel(),
            bandwidth_lookup=self.topology.bandwidth_mbps,
        )
        self.sim.register_service(MIGRATION_SERVICE, self.migration_executor)
        self.energy_meter = EnergyMeter(
            self.sim,
            self.topology.nodes,
            sample_interval=self.config.energy_sample_interval,
        )

        # --- hierarchy components
        self.group_managers: Dict[str, GroupManager] = {}
        for index in range(self.spec.group_managers):
            name = f"gm-{index:02d}"
            self.group_managers[name] = GroupManager(
                name,
                self.sim,
                self.network,
                self.coordination,
                config=self.config,
                event_log=self.event_log,
                consolidation_rng=self.random.stream(f"aco-{name}"),
            )
        self.local_controllers: Dict[str, LocalController] = {}
        for index, node in enumerate(self.topology):
            name = f"lc-{index:03d}"
            self.local_controllers[name] = LocalController(
                name,
                node,
                self.sim,
                self.network,
                config=self.config,
                event_log=self.event_log,
            )
        self.entry_points: Dict[str, EntryPoint] = {}
        for index in range(self.spec.entry_points):
            name = f"ep-{index:02d}"
            self.entry_points[name] = EntryPoint(
                name, self.sim, self.network, config=self.config, event_log=self.event_log
            )
        self.client = SnoozeClient(
            "client-00",
            self.sim,
            self.network,
            entry_points=sorted(self.entry_points),
            config=self.config,
            event_log=self.event_log,
        )
        self.recorder: Optional[TimeSeriesRecorder] = None
        self._started = False

    # ------------------------------------------------------------------ start
    def start(self, settle_time: Optional[float] = None) -> None:
        """Start every component and let the hierarchy self-organize.

        ``settle_time`` defaults to a few heartbeat periods -- enough for the
        election to complete and every LC to join a GM.
        """
        if self._started:
            return
        self._started = True
        for group_manager in self.group_managers.values():
            group_manager.start()
        for entry_point in self.entry_points.values():
            entry_point.start()
        for local_controller in self.local_controllers.values():
            local_controller.start()
        if settle_time is None:
            settle_time = 3 * self.config.gl_heartbeat_interval + 3 * self.config.lc_heartbeat_interval
        self.sim.run(until=self.sim.now + settle_time)

    def enable_recording(self, interval: float = 60.0) -> TimeSeriesRecorder:
        """Attach a time-series recorder with the standard cluster probes."""
        if self.recorder is None:
            self.recorder = TimeSeriesRecorder(self.sim, interval=interval)
            self.recorder.add_probe("active_hosts", lambda: float(self.active_host_count()))
            self.recorder.add_probe("powered_on_hosts", lambda: float(self.powered_on_count()))
            self.recorder.add_probe(
                "running_vms",
                lambda: float(sum(node.vm_count for node in self.topology)),
            )
        return self.recorder

    # ------------------------------------------------------------------- run
    def run(self, duration: float) -> float:
        """Advance the simulation by ``duration`` seconds."""
        return self.sim.run(until=self.sim.now + duration)

    def run_until(self, predicate: Callable[[], bool], timeout: float, step: float = 1.0) -> bool:
        """Advance in ``step`` increments until ``predicate()`` holds or ``timeout`` elapses."""
        deadline = self.sim.now + timeout
        while self.sim.now < deadline:
            if predicate():
                return True
            self.sim.run(until=min(self.sim.now + step, deadline))
        return predicate()

    # ------------------------------------------------------------ submissions
    def submit_requests(
        self,
        requests: Sequence[VMRequest],
        on_complete: Optional[Callable[[SubmissionRecord], None]] = None,
    ) -> None:
        """Schedule client submissions at their arrival times (relative to now).

        Only the next arrival occupies the event heap at any time (see
        :func:`~repro.simulation.engine.schedule_series`); firing order is
        identical to pre-scheduling one event per request.
        """
        base = self.sim.now
        schedule_series(
            self.sim,
            [(base + request.arrival_time, request.vm) for request in requests],
            lambda vm: self.client.submit(vm, on_complete),
        )

    # --------------------------------------------------------------- topology
    def current_leader(self) -> Optional[str]:
        """Name of the currently elected Group Leader (None if none)."""
        for name, group_manager in self.group_managers.items():
            if group_manager.is_running and group_manager.is_leader:
                return name
        return None

    def leader(self) -> Optional[GroupManager]:
        """The GroupManager object currently acting as leader."""
        name = self.current_leader()
        return self.group_managers.get(name) if name else None

    def hierarchy_snapshot(self) -> dict:
        """Who leads, which GM manages which LCs -- the CLI's visualization data."""
        snapshot = {"leader": self.current_leader(), "group_managers": {}}
        for name, group_manager in self.group_managers.items():
            if not group_manager.is_running:
                snapshot["group_managers"][name] = {"state": group_manager.state.value}
                continue
            snapshot["group_managers"][name] = {
                "state": group_manager.state.value,
                "is_leader": group_manager.is_leader,
                "local_controllers": sorted(group_manager.local_controllers),
            }
        return snapshot

    def assigned_lc_count(self) -> int:
        """Number of LCs currently joined to some running GM."""
        return sum(
            len(gm.local_controllers)
            for gm in self.group_managers.values()
            if gm.is_running
        )

    def active_host_count(self) -> int:
        """Hosts currently running at least one VM."""
        return self.topology.active_node_count()

    def powered_on_count(self) -> int:
        """Hosts currently in the ON power state."""
        return sum(1 for node in self.topology if node.state is NodeState.ON)

    def running_vm_count(self) -> int:
        """Total VMs currently placed on hosts."""
        return sum(node.vm_count for node in self.topology)

    # -------------------------------------------------------- failure control
    def kill_group_leader(self) -> Optional[str]:
        """Crash the current Group Leader; returns its name (None if no leader)."""
        name = self.current_leader()
        if name is None:
            return None
        self.group_managers[name].fail()
        self.event_log.record(self.sim.now, "failure_injected", component=name, role="group_leader")
        return name

    def kill_group_manager(self, name: str) -> None:
        """Crash a specific Group Manager."""
        self.group_managers[name].fail()
        self.event_log.record(self.sim.now, "failure_injected", component=name, role="group_manager")

    def kill_local_controller(self, name: str) -> None:
        """Crash a specific Local Controller (its VMs are lost, Section II.E)."""
        self.local_controllers[name].fail()
        self.event_log.record(self.sim.now, "failure_injected", component=name, role="local_controller")

    def recover_component(self, name: str) -> None:
        """Recover a previously failed component by name."""
        for registry in (self.group_managers, self.local_controllers, self.entry_points):
            if name in registry:
                registry[name].recover()
                return
        raise KeyError(f"unknown component {name!r}")

    # -------------------------------------------------------- runtime control
    def set_thresholds(self, underload: float, overload: float) -> None:
        """Change the overload/underload thresholds of a live deployment.

        The scenario engine uses this for scripted administrator actions.
        ``HierarchyConfig.thresholds`` is shared by every Local Controller, but
        Group Managers copy the object into their relocation/reconfiguration
        policies at construction, so those references are updated too.
        """
        thresholds = UtilizationThresholds(underload=underload, overload=overload)
        self.config.thresholds = thresholds
        for group_manager in self.group_managers.values():
            group_manager.overload_policy.thresholds = thresholds
            group_manager.underload_policy.thresholds = thresholds
            group_manager.reconfiguration_policy.thresholds = thresholds
        self.event_log.record(
            self.sim.now, "thresholds_changed", underload=underload, overload=overload
        )

    # ----------------------------------------------------------------- report
    def energy_report(self) -> EnergyReport:
        """Cluster energy consumed so far."""
        return self.energy_meter.report()

    def stats(self) -> dict:
        """One-stop summary used by examples and benchmarks."""
        return {
            "time": self.sim.now,
            "leader": self.current_leader(),
            "group_managers": sum(1 for gm in self.group_managers.values() if gm.is_running),
            "local_controllers_assigned": self.assigned_lc_count(),
            "running_vms": self.running_vm_count(),
            "active_hosts": self.active_host_count(),
            "powered_on_hosts": self.powered_on_count(),
            "submissions": len(self.client.records),
            "placed": self.client.placed_count(),
            "rejected": self.client.rejected_count(),
            "vms_departed": self.client.departed_count(),
            "vms_failed": self.client.failed_vm_count(),
            "mean_submission_latency": self.client.mean_latency(),
            "migrations_completed": self.migration_executor.stats.completed,
            "network": self.network.stats(),
        }
