"""Declarative scenario specifications.

A :class:`ScenarioSpec` is a complete, serializable description of one
experiment against a Snooze deployment:

* the **cluster shape**: how many Local Controllers, Group Managers and Entry
  Points, optionally a heterogeneous fleet of :class:`NodeClass` slices;
* **configuration overrides** for :class:`~repro.hierarchy.config.HierarchyConfig`
  (thresholds, energy management, intervals);
* a declarative **policies** section selecting the registered policy of every
  kind (placement, dispatching, assignment, relocation, reconfiguration) as
  ``{kind: {"name": ..., **params}}`` entries validated against
  :mod:`repro.policies`;
* **workload phases**: each phase names an arrival process, a demand
  distribution, a per-VM utilization trace and a VM lifetime distribution, all
  as ``{"kind": ..., **params}`` dictionaries compiled through the factories
  in :mod:`repro.workloads`;
* a scripted **event timeline**: component failures and recoveries, Group
  Leader kills and administrator threshold changes at fixed simulated times;
* an optional **traffic** section (:class:`~repro.traffic.spec.TrafficSpec`):
  request-serving services with arrival-rate profiles, per-replica service
  rates and autoscaling policies, evaluated by :mod:`repro.traffic`.

Specs round-trip losslessly through :meth:`ScenarioSpec.to_dict` /
:meth:`ScenarioSpec.from_dict` (and therefore through JSON), which is what
makes the catalog listable, diffable and replayable from the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.cluster.topology import ClusterSpec, NodeClass
from repro.hierarchy.config import HierarchyConfig
from repro.hierarchy.system import SystemSpec
from repro.plain import PlainData, require_numeric_params
from repro.traffic.spec import TrafficSpec
from repro.workloads.distributions import make_distribution
from repro.workloads.generator import WorkloadGenerator, make_arrival, make_lifetime
from repro.workloads.traces import make_trace_factory

#: Actions a timeline event may script against a running deployment.
TIMELINE_ACTIONS = frozenset(
    {"kill_leader", "kill_gm", "kill_lc", "recover", "set_thresholds"}
)


def _compile_kind(table_name: str, factory, params: Dict[str, object]):
    """Split a ``{"kind": ..., **params}`` dict and run it through ``factory``.

    A string where a number belongs (``"12"``, ``"nan"``, also inside a list
    such as a replay trace's ``times``) is refused here, by name, before a
    factory compares it with a number or converts it.
    """
    if "kind" not in params:
        raise ValueError(f"{table_name} spec needs a 'kind' key, got {params!r}")
    require_numeric_params(table_name, params)
    kwargs = {key: value for key, value in params.items() if key != "kind"}
    return factory(str(params["kind"]), **kwargs)


@dataclass
class WorkloadPhase(PlainData):
    """One workload phase: who arrives when, how big, how busy, how long-lived.

    ``start`` offsets the whole phase relative to scenario time zero (after the
    hierarchy has settled); arrival times produced by the arrival process are
    relative to the phase start.
    """

    name: str
    vm_count: int
    start: float = 0.0
    arrival: Dict[str, object] = field(default_factory=lambda: {"kind": "batch", "at": 0.0})
    demand: Dict[str, object] = field(
        default_factory=lambda: {"kind": "uniform", "low": 0.1, "high": 0.4}
    )
    trace: Dict[str, object] = field(default_factory=lambda: {"kind": "constant", "level": 1.0})
    lifetime: Dict[str, object] = field(default_factory=lambda: {"kind": "infinite"})

    def __post_init__(self) -> None:
        if self.vm_count < 0:
            raise ValueError("vm_count must be non-negative")
        if self.start < 0:
            raise ValueError("phase start must be non-negative")
        # Compile once now so a bad kind/parameter fails at spec construction,
        # not mid-run; the result is discarded (generators are rebuilt per run).
        self.build_generator()

    def build_generator(self) -> WorkloadGenerator:
        """Compile the declarative pieces into a :class:`WorkloadGenerator`."""
        trace_factory = _compile_kind("trace", make_trace_factory, self.trace)
        # Probe the trace factory so bad trace parameters surface immediately.
        trace_factory(np.random.default_rng(0))
        return WorkloadGenerator(
            demand_distribution=_compile_kind("demand", make_distribution, self.demand),
            arrival_process=_compile_kind("arrival", make_arrival, self.arrival),
            trace_factory=trace_factory,
            lifetime_distribution=_compile_kind("lifetime", make_lifetime, self.lifetime),
        )


@dataclass
class TimelineEvent(PlainData):
    """A scripted action against the running deployment at simulated time ``at``.

    Actions and their parameters:

    * ``kill_leader`` -- crash whichever Group Manager currently leads.
    * ``kill_gm`` / ``kill_lc`` -- crash a named component (``{"name": ...}``).
    * ``recover`` -- recover a previously failed component (``{"name": ...}``).
    * ``set_thresholds`` -- administrator threshold change
      (``{"underload": ..., "overload": ...}``).
    """

    at: float
    action: str
    params: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError("event time must be non-negative")
        if self.action not in TIMELINE_ACTIONS:
            raise ValueError(
                f"unknown timeline action {self.action!r}; choose from {sorted(TIMELINE_ACTIONS)}"
            )
        if self.action in ("kill_gm", "kill_lc", "recover") and "name" not in self.params:
            raise ValueError(f"action {self.action!r} needs a 'name' parameter")
        if self.action == "set_thresholds":
            missing = {"underload", "overload"} - set(self.params)
            if missing:
                raise ValueError(f"set_thresholds needs parameters {sorted(missing)}")


@dataclass
class ScenarioSpec(PlainData):
    """A complete declarative scenario (cluster + config + workload + timeline)."""

    name: str
    description: str = ""
    #: Simulated seconds to run after the hierarchy has settled.
    duration: float = 3600.0
    local_controllers: int = 16
    group_managers: int = 2
    #: Heterogeneous fleet; empty means a homogeneous cluster of unit hosts.
    #: When given, ``local_controllers`` is forced to the sum of class counts.
    node_classes: List[NodeClass] = field(default_factory=list)
    nodes_per_rack: int = 24
    #: Flat :class:`HierarchyConfig` overrides; the nested keys ``thresholds``,
    #: ``power_manager``, ``network`` and ``observability`` take parameter
    #: dictionaries.
    config: Dict[str, object] = field(default_factory=dict)
    #: Declarative policy selection: ``{kind: {"name": ..., **params}}``
    #: entries for the registered policy kinds (``placement``,
    #: ``dispatching``, ``assignment``, ``reconfiguration``,
    #: ``overload-relocation``, ``underload-relocation``).  Kinds omitted here
    #: fall back to the deployment defaults; entries are JSON-round-trippable
    #: and validated against the policy registry at construction.
    policies: Dict[str, Dict[str, object]] = field(default_factory=dict)
    phases: List[WorkloadPhase] = field(default_factory=list)
    timeline: List[TimelineEvent] = field(default_factory=list)
    #: Optional request-traffic section (:class:`~repro.traffic.spec.TrafficSpec`
    #: or its dict form): services, rate profiles and autoscaling.  ``None``
    #: runs the scenario without a traffic plane.
    traffic: Optional[TrafficSpec] = None
    #: Sampling interval of the time-series recorder attached to every run.
    record_interval: float = 60.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario needs a name")
        for name in ("duration", "record_interval"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive (got {getattr(self, name)!r})")
        if self.node_classes:
            self.local_controllers = sum(nc.count for nc in self.node_classes)
        if self.local_controllers <= 0:
            raise ValueError("need at least one local controller")
        self.system_spec()  # no GM or empty racks raise here, at load
        for event in self.timeline:
            if event.at > self.duration:
                raise ValueError(
                    f"timeline event at t={event.at} lies beyond duration {self.duration}"
                )
        if "seed" in self.config:
            raise ValueError(
                "'seed' cannot be a config override: the run seed is supplied to "
                "ScenarioRunner so one spec can be replayed under many seeds"
            )
        if "policies" in self.config:
            raise ValueError(
                "'policies' cannot be a config override: use the scenario's own "
                "top-level 'policies' section instead"
            )
        self.hierarchy_config(seed=0)  # unknown keys, bad values and policies raise here
        if isinstance(self.traffic, dict):
            self.traffic = TrafficSpec.from_dict(self.traffic)

    # ------------------------------------------------------------- compilation
    def cluster_spec(self) -> ClusterSpec:
        """The cluster to build for this scenario."""
        return ClusterSpec(
            node_count=self.local_controllers,
            node_classes=list(self.node_classes) or None,
            nodes_per_rack=self.nodes_per_rack,
            name=self.name,
        )

    def system_spec(self) -> SystemSpec:
        """Deployment sizing for :class:`~repro.hierarchy.system.SnoozeSystem`."""
        return SystemSpec(
            local_controllers=self.local_controllers,
            group_managers=self.group_managers,
            cluster=self.cluster_spec(),
        )

    def hierarchy_config(self, seed: int) -> HierarchyConfig:
        """Materialize the configuration overrides into a fresh config."""
        overrides: Dict[str, object] = dict(self.config)
        if self.policies:
            overrides["policies"] = dict(self.policies)  # the config validates, then copies each entry
        overrides["seed"] = seed
        return HierarchyConfig.from_dict(overrides)

    def total_vms(self) -> int:
        """Total VMs submitted across all phases."""
        return sum(phase.vm_count for phase in self.phases)

    def timeline_events_after(self, duration: float) -> List[TimelineEvent]:
        """Timeline events a ``duration`` override would drop (``at > duration``).

        The one definition of "dropped event" shared by every caller that
        validates duration overrides (the runner, the sweep engine, tests).
        """
        return [event for event in self.timeline if event.at > duration]
