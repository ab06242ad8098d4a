"""The Snooze hierarchy: Entry Points, Group Leader, Group Managers, Local Controllers.

This package implements the paper's first contribution (Section II): a
self-organizing, fault-tolerant, hierarchical VM management framework.

* :class:`~repro.hierarchy.config.HierarchyConfig` -- all administrator knobs
  (heartbeat intervals and timeouts, scheduling policies, energy settings).
* :class:`~repro.hierarchy.local_controller.LocalController` -- controls one
  physical node: monitoring, anomaly detection, command enforcement.
* :class:`~repro.hierarchy.fleet.LocalControllerFleet` -- steps the periodic
  duties (monitoring tick, heartbeat) of every running LC as array rows.
* :class:`~repro.hierarchy.group_manager.GroupManager` -- manages a subset of
  LCs: demand estimation, placement/relocation/reconfiguration scheduling,
  energy management; becomes the Group Leader when elected.
* :class:`~repro.hierarchy.entry_point.EntryPoint` -- the replicated client
  layer that tracks the current Group Leader.
* :class:`~repro.hierarchy.client.SnoozeClient` -- submits VMs through an
  Entry Point and records submission latencies.
* :class:`~repro.hierarchy.system.SnoozeSystem` -- builds a whole deployment
  (simulator, network, coordination, cluster, components), runs workloads and
  injects failures; this is the facade the examples and benchmarks use.
"""

from repro.hierarchy.config import HierarchyConfig
from repro.hierarchy.common import Component, ComponentState
from repro.hierarchy.fleet import LocalControllerFleet
from repro.hierarchy.local_controller import LocalController
from repro.hierarchy.group_manager import GroupManager
from repro.hierarchy.entry_point import EntryPoint
from repro.hierarchy.client import SnoozeClient, SubmissionRecord
from repro.hierarchy.system import SnoozeSystem, SystemSpec

__all__ = [
    "SystemSpec",
    "HierarchyConfig",
    "Component",
    "ComponentState",
    "LocalController",
    "LocalControllerFleet",
    "GroupManager",
    "EntryPoint",
    "SnoozeClient",
    "SubmissionRecord",
    "SnoozeSystem",
]
