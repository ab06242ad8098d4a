"""Unified policy API: one registry, one cluster view, one decision vocabulary.

The paper's manageability claim is that every VM-management decision point is
a pluggable policy.  This package makes that claim structural:

* :mod:`repro.policies.registry` -- the central registry.  Policies register
  with ``@register_policy(kind, name)`` and are constructed with
  :func:`make_policy`; :class:`PolicySpec` metadata (parameter schema derived
  from the factory signature) powers ``repro-sim policy list|describe``.
* :mod:`repro.policies.view` -- :class:`ClusterView`, the shared numpy-backed
  snapshot of node capacities/reservations/usage/placeability that every
  policy kind consumes, replacing per-policy Python scans over
  ``PhysicalNode`` lists with vectorized decision math.
* :mod:`repro.policies.decisions` -- the common result vocabulary
  (:class:`PlacementDecision`, :class:`DispatchDecision`,
  :class:`MigrationPlan`) so the hierarchy calls every policy the same way.
* the policy kinds themselves: ``placement``, ``dispatching``,
  ``assignment``, ``overload-relocation``, ``underload-relocation``,
  ``reconfiguration`` (which bridges every :mod:`repro.core` consolidation
  algorithm -- ACO, distributed ACO, FFD, BFD, WFD -- into the live
  hierarchy) and ``autoscaling`` (sizing the VM replica group of a
  :mod:`repro.traffic` service from its request traffic).

Selection is declarative end-to-end: ``HierarchyConfig.policies`` holds
``{kind: {"name": ..., **params}}`` entries, ``ScenarioSpec.policies`` carries
the same (JSON-round-trippable) block, and the CLI overrides them with
``scenario run --policy kind=name``.
"""

from repro.policies.registry import (
    ParamSpec,
    PolicySpec,
    get_policy_spec,
    iter_policy_specs,
    make_policy,
    policy_kinds,
    policy_names,
    register_policy,
)
from repro.policies.view import ClusterView
from repro.policies.plane import DecisionPlane
from repro.policies.decisions import DispatchDecision, MigrationPlan, PlacementDecision
from repro.policies.thresholds import LoadBand, UtilizationThresholds
from repro.policies.placement import (
    BestFitPlacement,
    FirstFitPlacement,
    PlacementPolicy,
    RoundRobinPlacement,
    WorstFitPlacement,
)
from repro.policies.dispatching import (
    DispatchingPolicy,
    FirstFitDispatching,
    LeastLoadedDispatching,
    RoundRobinDispatching,
)
from repro.policies.assignment import (
    AssignmentPolicy,
    LeastLoadedAssignment,
    RoundRobinAssignment,
)
from repro.policies.relocation import (
    OverloadRelocationPolicy,
    UnderloadRelocationPolicy,
)
from repro.policies.reconfiguration import ReconfigurationPolicy
from repro.policies.autoscaling import (
    LatencyThresholdAutoscaling,
    ServiceSnapshot,
    TargetUtilizationAutoscaling,
)

__all__ = [
    "ParamSpec",
    "PolicySpec",
    "register_policy",
    "make_policy",
    "get_policy_spec",
    "policy_kinds",
    "policy_names",
    "iter_policy_specs",
    "ClusterView",
    "DecisionPlane",
    "PlacementDecision",
    "DispatchDecision",
    "MigrationPlan",
    "UtilizationThresholds",
    "LoadBand",
    "PlacementPolicy",
    "FirstFitPlacement",
    "BestFitPlacement",
    "WorstFitPlacement",
    "RoundRobinPlacement",
    "DispatchingPolicy",
    "RoundRobinDispatching",
    "LeastLoadedDispatching",
    "FirstFitDispatching",
    "AssignmentPolicy",
    "RoundRobinAssignment",
    "LeastLoadedAssignment",
    "OverloadRelocationPolicy",
    "UnderloadRelocationPolicy",
    "ReconfigurationPolicy",
    "ServiceSnapshot",
    "TargetUtilizationAutoscaling",
    "LatencyThresholdAutoscaling",
]
