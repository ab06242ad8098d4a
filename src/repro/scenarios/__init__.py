"""Scenario engine: declarative workload/fault scenarios over Snooze deployments.

The paper evaluates Snooze with a handful of hand-wired experiments; this
package turns "an experiment" into data.  A
:class:`~repro.scenarios.spec.ScenarioSpec` declares the cluster shape
(including heterogeneous :class:`~repro.cluster.topology.NodeClass` fleets),
configuration overrides, workload phases (arrival process x demand
distribution x utilization trace x VM lifetime) and a scripted event timeline;
the :class:`~repro.scenarios.runner.ScenarioRunner` compiles it into a wired
:class:`~repro.hierarchy.system.SnoozeSystem` run and returns a structured,
deterministic :class:`~repro.scenarios.runner.ScenarioResult`.

Catalog
-------

``diurnal-datacenter``
    Compressed day/night diurnal load with idle-host suspend powering down the
    night valley.
``flash-crowd``
    A quiet cluster hit by 40 short-lived VMs arriving within five minutes,
    then draining away.
``steady-churn``
    Poisson arrivals with exponential lifetimes: a continuous-churn
    equilibrium of VM arrivals and departures.
``rolling-node-failures``
    Three Local Controllers crash in sequence (losing their VMs) and later
    recover.
``heterogeneous-fleet``
    Big-memory, standard and efficient node classes serving medium-lived VMs
    under correlated demands.
``trace-replay``
    Every VM replays a recorded utilization series (looped) -- the hook for
    driving scenarios from real production traces.
``leader-crash-under-load``
    A Group Leader crash mid-churn followed by a scripted administrator
    threshold change.
``steady-users-traffic``
    Three fixed web replicas serving constant request traffic through the
    analytic M/M/c latency model -- the autoscaling comparison baseline.
``diurnal-users-autoscale``
    A web service on a day/night demand wave with target-utilization replica
    autoscaling growing into the peak and shrinking through the valley.
``flash-crowd-autoscale``
    Offered load jumps 90 -> 600 req/s mid-run; the latency-threshold
    autoscaler races the crowd to keep p99 and drops down.

Use ``repro-sim scenario list|describe|run`` from the CLI, or::

    from repro.scenarios import get_scenario, run_scenario
    result = run_scenario(get_scenario("steady-churn"), seed=0)
    print(result.to_json())
"""

from repro.scenarios.spec import (
    TIMELINE_ACTIONS,
    ScenarioSpec,
    TimelineEvent,
    WorkloadPhase,
)
from repro.scenarios.runner import ScenarioResult, ScenarioRunner, run_scenario
from repro.scenarios.catalog import (
    SCENARIOS,
    get_scenario,
    iter_scenarios,
    register_scenario,
    scenario_names,
)

__all__ = [
    "TIMELINE_ACTIONS",
    "ScenarioSpec",
    "WorkloadPhase",
    "TimelineEvent",
    "ScenarioResult",
    "ScenarioRunner",
    "run_scenario",
    "SCENARIOS",
    "register_scenario",
    "scenario_names",
    "get_scenario",
    "iter_scenarios",
]
