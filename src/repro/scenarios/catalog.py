"""The named scenario catalog and its registry.

Scenarios register a zero-argument factory under a unique name; the factory
returns a fresh :class:`~repro.scenarios.spec.ScenarioSpec` each call so
callers can mutate their copy freely.  The CLI (``repro-sim scenario``), the
examples and the stress tests all resolve scenarios through this registry.

Catalog sizing note: entries are deliberately small (8-16 hosts, one to two
simulated hours) so that every entry runs in seconds on a laptop; scale knobs
(``local_controllers``, ``duration``, phase ``vm_count``) are plain data, so a
caller can dial any of them up via ``ScenarioSpec.from_dict`` overrides.
"""

from __future__ import annotations

from repro.cluster.topology import NodeClass
from repro.plain import Catalog
from repro.scenarios.spec import ScenarioSpec, TimelineEvent, WorkloadPhase

SCENARIOS = Catalog("scenario", ScenarioSpec)
register_scenario = SCENARIOS.register
scenario_names = SCENARIOS.names
get_scenario = SCENARIOS.get
iter_scenarios = SCENARIOS.__iter__


# --------------------------------------------------------------------- catalog
@register_scenario
def _diurnal_datacenter() -> ScenarioSpec:
    """Day/night load with energy management suspending the idle valley."""
    return ScenarioSpec(
        name="diurnal-datacenter",
        description=(
            "A datacenter under compressed day/night load: diurnal CPU traces, "
            "idle-host suspend enabled, so the night valley powers hosts down."
        ),
        duration=7200.0,
        local_controllers=16,
        group_managers=2,
        config={
            "monitoring_interval": 30.0,
            "summary_interval": 30.0,
            "energy_sample_interval": 120.0,
            "power_manager": {
                "enabled": True,
                "idle_time_threshold": 300.0,
                "check_interval": 120.0,
                "min_powered_on_hosts": 2,
            },
        },
        phases=[
            WorkloadPhase(
                name="tenants",
                vm_count=24,
                arrival={"kind": "batch", "at": 0.0},
                demand={"kind": "uniform", "low": 0.15, "high": 0.35},
                trace={
                    "kind": "diurnal",
                    "base": 0.1,
                    "peak": 0.85,
                    "period": 3600.0,
                    "peak_time": 1800.0,
                },
            )
        ],
    )


@register_scenario
def _flash_crowd() -> ScenarioSpec:
    """A quiet cluster hit by a short, sharp burst of short-lived VMs."""
    return ScenarioSpec(
        name="flash-crowd",
        description=(
            "Baseline tenants, then a flash crowd: 40 short-lived VMs arrive "
            "within five minutes and drain away, stressing placement latency."
        ),
        duration=3600.0,
        local_controllers=12,
        group_managers=2,
        phases=[
            WorkloadPhase(
                name="baseline",
                vm_count=8,
                arrival={"kind": "batch", "at": 0.0},
                demand={"kind": "uniform", "low": 0.1, "high": 0.3},
                trace={"kind": "constant", "level": 0.5},
            ),
            WorkloadPhase(
                name="crowd",
                vm_count=40,
                start=900.0,
                arrival={"kind": "uniform", "start": 0.0, "window": 300.0},
                demand={"kind": "uniform", "low": 0.05, "high": 0.15},
                trace={"kind": "constant", "level": 0.9},
                lifetime={"kind": "fixed", "seconds": 600.0},
            ),
        ],
    )


@register_scenario
def _steady_churn() -> ScenarioSpec:
    """Continuous arrivals and departures at equilibrium."""
    return ScenarioSpec(
        name="steady-churn",
        description=(
            "Poisson arrivals with exponential lifetimes: the cluster sits in "
            "a churn equilibrium where VMs constantly come and go."
        ),
        duration=3600.0,
        local_controllers=8,
        group_managers=2,
        phases=[
            WorkloadPhase(
                name="churn",
                vm_count=60,
                arrival={"kind": "poisson", "rate_per_hour": 240.0},
                demand={"kind": "uniform", "low": 0.1, "high": 0.3},
                trace={"kind": "constant", "level": 0.7},
                lifetime={"kind": "exponential", "mean": 600.0, "minimum": 60.0},
            )
        ],
    )


@register_scenario
def _rolling_node_failures() -> ScenarioSpec:
    """Local Controllers crash one after another, then come back."""
    return ScenarioSpec(
        name="rolling-node-failures",
        description=(
            "A rolling outage: three Local Controllers fail in sequence "
            "(losing their VMs, paper Section II.E) and later recover."
        ),
        duration=3600.0,
        local_controllers=8,
        group_managers=2,
        phases=[
            WorkloadPhase(
                name="tenants",
                vm_count=16,
                arrival={"kind": "batch", "at": 0.0},
                demand={"kind": "uniform", "low": 0.1, "high": 0.3},
                trace={"kind": "constant", "level": 0.6},
            )
        ],
        timeline=[
            TimelineEvent(at=600.0, action="kill_lc", params={"name": "lc-001"}),
            TimelineEvent(at=1200.0, action="kill_lc", params={"name": "lc-002"}),
            TimelineEvent(at=1800.0, action="kill_lc", params={"name": "lc-003"}),
            TimelineEvent(at=2400.0, action="recover", params={"name": "lc-001"}),
            TimelineEvent(at=2700.0, action="recover", params={"name": "lc-002"}),
            TimelineEvent(at=3000.0, action="recover", params={"name": "lc-003"}),
        ],
    )


@register_scenario
def _heterogeneous_fleet() -> ScenarioSpec:
    """Three hardware generations under churn."""
    return ScenarioSpec(
        name="heterogeneous-fleet",
        description=(
            "A mixed fleet (big-memory, standard and efficient nodes) serving "
            "medium-lived VMs; packing must respect per-class capacities."
        ),
        duration=3600.0,
        group_managers=2,
        node_classes=[
            NodeClass(name="bigmem", count=4, capacity=(1.5, 2.0, 1.0), p_idle=200.0, p_max=300.0),
            NodeClass(name="standard", count=8, capacity=(1.0, 1.0, 1.0)),
            NodeClass(
                name="efficient", count=4, capacity=(0.8, 0.8, 1.0), p_idle=120.0, p_max=180.0
            ),
        ],
        phases=[
            WorkloadPhase(
                name="mixed-tenants",
                vm_count=30,
                arrival={"kind": "poisson", "rate_per_hour": 360.0},
                demand={"kind": "correlated", "low": 0.1, "high": 0.5, "rho": 0.7},
                trace={"kind": "constant", "level": 0.8},
                lifetime={"kind": "uniform", "low": 900.0, "high": 2400.0},
            )
        ],
    )


@register_scenario
def _trace_replay() -> ScenarioSpec:
    """Replay an explicit utilization series against relocation thresholds."""
    # A two-peak hour: idle shoulders, a morning spike and an afternoon
    # plateau above the overload threshold (0.85) to trigger relocations.
    times = [float(t) for t in range(0, 3600, 300)]
    values = [0.2, 0.3, 0.5, 0.9, 0.95, 0.6, 0.4, 0.3, 0.7, 0.9, 0.85, 0.4]
    return ScenarioSpec(
        name="trace-replay",
        description=(
            "Every VM replays the same recorded utilization series (looped), "
            "the hook for driving scenarios from real production traces."
        ),
        duration=3600.0,
        local_controllers=8,
        group_managers=2,
        config={"monitoring_interval": 30.0},
        phases=[
            WorkloadPhase(
                name="replayed",
                vm_count=12,
                arrival={"kind": "batch", "at": 0.0},
                demand={"kind": "uniform", "low": 0.2, "high": 0.4},
                trace={"kind": "replay", "times": times, "values": values, "loop": True},
            )
        ],
    )


@register_scenario
def _aco_consolidation_cycle() -> ScenarioSpec:
    """Periodic ACO consolidation running inside the live hierarchy."""
    return ScenarioSpec(
        name="aco-consolidation-cycle",
        description=(
            "Best-fit placement plus periodic ACO-driven reconfiguration: the "
            "paper's consolidation algorithm re-packs moderately loaded hosts "
            "every 15 simulated minutes while churn keeps fragmenting them."
        ),
        duration=3600.0,
        local_controllers=10,
        group_managers=2,
        config={
            "monitoring_interval": 30.0,
            "summary_interval": 30.0,
            "reconfiguration_interval": 900.0,
            "max_migrations_per_round": 6,
        },
        policies={
            "placement": {"name": "best-fit"},
            "reconfiguration": {"name": "aco", "n_ants": 6, "n_cycles": 12},
        },
        phases=[
            WorkloadPhase(
                name="churn",
                vm_count=36,
                arrival={"kind": "poisson", "rate_per_hour": 180.0},
                demand={"kind": "uniform", "low": 0.1, "high": 0.3},
                trace={"kind": "constant", "level": 0.6},
                lifetime={"kind": "exponential", "mean": 1200.0, "minimum": 120.0},
            )
        ],
    )


@register_scenario
def _consolidation_at_scale() -> ScenarioSpec:
    """Warm-started incremental ACO consolidating a larger fleet."""
    return ScenarioSpec(
        name="consolidation-at-scale",
        description=(
            "Periodic consolidation on a 48-host fleet driven by incremental "
            "ACO: batched ant kernels re-pack only the hosts "
            "whose VM set or load changed since the last plan, warm-started "
            "from the previous plan's persisted pheromone summary."
        ),
        duration=3600.0,
        local_controllers=48,
        group_managers=4,
        config={
            "monitoring_interval": 30.0,
            "summary_interval": 30.0,
            "reconfiguration_interval": 600.0,
            "max_migrations_per_round": 12,
        },
        policies={
            "placement": {"name": "best-fit"},
            "reconfiguration": {
                "name": "aco",
                "n_ants": 6,
                "n_cycles": 10,
                "warm_start": True,
                "incremental": True,
            },
        },
        phases=[
            WorkloadPhase(
                name="churn",
                vm_count=160,
                arrival={"kind": "poisson", "rate_per_hour": 600.0},
                demand={"kind": "uniform", "low": 0.1, "high": 0.3},
                trace={"kind": "constant", "level": 0.6},
                lifetime={"kind": "exponential", "mean": 1500.0, "minimum": 180.0},
            )
        ],
    )


@register_scenario
def _megafleet_steady() -> ScenarioSpec:
    """A 256-host fleet in churn equilibrium, exercising the vectorized hot path."""
    return ScenarioSpec(
        name="megafleet-steady",
        description=(
            "A 256-host fleet under steady Poisson churn on a deterministic "
            "management network: the array-backed telemetry plane, coalesced "
            "ticks/deadlines and batched deliveries keep the event queue flat "
            "at fleet scale."
        ),
        duration=1800.0,
        local_controllers=256,
        group_managers=8,
        nodes_per_rack=32,
        config={
            # Zero jitter/loss so same-instant deliveries coalesce into one
            # simulator event (the batching fast path is only taken on a
            # deterministic network; see Network.deterministic).
            "network": {"base_latency": 0.001, "jitter": 0.0, "loss_probability": 0.0},
        },
        phases=[
            WorkloadPhase(
                name="churn",
                vm_count=320,
                arrival={"kind": "poisson", "rate_per_hour": 1200.0},
                demand={"kind": "uniform", "low": 0.1, "high": 0.3},
                trace={"kind": "constant", "level": 0.7},
                lifetime={"kind": "exponential", "mean": 900.0, "minimum": 60.0},
            )
        ],
    )


@register_scenario
def _megafleet_diurnal() -> ScenarioSpec:
    """A large fleet riding a day/night wave with energy management enabled."""
    return ScenarioSpec(
        name="megafleet-diurnal",
        description=(
            "192 hosts serving long-lived tenants with diurnal CPU traces and "
            "idle-host suspend: large-fleet energy management on the "
            "vectorized telemetry plane."
        ),
        duration=1800.0,
        local_controllers=192,
        group_managers=6,
        nodes_per_rack=32,
        config={
            "network": {"base_latency": 0.001, "jitter": 0.0, "loss_probability": 0.0},
            "monitoring_interval": 30.0,
            "summary_interval": 30.0,
            "energy_sample_interval": 120.0,
            "power_manager": {
                "enabled": True,
                "idle_time_threshold": 300.0,
                "check_interval": 120.0,
                "min_powered_on_hosts": 8,
            },
        },
        phases=[
            WorkloadPhase(
                name="tenants",
                vm_count=240,
                arrival={"kind": "uniform", "start": 0.0, "window": 600.0},
                demand={"kind": "uniform", "low": 0.15, "high": 0.35},
                trace={
                    "kind": "diurnal",
                    "base": 0.1,
                    "peak": 0.85,
                    "period": 1800.0,
                    "peak_time": 900.0,
                },
            )
        ],
    )


@register_scenario
def _steady_users_traffic() -> ScenarioSpec:
    """A fixed replica group serving steady request traffic (no autoscaling)."""
    return ScenarioSpec(
        name="steady-users-traffic",
        description=(
            "Three web replicas serve a constant 240 req/s stream with the "
            "analytic M/M/c latency model on: the SLA baseline every "
            "autoscaling scenario is compared against."
        ),
        duration=1800.0,
        local_controllers=8,
        group_managers=2,
        traffic={
            "services": [
                {
                    "name": "web",
                    "profile": {"kind": "constant", "level": 1.0, "peak_rps": 240.0},
                    "initial_replicas": 3,
                    "service_rate": 100.0,
                }
            ],
            "interval": 10.0,
        },
    )


@register_scenario
def _diurnal_users_autoscale() -> ScenarioSpec:
    """Day/night request traffic with target-utilization replica autoscaling."""
    return ScenarioSpec(
        name="diurnal-users-autoscale",
        description=(
            "A web service riding a compressed day/night demand wave: the "
            "target-utilization autoscaler grows the replica group into the "
            "peak and shrinks it through the valley, via the ordinary "
            "submission and termination paths."
        ),
        duration=3600.0,
        local_controllers=12,
        group_managers=2,
        traffic={
            "services": [
                {
                    "name": "web",
                    "profile": {
                        "kind": "diurnal",
                        "base": 0.15,
                        "peak": 1.0,
                        "period": 1800.0,
                        "peak_time": 900.0,
                        "peak_rps": 450.0,
                    },
                    "initial_replicas": 2,
                    "service_rate": 100.0,
                    "autoscaling": {
                        "name": "target-utilization",
                        "target": 0.6,
                        "min_replicas": 2,
                        "max_replicas": 10,
                    },
                }
            ],
            "interval": 10.0,
            "autoscale_interval": 60.0,
        },
    )


@register_scenario
def _flash_crowd_autoscale() -> ScenarioSpec:
    """A traffic spike against a latency-threshold autoscaler."""
    return ScenarioSpec(
        name="flash-crowd-autoscale",
        description=(
            "A front page goes viral at t=900s: offered load jumps from 90 to "
            "600 req/s against two replicas, and the latency-threshold "
            "autoscaler races the crowd to keep p99 and drops down."
        ),
        duration=2400.0,
        local_controllers=12,
        group_managers=2,
        traffic={
            "services": [
                {
                    "name": "frontpage",
                    "profile": {
                        "kind": "spike",
                        "before": 0.15,
                        "after": 1.0,
                        "at": 900.0,
                        "peak_rps": 600.0,
                    },
                    "initial_replicas": 2,
                    "service_rate": 100.0,
                    "autoscaling": {
                        "name": "latency-threshold",
                        "p99_target": 0.25,
                        "min_replicas": 2,
                        "max_replicas": 12,
                        "step": 2,
                    },
                }
            ],
            "interval": 10.0,
            "autoscale_interval": 30.0,
        },
    )


@register_scenario
def _leader_crash_under_load() -> ScenarioSpec:
    """Kill the Group Leader mid-churn, then tighten thresholds."""
    return ScenarioSpec(
        name="leader-crash-under-load",
        description=(
            "Churn workload with a Group Leader crash mid-run and a scripted "
            "administrator threshold change afterwards; tests self-healing."
        ),
        duration=2700.0,
        local_controllers=12,
        group_managers=3,
        phases=[
            WorkloadPhase(
                name="churn",
                vm_count=24,
                arrival={"kind": "poisson", "rate_per_hour": 120.0},
                demand={"kind": "uniform", "low": 0.1, "high": 0.35},
                trace={"kind": "constant", "level": 0.7},
                lifetime={"kind": "exponential", "mean": 900.0, "minimum": 120.0},
            )
        ],
        timeline=[
            TimelineEvent(at=900.0, action="kill_leader"),
            TimelineEvent(
                at=1800.0, action="set_thresholds", params={"underload": 0.3, "overload": 0.75}
            ),
        ],
    )
