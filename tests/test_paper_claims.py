"""The paper's experiments E1-E8, one test each.

Each test regenerates one result Feller, Rilling and Morin (2012) report and
asserts its *shape* -- who wins, by roughly what factor -- on a scaled-down
instance; absolute numbers differ from the paper's testbed.  The docstring of
every test quotes the claim and names the section it comes from.  E1, E2 and
E7 exercise the packing kernels alone; E3-E6 and E8 run a whole simulated
Snooze deployment.
"""

from __future__ import annotations

import numpy as np

from repro.core import ACOConsolidation, BranchAndBoundOptimal, FirstFitDecreasing
from repro.core.aco import ACOParameters
from repro.energy.accounting import static_placement_energy
from repro.energy.power_manager import PowerManagerConfig
from repro.hierarchy import HierarchyConfig, SnoozeSystem, SystemSpec
from repro.policies import UtilizationThresholds
from repro.simulation.randomness import spawn_generator
from repro.workloads import (
    BatchArrival,
    BurstyTrace,
    DiurnalTrace,
    UniformDemandDistribution,
    WorkloadGenerator,
    consolidation_instance,
)


def _packing_instance(n_vms: int, seed: int):
    """Two-dimensional VMs uniform in [0.1, 0.5] on unit hosts (E1, E2, E7)."""
    return consolidation_instance(
        n_vms,
        np.random.default_rng(seed),
        demand_distribution=UniformDemandDistribution(0.1, 0.5, dimensions=("cpu", "memory")),
        host_capacity=(1.0, 1.0),
    )


def _deploy(
    config: HierarchyConfig,
    lcs: int,
    gms: int,
    generator: WorkloadGenerator,
    vm_count: int,
    entry_points: int = 1,
) -> SnoozeSystem:
    """Start a deployment and submit ``vm_count`` VMs drawn from ``config.seed``."""
    system = SnoozeSystem(
        SystemSpec(local_controllers=lcs, group_managers=gms, entry_points=entry_points),
        config=config,
        seed=config.seed,
    )
    system.start()
    system.submit_requests(generator.generate(vm_count, np.random.default_rng(config.seed)))
    return system


def test_e1_aco_close_to_optimal():
    """E1, Section III.B: ACO "achieves nearly optimal solutions (i.e. 1.1 %
    deviation)", and FFD is further from the optimum -- on small instances
    where branch and bound proves the optimum."""
    ffd_deviations, aco_deviations, proved = [], [], []
    for n_vms in (8, 10, 12, 14):
        for seed in range(4):
            demands, capacities = _packing_instance(n_vms, seed)
            optimal = BranchAndBoundOptimal(time_limit_seconds=10.0).solve(demands, capacities)
            ffd = FirstFitDecreasing().solve(demands, capacities)
            aco = ACOConsolidation(
                ACOParameters(n_ants=10, n_cycles=40), rng=spawn_generator(seed, 1)
            ).solve(demands, capacities)
            proved.append(optimal.proved_optimal)
            ffd_deviations.append(ffd.hosts_used / optimal.hosts_used - 1.0)
            aco_deviations.append(aco.hosts_used / optimal.hosts_used - 1.0)
    mean_aco_deviation_pct = 100 * float(np.mean(aco_deviations))
    mean_ffd_deviation_pct = 100 * float(np.mean(ffd_deviations))
    assert mean_aco_deviation_pct <= 6.0
    assert mean_aco_deviation_pct <= mean_ffd_deviation_pct + 1e-9
    assert float(np.mean(proved)) >= 0.75


#: E2: power charged for the algorithm's own computation (a busy management core).
COMPUTE_POWER_WATTS = 120.0
#: E2: how long a placement stays in force before the next reconfiguration (1 h).
PLACEMENT_HORIZON_S = 3600.0


def _placement_energy(result) -> float:
    """Joules of the hosts a placement keeps on for the horizon, plus its computation."""
    infrastructure = static_placement_energy(
        result.hosts_used, result.placement.average_utilization(), PLACEMENT_HORIZON_S
    )
    return infrastructure + result.runtime_seconds * COMPUTE_POWER_WATTS


def test_e2_aco_saves_hosts_and_energy_at_scale():
    """E2, Section III.B: "compared to FFD, the ACO-based approach utilizes lower
    amounts of hosts and thus yields to superior average host utilization and
    energy gains" (4.7 % hosts and 4.1 % energy, computation included)."""
    host_savings, energy_savings, utilization_gains = [], [], []
    for n_vms in (60, 120, 240):
        for seed in range(2):
            demands, capacities = _packing_instance(n_vms, seed)
            ffd = FirstFitDecreasing().solve(demands, capacities)
            aco = ACOConsolidation(
                ACOParameters(n_ants=8, n_cycles=25), rng=spawn_generator(seed, 1)
            ).solve(demands, capacities)
            host_savings.append(1.0 - aco.hosts_used / ffd.hosts_used)
            energy_savings.append(1.0 - _placement_energy(aco) / _placement_energy(ffd))
            utilization_gains.append(
                aco.placement.average_utilization() - ffd.placement.average_utilization()
            )
    assert np.mean(host_savings) > 0.0
    assert np.mean(energy_savings) > 0.0
    assert np.mean(utilization_gains) > 0.0


#: E3: the submitted burst.
E3_VMS = 120


def _submission_burst(lcs: int, gms: int) -> dict:
    """Client-observed latency of a 120-VM burst on ``lcs`` LCs under ``gms`` GMs."""
    generator = WorkloadGenerator(UniformDemandDistribution(0.02, 0.1), BatchArrival(0.0))
    system = _deploy(HierarchyConfig(seed=3), lcs, gms, generator, E3_VMS)
    system.run_until(
        lambda: len(system.client.records) >= E3_VMS and system.client.pending_count() == 0,
        timeout=900.0,
        step=5.0,
    )
    return {
        "placed": system.client.placed_count(),
        "mean_latency_ms": 1000.0 * float(np.mean(system.client.latencies())),
    }


def test_e3_submission_scales_with_hosts_and_gms():
    """E3, Section II.F: "negligible cost is involved in performing distributed
    VM management and the system remains highly scalable with increasing
    amounts of VMs and hosts" (CCGrid'12: up to 144 nodes and 500 VMs).

    Small VMs so the burst fits even on 16 hosts; latency stays well under a
    second, adding GMs does not raise it, and 9x the hosts costs far less
    than 9x the latency."""
    sweep = ((16, 1), (16, 2), (48, 2), (48, 4), (96, 4), (144, 4))
    rows = {(lcs, gms): _submission_burst(lcs, gms) for lcs, gms in sweep}
    assert all(row["placed"] == E3_VMS for row in rows.values())
    assert all(row["mean_latency_ms"] < 500.0 for row in rows.values())
    latency = {key: row["mean_latency_ms"] for key, row in rows.items()}
    # 2x head-room for scheduling noise.
    assert latency[(16, 2)] <= 2.0 * latency[(16, 1)]
    assert latency[(48, 4)] <= 2.0 * latency[(48, 2)]
    assert latency[(144, 4)] <= 3.0 * latency[(16, 2)]


#: E4: deployment shape.
E4_LCS = 48
E4_VMS = 96


def _loaded_deployment() -> SnoozeSystem:
    """48 LCs under 4 GMs running 96 VMs, one simulated minute after submission."""
    generator = WorkloadGenerator(UniformDemandDistribution(0.1, 0.25), BatchArrival(0.0))
    system = _deploy(HierarchyConfig(seed=41), E4_LCS, 4, generator, E4_VMS, entry_points=2)
    system.run(60.0)
    return system


def _delivered_cpu(system: SnoozeSystem) -> float:
    """Application-performance proxy: total CPU demand currently being served."""
    return float(sum(node.used()["cpu"] for node in system.topology))


def test_e4_failures_recover_without_hurting_applications():
    """E4, Section II.F: "the fault tolerance features of the framework do not
    impact application performance"; Section II.E describes the recovery of
    each component type.  A Group Leader or Group Manager crash heals within a
    few timeouts and leaves running VMs untouched; a Local Controller crash
    costs the VMs it hosted and nothing more."""
    system = _loaded_deployment()
    before = _delivered_cpu(system)
    t_fail = system.sim.now
    old_leader = system.kill_group_leader()
    system.run_until(
        lambda: system.current_leader() not in (None, old_leader), timeout=300.0, step=1.0
    )
    assert system.sim.now - t_fail <= 5 * system.config.session_timeout
    system.run_until(lambda: system.assigned_lc_count() == E4_LCS, timeout=300.0, step=1.0)
    assert _delivered_cpu(system) / before >= 0.999

    system = _loaded_deployment()
    before = _delivered_cpu(system)
    victim = next(
        name
        for name, gm in system.group_managers.items()
        if gm.is_running and not gm.is_leader and len(gm.local_controllers) > 0
    )
    t_fail = system.sim.now
    system.kill_group_manager(victim)
    system.run_until(lambda: system.assigned_lc_count() == E4_LCS, timeout=300.0, step=1.0)
    assert system.sim.now - t_fail <= 10 * system.config.heartbeat_timeout
    assert _delivered_cpu(system) / before >= 0.999

    system = _loaded_deployment()
    before = _delivered_cpu(system)
    victim_lc = next(
        name for name, lc in system.local_controllers.items() if lc.is_running and lc.node.vm_count > 0
    )
    lost_vms = system.local_controllers[victim_lc].node.vm_count
    system.kill_local_controller(victim_lc)
    system.run(4 * system.config.heartbeat_timeout)
    assert _delivered_cpu(system) / before >= (1.0 - lost_vms / E4_VMS) - 0.1


#: E5: deployment shape and horizon (the paper-scale run is 32 LCs, 48 VMs, 6 h).
E5_LCS = 16
E5_VMS = 24
E5_HOURS = 3.0


def _energy_run(energy: bool, consolidation: bool) -> dict:
    """One diurnal-load run under the given power-management arm."""
    config = HierarchyConfig(
        seed=8,
        monitoring_interval=60.0,
        summary_interval=60.0,
        power_manager=PowerManagerConfig(
            enabled=energy,
            idle_time_threshold=300.0,
            check_interval=120.0,
            min_powered_on_hosts=2,
        ),
        reconfiguration_interval=3600.0 if consolidation else None,
        policies={"reconfiguration": {"name": "aco"}},
        energy_sample_interval=120.0,
    )
    generator = WorkloadGenerator(
        UniformDemandDistribution(0.15, 0.4),
        BatchArrival(0.0),
        trace_factory=lambda stream: DiurnalTrace(base=0.15, peak=0.85, noise_std=0.05, rng=stream),
    )
    system = _deploy(config, E5_LCS, 2, generator, E5_VMS)
    system.enable_recording(interval=300.0)
    system.run(E5_HOURS * 3600.0)
    return {
        "energy_kwh": system.energy_report().total_energy_kwh,
        "placed": system.stats()["placed"],
        "mean_powered_on": system.recorder.series("powered_on_hosts").time_weighted_mean(),
    }


def test_e5_power_management_saves_energy():
    """E5, Sections I and III: with energy savings enabled "idle servers are
    automatically transitioned into a low-power mode (e.g. suspend)" and
    "woken up when necessary", and consolidation "favors idle times".

    The same diurnal workload runs with no power management, with idle-host
    suspend, and with suspend plus hourly ACO consolidation."""
    baseline = _energy_run(energy=False, consolidation=False)
    suspend = _energy_run(energy=True, consolidation=False)
    consolidated = _energy_run(energy=True, consolidation=True)
    assert all(arm["placed"] == E5_VMS for arm in (baseline, suspend, consolidated))
    assert suspend["mean_powered_on"] < baseline["mean_powered_on"]
    assert 100.0 * (1.0 - suspend["energy_kwh"] / baseline["energy_kwh"]) > 10.0
    # Consolidation does not cost energy relative to suspend alone (ties allowed).
    assert consolidated["energy_kwh"] <= suspend["energy_kwh"] * 1.05


#: E6: deployment shape, horizon and thresholds.
E6_VMS = 40
E6_HOURS = 2.0
E6_THRESHOLDS = UtilizationThresholds(underload=0.2, overload=0.85)


def _relocation_run(relocation_enabled: bool) -> dict:
    """A bursty workload; overload exposure sampled every simulated minute."""
    config = HierarchyConfig(
        seed=55,
        monitoring_interval=30.0,
        relocation_enabled=relocation_enabled,
        thresholds=E6_THRESHOLDS,
    )
    generator = WorkloadGenerator(
        UniformDemandDistribution(0.2, 0.35),
        BatchArrival(0.0),
        trace_factory=lambda stream: BurstyTrace(
            stream,
            baseline=0.35,
            burst_level=1.0,
            burst_rate_per_hour=2.0,
            burst_duration=900.0,
            horizon=E6_HOURS * 3600.0,
        ),
    )
    system = _deploy(config, 16, 2, generator, E6_VMS)
    recorder = system.enable_recording(interval=60.0)
    recorder.add_probe(
        "overloaded_hosts",
        lambda: float(
            sum(
                1
                for node in system.topology
                if node.vm_count > 0 and E6_THRESHOLDS.is_overloaded(node.utilization())
            )
        ),
    )
    system.run(E6_HOURS * 3600.0)
    overload_host_minutes = float(recorder.series("overloaded_hosts").values.sum())
    active_host_minutes = float(recorder.series("active_hosts").values.sum())
    return {
        "placed": system.client.placed_count(),
        "overload_fraction": overload_host_minutes / max(active_host_minutes, 1.0),
        "migrations": system.migration_executor.stats.completed,
    }


def test_e6_relocation_reduces_overload_exposure():
    """E6, Sections II.C and III: "in case of overload situation VMs must be
    relocated to a more lightly loaded node in order to mitigate performance
    degradation", via a modest number of migrations."""
    without, with_relocation = _relocation_run(False), _relocation_run(True)
    assert without["placed"] == with_relocation["placed"] == E6_VMS
    # The bursty workload does create overload when nothing reacts to it.
    assert without["overload_fraction"] > 0.0
    assert with_relocation["overload_fraction"] < without["overload_fraction"]
    assert with_relocation["migrations"] > 0
    assert without["migrations"] == 0


def test_e7_aco_parameter_sensitivity():
    """E7 (ablation of Section III.A's ACO): the default colony is competitive
    with FFD, and removing the heuristic term, shrinking the colony or cutting
    the cycles never helps; more ants cost more runtime."""
    demands, capacities = _packing_instance(100, 424)

    def solve(**overrides):
        params = dict(n_ants=8, n_cycles=25, alpha=1.0, beta=2.0, rho=0.3)
        params.update(overrides)
        return ACOConsolidation(ACOParameters(**params), rng=np.random.default_rng(99)).solve(
            demands, capacities
        )

    default, two_ants, sixteen_ants = solve(), solve(n_ants=2), solve(n_ants=16)
    assert default.hosts_used <= FirstFitDecreasing().solve(demands, capacities).hosts_used
    assert solve(beta=0.0).hosts_used >= default.hosts_used
    assert two_ants.hosts_used >= default.hosts_used
    assert solve(n_cycles=5).hosts_used >= default.hosts_used
    assert sixteen_ants.runtime_seconds > two_ants.runtime_seconds


#: E8: deployment shape and the steady-state message-rate window.
E8_VMS = 48
E8_WINDOW_S = 300.0


def _hierarchy_run(gms: int, heartbeat_interval: float) -> dict:
    """Management-message rate and Group Leader failover under one setting."""
    config = HierarchyConfig(
        seed=66,
        gl_heartbeat_interval=heartbeat_interval,
        gm_heartbeat_interval=heartbeat_interval,
        lc_heartbeat_interval=heartbeat_interval,
        heartbeat_timeout=4 * heartbeat_interval,
        session_timeout=5 * heartbeat_interval,
    )
    generator = WorkloadGenerator(UniformDemandDistribution(0.1, 0.2), BatchArrival(0.0))
    system = _deploy(config, 48, gms, generator, E8_VMS)
    system.run(30.0)
    messages_before = system.network.messages_sent
    system.run(E8_WINDOW_S)
    messages_per_s = (system.network.messages_sent - messages_before) / E8_WINDOW_S
    # A single GM has no other candidate to promote: failover is undefined.
    failover_s = float("nan")
    if gms > 1:
        old_leader = system.kill_group_leader()
        t_fail = system.sim.now
        healed = system.run_until(
            lambda: system.current_leader() not in (None, old_leader), timeout=600.0, step=1.0
        )
        failover_s = system.sim.now - t_fail if healed else float("inf")
    return {
        "placed": system.client.placed_count(),
        "messages_per_s": messages_per_s,
        "failover_s": failover_s,
    }


def test_e8_hierarchy_fanout_and_heartbeat_tradeoffs():
    """E8 (ablation of Section II's hierarchy and its "multicast-based heartbeat
    protocols"): message overhead grows mildly with the GM count and inversely
    with the heartbeat interval; Group Leader failover time follows the
    session / heartbeat timeout, not the cluster size."""
    configs = [(gms, 2.0) for gms in (1, 2, 4, 8)] + [(4, 1.0), (4, 5.0)]
    rows = {config: _hierarchy_run(*config) for config in configs}
    assert all(row["placed"] == E8_VMS for row in rows.values())
    assert all(np.isfinite(row["failover_s"]) for (gms, _), row in rows.items() if gms > 1)
    assert rows[(4, 1.0)]["messages_per_s"] > rows[(4, 5.0)]["messages_per_s"]
    # Faster heartbeats (shorter session timeout) also fail over faster.
    assert rows[(4, 1.0)]["failover_s"] < rows[(4, 5.0)]["failover_s"]
    assert rows[(8, 2.0)]["messages_per_s"] <= 2.0 * rows[(1, 2.0)]["messages_per_s"]
    # Bounded by a few session timeouts at the default heartbeat.
    assert rows[(4, 2.0)]["failover_s"] <= 5 * (5 * 2.0)
