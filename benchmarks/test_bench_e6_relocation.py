"""E6 -- Overload/underload relocation behaviour.

Paper claims (Sections II.C and III): "in case of overload situation VMs must
be relocated to a more lightly loaded node in order to mitigate performance
degradation.  Contrary, in case of underload ... it is beneficial to move away
VMs to moderately loaded LCs in order to create enough idle-time to transition
the underutilized LCs into a lower power state."

The benchmark runs a bursty workload with relocation disabled and enabled and
reports (1) the fraction of host-time spent above the overload threshold (the
performance-degradation proxy) and (2) the number of hosts the underload path
manages to free.  Expected shape: relocation removes most of the overload time
at the cost of a modest number of migrations.
"""

from __future__ import annotations

import numpy as np

from repro.hierarchy import HierarchyConfig, SnoozeSystem, SystemSpec
from repro.metrics.report import ComparisonTable
from repro.policies import UtilizationThresholds
from repro.workloads import BatchArrival, BurstyTrace, UniformDemandDistribution, WorkloadGenerator

from benchmarks.conftest import run_once

LCS = 16
VMS = 40
HOURS = 2.0
THRESHOLDS = UtilizationThresholds(underload=0.2, overload=0.85)


def _run_configuration(relocation_enabled: bool) -> dict:
    config = HierarchyConfig(
        seed=55,
        monitoring_interval=30.0,
        relocation_enabled=relocation_enabled,
        thresholds=THRESHOLDS,
    )
    system = SnoozeSystem(
        SystemSpec(local_controllers=LCS, group_managers=2, entry_points=1), config=config, seed=55
    )
    system.start()
    generator = WorkloadGenerator(
        UniformDemandDistribution(0.2, 0.35),
        BatchArrival(0.0),
        trace_factory=lambda stream: BurstyTrace(
            stream,
            baseline=0.35,
            burst_level=1.0,
            burst_rate_per_hour=2.0,
            burst_duration=900.0,
            horizon=HOURS * 3600.0,
        ),
    )
    system.submit_requests(generator.generate(VMS, np.random.default_rng(55)))

    # Probe overload exposure: every minute, count hosts above the overload threshold.
    recorder = system.enable_recording(interval=60.0)
    recorder.add_probe(
        "overloaded_hosts",
        lambda: float(
            sum(
                1
                for node in system.topology
                if node.vm_count > 0 and THRESHOLDS.is_overloaded(node.utilization())
            )
        ),
    )
    system.run(HOURS * 3600.0)
    overloaded = recorder.series("overloaded_hosts")
    active = recorder.series("active_hosts")
    overload_host_minutes = float(overloaded.values.sum())
    active_host_minutes = float(active.values.sum())
    return {
        "relocation": relocation_enabled,
        "placed": system.client.placed_count(),
        "overload_fraction": overload_host_minutes / max(active_host_minutes, 1.0),
        "migrations": system.migration_executor.stats.completed,
        "relocations": sum(
            gm.relocations_performed for gm in system.group_managers.values() if gm.is_running
        ),
        "mean_active_hosts": active.time_weighted_mean(),
    }


def _run_experiment() -> dict:
    table = ComparisonTable("E6: overload exposure with and without relocation")
    outcomes = {}
    for enabled in (False, True):
        outcome = _run_configuration(enabled)
        outcomes[enabled] = outcome
        table.add_row(
            relocation="enabled" if enabled else "disabled",
            placed_vms=outcome["placed"],
            overload_host_time_pct=round(100 * outcome["overload_fraction"], 2),
            migrations=outcome["migrations"],
            relocation_decisions=outcome["relocations"],
            mean_active_hosts=round(outcome["mean_active_hosts"], 1),
        )
    table.print()
    reduction = 1.0 - outcomes[True]["overload_fraction"] / max(outcomes[False]["overload_fraction"], 1e-9)
    print(f"E6 summary: relocation removes {100 * reduction:.1f} % of overload host-time")
    return outcomes


def test_e6_relocation_reduces_overload_exposure(benchmark):
    """Enabling relocation removes a large share of overload time via a modest number of migrations."""
    outcomes = run_once(benchmark, _run_experiment)
    without, with_relocation = outcomes[False], outcomes[True]
    assert without["placed"] == with_relocation["placed"] == VMS
    # The bursty workload does create overload when nothing reacts to it.
    assert without["overload_fraction"] > 0.0
    # Relocation reduces overload exposure and actually migrates VMs to do so.
    assert with_relocation["overload_fraction"] < without["overload_fraction"]
    assert with_relocation["migrations"] > 0
    assert without["migrations"] == 0
