"""E5 -- Energy savings from idle-server power management.

Paper claim (Sections I and III): when energy savings are enabled, "idle
servers are automatically transitioned into a low-power mode (e.g. suspend)"
and "woken up when necessary", and consolidation "favors idle times".

The benchmark runs the same diurnal workload on the same cluster under three
configurations -- no power management, idle-host suspend, suspend plus
periodic ACO consolidation -- and reports the energy consumed by each over the
same simulated horizon.  Expected shape: suspend alone already cuts energy
substantially on a lightly loaded cluster, and consolidation adds to it (or at
worst matches it) by emptying additional hosts.
"""

from __future__ import annotations

import numpy as np

from repro.energy.power_manager import PowerManagerConfig
from repro.hierarchy import HierarchyConfig, SnoozeSystem, SystemSpec
from repro.metrics.report import ComparisonTable
from repro.workloads import BatchArrival, DiurnalTrace, UniformDemandDistribution, WorkloadGenerator

from benchmarks.conftest import run_once

LCS = 32
VMS = 48
HOURS = 6.0


def _run_configuration(energy: bool, consolidation: bool) -> dict:
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
    system = SnoozeSystem(
        SystemSpec(local_controllers=LCS, group_managers=2, entry_points=1), config=config, seed=8
    )
    system.start()
    generator = WorkloadGenerator(
        UniformDemandDistribution(0.15, 0.4),
        BatchArrival(0.0),
        trace_factory=lambda stream: DiurnalTrace(base=0.15, peak=0.85, noise_std=0.05, rng=stream),
    )
    system.submit_requests(generator.generate(VMS, np.random.default_rng(8)))
    system.enable_recording(interval=300.0)
    system.run(HOURS * 3600.0)
    report = system.energy_report()
    return {
        "energy_kwh": report.total_energy_kwh,
        "transition_kwh": report.transition_energy_joules / 3.6e6,
        "placed": system.stats()["placed"],
        "mean_powered_on": system.recorder.series("powered_on_hosts").time_weighted_mean(),
        "migrations": system.migration_executor.stats.completed,
    }


def _run_experiment() -> dict:
    configurations = {
        "no power management": (False, False),
        "idle-host suspend": (True, False),
        "suspend + ACO consolidation": (True, True),
    }
    table = ComparisonTable(
        f"E5: cluster energy over {HOURS:.0f} h ({LCS} hosts, {VMS} VMs, diurnal load)"
    )
    outcomes = {}
    baseline = None
    for label, (energy, consolidation) in configurations.items():
        outcome = _run_configuration(energy, consolidation)
        outcomes[label] = outcome
        if baseline is None:
            baseline = outcome["energy_kwh"]
        outcome["saving_pct"] = 100.0 * (1.0 - outcome["energy_kwh"] / baseline)
        table.add_row(
            configuration=label,
            energy_kwh=round(outcome["energy_kwh"], 3),
            saving_pct=round(outcome["saving_pct"], 1),
            mean_powered_on_hosts=round(outcome["mean_powered_on"], 1),
            placed_vms=outcome["placed"],
            migrations=outcome["migrations"],
        )
    table.print()
    return outcomes


def test_e5_power_management_saves_energy(benchmark):
    """Idle-host suspend saves a large fraction of energy; all VMs still get placed."""
    outcomes = run_once(benchmark, _run_experiment)
    baseline = outcomes["no power management"]
    suspend = outcomes["idle-host suspend"]
    consolidated = outcomes["suspend + ACO consolidation"]
    # Every configuration serves the full workload.
    assert all(outcome["placed"] == VMS for outcome in outcomes.values())
    # Power management keeps fewer hosts on and saves energy.
    assert suspend["mean_powered_on"] < baseline["mean_powered_on"]
    assert suspend["saving_pct"] > 10.0
    # Consolidation does not cost energy relative to suspend alone (ties allowed).
    assert consolidated["energy_kwh"] <= suspend["energy_kwh"] * 1.05
