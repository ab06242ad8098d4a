#!/usr/bin/env python3
"""Energy-aware data-center scenario: a diurnal day on a Snooze-managed cluster.

This is the workload the paper's introduction motivates: a private cloud whose
load follows a day/night pattern, managed by Snooze with

  (a) no power management (every host stays on),
  (b) idle-host power management (underload relocation + suspend), and
  (c) power management plus periodic ACO consolidation.

The script prints the energy consumed by each configuration over the same
simulated day and the relative savings -- the qualitative content of the
paper's Section III (energy experiments E5/E6 under ``benchmarks/``).

Run with:  python examples/datacenter_energy.py [--hours 6] [--lcs 24]
"""

import argparse

import numpy as np

from repro.energy.power_manager import PowerManagerConfig
from repro.hierarchy import HierarchyConfig, SnoozeSystem, SystemSpec
from repro.metrics.report import ComparisonTable
from repro.workloads import (
    BatchArrival,
    DiurnalTrace,
    UniformDemandDistribution,
    WorkloadGenerator,
)


def build_system(lcs: int, energy: bool, consolidation: bool, seed: int) -> SnoozeSystem:
    """One deployment variant: power management and consolidation toggled."""
    config = HierarchyConfig(
        seed=seed,
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
    return SnoozeSystem(
        SystemSpec(local_controllers=lcs, group_managers=2, entry_points=1),
        config=config,
        seed=seed,
    )


def run_scenario(lcs: int, vms: int, hours: float, energy: bool, consolidation: bool, seed: int) -> dict:
    """Run one configuration for the same workload and return its energy report."""
    system = build_system(lcs, energy, consolidation, seed)
    system.start()
    rng = np.random.default_rng(seed)
    generator = WorkloadGenerator(
        UniformDemandDistribution(0.15, 0.4),
        BatchArrival(0.0),
        trace_factory=lambda stream: DiurnalTrace(
            base=0.15, peak=0.85, noise_std=0.05, rng=stream
        ),
    )
    system.submit_requests(generator.generate(vms, rng))
    system.enable_recording(interval=300.0)
    system.run(hours * 3600.0)
    report = system.energy_report()
    stats = system.stats()
    recorder = system.recorder
    return {
        "energy_kwh": report.total_energy_kwh,
        "placed": stats["placed"],
        "mean_powered_on": recorder.series("powered_on_hosts").time_weighted_mean(),
        "mean_active": recorder.series("active_hosts").time_weighted_mean(),
        "migrations": stats["migrations_completed"],
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--lcs", type=int, default=24, help="number of hosts")
    parser.add_argument("--vms", type=int, default=40, help="number of VMs")
    parser.add_argument("--hours", type=float, default=6.0, help="simulated hours")
    parser.add_argument("--seed", type=int, default=11, help="random seed")
    args = parser.parse_args()

    configurations = [
        ("no power management", False, False),
        ("idle-host suspend", True, False),
        ("suspend + ACO consolidation", True, True),
    ]
    table = ComparisonTable(
        f"Energy over {args.hours:.0f} h, {args.lcs} hosts, {args.vms} VMs (diurnal load)"
    )
    baseline_energy = None
    for label, energy, consolidation in configurations:
        outcome = run_scenario(args.lcs, args.vms, args.hours, energy, consolidation, args.seed)
        if baseline_energy is None:
            baseline_energy = outcome["energy_kwh"]
        saving = 1.0 - outcome["energy_kwh"] / baseline_energy if baseline_energy else 0.0
        table.add_row(
            configuration=label,
            energy_kwh=round(outcome["energy_kwh"], 3),
            saving=f"{100 * saving:.1f}%",
            mean_powered_on_hosts=round(outcome["mean_powered_on"], 1),
            placed_vms=outcome["placed"],
            migrations=outcome["migrations"],
        )
    table.print()


if __name__ == "__main__":
    main()
