"""``repro-sim consolidate | simulate | hierarchy``: the single-action commands.

``consolidate``
    Run the consolidation algorithms (ACO / FFD / BFD / optional exact
    optimum) on a synthetic instance and print the comparison table -- the CLI
    version of experiment E1/E2.

``simulate``
    Build a Snooze deployment, submit a batch of VMs, optionally inject a
    Group Leader failure, and print the resulting statistics and hierarchy
    organization -- the CLI version of the Section II evaluation.

``hierarchy``
    Build and start a deployment, then print the hierarchy organization
    (which GM leads, which LCs each GM manages), the CLI's equivalent of the
    paper's "live visualizing and exporting of the hierarchy organization".
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.cli.common import add_action
from repro.core import ACOConsolidation, BestFitDecreasing, BranchAndBoundOptimal, FirstFitDecreasing
from repro.core.aco import ACOParameters
from repro.hierarchy import HierarchyConfig, SnoozeSystem, SystemSpec
from repro.metrics.report import ComparisonTable
from repro.simulation.randomness import spawn_generator
from repro.workloads import (
    BatchArrival,
    UniformDemandDistribution,
    WorkloadGenerator,
    consolidation_instance,
)
from repro.workloads.distributions import make_distribution


def register(subparsers) -> None:
    consolidate = add_action(
        subparsers,
        "consolidate",
        run_consolidate,
        "compare consolidation algorithms on a synthetic instance",
    )
    consolidate.add_argument("--vms", type=int, default=50, help="number of VMs to pack")
    consolidate.add_argument("--seed", type=int, default=0, help="random seed")
    consolidate.add_argument(
        "--distribution",
        default="uniform",
        choices=["uniform", "normal", "correlated", "heavytail"],
        help="VM demand distribution",
    )
    consolidate.add_argument(
        "--optimal", action="store_true", help="also run the exact branch-and-bound solver"
    )
    consolidate.add_argument("--ants", type=int, default=8, help="ACO: ants per cycle")
    consolidate.add_argument("--cycles", type=int, default=30, help="ACO: number of cycles")

    simulate = add_action(
        subparsers, "simulate", run_simulate, "run a Snooze deployment scenario"
    )
    simulate.add_argument("--lcs", type=int, default=16, help="number of local controllers")
    simulate.add_argument("--gms", type=int, default=2, help="number of group managers")
    simulate.add_argument("--vms", type=int, default=32, help="number of VMs to submit")
    simulate.add_argument("--duration", type=float, default=600.0, help="simulated seconds to run")
    simulate.add_argument("--seed", type=int, default=0, help="random seed")
    simulate.add_argument(
        "--energy", action="store_true", help="enable idle-host power management"
    )
    simulate.add_argument(
        "--kill-leader",
        action="store_true",
        help="inject a Group Leader failure halfway through the run",
    )

    hierarchy = add_action(
        subparsers, "hierarchy", run_hierarchy, "print the hierarchy organization"
    )
    hierarchy.add_argument("--lcs", type=int, default=8, help="number of local controllers")
    hierarchy.add_argument("--gms", type=int, default=2, help="number of group managers")
    hierarchy.add_argument("--seed", type=int, default=0, help="random seed")


def run_consolidate(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    distribution = make_distribution(args.distribution, dimensions=("cpu", "memory"))
    demands, capacities = consolidation_instance(
        args.vms, rng, demand_distribution=distribution, host_capacity=(1.0, 1.0)
    )
    table = ComparisonTable(f"Consolidation comparison ({args.vms} VMs, seed {args.seed})")
    algorithms = [
        FirstFitDecreasing(),
        BestFitDecreasing(),
        ACOConsolidation(
            ACOParameters(n_ants=args.ants, n_cycles=args.cycles),
            # A spawned child of the workload seed: decorrelated from the
            # instance stream without seed+1 arithmetic.
            rng=spawn_generator(args.seed, 1),
        ),
    ]
    if args.optimal:
        algorithms.append(BranchAndBoundOptimal())
    for algorithm in algorithms:
        result = algorithm.solve(demands, capacities)
        table.add_row(
            algorithm=result.algorithm,
            hosts_used=result.hosts_used,
            utilization=round(result.placement.average_utilization(), 4),
            runtime_s=round(result.runtime_seconds, 4),
            optimal=result.proved_optimal,
        )
    table.print()
    return 0


def run_simulate(args: argparse.Namespace) -> int:
    config = HierarchyConfig(seed=args.seed)
    config.power_manager.enabled = args.energy
    system = SnoozeSystem(
        SystemSpec(local_controllers=args.lcs, group_managers=args.gms),
        config=config,
        seed=args.seed,
    )
    system.start()
    generator = WorkloadGenerator(
        UniformDemandDistribution(0.1, 0.4), BatchArrival(0.0)
    )
    requests = generator.generate(args.vms, np.random.default_rng(args.seed))
    system.submit_requests(requests)
    if args.kill_leader:
        system.run(args.duration / 2)
        killed = system.kill_group_leader()
        print(f"[t={system.sim.now:.1f}s] injected Group Leader failure: {killed}")
        system.run(args.duration / 2)
    else:
        system.run(args.duration)
    stats = system.stats()
    table = ComparisonTable("Deployment statistics")
    for key, value in stats.items():
        if key == "network":
            continue
        table.add_row(metric=key, value=value)
    table.print()
    report = system.energy_report()
    print(
        f"Energy: {report.total_energy_kwh:.3f} kWh over {report.horizon_seconds / 3600:.2f} h "
        f"(avg {report.average_power_watts():.0f} W)"
    )
    return 0


def _render_hierarchy(system: SnoozeSystem) -> str:
    snapshot = system.hierarchy_snapshot()
    lines = [f"Group Leader: {snapshot['leader']}"]
    for gm_name, info in sorted(snapshot["group_managers"].items()):
        marker = " (leader)" if info.get("is_leader") else ""
        lines.append(f"  GM {gm_name}{marker} [{info['state']}]")
        for lc_name in info.get("local_controllers", []):
            lc = system.local_controllers[lc_name]
            lines.append(
                f"    LC {lc_name} node={lc.node.node_id} vms={lc.node.vm_count} "
                f"util={lc.node.utilization():.2f}"
            )
    return "\n".join(lines)


def run_hierarchy(args: argparse.Namespace) -> int:
    system = SnoozeSystem(
        SystemSpec(local_controllers=args.lcs, group_managers=args.gms), seed=args.seed
    )
    system.start()
    print(_render_hierarchy(system))
    return 0
