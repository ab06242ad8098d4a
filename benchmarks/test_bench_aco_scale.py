"""ACO scale benchmark: the colony kernel at 100 / 500 / 2000 VMs.

Each cell runs :class:`~repro.core.aco.ACOConsolidation` once on a fixed
seeded instance and reports **raw** numbers: wall clock, ant placement
decisions (``n_vms * n_ants * cycles_run`` -- early stopping is part of the
algorithm, so the run's own cycle count is used) and their quotient,
**decisions per second**.  The instances and the search effort per cell are
fixed, so wall clock is the figure to compare across commits.

Packing quality is reported next to the speed: hosts used by ACO, by
First-Fit Decreasing on the same instance, and ``lower_bound_hosts``.  ACO
must use **no more hosts than FFD** in every cell (the paper's claim).
Quality against the scalar per-ant loop is asserted where the oracle lives,
in ``tests/test_core_aco_vectorized.py``.

Results land in ``$REPRO_BENCH_RESULTS/BENCH_ACO_SCALE.json``.
"""

from __future__ import annotations

import numpy as np

from repro.core import ACOConsolidation, ACOParameters, FirstFitDecreasing, lower_bound_hosts
from repro.metrics.report import ComparisonTable
from repro.workloads import UniformDemandDistribution, consolidation_instance

from benchmarks.conftest import write_results_json

#: Instance sizes and per-cell search effort (cycles shrink as instances grow
#: so every point stays laptop-sized; throughput is per-second anyway).
CELLS = {
    100: {"n_ants": 8, "n_cycles": 10},
    500: {"n_ants": 8, "n_cycles": 6},
    2000: {"n_ants": 6, "n_cycles": 3},
}

SEED = 2012


def _measure_cell(n_vms: int) -> dict:
    effort = CELLS[n_vms]
    demands, capacities = consolidation_instance(
        n_vms,
        np.random.default_rng(SEED),
        demand_distribution=UniformDemandDistribution(0.05, 0.3, dimensions=("cpu", "memory")),
        host_capacity=(1.0, 1.0),
    )
    result = ACOConsolidation(
        ACOParameters(n_ants=effort["n_ants"], n_cycles=effort["n_cycles"]),
        rng=np.random.default_rng(SEED),
    ).solve(demands, capacities)
    decisions = n_vms * effort["n_ants"] * max(result.iterations, 1)
    wall = result.runtime_seconds
    return {
        "vms": n_vms,
        "hosts": int(capacities.shape[0]),
        "seed": SEED,
        **effort,
        "cycles_run": int(result.iterations),
        "wall_clock_seconds": round(wall, 4),
        "decisions": int(decisions),
        "decisions_per_second": round(decisions / wall, 1) if wall > 0 else 0.0,
        "hosts_used": int(result.hosts_used),
        "ffd_hosts": int(FirstFitDecreasing().solve(demands, capacities).hosts_used),
        "lower_bound_hosts": int(lower_bound_hosts(demands, capacities)),
    }


def test_aco_scale(benchmark):
    entries = benchmark.pedantic(
        lambda: [_measure_cell(n_vms) for n_vms in CELLS],
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    table = ComparisonTable("ACO at scale: batched ant kernels vs FFD and the lower bound")
    for entry in entries:
        table.add_row(
            vms=entry["vms"],
            wall_s=entry["wall_clock_seconds"],
            decisions_per_s=entry["decisions_per_second"],
            hosts_aco=entry["hosts_used"],
            hosts_ffd=entry["ffd_hosts"],
            lower_bound=entry["lower_bound_hosts"],
        )
    table.print()
    write_results_json(
        "BENCH_ACO_SCALE.json",
        {
            "benchmark": "aco-scale",
            "decisions_per_second_definition": (
                "ant VM-placement decisions per wall-clock second, "
                "n_vms * n_ants * cycles_run / runtime"
            ),
            "cells": {str(entry["vms"]): entry for entry in entries},
        },
    )

    for entry in entries:
        assert entry["lower_bound_hosts"] <= entry["hosts_used"] <= entry["ffd_hosts"], (
            f"ACO used {entry['hosts_used']} hosts at {entry['vms']} VMs "
            f"(FFD {entry['ffd_hosts']}, lower bound {entry['lower_bound_hosts']})"
        )
