"""E7 (ablation) -- ACO parameter sensitivity.

The ACO design choices worth ablating: the number of ants,
the number of cycles, the evaporation rate rho and the alpha/beta weighting of
pheromone vs heuristic information.  The benchmark sweeps each knob around the
default configuration on a fixed instance and reports hosts used and runtime,
showing (a) diminishing returns beyond the default colony size and (b) that
the heuristic term matters (beta = 0 packs clearly worse).
"""

from __future__ import annotations

import numpy as np

from repro.core import FirstFitDecreasing
from repro.core.aco import ACOConsolidation, ACOParameters
from repro.metrics.report import ComparisonTable
from repro.workloads import UniformDemandDistribution, consolidation_instance

from benchmarks.conftest import run_once

N_VMS = 100


def _instance():
    rng = np.random.default_rng(424)
    return consolidation_instance(
        N_VMS,
        rng,
        demand_distribution=UniformDemandDistribution(0.1, 0.5, dimensions=("cpu", "memory")),
        host_capacity=(1.0, 1.0),
    )


def _solve(demands, capacities, **overrides) -> dict:
    defaults = dict(n_ants=8, n_cycles=25, alpha=1.0, beta=2.0, rho=0.3)
    defaults.update(overrides)
    params = ACOParameters(**defaults)
    result = ACOConsolidation(params, rng=np.random.default_rng(99)).solve(demands, capacities)
    return {
        "hosts": result.hosts_used,
        "runtime_s": result.runtime_seconds,
        "utilization": result.placement.average_utilization(),
    }


def _run_experiment() -> dict:
    demands, capacities = _instance()
    ffd_hosts = FirstFitDecreasing().solve(demands, capacities).hosts_used
    table = ComparisonTable(f"E7: ACO parameter ablation ({N_VMS} VMs; FFD uses {ffd_hosts} hosts)")
    outcomes = {}

    sweeps = [
        ("default", {}),
        ("ants=2", {"n_ants": 2}),
        ("ants=16", {"n_ants": 16}),
        ("cycles=5", {"n_cycles": 5}),
        ("cycles=50", {"n_cycles": 50}),
        ("rho=0.1", {"rho": 0.1}),
        ("rho=0.7", {"rho": 0.7}),
        ("beta=0 (no heuristic)", {"beta": 0.0}),
        ("alpha=0 (no pheromone)", {"alpha": 0.0}),
    ]
    for label, overrides in sweeps:
        outcome = _solve(demands, capacities, **overrides)
        outcomes[label] = outcome
        table.add_row(
            configuration=label,
            hosts=outcome["hosts"],
            vs_ffd=outcome["hosts"] - ffd_hosts,
            utilization=round(outcome["utilization"], 3),
            runtime_s=round(outcome["runtime_s"], 2),
        )
    table.print()
    outcomes["ffd_hosts"] = ffd_hosts
    return outcomes


def test_e7_aco_parameter_sensitivity(benchmark):
    """The default configuration is competitive; removing the heuristic term hurts packing."""
    outcomes = run_once(benchmark, _run_experiment)
    default = outcomes["default"]
    # Default ACO beats the FFD baseline on this instance.
    assert default["hosts"] <= outcomes["ffd_hosts"]
    # Removing the heuristic guidance (beta=0) never improves on the default.
    assert outcomes["beta=0 (no heuristic)"]["hosts"] >= default["hosts"]
    # A tiny colony / few cycles never beats the default configuration.
    assert outcomes["ants=2"]["hosts"] >= default["hosts"]
    assert outcomes["cycles=5"]["hosts"] >= default["hosts"]
    # More ants cost proportionally more runtime.
    assert outcomes["ants=16"]["runtime_s"] > outcomes["ants=2"]["runtime_s"]
