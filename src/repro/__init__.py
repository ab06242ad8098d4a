"""repro -- reproduction of Snooze: autonomous, energy-aware cloud management.

This library reproduces Feller & Morin, "Autonomous and Energy-Aware
Management of Large-Scale Cloud Infrastructures" (IPDPS 2012 PhD Forum):

* the **Snooze** self-organizing, hierarchical, fault-tolerant VM management
  framework (:mod:`repro.hierarchy` and its substrates), and
* the **ACO-based VM consolidation** algorithm with its FFD and optimal
  baselines (:mod:`repro.core`).

Quick start::

    import numpy as np
    from repro.core import ACOConsolidation, FirstFitDecreasing
    from repro.workloads import consolidation_instance

    demands, capacities = consolidation_instance(50, np.random.default_rng(0))
    aco = ACOConsolidation().solve(demands, capacities)
    ffd = FirstFitDecreasing().solve(demands, capacities)
    print(aco.hosts_used, "<=", ffd.hosts_used)

See README.md for the architecture map and how to run the paper's experiments
(``benchmarks/``, one ``test_bench_e<N>_*.py`` per reported result) and the
performance yardstick that gates every change (``bench/``).
"""

__version__ = "0.1.0"

__all__ = [
    "workers",
    "simulation",
    "cluster",
    "workloads",
    "network",
    "coordination",
    "core",
    "monitoring",
    "energy",
    "migration",
    "traffic",
    "obs",
    "hierarchy",
    "policies",
    "scenarios",
    "sweeps",
    "megafleet",
    "metrics",
    "cli",
]
