"""Regenerate the golden ScenarioResult fixtures.

Usage (from the repository root)::

    PYTHONPATH=src python -m tests.golden.regenerate            # all scenarios
    PYTHONPATH=src python -m tests.golden.regenerate flash-crowd ...
    PYTHONPATH=src python -m tests.golden.regenerate aco-solves

Fixtures are the :meth:`ScenarioResult.canonical_json` of each catalog
scenario under ``GOLDEN_SEED`` and a capped duration (so the whole catalog
regenerates in minutes on a laptop, while scripted timeline events are never
dropped).  Only regenerate after an *intentional* behaviour change -- the
golden test exists to catch unintentional ones.

``transport_counts.json`` sits beside them: ``processed_events`` and
``Network.stats()`` of the same runs, which no ``ScenarioResult`` field
carries.  A kernel or transport change that merges, skips or re-orders events
moves those counts even when every simulated statistic survives.

``aco_solves.json`` pins whole packing solves (assignment digest, hosts,
cycles, history) of the ``consolidation`` yardstick's instances, ACO and FFD,
and every ant's assignment from one roulette cycle on each (the solves' best
is often the greedy anchor's, which draws nothing).  The construction oracle
in ``tests/fullwidth_aco.py`` proves kernels equal draw for draw; this fixture
ties a kernel to the commit that generated it across changes in floating-point
summation order, which the oracle shares.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Tuple

import numpy as np

from repro.core import ACOConsolidation, ACOParameters, FirstFitDecreasing
from repro.core.aco import _Colony
from repro.scenarios import ScenarioRunner, ScenarioSpec, get_scenario, scenario_names
from repro.workloads import UniformDemandDistribution, consolidation_instance

#: Seed every golden fixture is produced under.
GOLDEN_SEED = 7

#: Cap on the simulated duration of a golden run (seconds).
GOLDEN_DURATION_CAP = 1500.0

#: Directory holding the committed fixtures.
GOLDEN_DIR = Path(__file__).resolve().parent

#: Event and message counts of every golden run.
TRANSPORT_COUNTS_PATH = GOLDEN_DIR / "transport_counts.json"

#: Pinned ACO / FFD solves; ``ACO_SOLVES`` is also the name that regenerates them.
ACO_SOLVES = "aco-solves"
ACO_SOLVES_PATH = GOLDEN_DIR / "aco_solves.json"

#: ``(n_vms, n_ants, n_cycles, seed)`` of every pinned solve: the yardstick's
#: three ``consolidation`` cells at its seed, the smallest at two more.
ACO_SOLVE_CELLS = (
    (500, 8, 6, GOLDEN_SEED),
    (1000, 8, 4, GOLDEN_SEED),
    (2000, 6, 3, GOLDEN_SEED),
    (500, 8, 6, 201),
    (500, 8, 6, 305),
)


def golden_duration(spec: ScenarioSpec, cap: float = GOLDEN_DURATION_CAP) -> float:
    """A capped duration that never drops scripted timeline events."""
    candidate = min(spec.duration, cap)
    if spec.timeline_events_after(candidate):
        return spec.duration
    return candidate


def fixture_path(name: str) -> Path:
    """Path of the committed fixture for scenario ``name``."""
    return GOLDEN_DIR / f"{name}.json"


def golden_run(name: str) -> Tuple[str, Dict[str, object]]:
    """One golden run of ``name``: its fixture content and its transport counts."""
    spec = get_scenario(name)
    runner = ScenarioRunner(spec, seed=GOLDEN_SEED, duration=golden_duration(spec))
    result = runner.run()
    counts = {
        "processed_events": runner.system.sim.processed_events,
        "network": runner.system.network.stats(),
    }
    return result.canonical_json() + "\n", counts


def committed_transport_counts() -> Dict[str, Dict[str, object]]:
    """The committed ``transport_counts.json``, by scenario name."""
    return json.loads(TRANSPORT_COUNTS_PATH.read_text())


def assignment_digest(assignment: np.ndarray) -> str:
    """The yardstick's item digest: sha256 of the assignment(s) as a JSON list."""
    return hashlib.sha256(json.dumps(assignment.tolist()).encode("utf-8")).hexdigest()


def aco_solve_instance(n_vms: int, seed: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(demands, capacities)`` of one pinned cell, built the way ``bench/workloads.py`` does."""
    return consolidation_instance(
        n_vms,
        np.random.default_rng([seed, n_vms]),
        demand_distribution=UniformDemandDistribution(0.05, 0.3, dimensions=("cpu", "memory")),
        host_capacity=(1.0, 1.0),
    )


def aco_solves() -> Dict[str, Dict[str, object]]:
    """Solve every ``ACO_SOLVE_CELLS`` instance the way ``bench/workloads.py`` does."""
    solves = {}
    for n_vms, n_ants, n_cycles, seed in ACO_SOLVE_CELLS:
        demands, capacities = aco_solve_instance(n_vms, seed)
        parameters = ACOParameters(n_ants=n_ants, n_cycles=n_cycles)
        aco = ACOConsolidation(parameters, rng=np.random.default_rng([seed, n_vms, 1])).solve(
            demands, capacities
        )
        ffd = FirstFitDecreasing().solve(demands, capacities)
        colony = _Colony(demands, capacities, parameters, np.random.default_rng([seed, n_vms, 2]))
        solves[f"{n_vms}-seed{seed}"] = {
            "aco_assignment_sha256": assignment_digest(aco.placement.assignment),
            "aco_roulette_cycle_sha256": assignment_digest(colony._construct(n_ants, greedy=False)),
            "aco_hosts_used": aco.hosts_used,
            "aco_iterations": aco.iterations,
            "aco_history": aco.history,
            "ffd_assignment_sha256": assignment_digest(ffd.placement.assignment),
            "ffd_hosts_used": ffd.hosts_used,
        }
    return solves


def regenerate(names: Iterable[str]) -> List[Path]:
    """Rewrite the fixture (and counts entry) of every scenario in ``names``."""
    written = []
    all_counts = committed_transport_counts() if TRANSPORT_COUNTS_PATH.exists() else {}
    for name in names:
        content, counts = golden_run(name)
        path = fixture_path(name)
        path.write_text(content)
        written.append(path)
        all_counts[name] = counts
    TRANSPORT_COUNTS_PATH.write_text(json.dumps(all_counts, sort_keys=True, indent=2) + "\n")
    return written + [TRANSPORT_COUNTS_PATH]


def main(argv: List[str]) -> int:
    names = argv or scenario_names() + [ACO_SOLVES]
    unknown = sorted(set(names) - set(scenario_names()) - {ACO_SOLVES})
    if unknown:
        print(f"unknown scenario(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    scenarios = [name for name in names if name != ACO_SOLVES]
    written = regenerate(scenarios) if scenarios else []
    if ACO_SOLVES in names:
        ACO_SOLVES_PATH.write_text(json.dumps(aco_solves(), sort_keys=True, indent=2) + "\n")
        written.append(ACO_SOLVES_PATH)
    for path in written:
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
