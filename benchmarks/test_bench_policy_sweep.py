"""Policy sweep -- one catalog scenario under several placement policies.

The unified policy API makes policy-comparison experiments declarative: the
same :class:`~repro.scenarios.spec.ScenarioSpec` is re-run with only its
``policies`` block changed.  This benchmark sweeps the ``steady-churn``
catalog scenario across three placement policies (first-fit, best-fit,
worst-fit) and reports, per policy: mean/peak active hosts, infrastructure
energy and the end-to-end run wall time.  The wall time covers the whole
simulation (engine, monitoring, metrics), not just the policy decision paths;
it tracks the overall perf trajectory of policy-driven runs across PRs.

Besides the human-readable table, the sweep writes a machine-readable
``BENCH_POLICY_SWEEP.json`` summary next to the per-experiment ``BENCH_E*``
files (same ``REPRO_BENCH_RESULTS`` override, same never-fail contract).
"""

from __future__ import annotations

import time

from repro.metrics.report import ComparisonTable
from repro.scenarios import ScenarioSpec, get_scenario, run_scenario

from benchmarks.conftest import run_once, write_results_json

SCENARIO = "steady-churn"
PLACEMENT_POLICIES = ("first-fit", "best-fit", "worst-fit")
DURATION = 1800.0
SEED = 2012


def _swept_spec(placement: str) -> ScenarioSpec:
    spec = get_scenario(SCENARIO)
    merged = dict(spec.policies)
    merged["placement"] = {"name": placement}
    return ScenarioSpec.from_dict(
        {**spec.to_dict(), "duration": DURATION, "policies": merged}
    )


def _write_sweep_summary(rows: list) -> None:
    write_results_json(
        "BENCH_POLICY_SWEEP.json",
        {
            "scenario": SCENARIO,
            "seed": SEED,
            "duration_seconds": DURATION,
            "entries": rows,
        },
    )


def test_policy_sweep(benchmark):
    def sweep() -> list:
        rows = []
        for placement in PLACEMENT_POLICIES:
            spec = _swept_spec(placement)
            start = time.perf_counter()
            result = run_scenario(spec, seed=SEED)
            wall = time.perf_counter() - start
            rows.append(
                {
                    "placement": placement,
                    "mean_active_hosts": round(result.packing["mean_active_hosts"], 3),
                    "peak_active_hosts": result.packing["peak_active_hosts"],
                    "energy_kwh": round(result.energy["infrastructure_kwh"], 4),
                    "placed": result.submissions["placed"],
                    "run_wall_seconds": round(wall, 4),
                }
            )
        return rows

    rows = run_once(benchmark, sweep)
    _write_sweep_summary(rows)

    table = ComparisonTable(f"Placement policy sweep ({SCENARIO}, seed {SEED})")
    for row in rows:
        table.add_row(**row)
    table.print()

    # Every policy must place the same workload; packing quality may differ.
    assert len({row["placed"] for row in rows}) == 1
    assert all(row["mean_active_hosts"] > 0 for row in rows)
