"""Traffic-plane overhead benchmark: the same fleet with and without users.

A 100-LC churn cell (the scale benchmark's sizing) runs twice from one seed:

* **off** -- no ``traffic`` section: the plain churn workload;
* **on** -- the same scenario plus four request-serving services (eight
  replica VMs, analytic M/M/c evaluation every 10 simulated seconds and the
  demand feedback into VM CPU usage).

The traffic plane is array-backed and event-free by design -- each tick is
one coalesced callback doing a handful of numpy operations over all services
at once -- so turning it on must not move fleet-scale throughput.  Throughput
is *events per second* with the **off-path event count as the fixed yardstick
for both runs** (the traffic run adds replica VMs and tick events; crediting
it with its own larger count would hide slowdown as extra events), so the
ratio is exactly the wall-clock ratio.

Results land in ``$REPRO_BENCH_RESULTS/BENCH_TRAFFIC.json``.  With
``REPRO_BENCH_STRICT=1`` (CI's ``traffic`` job) the run fails if enabling
traffic costs more than 10% events/sec.
"""

from __future__ import annotations

import gc
import os

from repro.metrics.report import ComparisonTable
from repro.scenarios import ScenarioRunner, ScenarioSpec, WorkloadPhase

from benchmarks.conftest import write_results_json

#: The CI-gated cell: 100 Local Controllers, laptop-sized duration.
CELL = {"local_controllers": 100, "group_managers": 4, "vms": 120, "duration": 600.0}

SEED = 2012

#: Maximum tolerated events/sec cost of enabling the traffic plane.
MAX_OVERHEAD = 0.10

#: Timed repetitions per variant; the fastest wall clock is kept.  Variants
#: are interleaved (off, on, off, on, ...) so machine noise hits both alike.
ROUNDS = 3


def _cell_spec(traffic: bool) -> ScenarioSpec:
    services = [
        {
            "name": f"svc-{index}",
            "profile": {
                "kind": "diurnal",
                "base": 0.2,
                "peak": 1.0,
                "period": 600.0,
                "peak_time": 300.0,
                "peak_rps": 150.0,
            },
            "initial_replicas": 2,
            "service_rate": 100.0,
        }
        for index in range(4)
    ]
    return ScenarioSpec(
        name="bench-traffic-100",
        description="traffic overhead benchmark cell",
        duration=CELL["duration"],
        local_controllers=CELL["local_controllers"],
        group_managers=CELL["group_managers"],
        nodes_per_rack=40,
        record_interval=60.0,
        config={
            "network": {"base_latency": 0.001, "jitter": 0.0, "loss_probability": 0.0},
        },
        phases=[
            WorkloadPhase(
                name="churn",
                vm_count=CELL["vms"],
                arrival={
                    "kind": "poisson",
                    "rate_per_hour": 3600.0 * CELL["vms"] / CELL["duration"] / 2.0,
                },
                demand={"kind": "uniform", "low": 0.1, "high": 0.3},
                trace={"kind": "constant", "level": 0.7},
                lifetime={
                    "kind": "exponential",
                    "mean": CELL["duration"] / 3.0,
                    "minimum": 30.0,
                },
            )
        ],
        traffic={"services": services, "interval": 10.0} if traffic else None,
    )


def _run_once(traffic: bool) -> tuple:
    runner = ScenarioRunner(_cell_spec(traffic), seed=SEED)
    gc.collect()
    gc.disable()
    try:
        result = runner.run()
    finally:
        gc.enable()
    events = runner.system.sim.processed_events
    return result, result.perf["wall_clock_seconds"], events


def _run_variants() -> dict:
    entries = {
        label: {"_wall": None, "_result": None, "processed_events": 0}
        for label in ("off", "on")
    }
    for _ in range(ROUNDS):
        for label, traffic in (("off", False), ("on", True)):
            entry = entries[label]
            result, wall, events = _run_once(traffic)
            entry["_result"] = result
            entry["processed_events"] = int(events)
            entry["_wall"] = wall if entry["_wall"] is None else min(entry["_wall"], wall)
    for entry in entries.values():
        entry["wall_clock_seconds"] = round(entry["_wall"], 4)
    return entries


def test_traffic_plane_overhead(benchmark):
    entries = {}

    def run_both():
        entries.update(_run_variants())
        return [
            {
                "wall_off_s": entries["off"]["wall_clock_seconds"],
                "wall_on_s": entries["on"]["wall_clock_seconds"],
            }
        ]

    rows = benchmark.pedantic(run_both, rounds=1, iterations=1, warmup_rounds=0)
    assert rows

    off, on = entries["off"], entries["on"]
    wall_off, wall_on = off.pop("_wall"), on.pop("_wall")
    result_on = on.pop("_result")
    off.pop("_result")
    reference_events = off["processed_events"]
    eps_off = reference_events / wall_off if wall_off > 0 else 0.0
    eps_on = reference_events / wall_on if wall_on > 0 else 0.0
    overhead = 1.0 - (eps_on / eps_off) if eps_off > 0 else 0.0
    traffic = result_on.traffic

    table = ComparisonTable("Traffic plane overhead at 100 LCs")
    for label, entry, eps in (("off", off, eps_off), ("on", on, eps_on)):
        table.add_row(
            traffic=label,
            wall_s=entry["wall_clock_seconds"],
            events=entry["processed_events"],
            events_per_second=round(eps, 1),
        )
    table.print()
    print(
        f"overhead: {overhead:+.1%} (gate {MAX_OVERHEAD:.0%} strict); traffic served "
        f"{traffic['requests']['served']:,.0f} requests at p99 "
        f"{traffic['latency_seconds']['p99'] * 1000:.1f} ms"
    )

    write_results_json(
        "BENCH_TRAFFIC.json",
        {
            "benchmark": "traffic",
            "cell": dict(CELL, seed=SEED),
            "off": off,
            "on": on,
            "events_per_second": {"off": round(eps_off, 1), "on": round(eps_on, 1)},
            "events_per_second_definition": (
                "off-path simulator events retired per wall-clock second for "
                "both variants (fixed yardstick), so the ratio equals the "
                "wall-clock ratio"
            ),
            "overhead_fraction": round(overhead, 4),
            "max_overhead_fraction": MAX_OVERHEAD,
            "traffic_summary": {
                "requests": traffic["requests"],
                "latency_seconds": traffic["latency_seconds"],
                "ticks": traffic["ticks"],
            },
        },
    )

    # The traffic run must actually have served traffic through the plane.
    assert traffic["ticks"] == int(CELL["duration"] // 10)
    assert traffic["requests"]["served"] > 0

    # CI regression gate (strict mode only, so cold laptops don't flake).
    if os.environ.get("REPRO_BENCH_STRICT"):
        assert eps_on >= (1.0 - MAX_OVERHEAD) * eps_off, (
            f"traffic plane costs {overhead:.1%} events/sec "
            f"(eps off {eps_off:.0f}, on {eps_on:.0f}); gate is {MAX_OVERHEAD:.0%}"
        )
