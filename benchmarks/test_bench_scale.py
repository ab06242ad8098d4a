"""Scale benchmark: the hierarchy hot path at 100 / 500 / 2000 Local Controllers.

Each fleet runs one fixed churn scenario on a deterministic network (so the
coalesced tick groups, deadline tables and batched deliveries all engage) and
reports **raw** numbers: wall clock, the simulator events the run processed,
and their quotient.  The workload per cell is fixed, so wall clock is the
figure to compare across commits; events/s is the same measurement divided
into the run's own event count (a change that retires the same work in fewer
events lowers it without being slower -- read it next to the wall clock).

Timed runs execute in fresh interpreters, rounds interleaved across cells,
minimum wall kept.  A further, untimed run per fleet repeats the scenario with
profiling enabled and folds the event-loop breakdown into the fleet entry:
component and handler wall-clock shares plus per-kind policy decision latency,
so the scale numbers say *where* the time goes, not just how much.  The
profiled run must stay canonically identical to the timed ones (asserted).

Results land in ``$REPRO_BENCH_RESULTS/BENCH_SCALE.json`` (per-fleet entries
are merged across invocations).  The default run covers the 100-LC point so
the tier-1 suite stays fast; set ``REPRO_BENCH_SCALE_FLEETS=100,500,2000``
for the full sweep.  With ``REPRO_BENCH_STRICT=1`` the 100-LC point is gated
against the committed baseline (``benchmarks/BENCH_SCALE_BASELINE.json``):
the run fails if events/sec regresses more than 2x below it (CI's ``scale``
job runs exactly this).

A second benchmark extends the sweep past what the object-level hierarchy can
reach: ``test_megafleet_flat_scale`` runs the sharded lockstep engine
(:mod:`repro.megafleet`) over 100-LC, 10k-LC and (best-effort, env-gated)
100k-LC cells and records their events/sec under the ``megafleet`` key of the
same JSON.  Because the engine's per-event cost is flat by construction, the
10k cell is **gated** at >= 0.8x the 100-LC cell's events/sec -- the
flat-scaling claim of ROADMAP item 2, checked on every CI run of the
``megafleet`` job.  Set ``REPRO_BENCH_MEGAFLEET_FLEETS=100,10000,100000`` to
include the 100k point.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from repro.megafleet import ShardedFleetSimulator, get_megafleet
from repro.metrics.report import ComparisonTable
from repro.scenarios import ScenarioRunner, ScenarioSpec, WorkloadPhase

from benchmarks.conftest import results_path, write_results_json

#: Committed regression baseline for the CI-gated 100-LC point.
BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_SCALE_BASELINE.json"

#: Fleet sizes and per-fleet workload sizing (duration shrinks as fleets grow
#: so every point stays laptop-sized; throughput is per-second anyway).  The
#: 500 and 2000 cells share the same per-LC workload intensity (1.2 VMs per
#: LC over 240 simulated seconds) *and* the same ~62-LC group size: Snooze
#: scales by adding constant-size groups, so their events/sec compare the
#: per-event mechanical cost at different fleet sizes rather than different
#: event mixes or group sizes -- the decay criterion of ROADMAP item 2 is
#: judged on this pair.
FLEETS = {
    100: {"group_managers": 4, "vms": 120, "duration": 600.0},
    500: {"group_managers": 8, "vms": 600, "duration": 240.0},
    2000: {"group_managers": 32, "vms": 2400, "duration": 240.0},
}

SEED = 2012


def _configured_fleets() -> list:
    raw = os.environ.get("REPRO_BENCH_SCALE_FLEETS", "100")
    fleets = sorted({int(token) for token in raw.split(",") if token.strip()})
    unknown = [fleet for fleet in fleets if fleet not in FLEETS]
    if unknown:
        raise ValueError(f"unknown fleet size(s) {unknown}; choose from {sorted(FLEETS)}")
    return fleets


def _fleet_spec(lcs: int) -> ScenarioSpec:
    sizing = FLEETS[lcs]
    return ScenarioSpec(
        name=f"bench-scale-{lcs}",
        description="scale benchmark cell",
        duration=sizing["duration"],
        local_controllers=lcs,
        group_managers=sizing["group_managers"],
        nodes_per_rack=40,
        record_interval=60.0,
        config={
            # Deterministic network: the delivery-batching, deadline-sink and
            # heartbeat-lease fast paths are all reachable.
            "network": {"base_latency": 0.001, "jitter": 0.0, "loss_probability": 0.0},
        },
        phases=[
            WorkloadPhase(
                name="churn",
                vm_count=sizing["vms"],
                arrival={"kind": "poisson", "rate_per_hour": 3600.0 * sizing["vms"] / sizing["duration"] / 2.0},
                demand={"kind": "uniform", "low": 0.1, "high": 0.3},
                trace={"kind": "constant", "level": 0.7},
                lifetime={"kind": "exponential", "mean": sizing["duration"] / 3.0, "minimum": 30.0},
            )
        ],
    )


#: Timed repetitions per cell; the fastest wall clock is kept (standard
#: benchmarking practice: the minimum is the least noise-contaminated sample).
ROUNDS = int(os.environ.get("REPRO_BENCH_SCALE_ROUNDS", "2"))


#: Run one timed scenario in a *fresh interpreter* and report wall clock,
#: event count and a digest of the canonical result.  Process isolation is
#: the point: repeated runs in one process inherit allocator and cache state
#: from their predecessors, which inflates later (and larger) cells' walls
#: by up to ~10% -- enough to swamp the flat-scale comparison this benchmark
#: exists to make.
_CHILD_SCRIPT = """
import gc, hashlib, json, sys
lcs = int(sys.argv[1])
from test_bench_scale import SEED, _fleet_spec
from repro.scenarios import ScenarioRunner
runner = ScenarioRunner(_fleet_spec(lcs), seed=SEED)
gc.collect()
gc.disable()
try:
    result = runner.run()
finally:
    gc.enable()
print(json.dumps({
    "wall": result.perf["wall_clock_seconds"],
    "events": runner.system.sim.processed_events,
    "digest": hashlib.sha256(result.canonical_json().encode()).hexdigest(),
}))
"""


def _canonical_digest(canonical_json: str) -> str:
    return hashlib.sha256(canonical_json.encode()).hexdigest()


def _timed_run(lcs: int) -> dict:
    here = Path(__file__).resolve().parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(here), str(here.parent / "src"), env.get("PYTHONPATH", "")]
    ).rstrip(os.pathsep)
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD_SCRIPT, str(lcs)],
        env=env,
        capture_output=True,
        text=True,
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark child (lcs={lcs}) failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _interleaved_timings(cells: list) -> dict:
    """Min-of-ROUNDS walls for every cell, rounds interleaved.

    Each round sweeps all cells once, so the cells being *compared* (the
    flat-scale criterion ranks events/sec across cells) are measured seconds
    -- not minutes -- apart and see the same host weather; the min over
    rounds then discards transient noise per cell.  The sweep order rotates
    so no cell always runs last.
    """
    timings: dict = {}
    for sweep in range(ROUNDS):
        offset = sweep % len(cells) if cells else 0
        for lcs in cells[offset:] + cells[:offset]:
            run = _timed_run(lcs)
            slot = timings.setdefault(lcs, run)
            slot["wall"] = min(slot["wall"], run["wall"])
    return timings


def _decision_latency(observability: dict) -> dict:
    """Per-kind policy decision latency from a result observability section."""
    counts = observability.get("histogram_counts", {}).get("policy_decision_seconds", {})
    seconds = observability.get("histogram_seconds", {}).get("policy_decision_seconds", {})
    by_kind: dict = {}
    for labels, calls in counts.items():
        kind = next(
            (
                part.split("=", 1)[1].strip('"')
                for part in labels.split(",")
                if part.startswith("kind=")
            ),
            labels,
        )
        agg = by_kind.setdefault(kind, {"calls": 0, "wall_seconds": 0.0})
        agg["calls"] += int(calls)
        agg["wall_seconds"] = round(agg["wall_seconds"] + seconds.get(labels, 0.0), 6)
    return by_kind


def _profile_fleet(lcs: int) -> dict:
    """One profiled (untimed) run: where does the wall clock go?"""
    base = _fleet_spec(lcs).to_dict()
    base["config"] = dict(base["config"])
    base["config"]["observability"] = {"metrics": True, "tracing": False, "profiling": True}
    runner = ScenarioRunner(ScenarioSpec.from_dict(base), seed=SEED)
    result = runner.run()
    summary = runner.system.obs.profiler.summary(top=8)
    return {
        "_canonical": result.canonical_json(),
        "handler_calls": summary["handler_calls"],
        "profiled_seconds": summary["total_seconds"],
        "component_shares": {
            name: entry["share"] for name, entry in summary["components"].items()
        },
        "top_handlers": {
            name: {"calls": entry["calls"], "share": entry["share"]}
            for name, entry in summary["handlers"].items()
        },
        "decision_latency": _decision_latency(result.observability),
    }


def _measure_fleet(lcs: int, run: dict) -> dict:
    sizing = FLEETS[lcs]
    profile = _profile_fleet(lcs)
    profiled_identical = _canonical_digest(profile.pop("_canonical")) == run["digest"]
    wall = run["wall"]
    return {
        "local_controllers": lcs,
        "group_managers": sizing["group_managers"],
        "vms": sizing["vms"],
        "simulated_seconds": sizing["duration"],
        "seed": SEED,
        "wall_clock_seconds": round(wall, 4),
        "processed_events": int(run["events"]),
        "events_per_second": round(run["events"] / wall, 1) if wall > 0 else 0.0,
        "profiled_result_identical": profiled_identical,
        "profile": profile,
    }


def _merge_results(entries: dict, section: str = "fleets") -> None:
    path = results_path("BENCH_SCALE.json")
    summary = {"benchmark": "scale", "fleets": {}}
    if path is not None and path.exists():
        try:
            existing = json.loads(path.read_text())
            if isinstance(existing.get("fleets"), dict):
                summary = existing
        except (json.JSONDecodeError, OSError):
            pass
    summary.setdefault(section, {})
    summary[section].update({str(lcs): entry for lcs, entry in entries.items()})
    write_results_json("BENCH_SCALE.json", summary)


def test_scale_hot_path(benchmark):
    entries = {}
    table = ComparisonTable("Hot-path scale: raw wall clock and events/s per fleet")

    def run_all():
        cells = _configured_fleets()
        timings = _interleaved_timings(cells)
        for lcs in cells:
            entries[lcs] = _measure_fleet(lcs, timings[lcs])
        return [
            {
                "lcs": entry["local_controllers"],
                "wall_clock_seconds": entry["wall_clock_seconds"],
                "events_per_second": entry["events_per_second"],
            }
            for entry in entries.values()
        ]

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1, warmup_rounds=0)
    for entry in entries.values():
        table.add_row(
            lcs=entry["local_controllers"],
            wall_s=entry["wall_clock_seconds"],
            events=entry["processed_events"],
            eps=entry["events_per_second"],
            profiled_identical=entry["profiled_result_identical"],
        )
    table.print()
    _merge_results(entries)

    for entry in entries.values():
        assert entry["profiled_result_identical"], (
            f"profiling changed the result at {entry['local_controllers']} LCs"
        )
        assert entry["events_per_second"] > 0
    assert rows

    # CI regression gate: the 100-LC point must stay within 2x of the
    # committed baseline (only enforced in strict mode so cold laptops and
    # busy CI runners do not flake the tier-1 suite).
    if os.environ.get("REPRO_BENCH_STRICT") and 100 in entries:
        baseline = json.loads(BASELINE_PATH.read_text())
        floor = baseline["events_per_second"] / 2.0
        measured = entries[100]["events_per_second"]
        assert measured >= floor, (
            f"events/sec regression at 100 LCs: measured {measured:.0f}, "
            f"baseline {baseline['events_per_second']:.0f} (floor {floor:.0f}); "
            "if the slowdown is intentional, refresh benchmarks/BENCH_SCALE_BASELINE.json"
        )


# --------------------------------------------------------------- megafleet
#: Fleet cells for the sharded lockstep engine.  The 100-LC cell exists to
#: anchor the flatness gate (same engine, toy fleet); 10k is the CI cell of
#: ROADMAP item 2; 100k is the roadmap target, included when the env var
#: asks for it.  Durations are chosen so every cell retires a comparable
#: number of simulated epochs.
MEGAFLEET_CELLS = {
    100: dataclasses.replace(
        get_megafleet("megafleet-1k"),
        name="megafleet-100",
        description="Flatness-gate anchor: the 10k cell must match this eps.",
        local_controllers=100,
        group_managers=4,
        duration=300.0,
        arrivals_per_epoch=20.0,
    ),
    10_000: get_megafleet("megafleet-10k"),
    100_000: get_megafleet("megafleet-100k"),
}

#: The 10k cell must retire at least this fraction of the 100-LC cell's
#: events/sec -- the "near-flat" scaling claim, gated in CI.
MEGAFLEET_FLATNESS_FLOOR = 0.8

MEGAFLEET_SEED = 2012
MEGAFLEET_ROUNDS = 2


def _configured_megafleets() -> list:
    raw = os.environ.get("REPRO_BENCH_MEGAFLEET_FLEETS", "100,10000")
    fleets = sorted({int(token) for token in raw.split(",") if token.strip()})
    unknown = [fleet for fleet in fleets if fleet not in MEGAFLEET_CELLS]
    if unknown:
        raise ValueError(
            f"unknown megafleet size(s) {unknown}; choose from {sorted(MEGAFLEET_CELLS)}"
        )
    return fleets


def _measure_megafleet(lcs: int) -> dict:
    spec = MEGAFLEET_CELLS[lcs]
    shards = min(8, spec.group_managers)
    result = None
    wall = None
    for _ in range(MEGAFLEET_ROUNDS):
        gc.collect()
        gc.disable()
        try:
            result = ShardedFleetSimulator(spec, seed=MEGAFLEET_SEED).run(shards=shards)
        finally:
            gc.enable()
        wall = result.wall_seconds if wall is None else min(wall, result.wall_seconds)
    # Determinism spot-check alongside the measurement: a different shard
    # count must reproduce the run byte for byte.
    reshard = ShardedFleetSimulator(spec, seed=MEGAFLEET_SEED).run(shards=1)
    return {
        "local_controllers": spec.local_controllers,
        "group_managers": spec.group_managers,
        "simulated_seconds": spec.duration,
        "epochs": spec.n_epochs,
        "seed": MEGAFLEET_SEED,
        "shards": shards,
        "wall_clock_seconds": round(wall, 4),
        "processed_events": result.events,
        "events_per_second": round(result.events / wall, 1) if wall > 0 else 0.0,
        "totals": dict(result.totals),
        "shard_invariant": reshard.canonical_json() == result.canonical_json(),
    }


def test_megafleet_flat_scale(benchmark):
    entries = {}
    table = ComparisonTable("Megafleet flat scale: sharded lockstep engine")

    def run_all():
        for lcs in _configured_megafleets():
            entries[lcs] = _measure_megafleet(lcs)
        return [
            {"lcs": lcs, "events_per_second": entry["events_per_second"]}
            for lcs, entry in entries.items()
        ]

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1, warmup_rounds=0)
    for entry in entries.values():
        table.add_row(
            lcs=entry["local_controllers"],
            gms=entry["group_managers"],
            wall_s=entry["wall_clock_seconds"],
            events=entry["processed_events"],
            eps=entry["events_per_second"],
            placements=entry["totals"]["placements"],
            shard_invariant=entry["shard_invariant"],
        )
    table.print()
    _merge_results(entries, section="megafleet")
    assert rows

    for entry in entries.values():
        assert entry["shard_invariant"], (
            f"sharded run diverged at {entry['local_controllers']} LCs"
        )

    # The flat-scaling gate of ROADMAP item 2: events/sec at 10k LCs must not
    # fall below MEGAFLEET_FLATNESS_FLOOR of the 100-LC anchor cell.
    if 100 in entries and 10_000 in entries:
        anchor = entries[100]["events_per_second"]
        measured = entries[10_000]["events_per_second"]
        assert measured >= MEGAFLEET_FLATNESS_FLOOR * anchor, (
            f"events/sec decayed with fleet size: 10k cell {measured:.0f} < "
            f"{MEGAFLEET_FLATNESS_FLOOR:.0%} of the 100-LC cell {anchor:.0f}"
        )
