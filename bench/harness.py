"""Measure one workload: set-up, timed passes, verification, the traced pass.

One run is ``setup x SETUP_REPS`` (median reported as ``setup_s``, import time
added), then untraced timed passes until ``seconds`` have been measured (at
least :data:`MIN_PASSES`), then verification of every pass's outputs.
``wall_s`` is the sum over the pass's items of each item's fastest pass, in
*reference seconds*: every sample is scaled by how fast the host ran a fixed
reference computation right around it (see :func:`host_reference`).  With
``trace`` the run instead does one untraced pass (the reference for output
identity and for tracing overhead), one traced + profiled pass, the
workload's extra configurations and the layer micro-probes, and reports the
per-layer ledger.  Host time and simulated numbers never share a metric:
everything in seconds is host time; ``sim_*``, ``pack_ratio`` and counts are
simulated and must repeat exactly from pass to pass.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

import probes
from tracing import Tracer
from workloads import (
    PROFILED_COMPONENTS,
    ROOT,
    TRACED_METHODS,
    Outcome,
    Workload,
    available_cpus,
)

#: Set-up repetitions per run; the median is reported.
SETUP_REPS = 3
#: Fewest timed passes of an untraced run, however long one pass takes.
MIN_PASSES = 2
#: Repetition scale of the micro-probes at ``--smoke`` size.
SMOKE_PROBE_SCALE = 0.02

BENCHMARK_SPEC = ROOT / "BENCHMARK.json"

#: Seconds :func:`host_reference` takes on the builder's box when it is quiet.
#: Times are reported as if the host always ran the reference this fast.
REFERENCE_NOMINAL_S = 0.0087


class _Pending:
    """A heap entry of the reference computation (ordered by time)."""

    __slots__ = ("time", "key", "callback")

    def __init__(self, time_: int, key: int, callback) -> None:
        self.time = time_
        self.key = key
        self.callback = callback

    def __lt__(self, other: "_Pending") -> bool:
        return self.time < other.time


def host_reference() -> float:
    """Seconds a fixed pure-Python computation takes right now (best of two).

    The box is a shared two-vCPU VM: busy neighbours slow it by 20-100 % for
    seconds to minutes at a time, which moved raw pass times by 8-35 % from
    run to run.  The reference -- a heap of objects with callbacks and
    dictionary writes, nothing from ``repro`` -- is timed right before and
    after every measured item; an item's wall time is scaled by
    ``REFERENCE_NOMINAL_S / min(before, after)``, so a host-wide slowdown that
    covers both readings cancels while a change to the code under test does
    not.  Raw seconds are kept beside every scaled number in the document.
    """
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        heap: List[_Pending] = []
        seen: Dict[int, int] = {}
        total = 0
        step = (1).__add__
        for index in range(6000):
            heapq.heappush(heap, _Pending((index * 7919) % 1000, index, step))
        while heap:
            entry = heapq.heappop(heap)
            total = entry.callback(total)
            seen[entry.key & 255] = total
        best = min(best, time.perf_counter() - start)
    return best


def metric_units() -> Dict[str, str]:
    """``name -> unit`` for every metric ``BENCHMARK.json`` declares."""
    spec = json.loads(BENCHMARK_SPEC.read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units["failed_ratio"] = "ratio"
    return units


def reference_reading(workload: Workload) -> float:
    """The host reference now -- or its nominal value, for a workload reported raw."""
    return host_reference() if workload.reference_scaled else REFERENCE_NOMINAL_S


def stamp(seed: int) -> dict:
    """Where and on what a result was measured."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            # Never walk above the checkout looking for a repository.
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "git_sha": sha,
        "seed": seed,
        "cpus": available_cpus(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# --------------------------------------------------------------------- passes
@dataclass
class PassResult:
    """Every item of a workload run once."""

    #: Raw wall seconds per item.
    walls: Dict[str, float]
    outcomes: Dict[str, Outcome]
    #: Per item, ``REFERENCE_NOMINAL_S / host reference`` around its sample.
    scales: Dict[str, float]

    @property
    def wall(self) -> float:
        return sum(self.walls.values())

    def scaled(self, label: str) -> float:
        """The item's wall time in reference seconds."""
        return self.walls[label] * self.scales[label]

    @property
    def scaled_wall(self) -> float:
        return sum(self.scaled(label) for label in self.walls)

    @property
    def outputs(self) -> Dict[str, str]:
        return {label: outcome.output for label, outcome in self.outcomes.items()}

    def total(self, ledger: str) -> Dict[str, float]:
        """Item ledgers (``exact`` or ``timing``) summed over the pass."""
        totals: Dict[str, float] = {}
        for outcome in self.outcomes.values():
            for name, value in getattr(outcome, ledger).items():
                totals[name] = totals.get(name, 0.0) + value
        return totals


def run_pass(workload: Workload, tracer: Tracer, profile: bool = False) -> PassResult:
    """Run each item once, back to back; an item that raises is a failed operation."""
    walls: Dict[str, float] = {}
    outcomes: Dict[str, Outcome] = {}
    scales: Dict[str, float] = {}
    before = reference_reading(workload)
    for item in workload.items():
        gc.collect()
        with tracer.job(f"{workload.name}/{item.label}"):
            start = time.perf_counter()
            try:
                outcome = item.run(tracer, profile)
            except Exception as exc:  # noqa: BLE001 - a raising operation is a counted failure
                traceback.print_exc(file=sys.stderr)
                outcome = Outcome(output="", failures=[f"{item.label}: raised {exc!r}"])
            walls[item.label] = time.perf_counter() - start
        after = reference_reading(workload)
        scales[item.label] = REFERENCE_NOMINAL_S / min(before, after)
        before = after
        outcomes[item.label] = outcome
    return PassResult(walls, outcomes, scales)


def check_passes(workload: Workload, passes: List[PassResult]) -> List[str]:
    """Every failure of a run: item failures, references, pass-to-pass identity."""
    failures: List[str] = []
    first_outputs, first_exact = passes[0].outputs, passes[0].total("exact")
    for index, result in enumerate(passes):
        outputs = result.outputs
        for outcome in result.outcomes.values():
            failures.extend(outcome.failures)
        failures.extend(f"pass {index}: {message}" for message in workload.verify(outputs))
        if index == 0:
            continue
        for label, output in outputs.items():
            if output != first_outputs[label]:
                failures.append(f"pass {index}: {label}: output differs from pass 0")
        if result.total("exact") != first_exact:
            failures.append(f"pass {index}: simulated numbers differ from pass 0")
    return failures


# -------------------------------------------------------------- layer ledger
def layer_ledger(result: PassResult, tracer: Tracer) -> Dict[str, float]:
    """Per-layer numbers of one traced pass, by metric name.

    Carries more names than ``BENCHMARK.json`` lists (component seconds behind
    the shares, say); the caller keeps the declared ones.
    """
    exact, timing = result.total("exact"), result.total("timing")
    ledger = {**exact, **timing}

    profiled = timing.get("hierarchy.profiled_s", 0.0)
    for suffix in PROFILED_COMPONENTS.values():
        seconds = timing.get(f"hierarchy.seconds-{suffix}", 0.0)
        ledger[f"hierarchy.share-{suffix}"] = seconds / profiled if profiled else 0.0

    build = tracer.total("scenarios", "ScenarioRunner.build_system")
    start = tracer.total("hierarchy", "SnoozeSystem.start")
    ledger["scenarios.build_s"] = build
    ledger["scenarios.start_s"] = start
    ledger["scenarios.run_s"] = tracer.total("scenarios", "run_scenario") - build - start

    if "pack.lower_bound_hosts" in exact:
        ledger["pack_ratio"] = exact["pack.aco_hosts"] / exact["pack.lower_bound_hosts"]
    if "megafleet.serial_s" in timing:
        ledger["megafleet.events_per_s-serial"] = (
            exact["megafleet.events"] / timing["megafleet.serial_s"]
        )
    if "sweeps.to_json_s" in timing:
        ledger["sweeps.report_s"] = (
            tracer.total("sweeps", "SweepReport.from_outcomes") + timing["sweeps.to_json_s"]
        )
    return ledger


def finish_ledger(ledger: Dict[str, float]) -> None:
    """Derived rows that need the workload's extra configurations (in place)."""
    if "megafleet.shards2_jobs1_s" in ledger:
        # Two processes on two cores should cost half the in-process two-shard
        # run; whatever the process run takes beyond that is spawn + exchange.
        ledger["megafleet.proc_overhead_s"] = (
            ledger["megafleet.shards2_jobs2_s"] - ledger["megafleet.shards2_jobs1_s"] / 2.0
        )
    if "sweeps.pool2_s" in ledger:
        ledger["sweeps.fleet_overhead_s"] = ledger["sweeps.fleet2_s"] - ledger["sweeps.pool2_s"]


def run_probes(workload: Workload, tracer: Tracer) -> Dict[str, float]:
    """The fixed-size layer micro-probes, one span each."""
    from repro.sweeps import SweepSpec

    scale = SMOKE_PROBE_SCALE if workload.smoke else 1.0
    seed = workload.seed
    cell = SweepSpec(
        name="bench-probe", scenarios=["steady-churn"], seeds=[seed], duration=120.0
    ).expand()[0]
    plan = [
        ("simulation", lambda: probes.simulation(scale)),
        ("network", lambda: probes.network(seed, scale)),
        ("monitoring", lambda: probes.monitoring(seed, scale)),
        ("policies", lambda: probes.policies(seed, scale)),
        ("traffic", lambda: probes.traffic(seed, scale)),
        ("workloads", lambda: probes.workload_generation(seed)),
        ("sweeps", lambda: probes.sweep_protocol(cell, scale)),
    ]
    metrics: Dict[str, float] = {}
    with tracer.job("probes"):
        for layer, probe in plan:
            with tracer.span(layer, "probe"):
                metrics.update(probe())
    return metrics


# -------------------------------------------------------------------- measure
def measure(
    workload: Workload,
    seconds: float,
    trace: bool,
    import_seconds: float,
    trace_path: Optional[Path] = None,
) -> dict:
    """Run ``workload`` and return its result document."""
    before = reference_reading(workload)  # first thing: the reading closest to the imports
    units = metric_units()
    quiet = Tracer(enabled=False)

    setup_walls, setup_scaled = [], [import_seconds * REFERENCE_NOMINAL_S / before]
    for _ in range(SETUP_REPS):
        gc.collect()
        start = time.perf_counter()
        workload.setup()
        setup_walls.append(time.perf_counter() - start)
        after = reference_reading(workload)
        setup_scaled.append(setup_walls[-1] * REFERENCE_NOMINAL_S / min(before, after))
        before = after
    setup_s = setup_scaled[0] + statistics.median(setup_scaled[1:])

    passes: List[PassResult] = []
    began = time.perf_counter()
    while True:
        passes.append(run_pass(workload, quiet))
        if trace or (len(passes) >= MIN_PASSES and time.perf_counter() - began >= seconds):
            break
    rss = peak_rss_mb()

    # Host noise only ever adds time, so each item's fastest (scaled) pass is
    # its least contaminated sample; raw and median figures stay in the document.
    labels = list(passes[0].walls)
    wall_s = sum(min(result.scaled(label) for result in passes) for label in labels)
    raw_wall_s = sum(min(result.walls[label] for result in passes) for label in labels)
    work = sum(outcome.work for outcome in passes[0].outcomes.values())
    exact = passes[0].total("exact")
    starved = workload.needs_two_cpus and available_cpus() < 2

    def metric(name: str, value: float) -> dict:
        return {"value": float(value), "unit": units[name]}

    end_to_end = {
        "setup_s": metric("setup_s", setup_s),
        "wall_s": metric("wall_s", wall_s),
        "peak_rss_mb": metric("peak_rss_mb", rss),
    }
    if not starved:
        # On one CPU a fan-out workload measures process spawn, not dispatch.
        end_to_end["throughput"] = metric("throughput", work / wall_s)
    if "sim_energy_kwh" in exact:
        end_to_end["sim_energy_kwh"] = metric("sim_energy_kwh", exact["sim_energy_kwh"])
    if "pack.lower_bound_hosts" in exact:
        end_to_end["pack_ratio"] = metric(
            "pack_ratio", exact["pack.aco_hosts"] / exact["pack.lower_bound_hosts"]
        )

    document = {
        "schema": 1,
        "workload": workload.name,
        "smoke": workload.smoke,
        "traced": trace,
        "stamp": stamp(workload.seed),
        "throughput_counts": workload.throughput_unit,
        "work_per_pass": work,
        "compute_starved": starved,
        "setup_reps": SETUP_REPS,
        "setup_walls_s": setup_walls,
        "import_s": import_seconds,
        "raw_setup_s": import_seconds + statistics.median(setup_walls),
        "raw_wall_s": raw_wall_s,
        "reference_nominal_s": REFERENCE_NOMINAL_S,
        "reference_s": [REFERENCE_NOMINAL_S / min(result.scales.values()) for result in passes],
        "passes": len(passes),
        "pass_walls_s": [result.wall for result in passes],
        "median_pass_wall_s": statistics.median(result.wall for result in passes),
        "item_walls_s": {
            label: [result.walls[label] for result in passes] for label in passes[0].walls
        },
        "end_to_end": end_to_end,
        "exact": exact,
        "digests": {label: digest(output) for label, output in passes[0].outputs.items()},
    }

    passes_checked = passes
    if trace:
        tracer = Tracer()
        with tracer.instrument(TRACED_METHODS):
            traced = run_pass(workload, tracer, profile=True)
        passes_checked = passes + [traced]
        ledger = layer_ledger(traced, tracer)
        ledger["bench.trace_overhead_ratio"] = traced.scaled_wall / passes[0].scaled_wall
        with tracer.job(f"{workload.name}/extras"):
            ledger.update(workload.traced_extras(tracer, passes[0].walls))
        finish_ledger(ledger)
        ledger.update(run_probes(workload, tracer))
        document["per_layer"] = {
            name: metric(name, value) for name, value in sorted(ledger.items()) if name in units
        }
        document["layer_self_time_s"] = tracer.self_times()
        document["spans"] = len(tracer.spans)
        if trace_path is not None:
            tracer.write(trace_path)
            document["trace_file"] = str(trace_path)

    failures = check_passes(workload, passes_checked) + workload.reference_failures
    # After the checks: a reference run (the sweep's pool report) counts its cells.
    attempted = (
        sum(item.ops for item in workload.items()) * len(passes_checked) + workload.reference_ops
    )
    failed = min(len(failures), attempted)
    document["attempted"] = attempted
    document["failed"] = failed
    document["failures"] = failures
    end_to_end["failed_ratio"] = metric("failed_ratio", failed / attempted)
    return document
