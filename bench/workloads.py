"""The five benchmark workloads.

A workload is a list of *items* (one scenario run, one ACO solve, one
megafleet run, one sweep); one timed **pass** runs every item once, back to
back, from a single client (closed loop, at most two worker processes).  Each
item returns an :class:`Outcome`: the canonical output text that is digested
and compared (pass to pass, against goldens, across backends), the amount of
work it stands for, the simulated numbers that must repeat exactly, and --
kept apart from those -- host-time numbers for the per-layer ledger.

Why these five (the full tables are in ``bench/README.md``):

``catalog-mix``
    Small fleets on the default *jittery* network: one event per message,
    ``PeriodicTimer`` s, elections, failures, traffic plane.  The per-event
    kernel and per-message network path do the work; the coalesced / batched
    fast paths and the ACO kernels almost none.
``fleet-steady``
    The same layers used the other way -- zero-jitter fleets of 192 to 2048
    LCs where coalesced tick groups, batched delivery, the telemetry and
    decision planes carry the run.
``consolidation``
    ACO kernels do nearly all the work, the event kernel almost none; also
    carries the paper's packing-quality claim (ACO vs FFD vs lower bound).
``megafleet-shards``
    The second engine, once in-process and once through two worker
    processes, so shard compute and process exchange land in separate halves.
``sweep-fleet``
    Scenarios through process fan-out: runner spawn, lease round-trips,
    speculative re-dispatch and report assembly are on the blocking path.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.core import ACOParameters, FirstFitDecreasing, VectorizedACOConsolidation
from repro.core.base import lower_bound_hosts
from repro.hierarchy.system import SnoozeSystem
from repro.megafleet import run_megafleet
from repro.scenarios import (
    ScenarioRunner,
    ScenarioSpec,
    WorkloadPhase,
    get_scenario,
    run_scenario,
    scenario_names,
)
from repro.sweeps import DistributedExecutor, SweepReport, SweepSpec, run_sweep
from repro.workloads import UniformDemandDistribution, consolidation_instance

from tracing import Target, Tracer

ROOT = Path(__file__).resolve().parent.parent

#: The rule of ``tests/golden/regenerate.py``, restated (``tests`` is not part
#: of the public API): fixtures are produced at this seed and duration cap.
GOLDEN_SEED = 7
GOLDEN_DURATION_CAP = 1500.0
GOLDEN_DIR = ROOT / "tests" / "golden"

#: Simulated seconds of a warm-up scenario run.
WARMUP_DURATION = 120.0

#: Class methods wrapped in spans during a traced pass, so the layer calls a
#: scenario run makes nest under it.
TRACED_METHODS: List[Target] = [
    ("scenarios", ScenarioRunner, "build_system"),
    ("hierarchy", SnoozeSystem, "start"),
    ("hierarchy", SnoozeSystem, "run"),
    ("hierarchy", SnoozeSystem, "energy_report"),
    ("sweeps", SweepReport, "from_outcomes"),
    ("sweeps", DistributedExecutor, "map"),
]

#: Profiler component name -> suffix of its ``hierarchy.share-*`` metric.
PROFILED_COMPONENTS = {
    "_TickGroup": "tick_group",
    "PeriodicTimer": "periodic_timer",
    "LocalController": "local_controller",
    "GroupManager": "group_manager",
    "Network": "network",
    "DeadlineTable": "deadline_table",
}

#: ``policy_decision_seconds`` kind label -> suffix of ``policies.decision*``.
DECISION_KINDS = {
    "placement": "placement",
    "dispatching": "dispatching",
    "overload-relocation": "relocation",
    "underload-relocation": "relocation",
    "reconfiguration": "reconfiguration",
}


def available_cpus() -> int:
    return len(os.sched_getaffinity(0))


@dataclass
class Outcome:
    """What one item produced in one pass."""

    #: Canonical output text; its sha256 is the item's digest.
    output: str
    #: Throughput numerator this item contributes (workload's own unit).
    work: float = 0.0
    #: Simulated numbers and counts, summed over the pass; must repeat exactly.
    exact: Dict[str, float] = field(default_factory=dict)
    #: Host-time numbers for the per-layer ledger, summed over the pass.
    timing: Dict[str, float] = field(default_factory=dict)
    #: One message per failed operation.
    failures: List[str] = field(default_factory=list)


@dataclass
class Item:
    """One job of a pass: ``run(tracer, profile)`` -> :class:`Outcome`."""

    label: str
    run: Callable[[Tracer, bool], Outcome]
    #: Operations this item attempts (a sweep attempts one per cell).
    ops: int = 1


# ------------------------------------------------------------ scenario items
def golden_duration(spec: ScenarioSpec) -> float:
    """A capped duration that never drops scripted timeline events."""
    candidate = min(spec.duration, GOLDEN_DURATION_CAP)
    return spec.duration if spec.timeline_events_after(candidate) else candidate


def _label_sum(family: Dict[str, float], label: str) -> float:
    return float(sum(value for key, value in family.items() if label in key))


def scenario_numbers(result_dict: dict) -> tuple:
    """``(exact, timing)`` ledgers of one ``ScenarioResult.to_dict()``."""
    obs = result_dict.get("observability") or {}
    counters = obs.get("counters", {})

    def counter(name: str) -> float:
        return float(sum(counters.get(name, {}).values()))

    exact = {
        "sim_energy_kwh": float(result_dict["energy"]["infrastructure_kwh"]),
        "simulation.events": counter("simulator_events_total"),
        "network.messages": counter("network_messages_sent_total"),
        "network.dropped": counter("network_messages_dropped_total"),
        "traffic.ticks": float((result_dict.get("traffic") or {}).get("ticks", 0)),
    }
    timing: Dict[str, float] = {}
    counts = obs.get("histogram_counts", {}).get("policy_decision_seconds", {})
    seconds = obs.get("histogram_seconds", {}).get("policy_decision_seconds", {})
    for kind, suffix in DECISION_KINDS.items():
        label = f'kind="{kind}"'
        name = f"policies.decisions-{suffix}"
        exact[name] = exact.get(name, 0.0) + _label_sum(counts, label)
        name = f"policies.decision_s-{suffix}"
        timing[name] = timing.get(name, 0.0) + _label_sum(seconds, label)
    profile = obs.get("profiling")
    if profile:
        timing["hierarchy.profiled_s"] = float(profile["total_seconds"])
        timing["hierarchy.handler_calls"] = float(profile["handler_calls"])
        for component, suffix in PROFILED_COMPONENTS.items():
            entry = profile["components"].get(component)
            timing[f"hierarchy.seconds-{suffix}"] = float(entry["seconds"]) if entry else 0.0
    return exact, timing


def scenario_item(spec: ScenarioSpec, seed: int, duration: Optional[float]) -> Item:
    """One ``run_scenario`` call; ``profile`` turns the ``obs`` profiler on."""
    simulated = duration if duration is not None else spec.duration

    def run(tracer: Tracer, profile: bool) -> Outcome:
        chosen = spec
        if profile:
            observability = {**spec.config.get("observability", {}), "profiling": True}
            chosen = dataclasses.replace(
                spec, config={**spec.config, "observability": observability}
            )
        with tracer.span("scenarios", "run_scenario"):
            result = run_scenario(chosen, seed=seed, duration=duration)
        exact, timing = scenario_numbers(result.to_dict())
        return Outcome(
            output=result.canonical_json() + "\n",
            work=spec.local_controllers * simulated,
            exact=exact,
            timing=timing,
        )

    return Item(f"scenario:{spec.name}", run)


def fleet_spec(lcs: int, gms: int, vms: int, duration: float) -> ScenarioSpec:
    """A churn fleet on a deterministic network (``test_bench_scale`` shape).

    Defaults only -- no ``telemetry`` / ``coalesce_events`` overrides -- so it
    measures whatever path the hierarchy takes by default.
    """
    return ScenarioSpec(
        name=f"bench-fleet-{lcs}",
        description="benchmark churn fleet",
        duration=duration,
        local_controllers=lcs,
        group_managers=gms,
        nodes_per_rack=40,
        record_interval=60.0,
        config={"network": {"base_latency": 0.001, "jitter": 0.0, "loss_probability": 0.0}},
        phases=[
            WorkloadPhase(
                name="churn",
                vm_count=vms,
                arrival={"kind": "poisson", "rate_per_hour": 3600.0 * vms / duration / 2.0},
                demand={"kind": "uniform", "low": 0.1, "high": 0.3},
                trace={"kind": "constant", "level": 0.7},
                lifetime={"kind": "exponential", "mean": duration / 3.0, "minimum": 30.0},
            )
        ],
    )


# ----------------------------------------------------------------- workloads
class Workload:
    """Base: inputs from a seed, repeatable set-up, items, verification."""

    name = ""
    #: What ``throughput`` counts per second on this workload.
    throughput_unit = ""
    #: Fan-out workloads need two CPUs to measure dispatch instead of spawn.
    needs_two_cpus = False
    #: Scale timed samples by the host-speed reference (``harness.host_reference``).
    #: True where the time goes to the Python interpreter, which host contention
    #: slows as much as the pure-Python reference; numpy-kernel workloads are
    #: slowed far less, so scaling them over-corrects and they report raw seconds.
    reference_scaled = True

    def __init__(self, seed: int, smoke: bool = False, golden_dir: Path = GOLDEN_DIR) -> None:
        self.seed = int(seed)
        self.smoke = smoke
        self.golden_dir = Path(golden_dir)
        self._items: List[Item] = []
        #: Operations attempted, and failures found, by reference runs outside
        #: the passes (the sweep's pool and serial reports).
        self.reference_ops = 0
        self.reference_failures: List[str] = []

    def setup(self) -> None:
        """Build inputs from the seed and warm every code path (repeatable)."""
        raise NotImplementedError

    def items(self) -> List[Item]:
        return self._items

    def traced_extras(self, tracer: Tracer, untraced_walls: Dict[str, float]) -> Dict[str, float]:
        """Extra per-layer numbers that need runs beyond the traced pass.

        ``untraced_walls`` are the item walls of the untraced pass, for ratios
        against a configuration the pass already ran.
        """
        return {}

    def verify(self, outputs: Dict[str, str]) -> List[str]:
        """Failures of one pass's outputs against references (may be empty).

        Default: catalog scenario outputs against the committed fixtures, at
        the golden seed only (other seeds have no fixture to compare with).
        """
        if self.seed != GOLDEN_SEED:
            return []
        failures = []
        for label, output in outputs.items():
            if not label.startswith("scenario:") or label.startswith("scenario:bench-"):
                continue
            fixture = self.golden_dir / f"{label.split(':', 1)[1]}.json"
            if not fixture.is_file():
                failures.append(f"{label}: no golden fixture at {fixture}")
            elif fixture.read_text() != output:
                failures.append(f"{label}: differs from golden fixture {fixture.name}")
        return failures


class CatalogMix(Workload):
    name = "catalog-mix"
    throughput_unit = "LC-simulated-seconds/s"

    SMOKE_SCENARIOS = ("trace-replay", "steady-users-traffic")

    def setup(self) -> None:
        names = (
            self.SMOKE_SCENARIOS
            if self.smoke
            else [n for n in scenario_names() if not n.startswith("megafleet-")]
        )
        specs = [get_scenario(name) for name in names]
        self._items = [scenario_item(spec, self.seed, golden_duration(spec)) for spec in specs]
        # Warm-up: every scenario shortened, so each code path a pass takes
        # (elections, failures, traffic, reconfiguration) has run once.
        for spec in specs:
            if not spec.timeline_events_after(WARMUP_DURATION):
                run_scenario(spec, seed=self.seed, duration=WARMUP_DURATION)


class FleetSteady(Workload):
    name = "fleet-steady"
    throughput_unit = "LC-simulated-seconds/s"

    def setup(self) -> None:
        if self.smoke:
            self._fleet = fleet_spec(64, 2, 48, 60.0)
            self._items = [scenario_item(self._fleet, self.seed, None)]
        else:
            self._fleet = fleet_spec(2048, 32, 2400, 240.0)
            catalog = [get_scenario(n) for n in ("megafleet-steady", "megafleet-diurnal")]
            self._items = [
                scenario_item(spec, self.seed, golden_duration(spec)) for spec in catalog
            ] + [scenario_item(self._fleet, self.seed, None)]
        run_scenario(fleet_spec(128, 4, 96, 60.0), seed=self.seed)

    def traced_extras(self, tracer: Tracer, untraced_walls: Dict[str, float]) -> Dict[str, float]:
        """Wall of the churn fleet with every ``obs`` pillar off vs the default."""
        spec = dataclasses.replace(
            self._fleet, config={**self._fleet.config, "observability": {"metrics": False}}
        )
        with tracer.span("obs", "fleet-observability-off") as span:
            run_scenario(spec, seed=self.seed)
        default = untraced_walls[f"scenario:{self._fleet.name}"]
        return {"obs.metrics_overhead_ratio": span.duration / default}


class Consolidation(Workload):
    name = "consolidation"
    throughput_unit = "ant-placement-decisions/s"
    reference_scaled = False

    #: label -> (n_vms, n_ants, n_cycles); labels name the metrics.
    CELLS = {"500": (500, 8, 6), "1000": (1000, 8, 4), "2000": (2000, 6, 3)}
    SMOKE_DIVISOR = 10

    def setup(self) -> None:
        demand = UniformDemandDistribution(0.05, 0.3, dimensions=("cpu", "memory"))
        self._items = []
        self._instances = {}
        for label, (n_vms, n_ants, n_cycles) in self.CELLS.items():
            if self.smoke:
                n_vms //= self.SMOKE_DIVISOR
            demands, capacities = self._instances[label] = consolidation_instance(
                n_vms,
                np.random.default_rng([self.seed, n_vms]),
                demand_distribution=demand,
                host_capacity=(1.0, 1.0),
            )
            self._items.append(self._aco_item(label, demands, capacities, n_ants, n_cycles))
            self._items.append(self._ffd_item(label, demands, capacities))
        cycle = get_scenario("aco-consolidation-cycle")
        self._items.append(scenario_item(cycle, self.seed, golden_duration(cycle)))
        # Warm-up: the ACO and FFD kernels on a small instance, the scenario shortened.
        demands, capacities = consolidation_instance(
            100, np.random.default_rng(self.seed), demand_distribution=demand,
            host_capacity=(1.0, 1.0),
        )
        VectorizedACOConsolidation(
            ACOParameters(n_ants=4, n_cycles=2), rng=np.random.default_rng(self.seed)
        ).solve(demands, capacities)
        FirstFitDecreasing().solve(demands, capacities)
        run_scenario(cycle, seed=self.seed, duration=300.0)

    def _aco_item(self, label, demands, capacities, n_ants: int, n_cycles: int) -> Item:
        def run(tracer: Tracer, profile: bool) -> Outcome:
            solver = VectorizedACOConsolidation(
                ACOParameters(n_ants=n_ants, n_cycles=n_cycles),
                rng=np.random.default_rng([self.seed, demands.shape[0], 1]),
            )
            with tracer.span("core", "VectorizedACOConsolidation.solve"):
                result = solver.solve(demands, capacities)
            decisions = demands.shape[0] * n_ants * max(result.iterations, 1)
            failures = [] if result.feasible else [f"aco-{label}: placement oversubscribes a host"]
            return Outcome(
                output=json.dumps(result.placement.assignment.tolist()),
                work=decisions,
                exact={
                    f"core.aco_hosts-{label}": result.hosts_used,
                    "pack.aco_hosts": result.hosts_used,
                },
                timing={f"core.aco_decisions_per_s-{label}": decisions / result.runtime_seconds},
                failures=failures,
            )

        return Item(f"aco-{label}", run)

    def _ffd_item(self, label, demands, capacities) -> Item:
        def run(tracer: Tracer, profile: bool) -> Outcome:
            with tracer.span("core", "FirstFitDecreasing.solve"):
                result = FirstFitDecreasing().solve(demands, capacities)
            with tracer.span("core", "lower_bound_hosts"):
                bound = lower_bound_hosts(demands, capacities)
            failures = [] if result.feasible else [f"ffd-{label}: placement oversubscribes a host"]
            return Outcome(
                output=json.dumps(result.placement.assignment.tolist()),
                exact={
                    f"core.ffd_hosts-{label}": result.hosts_used,
                    f"core.lower_bound_hosts-{label}": bound,
                    "pack.lower_bound_hosts": bound,
                },
                timing={f"core.ffd_ms-{label}": result.runtime_seconds * 1e3},
                failures=failures,
            )

        return Item(f"ffd-{label}", run)

    def traced_extras(self, tracer: Tracer, untraced_walls: Dict[str, float]) -> Dict[str, float]:
        """Two colonies through the shared executor: two processes vs one."""
        _, n_ants, n_cycles = self.CELLS["1000"]
        demands, capacities = self._instances["1000"]
        walls = {}
        for jobs in (1, 2):
            solver = VectorizedACOConsolidation(
                ACOParameters(n_ants=n_ants, n_cycles=n_cycles),
                rng=np.random.default_rng([self.seed, demands.shape[0], 2]),
                n_colonies=2,
                jobs=jobs,
            )
            with tracer.span("core", f"colonies2-jobs{jobs}") as span:
                solver.solve(demands, capacities)
            walls[jobs] = span.duration
        return {"core.aco_colonies_ratio": walls[2] / walls[1]}


class MegafleetShards(Workload):
    name = "megafleet-shards"
    throughput_unit = "LC-simulated-seconds/s"
    needs_two_cpus = True
    reference_scaled = False

    #: Half the catalog horizon: a pass (serial + two processes) stays near 4 s,
    #: so three or more passes fit one run.
    FLEET, DURATION = "megafleet-100k", 300.0
    LCS = 100_000
    SMOKE_FLEET, SMOKE_DURATION, SMOKE_LCS = "megafleet-1k", 60.0, 1_000

    def setup(self) -> None:
        fleet, duration, lcs = (
            (self.SMOKE_FLEET, self.SMOKE_DURATION, self.SMOKE_LCS)
            if self.smoke
            else (self.FLEET, self.DURATION, self.LCS)
        )
        self._fleet, self._duration = fleet, duration
        self._items = [
            self._item("serial", fleet, duration, lcs, shards=1, jobs=1),
            self._item("shards2-jobs2", fleet, duration, lcs, shards=2, jobs=2),
        ]
        # Warm-up: the same pair on a smaller fleet (also forks a first pool).
        warm = self.SMOKE_FLEET if self.smoke else "megafleet-10k"
        for shards, jobs in ((1, 1), (2, 2)):
            run_megafleet(warm, self.seed, shards=shards, jobs=jobs, duration=60.0)

    def _item(self, label, fleet, duration, lcs, shards: int, jobs: int) -> Item:
        def run(tracer: Tracer, profile: bool) -> Outcome:
            with tracer.span("megafleet", f"run_megafleet-shards{shards}-jobs{jobs}") as span:
                result = run_megafleet(
                    fleet, self.seed, shards=shards, jobs=jobs, duration=duration
                )
            timing = {f"megafleet.{label.replace('-', '_')}_s": span.duration}
            exact = {}
            if label == "serial":
                exact["megafleet.events"] = result.events
            return Outcome(
                output=result.canonical_json(),
                work=lcs * duration,
                exact=exact,
                timing=timing,
            )

        return Item(label, run)

    def verify(self, outputs: Dict[str, str]) -> List[str]:
        if outputs.get("serial") != outputs.get("shards2-jobs2"):
            return ["shards2-jobs2: canonical JSON differs from the serial run"]
        return []

    def traced_extras(self, tracer: Tracer, untraced_walls: Dict[str, float]) -> Dict[str, float]:
        """The in-process two-shard run separates payload build/merge from processes."""
        with tracer.span("megafleet", "run_megafleet-shards2-jobs1") as span:
            run_megafleet(self._fleet, self.seed, shards=2, jobs=1, duration=self._duration)
        return {"megafleet.shards2_jobs1_s": span.duration}


class SweepFleet(Workload):
    name = "sweep-fleet"
    throughput_unit = "cells/s"
    needs_two_cpus = True

    #: Cells run 2400 simulated seconds (0.6 to 1 s each on the reference box)
    #: so several passes fit one run and dispatch is not hidden behind compute.
    DURATION = 2400.0

    def setup(self) -> None:
        if self.smoke:
            self._spec = SweepSpec(
                name="bench-sweep-smoke",
                scenarios=["steady-churn"],
                policies=[{}, {"placement": {"name": "best-fit"}}],
                seeds=[self.seed],
                duration=120.0,
            )
        else:
            self._spec = SweepSpec(
                name="bench-sweep",
                scenarios=["diurnal-datacenter", "heterogeneous-fleet"],
                policies=[
                    {},
                    {"placement": {"name": "best-fit"}},
                    {"placement": {"name": "worst-fit"}},
                ],
                seeds=[self.seed],
                duration=self.DURATION,
            )
        self._reference: Optional[str] = None
        self.reference_wall = 0.0
        self._items = [Item("fleet2", self._run_fleet, ops=self._spec.total_runs())]
        # Warm-up: two short cells through two runners (spawns, imports, sockets).
        warm = SweepSpec(
            name="bench-sweep-warm", scenarios=["steady-churn"],
            policies=[{}, {"placement": {"name": "best-fit"}}], seeds=[self.seed], duration=60.0,
        )
        run_sweep(warm, executor=DistributedExecutor(runners=2))

    def _run_fleet(self, tracer: Tracer, profile: bool) -> Outcome:
        executor = DistributedExecutor(runners=2)
        with tracer.span("sweeps", "run_sweep-fleet2") as span:
            report = run_sweep(self._spec, executor=executor)
        with tracer.span("sweeps", "SweepReport.to_json") as json_span:
            report.to_json()
        stats = executor.last_stats
        leases = stats.get("leases_granted", 0)
        cells = len(report.runs)
        timing = {
            "sweeps.fleet2_s": span.duration,
            "sweeps.to_json_s": json_span.duration,
            "sweeps.leases_granted": float(leases),
            "sweeps.speculative_leases": float(stats.get("speculative_leases", 0)),
            "sweeps.reclaims": float(
                stats.get("reclaimed_expired", 0) + stats.get("reclaimed_disconnect", 0)
            ),
            "sweeps.wasted_cell_ratio": (leases - cells) / leases if leases else 0.0,
        }
        rows = report.runs
        return Outcome(
            output=report.to_json(),
            work=cells,
            exact={"sim_energy_kwh": sum(r["metrics"]["energy_kwh"] for r in rows if r["metrics"])},
            timing=timing,
            failures=[
                f"cell {row['index']} ({row['scenario']}): {row['status']}: {row['error']}"
                for row in rows
                if row["status"] != "ok"
            ],
        )

    def _pool_reference(self) -> str:
        """The ``jobs=2`` pool report: reference bytes for every fleet pass."""
        if self._reference is None:
            report = run_sweep(self._spec, jobs=2)
            self.reference_wall = report.timing["wall_seconds_total"]
            self.reference_ops += len(report.runs)
            self._reference = report.to_json()
        return self._reference

    def verify(self, outputs: Dict[str, str]) -> List[str]:
        if outputs.get("fleet2") != self._pool_reference():
            return ["fleet2: report differs from the jobs=2 pool reference"]
        return []

    def traced_extras(self, tracer: Tracer, untraced_walls: Dict[str, float]) -> Dict[str, float]:
        """Serial and pool backends, for the fleet's overhead over a plain pool."""
        with tracer.span("sweeps", "run_sweep-serial") as span:
            serial = run_sweep(self._spec, jobs=1)
        self.reference_ops += len(serial.runs)
        if serial.to_json() != self._pool_reference():
            self.reference_failures.append("serial report differs from the jobs=2 pool reference")
        return {"sweeps.serial_s": span.duration, "sweeps.pool2_s": self.reference_wall}


WORKLOADS = {
    cls.name: cls for cls in (CatalogMix, FleetSteady, Consolidation, MegafleetShards, SweepFleet)
}
