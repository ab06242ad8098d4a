"""Compile a :class:`ScenarioSpec` into a run and collect a structured result.

The runner is the single substrate every scenario goes through:

1. build a :class:`~repro.hierarchy.system.SnoozeSystem` from the spec (cluster
   shape, hierarchy sizing, configuration overrides) and let it settle;
2. generate every workload phase from its own named random stream and schedule
   the submissions at their arrival times;
3. schedule the scripted timeline events (failures, recoveries, leader kills,
   threshold changes);
4. run for the scenario duration and fold the recorders into a
   :class:`ScenarioResult` with energy, SLA, packing, churn and availability
   metrics.

Results are deliberately free of wall-clock quantities so that the same spec
and seed produce byte-identical JSON across runs (the determinism contract the
test suite enforces).
"""

from __future__ import annotations

import copy
import dataclasses
import json
import time
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.hierarchy.system import SnoozeSystem
from repro.plain import require_positive_finite
from repro.scenarios.spec import ScenarioSpec, TimelineEvent
from repro.simulation.engine import schedule_series
from repro.traffic.plane import TrafficPlane

#: Priority of scenario submissions relative to timeline events at equal times
#: is resolved by scheduling order, which is deterministic (phases first).

#: The canonicalization schema: every result section that may carry
#: non-deterministic (wall-clock derived) values, mapped to the neutral value
#: :meth:`ScenarioResult.canonical_json` substitutes for it.  Adding a new
#: wall-clock-bearing section means adding it HERE, not patching call sites --
#: the determinism tests iterate this schema.
NONDETERMINISTIC_SECTIONS: Dict[str, object] = {
    "perf": {"wall_clock_seconds": 0.0, "events_per_second": 0.0},
    # The observability section mixes deterministic counts with wall-clock
    # histograms/profiles; it is diagnostic output, not simulated state, so
    # the canonical form drops it wholesale.
    "observability": {},
}


@dataclass
class ScenarioResult:
    """Structured outcome of one scenario run (JSON-safe, wall-clock free)."""

    scenario: str
    seed: int
    duration: float
    #: Submission/SLA view: counts and client-observed latency.
    submissions: Dict[str, float] = field(default_factory=dict)
    #: VM lifecycle churn: departures, failures, still-active counts.
    churn: Dict[str, float] = field(default_factory=dict)
    #: Packing quality: host usage over time (means are time-weighted).
    packing: Dict[str, float] = field(default_factory=dict)
    #: Energy drawn by the infrastructure (computation energy is excluded:
    #: it is charged from wall-clock algorithm runtime and would break
    #: run-to-run determinism).
    energy: Dict[str, float] = field(default_factory=dict)
    #: Hierarchy availability: elections, failures, recoveries, migrations.
    availability: Dict[str, object] = field(default_factory=dict)
    #: Raw event counts by category, for deeper digging.
    event_counts: Dict[str, int] = field(default_factory=dict)
    #: The resolved policy selection the run used (kind -> policy name).
    policies: Dict[str, str] = field(default_factory=dict)
    #: Observed performance of the run itself (wall-clock seconds, simulator
    #: events retired per wall-clock second).  These are the only
    #: non-deterministic fields of a result; golden/determinism comparisons go
    #: through :meth:`canonical_json`, which zeroes them.
    perf: Dict[str, float] = field(default_factory=dict)
    #: Observability plane rollup (metric counters, trace summary, profiler
    #: breakdown) when any pillar is enabled.  Diagnostic output: dropped by
    #: :meth:`canonical_json` (see :data:`NONDETERMINISTIC_SECTIONS`).
    observability: Dict[str, object] = field(default_factory=dict)
    #: Request-traffic summary (served/dropped counts, latency quantiles,
    #: per-service totals and scaling activity) when the scenario declares a
    #: ``traffic`` section.  Fully deterministic -- the queue model is
    #: analytic -- so it is part of :meth:`canonical_json` and the goldens.
    traffic: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Plain-data form (includes the measured ``perf`` section)."""
        return dataclasses.asdict(self)

    def to_json(self, indent: int = 2) -> str:
        """JSON form with sorted keys (includes the measured ``perf`` section)."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    def canonical_json(self, indent: int = 2) -> str:
        """Deterministic JSON: identical runs are byte-identical.

        Every section named in :data:`NONDETERMINISTIC_SECTIONS` is replaced
        by its neutral value (wall-clock quantities vary run to run);
        everything else is simulated state.  Golden fixtures and every
        determinism assertion compare this form.
        """
        data = self.to_dict()
        for section, neutral in NONDETERMINISTIC_SECTIONS.items():
            data[section] = copy.deepcopy(neutral)
        return json.dumps(data, sort_keys=True, indent=indent)


class ScenarioRunner:
    """Run one :class:`ScenarioSpec` against a freshly built deployment."""

    def __init__(
        self,
        spec: ScenarioSpec,
        seed: int = 0,
        duration: Optional[float] = None,
        record_interval: Optional[float] = None,
    ) -> None:
        if duration is not None:
            require_positive_finite("duration override", duration)
            dropped = spec.timeline_events_after(duration)
            if dropped:
                raise ValueError(
                    f"duration override {duration} would drop {len(dropped)} timeline "
                    f"event(s) (first at t={min(event.at for event in dropped)}); "
                    "shorten the spec's timeline instead"
                )
        self.spec = spec
        self.seed = int(seed)
        self.duration = float(duration) if duration is not None else float(spec.duration)
        self.record_interval = (
            float(record_interval) if record_interval is not None else float(spec.record_interval)
        )
        self.system: Optional[SnoozeSystem] = None
        self.traffic: Optional[TrafficPlane] = None

    # ----------------------------------------------------------------- wiring
    def build_system(self) -> SnoozeSystem:
        """Construct (but do not start) the deployment described by the spec."""
        return SnoozeSystem(
            self.spec.system_spec(),
            config=self.spec.hierarchy_config(self.seed),
            seed=self.seed,
        )

    def _schedule_phases(self, system: SnoozeSystem, base: float) -> None:
        for index, phase in enumerate(self.spec.phases):
            generator = phase.build_generator()
            stream = system.random.stream(f"scenario:{self.spec.name}:phase{index}:{phase.name}")
            # One pending heap entry per phase instead of one per request (a
            # fleet scenario's thousands of pending arrivals otherwise tax
            # every heap operation for the whole run); firing order is
            # identical to pre-scheduling each request.
            schedule_series(
                system.sim,
                [
                    (base + phase.start + request.arrival_time, request.vm)
                    for request in generator.generate(phase.vm_count, stream)
                ],
                system.client.submit,
            )

    def _schedule_timeline(self, system: SnoozeSystem, base: float) -> None:
        for event in self.spec.timeline:
            system.sim.schedule_at(base + event.at, self._apply_event, system, event)

    @staticmethod
    def _apply_event(system: SnoozeSystem, event: TimelineEvent) -> None:
        if event.action == "kill_leader":
            system.kill_group_leader()
        elif event.action == "kill_gm":
            system.kill_group_manager(str(event.params["name"]))
        elif event.action == "kill_lc":
            system.kill_local_controller(str(event.params["name"]))
        elif event.action == "recover":
            system.recover_component(str(event.params["name"]))
        elif event.action == "set_thresholds":
            system.set_thresholds(
                underload=float(event.params["underload"]),
                overload=float(event.params["overload"]),
            )
        else:  # pragma: no cover - spec validation rejects unknown actions
            raise ValueError(f"unknown timeline action {event.action!r}")

    # -------------------------------------------------------------------- run
    def run(self) -> ScenarioResult:
        """Execute the scenario and return its structured result."""
        started = time.perf_counter()
        system = self.build_system()
        self.system = system
        system.start()
        recorder = system.enable_recording(interval=self.record_interval)
        base = system.sim.now
        if self.spec.traffic is not None and self.spec.traffic.enabled:
            # The plane starts at scenario time zero: initial replicas submit
            # through the ordinary client path and ticks join the coalesced
            # grid, so traffic behaviour is part of the deterministic run.
            self.traffic = TrafficPlane.attach(system, self.spec.traffic)
            self.traffic.start()
        self._schedule_phases(system, base)
        self._schedule_timeline(system, base)
        system.run(self.duration)
        recorder.sample_all()
        wall = time.perf_counter() - started
        result = self._collect(system)
        result.perf = {
            "wall_clock_seconds": wall,
            "events_per_second": system.sim.processed_events / wall if wall > 0 else 0.0,
        }
        if system.obs is not None:
            result.observability = system.obs.result_section()
            if system.obs.profiler is not None:
                # Replace the two-number perf view with a real breakdown:
                # wall clock attributed per handler (top 10 by total time).
                result.perf["handlers"] = system.obs.profiler.summary(top=10)["handlers"]
        return result

    def _collect(self, system: SnoozeSystem) -> ScenarioResult:
        client = system.client
        log = system.event_log
        recorder = system.recorder
        active = recorder.series("active_hosts")
        powered = recorder.series("powered_on_hosts")
        running = recorder.series("running_vms")
        energy = system.energy_report()
        horizon = max(energy.horizon_seconds, 1e-9)
        return ScenarioResult(
            scenario=self.spec.name,
            seed=self.seed,
            duration=self.duration,
            submissions={
                "submitted": len(client.records),
                "placed": client.placed_count(),
                "rejected": client.rejected_count(),
                "pending": client.pending_count(),
                "mean_latency_seconds": client.mean_latency(),
            },
            churn={
                "departed": client.departed_count(),
                "failed": client.failed_vm_count(),
                "active_at_end": client.active_vm_count(),
                "departure_events": log.count("vm_departed"),
            },
            packing={
                "nodes": len(system.topology),
                "mean_active_hosts": active.time_weighted_mean(),
                "peak_active_hosts": active.max(),
                "final_active_hosts": float(system.active_host_count()),
                "mean_powered_on_hosts": powered.time_weighted_mean(),
                "final_powered_on_hosts": float(system.powered_on_count()),
                "mean_running_vms": running.time_weighted_mean(),
                "peak_running_vms": running.max(),
            },
            energy={
                "infrastructure_kwh": energy.infrastructure_energy_joules / 3.6e6,
                "transition_kwh": energy.transition_energy_joules / 3.6e6,
                "mean_power_watts": energy.infrastructure_energy_joules / horizon,
            },
            availability={
                "leader_at_end": system.current_leader(),
                "elections": log.count("elected_group_leader"),
                "failures_injected": log.count("failure_injected"),
                "recoveries": log.count("component_recovered"),
                "group_managers_running": sum(
                    1 for gm in system.group_managers.values() if gm.is_running
                ),
                "local_controllers_assigned": system.assigned_lc_count(),
                "migrations_completed": system.migration_executor.stats.completed,
                "relocations": log.count("relocation"),
                "overload_events": log.count("overload_detected"),
                "underload_events": log.count("underload_detected"),
            },
            event_counts={category: log.count(category) for category in log.categories()},
            policies=self._resolved_policy_names(system),
            traffic=self.traffic.summary() if self.traffic is not None else {},
        )

    def _resolved_policy_names(self, system: SnoozeSystem) -> Dict[str, str]:
        """Hierarchy policy names plus the traffic autoscaling selection(s)."""
        names = {
            kind: str(entry["name"])
            for kind, entry in sorted(system.config.resolved_policies().items())
        }
        if self.spec.traffic is not None:
            autoscaling = self.spec.traffic.autoscaling_names()
            if autoscaling:
                selected = sorted(set(autoscaling.values()))
                names["autoscaling"] = (
                    selected[0] if len(selected) == 1 else ",".join(selected)
                )
        return names


def run_scenario(
    spec: ScenarioSpec,
    seed: int = 0,
    duration: Optional[float] = None,
    record_interval: Optional[float] = None,
) -> ScenarioResult:
    """One-call convenience wrapper around :class:`ScenarioRunner`."""
    return ScenarioRunner(
        spec, seed=seed, duration=duration, record_interval=record_interval
    ).run()
