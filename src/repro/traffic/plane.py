"""The traffic plane: array-backed request traffic over a live deployment.

One :class:`TrafficPlane` rides a wired
:class:`~repro.hierarchy.system.SnoozeSystem` and, on a single coalesced tick
(the PR-4 :class:`~repro.simulation.batch.CoalescedTicker` machinery -- no
per-request events anywhere):

1. evaluates every service's offered arrival rate and its M/M/c queue
   analytically (:mod:`repro.traffic.model`) over aligned numpy arrays,
   accumulating served/dropped counts and latency-histogram mass;
2. feeds the demand signal back into the hierarchy: each service's replicas
   share a :class:`ServiceLoadTrace` whose level is the offered per-replica
   utilization, so VM CPU usage -- and therefore the existing monitoring,
   overload/underload estimation and energy accounting -- follows the users
   instead of a script;
3. executes the service's ``autoscaling`` policy (if any) on its own cadence,
   realizing scale-out through ordinary client submissions and scale-in
   through the Local Controller ``terminate_vm`` path, so autoscaled replicas
   are placed, monitored, relocated and billed like any other VM.

Everything the plane computes is a pure function of the scenario seed:
profiles pre-draw randomness from named streams, the queue math is analytic
and policies are deterministic, so traffic summaries land in the
byte-identical (golden) part of a :class:`~repro.scenarios.runner.ScenarioResult`.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.cluster.resources import ResourceVector
from repro.cluster.vm import VirtualMachine
from repro.policies.autoscaling import ServiceSnapshot
from repro.policies.registry import instrument_policy, make_policy
from repro.simulation.batch import CoalescedTicker
from repro.traffic.model import (
    DEFAULT_LATENCY_BUCKETS,
    evaluate_tick,
    quantile_from_histogram,
)
from repro.traffic.profiles import compile_profile
from repro.traffic.spec import ServiceSpec, TrafficSpec
from repro.workloads.traces import UtilizationTrace

#: Simulator service name the plane registers under.
TRAFFIC_SERVICE = "traffic"


class ServiceLoadTrace(UtilizationTrace):
    """Replica utilization driven by the traffic plane.

    A step function updated once per traffic tick: between ticks the level is
    constant, so re-sampling any instant stays pure (the trace contract).  All
    replicas of a service share one instance -- per-VM usage memoization makes
    that safe and cheap.
    """

    def __init__(self, level: float = 0.0) -> None:
        self.level = float(level)

    def __call__(self, t: float) -> float:  # noqa: ARG002 - plane-driven, not time-driven
        return self.level


class _Service:
    """Mutable per-service runtime state (aligned with the plane's arrays)."""

    __slots__ = (
        "spec",
        "profile",
        "trace",
        "policy",
        "records",
        "pending",
        "scale_out",
        "scale_in",
        "replicas_peak",
        "last",
    )

    def __init__(self, spec: ServiceSpec, profile, policy) -> None:
        self.spec = spec
        self.profile = profile
        self.trace = ServiceLoadTrace()
        self.policy = policy
        #: Submission records of every replica ever requested, oldest first.
        self.records: List = []
        self.pending = 0
        self.scale_out = 0
        self.scale_in = 0
        self.replicas_peak = 0
        #: Stats of the latest traffic tick (the autoscaler's observation).
        self.last: Dict[str, float] = {
            "arrival_rate": 0.0,
            "utilization": 0.0,
            "p99": 0.0,
            "dropped_ratio": 0.0,
        }

    def live_replicas(self) -> int:
        """Replicas currently placed and occupying resources."""
        return sum(1 for record in self.records if record.placed and record.vm.is_active)


class TrafficPlane:
    """Request traffic, SLA metrics and autoscaling over one deployment."""

    def __init__(self, system, spec: TrafficSpec) -> None:
        self.system = system
        self.spec = spec
        self.sim = system.sim
        self.client = system.client
        self.event_log = system.event_log
        #: node_id -> LC name, for addressing scale-in terminations at the
        #: controller currently hosting a replica (migrations move VMs across
        #: nodes; LCs stay pinned to theirs).
        self._lc_by_node = {
            lc.node.node_id: name for name, lc in system.local_controllers.items()
        }
        self.bucket_bounds = np.asarray(DEFAULT_LATENCY_BUCKETS, dtype=float)
        self.services: List[_Service] = []
        obs = system.obs
        for service_spec in spec.services:
            profile = compile_profile(
                service_spec.profile,
                system.random.stream(f"traffic:{service_spec.name}"),
            )
            policy = None
            if service_spec.autoscaling is not None:
                entry = dict(service_spec.autoscaling)
                policy = make_policy(
                    "autoscaling",
                    str(entry.pop("name")),
                    **entry,
                )
                if obs is not None and obs.registry is not None:
                    instrument_policy(
                        policy, obs.decision_observer("autoscaling", service_spec.name)
                    )
            self.services.append(_Service(service_spec, profile, policy))
        count = len(self.services)
        self._mu = np.array([s.spec.service_rate for s in self.services], dtype=float)
        #: Accumulated totals (requests) and latency mass per service.
        self._offered = np.zeros(count)
        self._served = np.zeros(count)
        self._dropped = np.zeros(count)
        self._latency_weighted = np.zeros(count)  # sum of mean_latency * served
        self._bucket_mass = np.zeros((count, self.bucket_bounds.shape[0] + 1))
        self.ticks = 0
        self._base = 0.0
        self._started = False
        if obs is not None and obs.registry is not None:
            obs.watch_traffic(self)

    # ------------------------------------------------------------------ wiring
    @classmethod
    def attach(cls, system, spec: TrafficSpec) -> "TrafficPlane":
        """Build a plane over ``system`` and register it as a simulator service."""
        plane = cls(system, spec)
        system.sim.register_service(TRAFFIC_SERVICE, plane)
        return plane

    def start(self) -> None:
        """Submit initial replicas and begin ticking (call after system start)."""
        if self._started:
            return
        self._started = True
        self._base = self.sim.now
        for index, service in enumerate(self.services):
            self._scale_out(index, service.spec.initial_replicas, initial=True)
        ticker = CoalescedTicker.shared(self.sim)
        ticker.register(self.spec.interval, self._tick, name="traffic-tick")
        if any(service.policy is not None for service in self.services):
            ticker.register(
                self.spec.autoscale_interval, self._autoscale, name="traffic-autoscale"
            )

    # ------------------------------------------------------------ traffic tick
    def _tick(self) -> None:
        """Evaluate every service's queue for the last interval, analytically."""
        now = self.sim.now
        elapsed = now - self._base
        lam = np.array(
            [service.profile.rate(elapsed) for service in self.services], dtype=float
        )
        live = np.array([service.live_replicas() for service in self.services], dtype=int)
        metrics = evaluate_tick(lam, self._mu, live, self.spec.interval, self.bucket_bounds)
        self._offered += metrics["offered"]
        self._served += metrics["served"]
        self._dropped += metrics["dropped"]
        self._latency_weighted += metrics["mean_latency"] * metrics["served"]
        self._bucket_mass += metrics["bucket_mass"]
        self.ticks += 1
        for index, service in enumerate(self.services):
            # The demand feedback: replicas run as hot as their share of the
            # offered load, so monitoring sees users, not scripts.
            service.trace.level = float(metrics["utilization"][index])
            service.replicas_peak = max(service.replicas_peak, int(live[index]))
            offered = float(metrics["offered"][index])
            service.last = {
                "arrival_rate": float(lam[index]),
                "utilization": float(metrics["utilization"][index]),
                "p99": float(metrics["p99"][index]),
                "dropped_ratio": (
                    float(metrics["dropped"][index]) / offered if offered > 0 else 0.0
                ),
            }

    # -------------------------------------------------------------- autoscaling
    def _autoscale(self) -> None:
        """Run every service's autoscaling policy and realize its decision."""
        for index, service in enumerate(self.services):
            if service.policy is None:
                continue
            live = service.live_replicas()
            snapshot = ServiceSnapshot(
                service=service.spec.name,
                arrival_rate=service.last["arrival_rate"],
                replicas=live,
                pending=service.pending,
                service_rate=service.spec.service_rate,
                utilization=service.last["utilization"],
                p99_latency=service.last["p99"],
                dropped_ratio=service.last["dropped_ratio"],
            )
            desired = int(service.policy.decide(snapshot))
            provisioned = live + service.pending
            if desired > provisioned:
                self._scale_out(index, desired - provisioned)
            elif desired < provisioned:
                self._scale_in(index, provisioned - desired)

    def _scale_out(self, index: int, count: int, initial: bool = False) -> None:
        service = self.services[index]
        if count <= 0:
            return
        dims = tuple(sorted(service.spec.replica))
        values = [float(service.spec.replica[dim]) for dim in dims]
        for _ in range(count):
            vm = VirtualMachine(
                ResourceVector(list(values), dims),
                name=f"{service.spec.name}-replica-{len(service.records)}",
                runtime=None,
                trace=service.trace,
            )
            service.pending += 1
            record = self.client.submit(vm, on_complete=self._make_on_placed(service))
            service.records.append(record)
        if not initial:
            service.scale_out += count
            self.event_log.record(
                self.sim.now, "scale_out", service=service.spec.name, count=count
            )

    def _make_on_placed(self, service: _Service):
        def on_placed(record) -> None:
            service.pending -= 1

        return on_placed

    def _scale_in(self, index: int, count: int) -> None:
        """Terminate up to ``count`` live replicas, newest first.

        In-flight submissions cannot be recalled; only live replicas shrink
        the group, through the same LC ``terminate_vm`` command administrators
        use.  A failed termination (e.g. the hosting LC just died) leaves the
        replica to the next autoscale round.
        """
        service = self.services[index]
        terminated = 0
        for record in reversed(service.records):
            if terminated >= count:
                break
            if not (record.placed and record.vm.is_active):
                continue
            lc_name = self._lc_by_node.get(record.vm.host_id)
            if lc_name is None:
                continue
            self.client.rpc.call(
                lc_name,
                "terminate_vm",
                kwargs={"vm_id": record.vm.vm_id},
            )
            terminated += 1
        if terminated:
            service.scale_in += terminated
            self.event_log.record(
                self.sim.now, "scale_in", service=service.spec.name, count=terminated
            )

    # ----------------------------------------------------------------- exports
    def totals(self) -> Dict[str, float]:
        """Fleet-level running totals (mirrored into the metrics registry)."""
        return {
            "offered": float(self._offered.sum()),
            "served": float(self._served.sum()),
            "dropped": float(self._dropped.sum()),
        }

    def fleet_quantile(self, q: float) -> float:
        """Latency quantile of all served requests so far, fleet-wide."""
        return quantile_from_histogram(self.bucket_bounds, self._bucket_mass.sum(axis=0), q)

    def summary(self) -> Dict[str, object]:
        """The deterministic ``traffic`` section of a scenario result."""
        offered = float(self._offered.sum())
        served = float(self._served.sum())
        dropped = float(self._dropped.sum())
        latency_sum = float(self._latency_weighted.sum())
        services: Dict[str, object] = {}
        for index, service in enumerate(self.services):
            service_offered = float(self._offered[index])
            service_served = float(self._served[index])
            mass = self._bucket_mass[index]
            services[service.spec.name] = {
                "offered_requests": round(service_offered, 3),
                "served_requests": round(service_served, 3),
                "dropped_requests": round(float(self._dropped[index]), 3),
                "dropped_ratio": round(
                    float(self._dropped[index]) / service_offered if service_offered > 0 else 0.0,
                    6,
                ),
                "mean_latency_seconds": round(
                    float(self._latency_weighted[index]) / service_served
                    if service_served > 0
                    else 0.0,
                    6,
                ),
                "p50_latency_seconds": round(
                    quantile_from_histogram(self.bucket_bounds, mass, 0.50), 6
                ),
                "p99_latency_seconds": round(
                    quantile_from_histogram(self.bucket_bounds, mass, 0.99), 6
                ),
                "replicas_initial": service.spec.initial_replicas,
                "replicas_final": service.live_replicas(),
                "replicas_peak": service.replicas_peak,
                "scale_out_total": service.scale_out,
                "scale_in_total": service.scale_in,
                "autoscaling": (
                    str(service.spec.autoscaling["name"])
                    if service.spec.autoscaling is not None
                    else None
                ),
            }
        return {
            "interval": self.spec.interval,
            "ticks": self.ticks,
            "requests": {
                "offered": round(offered, 3),
                "served": round(served, 3),
                "dropped": round(dropped, 3),
                "dropped_ratio": round(dropped / offered if offered > 0 else 0.0, 6),
            },
            "latency_seconds": {
                "mean": round(latency_sum / served if served > 0 else 0.0, 6),
                "p50": round(self.fleet_quantile(0.50), 6),
                "p99": round(self.fleet_quantile(0.99), 6),
            },
            "services": services,
        }
