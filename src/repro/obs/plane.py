"""The fleet observability plane: config gating, wiring and exports.

:class:`ObservabilityPlane` bundles the three pillars -- metrics registry,
tracer and event-loop profiler -- behind one simulator service, so every
component (and the network transport) can discover whichever pillars are
enabled with a single service lookup.  :meth:`ObservabilityPlane.build`
returns ``None`` when every pillar is off: the disabled configuration costs
nothing by construction because no hook holds a plane to call into.

The result-facing split between deterministic and wall-clock data lives here
too: :meth:`result_section` emits both, :data:`OBS_WALLCLOCK_KEYS` names the
wall-clock-derived keys, and :func:`deterministic_observability` strips them
for golden fixtures and sweep reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.profiling import EventLoopProfiler
from repro.obs.tracing import Tracer
from repro.plain import PlainData

#: Simulator service name the plane registers under.
OBSERVABILITY_SERVICE = "observability"

#: Keys of a result ``observability`` section whose values derive from wall
#: clock.  Everything else in the section is a pure function of the seed.
OBS_WALLCLOCK_KEYS = frozenset({"profiling", "histogram_seconds"})


def deterministic_observability(section: Dict[str, object]) -> Dict[str, object]:
    """The wall-clock-free projection of a result observability section."""
    return {key: value for key, value in section.items() if key not in OBS_WALLCLOCK_KEYS}


@dataclass
class ObservabilityConfig(PlainData):
    """Which observability pillars a deployment enables.

    Metrics default on (counter mirroring is collector-based and free on the
    hot path); tracing and profiling default off (they add per-span /
    per-event work).
    """

    metrics: bool = True
    tracing: bool = False
    profiling: bool = False

    @property
    def enabled(self) -> bool:
        """True when any pillar is on."""
        return self.metrics or self.tracing or self.profiling


class ObservabilityPlane:
    """The enabled pillars of one deployment, registered as a service."""

    SERVICE_NAME = OBSERVABILITY_SERVICE

    def __init__(self, sim, config: Optional[ObservabilityConfig] = None) -> None:
        self.sim = sim
        self.config = config or ObservabilityConfig()
        self.registry: Optional[MetricsRegistry] = (
            MetricsRegistry() if self.config.metrics else None
        )
        self.tracer: Optional[Tracer] = (
            Tracer(clock=lambda: sim.now) if self.config.tracing else None
        )
        self.profiler: Optional[EventLoopProfiler] = (
            EventLoopProfiler(registry=self.registry) if self.config.profiling else None
        )
        self._decision_histogram = None
        self._decision_handles: Dict[tuple, object] = {}

    # --------------------------------------------------------------- wiring
    @classmethod
    def build(cls, sim, config: Optional[ObservabilityConfig]) -> Optional["ObservabilityPlane"]:
        """Create and register a plane, or return None when all pillars are off."""
        if config is None or not config.enabled:
            return None
        plane = cls(sim, config)
        sim.register_service(cls.SERVICE_NAME, plane)
        return plane

    @classmethod
    def of(cls, sim) -> Optional["ObservabilityPlane"]:
        """The plane registered on ``sim``, or None."""
        if sim.has_service(cls.SERVICE_NAME):
            return sim.get_service(cls.SERVICE_NAME)
        return None

    def watch_simulator(self) -> None:
        """Mirror the kernel's processed-event count at collection time."""
        if self.registry is None:
            return
        handle = self.registry.counter(
            "simulator_events_total", help="Events processed by the simulation kernel."
        ).labels()
        sim = self.sim
        self.registry.add_collector(lambda: handle.set(sim.processed_events))

    def watch_network(self, network) -> None:
        """Mirror the transport counters lazily (no per-message metric cost)."""
        if self.registry is None:
            return
        registry = self.registry
        sent = registry.counter(
            "network_messages_sent_total", help="Messages handed to the transport."
        ).labels()
        delivered = registry.counter(
            "network_messages_delivered_total", help="Messages delivered to an endpoint."
        ).labels()
        dropped = registry.counter(
            "network_messages_dropped_total",
            help="Messages dropped by loss, disconnects or missing endpoints.",
        ).labels()
        bytes_sent = registry.counter(
            "network_bytes_sent_total", help="Payload bytes handed to the transport."
        ).labels()
        endpoints = registry.gauge(
            "network_endpoints", help="Registered network endpoints."
        ).labels()

        def mirror() -> None:
            stats = network.stats()
            sent.set(stats["messages_sent"])
            delivered.set(stats["messages_delivered"])
            dropped.set(stats["messages_dropped"])
            bytes_sent.set(stats["bytes_sent"])
            endpoints.set(stats["endpoints"])

        registry.add_collector(mirror)

    def watch_traffic(self, plane) -> None:
        """Mirror the traffic plane's request totals and SLA quantiles lazily.

        The plane accumulates analytically (fractional request mass), so the
        export uses counters/gauges rather than per-request histogram
        observations -- there are no per-request events to observe.
        """
        if self.registry is None:
            return
        registry = self.registry
        offered = registry.counter(
            "traffic_requests_offered_total", help="Requests offered to all services."
        ).labels()
        served = registry.counter(
            "traffic_requests_served_total", help="Requests served within capacity."
        ).labels()
        dropped = registry.counter(
            "traffic_requests_dropped_total",
            help="Requests dropped by admission control (offered beyond capacity).",
        ).labels()
        p50 = registry.gauge(
            "traffic_request_latency_p50_seconds",
            help="Fleet p50 request latency over all served requests.",
        ).labels()
        p99 = registry.gauge(
            "traffic_request_latency_p99_seconds",
            help="Fleet p99 request latency over all served requests.",
        ).labels()
        replica_gauge = registry.gauge(
            "traffic_service_replicas", help="Live replicas per service."
        )

        def mirror() -> None:
            totals = plane.totals()
            offered.set(totals["offered"])
            served.set(totals["served"])
            dropped.set(totals["dropped"])
            p50.set(plane.fleet_quantile(0.50))
            p99.set(plane.fleet_quantile(0.99))
            for service in plane.services:
                replica_gauge.labels(service=service.spec.name).set(
                    service.live_replicas()
                )

        registry.add_collector(mirror)

    # ------------------------------------------------------ decision timing
    def observe_decision(self, kind: str, component: str, method: str, seconds: float) -> None:
        """Record one policy decision's wall-clock latency."""
        if self.registry is None:
            return
        if self._decision_histogram is None:
            self._decision_histogram = self.registry.histogram(
                "policy_decision_seconds",
                help="Wall-clock latency of policy decision calls.",
            )
        key = (kind, component)
        handle = self._decision_handles.get(key)
        if handle is None:
            handle = self._decision_handles[key] = self._decision_histogram.labels(
                kind=kind, component=component
            )
        handle.observe(seconds)

    def decision_observer(self, kind: str, component: str):
        """An ``observe(method, seconds)`` callback bound to one policy slot."""

        def observe(method: str, seconds: float) -> None:
            self.observe_decision(kind, component, method, seconds)

        return observe

    # -------------------------------------------------------------- exports
    def metrics_text(self) -> str:
        """Prometheus text exposition ('' when metrics are disabled)."""
        return self.registry.to_text() if self.registry is not None else ""

    def chrome_trace(self) -> dict:
        """Chrome trace-event JSON (empty trace when tracing is disabled)."""
        if self.tracer is None:
            return {"traceEvents": [], "displayTimeUnit": "ms"}
        return self.tracer.chrome_trace()

    def result_section(self) -> dict:
        """The ``observability`` section of a ScenarioResult.

        Counters, histogram observation counts and the trace summary are
        deterministic (they count simulated behaviour); the keys listed in
        :data:`OBS_WALLCLOCK_KEYS` carry wall-clock values and are stripped by
        :func:`deterministic_observability` wherever byte-identity matters.
        """
        section: Dict[str, object] = {"enabled": self.config.to_dict()}
        if self.registry is not None:
            dump = self.registry.to_dict()
            section["counters"] = dump["counters"]
            section["gauges"] = dump["gauges"]
            section["histogram_counts"] = {
                name: {labels: series["count"] for labels, series in family.items()}
                for name, family in dump["histograms"].items()
            }
            section["histogram_seconds"] = {
                name: {labels: round(series["sum"], 6) for labels, series in family.items()}
                for name, family in dump["histograms"].items()
            }
        if self.tracer is not None:
            section["tracing"] = self.tracer.summary()
        if self.profiler is not None:
            section["profiling"] = self.profiler.summary(top=20)
        return section
