"""Unit tests for the observability plane (metrics, tracing, profiling)."""

from __future__ import annotations

import json
from bisect import bisect_left

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.recorder import EventLog
from repro.obs import (
    DEFAULT_SECONDS_BUCKETS,
    EventLoopProfiler,
    MetricsRegistry,
    ObservabilityConfig,
    ObservabilityPlane,
    Tracer,
    deterministic_observability,
    handler_key,
)
from repro.obs.metrics import _INITIAL_SLOTS
from repro.policies.registry import instrument_policy
from repro.simulation.engine import Simulator


class TestCounters:
    def test_increment_and_value(self):
        registry = MetricsRegistry()
        handle = registry.counter("requests_total").labels(kind="submit")
        handle.inc()
        handle.inc(3)
        assert handle.value == 4.0

    def test_label_sets_get_independent_slots(self):
        registry = MetricsRegistry()
        family = registry.counter("events_total")
        family.labels(category="a").inc()
        family.labels(category="b").inc(5)
        assert family.labels(category="a").value == 1.0
        assert family.labels(category="b").value == 5.0

    def test_labels_returns_cached_handle(self):
        family = MetricsRegistry().counter("hits_total")
        assert family.labels(x="1") is family.labels(x="1")

    def test_slot_growth_beyond_initial_capacity(self):
        family = MetricsRegistry().counter("wide_total")
        handles = [family.labels(index=i) for i in range(200)]
        for i, handle in enumerate(handles):
            handle.inc(i)
        assert [h.value for h in handles] == [float(i) for i in range(200)]

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x_total")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("x_total")
        with pytest.raises(ValueError, match="already registered"):
            registry.histogram("x_total")


class TestGauges:
    def test_set_and_overwrite(self):
        handle = MetricsRegistry().gauge("endpoints").labels()
        handle.set(12)
        handle.set(7)
        assert handle.value == 7.0


class TestHistograms:
    def test_observe_counts_and_sum(self):
        handle = MetricsRegistry().histogram("lat_seconds", buckets=(0.1, 1.0)).labels()
        for value in (0.05, 0.5, 5.0):
            handle.observe(value)
        assert handle.count == 3
        assert handle.sum == pytest.approx(5.55)
        assert handle.bucket_counts() == [1, 1, 1]  # <=0.1, <=1.0, +Inf

    def test_bucket_bounds_validated(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="sorted"):
            registry.histogram("bad_seconds", buckets=(1.0, 0.1))
        with pytest.raises(ValueError, match="sorted"):
            registry.histogram("empty_seconds", buckets=())

    def test_bucket_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.histogram("h_seconds", buckets=(0.1, 1.0))
        with pytest.raises(ValueError, match="other buckets"):
            registry.histogram("h_seconds", buckets=(0.5, 1.0))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=10.0, allow_nan=False), max_size=50))
    def test_bucket_math_matches_scalar_reference(self, values):
        """Array-backed bucketing agrees with a scalar first-bound->= scan."""
        handle = MetricsRegistry().histogram("ref_seconds").labels()
        bounds = list(DEFAULT_SECONDS_BUCKETS)
        reference = [0] * (len(bounds) + 1)
        for value in values:
            handle.observe(value)
            index = next((i for i, bound in enumerate(bounds) if value <= bound), len(bounds))
            assert index == bisect_left(bounds, value) or value in bounds
            reference[bisect_left(bounds, value)] += 1
        assert handle.bucket_counts() == reference
        assert handle.count == len(values)
        assert handle.sum == pytest.approx(sum(values))


class TestExposition:
    def _populated(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("messages_total", help="All messages.").labels(kind="rpc").inc(3)
        registry.gauge("endpoints").labels().set(4)
        registry.histogram("lat_seconds", buckets=(0.1, 1.0)).labels(op="x").observe(0.5)
        return registry

    def test_prometheus_text_format(self):
        text = self._populated().to_text()
        assert "# HELP repro_messages_total All messages." in text
        assert "# TYPE repro_messages_total counter" in text
        assert 'repro_messages_total{kind="rpc"} 3' in text
        assert "repro_endpoints 4" in text
        assert 'repro_lat_seconds_bucket{op="x",le="0.1"} 0' in text
        assert 'repro_lat_seconds_bucket{op="x",le="1"} 1' in text
        assert 'repro_lat_seconds_bucket{op="x",le="+Inf"} 1' in text
        assert 'repro_lat_seconds_sum{op="x"} 0.5' in text
        assert 'repro_lat_seconds_count{op="x"} 1' in text

    def test_dict_dump_is_json_safe_and_sorted(self):
        dump = self._populated().to_dict()
        assert json.loads(json.dumps(dump)) == dump
        assert dump["counters"]["messages_total"] == {'kind="rpc"': 3.0}
        assert dump["histograms"]["lat_seconds"]['op="x"']["count"] == 1

    def test_collectors_run_at_exposition_time(self):
        registry = MetricsRegistry()
        source = {"value": 0}
        handle = registry.counter("mirrored_total").labels()
        registry.add_collector(lambda: handle.set(source["value"]))
        source["value"] = 42
        assert 'repro_mirrored_total 42' in registry.to_text()


class TestGrowthPastTheInitialSlots:
    """Every series is written right after its slot is claimed, so all but the
    last ones were written before one or both doublings of storage."""

    #: Label sets that force two doublings of a family's storage.
    N = 2 * _INITIAL_SLOTS + 1

    @pytest.mark.parametrize(
        "kind,section,name,write,sign",
        [
            ("counter", "counters", "grown_total", "inc", 1),
            ("gauge", "gauges", "grown_level", "set", -1),
        ],
    )
    def test_value_family_keeps_every_series(self, kind, section, name, write, sign):
        registry = MetricsRegistry()
        family = getattr(registry, kind)(name)
        for i in range(self.N):
            getattr(family.labels(i=i), write)(sign * i)
        assert len(family._values) == 4 * _INITIAL_SLOTS

        for i in range(self.N):
            assert family.labels(i=i).value == sign * i
        dump = registry.to_dict()
        assert dump[section][name] == {f'i="{i}"': float(sign * i) for i in range(self.N)}
        lines = set(registry.to_text().splitlines())
        for i in range(self.N):
            assert f'repro_{name}{{i="{i}"}} {sign * i}' in lines

    def test_histogram_keeps_every_series(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("grown_seconds", buckets=(0.1, 1.0))
        for i in range(self.N):
            histogram.labels(i=i).observe(0.05)
            histogram.labels(i=i).observe(float(i))
        assert len(histogram._sums) == 4 * _INITIAL_SLOTS

        def buckets(i):
            return [2, 0, 0] if i == 0 else [1, 1, 0] if i == 1 else [1, 0, 1]

        for i in range(self.N):
            handle = histogram.labels(i=i)
            assert (handle.bucket_counts(), handle.sum, handle.count) == (buckets(i), 0.05 + i, 2)
        dump = registry.to_dict()
        assert {
            labels: (entry["buckets"], entry["sum"], entry["count"])
            for labels, entry in dump["histograms"]["grown_seconds"].items()
        } == {f'i="{i}"': (buckets(i), 0.05 + i, 2) for i in range(self.N)}
        lines = set(registry.to_text().splitlines())
        for i in range(self.N):
            assert f'repro_grown_seconds_bucket{{i="{i}",le="+Inf"}} 2' in lines
            assert f'repro_grown_seconds_count{{i="{i}"}} 2' in lines


class TestTracer:
    def _tracer(self, now=0.0):
        state = {"now": now}
        tracer = Tracer(clock=lambda: state["now"])
        return tracer, state

    def test_root_spans_get_fresh_traces(self):
        tracer, _ = self._tracer()
        first = tracer.begin("a", "c1")
        second = tracer.begin("b", "c2", root=True)
        assert first.trace_id != second.trace_id
        assert first.parent_id is None and second.parent_id is None

    def test_parent_defaults_to_active_context(self):
        tracer, _ = self._tracer()
        parent = tracer.begin("parent", "c1")
        tracer.activate(parent.ctx)
        child = tracer.begin("child", "c2")
        assert child.trace_id == parent.trace_id
        assert child.parent_id == parent.span_id

    def test_span_contextmanager_restores_context(self):
        tracer, _ = self._tracer()
        with tracer.span("outer", "c") as outer:
            assert tracer.current == outer.ctx
            with tracer.span("inner", "c") as inner:
                assert inner.parent_id == outer.span_id
            assert tracer.current == outer.ctx
        assert tracer.current is None

    def test_end_is_idempotent_and_durations_use_sim_time(self):
        tracer, state = self._tracer()
        span = tracer.begin("op", "c")
        state["now"] = 2.5
        tracer.end(span)
        state["now"] = 9.0
        tracer.end(span)
        assert span.duration == 2.5

    def test_end_on_event(self):
        sim = Simulator()
        tracer = Tracer(clock=lambda: sim.now)
        span = tracer.begin("deferred", "c")
        event = sim.event()
        tracer.end_on(span, event)
        sim.schedule(4.0, lambda: sim.trigger(event, "done"))
        sim.run(until=10.0)
        assert span.end == 4.0

    def test_max_spans_drops_but_keeps_ids(self):
        tracer, _ = self._tracer()
        tracer.max_spans = 2
        spans = [tracer.begin(f"s{i}", "c") for i in range(4)]
        assert len(tracer.spans) == 2
        assert tracer.dropped == 2
        assert len({span.span_id for span in spans}) == 4
        assert tracer.summary()["dropped"] == 2

    def test_chrome_trace_structure(self):
        tracer, state = self._tracer()
        with tracer.span("parent", "gm-00"):
            tracer.instant("marker", "lc-00")
        state["now"] = 1.0
        trace = tracer.chrome_trace()
        assert sorted(trace) == ["displayTimeUnit", "traceEvents"]
        events = trace["traceEvents"]
        metadata = [e for e in events if e["ph"] == "M"]
        spans = [e for e in events if e["ph"] == "X"]
        names = {e["args"]["name"] for e in metadata if e["name"] == "thread_name"}
        assert names == {"gm-00", "lc-00"}
        assert len(spans) == 2
        for event in spans:
            assert set(event) >= {"name", "cat", "pid", "tid", "ts", "dur", "args"}
            assert "trace_id" in event["args"] and "span_id" in event["args"]
        child = next(e for e in spans if e["name"] == "marker")
        parent = next(e for e in spans if e["name"] == "parent")
        assert child["args"]["parent_id"] == parent["args"]["span_id"]


class TestProfiler:
    def test_handler_key_shapes(self):
        class Widget:
            def tick(self):
                pass

        def free_function():
            pass

        from functools import partial

        assert handler_key(Widget().tick) == "Widget.tick"
        assert handler_key(free_function).endswith("free_function")
        assert "0x" not in handler_key(partial(free_function))
        assert handler_key(None) == "<none>"

    def test_record_aggregates_and_ranks(self):
        profiler = EventLoopProfiler()

        class A:
            def run(self):
                pass

        handler = A().run
        profiler.record(handler, 0.2)
        profiler.record(handler, 0.1)
        summary = profiler.summary()
        stats = summary["handlers"]["A.run"]
        assert stats["calls"] == 2
        assert stats["seconds"] == pytest.approx(0.3)
        assert stats["max_seconds"] == pytest.approx(0.2)
        assert stats["share"] == pytest.approx(1.0)
        assert summary["components"]["A"]["calls"] == 2

    def test_feeds_histogram_when_registry_given(self):
        registry = MetricsRegistry()
        profiler = EventLoopProfiler(registry=registry)

        class B:
            def go(self):
                pass

        profiler.record(B().go, 0.001)
        dump = registry.to_dict()
        assert dump["histograms"]["handler_wall_seconds"]['handler="B.go"']["count"] == 1

    def test_simulator_step_records_when_profiler_attached(self):
        sim = Simulator()
        profiler = EventLoopProfiler()
        sim.profiler = profiler
        sim.schedule(1.0, lambda: None)
        sim.run(until=2.0)
        assert profiler.total_calls == 1


class TestEventLogCounts:
    def test_count_is_exact_and_categories_sorted(self):
        log = EventLog()
        for _ in range(3):
            log.record(0.0, "b_event")
        log.record(1.0, "a_event", detail=1)
        assert log.count("b_event") == 3
        assert log.count("a_event") == 1
        assert log.count("missing") == 0
        assert log.categories() == ["a_event", "b_event"]
        assert [r.category for r in log.events("b_event")] == ["b_event"] * 3
        assert len(log.events()) == 4

    def test_bind_metrics_backfills_and_tracks(self):
        log = EventLog()
        log.record(0.0, "early")
        registry = MetricsRegistry()
        log.bind_metrics(registry)
        log.record(1.0, "late")
        log.record(2.0, "late")
        counters = registry.to_dict()["counters"]["events_total"]
        assert counters['category="early"'] == 1.0
        assert counters['category="late"'] == 2.0


class TestInstrumentPolicy:
    class FakePolicy:
        def __init__(self):
            self.thresholds = "initial"

        def decide(self, value):
            if value < 0:
                raise ValueError("bad")
            return value * 2

    def test_times_calls_and_preserves_results(self):
        observed = []
        policy = instrument_policy(self.FakePolicy(), lambda m, s: observed.append((m, s)))
        assert policy.decide(21) == 42
        assert observed and observed[0][0] == "decide" and observed[0][1] >= 0.0

    def test_observes_even_when_decision_raises(self):
        observed = []
        policy = instrument_policy(self.FakePolicy(), lambda m, s: observed.append(m))
        with pytest.raises(ValueError):
            policy.decide(-1)
        assert observed == ["decide"]

    def test_instance_attributes_still_mutable(self):
        policy = instrument_policy(self.FakePolicy(), lambda m, s: None)
        policy.thresholds = "updated"
        assert policy.thresholds == "updated"

    def test_other_instances_untouched(self):
        instrumented = instrument_policy(self.FakePolicy(), lambda m, s: None)
        plain = self.FakePolicy()
        assert instrumented.decide.__name__ == "decide"
        assert plain.decide(1) == 2
        assert "decide" not in vars(plain)


class TestPlane:
    def test_build_returns_none_when_all_off(self):
        sim = Simulator()
        config = ObservabilityConfig(metrics=False, tracing=False, profiling=False)
        assert not config.enabled
        assert ObservabilityPlane.build(sim, config) is None
        assert ObservabilityPlane.of(sim) is None

    def test_build_registers_service_and_pillars(self):
        sim = Simulator()
        plane = ObservabilityPlane.build(
            sim, ObservabilityConfig(metrics=True, tracing=True, profiling=True)
        )
        assert ObservabilityPlane.of(sim) is plane
        assert plane.registry is not None
        assert plane.tracer is not None
        assert plane.profiler is not None

    def test_result_section_separates_wallclock_keys(self):
        sim = Simulator()
        plane = ObservabilityPlane.build(
            sim, ObservabilityConfig(metrics=True, tracing=True, profiling=True)
        )
        plane.observe_decision("placement", "gm-00", "decide", 0.001)
        section = plane.result_section()
        assert "histogram_seconds" in section and "profiling" in section
        clean = deterministic_observability(section)
        assert "histogram_seconds" not in clean and "profiling" not in clean
        assert clean["histogram_counts"]["policy_decision_seconds"] == {
            'component="gm-00",kind="placement"': 1
        }

    def test_exports_empty_when_pillars_off(self):
        sim = Simulator()
        plane = ObservabilityPlane.build(
            sim, ObservabilityConfig(metrics=False, tracing=False, profiling=True)
        )
        assert plane.metrics_text() == ""
        assert plane.metrics_dict() == {"counters": {}, "gauges": {}, "histograms": {}}
        assert plane.chrome_trace() == {"traceEvents": [], "displayTimeUnit": "ms"}
