"""Integration tests: observability never changes simulated behaviour.

The contract under test:

* golden fixtures stay byte-identical with every pillar enabled;
* trace context propagates through the network (including batched
  same-instant deliveries) without leaking between handlers;
* exports are structurally valid (Chrome trace-event JSON, Prometheus text)
  and round-trip through the CLI;
* canonical JSON neutralizes exactly the sections declared in
  :data:`repro.scenarios.runner.NONDETERMINISTIC_SECTIONS`.
"""

from __future__ import annotations

import json

import pytest

from repro.cli.main import main
from repro.network.message import Message, MessageType
from repro.network.transport import Network, NetworkConfig
from repro.obs import ObservabilityConfig, ObservabilityPlane
from repro.scenarios import ScenarioRunner, ScenarioSpec, get_scenario, scenario_names
from repro.scenarios.runner import NONDETERMINISTIC_SECTIONS, ScenarioResult
from repro.simulation.engine import Simulator
from tests.golden.regenerate import GOLDEN_SEED, fixture_path, golden_duration

#: The pillar combinations the identity tests sweep.
PILLARS = {
    "none": {"metrics": False, "tracing": False, "profiling": False},
    "metrics": {"metrics": True, "tracing": False, "profiling": False},
    "tracing": {"metrics": False, "tracing": True, "profiling": False},
    "profiling": {"metrics": False, "tracing": False, "profiling": True},
    "all": {"metrics": True, "tracing": True, "profiling": True},
}


def _spec_with_obs(name: str, **pillars: bool) -> ScenarioSpec:
    """The catalog spec ``name`` with an explicit observability selection."""
    data = get_scenario(name).to_dict()
    data["config"] = dict(data["config"])
    data["config"]["observability"] = dict(pillars)
    return ScenarioSpec.from_dict(data)


class TestGoldenIdentityAllPillarsOn:
    """Every committed fixture reproduces byte-identically with all pillars on."""

    @pytest.mark.parametrize("name", scenario_names())
    def test_fixture_identical_with_full_observability(self, name):
        spec = _spec_with_obs(name, **PILLARS["all"])
        result = ScenarioRunner(
            spec, seed=GOLDEN_SEED, duration=golden_duration(get_scenario(name))
        ).run()
        assert result.canonical_json() + "\n" == fixture_path(name).read_text()


class TestPerPillarIdentity:
    """Each pillar alone leaves the canonical result untouched."""

    @pytest.fixture(scope="class")
    def baseline(self):
        spec = _spec_with_obs("steady-churn", **PILLARS["none"])
        return ScenarioRunner(spec, seed=11, duration=240.0).run().canonical_json()

    @pytest.mark.parametrize("pillar", ["metrics", "tracing", "profiling"])
    def test_single_pillar_is_behaviour_neutral(self, baseline, pillar):
        spec = _spec_with_obs("steady-churn", **PILLARS[pillar])
        result = ScenarioRunner(spec, seed=11, duration=240.0).run()
        assert result.canonical_json() == baseline

    def test_all_pillars_off_leaves_no_instrumentation(self):
        spec = _spec_with_obs("steady-churn", **PILLARS["none"])
        runner = ScenarioRunner(spec, seed=11, duration=60.0)
        runner.run()
        system = runner.system
        assert system.obs is None
        assert not system.sim.has_service("observability")
        assert system.sim.profiler is None
        assert system.network._tracer is None and system.network.obs is None


class TestTraceContextPropagation:
    def _network(self):
        sim = Simulator()
        plane = ObservabilityPlane.build(
            sim, ObservabilityConfig(metrics=False, tracing=True, profiling=False)
        )
        # Deterministic network (no jitter, no loss) so same-instant sends
        # coalesce into one batched delivery event.
        network = Network(sim, NetworkConfig(base_latency=0.001, jitter=0.0))
        assert network._tracer is plane.tracer
        return sim, plane.tracer, network

    def test_context_stamped_at_send_and_active_during_delivery(self):
        sim, tracer, network = self._network()
        seen = []
        network.register("a", lambda msg: None)
        network.register("b", lambda msg: seen.append(tracer.current))
        with tracer.span("op", "a") as span:
            network.send(Message(msg_type=MessageType.RPC_REQUEST, sender="a", recipient="b"))
        sim.run(until=1.0)
        assert seen == [span.ctx]
        assert tracer.current is None

    def test_explicit_context_not_overwritten(self):
        sim, tracer, network = self._network()
        seen = []
        network.register("a", lambda msg: None)
        network.register("b", lambda msg: seen.append(tracer.current))
        pinned = tracer.begin("pinned", "a").ctx
        with tracer.span("other", "a"):
            network.send(
                Message(
                    msg_type=MessageType.RPC_REQUEST,
                    sender="a",
                    recipient="b",
                    trace_ctx=pinned,
                )
            )
        sim.run(until=1.0)
        assert seen == [pinned]

    def test_batched_same_instant_deliveries_do_not_leak_context(self):
        sim, tracer, network = self._network()
        seen = {}
        network.register("a", lambda msg: None)
        network.register("x", lambda msg: seen.setdefault("x", tracer.current))
        network.register("y", lambda msg: seen.setdefault("y", tracer.current))
        first = tracer.begin("first", "a")
        second = tracer.begin("second", "a", root=True)

        def send_both():
            tracer.activate(first.ctx)
            network.send(Message(msg_type=MessageType.RPC_REQUEST, sender="a", recipient="x"))
            tracer.activate(second.ctx)
            network.send(Message(msg_type=MessageType.RPC_REQUEST, sender="a", recipient="y"))
            tracer.restore(None)

        sim.schedule(0.5, send_both)
        sim.run(until=2.0)
        # Both sends happened at the same instant, so they shared one batched
        # delivery event -- each handler must still see its own sender context.
        assert seen == {"x": first.ctx, "y": second.ctx}
        assert tracer.current is None

    def test_handler_spans_join_the_senders_trace(self):
        sim, tracer, network = self._network()
        children = []
        network.register("a", lambda msg: None)

        def handler(msg):
            children.append(tracer.begin("child", "b"))

        network.register("b", handler)
        with tracer.span("parent", "a") as parent:
            network.send(Message(msg_type=MessageType.RPC_REQUEST, sender="a", recipient="b"))
        sim.run(until=1.0)
        (child,) = children
        assert child.trace_id == parent.trace_id
        assert child.parent_id == parent.span_id


class TestChromeTraceExport:
    @pytest.fixture(scope="class")
    def traced_run(self):
        spec = _spec_with_obs("steady-churn", metrics=True, tracing=True, profiling=False)
        runner = ScenarioRunner(spec, seed=11, duration=240.0)
        runner.run()
        return runner.system

    def test_trace_event_json_structure(self, traced_run):
        trace = traced_run.obs.chrome_trace()
        assert sorted(trace) == ["displayTimeUnit", "traceEvents"]
        assert json.loads(json.dumps(trace)) == trace  # JSON-serializable
        events = trace["traceEvents"]
        tracks = {
            event["tid"]: event["args"]["name"]
            for event in events
            if event["ph"] == "M" and event["name"] == "thread_name"
        }
        spans = [event for event in events if event["ph"] == "X"]
        assert spans, "a churn run must produce spans"
        for event in spans:
            assert event["tid"] in tracks
            assert event["ts"] >= 0 and event["dur"] >= 0
            assert {"trace_id", "span_id"} <= set(event["args"])
        # The submission chain appears end to end, each on its own track.
        names = {event["name"] for event in spans}
        assert {"vm_submit", "submit_forward", "vm_dispatch", "vm_placement", "vm_boot"} <= names

    def test_submission_chain_shares_one_trace(self, traced_run):
        spans = traced_run.obs.tracer.spans
        submits = [span for span in spans if span.name == "vm_submit"]
        assert submits
        for submit in submits:
            chain = [span for span in spans if span.trace_id == submit.trace_id]
            chain_names = {span.name for span in chain}
            assert "submit_forward" in chain_names
            assert "vm_dispatch" in chain_names


class TestCliRoundTrip:
    def test_trace_and_metrics_exports(self, tmp_path, capsys):
        trace_path = tmp_path / "run.trace.json"
        prom_path = tmp_path / "metrics.prom"
        assert (
            main(
                [
                    "scenario", "run", "steady-churn",
                    "--seed", "11", "--duration", "240", "--json",
                    "--trace", str(trace_path),
                    "--metrics-out", str(prom_path),
                ]
            )
            == 0
        )
        captured = capsys.readouterr()
        result = json.loads(captured.out)  # stdout stays machine-readable
        assert result["observability"]["tracing"]["spans"] > 0
        trace = json.loads(trace_path.read_text())
        assert trace["traceEvents"]
        assert "# TYPE repro_simulator_events_total counter" in prom_path.read_text()

    def test_metrics_json_extension(self, tmp_path, capsys):
        metrics_path = tmp_path / "metrics.json"
        assert (
            main(
                [
                    "scenario", "run", "steady-churn",
                    "--seed", "11", "--duration", "240",
                    "--metrics-out", str(metrics_path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        dump = json.loads(metrics_path.read_text())
        assert set(dump) == {"counters", "gauges", "histograms"}
        assert dump["counters"]["simulator_events_total"][""] > 0

    def test_obs_summarize(self, tmp_path, capsys):
        trace_path = tmp_path / "t.json"
        assert (
            main(
                [
                    "scenario", "run", "steady-churn",
                    "--seed", "11", "--duration", "240",
                    "--trace", str(trace_path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["obs", "summarize", str(trace_path), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["events"] > 0
        assert "vm_submit" in summary["spans"]

    def test_obs_summarize_rejects_missing_file(self, tmp_path, capsys):
        assert main(["obs", "summarize", str(tmp_path / "nope.json")]) == 1
        assert "cannot read trace" in capsys.readouterr().err


class TestCanonicalSchema:
    def test_every_nondeterministic_section_is_neutralized(self):
        spec = _spec_with_obs("steady-churn", **PILLARS["all"])
        result = ScenarioRunner(spec, seed=11, duration=240.0).run()
        canonical = json.loads(result.canonical_json())
        for section, neutral in NONDETERMINISTIC_SECTIONS.items():
            assert canonical[section] == neutral
        # The live result actually carried wall-clock content there, so the
        # schema is doing real work.
        assert result.perf["wall_clock_seconds"] > 0.0
        assert result.observability != {}

    def test_schema_names_are_result_fields(self):
        fields = {f.name for f in ScenarioResult.__dataclass_fields__.values()}
        assert set(NONDETERMINISTIC_SECTIONS) <= fields
