"""Tests for the discrete-event simulation kernel (engine, processes, timers, randomness)."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.network import Message, MessageType, Network, NetworkConfig
from repro.scenarios import get_scenario, run_scenario
from repro.simulation.engine import Event, Simulator, SimulationError
from repro.simulation.randomness import RandomRouter
from repro.simulation.timers import PeriodicTimer
from tests.scalar_timeout import Timeout


class TestSimulatorScheduling:
    def test_schedule_runs_callback_at_correct_time(self, sim):
        seen = []
        sim.schedule(5.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [5.0]

    def test_events_run_in_time_order(self, sim):
        order = []
        sim.schedule(3.0, order.append, "c")
        sim.schedule(1.0, order.append, "a")
        sim.schedule(2.0, order.append, "b")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_same_time_events_run_in_fifo_order(self, sim):
        order = []
        for label in "abcde":
            sim.schedule(1.0, order.append, label)
        sim.run()
        assert order == list("abcde")

    def test_priority_overrides_fifo_at_same_time(self, sim):
        order = []
        sim.schedule(1.0, order.append, "normal")
        sim.schedule(1.0, order.append, "high", priority=Simulator.PRIORITY_HIGH)
        sim.run()
        assert order == ["high", "normal"]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_in_the_past_rejected(self, sim):
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    def test_run_until_advances_clock_to_until(self, sim):
        sim.schedule(1.0, lambda: None)
        end = sim.run(until=10.0)
        assert end == 10.0
        assert sim.now == 10.0

    def test_run_until_does_not_execute_later_events(self, sim):
        seen = []
        sim.schedule(5.0, seen.append, "early")
        sim.schedule(15.0, seen.append, "late")
        sim.run(until=10.0)
        assert seen == ["early"]
        sim.run()
        assert seen == ["early", "late"]

    def test_cancelled_event_does_not_run(self, sim):
        seen = []
        event = sim.schedule(1.0, seen.append, "x")
        event.cancel()
        sim.run()
        assert seen == []
        assert not event.pending

    def test_step_executes_single_event(self, sim):
        seen = []
        sim.schedule(1.0, seen.append, 1)
        sim.schedule(2.0, seen.append, 2)
        sim.step()
        assert seen == [1]
        assert sim.now == 1.0

    def test_peek_returns_next_event_time(self, sim):
        assert sim.peek() == math.inf
        sim.schedule(4.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.peek() == 2.0

    def test_max_events_limits_processing(self, sim):
        seen = []
        for i in range(10):
            sim.schedule(float(i), seen.append, i)
        sim.run(max_events=3)
        assert len(seen) == 3

    def test_processed_events_counter(self, sim):
        for i in range(5):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.processed_events == 5

    def test_len_counts_pending_events(self, sim):
        events = [sim.schedule(1.0, lambda: None) for _ in range(4)]
        events[0].cancel()
        assert len(sim) == 3

    def test_nan_time_rejected_at_every_entry_point(self, sim):
        """``nan < now`` is False, so a ``<`` guard lets NaN in; it would fire
        first and hand its callback ``sim.now = nan``."""
        nan = float("nan")
        with pytest.raises(SimulationError):
            sim.schedule(nan, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_at(nan, lambda: None)
        with pytest.raises(SimulationError):
            sim.create_at(nan, lambda: None)
        with pytest.raises(SimulationError):
            sim.post(nan, lambda _: None, None)
        event = sim.create_at(1.0, lambda: None)
        event.time = nan
        with pytest.raises(SimulationError):
            sim.enqueue(event)
        assert len(sim) == 0

    def test_posted_call_is_an_event_to_step_and_diagnostics(self, sim):
        """A handle-less entry looks like any other through the public surface."""
        seen = []
        sim.post(2.0, seen.append, "posted", Simulator.PRIORITY_HIGH)
        sim.schedule(2.0, seen.append, "scheduled")
        assert len(sim) == 2
        assert [event.priority for event in sim.pending_events()] == [Simulator.PRIORITY_HIGH, 0]
        stepped = sim.step()
        assert seen == ["posted"] and stepped.fired and stepped.time == sim.now == 2.0
        assert sim.processed_events == 1 and len(sim) == 1


_BASE, _JITTER = 0.001, 0.0005
_PRIORITIES = (Simulator.PRIORITY_HIGH, Simulator.PRIORITY_NORMAL, Simulator.PRIORITY_LOW)


class _OracleEntry:
    def __init__(self, time, priority, seq, action):
        self.key = (time, priority, seq)
        self.action = action
        self.cancelled = self.fired = False

    def cancel(self):
        if not self.fired:
            self.cancelled = True


class _SortedListKernel:
    """The oracle: an event loop that is a list re-sorted on ``(time, priority, seq)``."""

    def __init__(self, twin):
        self.now = 0.0
        self.twin = twin
        self.seq = itertools.count()
        self.queue = []
        self.handles = []
        self.processed = 0

    def add(self, kind, delay, priority, action):
        entry = _OracleEntry(self.now + delay, priority, next(self.seq), action)
        if kind != "post":
            self.handles.append(entry)
        if kind != "create":
            self.queue.append(entry)
        return entry

    def enqueue(self, entry):
        self.queue.append(entry)

    def send(self, action):
        latency = _BASE + float(self.twin.uniform(0.0, _JITTER))
        self.add("post", latency, Simulator.PRIORITY_HIGH, action)

    def run(self):
        while self.queue:
            self.queue.sort(key=lambda entry: entry.key)
            entry = self.queue.pop(0)
            if entry.cancelled:
                continue
            self.now = entry.key[0]
            entry.fired = True
            entry.action()
            self.processed += 1


class _RealKernel:
    """The same four verbs on a :class:`Simulator` and a jittery :class:`Network`."""

    def __init__(self, rng):
        self.sim = Simulator()
        self.net = Network(self.sim, NetworkConfig(_BASE, _JITTER), rng=rng)
        self.net.register("sink", lambda message: message.payload())
        self.handles = []

    def add(self, kind, delay, priority, action):
        sim = self.sim
        if kind == "post":
            return sim.post(delay, lambda _: action(), None, priority)
        if kind == "schedule":
            event = sim.schedule(delay, action, priority=priority)
        elif kind == "schedule_at":
            event = sim.schedule_at(sim.now + delay, action, priority=priority)
        else:
            event = sim.create_at(sim.now + delay, action, priority=priority)
        self.handles.append(event)
        return event

    def enqueue(self, event):
        self.sim.enqueue(event)

    def send(self, action):
        self.net.send(Message(MessageType.VM_SUBMIT, "source", "sink", payload=action))

    def run(self):
        self.sim.run()


def _play(kernel, program, fired, labels):
    """Apply one op list at the kernel's current instant; ``create`` ops enqueue last."""
    created = []
    for op in program:
        if op[0] == "cancel":
            if kernel.handles:
                kernel.handles[op[1] % len(kernel.handles)].cancel()
            continue
        label = next(labels)
        if op[0] == "send":
            kernel.send(lambda label=label: fired.append(label))
            continue
        kind, delay, priority, children = op

        def action(label=label, children=children):
            fired.append(label)
            _play(kernel, children, fired, labels)

        handle = kernel.add(kind, delay, priority, action)
        if kind == "create":
            created.append(handle)
    for handle in created:
        kernel.enqueue(handle)


def _programs():
    """Op lists whose timed ops carry op lists to play when they fire.

    Delays sit on a coarse grid and priorities on the kernel's three levels, so
    same-instant ties -- between handles, posted calls and zero-delay children
    of the event that is firing -- are the common case, not the rare one.
    """

    def ops(children):
        timed = st.tuples(
            st.sampled_from(["schedule", "schedule_at", "create", "post"]),
            st.sampled_from([0.0, 0.5, 1.0, 1.5]),
            st.sampled_from(_PRIORITIES),
            children,
        )
        cancel = st.tuples(st.just("cancel"), st.integers(0, 40))
        return st.lists(st.one_of(timed, st.just(("send",)), cancel), max_size=6)

    return st.recursive(st.just([]), ops, max_leaves=30)


class TestKernelOrderOracle:
    @given(program=_programs(), seed=st.integers(0, 2**16))
    @settings(max_examples=200, deadline=None)
    def test_every_mix_fires_in_sorted_list_order(self, program, seed):
        real = _RealKernel(np.random.default_rng(seed))
        oracle = _SortedListKernel(np.random.default_rng(seed))
        fired = {real: [], oracle: []}
        for kernel in (real, oracle):
            _play(kernel, program, fired[kernel], itertools.count())
            kernel.run()
        assert fired[real] == fired[oracle]
        assert real.sim.processed_events == oracle.processed == len(fired[oracle])
        assert len(real.sim) == 0

    def test_event_is_a_slotted_handle(self, sim):
        assert not hasattr(sim.schedule(1.0, None), "__dict__")

    def test_heap_never_compares_events(self, monkeypatch):
        def compared(self, other):
            raise AssertionError("the heap compared two Event objects")

        monkeypatch.setattr(Event, "__lt__", compared, raising=False)
        result = run_scenario(get_scenario("steady-churn"), seed=7, duration=120.0)
        assert result.submissions["placed"] > 0


class TestManualEvents:
    def test_trigger_delivers_value_to_listener(self, sim):
        event = sim.event()
        seen = []
        event.add_listener(lambda ev, ok: seen.append((ev.value, ok)))
        sim.trigger(event, value=42)
        assert seen == [(42, True)]

    def test_trigger_twice_raises(self, sim):
        event = sim.event()
        sim.trigger(event, value=1)
        with pytest.raises(SimulationError):
            sim.trigger(event, value=2)

    def test_listener_added_after_fire_is_called_immediately(self, sim):
        event = sim.event()
        sim.trigger(event, "done")
        seen = []
        event.add_listener(lambda ev, ok: seen.append(ok))
        assert seen == [True]

    def test_cancel_notifies_listeners_with_not_ok(self, sim):
        event = sim.schedule(5.0, lambda: None)
        seen = []
        event.add_listener(lambda ev, ok: seen.append(ok))
        event.cancel()
        assert seen == [False]


class TestServices:
    def test_register_and_get_service(self, sim):
        marker = object()
        sim.register_service("thing", marker)
        assert sim.get_service("thing") is marker
        assert sim.has_service("thing")

    def test_duplicate_registration_rejected(self, sim):
        sim.register_service("thing", 1)
        with pytest.raises(SimulationError):
            sim.register_service("thing", 2)

    def test_missing_service_raises_keyerror(self, sim):
        with pytest.raises(KeyError):
            sim.get_service("nope")


class TestPeriodicTimer:
    def test_timer_fires_repeatedly(self, sim):
        hits = []
        PeriodicTimer(sim, 2.0, lambda: hits.append(sim.now))
        sim.run(until=10.0)
        assert hits == [2.0, 4.0, 6.0, 8.0, 10.0]

    def test_timer_stop_prevents_future_fires(self, sim):
        hits = []
        timer = PeriodicTimer(sim, 1.0, lambda: hits.append(sim.now))
        sim.schedule(3.5, timer.stop)
        sim.run(until=10.0)
        assert hits == [1.0, 2.0, 3.0]
        assert not timer.running

    def test_start_immediately_fires_at_time_zero(self, sim):
        hits = []
        PeriodicTimer(sim, 5.0, lambda: hits.append(sim.now), start_immediately=True)
        sim.run(until=6.0)
        assert hits[0] == 0.0

    def test_invalid_interval_rejected(self, sim):
        with pytest.raises(SimulationError):
            PeriodicTimer(sim, 0.0, lambda: None)

    def test_fired_count_tracks_invocations(self, sim):
        timer = PeriodicTimer(sim, 1.0, lambda: None)
        sim.run(until=5.0)
        assert timer.fired_count == 5


class TestTimeout:
    """The per-entry deadline oracle (``tests/scalar_timeout.py``) keeps its own contract."""

    def test_timeout_fires_after_duration(self, sim):
        fired = []
        Timeout(sim, 5.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [5.0]

    def test_restart_pushes_deadline_back(self, sim):
        fired = []
        timeout = Timeout(sim, 5.0, lambda: fired.append(sim.now))
        sim.schedule(3.0, timeout.restart)
        sim.run()
        assert fired == [8.0]

    def test_cancel_prevents_firing(self, sim):
        fired = []
        timeout = Timeout(sim, 5.0, lambda: fired.append(True))
        sim.schedule(1.0, timeout.cancel)
        sim.run()
        assert fired == []
        assert not timeout.armed

    def test_restart_with_new_duration(self, sim):
        fired = []
        timeout = Timeout(sim, 5.0, lambda: fired.append(sim.now), auto_start=False)
        timeout.restart(duration=2.0)
        sim.run()
        assert fired == [2.0]

    def test_expired_flag(self, sim):
        timeout = Timeout(sim, 1.0, lambda: None)
        sim.run()
        assert timeout.expired


class TestRandomRouter:
    def test_same_seed_same_stream_reproducible(self):
        a = RandomRouter(1).stream("workload")
        b = RandomRouter(1).stream("workload")
        assert np.allclose(a.random(10), b.random(10))

    def test_different_names_give_independent_streams(self):
        router = RandomRouter(1)
        x = router.stream("x").random(5)
        y = router.stream("y").random(5)
        assert not np.allclose(x, y)

    def test_stream_is_cached(self):
        router = RandomRouter(1)
        assert router.stream("a") is router.stream("a")

    def test_creation_order_does_not_matter(self):
        first = RandomRouter(3)
        first.stream("alpha")
        alpha_then_beta = first.stream("beta").random(4)
        second = RandomRouter(3)
        beta_only = second.stream("beta").random(4)
        assert np.allclose(alpha_then_beta, beta_only)

    def test_contains(self):
        router = RandomRouter(0)
        assert "x" not in router
        router.stream("x")
        assert "x" in router
