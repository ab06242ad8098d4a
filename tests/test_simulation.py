"""Tests for the discrete-event simulation kernel (engine, processes, timers, randomness)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.simulation.engine import Simulator, SimulationError
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

    def test_jitter_requires_rng(self, sim):
        with pytest.raises(SimulationError):
            PeriodicTimer(sim, 1.0, lambda: None, jitter=0.1)

    def test_jitter_varies_intervals_but_keeps_firing(self, sim):
        rng = np.random.default_rng(0)
        hits = []
        PeriodicTimer(sim, 2.0, lambda: hits.append(sim.now), jitter=0.5, rng=rng)
        sim.run(until=20.0)
        gaps = np.diff(hits)
        assert len(hits) >= 8
        assert np.all(gaps >= 1.5 - 1e-9)
        assert np.all(gaps <= 2.5 + 1e-9)
        assert len(set(np.round(gaps, 6))) > 1

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

    def test_reseed_resets_streams(self):
        router = RandomRouter(1)
        before = router.stream("s").random(3)
        router.reseed(2)
        after = router.stream("s").random(3)
        assert not np.allclose(before, after)

    def test_contains(self):
        router = RandomRouter(0)
        assert "x" not in router
        router.stream("x")
        assert "x" in router
