"""Tests for the coalesced event machinery (repro.simulation.batch).

The contract under test everywhere: coalescing changes the *event count*,
never the simulated times, the firing order, or the observable behaviour.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.simulation.batch import CoalescedTicker, DeadlineTable
from repro.simulation.engine import SimulationError, Simulator
from repro.simulation.timers import PeriodicTimer
from tests.scalar_timeout import Timeout


class TestCoalescedTicker:
    def test_members_fire_at_timer_equivalent_times(self, sim):
        ticker = CoalescedTicker(sim)
        coalesced_times, timer_times = [], []
        ticker.register(2.0, lambda: coalesced_times.append(sim.now))
        PeriodicTimer(sim, 2.0, lambda: timer_times.append(sim.now))
        sim.run(until=10.0)
        assert coalesced_times == timer_times == [2.0, 4.0, 6.0, 8.0, 10.0]

    def test_same_instant_registrations_share_one_group_and_fire_in_order(self, sim):
        ticker = CoalescedTicker(sim)
        fired = []
        for index in range(5):
            ticker.register(1.0, lambda index=index: fired.append(index))
        assert ticker.group_count() == 1
        sim.run(until=1.0)
        assert fired == [0, 1, 2, 3, 4]

    def test_later_registration_gets_its_own_group(self, sim):
        ticker = CoalescedTicker(sim)
        fired = []
        ticker.register(2.0, lambda: fired.append(("grid", sim.now)))
        sim.run(until=1.0)
        ticker.register(2.0, lambda: fired.append(("offset", sim.now)))
        assert ticker.group_count() == 2
        sim.run(until=4.0)
        assert fired == [("grid", 2.0), ("offset", 3.0), ("grid", 4.0)]

    def test_phases_run_breadth_first(self, sim):
        ticker = CoalescedTicker(sim)
        order = []
        ticker.register(1.0, lambda: order.append("a1"), lambda: order.append("a2"))
        ticker.register(1.0, lambda: order.append("b1"), lambda: order.append("b2"))
        sim.run(until=1.0)
        assert order == ["a1", "b1", "a2", "b2"]

    def test_stopped_member_no_longer_fires(self, sim):
        ticker = CoalescedTicker(sim)
        fired = []
        keep = ticker.register(1.0, lambda: fired.append("keep"))
        drop = ticker.register(1.0, lambda: fired.append("drop"))
        sim.run(until=1.0)
        drop.stop()
        assert not drop.running and keep.running
        sim.run(until=2.0)
        assert fired == ["keep", "drop", "keep"]

    def test_empty_group_unwinds(self, sim):
        ticker = CoalescedTicker(sim)
        handle = ticker.register(1.0, lambda: None)
        handle.stop()
        sim.run(until=2.0)
        assert ticker.group_count() == 0
        assert ticker.member_count() == 0

    def test_invalid_registrations_rejected(self, sim):
        ticker = CoalescedTicker(sim)
        with pytest.raises(SimulationError):
            ticker.register(0.0, lambda: None)
        with pytest.raises(SimulationError):
            ticker.register(1.0)

    def test_shared_returns_one_instance_per_sim(self, sim):
        assert CoalescedTicker.shared(sim) is CoalescedTicker.shared(sim)

    def test_fired_count_tracks_ticks(self, sim):
        ticker = CoalescedTicker(sim)
        handle = ticker.register(1.0, lambda: None)
        sim.run(until=3.0)
        assert handle.fired_count == 3


class TestDeadlineTable:
    def test_expires_at_exactly_timeout_equivalent_time(self, sim):
        table = DeadlineTable(sim)
        fired = []
        table.arm(5.0, lambda: fired.append(("table", sim.now)))
        Timeout(sim, 5.0, lambda: fired.append(("timeout", sim.now)))
        sim.run(until=10.0)
        assert fired == [("table", 5.0), ("timeout", 5.0)]

    def test_restart_pushes_the_deadline_back(self, sim):
        table = DeadlineTable(sim)
        fired = []
        handle = table.arm(4.0, lambda: fired.append(sim.now))
        sim.run(until=2.0)
        handle.restart()
        sim.run(until=10.0)
        assert fired == [6.0]

    def test_repeated_restarts_are_lazy_but_exact(self, sim):
        """The classic failure-detector pattern: heartbeats keep the deadline away."""
        table = DeadlineTable(sim)
        fired = []
        handle = table.arm(3.0, lambda: fired.append(sim.now))
        heartbeat = PeriodicTimer(sim, 1.0, handle.restart)
        sim.run(until=20.0)
        assert fired == []
        heartbeat.stop()
        sim.run(until=30.0)
        assert fired == [23.0]  # last restart at t=20 + 3s deadline

    def test_cancel_disarms(self, sim):
        table = DeadlineTable(sim)
        fired = []
        handle = table.arm(2.0, lambda: fired.append(sim.now))
        handle.cancel()
        assert not handle.armed
        sim.run(until=5.0)
        assert fired == []
        handle.restart()
        sim.run(until=10.0)
        assert fired == [7.0]

    def test_equal_deadlines_fire_in_restart_order(self, sim):
        table = DeadlineTable(sim)
        fired = []
        handles = [
            table.arm(3.0, lambda name=name: fired.append(name)) for name in "abc"
        ]
        sim.run(until=1.0)
        # Restart in reverse order: expiry order must follow restarts, not arming.
        for name, handle in zip("cba", reversed(handles)):
            handle.restart()
        sim.run(until=10.0)
        assert fired == ["c", "b", "a"]

    def test_restart_with_new_duration(self, sim):
        table = DeadlineTable(sim)
        fired = []
        handle = table.arm(2.0, lambda: fired.append(sim.now))
        handle.restart(7.0)
        sim.run(until=10.0)
        assert fired == [7.0]
        with pytest.raises(SimulationError):
            handle.restart(0.0)

    def test_expiry_callback_can_rearm_other_entries(self, sim):
        table = DeadlineTable(sim)
        fired = []
        def fired_second():
            fired.append(("second", sim.now))

        table.arm(2.0, lambda: (fired.append(("first", sim.now)), second.restart(5.0)))
        second = table.arm(2.0, fired_second)
        sim.run(until=10.0)
        assert fired == [("first", 2.0), ("second", 7.0)]

    def test_release_recycles_entries_and_inerts_handles(self, sim):
        table = DeadlineTable(sim)
        handle = table.arm(2.0, lambda: None)
        table.release(handle)
        assert not handle.armed
        with pytest.raises(SimulationError):
            handle.restart()
        replacement = table.arm(1.0, lambda: None)
        assert replacement.armed
        sim.run(until=5.0)
        assert replacement.expired

    def test_release_recycles_entries_so_churn_does_not_grow_the_table(self, sim):
        """The fail/rejoin pattern: discard + re-arm must reuse one entry."""
        table = DeadlineTable(sim)
        for _ in range(500):
            handle = table.arm(5.0, lambda: None)
            handle.release()
        assert len(table) == 0
        assert len(table._durations) <= 32  # never grew past the initial block

    def test_grows_past_initial_capacity(self, sim):
        table = DeadlineTable(sim)
        handles = [table.arm(1000.0, lambda: None) for _ in range(100)]
        assert len(table) == 100
        assert all(handle.armed for handle in handles)
        assert table.next_deadline() == 1000.0

    def test_invalid_duration_rejected(self, sim):
        table = DeadlineTable(sim)
        with pytest.raises(SimulationError):
            table.arm(0.0, lambda: None)

    def test_shared_tables_are_named_singletons(self, sim):
        assert DeadlineTable.shared(sim, "a") is DeadlineTable.shared(sim, "a")
        assert DeadlineTable.shared(sim, "a") is not DeadlineTable.shared(sim, "b")

    def test_one_pending_event_for_many_armed_entries(self, sim):
        table = DeadlineTable(sim)
        for _ in range(50):
            table.arm(5.0, lambda: None)
        # 50 failure detectors, one scheduled simulator event.
        assert len(sim) == 1


class TestFutureRearm:
    """``rearm_at``: a restart taken now for a future base (a heartbeat's arrival)."""

    def test_equals_a_restart_at_the_base(self, sim):
        table, mirror = DeadlineTable(sim), DeadlineTable(sim)
        fired = []
        handle = table.arm(5.0, lambda: fired.append(("leased", sim.now)))
        twin = mirror.arm(5.0, lambda: fired.append(("restarted", sim.now)))
        sim.run(until=2.0)
        assert table.rearm_at(handle.index, handle.generation, 2.75)
        sim.schedule_at(2.75, twin.restart)
        sim.run(until=20.0)
        assert sorted(fired) == [("leased", 7.75), ("restarted", 7.75)]

    def test_a_restart_before_the_base_cannot_undercut_it(self, sim):
        table = DeadlineTable(sim)
        fired = []
        handle = table.arm(5.0, lambda: fired.append(sim.now))
        assert table.rearm_at(handle.index, handle.generation, 3.0)
        sim.run(until=1.0)
        handle.restart()  # now + 5 = 6.0 < 3.0 + 5: the later arrival wins
        sim.run(until=3.5)
        handle.restart()  # after the base: a plain restart again
        sim.run(until=20.0)
        assert fired == [8.5]

    def test_reordered_bases_keep_the_latest(self, sim):
        table = DeadlineTable(sim)
        fired = []
        handle = table.arm(5.0, lambda: fired.append(sim.now))
        assert table.rearm_at(handle.index, handle.generation, 4.0)
        assert table.rearm_at(handle.index, handle.generation, 3.0)
        sim.run(until=20.0)
        assert fired == [9.0]

    def test_refuses_when_the_delivery_must_go(self, sim):
        table = DeadlineTable(sim)
        due = table.arm(2.0, lambda: None)
        assert not table.rearm_at(due.index, due.generation, 2.5)  # expires first
        assert table.rearm_at(due.index, due.generation, 2.0)  # delivery precedes expiry
        released = table.arm(5.0, lambda: None)
        generation = released.generation
        released.release()
        assert not table.rearm_at(released.index, generation, 1.0)
        cancelled = table.arm(5.0, lambda: None)
        cancelled.cancel()
        assert not table.rearm_at(cancelled.index, cancelled.generation, 1.0)


class TestVectorizedRestarts:
    """Publish-time batch restarts: the heartbeat fan-out / lease fast paths."""

    def test_restart_handles_matches_per_entry_restarts(self, sim):
        table, mirror = DeadlineTable(sim), DeadlineTable(sim)
        fired, mirrored = [], []
        handles = [table.arm(5.0, lambda i=i: fired.append((i, sim.now))) for i in range(4)]
        twins = [mirror.arm(5.0, lambda i=i: mirrored.append((i, sim.now))) for i in range(4)]
        sim.run(until=2.0)
        # One vectorized call == four per-entry restarts with the clock at 2.0.
        table.restart_handles(handles, sim.now)
        for twin in twins:
            twin.restart()
        sim.run(until=20.0)
        assert fired == mirrored == [(i, 7.0) for i in range(4)]

    def test_restart_handles_sets_base_plus_duration(self, sim):
        table = DeadlineTable(sim)
        fired = []
        handles = [table.arm(5.0, lambda i=i: fired.append(i)) for i in range(3)]
        sim.run(until=1.0)
        table.restart_handles(handles, 2.5)  # deadlines at 7.5, not 6.0
        sim.run(until=6.9)
        assert fired == []
        sim.run(until=7.5)
        assert fired == [0, 1, 2]

    def test_restart_handles_fires_in_sequence_order(self, sim):
        table = DeadlineTable(sim)
        fired = []
        handles = [table.arm(4.0, lambda i=i: fired.append(i)) for i in range(4)]
        table.restart_handles(list(reversed(handles)), 1.0)
        sim.run(until=10.0)
        # Equal deadlines fire in restart order: the reversed sequence.
        assert fired == [3, 2, 1, 0]

    def test_restart_handles_skips_released_handles(self, sim):
        table = DeadlineTable(sim)
        fired = []
        handles = [table.arm(4.0, lambda i=i: fired.append(i)) for i in range(3)]
        handles[1].release()
        recycled = table.arm(100.0, lambda: fired.append("recycled"))
        assert recycled.index == handles[1].index  # entry reused
        table.restart_handles(handles, 1.0)
        sim.run(until=10.0)
        # The stale handle neither fires nor disturbs the recycled entry.
        assert fired == [0, 2]
        assert recycled.armed

    def test_rearm_by_index_arrays_equals_restart_handles(self):
        """The cached-index kernel and its handle wrapper are one re-arm.

        Two tables driven through the same arm / release / recycle history,
        one re-armed with ``restart_handles`` and one with ``rearm`` on index
        arrays cached *before* the releases (so they carry stale
        generations): identical deadlines, restart stamps and expiry order.
        """
        rng = np.random.default_rng(3)
        sims = [Simulator(), Simulator()]
        tables = [DeadlineTable(s) for s in sims]
        fired = [[], []]
        durations = rng.integers(5, 9, 12).tolist()
        handles = [
            [table.arm(float(d), log.append, k) for k, d in enumerate(durations)]
            for table, log in zip(tables, fired)
        ]
        order = rng.permutation(12)
        cached = (
            np.array([handles[1][k].index for k in order], dtype=np.int64),
            np.array([handles[1][k].generation for k in order], dtype=np.int64),
        )
        for table, mine, log in zip(tables, handles, fired):
            mine[3].release()
            mine[7].release()
            table.arm(6.0, log.append, "recycled")  # takes a released entry
            mine[5].cancel()  # disarmed but still valid: re-armed below
        for s in sims:
            s.run(until=2.0)
        tables[0].restart_handles([handles[0][k] for k in order], 2.5)
        tables[1].rearm(*cached, 2.5)
        for attr in ("_deadlines", "_active", "_expired", "_order", "_generations"):
            assert (getattr(tables[0], attr) == getattr(tables[1], attr)).all(), attr
        assert tables[0]._stamp == tables[1]._stamp
        assert tables[0].next_deadline() == tables[1].next_deadline()
        for s in sims:
            s.run(until=30.0)
        assert fired[0] == fired[1]
        assert len(fired[0]) == 11  # ten live handles plus the recycled entry

    def test_rearm_of_nothing_valid_is_a_noop(self, sim):
        table = DeadlineTable(sim)
        handle = table.arm(5.0, lambda: None)
        indices = np.array([handle.index], dtype=np.int64)
        generations = np.array([handle.generation], dtype=np.int64)
        handle.release()
        table.rearm(indices, generations, 1.0)  # must not raise, must not re-arm
        assert not handle.armed
        assert len(table) == 0
