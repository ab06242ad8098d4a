"""Tests for the in-host process fan-out (:mod:`repro.workers`).

Everything that starts a worker process runs under ``no_hang``: the property
this module exists for is that no failure mode -- a raising function, a dead
worker, an interrupt -- can block the caller or leave a child behind.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from repro.core import ACOConsolidation, aco
from repro.core.placement import PlacementError
from repro.workers import RemoteTraceback, Workers

from tests.conftest import no_hang


def in_worker() -> bool:
    return multiprocessing.parent_process() is not None


# ------------------------------------------------------------ map functions
def square_and_pid(payload: int) -> tuple:
    return payload * payload, os.getpid()


def exit_on_three(payload: int) -> int:
    if payload == 3 and in_worker():
        os._exit(9)
    return payload


def raise_key_error(payload: int) -> int:
    if payload == 2:
        raise KeyError(f"missing {payload}")
    return payload


def raise_placement_error(payload: int) -> int:
    if payload == 2:
        raise PlacementError("does not fit")
    return payload


def sleep_then_pid(payload: float) -> int:
    time.sleep(payload)
    return os.getpid()


def interrupt_parent(payload: int) -> None:
    if payload == 0:
        os.kill(os.getppid(), signal.SIGINT)
    time.sleep(60)


def dying_colony(payload: dict) -> dict:
    if payload["colony"] == 1 and in_worker():
        os._exit(9)
    return aco.solve_colony(payload)


class TestMap:
    @pytest.mark.parametrize("jobs", [1, 2, 3, 8])
    def test_results_keep_payload_order(self, jobs):
        payloads = [5, 1, 4, 2, 3]  # jobs=8: more jobs than payloads
        with no_hang(), Workers(jobs) as workers:
            results = workers.map(square_and_pid, payloads)
            assert (workers.bytes_out > 0) == (workers.bytes_in > 0) == (jobs > 1)
        assert [value for value, _ in results] == [25, 1, 16, 4, 9]
        pids = {pid for _, pid in results}
        assert len(pids) <= min(jobs, len(payloads))
        assert (os.getpid() in pids) == (jobs == 1)
        assert multiprocessing.active_children() == []

    def test_single_payload_and_no_payload_stay_in_process(self):
        with Workers(4) as workers:
            assert workers.map(square_and_pid, [3]) == [(9, os.getpid())]
            assert workers.map(square_and_pid, []) == []
            assert workers.bytes_out == 0

    def test_dead_worker_raises_and_leaves_no_child(self):
        # ``multiprocessing.Pool.map`` blocks forever here: it replaces the dead
        # worker and keeps waiting for the task that died with it.
        with no_hang(5.0):
            with pytest.raises(RuntimeError, match=r"worker of payload 3 died \(exit code 9\)"):
                Workers(2).map(exit_on_three, range(8))
        assert multiprocessing.active_children() == []

    def test_dead_worker_surfaces_through_a_real_caller(self, monkeypatch, small_instance):
        monkeypatch.setattr(aco, "solve_colony", dying_colony)
        demands, capacities = small_instance
        solver = ACOConsolidation(rng=np.random.default_rng(3), n_colonies=2, jobs=2)
        with no_hang(5.0), pytest.raises(RuntimeError, match=r"payload 1 died \(exit code 9\)"):
            solver.solve(demands, capacities)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize(
        "fn,error", [(raise_key_error, KeyError), (raise_placement_error, PlacementError)]
    )
    def test_fn_exception_reraises_as_its_own_type(self, jobs, fn, error):
        with no_hang(), pytest.raises(error) as caught:
            Workers(jobs).map(fn, [0, 1, 2, 3])
        assert type(caught.value) is error
        cause = caught.value.__cause__
        assert isinstance(cause, RemoteTraceback)
        assert "Traceback" in str(cause) and fn.__name__ in str(cause)
        assert multiprocessing.active_children() == []

    def test_idle_workers_pull_past_a_slow_payload(self):
        # Dealt out statically (k % workers), payloads 2, 4 and 6 would wait
        # behind the slow payload 0; pulled, the other worker takes them all.
        with no_hang(), Workers(2) as workers:
            pids = workers.map(sleep_then_pid, [0.5, 0, 0, 0, 0, 0, 0])
        assert pids[0] not in pids[1:]
        assert len(set(pids[1:])) == 1

    def test_interrupt_leaves_no_child(self):
        with no_hang(), pytest.raises(KeyboardInterrupt):
            Workers(2).map(interrupt_parent, [0, 1])
        assert multiprocessing.active_children() == []


# ------------------------------------------------------------ resident shards
class Tally:
    """A stateful shard: remembers what it was given, wherever it lives."""

    def __init__(self, start: int) -> None:
        if start < 0:
            raise ValueError("negative start")
        self.total = start
        self.pid = os.getpid()

    def add(self, amount: int) -> int:
        self.total += amount
        return self.total

    def where(self) -> int:
        return self.pid

    def divide(self, by: int) -> float:
        return self.total / by

    def die(self) -> None:
        if in_worker():
            os._exit(7)


class TestShards:
    STARTS = [(0,), (10,), (20,), (30,), (40,)]

    @pytest.mark.parametrize("jobs", [1, 2, 3, 8])
    def test_state_stays_resident_and_replies_keep_shard_order(self, jobs):
        with no_hang(), Workers(jobs, Tally, self.STARTS) as workers:
            assert workers.workers == min(jobs, 5)  # jobs > shards clamps
            assert workers.call("add", [(1,), (2,), (3,), (4,), (5,)]) == [1, 12, 23, 34, 45]
            assert workers.call("add", [(1,)] * 5) == [2, 13, 24, 35, 46]
            pids = workers.call("where")
            # Worker i hosts shards i, i + workers, ...; one worker is this process.
            assert [pids.index(pid) for pid in pids] == [k % workers.workers for k in range(5)]
            assert (pids[0] == os.getpid()) == (workers.workers == 1)
            assert (workers.bytes_out > 0) == (workers.bytes_in > 0) == (workers.workers > 1)
            assert len(workers.compute_s) == 5 and min(workers.compute_s) > 0.0
        assert multiprocessing.active_children() == []

    def test_jobs_below_one_rejected(self):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            Workers(0, Tally, self.STARTS)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_shard_exception_surfaces_with_remote_traceback(self, jobs):
        with no_hang(), Workers(jobs, Tally, self.STARTS) as workers:
            with pytest.raises(RuntimeError, match=r"shard 0 failed:(?s:.*)ZeroDivisionError"):
                workers.call("divide", [(0,), (1,), (1,), (1,), (1,)])
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_factory_exception_surfaces_and_leaves_no_worker(self, jobs):
        with no_hang(), pytest.raises(RuntimeError, match=r"shard 1 failed:(?s:.*)negative start"):
            Workers(jobs, Tally, [(0,), (-1,)])
        assert multiprocessing.active_children() == []

    def test_dead_worker_surfaces_instead_of_hanging(self):
        with no_hang(), Workers(2, Tally, self.STARTS) as workers:
            with pytest.raises(RuntimeError, match=r"worker of shard\(s\) 0, 2, 4 died \(exit code 7\)"):
                workers.call("die")
            # ...and keeps surfacing: the next call finds the pipe closed.
            with pytest.raises(RuntimeError, match="died"):
                workers.call("where")
        assert multiprocessing.active_children() == []

    def test_interrupt_leaves_no_worker(self):
        with no_hang(), pytest.raises(KeyboardInterrupt):
            with Workers(2, Tally, self.STARTS) as workers:
                workers.call("add", [(1,)] * 5)
                raise KeyboardInterrupt
        assert multiprocessing.active_children() == []

    def test_a_map_beside_resident_shards_leaves_them_intact(self):
        with no_hang(), Workers(3, Tally, self.STARTS[:2]) as workers:
            assert workers.workers == 2
            values = [value for value, _ in workers.map(square_and_pid, [1, 2, 3, 4])]
            assert values == [1, 4, 9, 16]
            assert workers.call("add", [(1,), (1,)]) == [1, 11]
        assert multiprocessing.active_children() == []
