"""Distributed sweep execution: a work-pulling coordinator for runner fleets.

The phone-home shape: runners *pull* :class:`~repro.sweeps.spec.RunSpec`
payloads from a socket coordinator, execute them locally through the same
:func:`~repro.sweeps.executor.execute_run` the in-process executors use, and
post the outcomes back.  Workers never need inbound network access, a runner
can join or die at any moment, and the coordinator reassembles outcomes in
run-index order so the final :class:`~repro.sweeps.report.SweepReport` is
byte-identical to the serial executor's for any runner count and any arrival
order.

Robustness vocabulary (mirroring the heartbeat/deadline machinery the
simulated hierarchy uses, see :class:`repro.simulation.batch.DeadlineTable`,
but on wall-clock time):

* every granted cell is a **lease** with a deadline; runners **heartbeat**
  to extend it while they execute;
* a dead runner (dropped connection) or a wedged one (expired lease) has its
  leases **reclaimed** and the cells retried, up to ``max_attempts`` reclaim
  events per cell, after which a deterministic failed outcome is synthesized;
* dispatch is **straggler-aware**: pending cells are granted
  longest-expected-first (explicit ``expected_seconds`` hints, or per-scenario
  wall-clock means learned from completed outcomes), so the tail of the sweep
  is not one giant cell on one runner;
* when the queue drains, idle runners optionally get **speculative**
  re-dispatches of still-leased cells (outcomes are deterministic, so the
  first posted result wins and duplicates are discarded by run position).

:class:`DistributedExecutor` packages all of this behind the ordinary
``executor.map(payloads)`` contract, spawning loopback runner subprocesses,
so ``run_sweep(spec, runners=4)`` is a drop-in alternative to ``jobs=4``.
"""

from __future__ import annotations

import asyncio
import os
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.sweeps.wire import FrameError, read_frame, write_frame

#: Protocol version stamped into hello/welcome frames.
PROTOCOL_VERSION = 1

#: Seconds an idle runner is told to wait before pulling again.
IDLE_RETRY_SECONDS = 0.05

#: Maximum concurrent leases per cell (the original plus one speculative copy).
MAX_LEASES_PER_CELL = 2

#: Fallback expected wall seconds for a cell with no hint and no learned prior.
DEFAULT_EXPECTED_SECONDS = 1.0


class SweepAborted(RuntimeError):
    """The coordinator gave up before every cell completed."""


def synthesize_lease_failure(payload: dict, attempts: int) -> dict:
    """The deterministic failed outcome recorded when a cell exhausts its retries.

    Shaped exactly like an :func:`~repro.sweeps.executor.execute_run` failure
    (same keys), with ``wall_seconds`` pinned to 0.0 so report timing never
    depends on how long the doomed leases lingered.
    """
    return {
        "run": payload,
        "status": "failed",
        "result": None,
        "error": f"LeaseExpired: no runner completed this cell in {attempts} attempts",
        "traceback": None,
        "wall_seconds": 0.0,
    }


class _Lease:
    """One granted cell: who holds it and until when."""

    __slots__ = ("lease_id", "position", "runner", "deadline", "speculative")

    def __init__(self, lease_id: str, position: int, runner: str, deadline: float,
                 speculative: bool) -> None:
        self.lease_id = lease_id
        self.position = position
        self.runner = runner
        self.deadline = deadline
        self.speculative = speculative


class SweepCoordinator:
    """Serve sweep cells to pulling runners; collect outcomes in order.

    Single-threaded inside one asyncio event loop: every state transition
    (grant, heartbeat, reclaim, record) runs on the loop, so there is no
    locking, and the ``stats`` counters can be read from other threads as a
    consistent-enough snapshot for tests and progress displays.
    """

    def __init__(
        self,
        payloads: Sequence[dict],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        lease_seconds: float = 30.0,
        max_attempts: int = 4,
        speculate: bool = True,
        expected_seconds: Optional[Sequence[float]] = None,
    ) -> None:
        if lease_seconds <= 0:
            raise ValueError("lease_seconds must be positive")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self._payloads = [dict(payload) for payload in payloads]
        if expected_seconds is not None and len(expected_seconds) != len(self._payloads):
            raise ValueError("expected_seconds must align with payloads")
        self._hints = None if expected_seconds is None else [float(s) for s in expected_seconds]
        self._host = host
        self._port = port
        self.lease_seconds = float(lease_seconds)
        self.max_attempts = int(max_attempts)
        self.speculate = bool(speculate)

        n = len(self._payloads)
        self._pending: Set[int] = set(range(n))
        self._outcomes: Dict[int, dict] = {}
        self._leases: Dict[str, _Lease] = {}
        self._active: Dict[int, Set[str]] = {}
        self._reclaims: Dict[int, int] = {}
        self._scenario_walls: Dict[str, List[float]] = {}
        self._lease_seq = 0
        #: Monotonic counters for tests/progress; merged into report timing by
        #: :class:`DistributedExecutor`.
        self.stats: Dict[str, int] = {
            "runners_seen": 0,
            "leases_granted": 0,
            "speculative_leases": 0,
            "heartbeats": 0,
            "reclaimed_expired": 0,
            "reclaimed_disconnect": 0,
            "retries": 0,
            "duplicates_discarded": 0,
            "synthesized_failures": 0,
        }

        self._server: Optional[asyncio.AbstractServer] = None
        self._reaper: Optional[asyncio.Task] = None
        self._handlers: Set[asyncio.Task] = set()
        self._writers: Set[asyncio.StreamWriter] = set()
        self._done = asyncio.Event()
        self._abort_reason: Optional[str] = None
        if not self._payloads:
            self._done.set()

    # ---------------------------------------------------------------- lifecycle
    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)``; valid after :meth:`start`."""
        if self._server is None:
            raise RuntimeError("coordinator not started")
        return self._server.sockets[0].getsockname()[:2]

    @property
    def done(self) -> bool:
        """True once every cell has an outcome (or the sweep was aborted)."""
        return self._done.is_set()

    @property
    def completed(self) -> int:
        """Number of cells with a recorded outcome."""
        return len(self._outcomes)

    async def start(self) -> Tuple[str, int]:
        """Bind the server and start the lease reaper; returns the address."""
        if self._server is not None:
            raise RuntimeError("coordinator already started")
        self._server = await asyncio.start_server(self._handle, self._host, self._port)
        self._reaper = asyncio.create_task(self._reap_forever())
        return self.address

    async def wait(self, timeout: Optional[float] = None) -> List[dict]:
        """Block until every cell has an outcome; outcomes in payload order."""
        if timeout is None:
            await self._done.wait()
        else:
            await asyncio.wait_for(self._done.wait(), timeout)
        if self._abort_reason is not None:
            raise SweepAborted(self._abort_reason)
        return [self._outcomes[position] for position in range(len(self._payloads))]

    def abort(self, reason: str) -> None:
        """Fail :meth:`wait` callers; pulls are answered with ``shutdown``."""
        if not self._done.is_set():
            self._abort_reason = reason
            self._done.set()

    async def stop(self) -> None:
        """Close the server, the reaper and every live runner connection."""
        if self._reaper is not None:
            self._reaper.cancel()
            try:
                await self._reaper
            except asyncio.CancelledError:
                pass
            self._reaper = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Cancel connection handlers before the loop closes: a handler parked
        # in read_frame() would otherwise be destroyed pending and spray
        # CancelledError noise at interpreter shutdown.
        for task in list(self._handlers):
            task.cancel()
        if self._handlers:
            await asyncio.gather(*self._handlers, return_exceptions=True)
        self._handlers.clear()
        for writer in list(self._writers):
            writer.close()
        self._writers.clear()

    # ---------------------------------------------------------------- scheduling
    def _expected(self, position: int) -> float:
        """Expected wall seconds of a cell: hint, else learned scenario mean."""
        if self._hints is not None:
            return self._hints[position]
        scenario = self._payloads[position].get("scenario")
        walls = self._scenario_walls.get(scenario)
        if walls:
            return sum(walls) / len(walls)
        return DEFAULT_EXPECTED_SECONDS

    def _pick(self, candidates: Set[int]) -> int:
        """Longest-expected-first with the run position as a deterministic tie-break."""
        return max(candidates, key=lambda position: (self._expected(position), -position))

    def _grant(self, runner: str, conn_leases: Set[str]) -> Optional[dict]:
        """A lease reply for one pull, or ``None`` when there is nothing to grant."""
        now = time.monotonic()
        speculative = False
        if self._pending:
            position = self._pick(self._pending)
            self._pending.discard(position)
        elif self.speculate:
            candidates = {
                position
                for position, lease_ids in self._active.items()
                if position not in self._outcomes
                and 0 < len(lease_ids) < MAX_LEASES_PER_CELL
                and all(self._leases[lid].runner != runner for lid in lease_ids)
            }
            if not candidates:
                return None
            position = self._pick(candidates)
            speculative = True
        else:
            return None

        self._lease_seq += 1
        lease = _Lease(
            lease_id=f"lease-{self._lease_seq}",
            position=position,
            runner=runner,
            deadline=now + self.lease_seconds,
            speculative=speculative,
        )
        self._leases[lease.lease_id] = lease
        self._active.setdefault(position, set()).add(lease.lease_id)
        conn_leases.add(lease.lease_id)
        self.stats["leases_granted"] += 1
        if speculative:
            self.stats["speculative_leases"] += 1
        return {
            "type": "lease",
            "lease_id": lease.lease_id,
            "run_id": position,
            "run": self._payloads[position],
            "lease_seconds": self.lease_seconds,
            "heartbeat_seconds": self.lease_seconds / 3.0,
            "speculative": speculative,
        }

    def _release_lease(self, lease_id: str) -> Optional[_Lease]:
        lease = self._leases.pop(lease_id, None)
        if lease is not None:
            active = self._active.get(lease.position)
            if active is not None:
                active.discard(lease_id)
                if not active:
                    del self._active[lease.position]
        return lease

    def _reclaim(self, lease_id: str, reason: str) -> None:
        """A lease died (deadline expired or its connection dropped): retry or fail."""
        lease = self._release_lease(lease_id)
        if lease is None:
            return
        self.stats[f"reclaimed_{reason}"] += 1
        position = lease.position
        if position in self._outcomes:
            return  # a speculative twin already delivered
        self._reclaims[position] = self._reclaims.get(position, 0) + 1
        if position in self._active or position in self._pending:
            return  # another live lease (or a queued retry) still covers the cell
        if self._reclaims[position] >= self.max_attempts:
            self.stats["synthesized_failures"] += 1
            self._record_outcome(
                position, synthesize_lease_failure(self._payloads[position], self._reclaims[position])
            )
        else:
            self.stats["retries"] += 1
            self._pending.add(position)

    def _record_outcome(self, position: int, outcome: dict) -> bool:
        """First outcome for a position wins; returns False for duplicates."""
        if position in self._outcomes:
            self.stats["duplicates_discarded"] += 1
            return False
        self._outcomes[position] = outcome
        self._pending.discard(position)
        # Release every remaining lease on the cell (speculative twins): their
        # eventual posts are discarded as duplicates, never counted as reclaims.
        for lease_id in list(self._active.get(position, ())):
            self._release_lease(lease_id)
        wall = outcome.get("wall_seconds")
        scenario = (outcome.get("run") or {}).get("scenario")
        if outcome.get("status") == "ok" and isinstance(wall, (int, float)) and scenario is not None:
            self._scenario_walls.setdefault(scenario, []).append(float(wall))
        if len(self._outcomes) == len(self._payloads):
            self._done.set()
        return True

    async def _reap_forever(self) -> None:
        interval = max(0.02, self.lease_seconds / 4.0)
        while True:
            await asyncio.sleep(interval)
            now = time.monotonic()
            expired = [
                lease.lease_id for lease in self._leases.values() if lease.deadline < now
            ]
            for lease_id in expired:
                self._reclaim(lease_id, "expired")

    # ------------------------------------------------------------------ protocol
    def _dispatch(self, message: dict, conn_leases: Set[str]) -> dict:
        kind = message.get("type")
        if kind == "hello":
            self.stats["runners_seen"] += 1
            return {
                "type": "welcome",
                "protocol": PROTOCOL_VERSION,
                "runs": len(self._payloads),
            }
        if kind == "pull":
            if self._done.is_set():
                return {"type": "shutdown"}
            reply = self._grant(str(message.get("runner", "?")), conn_leases)
            if reply is None:
                return {"type": "idle", "retry_seconds": IDLE_RETRY_SECONDS}
            return reply
        if kind == "heartbeat":
            lease = self._leases.get(message.get("lease_id"))
            if lease is None:
                return {"type": "ack", "known": False}
            lease.deadline = time.monotonic() + self.lease_seconds
            self.stats["heartbeats"] += 1
            return {"type": "ack", "known": True}
        if kind == "outcome":
            lease_id = message.get("lease_id")
            lease = self._release_lease(lease_id)
            conn_leases.discard(lease_id)
            position = message.get("run_id", lease.position if lease else None)
            outcome = message.get("outcome")
            if (
                not isinstance(position, int)
                or not 0 <= position < len(self._payloads)
                or not isinstance(outcome, dict)
            ):
                return {"type": "ack", "accepted": False}
            # Outcomes are accepted by position even when the lease was already
            # reclaimed: runs are deterministic, so a late result is as good as
            # a retried one and the wasted retry just loses the race.
            accepted = self._record_outcome(position, outcome)
            return {"type": "ack", "accepted": accepted}
        return {"type": "error", "error": f"unknown message type {kind!r}"}

    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
        self._writers.add(writer)
        conn_leases: Set[str] = set()
        try:
            while True:
                message = await read_frame(reader)
                if message is None:
                    break
                await write_frame(writer, self._dispatch(message, conn_leases))
        except (FrameError, ConnectionError, asyncio.IncompleteReadError, asyncio.CancelledError):
            pass  # dropped runner (or coordinator shutdown): leases reclaimed below
        finally:
            for lease_id in list(conn_leases):
                if lease_id in self._leases:
                    self._reclaim(lease_id, "disconnect")
            self._writers.discard(writer)
            writer.close()
            if task is not None:
                self._handlers.discard(task)


# ------------------------------------------------------------------ blocking APIs
def collect_outcomes(
    coordinator: SweepCoordinator,
    *,
    timeout: Optional[float] = None,
    on_bound: Optional[Callable[[Tuple[str, int]], None]] = None,
) -> List[dict]:
    """Run ``coordinator`` to completion on a fresh event loop (blocking).

    ``on_bound`` is invoked with the bound ``(host, port)`` once the server is
    listening -- the CLI uses it to announce the address runners should
    ``sweep work --connect`` to.
    """

    async def _main() -> List[dict]:
        await coordinator.start()
        if on_bound is not None:
            on_bound(coordinator.address)
        try:
            return await coordinator.wait(timeout=timeout)
        finally:
            await coordinator.stop()

    return asyncio.run(_main())


class CoordinatorThread:
    """A coordinator running on a background thread (context manager).

    Used by tests and anything else that needs to drive runner clients from
    the calling thread while the coordinator serves.  ``address`` blocks until
    the server is bound; :meth:`result` joins and returns the outcome list
    (re-raising coordinator failures).
    """

    def __init__(self, coordinator: SweepCoordinator, *, timeout: Optional[float] = None) -> None:
        self.coordinator = coordinator
        self._timeout = timeout
        self._bound = threading.Event()
        self._address: Optional[Tuple[str, int]] = None
        self._outcomes: Optional[List[dict]] = None
        self._error: Optional[BaseException] = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        try:
            self._outcomes = collect_outcomes(
                self.coordinator, timeout=self._timeout, on_bound=self._on_bound
            )
        except BaseException as exc:  # noqa: BLE001 - re-raised in result()
            self._error = exc
            self._bound.set()

    def _on_bound(self, address: Tuple[str, int]) -> None:
        self._address = address
        self._bound.set()

    def __enter__(self) -> "CoordinatorThread":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.coordinator.abort("coordinator thread exited")
        self._thread.join(timeout=10.0)

    @property
    def address(self) -> Tuple[str, int]:
        self._bound.wait(timeout=10.0)
        if self._address is None:
            raise RuntimeError("coordinator failed to bind") from self._error
        return self._address

    def result(self, timeout: Optional[float] = None) -> List[dict]:
        self._thread.join(timeout=timeout)
        if self._thread.is_alive():
            raise TimeoutError("coordinator still running")
        if self._error is not None:
            raise self._error
        assert self._outcomes is not None
        return self._outcomes


# -------------------------------------------------------------- loopback runners
def _loopback_env(extra: Optional[dict] = None) -> dict:
    """A subprocess environment in which ``import repro`` resolves to this tree."""
    import repro

    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parent.parent)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing else src + os.pathsep + existing
    if extra:
        env.update({str(key): str(value) for key, value in extra.items()})
    return env


def spawn_loopback_runner(
    address: Tuple[str, int],
    *,
    runner_id: Optional[str] = None,
    env: Optional[dict] = None,
) -> subprocess.Popen:
    """Start one runner subprocess connected to ``address`` (stdio discarded)."""
    host, port = address
    argv = [sys.executable, "-m", "repro.sweeps.runner", "--connect", f"{host}:{port}"]
    if runner_id:
        argv += ["--id", runner_id]
    return subprocess.Popen(
        argv,
        env=_loopback_env(env),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


class DistributedExecutor:
    """Run sweep cells on a fleet of loopback runner subprocesses.

    ``map(payloads) -> outcomes`` is the ``executor`` contract of
    :func:`~repro.sweeps.engine.run_sweep`.  Outcomes come back in payload
    order and the report built from them is byte-identical to the ``jobs=1``
    report (the tests assert this, including under injected runner kills).

    ``runner_env`` optionally carries one environment-override dict per runner
    (``None`` entries keep the default); the fault-injection tests use it to
    make a runner die or wedge mid-lease via ``REPRO_SWEEP_RUNNER_FAULT``.
    """

    def __init__(
        self,
        runners: int = 2,
        *,
        lease_seconds: float = 30.0,
        max_attempts: int = 4,
        speculate: bool = True,
        expected_seconds: Optional[Sequence[float]] = None,
        runner_env: Optional[Sequence[Optional[dict]]] = None,
        timeout: Optional[float] = None,
    ) -> None:
        if runners < 1:
            raise ValueError("DistributedExecutor needs runners >= 1")
        if runner_env is not None and len(runner_env) != runners:
            raise ValueError("runner_env must carry one entry per runner")
        self.runners = int(runners)
        #: Reported into ``SweepReport.timing['jobs']`` by ``run_sweep``.
        self.jobs = self.runners
        self.lease_seconds = float(lease_seconds)
        self.max_attempts = int(max_attempts)
        self.speculate = bool(speculate)
        self.expected_seconds = expected_seconds
        self.runner_env = list(runner_env) if runner_env is not None else None
        self.timeout = timeout
        #: Coordinator counters of the last ``map`` call (read by ``bench/`` and tests).
        self.last_stats: Dict[str, int] = {}

    def map(self, payloads: Sequence[dict]) -> List[dict]:
        """Outcomes for ``payloads``, in order, computed by the runner fleet."""
        payloads = list(payloads)
        if not payloads:
            return []
        return asyncio.run(self._map_async(payloads))

    async def _map_async(self, payloads: List[dict]) -> List[dict]:
        coordinator = SweepCoordinator(
            payloads,
            lease_seconds=self.lease_seconds,
            max_attempts=self.max_attempts,
            speculate=self.speculate,
            expected_seconds=self.expected_seconds,
        )
        await coordinator.start()
        procs: List[subprocess.Popen] = []
        watchdog: Optional[asyncio.Task] = None
        try:
            for index in range(self.runners):
                extra = self.runner_env[index] if self.runner_env else None
                procs.append(
                    spawn_loopback_runner(
                        coordinator.address, runner_id=f"runner-{index}", env=extra
                    )
                )
            watchdog = asyncio.create_task(self._watch(procs, coordinator))
            return await coordinator.wait(timeout=self.timeout)
        finally:
            if watchdog is not None:
                watchdog.cancel()
            self.last_stats = dict(coordinator.stats)
            await coordinator.stop()
            self._terminate(procs)

    @staticmethod
    async def _watch(procs: List[subprocess.Popen], coordinator: SweepCoordinator) -> None:
        """Abort instead of hanging forever when the whole fleet is gone."""
        while True:
            await asyncio.sleep(0.2)
            if coordinator.done:
                return
            if all(proc.poll() is not None for proc in procs):
                coordinator.abort(
                    "all runner processes exited before the sweep completed "
                    f"(exit codes: {[proc.returncode for proc in procs]})"
                )
                return

    @staticmethod
    def _terminate(procs: List[subprocess.Popen]) -> None:
        for proc in procs:
            if proc.poll() is None:
                proc.terminate()
        deadline = time.monotonic() + 5.0
        for proc in procs:
            remaining = max(0.1, deadline - time.monotonic())
            try:
                proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=5.0)
