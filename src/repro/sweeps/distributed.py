"""Distributed sweep execution: a work-pulling coordinator for runner fleets.

The phone-home shape: runners *pull* :class:`~repro.sweeps.spec.RunSpec`
payloads from a blocking-socket coordinator (an accept thread, one thread per
runner connection, one lock over the lease table), execute them locally
through the same :func:`~repro.sweeps.executor.execute_run` the in-process
executors use, and post the outcomes back.  Workers never need inbound
network access, a runner can join or die at any moment, and the coordinator
reassembles outcomes in run-index order so the final
:class:`~repro.sweeps.report.SweepReport` is byte-identical to the serial
executor's for any runner count and any arrival order.

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
``executor.map(payloads)`` contract, forking loopback runner processes from
the already-imported coordinator process (:func:`repro.workers.start_process`),
so ``run_sweep(spec, executor=DistributedExecutor(runners=4))`` is a drop-in
alternative to ``jobs=4``.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.plain import require_positive_finite
from repro.sweeps.runner import SweepRunner
from repro.sweeps.wire import read_frame_sync, send_frame_sync
from repro.workers import start_process

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

    Blocking sockets throughout, like the runner end: an accept thread, one
    thread per runner connection (read a frame, dispatch it, send the reply)
    and a reaper thread that reclaims expired leases.  One lock guards every
    state transition (grant, heartbeat, reclaim, record, abort); the ``stats``
    counters can be read without it as a consistent-enough snapshot for tests
    and progress displays.
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
        require_positive_finite("lease_seconds", lease_seconds)
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self._payloads = [dict(payload) for payload in payloads]
        #: Each payload as a runner decodes it: what a genuine outcome echoes as ``run``.
        self._wire_payloads = json.loads(json.dumps(self._payloads))
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
            "rejected_outcomes": 0,
        }

        self._lock = threading.Lock()
        self._done = threading.Event()
        self._stopped = threading.Event()
        self._abort_reason: Optional[str] = None
        self._server: Optional[socket.socket] = None
        self._address: Optional[Tuple[str, int]] = None
        self._threads: List[threading.Thread] = []
        self._conns: Set[socket.socket] = set()
        if not self._payloads:
            self._done.set()

    # ---------------------------------------------------------------- lifecycle
    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)``; valid after :meth:`start`."""
        if self._address is None:
            raise RuntimeError("coordinator not started")
        return self._address

    @property
    def done(self) -> bool:
        """True once every cell has an outcome (or the sweep was aborted)."""
        return self._done.is_set()

    @property
    def completed(self) -> int:
        """Number of cells with a recorded outcome."""
        return len(self._outcomes)

    def start(self) -> Tuple[str, int]:
        """Bind the server and start the accept and reaper threads; returns the address."""
        if self._server is not None:
            raise RuntimeError("coordinator already started")
        family = socket.getaddrinfo(self._host, self._port, type=socket.SOCK_STREAM)[0][0]
        self._server = socket.create_server((self._host, self._port), family=family)
        self._address = self._server.getsockname()[:2]
        self._spawn(self._accept_forever)
        self._spawn(self._reap_forever)
        return self._address

    def wait(self, timeout: Optional[float] = None) -> List[dict]:
        """Block until every cell has an outcome; outcomes in payload order."""
        if not self._done.wait(timeout):
            raise TimeoutError(f"sweep still running after {timeout} s")
        if self._abort_reason is not None:
            raise SweepAborted(self._abort_reason)
        return [self._outcomes[position] for position in range(len(self._payloads))]

    def abort(self, reason: str) -> None:
        """Fail :meth:`wait` callers; pulls are answered with ``shutdown``.  Thread-safe."""
        with self._lock:
            if not self._done.is_set():
                self._abort_reason = reason
                self._done.set()

    def stop(self) -> None:
        """Close the server and every live runner connection; join every thread."""
        with self._lock:  # no connection is accepted past this point
            self._stopped.set()
            threads, conns = list(self._threads), list(self._conns)
        for sock in [self._server, *conns]:
            if sock is not None:
                try:  # wakes the thread blocked in accept() or recv() on it
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass  # the peer already closed it
        for thread in threads:
            thread.join()
        if self._server is not None:
            self._server.close()

    def _spawn(self, target: Callable, *args) -> None:
        thread = threading.Thread(target=target, args=args, daemon=True)
        self._threads.append(thread)
        thread.start()

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

    def _reap_forever(self) -> None:
        interval = min(max(0.02, self.lease_seconds / 4.0), threading.TIMEOUT_MAX)
        while not self._stopped.wait(interval):
            now = time.monotonic()
            with self._lock:
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
            lease = self._leases.get(lease_id)
            position = message.get("run_id", lease.position if lease else None)
            outcome = message.get("outcome")
            if not self._well_formed(position, outcome):
                # Rejected before the lease is touched: the cell stays covered.
                self.stats["rejected_outcomes"] += 1
                return {"type": "ack", "accepted": False}
            self._release_lease(lease_id)
            conn_leases.discard(lease_id)
            # Outcomes are accepted by position even when the lease was already
            # reclaimed: runs are deterministic, so a late result is as good as
            # a retried one and the wasted retry just loses the race.
            accepted = self._record_outcome(position, outcome)
            return {"type": "ack", "accepted": accepted}
        return {"type": "error", "error": f"unknown message type {kind!r}"}

    def _well_formed(self, position, outcome) -> bool:
        """An int position (``True`` is no cell), its payload echoed, an executor's status."""
        if type(position) is not int or not 0 <= position < len(self._payloads):
            return False
        if not isinstance(outcome, dict) or outcome.get("run") != self._wire_payloads[position]:
            return False
        # ``null`` is the ``ok`` result of a custom cell function (the bench's no-op cell).
        status, result = outcome.get("status"), outcome.get("result")
        return status == "failed" or (status == "ok" and isinstance(result, (dict, type(None))))

    def _accept_forever(self) -> None:
        while True:
            try:
                conn, _ = self._server.accept()
            except OSError:  # stop() shut the listener down, or a transient error
                if self._stopped.wait(IDLE_RETRY_SECONDS):
                    return
                continue
            # Replies go out at once, as small request/reply frames need.
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._lock:
                if self._stopped.is_set():
                    conn.close()
                    return
                self._conns.add(conn)
                self._spawn(self._serve, conn)

    def _serve(self, conn: socket.socket) -> None:
        conn_leases: Set[str] = set()
        try:
            while True:
                message = read_frame_sync(conn)
                if message is None:
                    break
                with self._lock:
                    reply = self._dispatch(message, conn_leases)
                send_frame_sync(conn, reply)
        except OSError:  # FrameError included
            pass  # dropped runner (or coordinator shutdown): leases reclaimed below
        finally:
            with self._lock:
                for lease_id in list(conn_leases):
                    if lease_id in self._leases:
                        self._reclaim(lease_id, "disconnect")
                self._conns.discard(conn)
            conn.close()


# ------------------------------------------------------------------ blocking APIs
def collect_outcomes(
    coordinator: SweepCoordinator,
    *,
    timeout: Optional[float] = None,
    on_bound: Optional[Callable[[Tuple[str, int]], None]] = None,
) -> List[dict]:
    """Run ``coordinator`` to completion (blocking), then stop it.

    ``on_bound`` is invoked with the bound ``(host, port)`` once the server is
    listening -- the CLI uses it to announce the address runners should
    ``sweep work --connect`` to.
    """
    address = coordinator.start()
    try:
        if on_bound is not None:
            on_bound(address)
        return coordinator.wait(timeout=timeout)
    finally:
        coordinator.stop()


class CoordinatorThread:
    """A started coordinator as a context manager.

    Used by tests and anything else that drives runner clients from the
    calling thread while the coordinator serves on its own threads.
    ``address`` is bound on entry; :meth:`result` waits for the outcome list
    (``timeout`` is its default wait); leaving the block aborts and stops the
    coordinator.
    """

    def __init__(self, coordinator: SweepCoordinator, *, timeout: Optional[float] = None) -> None:
        self.coordinator = coordinator
        self._timeout = timeout

    def __enter__(self) -> "CoordinatorThread":
        self.address = self.coordinator.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.coordinator.abort("coordinator thread exited")
        self.coordinator.stop()

    def result(self, timeout: Optional[float] = None) -> List[dict]:
        return self.coordinator.wait(self._timeout if timeout is None else timeout)


# -------------------------------------------------------------- loopback runners
class RunnerProcess:
    """One loopback runner process behind the ``subprocess.Popen`` subset callers use."""

    def __init__(self, process) -> None:
        self._process = process
        self.terminate, self.kill = process.terminate, process.kill

    @property
    def returncode(self) -> Optional[int]:
        return self._process.exitcode

    def poll(self) -> Optional[int]:
        return self._process.exitcode

    def wait(self, timeout: Optional[float] = None) -> int:
        """The exit code; raises ``TimeoutError`` if still running after ``timeout``."""
        self._process.join(timeout)
        if self._process.exitcode is None:
            raise TimeoutError(f"runner process {self._process.pid} still running")
        return self._process.exitcode


def _runner_main(host: str, port: int, runner_id: Optional[str], env: Optional[dict]) -> None:
    """Body of one loopback runner process: a silent :class:`SweepRunner`."""
    os.environ.update({str(key): str(value) for key, value in (env or {}).items()})
    # A forked child inherits whatever SIGINT handler its parent installed; Ctrl-C
    # must end the runner through KeyboardInterrupt instead.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    devnull = os.open(os.devnull, os.O_WRONLY)
    for fd in (1, 2):
        os.dup2(devnull, fd)
    sys.stdout = sys.stderr = open(devnull, "w")
    try:
        SweepRunner(host, port, runner_id=runner_id).run()
    except KeyboardInterrupt:
        return  # Ctrl-C reaches the whole process group; the caller reports it


def spawn_loopback_runner(
    address: Tuple[str, int],
    *,
    runner_id: Optional[str] = None,
    env: Optional[dict] = None,
) -> RunnerProcess:
    """Fork one silent runner connected to ``address`` (``env`` applied inside it)."""
    host, port = address
    return RunnerProcess(start_process(_runner_main, host, port, runner_id, env))


class DistributedExecutor:
    """Run sweep cells on a fleet of loopback runner processes.

    ``map(payloads) -> outcomes`` is the ``executor`` contract of
    :func:`~repro.sweeps.engine.run_sweep`.  Outcomes come back in payload
    order and the report built from them is byte-identical to the ``jobs=1``
    report (the tests assert this, including under injected runner kills).

    ``runner_env`` optionally carries one environment-override dict per runner
    (``None`` entries keep the default); the fault-injection tests use it to
    make a runner die or wedge mid-lease via ``REPRO_SWEEP_RUNNER_FAULT``.
    Runners fork from this process: every cell still travels over the socket
    as a lease, but no runner pays an interpreter start-up.
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
        require_positive_finite("lease_seconds", lease_seconds)
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
        coordinator = SweepCoordinator(
            payloads,
            lease_seconds=self.lease_seconds,
            max_attempts=self.max_attempts,
            speculate=self.speculate,
            expected_seconds=self.expected_seconds,
        )
        address = coordinator.start()
        procs: List[RunnerProcess] = []
        watchdog = threading.Thread(target=self._watch, args=(procs, coordinator), daemon=True)
        try:
            for index in range(self.runners):
                extra = self.runner_env[index] if self.runner_env else None
                procs.append(
                    spawn_loopback_runner(address, runner_id=f"runner-{index}", env=extra)
                )
            watchdog.start()
            return coordinator.wait(timeout=self.timeout)
        finally:
            self.last_stats = dict(coordinator.stats)
            coordinator.stop()
            if watchdog.ident is not None:
                watchdog.join()
            self._terminate(procs)

    @staticmethod
    def _watch(procs: List[RunnerProcess], coordinator: SweepCoordinator) -> None:
        """Abort instead of hanging forever when the whole fleet is gone."""
        while not coordinator._stopped.wait(0.2):
            if all(proc.poll() is not None for proc in procs):
                coordinator.abort(
                    "all runner processes exited before the sweep completed "
                    f"(exit codes: {[proc.returncode for proc in procs]})"
                )
                return

    @staticmethod
    def _terminate(procs: List[RunnerProcess]) -> None:
        for proc in procs:
            if proc.poll() is None:
                proc.terminate()
        deadline = time.monotonic() + 5.0
        for proc in procs:
            remaining = max(0.1, deadline - time.monotonic())
            try:
                proc.wait(timeout=remaining)
            except TimeoutError:
                proc.kill()
                proc.wait(timeout=5.0)
