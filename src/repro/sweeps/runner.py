"""The sweep runner client: pull work, execute locally, phone the results home.

``repro-sim sweep work --connect HOST:PORT`` joins a coordinator started
with ``repro-sim sweep serve`` (a ``DistributedExecutor`` forks its loopback
runners straight into :class:`SweepRunner`) and loops pull -> execute -> post
until the coordinator says ``shutdown`` or disappears.  The runner only ever
*initiates* connections, so a fleet can sit behind NAT or a firewall with no
inbound access at all.

While a cell executes, a daemon heartbeat thread extends the runner's lease
so a long run is not mistaken for a dead runner; if the process dies anyway,
the coordinator reclaims the lease (on disconnect, or at the lease deadline
for a wedged-but-connected runner) and retries the cell elsewhere.

Fault injection (tests and chaos drills only) via the
``REPRO_SWEEP_RUNNER_FAULT`` environment variable:

* ``die-after-pulls:N`` -- hard-exit (``os._exit``) while holding the N-th
  lease, before posting anything: a crashed runner.
* ``wedge-after-pulls:N`` -- stop heartbeating and sleep forever while
  holding the N-th lease: a hung runner whose connection stays open.
"""

from __future__ import annotations

import os
import socket
import sys
import threading
import time
from typing import Callable, Optional, Tuple

from repro.sweeps.executor import execute_run
from repro.sweeps.wire import FrameError, read_frame_sync, send_frame_sync

#: Environment variable carrying the fault-injection mode.
FAULT_ENV = "REPRO_SWEEP_RUNNER_FAULT"

#: Exit code of a ``die-after-pulls`` hard exit (distinct from normal failures).
DIE_EXIT_CODE = 17

#: Seconds to wait for the coordinator to accept the TCP connection.
CONNECT_TIMEOUT_SECONDS = 10.0


def _parse_fault(value: Optional[str]) -> Tuple[Optional[str], int]:
    """``("die"|"wedge"|None, pull_count)`` from a ``mode-after-pulls:N`` string."""
    if not value:
        return None, 0
    mode, _, count = value.partition(":")
    if mode not in ("die-after-pulls", "wedge-after-pulls"):
        raise ValueError(
            f"unknown {FAULT_ENV} mode {value!r}; expected "
            "'die-after-pulls:N' or 'wedge-after-pulls:N'"
        )
    return mode.split("-", 1)[0], int(count or 1)


class CoordinatorGone(ConnectionError):
    """The coordinator closed the connection (normal at end of a sweep)."""


class SweepRunner:
    """One work-pulling runner bound to a coordinator address.

    ``fn`` is the cell executor (:func:`~repro.sweeps.executor.execute_run`
    by default; tests substitute slow or failing callables).  :meth:`run`
    blocks until shutdown and returns the number of outcomes posted.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        runner_id: Optional[str] = None,
        fn: Callable[[dict], dict] = execute_run,
        fault: Optional[str] = None,
    ) -> None:
        self.host = host
        self.port = int(port)
        self.runner_id = runner_id or f"runner-{os.getpid()}"
        self.fn = fn
        self._fault_mode, self._fault_pulls = _parse_fault(
            fault if fault is not None else os.environ.get(FAULT_ENV)
        )
        self._sock: Optional[socket.socket] = None
        self._lock = threading.Lock()
        self._stop = threading.Event()
        #: Lease currently being executed (heartbeat thread reads these).
        self._current_lease: Optional[str] = None
        self._heartbeat_seconds = 1.0
        self.posted = 0

    # ------------------------------------------------------------------ plumbing
    def _exchange(self, message: dict) -> dict:
        """One request/response pair; the lock keeps pairs atomic across threads."""
        with self._lock:
            if self._sock is None:
                raise CoordinatorGone("not connected")
            send_frame_sync(self._sock, message)
            reply = read_frame_sync(self._sock)
        if reply is None:
            raise CoordinatorGone("coordinator closed the connection")
        return reply

    def _heartbeat_forever(self) -> None:
        """Extend the current lease periodically while a cell executes."""
        last_sent = time.monotonic()
        while not self._stop.wait(min(0.05, self._heartbeat_seconds / 2.0)):
            lease = self._current_lease
            if lease is None:
                last_sent = time.monotonic()
                continue
            if time.monotonic() - last_sent < self._heartbeat_seconds:
                continue
            try:
                self._exchange({"type": "heartbeat", "lease_id": lease})
            except (OSError, FrameError, CoordinatorGone):
                return  # the main loop will discover the dead connection
            last_sent = time.monotonic()

    def _inject_fault(self, pulls: int) -> None:
        if self._fault_mode is None or pulls != self._fault_pulls:
            return
        if self._fault_mode == "die":
            # A crash, not an exit path: no socket shutdown, no cleanup.
            os._exit(DIE_EXIT_CODE)
        # Wedge: keep the connection open but stop heartbeating and never post.
        self._current_lease = None
        while True:  # pragma: no cover - terminated by the executor's cleanup
            time.sleep(3600.0)

    # ----------------------------------------------------------------- main loop
    def run(self) -> int:
        """Pull/execute/post until the coordinator shuts the sweep down."""
        self._sock = socket.create_connection((self.host, self.port), CONNECT_TIMEOUT_SECONDS)
        heartbeat = threading.Thread(target=self._heartbeat_forever, daemon=True)
        pulls = 0
        try:
            self._exchange({"type": "hello", "runner": self.runner_id, "pid": os.getpid()})
            heartbeat.start()
            while True:
                try:
                    reply = self._exchange({"type": "pull", "runner": self.runner_id})
                except (OSError, FrameError, CoordinatorGone):
                    break  # coordinator gone: the sweep is over (or aborted)
                kind = reply.get("type")
                if kind == "shutdown":
                    break
                if kind == "idle":
                    time.sleep(float(reply.get("retry_seconds", 0.05)))
                    continue
                if kind != "lease":
                    break  # protocol error; bail out rather than spin
                pulls += 1
                self._heartbeat_seconds = float(
                    reply.get("heartbeat_seconds", self._heartbeat_seconds)
                )
                self._inject_fault(pulls)
                lease_id = reply["lease_id"]
                self._current_lease = lease_id
                try:
                    outcome = self.fn(reply["run"])
                finally:
                    self._current_lease = None
                try:
                    self._exchange(
                        {
                            "type": "outcome",
                            "lease_id": lease_id,
                            "run_id": reply.get("run_id"),
                            "outcome": outcome,
                        }
                    )
                    self.posted += 1
                except (OSError, FrameError, CoordinatorGone):
                    break
        finally:
            self._stop.set()
            with self._lock:
                if self._sock is not None:
                    self._sock.close()
                    self._sock = None
            if heartbeat.ident is not None:
                heartbeat.join()
        return self.posted


def check_port(port: int) -> int:
    """``port`` if it is a TCP port number; ``ValueError`` naming it otherwise."""
    if not 0 <= port <= 65535:
        raise ValueError(f"port must be 0-65535, got {port}")
    return port


def parse_address(value: str) -> Tuple[str, int]:
    """``HOST:PORT`` -> ``(host, port)`` with a helpful error."""
    host, _, port = value.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"expected HOST:PORT, got {value!r}")
    return host, check_port(int(port))


def work(connect: str, runner_id: Optional[str] = None) -> int:
    """Join the coordinator at ``HOST:PORT`` as one runner (``repro-sim sweep work``).

    Returns the exit code.
    """
    try:
        host, port = parse_address(connect)
        runner = SweepRunner(host, port, runner_id=runner_id)
    except ValueError as exc:  # malformed address or fault-injection mode
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        posted = runner.run()
    except OSError as exc:
        print(f"error: cannot reach coordinator at {connect}: {exc}", file=sys.stderr)
        return 1
    print(f"runner {runner.runner_id}: posted {posted} outcome(s)", file=sys.stderr)
    return 0

