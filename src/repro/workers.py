"""In-host process fan-out: the one module in ``src`` that starts processes.

Sweep cells, ACO colonies and distributed-ACO partitions (:meth:`Workers.map`)
and megafleet shards (:meth:`Workers.call`) all run on :class:`Workers`: one
``multiprocessing.Process`` on one ``Pipe`` per worker, serving pickled requests
until its pipe closes.  With one job everything runs in the calling process
through the same :func:`_serve` function, so results cannot depend on ``jobs``.
A worker that dies closes its pipe, which the caller reads as end-of-file and
raises as a ``RuntimeError`` -- nothing here can block on a dead process.
Every process in ``src`` -- these workers and the sweep fleet's loopback
runners -- is started by :func:`start_process`; the C compiler that builds the
ACO construction step is run by :func:`run_tool`.

Stdlib imports only: this module sits below every ``repro`` package, so the
packing kernels and the megafleet engine fan out without importing the
simulator.
"""

from __future__ import annotations

import multiprocessing
import pickle
import subprocess
import sys
import time
import traceback
from multiprocessing.connection import wait
from typing import Callable, Optional, Sequence

#: Upper bound on the traceback text carried back from a worker.  Tracebacks
#: are a debugging aid shipped back from (possibly remote) workers; the *tail*
#: is the informative end, so truncation drops leading frames.
TRACEBACK_LIMIT_CHARS = 4000


def truncated_traceback() -> str:
    """The current exception's traceback, tail-truncated for transport."""
    text = traceback.format_exc()
    if len(text) > TRACEBACK_LIMIT_CHARS:
        text = "... [truncated] ...\n" + text[-TRACEBACK_LIMIT_CHARS:]
    return text


class RemoteTraceback(Exception):
    """A worker's traceback text: the ``__cause__`` of what :meth:`Workers.map` re-raises."""


def _start_method() -> Optional[str]:
    """The ``multiprocessing`` start method of every worker this module starts.

    Prefer fork on Linux only: workers inherit the imported registries instead
    of re-importing the package per process.  On macOS fork is available but
    unsafe (the spawn default exists for a reason), so everywhere else the
    platform default start method is kept.
    """
    if sys.platform == "linux" and "fork" in multiprocessing.get_all_start_methods():
        return "fork"
    return None


def start_process(target: Callable, *args) -> multiprocessing.Process:
    """Start ``target(*args)`` in a daemon process on :func:`_start_method`."""
    process = multiprocessing.get_context(_start_method()).Process(
        target=target, args=args, daemon=True
    )
    process.start()
    return process


def run_tool(argv: Sequence[str]) -> None:
    """Run a command-line tool to completion; a non-zero exit raises ``OSError``."""
    done = subprocess.run(list(argv), capture_output=True, text=True)
    if done.returncode:
        raise OSError(f"{' '.join(argv)} exited with {done.returncode}: {done.stderr.strip()}")


def _serve(shards: dict, factory: Optional[Callable], method, batch) -> tuple:
    """One request on one worker; never raises.

    ``batch`` is ``[(index, argument tuple), ...]``.  ``method=None`` builds
    shard ``index`` with ``factory``, a string calls that method of shard
    ``index``, and a callable (a :meth:`Workers.map` payload) is called itself.
    Returns ``("ok", [(reply, seconds), ...])`` or ``("failed", index,
    traceback tail, exception)``.
    """
    replies = []
    for index, args in batch:
        started = time.perf_counter()
        try:
            if method is None:
                shards[index] = factory(*args)
                reply = None
            elif callable(method):
                reply = method(*args)
            else:
                reply = getattr(shards[index], method)(*args)
        except Exception as exc:  # noqa: BLE001 - shipped to the caller, which raises
            return "failed", index, truncated_traceback(), exc
        replies.append((reply, time.perf_counter() - started))
    return "ok", replies


def _worker_main(conn, factory: Optional[Callable]) -> None:
    """Body of one worker process: serve requests until the pipe closes."""
    shards: dict = {}
    try:
        while True:
            try:
                method, batch = pickle.loads(conn.recv_bytes())
            except EOFError:
                return
            outcome = _serve(shards, factory, method, batch)
            conn.send_bytes(pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL))
    except KeyboardInterrupt:
        # Ctrl-C reaches the whole process group; the caller reports it.
        return


class Workers:
    """Up to ``jobs`` worker processes for one-shot maps and resident shards.

    :meth:`map` ships a self-contained payload out and a result back, which
    suits one-shot maps (sweep cells, ACO colonies).  A lockstep engine calls
    the *same* state every epoch, and shipping that state each time costs more
    than advancing it: given ``factory`` and ``shard_args``, shard ``k`` is
    built by ``factory(*shard_args[k])`` inside worker ``k % workers`` and stays
    there until :meth:`close`; a :meth:`call` carries only the arguments out
    and the replies back.

    Processes are started when first needed and never more than the work can
    use; with one the work runs in the calling process.  Every function,
    factory and argument must be picklable (the ``spawn`` contract).

    A failure or interrupt inside the constructor or :meth:`map` closes the
    workers before it propagates; :meth:`close` (also the context manager exit)
    leaves no child process behind on any path.
    """

    def __init__(
        self, jobs: int, factory: Optional[Callable] = None, shard_args: Sequence[tuple] = ()
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        shard_args = list(shard_args)
        self.jobs = int(jobs)
        self.n_shards = len(shard_args)
        #: Workers hosting the shards; 1 means in the calling process.
        self.workers = max(1, min(self.jobs, self.n_shards))
        #: Pickled bytes sent to / received from worker processes so far.
        self.bytes_out = 0
        self.bytes_in = 0
        #: Seconds each shard spent inside its own calls (build included).
        self.compute_s = [0.0] * self.n_shards
        self._factory = factory
        self._local: dict = {}
        self._procs: list = []
        self._conns: list = []
        try:
            if self.workers > 1:
                self._start(self.workers)
            self.call(None, shard_args)
        except BaseException:
            self.close()
            raise

    # -------------------------------------------------------------------- map
    def map(self, fn: Callable, payloads: Sequence) -> list:
        """``fn(payload)`` for every payload; results in payload order.

        Each idle worker takes the next payload, so one slow payload does not
        hold up the rest.  An exception ``fn`` raises re-raises here as its own
        type with the worker's traceback as ``__cause__``
        (:class:`RemoteTraceback`); a worker that dies raises ``RuntimeError``
        naming the payload it held and its exit code.
        """
        payloads = list(payloads)
        n_workers = min(self.jobs, len(payloads))
        # One request per payload, shaped like a one-shard batch: [(index, args)].
        requests = iter([(index, (payload,))] for index, payload in enumerate(payloads))
        results: list = [None] * len(payloads)

        def store(request: list, outcome: tuple) -> None:
            if outcome[0] != "ok":
                _, _, remote_traceback, exc = outcome
                raise exc from RemoteTraceback("\n" + remote_traceback)
            ((index, _),), ((reply, _),) = request, outcome[1]
            results[index] = reply

        try:
            if n_workers <= 1:
                for request in requests:
                    store(request, _serve({}, None, fn, request))
                return results
            self._start(n_workers - len(self._procs))
            in_flight = {}
            for worker, request in zip(range(n_workers), requests):
                self._send(worker, "payload", fn, request)
                in_flight[worker] = request
            while in_flight:
                for conn in wait([self._conns[worker] for worker in in_flight]):
                    worker = self._conns.index(conn)
                    request = in_flight.pop(worker)
                    store(request, self._recv(worker, "payload", request))
                    request = next(requests, None)
                    if request is not None:
                        self._send(worker, "payload", fn, request)
                        in_flight[worker] = request
            return results
        except BaseException:
            self.close()
            raise

    # ----------------------------------------------------------------- shards
    def call(self, method: Optional[str], args: Optional[Sequence[tuple]] = None) -> list:
        """``shard.method(*args[k])`` on every shard; replies in shard order.

        ``method=None`` is the constructor's own first call: it builds shard
        ``k`` from ``factory(*args[k])``.  A shard that raises surfaces as one
        ``RuntimeError`` naming the shard, as does a worker that dies.
        """
        args = [()] * self.n_shards if args is None else list(args)
        batches = [
            [(index, args[index]) for index in range(worker, self.n_shards, self.workers)]
            for worker in range(self.workers)
        ]
        if self.workers > 1:
            # Lockstep: send every worker its batch, then collect every outcome.
            for worker, batch in enumerate(batches):
                self._send(worker, "shard(s)", method, batch)
            outcomes = [
                self._recv(worker, "shard(s)", batch) for worker, batch in enumerate(batches)
            ]
        else:
            outcomes = [_serve(self._local, self._factory, method, batches[0])]
        replies: list = [None] * self.n_shards
        for batch, outcome in zip(batches, outcomes):
            if outcome[0] != "ok":
                _, index, remote_traceback, _ = outcome
                raise RuntimeError(f"shard {index} failed:\n{remote_traceback}")
            for (index, _), (reply, seconds) in zip(batch, outcome[1]):
                replies[index] = reply
                self.compute_s[index] += seconds
        return replies

    # -------------------------------------------------------------- processes
    def _start(self, count: int) -> None:
        """Start ``count`` more worker processes (none when ``count <= 0``)."""
        for _ in range(count):
            ours, theirs = multiprocessing.Pipe()
            self._procs.append(start_process(_worker_main, theirs, self._factory))
            self._conns.append(ours)
            # Only the worker may hold its end, or its death is no EOF here.
            theirs.close()

    def _send(self, worker: int, what: str, method, batch: list) -> None:
        data = pickle.dumps((method, batch), pickle.HIGHEST_PROTOCOL)
        self.bytes_out += len(data)
        try:
            self._conns[worker].send_bytes(data)
        except OSError as exc:
            raise self._died(worker, what, batch) from exc

    def _recv(self, worker: int, what: str, batch: list) -> tuple:
        try:
            data = self._conns[worker].recv_bytes()
        except (EOFError, OSError) as exc:
            raise self._died(worker, what, batch) from exc
        self.bytes_in += len(data)
        return pickle.loads(data)

    def _died(self, worker: int, what: str, batch: list) -> RuntimeError:
        proc = self._procs[worker]
        proc.join(timeout=1.0)
        hosted = ", ".join(str(index) for index, _ in batch)
        return RuntimeError(f"worker of {what} {hosted} died (exit code {proc.exitcode})")

    def close(self) -> None:
        """Stop every worker process (idempotent); in-process shards are dropped."""
        # Workers hold nothing shared but their own pipe, so terminating them
        # is the whole shutdown.
        for proc in self._procs:
            proc.terminate()
        for proc, conn in zip(self._procs, self._conns):
            proc.join()
            conn.close()
        self._procs, self._conns, self._local = [], [], {}

    def __enter__(self) -> "Workers":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
