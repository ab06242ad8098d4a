"""Sweep execution: serial and multiprocessing backends with failure isolation.

Both executors consume the payload dictionaries produced by
:meth:`~repro.sweeps.spec.RunSpec.to_dict` and return one *outcome* dictionary
per run, in run-index order:

``{"run": <payload>, "status": "ok"|"failed", "result": <ScenarioResult dict>,
"error": <str|None>, "wall_seconds": <float>}``

Design points:

* **Failure isolation** -- :func:`execute_run` catches any exception a run
  raises and folds it into a ``failed`` outcome, so one bad cell never kills
  the sweep (the report lists it, the CLI exits non-zero).
* **Determinism** -- the run seed travels inside the payload (derived once at
  expansion time via ``SeedSequence.spawn``); workers never re-derive
  randomness, so ``jobs=1`` and ``jobs=N`` produce identical outcome lists.
* **Picklability** -- :func:`execute_run` is a module-level function over plain
  dictionaries, which keeps both ``fork`` and ``spawn`` start methods working.
* **Wall clock** -- ``wall_seconds`` is measured per run for the benchmark
  harness, but it is *excluded* from the deterministic report serialization
  (see :mod:`repro.sweeps.report`).

:class:`ResidentWorkers` is the third backend, for callers that are not a
one-shot map: stateful shards built once inside long-lived workers and called
repeatedly, so only arguments and replies cross a process boundary (the
megafleet engine's epoch exchange).
"""

from __future__ import annotations

import multiprocessing
import pickle
import sys
import time
import traceback
from typing import Callable, Dict, List, Optional, Sequence

from repro.scenarios.runner import ScenarioRunner
from repro.sweeps.spec import RunSpec

#: Upper bound on the traceback text carried in a failed outcome.  Tracebacks
#: are a debugging aid shipped back from (possibly remote) workers; the *tail*
#: is the informative end, so truncation drops leading frames.
TRACEBACK_LIMIT_CHARS = 4000


def _truncated_traceback() -> str:
    """The current exception's traceback, tail-truncated for transport."""
    text = traceback.format_exc()
    if len(text) > TRACEBACK_LIMIT_CHARS:
        text = "... [truncated] ...\n" + text[-TRACEBACK_LIMIT_CHARS:]
    return text


def execute_run(payload: Dict[str, object]) -> Dict[str, object]:
    """Execute one sweep cell; never raises (failures become outcome entries)."""
    start = time.perf_counter()
    try:
        run = RunSpec.from_dict(payload)
        spec = run.build_scenario_spec()
        result = ScenarioRunner(
            spec,
            seed=run.seed,
            duration=run.duration,
            record_interval=run.record_interval,
        ).run()
        return {
            "run": payload,
            "status": "ok",
            "result": result.to_dict(),
            "error": None,
            "traceback": None,
            "wall_seconds": time.perf_counter() - start,
        }
    except Exception as exc:  # noqa: BLE001 - isolation is the whole point
        return {
            "run": payload,
            "status": "failed",
            "result": None,
            "error": f"{type(exc).__name__}: {exc}",
            # Debugging context only: the report layer deliberately drops it,
            # so canonical serializations stay stable across Python versions
            # and worker filesystem layouts.
            "traceback": _truncated_traceback(),
            "wall_seconds": time.perf_counter() - start,
        }


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


class SerialExecutor:
    """Run every cell in-process, one after another.

    ``fn`` defaults to the sweep cell runner but any picklable module-level
    function over plain payloads works -- the parallel ACO colonies reuse the
    executor pair with their own worker function.
    """

    jobs = 1

    def __init__(self, fn=execute_run) -> None:
        self.fn = fn

    def map(self, payloads: Sequence[Dict[str, object]]) -> List[Dict[str, object]]:
        """Outcomes for ``payloads``, in order."""
        return [self.fn(payload) for payload in payloads]


class MultiprocessExecutor:
    """Run cells across a ``multiprocessing`` pool of worker processes.

    ``multiprocessing.Pool.map`` preserves input order, so the outcome list is
    identical to the serial executor's regardless of completion order.  As with
    :class:`SerialExecutor`, ``fn`` may be any picklable module-level function
    (the default runs sweep cells).  One payload per pool task keeps the
    finest-grained load balancing.
    """

    def __init__(self, jobs: int, fn=execute_run) -> None:
        if jobs < 2:
            raise ValueError("MultiprocessExecutor needs jobs >= 2 (use SerialExecutor)")
        self.jobs = int(jobs)
        self.fn = fn
        self.start_method = _start_method()

    def map(self, payloads: Sequence[Dict[str, object]]) -> List[Dict[str, object]]:
        """Outcomes for ``payloads``, in order, computed by worker processes."""
        payloads = list(payloads)
        if not payloads:
            return []
        context = multiprocessing.get_context(self.start_method)
        workers = min(self.jobs, len(payloads))
        with context.Pool(processes=workers) as pool:
            return pool.map(self.fn, payloads, chunksize=1)


def make_executor(jobs: int = 1, fn=execute_run):
    """The executor for ``jobs`` parallel workers (serial when ``jobs == 1``)."""
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    return SerialExecutor(fn) if jobs == 1 else MultiprocessExecutor(jobs, fn=fn)


# ---------------------------------------------------------- resident workers
def _serve(shards: dict, factory: Callable, method: Optional[str], batch) -> tuple:
    """One call on one worker's shards; never raises.

    ``batch`` is ``[(shard index, argument tuple), ...]``; ``method=None``
    builds the shards with ``factory``.  Returns ``("ok", [(reply, seconds),
    ...])`` or ``("failed", shard index, traceback tail)``.
    """
    replies = []
    for index, args in batch:
        started = time.perf_counter()
        try:
            if method is None:
                shards[index] = factory(*args)
                reply = None
            else:
                reply = getattr(shards[index], method)(*args)
        except Exception:  # noqa: BLE001 - shipped to the caller, which raises
            return "failed", index, _truncated_traceback()
        replies.append((reply, time.perf_counter() - started))
    return "ok", replies


def _resident_worker_main(conn, factory: Callable) -> None:
    """Body of one worker process: serve calls on its shards until told to stop."""
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


class ResidentWorkers:
    """Stateful shards built once where they run, then called many times.

    ``Pool.map`` ships a self-contained payload out and a result back, which
    suits one-shot maps (sweep cells, ACO colonies).  A lockstep engine calls
    the *same* state every epoch, and shipping that state each time costs more
    than advancing it.  Here shard ``k`` is built by ``factory(*shard_args[k])``
    inside worker ``k % workers`` and stays there until :meth:`close`; a
    :meth:`call` carries only the arguments out and the replies back.

    With one worker the shards are plain objects in the calling process; with
    more, each worker is one ``multiprocessing.Process`` on one ``Pipe``, started
    once.  Both run the same :func:`_serve` loop over the same shard objects,
    so results cannot depend on ``jobs``.  ``factory`` must be a picklable
    module-level callable and every argument picklable (the ``spawn`` contract).

    A shard that raises, or a worker that dies, surfaces from :meth:`call` as
    one ``RuntimeError`` naming the shard; :meth:`close` (also the context
    manager exit) leaves no child process behind on any path.
    """

    def __init__(self, jobs: int, factory: Callable, shard_args: Sequence[tuple]) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        shard_args = list(shard_args)
        self.n_shards = len(shard_args)
        #: Workers advancing the shards; 1 means in the calling process.
        self.workers = max(1, min(int(jobs), self.n_shards))
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
                context = multiprocessing.get_context(_start_method())
                for _ in range(self.workers):
                    ours, theirs = context.Pipe()
                    proc = context.Process(
                        target=_resident_worker_main, args=(theirs, factory), daemon=True
                    )
                    proc.start()
                    self._procs.append(proc)
                    self._conns.append(ours)
                    # Only the worker may hold its end, or its death is no EOF here.
                    theirs.close()
            self.call(None, shard_args)
        except BaseException:
            self.close()
            raise

    def call(self, method: Optional[str], args: Optional[Sequence[tuple]] = None) -> list:
        """``shard.method(*args[k])`` on every shard; replies in shard order.

        ``method=None`` is the constructor's own first call: it builds shard
        ``k`` from ``factory(*args[k])``.
        """
        args = [()] * self.n_shards if args is None else list(args)
        batches = [
            [(index, args[index]) for index in range(worker, self.n_shards, self.workers)]
            for worker in range(self.workers)
        ]
        if self._procs:
            outcomes = self._exchange(method, batches)
        else:
            outcomes = [_serve(self._local, self._factory, method, batches[0])]
        replies: list = [None] * self.n_shards
        for batch, outcome in zip(batches, outcomes):
            if outcome[0] != "ok":
                _, index, remote_traceback = outcome
                raise RuntimeError(f"shard {index} failed:\n{remote_traceback}")
            for (index, _), (reply, seconds) in zip(batch, outcome[1]):
                replies[index] = reply
                self.compute_s[index] += seconds
        return replies

    def _exchange(self, method: Optional[str], batches: list) -> list:
        """Send every worker its batch, then collect every worker's outcome."""
        outcomes = []
        try:
            for worker, conn in enumerate(self._conns):
                data = pickle.dumps((method, batches[worker]), pickle.HIGHEST_PROTOCOL)
                self.bytes_out += len(data)
                conn.send_bytes(data)
            for worker, conn in enumerate(self._conns):
                data = conn.recv_bytes()
                self.bytes_in += len(data)
                outcomes.append(pickle.loads(data))
        except (EOFError, OSError) as exc:
            proc = self._procs[worker]
            proc.join(timeout=1.0)
            hosted = ", ".join(str(index) for index, _ in batches[worker])
            raise RuntimeError(
                f"worker of shard(s) {hosted} died (exit code {proc.exitcode}): "
                f"{type(exc).__name__}"
            ) from exc
        return outcomes

    def close(self) -> None:
        """Stop every worker process (idempotent); in-process shards are dropped."""
        # Workers hold nothing shared but their own pipe, so -- like
        # ``Pool.__exit__`` -- terminating them is the whole shutdown.
        for proc in self._procs:
            proc.terminate()
        for proc, conn in zip(self._procs, self._conns):
            proc.join()
            conn.close()
        self._procs, self._conns, self._local = [], [], {}

    def __enter__(self) -> "ResidentWorkers":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
