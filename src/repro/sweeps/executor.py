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
"""

from __future__ import annotations

import multiprocessing
import sys
import time
import traceback
from typing import Dict, List, Sequence

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
        # Prefer fork on Linux only: workers inherit the imported registries
        # instead of re-importing the package per process.  On macOS fork is
        # available but unsafe (the spawn default exists for a reason), so
        # everywhere else the platform default start method is kept.
        self.start_method = (
            "fork"
            if sys.platform == "linux" and "fork" in multiprocessing.get_all_start_methods()
            else None
        )

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
