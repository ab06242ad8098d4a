"""Sweep cell execution with failure isolation.

:func:`execute_run` consumes one payload dictionary produced by
:meth:`~repro.sweeps.spec.RunSpec.to_dict` and returns one *outcome* dictionary:

``{"run": <payload>, "status": "ok"|"failed", "result": <ScenarioResult dict>,
"error": <str|None>, "traceback": <str|None>, "wall_seconds": <float>}``

Every backend maps it over a sweep's payloads -- in the calling process or
across local worker processes (:meth:`repro.workers.Workers.map`, ``--jobs``),
or on socket runners (:mod:`repro.sweeps.distributed`, ``--runners``) -- and
returns the outcomes in run-index order.

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

import time
from typing import Dict

from repro.scenarios.runner import ScenarioRunner
from repro.sweeps.spec import RunSpec
from repro.workers import truncated_traceback


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
            "traceback": truncated_traceback(),
            "wall_seconds": time.perf_counter() - start,
        }
