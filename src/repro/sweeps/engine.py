"""The one-call sweep entry point: expand, execute, aggregate."""

from __future__ import annotations

import time

from repro.sweeps.executor import execute_run
from repro.sweeps.report import SweepReport
from repro.sweeps.spec import SweepSpec
from repro.workers import Workers


def run_sweep(spec: SweepSpec, jobs: int = 1, executor=None) -> SweepReport:
    """Execute every cell of ``spec`` and return the aggregated report.

    ``jobs`` local :class:`~repro.workers.Workers` run the cells (1 = in the
    calling process); an explicit ``executor`` (anything with a
    ``map(payloads)`` method, such as a
    :class:`~repro.sweeps.distributed.DistributedExecutor` fanning the cells
    out to loopback runners forked from this process) overrides it.  The report's
    deterministic content is independent of the backend; wall-clock timing
    is reported separately in ``report.timing``.
    """
    payloads = [run.to_dict() for run in spec.expand()]
    start = time.perf_counter()
    if executor is None:
        with Workers(jobs) as workers:
            outcomes = workers.map(execute_run, payloads)
    else:
        outcomes = executor.map(payloads)
    wall = time.perf_counter() - start
    return SweepReport.from_outcomes(
        spec,
        outcomes,
        jobs=getattr(executor, "jobs", jobs),
        wall_seconds=wall,
    )
