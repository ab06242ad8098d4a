"""The one-call sweep entry point: expand, execute, aggregate."""

from __future__ import annotations

import time

from repro.sweeps.executor import execute_run
from repro.sweeps.report import SweepReport
from repro.sweeps.spec import SweepSpec
from repro.workers import Workers


def run_sweep(
    spec: SweepSpec,
    jobs: int = 1,
    executor=None,
    runners: int = 0,
) -> SweepReport:
    """Execute every cell of ``spec`` and return the aggregated report.

    ``jobs`` local :class:`~repro.workers.Workers` run the cells (1 = in the
    calling process); ``runners`` >= 1 instead fans the cells out to that
    many loopback runner subprocesses through a
    :class:`~repro.sweeps.distributed.DistributedExecutor`; an explicit
    ``executor`` (anything with a ``map(payloads)`` method) overrides both.
    The report's deterministic content is independent of the backend;
    wall-clock timing is reported separately in ``report.timing``.
    """
    if executor is None and runners >= 1:
        if jobs != 1:
            raise ValueError("pass either jobs or runners, not both")
        from repro.sweeps.distributed import DistributedExecutor

        executor = DistributedExecutor(runners=runners)
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
