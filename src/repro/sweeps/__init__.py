"""Sweep engine: declarative experiment grids over the scenario catalog.

The paper's evaluation is a grid -- algorithms x cluster sizes x workloads --
and this package turns "a grid" into data the way :mod:`repro.scenarios`
turned "an experiment" into data:

* :class:`~repro.sweeps.spec.SweepSpec` declares the axes (scenario names,
  policy-override cells, threshold grids, seeds or spawn-derived replicates)
  and expands them into :class:`~repro.sweeps.spec.RunSpec` cells;
* :mod:`repro.sweeps.executor` runs one cell with failure isolation (seeds
  are derived once via ``numpy.random.SeedSequence.spawn``), in the calling
  process or across :class:`repro.workers.Workers` processes;
* :mod:`repro.sweeps.distributed` scales past one machine: a blocking-socket
  coordinator (one thread per runner connection) serves cells to work-pulling
  runner clients (:mod:`repro.sweeps.runner`) over a length-prefixed JSON
  protocol, with per-lease deadlines, runner heartbeats, straggler-aware
  dispatch and speculative re-dispatch -- and the same byte-identical-report
  guarantee;
* :class:`~repro.sweeps.report.SweepReport` aggregates per-run
  :class:`~repro.scenarios.runner.ScenarioResult` data into per-cell metrics
  (energy, migrations, SLA violations, packing) with JSON and CSV output whose
  bytes are independent of the backend, plus Pareto-front analysis
  (:func:`~repro.sweeps.report.analyze_report`) so sweeps end in answers;
* :mod:`repro.sweeps.catalog` names ready-made grids (``smoke-2x2``,
  ``paper-e5-grid``, ``policy-matrix``).

Use ``repro-sim sweep list|describe|run --jobs N|--runners N``,
``sweep serve`` / ``sweep work --connect`` / ``sweep analyze`` from the CLI,
or::

    from repro.sweeps import DistributedExecutor, get_sweep, run_sweep
    report = run_sweep(get_sweep("smoke-2x2"), executor=DistributedExecutor(runners=4))
    print(report.pareto())
"""

from repro.sweeps.spec import RunSpec, SweepSpec, policy_cell_label, thresholds_label
from repro.sweeps.executor import execute_run
from repro.sweeps.report import (
    PARETO_OBJECTIVES,
    SweepReport,
    analyze_report,
    pareto_csv,
    pareto_json,
    pareto_ranks,
)
from repro.sweeps.engine import run_sweep
from repro.sweeps.distributed import (
    CoordinatorThread,
    DistributedExecutor,
    SweepAborted,
    SweepCoordinator,
    collect_outcomes,
    spawn_loopback_runner,
)
from repro.sweeps.runner import SweepRunner
from repro.sweeps.catalog import SWEEPS, get_sweep, iter_sweeps, register_sweep, sweep_names

__all__ = [
    "SweepSpec",
    "RunSpec",
    "policy_cell_label",
    "thresholds_label",
    "execute_run",
    "SweepReport",
    "PARETO_OBJECTIVES",
    "analyze_report",
    "pareto_ranks",
    "pareto_json",
    "pareto_csv",
    "run_sweep",
    "SweepCoordinator",
    "CoordinatorThread",
    "DistributedExecutor",
    "SweepAborted",
    "SweepRunner",
    "collect_outcomes",
    "spawn_loopback_runner",
    "SWEEPS",
    "register_sweep",
    "sweep_names",
    "get_sweep",
    "iter_sweeps",
]
