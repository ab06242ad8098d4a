"""Workload generation: VM demand distributions, arrival processes, traces.

The authors' consolidation evaluation (GRID'11, summarized in Section III.B of
the reproduced paper) uses synthetically generated VM resource demands; the
Snooze evaluation (CCGrid'12, Section II.F) submits batches of identical VMs
running a benchmark application.  This package reproduces both workload styles
and adds the time-varying CPU traces needed for the overload/underload and
energy experiments:

* :mod:`repro.workloads.distributions` -- static demand vectors.
* :mod:`repro.workloads.traces` -- CPU-utilization time series (constant,
  random walk, periodic/diurnal, bursty, spike).
* :mod:`repro.workloads.generator` -- VM batches and arrival processes.
"""

from repro.workloads.distributions import (
    CorrelatedDemandDistribution,
    DemandDistribution,
    HeavyTailDemandDistribution,
    NormalDemandDistribution,
    UniformDemandDistribution,
)
from repro.workloads.traces import (
    BurstyTrace,
    CompositeTrace,
    ConstantTrace,
    DiurnalTrace,
    RandomWalkTrace,
    SpikeTrace,
    TraceReplay,
    UtilizationTrace,
    make_trace_factory,
)
from repro.workloads.generator import (
    ArrivalProcess,
    BatchArrival,
    ExponentialLifetime,
    FixedLifetime,
    InfiniteLifetime,
    LifetimeDistribution,
    PoissonArrival,
    UniformArrival,
    UniformLifetime,
    VMRequest,
    WorkloadGenerator,
    consolidation_instance,
    make_arrival,
    make_lifetime,
)

__all__ = [
    "DemandDistribution",
    "UniformDemandDistribution",
    "NormalDemandDistribution",
    "CorrelatedDemandDistribution",
    "HeavyTailDemandDistribution",
    "UtilizationTrace",
    "ConstantTrace",
    "RandomWalkTrace",
    "DiurnalTrace",
    "BurstyTrace",
    "SpikeTrace",
    "TraceReplay",
    "CompositeTrace",
    "make_trace_factory",
    "VMRequest",
    "ArrivalProcess",
    "BatchArrival",
    "PoissonArrival",
    "UniformArrival",
    "make_arrival",
    "LifetimeDistribution",
    "InfiniteLifetime",
    "FixedLifetime",
    "ExponentialLifetime",
    "UniformLifetime",
    "make_lifetime",
    "WorkloadGenerator",
    "consolidation_instance",
]
