"""Workload generation: VM requests, arrival processes, consolidation instances.

Two consumers:

* the **hierarchy simulation** (experiments E3-E6) needs *timed* VM submission
  requests -- batches or Poisson arrivals of :class:`VMRequest`;
* the **consolidation study** (experiments E1, E2, E7) needs *static*
  bin-packing instances -- demand matrices plus host capacities, produced by
  :func:`consolidation_instance`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.resources import DEFAULT_DIMENSIONS, ResourceVector
from repro.cluster.vm import VirtualMachine
from repro.workloads.distributions import DemandDistribution, UniformDemandDistribution
from repro.workloads.traces import ConstantTrace


@dataclass
class VMRequest:
    """A client submission request: when a VM arrives and what it asks for."""

    arrival_time: float
    vm: VirtualMachine

    def __post_init__(self) -> None:
        if self.arrival_time < 0:
            raise ValueError("arrival_time must be non-negative")


class ArrivalProcess:
    """Base class for arrival processes; subclasses yield arrival offsets."""

    def arrival_times(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Return ``count`` non-decreasing arrival times starting at >= 0."""
        raise NotImplementedError


@dataclass
class BatchArrival(ArrivalProcess):
    """All VMs submitted at the same instant (the CCGrid'12 submission experiment)."""

    at: float = 0.0

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError("batch arrival time must be non-negative")

    def arrival_times(self, count: int, rng: np.random.Generator) -> np.ndarray:  # noqa: ARG002
        return np.full(count, float(self.at))


@dataclass
class PoissonArrival(ArrivalProcess):
    """Poisson arrivals with ``rate_per_hour`` starting at ``start``."""

    rate_per_hour: float = 60.0
    start: float = 0.0

    def __post_init__(self) -> None:
        if self.rate_per_hour <= 0:
            raise ValueError("rate_per_hour must be positive")
        if self.start < 0:
            raise ValueError("start must be non-negative")

    def arrival_times(self, count: int, rng: np.random.Generator) -> np.ndarray:
        gaps = rng.exponential(3600.0 / self.rate_per_hour, size=count)
        return self.start + np.cumsum(gaps)


@dataclass
class UniformArrival(ArrivalProcess):
    """Arrivals spread uniformly at random over ``[start, start + window]``.

    A flash crowd is a short window at a high count; a trickle is a long one.
    """

    start: float = 0.0
    window: float = 3600.0

    def __post_init__(self) -> None:
        if self.window <= 0:
            raise ValueError("window must be positive")
        if self.start < 0:
            raise ValueError("start must be non-negative")

    def arrival_times(self, count: int, rng: np.random.Generator) -> np.ndarray:
        return np.sort(self.start + rng.uniform(0.0, self.window, size=count))


#: Arrival processes by kind: lookups are case-insensitive, and unknown kinds
#: raise with the alternatives listed.
_ARRIVAL_KINDS: dict = {
    "batch": BatchArrival,
    "poisson": PoissonArrival,
    "uniform": UniformArrival,
}


def make_arrival(kind: str, **kwargs) -> ArrivalProcess:
    """Factory used by the scenario engine (``batch``, ``poisson``, ``uniform``)."""
    try:
        cls = _ARRIVAL_KINDS[kind.lower()]
    except KeyError as exc:
        raise ValueError(
            f"unknown arrival process kind {kind!r}; "
            f"available: {', '.join(sorted(_ARRIVAL_KINDS))}"
        ) from exc
    return cls(**kwargs)


# --------------------------------------------------------------------- lifetimes
class LifetimeDistribution:
    """Base class for VM lifetime (runtime) distributions.

    A lifetime is the seconds a VM runs before departing and releasing its
    resources; ``None`` means the VM runs until the end of the experiment.
    Churn scenarios combine an arrival process with a finite lifetime
    distribution so the cluster sees continuous departures.
    """

    def sample(self, count: int, rng: np.random.Generator) -> List[Optional[float]]:
        """Return ``count`` lifetimes in seconds (``None`` = infinite)."""
        raise NotImplementedError


@dataclass
class InfiniteLifetime(LifetimeDistribution):
    """VMs never depart -- the seed's one-shot submission behaviour."""

    def sample(self, count: int, rng: np.random.Generator) -> List[Optional[float]]:  # noqa: ARG002
        return [None] * count


@dataclass
class FixedLifetime(LifetimeDistribution):
    """Every VM runs exactly ``seconds`` then departs."""

    seconds: float = 3600.0

    def __post_init__(self) -> None:
        if self.seconds <= 0:
            raise ValueError("lifetime seconds must be positive")

    def sample(self, count: int, rng: np.random.Generator) -> List[Optional[float]]:  # noqa: ARG002
        return [float(self.seconds)] * count


@dataclass
class ExponentialLifetime(LifetimeDistribution):
    """Memoryless lifetimes with the given ``mean`` (floored at ``minimum``)."""

    mean: float = 3600.0
    minimum: float = 0.0

    def __post_init__(self) -> None:
        if self.mean <= 0:
            raise ValueError("mean lifetime must be positive")
        if self.minimum < 0:
            raise ValueError("minimum lifetime must be non-negative")

    def sample(self, count: int, rng: np.random.Generator) -> List[Optional[float]]:
        draws = rng.exponential(self.mean, size=count)
        return [float(max(draw, self.minimum)) for draw in draws]


@dataclass
class UniformLifetime(LifetimeDistribution):
    """Lifetimes drawn uniformly from ``[low, high]`` seconds."""

    low: float = 600.0
    high: float = 7200.0

    def __post_init__(self) -> None:
        if not (0.0 < self.low <= self.high):
            raise ValueError("require 0 < low <= high")

    def sample(self, count: int, rng: np.random.Generator) -> List[Optional[float]]:
        return [float(draw) for draw in rng.uniform(self.low, self.high, size=count)]


#: Lifetime distributions by kind (looked up like arrivals).
_LIFETIME_KINDS: dict = {
    "infinite": InfiniteLifetime,
    "fixed": FixedLifetime,
    "exponential": ExponentialLifetime,
    "uniform": UniformLifetime,
}


def make_lifetime(kind: str, **kwargs) -> LifetimeDistribution:
    """Factory used by the scenario engine (``infinite``, ``fixed``, ``exponential``, ``uniform``)."""
    try:
        cls = _LIFETIME_KINDS[kind.lower()]
    except KeyError as exc:
        raise ValueError(
            f"unknown lifetime distribution kind {kind!r}; "
            f"available: {', '.join(sorted(_LIFETIME_KINDS))}"
        ) from exc
    return cls(**kwargs)


class WorkloadGenerator:
    """Generate timed VM submission workloads for the hierarchy simulation."""

    def __init__(
        self,
        demand_distribution: Optional[DemandDistribution] = None,
        arrival_process: Optional[ArrivalProcess] = None,
        trace_factory=None,
        runtime_mean: Optional[float] = None,
        lifetime_distribution: Optional[LifetimeDistribution] = None,
        dimensions: Sequence[str] = DEFAULT_DIMENSIONS,
    ) -> None:
        if runtime_mean is not None and lifetime_distribution is not None:
            raise ValueError("pass either runtime_mean or lifetime_distribution, not both")
        self.demand_distribution = demand_distribution or UniformDemandDistribution(
            dimensions=dimensions
        )
        self.arrival_process = arrival_process or BatchArrival()
        #: Callable ``trace_factory(rng) -> UtilizationTrace`` applied per VM;
        #: defaults to a constant full-reservation trace.
        self.trace_factory = trace_factory or (lambda rng: ConstantTrace(1.0))
        #: Mean exponential runtime in seconds (None => VMs run forever).
        #: Legacy shorthand for ``ExponentialLifetime(mean=runtime_mean)``.
        self.runtime_mean = runtime_mean
        if lifetime_distribution is not None:
            self.lifetime_distribution: LifetimeDistribution = lifetime_distribution
        elif runtime_mean is not None:
            self.lifetime_distribution = ExponentialLifetime(mean=runtime_mean)
        else:
            self.lifetime_distribution = InfiniteLifetime()
        self.dimensions = tuple(dimensions)

    def generate(self, count: int, rng: np.random.Generator) -> List[VMRequest]:
        """Produce ``count`` timed VM requests sorted by arrival time."""
        if count < 0:
            raise ValueError("count must be non-negative")
        if count == 0:
            return []
        demands = self.demand_distribution.sample(count, rng)
        arrivals = self.arrival_process.arrival_times(count, rng)
        runtimes: List[Optional[float]] = self.lifetime_distribution.sample(count, rng)
        requests = []
        for index in range(count):
            vm = VirtualMachine(
                ResourceVector(demands[index], self.dimensions),
                runtime=runtimes[index],
                trace=self.trace_factory(rng),
            )
            requests.append(VMRequest(float(arrivals[index]), vm))
        requests.sort(key=lambda request: request.arrival_time)
        return requests

    def stream(self, count: int, rng: np.random.Generator) -> Iterator[VMRequest]:
        """Lazily iterate requests (same content as :meth:`generate`)."""
        yield from self.generate(count, rng)


def consolidation_instance(
    n_vms: int,
    rng: np.random.Generator,
    demand_distribution: Optional[DemandDistribution] = None,
    host_capacity: Sequence[float] = (1.0, 1.0),
    dimensions: Optional[Sequence[str]] = None,
    n_hosts: Optional[int] = None,
    slack: float = 1.3,
) -> Tuple[np.ndarray, np.ndarray]:
    """Build a static vector bin-packing instance ``(demands, capacities)``.

    ``demands`` has shape ``(n_vms, d)`` and ``capacities`` ``(n_hosts, d)``.
    When ``n_hosts`` is omitted it is sized so that a naive lower bound needs
    roughly ``n_hosts / slack`` hosts, which matches the GRID'11 setup where
    the host pool always suffices but consolidation quality determines how
    many hosts end up used.
    """
    if n_vms <= 0:
        raise ValueError("n_vms must be positive")
    if slack < 1.0:
        raise ValueError("slack must be >= 1")
    capacity = np.asarray(host_capacity, dtype=float)
    if dimensions is None:
        dimensions = DEFAULT_DIMENSIONS[: capacity.shape[0]]
    if demand_distribution is None:
        demand_distribution = UniformDemandDistribution(dimensions=dimensions)
    if demand_distribution.n_dimensions != capacity.shape[0]:
        raise ValueError(
            f"distribution dimensionality {demand_distribution.n_dimensions} does not match "
            f"host capacity dimensionality {capacity.shape[0]}"
        )
    demands = demand_distribution.sample(n_vms, rng)
    # Demands are fractions of the reference host; scale to the capacity units.
    demands = demands * capacity[np.newaxis, :]
    if n_hosts is None:
        lower_bound = int(np.ceil(np.max(np.sum(demands, axis=0) / capacity)))
        n_hosts = max(1, int(np.ceil(lower_bound * slack)) + 1)
    capacities = np.tile(capacity, (n_hosts, 1))
    return demands, capacities
