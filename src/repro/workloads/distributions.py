"""Static VM demand distributions.

Each distribution produces ``(n, d)`` matrices of per-VM resource demands
expressed as fractions of a reference host capacity.  The GRID'11 evaluation
the paper summarizes draws CPU and memory demands uniformly at random from a
bounded interval; the correlated distribution ties a VM's dimensions together,
the harder case for single-dimension FFD.
"""

from __future__ import annotations

import abc
from typing import Sequence

import numpy as np

from repro.cluster.resources import DEFAULT_DIMENSIONS


class DemandDistribution(abc.ABC):
    """Base class for VM demand generators."""

    def __init__(self, dimensions: Sequence[str] = DEFAULT_DIMENSIONS) -> None:
        self.dimensions = tuple(dimensions)

    @property
    def n_dimensions(self) -> int:
        """Number of resource dimensions produced per VM."""
        return len(self.dimensions)

    @abc.abstractmethod
    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Return an ``(count, d)`` matrix of demands in (0, 1]."""

    def _clip(self, demands: np.ndarray) -> np.ndarray:
        """Keep demands strictly positive and no larger than a full host."""
        return np.clip(demands, 0.01, 1.0)


class UniformDemandDistribution(DemandDistribution):
    """Independent uniform demands per dimension -- the GRID'11 setting.

    The authors draw demands uniformly from ``[low, high]`` relative to the
    host capacity; defaults follow their small/medium VM mix (10 %-50 % of a
    host per dimension).
    """

    def __init__(
        self,
        low: float = 0.1,
        high: float = 0.5,
        dimensions: Sequence[str] = DEFAULT_DIMENSIONS,
    ) -> None:
        super().__init__(dimensions)
        if not (0.0 < low <= high <= 1.0):
            raise ValueError("require 0 < low <= high <= 1")
        self.low = float(low)
        self.high = float(high)

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        demands = rng.uniform(self.low, self.high, size=(count, self.n_dimensions))
        return self._clip(demands)


class CorrelatedDemandDistribution(DemandDistribution):
    """Demands whose dimensions are positively correlated.

    A VM's memory and network needs usually track its CPU size; correlation
    ``rho`` interpolates between fully independent uniforms (rho=0) and
    perfectly correlated sizes (rho=1).  Correlated demands are the harder
    case for single-dimension FFD, which is precisely the weakness the paper
    attributes to it ("presorting the VMs according to a single dimension").
    """

    def __init__(
        self,
        low: float = 0.1,
        high: float = 0.6,
        rho: float = 0.8,
        dimensions: Sequence[str] = DEFAULT_DIMENSIONS,
    ) -> None:
        super().__init__(dimensions)
        if not (0.0 < low <= high <= 1.0):
            raise ValueError("require 0 < low <= high <= 1")
        if not (0.0 <= rho <= 1.0):
            raise ValueError("rho must be in [0, 1]")
        self.low = float(low)
        self.high = float(high)
        self.rho = float(rho)

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        base = rng.uniform(self.low, self.high, size=(count, 1))
        independent = rng.uniform(self.low, self.high, size=(count, self.n_dimensions))
        demands = self.rho * base + (1.0 - self.rho) * independent
        return self._clip(demands)


_DEMAND_KINDS: dict = {
    "correlated": CorrelatedDemandDistribution,
    "uniform": UniformDemandDistribution,
}


def make_distribution(name: str, **kwargs) -> DemandDistribution:
    """Factory used by the scenario engine (``correlated``, ``uniform``)."""
    try:
        cls = _DEMAND_KINDS[name.lower()]
    except KeyError as exc:
        raise ValueError(
            f"unknown demand distribution {name!r}; available: {', '.join(sorted(_DEMAND_KINDS))}"
        ) from exc
    return cls(**kwargs)
