"""Megafleet specs: declarative descriptions of warehouse-scale fleets.

The scenario catalog (``repro.scenarios``) runs the full object-level Snooze
hierarchy -- every LC a component, every heartbeat an event -- which is the
right fidelity up to a few thousand Local Controllers and is pinned by golden
fixtures.  The megafleet catalog describes fleets one to two orders of
magnitude beyond that (ROADMAP item 2: 100k LCs), executed by the *sharded*
lockstep engine in :mod:`repro.megafleet.engine`: per-GM group state as
resident arrays, advanced epoch by epoch with deterministic message exchange
at epoch boundaries.

Specs are plain frozen dataclasses (JSON-round-trippable via ``to_dict``), and
the catalog (a :class:`~repro.plain.Catalog`) registers the named fleets the
CLI and benchmarks run:

* ``megafleet-1k`` -- smoke-test size, used by the unit tests.
* ``megafleet-10k`` -- the CI-sized cell of the scale gate.
* ``megafleet-100k`` -- the ROADMAP target fleet (best-effort in CI).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.plain import Catalog, PlainData


@dataclass(frozen=True)
class MegafleetSpec(PlainData):
    """One warehouse-scale fleet: sizes, workload and lockstep cadence."""

    name: str
    description: str
    #: Fleet size: Local Controllers, evenly divided over the Group Managers.
    local_controllers: int
    group_managers: int
    #: Simulated seconds and the lockstep epoch (the summary-exchange
    #: interval: inter-shard messages flow only at epoch boundaries).
    duration: float
    epoch: float
    #: Resource dimensions and the homogeneous per-LC capacity.
    dimensions: Tuple[str, ...] = ("cpu", "memory", "network")
    node_capacity: Tuple[float, ...] = (1.0, 1.0, 1.0)
    #: Mean fleet-wide VM arrivals per epoch (Poisson, coordinator stream).
    arrivals_per_epoch: float = 50.0
    #: Per-dimension uniform VM demand fractions of one node's capacity.
    vm_demand_low: float = 0.05
    vm_demand_high: float = 0.35
    #: Mean VM lifetime in simulated seconds (exponential).
    vm_lifetime_mean: float = 300.0

    def __post_init__(self) -> None:
        if self.local_controllers < self.group_managers or self.group_managers < 1:
            raise ValueError("need at least one LC per group manager")
        if self.epoch <= 0 or self.duration < self.epoch:
            raise ValueError(
                "duration must cover at least one positive epoch "
                f"(epoch={self.epoch!r}, duration={self.duration!r})"
            )
        if len(self.node_capacity) != len(self.dimensions):
            raise ValueError("node_capacity must match dimensions")
        for capacity in self.node_capacity:
            if capacity <= 0:
                raise ValueError(
                    f"node_capacity must be positive in every dimension (got {capacity!r})"
                )
        if self.vm_demand_low < 0 or self.vm_demand_high < self.vm_demand_low:
            raise ValueError("need 0 <= vm_demand_low <= vm_demand_high")
        if self.arrivals_per_epoch < 0:
            raise ValueError("arrivals_per_epoch must be >= 0")
        if self.vm_lifetime_mean <= 0:
            raise ValueError(
                f"vm_lifetime_mean must be positive seconds (got {self.vm_lifetime_mean!r})"
            )

    @property
    def n_epochs(self) -> int:
        """Number of full lockstep epochs in the run."""
        return int(self.duration // self.epoch)

    def group_sizes(self) -> List[int]:
        """LCs per group manager (even split, remainder to the first groups)."""
        base, extra = divmod(self.local_controllers, self.group_managers)
        return [base + (1 if gid < extra else 0) for gid in range(self.group_managers)]


MEGAFLEETS = Catalog("megafleet", MegafleetSpec)
register_megafleet = MEGAFLEETS.register
megafleet_names = MEGAFLEETS.names
get_megafleet = MEGAFLEETS.get


@register_megafleet
def _megafleet_1k() -> MegafleetSpec:
    return MegafleetSpec(
        name="megafleet-1k",
        description="Smoke-test fleet: 1k LCs over 16 groups, short horizon.",
        local_controllers=1_000,
        group_managers=16,
        duration=120.0,
        epoch=10.0,
        arrivals_per_epoch=40.0,
        vm_lifetime_mean=120.0,
    )


@register_megafleet
def _megafleet_10k() -> MegafleetSpec:
    return MegafleetSpec(
        name="megafleet-10k",
        description="CI-sized cell of the scale gate: 10k LCs over 32 groups.",
        local_controllers=10_000,
        group_managers=32,
        duration=300.0,
        epoch=10.0,
        arrivals_per_epoch=400.0,
        vm_lifetime_mean=240.0,
    )


@register_megafleet
def _megafleet_100k() -> MegafleetSpec:
    return MegafleetSpec(
        name="megafleet-100k",
        description="The ROADMAP item-2 target: 100k LCs over 256 groups.",
        local_controllers=100_000,
        group_managers=256,
        duration=600.0,
        epoch=20.0,
        arrivals_per_epoch=2_000.0,
        vm_lifetime_mean=300.0,
    )
