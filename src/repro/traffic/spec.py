"""Declarative traffic specifications (the ``traffic`` section of a scenario).

A :class:`TrafficSpec` declares the request-serving side of a scenario: one or
more :class:`ServiceSpec` entries, each a named replica group of identical VMs
serving an offered request stream.  Everything is plain data and round-trips
losslessly through ``to_dict`` / ``from_dict`` (and therefore JSON), exactly
like the rest of :class:`~repro.scenarios.spec.ScenarioSpec`.

Validation happens at construction: profiles compile through
:func:`~repro.traffic.profiles.compile_profile` (bad trace kinds/parameters
fail immediately) and autoscaling selections validate against the policy
registry with the same error messages as every other policy kind.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.plain import PlainData
from repro.policies.registry import validate_policy_selection
from repro.traffic.profiles import compile_profile


@dataclass
class ServiceSpec(PlainData):
    """One request-serving service: a replica group plus its offered traffic.

    ``service_rate`` is the requests/second one replica sustains at full CPU;
    the traffic plane translates offered load into per-replica utilization
    (driving the existing overload/underload machinery) and into M/M/c
    latency/drop metrics.  ``replica`` is the resource reservation of each
    replica VM as ``{dimension: fraction}``.
    """

    name: str
    #: Offered-rate profile: ``{"kind": <trace kind>, "peak_rps": ..., **params}``.
    profile: Dict[str, object] = field(
        default_factory=lambda: {"kind": "constant", "level": 1.0, "peak_rps": 50.0}
    )
    initial_replicas: int = 1
    #: Requests/second one replica serves at full CPU utilization.
    service_rate: float = 100.0
    #: Resource reservation of each replica VM (fractions of a unit host).
    replica: Dict[str, float] = field(
        default_factory=lambda: {"cpu": 0.25, "memory": 0.25, "network": 0.1}
    )
    #: Optional autoscaling selection ``{"name": ..., **params}`` validated
    #: against the ``autoscaling`` policy registry kind; ``None`` keeps the
    #: replica count fixed at ``initial_replicas``.
    autoscaling: Optional[Dict[str, object]] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("service needs a name")
        if self.initial_replicas < 0:
            raise ValueError("initial_replicas must be non-negative")
        if self.service_rate <= 0:
            raise ValueError("service_rate must be positive")
        if not self.replica:
            raise ValueError("replica reservation must be non-empty")
        for dimension, fraction in self.replica.items():
            if not (0.0 < float(fraction) <= 1.0):
                raise ValueError(
                    f"replica reservation {dimension!r} must be in (0, 1], got {fraction}"
                )
        # Compile once so a bad profile fails at spec construction, not
        # mid-run; the result is discarded (profiles are rebuilt per run from
        # the run's own named stream).
        compile_profile(self.profile, np.random.default_rng(0))
        if self.autoscaling is not None:
            validate_policy_selection("autoscaling", self.autoscaling)


@dataclass
class TrafficSpec(PlainData):
    """The request-traffic section of a scenario: services plus plane cadence."""

    services: List[ServiceSpec] = field(default_factory=list)
    #: Traffic-tick interval in simulated seconds (queue evaluation cadence).
    interval: float = 10.0
    #: Autoscaling decision cadence (a multiple of ``interval`` keeps both
    #: ticks on one coalesced grid, but any positive value is allowed).
    autoscale_interval: float = 60.0

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ValueError("traffic interval must be positive")
        if self.autoscale_interval <= 0:
            raise ValueError("autoscale_interval must be positive")
        names = [service.name for service in self.services]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate service names: {sorted(names)}")

    @property
    def enabled(self) -> bool:
        """True when the spec declares at least one service."""
        return bool(self.services)

    def autoscaling_names(self) -> Dict[str, str]:
        """``{service: policy name}`` for services with autoscaling enabled."""
        return {
            service.name: str(service.autoscaling["name"])
            for service in self.services
            if service.autoscaling is not None
        }
