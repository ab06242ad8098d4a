"""Administrator configuration of a Snooze deployment.

Everything the paper describes as "system administrator specified" lives here:
heartbeat intervals, failure-detection timeouts, monitoring and summary
periods, the scheduling policies enabled at each level, the reconfiguration
interval and the energy-management settings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.energy.power_manager import PowerManagerConfig
from repro.monitoring.estimators import make_estimator
from repro.network.transport import NetworkConfig
from repro.obs import ObservabilityConfig
from repro.plain import PlainData
from repro.policies.registry import validate_policy_selection
from repro.policies.thresholds import UtilizationThresholds

#: The policy every hierarchy decision point runs unless the ``policies``
#: block selects another one.
DEFAULT_POLICIES: Dict[str, str] = {
    "dispatching": "first-fit",
    "placement": "first-fit",
    "assignment": "round-robin",
    "reconfiguration": "aco",
    "overload-relocation": "greedy",
    "underload-relocation": "all-or-nothing",
}


@dataclass
class HierarchyConfig(PlainData):
    """All knobs of a Snooze deployment in one place."""

    # ------------------------------------------------------------ heartbeats
    #: Interval between Group Leader heartbeats (multicast to GMs, EPs, LCs).
    gl_heartbeat_interval: float = 2.0
    #: Interval between Group Manager heartbeats (to the GL and to its LCs).
    gm_heartbeat_interval: float = 2.0
    #: Interval between Local Controller heartbeats (to the assigned GM).
    lc_heartbeat_interval: float = 2.0
    #: Missing-heartbeat timeout after which a component is declared failed.
    heartbeat_timeout: float = 8.0
    #: Coordination (ZooKeeper) session timeout for Group Managers.
    session_timeout: float = 10.0

    # ------------------------------------------------------------ monitoring
    #: LC monitoring interval (sampling VMs and reporting to the GM).
    monitoring_interval: float = 10.0
    #: GM summary interval (aggregated capacity report to the GL).
    summary_interval: float = 10.0
    #: Sliding window length (number of samples) for demand estimation.
    estimation_window: int = 12
    #: Demand estimator name: mean, max, ewma, percentile.
    estimator: str = "ewma"

    # ------------------------------------------------------------ scheduling
    #: Utilization thresholds for overload/underload detection.
    thresholds: UtilizationThresholds = field(default_factory=UtilizationThresholds)
    #: Enable overload/underload relocation (Section II.C event-based policies).
    relocation_enabled: bool = True
    #: Periodic reconfiguration (consolidation) interval in seconds; None disables it.
    reconfiguration_interval: Optional[float] = None
    #: Cap on migrations per reconfiguration round (None = unlimited).
    max_migrations_per_round: Optional[int] = None
    #: Structured policy selection: ``{kind: {"name": ..., **params}}`` entries
    #: for the registered policy kinds (``placement``, ``dispatching``,
    #: ``assignment``, ``reconfiguration``, ``overload-relocation``,
    #: ``underload-relocation``).  Kinds omitted here run their
    #: :data:`DEFAULT_POLICIES` entry.
    policies: Dict[str, Dict[str, object]] = field(default_factory=dict)

    # ---------------------------------------------------------------- energy
    #: Energy management settings (idle threshold, power state, reserve hosts).
    power_manager: PowerManagerConfig = field(default_factory=lambda: PowerManagerConfig(enabled=False))
    #: Interval of the cluster-wide energy meter sampling.
    energy_sample_interval: float = 60.0

    # --------------------------------------------------------------- network
    #: Simulated management-network characteristics.
    network: NetworkConfig = field(default_factory=NetworkConfig)

    # --------------------------------------------------------- observability
    #: Which observability pillars to enable (metrics / tracing / profiling).
    #: None of them affects simulated behaviour -- golden fixtures stay
    #: byte-identical with every pillar on.
    observability: ObservabilityConfig = field(default_factory=ObservabilityConfig)

    # ------------------------------------------------------------------ misc
    #: RPC timeout for commands (LC start/migrate, join, assignment).
    rpc_timeout: float = 5.0
    #: End-to-end timeout for a placement probe (GL -> GM).  Must be generous
    #: enough to cover a host wake-up when energy management is enabled
    #: (Section III: hosts are woken on demand for incoming placements).
    placement_timeout: float = 90.0
    #: Base seed for all random streams of the deployment.
    seed: int = 0

    def __post_init__(self) -> None:
        for name in (
            "gl_heartbeat_interval",
            "gm_heartbeat_interval",
            "lc_heartbeat_interval",
            "heartbeat_timeout",
            "session_timeout",
            "monitoring_interval",
            "summary_interval",
            "energy_sample_interval",
            "rpc_timeout",
            "placement_timeout",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.heartbeat_timeout <= max(
            self.gl_heartbeat_interval, self.gm_heartbeat_interval, self.lc_heartbeat_interval
        ):
            raise ValueError("heartbeat_timeout must exceed every heartbeat interval")
        # A GM's heartbeat tick keeps its coordination session alive; a session
        # that expires first empties the election and no GM is ever promoted.
        if self.session_timeout <= self.gm_heartbeat_interval:
            raise ValueError("session_timeout must exceed gm_heartbeat_interval")
        if self.estimation_window <= 0:
            raise ValueError("estimation_window must be positive")
        make_estimator(self.estimator)  # an unknown name raises, listing the known ones
        if self.reconfiguration_interval is not None and self.reconfiguration_interval <= 0:
            raise ValueError("reconfiguration_interval must be positive or None")
        self._resolve_policies()

    # -------------------------------------------------------------- policies
    def _resolve_policies(self) -> None:
        """Validate the authored ``policies`` block.

        ``self.policies`` keeps only the entries the caller actually wrote
        (so ``dataclasses.replace`` and serialization carry authored intent,
        not derived state); kinds without an entry read their default at
        build time.  Unknown kinds, names and parameter names raise
        :class:`ValueError` at construction (listing the alternatives).
        """
        policies: Dict[str, Dict[str, object]] = {}
        for kind, entry in (self.policies or {}).items():
            validate_policy_selection(str(kind), entry)  # bad shape/kind/name -> ValueError
            policies[str(kind)] = dict(entry)
        self.policies = policies

    def _policy_entry(self, kind: str) -> Dict[str, object]:
        """The effective ``{"name": ..., **params}`` selection for ``kind``.

        An authored ``policies`` entry, else the built-in default.  The block
        is read live, so post-construction mutation is honored.
        """
        entry = self.policies.get(kind)
        if entry is not None:
            return dict(entry)
        if kind in DEFAULT_POLICIES:
            return {"name": DEFAULT_POLICIES[kind]}
        raise ValueError(
            f"unknown policy kind {kind!r}; choose from {sorted(DEFAULT_POLICIES)}"
        )

    def resolved_policies(self) -> Dict[str, Dict[str, object]]:
        """The effective selection of every known policy kind."""
        kinds = set(DEFAULT_POLICIES) | set(self.policies)
        return {kind: self._policy_entry(kind) for kind in sorted(kinds)}

    def policy_name(self, kind: str) -> str:
        """The selected policy name for ``kind``."""
        return str(self._policy_entry(kind)["name"])

    def build_policy(self, kind: str, **extra):
        """Construct the selected policy for ``kind`` through the registry.

        ``extra`` carries runtime wiring (thresholds, migration caps, random
        streams) supplied by the component building the policy; parameters
        from the ``policies`` entry take precedence over it.
        """
        entry = self._policy_entry(kind)
        # Re-validate here so invalid post-construction mutations of the
        # block fail with the alternatives listed.
        spec = validate_policy_selection(kind, entry)
        params = {key: value for key, value in entry.items() if key != "name"}
        accepted = set(spec.param_names())
        merged = {
            key: value
            for key, value in extra.items()
            if spec.accepts_extra or key in accepted
        }
        merged.update(params)
        return spec.build(**merged)
