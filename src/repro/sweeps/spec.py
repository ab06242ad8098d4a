"""Declarative sweep specifications.

A :class:`SweepSpec` describes a whole *grid* of experiments the way a
:class:`~repro.scenarios.spec.ScenarioSpec` describes one: as plain data that
round-trips losslessly through JSON.  The grid is the cross product of four
axes:

* **scenarios** -- names resolved through the scenario catalog;
* **policies** -- policy-override cells (``{kind: {"name": ..., **params}}``
  blocks merged over each scenario's own ``policies`` section);
* **thresholds** -- ``{"underload": ..., "overload": ...}`` overrides of the
  utilization thresholds (``None`` keeps the scenario's configuration);
* **seeds** -- either an explicit seed list, or ``replicates``/``base_seed``,
  in which case the per-replicate seeds are derived through
  ``numpy.random.SeedSequence.spawn`` (never ``base_seed + i``), so replicate
  streams cannot silently correlate.

:meth:`SweepSpec.expand` enumerates the grid into :class:`RunSpec` cells in a
deterministic order (scenario, then policy cell, then thresholds, then seed),
which is what lets the serial and parallel executors produce byte-identical
reports.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.plain import PlainData
from repro.policies.registry import merge_policy_selections, validate_policy_selection
from repro.policies.thresholds import UtilizationThresholds
from repro.scenarios.catalog import get_scenario
from repro.scenarios.spec import ScenarioSpec
from repro.simulation.randomness import derive_run_seeds

#: Label used for an empty policy-override cell.
DEFAULTS_LABEL = "defaults"


def _compact_number(value: object) -> str:
    """``%g``-style rendering for numbers, ``str`` otherwise, ``?`` if absent."""
    if value is None:
        return "?"
    if isinstance(value, (int, float)):
        return format(value, "g")
    return str(value)


def policy_cell_label(cell: Dict[str, Dict[str, object]]) -> str:
    """Human/CSV label of one policy-override cell (stable across runs).

    Parameters are part of the label: cells selecting the same policy with
    different parameters (a parameter sweep) must land in different aggregate
    groups, never be pooled under one name.  Malformed entries (label callers
    include the report layer, which must never crash on a failed run's
    payload) render with ``?`` placeholders instead of raising.
    """
    if not cell:
        return DEFAULTS_LABEL
    parts = []
    for kind in sorted(cell):
        entry = cell[kind]
        if not isinstance(entry, dict):
            parts.append(f"{kind}={entry!r}")
            continue
        params = {key: entry[key] for key in sorted(entry) if key != "name"}
        suffix = (
            "[" + ",".join(f"{key}={value}" for key, value in params.items()) + "]"
            if params
            else ""
        )
        parts.append(f"{kind}={entry.get('name', '?')}{suffix}")
    return ",".join(parts)


def thresholds_label(thresholds: Optional[Dict[str, float]]) -> str:
    """Label of one thresholds cell (``-`` when the scenario default is kept)."""
    if thresholds is None:
        return "-"
    if not isinstance(thresholds, dict):
        return str(thresholds)
    return (
        f"{_compact_number(thresholds.get('underload'))}/"
        f"{_compact_number(thresholds.get('overload'))}"
    )


@dataclass(frozen=True)
class RunSpec(PlainData):
    """One fully resolved cell of a sweep grid (picklable, JSON-safe)."""

    index: int
    scenario: str
    policies: Dict[str, Dict[str, object]]
    thresholds: Optional[Dict[str, float]]
    base_seed: int
    #: The seed actually handed to :class:`~repro.scenarios.runner.ScenarioRunner`.
    seed: int
    duration: Optional[float] = None
    record_interval: Optional[float] = None
    config: Dict[str, object] = field(default_factory=dict)

    def build_scenario_spec(self) -> ScenarioSpec:
        """Materialize the catalog scenario with this cell's overrides applied."""
        base = get_scenario(self.scenario)
        merged_policies = merge_policy_selections(base.policies, self.policies)
        merged_config = dict(base.config)
        merged_config.update(self.config)
        if self.thresholds is not None:
            merged_config["thresholds"] = dict(self.thresholds)
        return dataclasses.replace(base, policies=merged_policies, config=merged_config)


@dataclass
class SweepSpec(PlainData):
    """A declarative experiment grid over the scenario catalog."""

    name: str
    description: str = ""
    #: Scenario catalog names (axis 1).
    scenarios: List[str] = field(default_factory=list)
    #: Policy-override cells (axis 2); the empty dict keeps scenario defaults.
    policies: List[Dict[str, Dict[str, object]]] = field(default_factory=lambda: [{}])
    #: Threshold overrides (axis 3); ``None`` keeps the scenario configuration.
    thresholds: List[Optional[Dict[str, float]]] = field(default_factory=lambda: [None])
    #: Explicit seed axis (axis 4); ignored when ``replicates`` is set.
    seeds: List[int] = field(default_factory=lambda: [0])
    #: When set, the seed axis becomes ``derive_run_seeds(base_seed, replicates)``
    #: (``SeedSequence.spawn``-derived, independent across replicates).
    replicates: Optional[int] = None
    base_seed: int = 0
    #: Common duration override applied to every run (``None`` = scenario value).
    duration: Optional[float] = None
    record_interval: Optional[float] = None
    #: Flat ``HierarchyConfig`` overrides merged into every run's scenario config.
    config: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("sweep needs a name")
        if not self.scenarios:
            raise ValueError("sweep needs at least one scenario")
        if not self.policies:
            raise ValueError("sweep needs at least one policy cell (use {} for defaults)")
        if not self.thresholds:
            raise ValueError("sweep needs at least one thresholds cell (use None for defaults)")
        if self.replicates is not None and self.replicates <= 0:
            raise ValueError("replicates must be positive")
        if self.replicates is None and not self.seeds:
            raise ValueError("sweep needs at least one seed (or set replicates)")
        if self.base_seed < 0 or any(seed < 0 for seed in self.seeds):
            raise ValueError("seeds and base_seed must be non-negative")
        for name in ("duration", "record_interval"):
            if getattr(self, name) is not None and getattr(self, name) <= 0:
                raise ValueError(f"{name} override must be positive (got {getattr(self, name)!r})")
        for cell in self.policies:
            for kind, entry in cell.items():
                validate_policy_selection(kind, entry)
        for thresholds in self.thresholds:
            if thresholds is None:
                continue
            missing = {"underload", "overload"} - set(thresholds)
            if missing:
                raise ValueError(f"thresholds cell needs {sorted(missing)}, got {thresholds!r}")
            unknown = set(thresholds) - {"underload", "overload"}
            if unknown:
                raise ValueError(
                    f"unknown thresholds key(s) {sorted(unknown)}; "
                    "valid keys: ['overload', 'underload']"
                )
            UtilizationThresholds(**{k: float(v) for k, v in thresholds.items()})
        # Normalize threshold values to floats in place: whatever construction
        # path delivered them (JSON strings included), downstream labels and
        # config overrides must never see non-numeric values.
        self.thresholds = [
            None if cell is None else {k: float(v) for k, v in cell.items()}
            for cell in self.thresholds
        ]
        # Resolve every scenario now (unknown names fail fast with suggestions)
        # and verify the duration override does not drop timeline events.
        for scenario_name in self.scenarios:
            try:
                base = get_scenario(scenario_name)
            except KeyError as exc:
                raise ValueError(exc.args[0]) from None
            if self.duration is not None:
                late = base.timeline_events_after(self.duration)
                if late:
                    raise ValueError(
                        f"duration override {self.duration} would drop {len(late)} timeline "
                        f"event(s) of scenario {scenario_name!r} "
                        f"(first at t={min(event.at for event in late)})"
                    )
        # Dry-build one merged spec per (scenario, policy cell) so bad override
        # combinations surface at sweep construction, not mid-execution.
        for scenario_name in self.scenarios:
            for cell in self.policies:
                RunSpec(
                    index=-1,
                    scenario=scenario_name,
                    policies=cell,
                    thresholds=None,
                    base_seed=0,
                    seed=0,
                    config=dict(self.config),
                ).build_scenario_spec()

    # ------------------------------------------------------------------- axes
    def resolved_seeds(self) -> List[int]:
        """The effective seed axis (spawn-derived when ``replicates`` is set)."""
        if self.replicates is not None:
            return derive_run_seeds(self.base_seed, self.replicates)
        return [int(seed) for seed in self.seeds]

    def total_runs(self) -> int:
        """Size of the run matrix."""
        return (
            len(self.scenarios)
            * len(self.policies)
            * len(self.thresholds)
            * len(self.resolved_seeds())
        )

    def expand(self) -> List[RunSpec]:
        """Enumerate the grid into :class:`RunSpec` cells (deterministic order)."""
        runs: List[RunSpec] = []
        seeds = self.resolved_seeds()
        index = 0
        for scenario_name in self.scenarios:
            for cell in self.policies:
                for thresholds in self.thresholds:
                    for position, seed in enumerate(seeds):
                        base_seed = (
                            self.base_seed if self.replicates is not None
                            else self.seeds[position]
                        )
                        runs.append(
                            RunSpec(
                                index=index,
                                scenario=scenario_name,
                                policies={k: dict(v) for k, v in cell.items()},
                                thresholds=None if thresholds is None else dict(thresholds),
                                base_seed=int(base_seed),
                                seed=int(seed),
                                duration=self.duration,
                                record_interval=self.record_interval,
                                config=dict(self.config),
                            )
                        )
                        index += 1
        return runs
