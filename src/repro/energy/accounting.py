"""Energy metering: integrate node power over simulated time.

The meter samples each node's instantaneous power whenever something relevant
changes (VM placed/removed, power-state transition, periodic tick) and
integrates with a piecewise-constant rule: energy between two samples is the
power at the *previous* sample times the elapsed time.  This matches how the
consolidation literature (and the authors' GRID'11 evaluation) computes energy
from utilization time series.

Energy and power live in one float64 row per node: a sample integrates the
whole cluster with one ``energy += power * elapsed`` and re-reads the power of
only those nodes whose :meth:`~repro.cluster.node.PhysicalNode.watch` hook
fired since the previous sample (everything ``current_power`` depends on --
the VM set, any hosted VM's usage, the power state -- is watched).

Two extra buckets exist beyond per-node energy:

* **transition energy** -- the fixed Joules charged per suspend/wake-up,
  reported separately so E5 can show how much of the saving the transitions
  eat back;
* **computation energy** -- the energy attributed to running a consolidation
  algorithm (its wall-clock runtime times a configurable CPU power), which is
  what lets E2 reproduce "4.1 % of energy ... including energy spent into the
  computation".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable

import numpy as np

from repro.cluster.node import PhysicalNode
from repro.simulation.engine import Simulator
from repro.simulation.timers import PeriodicTimer


@dataclass
class EnergyReport:
    """Summary of the energy consumed over a metering period."""

    horizon_seconds: float
    node_energy_joules: Dict[str, float] = field(default_factory=dict)
    transition_energy_joules: float = 0.0
    computation_energy_joules: float = 0.0

    @property
    def infrastructure_energy_joules(self) -> float:
        """Energy drawn by the hosts themselves (excluding algorithm computation)."""
        return sum(self.node_energy_joules.values()) + self.transition_energy_joules

    @property
    def total_energy_joules(self) -> float:
        """Everything: hosts, transitions and algorithm computation."""
        return self.infrastructure_energy_joules + self.computation_energy_joules

    @property
    def total_energy_kwh(self) -> float:
        """Total energy in kilowatt-hours (the unit the paper's figures use)."""
        return self.total_energy_joules / 3.6e6


class EnergyMeter:
    """Integrates the power draw of a set of nodes inside a simulation."""

    SERVICE_NAME = "energy"

    def __init__(
        self,
        sim: Simulator,
        nodes: Iterable[PhysicalNode],
        sample_interval: float = 60.0,
        sleep_power: float = 10.0,
        computation_power_watts: float = 120.0,
    ) -> None:
        if sample_interval <= 0:
            raise ValueError("sample_interval must be positive")
        self.sim = sim
        self.nodes = list(nodes)
        self.sleep_power = float(sleep_power)
        self.computation_power_watts = float(computation_power_watts)
        self.start_time = sim.now
        self._row = {node: row for row, node in enumerate(self.nodes)}
        #: Joules accumulated, and Watts drawn as of the last sample, per node.
        self._energy = np.zeros(len(self.nodes))
        self._power = np.zeros(len(self.nodes))
        #: Nodes whose power may differ from ``_power`` (changed since the last sample).
        self._dirty = set(self.nodes)
        for node in self.nodes:
            node.watch(self._dirty.add)
        self._refresh_power()
        self._last_time = sim.now
        self.transition_energy = 0.0
        self.computation_energy = 0.0
        self._timer = PeriodicTimer(sim, sample_interval, self.update, name="energy-meter")
        if not sim.has_service(self.SERVICE_NAME):
            sim.register_service(self.SERVICE_NAME, self)

    # -------------------------------------------------------------- sampling
    def update(self) -> None:
        """Integrate energy since the last update and refresh the power snapshot.

        Called periodically by the meter's own timer and explicitly by the
        hierarchy whenever a node's power changes discontinuously (VM placed,
        suspend/wake-up), so discontinuities never smear across an interval.
        """
        now = self.sim.now
        elapsed = now - self._last_time
        if elapsed > 0:
            self._energy += self._power * elapsed
        self._refresh_power()
        self._last_time = now

    def _refresh_power(self) -> None:
        # The scalar model call per *changed* node: the power models are
        # arbitrary callables, and a node's utilization is a Python read.
        for node in self._dirty:
            self._power[self._row[node]] = node.current_power(self.sleep_power)
        self._dirty.clear()

    def add_transition_energy(self, joules: float) -> None:
        """Charge a suspend/wake-up transition."""
        if joules < 0:
            raise ValueError("transition energy must be non-negative")
        self.transition_energy += float(joules)

    def charge_computation_runtime(self, runtime_seconds: float) -> float:
        """Charge algorithm runtime at ``computation_power_watts``; returns the Joules added."""
        if runtime_seconds < 0:
            raise ValueError("runtime must be non-negative")
        joules = runtime_seconds * self.computation_power_watts
        self.computation_energy += joules
        return joules

    # ---------------------------------------------------------------- report
    def report(self) -> EnergyReport:
        """Finalize integration up to now and return the accumulated energies."""
        self.update()
        return EnergyReport(
            horizon_seconds=self.sim.now - self.start_time,
            node_energy_joules={
                node.node_id: joules for node, joules in zip(self.nodes, self._energy.tolist())
            },
            transition_energy_joules=self.transition_energy,
            computation_energy_joules=self.computation_energy,
        )

    def stop(self) -> None:
        """Stop the periodic sampling timer (end of experiment)."""
        self._timer.stop()


def static_placement_energy(
    hosts_used: int,
    average_utilization: float,
    duration_seconds: float,
    p_idle: float = 170.0,
    p_max: float = 250.0,
) -> float:
    """Energy (Joules) of running ``hosts_used`` hosts at a constant utilization.

    The GRID'11 comparison charges each algorithm the energy of the hosts its
    placement keeps on for a fixed evaluation horizon; unused hosts are
    assumed suspended (zero marginal energy).  This helper reproduces that
    accounting for the E2 benchmark without running a full simulation.
    """
    if hosts_used < 0 or duration_seconds < 0:
        raise ValueError("hosts_used and duration must be non-negative")
    if not (0.0 <= average_utilization <= 1.0):
        raise ValueError("average_utilization must be in [0, 1]")
    power_per_host = p_idle + (p_max - p_idle) * average_utilization
    return hosts_used * power_per_host * duration_seconds
