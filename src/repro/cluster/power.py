"""The power model and power-state specifications.

Snooze's energy story (paper Sections I and III) rests on two mechanisms:

1. hosts draw power as a function of their utilization while ON, and
2. idle hosts can be transitioned to a low-power state (suspend) and
   woken up on demand, both of which take time and energy.

This module provides the standard linear model used throughout the
consolidation literature the paper builds on (Beloglazov & Buyya), the only
model a topology builds, plus a :class:`PowerStateSpec` describing the
sleep-state power and the transition latencies/energies used by
:mod:`repro.energy`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class LinearPowerModel:
    """``P(u) = P_idle + (P_max - P_idle) * u`` -- the standard server model.

    Default constants (170 W idle, 250 W peak) are representative of the
    PowerEdge-class nodes of the Grid'5000 clusters used by the authors.
    """

    p_idle: float = 170.0
    p_max: float = 250.0

    def __post_init__(self) -> None:
        if self.p_idle < 0 or self.p_max < self.p_idle:
            raise ValueError("require 0 <= p_idle <= p_max")

    def power(self, utilization: float) -> float:
        u = min(max(float(utilization), 0.0), 1.0)
        return self.p_idle + (self.p_max - self.p_idle) * u

    def idle_power(self) -> float:
        return self.p_idle

    def max_power(self) -> float:
        return self.p_max


@dataclass(frozen=True)
class PowerStateSpec:
    """Sleep-state characteristics of a host; the defaults are the paper's suspend.

    Attributes
    ----------
    sleep_power:
        Watts drawn while suspended (suspend-to-RAM keeps DRAM refreshed).
    suspend_latency / wakeup_latency:
        Seconds to enter / leave the sleep state.  During a transition the
        host can serve no VMs; Snooze must therefore account for wake-up
        latency when placing VMs onto sleeping hosts.
    suspend_energy / wakeup_energy:
        Extra Joules consumed by each transition on top of the steady draw.
    """

    name: str = "suspend"
    sleep_power: float = 10.0
    suspend_latency: float = 10.0
    wakeup_latency: float = 30.0
    suspend_energy: float = 500.0
    wakeup_energy: float = 2000.0

    def __post_init__(self) -> None:
        if self.sleep_power < 0:
            raise ValueError("sleep_power must be non-negative")
        if self.suspend_latency < 0 or self.wakeup_latency < 0:
            raise ValueError("transition latencies must be non-negative")
        if self.suspend_energy < 0 or self.wakeup_energy < 0:
            raise ValueError("transition energies must be non-negative")

    def round_trip_energy(self) -> float:
        """Energy cost of one suspend + wake-up cycle (used for break-even analysis)."""
        return self.suspend_energy + self.wakeup_energy

    def break_even_seconds(self, power_model: LinearPowerModel) -> float:
        """Minimum sleep duration for which suspending saves energy.

        Solves ``idle_power * t = sleep_power * t + round_trip_energy`` so the
        energy manager can refuse to suspend hosts expected to be needed again
        too soon.
        """
        saving_rate = power_model.idle_power() - self.sleep_power
        if saving_rate <= 0:
            return float("inf")
        return self.round_trip_energy() / saving_rate

