"""Power-state management: suspend idle hosts, wake them on demand.

Paper Section III: "each GM integrates mechanisms to detect idle LCs and
automatically transition them in a low-power state (e.g. suspend) after a
system administrator pre-defined idle-time threshold has been reached.
Moreover, LCs are woken up by the GM in case either not enough capacity is
available to handle incoming VM placement decisions or overload situations on
the LCs occur."

The :class:`PowerStateManager` owns those mechanisms for one Group Manager's
set of Local Controller hosts.  It is deliberately independent of the
messaging layer so it can be unit-tested and reused by the standalone energy
example; the Group Manager component wires its callbacks to actual LC
commands.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.cluster.node import NodeState, PhysicalNode
from repro.cluster.power import DEFAULT_POWER_STATES, PowerStateSpec
from repro.energy.accounting import EnergyMeter
from repro.simulation.engine import Simulator
from repro.simulation.timers import PeriodicTimer


@dataclass
class PowerManagerConfig:
    """Administrator-facing knobs of the energy manager."""

    #: Seconds a host must stay idle before it is suspended (the paper's
    #: "system administrator pre-defined idle-time threshold").
    idle_time_threshold: float = 120.0
    #: Which low-power state to use (key into DEFAULT_POWER_STATES or a custom spec).
    power_state: str = "suspend"
    #: How often the manager scans for idle hosts.
    check_interval: float = 30.0
    #: Keep at least this many hosts powered on as a placement reserve, so a
    #: burst of submissions does not stall on wake-up latency.
    min_powered_on_hosts: int = 1
    #: If True, refuse to suspend when the expected saving cannot repay the
    #: transition energy within the idle-time threshold (break-even guard).
    respect_break_even: bool = True
    #: Enable/disable the whole mechanism (the paper's "when energy savings are enabled").
    enabled: bool = True

    def __post_init__(self) -> None:
        if self.idle_time_threshold < 0:
            raise ValueError("idle_time_threshold must be non-negative")
        if self.check_interval <= 0:
            raise ValueError("check_interval must be positive")
        if self.min_powered_on_hosts < 0:
            raise ValueError("min_powered_on_hosts must be non-negative")


class PowerStateManager:
    """Suspend idle hosts after a threshold; wake hosts on demand."""

    def __init__(
        self,
        sim: Simulator,
        nodes: List[PhysicalNode],
        config: Optional[PowerManagerConfig] = None,
        spec: Optional[PowerStateSpec] = None,
        energy_meter: Optional[EnergyMeter] = None,
        on_suspend: Optional[Callable[[PhysicalNode], None]] = None,
        on_wakeup: Optional[Callable[[PhysicalNode], None]] = None,
    ) -> None:
        self.sim = sim
        self.nodes = list(nodes)
        self.config = config or PowerManagerConfig()
        self.spec = spec or DEFAULT_POWER_STATES.get(self.config.power_state, DEFAULT_POWER_STATES["suspend"])
        self.energy_meter = energy_meter
        self.on_suspend = on_suspend
        self.on_wakeup = on_wakeup
        self.suspend_count = 0
        self.wakeup_count = 0
        self._timer: Optional[PeriodicTimer] = None
        if self.config.enabled:
            self._timer = PeriodicTimer(
                sim, self.config.check_interval, self.check_idle_hosts, name="power-manager"
            )

    # ------------------------------------------------------------------ scan
    def check_idle_hosts(self) -> List[PhysicalNode]:
        """Suspend every host idle longer than the threshold (honouring the reserve)."""
        if not self.config.enabled:
            return []
        suspended: List[PhysicalNode] = []
        powered_on = [node for node in self.nodes if node.state is NodeState.ON]
        reserve = self.config.min_powered_on_hosts
        for node in sorted(powered_on, key=lambda n: n.node_id, reverse=True):
            if len(powered_on) - len(suspended) <= reserve:
                break
            if not node.is_idle:
                continue
            if node.idle_duration(self.sim.now) < self.config.idle_time_threshold:
                continue
            if self.config.respect_break_even:
                break_even = self.spec.break_even_seconds(node.power_model)
                if break_even == float("inf"):
                    continue
            self.suspend(node)
            suspended.append(node)
        return suspended

    # ----------------------------------------------------------- transitions
    def suspend(self, node: PhysicalNode) -> bool:
        """Begin suspending an idle host; returns False if it cannot be suspended now."""
        if node.state is not NodeState.ON or not node.is_idle:
            return False
        if self.energy_meter is not None:
            self.energy_meter.update()
        node.state = NodeState.SUSPENDING
        node.suspend_count += 1
        self.suspend_count += 1
        if self.energy_meter is not None:
            self.energy_meter.add_transition_energy(self.spec.suspend_energy)
        self.sim.schedule(self.spec.suspend_latency, self._finish_suspend, node)
        return True

    def _finish_suspend(self, node: PhysicalNode) -> None:
        if node.state is NodeState.SUSPENDING:
            if self.energy_meter is not None:
                self.energy_meter.update()
            node.state = NodeState.SUSPENDED
            if self.on_suspend is not None:
                self.on_suspend(node)

    def wakeup(self, node: PhysicalNode, on_ready: Optional[Callable[[PhysicalNode], None]] = None) -> bool:
        """Begin waking a suspended host; ``on_ready`` fires when it is usable again."""
        if node.state is NodeState.SUSPENDED:
            if self.energy_meter is not None:
                self.energy_meter.update()
            node.state = NodeState.WAKING
            node.wakeup_count += 1
            self.wakeup_count += 1
            if self.energy_meter is not None:
                self.energy_meter.add_transition_energy(self.spec.wakeup_energy)
            self.sim.schedule(self.spec.wakeup_latency, self._finish_wakeup, node, on_ready)
            return True
        if node.state is NodeState.SUSPENDING:
            # Caught mid-transition: finish suspending, then immediately wake up.
            self.sim.schedule(
                self.spec.suspend_latency, lambda: self.wakeup(node, on_ready)
            )
            return True
        return False

    def _finish_wakeup(self, node: PhysicalNode, on_ready: Optional[Callable[[PhysicalNode], None]]) -> None:
        if node.state is NodeState.WAKING:
            if self.energy_meter is not None:
                self.energy_meter.update()
            node.state = NodeState.ON
            node.idle_since = self.sim.now
            if self.on_wakeup is not None:
                self.on_wakeup(node)
            if on_ready is not None:
                on_ready(node)

    # ------------------------------------------------------------- capacity
    def wake_one(self, on_ready: Optional[Callable[[PhysicalNode], None]] = None) -> bool:
        """Wake the first suspended host; returns False when none is suspended.

        Used by the Group Manager when a placement fails for lack of
        powered-on capacity: each pending placement that cannot be satisfied
        wakes one more host, so concurrent placements fan out over distinct
        hosts instead of all waiting on the same wake-up.
        """
        for node in self.nodes:
            if node.state is NodeState.SUSPENDED:
                return self.wakeup(node, on_ready)
        return False

    def powered_on_count(self) -> int:
        """Number of hosts currently ON."""
        return sum(1 for node in self.nodes if node.state is NodeState.ON)

    def stop(self) -> None:
        """Stop the periodic idle scan (end of experiment)."""
        if self._timer is not None:
            self._timer.stop()
