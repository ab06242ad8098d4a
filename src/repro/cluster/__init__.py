"""Data-center model: resources, virtual machines, physical nodes, power.

This package is the simulated stand-in for the Grid'5000 hardware used in the
paper's evaluation.  It models exactly the quantities the Snooze management
layer reasons about:

* multi-dimensional resource capacities and demands
  (:class:`~repro.cluster.resources.ResourceVector`, CPU / memory / network
  as in Section II.A of the paper),
* virtual machines with requested capacity and time-varying utilization
  (:class:`~repro.cluster.vm.VirtualMachine`),
* physical nodes ("Local Controller hosts") with capacity, hosted VMs and a
  power state (:class:`~repro.cluster.node.PhysicalNode`),
* power models mapping utilization to Watts
  (:mod:`repro.cluster.power`), and
* cluster topology construction helpers (:mod:`repro.cluster.topology`).
"""

from repro.cluster.resources import (
    DEFAULT_DIMENSIONS,
    ResourceError,
    ResourceVector,
)
from repro.cluster.vm import VirtualMachine, VMState
from repro.cluster.node import NodeState, PhysicalNode
from repro.cluster.power import (
    ConstantPowerModel,
    CubicPowerModel,
    LinearPowerModel,
    PowerModel,
    PowerStateSpec,
    DEFAULT_POWER_STATES,
)
from repro.cluster.topology import (
    ClusterSpec,
    ClusterTopology,
    NodeClass,
    build_cluster,
)

__all__ = [
    "DEFAULT_DIMENSIONS",
    "ResourceError",
    "ResourceVector",
    "VirtualMachine",
    "VMState",
    "NodeState",
    "PhysicalNode",
    "PowerModel",
    "LinearPowerModel",
    "CubicPowerModel",
    "ConstantPowerModel",
    "PowerStateSpec",
    "DEFAULT_POWER_STATES",
    "ClusterSpec",
    "NodeClass",
    "ClusterTopology",
    "build_cluster",
]
