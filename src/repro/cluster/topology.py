"""Cluster topology construction.

The paper's testbed was a 144-node Grid'5000 cluster.  This module builds the
simulated equivalent: a set of homogeneous (or heterogeneous) physical nodes
grouped into racks (used by the migration cost model to look up bandwidth
between hosts: intra-rack links are faster than inter-rack links).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.cluster.power import LinearPowerModel
from repro.cluster.resources import DEFAULT_DIMENSIONS, ResourceVector
from repro.cluster.node import PhysicalNode
from repro.plain import PlainData

#: Link bandwidths the live-migration model reads: hosts in one rack share a
#: faster switch than hosts in different racks.
INTRA_RACK_MBPS = 1000.0
INTER_RACK_MBPS = 500.0


@dataclass
class NodeClass(PlainData):
    """A homogeneous slice of a heterogeneous fleet.

    Real clusters mix hardware generations: a class names one generation with
    its own capacity vector and power envelope.  A :class:`ClusterSpec` built
    from classes concatenates them in declaration order (so node index ranges
    map to classes deterministically).
    """

    name: str
    count: int
    capacity: Sequence[float] = (1.0, 1.0, 1.0)
    p_idle: float = 170.0
    p_max: float = 250.0

    def __post_init__(self) -> None:
        # Normalize so specs round-trip through JSON (lists) with equality.
        self.capacity = tuple(float(value) for value in self.capacity)
        if self.count <= 0:
            raise ValueError("node class count must be positive")
        if any(value <= 0 for value in self.capacity):
            raise ValueError("node class capacity must be positive")
        if self.p_idle < 0 or self.p_max < self.p_idle:
            raise ValueError("require 0 <= p_idle <= p_max")


@dataclass
class ClusterSpec:
    """Declarative description of a cluster to build.

    Attributes
    ----------
    node_count:
        Number of physical nodes (Local Controller hosts): unit hosts with
        the default linear power model, unless ``node_classes`` is given.
    node_classes:
        Optional heterogeneous fleet description.  When given, nodes are built
        class by class (capacity and power model per class) and ``node_count``
        is forced to the sum of the class counts.
    nodes_per_rack:
        Rack size; intra-rack links are faster than inter-rack links.
    """

    node_count: int = 16
    node_classes: Optional[Sequence[NodeClass]] = None
    nodes_per_rack: int = 24
    name: str = "cluster"

    def __post_init__(self) -> None:
        if self.node_classes:
            self.node_classes = list(self.node_classes)
            for node_class in self.node_classes:
                if len(node_class.capacity) != len(DEFAULT_DIMENSIONS):
                    raise ValueError(
                        f"node class {node_class.name!r} capacity dimensionality "
                        f"{len(node_class.capacity)} does not match {len(DEFAULT_DIMENSIONS)}"
                    )
            self.node_count = sum(node_class.count for node_class in self.node_classes)
        if self.node_count <= 0:
            raise ValueError("node_count must be positive")
        if self.nodes_per_rack <= 0:
            raise ValueError("nodes_per_rack must be positive")


class ClusterTopology:
    """A built cluster: nodes plus their rack membership."""

    def __init__(self, spec: ClusterSpec, nodes: List[PhysicalNode]) -> None:
        self.spec = spec
        self.nodes = nodes
        # Racks fill in creation order, ``nodes_per_rack`` hosts each.
        self._rack: Dict[str, int] = {
            node.node_id: index // spec.nodes_per_rack for index, node in enumerate(nodes)
        }

    # ----------------------------------------------------------------- access
    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self):
        return iter(self.nodes)

    def rack_of(self, node_id: str) -> int:
        """Rack index of a node."""
        return self._rack[node_id]

    def bandwidth_mbps(self, src_id: str, dst_id: str) -> float:
        """Bandwidth between two hosts, used by the live-migration cost model."""
        if src_id == dst_id:
            return float("inf")
        if self.rack_of(src_id) == self.rack_of(dst_id):
            return INTRA_RACK_MBPS
        return INTER_RACK_MBPS

    # ------------------------------------------------------------- aggregates
    def active_node_count(self) -> int:
        """Number of nodes hosting at least one VM."""
        return sum(1 for node in self.nodes if node.vm_count > 0)


def build_cluster(spec: ClusterSpec) -> ClusterTopology:
    """Materialize a :class:`ClusterTopology` from a :class:`ClusterSpec`."""
    # One (capacity, power model, class name) blueprint per node, in index
    # order: unit hosts, or the declared class slices (one model per class).
    if spec.node_classes:
        blueprints: List[tuple] = []
        for node_class in spec.node_classes:
            model = LinearPowerModel(p_idle=node_class.p_idle, p_max=node_class.p_max)
            blueprints.extend([(node_class.capacity, model, node_class.name)] * node_class.count)
    else:
        blueprints = [((1.0, 1.0, 1.0), LinearPowerModel(), None)] * spec.node_count
    nodes: List[PhysicalNode] = []
    for index, (capacity, power_model, class_name) in enumerate(blueprints):
        node = PhysicalNode(
            f"{spec.name}-node-{index:03d}",
            capacity=ResourceVector(capacity),
            power_model=power_model,
        )
        node.node_class = class_name
        nodes.append(node)
    return ClusterTopology(spec, nodes)
