"""Cluster topology construction.

The paper's testbed was a 144-node Grid'5000 cluster.  This module builds the
simulated equivalent: a set of homogeneous (or heterogeneous) physical nodes
grouped into racks (used by the migration cost model to look up bandwidth
between hosts: intra-rack links are faster than inter-rack links).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.cluster.power import LinearPowerModel
from repro.cluster.resources import DEFAULT_DIMENSIONS, ResourceVector
from repro.cluster.node import PhysicalNode
from repro.plain import PlainData


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
        Number of physical nodes (Local Controller hosts).
    node_capacity:
        Capacity vector per node.  Defaults to a normalized unit host.
    node_classes:
        Optional heterogeneous fleet description.  When given, nodes are built
        class by class (capacity and power model per class) and ``node_count``
        is forced to the sum of the class counts.
    nodes_per_rack:
        Rack size; intra-rack links are faster than inter-rack links.
    intra_rack_bandwidth_mbps / inter_rack_bandwidth_mbps:
        Link bandwidths used by the live-migration model.
    p_idle / p_max:
        Linear power model constants applied to every node.
    heterogeneity:
        If > 0, per-node capacities are scaled by ``1 + U(-h, +h)`` to model a
        mildly heterogeneous cluster (requires an rng at build time).
    """

    node_count: int = 16
    node_capacity: Sequence[float] = (1.0, 1.0, 1.0)
    dimensions: Sequence[str] = DEFAULT_DIMENSIONS
    node_classes: Optional[Sequence[NodeClass]] = None
    nodes_per_rack: int = 24
    intra_rack_bandwidth_mbps: float = 1000.0
    inter_rack_bandwidth_mbps: float = 500.0
    p_idle: float = 170.0
    p_max: float = 250.0
    heterogeneity: float = 0.0
    name: str = "cluster"

    def __post_init__(self) -> None:
        if self.node_classes:
            self.node_classes = list(self.node_classes)
            for node_class in self.node_classes:
                if len(node_class.capacity) != len(self.dimensions):
                    raise ValueError(
                        f"node class {node_class.name!r} capacity dimensionality "
                        f"{len(node_class.capacity)} does not match {len(self.dimensions)}"
                    )
            self.node_count = sum(node_class.count for node_class in self.node_classes)
        if self.node_count <= 0:
            raise ValueError("node_count must be positive")
        if self.nodes_per_rack <= 0:
            raise ValueError("nodes_per_rack must be positive")
        if not (0.0 <= self.heterogeneity < 1.0):
            raise ValueError("heterogeneity must be in [0, 1)")


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
            return self.spec.intra_rack_bandwidth_mbps
        return self.spec.inter_rack_bandwidth_mbps

    # ------------------------------------------------------------- aggregates
    def active_node_count(self) -> int:
        """Number of nodes hosting at least one VM."""
        return sum(1 for node in self.nodes if node.vm_count > 0)


def build_cluster(spec: ClusterSpec, rng: Optional[np.random.Generator] = None) -> ClusterTopology:
    """Materialize a :class:`ClusterTopology` from a :class:`ClusterSpec`."""
    if spec.heterogeneity > 0 and rng is None:
        raise ValueError("heterogeneous clusters require an rng")
    # One (capacity, power model) blueprint per node, in index order: either a
    # single class covering the whole cluster or the declared class slices.
    blueprints: List[tuple] = []
    if spec.node_classes:
        for node_class in spec.node_classes:
            model = LinearPowerModel(p_idle=node_class.p_idle, p_max=node_class.p_max)
            base = np.asarray(node_class.capacity, dtype=float)
            blueprints.extend((base, model, node_class.name) for _ in range(node_class.count))
    else:
        model = LinearPowerModel(p_idle=spec.p_idle, p_max=spec.p_max)
        base = np.asarray(spec.node_capacity, dtype=float)
        blueprints = [(base, model, None)] * spec.node_count
    nodes: List[PhysicalNode] = []
    for index, (base, power_model, class_name) in enumerate(blueprints):
        capacity = base.copy()
        if spec.heterogeneity > 0:
            capacity = capacity * (1.0 + rng.uniform(-spec.heterogeneity, spec.heterogeneity))
        node = PhysicalNode(
            f"{spec.name}-node-{index:03d}",
            capacity=ResourceVector(capacity, tuple(spec.dimensions)),
            power_model=power_model,
        )
        if class_name is not None:
            node.node_class = class_name
        nodes.append(node)

    return ClusterTopology(spec, nodes)
