"""Warehouse-scale fleets: sharded lockstep simulation of the decision plane.

ROADMAP item 2's second half: the object-level hierarchy is pinned by golden
fixtures up to a few thousand Local Controllers; this package simulates fleets
up to 100k LCs by sharding per-GM group state into resident arrays advanced in
lockstep epochs, with deterministic summary/dispatch exchange at epoch
boundaries and byte-identical results for any shard/jobs count.
"""

from repro.megafleet.engine import (
    MegafleetResult,
    ShardedFleetSimulator,
    run_megafleet,
)
from repro.megafleet.spec import (
    MEGAFLEETS,
    MegafleetSpec,
    get_megafleet,
    megafleet_names,
    register_megafleet,
)

__all__ = [
    "MEGAFLEETS",
    "MegafleetSpec",
    "MegafleetResult",
    "ShardedFleetSimulator",
    "run_megafleet",
    "register_megafleet",
    "get_megafleet",
    "megafleet_names",
]
