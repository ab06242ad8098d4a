"""The common decision vocabulary every policy kind speaks.

The hierarchy components consume exactly three result types:

* :class:`PlacementDecision` -- one VM, one chosen node (or a reason why not);
* :class:`DispatchDecision` -- an ordered Group Manager candidate list;
* :class:`MigrationPlan` -- a batch of VM moves (relocation and
  reconfiguration both produce this, so Group Managers execute them through
  one code path).

All three are plain dataclasses with ``reason`` strings for the "no decision"
cases, so call sites never need policy-specific branching.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.cluster.node import PhysicalNode


@dataclass
class PlacementDecision:
    """Outcome of a placement policy for one VM: the chosen node, or why none."""

    #: Chosen node id; ``None`` when no node fits.
    node_id: Optional[str] = None
    #: Human-readable reason when ``node_id`` is ``None``.
    reason: str = ""

    @property
    def placed(self) -> bool:
        """True when the policy selected a node."""
        return self.node_id is not None


@dataclass
class DispatchDecision:
    """Outcome of a dispatching policy: Group Manager ids ordered by preference."""

    candidates: List[str] = field(default_factory=list)
    #: Human-readable reason when the candidate list is empty.
    reason: str = ""

    @property
    def empty(self) -> bool:
        """True when no candidate Group Manager was produced."""
        return not self.candidates

    def __len__(self) -> int:
        return len(self.candidates)


@dataclass
class MigrationPlan:
    """A batch of VM moves, as produced by relocation and reconfiguration policies."""

    #: ``(vm, source node, destination node)`` triples, in execution order.
    moves: List[tuple] = field(default_factory=list)
    #: Human-readable reason when no moves are proposed.
    reason: str = ""
    #: Nodes the plan leaves without any VMs (suspension candidates).
    released_nodes: List[PhysicalNode] = field(default_factory=list)
    #: Hosts used before / after, for reporting (reconfiguration rounds).
    hosts_before: int = 0
    hosts_after: int = 0
    #: The consolidation algorithm's own result summary (runtime, iterations, ...).
    consolidation_summary: dict = field(default_factory=dict)

    @property
    def empty(self) -> bool:
        """True if the policy decided not to move anything."""
        return not self.moves

    def __len__(self) -> int:
        return len(self.moves)
