"""Group Leader LC-to-GM assignment policies (kind ``assignment``).

Paper Section II.D: a joining Local Controller asks the Group Leader which
Group Manager to join -- a registered policy kind like every other decision
point.
"""

from __future__ import annotations

import abc
from typing import Optional, Sequence

from repro.policies.registry import register_policy


class AssignmentPolicy(abc.ABC):
    """Base class: pick the Group Manager a joining Local Controller should join."""

    kind: str = "assignment"
    name: str = "base"

    @abc.abstractmethod
    def choose(self, gm_ids: Sequence[str]) -> Optional[str]:
        """Return the chosen GM id (``None`` when ``gm_ids`` is empty).

        ``gm_ids`` is the sorted list of currently known Group Managers.
        """


@register_policy("assignment")
class RoundRobinAssignment(AssignmentPolicy):
    """Rotate LC assignments across Group Managers independent of load."""

    name = "round-robin"

    def __init__(self) -> None:
        self._next = 0

    def choose(self, gm_ids: Sequence[str]) -> Optional[str]:
        if not gm_ids:
            return None
        chosen = gm_ids[self._next % len(gm_ids)]
        self._next += 1
        return chosen
