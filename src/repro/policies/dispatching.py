"""Group Leader dispatching policies (kind ``dispatching``).

Paper Section II.C: "At the GL level, VM to GM dispatching decisions are taken
based on the GM resource summary information. ... a list of candidate GMs is
provided by the dispatching policies. Based on this list, a linear search is
performed by issuing VM placement requests to the GMs."

A dispatching policy returns a :class:`~repro.policies.decisions.DispatchDecision`
holding an *ordered candidate list* of Group Manager ids, not a single choice;
the Group Leader probes the candidates in order until one accepts the VM.
"""

from __future__ import annotations

import abc
from typing import Dict, List

import numpy as np

from repro.cluster.resources import ResourceVector
from repro.monitoring.summary import GroupManagerSummary
from repro.policies.decisions import DispatchDecision
from repro.policies.registry import register_policy


class DispatchingPolicy(abc.ABC):
    """Base class: rank Group Managers for an incoming VM request."""

    kind: str = "dispatching"
    name: str = "base"

    @abc.abstractmethod
    def decide(
        self, demand: ResourceVector, summaries: Dict[str, GroupManagerSummary]
    ) -> DispatchDecision:
        """Return GM ids ordered by preference for hosting ``demand``.

        GMs whose summary clearly cannot host the VM are filtered out; the GL
        still falls back to probing *all* GMs if the filtered list comes back
        empty, because summaries may be stale.
        """

    def _plausible(
        self, demand: ResourceVector, summaries: Dict[str, GroupManagerSummary]
    ) -> List[str]:
        """GM ids whose summary does not rule out hosting the VM.

        One batched feasibility test over all summaries instead of two
        ``fits_within`` calls per GM: the Group Leader runs this once per
        submission, so the per-GM scalar path made dispatch latency grow
        linearly with the GM count.  Same tolerance, same result as
        ``summary.could_host(demand)`` per id.
        """
        if not summaries:
            return []
        gm_ids = list(summaries)
        free = np.asarray([summaries[gm_id].free_capacity().values for gm_id in gm_ids])
        slots = np.asarray([summaries[gm_id].largest_free_slot.values for gm_id in gm_ids])
        demanded = demand.values
        fits = np.all(demanded <= free + 1e-9, axis=1) & np.all(
            demanded <= slots + 1e-9, axis=1
        )
        plausible = [gm_id for gm_id, ok in zip(gm_ids, fits) if ok]
        return plausible or gm_ids


@register_policy("dispatching")
class LeastLoadedDispatching(DispatchingPolicy):
    """Prefer the GM with the lowest reserved/total ratio (load balancing)."""

    name = "least-loaded"

    def decide(
        self, demand: ResourceVector, summaries: Dict[str, GroupManagerSummary]
    ) -> DispatchDecision:
        plausible = self._plausible(demand, summaries)
        if not plausible:
            return DispatchDecision(reason="no group managers known")
        return DispatchDecision(
            candidates=sorted(
                plausible, key=lambda gm_id: (summaries[gm_id].utilization(), gm_id)
            )
        )


@register_policy("dispatching")
class FirstFitDispatching(DispatchingPolicy):
    """Always probe GMs in a fixed (id-sorted) order -- packs GMs one after another.

    This is the energy-friendly choice: it concentrates VMs on the first GMs'
    Local Controllers so later GMs' hosts stay idle and can be suspended.
    """

    name = "first-fit"

    def decide(
        self, demand: ResourceVector, summaries: Dict[str, GroupManagerSummary]
    ) -> DispatchDecision:
        plausible = sorted(self._plausible(demand, summaries))
        if not plausible:
            return DispatchDecision(reason="no group managers known")
        return DispatchDecision(candidates=plausible)
