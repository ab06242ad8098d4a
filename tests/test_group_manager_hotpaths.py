"""Regression tests for the Group Manager's per-event hot-path fixes.

Three bugs rode along with the decision-plane refactor (PR "flat-scale the
decision plane"):

* ``_lc_of_node`` was an O(group size) identity scan per relocation event; it
  is now the plane's ``node_id -> lc_name`` index and must stay consistent
  across LC failure and rejoin.
* ``_op_submit_vm`` rebuilt the leader's own summary from every LC record on
  every submission; a burst of submissions must now reuse the cached summary
  (at most one rebuild per summary interval).
* ``_op_assign_lc`` counted 0 LCs for GMs that had not yet sent their first
  summary, so K simultaneous joins under least-loaded assignment all piled
  onto one GM; pending assignments are now tracked.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.hierarchy import SnoozeSystem
from repro.monitoring.summary import GroupManagerSummary
from repro.network.message import Message, MessageType
from repro.policies.assignment import AssignmentPolicy
from repro.workloads import BatchArrival, UniformDemandDistribution, WorkloadGenerator


def lc_gm(system: SnoozeSystem, lc_name: str):
    """The running GM currently managing ``lc_name`` (None if unassigned)."""
    for gm in system.group_managers.values():
        if gm.is_running and lc_name in gm.local_controllers:
            return gm
    return None


class TestLcOfNodeIndex:
    """Satellite 1: the node -> LC index survives failure and rejoin."""

    def test_index_resolves_every_joined_lc(self, small_system):
        for lc_name, lc in small_system.local_controllers.items():
            gm = lc_gm(small_system, lc_name)
            assert gm is not None
            assert gm._lc_of_node(lc.node) == lc_name

    def test_index_cleared_on_failure_and_restored_on_rejoin(self, small_system):
        lc_name = "lc-000"
        node = small_system.local_controllers[lc_name].node
        gm_before = lc_gm(small_system, lc_name)
        small_system.kill_local_controller(lc_name)
        small_system.run(4 * small_system.config.heartbeat_timeout)
        assert lc_gm(small_system, lc_name) is None
        assert all(
            gm._lc_of_node(node) is None
            for gm in small_system.group_managers.values()
            if gm.is_running
        )
        assert gm_before._lc_of_node(node) is None
        small_system.recover_component(lc_name)
        rejoined = small_system.run_until(
            lambda: lc_gm(small_system, lc_name) is not None, timeout=60.0
        )
        assert rejoined
        assert lc_gm(small_system, lc_name)._lc_of_node(node) == lc_name


class TestSubmissionSummaryReuse:
    """Satellite 2: a burst of submissions reads one cached summary."""

    def test_own_summary_reuses_cache(self, small_system):
        leader = small_system.leader()
        first = leader._own_summary()
        before = leader.summary_rebuilds
        for _ in range(10):
            assert leader._own_summary() is first
        assert leader.summary_rebuilds == before

    def test_cache_invalidated_by_membership_change(self, small_system):
        leader = small_system.leader()
        leader._own_summary()
        before = leader.summary_rebuilds
        lc_name = next(iter(leader.local_controllers))
        small_system.kill_local_controller(lc_name)
        small_system.run(4 * small_system.config.heartbeat_timeout)
        summary = leader._own_summary()
        assert leader.summary_rebuilds > before
        assert summary.local_controller_count == len(leader.local_controllers)

    def test_submission_burst_rebuilds_at_most_once_per_interval(self, small_system):
        leader = small_system.leader()
        small_system.run(1.0)  # drain any in-flight joins
        before = leader.summary_rebuilds
        generator = WorkloadGenerator(
            UniformDemandDistribution(0.05, 0.1), BatchArrival(0.0)
        )
        small_system.submit_requests(generator.generate(12, np.random.default_rng(2)))
        # Run less than one summary_interval: the burst of 12 dispatches may
        # build the leader's own summary at most once (plus at most one
        # scheduled summary tick that straddles the window).
        small_system.run(0.5 * small_system.config.summary_interval)
        assert small_system.client.placed_count() == 12
        assert leader.summary_rebuilds - before <= 2


class LeastLoadedAssignment(AssignmentPolicy):
    """The GM managing the fewest LCs: a load-aware policy reads ``lc_counts``."""

    name = "least-loaded"

    def choose(self, gm_ids, lc_counts):
        return min(gm_ids, key=lambda gm_id: (lc_counts.get(gm_id, 0), gm_id), default=None)


class TestAssignmentPendingTracking:
    """Satellite 3: K simultaneous joins spread across summary-less GMs.

    The window is the gap between a GM becoming *known* to the Group Leader
    (heartbeat) and its first summary arriving: during it the old code counted
    0 LCs for the GM on every ``_op_assign_lc`` call, so a batch of joins all
    chose the same summary-less GM under least-loaded assignment.
    """

    @pytest.fixture
    def leader(self, small_system):
        leader = small_system.leader()
        leader.assignment_policy = LeastLoadedAssignment()
        # Two GMs the leader knows via heartbeat but has no summary from yet.
        leader.known_gms |= {"gm-77", "gm-88"}
        assert "gm-77" not in leader.gm_summaries
        assert "gm-88" not in leader.gm_summaries
        return leader

    def test_simultaneous_joins_spread_over_summaryless_gms(self, leader):
        chosen = [leader._op_assign_lc(f"lc-x{i:02d}")["gm"] for i in range(6)]
        counts = {gm: chosen.count(gm) for gm in set(chosen)}
        # Without pending tracking all six land on the same summary-less GM.
        assert counts == {"gm-77": 3, "gm-88": 3}
        assert leader._pending_assignments == {"gm-77": 3, "gm-88": 3}

    def test_first_summary_replaces_pending_count(self, leader, small_system):
        for i in range(4):
            leader._op_assign_lc(f"lc-x{i:02d}")
        assert leader._pending_assignments["gm-77"] == 2
        summary = GroupManagerSummary.from_reports("gm-77", small_system.sim.now, [])
        leader._on_gm_summary(
            Message(
                msg_type=MessageType.GM_SUMMARY,
                sender="gm-77",
                recipient=leader.name,
                payload=summary.to_payload(),
            )
        )
        assert "gm-77" not in leader._pending_assignments
        # The real (empty) summary now wins: gm-77 counts 0 again and the next
        # joins go to it until its count catches up.
        assert leader._op_assign_lc("lc-y00")["gm"] == "gm-77"

    def test_pending_cleared_on_gm_failure(self, leader):
        leader._op_assign_lc("lc-x00")
        assert leader._pending_assignments
        leader._gm_failed("gm-77")
        assert "gm-77" not in leader._pending_assignments
