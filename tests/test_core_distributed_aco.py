"""Tests for the distributed ACO consolidation (the paper's future-work variant)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ACOConsolidation, DistributedACOConsolidation, FirstFitDecreasing
from repro.core.aco import ACOParameters
from repro.core.base import lower_bound_hosts
from repro.core.placement import PlacementError
from repro.policies.reconfiguration import ReconfigurationPolicy
from repro.workloads import ConstantTrace, UniformDemandDistribution, consolidation_instance

from tests.conftest import join_view, make_node, make_vm, no_hang


def make_instance(n_vms=60, seed=0):
    rng = np.random.default_rng(seed)
    return consolidation_instance(
        n_vms,
        rng,
        demand_distribution=UniformDemandDistribution(0.1, 0.5, dimensions=("cpu", "memory")),
        host_capacity=(1.0, 1.0),
    )


class TestDistributedACO:
    def test_produces_feasible_complete_placement(self):
        demands, capacities = make_instance()
        result = DistributedACOConsolidation(
            n_partitions=3,
            parameters=ACOParameters(n_ants=4, n_cycles=10),
            rng=np.random.default_rng(1),
        ).solve(demands, capacities)
        assert result.feasible
        assert result.hosts_used >= lower_bound_hosts(demands, capacities)

    def test_respects_partition_count_in_extra(self):
        demands, capacities = make_instance(40)
        result = DistributedACOConsolidation(
            n_partitions=4,
            parameters=ACOParameters(n_ants=4, n_cycles=8),
            rng=np.random.default_rng(2),
        ).solve(demands, capacities)
        assert result.extra["partitions"] == 4
        assert len(result.extra["partition_hosts_used"]) == 4

    def test_single_partition_matches_centralized_quality(self):
        demands, capacities = make_instance(30, seed=3)
        params = ACOParameters(n_ants=6, n_cycles=15)
        central = ACOConsolidation(params, rng=np.random.default_rng(7)).solve(demands, capacities)
        distributed = DistributedACOConsolidation(
            n_partitions=1, parameters=params, rng=np.random.default_rng(7)
        ).solve(demands, capacities)
        assert distributed.feasible
        assert abs(distributed.hosts_used - central.hosts_used) <= 1

    def test_quality_close_to_ffd_despite_partitioning(self):
        demands, capacities = make_instance(80, seed=4)
        ffd = FirstFitDecreasing().solve(demands, capacities)
        distributed = DistributedACOConsolidation(
            n_partitions=4,
            parameters=ACOParameters(n_ants=6, n_cycles=15),
            rng=np.random.default_rng(5),
        ).solve(demands, capacities)
        assert distributed.feasible
        # Partitioning costs some quality but stays in FFD's neighbourhood.
        assert distributed.hosts_used <= ffd.hosts_used + 4

    def test_exchange_round_never_hurts(self):
        demands, capacities = make_instance(60, seed=6)
        params = ACOParameters(n_ants=4, n_cycles=8)
        without = DistributedACOConsolidation(
            n_partitions=3, parameters=params, exchange_round=False, rng=np.random.default_rng(9)
        ).solve(demands, capacities)
        with_exchange = DistributedACOConsolidation(
            n_partitions=3, parameters=params, exchange_round=True, rng=np.random.default_rng(9)
        ).solve(demands, capacities)
        assert with_exchange.feasible
        assert with_exchange.hosts_used <= without.hosts_used

    def test_more_partitions_than_hosts_is_clamped(self):
        demands = np.array([[0.4, 0.4], [0.3, 0.3]])
        capacities = np.tile([1.0, 1.0], (2, 1))
        result = DistributedACOConsolidation(
            n_partitions=8, parameters=ACOParameters(n_ants=2, n_cycles=4)
        ).solve(demands, capacities)
        assert result.feasible
        assert result.extra["partitions"] == 2

    def test_empty_instance(self):
        capacities = np.tile([1.0, 1.0], (3, 1))
        result = DistributedACOConsolidation(n_partitions=2).solve(np.empty((0, 2)), capacities)
        assert result.hosts_used == 0

    def test_invalid_partition_count_rejected(self):
        with pytest.raises(ValueError):
            DistributedACOConsolidation(n_partitions=0)

    def test_deterministic_given_rng(self):
        demands, capacities = make_instance(30, seed=8)
        params = ACOParameters(n_ants=4, n_cycles=8)
        a = DistributedACOConsolidation(
            n_partitions=2, parameters=params, rng=np.random.default_rng(11)
        ).solve(demands, capacities)
        b = DistributedACOConsolidation(
            n_partitions=2, parameters=params, rng=np.random.default_rng(11)
        ).solve(demands, capacities)
        assert np.array_equal(a.placement.assignment, b.placement.assignment)

    def test_result_independent_of_jobs_count(self):
        """Partition seeds are SeedSequence children spawned before the
        fan-out, so in-process and multiprocess runs are byte-identical
        (regression for the old ``default_rng(rng.integers(...))`` reseeding,
        which was fan-out-order dependent and collision-prone)."""
        demands, capacities = make_instance(45, seed=13)
        params = ACOParameters(n_ants=4, n_cycles=6)
        serial = DistributedACOConsolidation(
            n_partitions=3, parameters=params, rng=np.random.default_rng(21), jobs=1
        ).solve(demands, capacities)
        parallel = DistributedACOConsolidation(
            n_partitions=3, parameters=params, rng=np.random.default_rng(21), jobs=2
        ).solve(demands, capacities)
        assert np.array_equal(serial.placement.assignment, parallel.placement.assignment)
        assert serial.extra["partition_hosts_used"] == parallel.extra["partition_hosts_used"]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_unpackable_partition_is_a_placement_error_for_any_jobs(self, jobs):
        """Hosts are dealt round-robin, so partition 1 gets both small hosts and
        a VM neither can hold; its ``PlacementError`` crosses the process
        boundary as itself, which is what the fail-safe plan catches."""
        nodes = [
            make_node(f"node-{i}", cpu=size, memory=size, network=size)
            for i, size in enumerate([4.0, 0.5, 4.0, 0.5])
        ]
        for node, count in ((nodes[0], 3), (nodes[2], 2)):
            for _ in range(count):
                vm = make_vm(cpu=0.6, memory=0.6, trace=ConstantTrace(1.0))
                node.place_vm(vm)
                vm.update_usage(0.0)
        algorithm = DistributedACOConsolidation(
            n_partitions=2, parameters=ACOParameters(n_ants=2, n_cycles=3), jobs=jobs
        )
        demands = np.vstack([vm.used.values for node in nodes for vm in node.vms])
        capacities = np.vstack([node.capacity.values for node in nodes])
        with no_hang(), pytest.raises(PlacementError, match="do not fit on any host"):
            algorithm.solve(demands, capacities)
        with no_hang():
            plan = ReconfigurationPolicy(algorithm=algorithm).plan(join_view(nodes))
        assert plan.empty and plan.hosts_after == plan.hosts_before == 2
        assert plan.reason == "consolidation found no placement; keeping current placement"

    def test_vectorized_partitions_feasible_and_deterministic(self):
        """Every partition runs the batched colony kernel (there is no other)."""
        demands, capacities = make_instance(60, seed=14)
        params = ACOParameters(n_ants=4, n_cycles=6)
        a = DistributedACOConsolidation(
            n_partitions=3, parameters=params, rng=np.random.default_rng(5)
        ).solve(demands, capacities)
        b = DistributedACOConsolidation(
            n_partitions=3, parameters=params, rng=np.random.default_rng(5)
        ).solve(demands, capacities)
        assert a.feasible
        assert np.array_equal(a.placement.assignment, b.placement.assignment)

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError):
            DistributedACOConsolidation(jobs=0)


class TestExchangeRound:
    """Property tests for the cross-partition host-release pass.

    With identical generators the pre-exchange plans of ``exchange_round=False``
    and ``exchange_round=True`` runs coincide (seeding is deterministic), so the
    pair exposes exactly what the exchange changed.
    """

    def paired_runs(self, n_vms=70, seed=17, rng_seed=23):
        demands, capacities = make_instance(n_vms, seed=seed)
        params = ACOParameters(n_ants=4, n_cycles=8)
        before = DistributedACOConsolidation(
            n_partitions=4, parameters=params, exchange_round=False,
            rng=np.random.default_rng(rng_seed),
        ).solve(demands, capacities)
        after = DistributedACOConsolidation(
            n_partitions=4, parameters=params, exchange_round=True,
            rng=np.random.default_rng(rng_seed),
        ).solve(demands, capacities)
        return demands, capacities, before, after

    def test_exchange_preserves_feasibility_and_completeness(self):
        demands, capacities, _, after = self.paired_runs()
        assert after.feasible
        assert after.placement.fully_assigned
        loads = np.zeros_like(capacities)
        np.add.at(loads, after.placement.assignment, demands)
        assert np.all(loads <= capacities + 1e-9)

    def test_exchange_migrations_matches_actual_assignment_changes(self):
        _, _, before, after = self.paired_runs()
        changed = int(
            np.count_nonzero(before.placement.assignment != after.placement.assignment)
        )
        assert after.extra["exchange_migrations"] == changed

    def test_exchange_is_all_or_nothing_per_host(self):
        """A host sheds either all of its VMs or none of them."""
        _, capacities, before, after = self.paired_runs()
        for host in range(capacities.shape[0]):
            original = set(np.flatnonzero(before.placement.assignment == host))
            if not original:
                continue
            remaining = original & set(np.flatnonzero(after.placement.assignment == host))
            assert remaining == original or not remaining

    def test_exchange_only_fills_already_used_hosts(self):
        """Moved VMs land on hosts the pre-exchange plan already used."""
        _, _, before, after = self.paired_runs()
        used_before = set(before.placement.used_host_indices().tolist())
        moved = np.flatnonzero(before.placement.assignment != after.placement.assignment)
        for vm in moved:
            assert int(after.placement.assignment[vm]) in used_before
