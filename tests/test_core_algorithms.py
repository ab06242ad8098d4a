"""Tests for the consolidation algorithms: FFD family, ACO and the exact solver."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.aco import ACOConsolidation, ACOParameters
from repro.core.base import lower_bound_hosts
from repro.core.ffd import (
    BestFitDecreasing,
    FirstFit,
    FirstFitDecreasing,
    SortKey,
    WorstFitDecreasing,
)
from repro.core.optimal import BranchAndBoundOptimal
from repro.simulation.randomness import spawn_generator
from repro.core.placement import PlacementError
from repro.workloads import UniformDemandDistribution, consolidation_instance


def tiny_instance():
    """A hand-built instance with a known optimum of 2 hosts."""
    demands = np.array(
        [
            [0.6, 0.2],
            [0.4, 0.3],
            [0.5, 0.5],
            [0.5, 0.5],
        ]
    )
    capacities = np.tile([1.0, 1.0], (4, 1))
    return demands, capacities


class TestFirstFitFamily:
    def test_first_fit_places_everything(self, small_instance):
        demands, capacities = small_instance
        result = FirstFit().solve(demands, capacities)
        assert result.feasible
        assert result.algorithm == "first-fit"

    def test_ffd_beats_or_equals_first_fit(self, medium_instance):
        demands, capacities = medium_instance
        ff = FirstFit().solve(demands, capacities)
        ffd = FirstFitDecreasing(sort_key=SortKey.L1).solve(demands, capacities)
        assert ffd.hosts_used <= ff.hosts_used

    def test_ffd_single_dimension_sorts_by_cpu(self):
        demands, capacities = tiny_instance()
        result = FirstFitDecreasing(sort_key=SortKey.SINGLE_DIMENSION, dimension=0).solve(
            demands, capacities
        )
        assert result.feasible
        assert result.hosts_used >= lower_bound_hosts(demands, capacities)

    @pytest.mark.parametrize("key", list(SortKey))
    def test_all_sort_keys_produce_feasible_packings(self, key, small_instance):
        demands, capacities = small_instance
        result = FirstFitDecreasing(sort_key=key).solve(demands, capacities)
        assert result.feasible

    def test_ffd_name_reflects_sort_key(self):
        assert FirstFitDecreasing().name == "ffd"
        assert FirstFitDecreasing(sort_key=SortKey.L2).name == "ffd-l2"

    def test_bfd_feasible_and_reasonable(self, medium_instance):
        demands, capacities = medium_instance
        result = BestFitDecreasing().solve(demands, capacities)
        assert result.feasible
        assert result.hosts_used >= lower_bound_hosts(demands, capacities)

    def test_wfd_spreads_load(self, small_instance):
        demands, capacities = small_instance
        wfd = WorstFitDecreasing().solve(demands, capacities)
        ffd = FirstFitDecreasing(sort_key=SortKey.L1).solve(demands, capacities)
        assert wfd.feasible
        assert wfd.hosts_used >= ffd.hosts_used

    def test_insufficient_hosts_raises(self):
        demands = np.tile([0.6, 0.6], (4, 1))
        capacities = np.tile([1.0, 1.0], (2, 1))  # needs 4 hosts, only 2 available
        with pytest.raises(PlacementError):
            FirstFitDecreasing().solve(demands, capacities)

    def test_first_fit_opens_first_empty_host_that_fits_not_lowest_index(self):
        """Hosts 0 and 2 are too small for the big VMs; open order is 1, 0, 3."""
        demands = np.array([[0.8, 0.8], [0.3, 0.3], [0.8, 0.8], [0.2, 0.2]])
        capacities = np.array([[0.5, 0.5], [1.0, 1.0], [0.5, 0.5], [1.0, 1.0]])
        result = FirstFit().solve(demands, capacities)
        # VM 0 skips empty host 0 (too small) for host 1; VM 1 no longer fits
        # host 1 and opens host 0; VM 2 skips empty host 2 for host 3; VM 3
        # fits hosts 1, 0 and 3 alike and takes the first in *open* order.
        assert result.placement.assignment.tolist() == [1, 0, 3, 1]
        assert result.feasible

    def test_first_fit_raises_when_remaining_empty_hosts_are_too_small(self):
        demands = np.tile([0.8, 0.8], (3, 1))
        capacities = np.array([[1.0, 1.0], [0.5, 0.5], [1.0, 1.0], [0.5, 0.5]])
        with pytest.raises(PlacementError, match="could not place VM 2"):
            FirstFit().solve(demands, capacities)

    def test_runtime_is_recorded(self, small_instance):
        demands, capacities = small_instance
        result = FirstFitDecreasing().solve(demands, capacities)
        assert result.runtime_seconds >= 0.0

    def test_empty_instance(self):
        capacities = np.tile([1.0, 1.0], (3, 1))
        result = FirstFitDecreasing().solve(np.empty((0, 2)), capacities)
        assert result.hosts_used == 0
        assert result.feasible

    def test_sort_dimension_out_of_range_rejected(self, small_instance):
        demands, capacities = small_instance
        with pytest.raises(PlacementError):
            FirstFitDecreasing(dimension=9).solve(demands, capacities)

    def test_heterogeneous_hosts_supported(self, rng):
        demands = UniformDemandDistribution(0.1, 0.5, dimensions=("cpu", "memory")).sample(20, rng)
        capacities = np.vstack([np.tile([1.0, 1.0], (10, 1)), np.tile([2.0, 2.0], (5, 1))])
        result = BestFitDecreasing().solve(demands, capacities)
        assert result.feasible


class TestACO:
    def test_aco_is_feasible_and_complete(self, small_instance):
        demands, capacities = small_instance
        result = ACOConsolidation(rng=np.random.default_rng(0)).solve(demands, capacities)
        assert result.feasible
        assert result.algorithm == "aco"

    def test_aco_never_worse_than_lower_bound(self, small_instance):
        demands, capacities = small_instance
        result = ACOConsolidation(rng=np.random.default_rng(0)).solve(demands, capacities)
        assert result.hosts_used >= lower_bound_hosts(demands, capacities)

    def test_aco_no_worse_than_ffd_on_average(self):
        """The paper's headline: ACO uses fewer (or equal) hosts than FFD."""
        wins = 0
        ties = 0
        losses = 0
        for seed in range(6):
            rng = np.random.default_rng(seed)
            demands, capacities = consolidation_instance(
                40,
                rng,
                demand_distribution=UniformDemandDistribution(0.1, 0.5, dimensions=("cpu", "memory")),
                host_capacity=(1.0, 1.0),
            )
            ffd = FirstFitDecreasing().solve(demands, capacities)
            aco = ACOConsolidation(
                ACOParameters(n_ants=6, n_cycles=20), rng=spawn_generator(seed, 1)
            ).solve(demands, capacities)
            assert aco.feasible
            if aco.hosts_used < ffd.hosts_used:
                wins += 1
            elif aco.hosts_used == ffd.hosts_used:
                ties += 1
            else:
                losses += 1
        assert wins + ties >= 5
        assert losses <= 1

    def test_aco_deterministic_given_rng_seed(self, small_instance):
        demands, capacities = small_instance
        a = ACOConsolidation(rng=np.random.default_rng(7)).solve(demands, capacities)
        b = ACOConsolidation(rng=np.random.default_rng(7)).solve(demands, capacities)
        assert np.array_equal(a.placement.assignment, b.placement.assignment)

    def test_history_is_monotone_non_increasing(self, small_instance):
        demands, capacities = small_instance
        result = ACOConsolidation(rng=np.random.default_rng(1)).solve(demands, capacities)
        history = result.history
        assert history == sorted(history, reverse=True)

    def test_stops_at_lower_bound(self):
        # Two VMs of half a host each: optimum (and bound) is 1 host.
        demands = np.array([[0.5, 0.5], [0.5, 0.5]])
        capacities = np.tile([1.0, 1.0], (3, 1))
        result = ACOConsolidation(
            ACOParameters(n_ants=4, n_cycles=50), rng=np.random.default_rng(0)
        ).solve(demands, capacities)
        assert result.hosts_used == 1
        assert result.proved_optimal
        assert result.iterations < 50  # stopped early

    def test_pheromone_stays_within_bounds(self, small_instance):
        demands, capacities = small_instance
        params = ACOParameters(n_ants=4, n_cycles=10, tau_min=0.05, tau_max=5.0)
        result = ACOConsolidation(params, rng=np.random.default_rng(3)).solve(demands, capacities)
        assert result.extra["pheromone_max"] <= 5.0 + 1e-9
        assert result.extra["pheromone_mean"] >= 0.05 - 1e-9

    def test_empty_instance(self):
        capacities = np.tile([1.0, 1.0], (2, 1))
        result = ACOConsolidation(rng=np.random.default_rng(0)).solve(np.empty((0, 2)), capacities)
        assert result.hosts_used == 0

    def test_too_few_hosts_raises(self):
        demands = np.tile([0.9, 0.9], (3, 1))
        capacities = np.tile([1.0, 1.0], (2, 1))
        with pytest.raises(PlacementError):
            ACOConsolidation(rng=np.random.default_rng(0)).solve(demands, capacities)

    def test_ants_that_run_out_of_hosts_are_dropped_not_fatal(self):
        """Four 0.6s and four 0.4s fit four unit hosts only as 0.6+0.4 pairs:
        an ant that opens a host with two 0.4s runs out of hosts.  It leaves
        its cycle; the colony keeps the ants that finished."""
        demands = np.array([[0.6, 0.6], [0.4, 0.4]] * 4)
        capacities = np.tile([1.0, 1.0], (4, 1))
        for stop_at_lower_bound in (True, False):  # False: the stochastic cycles run too
            result = ACOConsolidation(
                ACOParameters(stop_at_lower_bound=stop_at_lower_bound),
                rng=np.random.default_rng(0),
            ).solve(demands, capacities)
            assert result.feasible and result.placement.fully_assigned
            assert result.hosts_used == 4

    def test_solves_with_exactly_the_hosts_ffd_needs(self):
        """A feasible-but-tight instance (no spare host) is solved, not aborted."""
        demands = UniformDemandDistribution(0.1, 0.5, dimensions=("cpu", "memory")).sample(
            14, np.random.default_rng(4)
        )
        ffd_hosts = FirstFitDecreasing().solve(demands, np.tile([1.0, 1.0], (14, 1))).hosts_used
        capacities = np.tile([1.0, 1.0], (ffd_hosts, 1))
        result = ACOConsolidation(rng=np.random.default_rng(4)).solve(demands, capacities)
        assert result.feasible and result.placement.fully_assigned
        assert result.hosts_used <= ffd_hosts

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ACOParameters(n_ants=0)
        with pytest.raises(ValueError):
            ACOParameters(rho=0.0)
        with pytest.raises(ValueError):
            ACOParameters(q0=1.5)
        with pytest.raises(ValueError):
            ACOParameters(tau_min=0.5, tau_max=0.1)
        with pytest.raises(ValueError):
            ACOParameters(stagnation_cycles=0)

    def test_greedy_mode_q0_one_is_deterministic_construction(self, small_instance):
        demands, capacities = small_instance
        params = ACOParameters(n_ants=2, n_cycles=3, q0=1.0)
        a = ACOConsolidation(params, rng=np.random.default_rng(0)).solve(demands, capacities)
        b = ACOConsolidation(params, rng=np.random.default_rng(99)).solve(demands, capacities)
        assert a.hosts_used == b.hosts_used

    def test_three_dimensional_instances_supported(self, rng):
        demands = UniformDemandDistribution(0.1, 0.4).sample(20, rng)
        capacities = np.tile([1.0, 1.0, 1.0], (12, 1))
        result = ACOConsolidation(rng=np.random.default_rng(2)).solve(demands, capacities)
        assert result.feasible


class TestBranchAndBoundOptimal:
    def test_finds_known_optimum(self):
        demands, capacities = tiny_instance()
        result = BranchAndBoundOptimal().solve(demands, capacities)
        assert result.hosts_used == 2
        assert result.proved_optimal
        assert result.feasible

    def test_never_worse_than_ffd(self, small_instance):
        demands, capacities = small_instance
        ffd = FirstFitDecreasing().solve(demands, capacities)
        optimal = BranchAndBoundOptimal(time_limit_seconds=10.0).solve(demands, capacities)
        assert optimal.hosts_used <= ffd.hosts_used

    def test_never_below_lower_bound(self, small_instance):
        demands, capacities = small_instance
        result = BranchAndBoundOptimal(time_limit_seconds=10.0).solve(demands, capacities)
        assert result.hosts_used >= lower_bound_hosts(demands, capacities)

    def test_aco_close_to_optimal_small_instances(self):
        """The paper's claim: ACO lands within a few percent of the optimum."""
        deviations = []
        for seed in range(5):
            rng = np.random.default_rng(seed)
            demands, capacities = consolidation_instance(
                10,
                rng,
                demand_distribution=UniformDemandDistribution(0.1, 0.5, dimensions=("cpu", "memory")),
                host_capacity=(1.0, 1.0),
            )
            optimal = BranchAndBoundOptimal(time_limit_seconds=10.0).solve(demands, capacities)
            aco = ACOConsolidation(
                ACOParameters(n_ants=8, n_cycles=40), rng=spawn_generator(seed, 1)
            ).solve(demands, capacities)
            deviations.append(aco.hosts_used / optimal.hosts_used - 1.0)
        assert np.mean(deviations) <= 0.10  # within 10 % of optimal on average

    def test_node_budget_degrades_gracefully(self, small_instance):
        demands, capacities = small_instance
        result = BranchAndBoundOptimal(max_nodes=10).solve(demands, capacities)
        assert result.feasible  # still returns the FFD seed or better
        assert result.nodes_explored <= 10 + 1

    def test_empty_instance(self):
        capacities = np.tile([1.0, 1.0], (2, 1))
        result = BranchAndBoundOptimal().solve(np.empty((0, 2)), capacities)
        assert result.hosts_used == 0
        assert result.proved_optimal

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            BranchAndBoundOptimal(max_nodes=0)
        with pytest.raises(ValueError):
            BranchAndBoundOptimal(time_limit_seconds=0.0)

    def test_single_vm(self):
        demands = np.array([[0.5, 0.5]])
        capacities = np.tile([1.0, 1.0], (2, 1))
        result = BranchAndBoundOptimal().solve(demands, capacities)
        assert result.hosts_used == 1
        assert result.proved_optimal

    def test_summary_contains_expected_fields(self, small_instance):
        demands, capacities = small_instance
        result = BranchAndBoundOptimal(time_limit_seconds=5.0).solve(demands, capacities)
        summary = result.summary()
        for key in ("algorithm", "hosts_used", "feasible", "runtime_seconds", "proved_optimal"):
            assert key in summary
