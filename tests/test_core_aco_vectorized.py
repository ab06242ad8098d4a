"""Tests for the ACO colony kernel: batched ants, colonies, warm start, bounds.

Packing quality is asserted against the scalar per-ant loop kept as the oracle
in ``tests/scalar_aco.py``; the construction itself, draw for draw, against the
full-width lockstep construction in ``tests/fullwidth_aco.py``.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ACOConsolidation, PheromoneSummary
from repro.core.aco import ACOParameters, _Colony
from repro.core.base import lower_bound_hosts
from repro.core.placement import Placement, PlacementError
from repro.workloads import UniformDemandDistribution, consolidation_instance
from tests.fullwidth_aco import FullWidthColony
from tests.golden import regenerate as golden
from tests.scalar_aco import ScalarACOConsolidation


def make_instance(n_vms=60, seed=0):
    rng = np.random.default_rng(seed)
    return consolidation_instance(
        n_vms,
        rng,
        demand_distribution=UniformDemandDistribution(0.1, 0.5, dimensions=("cpu", "memory")),
        host_capacity=(1.0, 1.0),
    )


class TestVectorizedACO:
    def test_produces_feasible_complete_placement(self):
        demands, capacities = make_instance()
        result = ACOConsolidation(rng=np.random.default_rng(0)).solve(
            demands, capacities
        )
        assert result.feasible
        assert result.placement.fully_assigned
        assert result.algorithm == "aco"
        assert result.hosts_used >= lower_bound_hosts(demands, capacities)

    def test_feasible_across_seeds_and_sizes(self):
        """Property sweep: every constructed plan respects every capacity."""
        for n_vms, seed in [(10, 0), (40, 1), (90, 2), (150, 3)]:
            demands, capacities = make_instance(n_vms, seed=seed)
            result = ACOConsolidation(
                ACOParameters(n_ants=4, n_cycles=6), rng=np.random.default_rng(seed)
            ).solve(demands, capacities)
            assert result.feasible
            loads = np.zeros_like(capacities)
            np.add.at(loads, result.placement.assignment, demands)
            assert np.all(loads <= capacities + 1e-9)

    def test_packs_no_worse_than_scalar_on_identical_seeds(self):
        """The batched kernels change the speed, not the packing quality."""
        params = ACOParameters(n_ants=6, n_cycles=15)
        for seed in range(5):
            demands, capacities = make_instance(50, seed=seed)
            scalar = ScalarACOConsolidation(params, rng=np.random.default_rng(seed)).solve(
                demands, capacities
            )
            batched = ACOConsolidation(params, rng=np.random.default_rng(seed)).solve(
                demands, capacities
            )
            assert batched.hosts_used <= scalar.hosts_used

    def test_deterministic_given_rng(self):
        demands, capacities = make_instance(40, seed=4)
        a = ACOConsolidation(rng=np.random.default_rng(7)).solve(demands, capacities)
        b = ACOConsolidation(rng=np.random.default_rng(7)).solve(demands, capacities)
        assert np.array_equal(a.placement.assignment, b.placement.assignment)

    def test_history_is_monotone_non_increasing(self):
        demands, capacities = make_instance(40, seed=5)
        result = ACOConsolidation(rng=np.random.default_rng(1)).solve(
            demands, capacities
        )
        assert result.history == sorted(result.history, reverse=True)

    def test_colonies_independent_of_jobs_count(self):
        """Seeds are spawned before the fan-out, so jobs=1 and jobs=2 agree."""
        demands, capacities = make_instance(40, seed=6)
        params = ACOParameters(n_ants=4, n_cycles=6)
        serial = ACOConsolidation(
            params, rng=np.random.default_rng(3), n_colonies=3, jobs=1
        ).solve(demands, capacities)
        parallel = ACOConsolidation(
            params, rng=np.random.default_rng(3), n_colonies=3, jobs=2
        ).solve(demands, capacities)
        assert np.array_equal(serial.placement.assignment, parallel.placement.assignment)
        assert serial.extra["colony_hosts_used"] == parallel.extra["colony_hosts_used"]
        assert serial.extra["best_colony"] == parallel.extra["best_colony"]

    def test_multiple_colonies_never_worse_than_their_best(self):
        demands, capacities = make_instance(50, seed=7)
        result = ACOConsolidation(
            ACOParameters(n_ants=4, n_cycles=8), rng=np.random.default_rng(9), n_colonies=4
        ).solve(demands, capacities)
        assert result.extra["n_colonies"] == 4
        assert len(result.extra["colony_hosts_used"]) == 4
        assert result.hosts_used == min(result.extra["colony_hosts_used"])

    def test_stops_at_lower_bound(self):
        demands = np.array([[0.5, 0.5], [0.5, 0.5]])
        capacities = np.tile([1.0, 1.0], (3, 1))
        result = ACOConsolidation(
            ACOParameters(n_ants=4, n_cycles=50), rng=np.random.default_rng(0)
        ).solve(demands, capacities)
        assert result.hosts_used == 1
        assert result.proved_optimal

    def test_empty_instance(self):
        capacities = np.tile([1.0, 1.0], (2, 1))
        result = ACOConsolidation(rng=np.random.default_rng(0)).solve(
            np.empty((0, 2)), capacities
        )
        assert result.hosts_used == 0

    def test_too_few_hosts_raises(self):
        demands = np.tile([0.9, 0.9], (3, 1))
        capacities = np.tile([1.0, 1.0], (2, 1))
        with pytest.raises(PlacementError):
            ACOConsolidation(rng=np.random.default_rng(0)).solve(demands, capacities)

    def test_invalid_colony_and_jobs_counts_rejected(self):
        with pytest.raises(ValueError):
            ACOConsolidation(n_colonies=0)
        with pytest.raises(ValueError):
            ACOConsolidation(jobs=0)

    def test_mismatched_initial_pheromone_shape_rejected(self):
        demands, capacities = make_instance(10, seed=8)
        with pytest.raises(PlacementError):
            ACOConsolidation(rng=np.random.default_rng(0)).solve(
                demands, capacities, initial_pheromone=np.ones((3, 3))
            )


@st.composite
def construction_cases(draw):
    """``(demands, capacities, parameters, initial_pheromone, seed)`` for one colony.

    Drawn through a seeded numpy generator (hypothesis shrinks the shape knobs
    and the seed): 1-3 dimensions, sizes on both sides of the first candidate
    compaction, heterogeneous hosts, host counts so tight that ants run out
    and leave the batch, warm-start matrices outside the Max-Min band.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_dims = draw(st.integers(1, 3))
    n_vms = draw(st.integers(1, 40))
    demands = rng.uniform(0.05, 0.6, (n_vms, n_dims))
    host_capacity = rng.uniform(0.8, 1.5, n_dims)
    # Hosts per unit of the lower bound; near 1 some or all ants run out.
    slack = draw(st.sampled_from([1.05, 1.1, 1.15, 1.2, 3.0]))
    n_hosts = max(1, int(np.ceil((demands.sum(axis=0) / host_capacity).max() * slack)))
    capacities = np.tile(host_capacity, (n_hosts, 1))
    if draw(st.booleans()):  # heterogeneous; some hosts may fit no remaining VM
        capacities = capacities * rng.uniform(0.5, 1.6, (n_hosts, 1))
    parameters = ACOParameters(
        n_ants=draw(st.integers(1, 8)),
        alpha=draw(st.sampled_from([0.5, 1.0, 2.0])),
        beta=draw(st.sampled_from([1.0, 2.0, 3.0])),
        q0=draw(st.sampled_from([0.0, 0.3, 1.0])),
    )
    initial = rng.uniform(0.01, 6.0, (n_vms, n_hosts)) if draw(st.booleans()) else None
    return demands, capacities, parameters, initial, draw(st.integers(0, 2**32 - 1))


def anchor_and_two_cycles(colony_class, demands, capacities, parameters, initial, seed):
    """Every assignment batch a short run constructs, and the generator state after."""
    colony = colony_class(demands, capacities, parameters, np.random.default_rng(seed), initial)
    batches = [colony._construct(n_ants=1, greedy=True)]
    colony._adopt_better(batches[0])
    for _ in range(2):
        batches.append(colony._construct(parameters.n_ants, greedy=False))
        colony._adopt_better(batches[-1])
        colony._update_pheromone()
    return batches, colony.rng.bit_generator.state


class TestConstructionOracle:
    """The compacted-candidate construction against the full-width one.

    Both mutations the compaction invites fail this class: dropping one live
    column at a compaction, and keeping the previous host's pheromone row when
    an ant opens a host.
    """

    @settings(max_examples=250, deadline=None)
    @given(construction_cases())
    def test_identical_assignments_and_generator_state(self, case):
        expected, expected_state = anchor_and_two_cycles(FullWidthColony, *case)
        actual, actual_state = anchor_and_two_cycles(_Colony, *case)
        for want, got in zip(expected, actual):
            assert got.shape == want.shape  # (alive ants, n_vms)
            assert np.array_equal(got, want)
        assert actual_state == expected_state

    def test_pinned_solves_of_the_yardstick_instances(self):
        """500 / 1000 / 2000-VM solves, fixture generated at the full-width commit.

        The oracle shares the kernel's ``totals = cdf[:, -1]``; this is what
        ties the kernel to the commit before it across that last-ulp change.
        The paper's claim rides along: ACO never uses more hosts than FFD.
        """
        solves = golden.aco_solves()
        assert solves == json.loads(golden.ACO_SOLVES_PATH.read_text())
        for n_vms, _, _, seed in golden.ACO_SOLVE_CELLS:
            solve = solves[f"{n_vms}-seed{seed}"]
            bound = lower_bound_hosts(*golden.aco_solve_instance(n_vms, seed))
            assert bound <= solve["aco_hosts_used"] <= solve["ffd_hosts_used"], (n_vms, seed)


class AlmostOne:
    """Generator stub whose every uniform draw is the largest double below 1."""

    def random(self, size):
        return np.full(size, np.nextafter(1.0, 0.0))


class TestRouletteNeverPicksPlacedOrInfeasible:
    """A draw scales the row total to strictly less, so the roulette lands on a
    positive-score column -- never past the last one, where a clamp used to
    select the final VM column whatever its state."""

    @staticmethod
    def assert_complete_and_feasible(demands, capacities, parameters, initial=None):
        colony = _Colony(demands, capacities, parameters, AlmostOne(), initial)
        assignments = colony._construct(parameters.n_ants, greedy=False)
        assert assignments.shape == (parameters.n_ants, demands.shape[0])
        for assignment in assignments:
            assert (assignment >= 0).all()
            assert Placement(demands, capacities, assignment).is_feasible()

    def test_homogeneous_instance(self):
        demands, capacities = make_instance(60, seed=3)
        self.assert_complete_and_feasible(demands, capacities, ACOParameters(n_ants=4))

    def test_heterogeneous_instance(self):
        demands, _ = make_instance(60, seed=4)
        capacities = np.tile([[1.0, 1.0], [0.7, 1.3], [1.4, 0.8]], (20, 1))
        self.assert_complete_and_feasible(demands, capacities, ACOParameters(n_ants=4, q0=0.0))

    def test_subnormal_score_totals_count_as_underflow(self):
        """``tau_min ** 240`` is subnormal, where ``draw * total == total``."""
        demands, capacities = make_instance(30, seed=5)
        parameters = ACOParameters(n_ants=3, alpha=240.0)
        trail = np.full((demands.shape[0], capacities.shape[0]), parameters.tau_min)
        assert 0.0 < parameters.tau_min**parameters.alpha < np.finfo(float).tiny
        self.assert_complete_and_feasible(demands, capacities, parameters, trail)


class TestPheromoneBounds:
    """Regression for the deposit-scale bug: the reinforcement used to grow
    with the instance size (``delta ~ n_vms / hosts_used``), so at a few
    hundred VMs every reinforced entry slammed into ``tau_max`` and the
    Max-Min band collapsed.  The fixed deposit is size-independent, so on a
    large instance the trail must sit *strictly inside* ``(tau_min, tau_max)``."""

    # Few cycles and no early stop: unreinforced entries decay to
    # tau_initial * (1-rho)^cycles = 0.7^5 ~ 0.17, still above tau_min=0.05,
    # while reinforced entries approach rho-equilibrium (1+quality) < 2 < 5.
    PARAMS = ACOParameters(
        n_ants=2, n_cycles=5, stop_at_lower_bound=False, stagnation_cycles=None
    )

    @staticmethod
    def large_instance():
        rng = np.random.default_rng(12)
        return consolidation_instance(
            500,
            rng,
            demand_distribution=UniformDemandDistribution(0.05, 0.3, dimensions=("cpu", "memory")),
            host_capacity=(1.0, 1.0),
        )

    def test_vectorized_pheromone_strictly_inside_band_at_500_vms(self):
        demands, capacities = self.large_instance()
        result = ACOConsolidation(self.PARAMS, rng=np.random.default_rng(2)).solve(
            demands, capacities
        )
        assert result.extra["pheromone_max"] < self.PARAMS.tau_max
        assert result.extra["pheromone_min"] > self.PARAMS.tau_min

    def test_scalar_pheromone_strictly_inside_band_at_500_vms(self):
        demands, capacities = self.large_instance()
        result = ScalarACOConsolidation(self.PARAMS, rng=np.random.default_rng(2)).solve(
            demands, capacities
        )
        assert result.extra["pheromone_max"] < self.PARAMS.tau_max
        assert result.extra["pheromone_min"] > self.PARAMS.tau_min


class TestWarmStart:
    def test_summary_matrix_boosts_remembered_pairs(self):
        params = ACOParameters()
        summary = PheromoneSummary(pairs={1: "node-b", 2: "node-a"}, strength=0.5)
        matrix = summary.matrix([1, 2, 3], ["node-a", "node-b"], params)
        boosted = params.tau_initial + 0.5 * (params.tau_max - params.tau_initial)
        assert matrix is not None
        assert matrix[0, 1] == pytest.approx(boosted)
        assert matrix[1, 0] == pytest.approx(boosted)
        # VM 3 has no remembered host: uniform initial trail.
        assert np.all(matrix[2] == params.tau_initial)

    def test_summary_matrix_none_without_surviving_pairs(self):
        params = ACOParameters()
        assert PheromoneSummary().matrix([1, 2], ["a"], params) is None
        stale = PheromoneSummary(pairs={99: "gone-host"})
        assert stale.matrix([1, 2], ["a"], params) is None

    def test_warm_start_reproduces_incumbent_via_greedy_anchor(self):
        """A strongly-boosted trail makes the greedy anchor rebuild the plan."""
        demands, capacities = make_instance(40, seed=10)
        params = ACOParameters(n_ants=4, n_cycles=10)
        cold = ACOConsolidation(params, rng=np.random.default_rng(5)).solve(
            demands, capacities
        )
        summary = PheromoneSummary(
            pairs={vm: int(host) for vm, host in enumerate(cold.placement.assignment)},
            strength=1.0,
        )
        initial = summary.matrix(
            list(range(demands.shape[0])), list(range(capacities.shape[0])), params
        )
        warm = ACOConsolidation(params, rng=np.random.default_rng(6)).solve(
            demands, capacities, initial_pheromone=initial
        )
        assert warm.extra["warm_started"]
        # The anchor bounds the warm run from below: never worse than the
        # remembered plan, regardless of what the stochastic cycles find.
        assert warm.hosts_used <= cold.hosts_used

    def test_warm_start_is_clipped_into_the_maxmin_band(self):
        demands, capacities = make_instance(20, seed=11)
        params = ACOParameters(n_ants=2, n_cycles=1, stop_at_lower_bound=False)
        hot = np.full((demands.shape[0], capacities.shape[0]), 50.0)
        result = ACOConsolidation(params, rng=np.random.default_rng(1)).solve(
            demands, capacities, initial_pheromone=hot
        )
        assert result.extra["pheromone_max"] <= params.tau_max + 1e-9
