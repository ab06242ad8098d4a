"""Property-based tests (hypothesis) on the core data structures and invariants.

These cover the invariants the whole reproduction leans on:

* ResourceVector arithmetic behaves like a vector space over non-negative data;
* every consolidation algorithm returns a *feasible, complete* placement and
  never beats the provable lower bound;
* FFD never uses fewer hosts than the exact optimum and ACO never uses more
  hosts than plain First-Fit's worst case guarantees;
* demand estimators stay within the sample envelope;
* the migration planner never violates capacities when executed step by step.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.resources import ResourceVector
from repro.core.aco import ACOConsolidation, ACOParameters
from repro.core.base import lower_bound_hosts
from repro.core.ffd import BestFitDecreasing, FirstFit, FirstFitDecreasing, SortKey
from repro.core.migration_plan import plan_migrations
from repro.monitoring.estimators import EwmaEstimator, MaxEstimator, MeanEstimator, PercentileEstimator
from repro.policies.thresholds import UtilizationThresholds


# --------------------------------------------------------------------- helpers
@st.composite
def instances(draw, max_vms=24, dimensions=2):
    """Random feasible vector bin-packing instances (unit hosts)."""
    n_vms = draw(st.integers(min_value=1, max_value=max_vms))
    demands = draw(
        st.lists(
            st.lists(
                st.floats(min_value=0.05, max_value=0.95, allow_nan=False),
                min_size=dimensions,
                max_size=dimensions,
            ),
            min_size=n_vms,
            max_size=n_vms,
        )
    )
    demands = np.asarray(demands)
    capacities = np.tile(np.ones(dimensions), (n_vms, 1))  # one host per VM always suffices
    return demands, capacities


@st.composite
def resource_vectors(draw, dimensions=3):
    values = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=10.0, allow_nan=False, allow_infinity=False),
            min_size=dimensions,
            max_size=dimensions,
        )
    )
    return ResourceVector(values)


# ------------------------------------------------------------ ResourceVector
class TestResourceVectorProperties:
    @given(resource_vectors(), resource_vectors())
    def test_addition_commutative(self, a, b):
        assert a + b == b + a

    @given(resource_vectors(), resource_vectors(), resource_vectors())
    def test_addition_associative(self, a, b, c):
        left = (a + b) + c
        right = a + (b + c)
        assert np.allclose(left.values, right.values)

    @given(resource_vectors())
    def test_zero_is_identity(self, a):
        zero = ResourceVector.zeros(a.dimensions)
        assert a + zero == a

    @given(resource_vectors(), st.floats(min_value=0.0, max_value=5.0, allow_nan=False))
    def test_scaling_scales_norms(self, a, factor):
        scaled = a * factor
        assert scaled.l1() == pytest.approx(a.l1() * factor, rel=1e-9, abs=1e-9)

    @given(resource_vectors(), resource_vectors())
    def test_fits_within_consistent_with_dominates(self, a, b):
        assert a.fits_within(b) == b.dominates(a)

    @given(resource_vectors())
    def test_subtract_self_is_zero(self, a):
        assert np.allclose((a - a).values, 0.0)


# ----------------------------------------------------------------- algorithms
ALGORITHMS = [
    ("first-fit", lambda: FirstFit()),
    ("ffd", lambda: FirstFitDecreasing(sort_key=SortKey.L1)),
    ("bfd", lambda: BestFitDecreasing()),
    ("aco", lambda: ACOConsolidation(ACOParameters(n_ants=4, n_cycles=8), rng=np.random.default_rng(0))),
]


class TestAlgorithmProperties:
    @pytest.mark.parametrize("name,factory", ALGORITHMS)
    @given(instance=instances())
    @settings(max_examples=25, deadline=None)
    def test_every_algorithm_returns_feasible_complete_placement(self, name, factory, instance):
        demands, capacities = instance
        result = factory().solve(demands, capacities)
        placement = result.placement
        assert placement.fully_assigned
        assert placement.is_feasible()
        assert result.hosts_used >= lower_bound_hosts(demands, capacities)
        assert result.hosts_used <= demands.shape[0]

    @given(instance=instances(max_vms=16))
    @settings(max_examples=20, deadline=None)
    def test_ffd_not_worse_than_first_fit_by_large_margin(self, instance):
        demands, capacities = instance
        ff = FirstFit().solve(demands, capacities)
        ffd = FirstFitDecreasing(sort_key=SortKey.L1).solve(demands, capacities)
        # Classic guarantee-ish sanity: sorting never costs more than a couple of hosts.
        assert ffd.hosts_used <= ff.hosts_used + 1

    @given(instance=instances(max_vms=14))
    @settings(max_examples=15, deadline=None)
    def test_aco_not_worse_than_ffd_plus_slack(self, instance):
        demands, capacities = instance
        ffd = FirstFitDecreasing(sort_key=SortKey.L1).solve(demands, capacities)
        aco = ACOConsolidation(
            ACOParameters(n_ants=4, n_cycles=10), rng=np.random.default_rng(1)
        ).solve(demands, capacities)
        assert aco.hosts_used <= ffd.hosts_used + 1

    @given(instance=instances(max_vms=12))
    @settings(max_examples=15, deadline=None)
    def test_host_loads_equal_sum_of_assigned_demands(self, instance):
        demands, capacities = instance
        result = FirstFitDecreasing().solve(demands, capacities)
        loads = result.placement.host_loads()
        assert np.allclose(loads.sum(axis=0), demands.sum(axis=0))


# ----------------------------------------------------------- migration planner
class TestMigrationPlannerProperties:
    @given(instance=instances(max_vms=12))
    @settings(max_examples=20, deadline=None)
    def test_executing_plan_never_violates_capacity(self, instance):
        demands, capacities = instance
        current = FirstFit().solve(demands, capacities).placement
        target = FirstFitDecreasing(sort_key=SortKey.L1).solve(demands, capacities).placement
        plan = plan_migrations(current, target)
        working = current.copy()
        for migration in plan:
            working.assignment[migration.vm_index] = migration.target_host
            assert working.is_feasible()
        # Every non-deferred difference has been applied.
        moved = {m.vm_index for m in plan}
        for vm in range(working.n_vms):
            if vm in moved:
                assert working.assignment[vm] == target.assignment[vm]


# -------------------------------------------------------------------- estimators
class TestEstimatorProperties:
    @given(
        st.lists(
            st.lists(st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=3, max_size=3),
            min_size=1,
            max_size=30,
        )
    )
    def test_estimates_within_sample_envelope(self, samples):
        matrix = np.asarray(samples)
        for estimator in (MeanEstimator(), MaxEstimator(), EwmaEstimator(), PercentileEstimator()):
            estimate = estimator.estimate_windows(matrix[None])[0]
            assert np.all(estimate >= matrix.min(axis=0) - 1e-9)
            assert np.all(estimate <= matrix.max(axis=0) + 1e-9)

    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_threshold_classification_total(self, utilization):
        thresholds = UtilizationThresholds()
        # At most one of the two extreme predicates can hold.
        assert not (thresholds.is_overloaded(utilization) and thresholds.is_underloaded(utilization))


# ------------------------------------------------------------------- placement
class TestPlacementProperties:
    @given(instance=instances(max_vms=10))
    @settings(max_examples=20, deadline=None)
    def test_hosts_used_counts_distinct_assignment_values(self, instance):
        demands, capacities = instance
        placement = FirstFitDecreasing().solve(demands, capacities).placement
        distinct = len(set(int(h) for h in placement.assignment if h >= 0))
        assert placement.hosts_used() == distinct

    @given(instance=instances(max_vms=10))
    @settings(max_examples=20, deadline=None)
    def test_average_utilization_in_unit_interval(self, instance):
        demands, capacities = instance
        placement = BestFitDecreasing().solve(demands, capacities).placement
        assert 0.0 < placement.average_utilization() <= 1.0 + 1e-9
