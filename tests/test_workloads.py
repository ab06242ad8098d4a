"""Tests for workload generation: demand distributions, traces, generators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.workloads.distributions import (
    CorrelatedDemandDistribution,
    HeavyTailDemandDistribution,
    NormalDemandDistribution,
    UniformDemandDistribution,
    make_distribution,
)
from repro.workloads.generator import (
    BatchArrival,
    ExponentialLifetime,
    FixedLifetime,
    InfiniteLifetime,
    PoissonArrival,
    UniformArrival,
    UniformLifetime,
    VMRequest,
    WorkloadGenerator,
    consolidation_instance,
    make_arrival,
    make_lifetime,
)
from repro.workloads.traces import (
    BurstyTrace,
    CompositeTrace,
    ConstantTrace,
    DiurnalTrace,
    RandomWalkTrace,
    SpikeTrace,
    TraceReplay,
)


class TestDemandDistributions:
    @pytest.mark.parametrize(
        "distribution",
        [
            UniformDemandDistribution(),
            NormalDemandDistribution(),
            CorrelatedDemandDistribution(),
            HeavyTailDemandDistribution(),
        ],
    )
    def test_samples_shape_and_bounds(self, distribution, rng):
        demands = distribution.sample(200, rng)
        assert demands.shape == (200, 3)
        assert np.all(demands > 0)
        assert np.all(demands <= 1.0)

    def test_uniform_respects_bounds(self, rng):
        demands = UniformDemandDistribution(low=0.2, high=0.4).sample(500, rng)
        assert demands.min() >= 0.2
        assert demands.max() <= 0.4

    def test_uniform_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            UniformDemandDistribution(low=0.5, high=0.4)
        with pytest.raises(ValueError):
            UniformDemandDistribution(low=0.0, high=0.5)

    def test_normal_centred_on_mean(self, rng):
        demands = NormalDemandDistribution(mean=0.4, std=0.05).sample(2000, rng)
        assert abs(demands.mean() - 0.4) < 0.02

    def test_correlated_dimensions_are_correlated(self, rng):
        demands = CorrelatedDemandDistribution(rho=0.9).sample(2000, rng)
        correlation = np.corrcoef(demands[:, 0], demands[:, 1])[0, 1]
        assert correlation > 0.6

    def test_uncorrelated_when_rho_zero(self, rng):
        demands = CorrelatedDemandDistribution(rho=0.0).sample(2000, rng)
        correlation = np.corrcoef(demands[:, 0], demands[:, 1])[0, 1]
        assert abs(correlation) < 0.2

    def test_heavytail_has_large_outliers(self, rng):
        demands = HeavyTailDemandDistribution().sample(2000, rng)
        assert demands.max() > 3 * demands.mean()

    def test_factory_by_name(self):
        assert isinstance(make_distribution("uniform"), UniformDemandDistribution)
        assert isinstance(make_distribution("heavytail"), HeavyTailDemandDistribution)
        with pytest.raises(ValueError):
            make_distribution("bogus")

    def test_custom_dimensions(self, rng):
        distribution = UniformDemandDistribution(dimensions=("cpu", "memory"))
        assert distribution.sample(5, rng).shape == (5, 2)


class TestTraces:
    def test_constant_trace(self):
        trace = ConstantTrace(0.7)
        assert trace(0.0) == trace(1e6) == 0.7

    def test_constant_trace_bounds_checked(self):
        with pytest.raises(ValueError):
            ConstantTrace(1.5)

    def test_random_walk_stays_in_bounds(self, rng):
        trace = RandomWalkTrace(rng, low=0.1, high=0.9, horizon=3600.0, interval=60.0)
        values = [trace(t) for t in np.linspace(0, 3600, 200)]
        assert min(values) >= 0.1
        assert max(values) <= 0.9

    def test_random_walk_is_pure(self, rng):
        trace = RandomWalkTrace(rng)
        assert trace(1234.0) == trace(1234.0)

    def test_diurnal_peak_and_trough(self):
        trace = DiurnalTrace(base=0.2, peak=0.9, peak_time=12 * 3600.0)
        assert trace(12 * 3600.0) == pytest.approx(0.9, abs=1e-6)
        assert trace(0.0) == pytest.approx(0.2, abs=1e-6)

    def test_diurnal_periodicity(self):
        trace = DiurnalTrace()
        assert trace(3600.0) == pytest.approx(trace(3600.0 + 86400.0), abs=1e-9)

    def test_diurnal_noise_requires_rng(self):
        with pytest.raises(ValueError):
            DiurnalTrace(noise_std=0.1)

    def test_bursty_trace_reaches_burst_level(self, rng):
        trace = BurstyTrace(rng, baseline=0.1, burst_level=0.95, burst_rate_per_hour=20.0, horizon=3600.0)
        values = [trace(t) for t in np.linspace(0, 3600, 2000)]
        assert max(values) == pytest.approx(0.95)
        assert min(values) == pytest.approx(0.1)
        assert trace.burst_count > 0

    def test_spike_trace_steps_at_time(self):
        trace = SpikeTrace(before=0.2, after=0.9, at=100.0)
        assert trace(99.9) == 0.2
        assert trace(100.0) == 0.9

    def test_trace_replay_step_interpolation(self):
        trace = TraceReplay([0.0, 10.0, 20.0], [0.1, 0.5, 0.9])
        assert trace(5.0) == 0.1
        assert trace(10.0) == 0.5
        assert trace(25.0) == 0.9

    def test_trace_replay_loop(self):
        trace = TraceReplay([0.0, 10.0], [0.2, 0.8], loop=True)
        assert trace(25.0) == trace(5.0)

    def test_trace_replay_validation(self):
        with pytest.raises(ValueError):
            TraceReplay([0.0, 0.0], [0.1, 0.2])
        with pytest.raises(ValueError):
            TraceReplay([0.0, 1.0], [0.1, 1.5])

    def test_composite_trace_clips_to_one(self):
        trace = CompositeTrace([ConstantTrace(0.8), ConstantTrace(0.8)])
        assert trace(0.0) == 1.0

    def test_composite_trace_weights(self):
        trace = CompositeTrace([ConstantTrace(0.5), ConstantTrace(0.5)], weights=[0.5, 0.5])
        assert trace(0.0) == pytest.approx(0.5)

    def test_mean_over(self):
        assert ConstantTrace(0.4).mean_over(1000.0) == pytest.approx(0.4)


class TestWorkloadGenerator:
    def test_batch_arrival_all_at_same_time(self, rng):
        generator = WorkloadGenerator(arrival_process=BatchArrival(at=5.0))
        requests = generator.generate(10, rng)
        assert len(requests) == 10
        assert all(request.arrival_time == 5.0 for request in requests)

    def test_poisson_arrivals_are_increasing(self, rng):
        generator = WorkloadGenerator(arrival_process=PoissonArrival(rate_per_hour=120.0))
        requests = generator.generate(50, rng)
        times = [request.arrival_time for request in requests]
        assert times == sorted(times)
        assert times[0] > 0

    def test_runtime_mean_produces_runtimes(self, rng):
        generator = WorkloadGenerator(runtime_mean=600.0)
        requests = generator.generate(20, rng)
        assert all(request.vm.runtime is not None and request.vm.runtime > 0 for request in requests)

    def test_without_runtime_mean_vms_run_forever(self, rng):
        requests = WorkloadGenerator().generate(5, rng)
        assert all(request.vm.runtime is None for request in requests)

    def test_trace_factory_attached_to_vms(self, rng):
        generator = WorkloadGenerator(trace_factory=lambda stream: ConstantTrace(0.33))
        requests = generator.generate(3, rng)
        assert all(request.vm.trace(0.0) == 0.33 for request in requests)

    def test_zero_count(self, rng):
        assert WorkloadGenerator().generate(0, rng) == []

    def test_negative_count_rejected(self, rng):
        with pytest.raises(ValueError):
            WorkloadGenerator().generate(-1, rng)

    def test_vm_request_validation(self):
        with pytest.raises(ValueError):
            VMRequest(-1.0, None)

    def test_reproducible_given_same_seed(self):
        generator = WorkloadGenerator()
        a = generator.generate(10, np.random.default_rng(5))
        b = generator.generate(10, np.random.default_rng(5))
        assert all(
            np.allclose(x.vm.requested.values, y.vm.requested.values) for x, y in zip(a, b)
        )


class TestLifetimeDistributions:
    def test_infinite_lifetime_yields_none(self, rng):
        assert InfiniteLifetime().sample(4, rng) == [None, None, None, None]

    def test_fixed_lifetime(self, rng):
        assert FixedLifetime(seconds=120.0).sample(3, rng) == [120.0, 120.0, 120.0]

    def test_exponential_lifetime_respects_minimum(self, rng):
        lifetimes = ExponentialLifetime(mean=10.0, minimum=60.0).sample(100, rng)
        assert all(value >= 60.0 for value in lifetimes)

    def test_uniform_lifetime_bounds(self, rng):
        lifetimes = UniformLifetime(low=100.0, high=200.0).sample(50, rng)
        assert all(100.0 <= value <= 200.0 for value in lifetimes)

    def test_generator_threads_lifetimes_onto_vms(self, rng):
        generator = WorkloadGenerator(lifetime_distribution=FixedLifetime(seconds=300.0))
        requests = generator.generate(5, rng)
        assert all(request.vm.runtime == 300.0 for request in requests)

    def test_runtime_mean_and_lifetime_distribution_exclusive(self):
        with pytest.raises(ValueError):
            WorkloadGenerator(runtime_mean=10.0, lifetime_distribution=FixedLifetime())

    def test_make_lifetime_factory(self):
        assert isinstance(make_lifetime("exponential", mean=5.0), ExponentialLifetime)
        with pytest.raises(ValueError):
            make_lifetime("bogus")

    def test_uniform_arrival_within_window(self, rng):
        times = UniformArrival(start=10.0, window=50.0).arrival_times(30, rng)
        assert (times >= 10.0).all() and (times <= 60.0).all()
        assert (np.diff(times) >= 0).all()

    def test_make_arrival_factory(self):
        assert isinstance(make_arrival("uniform", window=5.0), UniformArrival)
        with pytest.raises(ValueError):
            make_arrival("teleport")


class TestFactoryRegistries:
    """``make_arrival``/``make_lifetime`` error ergonomics: the known kinds, sorted."""

    def test_unknown_arrival_lists_available_kinds(self):
        with pytest.raises(ValueError) as excinfo:
            make_arrival("teleport")
        assert str(excinfo.value).endswith("available: batch, poisson, uniform")

    def test_unknown_lifetime_lists_available_kinds(self):
        with pytest.raises(ValueError) as excinfo:
            make_lifetime("immortal-ish")
        assert str(excinfo.value).endswith("available: exponential, fixed, infinite, uniform")


class TestWorkloadEdgeCases:
    """Boundary behaviour: empty batches, single events, seeded determinism."""

    @pytest.mark.parametrize("kind", ["batch", "poisson", "uniform"])
    def test_zero_count_yields_no_arrivals(self, kind, rng):
        times = make_arrival(kind).arrival_times(0, rng)
        assert times.shape == (0,)
        generator = WorkloadGenerator(arrival_process=make_arrival(kind))
        assert generator.generate(0, rng) == []

    @pytest.mark.parametrize("kind", ["batch", "poisson", "uniform"])
    def test_single_event_arrival(self, kind, rng):
        times = make_arrival(kind).arrival_times(1, rng)
        assert times.shape == (1,)
        assert times[0] >= 0.0

    def test_poisson_zero_rate_rejected(self):
        with pytest.raises(ValueError):
            PoissonArrival(rate_per_hour=0.0)

    def test_exponential_lifetime_deterministic_under_seed_sequences(self):
        from repro.simulation.randomness import spawn_generator

        lifetime = ExponentialLifetime(mean=600.0, minimum=30.0)
        first = lifetime.sample(8, spawn_generator(99, index=4))
        second = lifetime.sample(8, spawn_generator(99, index=4))
        np.testing.assert_array_equal(first, second)
        other = lifetime.sample(8, spawn_generator(99, index=5))
        assert not np.array_equal(first, other)
        assert all(value >= 30.0 for value in first)

    @pytest.mark.parametrize(
        "arrival",
        [
            {"kind": "batch", "at": 5.0},
            {"kind": "poisson", "rate_per_hour": 120.0, "start": 10.0},
            {"kind": "uniform", "start": 0.0, "window": 60.0},
        ],
    )
    @pytest.mark.parametrize(
        "lifetime",
        [
            None,
            {"kind": "infinite"},
            {"kind": "fixed", "seconds": 300.0},
            {"kind": "exponential", "mean": 600.0, "minimum": 30.0},
            {"kind": "uniform", "low": 100.0, "high": 200.0},
        ],
    )
    def test_every_kind_round_trips_through_scenario_spec(self, arrival, lifetime):
        from repro.scenarios import ScenarioSpec, WorkloadPhase

        phase = WorkloadPhase(name="p", vm_count=3, arrival=dict(arrival))
        if lifetime is not None:
            phase = WorkloadPhase(
                name="p", vm_count=3, arrival=dict(arrival), lifetime=dict(lifetime)
            )
        spec = ScenarioSpec(name="round-trip", duration=100.0, phases=[phase])
        import json

        restored = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert restored == spec
        restored.phases[0].build_generator()  # kinds resolve after the trip


class TestConsolidationInstance:
    def test_shapes_and_feasibility(self, rng):
        demands, capacities = consolidation_instance(30, rng, host_capacity=(1.0, 1.0))
        assert demands.shape[1] == 2
        assert capacities.shape[1] == 2
        # Every VM fits on some host individually.
        assert np.all(demands <= capacities[0] + 1e-9)

    def test_host_pool_suffices_for_ffd(self, rng):
        from repro.core import FirstFitDecreasing

        demands, capacities = consolidation_instance(80, rng)
        result = FirstFitDecreasing().solve(demands, capacities)
        assert result.feasible

    def test_explicit_host_count(self, rng):
        demands, capacities = consolidation_instance(10, rng, n_hosts=42)
        assert capacities.shape[0] == 42

    def test_dimension_mismatch_rejected(self, rng):
        from repro.workloads.distributions import UniformDemandDistribution

        with pytest.raises(ValueError):
            consolidation_instance(
                5,
                rng,
                demand_distribution=UniformDemandDistribution(dimensions=("cpu",)),
                host_capacity=(1.0, 1.0),
            )

    def test_invalid_parameters_rejected(self, rng):
        with pytest.raises(ValueError):
            consolidation_instance(0, rng)
        with pytest.raises(ValueError):
            consolidation_instance(5, rng, slack=0.5)
