"""Tests for workload generation: demand distributions, traces, generators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.scenarios import iter_scenarios
from repro.workloads.distributions import (
    _DEMAND_KINDS,
    CorrelatedDemandDistribution,
    UniformDemandDistribution,
    make_distribution,
)
from repro.workloads.generator import (
    _ARRIVAL_KINDS,
    _LIFETIME_KINDS,
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
    _TRACE_KINDS,
    BurstyTrace,
    ConstantTrace,
    DiurnalTrace,
    SpikeTrace,
    TraceReplay,
    make_trace_factory,
)


#: Parameters that exercise each trace kind's variation over a day.
TRACE_PARAMS = {
    "bursty": {"burst_rate_per_hour": 20.0},
    "constant": {"level": 0.6},
    "diurnal": {"base": 0.1, "peak": 0.9, "noise_std": 0.2},
    "replay": {"times": [0.0, 3600.0, 7200.0], "values": [0.1, 1.0, 0.0], "loop": True},
    "spike": {"before": 0.2, "after": 1.0, "at": 600.0},
}


class TestDemandDistributions:
    @pytest.mark.parametrize(
        "distribution",
        [
            UniformDemandDistribution(),
            CorrelatedDemandDistribution(),
            UniformDemandDistribution(low=0.05, high=1.0),
            CorrelatedDemandDistribution(low=0.3, high=1.0, rho=1.0),
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

    def test_correlated_dimensions_are_correlated(self, rng):
        demands = CorrelatedDemandDistribution(rho=0.9).sample(2000, rng)
        correlation = np.corrcoef(demands[:, 0], demands[:, 1])[0, 1]
        assert correlation > 0.6

    def test_uncorrelated_when_rho_zero(self, rng):
        demands = CorrelatedDemandDistribution(rho=0.0).sample(2000, rng)
        correlation = np.corrcoef(demands[:, 0], demands[:, 1])[0, 1]
        assert abs(correlation) < 0.2

    def test_factory_by_name(self):
        assert isinstance(make_distribution("uniform"), UniformDemandDistribution)
        assert isinstance(make_distribution("Correlated"), CorrelatedDemandDistribution)
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

    @pytest.mark.parametrize("kind", sorted(_TRACE_KINDS))
    def test_every_trace_kind_stays_in_unit_interval(self, kind):
        trace = make_trace_factory(kind, **TRACE_PARAMS[kind])(np.random.default_rng(5))
        values = np.array([trace(t) for t in np.linspace(0.0, 86_400.0, 500)])
        assert np.all((values >= 0.0) & (values <= 1.0))

    @pytest.mark.parametrize("kind", sorted(_TRACE_KINDS))
    def test_every_trace_kind_is_pure(self, kind):
        trace = make_trace_factory(kind, **TRACE_PARAMS[kind])(np.random.default_rng(5))
        samples = np.linspace(0.0, 86_400.0, 200)
        first = [trace(t) for t in samples]
        assert [trace(t) for t in reversed(samples)] == first[::-1]

    def test_trace_params_cover_every_kind(self):
        assert set(TRACE_PARAMS) == set(_TRACE_KINDS)

    def test_trace_factory_by_kind(self):
        assert make_trace_factory("Constant", level=0.3)(None)(5.0) == 0.3
        assert make_trace_factory("spike", at=10.0)(None)(10.0) == 0.95
        assert make_trace_factory("replay", times=[0.0], values=[0.4])(None)(1.0) == 0.4
        assert isinstance(make_trace_factory("diurnal")(None), DiurnalTrace)

    def test_trace_factory_hands_the_rng_to_stochastic_kinds(self):
        for kind, params in [("bursty", {"burst_rate_per_hour": 20.0}), ("diurnal", {"noise_std": 0.1})]:
            factory = make_trace_factory(kind, **params)
            a = factory(np.random.default_rng(1))
            b = factory(np.random.default_rng(1))
            c = factory(np.random.default_rng(2))
            samples = np.linspace(0.0, 86_400.0, 400)
            assert [a(t) for t in samples] == [b(t) for t in samples]
            assert [a(t) for t in samples] != [c(t) for t in samples]


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
    """Kind factory error ergonomics: the known kinds, sorted."""

    @pytest.mark.parametrize("kind", ["randomwalk", "composite"])
    def test_unknown_trace_lists_available_kinds(self, kind):
        with pytest.raises(ValueError) as excinfo:
            make_trace_factory(kind)
        assert str(excinfo.value).endswith("available: bursty, constant, diurnal, replay, spike")

    @pytest.mark.parametrize("kind", ["normal", "heavytail"])
    def test_unknown_demand_lists_available_kinds(self, kind):
        with pytest.raises(ValueError) as excinfo:
            make_distribution(kind)
        assert str(excinfo.value).endswith("available: correlated, uniform")

    def test_unknown_arrival_lists_available_kinds(self):
        with pytest.raises(ValueError) as excinfo:
            make_arrival("teleport")
        assert str(excinfo.value).endswith("available: batch, poisson, uniform")

    def test_unknown_lifetime_lists_available_kinds(self):
        with pytest.raises(ValueError) as excinfo:
            make_lifetime("immortal-ish")
        assert str(excinfo.value).endswith("available: exponential, fixed, infinite, uniform")


#: Kinds that no catalog scenario selects, each with the reason it stays in
#: ``src``.  Every other kind must be selected by a catalog scenario (a phase,
#: or a traffic profile, which reuses the trace kinds) or leave its table.
#: Sweeps run catalog scenarios by name, so they select nothing of their own.
KINDS_KEPT_WITHOUT_CATALOG = {
    ("trace", "bursty"): "E6 (tests/test_paper_claims.py) draws its overload bursts from it",
}

KIND_TABLES = {
    "trace": _TRACE_KINDS,
    "demand": _DEMAND_KINDS,
    "arrival": _ARRIVAL_KINDS,
    "lifetime": _LIFETIME_KINDS,
}


def catalog_kind_selections() -> set:
    """``(table, kind)`` of every kind a catalog scenario selects."""
    selected = set()
    for scenario in iter_scenarios():
        for phase in scenario.phases:
            for table in KIND_TABLES:
                selected.add((table, str(getattr(phase, table)["kind"]).lower()))
        if scenario.traffic is not None:
            selected |= {
                ("trace", str(service.profile["kind"]).lower())
                for service in scenario.traffic.services
            }
    return selected


class TestEveryKindIsSelected:
    def test_every_kind_has_a_selector(self):
        selected = catalog_kind_selections() | set(KINDS_KEPT_WITHOUT_CATALOG)
        unselected = [
            f"{table} {kind}"
            for table, kinds in KIND_TABLES.items()
            for kind in sorted(kinds)
            if (table, kind) not in selected
        ]
        assert not unselected, f"a kind no catalog scenario selects: {unselected}"

    def test_every_named_exception_is_a_kind_and_needed(self):
        catalog = catalog_kind_selections()
        for table, kind in KINDS_KEPT_WITHOUT_CATALOG:
            assert kind in KIND_TABLES[table], f"{(table, kind)} left its table; drop its entry"
            assert (table, kind) not in catalog, f"{(table, kind)} is in the catalog; drop its entry"


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
