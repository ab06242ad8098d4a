"""Tests for the request-traffic plane: queue model, specs, autoscaling, wiring."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.policies import (
    LatencyThresholdAutoscaling,
    ServiceSnapshot,
    TargetUtilizationAutoscaling,
    make_policy,
    policy_names,
)
from repro.scenarios import ScenarioSpec, WorkloadPhase, get_scenario, run_scenario
from repro.traffic import (
    DEFAULT_LATENCY_BUCKETS,
    STABILITY_CAP,
    ServiceLoadTrace,
    ServiceSpec,
    TrafficSpec,
    compile_profile,
    erlang_c,
    evaluate_tick,
    quantile_from_histogram,
    sojourn_cdf,
)

BOUNDS = np.asarray(DEFAULT_LATENCY_BUCKETS, dtype=float)


def snapshot(**overrides) -> ServiceSnapshot:
    base = dict(
        service="svc",
        arrival_rate=100.0,
        replicas=2,
        pending=0,
        service_rate=100.0,
        utilization=0.5,
        p99_latency=0.05,
        dropped_ratio=0.0,
    )
    base.update(overrides)
    return ServiceSnapshot(**base)


class TestQueueModel:
    def test_erlang_c_matches_mm1(self):
        # For c = 1 the waiting probability collapses to rho.
        load = np.array([0.2, 0.5, 0.9])
        servers = np.ones(3, dtype=int)
        np.testing.assert_allclose(erlang_c(load, servers), load, atol=1e-12)

    def test_erlang_c_decreases_with_more_servers(self):
        load = np.array([1.8, 1.8, 1.8])
        servers = np.array([2, 4, 8])
        wait = erlang_c(load, servers)
        assert wait[0] > wait[1] > wait[2]

    def test_erlang_c_zero_load_or_servers(self):
        wait = erlang_c(np.array([0.0, 0.5]), np.array([2, 0]))
        np.testing.assert_array_equal(wait, np.zeros(2))

    def test_sojourn_cdf_is_monotone_and_bounded(self):
        t = np.linspace(0.0, 5.0, 200)
        cdf = sojourn_cdf(t, np.full_like(t, 10.0), np.full_like(t, 3.0), np.full_like(t, 0.4))
        assert (np.diff(cdf) >= -1e-12).all()
        assert cdf.min() >= 0.0 and cdf.max() <= 1.0

    def test_sojourn_cdf_equal_rates_limit_is_continuous(self):
        # The Erlang-2 fallback must agree with the hypoexponential branch
        # just outside the numerical window.
        mu = np.array([10.0, 10.0])
        drain = np.array([10.0, 10.0 + 1e-6])
        cdf = sojourn_cdf(np.array([0.2, 0.2]), mu, drain, np.array([1.0, 1.0]))
        assert abs(cdf[0] - cdf[1]) < 1e-4

    def test_mm1_mean_sojourn_is_exact(self):
        # M/M/1: E[T] = 1 / (mu - lam); the model's 1/mu + Pw/drain with
        # Pw = rho reproduces it exactly below the admission cap.
        lam, mu = np.array([60.0]), np.array([100.0])
        metrics = evaluate_tick(lam, mu, np.array([1]), 10.0, BOUNDS)
        np.testing.assert_allclose(metrics["mean_latency"], 1.0 / (100.0 - 60.0), rtol=1e-9)

    def test_zero_replicas_drop_everything(self):
        metrics = evaluate_tick(np.array([50.0]), np.array([100.0]), np.array([0]), 10.0, BOUNDS)
        assert metrics["served"][0] == 0.0
        assert metrics["dropped"][0] == pytest.approx(500.0)
        assert metrics["utilization"][0] == 1.0
        assert metrics["p99"][0] == 0.0
        assert metrics["bucket_mass"][0].sum() == 0.0

    def test_overload_is_admission_capped(self):
        lam, mu, servers = np.array([500.0]), np.array([100.0]), np.array([2])
        metrics = evaluate_tick(lam, mu, servers, 10.0, BOUNDS)
        cap = STABILITY_CAP * 200.0
        assert metrics["served"][0] == pytest.approx(cap * 10.0)
        assert metrics["dropped"][0] == pytest.approx((500.0 - cap) * 10.0)
        assert metrics["utilization"][0] == 1.0

    def test_bucket_mass_accounts_for_all_served_requests(self):
        lam = np.array([30.0, 150.0, 0.0])
        mu = np.array([100.0, 100.0, 100.0])
        servers = np.array([1, 2, 3])
        metrics = evaluate_tick(lam, mu, servers, 10.0, BOUNDS)
        np.testing.assert_allclose(metrics["bucket_mass"].sum(axis=1), metrics["served"])

    def test_quantiles_increase_with_load(self):
        low = evaluate_tick(np.array([20.0]), np.array([100.0]), np.array([1]), 10.0, BOUNDS)
        high = evaluate_tick(np.array([90.0]), np.array([100.0]), np.array([1]), 10.0, BOUNDS)
        assert high["p99"][0] > low["p99"][0]
        assert high["mean_latency"][0] > low["mean_latency"][0]

    def test_quantile_from_histogram_edge_cases(self):
        assert quantile_from_histogram(BOUNDS, np.zeros(BOUNDS.size + 1), 0.99) == 0.0
        # All mass in the +inf tail reports the last finite bound.
        tail_only = np.zeros(BOUNDS.size + 1)
        tail_only[-1] = 5.0
        assert quantile_from_histogram(BOUNDS, tail_only, 0.5) == BOUNDS[-1]


class TestProfilesAndSpecs:
    def test_compile_profile_scales_trace_by_peak(self):
        rng = np.random.default_rng(0)
        profile = compile_profile({"kind": "constant", "level": 0.5, "peak_rps": 200.0}, rng)
        assert profile.rate(0.0) == pytest.approx(100.0)
        assert profile(1234.5) == pytest.approx(100.0)

    def test_compile_profile_requires_kind_and_peak(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            compile_profile({"peak_rps": 10.0}, rng)
        with pytest.raises(ValueError):
            compile_profile({"kind": "constant"}, rng)

    def test_service_load_trace_is_a_plane_driven_step(self):
        trace = ServiceLoadTrace()
        assert trace(0.0) == 0.0
        trace.level = 0.7
        assert trace(10.0) == trace(99999.0) == 0.7

    def test_traffic_spec_round_trips(self):
        spec = TrafficSpec(
            services=[
                ServiceSpec(
                    name="web",
                    profile={"kind": "constant", "level": 1.0, "peak_rps": 50.0},
                    autoscaling={"name": "target-utilization", "target": 0.7},
                ),
                ServiceSpec(name="batchy", initial_replicas=2),
            ],
            interval=5.0,
            autoscale_interval=30.0,
        )
        restored = TrafficSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert restored == spec
        assert restored.enabled
        assert restored.autoscaling_names() == {"web": "target-utilization"}

    def test_traffic_spec_rejects_duplicates_and_bad_policies(self):
        with pytest.raises(ValueError, match="duplicate"):
            TrafficSpec(services=[ServiceSpec(name="a"), ServiceSpec(name="a")])
        with pytest.raises(ValueError):
            ServiceSpec(name="a", autoscaling={"name": "does-not-exist"})

    def test_scenario_spec_round_trips_traffic_section(self):
        spec = ScenarioSpec(
            name="with-traffic",
            duration=100.0,
            traffic={
                "services": [{"name": "web", "initial_replicas": 2}],
                "interval": 5.0,
            },
        )
        restored = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert restored == spec
        assert isinstance(restored.traffic, TrafficSpec)
        # Scenarios without traffic serialize it as null and stay equal too.
        plain = ScenarioSpec(name="plain", duration=50.0)
        assert plain.to_dict()["traffic"] is None
        assert ScenarioSpec.from_dict(plain.to_dict()) == plain


class TestAutoscalingPolicies:
    def test_registered_in_policy_registry(self):
        names = policy_names("autoscaling")
        assert "target-utilization" in names
        assert "latency-threshold" in names
        assert isinstance(
            make_policy("autoscaling", "target-utilization"), TargetUtilizationAutoscaling
        )
        assert isinstance(
            make_policy("autoscaling", "latency-threshold"), LatencyThresholdAutoscaling
        )

    def test_target_utilization_scales_to_demand(self):
        policy = TargetUtilizationAutoscaling(target=0.6, min_replicas=1, max_replicas=10)
        # demand = lam/mu = 3 Erlangs -> ceil(3 / 0.6) = 5 replicas.
        decision = policy.decide(snapshot(arrival_rate=300.0, replicas=2))
        assert decision == 5

    def test_target_utilization_clamps_to_bounds(self):
        policy = TargetUtilizationAutoscaling(target=0.5, min_replicas=2, max_replicas=4)
        assert policy.decide(snapshot(arrival_rate=0.0, replicas=3)) == 2
        assert policy.decide(snapshot(arrival_rate=10000.0, replicas=3)) == 4

    def test_target_utilization_shrinks_with_hysteresis(self):
        policy = TargetUtilizationAutoscaling(target=0.6, scale_in_headroom=0.25)
        # Provisioned 6, demand only needs 2: the conservative estimate
        # (25% headroom) limits the shrink rather than snapping to 2.
        decision = policy.decide(snapshot(arrival_rate=100.0, replicas=6))
        assert 2 <= decision < 6

    def test_latency_threshold_reacts_to_sla_breach(self):
        policy = LatencyThresholdAutoscaling(p99_target=0.25, step=2, max_replicas=8)
        assert policy.decide(snapshot(replicas=3, p99_latency=0.6)) == 5
        assert policy.decide(snapshot(replicas=3, p99_latency=0.1, dropped_ratio=0.2)) == 5

    def test_latency_threshold_scales_in_when_idle(self):
        policy = LatencyThresholdAutoscaling(
            p99_target=0.25, min_replicas=1, scale_in_utilization=0.3
        )
        assert policy.decide(snapshot(replicas=4, utilization=0.1, p99_latency=0.01)) == 3
        # Holds inside the comfort band.
        assert policy.decide(snapshot(replicas=4, utilization=0.5, p99_latency=0.1)) == 4


def small_traffic_spec(autoscaling=None, peak_rps=300.0, initial=2):
    service = {
        "name": "web",
        "profile": {"kind": "constant", "level": 1.0, "peak_rps": peak_rps},
        "initial_replicas": initial,
        "service_rate": 100.0,
    }
    if autoscaling is not None:
        service["autoscaling"] = autoscaling
    return ScenarioSpec(
        name="traffic-it",
        duration=600.0,
        local_controllers=6,
        group_managers=2,
        traffic={"services": [service], "interval": 10.0, "autoscale_interval": 30.0},
    )


class TestTrafficPlaneIntegration:
    def test_replicas_flow_through_ordinary_submission_path(self):
        result = run_scenario(small_traffic_spec(), seed=1)
        assert result.submissions["submitted"] == 2
        assert result.submissions["placed"] == 2
        traffic = result.traffic
        assert traffic["ticks"] == 60
        assert traffic["requests"]["offered"] == pytest.approx(300.0 * 600.0)
        assert traffic["requests"]["served"] > 0
        web = traffic["services"]["web"]
        assert web["replicas_initial"] == web["replicas_final"] == 2
        assert web["autoscaling"] is None

    def test_services_are_served_alongside_a_churning_fleet(self):
        # 100 LCs under VM churn plus four diurnal services on a jitter-free
        # network: the replicas join the churn through the same submission path.
        services = [
            {
                "name": f"svc-{index}",
                "profile": {
                    "kind": "diurnal", "base": 0.2, "peak": 1.0, "period": 600.0,
                    "peak_time": 300.0, "peak_rps": 150.0,
                },
                "initial_replicas": 2,
                "service_rate": 100.0,
            }
            for index in range(4)
        ]
        spec = ScenarioSpec(
            name="traffic-churn",
            duration=600.0,
            local_controllers=100,
            group_managers=4,
            nodes_per_rack=40,
            record_interval=60.0,
            config={"network": {"base_latency": 0.001, "jitter": 0.0, "loss_probability": 0.0}},
            phases=[
                WorkloadPhase(
                    name="churn",
                    vm_count=120,
                    arrival={"kind": "poisson", "rate_per_hour": 360.0},
                    demand={"kind": "uniform", "low": 0.1, "high": 0.3},
                    trace={"kind": "constant", "level": 0.7},
                    lifetime={"kind": "exponential", "mean": 200.0, "minimum": 30.0},
                )
            ],
            traffic={"services": services, "interval": 10.0},
        )
        result = run_scenario(spec, seed=2012)
        assert result.submissions["placed"] == result.submissions["submitted"] > 8
        traffic = result.traffic
        assert traffic["ticks"] == 60
        # One full diurnal period: each service averages (0.2 + 1.0) / 2 of its peak.
        assert traffic["requests"]["offered"] == pytest.approx(4 * 0.6 * 150.0 * 600.0)
        assert traffic["requests"]["served"] > 0
        for service in traffic["services"].values():
            assert service["replicas_initial"] == service["replicas_final"] == 2

    def test_overloaded_service_drops_and_reports(self):
        # 300 rps against one replica at 100 rps: ~2/3 of traffic dropped.
        result = run_scenario(small_traffic_spec(initial=1), seed=1)
        traffic = result.traffic
        assert traffic["requests"]["dropped_ratio"] > 0.6
        assert traffic["latency_seconds"]["p99"] > 0.0

    def test_autoscaler_scales_out_and_logs_events(self):
        spec = small_traffic_spec(
            autoscaling={"name": "target-utilization", "target": 0.6, "max_replicas": 8},
        )
        result = run_scenario(spec, seed=1)
        web = result.traffic["services"]["web"]
        # demand = 3 Erlangs at target 0.6 -> 5 replicas.
        assert web["replicas_final"] == 5
        assert web["scale_out_total"] == 3
        assert result.event_counts.get("scale_out", 0) >= 1
        assert result.policies["autoscaling"] == "target-utilization"

    def test_scale_in_terminates_via_lc_path(self):
        # Overprovisioned fleet with tiny demand: the autoscaler shrinks and
        # the terminations run through the LC terminate_vm command.
        spec = small_traffic_spec(
            autoscaling={"name": "target-utilization", "target": 0.6, "min_replicas": 1},
            peak_rps=50.0,
            initial=6,
        )
        result = run_scenario(spec, seed=1)
        web = result.traffic["services"]["web"]
        assert web["replicas_final"] < 6
        assert web["scale_in_total"] >= 1
        assert result.event_counts.get("scale_in", 0) >= 1
        assert result.event_counts.get("vm_terminated", 0) >= 1

    def test_demand_feedback_drives_host_load(self):
        # Same fleet, hot vs idle users: host utilization must differ because
        # replica CPU usage follows the offered traffic.
        hot = run_scenario(small_traffic_spec(peak_rps=190.0), seed=1)
        idle = run_scenario(small_traffic_spec(peak_rps=10.0), seed=1)
        assert hot.traffic["requests"]["offered"] > idle.traffic["requests"]["offered"]
        hot_energy = hot.energy["infrastructure_kwh"]
        idle_energy = idle.energy["infrastructure_kwh"]
        assert hot_energy > idle_energy

    def test_traffic_metrics_exported_to_obs(self):
        spec = small_traffic_spec()
        spec.config["observability"] = {"metrics": True}
        result = run_scenario(spec, seed=1)
        counters = result.observability["counters"]
        assert "traffic_requests_offered_total" in counters
        assert "traffic_requests_served_total" in counters
        gauges = result.observability["gauges"]
        assert "traffic_request_latency_p99_seconds" in gauges
        assert "traffic_service_replicas" in gauges

    def test_byte_identical_across_runs(self):
        spec = small_traffic_spec(
            autoscaling={"name": "latency-threshold", "p99_target": 0.1},
        )
        first = run_scenario(spec, seed=11).canonical_json()
        second = run_scenario(spec, seed=11).canonical_json()
        assert first == second
        assert run_scenario(spec, seed=12).canonical_json() != first


class TestCatalogAcceptance:
    def test_flash_crowd_autoscaling_beats_fixed_fleet(self):
        # The ISSUE acceptance bar: on a catalog scenario the autoscaled run
        # must report BOTH lower p99 and lower dropped ratio than the same
        # scenario with autoscaling stripped.
        on_spec = get_scenario("flash-crowd-autoscale")
        off_spec = get_scenario("flash-crowd-autoscale")
        off_spec.traffic.services[0].autoscaling = None
        on = run_scenario(on_spec, seed=7).traffic
        off = run_scenario(off_spec, seed=7).traffic
        assert on["latency_seconds"]["p99"] < off["latency_seconds"]["p99"]
        assert on["requests"]["dropped_ratio"] < off["requests"]["dropped_ratio"]
        web = on["services"]["frontpage"]
        assert web["replicas_peak"] > web["replicas_initial"]

    def test_diurnal_autoscaler_breathes_with_the_wave(self):
        result = run_scenario(get_scenario("diurnal-users-autoscale"), seed=7)
        web = result.traffic["services"]["web"]
        assert web["scale_out_total"] >= 1
        assert web["scale_in_total"] >= 1
        assert web["replicas_peak"] > web["replicas_initial"]

    def test_steady_users_baseline_has_no_scaling(self):
        result = run_scenario(get_scenario("steady-users-traffic"), seed=7)
        web = result.traffic["services"]["web"]
        assert web["scale_out_total"] == web["scale_in_total"] == 0
        assert result.traffic["requests"]["dropped_ratio"] == 0.0
