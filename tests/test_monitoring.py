"""Tests for monitoring: estimators, collectors and GM summaries."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.resources import ResourceVector
from repro.monitoring import estimators
from repro.monitoring.estimators import EwmaEstimator, make_estimator
from repro.monitoring.arrays import ArrayHostMonitor, HostRows, TelemetryPlane
from repro.monitoring.summary import (
    GroupManagerSummary,
    GroupReports,
    ReportRoute,
)
from repro.policies.dispatching import FirstFitDispatching
from repro.simulation.engine import Simulator
from repro.workloads.traces import ConstantTrace, SpikeTrace

from tests.conftest import make_node, make_vm
from tests.scalar_monitor import HostMonitor, VMMonitor, ewma_weight


def estimate_one(estimator, samples) -> np.ndarray:
    """The estimator kernel applied to one ``(n, d)`` window."""
    return estimator.estimate_windows(np.asarray(samples, dtype=float)[None])[0]


class TestEstimators:
    SAMPLES = np.array([[0.2, 0.3, 0.1], [0.4, 0.3, 0.1], [0.6, 0.3, 0.1]])

    def test_ewma_weighs_recent_samples_more(self):
        with ewma_weight(0.5):
            estimate = estimate_one(EwmaEstimator(), self.SAMPLES)
        assert estimate[0] > self.SAMPLES[:, 0].mean()

    def test_ewma_weight_one_returns_latest(self):
        with ewma_weight(1.0):
            estimate = estimate_one(EwmaEstimator(), self.SAMPLES)
        assert estimate[0] == pytest.approx(0.6)

    def test_estimates_bounded_by_sample_range(self):
        for weight in WEIGHTS:
            with ewma_weight(weight):
                estimate = estimate_one(EwmaEstimator(), self.SAMPLES)
            assert np.all(estimate >= self.SAMPLES.min(axis=0) - 1e-12)
            assert np.all(estimate <= self.SAMPLES.max(axis=0) + 1e-12)

    def test_factory(self):
        assert isinstance(make_estimator("ewma"), EwmaEstimator)
        with pytest.raises(ValueError, match=r"unknown estimator 'mean'; choose from \['ewma'\]"):
            make_estimator("mean")

    def test_weight_is_a_constant(self):
        assert estimators.EWMA_WEIGHT == 0.3
        with pytest.raises(TypeError):
            EwmaEstimator(alpha=0.5)


#: The deployed EWMA weight and 1.0 (the estimate is the newest sample).
WEIGHTS = (0.3, 1.0)


class TestEstimatorEdgeCases:
    def test_single_sample_is_returned_verbatim(self):
        sample = np.array([[0.37, 0.21, 0.09]])
        for weight in WEIGHTS:
            with ewma_weight(weight):
                assert (estimate_one(EwmaEstimator(), sample) == sample[0]).all(), weight

    def test_constant_window_estimates_the_constant(self):
        window = np.full((12, 3), 0.42)
        for weight in WEIGHTS:
            with ewma_weight(weight):
                assert estimate_one(EwmaEstimator(), window) == pytest.approx([0.42] * 3), weight

    def test_zero_utilization_window(self):
        window = np.zeros((5, 3))
        for weight in WEIGHTS:
            with ewma_weight(weight):
                assert (estimate_one(EwmaEstimator(), window) == 0.0).all(), weight

    def test_out_of_order_sampling_keeps_append_order(self):
        """Monitors index the window by arrival, not timestamp: sampling at a
        past simulated time (e.g. around a clock rewind in tests) must not
        corrupt the window."""
        vm = make_vm(cpu=0.8, trace=SpikeTrace(before=0.25, after=0.75, at=50.0))
        monitor = VMMonitor(vm, window=4)
        for now in (100.0, 0.0, 60.0, 10.0):  # deliberately unsorted
            monitor.sample(now)
        timestamps = [sample.timestamp for sample in monitor.samples]
        assert timestamps == [100.0, 0.0, 60.0, 10.0]
        # The last sample appended (t=10, before the spike), not the latest in time.
        with ewma_weight(1.0):
            assert monitor.estimate_demand()["cpu"] == pytest.approx(0.8 * 0.25)


class TestVMMonitor:
    def test_sampling_follows_trace(self):
        vm = make_vm(cpu=0.8, trace=SpikeTrace(before=0.5, after=1.0, at=50.0))
        monitor = VMMonitor(vm, window=10)
        monitor.sample(0.0)
        monitor.sample(100.0)
        samples = monitor.samples
        assert len(samples) == 2
        assert samples[0].usage["cpu"] == pytest.approx(0.4)
        assert samples[1].usage["cpu"] == pytest.approx(0.8)

    def test_window_is_bounded(self):
        vm = make_vm(trace=ConstantTrace(0.5))
        monitor = VMMonitor(vm, window=3)
        for t in range(10):
            monitor.sample(float(t))
        assert len(monitor.samples) == 3

    def test_estimate_falls_back_to_reservation_when_empty(self):
        vm = make_vm(cpu=0.6)
        monitor = VMMonitor(vm)
        assert monitor.estimate_demand() == vm.requested

    def test_estimate_capped_at_reservation(self):
        vm = make_vm(cpu=0.5, trace=ConstantTrace(1.0))
        monitor = VMMonitor(vm)
        monitor.sample(0.0)
        estimate = monitor.estimate_demand()
        assert estimate["cpu"] <= vm.requested["cpu"] + 1e-9

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            VMMonitor(make_vm(), window=0)


class TestHostMonitor:
    def test_report_structure(self):
        node = make_node()
        vm = make_vm(cpu=0.4, trace=ConstantTrace(1.0))
        node.place_vm(vm)
        monitor = HostMonitor(node)
        report = monitor.report(now=10.0)
        assert report["node_id"] == node.node_id
        assert report["vm_count"] == 1
        assert len(report["capacity"]) == 3
        assert report["utilization"] == pytest.approx(0.4, abs=1e-6)
        assert vm.vm_id in report["vm_usage"]

    def test_sample_all_tracks_new_and_removed_vms(self):
        node = make_node()
        monitor = HostMonitor(node)
        vm = make_vm()
        node.place_vm(vm)
        samples = monitor.sample_all(1.0)
        assert vm.vm_id in samples
        node.remove_vm(vm)
        samples = monitor.sample_all(2.0)
        assert vm.vm_id not in samples

    def test_estimated_used_sums_vms(self):
        node = make_node()
        for _ in range(2):
            node.place_vm(make_vm(cpu=0.3, trace=ConstantTrace(1.0)))
        monitor = HostMonitor(node)
        monitor.sample_all(0.0)
        assert monitor.estimated_used()["cpu"] == pytest.approx(0.6)

    def test_utilization_zero_for_idle_host(self):
        monitor = HostMonitor(make_node())
        assert monitor.utilization() == 0.0


class TestGroupManagerSummary:
    def _report(self, capacity, reserved, used, vms=1):
        return {
            "capacity": capacity,
            "reserved": reserved,
            "used": used,
            "vm_count": vms,
        }

    def test_from_reports_aggregates(self):
        reports = [
            self._report([1.0, 1.0, 1.0], [0.5, 0.5, 0.5], [0.4, 0.4, 0.4], vms=2),
            self._report([1.0, 1.0, 1.0], [0.2, 0.2, 0.2], [0.1, 0.1, 0.1], vms=1),
        ]
        summary = GroupManagerSummary.from_reports("gm-0", 10.0, reports)
        assert summary.local_controller_count == 2
        assert summary.active_vm_count == 3
        assert summary.total_capacity["cpu"] == pytest.approx(2.0)
        assert summary.reserved["cpu"] == pytest.approx(0.7)
        assert summary.largest_free_slot["cpu"] == pytest.approx(0.8)

    def test_free_capacity_and_utilization(self):
        summary = GroupManagerSummary.from_reports(
            "gm-0", 0.0, [self._report([1.0, 1.0, 1.0], [0.25, 0.25, 0.25], [0.2, 0.2, 0.2])]
        )
        assert summary.free_capacity()["cpu"] == pytest.approx(0.75)
        assert summary.utilization() == pytest.approx(0.25)

    def test_dispatching_respects_fragmentation(self):
        # Two LCs each with 0.5 free: total free 1.0 but largest slot only 0.5.
        reports = [
            self._report([1.0, 1.0, 1.0], [0.5, 0.5, 0.5], [0.5, 0.5, 0.5]),
            self._report([1.0, 1.0, 1.0], [0.5, 0.5, 0.5], [0.5, 0.5, 0.5]),
        ]
        summaries = {
            "gm-0": GroupManagerSummary.from_reports("gm-0", 0.0, reports),
            "gm-1": GroupManagerSummary.from_reports(
                "gm-1", 0.0, [self._report([1.0, 1.0, 1.0], [0.1, 0.1, 0.1], [0.1, 0.1, 0.1])]
            ),
        }
        small = ResourceVector([0.4, 0.4, 0.4])
        large = ResourceVector([0.8, 0.8, 0.8])
        policy = FirstFitDispatching()
        assert policy.decide(small, summaries).candidates == ["gm-0", "gm-1"]
        assert policy.decide(large, summaries).candidates == ["gm-1"]

    def test_payload_round_trip(self):
        summary = GroupManagerSummary.from_reports(
            "gm-1", 5.0, [self._report([1.0, 1.0, 1.0], [0.3, 0.3, 0.3], [0.2, 0.2, 0.2])]
        )
        clone = GroupManagerSummary.from_payload(summary.to_payload())
        assert clone.gm_id == "gm-1"
        assert clone.total_capacity == summary.total_capacity
        assert clone.largest_free_slot == summary.largest_free_slot

    def test_empty_reports(self):
        summary = GroupManagerSummary.from_reports("gm-0", 0.0, [])
        assert summary.local_controller_count == 0
        assert summary.utilization() == 0.0


class TestSharedTelemetryPlane:
    def test_one_plane_per_simulation(self):
        sim = Simulator()
        plane = TelemetryPlane.shared(sim)
        assert TelemetryPlane.shared(sim) is plane
        assert TelemetryPlane.shared(Simulator()) is not plane
        assert plane.window == 12
        assert isinstance(plane.estimator, EwmaEstimator)


class TestGroupReports:
    def _rows(self, nodes):
        """A report table over ``nodes`` as the fleet kernel lays it out."""
        plane = TelemetryPlane(4, EwmaEstimator())
        hosts = HostRows(plane, [ArrayHostMonitor(node, plane) for node in nodes])
        for monitor in hosts.monitors:
            monitor.reconcile()
        return hosts.sample(0.0)[0]

    def _loaded_nodes(self, count):
        nodes = [make_node(f"node-{index}") for index in range(count)]
        for index, node in enumerate(nodes):
            for _ in range(index % 3):
                node.place_vm(make_vm(cpu=0.1 * (index + 1), trace=ConstantTrace(0.5)))
        return nodes

    def test_summary_equals_from_reports_over_the_same_rows(self):
        nodes = self._loaded_nodes(5)
        table = self._rows(nodes)
        names = [f"lc-{index}" for index in range(5)]
        reports = GroupReports()
        for name, node in zip(names, nodes):
            reports.add(name, node)
        reports.store(ReportRoute(names, range(5)), table)
        d = 3
        expected = GroupManagerSummary.from_reports(
            "gm",
            7.0,
            [
                {
                    "capacity": row[:d].tolist(),
                    "reserved": row[d : 2 * d].tolist(),
                    "used": row[2 * d : 3 * d].tolist(),
                    "vm_count": int(row[-1]),
                }
                for row in table
            ],
        )
        assert reports.summarize("gm", 7.0) == expected

    def test_unknown_senders_are_skipped_and_removal_keeps_join_order(self):
        nodes = self._loaded_nodes(4)
        table = self._rows(nodes)
        names = ["lc-0", "lc-1", "lc-2", "lc-3"]
        reports = GroupReports()
        for name, node in list(zip(names, nodes))[:3]:  # lc-3 never joined this GM
            reports.add(name, node)
        route = ReportRoute(names, range(4))
        reports.store(route, table)
        assert reports.summarize("gm", 0.0).active_vm_count == int(table[:3, -1].sum())
        reports.remove("lc-1")
        reports.store(route, table)  # the same route object, re-resolved after the removal
        after = reports.summarize("gm", 0.0)
        assert after.local_controller_count == 2
        assert after.used == ResourceVector(table[0, 6:9] + table[2, 6:9])

    def test_rows_without_a_report_read_the_node(self):
        nodes = self._loaded_nodes(3)
        reports = GroupReports()
        for index, node in enumerate(nodes):
            reports.add(f"lc-{index}", node)
        summary = reports.summarize("gm", 0.0)
        assert summary.active_vm_count == sum(node.vm_count for node in nodes)
        assert summary.reserved == ResourceVector(
            nodes[0].reserved_values() + nodes[1].reserved_values() + nodes[2].reserved_values()
        )
        reports.clear()
        assert reports.summarize("gm", 0.0).local_controller_count == 0
