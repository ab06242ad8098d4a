"""Property tests: the array-backed telemetry plane == the scalar reference.

The vectorized hot path (:mod:`repro.monitoring.arrays`) claims **bit
identity** with the scalar ``VMMonitor`` / ``HostMonitor`` implementations --
not approximate equality.  Hypothesis drives random sample streams (including
empty windows, single samples, window overflow and wide magnitude spreads)
through both and compares raw float64 bit patterns via ``==``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.resources import DEFAULT_DIMENSIONS, ResourceVector
from repro.monitoring.arrays import ArrayHostMonitor, TelemetryPlane, estimate_windows
from repro.monitoring.estimators import (
    EwmaEstimator,
    MaxEstimator,
    MeanEstimator,
    PercentileEstimator,
)
from repro.workloads.traces import ConstantTrace

from tests.conftest import make_node, make_vm
from tests.scalar_monitor import HostMonitor, MonitoringSample, VMMonitor

ESTIMATORS = [
    MeanEstimator(),
    MaxEstimator(),
    EwmaEstimator(alpha=0.3),
    EwmaEstimator(alpha=1.0),
    PercentileEstimator(percentile=95.0),
    PercentileEstimator(percentile=50.0),
]

#: Utilization-ish floats plus wide magnitude spread to stress summation order.
sample_values = st.floats(
    min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False
) | st.floats(min_value=1e-12, max_value=1e12, allow_nan=False, allow_infinity=False)


def _stream_strategy():
    """A list of per-VM sample streams (each a list of d-dim samples)."""
    sample = st.lists(sample_values, min_size=3, max_size=3)
    stream = st.lists(sample, min_size=0, max_size=30)
    return st.lists(stream, min_size=1, max_size=6)


class TestEstimatorKernels:
    @settings(max_examples=60, deadline=None)
    @given(streams=_stream_strategy(), estimator_index=st.integers(0, len(ESTIMATORS) - 1))
    def test_estimate_windows_bitwise_equals_scalar(self, streams, estimator_index):
        estimator = ESTIMATORS[estimator_index]
        # Group equal-length windows (the kernel's input contract).
        lengths = {len(stream) for stream in streams if stream}
        for n in lengths:
            block = np.asarray(
                [stream for stream in streams if len(stream) == n], dtype=float
            )
            batched = estimate_windows(estimator, block)
            for row_index in range(block.shape[0]):
                scalar = estimator.estimate(block[row_index])
                assert (batched[row_index] == scalar).all()

    def test_estimate_windows_rejects_empty_block(self):
        with pytest.raises(ValueError):
            estimate_windows(MeanEstimator(), np.empty((2, 0, 3)))


class TestPlaneVsVMMonitor:
    @settings(max_examples=40, deadline=None)
    @given(
        streams=_stream_strategy(),
        window=st.integers(min_value=1, max_value=8),
        estimator_index=st.integers(0, len(ESTIMATORS) - 1),
    )
    def test_ring_buffer_estimates_bitwise_equal_scalar_reference(
        self, streams, window, estimator_index
    ):
        estimator = ESTIMATORS[estimator_index]
        plane = TelemetryPlane(window, estimator)
        for stream in streams:
            vm = make_vm(cpu=0.5, memory=0.5, network=0.5)
            reference = VMMonitor(vm, window=window, estimator=estimator)
            slot = plane.allocate(vm)
            for timestamp, values in enumerate(stream):
                array = np.asarray(values, dtype=float)
                # Feed both paths the same raw sample (bypassing the trace).
                plane.record(slot, array)
                vm.used = ResourceVector(array, DEFAULT_DIMENSIONS)
                reference._samples.append(
                    MonitoringSample(timestamp=float(timestamp), usage=vm.used)
                )
            expected = reference.estimate_demand()
            actual = plane.estimate_row(slot)
            assert (actual == expected.values).all()
            # Window bookkeeping matches the bounded deque.
            assert plane.count(slot) == len(reference.samples)
            if stream:
                chronological = np.vstack(
                    [sample.as_array() for sample in reference.samples]
                )
                assert (plane.window_view(slot) == chronological).all()

    def test_empty_window_falls_back_to_reservation(self):
        plane = TelemetryPlane(4, MeanEstimator())
        vm = make_vm(cpu=0.6)
        slot = plane.allocate(vm)
        assert (plane.estimate_row(slot) == vm.requested.values).all()

    def test_slot_reuse_resets_the_window(self):
        plane = TelemetryPlane(4, MeanEstimator())
        first = make_vm(cpu=0.5)
        slot = plane.allocate(first)
        plane.record(slot, np.array([0.9, 0.9, 0.9]))
        plane.release(slot)
        second = make_vm(cpu=0.25)
        reused = plane.allocate(second)
        assert reused == slot
        assert plane.count(reused) == 0
        assert (plane.estimate_row(reused) == second.requested.values).all()

    def test_plane_grows_past_initial_capacity(self):
        plane = TelemetryPlane(2, MaxEstimator())
        slots = [plane.allocate(make_vm()) for _ in range(200)]
        assert len(set(slots)) == 200
        for slot in slots:
            plane.record(slot, np.array([0.1, 0.1, 0.1]))
        assert plane.estimates(slots).shape == (200, 3)


class TestHostMonitorEquivalence:
    def _twin_hosts(self, estimator, window=5, vms=3, level=0.8):
        scalar_node, array_node = make_node("scalar-0"), make_node("array-0")
        plane = TelemetryPlane(window, estimator)
        scalar_monitor = HostMonitor(scalar_node, window=window, estimator=estimator)
        array_monitor = ArrayHostMonitor(array_node, plane)
        for index in range(vms):
            trace = ConstantTrace(level - 0.1 * index)
            scalar_node.place_vm(make_vm(cpu=0.3, trace=trace))
            array_node.place_vm(make_vm(cpu=0.3, trace=trace))
        return scalar_monitor, array_monitor

    @pytest.mark.parametrize("estimator_index", range(len(ESTIMATORS)))
    def test_reports_identical_for_identical_nodes(self, estimator_index):
        estimator = ESTIMATORS[estimator_index]
        scalar_monitor, array_monitor = self._twin_hosts(estimator)
        for tick in range(8):
            now = 10.0 * tick
            scalar_report = scalar_monitor.report(now)
            array_report = array_monitor.report(now)
            for key in ("capacity", "used", "reserved", "vm_count", "utilization"):
                assert scalar_report[key] == array_report[key], key
            assert list(scalar_report["vm_usage"].values()) == list(
                array_report["vm_usage"].values()
            )

    def test_untracks_departed_vms_like_scalar(self):
        estimator = MeanEstimator()
        scalar_monitor, array_monitor = self._twin_hosts(estimator, vms=2)
        scalar_monitor.report(0.0)
        array_monitor.report(0.0)
        for monitor in (scalar_monitor, array_monitor):
            monitor.node.remove_vm(monitor.node.vms[0])
        scalar_report = scalar_monitor.report(10.0)
        array_report = array_monitor.report(10.0)
        assert len(array_monitor.tracked_vm_ids()) == 1
        assert scalar_report["vm_count"] == array_report["vm_count"] == 1
        assert scalar_report["used"] == array_report["used"]

    def test_estimate_demand_of_untracked_vm_is_reservation(self):
        plane = TelemetryPlane(4, MeanEstimator())
        monitor = ArrayHostMonitor(make_node(), plane)
        vm = make_vm(cpu=0.4)
        assert monitor.estimate_demand(vm) == vm.requested
