"""Property tests: the estimator kernel and the telemetry plane == the scalar oracle.

The estimator kernel and the vectorized hot path
(:mod:`repro.monitoring.arrays`) claim **bit identity** with the scalar
``scalar_estimate`` / ``VMMonitor`` / ``HostMonitor`` forms in
``tests/scalar_monitor.py`` -- not approximate equality.  Hypothesis drives
random sample streams (including empty windows, single samples, window
overflow and wide magnitude spreads) through both and compares raw float64 bit
patterns via ``==``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.resources import DEFAULT_DIMENSIONS, ResourceVector
from repro.monitoring.arrays import ArrayHostMonitor, HostRows, TelemetryPlane, report_columns
from repro.monitoring.estimators import EwmaEstimator
from repro.workloads.traces import ConstantTrace

from tests.conftest import make_node, make_vm
from tests.scalar_monitor import (
    HostMonitor,
    MonitoringSample,
    VMMonitor,
    ewma_weight,
    scalar_estimate,
)

#: The deployed EWMA weight and 1.0 (the estimate is the newest sample).
WEIGHTS = [0.3, 1.0]
WEIGHT_IDS = ["ewma-0.3", "ewma-1"]

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
    @given(streams=_stream_strategy(), weight_index=st.integers(0, len(WEIGHTS) - 1))
    def test_estimate_windows_bitwise_equals_scalar(self, streams, weight_index):
        # Group equal-length windows (the kernel's input contract).
        lengths = {len(stream) for stream in streams if stream}
        for n in lengths:
            block = np.asarray(
                [stream for stream in streams if len(stream) == n], dtype=float
            )
            with ewma_weight(WEIGHTS[weight_index]):
                batched = EwmaEstimator().estimate_windows(block)
                for row_index in range(block.shape[0]):
                    scalar = scalar_estimate(block[row_index])
                    assert (batched[row_index] == scalar).all()

    @pytest.mark.parametrize("window", [1, 2, 5])
    @pytest.mark.parametrize("weight", WEIGHTS, ids=WEIGHT_IDS)
    def test_every_fill_level_in_one_refresh(self, weight, window):
        """VM ``k`` holds ``k`` samples, for ``k`` from none to twice the window.

        One refresh estimates every fill level (one kernel call per level,
        full rings wrapped), and each row equals the scalar monitor's estimate.
        """
        rng = np.random.default_rng(window)
        plane = TelemetryPlane(window, EwmaEstimator())
        slots, references = [], []
        for k in range(2 * window + 1):
            vm = make_vm(cpu=0.9, memory=0.9, network=0.9)
            reference = VMMonitor(vm, window=window)
            slot = plane.allocate(vm)
            for timestamp in range(k):
                values = rng.uniform(0.0, 1.0, 3)
                plane.record(slot, values)
                reference._samples.append(
                    MonitoringSample(float(timestamp), ResourceVector(values, DEFAULT_DIMENSIONS))
                )
            slots.append(slot)
            references.append(reference)
        with ewma_weight(weight):
            rows = plane.estimates(slots)
            for row, reference in zip(rows, references):
                assert (row == reference.estimate_demand().values).all()


class TestPlaneVsVMMonitor:
    @settings(max_examples=40, deadline=None)
    @given(
        streams=_stream_strategy(),
        window=st.integers(min_value=1, max_value=8),
        weight_index=st.integers(0, len(WEIGHTS) - 1),
    )
    def test_ring_buffer_estimates_bitwise_equal_scalar_reference(
        self, streams, window, weight_index
    ):
        plane = TelemetryPlane(window, EwmaEstimator())
        for stream in streams:
            vm = make_vm(cpu=0.5, memory=0.5, network=0.5)
            reference = VMMonitor(vm, window=window)
            slot = plane.allocate(vm)
            for timestamp, values in enumerate(stream):
                array = np.asarray(values, dtype=float)
                # Feed both paths the same raw sample (bypassing the trace).
                plane.record(slot, array)
                vm.used = ResourceVector(array, DEFAULT_DIMENSIONS)
                reference._samples.append(
                    MonitoringSample(timestamp=float(timestamp), usage=vm.used)
                )
            with ewma_weight(WEIGHTS[weight_index]):
                expected = reference.estimate_demand()
                actual = plane.estimates([slot])[0]
            assert (actual == expected.values).all()
            # Window bookkeeping matches the bounded deque.
            assert plane._counts[slot] == len(reference.samples)

    def test_empty_window_falls_back_to_reservation(self):
        plane = TelemetryPlane(4, EwmaEstimator())
        vm = make_vm(cpu=0.6)
        slot = plane.allocate(vm)
        assert (plane.estimates([slot])[0] == vm.requested.values).all()

    def test_slot_reuse_resets_the_window(self):
        plane = TelemetryPlane(4, EwmaEstimator())
        first = make_vm(cpu=0.5)
        slot = plane.allocate(first)
        plane.record(slot, np.array([0.9, 0.9, 0.9]))
        plane.release(slot)
        second = make_vm(cpu=0.25)
        reused = plane.allocate(second)
        assert reused == slot
        assert plane._counts[reused] == 0
        # An empty window: the estimate falls back to the new VM's reservation.
        assert (plane.estimates([reused])[0] == second.requested.values).all()

    def test_plane_grows_past_initial_capacity(self):
        plane = TelemetryPlane(2, EwmaEstimator())
        slots = [plane.allocate(make_vm()) for _ in range(200)]
        assert len(set(slots)) == 200
        for slot in slots:
            plane.record(slot, np.array([0.1, 0.1, 0.1]))
        assert plane.estimates(slots).shape == (200, 3)


def host_rows_report(monitor: ArrayHostMonitor, now: float) -> dict:
    """Sample one host through a one-row :class:`HostRows`; the scalar report's fields."""
    monitor.reconcile()
    table, utilization = HostRows(monitor.plane, [monitor]).sample(now)
    capacity, reserved, used, vm_count = report_columns(table[0])
    rows = monitor.plane.estimates(list(monitor._slots.values()))
    return {
        "capacity": capacity.tolist(),
        "reserved": reserved.tolist(),
        "used": used.tolist(),
        "vm_count": vm_count,
        "utilization": float(utilization[0]),
        "vm_usage": [row.tolist() for row in rows],
    }


class TestHostMonitorEquivalence:
    def _twin_hosts(self, window=5, vms=3, level=0.8):
        scalar_node, array_node = make_node("scalar-0"), make_node("array-0")
        plane = TelemetryPlane(window, EwmaEstimator())
        scalar_monitor = HostMonitor(scalar_node, window=window)
        array_monitor = ArrayHostMonitor(array_node, plane)
        for index in range(vms):
            trace = ConstantTrace(level - 0.1 * index)
            scalar_node.place_vm(make_vm(cpu=0.3, trace=trace))
            array_node.place_vm(make_vm(cpu=0.3, trace=trace))
        return scalar_monitor, array_monitor

    @pytest.mark.parametrize("weight_index", range(len(WEIGHTS)))
    def test_reports_identical_for_identical_nodes(self, weight_index):
        scalar_monitor, array_monitor = self._twin_hosts()
        for tick in range(8):
            now = 10.0 * tick
            with ewma_weight(WEIGHTS[weight_index]):
                scalar_report = scalar_monitor.report(now)
                array_report = host_rows_report(array_monitor, now)
            for key in ("capacity", "used", "reserved", "vm_count", "utilization"):
                assert scalar_report[key] == array_report[key], key
            assert list(scalar_report["vm_usage"].values()) == array_report["vm_usage"]

    def test_untracks_departed_vms_like_scalar(self):
        scalar_monitor, array_monitor = self._twin_hosts(vms=2)
        scalar_monitor.report(0.0)
        host_rows_report(array_monitor, 0.0)
        for node in (scalar_monitor.node, array_monitor.node):
            node.remove_vm(node.vms[0])
        scalar_report = scalar_monitor.report(10.0)
        array_report = host_rows_report(array_monitor, 10.0)
        assert len(array_monitor._slots) == 1
        assert scalar_report["vm_count"] == array_report["vm_count"] == 1
        assert scalar_report["used"] == array_report["used"]
