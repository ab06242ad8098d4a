"""The batched first-fit kernel and the heap dispatch equal their per-arrival loops.

``repro.core.placement.first_fit`` places the demands of many groups, each in
its own window of rows, in rank rounds, and
``repro.megafleet.engine.least_loaded`` dispatches from a heap; both must give
bit-for-bit what the one-arrival-at-a-time loops in
``tests/per_arrival_megafleet.py`` give, run group by group: the same rows and
targets, and the same reservations and projected free CPU, compared as bytes.
The draws are built to hit the edges: exact ties (zero included), demands that
fit only within ``FIT_TOLERANCE``, several placements on one row,
all-rejected and empty batches, a ``placeable`` mask, and windows whose first
fit lies past the kernel's first block of rows.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.placement import FIT_BLOCK, FIT_TOLERANCE, first_fit
from repro.megafleet import engine, get_megafleet, run_megafleet

from tests.per_arrival_megafleet import dispatch_per_arrival, first_fit_per_arrival

#: Values that make ties, exact fills and near-misses likely.
EDGES = [0.0, 0.1, 0.2, 0.25, 0.3, 0.5, 0.7, 1.0]
#: Offsets that land a demand just inside or just outside the tolerance.
NUDGES = [0.0, 0.5 * FIT_TOLERANCE, -0.5 * FIT_TOLERANCE, 2 * FIT_TOLERANCE]

values = st.one_of(
    st.sampled_from(EDGES),
    st.floats(min_value=0.0, max_value=1.2, allow_nan=False, allow_infinity=False),
)


@st.composite
def batches(draw):
    """``(demands, reserved, capacities, placeable)`` for one kernel call."""
    n = draw(st.integers(min_value=1, max_value=10))
    d = draw(st.integers(min_value=1, max_value=3))
    k = draw(st.integers(min_value=0, max_value=14))
    capacities = np.array(
        [[draw(st.sampled_from([0.5, 1.0, 2.0])) for _ in range(d)] for _ in range(n)]
    )
    reserved = np.array([[draw(values) for _ in range(d)] for _ in range(n)])
    reserved = np.minimum(reserved, capacities)
    demands = np.zeros((k, d))
    for i in range(k):
        if n and draw(st.booleans()):
            # Fill a row exactly, give or take the tolerance.
            row = draw(st.integers(min_value=0, max_value=n - 1))
            demands[i] = np.maximum(
                capacities[row] - reserved[row] + draw(st.sampled_from(NUDGES)), 0.0
            )
        else:
            demands[i] = [draw(values) * 0.5 for _ in range(d)]
    placeable = (
        np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        if draw(st.booleans())
        else None
    )
    return demands, reserved, capacities, placeable


@st.composite
def shard_batches(draw):
    """``(demands, reserved, capacities, placeable, bounds, counts)`` for one
    call over several groups: some windows longer than ``FIT_BLOCK`` with their
    first rows full, some full throughout, some without demands, and rows
    before the first window that no group owns."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    d = draw(st.integers(min_value=1, max_value=3))
    lead = draw(st.integers(min_value=0, max_value=3))
    sizes = draw(
        st.lists(
            st.one_of(
                st.integers(min_value=0, max_value=8),
                st.integers(min_value=FIT_BLOCK - 1, max_value=4 * FIT_BLOCK + 5),
            ),
            min_size=1,
            max_size=6,
        )
    )
    counts = [draw(st.integers(min_value=0, max_value=10)) for _ in sizes]
    bounds = np.cumsum([lead] + sizes)
    n, k = int(bounds[-1]), sum(counts)
    capacities = (
        rng.choice([0.5, 1.0, 2.0], (n, d)) if draw(st.booleans()) else np.ones((n, d))
    )
    reserved = np.minimum(rng.choice(EDGES, (n, d)), capacities)
    for lo, size in zip(bounds.tolist(), sizes):
        # Full rows from the window's start: none, past the first block or
        # two, or all of them (every demand of the group is rejected).
        full = draw(st.sampled_from([0, FIT_BLOCK - 1, FIT_BLOCK, 2 * FIT_BLOCK + 1, size]))
        reserved[lo : lo + min(full, size)] = capacities[lo : lo + min(full, size)]
    demands = rng.choice(EDGES, (k, d)) * 0.5
    exact = rng.random(k) < 0.3
    if n and exact.any():
        # Fill a drawn row exactly, give or take the tolerance.
        rows = rng.integers(0, n, k)
        nudges = rng.choice(NUDGES, (k, 1))
        fill = np.maximum(capacities[rows] - reserved[rows] + nudges, 0.0)
        demands[exact] = fill[exact]
    placeable = rng.random(n) < 0.8 if draw(st.booleans()) else None
    return demands, reserved, capacities, placeable, bounds, np.array(counts)


def _bytes(array) -> bytes:
    return np.asarray(array, dtype=float).tobytes()


class TestFirstFitKernel:
    @given(batch=batches())
    @settings(max_examples=300, deadline=None)
    # Row 0 takes two demands, then the third no longer fits there and the
    # first row it fitted at the start is the touched one.
    @example(
        batch=(
            np.array([[0.4], [0.4], [0.4], [0.1]]),
            np.zeros((3, 1)),
            np.ones((3, 1)),
            None,
        )
    )
    def test_equals_the_per_arrival_loop(self, batch):
        demands, reserved, capacities, placeable = batch
        before = reserved.copy()
        hits = first_fit(demands, reserved, capacities, placeable)
        expected_hits, expected_reserved = first_fit_per_arrival(
            demands, reserved, capacities, placeable
        )
        assert hits.dtype == np.int64
        assert hits.tolist() == expected_hits
        assert _bytes(reserved) == _bytes(before)  # the kernel is pure
        placed = hits >= 0
        np.add.at(reserved, hits[placed], demands[placed])
        assert _bytes(reserved) == _bytes(expected_reserved)

    def test_all_rejected_and_empty(self):
        capacities = np.ones((4, 2))
        reserved = np.zeros((4, 2))
        assert first_fit(np.full((3, 2), 1.5), reserved, capacities).tolist() == [-1] * 3
        assert first_fit(np.empty((0, 2)), reserved, capacities).tolist() == []
        unplaceable = np.zeros(4, dtype=bool)
        assert first_fit(np.ones((2, 2)), reserved, capacities, unplaceable).tolist() == [-1, -1]

    def test_first_fit_past_the_first_blocks(self):
        # A window whose rows up to 150 are full: the kernel must look past
        # its first block, for one demand, for several, and beside other
        # windows.
        capacities = np.ones((300, 2))
        reserved = np.zeros((300, 2))
        reserved[:150] = 1.0
        demands = np.full((2, 2), 0.6)
        assert first_fit(demands[:1], reserved, capacities).tolist() == [150]
        assert first_fit(demands, reserved, capacities).tolist() == [150, 151]
        demands = np.full((3, 2), 0.6)
        hits = first_fit(demands, reserved, capacities, bounds=[0, 10, 300], counts=[1, 2])
        assert hits.tolist() == [-1, 150, 151]

    @given(batch=shard_batches())
    @settings(max_examples=200, deadline=None)
    def test_groups_in_one_call_equal_the_per_arrival_loop_per_group(self, batch):
        demands, reserved, capacities, placeable, bounds, counts = batch
        before = reserved.copy()
        hits = first_fit(demands, reserved, capacities, placeable, bounds, counts)
        assert hits.dtype == np.int64
        assert _bytes(reserved) == _bytes(before)  # the kernel is pure
        expected_hits, expected_reserved = [], reserved.copy()
        stops = np.cumsum(counts).tolist()
        for lo, hi, start, stop in zip(bounds, bounds[1:], [0] + stops, stops):
            window = slice(lo, hi)
            local, expected_reserved[window] = first_fit_per_arrival(
                demands[start:stop],
                reserved[window],
                capacities[window],
                None if placeable is None else placeable[window],
            )
            expected_hits += [hit + lo if hit >= 0 else -1 for hit in local]
        assert hits.tolist() == expected_hits
        placed = hits >= 0
        np.add.at(reserved, hits[placed], demands[placed])
        assert _bytes(reserved) == _bytes(expected_reserved)

    @given(batch=batches())
    @settings(max_examples=60, deadline=None)
    def test_group_advance_applies_the_same_placements(self, batch):
        demands, reserved, capacities, _ = batch
        d = capacities.shape[1]
        spec = dataclasses.replace(
            get_megafleet("megafleet-1k"),
            local_controllers=capacities.shape[0],
            group_managers=1,
            dimensions=tuple(f"r{i}" for i in range(d)),
            node_capacity=(1.0,) * d,
        )
        host = engine.ShardHost(spec, [0])
        host.capacities, host.reserved = capacities, reserved.copy()
        k = demands.shape[0]
        host.advance(
            {
                "epoch_index": 0,
                "epoch_start": 0.0,
                "epoch_end": 10.0,
                "demands": demands,
                "lifetimes": np.ones(k),
                "counts": np.array([k]),
            }
        )
        hits, expected_reserved = first_fit_per_arrival(demands, reserved, capacities)
        assert host.vm_row.tolist() == [hit for hit in hits if hit >= 0]
        assert host.rejections.tolist() == [hits.count(-1)]
        assert _bytes(host.reserved) == _bytes(expected_reserved)


@pytest.mark.parametrize("group_managers", [1, 5, 40])
def test_shard_advance_calls_the_kernel_once_per_epoch(monkeypatch, group_managers):
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs.get("counts"))
        return first_fit(*args, **kwargs)

    monkeypatch.setattr(engine, "first_fit", counted)
    spec = dataclasses.replace(
        get_megafleet("megafleet-1k"),
        local_controllers=200,
        group_managers=group_managers,
        duration=50.0,
    )
    result = run_megafleet(spec, seed=4)
    assert result.totals["placements"] > 0
    assert len(calls) == spec.n_epochs == 5
    # One call places the arrivals of every group that has some.
    busiest = max(np.count_nonzero(counts) for counts in calls)
    assert busiest == 1 if group_managers == 1 else busiest > 1


free_values = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 2.0]),
    st.floats(min_value=0.0, max_value=4.0, allow_nan=False, allow_infinity=False),
)


class TestLeastLoadedDispatch:
    @given(
        free_cpu=st.lists(free_values, min_size=1, max_size=12),
        cpu_demands=st.lists(
            st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), free_values), max_size=40
        ),
    )
    @settings(max_examples=300, deadline=None)
    @example(free_cpu=[0.0, 0.0, 0.0], cpu_demands=[0.0, 0.0, 0.5])
    @example(free_cpu=[1.0, 1.0, 0.5], cpu_demands=[0.5, 0.5, 0.5, 0.5, 1.0])
    def test_equals_the_argmax_loop(self, free_cpu, cpu_demands):
        targets, projected = engine.least_loaded(free_cpu, cpu_demands)
        expected_targets, expected_projected = dispatch_per_arrival(free_cpu, cpu_demands)
        assert targets == expected_targets.tolist()
        assert _bytes(projected) == _bytes(expected_projected)
