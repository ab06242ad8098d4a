"""Property-based tests (hypothesis) for the unified policy API.

Two families of invariants:

* **Vectorized == scalar**: every decision the numpy-backed
  :class:`~repro.policies.view.ClusterView` math takes (placement scoring,
  relocation destination selection, reconfiguration eligibility) must match a
  straightforward per-node Python reference on randomized clusters.  The
  references below deliberately re-derive the math with plain loops -- they
  share no code with the vectorized implementations.
* **Feasibility**: no registered policy ever produces a decision that violates
  node capacities -- placements fit, relocation plans apply cleanly through
  ``place_vm``/``remove_vm`` (which raise on violation), reconfiguration plans
  execute move-by-move without overshooting any host.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.node import NodeState, PhysicalNode
from repro.cluster.resources import DEFAULT_DIMENSIONS, ResourceVector
from repro.cluster.vm import VirtualMachine
from repro.policies import (
    ClusterView,
    OverloadRelocationPolicy,
    ReconfigurationPolicy,
    UnderloadRelocationPolicy,
    UtilizationThresholds,
    make_policy,
    policy_names,
)
from repro.policies.view import FIT_TOLERANCE

from tests.conftest import join_view

DIMS = len(DEFAULT_DIMENSIONS)
THRESHOLDS = UtilizationThresholds(underload=0.25, overload=0.8)


# --------------------------------------------------------------------- builders
@st.composite
def clusters(draw, max_nodes: int = 7, max_vms: int = 14):
    """Randomized clusters: mixed capacities, partial packing, varied usage.

    VMs are placed only where they fit (so the cluster starts feasible) and
    each gets an independent usage fraction, decoupling the monitoring view
    from the reservation view the way live traces do.
    """
    n_nodes = draw(st.integers(min_value=2, max_value=max_nodes))
    nodes = []
    for index in range(n_nodes):
        capacity = draw(
            st.lists(
                st.floats(min_value=0.5, max_value=2.0, allow_nan=False),
                min_size=DIMS,
                max_size=DIMS,
            )
        )
        nodes.append(
            PhysicalNode(f"n{index:02d}", ResourceVector(capacity, DEFAULT_DIMENSIONS))
        )
    n_vms = draw(st.integers(min_value=0, max_value=max_vms))
    for _ in range(n_vms):
        demand = draw(
            st.lists(
                st.floats(min_value=0.05, max_value=0.6, allow_nan=False),
                min_size=DIMS,
                max_size=DIMS,
            )
        )
        vm = VirtualMachine(ResourceVector(demand, DEFAULT_DIMENSIONS))
        target = nodes[draw(st.integers(min_value=0, max_value=n_nodes - 1))]
        if target.state is NodeState.ON and target.fits(vm):
            target.place_vm(vm)
            fraction = draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
            vm.used = vm.requested * fraction
    # Occasionally suspend a node so placeability filtering is exercised.
    if n_nodes > 2 and draw(st.booleans()):
        victim = nodes[draw(st.integers(min_value=0, max_value=n_nodes - 1))]
        if victim.vm_count == 0:
            victim.state = NodeState.SUSPENDED
    return nodes


@st.composite
def demands(draw):
    values = draw(
        st.lists(
            st.floats(min_value=0.05, max_value=0.8, allow_nan=False),
            min_size=DIMS,
            max_size=DIMS,
        )
    )
    return VirtualMachine(ResourceVector(values, DEFAULT_DIMENSIONS))


# ----------------------------------------------------------- scalar references
def _fits_scalar(node: PhysicalNode, vm: VirtualMachine, extra=None) -> bool:
    reserved = node.reserved().values.copy()
    if extra is not None:
        reserved = reserved + extra
    return node.is_available_for_placement and bool(
        np.all(reserved + vm.requested.values <= node.capacity.values + FIT_TOLERANCE)
    )


def _residual_scalar(node: PhysicalNode, vm: VirtualMachine) -> float:
    remaining = node.capacity.values - node.reserved().values - vm.requested.values
    return float(sum(remaining[d] / node.capacity.values[d] for d in range(DIMS)))


def _headroom_scalar(node: PhysicalNode) -> float:
    free = np.clip(node.capacity.values - node.reserved().values, 0.0, None)
    return float(sum(free[d] / node.capacity.values[d] for d in range(DIMS)))


def _cpu(node: PhysicalNode) -> int:
    dims = node.capacity.dimensions
    return dims.index("cpu") if "cpu" in dims else 0


def _overload_reference(source, destinations, thresholds):
    """Plain-Python re-derivation of the greedy overload relocation policy."""
    cpu = _cpu(source)
    capacity = source.capacity.values[cpu]
    moves = []
    if capacity <= 0:
        return moves
    usage = source.used().values[cpu]
    target = thresholds.overload * capacity
    if usage <= target:
        return moves
    candidates = [
        node
        for node in destinations
        if node.node_id != source.node_id and node.is_available_for_placement
    ]
    added = {node.node_id: np.zeros(DIMS) for node in candidates}
    for vm in sorted(source.vms, key=lambda vm: vm.used.values[cpu], reverse=True):
        if usage <= target:
            break
        best, best_headroom = None, -np.inf
        for node in candidates:
            if not _fits_scalar(node, vm, extra=added[node.node_id]):
                continue
            cpu_cap = node.capacity.values[cpu]
            usage_after = node.used().values[cpu] + added[node.node_id][cpu] + vm.used.values[cpu]
            if usage_after > thresholds.overload * cpu_cap:
                continue
            headroom = cpu_cap - node.used().values[cpu] - added[node.node_id][cpu]
            if headroom > best_headroom:  # strict: first occurrence wins ties
                best, best_headroom = node, headroom
        if best is None:
            continue
        moves.append((vm.vm_id, source.node_id, best.node_id))
        added[best.node_id] += vm.requested.values
        usage -= vm.used.values[cpu]
    return moves


# ------------------------------------------------------------- view == scalar
class TestClusterViewMatchesScalar:
    @given(nodes=clusters(), vm=demands())
    @settings(max_examples=40, deadline=None)
    def test_feasible_mask_matches_per_node_checks(self, nodes, vm):
        view = ClusterView.from_nodes(nodes)
        mask = view.feasible_mask(vm.requested.values)
        for index, node in enumerate(view.nodes):
            assert bool(mask[index]) == _fits_scalar(node, vm)

    @given(nodes=clusters(), vm=demands())
    @settings(max_examples=40, deadline=None)
    def test_residual_and_headroom_scores_match(self, nodes, vm):
        view = ClusterView.from_nodes(nodes)
        residual = view.residual_after(vm.requested.values)
        headroom = view.headroom_fractions()
        for index, node in enumerate(view.nodes):
            assert residual[index] == pytest.approx(_residual_scalar(node, vm), abs=1e-12)
            assert headroom[index] == pytest.approx(_headroom_scalar(node), abs=1e-12)

    @given(nodes=clusters())
    @settings(max_examples=40, deadline=None)
    def test_cpu_utilization_matches_node_utilization(self, nodes):
        view = ClusterView.from_nodes(nodes)
        utilization = view.cpu_utilization()
        for index, node in enumerate(view.nodes):
            assert min(float(utilization[index]), 1.0) == pytest.approx(
                node.utilization(), abs=1e-12
            )


class TestPlacementMatchesScalar:
    @given(nodes=clusters(), vm=demands())
    @settings(max_examples=40, deadline=None)
    def test_first_fit_picks_first_feasible_in_id_order(self, nodes, vm):
        decision = make_policy("placement", "first-fit").decide(
            vm, ClusterView.from_nodes(nodes)
        )
        expected = next(
            (n.node_id for n in sorted(nodes, key=lambda n: n.node_id) if _fits_scalar(n, vm)),
            None,
        )
        assert decision.node_id == expected

    @given(nodes=clusters(), vm=demands())
    @settings(max_examples=40, deadline=None)
    def test_first_fit_kernel_equals_the_view_mask(self, nodes, vm):
        # decide goes through repro.core.placement.first_fit with one row.
        view = ClusterView.from_nodes(nodes)
        decision = make_policy("placement", "first-fit").decide(vm, view)
        hits = np.flatnonzero(view.feasible_mask(vm.requested.values))
        assert decision.node_id == (view.node_ids[int(hits[0])] if hits.size else None)

    @given(nodes=clusters(), vm=demands())
    @settings(max_examples=40, deadline=None)
    def test_best_fit_minimizes_residual(self, nodes, vm):
        decision = make_policy("placement", "best-fit").decide(
            vm, ClusterView.from_nodes(nodes)
        )
        feasible = [n for n in sorted(nodes, key=lambda n: n.node_id) if _fits_scalar(n, vm)]
        if not feasible:
            assert not decision.placed
            return
        scores = {n.node_id: _residual_scalar(n, vm) for n in feasible}
        assert decision.placed
        assert scores[decision.node_id] == pytest.approx(min(scores.values()), abs=1e-12)

    @given(nodes=clusters(), vm=demands())
    @settings(max_examples=40, deadline=None)
    def test_worst_fit_maximizes_headroom(self, nodes, vm):
        decision = make_policy("placement", "worst-fit").decide(
            vm, ClusterView.from_nodes(nodes)
        )
        feasible = [n for n in sorted(nodes, key=lambda n: n.node_id) if _fits_scalar(n, vm)]
        if not feasible:
            assert not decision.placed
            return
        scores = {n.node_id: _headroom_scalar(n) for n in feasible}
        assert decision.placed
        assert scores[decision.node_id] == pytest.approx(max(scores.values()), abs=1e-12)


class TestRelocationMatchesScalar:
    @given(nodes=clusters())
    @settings(max_examples=30, deadline=None)
    def test_overload_plan_matches_reference(self, nodes):
        source = max(nodes, key=lambda n: n.utilization())
        plan = OverloadRelocationPolicy(THRESHOLDS).decide(source, nodes)
        got = [(vm.vm_id, src.node_id, dst.node_id) for vm, src, dst in plan.moves]
        assert got == _overload_reference(source, nodes, THRESHOLDS)

    @given(nodes=clusters())
    @settings(max_examples=30, deadline=None)
    def test_reconfiguration_eligibility_matches_scalar_filter(self, nodes):
        policy = ReconfigurationPolicy(thresholds=THRESHOLDS)
        eligible = {node.node_id for node in policy._eligible_nodes(join_view(nodes))}
        expected = {
            node.node_id
            for node in nodes
            if node.is_available_for_placement
            and min(node.used().values[_cpu(node)] / node.capacity.values[_cpu(node)], 1.0)
            <= THRESHOLDS.overload
        }
        assert eligible == expected


# ---------------------------------------------------------------- feasibility
class TestNoRegisteredPolicyViolatesCapacity:
    @given(nodes=clusters(), vm=demands(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_every_registered_placement_policy_places_feasibly(self, nodes, vm, data):
        name = data.draw(st.sampled_from(policy_names("placement")))
        decision = make_policy("placement", name).decide(vm, ClusterView.from_nodes(nodes))
        if not decision.placed:
            return
        chosen = next(node for node in nodes if node.node_id == decision.node_id)
        assert chosen.is_available_for_placement
        chosen.place_vm(vm)  # raises ResourceError on a capacity violation
        reserved = chosen.reserved().values
        assert np.all(reserved <= chosen.capacity.values + FIT_TOLERANCE)

    @given(nodes=clusters())
    @settings(max_examples=30, deadline=None)
    def test_overload_plan_applies_without_violations(self, nodes):
        source = max(nodes, key=lambda n: n.utilization())
        plan = OverloadRelocationPolicy(THRESHOLDS).decide(source, nodes)
        for vm, src, dst in plan.moves:
            assert src is source
            src.remove_vm(vm)
            dst.place_vm(vm)  # raises on violation
        for node in nodes:
            assert np.all(node.reserved().values <= node.capacity.values + FIT_TOLERANCE)

    @given(nodes=clusters())
    @settings(max_examples=30, deadline=None)
    def test_underload_plan_is_all_or_nothing_and_feasible(self, nodes):
        occupied = [n for n in nodes if n.vm_count > 0]
        if not occupied:
            return
        source = min(occupied, key=lambda n: n.utilization())
        before = source.vm_count
        plan = UnderloadRelocationPolicy(THRESHOLDS).decide(source, nodes)
        assert plan.empty or len(plan.moves) == before
        for vm, src, dst in plan.moves:
            assert src is source
            src.remove_vm(vm)
            dst.place_vm(vm)
        if not plan.empty:
            assert source.vm_count == 0
        for node in nodes:
            assert np.all(node.reserved().values <= node.capacity.values + FIT_TOLERANCE)

    @given(nodes=clusters(max_nodes=5, max_vms=10), data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_every_registered_reconfiguration_policy_plans_feasibly(self, nodes, data):
        name = data.draw(st.sampled_from(policy_names("reconfiguration")))
        small = {"n_ants": 2, "n_cycles": 3}
        params = {"aco": {**small, "rng": np.random.default_rng(0)}}.get(name, {})
        policy = make_policy("reconfiguration", name, thresholds=THRESHOLDS, **params)
        plan = policy.plan(join_view(nodes))
        # Consolidation packs by *used* vectors; execution re-checks the
        # reservation fit per move exactly like MigrationExecutor.migrate and
        # skips moves the destination cannot reserve.  Whatever subset applies,
        # no node may ever exceed its capacity.
        for vm, src, dst in plan.moves:
            if not dst.is_available_for_placement or not dst.fits(vm):
                continue
            src.remove_vm(vm)
            dst.place_vm(vm)  # raises on a capacity violation
        for node in nodes:
            assert np.all(node.reserved().values <= node.capacity.values + FIT_TOLERANCE)
