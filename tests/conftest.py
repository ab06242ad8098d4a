"""Shared fixtures for the test suite."""

from __future__ import annotations

import signal
from contextlib import contextmanager

import numpy as np
import pytest

from repro.cluster.node import PhysicalNode
from repro.cluster.resources import DEFAULT_DIMENSIONS, ResourceVector
from repro.cluster.vm import VirtualMachine
from repro.hierarchy import HierarchyConfig, SnoozeSystem, SystemSpec
from repro.policies.view import ClusterView
from repro.simulation.engine import Simulator
from repro.workloads import UniformDemandDistribution, consolidation_instance


@contextmanager
def no_hang(seconds: float = 30.0):
    """Fail (instead of hanging the suite) if the block outlives ``seconds``."""

    def expired(signum, frame):
        raise AssertionError(f"still blocked after {seconds:.0f} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic random generator for tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def sim() -> Simulator:
    """A fresh simulator."""
    return Simulator()


@pytest.fixture
def small_instance(rng):
    """A small 2-D consolidation instance (12 VMs)."""
    return consolidation_instance(
        12,
        rng,
        demand_distribution=UniformDemandDistribution(0.1, 0.5, dimensions=("cpu", "memory")),
        host_capacity=(1.0, 1.0),
    )


@pytest.fixture
def medium_instance(rng):
    """A medium 2-D consolidation instance (60 VMs)."""
    return consolidation_instance(
        60,
        rng,
        demand_distribution=UniformDemandDistribution(0.1, 0.5, dimensions=("cpu", "memory")),
        host_capacity=(1.0, 1.0),
    )


def make_vm(cpu=0.25, memory=0.25, network=0.1, **kwargs) -> VirtualMachine:
    """Helper constructing a VM with a simple demand vector."""
    return VirtualMachine(ResourceVector([cpu, memory, network], DEFAULT_DIMENSIONS), **kwargs)


def make_node(node_id="node-0", cpu=1.0, memory=1.0, network=1.0) -> PhysicalNode:
    """Helper constructing a unit-capacity physical node."""
    return PhysicalNode(node_id, capacity=ResourceVector([cpu, memory, network], DEFAULT_DIMENSIONS))


def join_view(nodes) -> ClusterView:
    """A view of ``nodes`` in the given order, as a GM passes its LCs' nodes in join order."""
    return ClusterView.from_nodes(nodes, sort_by_id=False)


@pytest.fixture
def small_system() -> SnoozeSystem:
    """A started 6-LC / 2-GM Snooze deployment (shared by hierarchy tests)."""
    system = SnoozeSystem(
        SystemSpec(local_controllers=6, group_managers=2, entry_points=1),
        config=HierarchyConfig(seed=7),
        seed=7,
    )
    system.start()
    return system
