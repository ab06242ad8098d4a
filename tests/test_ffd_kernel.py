"""The compiled first-fit step (``ffd_step.c``) against its numpy oracle, and
the native loader that builds both kernels.

The oracle is the numpy loop in ``tests/scalar_ffd.py``.  The instances are
drawn so that the cases where a first fit can go wrong show up often enough to
count: hosts of several capacities in shuffled order (so hosts open out of
index order), demands that fit a residual exactly at the tolerance, instances
with no VM, and instances with too few hosts.  Each property states the share
of examples it needs of each case and asserts it after the run.
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.base import validate_instance
from repro.core.ffd import FirstFit, FirstFitDecreasing, SortKey, _sort_order
from repro.core.placement import PlacementError

from tests.scalar_ffd import ScalarFirstFit, ScalarFirstFitDecreasing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

TOLERANCE = 1e-9
CAPACITY_LEVELS = (0.5, 0.75, 1.0, 1.5)
DEMAND_LEVELS = (0.0, 0.125, 0.25, 0.375, 0.5, 0.75)


def at_boundary(residual: float):
    """A demand ``d`` with ``d - 1e-9 == residual`` exactly, or None if no float has it."""
    near = residual + TOLERANCE
    for demand in (np.nextafter(near, -np.inf), near, np.nextafter(near, np.inf)):
        if demand - TOLERANCE == residual:
            return float(demand)
    return None


#: Demand levels: multiples of 1/8, each capacity and each level at the exact
#: tolerance boundary, and 2.0 (which fits no host).
LEVELS = sorted(
    {*DEMAND_LEVELS, 2.0}
    | {at_boundary(x) for x in (*DEMAND_LEVELS[1:], *CAPACITY_LEVELS)} - {None}
)


@st.composite
def packing_instances(draw, max_vms=12, max_hosts=12, fits_nowhere=False):
    """``(demands, capacities)``: host rows drawn from one to three capacity
    shapes, each VM's demand within one of them (any level when ``fits_nowhere``)."""
    n_dims = draw(st.integers(1, 3))
    row = st.lists(st.sampled_from(CAPACITY_LEVELS), min_size=n_dims, max_size=n_dims)
    n_shapes = draw(st.integers(1, 3))
    shapes = draw(st.lists(row, min_size=n_shapes, max_size=n_shapes))
    picks = st.integers(0, len(shapes) - 1)
    n_hosts = max_hosts + 1 - draw(st.integers(1, max_hosts))
    capacities = np.array([shapes[draw(picks)] for _ in range(n_hosts)], dtype=float)
    if draw(st.booleans()):  # smallest hosts first: large VMs open later hosts first
        capacities = capacities[np.argsort(capacities.sum(axis=1), kind="stable")]
    # Counted down, so the simplest draws are the largest instances.
    demands = np.zeros((max_vms - draw(st.integers(0, max_vms)), n_dims))
    for vm in range(demands.shape[0]):
        shape = shapes[draw(picks)]
        for dim in range(n_dims):
            levels = [x for x in LEVELS if fits_nowhere or x - TOLERANCE <= shape[dim]]
            demands[vm, dim] = draw(st.sampled_from(levels))
    return demands, capacities


def solvers(demands):
    """``(kernel, oracle, VM order)``: first fit, then FFD under every sort key."""
    yield FirstFit(), ScalarFirstFit(), np.arange(demands.shape[0])
    for key in SortKey:
        dimension = demands.shape[1] - 1 if key is SortKey.SINGLE_DIMENSION else 0
        order = _sort_order(demands, key, dimension)
        yield FirstFitDecreasing(key, dimension), ScalarFirstFitDecreasing(key, dimension), order


def outcome(solver, demands, capacities):
    try:
        return solver.solve(demands, capacities).placement.assignment
    except PlacementError as error:
        return str(error)


def open_order_and_boundary(demands, capacities, assignment, order):
    """Whether hosts opened out of index order, and whether some VM fit a
    residual exactly at the tolerance, replaying ``assignment`` in ``order``."""
    residual, opened, boundary = capacities.copy(), [], False
    for vm in order:
        host = assignment[vm]
        if host not in opened:
            opened.append(host)
        boundary |= bool(np.any(residual[host] == demands[vm] - TOLERANCE))
        residual[host] -= demands[vm]
    return opened != sorted(opened), boundary


class TestKernelMatchesOracle:
    def test_first_fit_and_every_sort_key(self):
        """The stated shares, of 300 examples: in at least 8 % some solver
        opens hosts out of index order, in 25 % some VM fits a residual
        exactly at the tolerance, in 15 % some solver runs out of hosts, and
        some have no VM."""
        seen = Counter()

        @settings(max_examples=300, derandomize=True, deadline=None, database=None,
                  suppress_health_check=[HealthCheck.too_slow])
        @given(packing_instances())
        def check(instance):
            demands, capacities = instance
            cases = {"examples"} | ({"no VM"} if demands.shape[0] == 0 else set())
            for kernel, oracle, order in solvers(demands):
                expected = outcome(oracle, demands, capacities)
                got = outcome(kernel, demands, capacities)
                if isinstance(expected, str):
                    assert isinstance(got, str) and got == expected, kernel
                    cases.add("out of hosts" if "not enough hosts" in expected else "fits nowhere")
                    continue
                assert np.array_equal(got, expected), kernel
                reordered, boundary = open_order_and_boundary(demands, capacities, got, order)
                if reordered:
                    cases.add("reordered")
                if boundary:
                    cases.add("boundary")
            seen.update(cases)

        check()
        assert seen["examples"] >= 300
        assert seen["reordered"] >= 0.08 * seen["examples"], seen
        assert seen["boundary"] >= 0.25 * seen["examples"], seen
        assert seen["out of hosts"] >= 0.15 * seen["examples"], seen
        assert seen["no VM"] >= 1, seen

    def test_the_error_names_the_first_vm_left_over(self):
        demands = np.array([[0.75], [0.75], [0.5], [0.75]])
        for solver in (FirstFit(), ScalarFirstFit()):
            with pytest.raises(PlacementError, match=r"^first-fit could not place VM 1: not"):
                solver.solve(demands, np.ones((1, 1)))
        for solver in (FirstFitDecreasing(), ScalarFirstFitDecreasing()):
            with pytest.raises(PlacementError, match=r"^first-fit could not place VM 3: not"):
                solver.solve(demands, np.ones((2, 1)))

    def test_open_hosts_are_tried_in_open_order(self):
        """Host 1 opens before host 0, so the last VM, which fits both, goes to host 1."""
        demands = np.array([[1.5], [0.75], [0.25]])
        capacities = np.array([[1.0], [2.0]])
        for solver in (FirstFit(), ScalarFirstFit()):
            assert solver.solve(demands, capacities).placement.assignment.tolist() == [1, 0, 1]


def brute_force_validate(demands, capacities):
    """``validate_instance`` as it was: one ``(n_vms, n_hosts, d)`` fit tensor."""
    demands = np.asarray(demands, dtype=float)
    capacities = np.asarray(capacities, dtype=float)
    if demands.ndim != 2 or capacities.ndim != 2:
        raise PlacementError("demands and capacities must be 2-D")
    if capacities.shape[0] == 0:
        raise PlacementError("need at least one host")
    if demands.shape[0] and demands.shape[1] != capacities.shape[1]:
        raise PlacementError("dimension mismatch between demands and capacities")
    if np.any(demands < 0):
        raise PlacementError("demands must be non-negative")
    if np.any(capacities <= 0):
        raise PlacementError("capacities must be strictly positive")
    if demands.shape[0]:
        fits_somewhere = (demands[:, None, :] <= capacities[None, :, :] + 1e-9).all(axis=2).any(axis=1)
        if not np.all(fits_somewhere):
            bad = np.flatnonzero(~fits_somewhere)
            raise PlacementError(f"VMs {bad.tolist()} do not fit on any host")
    return demands, capacities


def validated(function, demands, capacities):
    try:
        return function(demands, capacities)
    except PlacementError as error:
        return str(error)


class TestValidationPerHostShape:
    def test_equals_the_broadcast_over_every_host(self):
        """Of 200 examples, at least 20 % repeat a host row, 20 % have two or
        more distinct rows, and 10 % hold a VM that fits no host."""
        seen = Counter()

        @settings(max_examples=200, derandomize=True, deadline=None, database=None)
        @given(packing_instances(max_vms=10, fits_nowhere=True))
        def check(instance):
            demands, capacities = instance
            expected = validated(brute_force_validate, demands, capacities)
            got = validated(validate_instance, demands, capacities)
            if isinstance(expected, str):
                assert got == expected
                seen["rejected"] += expected.endswith("do not fit on any host")
            else:
                assert all(np.array_equal(a, b) for a, b in zip(got, expected))
            distinct = np.unique(capacities, axis=0).shape[0]
            seen["examples"] += 1
            seen["repeated row"] += distinct < capacities.shape[0]
            seen["distinct rows"] += distinct > 1

        check()
        assert seen["repeated row"] >= 0.2 * seen["examples"], seen
        assert seen["distinct rows"] >= 0.2 * seen["examples"], seen
        assert seen["rejected"] >= 0.1 * seen["examples"], seen

    def test_the_error_lists_every_vm_that_fits_nowhere(self):
        demands = np.array([[0.5, 0.5], [1.2, 0.1], [0.1, 1.2], [1.2, 1.2]])
        capacities = np.array([[1.0, 1.0], [1.0, 1.0], [1.5, 0.5], [0.5, 1.5]])
        with pytest.raises(PlacementError, match=r"^VMs \[3\] do not fit on any host$"):
            validate_instance(demands, capacities)


# ---------------------------------------------------------------- the loader
COLD_FFD = """
import numpy as np
from repro.core import FirstFitDecreasing
demands = np.random.default_rng(3).uniform(0.1, 0.5, (30, 2))
print(FirstFitDecreasing().solve(demands, np.ones((30, 2))).placement.assignment.tolist())
"""


def _cold(tmp_path, *argv):
    env = {**os.environ, "PYTHONPATH": str(SRC), "XDG_CACHE_HOME": str(tmp_path)}
    done = subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return sorted(path.name for path in tmp_path.rglob("*.so"))


class TestNativeLoader:
    def test_a_cold_ffd_solve_builds_only_its_kernel(self, tmp_path):
        built = _cold(tmp_path, "-c", COLD_FFD)
        assert len(built) == 1 and re.fullmatch(r"ffd_step-[0-9a-f]{64}\.so", built[0]), built

    def test_a_scenario_without_packing_starts_no_compiler(self, tmp_path):
        argv = ("-m", "repro.cli.main", "scenario", "run", "steady-churn", "--json")
        assert _cold(tmp_path, *argv) == []

    def test_every_kernel_ships_as_package_data(self):
        text = (ROOT / "pyproject.toml").read_text()
        section = text.split("[tool.setuptools.package-data]", 1)[1].split("\n[", 1)[0]
        listed = {}
        for line in section.splitlines():
            if "=" in line and not line.lstrip().startswith("#"):
                package, files = line.split("=", 1)
                listed[ast.literal_eval(package.strip())] = set(ast.literal_eval(files.strip()))
        kernels = sorted((SRC / "repro").rglob("*.c"))
        assert kernels
        for kernel in kernels:
            package = ".".join(kernel.parent.relative_to(SRC).parts)
            assert kernel.name in listed.get(package, set()), (package, kernel.name)
