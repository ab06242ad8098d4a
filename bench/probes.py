"""Fixed-size micro-probes of single layers, run in traced mode only.

Each probe drives one layer's public API with a synthetic load of a stated
size and returns ``{metric name: value}``.  They answer "what does one unit of
this layer's work cost on this box", so a change to one layer shows in its own
row before it shows -- diluted by that layer's share -- in an end-to-end
number.  Sizes follow the fleet the workloads run: 2048 tick members, 2400
telemetry slots, 64-node groups, 32 group managers.

``scale`` < 1 shrinks the repetition counts (the ``--smoke`` size used by the
harness tests); the per-unit numbers keep their meaning.
"""

from __future__ import annotations

import gc
import time
from typing import Callable, Dict

import numpy as np

from repro.cluster.node import PhysicalNode
from repro.cluster.resources import DEFAULT_DIMENSIONS, ResourceVector
from repro.cluster.vm import VirtualMachine
from repro.monitoring import GroupManagerSummary, make_estimator
from repro.monitoring.arrays import TelemetryPlane
from repro.network import Message, MessageType, Network, NetworkConfig
from repro.policies import ClusterView, DecisionPlane, make_policy
from repro.scenarios import WorkloadPhase
from repro.simulation import PeriodicTimer, Simulator
from repro.simulation.batch import CoalescedTicker, DeadlineTable
from repro.sweeps import (
    CoordinatorThread,
    SweepCoordinator,
    SweepRunner,
    spawn_loopback_runner,
)
from repro.sweeps.spec import RunSpec
from repro.sweeps.wire import HEADER, decode_body, encode_frame
from repro.traffic.model import DEFAULT_LATENCY_BUCKETS, evaluate_tick

Metrics = Dict[str, float]


def _noop(*_args) -> None:
    return None


def _timed(fn: Callable[[], object]) -> float:
    gc.collect()
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _count(base: int, scale: float) -> int:
    return max(1, int(base * scale))


# ---------------------------------------------------------------- simulation
def simulation(scale: float) -> Metrics:
    """Event kernel, periodic timers, coalesced ticker and deadline table."""
    metrics: Metrics = {}

    n_events = _count(200_000, scale)
    sim = Simulator()

    def kernel() -> None:
        for index in range(n_events):
            sim.schedule(index * 1e-3, _noop)
        sim.run()

    metrics["simulation.kernel_events_per_s"] = n_events / _timed(kernel)

    sim = Simulator()
    timers = [PeriodicTimer(sim, 1.0, _noop) for _ in range(64)]
    wall = _timed(lambda: sim.run(until=float(_count(1000, scale))))
    metrics["simulation.periodic_timer_us"] = wall / sum(t.fired_count for t in timers) * 1e6

    sim = Simulator()
    ticker = CoalescedTicker.shared(sim)
    members = [ticker.register(1.0, _noop, _noop, _noop) for _ in range(2048)]
    wall = _timed(lambda: sim.run(until=float(_count(100, scale))))
    metrics["simulation.ticker_member_us"] = (
        wall / (3 * sum(m.fired_count for m in members)) * 1e6
    )

    sim = Simulator()
    table = DeadlineTable(sim)
    handles = [table.arm(10.0, _noop) for _ in range(2048)]
    rounds = _count(100, scale)

    def restarts() -> None:
        for base in range(rounds):
            table.restart_handles(handles, float(base))

    metrics["simulation.deadline_restart_us"] = _timed(restarts) / (rounds * len(handles)) * 1e6
    return metrics


# ------------------------------------------------------------------- network
def network(seed: int, scale: float) -> Metrics:
    """Per-message send + deliver cost on the jittery and the batched path."""
    n_messages = _count(50_000, scale)
    configs = {
        "network.deliver_us-jitter": NetworkConfig(),
        "network.deliver_us-batched": NetworkConfig(jitter=0.0, loss_probability=0.0),
    }
    metrics: Metrics = {}
    for name, config in configs.items():
        sim = Simulator()
        net = Network(sim, config, rng=np.random.default_rng(seed))
        net.register("a", _noop)
        net.register("b", _noop)

        def exchange() -> None:
            for _ in range(n_messages):
                net.send(Message(MessageType.LC_HEARTBEAT, "a", "b"))
            sim.run()

        wall = _timed(exchange)
        if net.messages_delivered != n_messages:
            raise RuntimeError(f"{name}: {net.messages_delivered}/{n_messages} delivered")
        metrics[name] = wall / n_messages * 1e6
    return metrics


# ---------------------------------------------------------------- monitoring
def monitoring(seed: int, scale: float) -> Metrics:
    """Telemetry-plane sample + estimate per slot, GM summary fold per report."""
    rng = np.random.default_rng(seed)
    plane = TelemetryPlane(window=12, estimator=make_estimator("ewma"))
    demands = rng.uniform(0.1, 0.3, (2400, len(DEFAULT_DIMENSIONS)))
    slots = [
        plane.allocate(VirtualMachine(ResourceVector(row, DEFAULT_DIMENSIONS))) for row in demands
    ]
    samples = demands * 0.7
    rounds = _count(10, scale)

    def sample_and_estimate() -> None:
        for _ in range(rounds):
            for slot, values in zip(slots, samples):
                plane.record(slot, values)
            plane.estimates(slots)

    metrics = {
        "monitoring.sample_estimate_us": _timed(sample_and_estimate) / (rounds * len(slots)) * 1e6
    }

    reports = [
        {
            "capacity": [1.0, 1.0, 1.0],
            "reserved": row.tolist(),
            "used": (row * 0.7).tolist(),
            "vm_count": 1,
        }
        for row in demands[:64]
    ]
    folds = _count(200, scale)

    def summarize() -> None:
        for _ in range(folds):
            GroupManagerSummary.from_reports("gm-00", 0.0, reports)

    metrics["monitoring.summary_us"] = _timed(summarize) / (folds * len(reports)) * 1e6
    return metrics


# ------------------------------------------------------------------ policies
def _group(rng: np.random.Generator, n_nodes: int = 64, vms_per_node: int = 2):
    """A GM-sized group of unit nodes, each hosting a couple of running VMs."""
    nodes = []
    for index in range(n_nodes):
        node = PhysicalNode(f"node-{index:03d}")
        for _ in range(vms_per_node):
            vm = VirtualMachine(ResourceVector(rng.uniform(0.1, 0.25, 3), DEFAULT_DIMENSIONS))
            node.place_vm(vm)
            vm.used = vm.requested * 0.7
        nodes.append(node)
    return nodes


def policies(seed: int, scale: float) -> Metrics:
    """Decision latency of the default policy kernels on a 64-node group."""
    rng = np.random.default_rng(seed)
    nodes = _group(rng)
    view = ClusterView.from_nodes(nodes)
    vm = VirtualMachine(ResourceVector([0.2, 0.2, 0.1], DEFAULT_DIMENSIONS))
    calls = _count(2000, scale)
    metrics: Metrics = {}

    def per_call(fn: Callable[[], object], count: int = calls) -> float:
        def loop() -> None:
            for _ in range(count):
                fn()

        return _timed(loop) / count * 1e6

    for name in ("first-fit", "best-fit"):
        policy = make_policy("placement", name)
        metrics[f"policies.placement_us-{name}"] = per_call(lambda: policy.decide(vm, view))

    summaries = {}
    for gm in range(32):
        reports = [
            {
                "capacity": [1.0, 1.0, 1.0],
                "reserved": rng.uniform(0.1, 0.6, 3).tolist(),
                "used": rng.uniform(0.1, 0.4, 3).tolist(),
                "vm_count": 2,
            }
            for _ in range(8)
        ]
        summaries[f"gm-{gm:02d}"] = GroupManagerSummary.from_reports(f"gm-{gm:02d}", 0.0, reports)
    dispatch = make_policy("dispatching", "least-loaded")
    metrics["policies.dispatch_us-least-loaded"] = per_call(
        lambda: dispatch.decide(vm.requested, summaries)
    )

    # Relocation sources: one host pushed over the overload threshold, one
    # left nearly idle; both policies plan moves onto the rest of the group.
    hot, cold, rest = nodes[0], nodes[1], nodes[2:]
    for hosted in hot.vms:
        hosted.used = ResourceVector([0.6, 0.1, 0.1], DEFAULT_DIMENSIONS)
    for hosted in cold.vms:
        hosted.used = hosted.requested * 0.05
    relocations = max(1, calls // 10)
    overload = make_policy("overload-relocation", "greedy")
    underload = make_policy("underload-relocation", "all-or-nothing")
    if overload.decide(hot, rest).empty or underload.decide(cold, rest).empty:
        raise RuntimeError("relocation probe planned no moves; it would time the early exit")
    metrics["policies.relocation_us-overload"] = per_call(
        lambda: overload.decide(hot, rest), relocations
    )
    metrics["policies.relocation_us-underload"] = per_call(
        lambda: underload.decide(cold, rest), relocations
    )

    metrics["policies.view_build_us"] = per_call(
        lambda: ClusterView.from_nodes(nodes), relocations
    )

    plane = DecisionPlane()
    for index, node in enumerate(nodes):
        plane.add(f"lc-{index:03d}", node)
    plane.view()
    churn = VirtualMachine(ResourceVector([0.05, 0.05, 0.05], DEFAULT_DIMENSIONS))

    def dirty_row_then_view() -> None:
        nodes[5].place_vm(churn)
        plane.view()
        nodes[5].remove_vm(churn)
        plane.view()

    metrics["policies.plane_refresh_us"] = per_call(dirty_row_then_view) / 2.0
    return metrics


# ------------------------------------------------------------------- traffic
def traffic(seed: int, scale: float) -> Metrics:
    """One analytic M/M/c tick over 8 and over 512 services."""
    rng = np.random.default_rng(seed)
    bounds = np.asarray(DEFAULT_LATENCY_BUCKETS, dtype=float)
    calls = _count(300, scale)
    metrics: Metrics = {}
    for services in (8, 512):
        servers = rng.integers(1, 8, services)
        mu = np.full(services, 100.0)
        lam = rng.uniform(0.2, 0.9, services) * servers * mu

        def ticks() -> None:
            for _ in range(calls):
                evaluate_tick(lam, mu, servers, 10.0, bounds)

        metrics[f"traffic.evaluate_tick_us-{services}"] = _timed(ticks) / calls * 1e6
    return metrics


# ----------------------------------------------------------------- workloads
def workload_generation(seed: int) -> Metrics:
    """Generating the 2400 VM requests the 2048-LC churn fleet submits."""
    phase = WorkloadPhase(
        name="churn",
        vm_count=2400,
        arrival={"kind": "poisson", "rate_per_hour": 18000.0},
        demand={"kind": "uniform", "low": 0.1, "high": 0.3},
        trace={"kind": "constant", "level": 0.7},
        lifetime={"kind": "exponential", "mean": 80.0, "minimum": 30.0},
    )
    generator = phase.build_generator()
    rng = np.random.default_rng(seed)
    return {"workloads.generate_s": _timed(lambda: generator.generate(phase.vm_count, rng))}


# -------------------------------------------------------------------- sweeps
def _noop_cell(payload: dict) -> dict:
    return {"run": payload, "status": "ok", "result": None, "error": None, "wall_seconds": 0.0}


def sweep_protocol(run: RunSpec, scale: float) -> Metrics:
    """Lease round-trip, runner spawn and frame codec cost of the sweep fleet.

    ``run`` is one real (short) sweep cell: its outcome is the frame the codec
    is timed on, so ``outcome_bytes`` is what a runner really posts.
    """
    metrics: Metrics = {}

    leases = _count(1000, scale)
    payloads = [{"index": index, "scenario": "noop"} for index in range(leases)]
    coordinator = SweepCoordinator(payloads, speculate=False)
    with CoordinatorThread(coordinator, timeout=120.0) as thread:
        host, port = thread.address
        runner = SweepRunner(host, port, runner_id="probe", fn=_noop_cell)
        wall = _timed(runner.run)
        outcomes = thread.result(timeout=30.0)
    if len(outcomes) != leases:
        raise RuntimeError(f"lease probe: {len(outcomes)}/{leases} outcomes")
    metrics["sweeps.lease_rtt_ms"] = wall / leases * 1e3

    payload = run.to_dict()
    coordinator = SweepCoordinator([payload], speculate=False)
    with CoordinatorThread(coordinator, timeout=120.0) as thread:
        address = thread.address
        gc.collect()
        start = time.perf_counter()
        proc = spawn_loopback_runner(address, runner_id="spawn-probe")
        try:
            while coordinator.stats["runners_seen"] < 1:
                if proc.poll() is not None:
                    raise RuntimeError(f"spawned runner exited with {proc.returncode}")
                time.sleep(0.001)
            metrics["sweeps.runner_spawn_s"] = time.perf_counter() - start
            outcome = thread.result(timeout=120.0)[0]
        finally:
            proc.terminate()
            proc.wait(timeout=10.0)
    if outcome["status"] != "ok":
        raise RuntimeError(f"spawn probe cell failed: {outcome['error']}")

    message = {"type": "outcome", "lease_id": "lease-1", "run_id": 0, "outcome": outcome}
    frame = encode_frame(message)
    calls = _count(200, scale)

    def codec() -> None:
        for _ in range(calls):
            decode_body(encode_frame(message)[HEADER.size:])

    metrics["sweeps.frame_us"] = _timed(codec) / calls * 1e6
    metrics["sweeps.outcome_bytes"] = float(len(frame))
    return metrics

