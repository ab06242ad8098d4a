"""Snooze client: submits VMs through Entry Points and records the outcome.

The client is what the paper's command-line interface builds on: it discovers
the hierarchy through the replicated Entry Points and submits VM requests,
retrying through another Entry Point when one is unavailable.  Every
submission produces a :class:`SubmissionRecord` with the timing information
the scalability experiment (E3) reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.cluster.vm import VirtualMachine, VMState
from repro.hierarchy.config import HierarchyConfig
from repro.metrics.recorder import EventLog
from repro.network.rpc import RpcChannel
from repro.network.transport import Network
from repro.obs import OBSERVABILITY_SERVICE
from repro.simulation.engine import Simulator


@dataclass
class SubmissionRecord:
    """Outcome of one VM submission as observed by the client."""

    vm: VirtualMachine
    submitted_at: float
    completed_at: Optional[float] = None
    placed: bool = False
    gm: Optional[str] = None
    lc: Optional[str] = None
    node_id: Optional[str] = None
    reason: Optional[str] = None

    @property
    def latency(self) -> Optional[float]:
        """Submission latency (client-observed), or None if still pending."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.submitted_at

    @property
    def pending(self) -> bool:
        """True while the submission outcome has not come back yet."""
        return self.completed_at is None


class SnoozeClient:
    """Client-side API: submit VMs and collect submission statistics."""

    def __init__(
        self,
        name: str,
        sim: Simulator,
        network: Network,
        entry_points: Sequence[str],
        config: Optional[HierarchyConfig] = None,
        event_log: Optional[EventLog] = None,
    ) -> None:
        if not entry_points:
            raise ValueError("client needs at least one entry point")
        self.name = name
        self.sim = sim
        self.network = network
        self.config = config or HierarchyConfig()
        self.entry_points = list(entry_points)
        self.event_log = event_log if event_log is not None else EventLog()
        self.records: List[SubmissionRecord] = []
        self._next_entry_point = 0
        network.register(name, self._on_message)
        self.rpc = RpcChannel(network, name)
        # The client is not a Component, so it discovers the observability
        # plane itself; "vm_submit" root spans track each in-flight submission.
        obs = sim.get_service(OBSERVABILITY_SERVICE) if sim.has_service(OBSERVABILITY_SERVICE) else None
        self.tracer = obs.tracer if obs is not None else None
        self._submit_spans: dict = {}

    def _on_message(self, message) -> None:
        self.rpc.handle_message(message)

    # ------------------------------------------------------------------ submit
    def submit(
        self,
        vm: VirtualMachine,
        on_complete: Optional[Callable[[SubmissionRecord], None]] = None,
    ) -> SubmissionRecord:
        """Submit one VM through the next Entry Point (round-robin over replicas)."""
        vm.mark_submitted(self.sim.now)
        record = SubmissionRecord(vm=vm, submitted_at=self.sim.now)
        self.records.append(record)
        if self.tracer is not None:
            # A fresh root trace per submission: every downstream span of the
            # dispatch -> placement -> boot chain hangs off this one.
            self._submit_spans[id(record)] = self.tracer.begin(
                "vm_submit", self.name, root=True, vm=vm.vm_id
            )
        self._try_entry_point(vm, record, attempts_left=len(self.entry_points), on_complete=on_complete)
        return record

    def _try_entry_point(
        self,
        vm: VirtualMachine,
        record: SubmissionRecord,
        attempts_left: int,
        on_complete: Optional[Callable[[SubmissionRecord], None]],
        tried: Optional[set] = None,
    ) -> None:
        tried = tried if tried is not None else set()
        if attempts_left <= 0:
            self._finish(record, {"placed": False, "reason": "all entry points unavailable"}, on_complete)
            return
        # Prefer an Entry Point this submission has not timed out on yet, so a
        # crashed replica is not retried while a healthy one exists.
        untried = [ep for ep in self.entry_points if ep not in tried]
        pool = untried or self.entry_points
        entry_point = pool[self._next_entry_point % len(pool)]
        self._next_entry_point += 1
        span = self._submit_spans.get(id(record))
        self.rpc.call(
            entry_point,
            "submit_vm",
            kwargs={"vm": vm},
            trace_ctx=span.ctx if span is not None else None,
            on_reply=lambda result: self._finish(record, result, on_complete),
            on_error=lambda error: self._finish(record, {"placed": False, "reason": error}, on_complete),
            on_timeout=lambda: self._try_entry_point(
                vm, record, attempts_left - 1, on_complete, tried | {entry_point}
            ),
            timeout=self.config.placement_timeout + 4 * self.config.rpc_timeout,
        )

    def _finish(
        self,
        record: SubmissionRecord,
        result,
        on_complete: Optional[Callable[[SubmissionRecord], None]],
    ) -> None:
        record.completed_at = self.sim.now
        span = self._submit_spans.pop(id(record), None)
        if span is not None:
            span.attrs["placed"] = bool(result.get("placed")) if isinstance(result, dict) else False
            self.tracer.end(span)
        if isinstance(result, dict):
            record.placed = bool(result.get("placed"))
            record.gm = result.get("gm")
            record.lc = result.get("lc")
            record.node_id = result.get("node_id")
            record.reason = result.get("reason")
        self.event_log.record(
            self.sim.now,
            "vm_submission_completed",
            vm=record.vm.name,
            placed=record.placed,
            latency=record.latency,
        )
        if on_complete is not None:
            on_complete(record)

    # --------------------------------------------------------------- statistics
    def placed_count(self) -> int:
        """Number of submissions that ended with a successful placement."""
        return sum(1 for record in self.records if record.placed)

    def departed_count(self) -> int:
        """Placed VMs whose lifetime elapsed and whose resources were released.

        The Local Controller hosting a VM releases it when its runtime expires
        (emitting a ``vm_departed`` event); the client observes the departure
        through the shared VM object, exactly like a user polling VM status.
        """
        return sum(
            1 for record in self.records if record.placed and record.vm.state is VMState.FINISHED
        )

    def failed_vm_count(self) -> int:
        """Placed VMs lost to a Local Controller failure (paper Section II.E)."""
        return sum(
            1 for record in self.records if record.placed and record.vm.state is VMState.FAILED
        )

    def active_vm_count(self) -> int:
        """Placed VMs still occupying resources (running or migrating)."""
        return sum(1 for record in self.records if record.placed and record.vm.is_active)

    def rejected_count(self) -> int:
        """Number of completed submissions that were rejected."""
        return sum(1 for record in self.records if not record.placed and not record.pending)

    def pending_count(self) -> int:
        """Number of submissions still in flight."""
        return sum(1 for record in self.records if record.pending)

    def latencies(self) -> List[float]:
        """Latencies of all completed submissions."""
        return [record.latency for record in self.records if record.latency is not None]

    def mean_latency(self) -> float:
        """Mean submission latency (0 if nothing completed yet)."""
        values = self.latencies()
        return float(sum(values) / len(values)) if values else 0.0
