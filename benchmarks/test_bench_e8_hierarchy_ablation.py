"""E8 (ablation) -- Hierarchy fan-out and heartbeat-interval sensitivity.

Two hierarchy design choices worth ablating:

* **Group Manager fan-out**: how does the number of GMs over a fixed set of
  Local Controllers affect management-message overhead and Group-Leader
  failover time?
* **Heartbeat interval**: faster heartbeats detect failures sooner but cost
  more messages -- the classic failure-detection trade-off the paper's
  "multicast-based heartbeat protocols" imply.

Expected shape: message overhead grows mildly with GM count and inversely with
the heartbeat interval, while GL failover time is governed by the session
timeout / heartbeat timeout rather than by cluster size.
"""

from __future__ import annotations

import numpy as np

from repro.hierarchy import HierarchyConfig, SnoozeSystem, SystemSpec
from repro.metrics.report import ComparisonTable
from repro.workloads import BatchArrival, UniformDemandDistribution, WorkloadGenerator

from benchmarks.conftest import run_once

LCS = 48
VMS = 48
OBSERVATION_WINDOW = 300.0


def _run_configuration(gms: int, heartbeat_interval: float) -> dict:
    config = HierarchyConfig(
        seed=66,
        gl_heartbeat_interval=heartbeat_interval,
        gm_heartbeat_interval=heartbeat_interval,
        lc_heartbeat_interval=heartbeat_interval,
        heartbeat_timeout=4 * heartbeat_interval,
        session_timeout=5 * heartbeat_interval,
    )
    system = SnoozeSystem(
        SystemSpec(local_controllers=LCS, group_managers=gms, entry_points=1), config=config, seed=66
    )
    system.start()
    generator = WorkloadGenerator(UniformDemandDistribution(0.1, 0.2), BatchArrival(0.0))
    system.submit_requests(generator.generate(VMS, np.random.default_rng(66)))
    system.run(30.0)

    # Steady-state management-message rate over a fixed observation window.
    messages_before = system.network.messages_sent
    system.run(OBSERVATION_WINDOW)
    message_rate = (system.network.messages_sent - messages_before) / OBSERVATION_WINDOW

    # Group Leader failover time under these heartbeat settings.  With a single
    # GM there is no other candidate to promote, so failover is not defined.
    if gms > 1:
        old_leader = system.kill_group_leader()
        t_fail = system.sim.now
        healed = system.run_until(
            lambda: system.current_leader() not in (None, old_leader), timeout=600.0, step=1.0
        )
        failover_time = system.sim.now - t_fail if healed else float("inf")
    else:
        failover_time = float("nan")
    return {
        "gms": gms,
        "heartbeat_s": heartbeat_interval,
        "placed": system.client.placed_count(),
        "messages_per_s": message_rate,
        "failover_s": failover_time,
    }


def _run_experiment() -> list:
    table = ComparisonTable(f"E8: hierarchy ablation ({LCS} LCs, {VMS} VMs)")
    rows = []
    for gms in (1, 2, 4, 8):
        rows.append(_run_configuration(gms, heartbeat_interval=2.0))
    for heartbeat in (1.0, 5.0):
        rows.append(_run_configuration(4, heartbeat_interval=heartbeat))
    for row in rows:
        table.add_row(
            group_managers=row["gms"],
            heartbeat_s=row["heartbeat_s"],
            placed=row["placed"],
            mgmt_messages_per_s=round(row["messages_per_s"], 1),
            gl_failover_s=round(row["failover_s"], 1),
        )
    table.print()
    return rows


def test_e8_hierarchy_fanout_and_heartbeat_tradeoffs(benchmark):
    """Message overhead tracks heartbeat rate; failover time tracks the timeout, not the size."""
    rows = run_once(benchmark, _run_experiment)
    by_config = {(row["gms"], row["heartbeat_s"]): row for row in rows}
    # All configurations serve the workload; every multi-GM configuration fails over.
    assert all(row["placed"] == VMS for row in rows)
    assert all(np.isfinite(row["failover_s"]) for row in rows if row["gms"] > 1)
    # Faster heartbeats cost more messages (1 s vs 5 s at 4 GMs).
    assert by_config[(4, 1.0)]["messages_per_s"] > by_config[(4, 5.0)]["messages_per_s"]
    # Faster heartbeats (shorter session timeout) also fail over faster.
    assert by_config[(4, 1.0)]["failover_s"] < by_config[(4, 5.0)]["failover_s"]
    # Adding GMs does not blow up the message rate (within 2x from 1 to 8 GMs).
    assert by_config[(8, 2.0)]["messages_per_s"] <= 2.0 * by_config[(1, 2.0)]["messages_per_s"]
    # Failover time is bounded by a few session timeouts at the default heartbeat.
    assert by_config[(4, 2.0)]["failover_s"] <= 5 * (5 * 2.0)
